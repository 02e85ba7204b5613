"""Truncated polynomial extensions R[t]/(t^n) of Laurent chart rings.

Elements are vectors of Laurent-polynomial coefficients, one per power of the
nilpotent generator t.  Ring endomorphisms that preserve the filtration by t
are described by where they send each chart variable (a unit-like truncated
element whose constant term is the variable itself) together with the image
of t, which is epsilon * t for a one-order-lower element epsilon.

The module provides exact arithmetic, element and endomorphism classification,
substitution of a multiple of t into the t-expansion (the bracket operation),
and the closed-form conjugation of an endomorphism by the rescaling t -> x*t
for a monomial x, which is checked elsewhere against direct composition.

Every routine builds only the t-coefficients it keeps.  Each cut rests on one
fact: coefficient k of a product a*b reads only orders 0..k of a and b, and
coefficient k of theta(u) reads only orders 0..k of theta (its variable images
and epsilon) and of u, so that

    truncate_down(apply_endo(theta, u), k)
        == apply_endo(truncate_morphism(theta, k), truncate_down(u, k)).

The fact holds by induction on k.  theta(u) is the sum over i of
phi(u_i) * epsilon^i * t^i, and coefficient k of that slice is coefficient
k - i of phi(u_i) * epsilon^i.  A power of a variable image, and epsilon^i,
is built one product at a time, and by the product rule its coefficient j
reads orders 0..j of its factors alone; phi(u_i) is a sum of products of such
powers.  Hence slice i is built only below order n - i (in ``apply_endo``
and, for a^i, in ``bracket_subst``), and ``_mul_to`` stops a product at the
order its caller keeps.  ``endo_inverse`` corrects its candidate order by
order: once the candidate agrees with the inverse below order k, the defect
at order k is what slices 0..k-1 put at order k (slice k starts at t^k), and
the correction at t^k leaves every lower coefficient as it was, so each slice
is built once, as soon as its coefficient is known.

Division obeys the same fact: if q * d = s with d_0 a monomial, then
q_k = (s_k - sum_{j<k} q_j d_(k-j)) / d_0 (``_divide``, as FLINT's
``fmpq_poly_div_series``), so coefficient k of s/d reads orders 0..k of s and
d alone.  Hence ``conjugate_chi``'s epsilon, the quotient alpha * eps_b /
denom, and the phi(x) that denom reads are built only below t^(n-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    Rational,
    json_int,
    json_shape,
    monomial_is_unit,
    poly_from_json,
    poly_in_ring,
    poly_to_json,
)


def full_laurent_ring(nvars: int) -> ExponentMonoid:
    """The monoid of all integer exponent vectors (every monomial allowed)."""
    gens = []
    for i in range(nvars):
        for sign in (1, -1):
            e = [0] * nvars
            e[i] = sign
            gens.append(tuple(e))
    return ExponentMonoid(nvars, tuple(gens))


@dataclass(frozen=True)
class TruncElement:
    """An element of R[t]/(t^order): coeffs[i] multiplies t^i."""

    order: int
    coeffs: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be at least 1")
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"expected {self.order} coefficients, got {len(self.coeffs)}"
            )
        nv = {c.nvars for c in self.coeffs}
        if len(nv) != 1:
            raise ValueError("mixed variable counts in coefficients")

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    @staticmethod
    def zero(order: int, nvars: int) -> TruncElement:
        return TruncElement(order, (LaurentPoly.zero(nvars),) * order)

    @staticmethod
    def from_poly(order: int, p: LaurentPoly) -> TruncElement:
        tail = (LaurentPoly.zero(p.nvars),) * (order - 1)
        return TruncElement(order, (p,) + tail)

    @staticmethod
    def one(order: int, nvars: int) -> TruncElement:
        return TruncElement.from_poly(order, LaurentPoly.const(nvars, 1))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: TruncElement) -> TruncElement:
        self._check(other)
        return TruncElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: TruncElement) -> TruncElement:
        self._check(other)
        return TruncElement(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> TruncElement:
        return TruncElement(self.order, tuple(-c for c in self.coeffs))

    def _check(self, other: TruncElement) -> None:
        if not isinstance(other, TruncElement):
            raise TypeError("expected TruncElement")
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} vs {other.order}"
            )
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def scale_poly(self, p: LaurentPoly) -> TruncElement:
        return TruncElement(self.order, tuple(p * c for c in self.coeffs))

    def scale(self, q: Rational | int) -> TruncElement:
        return TruncElement(self.order, tuple(c.scale(q) for c in self.coeffs))

    def shift_up(self, k: int) -> TruncElement:
        """Multiply by t^k (dropping what falls off the truncation)."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        zero = LaurentPoly.zero(self.nvars)
        coeffs = (zero,) * k + self.coeffs[: self.order - k]
        return TruncElement(self.order, coeffs[: self.order])

    def lift(self, order: int) -> TruncElement:
        """View in a higher truncation order (new coefficients zero)."""
        if order < self.order:
            raise ValueError("lift target below current order")
        zero = LaurentPoly.zero(self.nvars)
        return TruncElement(order, self.coeffs + (zero,) * (order - self.order))


def trunc_mul(a: TruncElement, b: TruncElement) -> TruncElement:
    """Product in R[t]/(t^order) by truncated convolution."""
    a._check(b)
    return _mul_to(a, b, a.order)


def _mul_to(a: TruncElement, b: TruncElement, order: int) -> TruncElement:
    """The product of ``a`` and ``b`` in R[t]/(t^order).

    Both factors need at least ``order`` coefficients; only those below
    ``order`` are read.
    """
    sums = [[] for _ in range(order)]
    _convolve_into(sums, a.coeffs, b.coeffs)
    return _summed(sums, a.nvars)


def _convolve_into(sums: list[list], a: tuple[LaurentPoly, ...],
                   b: tuple[LaurentPoly, ...], shift: int = 0) -> None:
    """Append each product a_j * b_l to ``sums[shift + j + l]``.

    ``sums[k]`` collects the products that make coefficient k of a truncated
    element; products at or beyond ``len(sums)`` are neither formed nor kept.
    """
    room = len(sums) - shift
    for j, aj in enumerate(a[:room]):
        if aj:
            for l, bl in enumerate(b[: room - j]):
                if bl:
                    sums[shift + j + l].append((aj, bl))


def _summed(sums: list[list], nvars: int) -> TruncElement:
    """The truncated element whose coefficient k is the sum of ``sums[k]``."""
    return TruncElement(len(sums), tuple(
        LaurentPoly.sum_of_products(nvars, pairs) for pairs in sums
    ))


def truncate_down(a: TruncElement, order: int) -> TruncElement:
    """Forget the coefficients of t^order and above."""
    if not 1 <= order <= a.order:
        raise ValueError("bad truncation order")
    return TruncElement(order, a.coeffs[:order])


def classify_element(u: TruncElement, ring: ExponentMonoid) -> str:
    """Classify into ``zero_divisor`` / ``unit`` / ``regular_nonunit``.

    The element must have all coefficients inside the chart ring.  An element
    is a zero divisor exactly when its constant coefficient vanishes, and a
    unit exactly when the constant coefficient is an invertible monomial of
    the chart ring.
    """
    for c in u.coeffs:
        if not poly_in_ring(c, ring):
            raise ValueError("element has a coefficient outside the chart ring")
    if u.coeffs[0].is_zero():
        return "zero_divisor"
    if monomial_is_unit(u.coeffs[0], ring):
        return "unit"
    return "regular_nonunit"


def invert_unit(u: TruncElement) -> TruncElement:
    """Inverse of an element whose constant coefficient is a monomial: the
    quotient 1/u of ``_divide``.  Raises ValueError for any other head."""
    one = LaurentPoly.const(u.nvars, 1)
    return _divide([[(one, one)]] + [[] for _ in range(u.order - 1)], u)


def _divide(sums: list[list], d: TruncElement) -> TruncElement:
    """The quotient s/d in R[t]/(t^len(sums)), where s_k is the sum of the
    products in ``sums[k]`` (consumed) and d_0 is a monomial: q_k is one sum
    of products, scaled by 1/d_0 (see the module docstring)."""
    if (mono := d.coeffs[0].as_monomial()) is None:
        raise ValueError("constant coefficient is not a monomial unit")
    exp, head = mono
    inv = None if head == 1 and not any(exp) else ([-e for e in exp], 1 / head)
    minus, q = [-dj for dj in d.coeffs[:len(sums)]], []
    for k, pairs in enumerate(sums):
        pairs.extend((q[j], minus[k - j]) for j in range(k)
                     if q[j] and minus[k - j])
        qk = LaurentPoly.sum_of_products(d.nvars, pairs)
        q.append(qk if inv is None else qk.mul_monomial(*inv))
    return TruncElement(len(sums), tuple(q))


def bracket_subst(l: TruncElement, a: TruncElement) -> TruncElement:
    """Substitute a*t for t in the t-expansion: sum of l_i * a^i * t^i.

    Only orders below n - i of a^i survive the shift by t^i, so a^i is built
    only that far.
    """
    l._check(a)
    n = l.order
    sums = [[] for _ in range(n)]
    apow = TruncElement.one(n, l.nvars)
    for i, li in enumerate(l.coeffs):
        if i:
            apow = a if i == 1 else _mul_to(apow, a, n - i)
        _convolve_into(sums, (li,), apow.coeffs, i)
    return _summed(sums, l.nvars)


# -- endomorphisms ------------------------------------------------------


@dataclass(frozen=True)
class RingMorphism:
    """A filtered endomorphism of R[t]/(t^order).

    ``variable_images[v]`` is the image of the v-th chart variable (constant
    coefficient equal to that variable); ``epsilon`` is the image of t divided
    by t, one truncation order lower.
    """

    order: int
    variable_images: tuple[TruncElement, ...]
    epsilon: TruncElement

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("morphism order must be at least 2")
        if not self.variable_images:
            raise ValueError("need at least one variable image")
        nvars = self.variable_images[0].nvars
        if len(self.variable_images) != nvars:
            raise ValueError(
                f"expected {nvars} variable images, got "
                f"{len(self.variable_images)}"
            )
        for v, img in enumerate(self.variable_images):
            if img.order != self.order or img.nvars != nvars:
                raise ValueError("variable image has wrong order or variables")
            expected = LaurentPoly.var(nvars, v)
            if img.coeffs[0] != expected:
                raise ValueError(
                    f"image of variable {v} must have constant coefficient "
                    f"equal to the variable"
                )
        if self.epsilon.order != self.order - 1:
            raise ValueError("epsilon must live one truncation order lower")
        if self.epsilon.nvars != nvars:
            raise ValueError("epsilon variable count mismatch")

    @property
    def nvars(self) -> int:
        return self.variable_images[0].nvars

    def __hash__(self) -> int:
        # the fields' hash, kept by the first call as ``LaurentPoly._hash``
        # is; ``_hash`` is no field, so repr, == and the JSON never see it
        try:
            return self._hash
        except AttributeError:
            value = hash((self.order, self.variable_images, self.epsilon))
            object.__setattr__(self, "_hash", value)
            return value


def identity_morphism(order: int, nvars: int) -> RingMorphism:
    images = tuple(
        TruncElement.from_poly(order, LaurentPoly.var(nvars, v))
        for v in range(nvars)
    )
    eps = TruncElement.one(order - 1, nvars)
    return RingMorphism(order, images, eps)


def chi_morphism(order: int, y: TruncElement) -> RingMorphism:
    """The rescaling chi_y: identity on functions, t -> y*t."""
    if y.order != order - 1:
        raise ValueError("chi parameter must live one order lower")
    images = tuple(
        TruncElement.from_poly(order, LaurentPoly.var(y.nvars, v))
        for v in range(y.nvars)
    )
    return RingMorphism(order, images, y)


# powers are reused within one computation; fresh morphisms evict old ones,
# and a key's morphism hashes its coefficients once (``RingMorphism._hash``)
@lru_cache(maxsize=4096)
def _image_power(theta: RingMorphism, v: int, k: int) -> TruncElement:
    """theta(x_v)^k as one product of its two cached halves.

    Negative powers build on the cached inverse; the recursion is log |k| deep.
    """
    if k == 0:
        return TruncElement.one(theta.order, theta.nvars)
    if k == 1:
        return theta.variable_images[v]
    if k == -1:
        return invert_unit(theta.variable_images[v])
    part = k // 2
    return trunc_mul(_image_power(theta, v, part),
                     _image_power(theta, v, k - part))


def _phi_poly(theta: RingMorphism, p: LaurentPoly,
              order: int | None = None) -> TruncElement:
    """Apply the function part of the morphism to a Laurent polynomial.

    The image lives in R[t]/(t^order), by default the morphism's order.
    """
    n = theta.order if order is None else order
    sums = [[] for _ in range(n)]
    for exp, scalar in p._scalar_terms():
        term = None  # the product of the variable images' powers
        for v, e in enumerate(exp):
            if e:
                power = _image_power(theta, v, e)
                term = power if term is None else _mul_to(term, power, n)
        if term is None:
            term = TruncElement.one(n, theta.nvars)
        _convolve_into(sums, term.coeffs, (scalar,))
    return _summed(sums, theta.nvars)


def apply_endo(theta: RingMorphism, u: TruncElement) -> TruncElement:
    """Image of a truncated element under the endomorphism.

    theta(u) is the sum over i of phi(u_i) * epsilon^i * t^i, so slice i is
    built only below order n - i; coefficient k of the image is one sum of
    products over all slices.
    """
    if u.order != theta.order:
        raise ValueError("element and morphism orders differ")
    if u.nvars != theta.nvars:
        raise ValueError("variable count mismatch")
    n = theta.order
    sums = [[] for _ in range(n)]
    eps_pow = TruncElement.one(n, theta.nvars)
    for i in range(n):
        if i:
            eps_pow = (theta.epsilon if i == 1
                       else _mul_to(eps_pow, theta.epsilon, n - i))
        if u.coeffs[i]:
            phi = _phi_poly(theta, u.coeffs[i], n - i)
            _convolve_into(sums, phi.coeffs, eps_pow.coeffs, i)
    return _summed(sums, theta.nvars)


def compose_endo(outer: RingMorphism, inner: RingMorphism) -> RingMorphism:
    """The endomorphism u -> outer(inner(u))."""
    if outer.order != inner.order or outer.nvars != inner.nvars:
        raise ValueError("morphism order or variable mismatch")
    n = outer.order
    images = tuple(
        apply_endo(outer, img) for img in inner.variable_images
    )
    t_image = apply_endo(outer, inner.epsilon.lift(n).shift_up(1))
    eps = TruncElement(n - 1, t_image.coeffs[1:])
    return RingMorphism(n, images, eps)


def truncate_morphism(theta: RingMorphism, order: int) -> RingMorphism:
    if not 2 <= order <= theta.order:
        raise ValueError("bad truncation order")
    return RingMorphism(
        order,
        tuple(truncate_down(img, order) for img in theta.variable_images),
        truncate_down(theta.epsilon, order - 1),
    )


def classify_endo(theta: RingMorphism, ring: ExponentMonoid | None = None) -> str:
    """Classify into ``iso`` / ``injective_only`` / ``non_injective``.

    The constant coefficient of epsilon decides: zero kills t^(order-1), a
    chart-ring unit makes the morphism invertible, and anything else gives an
    injective non-surjective morphism.
    """
    if ring is None:
        ring = full_laurent_ring(theta.nvars)
    eps0 = theta.epsilon.coeffs[0]
    if eps0.is_zero():
        return "non_injective"
    if monomial_is_unit(eps0, ring):
        return "iso"
    return "injective_only"


def endo_inverse(theta: RingMorphism) -> RingMorphism:
    """Two-sided inverse of an invertible endomorphism.

    Solves order by order in t (``_inverse_part``, each power of epsilon and
    each slice built once): a defect of order t^k in the candidate is
    repaired by a correction divided by the k-th power of epsilon's leading
    monomial, which cancels it without touching lower orders.  Both
    compositions with theta are then checked against the identity.  Raises
    ValueError if epsilon's constant coefficient is not a monomial unit.
    """
    if classify_endo(theta) != "iso":
        raise ValueError("endomorphism is not invertible")
    n, nvars = theta.order, theta.nvars
    # eps_pows[i] is epsilon^i below order n - i, as far as slice i is read
    eps_pows = [TruncElement.one(n, nvars), theta.epsilon]
    for i in range(2, n - 1):
        eps_pows.append(_mul_to(eps_pows[-1], theta.epsilon, n - i))
    images = tuple(_inverse_part(theta, eps_pows, LaurentPoly.var(nvars, v),
                                 0, n) for v in range(nvars))
    # theta(x) * epsilon = 1: slice i of x is phi(x_i) * epsilon^(i + 1)
    x = _inverse_part(theta, eps_pows, theta.epsilon.coeffs[0].power(-1),
                      1, n - 1)
    psi = RingMorphism(n, images, x)
    ident = identity_morphism(n, nvars)
    if compose_endo(theta, psi) != ident or compose_endo(psi, theta) != ident:
        raise ValueError("inverse iteration failed to converge")
    return psi


def _inverse_part(theta: RingMorphism, eps_pows: list[TruncElement],
                  head: LaurentPoly, shift: int, order: int) -> TruncElement:
    """The p with p_0 = ``head`` at which coefficients 1..order-1 of
    sum_i phi(p_i) * epsilon^(i + shift) * t^i vanish.  Slice i is queued
    once p_i is known; slice k starts with p_k * eps0^(k + shift)."""
    eps0, sums, p = theta.epsilon.coeffs[0], [[] for _ in range(order)], [head]
    for i in range(order - 1):
        if p[i]:
            phi = _phi_poly(theta, p[i], order - i)
            _convolve_into(sums, phi.coeffs, eps_pows[i + shift].coeffs, i)
        ek = LaurentPoly.sum_of_products(theta.nvars, sums[i + 1])
        p.append(-ek * eps0.power(-(i + 1 + shift)) if ek else ek)
    return TruncElement(order, tuple(p))


def conjugate_chi(theta: RingMorphism, x: LaurentPoly,
                  alpha: TruncElement) -> RingMorphism:
    """Conjugate by the t-rescalings: chi_(alpha*x) o theta o chi_(1/x).

    ``x`` must be a single monomial and ``alpha`` a unit one order below the
    morphism.  Returns the closed-form result; callers can cross-check it
    against the literal three-fold composition.
    """
    mono = x.as_monomial()
    if mono is None:
        raise ValueError("conjugation requires a monomial rescaling")
    if alpha.order != theta.order - 1:
        raise ValueError("alpha must live one truncation order lower")
    if alpha.coeffs[0].as_monomial() is None:
        raise ValueError("alpha must be a unit")
    n, nvars = theta.order, theta.nvars

    y = alpha.scale_poly(x)            # the combined rescaling, order n-1
    y_n = y.lift(n)

    images = tuple(
        bracket_subst(img, y_n) for img in theta.variable_images
    )

    # mu = (phi(x) - x) / t is read below t^(n-2): its top stays zero
    phi_x = _phi_poly(theta, x, n - 1)
    mu = TruncElement(n - 1, phi_x.coeffs[1:] + (LaurentPoly.zero(nvars),))
    eps_b = bracket_subst(theta.epsilon, y)
    mu_b = bracket_subst(mu, y)
    # t * mu_b * alpha at order n - 1 reads mu_b * alpha below t^(n-2) only
    sums = [[] for _ in range(n - 1)]
    _convolve_into(sums, mu_b.coeffs, alpha.coeffs, 1)
    denom = TruncElement.one(n - 1, nvars) + _summed(sums, nvars)
    sums = [[] for _ in range(n - 1)]  # eps * denom = alpha * eps_b
    _convolve_into(sums, alpha.coeffs, eps_b.coeffs)
    return RingMorphism(n, images, _divide(sums, denom))


def conjugate_chi_composed(theta: RingMorphism, x: LaurentPoly,
                           alpha: TruncElement) -> RingMorphism:
    """The same conjugation computed by direct composition (oracle path)."""
    mono = x.as_monomial()
    if mono is None:
        raise ValueError("conjugation requires a monomial rescaling")
    n = theta.order
    inv_x = TruncElement.from_poly(n - 1, x.power(-1))
    left = chi_morphism(n, alpha.scale_poly(x))
    right = chi_morphism(n, inv_x)
    return compose_endo(left, compose_endo(theta, right))


# -- serialization ------------------------------------------------------


def trunc_to_json(u: TruncElement) -> dict:
    return {"order": u.order, "coeffs": [poly_to_json(c) for c in u.coeffs]}


def trunc_from_json(data: dict, nvars: int) -> TruncElement:
    if not isinstance(data, dict) or "order" not in data or "coeffs" not in data:
        raise ValueError("malformed truncated element")
    order = json_int(data["order"], "truncation order")
    coeffs = tuple(
        poly_from_json(c, nvars)
        for c in json_shape(data["coeffs"], list, "truncated coefficients")
    )
    return TruncElement(order, coeffs)
