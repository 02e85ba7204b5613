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
and epsilon) and of u, so that truncate_down(apply_endo(theta, u), k) is
apply_endo of theta cut to order k (its images to k, epsilon to k - 1) on
truncate_down(u, k).

The fact holds by induction on k.  theta(u) is the sum over i of
phi(u_i) * epsilon^i * t^i, and coefficient k of that slice is coefficient
k - i of phi(u_i) * epsilon^i.  A power of a variable image, and epsilon^i,
is built one product at a time, and by the product rule its coefficient j
reads orders 0..j of its factors alone; phi(u_i) is a sum of products of such
powers.  Hence slice i is built only below order n - i (``_powers`` builds
epsilon^i, and the a^i of a bracket, only that far), and every product stops
at the order its caller keeps.  ``endo_inverse`` corrects its candidate order by order: once
the candidate agrees with the inverse below order k, the defect at order k is
what slices 0..k-1 put at order k (slice k starts at t^k), and the correction
at t^k leaves every lower coefficient as it was, so each slice is built once,
as soon as its coefficient is known.  The sum of all n slices is
theta(psi(x_v)) (theta(psi(t)) / t for epsilon's part), so ``endo_inverse``
checks theta o psi on it, key by key, and psi o theta by applying psi anew.

Division obeys the same fact: if q * d = s with d_0 a monomial, then
q_k = (s_k - sum_{j<k} q_j d_(k-j)) / d_0 (``_divide``, as FLINT's
``fmpq_poly_div_series``), so coefficient k of s/d reads orders 0..k of s and
d alone.  Hence ``conjugate_chi``'s epsilon, the quotient alpha * eps_b /
denom, and the phi(x) that denom reads are built only below t^(n-1).

Each public routine packs its input elements once on entry and unpacks its
result once on exit (``laurent_core.Packing``); in between an element is one
``PackedSeries``, a dict from one ``int`` key per monomial t^k x^e to an
``int`` numerator over one common denominator.  In m variables at digit
width W the key is k * 2^(Wm) + sum_v e_v * 2^(Wv): the exponents are signed
base-2^W digits and the t-degree is the top digit.  While every |e_v| <
2^(W-1), adding keys multiplies monomials, and a monomial lies below t^n
exactly when its key is below n * 2^(Wm) - 2^(Wm-1), so one comparison
truncates a term product.

Width rule.  For a call at order n, let M be m times the largest |e_v| of any
input exponent of the polynomials the call packs on entry, so every input
exponent has |e|_1 = sum_v |e_v| <= M.  The call packs at W = max(12,
bit_length(S) + 1) with S = (n + 1)^2 (M + 2); as |e_v| <= |e|_1, every digit
fits once each exponent the call forms has |e|_1 <= S.  Proof: call an
element (h, c)-bounded when each exponent of its t^k coefficient has |e|_1 <=
h + kc.  A product of (h1, c)- and (h2, c)-bounded elements, and each term
product formed on the way, is (h1 + h2, c)-bounded, also after a shift by
t^i; a sum keeps the larger h.  If d is (h_d, c)-bounded and d_0 a monomial of
norm g, then s/d for an (h_s, c)-bounded s, and each product q_j d_i of the
recurrence, are (h_s + g, c + h_d + g)-bounded, by induction on k.  Inputs
are (M, 0)-bounded and a variable image (1, M)-bounded, so its inverse is
(1, c)-bounded for c = M + 2 and theta(x_v)^j is (|j|, c)-bounded.  Below t^n,
``trunc_mul`` then forms norms <= 2M, ``bracket_subst`` <= nM and
``invert_unit`` (M, 2M)-bounded ones.  In ``apply_endo`` phi(u_i) is
(M, c)- and epsilon^i (iM, 0)-bounded, so theta(u) stays within
M + (n - 1)c.  In ``conjugate_chi`` alpha * x is (2M, 0)-bounded and the
denominator (0, 3M + 2)-bounded, so the quotient is (2M, 3M + 2)-bounded.  In
``endo_inverse``, induction on i bounds coefficient i of psi's variable images
by 1 + ic + i^2 M and of its epsilon by ic + (i + 1)^2 M, and a power of such
an exponent built at order n adds at most (n - 1)c.  Each bound is at most
S.  A wider packing is as exact, so the floor of 12 only lets calls share the
``_image_power`` memo, which is keyed on the packing.
"""

from __future__ import annotations

from functools import lru_cache

from .laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    PackedSeries,
    Packing,
    Rational,
    Record,
    largest_exponent,
    monomial_is_unit,
    poly_in_ring,
    shared_packing,
)

# the narrowest digit width; two-variable keys below t^64 then stay below
# 2^30, one digit of a CPython int
MIN_DIGIT_WIDTH = 12


class TruncElement(Record):
    """An element of R[t]/(t^order): coeffs[i] multiplies t^i."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[LaurentPoly, ...]):
        if type(coeffs) is not tuple:  # a list would stay mutable
            coeffs = tuple(coeffs)
        if order < 1:
            raise ValueError("truncation order must be at least 1")
        if len(coeffs) != order:
            raise ValueError(f"expected {order} coefficients, got {len(coeffs)}")
        nvars = coeffs[0].nvars
        for c in coeffs:  # a loop, where a set comprehension costs a frame
            if c.nvars != nvars:
                raise ValueError("mixed variable counts in coefficients")
        self._fill(order, coeffs)

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
    packing = _packing(a.order, a.nvars, a.coeffs + b.coeffs)
    return _unpack(packing.pack(a.coeffs).times(packing.pack(b.coeffs), a.order))


def _packing(order: int, nvars: int, polys) -> Packing:
    """The packing of a call at ``order`` whose inputs are ``polys`` (the
    width rule of the module docstring)."""
    bound = nvars * largest_exponent(polys)
    width = ((order + 1) ** 2 * (bound + 2)).bit_length() + 1
    return shared_packing(nvars, max(MIN_DIGIT_WIDTH, width))


def _unpack(s: PackedSeries) -> TruncElement:
    return TruncElement(s.order, s.unpack())


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
    packing = _packing(u.order, u.nvars, u.coeffs)
    return _unpack(_divide(packing.one(u.order), packing.pack(u.coeffs)))


def _divide(s: PackedSeries, d: PackedSeries) -> PackedSeries:
    """The quotient s/d in R[t]/(t^n), n the order of ``s`` (consumed), where
    d_0 is a monomial: q_k is the coefficient of t^k in s - sum_{j<k} q_j d,
    divided by d_0 (see the module docstring)."""
    inv = d.head_inverse()
    if inv is None:
        raise ValueError("constant coefficient is not a monomial unit")
    n = s.order
    tail = inv.times(d.degree(1, n), n)  # (d - d_0) / d_0
    q = PackedSeries(s.packing, n, {})
    for k in range(n):
        sk = s.degree(k)
        q.add_product(sk, inv)
        s.add_product(sk, tail, sign=-1)  # q_k d_j at t^(k+j)
    return q.finished()


def bracket_subst(l: TruncElement, a: TruncElement) -> TruncElement:
    """Substitute a*t for t in the t-expansion: sum of l_i * a^i * t^i."""
    l._check(a)
    packing = _packing(l.order, l.nvars, l.coeffs + a.coeffs)
    apows = _powers(packing.pack(a.coeffs), l.order)
    return _unpack(_bracket(packing.pack(l.coeffs), apows, l.order))


def _powers(a: PackedSeries, order: int) -> list[PackedSeries]:
    """a^0, ..., a^(order-1), each a^i built only below t^(order-i): only
    those orders survive a shift by t^i."""
    pows = [a.packing.one(order), a]
    for i in range(2, order):
        pows.append(pows[-1].times(a, order - i))
    return pows[:order]


def _bracket(l: PackedSeries, apows: list[PackedSeries], order: int,
             lag: int = 0) -> PackedSeries:
    """The sum over i >= lag of l_i * a^(i - lag) * t^i below t^order, for
    the powers ``apows`` of a (``_powers`` at this order or above).  Lag 0 is
    the bracket of ``bracket_subst``; lag 1 is t times the bracket of
    (l - l_0) / t."""
    out = PackedSeries(l.packing, order, {})
    for i in range(lag, order):
        out.add_product(l.degree(i), apows[i - lag])
    return out.finished()


# -- endomorphisms ------------------------------------------------------


class RingMorphism(Record):
    """A filtered endomorphism of R[t]/(t^order).

    ``variable_images[v]`` is the image of the v-th chart variable (constant
    coefficient equal to that variable); ``epsilon`` is the image of t divided
    by t, one truncation order lower.
    """

    # ``_hash`` is filled in by the first ``__hash__`` call
    __slots__ = ("order", "variable_images", "epsilon", "_hash")

    def __init__(self, order: int, variable_images: tuple[TruncElement, ...],
                 epsilon: TruncElement):
        self._fill(order, tuple(variable_images), epsilon)  # a list would stay mutable
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
            unit = (0,) * v + (1,) + (0,) * (nvars - v - 1)
            if img.coeffs[0]._monomial() != (unit, 1, 1):
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
        # is; ``_hash`` is no field (its slot starts with ``_``), so repr and
        # == never see it
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


def _coefficients(theta: RingMorphism) -> tuple[LaurentPoly, ...]:
    """Every coefficient of the variable images and of epsilon."""
    return sum((img.coeffs for img in theta.variable_images),
               theta.epsilon.coeffs)


# powers are reused within one computation (the operations of the warm-up and
# 20 endo-calculus rounds, seed 5, make 5,012 hits and 2,021 misses); fresh
# morphisms evict old ones, and a key's morphism hashes its coefficients once
# (``RingMorphism._hash``)
@lru_cache(maxsize=4096)
def _image_power(theta: RingMorphism, v: int, k: int,
                 packing: Packing) -> PackedSeries:
    """theta(x_v)^k as one product of its two cached halves, packed with
    ``packing``, whose width covers k.

    Negative powers build on the cached inverse; the recursion is log |k| deep.
    """
    n = theta.order
    if k == 0:
        return packing.one(n)
    if k in (1, -1):
        image = packing.pack(theta.variable_images[v].coeffs)
        return image if k == 1 else _divide(packing.one(n), image)
    part = k // 2
    return _image_power(theta, v, part, packing).times(
        _image_power(theta, v, k - part, packing), n)


def _phi_poly(theta: RingMorphism, p: LaurentPoly, n: int,
              packing: Packing) -> PackedSeries:
    """Apply the function part of the morphism to a Laurent polynomial.

    The image lives in R[t]/(t^n) and is packed with ``packing``.
    """
    if p.nvars != theta.nvars:
        raise ValueError("variable count mismatch")
    out = PackedSeries(packing, n, {})
    for exp, scalar in packing.scalar_terms(p):
        term = None  # the product of the variable images' powers
        for v, e in enumerate(exp):
            if e:
                power = _image_power(theta, v, e, packing)
                term = power if term is None else term.times(power, n)
        out.add_product(packing.one(n) if term is None else term, scalar)
    return out.finished()


def apply_endo(theta: RingMorphism, u: TruncElement) -> TruncElement:
    """Image of a truncated element under the endomorphism.

    theta(u) is the sum over i of phi(u_i) * epsilon^i * t^i, so slice i is
    built only below order n - i; the slices are summed in one packed element.
    """
    return _unpack(_apply_packed(theta, (u,))[0])


def _apply_packed(theta: RingMorphism, elements: tuple[TruncElement, ...]
                  ) -> list[PackedSeries]:
    """``apply_endo`` of theta on each of ``elements``, finished but packed,
    all with one packing and sharing one list of epsilon's powers."""
    n = theta.order
    for u in elements:
        if u.order != n:
            raise ValueError("element and morphism orders differ")
        if u.nvars != theta.nvars:
            raise ValueError("variable count mismatch")
    packing = _packing(n, theta.nvars, sum((u.coeffs for u in elements),
                                           _coefficients(theta)))
    eps_pows = _powers(packing.pack(theta.epsilon.coeffs), n)
    images = []
    for u in elements:
        out = PackedSeries(packing, n, {})
        for i, ui in enumerate(u.coeffs):
            if ui:
                phi = _phi_poly(theta, ui, n - i, packing)
                out.add_product(phi, eps_pows[i], i)
        images.append(out.finished())
    return images


def compose_endo(outer: RingMorphism, inner: RingMorphism) -> RingMorphism:
    """The endomorphism u -> outer(inner(u)): outer applied to inner's
    variable images and to its t-image epsilon * t in one ``_apply_packed``."""
    if outer.order != inner.order or outer.nvars != inner.nvars:
        raise ValueError("morphism order or variable mismatch")
    n = outer.order
    *images, t_image = map(_unpack, _apply_packed(
        outer, inner.variable_images + (inner.epsilon.lift(n).shift_up(1),)))
    eps = TruncElement(n - 1, t_image.coeffs[1:])
    return RingMorphism(n, tuple(images), eps)


def classify_endo(theta: RingMorphism) -> str:
    """Classify into ``iso`` / ``injective_only`` / ``non_injective``.

    The constant coefficient of epsilon decides: zero kills t^(order-1), a
    monomial (a unit of the Laurent ring) makes the morphism invertible, and
    anything else gives an injective non-surjective morphism.
    """
    eps0 = theta.epsilon.coeffs[0]
    if not eps0:
        return "non_injective"
    return "iso" if len(eps0) == 1 else "injective_only"


def endo_inverse(theta: RingMorphism) -> RingMorphism:
    """Two-sided inverse of an invertible endomorphism.

    Solves order by order in t (``_inverse_part``, each power of epsilon and
    each slice built once): a defect of order t^k in the candidate psi is
    repaired by a correction divided by the k-th power of epsilon's leading
    monomial, which cancels it without touching lower orders.  Both
    compositions with theta are then checked exactly against the identity:
    theta o psi on the solve's own sums, psi o theta by ``_apply_packed``
    of psi afresh.  A failed check is a self-check failure and raises
    AssertionError.  Raises ValueError if epsilon's constant coefficient is
    not a monomial unit.
    """
    if classify_endo(theta) != "iso":
        raise ValueError("endomorphism is not invertible")
    n, nvars = theta.order, theta.nvars
    packing = _packing(n, nvars, _coefficients(theta))
    # epsilon^i below order n - i, as far as slice i is read
    eps_pows = _powers(packing.pack(theta.epsilon.coeffs), n)
    parts = [_inverse_part(theta, eps_pows, LaurentPoly.var(nvars, v), 0, n)
             for v in range(nvars)]
    # theta(x) * epsilon = 1: slice i of x is phi(x_i) * epsilon^(i + 1)
    parts.append(_inverse_part(theta, eps_pows,
                               theta.epsilon.coeffs[0].power(-1), 1, n - 1))
    (*images, x), sums = zip(*parts)
    psi = RingMorphism(n, tuple(images), x)
    back = _apply_packed(psi, theta.variable_images
                         + (theta.epsilon.lift(n).shift_up(1),))
    identity = back[0].packing.places + (back[0].packing.span,)
    if not (all(map(_is_one_term, sums, packing.places + (0,)))
            and all(map(_is_one_term, back, identity))):
        raise AssertionError("inverse iteration failed to converge")
    return psi


def _is_one_term(s: PackedSeries, key: int) -> bool:
    """Whether the finished ``s`` is the monomial of ``key``, coefficient 1."""
    return s.den == 1 and s.terms == {key: 1}


def _inverse_part(theta: RingMorphism, eps_pows: list[PackedSeries],
                  head: LaurentPoly, shift: int, order: int
                  ) -> tuple[TruncElement, PackedSeries]:
    """The p with p_0 = ``head`` at which coefficients 1..order-1 of
    sum_i phi(p_i) * epsilon^(i + shift) * t^i vanish, and that sum, finished.
    Slice k, added once p_k is known, starts with p_k * eps0^(k + shift)."""
    packing = eps_pows[0].packing
    exp, num, den = theta.epsilon.coeffs[0]._monomial()
    sums, p = PackedSeries(packing, order, {}), [head]
    for k in range(order):
        if k:  # p_k = -e_k / eps0^m, e_k what slices 0..k-1 put at t^k
            m, d = k + shift, num ** (k + shift)
            p.append(sums.coefficient(k)._times(  # over |d| > 0
                tuple(-m * e for e in exp), -den ** m if d > 0 else den ** m,
                abs(d)))
        if p[k]:
            phi = _phi_poly(theta, p[k], order - k, packing)
            sums.add_product(phi, eps_pows[k + shift], k)
    return TruncElement(order, tuple(p)), sums.finished()


def conjugate_chi(theta: RingMorphism, x: LaurentPoly,
                  alpha: TruncElement) -> RingMorphism:
    """Conjugate by the t-rescalings: chi_(alpha*x) o theta o chi_(1/x).

    ``x`` must be a single monomial and ``alpha`` a unit one order below the
    morphism, both in the morphism's variables.  Returns the closed-form
    result; callers can cross-check it against the literal three-fold
    composition.
    """
    if len(x) != 1:
        raise ValueError("conjugation requires a monomial rescaling")
    if x.nvars != theta.nvars or alpha.nvars != theta.nvars:
        raise ValueError("variable count mismatch")
    if alpha.order != theta.order - 1:
        raise ValueError("alpha must live one truncation order lower")
    if len(alpha.coeffs[0]) != 1:
        raise ValueError("alpha must be a unit")
    n = theta.order
    packing = _packing(n, theta.nvars,
                       _coefficients(theta) + alpha.coeffs + (x,))
    a = packing.pack(alpha.coeffs)
    # the powers of the combined rescaling y = alpha * x, shared by every
    # bracket below
    ypows = _powers(a.times(packing.pack((x,)), n - 1), n)
    images = tuple(_unpack(_bracket(packing.pack(img.coeffs), ypows, n))
                   for img in theta.variable_images)
    eps_b = _bracket(packing.pack(theta.epsilon.coeffs), ypows, n - 1)
    # mu = (phi(x) - x) / t, and t * mu_b is the lag-1 bracket of phi(x);
    # at order n - 1 it reads phi(x) below t^(n-1) alone
    t_mu_b = _bracket(_phi_poly(theta, x, n - 1, packing), ypows, n - 1, 1)
    denom = packing.one(n - 1)  # 1 + t * mu_b * alpha
    denom.add_product(t_mu_b, a)
    s = PackedSeries(packing, n - 1, {})  # eps * denom = alpha * eps_b
    s.add_product(a, eps_b)
    return RingMorphism(n, images, _unpack(_divide(s, denom.finished())))


def conjugate_chi_composed(theta: RingMorphism, x: LaurentPoly,
                           alpha: TruncElement) -> RingMorphism:
    """The same conjugation computed by direct composition (oracle path)."""
    if len(x) != 1:
        raise ValueError("conjugation requires a monomial rescaling")
    n = theta.order
    inv_x = TruncElement.from_poly(n - 1, x.power(-1))
    left = chi_morphism(n, alpha.scale_poly(x))
    right = chi_morphism(n, inv_x)
    return compose_endo(left, compose_endo(theta, right))
