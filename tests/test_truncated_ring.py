"""Tests for the truncated ring calculus and its endomorphisms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pms import truncated_ring
from pms.laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    PackedSeries,
    poly_to_json,
)
from pms.truncated_ring import (
    RingMorphism,
    TruncElement,
    _image_power,
    _inverse_part,
    _phi_poly,
    _unpack,
    apply_endo,
    bracket_subst,
    chi_morphism,
    classify_element,
    classify_endo,
    compose_endo,
    conjugate_chi,
    conjugate_chi_composed,
    endo_inverse,
    identity_morphism,
    invert_unit,
    trunc_mul,
    truncate_down,
)

from oracles import truncate_morphism

LAM = LaurentPoly.var(2, 0)
MU = LaurentPoly.var(2, 1)
ZERO = LaurentPoly.zero(2)
ONE = LaurentPoly.const(2, 1)
# every monomial is a unit of the Laurent ring
FULL = ExponentMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))


def el(*coeffs: LaurentPoly) -> TruncElement:
    return TruncElement(len(coeffs), tuple(coeffs))


def random_poly(rng: random.Random, span: int = 2, terms: int = 3) -> LaurentPoly:
    out = {}
    for _ in range(rng.randrange(terms + 1)):
        exp = (rng.randint(-span, span), rng.randint(-span, span))
        out[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return LaurentPoly(2, out)


def random_element(rng: random.Random, order: int) -> TruncElement:
    return TruncElement(order, tuple(random_poly(rng) for _ in range(order)))


def random_morphism(rng: random.Random, order: int,
                    eps_kind: str = "unit") -> RingMorphism:
    images = []
    for v in range(2):
        coeffs = [LaurentPoly.var(2, v)]
        coeffs += [random_poly(rng) for _ in range(order - 1)]
        images.append(TruncElement(order, tuple(coeffs)))
    if eps_kind == "unit":
        head = LaurentPoly.monomial(
            2, (rng.randint(-1, 1), rng.randint(-1, 1)),
            Fraction(rng.choice([1, 2, -1, 3])),
        )
    elif eps_kind == "zero":
        head = ZERO
    else:  # regular but not a unit
        head = ONE + LaurentPoly.var(2, rng.randrange(2))
    eps = TruncElement(
        order - 1, (head,) + tuple(random_poly(rng) for _ in range(order - 2))
    )
    return RingMorphism(order, tuple(images), eps)


def test_trunc_mul_example():
    a = el(LAM, MU)
    b = el(MU, LAM)
    assert trunc_mul(a, b) == el(LAM * MU, LAM * LAM + MU * MU)


def test_trunc_mul_truncates():
    a = el(ZERO, ONE, ZERO)  # t
    assert trunc_mul(trunc_mul(a, a), a).is_zero()


def test_ring_laws_random():
    rng = random.Random(41)
    for _ in range(30):
        order = rng.randint(2, 5)
        a, b, c = (random_element(rng, order) for _ in range(3))
        assert trunc_mul(a, b) == trunc_mul(b, a)
        assert trunc_mul(trunc_mul(a, b), c) == trunc_mul(a, trunc_mul(b, c))
        assert trunc_mul(a, b + c) == trunc_mul(a, b) + trunc_mul(a, c)


def test_classify_element():
    ring = ExponentMonoid(2, ((0, 1), (1, 1)))  # functions in mu, lam*mu
    assert classify_element(el(ZERO, MU), ring) == "zero_divisor"
    assert classify_element(el(MU, LAM * MU), ring) == "regular_nonunit"
    assert classify_element(el(ONE, MU), ring) == "unit"
    assert classify_element(el(LAM, MU), FULL) == "unit"
    with pytest.raises(ValueError):
        classify_element(el(LAM, ZERO), ring)  # lam outside the chart ring


def test_invert_unit():
    rng = random.Random(99)
    for _ in range(25):
        order = rng.randint(2, 5)
        head = LaurentPoly.monomial(
            2, (rng.randint(-2, 2), rng.randint(-2, 2)),
            Fraction(rng.choice([1, -1, 2, 5]), rng.choice([1, 3])),
        )
        u = TruncElement(
            order, (head,) + tuple(random_poly(rng) for _ in range(order - 1))
        )
        inv = invert_unit(u)
        assert trunc_mul(u, inv) == TruncElement.one(order, 2)
        assert trunc_mul(inv, u) == TruncElement.one(order, 2)
    for head in (LAM + MU, ZERO, LAM.scale(Fraction(1, 2)) + ONE):
        with pytest.raises(ValueError, match="not a monomial unit"):
            invert_unit(el(head, ONE, MU))


def test_bracket_subst_is_t_rescaling():
    # l = c0 + c1 t + c2 t^2 substituted with a*t
    c = [random_poly(random.Random(5)) for _ in range(3)]
    l = el(*c)
    a = el(LAM, MU, ZERO)
    out = bracket_subst(l, a)
    a2 = trunc_mul(a, a)
    expected = (
        TruncElement.from_poly(3, c[0])
        + a.scale_poly(c[1]).shift_up(1)
        + a2.scale_poly(c[2]).shift_up(2)
    )
    assert out == expected


def test_bracket_subst_multiplicative():
    rng = random.Random(17)
    for _ in range(20):
        order = rng.randint(2, 4)
        a = random_element(rng, order)
        u = random_element(rng, order)
        v = random_element(rng, order)
        lhs = bracket_subst(trunc_mul(u, v), a)
        rhs = trunc_mul(bracket_subst(u, a), bracket_subst(v, a))
        assert lhs == rhs


def test_apply_endo_is_ring_morphism():
    rng = random.Random(12345)
    for _ in range(25):
        order = rng.randint(2, 5)
        theta = random_morphism(rng, order, rng.choice(["unit", "reg"]))
        u = random_element(rng, order)
        v = random_element(rng, order)
        assert apply_endo(theta, u + v) == apply_endo(theta, u) + apply_endo(theta, v)
        assert apply_endo(theta, trunc_mul(u, v)) == trunc_mul(
            apply_endo(theta, u), apply_endo(theta, v)
        )


def test_identity_and_composition():
    rng = random.Random(2)
    ident = identity_morphism(3, 2)
    u = random_element(rng, 3)
    assert apply_endo(ident, u) == u
    a = random_morphism(rng, 3)
    b = random_morphism(rng, 3)
    c = random_morphism(rng, 3)
    assert compose_endo(a, identity_morphism(3, 2)) == a
    assert compose_endo(identity_morphism(3, 2), a) == a
    assert compose_endo(compose_endo(a, b), c) == compose_endo(a, compose_endo(b, c))
    # composition agrees with applying one after the other
    for _ in range(10):
        u = random_element(rng, 3)
        assert apply_endo(compose_endo(a, b), u) == apply_endo(a, apply_endo(b, u))


@pytest.mark.parametrize("seed", range(12))
def test_composition_is_outer_applied_to_each_image(seed, monkeypatch):
    """``compose_endo`` equals ``apply_endo`` of the outer morphism on each
    inner variable image and on epsilon * t, built from one list of
    epsilon's powers; ``endo_inverse`` checks both compositions without
    ``compose_endo`` or ``identity_morphism``, building theta's powers for
    the solve and psi's for the psi(theta) check, once each."""
    rng = random.Random(f"compose:{seed}")
    order = 2 + seed % 4
    outer = sparse_morphism(rng, order, 2, ("unit", "zero", "reg")[seed % 3])
    inner = sparse_morphism(rng, order, 2, "unit")
    t_image = apply_endo(outer, inner.epsilon.lift(order).shift_up(1))
    expected = RingMorphism(
        order, tuple(apply_endo(outer, img) for img in inner.variable_images),
        TruncElement(order - 1, t_image.coeffs[1:]))
    powers, called = [], []
    built_powers = truncated_ring._powers

    def spy_powers(a, n):
        powers.append(n)
        return built_powers(a, n)

    monkeypatch.setattr(truncated_ring, "_powers", spy_powers)
    assert compose_endo(outer, inner) == expected
    assert powers == [order]
    for name in ("compose_endo", "identity_morphism"):
        monkeypatch.setattr(truncated_ring, name,
                            lambda *args, name=name: called.append(name))
    powers.clear()
    psi = endo_inverse(inner)
    assert called == [] and powers == [order] * 2
    monkeypatch.undo()
    assert compose_endo(inner, psi) == identity_morphism(order, 2)
    assert compose_endo(psi, inner) == identity_morphism(order, 2)


def planted_inverse(monkeypatch, plant):
    """Make ``endo_inverse`` see ``plant(part, (p, sums))`` in place of the
    return value of each call of ``_inverse_part`` (part 0 first)."""
    calls = []

    def planted(*args):
        calls.append(None)
        return plant(len(calls) - 1, _inverse_part(*args))

    monkeypatch.setattr(truncated_ring, "_inverse_part", planted)


# (seed, order, variables): orders 2-5 in one to three variables
PLANTED_CASES = [(seed, 2 + seed % 4, 1 + seed % 3) for seed in range(12)]


def test_endo_inverse_reports_a_failed_identity_check_as_a_self_check(
        monkeypatch):
    """theta(psi) is checked on the solve's own sums: a stray term t^(k-1)
    x_0^2 in the sum of one part trips the check, although psi is right."""
    for seed, order, nvars in PLANTED_CASES:
        rng = random.Random(f"planted-sum:{seed}")
        theta = sparse_morphism(rng, order, nvars, "unit")
        psi = endo_inverse(theta)
        bad = rng.randrange(nvars + 1)

        def plant(part, solved):
            p, sums = solved
            if part != bad:
                return solved
            span, places = sums.packing.span, sums.packing.places
            key = (sums.order - 1) * span + 2 * places[0]
            terms = {**sums.terms, key: sums.terms.get(key, 0) + sums.den}
            return p, PackedSeries(sums.packing, sums.order, terms, sums.den)

        planted_inverse(monkeypatch, lambda part, solved: solved)
        assert endo_inverse(theta) == psi  # an honest plant changes nothing
        planted_inverse(monkeypatch, plant)
        with pytest.raises(AssertionError, match="failed to converge"):
            endo_inverse(theta)


def test_endo_inverse_checks_psi_after_theta_afresh(monkeypatch):
    """psi(theta) is checked by applying psi anew: a candidate whose top
    coefficient of one variable image is changed after the solve, its sum
    left honest, trips the check."""
    for seed, order, nvars in PLANTED_CASES:
        rng = random.Random(f"planted-candidate:{seed}")
        theta = sparse_morphism(rng, order, nvars, "unit")
        bad = rng.randrange(nvars)
        stray = LaurentPoly.monomial(nvars, [2] + [0] * (nvars - 1))

        def plant(part, solved):
            p, sums = solved
            if part != bad:
                return solved
            top = p.coeffs[-1] + stray
            return TruncElement(p.order, p.coeffs[:-1] + (top,)), sums

        planted_inverse(monkeypatch, plant)
        with pytest.raises(AssertionError, match="failed to converge"):
            endo_inverse(theta)


def test_list_built_values_are_frozen_tuples():
    """Coefficients and images given as lists are stored as tuples, so the
    values equal, hash and compute like the tuple-built ones."""
    rng = random.Random(39)
    theta = sparse_morphism(rng, 3, 2, "unit")
    u = sparse_element(rng, 3, 2)
    u_list = TruncElement(3, list(u.coeffs))
    images = [TruncElement(3, list(img.coeffs))
              for img in theta.variable_images]
    theta_list = RingMorphism(3, images,
                              TruncElement(2, list(theta.epsilon.coeffs)))
    assert type(u_list.coeffs) is tuple and u_list == u
    assert hash(u_list) == hash(u)
    assert type(theta_list.variable_images) is tuple and theta_list == theta
    assert hash(theta_list) == hash(theta)
    assert apply_endo(theta_list, u_list) == apply_endo(theta, u)
    assert endo_inverse(theta_list) == endo_inverse(theta)


def test_classify_endo_with_witnesses():
    rng = random.Random(777)
    seen = {"iso": 0, "injective_only": 0, "non_injective": 0}
    for _ in range(40):
        order = rng.randint(2, 5)
        kind = rng.choice(["unit", "zero", "reg"])
        theta = random_morphism(rng, order, kind)
        verdict = classify_endo(theta)
        seen[verdict] += 1
        if kind == "unit":
            assert verdict == "iso"
            psi = endo_inverse(theta)
            assert compose_endo(theta, psi) == identity_morphism(order, 2)
            assert compose_endo(psi, theta) == identity_morphism(order, 2)
        elif kind == "zero":
            assert verdict == "non_injective"
            # t^(order-1) is killed
            tk = TruncElement.one(order, 2).shift_up(order - 1)
            assert apply_endo(theta, tk).is_zero()
        else:
            assert verdict == "injective_only"
            with pytest.raises(ValueError):
                endo_inverse(theta)
            # spot-check injectivity on the t-filtration generators
            for k in range(order):
                tk = TruncElement.one(order, 2).shift_up(k)
                if k:
                    assert not apply_endo(theta, tk).is_zero()
    assert all(seen.values())


def test_conjugate_chi_identity_cases():
    rng = random.Random(31)
    theta = random_morphism(rng, 3)
    one_alpha = TruncElement.one(2, 2)
    x_one = ONE
    assert conjugate_chi(theta, x_one, one_alpha) == theta
    # conjugating the identity by any rescaling gives chi_alpha-type epsilon
    ident = identity_morphism(4, 2)
    alpha = el(LaurentPoly.monomial(2, (1, 0), 2), MU, ZERO)
    out = conjugate_chi(ident, LAM * MU * LAM, alpha)
    assert out == conjugate_chi_composed(ident, LAM * MU * LAM, alpha)


def test_conjugate_chi_matches_composition_random():
    """Closed form vs direct three-fold composition on 100 random triples."""
    rng = random.Random(60302)
    for _ in range(100):
        order = rng.randint(2, 4)
        theta = random_morphism(rng, order, rng.choice(["unit", "reg", "zero"]))
        x = LaurentPoly.monomial(
            2, (rng.randint(-2, 2), rng.randint(-2, 2)),
            Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3])),
        )
        head = LaurentPoly.monomial(
            2, (rng.randint(-1, 1), rng.randint(-1, 1)),
            Fraction(rng.choice([1, -2, 3])),
        )
        alpha = TruncElement(
            order - 1,
            (head,) + tuple(random_poly(rng) for _ in range(order - 2)),
        )
        fast = conjugate_chi(theta, x, alpha)
        slow = conjugate_chi_composed(theta, x, alpha)
        assert fast == slow


def test_conjugate_chi_rejects_bad_input():
    theta = random_morphism(random.Random(1), 3)
    with pytest.raises(ValueError):
        conjugate_chi(theta, LAM + MU, TruncElement.one(2, 2))
    with pytest.raises(ValueError):
        conjugate_chi(theta, LAM, TruncElement.one(3, 2))
    with pytest.raises(ValueError):
        conjugate_chi(theta, LAM, el(LAM + ONE, ZERO))


def test_variable_count_mismatches_raise():
    """Each entry point refuses inputs in another variable count before it
    computes anything, and phi refuses a polynomial of another count."""
    theta = random_morphism(random.Random(1), 3)  # two variables
    alpha = el(LAM, MU + ONE)
    lam3 = LaurentPoly.var(3, 0)
    one3 = TruncElement.one(3, 3)
    assert conjugate_chi(theta, MU, alpha).nvars == 2  # the valid call
    mismatched = [
        lambda: conjugate_chi(theta, lam3, alpha),
        lambda: conjugate_chi(theta, MU, TruncElement(2, (lam3, lam3))),
        lambda: apply_endo(theta, one3),
        lambda: trunc_mul(el(LAM, MU, ONE), one3),
        lambda: bracket_subst(el(LAM, MU, ONE), one3),
        lambda: phi_poly(theta, lam3, theta.order),
    ]
    for call in mismatched:
        with pytest.raises(ValueError, match="variable count mismatch"):
            call()


def test_chi_morphism_is_bracket():
    rng = random.Random(3)
    y = random_element(rng, 2)
    y = TruncElement(2, (LaurentPoly.monomial(2, (0, 1), 3), y.coeffs[1]))
    chi = chi_morphism(3, y)
    u = random_element(rng, 3)
    assert apply_endo(chi, u) == bracket_subst(u, y.lift(3))


def test_truncate_and_constant():
    u = el(LAM, MU, ONE)
    assert truncate_down(u, 2) == el(LAM, MU)
    assert u.coeffs[0] == LAM
    with pytest.raises(ValueError):
        truncate_down(u, 4)


def test_morphism_needs_one_image_per_variable():
    x, y = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    eps = TruncElement.one(1, 2)
    with pytest.raises(ValueError, match="expected 2 variable images, got 1"):
        RingMorphism(2, (el(x, ZERO),), eps)
    z = LaurentPoly.var(3, 2)
    with pytest.raises(ValueError, match="expected 3 variable images, got 2"):
        RingMorphism(2, (el(LaurentPoly.var(3, 0), LaurentPoly.zero(3)),
                         el(LaurentPoly.var(3, 1), z)), TruncElement.one(1, 3))
    assert RingMorphism(2, (el(x, y), el(y, x)), eps).nvars == 2


# -- the full-order calculus, kept as the reference for the truncated one --


def ref_trunc_mul(a: TruncElement, b: TruncElement) -> TruncElement:
    n = a.order
    out = [LaurentPoly.zero(a.nvars)] * n
    for i, ai in enumerate(a.coeffs):
        if ai.is_zero():
            continue
        for j in range(n - i):
            bj = b.coeffs[j]
            if bj.is_zero():
                continue
            out[i + j] = out[i + j] + ai * bj
    return TruncElement(n, tuple(out))


def ref_trunc_pow(a: TruncElement, k: int) -> TruncElement:
    out = TruncElement.one(a.order, a.nvars)
    for _ in range(k):
        out = ref_trunc_mul(out, a)
    return out


def ref_invert_unit(u: TruncElement) -> TruncElement:
    n, nvars = u.order, u.nvars
    inv0 = TruncElement.from_poly(n, u.coeffs[0].power(-1))
    w = TruncElement.one(n, nvars) - ref_trunc_mul(inv0, u)
    acc = power = TruncElement.one(n, nvars)
    for _ in range(1, n):
        power = ref_trunc_mul(power, w)
        acc = acc + power
    return ref_trunc_mul(inv0, acc)


def packing_of(theta: RingMorphism, p: LaurentPoly):
    """The packing of a call whose inputs are theta's coefficients and p."""
    return truncated_ring._packing(
        theta.order, theta.nvars, truncated_ring._coefficients(theta) + (p,))


def image_power(theta: RingMorphism, v: int, k: int) -> TruncElement:
    """``_image_power`` at the packing of theta and x_v^k."""
    x = LaurentPoly.monomial(
        theta.nvars, [k if w == v else 0 for w in range(theta.nvars)])
    return _unpack(_image_power(theta, v, k, packing_of(theta, x)))


def phi_poly(theta: RingMorphism, p: LaurentPoly, n: int) -> TruncElement:
    """``_phi_poly`` below t^n at the packing of theta and p."""
    return _unpack(_phi_poly(theta, p, n, packing_of(theta, p)))


def ref_image_power(theta: RingMorphism, v: int, k: int) -> TruncElement:
    if k < 0:
        return ref_trunc_pow(ref_invert_unit(theta.variable_images[v]), -k)
    return ref_trunc_pow(theta.variable_images[v], k)


def ref_phi_poly(theta: RingMorphism, p: LaurentPoly) -> TruncElement:
    out = TruncElement.zero(theta.order, theta.nvars)
    for exp, coeff in p.items():
        term = TruncElement.one(theta.order, theta.nvars)
        for v, e in enumerate(exp):
            if e:
                term = ref_trunc_mul(term, ref_image_power(theta, v, e))
        out = out + term.scale(coeff)
    return out


def ref_apply_endo(theta: RingMorphism, u: TruncElement) -> TruncElement:
    n = theta.order
    eps = theta.epsilon.lift(n)
    out = TruncElement.zero(n, u.nvars)
    eps_pow = TruncElement.one(n, u.nvars)
    for i, ui in enumerate(u.coeffs):
        if not ui.is_zero():
            slice_i = ref_trunc_mul(ref_phi_poly(theta, ui), eps_pow)
            out = out + slice_i.shift_up(i)
        if i + 1 < n:
            eps_pow = ref_trunc_mul(eps_pow, eps)
    return out


def ref_bracket_subst(l: TruncElement, a: TruncElement) -> TruncElement:
    n = l.order
    out = TruncElement.zero(n, l.nvars)
    apow = TruncElement.one(n, l.nvars)
    for i, li in enumerate(l.coeffs):
        if not li.is_zero():
            out = out + apow.scale_poly(li).shift_up(i)
        if i + 1 < n:
            apow = ref_trunc_mul(apow, a)
    return out


def ref_endo_inverse(theta: RingMorphism) -> RingMorphism:
    """The order-by-order iteration on full-order images, unchecked."""
    n, nvars = theta.order, theta.nvars
    eps0 = theta.epsilon.coeffs[0]
    zero = LaurentPoly.zero(nvars)
    images = []
    for v in range(nvars):
        target = TruncElement.from_poly(n, LaurentPoly.var(nvars, v))
        psi_v = target
        for k in range(1, n):
            ek = (ref_apply_endo(theta, psi_v) - target).coeffs[k]
            if ek.is_zero():
                continue
            delta = [zero] * n
            delta[k] = ek * eps0.power(-k)
            psi_v = psi_v - TruncElement(n, tuple(delta))
        images.append(psi_v)
    m = n - 1
    one_low = TruncElement.one(m, nvars)
    theta_low = truncate_morphism(theta, m) if m >= 2 else None
    x = TruncElement.from_poly(m, eps0.power(-1))
    for k in range(1, m):
        imaged = ref_apply_endo(theta_low, x) if theta_low else x
        ek = (ref_trunc_mul(imaged, theta.epsilon) - one_low).coeffs[k]
        if ek.is_zero():
            continue
        delta = [zero] * m
        delta[k] = ek * eps0.power(-(k + 1))
        x = x - TruncElement(m, tuple(delta))
    return RingMorphism(n, tuple(images), x)


def sparse_poly(rng: random.Random, nvars: int, terms: int = 2) -> LaurentPoly:
    """A polynomial of up to ``terms`` terms, exponents in [-2, 2]."""
    return LaurentPoly(nvars, {
        tuple(rng.randint(-2, 2) for _ in range(nvars)):
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        for _ in range(rng.randint(0, terms))
    })


def sparse_element(rng: random.Random, order: int, nvars: int) -> TruncElement:
    return TruncElement(order, tuple(sparse_poly(rng, nvars)
                                     for _ in range(order)))


def sparse_morphism(rng: random.Random, order: int, nvars: int,
                    eps_kind: str) -> RingMorphism:
    """Multi-term images with negative exponents; a unit, zero or regular
    epsilon head."""
    images = tuple(
        TruncElement(order, (LaurentPoly.var(nvars, v),) + tuple(
            sparse_poly(rng, nvars) for _ in range(order - 1)))
        for v in range(nvars)
    )
    if eps_kind == "unit":
        head = LaurentPoly.monomial(
            nvars, [rng.randint(-1, 1) for _ in range(nvars)],
            rng.choice([1, -1, 2, Fraction(1, 3)]))
    elif eps_kind == "zero":
        head = LaurentPoly.zero(nvars)
    else:  # regular but not a unit
        head = LaurentPoly.const(nvars, 1) + LaurentPoly.var(
            nvars, rng.randrange(nvars))
    eps = TruncElement(order - 1, (head,) + tuple(
        sparse_poly(rng, nvars) for _ in range(order - 2)))
    return RingMorphism(order, images, eps)


DIFFERENTIAL_CASES = [
    (seed, 2 + seed % 5, 1 + seed // 10, ("unit", "zero", "reg")[seed % 3])
    for seed in range(30)
]


@pytest.mark.parametrize("seed,order,nvars,eps_kind", DIFFERENTIAL_CASES)
def test_truncated_calculus_matches_full_order_reference(
        seed, order, nvars, eps_kind):
    rng = random.Random(f"truncated-calculus:{seed}")
    theta = sparse_morphism(rng, order, nvars, eps_kind)
    u, w = (sparse_element(rng, order, nvars) for _ in range(2))
    assert trunc_mul(u, w) == ref_trunc_mul(u, w)
    image = apply_endo(theta, u)
    assert image == ref_apply_endo(theta, u)
    assert bracket_subst(u, w) == ref_bracket_subst(u, w)
    p = sparse_poly(rng, nvars, terms=3)
    for k in range(1, order + 1):
        assert phi_poly(theta, p, k) == truncate_down(
            ref_phi_poly(theta, p), k)
    # the truncation fact: order k of theta(u) reads orders 0..k-1 alone
    for k in range(2, order + 1):
        assert truncate_down(image, k) == apply_endo(
            truncate_morphism(theta, k), truncate_down(u, k))
    for v in range(nvars):
        for k in range(-4, 5):
            assert image_power(theta, v, k) == ref_image_power(theta, v, k)
    if eps_kind == "unit":
        assert endo_inverse(theta) == ref_endo_inverse(theta)
    # the closed-form conjugation against the composed oracle, and the
    # series division against the geometric series, at every order
    x = LaurentPoly.monomial(
        nvars, [rng.randint(-2, 2) for _ in range(nvars)],
        Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3])))
    alpha = TruncElement(order - 1, (fraction_head(rng, nvars),) + tuple(
        sparse_poly(rng, nvars, terms=3) for _ in range(order - 2)))
    assert conjugate_chi(theta, x, alpha) == conjugate_chi_composed(
        theta, x, alpha)
    for k in range(1, order + 1):
        unit = TruncElement(k, (fraction_head(rng, nvars),) + tuple(
            sparse_poly(rng, nvars) for _ in range(k - 1)))
        assert invert_unit(unit) == ref_invert_unit(unit)


NEGATIVE_HEAD_CASES = [
    (head, order, nvars) for head in ("-2/3", "-3/2")
    for order in range(2, 7) for nvars in (1, 2, 3)
]


@pytest.mark.parametrize("head,order,nvars", NEGATIVE_HEAD_CASES)
def test_endo_inverse_matches_the_reference_at_negative_fractional_heads(
        head, order, nvars):
    """Epsilon heads -2/3 and -3/2: the correction divides by their odd
    powers too, whose sign moves to the numerator."""
    rng = random.Random(f"negative-head:{head}:{order}:{nvars}")
    theta = sparse_morphism(rng, order, nvars, "unit")
    eps0 = LaurentPoly.monomial(
        nvars, [rng.randint(-1, 1) for _ in range(nvars)], Fraction(head))
    theta = RingMorphism(order, theta.variable_images, TruncElement(
        order - 1, (eps0,) + theta.epsilon.coeffs[1:]))
    assert endo_inverse(theta) == ref_endo_inverse(theta)


def fraction_head(rng: random.Random, nvars: int) -> LaurentPoly:
    """A monomial unit with a non-integral coefficient."""
    return LaurentPoly.monomial(
        nvars, [rng.randint(-1, 1) for _ in range(nvars)],
        Fraction(rng.choice([1, -2, 3]), rng.choice([2, 3])))


def test_high_image_powers_match_the_repeated_product():
    rng = random.Random(5)
    theta = sparse_morphism(rng, 3, 1, "unit")
    for k in (65, 70, -66):
        assert image_power(theta, 0, k) == ref_image_power(theta, 0, k)
    # deep exponents stay within the recursion limit
    x = LaurentPoly.monomial(2, (3000, -2000))
    assert phi_poly(identity_morphism(3, 2), x, 3) == (
        TruncElement.from_poly(3, x))


def test_wide_exponents_keep_their_digits():
    """Three-variable images with exponents near +-2^40: the products' digits
    pass 2^40, so at a digit width of 32 or 41 their keys would carry or
    borrow into the next variable.  The calculus still matches the reference,
    for the powers -3..3 of every image."""
    rng = random.Random(2 ** 40)

    def wide(coeff=1) -> LaurentPoly:
        exp = [rng.choice((2 ** 40 - rng.randint(0, 2), 1 - 2 ** 40,
                           rng.randint(-2, 2))) for _ in range(3)]
        return LaurentPoly.monomial(3, exp, coeff)

    def small() -> LaurentPoly:
        return sparse_poly(rng, 3, terms=3).mul_monomial(
            (rng.randint(-1, 1),) * 3)

    images = tuple(TruncElement(3, (LaurentPoly.var(3, v), wide(-2),
                                    wide() + wide(Fraction(1, 3))))
                   for v in range(3))
    theta = RingMorphism(3, images, TruncElement(2, (wide(Fraction(2, 3)),
                                                     wide())))
    u = TruncElement(3, (small(), small(), small()))
    assert apply_endo(theta, u) == ref_apply_endo(theta, u)
    for v in range(3):
        for k in range(-3, 4):
            assert image_power(theta, v, k) == ref_image_power(theta, v, k)
        assert invert_unit(images[v]) == ref_invert_unit(images[v])
    assert invert_unit(theta.epsilon) == ref_invert_unit(theta.epsilon)
    # the reference inverse applies theta to its candidate, so its wide
    # exponents sit where no candidate coefficient feeds back: t^2 of the
    # images and t^1 of epsilon
    theta = RingMorphism(3, tuple(
        TruncElement(3, (LaurentPoly.var(3, v), small(), wide() + small()))
        for v in range(3)), TruncElement(2, (
            LaurentPoly.monomial(3, (1, -1, 0), Fraction(2, 3)), wide())))
    assert endo_inverse(theta) == ref_endo_inverse(theta)


def test_morphism_hash_is_cached_out_of_sight():
    """Equal morphisms built apart hash alike, hashed first or not, and the
    cached hash shows in no field, repr, comparison or JSON."""

    def built() -> RingMorphism:  # new objects on every call
        return sparse_morphism(random.Random(404), 4, 2, "unit")

    def trunc_to_json(u: TruncElement) -> dict:
        return {"order": u.order, "coeffs": [poly_to_json(c) for c in u.coeffs]}

    def as_json(theta: RingMorphism) -> dict:
        return {"order": theta.order,
                "variable_images": [trunc_to_json(u)
                                    for u in theta.variable_images],
                "epsilon": trunc_to_json(theta.epsilon)}

    a, b = built(), built()
    assert a is not b and a == b
    before = (repr(a), as_json(a))
    assert hash(a) == hash((a.order, a.variable_images, a.epsilon))
    assert hash(b) == hash(a)  # b hashed second
    c, d = built(), built()
    assert hash(d) == hash(c) == hash(a)  # d hashed first
    assert (repr(a), as_json(a)) == before == (repr(b), as_json(b))
    assert "_hash" not in repr(a) and a == b == c == d
    assert a._fields == ("order", "variable_images", "epsilon")
    _image_power.cache_clear()
    for v in range(2):
        for k in (-3, -1, 2, 5):
            power = image_power(a, v, k)
            assert image_power(built(), v, k) == power
            assert power == ref_image_power(built(), v, k)
