"""Tests for the truncated ring calculus and its endomorphisms."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pms.laurent_core import ExponentMonoid, LaurentPoly
from pms.truncated_ring import (
    RingMorphism,
    TruncElement,
    apply_endo,
    bracket_subst,
    chi_morphism,
    classify_element,
    classify_endo,
    compose_endo,
    conjugate_chi,
    conjugate_chi_composed,
    endo_inverse,
    full_laurent_ring,
    identity_morphism,
    invert_unit,
    trunc_from_json,
    trunc_mul,
    trunc_to_json,
    truncate_down,
)

LAM = LaurentPoly.var(2, 0)
MU = LaurentPoly.var(2, 1)
ZERO = LaurentPoly.zero(2)
ONE = LaurentPoly.const(2, 1)
FULL = full_laurent_ring(2)


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
    with pytest.raises(ValueError):
        invert_unit(el(LAM + MU, ZERO))


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


def test_classify_endo_respects_chart_ring():
    # epsilon = mu is a unit in the full Laurent ring but not in k[mu, lam*mu]
    theta = random_morphism(random.Random(8), 3, "unit")
    theta = RingMorphism(
        3, theta.variable_images, TruncElement(2, (MU, ZERO))
    )
    assert classify_endo(theta) == "iso"
    chart = ExponentMonoid(2, ((0, 1), (1, 1)))
    assert classify_endo(theta, chart) == "injective_only"


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


def test_serialization_round_trip():
    u = el(LAM + MU.scale(Fraction(1, 2)), ZERO, LaurentPoly.monomial(2, (-1, 2)))
    data = trunc_to_json(u)
    assert data["order"] == 3
    assert trunc_from_json(data, 2) == u
    with pytest.raises(ValueError):
        trunc_from_json({"order": 2}, 2)
    for bad in (
        {"order": 2.7, "coeffs": data["coeffs"][:2]},
        {"order": "2", "coeffs": data["coeffs"][:2]},
        {"order": True, "coeffs": data["coeffs"][:1]},
        {"order": 1, "coeffs": 5},
    ):
        with pytest.raises(ValueError):
            trunc_from_json(bad, 2)
