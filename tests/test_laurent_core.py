"""Tests for exact Laurent arithmetic and exact monoid membership."""

from __future__ import annotations

import importlib
import itertools
import math
import pkgutil
import random
from fractions import Fraction
from operator import add, mul, sub

import pytest

import pms
from pms import laurent_core as lc
from pms.laurent_core import (
    ExponentMonoid,
    FrozenRecordError,
    LaurentPoly,
    PackedSeries,
    Record,
    format_rational,
    json_int,
    json_shape,
    membership_bound,
    membership_witness,
    monomial_is_unit,
    monomial_str,
    parse_rational,
    poly_from_json,
    poly_in_ring,
    poly_to_json,
    shared_packing,
)

LAM = LaurentPoly.var(2, 0)
MU = LaurentPoly.var(2, 1)


def monoid_contains_enumerate(m: ExponentMonoid, exp) -> bool:
    """Independent brute-force membership check by full enumeration.

    Enumerates every coefficient tuple in the bounded box.  Exponential; only
    suitable for small generator lists, as an oracle for the membership
    tests.
    """
    target = tuple(int(x) for x in exp)
    bound = membership_bound(m.generators, target)
    for coeffs in itertools.product(range(bound + 1), repeat=len(m.generators)):
        combo = [0] * m.nvars
        for c, g in zip(coeffs, m.generators):
            for v in range(m.nvars):
                combo[v] += c * g[v]
        if tuple(combo) == target:
            return True
    return False


def random_poly(rng: random.Random, nvars: int = 2, nterms: int = 4,
                span: int = 3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        exp = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return LaurentPoly(nvars, terms)


def test_product_difference_of_squares():
    assert (LAM + MU) * (LAM - MU) == LAM * LAM - MU * MU


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        LAM + LaurentPoly.var(3, 0)
    # a zero operand returns at once, but only after the count check
    zero3 = LaurentPoly.zero(3)
    for combine in (add, sub, mul):
        for a, b in ((LAM, zero3), (zero3, LAM), (LaurentPoly.zero(2), zero3)):
            with pytest.raises(ValueError):
                combine(a, b)
    with pytest.raises(ValueError):
        LaurentPoly(2, {(1, 2, 3): 1})
    # no exponent entry is coerced: int() would truncate 0.5 to 0
    for exp in ((0.5, 1), (1.0, 0), (True, 0), (Fraction(1), 0)):
        with pytest.raises(ValueError):
            LaurentPoly(2, {exp: 1})


def test_zero_terms_are_dropped():
    p = LaurentPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert p.support() == {(1, 0)}
    assert (p - p).is_zero()


def test_ring_axioms_random():
    rng = random.Random(20260823)
    for _ in range(60):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def assert_canonical(p: LaurentPoly) -> None:
    """Arithmetic results must already be in the public constructor's form.

    That form is nonzero ``int`` numerators keyed by tuples of ``nvars``
    ints, over one ``int`` denominator > 0 with
    ``gcd(denominator, *numerators) == 1``, and denominator 1 for zero.  The
    public accessors give each coefficient as a nonzero ``Fraction``.
    """
    renormalized = LaurentPoly(p.nvars, dict(p.items()))
    assert list(p.items()) == list(renormalized.items())
    assert p == renormalized
    assert hash(p) == hash(renormalized)
    assert type(p._den) is int and p._den > 0
    assert math.gcd(p._den, *p._terms.values()) == 1
    assert p._terms or p._den == 1
    for exp, num in p._terms.items():
        assert type(exp) is tuple and len(exp) == p.nvars
        assert all(type(e) is int for e in exp)
        assert type(num) is int and num != 0
    for exp, coeff in p.items():
        assert type(coeff) is Fraction and coeff != 0


def sum_of_products(nvars: int, pairs) -> LaurentPoly:
    """``sum(a * b for a, b in pairs)``, from the zero polynomial."""
    return sum((a * b for a, b in pairs), LaurentPoly.zero(nvars))


def test_arithmetic_results_are_canonical():
    rng = random.Random(31337)
    for _ in range(200):
        # span 1 makes colliding exponents, and so cancellations, common
        a, b = random_poly(rng, span=1), random_poly(rng, span=1)
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        factor = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        results = [
            a + b, a - b, -a, a * b, a.scale(factor), a.scale(0),
            a.mul_monomial(shift, factor), a.mul_monomial(shift, 0),
            a + (-a), a - a, (a + b) * (a - b) - (a * a - b * b),
            sum_of_products(2, [(a, b), (b, a.scale(factor))]),
        ]
        for p in results:
            assert_canonical(p)
        assert (a + (-a)).is_zero() and (a - a).is_zero()
        assert a.scale(0).is_zero() and a.mul_monomial(shift, 0).is_zero()

        # zero on either side, beside a fractional and an integral partner
        zero = LaurentPoly.zero(2)
        for c in (a, a.scale(a._den), b):
            with_zero = [
                zero + c, c + zero, zero - c, c - zero, zero * c, c * zero,
                zero.scale(factor), zero.mul_monomial(shift, factor),
                zero + zero, zero - zero, zero * zero,
            ]
            for p in with_zero:
                assert_canonical(p)
            assert zero + c == c + zero == c - zero == c
            assert zero - c == -c and hash(zero - c) == hash(-c)
            assert all(p.is_zero() and p.nvars == 2 for p in with_zero[4:])
    assert_canonical(LaurentPoly.zero(3))
    assert_canonical((LAM + MU) * (LAM - MU))

    # mixed denominators share one: 1/2, 1/3 and 2/3 over 6
    half, third, two_thirds = Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)
    a = LaurentPoly(2, {(1, 0): half, (0, 1): third, (0, 0): two_thirds})
    assert (a._terms, a._den) == ({(1, 0): 3, (0, 1): 2, (0, 0): 4}, 6)
    b = LaurentPoly(2, {(1, 0): third, (0, -1): Fraction(-3, 4)})
    for p in (a, b, a + b, a - b, a * b, b.scale(two_thirds)):
        assert_canonical(p)
    assert (a + b).coefficient((1, 0)) == Fraction(5, 6)
    # equal numerators over different denominators are different polynomials
    assert LAM.scale(half) != LAM and a.scale(6) != a

    # a sum of products whose pairs have different denominators
    c = LaurentPoly.const(2, Fraction(-5, 2))
    pairs = [(a, b), (c, LAM), (LAM, MU), (b, c)]
    total = sum_of_products(2, pairs)
    assert_canonical(total)
    assert total == a * b + c * LAM + LAM * MU + b * c
    assert total.coefficient((2, 0)) == Fraction(1, 6)
    assert total.coefficient((1, 1)) == Fraction(10, 9)  # 1/3 * 1/3 + 1

    # results that become integral get denominator 1
    for p in (
        LaurentPoly.const(2, half) * LaurentPoly.const(2, 2),
        LAM.scale(half) + LAM.scale(half),
        a.scale(6),
        a.mul_monomial((1, 1), 12),
        sum_of_products(2, [(a, LaurentPoly.const(2, 3)),
                            (a, LaurentPoly.const(2, 3))]),
        LaurentPoly(2, {(2, 0): half}).partial_derivative(0),
    ):
        assert_canonical(p)
        assert p._den == 1
    assert LAM.scale(half) + LAM.scale(half) == LAM

    # cancellation to zero leaves denominator 1
    for p in (
        a - a,
        a + (-a),
        a.scale(third) - a.scale(third),
        sum_of_products(2, [(a, b), (-a, b)]),
        sum_of_products(2, [(a.scale(half), b), (a, b.scale(-half))]),
        LaurentPoly(2, {(0, 0): third}).partial_derivative(1),
    ):
        assert_canonical(p)
        assert p.is_zero() and p._den == 1
    assert a - a == LaurentPoly.zero(2)
    assert hash(a - a) == hash(LaurentPoly.zero(2))


def test_mul_monomial_takes_only_int_shifts():
    # int() would read 1.5 as 1 and True as 1, and a dict lookup reads 1.0
    # as 1; ``coefficient`` takes exponents as ``mul_monomial`` does
    three_lam = LAM.scale(3)
    for shift in ((1.5, 0), (True, 0), (1.0, 0), (Fraction(1), 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            LAM.mul_monomial(shift)
        with pytest.raises(ValueError):
            three_lam.coefficient(shift)
    assert three_lam.coefficient([1, 0]) == 3 and three_lam.coefficient((0, 1)) == 0
    assert LAM.mul_monomial([1, -1], 2) == LaurentPoly.monomial(2, (2, -1), 2)
    assert LAM.mul_monomial((0, 0)) == LAM


def test_the_internal_monomial_read_agrees_with_as_monomial():
    rng = random.Random(4711)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        exp = tuple(rng.randint(-2**40, 2**40) for _ in range(nvars))
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6),
                         rng.randint(1, 10**4))
        p = LaurentPoly.monomial(nvars, exp, coeff)
        e, num, den = p._monomial()
        assert (e, Fraction(num, den)) == p.as_monomial() == (exp, coeff)
        assert type(num) is int and type(den) is int and den > 0
        assert math.gcd(num, den) == 1
    for p in (LaurentPoly.zero(2), LAM + MU, LAM - LAM):
        assert p._monomial() is None and p.as_monomial() is None


def test_coefficients_are_only_ints_and_fractions():
    # Fraction(0.1) would take the float's binary expansion, and True is 1
    for bad in (0.1, 1.0, 0.0, True, False, "1/2", None):
        for build in (
            lambda c: LaurentPoly(2, {(1, 0): c}),
            lambda c: LaurentPoly.const(2, c),
            lambda c: LaurentPoly.monomial(2, (1, 0), c),
            lambda c: LAM.scale(c),
            lambda c: LAM.mul_monomial((1, 0), c),
        ):
            with pytest.raises(ValueError):
                build(bad)
    third = Fraction(1, 3)
    assert LaurentPoly(2, {(1, 0): third}) == LAM.scale(third)
    assert LaurentPoly.const(2, -2) == LaurentPoly.monomial(2, (0, 0), -2)
    assert LAM.mul_monomial((0, 1), third) == LaurentPoly.monomial(2, (1, 1), third)


# -- a plain dict-of-Fraction reference for the differential test --------


def ref_terms(rng: random.Random, nvars: int, span: int = 2) -> dict:
    """Random nonzero ``Fraction`` terms; about half the sets are integral."""
    dens = (1,) if rng.random() < 0.5 else (1, 2, 3, 4, 6)
    terms = {}
    for _ in range(rng.randrange(5)):
        exp = tuple(rng.randint(-span, span) for _ in range(nvars))
        terms[exp] = terms.get(exp, 0) + Fraction(rng.randint(-7, 7), rng.choice(dens))
    return ref_clean(terms)


def ref_clean(terms: dict) -> dict:
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_times(a: dict, shift: tuple, c: Fraction) -> dict:
    return ref_clean({tuple(x + y for x, y in zip(e, shift)): v * c
                      for e, v in a.items()})


def ref_power(a: dict, k: int, nvars: int) -> dict:
    if k < 0:
        [(e, c)] = a.items()
        return {tuple(k * x for x in e): c ** k}
    out = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_derivative(a: dict, v: int) -> dict:
    return ref_clean({e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v]
                      for e, c in a.items()})


def test_arithmetic_matches_the_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(150):
        nvars = rng.choice((1, 2, 3))
        ra, rb, rc = (ref_terms(rng, nvars) for _ in range(3))
        a, b, c = (LaurentPoly(nvars, r) for r in (ra, rb, rc))
        shift = tuple(rng.randint(-2, 2) for _ in range(nvars))
        factor = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))
        v = rng.randrange(nvars)
        k = rng.randrange(4)
        mono = LaurentPoly.monomial(nvars, shift, factor or 1)
        checks = [
            (a + b, ref_add(ra, rb)),
            (a - b, ref_add(ra, rb, -1)),
            (-a, ref_add({}, ra, -1)),
            (a * b, ref_mul(ra, rb)),
            (sum_of_products(nvars, [(a, b), (b, c), (c, a)]),
             ref_add(ref_add(ref_mul(ra, rb), ref_mul(rb, rc)), ref_mul(rc, ra))),
            (sum_of_products(nvars, []), {}),
            (a.scale(factor), ref_times(ra, (0,) * nvars, factor)),
            (a.mul_monomial(shift, factor), ref_times(ra, shift, factor)),
            (a.mul_monomial(shift), ref_times(ra, shift, Fraction(1))),
            (a.power(k), ref_power(ra, k, nvars)),
            (mono.power(-k - 1), ref_power(dict(mono.items()), -k - 1, nvars)),
            (a.partial_derivative(v), ref_derivative(ra, v)),
            (a.extend_vars(nvars + 1), {e + (0,): x for e, x in ra.items()}),
        ]
        for got, want in checks:
            assert dict(got.items()) == want
            assert list(got.items()) == sorted(want.items())
            assert_canonical(got)


def test_packed_products_match_sum_of_products():
    """The packed product loop against ``sum_of_products``: coefficient k of
    a * b + sign * c * d * t^shift below t^order is one sum of products over
    the index pairs that reach k.  At width 4 a digit holds |e[v]| <= 7, and
    the products reach |e[v]| = 6."""
    rng = random.Random(20261019)
    for case in range(150):
        nvars, order = 1 + case % 3, rng.randint(1, 3)
        packing = shared_packing(nvars, 4)
        a, b, c, d = ([LaurentPoly(nvars, ref_terms(rng, nvars, span=3))
                       for _ in range(order)] for _ in range(4))
        shift, sign = rng.randrange(order), rng.choice((1, -1))
        if case % 5 == 0:  # a sum that cancels to zero
            c, d, shift, sign = a, b, 0, -1
        acc = PackedSeries(packing, order, {})
        acc.add_product(packing.pack(tuple(a)), packing.pack(tuple(b)))
        acc.add_product(packing.pack(tuple(c)), packing.pack(tuple(d)),
                        shift, sign)
        for k, got in enumerate(acc.finished().unpack()):
            pairs = [(a[j], b[k - j]) for j in range(k + 1)]
            pairs += [(c[j].scale(sign), d[k - shift - j])
                      for j in range(k - shift + 1)]
            assert got == sum_of_products(nvars, pairs)
            assert_canonical(got)
            if case % 5 == 0:
                assert got.is_zero() and got._den == 1


def test_partial_derivative_example():
    p = LaurentPoly(2, {(2, 1): 1, (-1, 0): 1})
    d = p.partial_derivative(0)
    assert d == LaurentPoly(2, {(1, 1): 2, (-2, 0): -1})


def test_partial_derivative_leibniz_random():
    rng = random.Random(7)
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        for v in (0, 1):
            lhs = (a * b).partial_derivative(v)
            rhs = a.partial_derivative(v) * b + a * b.partial_derivative(v)
            assert lhs == rhs


def test_power():
    p = LAM + MU
    assert p.power(0) == LaurentPoly.const(2, 1)
    assert p.power(3) == p * p * p
    assert LAM.power(-2) == LaurentPoly.monomial(2, (-2, 0))
    with pytest.raises(ValueError):
        p.power(-1)


def test_monoid_membership_examples():
    # Chart ring of the affine plane chart in (mu, lam*mu) coordinates:
    # lam itself is not regular there.
    m = ExponentMonoid(2, ((0, 1), (1, 1)))
    assert m.contains((0, 1))
    assert m.contains((2, 3))
    assert not m.contains((1, 0))
    # Ring generated by 1/lam and lam*mu contains mu/lam^2.
    m2 = ExponentMonoid(2, ((-1, 0), (1, 1)))
    assert m2.contains((-2, 1))
    assert not m2.contains((1, 0))


def test_monoid_validation():
    with pytest.raises(ValueError):
        ExponentMonoid(2, ())
    with pytest.raises(ValueError):
        ExponentMonoid(2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        ExponentMonoid(2, ((1, 0, 0),))
    # no entry is coerced: int() would truncate 1.5 to 1 and -0.5 to 0
    for gens in (((1.5, 0), (0, 1)), ((True, 0), (0, 1)), ((Fraction(1), 0),)):
        with pytest.raises(ValueError):
            ExponentMonoid(2, gens)
    half = ExponentMonoid(2, ((1, 0), (0, 1)))
    for exp in ((-0.5, 0), (1.0, 0), (True, 0), (1, 0, 0)):
        with pytest.raises(ValueError):
            half.contains(exp)
    assert half.contains([1, 2])


def test_membership_bound_formula():
    gens = ((-1, 0), (1, 1))
    assert membership_bound(gens, (2, -3)) == (1 + 0 + 1 + 1) + (2 + 3) + 4


def test_membership_matches_enumeration_oracle():
    """Bounded search agrees with brute-force enumeration on random inputs."""
    rng = random.Random(90125)
    checked = 0
    hits = 0
    while checked < 220:
        ngens = rng.randint(1, 3)
        gens = set()
        while len(gens) < ngens:
            gens.add((rng.randint(-2, 2), rng.randint(-2, 2)))
        m = ExponentMonoid(2, tuple(sorted(gens)))
        target = (rng.randint(-3, 3), rng.randint(-3, 3))
        fast = m.contains(target)
        slow = monoid_contains_enumerate(m, target)
        assert fast == slow, (m.generators, target)
        checked += 1
        hits += fast
    # sanity: the sample must exercise both outcomes
    assert 0 < hits < checked


def combination(gens, coeffs):
    return tuple(
        sum(c * g[v] for c, g in zip(coeffs, gens)) for v in range(len(gens[0]))
    )


def test_cone_residue_finds_member_beyond_search_bound():
    # 19*(-1, 1) + 7*(2, -3) = (-5, -2) needs a coefficient above the bound 18
    gens, target = ((-1, 1), (2, -3)), (-5, -2)
    assert membership_bound(gens, target) == 18
    assert lc._bounded_witness(gens, target) is None
    assert not monoid_contains_enumerate(ExponentMonoid(2, gens), target)
    assert membership_witness(gens, target) == ("residue", (19, 7))
    assert ExponentMonoid(2, gens).contains(target)


MEMBERSHIP_SETS = (
    # not saturated
    ((2,), (3,)),
    ((2, 0), (0, 1)),
    ((2, 0), (3, 0), (0, 1)),
    ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    # units: the cone contains a line
    ((1, 0), (-1, 0), (0, 1)),
    ((1, 0), (-1, 0), (0, 2), (1, 3)),
    ((1, 0, 0), (-1, 0, 0), (0, 1, 1), (0, 0, 1)),
    # rank below the number of variables
    ((1, 1), (2, 2)),
    ((1, 0, 0), (0, 1, 0), (1, 1, 0)),
    ((1, 2, 0), (2, 1, 0), (-1, -1, 0)),
    # a zero generator
    ((0, 0),),
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (2, 1), (1, 2)),
    # members beyond the bounded search's coefficient bound
    ((-1, 1), (2, -3)),
)


def test_membership_agrees_with_bounded_search():
    """The cone/residue answer extends the bounded search and proves each yes."""
    rng = random.Random(60613)
    sets = list(MEMBERSHIP_SETS)
    # small boxes: a bounded search that answers no in rank 3 can take seconds
    for nvars, span, count in ((2, 2, 20), (3, 1, 10)):
        for _ in range(count):
            size, gens = rng.randint(1, 4), set()
            while len(gens) < size:
                gens.add(tuple(rng.randint(-span, span) for _ in range(nvars)))
            sets.append(tuple(sorted(gens)))
    outcomes = set()
    for gens in sets:
        reach = 4 if len(gens[0]) < 3 else 2
        targets = [
            tuple(rng.randint(-reach, reach) for _ in gens[0]) for _ in range(10)
        ]
        if gens in MEMBERSHIP_SETS:
            # 7 = 2*2 + 3 is found by neither residue of ((2,), (3,))
            box = {1: range(-3, 10), 2: range(-2, 3), 3: range(-1, 2)}
            targets += itertools.product(box[len(gens[0])], repeat=len(gens[0]))
        for target in targets:
            branch, witness = membership_witness(gens, target)
            outcomes.add((branch, witness is not None))
            # a bounded-search yes is a yes, so every no is a bounded-search no
            if lc._bounded_witness(gens, target) is not None:
                assert witness is not None, (gens, target)
            if witness is not None:
                assert all(type(c) is int and c >= 0 for c in witness)
                assert combination(gens, witness) == target, (gens, target)
    assert outcomes == {
        ("outside_cone", False), ("outside_lattice", False), ("residue", True),
        ("fallback", True), ("fallback", False),
    }


def test_lattice_test_answers_targets_off_the_generated_lattice():
    """A target inside the cone but off the lattice 2Z x Z is an exact no."""
    gens = ((-2, -2), (-2, 1), (2, 0), (2, 2))
    assert lc._cone_bases(gens)[2] == ((0, (2, 0)), (1, (0, 1)))
    assert membership_witness(gens, (1, 3)) == ("outside_lattice", None)
    assert not monoid_contains_enumerate(ExponentMonoid(2, gens), (1, 3))
    # the neighbouring lattice point is a member
    branch, witness = membership_witness(gens, (2, 3))
    assert branch == "residue" and combination(gens, witness) == (2, 3)


def test_poly_in_ring():
    m = ExponentMonoid(2, ((0, 1), (1, 1)))
    assert poly_in_ring(MU + MU * MU, m)
    assert not poly_in_ring(LAM, m)
    with pytest.raises(ValueError):
        poly_in_ring(LaurentPoly.var(3, 0), m)


def test_monomial_is_unit():
    full = ExponentMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
    assert monomial_is_unit(LaurentPoly.monomial(2, (2, -1), 5), full)
    half = ExponentMonoid(2, ((1, 0), (0, 1)))
    assert not monomial_is_unit(LAM, half)
    assert not monomial_is_unit(LAM + MU, full)


def test_serialization_round_trip_and_order():
    p = LaurentPoly(2, {(1, -2): Fraction(-1, 2), (-3, 0): 7, (1, 5): 1})
    data = poly_to_json(p)
    # canonical order: lexicographic on exponent vectors
    assert [tuple(t["exp"]) for t in data] == [(-3, 0), (1, -2), (1, 5)]
    assert data[1]["coeff"] == "-1/2"
    assert poly_from_json(data, 2) == p
    assert poly_to_json(poly_from_json(data, 2)) == data


def test_serialization_rejects_malformed():
    with pytest.raises(ValueError):
        poly_from_json([{"coeff": "1/1"}], 2)
    with pytest.raises(ValueError):
        poly_from_json([{"coeff": "1/1", "exp": [1]}], 2)
    with pytest.raises(ValueError):
        poly_from_json(
            [{"coeff": "1/1", "exp": [1, 0]}, {"coeff": "2/1", "exp": [1, 0]}], 2
        )
    with pytest.raises(ValueError):
        poly_from_json([{"coeff": "1/0", "exp": [1, 0]}], 2)
    # JSON true and false are not integers, although bool is an int subclass
    with pytest.raises(ValueError):
        poly_from_json([{"coeff": "1/1", "exp": [True, 0]}], 2)
    with pytest.raises(ValueError):
        json_int(False, "an order")
    assert json_int(3, "an order") == 3
    assert json_shape([0, -1], list, "an exponent", int) == [0, -1]


def test_rational_formatting():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(5) == "5/1"
    assert format_rational(Fraction(-6, 8)) == "-3/4"
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == 7
    with pytest.raises(ValueError):
        parse_rational("x")


def test_monomial_str():
    assert monomial_str((0, 0), ("lam", "mu")) == "1"
    assert monomial_str((1, 0), ("lam", "mu")) == "lam"
    assert monomial_str((2, -1), ("lam", "mu")) == "lam^2*mu^-1"


def test_every_cache_is_bounded():
    """The memos of ``pms`` are exactly these, each bounded; a memo added
    or removed must be listed here."""
    caches = {}
    for info in pkgutil.iter_modules(pms.__path__):
        module = importlib.import_module(f"pms.{info.name}")
        for name, obj in vars(module).items():
            if (callable(getattr(obj, "cache_info", None))
                    and obj.__module__ == module.__name__):
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert set(caches) == {
        "atlas._fold_mult",
        "atlas._fold_vector_field",
        "blowup._build_blown_atlas",
        "cohomology._chart_plan",
        "cohomology._chart_ring_rows",
        "laurent_core._cone_bases",
        "laurent_core._monoid_contains_cached",
        "laurent_core.shared_packing",
        "p2_catalog._build_blown_plane",
        "p2_catalog._build_p2",
        "p2_catalog._constructor_member",
        "p2_catalog._family_box",
        "p2_catalog._family_system",
        "p2_catalog.make_p2_atlas",
        "p2_catalog.make_wcover_atlas",
        "truncated_ring._image_power",
    }, sorted(caches)
    assert all(size is not None for size in caches.values()), caches


MUTABLE_RECORDS = {
    "atlas.AtlasDocument",
    "atlas.ValidationReport",
    "blowup.BlowupResult",
    "blowup.TransitionSpec",
    "cohomology.OneFormCocycle",
    "cohomology.TwoCocycle",
    "p2_catalog.FamilyDescription",
}

# frozen records with a mapping field, or a field that has one, which no
# hash can read
UNHASHABLE_VALUES = {"MultCocycle", "VectorFieldCocycle", "CenterSpec",
                     "DoubleSchemeSpec"}


def record_classes() -> dict[str, type]:
    """Every ``Record`` subclass a ``pms`` module defines, by module.name."""
    out = {}
    for info in pkgutil.iter_modules(pms.__path__):
        module = importlib.import_module(f"pms.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, Record)
                    and obj is not Record
                    and obj.__module__ == module.__name__):
                out[f"{info.name}.{name}"] = obj
    return out


def record_samples() -> list:
    """One value of every record class of ``pms``."""
    from pms import atlas, blowup, cohomology, good_points, p2_catalog
    from pms import truncated_ring as tr

    spec = p2_catalog.make_p2(-3, nontrivial=True)
    plane = spec.atlas
    center = blowup.CenterSpec("reduced", generators={"U2": (MU, LAM * MU)})
    result = blowup.blowup_reduced(spec, center)
    order3 = plane._replace(truncation_order=3)
    moves = {pair: tr.identity_morphism(3, 2)
             for pair in atlas.canonical_spanning_pairs(order3)}
    return [
        plane.charts[0].ring, plane.charts[0], plane, spec.alpha, spec.D, spec,
        atlas.validate_double_scheme(spec),
        atlas.AtlasDocument(plane, {spec.alpha.name: spec.alpha}, spec),
        tr.TruncElement.one(3, 2), tr.identity_morphism(3, 2),
        center, blowup.TransitionSpec(order3, moves), result.charts[0], result,
        cohomology.OneFormCocycle({}), cohomology.TwoCocycle({}),
        good_points.standard_good_point(1, 0),
        p2_catalog.FamilyDescription(-3, 0, True, 1, ("c0",), (), 4),
    ]


def test_every_mutable_record_is_listed():
    """The records of ``pms`` that are not frozen are exactly these; a value
    a memo shares must be frozen, and a new mutable one listed here."""
    records = record_classes()
    mutable = {name for name, cls in records.items()
               if cls.__setattr__ is not Record.__setattr__
               or cls.__delattr__ is not Record.__delattr__}
    assert mutable == MUTABLE_RECORDS, sorted(mutable)
    assert {name for name, cls in records.items()
            if cls.__hash__ is None} == MUTABLE_RECORDS
    samples = record_samples()
    assert sorted(type(r).__name__ for r in samples) == sorted(
        name.split(".")[1] for name in records)


def test_records_with_equal_fields_are_equal():
    """A record built again from its fields, positionally in ``_fields``
    order, equals it and hashes alike; a mutable one hashes not at all."""
    for record in record_samples():
        cls = type(record)
        twin = cls(*record._key)
        assert twin is not record and twin == record and not twin != record
        assert repr(twin) == repr(record)
        if f"{cls.__module__[4:]}.{cls.__name__}" in MUTABLE_RECORDS:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        elif cls.__name__ in UNHASHABLE_VALUES:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(twin) == hash(record)


def test_records_of_different_classes_differ():
    samples = record_samples()
    for a, b in itertools.combinations(samples, 2):
        assert a != b and b != a and not a == b
    for record in samples:
        assert record != record._key
    from pms.cohomology import OneFormCocycle, TwoCocycle
    # the same field name and value, in two classes
    assert OneFormCocycle({}) != TwoCocycle({})


def test_atlas_hash_skips_overlaps_and_frames_but_equality_does_not():
    from pms.p2_catalog import make_p2_atlas

    plane = make_p2_atlas()
    pair = next(iter(plane.overlaps))
    torus = ExponentMonoid(2, ((1, 0), (-1, 0), (0, 1), (0, -1)))
    for other in (plane._replace(overlaps={**plane.overlaps, pair: torus}),
                  plane._replace(frames=None)):
        assert hash(other) == hash(plane)
        assert other != plane and plane != other
    assert plane._replace() == plane
    assert plane._replace(residue_scale=Fraction(7)) != plane


def test_frozen_records_refuse_writes_and_mutable_ones_take_them():
    assert issubclass(FrozenRecordError, AttributeError)
    for record in record_samples():
        cls = type(record)
        mutable = f"{cls.__module__[4:]}.{cls.__name__}" in MUTABLE_RECORDS
        for name in record._fields:
            value = getattr(record, name)
            if mutable:
                setattr(record, name, value)
                continue
            with pytest.raises(FrozenRecordError) as info:
                setattr(record, name, value)
            assert info.type is FrozenRecordError
            with pytest.raises(FrozenRecordError) as info:
                delattr(record, name)
            assert info.type is FrozenRecordError
            assert getattr(record, name) is value
        with pytest.raises(AttributeError):  # slots take no new attribute
            record.extra = 1


def test_replace_builds_through_init():
    """``_replace`` runs the constructor, so it validates and normalizes."""
    from pms.p2_catalog import make_p2_atlas

    plane = make_p2_atlas()
    with pytest.raises(ValueError, match="truncation order"):
        plane._replace(truncation_order=1)
    with pytest.raises(TypeError):
        plane._replace(colour="red")
    copy = plane._replace(overlaps=dict(plane.overlaps))
    assert copy == plane and copy is not plane
    assert type(copy.overlaps) is type(plane.overlaps)
    with pytest.raises(ValueError, match="duplicate"):
        ExponentMonoid(1, ((1,),))._replace(generators=((1,), (1,)))
    for record in record_samples():
        assert record._replace() == record


def test_record_repr_has_the_dataclass_form():
    from pms.atlas import Chart

    chart = Chart("U", ExponentMonoid(1, ((1,),)))
    assert repr(chart) == (
        "Chart(name='U', ring=ExponentMonoid(nvars=1, generators=((1,),)))")
