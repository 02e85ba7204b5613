"""Tests for exact Laurent arithmetic and exact monoid membership."""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest

import pms
from pms import laurent_core as lc
from pms.laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    format_rational,
    json_int,
    json_shape,
    membership_bound,
    membership_witness,
    monoid_contains_enumerate,
    monomial_is_unit,
    monomial_str,
    parse_rational,
    poly_from_json,
    poly_in_ring,
    poly_to_json,
)

LAM = LaurentPoly.var(2, 0)
MU = LaurentPoly.var(2, 1)


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
    """Arithmetic results must already be in the public constructor's form."""
    renormalized = LaurentPoly(p.nvars, dict(p.items()))
    assert list(p.items()) == list(renormalized.items())
    assert p == renormalized
    assert hash(p) == hash(renormalized)
    for exp, coeff in p.items():
        assert type(exp) is tuple and len(exp) == p.nvars
        assert all(type(e) is int for e in exp)
        assert type(coeff) is Fraction and coeff != 0


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
        ]
        for p in results:
            assert_canonical(p)
        assert (a + (-a)).is_zero() and (a - a).is_zero()
        assert a.scale(0).is_zero() and a.mul_monomial(shift, 0).is_zero()
    assert_canonical(LaurentPoly.zero(3))
    assert_canonical((LAM + MU) * (LAM - MU))


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
    caches = {}
    for info in pkgutil.iter_modules(pms.__path__):
        module = importlib.import_module(f"pms.{info.name}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)):
                caches[f"{info.name}.{name}"] = obj.cache_info().maxsize
    assert {
        "atlas._fold_mult",
        "atlas._fold_vector_field",
        "cohomology._chart_ring_rows",
        "cohomology._chart_unknowns",
        "laurent_core._monoid_contains_cached",
        "laurent_core.minimal_generators",
        "truncated_ring._image_power",
    } <= set(caches)
    assert all(size is not None for size in caches.values()), caches
