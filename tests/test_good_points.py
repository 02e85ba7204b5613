"""Tests for good points: invariants, evaluation subspaces, iso decisions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pms.atlas import derivation_failures
from pms.blowup import CenterSpec, blowup_good
from pms.cohomology import iso_decide
from pms.good_points import (
    POINT_RING,
    STANDARD_COORDS,
    GoodPoint,
    blowup_iso_decide,
    bundle_degree,
    delta_invariant,
    h_lp,
    sections_TL,
    standard_good_point,
)
from pms.laurent_core import LaurentPoly, poly_in_ring
from pms.p2_catalog import make_p2, make_wcover_atlas

from oracles import is_good_principal

mono = LaurentPoly.monomial
const = LaurentPoly.const
U = mono(2, (0, 1))
V = mono(2, (1, 1))


def random_ring_poly(rng: random.Random) -> LaurentPoly:
    """A random element of the chart ring C[u, v]."""
    out = LaurentPoly.zero(2)
    for _ in range(rng.randrange(4)):
        i, j = rng.randrange(3), rng.randrange(3)
        out = out + mono(2, (j, i + j), Fraction(rng.randrange(-4, 5)))
    return out


def good_center(a1, a2) -> CenterSpec:
    return CenterSpec(
        "good",
        pairs={"U2": ((U, const(2, Fraction(a1))), (V, const(2, Fraction(a2))))},
    )


def test_good_point_validation():
    z = standard_good_point(1, 0)
    assert z.coords == STANDARD_COORDS
    # coordinates must vanish at the origin
    with pytest.raises(ValueError):
        GoodPoint((U + const(2, 1), V), (const(2, 1), const(2, 0)))
    # data must lie in the chart ring
    with pytest.raises(ValueError):
        GoodPoint((mono(2, (1, 0)), V), (const(2, 1), const(2, 0)))
    with pytest.raises(ValueError):
        GoodPoint(STANDARD_COORDS, (mono(2, (0, -1)), const(2, 0)))
    # dependent differentials: y2 = u + u^2 has the same linear part as y1
    with pytest.raises(ValueError):
        GoodPoint((U, U + U * U), (const(2, 1), const(2, 0)))


def test_delta_values():
    assert delta_invariant(standard_good_point(1, 0)) == (
        Fraction(1), Fraction(0)
    )
    assert delta_invariant(standard_good_point(0, 0)) == (0, 0)
    assert delta_invariant(
        standard_good_point(Fraction(2, 3), -5)
    ) == (Fraction(2, 3), Fraction(-5))


def test_delta_respects_coordinate_changes():
    # (u + v + 5t, v + 3t) = (u + 2t, v + 3t) as ideals
    changed = GoodPoint(
        (U + V, V), (const(2, Fraction(5)), const(2, Fraction(3)))
    )
    assert delta_invariant(changed) == delta_invariant(standard_good_point(2, 3))
    rng = random.Random(8211)
    for _ in range(40):
        while True:
            m = [[Fraction(rng.randrange(-3, 4)) for _ in range(2)]
                 for _ in range(2)]
            if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                break
        a = [Fraction(rng.randrange(-6, 7)), Fraction(rng.randrange(-6, 7))]
        coords = (
            U.scale(m[0][0]) + V.scale(m[0][1]),
            U.scale(m[1][0]) + V.scale(m[1][1]),
        )
        coeffs = (
            const(2, m[0][0] * a[0] + m[0][1] * a[1]),
            const(2, m[1][0] * a[0] + m[1][1] * a[1]),
        )
        z = GoodPoint(coords, coeffs)
        assert delta_invariant(z) == (a[0], a[1])


def test_delta_difference_scales_under_reparametrization():
    # replacing a_r by eps*a_r + d_r with a ring unit eps and ring elements
    # d_r rescales invariant differences by eps evaluated at the origin
    rng = random.Random(8212)
    for _ in range(30):
        eps = const(2, Fraction(rng.choice([1, 2, -1, 3]))) + random_ring_poly(
            rng
        ) * U
        d = (random_ring_poly(rng), random_ring_poly(rng))
        pts = []
        for _ in range(2):
            a = (
                const(2, Fraction(rng.randrange(-5, 6))),
                const(2, Fraction(rng.randrange(-5, 6))),
            )
            moved = tuple(eps * a_r + d_r for a_r, d_r in zip(a, d))
            assert all(poly_in_ring(p, POINT_RING) for p in moved)
            pts.append((a, moved))
        scale = eps.constant_coefficient()
        before = [delta_invariant(GoodPoint(STANDARD_COORDS, a))
                  for a, _ in pts]
        after = [delta_invariant(GoodPoint(STANDARD_COORDS, b))
                 for _, b in pts]
        for i in range(2):
            assert after[0][i] - after[1][i] == scale * (
                before[0][i] - before[1][i]
            )


def test_delta_round_trip_is_bijective():
    rng = random.Random(8213)
    for _ in range(25):
        tangent = (
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)),
        )
        z = standard_good_point(*tangent)
        assert delta_invariant(z) == tangent


def test_section_space_dimensions():
    expected = {-4: 0, -3: 0, -2: 0, -1: 3, 0: 8, 1: 15, 2: 24}
    for m, dim in expected.items():
        basis = sections_TL(m)
        assert len(basis) == dim
        for sec in basis:
            for (slot, exp), coeff in sec.items():
                assert slot in (0, 1, 2)
                assert sum(exp) == m + 1
                assert coeff != 0


def test_evaluation_subspace_dimensions():
    assert h_lp(-3) == ()
    assert h_lp(-2) == ()
    for m in (-1, 0, 1, 2):
        basis = h_lp(m)
        assert len(basis) == 2
        # the two vectors span the full fiber
        det = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
        assert det != 0


def test_bundle_degree_read_off():
    assert bundle_degree(make_p2(-3, nontrivial=True)) == -3
    assert bundle_degree(make_p2(0)) == 0
    assert bundle_degree(make_p2(2)) == 2


def test_blowup_iso_decide_nontrivial_base():
    spec = make_p2(-3, nontrivial=True)
    za = standard_good_point(1, 0)
    zb = standard_good_point(0, 1)
    # H(-3) = 0: only equal invariants give isomorphic blow-ups
    assert blowup_iso_decide(za, za, spec, bound=3)
    assert not blowup_iso_decide(za, zb, spec, bound=3)
    assert not blowup_iso_decide(za, standard_good_point(2, 0), spec, bound=3)


def test_blowup_iso_decide_trivial_base():
    spec = make_p2(-3, nontrivial=False)
    za = standard_good_point(1, 0)
    z2 = standard_good_point(2, 0)
    zb = standard_good_point(0, 1)
    zero = standard_good_point(0, 0)
    # proportional nonzero invariants agree, independent ones do not
    assert blowup_iso_decide(za, z2, spec, bound=3)
    assert not blowup_iso_decide(za, zb, spec, bound=3)
    assert blowup_iso_decide(zero, zero, spec, bound=3)
    assert not blowup_iso_decide(zero, za, spec, bound=3)
    # with H full every pair agrees
    full = make_p2(0)
    assert blowup_iso_decide(za, zb, full, bound=3)
    assert blowup_iso_decide(zero, za, full, bound=3)


def test_blowup_iso_decide_rejects_unnormalized_trivial():
    spec = make_p2(-3, nontrivial=True)
    # overwrite the derivation data with an exact coboundary: the class is
    # trivial but the data is not normalized to zero
    from pms.atlas import DoubleSchemeSpec, VectorFieldCocycle

    lam = mono(2, (1, 0))
    zero2 = LaurentPoly.zero(2)
    cob = VectorFieldCocycle(
        {
            ("U0", "U1"): (lam, zero2),
            ("U1", "U2"): (zero2, zero2),
        }
    )
    crooked = DoubleSchemeSpec(spec.atlas, spec.alpha, cob)
    za = standard_good_point(1, 0)
    with pytest.raises(ValueError):
        blowup_iso_decide(za, za, crooked, bound=4)


def test_blowup_iso_decide_matches_direct_isomorphism_test():
    rng = random.Random(8214)
    for m, nontrivial in ((-3, True), (0, False)):
        spec = make_p2(m, nontrivial=nontrivial)
        cases = [((1, 0), (0, 1)), ((1, 0), (1, 0)), ((0, 0), (1, 0))]
        while len(cases) < 6:
            cases.append(
                (
                    (rng.randrange(-2, 3), rng.randrange(-2, 3)),
                    (rng.randrange(-2, 3), rng.randrange(-2, 3)),
                )
            )
        for pa, pb in cases:
            b1 = blowup_good(spec, good_center(*pa), check=False).spec
            b2 = blowup_good(spec, good_center(*pb), check=False).spec
            witness, report = iso_decide(b1, b2, bound=3)
            direct = blowup_iso_decide(
                standard_good_point(*pa), standard_good_point(*pb), spec,
                bound=3,
            )
            assert (witness is not None) == direct
            assert report["caveat"]


def test_field_extension_matches_vanishing_at_origin():
    # a chart vector field extends across the blow-up exactly when its
    # value at the origin vanishes
    atlas = make_wcover_atlas()
    rings = {c.name: c.ring for c in atlas.charts}
    inward = (mono(2, (1, -1), -1), const(2, 1))  # value (1, 0) at the origin
    vanishing = (mono(2, (1, 0), -1), mono(2, (0, 1)))  # value (0, 0)
    for comps, extends in ((inward, False), (vanishing, True)):
        assert not derivation_failures(comps, POINT_RING, atlas.variables)
        for name in ("W2", "W3"):
            ok = not derivation_failures(comps, rings[name], atlas.variables)
            assert ok == extends


def test_principal_criterion():
    y = mono(1, (1,))
    one = const(1, 1)
    assert is_good_principal(y, one)
    assert is_good_principal(y + y.power(3), one)
    assert is_good_principal(y.scale(5), one + y)
    assert not is_good_principal(y.power(2), one)
    assert not is_good_principal(y.power(2) + y.power(5), one)
    with pytest.raises(ValueError):
        is_good_principal(one + y, one)  # reduced part misses the point
    with pytest.raises(ValueError):
        is_good_principal(y, y)  # t-coefficient vanishes at the point
    with pytest.raises(ValueError):
        is_good_principal(LaurentPoly.zero(1), one)
    with pytest.raises(ValueError):
        is_good_principal(mono(1, (-1,)) + y, one)  # pole at the point
    with pytest.raises(ValueError):
        is_good_principal(mono(2, (1, 0)), const(2, 1))  # wrong arity
