"""Planted answers: the bounded solvers find every witness their box holds.

A planted coboundary D_ij = T_i - alpha_ij T_j is built from ring-stable
chart fields T, so ``coboundary_solve`` must find it at the largest exponent
of T and at every larger bound.  A planted isomorphism moves a base with a
nonzero class to tau * D + (T_i - alpha_ij T_j); the class fixes tau, so
``iso_decide`` must find that tau, and 1/tau for the reversed pair.  A
"none" from a solver whose box holds the witness would be a bug that its
caveat hides.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pms.atlas import (
    DoubleSchemeSpec,
    VectorFieldCocycle,
    canonical_spanning_pairs,
    derivation_failures,
    derive_mult,
    derive_vector_field,
)
from pms.cohomology import coboundary_solve, iso_decide
from pms.laurent_core import LaurentPoly
from pms.p2_catalog import build_carpet, make_blown_plane, make_p2

from oracles import field_directions

# derandomized with a fixed example count, as in test_cli_fuzz.py
PLANTED = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# bundle cocycles on three and four charts; only the atlas and alpha are read
TWISTED = (
    make_p2(-3), make_p2(-1), make_p2(0), make_p2(1),
    make_blown_plane(-3, 1, nontrivial=False),
    make_blown_plane(0, 2, nontrivial=False),
)
# bases whose class is nonzero, so that the class fixes tau
CLASSES = (
    make_p2(-3, nontrivial=True),
    build_carpet(0), build_carpet(Fraction(1, 2)), build_carpet(-1),
)
TAUS = tuple(Fraction(t) for t in (1, 2, -3, Fraction(1, 2), Fraction(-3, 2)))
WEIGHTS = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]


@st.composite
def stable_fields(draw, atlas):
    """Per chart, up to three pieces x^w (a lam d/dlam + b mu d/dmu) that
    keep the chart ring, with small nonzero integer scales."""
    fields = {}
    for chart in atlas.charts:
        ring = chart.ring
        comps = [LaurentPoly.zero(2), LaurentPoly.zero(2)]
        weights = [w for w in WEIGHTS if field_directions(ring, w)]
        for _ in range(draw(st.integers(0, 3))):
            w = draw(st.sampled_from(weights))
            a, b = draw(st.sampled_from(field_directions(ring, w)))
            c = draw(st.sampled_from((1, 2, 3, -1, -2)))
            comps[0] += LaurentPoly.monomial(2, (w[0] + 1, w[1]), a * c)
            comps[1] += LaurentPoly.monomial(2, (w[0], w[1] + 1), b * c)
        assert derivation_failures(tuple(comps), ring, atlas.variables) == []
        fields[chart.name] = tuple(comps)
    return fields


def largest_exponent(fields) -> int:
    return max((abs(x) for comps in fields.values() for comp in comps
                for e, _ in comp.items() for x in e), default=0)


def moved(base: DoubleSchemeSpec, tau, fields) -> DoubleSchemeSpec:
    """tau * D + (T_i - alpha_ij T_j) on the spanning pairs of ``base``."""
    alpha = derive_mult(base.atlas, base.alpha)
    d = derive_vector_field(base.atlas, base.alpha, base.D)
    data = {
        (i, j): tuple(
            d[(i, j)][v].scale(tau) + fields[i][v]
            - alpha[(i, j)] * fields[j][v]
            for v in range(2)
        )
        for i, j in canonical_spanning_pairs(base.atlas)
    }
    return DoubleSchemeSpec(base.atlas, base.alpha, VectorFieldCocycle(data))


@st.composite
def planted_coboundaries(draw):
    """A coboundary over a catalog bundle (``moved`` with tau = 0) and the
    largest exponent of its fields."""
    base = draw(st.sampled_from(TWISTED))
    fields = draw(stable_fields(base.atlas))
    return moved(base, 0, fields), largest_exponent(fields)


@PLANTED
@given(planted_coboundaries())
def test_a_planted_coboundary_is_found_at_every_bound_that_holds_it(planted):
    spec, lowest = planted
    for bound in range(lowest, 9):
        witness, report = coboundary_solve(spec, bound=bound)
        assert witness is not None, bound
        assert (report["status"], report["bound"]) == ("found", bound)


@st.composite
def planted_isomorphisms(draw):
    base = draw(st.sampled_from(CLASSES))
    fields = draw(stable_fields(base.atlas))
    tau = draw(st.sampled_from(TAUS))
    return base, moved(base, tau, fields), tau, max(largest_exponent(fields), 1)


@PLANTED
@given(planted_isomorphisms())
def test_a_planted_isomorphism_is_found_with_its_tau(planted):
    base, target, tau, bound = planted
    for first, second, expected in ((base, target, tau),
                                    (target, base, 1 / tau)):
        witness, report = iso_decide(first, second, bound=bound)
        assert witness is not None
        assert witness[0] == expected
        assert report["witness"]["tau"] == (
            f"{expected.numerator}/{expected.denominator}"
        )
