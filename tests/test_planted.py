"""Planted answers: the bounded solvers find every witness their box holds.

A planted coboundary D_ij = T_i - alpha_ij T_j is built from ring-stable
chart fields T, so ``coboundary_solve`` must find it at the largest exponent
of T and at every larger bound.  A planted isomorphism moves a base with a
nonzero class to tau * D + (T_i - alpha_ij T_j); the class fixes tau, so
``iso_decide`` must find that tau, and 1/tau for the reversed pair.  An
automorphism of the double structure that is the identity on the plane fixes
a monomial center, so the blow-ups of an isomorphic pair along it are
isomorphic too, with that tau while the blown-up class stays nonzero.  A
"none" from a solver whose box holds the witness would be a bug that its
caveat hides.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pms.atlas import DoubleSchemeSpec, derivation_failures
from pms.blowup import CenterSpec, blowup_hypersurface, blowup_reduced
from pms.cohomology import coboundary_solve, iso_decide
from pms.laurent_core import LaurentPoly
from pms.p2_catalog import build_carpet, make_blown_plane, make_p2

from oracles import field_directions, moved

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


def mono(exp) -> LaurentPoly:
    return LaurentPoly.monomial(2, exp)


ONE = LaurentPoly.const(2, 1)
# per atlas (named by its first chart): a center, and whether blowing up
# along it keeps the class nonzero; the line x0 = 0 kills the plane class,
# so there the pin tau = 1 holds
CENTERS = {
    "U0": (
        (CenterSpec("reduced", generators={"U2": (mono((0, 1)), mono((1, 1)))}),
         True),
        (CenterSpec("hypersurface", generators={
            "U0": (mono((-1, 0)),), "U1": (ONE,), "U2": (mono((0, 1)),),
        }), False),
    ),
    "W0": (
        (CenterSpec("reduced", generators={"W2": (mono((1, 0)), mono((0, 1)))}),
         True),
        (CenterSpec("hypersurface", generators={
            "W0": (ONE,), "W1": (ONE,), "W2": (mono((0, 1)),),
            "W3": (mono((1, 1)),),
        }), True),
    ),
}


def blow_up(spec: DoubleSchemeSpec, center: CenterSpec) -> DoubleSchemeSpec:
    if center.kind == "reduced":
        return blowup_reduced(spec, center).spec
    return blowup_hypersurface(spec, center).spec


@st.composite
def planted_blowups(draw):
    base, target, tau, _ = draw(planted_isomorphisms())
    center, keeps_class = draw(
        st.sampled_from(CENTERS[base.atlas.charts[0].name])
    )
    return base, target, center, tau if keeps_class else 1


@PLANTED
@given(planted_blowups())
def test_blowups_of_a_planted_isomorphism_are_isomorphic(planted):
    """Run twice, so that the second run, served by the memos, is checked
    against the first."""
    base, target, center, expected = planted
    first, second = (
        iso_decide(blow_up(base, center), blow_up(target, center), bound=6)
        for _ in range(2)
    )
    witness, report = first
    assert witness is not None
    assert witness[0] == expected
    assert report["status"] == "found"
    assert second == first
