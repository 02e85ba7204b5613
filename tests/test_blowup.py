"""Tests for the blow-up constructors and the induced class maps."""

import json
from fractions import Fraction

import pytest

from pms.atlas import (
    Atlas,
    bundle_ops,
    derive_mult,
    derive_vector_field,
    same_structure,
    transition_endomorphism,
    validate_double_scheme,
)
from pms.blowup import (
    CenterSpec,
    TransitionSpec,
    blowup_good,
    blowup_hypersurface,
    blowup_reduced,
    center_from_json,
    center_to_json,
    exceptional_center,
    lift_double,
    successive_identity_check,
    validate_transition_spec,
    xi_map,
)
from pms.cohomology import BOUND_CAVEAT, coboundary_solve, iso_decide
from pms.laurent_core import LaurentPoly
from pms.p2_catalog import (
    beta_table,
    build_carpet,
    carpet_decompose,
    make_blown_plane,
    make_p2,
    make_p2_atlas,
)
from pms.truncated_ring import RingMorphism, TruncElement, conjugate_chi


def mono(exp, coeff=1):
    return LaurentPoly.monomial(2, exp, coeff)


def const(value):
    return LaurentPoly.const(2, value)


RENAME = {
    "U0/D+(1)": "W0",
    "U1/D+(1)": "W1",
    "U2/D+(mu)": "W2",
    "U2/D+(lam*mu)": "W3",
}
P_CENTER = CenterSpec(
    "reduced", generators={"U2": (mono((0, 1)), mono((1, 1)))}
)
LINE_X0 = CenterSpec(
    "hypersurface",
    generators={
        "U0": (mono((-1, 0)),),
        "U1": (const(1),),
        "U2": (mono((0, 1)),),
    },
)

EXCEPTIONAL_LINE = CenterSpec(
    "hypersurface",
    generators={
        "W0": (const(1),),
        "W1": (const(1),),
        "W2": (mono((0, 1)),),
        "W3": (mono((1, 1)),),
    },
)


def good_center(a1, a2):
    return CenterSpec(
        "good",
        pairs={
            "U2": (
                (mono((0, 1)), const(a1)),
                (mono((1, 1)), const(a2)),
            )
        },
    )


def test_center_spec_validation():
    with pytest.raises(ValueError):
        CenterSpec("fancy", generators={"U0": (const(1),)})
    with pytest.raises(ValueError):
        CenterSpec("good", generators={"U0": (const(1),)})
    with pytest.raises(ValueError):
        CenterSpec("reduced", pairs={"U0": ()})
    with pytest.raises(ValueError):
        CenterSpec("reduced", generators={"U0": ()})
    with pytest.raises(ValueError):
        CenterSpec(
            "hypersurface", generators={"U0": (const(1), mono((0, 1)))}
        )
    with pytest.raises(ValueError):
        CenterSpec(
            "good",
            pairs={
                "U0": ((mono((0, 1)), const(0)),),
                "U1": ((mono((0, 1)), const(0)),),
            },
        )


def test_center_json_round_trip():
    for center in (P_CENTER, LINE_X0, good_center(1, 2)):
        back = center_from_json(center_to_json(center), 2)
        assert back == center
    with pytest.raises(ValueError):
        center_from_json({"kind": "reduced"}, 2)
    with pytest.raises(ValueError):
        center_from_json(
            {"kind": "reduced", "per_chart": {"U0": {"polys": []}}}, 2
        )


def test_reduced_blowup_matches_catalog_member():
    res = blowup_reduced(make_p2(-3, nontrivial=True), P_CENTER, rename=RENAME)
    target = make_blown_plane(-3, 1, 0, nontrivial=True)
    assert [c.name for c in res.atlas.charts] == ["W0", "W1", "W2", "W3"]
    assert same_structure(res.atlas, target.atlas)
    assert dict(res.spec.alpha.data) == dict(beta_table(-3, 1).data)
    assert res.spec.D.data == target.D.data
    witness, report = iso_decide(res.spec, target, bound=4)
    assert witness is not None and witness[0] == 1


def test_reduced_blowup_bundle_factorization():
    res = blowup_reduced(make_p2(-3, nontrivial=True), P_CENTER, rename=RENAME)
    tensored = bundle_ops(res.atlas, "tensor", res.pullback, res.exceptional)
    full = derive_mult(res.atlas, res.spec.alpha)
    for pair, entry in tensored.data.items():
        assert full[pair] == entry


def test_reduced_blowup_restricts_away_from_center():
    base = make_p2(-3, nontrivial=True)
    res = blowup_reduced(base, P_CENTER, rename=RENAME)
    base_alpha = derive_mult(base.atlas, base.alpha)
    assert res.spec.alpha.data[("W0", "W1")] == base_alpha[("U0", "U1")]
    assert res.pullback.data[("W0", "W1")] == base_alpha[("U0", "U1")]
    assert res.exceptional.data[("W0", "W1")] == const(1)
    assert res.spec.D.data[("W0", "W1")] == base.D.data[("U0", "U1")]


def test_xi_map_agrees_with_blowup_route():
    base = make_p2(-3, nontrivial=True)
    res = blowup_reduced(base, P_CENTER, rename=RENAME)
    xi = xi_map(base, P_CENTER, rename=RENAME)
    alpha_full = derive_mult(res.atlas, res.spec.alpha)
    full = derive_vector_field(res.atlas, alpha_full, res.spec.D)
    for pair, comps in xi.data.items():
        assert full[pair] == comps


def test_xi_map_of_zero_is_zero():
    base = make_p2(-3)
    xi = xi_map(base, P_CENTER, rename=RENAME)
    assert all(
        all(c.is_zero() for c in comps) for comps in xi.data.values()
    )


def test_blown_class_is_not_a_coboundary():
    res = blowup_reduced(make_p2(-3, nontrivial=True), P_CENTER, rename=RENAME)
    witness, report = coboundary_solve(res.spec, bound=4)
    assert witness is None
    assert report["status"] == "none_within_bound"


def test_reduced_blowup_input_errors():
    base = make_p2(-3, nontrivial=True)
    with pytest.raises(ValueError):
        blowup_reduced(base, good_center(0, 0))
    with pytest.raises(ValueError):
        blowup_reduced(
            base,
            CenterSpec(
                "reduced", generators={"U2": (mono((0, 1)) + const(1),)}
            ),
        )
    with pytest.raises(ValueError):
        blowup_reduced(
            base, CenterSpec("reduced", generators={"U2": (mono((0, -1)),)})
        )
    with pytest.raises(ValueError):
        blowup_reduced(
            base, CenterSpec("reduced", generators={"U9": (const(1),)})
        )


def test_good_blowup_matches_normal_form():
    base = make_p2(-3, nontrivial=True)
    for a1, a2 in ((1, 0), (0, 1), (2, 3)):
        res = blowup_good(base, good_center(a1, a2), rename=RENAME)
        target = make_blown_plane(
            -3, 0, Fraction(a1), Fraction(-a2), nontrivial=True
        )
        assert dict(res.spec.alpha.data) == dict(beta_table(-3, 0).data)
        witness, report = iso_decide(res.spec, target, bound=4)
        assert witness is not None and witness[0] == 1


def test_good_blowup_of_trivial_center_is_trivial():
    res = blowup_good(make_p2(-3), good_center(0, 0), rename=RENAME)
    assert all(
        all(c.is_zero() for c in comps) for comps in res.spec.D.data.values()
    )
    assert res.exceptional is None


def test_good_blowup_input_errors():
    base = make_p2(-3, nontrivial=True)
    with pytest.raises(ValueError):
        blowup_good(base, P_CENTER)
    bad_coord = CenterSpec(
        "good",
        pairs={"U2": ((mono((0, 1)), const(0)), (mono((0, 1)), const(0)))},
    )
    with pytest.raises(ValueError):
        blowup_good(base, bad_coord)
    off_ring = CenterSpec(
        "good",
        pairs={
            "U2": ((mono((0, 1)), mono((-1, 0))), (mono((1, 1)), const(0)))
        },
    )
    with pytest.raises(ValueError):
        blowup_good(base, off_ring)


def test_hypersurface_line_gives_trivial_class():
    res = blowup_hypersurface(make_p2(-3, nontrivial=True), LINE_X0)
    assert validate_double_scheme(res.spec).ok
    assert res.spec.alpha.data[("U0", "U1")] == mono((2, 0))
    assert res.spec.alpha.data[("U1", "U2")] == mono((0, 2))
    witness, report = coboundary_solve(res.spec, bound=4)
    assert witness is not None


def test_hypersurface_transitions_match_conjugation():
    base = make_p2(-3, nontrivial=True)
    res = blowup_hypersurface(base, LINE_X0)
    eqs = {c.name: c.generator for c in res.charts}
    for i, j in (("U0", "U1"), ("U1", "U2")):
        direct = transition_endomorphism(res.spec, i, j)
        ratio = mono(tuple(a - b for a, b in zip(eqs[i], eqs[j])))
        conjugated = conjugate_chi(
            transition_endomorphism(base, i, j),
            mono(eqs[j]),
            TruncElement.from_poly(1, ratio),
        )
        assert direct == conjugated


def test_hypersurface_input_errors():
    base = make_p2(-3, nontrivial=True)
    with pytest.raises(ValueError):
        blowup_hypersurface(base, P_CENTER)
    with pytest.raises(ValueError):
        blowup_hypersurface(
            base,
            CenterSpec(
                "hypersurface",
                generators={"U0": (const(1),), "U1": (const(1),)},
            ),
        )
    with pytest.raises(ValueError):
        blowup_hypersurface(
            base,
            CenterSpec(
                "hypersurface",
                generators={
                    "U0": (const(1),),
                    "U1": (const(1),),
                    "U2": (mono((1, 1)),),
                },
            ),
        )


def test_carpet_blowup_reaches_rigid_class():
    res = blowup_hypersurface(build_carpet(Fraction(1, 2)), EXCEPTIONAL_LINE)
    assert dict(res.spec.alpha.data) == dict(beta_table(-3, 2).data)
    witness, report = iso_decide(
        res.spec, make_blown_plane(-3, 2, nontrivial=True), bound=5
    )
    assert witness is not None


def test_successive_identity():
    base = make_p2(-3, nontrivial=True)
    assert successive_identity_check(base, good_center(1, 0), bound=4)
    assert successive_identity_check(make_p2(-3), good_center(0, 0), bound=4)
    with pytest.raises(ValueError):
        successive_identity_check(base, P_CENTER)


def test_exceptional_center_extraction():
    res = blowup_reduced(make_p2(-3, nontrivial=True), P_CENTER, rename=RENAME)
    center = exceptional_center(res)
    assert center.kind == "hypersurface"
    assert center.generators["W2"] == (mono((0, 1)),)
    assert center.generators["W3"] == (mono((1, 1)),)
    assert center.generators["W0"] == (const(1),)


def test_lift_double_matches_transition_endomorphisms():
    base = make_p2(-3, nontrivial=True)
    ts = lift_double(base)
    assert validate_transition_spec(ts).ok
    for (i, j), theta in ts.transitions.items():
        assert theta == transition_endomorphism(base, i, j)


def order3_family():
    p2 = make_p2_atlas()
    atlas = Atlas(p2.variables, 3, p2.charts, dict(p2.overlaps))
    lam = LaurentPoly.var(2, 0)
    mu = LaurentPoly.var(2, 1)
    zero = LaurentPoly.zero(2)
    theta01 = RingMorphism(
        3,
        (
            TruncElement(3, (lam, zero, mono((2, -1)))),
            TruncElement(3, (mu, zero, zero)),
        ),
        TruncElement(2, (mono((3, 0)), zero)),
    )
    theta12 = RingMorphism(
        3,
        (
            TruncElement(3, (lam, zero, zero)),
            TruncElement(3, (mu, zero, zero)),
        ),
        TruncElement(2, (mono((0, 3)), mono((0, 4)))),
    )
    return TransitionSpec(
        atlas, {("U0", "U1"): theta01, ("U1", "U2"): theta12}
    )


def test_order_three_reduced_blowup():
    ts = order3_family()
    assert validate_transition_spec(ts).ok
    res = blowup_reduced(ts, P_CENTER, rename=RENAME)
    assert isinstance(res.spec, TransitionSpec)
    assert validate_transition_spec(res.spec).ok
    # away from the center the transition is untouched
    assert res.spec.transitions[("W0", "W1")] == ts.transitions[("U0", "U1")]
    # the distinguished-generator ratio rescales the bundle direction
    eps = res.spec.transitions[("W1", "W2")].epsilon
    assert eps.coeffs[0] == mono((0, 2))
    assert res.exceptional.data[("W1", "W2")] == mono((0, -1))
    assert res.pullback.data[("W1", "W2")] == mono((0, 3))


def test_order_three_hypersurface_blowup():
    ts = order3_family()
    res = blowup_hypersurface(ts, LINE_X0)
    assert isinstance(res.spec, TransitionSpec)
    assert validate_transition_spec(res.spec).ok
    assert res.spec.transitions[("U0", "U1")].epsilon.coeffs[0] == mono((2, 0))
    assert res.spec.transitions[("U1", "U2")].epsilon.coeffs[0] == mono((0, 2))


def test_transition_spec_shape_errors():
    base = make_p2(-3, nontrivial=True)
    ts = lift_double(base)
    with pytest.raises(ValueError):
        TransitionSpec(
            ts.atlas, {("U0", "U1"): ts.transitions[("U0", "U1")]}
        )
    bad_order = order3_family()
    with pytest.raises(ValueError):
        TransitionSpec(base.atlas, bad_order.transitions)


# Report bytes (caveat left out) of the bounded solvers at bound 3; any change
# to how the linear systems are built must leave these witnesses unchanged.
PINNED_REPORTS = {
    "coboundary/hypersurface-blowup": (
        '{"bound":3,"status":"found","witness":{"U0":[[],[{"coeff":"-1/1",'
        '"exp":[1,2]}]],"U1":[[],[]],"U2":[[{"coeff":"-1/1","exp":[0,-1]}],'
        '[]]}}'
    ),
    "iso/trivial-carpets": (
        '{"bound":3,"status":"found","witness":{"fields":{"W0":[[],[]],'
        '"W1":[[],[]],"W2":[[],[]],"W3":[[],[]]},"tau":"6/1"}}'
    ),
    "iso/reduced-blowup": (
        '{"bound":3,"status":"found","witness":{"fields":{"W0":[[],[]],'
        '"W1":[[],[]],"W2":[[],[]],"W3":[[],[]]},"tau":"1/1"}}'
    ),
    "iso/carpet-hypersurface-blowup": (
        '{"bound":3,"status":"found","witness":{"fields":{"W0":[[],[]],'
        '"W1":[[],[]],"W2":[[{"coeff":"-3/2","exp":[0,0]}],[]],'
        '"W3":[[{"coeff":"-3/2","exp":[2,0]}],[{"coeff":"3/2","exp":[1,1]}]]},'
        '"tau":"1/1"}}'
    ),
    "carpet-decompose": (
        '{"bound":3,"status":"found","witness":{"cochain":{"W0":[[],[]],'
        '"W1":[[],[]],"W2":[[],[]],"W3":[[],[]]},"coefficients":{"u":"1/1",'
        '"v":"1/2"}}}'
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_solver_witness_bytes_are_pinned(case):
    base = make_p2(-3, nontrivial=True)
    half = Fraction(1, 2)
    runs = {
        "coboundary/hypersurface-blowup": lambda: coboundary_solve(
            blowup_hypersurface(base, LINE_X0).spec, bound=3
        ),
        "iso/trivial-carpets": lambda: iso_decide(
            build_carpet(half, trivial=True),
            build_carpet(Fraction(3), trivial=True),
            bound=3,
        ),
        "iso/reduced-blowup": lambda: iso_decide(
            blowup_reduced(base, P_CENTER, rename=RENAME).spec,
            make_blown_plane(-3, 1, 0),
            bound=3,
        ),
        "iso/carpet-hypersurface-blowup": lambda: iso_decide(
            blowup_hypersurface(build_carpet(Fraction(3, 2)),
                                EXCEPTIONAL_LINE).spec,
            make_blown_plane(-3, 2, nontrivial=True),
            bound=3,
        ),
        "carpet-decompose": lambda: carpet_decompose(half, bound=3),
    }
    _, report = runs[case]()
    assert report.pop("caveat") == BOUND_CAVEAT
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert text == PINNED_REPORTS[case]
