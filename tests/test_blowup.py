"""Tests for the blow-up constructors and the induced class maps."""

import hashlib
import json
from fractions import Fraction

import pytest

from pms import atlas as atlas_module
from pms import blowup, cohomology, p2_catalog
from pms.atlas import (
    Atlas,
    AtlasDocument,
    derive_mult,
    derive_vector_field,
    dumps_document,
    same_structure,
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
    successive_identity_check,
    validate_transition_spec,
    xi_map,
)
from pms.cohomology import BOUND_CAVEAT, coboundary_solve, iso_decide
from pms.laurent_core import LaurentPoly, poly_to_json
from pms.p2_catalog import (
    beta_table,
    build_carpet,
    carpet_decompose,
    make_blown_plane,
    make_p2,
    make_p2_atlas,
)
from pms.truncated_ring import (
    RingMorphism,
    TruncElement,
    conjugate_chi,
)

from oracles import lift_double, transition_endomorphism


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
    pullback = derive_mult(res.atlas, res.pullback)
    exceptional = derive_mult(res.atlas, res.exceptional)
    full = derive_mult(res.atlas, res.spec.alpha)
    for pair, entry in full.items():
        assert entry == pullback[pair] * exceptional[pair]


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
    full = derive_vector_field(res.atlas, res.spec.alpha, res.spec.D)
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


def test_equal_inputs_share_one_blown_atlas(monkeypatch):
    """The blown-up atlas is built once per input and shared; every output
    is still validated."""
    validated = []

    def spy(spec):
        validated.append(spec)
        return validate_double_scheme(spec)

    monkeypatch.setattr(blowup, "validate_double_scheme", spy)
    first = blowup_reduced(make_p2(-3, nontrivial=True), P_CENTER,
                           rename=RENAME)
    second = blowup_reduced(make_p2(-3), P_CENTER, rename=dict(RENAME))
    good = blowup_good(make_p2(-3), good_center(0, 1), rename=RENAME)
    assert first.atlas is second.atlas is good.atlas
    assert first.spec is not second.spec
    assert validated == [first.spec, second.spec, good.spec]


def test_a_rename_merging_two_charts_raises_on_every_call():
    merge = {"U0/D+(1)": "W0", "U1/D+(1)": "W0"}
    for _ in range(2):
        with pytest.raises(ValueError,
                           match="overlap of a chart with itself: 'W0'"):
            blowup_reduced(make_p2(-3), P_CENTER, rename=merge)


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


# every self-check the two calls below run, per module that calls it by name
SELF_CHECKS = {
    "validate_double_scheme": (atlas_module, blowup, p2_catalog),
    "_verify_resubstitution": (cohomology,),
    "derivation_failures": (atlas_module, blowup, cohomology),
}


@pytest.mark.parametrize("case, expected", [
    ("successive-identity", {"validate_double_scheme": 3,
                             "_verify_resubstitution": 1,
                             "derivation_failures": 22}),
    ("iso-decide", {"validate_double_scheme": 1,
                    "_verify_resubstitution": 1,
                    "derivation_failures": 10}),
])
def test_self_checks_run_on_every_call(monkeypatch, case, expected):
    """A warm call still runs every self-check: neither the memos nor the
    zero and single-term shortcuts of the polynomial layer skip one.  The
    counts are those of the product loops without the shortcuts."""
    base = make_p2(-3, nontrivial=True)

    def run():
        if case == "successive-identity":
            return successive_identity_check(base, good_center(1, 2), bound=4)
        blown = blowup_reduced(base, P_CENTER, rename=RENAME)
        return iso_decide(blown.spec, make_blown_plane(-3, 1, 0), bound=4)[0]

    assert run()  # fills every memo the counted call reads
    counts = dict.fromkeys(SELF_CHECKS, 0)
    for name, modules in SELF_CHECKS.items():
        def counted(*args, _real=getattr(modules[0], name), _name=name,
                    **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        for module in modules:
            monkeypatch.setattr(module, name, counted)
    assert run()
    assert counts == expected


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


def test_transition_leaving_its_overlap_ring_is_reported():
    """The failure strings name the generator, the pair and the first order
    at which its image leaves the overlap ring."""
    atlas = order3_family().atlas
    lam, mu = LaurentPoly.var(2, 0), LaurentPoly.var(2, 1)
    zero = LaurentPoly.zero(2)
    theta01 = RingMorphism(3, (
        TruncElement(3, (lam, mono((-4, 1)), zero)),
        TruncElement(3, (mu, zero, mono((3, -5)))),
    ), TruncElement(2, (mono((3, 0)), zero)))
    theta12 = RingMorphism(3, (
        TruncElement(3, (lam, zero, mono((-2, 0)))),
        TruncElement(3, (mu, zero, zero)),
    ), TruncElement(2, (mono((0, 3)) + mono((1, 0)), mono((0, 4)))))
    report = validate_transition_spec(TransitionSpec(
        atlas, {("U0", "U1"): theta01, ("U1", "U2"): theta12}))
    assert not report.ok
    assert report.failures == [
        "transition on (U0,U1): image of lam leaves the overlap ring at order 1",
        "transition on (U0,U1): image of lam^-1 leaves the overlap ring at "
        "order 1",
        "transition on (U1,U2): epsilon is not a unit of the overlap ring",
        "transition on (U1,U2): image of lam leaves the overlap ring at order 2",
    ]


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


# sha256 of the serialized output of every blow-up kind on the catalog
# structures; any refactor of the blow-up code must leave these bytes alone.
def _blowup_document_bytes(result):
    cocycles = {result.spec.alpha.name: result.spec.alpha}
    for extra in (result.pullback, result.exceptional):
        if extra is not None:
            cocycles.setdefault(extra.name, extra)
    doc = AtlasDocument(result.spec.atlas, cocycles, result.spec)
    return dumps_document(doc).encode()


def _transitions_bytes(result):
    def trunc_to_json(u):
        return {"order": u.order, "coeffs": [poly_to_json(c) for c in u.coeffs]}

    return json.dumps(
        {
            f"{i},{j}": {
                "images": [trunc_to_json(u) for u in theta.variable_images],
                "epsilon": trunc_to_json(theta.epsilon),
            }
            for (i, j), theta in sorted(result.spec.transitions.items())
        },
        sort_keys=True,
    ).encode()


def _golden_cases():
    cases = {}
    planes = {
        "p2(-3,x)": lambda: make_p2(-3, nontrivial=True),
        "p2(-3)": lambda: make_p2(-3),
        "p2(-1)": lambda: make_p2(-1),
        "p2(0)": lambda: make_p2(0),
        "p2(2)": lambda: make_p2(2),
    }
    good = good_center(1, Fraction(1, 2))
    for label, plane in planes.items():
        cases[f"{label}/point"] = lambda plane=plane: _blowup_document_bytes(
            blowup_reduced(plane(), P_CENTER, rename=RENAME)
        )
        cases[f"{label}/line"] = lambda plane=plane: _blowup_document_bytes(
            blowup_hypersurface(plane(), LINE_X0)
        )
        cases[f"{label}/good"] = lambda plane=plane: _blowup_document_bytes(
            blowup_good(plane(), good, rename=RENAME)
        )

        def after_good(plane=plane):
            first = blowup_good(plane(), good, rename=RENAME)
            return _blowup_document_bytes(
                blowup_hypersurface(first.spec, exceptional_center(first))
            )

        cases[f"{label}/good+exceptional"] = after_good
    for alpha in (Fraction(1, 2), Fraction(3), Fraction(-2)):
        cases[f"carpet({alpha})/exceptional"] = (
            lambda alpha=alpha: _blowup_document_bytes(
                blowup_hypersurface(build_carpet(alpha), EXCEPTIONAL_LINE)
            )
        )
    for p in range(3):
        cases[f"blown(-3,{p})/exceptional"] = (
            lambda p=p: _blowup_document_bytes(
                blowup_hypersurface(make_blown_plane(-3, p), EXCEPTIONAL_LINE)
            )
        )
    cases["order3/point"] = lambda: _transitions_bytes(
        blowup_reduced(order3_family(), P_CENTER, rename=RENAME)
    )
    cases["order3/line"] = lambda: _transitions_bytes(
        blowup_hypersurface(order3_family(), LINE_X0)
    )
    return cases


GOLDEN_CASES = _golden_cases()
GOLDEN_SHA256 = {
    "blown(-3,0)/exceptional": (
        "d5d87a21dbb6563beb6b086b314b9af741d64827338b4fee45f926c3cdd77c63"
    ),
    "blown(-3,1)/exceptional": (
        "50a65a4b1d933ebdbae2d93fdbc476e052f0bfcd3844f6c1f9212a703c2c6578"
    ),
    "blown(-3,2)/exceptional": (
        "24e6bfbe3aa59895b7ce08b167c5b6fd450dcb7dd726ab2f27e9ad58f63638e4"
    ),
    "carpet(-2)/exceptional": (
        "b0ed68418f5a2f026f8921fac6bb63b20499002373abaffeb64f780a5c8bd67e"
    ),
    "carpet(1/2)/exceptional": (
        "4cd0e30423ef75ed8bb1475f23c63e1b5c68340194653ac55f2b764b538a37c0"
    ),
    "carpet(3)/exceptional": (
        "4668deec1b7d487d75b5107d8f51fb15475f451a6a0ddcd0d96dc52661b45e62"
    ),
    "order3/line": (
        "17913af26dc3864668a4300c23ea61379eda54ebdf12a99eec08c596cbbda417"
    ),
    "order3/point": (
        "78f485bbc967377cf936607e22321c9874d2f22663c61c2683110a35fe6bb50c"
    ),
    "p2(-1)/good": (
        "f94d1559b4063ca144cc14089a702b0521540d08cfcedfa7a80501848346e4d6"
    ),
    "p2(-1)/good+exceptional": (
        "993a202d745271f7222ea70d54061a150530b213129fbff8e65758433ba4a7b1"
    ),
    "p2(-1)/line": (
        "8ee1294d6ee81a4a57a9719b51a3f4fec62602a12cf8a62eecce64786a0266b9"
    ),
    "p2(-1)/point": (
        "398a12e662490c9a974cadce5174da0e8e352cf425e51b4d8309601c3e4fa60e"
    ),
    "p2(-3)/good": (
        "7d1f7d0779ad8ade7ade9ba5dbd179d5117f86bdad7c80af5163126530c29cc1"
    ),
    "p2(-3)/good+exceptional": (
        "6d7fc2c9882f6f404fd859f63b489049d273da8b12facc4410eb81c64586bd99"
    ),
    "p2(-3)/line": (
        "691afe8c4c2d191c19c115d6bf245f5d49d2cff57a69d849177c368cd739b82a"
    ),
    "p2(-3)/point": (
        "78dfc2f353c620a818b0c2d2b63278df87abde1d9896bd6e3855371163beb6d9"
    ),
    "p2(-3,x)/good": (
        "17c5d57fd10a2621874bdbdd2038fdc31c436e329a037138611e8cf456d0d4c2"
    ),
    "p2(-3,x)/good+exceptional": (
        "028e6b3db76486d1750d2781b074a4eacb27724d1510d15cc54b9a842b332d82"
    ),
    "p2(-3,x)/line": (
        "1262ad0e64816cc49c007d6b28d1a6078e981d9ff0d46407b3292365e7c07fb0"
    ),
    "p2(-3,x)/point": (
        "156d1a81aa02aeea495c187239ca2658747a024f5a08ff3695404c907d5e1413"
    ),
    "p2(0)/good": (
        "69d5308c7f675cbc09559a2f28d5fcd67ad48cfc39e293c07f04e564812caf92"
    ),
    "p2(0)/good+exceptional": (
        "16f393af1bff330601eaffecfbdaef2c892ae97dc3bd6be9af8d5a4bc7263ae6"
    ),
    "p2(0)/line": (
        "1bc1d278b21ff0de05ec2194a09bd936fda917beeef03729eeda4db5e26735b2"
    ),
    "p2(0)/point": (
        "511b6aefcc961559ead1383314fb58baf3bf5ef141dcc07de966aa179ed68f30"
    ),
    "p2(2)/good": (
        "e7fe8381d48aa5e26ae5300ad24f381cadd293567be289d9de6657ebfe9cd518"
    ),
    "p2(2)/good+exceptional": (
        "e6c1c655767c8a4b1017f6841e01938ad879a43f2cbe13aabb30a567772f5f5e"
    ),
    "p2(2)/line": (
        "ee325da8745ff68be97819ca8da5422ae3742c257c101ab729b1918c0968aacc"
    ),
    "p2(2)/point": (
        "c7f0070ba9a176101a20c636597f20da9f3464085795ef26042f7e6e480882cb"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_blowup_output_bytes_are_pinned(case):
    digest = hashlib.sha256(GOLDEN_CASES[case]()).hexdigest()
    assert digest == GOLDEN_SHA256[case]
