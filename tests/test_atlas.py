"""Tests for chart atlases, cocycle validation, and serialization."""

import itertools
import random
from fractions import Fraction

import pytest

from pms import atlas as atlas_module
from pms.atlas import (
    Atlas,
    AtlasDocument,
    Chart,
    DoubleSchemeSpec,
    MultCocycle,
    VectorFieldCocycle,
    canonical_spanning_pairs,
    derive_mult,
    derive_vector_field,
    dumps_document,
    fold_tree,
    loads_document,
    pair_key,
    same_structure,
    validate_double_scheme,
    validate_mult_cocycle,
)
from pms.blowup import (
    CenterSpec,
    blowup_good,
    blowup_hypersurface,
    blowup_reduced,
    derive_transitions,
)
from pms.laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    minimal_generators,
    monoids_equal,
    monomial_str,
    poly_in_ring,
)
from pms.truncated_ring import compose_endo, identity_morphism
from pms.p2_catalog import (
    build_carpet,
    make_blown_plane,
    make_p2,
    make_p2_atlas,
    make_wcover_atlas,
)

from oracles import lift_double, transition_endomorphism
from symbolic_reference import symbolic_carpet


def mono(exp, coeff=1):
    return LaurentPoly.monomial(2, exp, coeff)


def test_pair_key_sorts_and_rejects_equal():
    assert pair_key("U1", "U0") == ("U0", "U1")
    assert pair_key("U0", "U1") == ("U0", "U1")
    with pytest.raises(ValueError):
        pair_key("U0", "U0")


def test_atlas_constructor_rejects_bad_input():
    ring = ExponentMonoid(2, ((1, 0), (0, 1)))
    charts = (Chart("A", ring), Chart("B", ring))
    overlaps = {("A", "B"): ring}
    Atlas(("lam", "mu"), 2, charts, overlaps)  # fine
    with pytest.raises(ValueError):
        Atlas(("lam", "mu"), 1, charts, overlaps)
    with pytest.raises(ValueError):
        Atlas(("lam", "mu"), 2, (charts[0], charts[0]), overlaps)
    with pytest.raises(ValueError, match="duplicate variable names"):
        Atlas(("lam", "lam"), 2, charts, overlaps)
    with pytest.raises(ValueError):
        Atlas(("lam", "mu"), 2, charts, {})
    with pytest.raises(ValueError):
        Atlas(("lam", "mu"), 2, charts, overlaps,
              frames={"A": mono((1, 0)) + mono((0, 1))})
    with pytest.raises(ValueError):
        Chart("bad,name", ring)


def test_structure_failures_detect_small_overlap():
    ring_a = ExponentMonoid(2, ((1, 0),))
    ring_b = ExponentMonoid(2, ((0, 1),))
    tiny = ExponentMonoid(2, ((1, 0),))  # misses the (0, 1) generator of B
    atlas = Atlas(
        ("lam", "mu"), 2,
        (Chart("A", ring_a), Chart("B", ring_b)),
        {("A", "B"): tiny},
    )
    failures = atlas.structure_failures()
    assert len(failures) == 1
    assert "generator [0, 1]" in failures[0]
    assert make_p2_atlas().structure_failures() == []
    assert make_wcover_atlas().structure_failures() == []


def test_derive_mult_triple_identity():
    spec = make_p2(-3, nontrivial=True)
    full = derive_mult(spec.atlas, spec.alpha)
    names = spec.atlas.chart_names()
    for i in names:
        for j in names:
            for k in names:
                if len({i, j, k}) == 3:
                    assert full[(i, j)] * full[(j, k)] == full[(i, k)]
    assert full[("U0", "U1")] == mono((3, 0))
    assert full[("U1", "U0")] == mono((-3, 0))
    assert full[("U0", "U2")] == mono((3, 3))


def test_validate_mult_cocycle_flags_inconsistent_entry():
    atlas = make_p2_atlas()
    good = make_p2(-3, nontrivial=True).alpha
    assert validate_mult_cocycle(atlas, good).ok
    # derived value is lam^3 mu^3
    bad = MultCocycle("alpha", {**good.data, ("U0", "U2"): mono((1, 0))})
    report = validate_mult_cocycle(atlas, bad)
    assert not report.ok
    assert any("inconsistent" in f for f in report.failures)


def test_validate_mult_cocycle_flags_non_unit():
    atlas = make_p2_atlas()
    c = MultCocycle("c", {
        ("U0", "U1"): mono((0, 3)),
        ("U1", "U2"): mono((0, 3)),
    })
    report = validate_mult_cocycle(atlas, c)
    assert not report.ok
    assert any("unit" in f for f in report.failures)


def test_derive_vector_field_reversal_and_cocycle_rule():
    plane = make_p2(-3, nontrivial=True)
    point = CenterSpec("reduced", generators={"U2": (mono((0, 1)), mono((1, 1)))})
    for spec in (plane, build_carpet(Fraction(1, 2)),
                 blowup_reduced(plane, point).spec, symbolic_carpet()):
        alpha = derive_mult(spec.atlas, spec.alpha)
        full = derive_vector_field(spec.atlas, spec.alpha, spec.D)
        names = spec.atlas.chart_names()
        nvars = spec.atlas.nvars
        for i in names:
            for j in names:
                if i == j:
                    continue
                for v in range(nvars):
                    assert full[(j, i)][v] == -(alpha[(j, i)] * full[(i, j)][v])
        for i in names:
            for j in names:
                for k in names:
                    if len({i, j, k}) == 3:
                        for v in range(nvars):
                            lhs = full[(i, k)][v]
                            rhs = full[(i, j)][v] + alpha[(i, j)] * full[(j, k)][v]
                            assert lhs == rhs


def test_reverse_order_entries_must_obey_the_reversal_rule():
    spec = make_p2(-3, nontrivial=True)
    alpha = MultCocycle("alpha", {  # (U1, U0) is not the inverse
        **spec.alpha.data, ("U1", "U0"): spec.alpha.data[("U0", "U1")],
    })
    report = validate_mult_cocycle(spec.atlas, alpha)
    assert not report.ok
    assert any("(U1,U0) is inconsistent" in f for f in report.failures)
    # D_10 must be -alpha_10 D_01, which is nonzero here
    zero = LaurentPoly.zero(2)
    assert spec.D.data[("U0", "U1")] != (zero, zero)
    field = VectorFieldCocycle({**spec.D.data, ("U1", "U0"): (zero, zero)})
    report = validate_double_scheme(DoubleSchemeSpec(spec.atlas, spec.alpha, field))
    assert not report.ok
    assert any("(U1,U0) is inconsistent" in f for f in report.failures)


def test_data_naming_an_unknown_chart_is_rejected():
    spec = make_p2(-3, nontrivial=True)
    atlas = spec.atlas
    zero = LaurentPoly.zero(2)
    alpha = MultCocycle("alpha", {**spec.alpha.data, ("U0", "X9"): mono((1, 0))})
    field = VectorFieldCocycle({**spec.D.data, ("X9", "U0"): (zero, zero)})
    transitions = {
        **lift_double(spec).transitions, ("U0", "X9"): identity_morphism(2, 2)
    }
    for derive in (
        lambda: derive_mult(atlas, alpha),
        lambda: derive_vector_field(atlas, spec.alpha, field),
        lambda: derive_transitions(atlas, transitions),
    ):
        with pytest.raises(ValueError, match=r"outside the atlas: \['X9'\]"):
            derive()
    for report in (
        validate_mult_cocycle(atlas, alpha),
        validate_double_scheme(DoubleSchemeSpec(atlas, alpha, spec.D)),
        validate_double_scheme(DoubleSchemeSpec(atlas, spec.alpha, field)),
    ):
        assert not report.ok
        assert any("X9" in f for f in report.failures)


def test_validate_derivation_cocycle_accepts_and_rejects():
    spec = make_p2(-3, nontrivial=True)
    assert validate_double_scheme(spec).ok
    # an entry violating overlap-ring stability: mu d/dmu scaled wrong way
    bad = VectorFieldCocycle({
        **spec.D.data, ("U0", "U1"): (mono((0, 2)), LaurentPoly.zero(2)),
    })
    report = validate_double_scheme(DoubleSchemeSpec(spec.atlas, spec.alpha, bad))
    assert not report.ok
    assert any("U0,U1" in f or "(U0,U1)" in f for f in report.failures)


def test_validate_checks_redundant_entries_against_derived():
    spec = make_p2(-3, nontrivial=True)
    full = derive_vector_field(spec.atlas, spec.alpha, spec.D)
    extended = dict(spec.D.data)
    extended[("U0", "U2")] = full[("U0", "U2")]
    ok_spec = DoubleSchemeSpec(spec.atlas, spec.alpha, VectorFieldCocycle(extended))
    assert validate_double_scheme(ok_spec).ok
    corrupted = dict(extended)
    corrupted[("U0", "U2")] = (mono((1, 1)), LaurentPoly.zero(2))
    bad_spec = DoubleSchemeSpec(spec.atlas, spec.alpha, VectorFieldCocycle(corrupted))
    report = validate_double_scheme(bad_spec)
    assert not report.ok
    assert any("inconsistent" in f for f in report.failures)


def test_derive_raises_on_disconnected_data():
    atlas = make_wcover_atlas()
    partial = MultCocycle("c", {("W0", "W1"): mono((1, 0))})
    with pytest.raises(ValueError):
        derive_mult(atlas, partial)


def test_transition_endomorphisms_compose():
    for spec in (make_p2(-3, nontrivial=True), build_carpet(Fraction(1, 2))):
        names = spec.atlas.chart_names()
        assert transition_endomorphism(spec, names[0], names[0]) == (
            identity_morphism(2, spec.atlas.nvars)
        )
        for i in names:
            for j in names:
                for k in names:
                    if len({i, j, k}) == 3:
                        left = compose_endo(
                            transition_endomorphism(spec, i, j),
                            transition_endomorphism(spec, j, k),
                        )
                        assert left == transition_endomorphism(spec, i, k)


def test_same_structure_ignores_frames():
    a = make_wcover_atlas()
    b = Atlas(a.variables, a.truncation_order, a.charts, dict(a.overlaps))
    assert same_structure(a, b)
    assert not same_structure(a, make_p2_atlas())


def test_document_roundtrip_is_byte_stable():
    spec = build_carpet(Fraction(1, 2))
    doc = AtlasDocument(
        spec.atlas,
        {spec.alpha.name: spec.alpha},
        spec,
    )
    text = dumps_document(doc)
    again = loads_document(text)
    assert dumps_document(again) == text
    assert same_structure(again.atlas, spec.atlas)
    assert again.atlas.residue_scale == spec.atlas.residue_scale
    assert again.double is not None
    assert again.double.D.data == spec.D.data
    assert again.double.alpha.data == spec.alpha.data


def test_document_from_json_rejects_malformed():
    spec = make_p2(0)
    doc = AtlasDocument(spec.atlas, {spec.alpha.name: spec.alpha}, spec)
    import json

    data = json.loads(dumps_document(doc))
    for key in ("variables", "truncation_order", "charts", "overlaps"):
        broken = dict(data)
        del broken[key]
        with pytest.raises(ValueError):
            loads_document(json.dumps(broken))
    broken = json.loads(dumps_document(doc))
    broken["double_structure"]["alpha"] = "nope"
    with pytest.raises(ValueError):
        loads_document(json.dumps(broken))
    broken = json.loads(dumps_document(doc))
    broken["double_structure"]["D"]["U0,U1"] = [[]]  # wrong component count
    with pytest.raises(ValueError):
        loads_document(json.dumps(broken))
    broken = json.loads(dumps_document(doc))
    broken["overlaps"]["U0"] = broken["overlaps"].pop("U0,U1")
    with pytest.raises(ValueError):
        loads_document(json.dumps(broken))


def test_blown_plane_grid_validates():
    for m in range(-3, 4):
        for p in (0, 1, 2):
            c0 = Fraction(1) if p < 2 else Fraction(0)
            r0 = Fraction(1) if p == 0 else Fraction(0)
            spec = make_blown_plane(m, p, c0, r0, nontrivial=False)
            assert validate_double_scheme(spec).ok, (m, p)
    spec = make_blown_plane(-3, 1, Fraction(2, 3))
    assert validate_double_scheme(spec).ok


# -- memoised folds -------------------------------------------------------


def memo_specs():
    """Catalog structures and blow-ups of every kind, on 3-8 charts."""
    plane = make_p2(-3, nontrivial=True)
    point = CenterSpec("reduced", generators={"U2": (mono((0, 1)), mono((1, 1)))})
    good = CenterSpec("good", pairs={
        "U2": ((mono((0, 1)), LaurentPoly.const(2, 2)),
               (mono((1, 1)), LaurentPoly.const(2, -1))),
    })
    line = CenterSpec("hypersurface", generators={
        "U0": (mono((-1, 0)),), "U1": (LaurentPoly.const(2, 1),),
        "U2": (mono((0, 1)),),
    })
    return [
        plane, make_p2(-3), build_carpet(Fraction(1, 2)), build_carpet(0),
        make_blown_plane(-3, 1, 0), make_blown_plane(-3, 0, 2, -1, nontrivial=True),
        blowup_reduced(plane, point).spec, blowup_good(plane, good).spec,
        blowup_hypersurface(plane, line).spec,
    ]


def random_family(rng, atlas, field):
    """Seeded random data on the canonical spanning pairs: monomials, or
    vector-field entries of one to three terms per variable."""
    nvars = atlas.nvars

    def exp():
        return tuple(rng.randint(-2, 2) for _ in range(nvars))

    data = {}
    for pair in canonical_spanning_pairs(atlas):
        if rng.random() < 0.3:
            pair = pair[::-1]  # only the reverse order is given
        if field:
            data[pair] = tuple(
                LaurentPoly(nvars, {exp(): rng.randint(-3, 3)
                                    for _ in range(rng.randint(1, 3))})
                for _ in range(nvars)
            )
        else:
            data[pair] = LaurentPoly.monomial(nvars, exp(), rng.choice((1, -2)))
    return data


def uncached_mult(atlas, c):
    return atlas_module._fold_mult.__wrapped__(
        tuple(atlas.chart_names()), atlas.nvars, tuple(c.data.items())
    )


def uncached_field(atlas, alpha, D):
    return atlas_module._fold_vector_field.__wrapped__(
        tuple(atlas.chart_names()), atlas.nvars, tuple(D.data.items()),
        tuple(alpha.data.items()),
    )


def test_memoised_folds_equal_the_uncached_fold():
    rng = random.Random(5521)
    rings = []
    for spec in memo_specs():
        atlas = spec.atlas
        cases = [(spec.alpha, spec.D)] + [
            (MultCocycle("r", random_family(rng, atlas, False)),
             VectorFieldCocycle(random_family(rng, atlas, True)))
            for _ in range(3)
        ]
        for alpha, D in cases:
            expected = uncached_mult(atlas, alpha)
            for _ in range(2):
                assert derive_mult(atlas, alpha) == expected
            field = uncached_field(atlas, alpha, D)
            for _ in range(2):
                assert derive_vector_field(atlas, alpha, D) == field
        rings += [c.ring for c in atlas.charts] + list(atlas.overlaps.values())
    for _ in range(20):
        nvars = rng.randint(1, 3)
        gens = {tuple(rng.randint(-2, 2) for _ in range(nvars))
                for _ in range(rng.randint(1, 5))}
        rings.append(ExponentMonoid(nvars, tuple(sorted(gens))))
    # minimal_generators spans the same monoid, with no generator redundant
    for ring in rings:
        reduced = minimal_generators(ring)
        assert monoids_equal(reduced, ring)
        for g in reduced.generators:
            rest = tuple(h for h in reduced.generators if h != g)
            assert not rest or not ExponentMonoid(ring.nvars, rest).contains(g)


def test_a_returned_family_cannot_corrupt_the_memo():
    spec = make_p2(-3, nontrivial=True)
    atlas = spec.atlas
    alpha = derive_mult(atlas, spec.alpha)
    field = derive_vector_field(atlas, spec.alpha, spec.D)
    kept_alpha, kept_field = dict(alpha), dict(field)
    alpha[("U0", "U1")] = mono((7, 7))
    del alpha[("U1", "U2")]
    field.clear()
    assert derive_mult(atlas, spec.alpha) == kept_alpha
    assert derive_vector_field(atlas, spec.alpha, spec.D) == kept_field


def test_changed_data_gives_the_new_family():
    spec = make_p2(-3, nontrivial=True)
    atlas = spec.atlas
    c = MultCocycle("c", dict(spec.alpha.data))
    D = VectorFieldCocycle(dict(spec.D.data))
    before = derive_mult(atlas, c)
    field_before = derive_vector_field(atlas, c, D)
    c = MultCocycle("c", {**c.data, ("U0", "U1"): mono((1, 0))})
    D = VectorFieldCocycle({
        **D.data, ("U0", "U1"): (mono((0, 1)), LaurentPoly.zero(2)),
    })
    after = derive_mult(atlas, c)
    assert after != before
    assert after == uncached_mult(atlas, c)
    assert after[("U0", "U1")] == mono((1, 0))
    field = derive_vector_field(atlas, c, D)
    assert field != field_before
    assert field == uncached_field(atlas, c, D)


def test_errors_are_raised_on_every_call():
    spec = make_p2(-3, nontrivial=True)
    atlas = spec.atlas
    zero = LaurentPoly.zero(2)
    alpha = MultCocycle("alpha", {**spec.alpha.data, ("U0", "X9"): mono((1, 0))})
    field = VectorFieldCocycle({**spec.D.data, ("X9", "U0"): (zero, zero)})
    for _ in range(2):
        with pytest.raises(ValueError, match="outside the atlas"):
            derive_mult(atlas, alpha)
        with pytest.raises(ValueError, match="outside the atlas"):
            derive_vector_field(atlas, spec.alpha, field)
        with pytest.raises(ValueError, match="does not connect"):
            derive_mult(make_wcover_atlas(),
                        MultCocycle("c", {("W0", "W1"): mono((1, 0))}))


def test_a_bad_bundle_is_rejected_on_every_call():
    """``derive_vector_field`` raises ``ValueError`` for a bundle that is no
    cocycle of monomials in the atlas variables on the atlas charts, raised
    by ``MultCocycle`` or by the bundle fold, on every call."""
    spec = make_p2(-3, nontrivial=True)
    atlas = spec.atlas
    three = {pair: LaurentPoly.monomial(3, (1, 0, 0))
             for pair in spec.alpha.data}
    cases = (
        (lambda: MultCocycle("a", {**spec.alpha.data,
                                   ("U0", "U1"): mono((1, 0)) + mono((0, 1))}),
         r"entry on \(U0,U1\) is not a single monomial term"),
        (lambda: MultCocycle("a", three), "variable count mismatch: 2 vs 3"),
        (lambda: MultCocycle("a", {**spec.alpha.data,
                                   ("U2", "X9"): mono((1, 0))}),
         r"outside the atlas: \['X9'\]"),
    )
    for bundle, message in cases:
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                derive_vector_field(atlas, bundle(), spec.D)
    assert derive_vector_field(atlas, spec.alpha, spec.D)


def product_fold(atlas, alpha, D):
    """The vector-field fold with every twist applied as a ``LaurentPoly``
    product: D_ji = -alpha_ji * D_ij and D_ik = D_ir + alpha_ir * D_rk."""
    nvars = atlas.nvars
    one = LaurentPoly.const(nvars, 1)
    alpha_full = derive_mult(atlas, alpha)

    def step(total, i, a, comps):
        factor = one if a == i else alpha_full[(i, a)]
        return tuple(t + factor * c for t, c in zip(total, comps))

    return fold_tree(
        atlas.chart_names(),
        dict(D.data),
        lambda i, j, comps: tuple(-(alpha_full[(j, i)] * c) for c in comps),
        tuple(LaurentPoly.zero(nvars) for _ in range(nvars)),
        step,
    )


def random_bundle(rng, atlas):
    """A bundle cocycle with a monomial q x^e on each canonical spanning
    pair, some given in reverse order only, with q off +-1 and negative
    exponents."""
    data = {}
    for pair in canonical_spanning_pairs(atlas):
        if rng.random() < 0.3:
            pair = pair[::-1]
        data[pair] = LaurentPoly.monomial(
            atlas.nvars,
            tuple(rng.randint(-3, 3) for _ in range(atlas.nvars)),
            Fraction(rng.choice((-5, -3, -2, 2, 3, 7)), rng.choice((1, 2, 3, 4))),
        )
    return MultCocycle("r", data)


def test_the_shift_fold_equals_the_product_fold():
    """``derive_vector_field`` equals the fold by ``LaurentPoly`` products
    on every catalog spec, and on random bundle cocycles and fields, on two
    and three variables."""
    rng = random.Random(7717)
    specs = memo_specs() + [symbolic_carpet()] + [
        make_blown_plane(m, p, Fraction(1 if p < 2 else 0),
                         Fraction(1 if p == 0 else 0))
        for m in range(-3, 4) for p in (0, 1, 2)
    ]
    atlases = [spec.atlas for spec in specs] + [make_wcover_atlas()]
    assert {atlas.nvars for atlas in atlases} == {2, 3}
    for spec in specs:
        expected = product_fold(spec.atlas, spec.alpha, spec.D)
        assert derive_vector_field(spec.atlas, spec.alpha, spec.D) == expected
    for atlas in atlases:
        for _ in range(3):
            bundle = random_bundle(rng, atlas)
            field = VectorFieldCocycle(random_family(rng, atlas, True))
            expected = product_fold(atlas, bundle, field)
            assert derive_vector_field(atlas, bundle, field) == expected
            assert uncached_field(atlas, bundle, field) == expected


def test_validation_is_not_memoised():
    """A reverse entry contradicting the reversal rule still fails once the
    same spanning data has been derived and memoised."""
    spec = make_p2(-3, nontrivial=True)
    atlas = spec.atlas
    derive_mult(atlas, spec.alpha)
    assert validate_mult_cocycle(atlas, spec.alpha).ok
    bad = MultCocycle("alpha", {
        **spec.alpha.data, ("U1", "U0"): spec.alpha.data[("U0", "U1")]
    })
    assert derive_mult(atlas, bad) == derive_mult(atlas, spec.alpha)
    for _ in range(2):
        report = validate_mult_cocycle(atlas, bad)
        assert not report.ok
        assert any("(U1,U0) is inconsistent" in f for f in report.failures)
        report = validate_double_scheme(DoubleSchemeSpec(atlas, bad, spec.D))
        assert not report.ok
        assert report.failures[0] == "bundle cocycle invalid"


# -- failure reports on a fixed corpus of broken inputs ------------------


def triple_failures(name, triples):
    return [f"cocycle {name}: triple identity fails on ({t})"
            for t in triples.split()]


def broken_fold(real):
    """``_fold_mult`` with (r1, r0) scaled by 2/3 and the entry on (r2, r3),
    (r2, r0) on three charts, shifted by the first variable."""
    def fold(names, nvars, entries):
        full = dict(real(names, nvars, entries))
        full[names[1], names[0]] = full[names[1], names[0]].scale(Fraction(2, 3))
        pair = (names[2], names[3] if len(names) > 3 else names[0])
        full[pair] = full[pair].mul_monomial((1,) + (0,) * (nvars - 1))
        return full
    return fold


BLOWN_TRIPLES = (
    ["bundle cocycle invalid",
     "cocycle beta_-3_1: entry on (W2,W3) is inconsistent with the rest of "
     "the data"]
    + triple_failures(
        "beta_-3_1",
        "W0,W2,W3 W1,W0,W2 W1,W0,W3 W1,W2,W0 W1,W2,W3 W1,W3,W0 W2,W0,W3 "
        "W2,W1,W0 W2,W1,W3 W2,W3,W0 W2,W3,W1 W3,W1,W0",
    )
)


def corpus_reports():
    """Each broken input of the corpus, with its ``validate_double_scheme``
    report's failures."""
    plane = make_p2(-3, nontrivial=True)
    blown = make_blown_plane(-3, 1, Fraction(2, 3))
    carpet = symbolic_carpet()
    zero = LaurentPoly.zero(2)
    out = {}
    alpha = MultCocycle("alpha", {**plane.alpha.data, ("U0", "U2"): mono((1, 0))})
    out["bundle entry"] = DoubleSchemeSpec(plane.atlas, alpha, plane.D)
    field = VectorFieldCocycle({**plane.D.data, ("U0", "U2"): (mono((1, 1)), zero)})
    out["field entry"] = DoubleSchemeSpec(plane.atlas, plane.alpha, field)
    field = VectorFieldCocycle({
        **plane.D.data,
        ("U0", "U1"): (mono((0, 2)), mono((-2, 3), Fraction(-1, 2))),
    })
    out["non-preserving"] = DoubleSchemeSpec(plane.atlas, plane.alpha, field)
    c = MultCocycle("c", {("U0", "U1"): mono((0, 3)),
                          ("U1", "U2"): mono((0, 3), 2)})
    out["non-unit"] = DoubleSchemeSpec(plane.atlas, c, plane.D)
    at = blown.atlas
    overlaps = {
        **at.overlaps,
        ("W0", "W3"): ExponentMonoid(2, ((-1, 0), (-1, -1))),
        ("W1", "W2"): ExponentMonoid(2, ((1, 0), (0, -1))),
    }
    small = Atlas(at.variables, at.truncation_order, at.charts, overlaps,
                  at.frames, at.residue_scale)
    out["small overlap"] = DoubleSchemeSpec(small, blown.alpha, blown.D)
    charts = tuple(
        Chart(ch.name, ExponentMonoid(2, ch.ring.generators + ((-1, 2),)))
        if ch.name == "W2" else ch
        for ch in at.charts
    )
    wide = Atlas(at.variables, at.truncation_order, charts, dict(at.overlaps),
                 at.frames, at.residue_scale)
    out["wide chart"] = DoubleSchemeSpec(wide, blown.alpha, blown.D)
    key = sorted(carpet.D.data)[0]
    a, b, s = carpet.D.data[key]
    b = b + LaurentPoly.monomial(3, (0, 3, 1), 5)
    field = VectorFieldCocycle({**carpet.D.data, key: (a, b, s)})
    out["symbolic field"] = DoubleSchemeSpec(carpet.atlas, carpet.alpha, field)
    return {name: validate_double_scheme(spec).failures
            for name, spec in out.items()}


def test_broken_inputs_report_the_same_failures():
    """Failure strings and their order, pinned on a fixed corpus."""
    u12 = "vector-field entry on (U1,U2) does not preserve the overlap ring"
    u01 = "vector-field entry on (U0,U1) does not preserve the overlap ring"
    u02 = "vector-field entry on (U0,U2) does not preserve the overlap ring"
    assert corpus_reports() == {
        "bundle entry": [
            "bundle cocycle invalid",
            "cocycle alpha: entry on (U1,U2) is inconsistent with the rest of "
            "the data",
            "cocycle alpha: entry lam on (U0,U2) is not a unit of the overlap "
            "ring",
            "cocycle alpha: entry lam^-2 on (U1,U2) is not a unit of the "
            "overlap ring",
        ],
        "field entry": [
            "vector-field entry on (U1,U2) is inconsistent with the rest of "
            "the data",
            f"{u12}: image of lam falls outside",
            f"{u12}: image of mu falls outside",
            f"{u12}: image of mu^-1 falls outside",
        ],
        "non-preserving": [
            f"{u01}: image of lam falls outside",
            f"{u01}: image of lam^-1 falls outside",
            f"{u01}: image of mu^-1 falls outside",
            f"{u02}: image of lam^-1*mu^-1 falls outside",
            f"{u02}: image of lam*mu falls outside",
        ],
        "non-unit": [
            "bundle cocycle invalid",
            "cocycle c: entry mu^3 on (U0,U1) is not a unit of the overlap ring",
            "cocycle c: entry mu^6 on (U0,U2) is not a unit of the overlap ring",
        ],
        "small overlap": [
            "overlap W0,W3 does not contain generator [1, 1] of chart W3",
            "overlap W1,W2 does not contain generator [0, 1] of chart W2",
            "bundle cocycle invalid",
            "cocycle beta_-3_1: entry lam^2*mu^2 on (W0,W3) is not a unit of "
            "the overlap ring",
            "cocycle beta_-3_1: entry mu^2 on (W1,W2) is not a unit of the "
            "overlap ring",
        ],
        "wide chart": [
            "overlap W1,W2 does not contain generator [-1, 2] of chart W2",
        ],
        "symbolic field": [
            "vector-field entry on (W0,W1) does not preserve the overlap ring: "
            "image of mu^-1 falls outside",
        ],
    }


def test_a_broken_fold_fails_the_triple_identities(monkeypatch):
    """A family that breaks the triple identity by a coefficient or by an
    exponent, on three charts and on four in two and three variables."""
    monkeypatch.setattr(atlas_module, "_fold_mult",
                        broken_fold(atlas_module._fold_mult))
    plane = make_p2(-3, nontrivial=True)
    plane_failures = triple_failures(
        "O_-3", "U1,U0,U2 U1,U2,U0 U2,U0,U1 U2,U1,U0"
    )
    assert validate_mult_cocycle(plane.atlas, plane.alpha).failures == (
        plane_failures
    )
    assert validate_double_scheme(plane).failures == (
        ["bundle cocycle invalid"] + plane_failures
    )
    for spec in (make_blown_plane(-3, 1, Fraction(2, 3)),
                 symbolic_carpet()):
        assert validate_double_scheme(spec).failures == BLOWN_TRIPLES
        assert validate_mult_cocycle(spec.atlas, spec.alpha).failures == (
            BLOWN_TRIPLES[1:]
        )


def test_an_image_that_cancels_outside_the_ring_is_not_flagged():
    """d/dlam - lam^-1 mu d/dmu preserves k[lam, lam mu]: both shifted
    supports of lam mu's image reach mu, outside the ring, and cancel there."""
    ring = ExponentMonoid(2, ((1, 0), (1, 1)))
    names = ("lam", "mu")
    for half in (Fraction(1), Fraction(1, 2)):
        comps = (LaurentPoly.const(2, half), mono((-1, 1), -half))
        assert atlas_module.derivation_failures(comps, ring, names) == []
        comps = (LaurentPoly.const(2, half), mono((-1, 1), -2 * half))
        assert atlas_module.derivation_failures(comps, ring, names) == [
            "lam*mu"
        ]


def generator_images(comps, ring):
    """Each generator g of ``ring`` with its image sum(g[v] * x^(g - e_v) *
    comps[v]), in ``LaurentPoly`` arithmetic."""
    for g in ring.generators:
        image = LaurentPoly.zero(ring.nvars)
        for v, comp in enumerate(comps):
            if g[v]:
                image = image + comp.mul_monomial(
                    g[:v] + (g[v] - 1,) + g[v + 1:], g[v]
                )
        yield g, image


def seeded_field(ring, rng):
    """Random rational pieces on ``ring``: a weighted Euler field x^m sum
    w_v x_v d/dx_v with m in the ring, which preserves it; sometimes a pair
    of terms whose images under one generator cancel outside the ring;
    sometimes one random term."""
    n = ring.nvars

    def frac():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4))

    comps = [LaurentPoly.zero(n) for _ in range(n)]
    m = [0] * n
    for _ in range(rng.randint(0, 2)):
        m = [a + b for a, b in zip(m, rng.choice(ring.generators))]
    for v in range(n):
        e = tuple(a + (u == v) for u, a in enumerate(m))
        comps[v] = comps[v] + LaurentPoly.monomial(n, e, frac())
    pairs = [g for g in ring.generators if sum(map(bool, g)) > 1]
    if pairs and rng.random() < 0.6:
        g = rng.choice(pairs)
        v, w = rng.sample([u for u in range(n) if g[u]], 2)
        f = tuple(rng.randint(-3, 3) for _ in range(n))
        c = frac()
        for u, coeff in ((v, c * g[w]), (w, -c * g[v])):
            d = g[:u] + (g[u] - 1,) + g[u + 1:]
            e = tuple(a - b for a, b in zip(f, d))
            comps[u] = comps[u] + LaurentPoly.monomial(n, e, coeff)
    if rng.random() < 0.4:
        e = tuple(rng.randint(-2, 2) for _ in range(n))
        v = rng.randrange(n)
        comps[v] = comps[v] + LaurentPoly.monomial(n, e, frac())
    return tuple(comps)


def catalog_rings():
    """The catalog chart and overlap rings, and one 3-variable ring, each
    with its variable names."""
    rings = {}
    for atlas in (make_p2_atlas(), make_wcover_atlas(),
                  make_blown_plane(-3, 1, 0).atlas):
        charts = [c.ring for c in atlas.charts]
        for ring in charts + list(atlas.overlaps.values()):
            rings[ring.generators] = (ring, atlas.variables)
    ring3 = ExponentMonoid(3, ((1, 0, 0), (-1, 1, 0), (0, 1, 1), (0, 0, -1)))
    rings[ring3.generators] = (ring3, ("x", "y", "z"))
    return list(rings.values())


def test_derivation_failures_match_the_image_oracle():
    """``derivation_failures`` lists exactly the generators whose image,
    built with ``LaurentPoly`` arithmetic, fails ``poly_in_ring``: on the
    catalog chart and overlap rings and on one 3-variable ring."""
    rng = random.Random(9173)
    seen = set()
    for ring, names in catalog_rings():
        for _ in range(12):
            comps = seeded_field(ring, rng)
            expected = [monomial_str(g, names)
                        for g, image in generator_images(comps, ring)
                        if not poly_in_ring(image, ring)]
            assert atlas_module.derivation_failures(comps, ring, names) == (
                expected
            ), (ring.generators, comps)
            seen.add(bool(expected))
            # a generator held although a term of comps lands outside
            for g, image in generator_images(comps, ring):
                shifted = [
                    tuple(a + b - (u == v)
                          for u, (a, b) in enumerate(zip(e, g)))
                    for v, comp in enumerate(comps) if g[v]
                    for e in comp.support()
                ]
                if poly_in_ring(image, ring) and not all(
                        ring.contains(f) for f in shifted):
                    seen.add("cancelled")
    assert seen == {False, True, "cancelled"}


def test_the_zero_field_fails_nothing_and_hides_nothing():
    """The zero field preserves every ring.  A component that moves a
    generator out of its ring is reported beside zero components too, as
    the image oracle reports it."""
    planted = 0
    for ring, names in catalog_rings():
        n = ring.nvars
        zeros = (LaurentPoly.zero(n),) * n
        assert atlas_module.derivation_failures(zeros, ring, names) == []
        for v in range(n):
            for e in itertools.product((-3, 0, 3), repeat=n):
                comps = zeros[:v] + (LaurentPoly.monomial(n, e),) + zeros[v + 1:]
                expected = [monomial_str(g, names)
                            for g, image in generator_images(comps, ring)
                            if not poly_in_ring(image, ring)]
                if expected:
                    assert atlas_module.derivation_failures(
                        comps, ring, names) == expected, (ring, comps)
                    planted += 1
                    break
    assert planted >= 20
    with pytest.raises(ValueError, match="variable count mismatch"):
        atlas_module.derivation_failures(
            (LaurentPoly.zero(2),) * 2, ExponentMonoid(3, ((1, 0, 0),)),
            ("x", "y", "z"),
        )


def test_a_broken_spec_fails_on_every_call():
    spec = make_p2(-3, nontrivial=True)
    field = VectorFieldCocycle({
        **spec.D.data, ("U0", "U1"): (mono((0, 2)), LaurentPoly.zero(2)),
    })
    broken = DoubleSchemeSpec(spec.atlas, spec.alpha, field)
    first = validate_double_scheme(broken)
    second = validate_double_scheme(broken)
    assert not first.ok and not second.ok
    assert first.failures == second.failures != []
    assert validate_double_scheme(spec).ok


def test_derivation_failures_rejects_mismatched_variable_counts():
    ring = ExponentMonoid(2, ((1, 0), (0, 1)))
    comps = (LaurentPoly.const(2, 1), LaurentPoly.zero(2))
    assert atlas_module.derivation_failures(comps, ring, ("lam", "mu")) == []
    with pytest.raises(ValueError, match="variable count mismatch"):
        atlas_module.derivation_failures(comps, ring.extend_vars(3),
                                         ("lam", "mu", "al"))
    with pytest.raises(ValueError, match="variable count mismatch"):
        atlas_module.derivation_failures(comps[:1], ring, ("lam", "mu"))
