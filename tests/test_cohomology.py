"""Tests for the bounded cohomology solvers, cup product, and residue."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from pms import cohomology, linear, p2_catalog
from pms.atlas import (
    DoubleSchemeSpec,
    VectorFieldCocycle,
    canonical_spanning_pairs,
    derivation_conditions,
    derivation_failures,
    derive_mult,
    derive_vector_field,
)
from pms.blowup import CenterSpec, blowup_good, blowup_hypersurface
from pms.cohomology import (
    BOUND_CAVEAT,
    OneFormCocycle,
    TwoCocycle,
    calibrate_residue,
    canonical_class,
    coboundary_solve,
    contract_cup,
    derive_oneform,
    extension_obstruction,
    flat,
    frame_cocycle,
    h2_residue,
    iso_decide,
    oneform_coboundary_solve,
    residue_raw,
    sharp,
    solver_report,
)
from pms.laurent_core import ExponentMonoid, LaurentPoly
from pms.linear import (
    box_labels,
    exponent_box,
    solve_rows,
    term_rows,
)
from pms.p2_catalog import (
    beta_table,
    build_carpet,
    extension_bundle,
    make_blown_plane,
    make_p2,
    make_p2_atlas,
    make_wcover_atlas,
    wcover_unit_classes,
)

from oracles import field_directions, moved, two_cocycle_failures
from symbolic_reference import (
    SymPoly,
    padded_bundle,
    symbolic_carpet,
    symbolic_rows,
    twisted_conditions,
)


def mono(exp, coeff=1):
    return LaurentPoly.monomial(2, exp, coeff)


def zero():
    return LaurentPoly.zero(2)


def random_stable_field(ring, rng, pieces=3):
    comps = [zero(), zero()]
    added = 0
    while added < pieces:
        w = (rng.randint(-2, 2), rng.randint(-2, 2))
        dirs = field_directions(ring, w)
        if not dirs:
            continue
        a, b = rng.choice(dirs)
        coeff = Fraction(rng.randint(1, 3))
        if a:
            comps[0] = comps[0] + mono((w[0] + 1, w[1]), a * coeff)
        if b:
            comps[1] = comps[1] + mono((w[0], w[1] + 1), b * coeff)
        added += 1
    assert derivation_failures(tuple(comps), ring, ("lam", "mu")) == []
    return tuple(comps)


def test_canonical_class_values():
    atlas = make_wcover_atlas()
    u = canonical_class(atlas, beta_table(1, 0))
    assert u.data[("W0", "W1")] == (mono((-1, 0), -1), zero())
    assert u.data[("W1", "W2")] == (zero(), mono((0, -1), -1))
    assert u.data[("W2", "W3")] == (zero(), zero())
    v = canonical_class(atlas, beta_table(0, -1))
    assert v.data[("W0", "W1")] == (zero(), zero())
    assert v.data[("W1", "W2")] == (zero(), mono((0, -1)))
    assert v.data[("W2", "W3")] == (mono((-1, 0)), zero())


def test_flat_inverts_sharp():
    atlas = make_wcover_atlas()
    omega = frame_cocycle(atlas)
    for c in wcover_unit_classes():
        form = canonical_class(atlas, c)
        spec = DoubleSchemeSpec(
            atlas, omega, VectorFieldCocycle(dict(sharp(atlas, form).data))
        )
        back = flat(atlas, spec)
        for pair in canonical_spanning_pairs(atlas):
            assert back.data[pair] == form.data[pair]


def test_flat_and_cup_require_top_form_twist():
    spec = make_p2(1)
    with pytest.raises(ValueError):
        flat(spec.atlas, spec)
    with pytest.raises(ValueError):
        extension_obstruction(spec, spec.alpha)


def test_cup_product_is_a_two_cocycle():
    spec = build_carpet(Fraction(1, 2))
    atlas = spec.atlas
    omega = canonical_class(atlas, extension_bundle(2, 3))
    t = contract_cup(atlas, spec.D, omega)
    assert two_cocycle_failures(atlas, t) == []


def test_residue_calibration_values():
    w = make_wcover_atlas()
    p2 = make_p2_atlas()
    assert w.residue_scale == Fraction(-1, 2)
    assert p2.residue_scale == Fraction(-1)
    assert calibrate_residue(w, beta_table(1, 0)) == Fraction(-1, 2)


def test_residue_vanishes_on_regular_coboundaries():
    rng = random.Random(7301)
    atlas = make_wcover_atlas()
    names = atlas.chart_names()
    pairs = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
    ]
    for _ in range(200):
        h = {}
        for (a, b) in pairs:
            ring = atlas.overlap(a, b)
            total = zero()
            for _ in range(3):
                exp = [0, 0]
                for g in ring.generators:
                    k = rng.randint(0, 2)
                    exp[0] += k * g[0]
                    exp[1] += k * g[1]
                total = total + mono(tuple(exp), rng.randint(-2, 2))
            h[(a, b)] = atlas.frame(a) * total
        data = {}
        for idx_i, i in enumerate(names):
            for idx_j in range(idx_i + 1, len(names)):
                for idx_k in range(idx_j + 1, len(names)):
                    j, k = names[idx_j], names[idx_k]
                    data[(i, j, k)] = h[(j, k)] - h[(i, k)] + h[(i, j)]
        assert h2_residue(atlas, TwoCocycle(data)) == 0
    # an irregular cochain is not killed: the functional is not identically 0
    h = {p: zero() for p in pairs}
    h[("W0", "W1")] = mono((-1, -1))
    data = {}
    for idx_i, i in enumerate(names):
        for idx_j in range(idx_i + 1, len(names)):
            for idx_k in range(idx_j + 1, len(names)):
                j, k = names[idx_j], names[idx_k]
                data[(i, j, k)] = h[(j, k)] - h[(i, k)] + h[(i, j)]
    assert h2_residue(atlas, TwoCocycle(data)) != 0


def test_coboundary_solve_recovers_random_coboundaries():
    rng = random.Random(7302)
    for m, p in ((-3, 1), (0, 0), (2, 2)):
        from pms.p2_catalog import make_blown_plane

        base = make_blown_plane(m, p, 0, 0, nontrivial=False)
        atlas = base.atlas
        alpha_full = derive_mult(atlas, base.alpha)
        fields = {
            c.name: random_stable_field(c.ring, rng) for c in atlas.charts
        }
        data = {}
        for (i, j) in canonical_spanning_pairs(atlas):
            a = alpha_full[(i, j)]
            data[(i, j)] = tuple(
                fields[i][v] - a * fields[j][v] for v in range(2)
            )
        spec = DoubleSchemeSpec(atlas, base.alpha, VectorFieldCocycle(data))
        witness, report = coboundary_solve(spec, bound=4)
        assert witness is not None
        assert report["status"] == "found"
        assert report["caveat"] == BOUND_CAVEAT


def test_coboundary_solve_rejects_nontrivial_class():
    spec = build_carpet(Fraction(1, 2))
    witness, report = coboundary_solve(spec, bound=3)
    assert witness is None
    assert report["status"] == "none_within_bound"
    assert report["bound"] == 3
    assert "bounded" in report["caveat"]


def test_iso_decide_identity_and_scaling():
    same = build_carpet(Fraction(1, 2))
    result, report = iso_decide(same, build_carpet(Fraction(1, 2)), bound=3)
    assert result is not None
    tau, fields = result
    assert tau == 1
    assert report["witness"]["tau"] == "1/1"

    one = build_carpet(1, trivial=True)
    two = build_carpet(2, trivial=True)
    result, report = iso_decide(one, two, bound=3)
    assert result is not None
    tau, fields = result
    assert tau == 2


def test_iso_decide_distinguishes_carpets():
    a = build_carpet(0)
    b = build_carpet(1)
    result, report = iso_decide(a, b, bound=4)
    assert result is None
    assert report["status"] == "none_within_bound"


def test_iso_decide_requires_matching_bundle():
    a = build_carpet(0)
    base = make_p2(-3, nontrivial=True)
    with pytest.raises(ValueError):
        iso_decide(a, base, bound=2)
    from pms.p2_catalog import make_blown_plane

    other = make_blown_plane(0, 0, 1, 0, nontrivial=False)
    with pytest.raises(ValueError):
        iso_decide(a, other, bound=2)


def planted(base, tau, seed):
    """``moved`` over ``base`` by seeded random stable chart fields."""
    rng = random.Random(seed)
    return moved(base, tau, {c.name: random_stable_field(c.ring, rng)
                             for c in base.atlas.charts})


def perturbed(fields):
    """The fields with the coefficient of their first term raised by one."""
    for name, comps in fields.items():
        for v, comp in enumerate(comps):
            for exp, coeff in comp.items():
                bumped = list(comps)
                bumped[v] = comp + mono(exp, coeff + 1) - mono(exp, coeff)
                return {**fields, name: tuple(bumped)}
    raise AssertionError("the witness has no term to perturb")


@pytest.mark.parametrize("base", [make_p2(-3, nontrivial=True),
                                  build_carpet(Fraction(1, 2))],
                         ids=["plane", "blown-plane"])
def test_resubstitution_rejects_a_witness_off_by_one_term(base):
    atlas = base.atlas
    alpha_full = derive_mult(atlas, base.alpha)
    s1 = derive_vector_field(atlas, base.alpha, base.D)

    coboundary = planted(base, 0, seed=41)
    target = derive_vector_field(atlas, base.alpha, coboundary.D)
    fields, _ = coboundary_solve(coboundary, bound=4)
    cohomology._verify_resubstitution(atlas, fields, alpha_full, target)
    with pytest.raises(AssertionError, match="fails resubstitution"):
        cohomology._verify_resubstitution(
            atlas, perturbed(fields), alpha_full, target)

    moved = planted(base, 2, seed=43)
    target = derive_vector_field(atlas, base.alpha, moved.D)
    (tau, fields), _ = iso_decide(base, moved, bound=4)
    assert tau == 2
    extra = [(tau, s1)]
    cohomology._verify_resubstitution(atlas, fields, alpha_full, target, extra)
    with pytest.raises(AssertionError, match="fails resubstitution"):
        cohomology._verify_resubstitution(
            atlas, perturbed(fields), alpha_full, target, extra)


def test_extension_obstruction_examples():
    spec = build_carpet(Fraction(1, 2))
    assert extension_obstruction(spec, extension_bundle(1, 2)) == 0
    assert extension_obstruction(spec, extension_bundle(1, 0)) == 1
    assert extension_obstruction(spec, extension_bundle(0, 2)) == -1
    sym = symbolic_carpet()
    value = extension_obstruction(sym, padded_bundle(extension_bundle(0, 1)))
    assert isinstance(value, LaurentPoly)
    assert value == LaurentPoly.monomial(3, (0, 0, 1), -1)


def test_oneform_solver_identifies_class_coefficients():
    atlas = make_wcover_atlas()
    u_cls, v_cls = wcover_unit_classes()
    u = canonical_class(atlas, u_cls)
    v = canonical_class(atlas, v_cls)
    combo = OneFormCocycle({
        pair: (
            u.data[pair][0].scale(3) + v.data[pair][0].scale(-2),
            u.data[pair][1].scale(3) + v.data[pair][1].scale(-2),
        )
        for pair in u.data
    })
    solution, report = oneform_coboundary_solve(
        atlas, combo, bound=3, extra={"u": u, "v": v}
    )
    assert solution is not None
    assert solution["coefficients"] == {"u": Fraction(3), "v": Fraction(-2)}
    assert report["status"] == "found"


def test_oneform_solver_reports_failure_outside_bound():
    atlas = make_wcover_atlas()
    u = canonical_class(atlas, beta_table(1, 0))
    solution, report = oneform_coboundary_solve(atlas, u, bound=2)
    assert solution is None
    assert report["status"] == "none_within_bound"


def test_derive_oneform_untwisted_chain():
    atlas = make_wcover_atlas()
    u = canonical_class(atlas, beta_table(1, 0))
    full = derive_oneform(atlas, u)
    for v in range(2):
        lhs = full[("W0", "W2")][v]
        rhs = full[("W0", "W1")][v] + full[("W1", "W2")][v]
        assert lhs == rhs
    assert full[("W1", "W0")][0] == -full[("W0", "W1")][0]


def test_residue_raw_and_report_shape():
    atlas = make_wcover_atlas()
    t = TwoCocycle({
        ("W0", "W1", "W2"): mono((-1, -1), 4),
        ("W0", "W1", "W3"): zero(),
        ("W0", "W2", "W3"): mono((0, 0), 9),
        ("W1", "W2", "W3"): zero(),
    })
    assert residue_raw(atlas, t) == mono((0, 0), 4)
    assert h2_residue(atlas, t) == Fraction(-2)
    report = solver_report("found", 5, {"x": 1})
    assert set(report) == {"status", "bound", "caveat", "witness"}


def ring_conditions(ring, prefix=()):
    """Term-form ring conditions of the field with components F_(prefix, v)."""
    zero = (0,) * ring.nvars
    return derivation_conditions(
        ring, [({}, ((prefix + (v,), zero, 1),)) for v in range(ring.nvars)]
    )


def test_derivation_rows_match_derivation_failures():
    """The term-form ring rows, cascaded, flag a boxed field exactly when it
    fails: on a forced unknown or on a reduced row."""
    rng = random.Random(4417)
    box = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    rings = [c.ring for c in make_p2_atlas().charts]
    rings += [c.ring for c in make_wcover_atlas().charts]
    labels = {("T", v): box_labels(("T", v), box) for v in range(2)}
    outcomes = set()
    for trial in range(60):
        ring = rings[trial % len(rings)]
        comps = list(random_stable_field(ring, rng, pieces=2))
        if trial % 2:
            exp = (rng.randint(-1, 1), rng.randint(-1, 1))
            v = rng.randrange(2)
            comps[v] = comps[v] + mono(exp, rng.randint(1, 3))
        comps = tuple(comps)
        if any(max(map(abs, e)) > 3 for c in comps for e in c.support()):
            continue
        values = {
            ("T", v, e): c for v in range(2) for e, c in comps[v].items()
        }
        forced, rows = term_rows(ring_conditions(ring, ("T",)), labels)
        violated = any(values.get(z) for z in forced) or any(
            sum(c * values.get(label, 0) for label, c in row.items()) != rhs
            for row, rhs in rows
        )
        failed = bool(derivation_failures(comps, ring, ("lam", "mu")))
        assert violated == failed, (ring.generators, comps)
        outcomes.add(failed)
    assert outcomes == {False, True}


def catalog_and_random_rings(rng):
    """Chart rings of the catalog atlases plus seeded random generator sets."""
    specs = (
        make_p2(-3, nontrivial=True),
        build_carpet(Fraction(1, 2)),
        make_blown_plane(-3, 1, 0),
    )
    rings = {c.ring.generators: (c.ring, 8) for s in specs for c in s.atlas.charts}
    for nvars, count, bound in ((2, 6, 8), (3, 3, 2)):
        for _ in range(count):
            size, gens = rng.randint(1, 4), set()
            while len(gens) < size:
                gens.add(tuple(rng.randint(-2, 2) for _ in range(nvars)))
            gens = tuple(sorted(gens))
            rings[gens] = (ExponentMonoid(nvars, gens), bound)
    return rings.values()


def block_forced(ring, bound):
    """The unknowns (v, e) that their degree block's ring rows span.

    The term x^e d/dx_v has degree d = e - e_v, and the row of a generator g
    at the exponent g + d mentions only unknowns of degree d: one solver per
    block decides the unit vectors of that block.
    """
    blocks = {}
    for e in exponent_box(ring.nvars, bound):
        for v in range(ring.nvars):
            blocks.setdefault(e[:v] + (e[v] - 1,) + e[v + 1:], []).append((v, e))
    forced = set()
    for d, block in blocks.items():
        solver = solve_rows(
            (row, 0) for g in ring.generators
            if (row := {(v, e): g[v] for v, e in block if g[v]})
            and not ring.contains(tuple(a + b for a, b in zip(g, d)))
        )
        forced.update(z for z in block if solver.spans({z: 1}))
    return forced


def test_dropped_unknowns_are_exactly_the_ring_forced_ones():
    """An unknown is dropped iff its degree block's ring rows span its unit."""
    counts = {True: 0, False: 0}
    for ring, top in catalog_and_random_rings(random.Random(7121)):
        nvars = ring.nvars
        for bound in range(top + 1):
            forced = block_forced(ring, bound)
            kept, _ = cohomology._chart_ring_rows(ring.generators, nvars, bound)
            for v in range(nvars):
                free = set(kept[v])
                for e in exponent_box(nvars, bound):
                    dropped = e not in free
                    assert dropped == ((v, e) in forced), (ring.generators, bound, v, e)
                    counts[dropped] += 1
    assert min(counts.values()) > 0


def row_multiset(rows):
    return Counter((frozenset(row.items()), rhs) for row, rhs in rows)


def test_chart_unknowns_label_the_cached_ring_rows_in_order():
    """``_chart_plan`` labels each chart's kept exponents, in order, and its
    ring rows, in order and with their entries in order, ("T", chart, v, e).
    Each condition below pairs the fields of two charts at one shift, so
    its rows hold two labels each, the cascade forces nothing and the plan
    keeps a row per kept exponent, in the order of the label map."""
    for ring, top in catalog_and_random_rings(random.Random(7121)):
        nvars = ring.nvars
        zero = (0,) * nvars
        charts = (("U", ring.generators), ("V", ring.generators))
        shape = tuple(
            (None, (), ((("T", "U", v), zero), (("T", "V", v), zero)), ())
            for v in range(nvars)
        )
        for bound in range(0, top + 1, 2):
            kept, rows = cohomology._chart_ring_rows(ring.generators, nvars, bound)
            plan, labelled = cohomology._chart_plan.__wrapped__(
                charts, nvars, bound, shape
            )
            assert [(list(row.items()), rhs) for row, rhs in labelled] == [
                ([(("T", name, v, e), c) for (v, e), c in row.items()], 0)
                for name, _ in charts for row in rows
            ]
            assert plan.built == tuple(tuple(row) for row, _ in labelled)
            assert [(k, labels) for k, _, _, labels in plan.places] == [
                (v, (("T", "U", v, e), ("T", "V", v, e)))
                for v, exps in enumerate(kept) for e in exps
            ]


def test_chart_ring_rows_are_the_derivation_rows_of_the_kept_field():
    """The cached rows are the ring rows of the kept field, as the reference
    ``SymPoly`` expander builds them."""
    for ring, top in catalog_and_random_rings(random.Random(7121)):
        nvars = ring.nvars
        for bound in range(top + 1):
            kept, rows = cohomology._chart_ring_rows(ring.generators, nvars, bound)
            comps = {
                (v,): SymPoly.unknown(nvars, (v,), exps)
                for v, exps in enumerate(kept)
            }
            assert row_multiset((row, 0) for row in rows) == row_multiset(
                symbolic_rows(nvars, ring_conditions(ring), comps)
            )


def term_form_fields(atlas):
    """The unknown chart fields F_chart, component v the prefix
    ("T", chart, v), in term form."""
    zero = (0,) * atlas.nvars
    return {
        chart.name: [
            (((("T", chart.name, v), zero, 1),), ()) for v in range(atlas.nvars)
        ]
        for chart in atlas.charts
    }


def unknown_fields(atlas, exps_of):
    """``SymPoly`` unknowns for every prefix ("T", chart, v) over
    ``exps_of(chart, v)``."""
    return {
        ("T", chart.name, v): SymPoly.unknown(
            atlas.nvars, ("T", chart.name, v), exps_of(chart, v)
        )
        for chart in atlas.charts for v in range(atlas.nvars)
    }


def full_box_rows(atlas, bound, twist_full, target_full, extra=()):
    """Every boxed coefficient an unknown: the full-box ring and
    twisted-difference rows, expanded by the reference expander."""
    exps = exponent_box(atlas.nvars, bound)
    comps = unknown_fields(atlas, lambda chart, v: exps)
    rows = [
        row for chart in atlas.charts
        for row in symbolic_rows(
            atlas.nvars, ring_conditions(chart.ring, ("T", chart.name)), comps
        )
    ]
    conditions = twisted_conditions(
        atlas, term_form_fields(atlas), twist_full, target_full, extra
    )
    return rows + symbolic_rows(atlas.nvars, conditions, comps)


LINE_X0 = CenterSpec("hypersurface", generators={
    "U0": (mono((-1, 0)),), "U1": (LaurentPoly.const(2, 1),), "U2": (mono((0, 1)),),
})


def plane_with_pole():
    """The m = -3 plane with D = mu^-2 d/dlam on (U0, U1) and zero elsewhere.

    At bound 3, a solver without the ring rows on the kept unknowns finds a
    witness that does not preserve its chart ring.
    """
    base = make_p2(-3, nontrivial=True)
    data = {pair: (zero(), zero()) for pair in canonical_spanning_pairs(base.atlas)}
    data[("U0", "U1")] = (mono((0, -2)), zero())
    return DoubleSchemeSpec(base.atlas, base.alpha, VectorFieldCocycle(data))


def good_center(a1, a2):
    const = LaurentPoly.const
    return CenterSpec("good", pairs={
        "U2": ((mono((0, 1)), const(2, a1)), (mono((1, 1)), const(2, a2))),
    })


def distinct_good_points(bound):
    base = make_p2(-3, nontrivial=True)
    one = blowup_good(base, good_center(0, 1), check=False)
    two = blowup_good(base, good_center(Fraction(1, 2), -1), check=False)
    return iso_decide(one.spec, two.spec, bound=bound)


def zero_structure(spec):
    """The same atlas and bundle cocycle with D = 0."""
    data = {pair: (zero(), zero()) for pair in canonical_spanning_pairs(spec.atlas)}
    return DoubleSchemeSpec(spec.atlas, spec.alpha, VectorFieldCocycle(data))


DIFFERENTIAL_CASES = {
    "coboundary/hypersurface-blowup": ("found", lambda b: coboundary_solve(
        blowup_hypersurface(make_p2(-3, nontrivial=True), LINE_X0).spec, bound=b)),
    "iso/same-carpet": ("found", lambda b: iso_decide(
        build_carpet(Fraction(1, 2)), build_carpet(Fraction(1, 2)), bound=b)),
    "iso/trivial-carpets": ("found", lambda b: iso_decide(
        build_carpet(Fraction(-3, 4), trivial=True),
        build_carpet(3, trivial=True), bound=b)),
    "coboundary/carpet": ("none_within_bound", lambda b: coboundary_solve(
        build_carpet(Fraction(1, 2)), bound=b)),
    "coboundary/plane": ("none_within_bound", lambda b: coboundary_solve(
        make_p2(-3, nontrivial=True), bound=b)),
    "coboundary/plane-pole": ("none_within_bound", lambda b: coboundary_solve(
        plane_with_pole(), bound=b)),
    "iso/distinct-carpets": ("none_within_bound", lambda b: iso_decide(
        build_carpet(0), build_carpet(1), bound=b)),
    "iso/distinct-good-points": ("none_within_bound", distinct_good_points),
    # only tau = 0 solves it: the pin tau = 1 must stay inconsistent
    "iso/zero-structure": ("none_within_bound", lambda b: iso_decide(
        build_carpet(Fraction(1, 2)),
        zero_structure(build_carpet(Fraction(1, 2))), bound=b)),
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_dropping_forced_unknowns_keeps_reports(case, monkeypatch):
    """Same witness and report JSON as with one unknown per boxed exponent."""
    expected, solve = DIFFERENTIAL_CASES[case]
    for bound in (0, 1, 3, 5):
        witness, report = solve(bound)
        with monkeypatch.context() as patch:
            patch.setattr(cohomology, "_chart_fields", full_box_rows)
            full_witness, full_report = solve(bound)
        assert witness == full_witness
        assert json.dumps(report, sort_keys=True) == json.dumps(
            full_report, sort_keys=True
        )
    assert report["status"] == expected


# (tau, whether the rows leave tau free, sha256 of the report JSON); the
# digests are those of the two-solve version, which solved before and after
# the pin tau = 1
SOLVE_ONCE_CASES = {
    "tau-free": (1, True, "67ab738cabf603f4e82365b9211384539f9c0ca3"
                          "c73a0f6cb78dc7f45334256a"),
    "tau-two": (2, False, "91294b04ab3e0a95072b4cef9e687407b6283f17"
                          "830261626211635cc47430cf"),
    "tau-zero": (None, False, "eec477cf1a2f1fb4cb7c2bd6c0fecc7815f43528"
                              "9125e232ad0f706ce7b601d9"),
}


@pytest.mark.parametrize("case", sorted(SOLVE_ONCE_CASES))
def test_iso_decide_solves_once(case, monkeypatch):
    plane = make_p2(-3, nontrivial=True)
    carpet = build_carpet(Fraction(1, 2))
    first, second, bound = {
        # two coboundaries: tau * D stays a coboundary for every tau
        "tau-free": (planted(plane, 0, seed=41), planted(plane, 0, seed=42), 4),
        "tau-two": (plane, planted(plane, 2, seed=43), 4),
        "tau-zero": (carpet, zero_structure(carpet), 3),
    }[case]
    tau, free, digest = SOLVE_ONCE_CASES[case]
    solves, tau_spanned = [], []
    solve, spans = linear.LinearSolver.solve, linear.LinearSolver.spans

    def counted_solve(self):
        solves.append(self)
        return solve(self)

    def recorded_spans(self, coeffs):
        answer = spans(self, coeffs)
        if dict(coeffs) == {("tau",): 1}:
            tau_spanned.append(answer)
        return answer

    monkeypatch.setattr(linear.LinearSolver, "solve", counted_solve)
    monkeypatch.setattr(linear.LinearSolver, "spans", recorded_spans)
    result, report = iso_decide(first, second, bound=bound)
    assert len(solves) == 1
    assert tau_spanned == [not free]
    assert (None if result is None else result[0]) == tau
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def singleton_fixpoint(rows):
    """Row by row: delete every chart-field label that a zero-rhs row
    mentions alone, until no such row is left."""
    rows = [(dict(row), rhs) for row, rhs in rows]
    forced = set()
    while True:
        single = {
            z for row, rhs in rows if rhs == 0 and len(row) == 1
            for z in row if z[0] == "T"
        }
        if not single:
            return forced
        forced |= single
        for row, _ in rows:
            for z in single:
                row.pop(z, None)


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_dropped_unknowns_are_the_singleton_fixpoint(case, monkeypatch):
    """The solvers leave out exactly the row-level singleton fixpoint of the
    ring-kept system, and hand the solver no chart-field singleton u = 0."""
    chart_fields = cohomology._chart_fields
    calls = []

    def spy_fields(atlas, bound, twist_full, target_full, extra=()):
        rows = chart_fields(atlas, bound, twist_full, target_full, extra)
        calls.append((atlas, twist_full, target_full, extra, rows))
        return rows

    def spy_solve_rows(rows):
        rows = list(rows)
        for row, rhs in rows:
            assert rhs or len(row) != 1 or next(iter(row)) == ("tau",), row
        return solve_rows(rows)

    monkeypatch.setattr(cohomology, "_chart_fields", spy_fields)
    monkeypatch.setattr(cohomology, "solve_rows", spy_solve_rows)
    _, solve = DIFFERENTIAL_CASES[case]
    for bound in range(7):
        calls.clear()
        solve(bound)
        assert calls
        for atlas, twist_full, target_full, extra, got in calls:
            ring_kept, rows = {}, []
            for chart in atlas.charts:
                kept, ring = cohomology._chart_ring_rows(
                    chart.ring.generators, atlas.nvars, bound
                )
                ring_kept[chart.name] = kept
                rows += [
                    ({("T", chart.name, v, e): c for (v, e), c in row.items()}, 0)
                    for row in ring
                ]
            comps = unknown_fields(
                atlas, lambda chart, v: ring_kept[chart.name][v]
            )
            conditions = twisted_conditions(
                atlas, term_form_fields(atlas), twist_full, target_full, extra
            )
            rows += symbolic_rows(atlas.nvars, conditions, comps)
            labels = {label for row, _ in rows for label in row}
            left = {label for row, _ in got for label in row}
            dropped = {z for z in labels - left if z[0] == "T"}
            assert dropped == singleton_fixpoint(rows), (case, bound)


def chart_system(charts, nvars, bound):
    """The label maps and ring rows of the chart-field system over
    ``charts``, pairs (name, generators): each chart's ``_chart_ring_rows``,
    labelled ("T", name, v, e)."""
    labels, built = {}, []
    for name, generators in charts:
        kept, rows = cohomology._chart_ring_rows(generators, nvars, bound)
        labels.update((("T", name, v), {e: ("T", name, v, e) for e in exps})
                      for v, exps in enumerate(kept))
        built += [({("T", name, v, e): c for (v, e), c in row.items()}, 0)
                  for row in rows]
    return labels, built


def staged_rows(conditions, labels, built):
    """Z and the rows of the ``term_rows`` stages over term-form
    ``conditions``, with the zero-rhs rows ``built`` first."""
    structure, values = linear.split_conditions(conditions)
    forced, plan = linear.plan_rows(structure, labels,
                                    [row for row, _ in built])
    return forced, linear.fill_rows(plan, values, built)


def captured_systems(kind, monkeypatch):
    """The systems that the solvers of ``kind`` build: each is its term-form
    conditions as a list, its label maps and built rows, then the
    ``_chart_plan`` key (charts, variable count, bound) of a chart-field
    system, else None, then the (structure, values) of a
    ``_twisted_difference`` system, else None.  A ``term_rows`` call is
    captured with its arguments and no built row.  A twisted-difference
    system is captured with its term-form conditions
    (``twisted_conditions`` over the same unknown fields or one-forms) and
    with ``chart_system`` for a chart field, no label map or built row for a
    one-form."""
    calls = []
    chart_plan = cohomology._chart_plan
    twisted_difference = cohomology._twisted_difference

    def spy(conditions, labels):
        conditions = list(conditions)
        calls.append((conditions, labels, [], None, None))
        return linear.term_rows(conditions, labels)

    def spy_twisted(atlas, forms, twist_full, target_full, extra=()):
        split = twisted_difference(atlas, forms, twist_full, target_full, extra)
        fields = term_form_fields(atlas) if forms is None else {
            name: [((), scalars) for scalars in comps]
            for name, comps in forms.items()
        }
        conditions = twisted_conditions(
            atlas, fields, twist_full, target_full, extra
        )
        calls.append((list(conditions), {}, [], None, split))
        return split

    def spy_plan(charts, nvars, bound, shape):
        conditions, _, _, _, split = calls.pop()
        assert split[0] is shape
        labels, built = chart_system(charts, nvars, bound)
        calls.append((conditions, labels, built, (charts, nvars, bound),
                      split))
        return chart_plan(charts, nvars, bound, shape)

    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_twisted_difference", spy_twisted)
        patch.setattr(cohomology, "_chart_plan", spy_plan)
        patch.setattr(cohomology, "term_rows", spy)
        patch.setattr(p2_catalog, "term_rows", spy)
        if kind == "cocycle":
            cohomology._chart_ring_rows.cache_clear()
            for _, solve in DIFFERENTIAL_CASES.values():
                for bound in range(8):
                    solve(bound)
        elif kind == "chart-ring":
            for ring, top in catalog_and_random_rings(random.Random(7121)):
                for bound in range(top + 1):
                    cohomology._chart_ring_rows.__wrapped__(
                        ring.generators, ring.nvars, bound
                    )
        elif kind == "family":
            for p in range(6):
                for x_part in (0, 1):
                    conditions = p2_catalog._pullback_conditions(p, x_part)
                    for b in range(3, 9):
                        p2_catalog._pullback_rows(conditions, b)
        else:
            atlas = make_wcover_atlas()
            u_cls, v_cls = wcover_unit_classes()
            u, v = canonical_class(atlas, u_cls), canonical_class(atlas, v_cls)
            combo = OneFormCocycle({
                pair: tuple(a.scale(3) + b.scale(-2)
                            for a, b in zip(u.data[pair], v.data[pair]))
                for pair in u.data
            })
            for bound in (2, 3):
                oneform_coboundary_solve(atlas, combo, bound, {"u": u, "v": v})
                oneform_coboundary_solve(
                    atlas, canonical_class(atlas, beta_table(1, 0)), bound
                )
    return calls


def entries(rows):
    """Each row's entries in order, with its right-hand side."""
    return [(list(row.items()), rhs) for row, rhs in rows]


def planned(args):
    """The Z and rows of ``staged_rows``, each row's entries in order; a
    chart-field system gets the same rows from its ``_chart_plan`` plan of
    the ``_twisted_difference`` structure and values, and a one-form system
    the same Z and rows from their plan with no label map."""
    conditions, labels, built, key, split = args
    forced, rows = staged_rows(conditions, labels, built)
    rows = entries(rows)
    if split is not None:
        shape, values = split
        if key is not None:
            plan, ring_rows = cohomology._chart_plan(*key, shape)
        else:
            got, plan = linear.plan_rows(shape, labels, [])
            assert got == forced
            ring_rows = built
        assert entries(linear.fill_rows(plan, values, ring_rows)) == rows
    return forced, rows


@pytest.mark.parametrize("kind", ["cocycle", "oneform"])
def test_twisted_difference_is_the_split_term_form(kind, monkeypatch):
    """For every ``DIFFERENTIAL_CASES`` solve at bounds 0-7 and every
    one-form solve, ``_twisted_difference`` gives exactly the structure and
    values, in the same order and with the same number types, that
    ``split_conditions`` makes of the term-form ``twisted_conditions``."""
    calls = captured_systems(kind, monkeypatch)
    split = [args for args in calls if args[4] is not None]
    assert split
    for conditions, *_, got in split:
        expected = linear.split_conditions(conditions)
        assert got == expected
        assert repr(got) == repr(expected)


@pytest.mark.parametrize("kind", ["cocycle", "chart-ring", "family", "oneform"])
def test_memoised_plans_match_fresh_ones(kind, monkeypatch):
    """``_chart_plan`` gives the rows of the ``term_rows`` stages, in the same order
    with the same right-hand sides, with a cold memo, with a memo warmed by
    the other systems, and with every plan built afresh; only the
    chart-field systems of the cocycle solvers reach it."""
    calls = captured_systems(kind, monkeypatch)
    assert calls
    charted = [args for args in calls if args[3] is not None]
    assert bool(charted) == (kind == "cocycle")
    cold = []
    for args in calls:
        cohomology._chart_plan.cache_clear()
        cold.append(planned(args))
    cohomology._chart_plan.cache_clear()
    warm = [planned(args) for args in calls]
    hits = cohomology._chart_plan.cache_info().hits
    assert [planned(args) for args in calls] == warm
    assert cohomology._chart_plan.cache_info().hits == hits + len(charted)
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_chart_plan",
                      cohomology._chart_plan.__wrapped__)
        fresh = [planned(args) for args in calls]
    assert cold == warm == fresh


def test_only_repeated_structures_enter_the_plan_memo():
    """The family grid from a cold row memo, the chart-ring rows and a
    one-form solve, each built once at its own level, leave the plan memo
    as it was; a repeated ``coboundary_solve`` plans from it."""
    p2_catalog._family_system.cache_clear()
    info = cohomology._chart_plan.cache_info()
    for p in range(6):
        for x_part in (0, 1):
            for b in range(3, 9):
                p2_catalog.solve_pullback_family(
                    -3, p, b, nontrivial=bool(x_part)
                )
    assert cohomology._chart_plan.cache_info() == info
    for ring, _ in catalog_and_random_rings(random.Random(7121)):
        for bound in range(4):
            cohomology._chart_ring_rows.__wrapped__(
                ring.generators, ring.nvars, bound
            )
    assert cohomology._chart_plan.cache_info() == info
    atlas = make_wcover_atlas()
    oneform_coboundary_solve(
        atlas, canonical_class(atlas, beta_table(1, 0)), 3
    )
    assert cohomology._chart_plan.cache_info() == info

    spec = build_carpet(Fraction(1, 2))
    coboundary_solve(spec, bound=4)
    hits = cohomology._chart_plan.cache_info().hits
    coboundary_solve(spec, bound=4)
    assert cohomology._chart_plan.cache_info().hits > hits


def carpet_system(alpha, bound=3, tau=True):
    """The ``_chart_fields`` arguments of the carpet at ``alpha``: its
    derived family as the target and, with ``tau``, as the extra."""
    spec = build_carpet(alpha)
    atlas = spec.atlas
    twist = derive_mult(atlas, spec.alpha)
    target = derive_vector_field(atlas, spec.alpha, spec.D)
    extra = [(("tau",), target)] if tau else []
    return atlas, bound, twist, target, extra


def varied(system, name):
    """``system`` with one input of the label pass changed: the bound, the
    ring or the name of one chart, the twist exponent of one spanning pair,
    or the support of the target or of the extra there."""
    atlas, bound, twist, target, extra = system
    pair, far = ("W0", "W1"), mono((7, 7))
    if name == "bound":
        return atlas, bound + 1, twist, target, extra
    if name == "ring":
        charts = tuple(
            c._replace(ring=ExponentMonoid(2, ((1, 0), (0, 1))))
            if c.name == "W1" else c for c in atlas.charts
        )
        return atlas._replace(charts=charts), bound, twist, target, extra
    if name == "name":
        def rename(n):
            return "W4" if n == "W3" else n

        def moved(family):
            return {tuple(map(rename, key)): value
                    for key, value in family.items()}

        atlas = atlas._replace(
            charts=tuple(c._replace(name=rename(c.name)) for c in atlas.charts),
            overlaps=moved(atlas.overlaps),
            frames={rename(n): f for n, f in atlas.frames.items()},
        )
        return (atlas, bound, moved(twist), moved(target),
                [(label, moved(known)) for label, known in extra])
    if name == "twist":
        twist = {**twist, pair: twist[pair] * mono((1, 0))}
        return atlas, bound, twist, target, extra
    widened = {**target, pair: (target[pair][0] + far,) + target[pair][1:]}
    if name == "target":
        return atlas, bound, twist, widened, extra
    assert name == "extra"
    return atlas, bound, twist, target, [(("tau",), widened)]


def chart_field_rows(atlas, bound, twist, target, extra):
    """The ``term_rows`` stages over ``twisted_conditions`` and the ring rows
    of ``chart_system``, each row's entries in order."""
    charts = tuple((c.name, c.ring.generators) for c in atlas.charts)
    labels, built = chart_system(charts, atlas.nvars, bound)
    conditions = twisted_conditions(
        atlas, term_form_fields(atlas), twist, target, extra
    )
    return entries(staged_rows(conditions, labels, built)[1])


def test_each_chart_field_input_gets_its_own_plan(monkeypatch):
    """Chart-field systems that differ in one input of the label pass each
    get their own ``_chart_plan`` entry, and their rows, cold, warm and
    planned afresh, are those of the ``term_rows`` stages in the same
    order; a carpet
    at another alpha plans from the memo and fills its own coefficients."""
    base = carpet_system(Fraction(1, 2))
    systems = [base] + [
        varied(base, name)
        for name in ("bound", "ring", "name", "twist", "target", "extra")
    ]
    expected = [chart_field_rows(*system) for system in systems]

    def rows_of_all():
        return [entries(cohomology._chart_fields(*system))
                for system in systems]

    cohomology._chart_plan.cache_clear()
    cold = rows_of_all()
    info = cohomology._chart_plan.cache_info()
    assert info.misses == info.currsize == len(systems)
    warm = rows_of_all()
    again = cohomology._chart_plan.cache_info()
    assert (again.hits, again.misses) == (info.hits + len(systems), info.misses)
    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_chart_plan",
                      cohomology._chart_plan.__wrapped__)
        fresh = rows_of_all()
    assert cold == warm == fresh == expected

    cohomology._chart_plan.cache_clear()
    coboundary_solve(build_carpet(Fraction(1, 2)), bound=4)
    info = cohomology._chart_plan.cache_info()
    coboundary_solve(build_carpet(Fraction(1, 3)), bound=4)
    again = cohomology._chart_plan.cache_info()
    assert (again.hits, again.misses) == (info.hits + 1, info.misses)
    half, third = (carpet_system(Fraction(alpha), 4, tau=False)
                   for alpha in ("1/2", "1/3"))
    rows = entries(cohomology._chart_fields(*third))
    assert rows == chart_field_rows(*third) != chart_field_rows(*half)
