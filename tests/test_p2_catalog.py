"""Tests for the projective-plane and quadrilateral-cover catalogue."""

import hashlib
import itertools
import json
from collections import Counter
from copy import deepcopy
from fractions import Fraction

import pytest

from pms import blowup, linear, p2_catalog
from pms.atlas import (
    DoubleSchemeSpec,
    MultCocycle,
    VectorFieldCocycle,
    validate_double_scheme,
    validate_mult_cocycle,
)
from pms.blowup import CenterSpec, blowup_reduced
from pms.cli import main
from pms.cohomology import BOUND_CAVEAT, extension_obstruction
from pms.laurent_core import FrozenRecordError, LaurentPoly
from pms.linear import (
    box_labels,
    forced_by_singletons,
    rank_of_vectors,
    solve_rows,
    term_rows,
    without,
)
from pms.p2_catalog import (
    beta_table,
    build_carpet,
    carpet_decompose,
    carpet_extends,
    carpet_obstruction,
    extension_bundle,
    extension_lattice,
    make_blown_plane,
    make_p2,
    make_p2_atlas,
    make_wcover_atlas,
    p2_line_bundle,
    pairing_matrix,
    quasiprojective,
    solve_pullback_family,
    wcover_unit_classes,
)

from symbolic_reference import (
    SymPoly,
    padded_bundle,
    symbolic_carpet,
    symbolic_rows,
    symbolic_wcover_atlas,
)


def test_atlas_structures_are_clean():
    assert make_p2_atlas().structure_failures() == []
    assert make_wcover_atlas().structure_failures() == []
    assert symbolic_wcover_atlas().structure_failures() == []


def test_line_bundle_grids_validate():
    p2 = make_p2_atlas()
    w = make_wcover_atlas()
    for m in range(-3, 4):
        assert validate_mult_cocycle(p2, p2_line_bundle(m)).ok
        for p in range(0, 3):
            assert validate_mult_cocycle(w, beta_table(m, p)).ok
            assert validate_mult_cocycle(w, extension_bundle(m, p)).ok


def test_double_scheme_grids_validate():
    for m in range(-3, 4):
        assert validate_double_scheme(make_p2(m)).ok
        for p in range(0, 3):
            spec = make_blown_plane(m, p, nontrivial=(m == -3))
            assert validate_double_scheme(spec).ok
    assert validate_double_scheme(make_p2(-3, nontrivial=True)).ok
    assert validate_double_scheme(make_blown_plane(0, 0, 0, 5)).ok
    assert validate_double_scheme(make_blown_plane(2, 0, 3, -1)).ok


def test_carpet_constructors_validate():
    for alpha in (0, 1, Fraction(1, 2), -2):
        assert validate_double_scheme(build_carpet(alpha)).ok
    assert validate_double_scheme(build_carpet(3, trivial=True)).ok
    assert validate_double_scheme(symbolic_carpet()).ok
    assert validate_double_scheme(symbolic_carpet(trivial=True)).ok


def test_constructor_argument_errors():
    """Each bad argument set raises on every call and never enters a memo."""
    memos = (p2_catalog._build_blown_plane, p2_catalog._build_p2)
    sizes = [memo.cache_info().currsize for memo in memos]
    for bad in (
        lambda: make_p2(0, nontrivial=True),
        lambda: make_p2(-1, nontrivial=True),
        lambda: make_blown_plane(-3, 2, c0=1),
        lambda: make_blown_plane(0, 3, 1, nontrivial=False),
        lambda: make_blown_plane(-3, 1, c0=0, r0=1),
        lambda: make_blown_plane(0, 0, nontrivial=True),
        lambda: make_blown_plane(-3, -1),
    ):
        for _ in range(2):
            with pytest.raises(ValueError):
                bad()
    assert [memo.cache_info().currsize for memo in memos] == sizes


def test_catalog_specs_are_read_only_values():
    """A shared spec or atlas cannot be changed in place, so the next equal
    call still gets the constructor's structure; a cocycle keeps its own copy
    of the dict it was built from."""
    spec = make_blown_plane(-3, 0, Fraction(1, 2), 3)
    zero = LaurentPoly.zero(2)
    lam = LaurentPoly.monomial(2, (1, 0))
    mu = LaurentPoly.monomial(2, (0, 1))
    center = CenterSpec("reduced", generators={"U2": (mu, lam * mu)})
    blown = blowup_reduced(make_p2(-3), center).atlas
    atlases = (make_p2_atlas(), make_wcover_atlas(), spec.atlas, blown)
    for table in [a.overlaps for a in atlases] + [a.frames for a in atlases[:3]]:
        with pytest.raises(TypeError):
            table[next(iter(table))] = None
    with pytest.raises(TypeError):
        spec.alpha.data[("W0", "W1")] = lam
    with pytest.raises(TypeError):
        spec.D.data[("W0", "W1")] = (zero, zero)
    with pytest.raises(TypeError):
        del spec.D.data[("W1", "W2")]
    for target, name, value in (
        (spec, "alpha", beta_table(0, 0)),
        (spec, "D", VectorFieldCocycle({})),
        (spec, "atlas", make_p2_atlas()),
        (spec.alpha, "name", "other"),
        (spec.alpha, "data", {}),
        (spec.D, "data", {}),
        *((atlas, name, value) for atlas in atlases for name, value in (
            ("residue_scale", 7), ("variables", ("x", "y")), ("charts", ()),
            ("overlaps", {}), ("frames", None),
        )),
    ):
        with pytest.raises(FrozenRecordError):
            setattr(target, name, value)
    assert pairing_matrix() == ((1, 0), (0, -1))
    again = make_blown_plane(-3, 0, Fraction(1, 2), 3)
    assert again is spec
    assert validate_double_scheme(again).ok
    fresh = p2_catalog._build_blown_plane.__wrapped__(
        -3, 0, Fraction(1, 2), Fraction(3), True)
    assert fresh is not again and fresh == again
    assert make_p2_atlas() == make_p2_atlas.__wrapped__()
    assert make_wcover_atlas() == make_wcover_atlas.__wrapped__()
    assert blown == blowup._build_blown_atlas.__wrapped__(
        make_p2_atlas(), blowup._center_exponents(make_p2_atlas(), center), (),
    )[0]

    bundle = {("W0", "W1"): lam, ("W1", "W2"): lam}
    field = {("W0", "W1"): (lam, zero)}
    alpha, D = MultCocycle("a", bundle), VectorFieldCocycle(field)
    bundle[("W0", "W1")] = LaurentPoly.const(2, 1)
    del bundle[("W1", "W2")]
    field[("W0", "W1")] = (zero, zero)
    field[("W1", "W2")] = (zero, zero)
    assert dict(alpha.data) == {("W0", "W1"): lam, ("W1", "W2"): lam}
    assert dict(D.data) == {("W0", "W1"): (lam, zero)}


def test_equal_constructor_arguments_share_one_spec():
    """The memo key is the arguments' value, however they are passed."""
    one = make_blown_plane(-3, 0, 1)
    for spec in (
        make_blown_plane(-3, 0, Fraction(1)),
        make_blown_plane(-3, 0, Fraction(2, 2), 0, True),
        make_blown_plane(-3, 0, c0=1, r0=Fraction(0), nontrivial=None),
        make_blown_plane(m=-3, p=0, c0=Fraction(2, 2), nontrivial=True),
    ):
        assert spec is one
    assert make_blown_plane(0, 2) is make_blown_plane(0, 2, 0, 0, False)
    assert make_blown_plane(0, 2) is not make_blown_plane(-3, 2)
    assert make_p2(-3, True) is make_p2(-3, nontrivial=True)
    assert make_p2(0) is make_p2(0, False) is make_p2(m=0, nontrivial=False)
    assert make_p2(-3) is not make_p2(-3, True)
    for alpha in (1, Fraction(1, 2), "1/2", -2):
        assert build_carpet(alpha) is make_blown_plane(-3, 1, alpha,
                                                       nontrivial=True)
        assert build_carpet(alpha, trivial=True) is make_blown_plane(
            -3, 1, Fraction(alpha), nontrivial=False)


def test_pairing_matrices():
    assert pairing_matrix() == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(-1)),
    )


def test_unit_classes_shape():
    u_cls, v_cls = wcover_unit_classes()
    assert u_cls.data[("W0", "W1")] == LaurentPoly.monomial(2, (-1, 0))
    assert u_cls.data[("W2", "W3")] == LaurentPoly.const(2, 1)
    assert v_cls.data[("W0", "W1")] == LaurentPoly.const(2, 1)
    assert v_cls.data[("W2", "W3")] == LaurentPoly.monomial(2, (1, 0))


def test_carpet_decomposition_coefficients():
    for alpha in (Fraction(0), Fraction(1, 2)):
        coeffs, report = carpet_decompose(alpha, bound=4)
        assert coeffs == (Fraction(1), alpha)
        assert report["status"] == "found"
        assert report["caveat"] == BOUND_CAVEAT


def test_carpet_obstruction_is_bilinear_in_degrees():
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(2)):
        for m in range(-3, 4):
            for n in range(-3, 4):
                value = carpet_obstruction(alpha, m, n)
                assert value == m - n * alpha
                assert carpet_extends(alpha, m, n) == (value == 0)
    sym = carpet_obstruction("symbolic", 2, 3)
    expected = (
        LaurentPoly.const(3, 2)
        - LaurentPoly.monomial(3, (0, 0, 1), 3)
    )
    assert sym == expected


def test_symbolic_obstruction_matches_the_three_variable_ribbon():
    """The affine evaluation equals the residue on the ribbon with al
    adjoined, value and type: a rational when no al term is left."""
    ribbon = symbolic_carpet()
    for m in range(-3, 4):
        for n in range(-3, 4):
            value = carpet_obstruction("symbolic", m, n)
            reference = extension_obstruction(
                ribbon, padded_bundle(extension_bundle(m, n))
            )
            assert value == reference
            assert type(value) is type(reference)
            assert carpet_extends("symbolic", m, n) == (m == n == 0)


def test_extension_lattice():
    assert extension_lattice(Fraction(3, 4)) == (3, 4)
    assert extension_lattice(Fraction(-2)) == (-2, 1)
    assert extension_lattice(Fraction(0)) == (0, 1)


def test_quasiprojective_answers():
    yes = quasiprojective(Fraction(3, 4))
    assert yes == {"answer": "yes", "witness": [3, 4]}
    no = quasiprojective(Fraction(-1))
    assert no["answer"] == "no"
    assert no["evidence"]["obstruction_at_1_0"] == "1/1"
    assert no["evidence"]["obstruction_at_0_1"] == "1/1"
    zero = quasiprojective(Fraction(0))
    assert zero["answer"] == "no"
    sym = quasiprojective("symbolic")
    assert sym["answer"] == "no"
    assert "al" in sym["evidence"]["obstruction_at_0_1"]


def test_family_dimensions_and_relations():
    f0 = solve_pullback_family(-3, 0, ansatz_bound=4)
    assert f0.parameter_dim == 2
    assert f0.free_parameters == ("c0", "R0")
    assert f0.relations == (
        "c0D = c0",
        "R1 = c0",
        "S0 = -R0",
        "R2 = R3 = R4 = S1 = S2 = S3 = S4 = 0",
    )

    f1 = solve_pullback_family(-3, 1, ansatz_bound=4)
    assert f1.parameter_dim == 1
    assert f1.free_parameters == ("c0",)
    assert f1.relations == (
        "R0 = c0",
        "c0D = c0",
        "R1 = R2 = R3 = R4 = S0 = S1 = S2 = S3 = S4 = 0",
    )

    f2 = solve_pullback_family(-3, 2, ansatz_bound=4)
    assert f2.parameter_dim == 0
    assert f2.free_parameters == ()
    assert f2.relations == (
        "c0 = R0 = c0D = R1 = R2 = R3 = R4 = S0 = S1 = S2 = S3 = S4 = 0",
    )

    for fd in (f0, f1, f2):
        assert fd.diagnostics["kernel_dim"] - fd.diagnostics["gauge_rank"] \
            == fd.parameter_dim
        payload = fd.to_json()
        assert payload["caveat"] == BOUND_CAVEAT
        assert payload["parameter_dim"] == fd.parameter_dim


def test_trivial_base_family_is_detected():
    fd = solve_pullback_family(-3, 1, ansatz_bound=4, nontrivial=False)
    assert fd.parameter_dim == 1
    assert not fd.nontrivial


FAMILY_GRID = [
    (p, b, True) for p in range(6) for b in (3, 4, 8)
] + [(p, b, False) for p in range(4) for b in (3, 6)]


def test_family_json_is_unchanged_without_the_cascade(monkeypatch):
    """Dropping the singleton-forced generic unknowns keeps every byte,
    ``diagnostics.generic_rank`` included."""
    def family_json():
        return [
            json.dumps(solve_pullback_family(-3, p, b, nontrivial=x).to_json())
            for p, b, x in FAMILY_GRID
        ]

    cascaded = family_json()
    monkeypatch.setattr(linear, "forced_by_singletons", lambda rows: set())
    # the row memo holds the cascaded rows: build each system afresh
    monkeypatch.setattr(p2_catalog, "_family_system",
                        p2_catalog._family_system.__wrapped__)
    assert family_json() == cascaded


# one sha256 over the 72 family JSONs (p 0-5, bound 3-8, both classes, in
# that order, each followed by a newline), taken before the gauge memo
FAMILY_GOLDEN_SHA256 = (
    "412ada6b0924a6b26854bd82ca45ef0765a0381db016214946850b4ce16393e8"
)


def test_family_json_bytes_are_pinned():
    digest = hashlib.sha256()
    for p, b, x in itertools.product(range(6), range(3, 9), (True, False)):
        fd = solve_pullback_family(-3, p, b, nontrivial=x)
        digest.update(json.dumps(fd.to_json(), sort_keys=True).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == FAMILY_GOLDEN_SHA256


GAUGE_KEYS = list(itertools.product(range(6), range(3, 9)))


def _fresh_gauge(p, b):
    """The label index and rank of a fresh ``_gauge_vectors`` build."""
    vecs = p2_catalog._gauge_vectors(p, b)
    labels = {label for vec in vecs for label in vec}
    index = {
        label: tuple((i, vec[label]) for i, vec in enumerate(vecs)
                     if label in vec)
        for label in labels
    }
    return index, rank_of_vectors(vecs)


def _gauge_of(p, b):
    """The gauge label index and rank in the memo entry of (p, 1, b)."""
    system = p2_catalog._family_system(p, 1, b)
    return system.gauge_index, system.gauge_rank


@pytest.mark.parametrize("p, b", GAUGE_KEYS)
def test_gauge_memo_matches_a_fresh_build_cold(p, b):
    p2_catalog._family_system.cache_clear()
    assert _gauge_of(p, b) == _fresh_gauge(p, b)
    assert p2_catalog._family_system.cache_info().misses == 1


def test_gauge_memo_matches_a_fresh_build_warm():
    """Each entry, read back once every other key is in the memo, equals a
    fresh build."""
    p2_catalog._family_system.cache_clear()
    for p, b in reversed(GAUGE_KEYS):
        _gauge_of(p, b)
    for p, b in GAUGE_KEYS:
        assert _gauge_of(p, b) == _fresh_gauge(p, b)
    info = p2_catalog._family_system.cache_info()
    assert (info.hits, info.misses) == (len(GAUGE_KEYS), len(GAUGE_KEYS))


def test_gauge_check_runs_on_every_call(monkeypatch):
    """A memo entry that breaks a constraint, or moves a forced label, is
    caught by the check each call makes against its own rows."""
    p, b = 0, 4
    system = p2_catalog._family_system(p, 1, b)
    index = system.gauge_index
    in_rows = {label for row, _ in system.rows for label in row}
    label = next(lb for lb in index if lb in in_rows)
    (i, c), *rest = index[label]
    perturbed = {**index, label: ((i, c + 1), *rest)}
    monkeypatch.setattr(p2_catalog, "_family_system",
                        lambda *key: system._replace(gauge_index=perturbed))
    with pytest.raises(AssertionError,
                       match="gauge direction violates a constraint"):
        solve_pullback_family(-3, p, b)

    moved = {**index, system.forced[0]: ((0, 1),)}
    monkeypatch.setattr(p2_catalog, "_family_system",
                        lambda *key: system._replace(gauge_index=moved))
    with pytest.raises(AssertionError, match="moves a forced coefficient"):
        solve_pullback_family(-3, p, b)


def _row_multiset(rows):
    return Counter((frozenset(row.items()), rhs) for row, rhs in rows)


def _reference_rows(conds, boxes):
    """Z and the reduced rows from the SymPoly expander on boxed unknowns:
    the cascade runs on the zero-rhs rows that mention no scalar."""
    comps = {n: SymPoly.unknown(2, n, box) for n, box in boxes.items()}
    full = symbolic_rows(2, conds, comps)
    forced = forced_by_singletons(
        r for r, rhs in full if not rhs and all(z[:-1] in boxes for z in r)
    )
    return forced, _row_multiset(without(full, forced))


A, B, C, D = ("A",), ("B",), ("C",), ("D",)


@pytest.mark.parametrize("x_part", [0, 1])
@pytest.mark.parametrize("p", range(6))
def test_label_pass_matches_symbolic_rows(p, x_part):
    """Route one's forced set and reduced rows equal those of the SymPoly
    expander on boxed unknowns, cascaded and reduced by ``without``; so do
    those of the shared pass with scalars, rational coefficients and a box
    per prefix."""
    # a repeated (name, shift) term is merged, a cancelling pair dropped,
    # and a known term off every shifted box leaves the row 0 = -1
    extra = [
        (p2_catalog._POLY_RING, {(0, 1): x_part, (-20, 0): 1},
         ((A, (1, 0), 2), (C, (0, 1), 1), (A, (1, 0), -1)), ()),
        (None, {}, ((B, (0, 0), 1), (D, (1, 1), 1), (B, (0, 0), -1)), ()),
    ]
    # scalars, one cancelling at (0, -1), and rational coefficients; the
    # ring W3 holds the exponents with a non-negative second entry
    scalar = [
        (p2_catalog._W3_RING, {(1, -7): Fraction(1, 3)},
         ((A, (2, -1), Fraction(3, 2)), (D, (0, 1), Fraction(-2, 5))),
         ((("s",), LaurentPoly(2, {(2, -1): 2, (-4, 0): Fraction(1, 2)})),
          (("t",), {(0, -1): 1, (3, -2): -1}), (("t",), {(0, -1): -1}))),
        (None, {(3, 3): x_part},
         ((C, (-1, 0), 1), (B, (0, 2), Fraction(1, 7))),
         ((("s",), {(3, 3): 5}),)),
    ]
    conditions = p2_catalog._pullback_conditions(p, x_part)
    for b in range(3, 9):
        box = list(itertools.product(range(-b, b + 1), repeat=2))
        uniform = dict.fromkeys((A, B, C, D), box)
        for conds in (conditions, conditions + extra):
            forced, rows = _reference_rows(conds, uniform)
            got_forced, got_rows = p2_catalog._pullback_rows(conds, b)
            assert got_forced == forced
            assert _row_multiset(got_rows) == rows
        boxes = {
            A: box,
            B: list(itertools.product(range(1 - b, b), repeat=2)),
            C: [e for e in box if e[0] >= 0 and e[1] != 1],
            D: list(itertools.product(range(-2, 3), range(-b, b + 1))),
        }
        conds = conditions + extra + scalar
        forced, rows = _reference_rows(conds, boxes)
        labels = {n: box_labels(n, box) for n, box in boxes.items()}
        got_forced, got_rows = term_rows(conds, labels)
        assert got_forced == forced
        assert _row_multiset(got_rows) == rows


@pytest.mark.parametrize("x_part", [0, 1])
@pytest.mark.parametrize("p", range(6))
def test_ansatz_rows_match_symbolic_rows(p, x_part):
    """Route two's term-form ansatz gives the rows that the SymPoly
    expander gives for the named-ansatz components, as a multiset."""
    mono = lambda e, c: LaurentPoly.monomial(2, e, c)
    conditions = p2_catalog._pullback_conditions(p, x_part)
    for b in range(3, 9):
        x_mu = SymPoly.wrap(mono((0, 1), x_part))
        comps = {
            A: x_mu + SymPoly.combination(
                2, [(("R", k), mono((k, 2 - p), -1)) for k in range(b + 1)]
            ),
            B: SymPoly(2),
            C: x_mu + SymPoly.combination(
                2,
                [(("c0",), mono((1 - p, 2 - p), -1))]
                + [(("S", k), mono((-k - p, 2 - p), 1)) for k in range(b + 1)],
            ),
            D: SymPoly.combination(2, [(("c0D",), mono((-p, 3 - p), 1))]),
        }
        forced, rows = term_rows(
            p2_catalog._ansatz_conditions(conditions, p, b, x_part), {}
        )
        assert forced == set()
        assert _row_multiset(rows) == _row_multiset(
            symbolic_rows(2, conditions, comps)
        )


@pytest.mark.parametrize("p", range(4))
def test_pinned_directions_match_a_fresh_elimination(p):
    """Route two's solutions, read from copies of its reduced solver, equal
    those of eliminating its rows and the pin rows from scratch."""
    for b in range(3, 8):
        conditions = p2_catalog._pullback_conditions(p, 1)
        _, rows = term_rows(
            p2_catalog._ansatz_conditions(conditions, p, b, 1), {}
        )
        labels = ([("c0",), ("R", 0), ("c0D",)]
                  + [("R", k) for k in range(1, b + 1)]
                  + [("S", k) for k in range(b + 1)])
        solver = solve_rows(rows)
        rank, originals = solver.rank, list(solver.originals)
        pins, base, directions = p2_catalog._free_parameters(solver, labels)
        assert solver.rank == rank and solver.originals == originals

        fresh_pins = []
        for label in labels:
            if rank_of_vectors([row for row, _ in rows]
                               + [{lb: 1} for lb in fresh_pins + [label]]) > (
                    rank + len(fresh_pins)):
                fresh_pins.append(label)
        assert pins == fresh_pins

        def fresh(one):
            pin_rows = (({lb: 1}, int(lb == one)) for lb in pins)
            return solve_rows(itertools.chain(rows, pin_rows)).solve()

        assert base == fresh(None)
        assert directions == {pin: fresh(pin) for pin in pins}


FAMILY_KEYS = list(itertools.product(range(6), (0, 1), range(3, 9)))


def _entries(rows):
    """Each row's entries in order, with its right-hand side."""
    return [(list(row.items()), rhs) for row, rhs in rows]


@pytest.mark.parametrize("x_part", [0, 1])
@pytest.mark.parametrize("p", range(6))
def test_family_row_memo_matches_a_fresh_build(p, x_part):
    """The memo's Z and both routes' rows equal those of a fresh build:
    same rows, same order, same entry order, same right-hand sides; every
    entry and right-hand side an ``int``."""
    p2_catalog._family_system.cache_clear()
    cached = {b: p2_catalog._family_system(p, x_part, b) for b in range(3, 9)}
    conditions = p2_catalog._pullback_conditions(p, x_part)
    for b, system in cached.items():
        forced, rows = p2_catalog._pullback_rows(conditions, b)
        _, named_rows = term_rows(
            p2_catalog._ansatz_conditions(conditions, p, b, x_part), {}
        )
        assert system.forced == tuple(sorted(forced))
        assert _entries(system.rows) == _entries(rows)
        assert _entries(system.named_rows) == _entries(named_rows)
        for row, rhs in system.rows + system.named_rows:
            assert type(rhs) is int
            assert all(type(c) is int and c for c in row.values())


def test_a_second_family_call_hits_the_row_memo():
    """Repeated calls read every system from the memo and leave its rows as
    they were."""
    def solve_all():
        for p, x_part, b in FAMILY_KEYS:
            solve_pullback_family(-3, p, b, nontrivial=bool(x_part))

    p2_catalog._family_system.cache_clear()
    solve_all()
    info = p2_catalog._family_system.cache_info()
    assert info.misses == info.currsize == len(FAMILY_KEYS)
    before = deepcopy([p2_catalog._family_system(*key) for key in FAMILY_KEYS])
    solve_all()
    again = p2_catalog._family_system.cache_info()
    assert again.misses == info.misses
    assert again.hits == info.hits + 2 * len(FAMILY_KEYS)
    assert [p2_catalog._family_system(*key) for key in FAMILY_KEYS] == before


def test_family_json_is_the_same_cold_and_warm():
    memos = (p2_catalog._family_system, p2_catalog._family_box,
             p2_catalog._constructor_member)

    def family_json(p, x_part, b):
        fd = solve_pullback_family(-3, p, b, nontrivial=bool(x_part))
        return json.dumps(fd.to_json(), sort_keys=True)

    cold = []
    for key in FAMILY_KEYS:
        for memo in memos:
            memo.cache_clear()
        cold.append(family_json(*key))
    assert [family_json(*key) for key in FAMILY_KEYS] == cold


def test_constructor_member_is_validated_once_per_key(monkeypatch):
    """The member is validated once per (p, class), when it is built, and
    never on a warm solve; a broken member still fails the solve; the memo
    keeps only numbers, so no ``DoubleSchemeSpec`` escapes it."""
    validated = []
    check = p2_catalog.validate_double_scheme
    monkeypatch.setattr(p2_catalog, "validate_double_scheme",
                        lambda spec: validated.append(spec) or check(spec))
    keys = list(itertools.product(range(4), (0, 1), (3, 4)))
    p2_catalog._constructor_member.cache_clear()
    for _ in range(2):
        for p, x_part, b in keys:
            solve_pullback_family(-3, p, b, nontrivial=bool(x_part))
    info = p2_catalog._constructor_member.cache_info()
    assert len(validated) == info.misses == info.currsize == 8
    assert all(isinstance(spec, DoubleSchemeSpec) for spec in validated)
    validated.clear()
    solve_pullback_family(-3, 1, 5)
    assert validated == []

    for p, x_part in itertools.product(range(4), (0, 1)):
        free, coefficients = p2_catalog._constructor_member(p, bool(x_part))
        assert all(type(v) is Fraction for _, v in free)
        assert type(coefficients) is frozenset
        assert all(type(v) is Fraction for _, v in coefficients)

    build = p2_catalog.make_blown_plane
    monkeypatch.setattr(
        p2_catalog, "make_blown_plane",
        lambda *args, **kwargs: build(*args, **kwargs)._replace(
            alpha=beta_table(-3, 2)),
    )
    p2_catalog._constructor_member.cache_clear()
    with pytest.raises(AssertionError,
                       match="instantiated family member invalid"):
        solve_pullback_family(-3, 1, 4)
    assert p2_catalog._constructor_member.cache_info().currsize == 0


def _perturb_c0d(monkeypatch):
    """Route two's solution at c0 = 1 gets c0D one too large."""
    free_parameters = p2_catalog._free_parameters

    def perturbed(solver, labels):
        pins, base, directions = free_parameters(solver, labels)
        one = directions[("c0",)]
        one[("c0D",)] = one.get(("c0D",), 0) + 1
        return pins, base, directions

    monkeypatch.setattr(p2_catalog, "_free_parameters", perturbed)
    return "family relations differ from the constructor member"


def _drop_free_parameter(monkeypatch):
    """The description that reaches the check has lost its last free
    parameter, and its dimension with it."""
    check = p2_catalog._check_against_constructor

    def dropped(desc, affine):
        check(desc._replace(parameter_dim=desc.parameter_dim - 1,
                            free_parameters=desc.free_parameters[:-1]), affine)

    monkeypatch.setattr(p2_catalog, "_check_against_constructor", dropped)
    return "family free parameters"


@pytest.mark.parametrize("nontrivial", [True, False])
@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("plant", [_perturb_c0d, _drop_free_parameter])
def test_a_wrong_family_solve_fails_the_constructor_check(
    monkeypatch, capsys, plant, p, nontrivial
):
    """A wrong relation or a dropped free parameter raises AssertionError;
    through ``pms family`` (nontrivial class only) it exits 3."""
    message = plant(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        solve_pullback_family(-3, p, 4, nontrivial=nontrivial)
    if nontrivial:
        code = main(["family", "--m", "-3", "--p", str(p),
                     "--ansatz-bound", "4"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith(
            f"error: internal self-check failed: {message}"
        ) and err.count("\n") == 1


def test_symbolic_quasiprojective_builds_two_ribbons(monkeypatch, capsys):
    """One symbolic query builds the ribbons at alpha = 0 and 1 once each,
    and its bytes are pinned."""
    built = []
    build = p2_catalog.build_carpet
    monkeypatch.setattr(p2_catalog, "build_carpet",
                        lambda *args: built.append(args) or build(*args))
    assert main(["carpet", "--alpha", "symbolic", "--query",
                 "quasiprojective"]) == 1
    assert tuple(capsys.readouterr()) == (
        '{"answer":"no","evidence":{"obstruction_at_0_1":"-al",'
        '"obstruction_at_1_0":"1/1","reason":"the obstruction is linear in '
        'the degrees with independent values on (1,0) and (0,1), so only the '
        'zero bundle prolongs for an indeterminate alpha"}}\n',
        "",
    )
    assert built == [(0,), (1,)]
    quasiprojective("symbolic")
    assert len(built) == 4
