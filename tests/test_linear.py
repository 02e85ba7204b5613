"""The integer-row solver against a dense Gauss-Jordan reference over Fraction."""

from __future__ import annotations

import ast
import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from pms import linear
from pms.laurent_core import ExponentMonoid
from pms.linear import (
    MAX_BOX_SIZE,
    LinearSolver,
    box_labels,
    exponent_box,
    fill_rows,
    forced_by_singletons,
    in_span,
    plan_rows,
    rank_of_vectors,
    solve_rows,
    split_conditions,
    term_rows,
    without,
)


def reference(labels, rows):
    """Rank, consistency and free-variables-zero solution of ``rows``.

    Dense Gauss-Jordan elimination over Fraction with the columns in label
    order, so the pivot columns are the leading labels of the row space.
    """
    labels = sorted(labels)
    matrix = [
        [Fraction(row.get(v, 0)) for v in labels] + [Fraction(rhs)]
        for row, rhs in rows
    ]
    pivots = []
    r = 0
    for col in range(len(labels)):
        hit = next((i for i in range(r, len(matrix)) if matrix[i][col]), None)
        if hit is None:
            continue
        matrix[r], matrix[hit] = matrix[hit], matrix[r]
        inv = 1 / matrix[r][col]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col]:
                f = matrix[i][col]
                matrix[i] = [x - f * y for x, y in zip(matrix[i], matrix[r])]
        pivots.append(labels[col])
        r += 1
    consistent = all(row[-1] == 0 for row in matrix[r:])
    solution = {v: matrix[i][-1] for i, v in enumerate(pivots)}
    return len(pivots), consistent, solution if consistent else None


def random_coeff(rng, integer):
    num = rng.choice([n for n in range(-5, 6) if n])
    if integer:
        return num
    return Fraction(num, rng.randint(1, 6))


def random_system(rng):
    """Sparse rows solved by a planted point, plus redundant rows.

    About a quarter of the systems get one extra row whose rhs is shifted
    off a combination of the others, which makes them inconsistent.
    """
    labels = [("x", i) for i in rng.sample(range(20), rng.randint(1, 8))]
    integer_point = rng.random() < 0.5
    point = {v: random_coeff(rng, integer_point) for v in labels}
    if rng.random() < 0.2:
        point = dict.fromkeys(labels, 0)
    rows = []
    for _ in range(rng.randint(1, 8)):
        integer = rng.random() < 0.3
        support = rng.sample(labels, rng.randint(1, min(4, len(labels))))
        row = {v: random_coeff(rng, integer) for v in support}
        rhs = sum(c * point[v] for v, c in row.items())
        if rng.random() < 0.2:
            row[rng.choice(labels)] = 0  # explicit zeros are ignored
        if integer and integer_point:
            rhs = int(rhs)
        rows.append((row, rhs))
    for _ in range(rng.randint(0, 3)):
        # a combination of earlier rows
        combo: dict = {}
        total = Fraction(0)
        for row, rhs in rng.sample(rows, min(2, len(rows))):
            f = random_coeff(rng, False)
            for v, c in row.items():
                combo[v] = combo.get(v, 0) + f * c
            total += f * rhs
        rows.append((combo, total))
    if rng.random() < 0.25:
        row, rhs = rng.choice(rows)
        rows.append(({v: 2 * c for v, c in row.items()}, 2 * rhs + 1))
    rng.shuffle(rows)
    return labels, rows


@pytest.mark.parametrize("seed", range(300))
def test_solver_matches_dense_reference(seed):
    rng = random.Random(seed)
    labels, rows = random_system(rng)
    solver = LinearSolver()
    for row, rhs in rows:
        solver.add_equation(row, rhs)
    rank, consistent, solution = reference(labels, rows)
    assert solver.is_consistent() == consistent
    values = solver.solve()
    assert values == solution
    if consistent:
        assert solver.rank == rank
        assert all(type(x) is Fraction for x in values.values())
    # stored pivot rows are primitive integer rows on their smallest label,
    # with a positive pivot coefficient
    for pivot, prow in solver.pivot_rows.items():
        entries = list(prow.values()) + [solver.pivot_rhs[pivot]]
        assert all(type(c) is int for c in entries)
        assert gcd(*entries) == 1
        assert pivot == min(prow) and prow[pivot] > 0


@pytest.mark.parametrize("seed", range(50))
def test_rank_and_span_match_reference(seed):
    rng = random.Random(seed)
    labels, rows = random_system(rng)
    vectors = [row for row, _ in rows]
    homogeneous = [(row, 0) for row in vectors]
    rank = reference(labels, homogeneous)[0]
    assert rank_of_vectors(vectors) == rank
    basis, vector = vectors[:-1], vectors[-1]
    expected = reference(labels, [(row, 0) for row in basis])[0] == rank
    assert in_span(vector, basis) == expected


def test_corrupted_pivot_row_fails_verification():
    solver = LinearSolver()
    solver.add_equation({"x": Fraction(1, 2), "y": Fraction(1, 2)}, 3)
    solver.add_equation({"y": 1}, 1)
    assert solver.solve() == {"x": 5, "y": 1}
    solver.pivot_rows["x"]["y"] = 2
    with pytest.raises(AssertionError, match="verification failed"):
        solver.solve()


def growing_denominator_system(rng):
    """Primitive upper-triangular rows with pivot coefficients 2-9, some free
    labels, and one redundant combination last.

    Drawn again until a common denominator of the solution must grow at
    three or more pivots of the back-substitution (``denominator_growths``).
    """
    while True:
        pivots = [("x", i) for i in range(rng.randint(4, 7))]
        free = [("y", i) for i in range(rng.randint(0, 2))]
        rows = []
        for k, pivot in enumerate(pivots):
            later = pivots[k + 1:] + free
            while True:
                row = {pivot: rng.randint(2, 9)}
                for v in rng.sample(later, min(len(later), rng.randint(1, 3))):
                    row[v] = rng.choice([n for n in range(-6, 7) if n])
                rhs = rng.randint(-9, 9)
                if gcd(rhs, *row.values()) == 1:
                    break
            rows.append((row, rhs))
        combo, total = {}, 0
        for row, rhs in rng.sample(rows, 2):
            f = rng.randint(1, 3)
            for v, c in row.items():
                combo[v] = combo.get(v, 0) + f * c
            total += f * rhs
        rows.append((combo, total))
        solution = reference(pivots + free, rows)[2]
        if denominator_growths(pivots, solution) >= 3:
            return pivots, rows, solution


def denominator_growths(pivots, solution):
    """How many pivots, in the reverse sweep, have a value whose denominator
    does not divide the lcm of those swept before: a common denominator has
    to grow there."""
    common, growths = 1, 0
    for pivot in reversed(pivots):
        d = solution[pivot].denominator
        if common % d:
            common, growths = lcm(common, d), growths + 1
    return growths


@pytest.mark.parametrize("seed", range(40))
def test_back_substitution_grows_one_denominator(seed):
    rng = random.Random(seed)
    pivots, rows, solution = growing_denominator_system(rng)
    solver = LinearSolver()
    for row, rhs in rows:
        solver.add_equation(row, rhs)
    # added in pivot order, the rows are stored as they are
    assert solver.pivot_order == pivots
    assert [solver.pivot_rows[p] for p in pivots] == [r for r, _ in rows[:-1]]
    assert solver.solve() == solution
    shuffled = rows[:]
    rng.shuffle(shuffled)
    assert solve_rows(shuffled).solve() == solution


def planted_cascade_system(rng):
    """Sparse rows with a planted singleton chain and some nonzero rhs.

    The chain row of c_k mentions c_k and some earlier chain labels and has
    zero rhs, so the cascade forces the whole chain.  The other rows hold a
    planted point that is zero on the chain, so their rhs is mostly nonzero;
    about a fifth of the systems get one row shifted off that point.
    """
    labels = [("x", i) for i in range(rng.randint(2, 12))]
    chain = rng.sample(labels, rng.randint(1, len(labels) - 1))
    point = {v: 0 if v in chain else random_coeff(rng, False) for v in labels}
    rows = []
    for k, z in enumerate(chain):
        support = [z] + rng.sample(chain[:k], rng.randint(0, min(2, k)))
        rows.append(({v: random_coeff(rng, True) for v in support}, 0))
    for _ in range(rng.randint(1, 8)):
        support = rng.sample(labels, rng.randint(1, min(4, len(labels))))
        row = {v: random_coeff(rng, rng.random() < 0.5) for v in support}
        rows.append((row, sum(c * point[v] for v, c in row.items())))
    if rng.random() < 0.2:
        row, rhs = rows[-1]
        rows[-1] = (row, rhs + 1)
    rng.shuffle(rows)
    return labels, chain, rows


@pytest.mark.parametrize("seed", range(200))
def test_singleton_cascade_matches_dense_reference(seed):
    rng = random.Random(seed)
    labels, chain, rows = planted_cascade_system(rng)
    forced = forced_by_singletons(row for row, rhs in rows if not rhs)
    assert set(chain) <= forced
    homogeneous = [(row, 0) for row, _ in rows]
    rank, consistent, solution = reference(labels, rows)
    # every forced unit vector lies in the row space
    for z in forced:
        assert reference(labels, homogeneous + [({z: 1}, 0)])[0] == rank
    reduced = without(rows, forced)
    assert all(forced.isdisjoint(row) for row, _ in reduced)
    reduced_rank, reduced_consistent, reduced_solution = reference(
        labels, reduced
    )
    assert rank == len(forced) + reduced_rank
    assert consistent == reduced_consistent
    if consistent:
        assert solution == {**reduced_solution, **dict.fromkeys(forced, 0)}
    assert solve_rows(reduced).solve() == reduced_solution


@pytest.mark.parametrize("seed", range(50))
def test_emptied_nonzero_rhs_row_stays_inconsistent(seed):
    rng = random.Random(seed)
    labels, chain, rows = planted_cascade_system(rng)
    support = rng.sample(chain, rng.randint(1, len(chain)))
    rows.append(({v: random_coeff(rng, False) for v in support}, 1))
    forced = forced_by_singletons(row for row, rhs in rows if not rhs)
    reduced = without(rows, forced)
    assert ({}, 1) in reduced
    assert not reference(labels, rows)[1]
    assert not solve_rows(reduced).is_consistent()


A, B = ("A",), ("B",)
POLY = ExponentMonoid(2, ((1, 0), (0, 1)))
LAM_LAURENT = ExponentMonoid(2, ((1, 0), (-1, 0), (0, 1)))
BASE = {"twist": (1, 0), "known": (0, 1), "merge": 1, "scalar": (2, -2),
        "ring": POLY, "bound": 2, "built": (0, 0)}


def term_system(twist, known, merge, scalar, ring, bound, built, scale=1):
    """A small term-form system and one built row; each keyword is one
    input of the label pass, and ``scale`` multiplies every coefficient."""
    box = list(itertools.product(range(-bound, bound + 1), repeat=2))
    labels = {A: box_labels(A, box), B: box_labels(B, box)}
    c = Fraction(scale)
    conditions = [
        (None, {known: c / 2},
         ((A, (0, 0), c), (B, twist, -3 * c)), ((("s",), {scalar: 2 * c}),)),
        (ring, {},
         ((A, (0, 1), c), (B, (1, 1), c), (B, (1, 1), merge * c)), ()),
    ]
    built_rows = [({("A", built): c, ("B", (0, 0)): -c}, 0)]
    return conditions, labels, built_rows


def entries(rows):
    """Each row's entries in order, with its right-hand side."""
    return [(list(row.items()), rhs) for row, rhs in rows]


def plan_inputs(args):
    """What ``plan_rows`` reads of ``args``: the structure, the label maps
    and the built rows' labels."""
    conditions, labels, built = args
    return (split_conditions(conditions)[0],
            tuple((prefix, tuple(at.items())) for prefix, at in labels.items()),
            tuple(tuple(row) for row, _ in built))


def planned(args):
    """Z, the plan of ``args`` and the rows ``fill_rows`` puts in."""
    conditions, labels, built = args
    structure, values = split_conditions(conditions)
    forced, plan = plan_rows(structure, labels, [row for row, _ in built])
    return forced, plan, fill_rows(plan, values, built)


@pytest.mark.parametrize("name,value", [
    ("twist", (1, 1)), ("known", (0, 2)), ("merge", -1), ("scalar", (2, -1)),
    ("ring", LAM_LAURENT), ("bound", 3), ("built", (1, 0)),
])
def test_plan_key_covers_each_label_pass_input(name, value, monkeypatch):
    """Two systems that differ in one input the label pass reads differ in
    what ``plan_rows`` reads and get different plans; the second's rows are
    those of the full system with Z deleted, and with no built row they
    are the rows of ``term_rows``."""
    first = term_system(**BASE)
    second = term_system(**{**BASE, name: value})
    assert plan_inputs(first) != plan_inputs(second)
    forced, plan, rows = planned(second)
    assert planned(first)[1] != plan
    conditions, labels, _ = second
    assert (entries(term_rows(conditions, labels)[1])
            == entries(planned((conditions, labels, []))[2]))
    monkeypatch.setattr(linear, "forced_by_singletons", lambda rows: set())
    full = planned(second)[2]
    assert forced and without(full, forced) == rows


def test_plans_are_shared_across_coefficient_values():
    """The same structure with other nonzero coefficients has the same plan
    inputs and plan, and that plan filled with its values gives its own
    rows."""
    base = term_system(**BASE)
    scaled = term_system(**BASE, scale=Fraction(-5, 7))
    assert plan_inputs(scaled) == plan_inputs(base)
    _, plan, rows = planned(base)
    _, scaled_plan, scaled_rows = planned(scaled)
    assert scaled_plan == plan
    _, values = split_conditions(scaled[0])
    got = entries(fill_rows(plan, values, scaled[2]))
    assert got == entries(scaled_rows) != entries(rows)


def test_forced_labels_include_built_labels_outside_the_maps():
    """A built row's label that no map holds is in Z like the others once
    the cascade forces it."""
    labels = {A: box_labels(A, [(0, 0), (1, 0)])}
    conditions = [(None, {}, ((A, (0, 0), 1),), ())]
    built = [({("X",): 2, ("A", (0, 0)): 1}, 0)]
    forced, _, rows = planned((conditions, labels, built))
    assert forced == {("A", (0, 0)), ("A", (1, 0)), ("X",)}
    assert rows == []


def snapshot(solver):
    return (
        {v: dict(row) for v, row in solver.pivot_rows.items()},
        dict(solver.pivot_rhs), list(solver.pivot_order),
        dict(solver.pivot_index),
        [(dict(row), rhs) for row, rhs in solver.originals],
        solver.rank, solver.inconsistent,
    )


@pytest.mark.parametrize("seed", range(100))
def test_rows_added_to_a_copy_leave_the_original(seed):
    """A copy shares the stored rows; adding rows to either solver changes
    neither the other's pivots, rank nor ``originals``."""
    rng = random.Random(seed)
    labels, rows = random_system(rng)
    half = rng.randint(0, len(rows))
    solver = solve_rows(rows[:half])
    before = snapshot(solver)
    copy = solver.copy()
    for row, rhs in rows[half:]:
        copy.add_equation(row, rhs)
    assert snapshot(solver) == before
    assert snapshot(copy) == snapshot(solve_rows(rows))
    assert copy.solve() == reference(labels, rows)[2]
    extra = {rng.choice(labels): 1}
    kept = snapshot(copy)
    solver.add_equation(extra, 1)
    assert snapshot(copy) == kept
    assert snapshot(solver) == snapshot(solve_rows(rows[:half] + [(extra, 1)]))


@pytest.mark.parametrize("seed", range(100))
def test_integer_entry_matches_add_equation(seed):
    """``int`` rows fed through the integer entry leave the solver as
    ``add_equation`` leaves it, and span tests agree; the rows handed in are
    kept as originals, unmodified."""
    rng = random.Random(seed)
    labels, rows = random_system(rng)
    rows = [linear._integer_row(row, rhs) for row, rhs in rows]
    kept = [(dict(row), rhs) for row, rhs in rows]
    public, private = LinearSolver(), LinearSolver()
    for row, rhs in rows:
        public.add_equation(row, rhs)
        private._add_integer(row, rhs)
    assert snapshot(private) == snapshot(public)
    assert private.is_consistent() == public.is_consistent()
    assert private.solve() == public.solve() == reference(labels, rows)[2]
    assert rows == kept
    assert all(a is b for (a, _), (b, _) in zip(private.originals, rows))
    for _ in range(5):
        probe = {v: random_coeff(rng, True)
                 for v in rng.sample(labels, rng.randint(1, len(labels)))}
        assert private._spans_integer(probe) == public.spans(probe)


def _integer_row_callers(tree) -> set:
    """The functions of ``tree`` that call ``_integer_row`` by any name."""
    callers = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and (
                    getattr(call.func, "id", None) == "_integer_row"
                    or getattr(call.func, "attr", None) == "_integer_row"
                ):
                    callers.add(node.name)
    return callers


def test_integer_row_is_cleared_only_by_the_public_entries():
    """Rows with ``Fraction`` entries are cleared where they come in, by
    ``add_equation`` and ``spans``; every other path hands the solver
    ``int`` rows (``LinearSolver._add_integer``)."""
    src = Path(linear.__file__).parent
    callers = {
        path.name: found for path in sorted(src.glob("*.py"))
        if (found := _integer_row_callers(ast.parse(path.read_text())))
    }
    assert callers == {"linear.py": {"add_equation", "spans"}}


def test_exponent_box_refuses_a_box_too_large_to_build():
    """The size is checked before anything is allocated, so a bound of
    10^11 fails at once instead of exhausting memory."""
    assert MAX_BOX_SIZE == 10_000
    assert exponent_box(2, 1) == [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    assert len(exponent_box(2, 49)) == 99 ** 2
    assert len(exponent_box(1, 4999)) == MAX_BOX_SIZE - 1
    for nvars, bound in ((2, 50), (3, 11), (1, 5000), (2, 10 ** 11)):
        with pytest.raises(ValueError, match="too large"):
            exponent_box(nvars, bound)
    with pytest.raises(ValueError, match="non-negative"):
        exponent_box(2, -1)
