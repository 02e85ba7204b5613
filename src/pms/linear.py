"""Sparse exact linear algebra over the rationals.

Rows are sparse mappings from hashable, comparable variable labels to
rational coefficients (``Fraction`` or ``int``).  The solver performs
incremental Gaussian elimination on integer rows with content removal, in
the style of Bareiss (1968).  Each added equation is multiplied once by the
lcm of its denominators and reduced against the pivot rows by integer
cross-multiplication, ``a * row - f * prow`` (``a`` the pivot coefficient of
``prow``, ``f`` the row's entry there, both divided by their gcd).  It then
vanishes, reveals an inconsistency, or becomes a new pivot row on its
smallest label, divided by the gcd of its entries and right-hand side and
signed so that the pivot coefficient is positive: stored rows are primitive.
They are never modified afterwards, so a pivot row can only mention its own
pivot, later pivots, and free variables; a reverse sweep over the pivots,
in integers, yields a particular solution with all free variables set to
zero: each pivot's numerator is (rhs * den - sum(c * num)) / a over one
running denominator den, which grows with the earlier numerators by
a // gcd where the pivot coefficient a does not divide that.  Every
solution is re-verified against every original equation on those
integers, and each ``Fraction`` is built once, on return.

Rows come in through one integer entry, ``LinearSolver._add_integer``,
which takes a row whose entries are nonzero ``int``s and an ``int``
right-hand side and keeps the row itself as an original.  ``add_equation``
is ``_integer_row`` plus that entry, so every row is eliminated on one code
path.  A caller whose rows are ``int`` already and fixed (the family
solver's cached rows) checks them once and feeds them in directly; a solver
never modifies a row handed in, so many solvers can share one.  Span tests
work the same way: ``spans`` clears a row and hands it to
``_spans_integer``.

Since each pivot is the smallest label of its reduced row, the pivot set is
the set of leading labels of the row space, and the particular solution
depends only on the solution set and the labels, not on the order in which
rows were added or on how they were scaled.

The bounded solvers state their systems as conditions in term form,
(ring, known, terms, scalars): the ring or None, the known part
{exponent: coefficient}, field terms (prefix, shift, c) and scalar terms
(label, poly), poly a {exponent: coefficient} mapping or a ``LaurentPoly``.
An unknown field F_prefix has one unknown coefficient, labelled
``prefix + (e,)`` (``box_labels``), per exponent e of its box (the bounded
solvers' box |e_v| <= bound is ``exponent_box``), and a scalar
is one unknown.
The condition says that known + sum(c * x^shift * F_prefix) +
sum(label * poly) lies in the ring (vanishes for None): one row per exponent
outside the ring, whose right-hand side is minus the known part there.
``term_rows`` reads those rows off exponents (see below) for every bounded
solver.  The tests keep ``symbolic_rows``, which expands the same conditions
with a Laurent polynomial whose coefficients are affine in named unknowns,
as the independent reference for it.

Before a system reaches the solver, the bounded solvers delete labels Z
with every (e_z | 0) in its augmented row space.  That space is then
span(e_Z | 0) (+) (the rows with the coordinates Z deleted, right-hand sides
kept: ``without``), a direct sum on disjoint coordinates.  So the rank is
|Z| plus that of the reduced rows, consistency is theirs, the pivots are Z
and theirs, and the particular solution is zero on Z and theirs elsewhere.
A reduced row left empty stays when its right-hand side is not zero: 0 = 1
is an inconsistency.  ``forced_by_singletons`` finds such a Z by the
singleton-row step of LP presolve (Andersen & Andersen, 1995): a row with
zero right-hand side and one label z left, once the labels taken before are
deleted, is c e_z plus a combination of earlier e_z', so by induction each
e_z lies in the row space.  It reads label sets only, and ``term_rows``
reads those off exponents, with no polynomial arithmetic.  A scalar is never
dropped, so a row that mentions one stays out of the cascade.

``term_rows`` therefore runs three stages.  ``split_conditions`` reduces
each condition to what the label pass reads (its structure) and to the
values the fill reads.  ``plan_rows`` runs the label pass and the cascade,
always ``forced_by_singletons``, on the structure alone and gives Z, the
(condition, exponent) places whose rows survive with the labels each keeps,
and the labels each built row keeps.  ``fill_rows`` puts the coefficients
and right-hand sides in at those places only.  The structure of a condition
is its ring, the support of its nonzero known part, its merged (prefix,
shift) list with zero sums dropped and its merged scalar supports by label.
A coefficient value cannot change a plan once the cancelling merges are in
the structure: every label left then has a nonzero coefficient in its row,
so no row gains or loses a label, and a right-hand side is nonzero exactly
on the known part's support.  So a caller whose structures repeat with new
coefficients can keep its plans, keyed on the structures and on whatever
built its label maps and built rows, and only fill
(``cohomology._chart_plan``).  This module keeps no memo.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add
from typing import Hashable, Iterable, Mapping, NamedTuple

from .laurent_core import Exponent, ExponentMonoid

Var = Hashable
Row = dict[Var, Fraction | int]
IntRow = dict[Var, int]

# the most exponents a box may hold: bound 49 in two variables, 10 in three;
# tests and workloads reach bound 8
MAX_BOX_SIZE = 10_000


def _integer_row(coeffs: Mapping[Var, Fraction | int],
                 rhs: Fraction | int) -> tuple[IntRow, int]:
    """The equation times the lcm of its denominators, with int entries."""
    row = {v: c for v, c in coeffs.items() if c}
    den = rhs.denominator
    for c in row.values():
        d = c.denominator
        if d != 1 and den % d:
            den = lcm(den, d)
    if den == 1:
        return {v: c.numerator for v, c in row.items()}, rhs.numerator
    return (
        {v: c.numerator * (den // c.denominator) for v, c in row.items()},
        rhs.numerator * (den // rhs.denominator),
    )


class LinearSolver:
    """Incremental elimination of integer rows (see the module docstring).

    ``add_equation`` and ``spans`` take ``Fraction`` or ``int`` rows and
    clear them with ``_integer_row``; ``_add_integer`` and
    ``_spans_integer`` take rows whose entries are nonzero ``int``s as they
    are.  ``solve`` re-verifies its solution against every original row.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[Var, IntRow] = {}
        self.pivot_rhs: dict[Var, int] = {}
        self.pivot_order: list[Var] = []
        self.pivot_index: dict[Var, int] = {}
        self.originals: list[tuple[IntRow, int]] = []
        self.inconsistent = False

    @property
    def rank(self) -> int:
        return len(self.pivot_order)

    def copy(self) -> LinearSolver:
        """A solver holding the same rows, to which rows can be added apart.

        Stored rows are never modified (see the module docstring), so the
        copy shares them and copies only the containers: adding rows to one
        solver leaves the other's pivots, rank and ``originals`` as they
        were, and each ``solve`` still re-verifies against all its own
        originals.
        """
        other = LinearSolver()
        other.pivot_rows = dict(self.pivot_rows)
        other.pivot_rhs = dict(self.pivot_rhs)
        other.pivot_order = list(self.pivot_order)
        other.pivot_index = dict(self.pivot_index)
        other.originals = list(self.originals)
        other.inconsistent = self.inconsistent
        return other

    def _reduce(self, row: IntRow, rhs: int) -> tuple[IntRow, int]:
        # pivots go in creation order; a pivot row only brings in later
        # pivots, so each is eliminated at most once
        index = self.pivot_index
        todo = [index[v] for v in row if v in index]
        heapify(todo)
        while todo:
            pivot = self.pivot_order[heappop(todo)]
            f = row.pop(pivot, 0)
            if not f:  # cancelled after it was queued
                continue
            prow = self.pivot_rows[pivot]
            g = gcd(prow[pivot], f)
            if (a := prow[pivot] // g) != 1:
                row = {u: a * c for u, c in row.items()}
                rhs *= a
            f //= g
            for u, c in prow.items():
                if u == pivot:
                    continue
                old = row.get(u)
                if old is None:
                    row[u] = -f * c
                    if u in index:
                        heappush(todo, index[u])
                elif old != f * c:
                    row[u] = old - f * c
                else:
                    del row[u]
            rhs -= f * self.pivot_rhs[pivot]
        return row, rhs

    def add_equation(self, coeffs: Mapping[Var, Fraction | int],
                     rhs: Fraction | int = 0) -> None:
        """Add sum(coeffs[v] * x_v) = rhs."""
        self._add_integer(*_integer_row(coeffs, rhs))

    def _add_integer(self, row: IntRow, rhs: int) -> None:
        """Add sum(row[v] * x_v) = rhs, every entry a nonzero ``int``.

        The integer entry (see the module docstring): ``add_equation`` is
        ``_integer_row`` then this.  ``row`` is kept as an original as it
        is, so a caller can hand the same row to many solvers; none of them
        modifies it.
        """
        self.originals.append((row, rhs))
        if self.inconsistent:
            return
        row, rhs = self._reduce(dict(row), rhs)
        if not row:
            self.inconsistent = rhs != 0
            return
        pivot = min(row)
        content = gcd(rhs, *row.values())
        if row[pivot] < 0:
            content = -content
        if content != 1:
            row = {v: c // content for v, c in row.items()}
            rhs //= content
        self.pivot_index[pivot] = len(self.pivot_order)
        self.pivot_rows[pivot] = row
        self.pivot_rhs[pivot] = rhs
        self.pivot_order.append(pivot)

    def solve(self) -> dict[Var, Fraction] | None:
        """A particular solution (free variables zero), or None."""
        if self.inconsistent:
            return None
        # each pivot's value is nums[pivot] / den, over one denominator
        den, nums = 1, {}
        for pivot in reversed(self.pivot_order):
            row = self.pivot_rows[pivot]
            total = self.pivot_rhs[pivot] * den
            for v, c in row.items():
                if v in nums:
                    total -= c * nums[v]
            g = gcd(total, a := row[pivot])
            if (grow := a // g) != 1:
                den *= grow
                for v in nums:
                    nums[v] *= grow
            nums[pivot] = total // g
        for row, rhs in self.originals:
            if sum(c * nums.get(v, 0) for v, c in row.items()) != rhs * den:
                raise AssertionError("solver verification failed")
        return {v: Fraction(x, den) for v, x in nums.items()}

    def is_consistent(self) -> bool:
        return not self.inconsistent

    def spans(self, coeffs: Mapping[Var, Fraction | int]) -> bool:
        """Whether ``coeffs`` lies in the span of the rows added so far.

        Reads only the pivot rows, so it holds for a consistent solver.
        """
        row, _ = _integer_row(coeffs, 0)
        return self._spans_integer(row)

    def _spans_integer(self, row: IntRow) -> bool:
        """``spans`` for a row of nonzero ``int`` entries, left as it was."""
        return not self._reduce(dict(row), 0)[0]


def rank_of_vectors(vectors: Iterable[Mapping[Var, Fraction]]) -> int:
    """Rank of a family of sparse vectors."""
    return solve_rows((vec, 0) for vec in vectors).rank


def in_span(vector: Mapping[Var, Fraction],
            basis: Iterable[Mapping[Var, Fraction]]) -> bool:
    """Whether ``vector`` lies in the span of ``basis``."""
    return solve_rows((vec, 0) for vec in basis).spans(vector)


def solve_rows(rows: Iterable[tuple[Row, Fraction]]) -> LinearSolver:
    """A solver holding ``rows``."""
    solver = LinearSolver()
    for row, rhs in rows:
        solver.add_equation(row, rhs)
    return solver


def forced_by_singletons(rows: Iterable[Iterable[Var]]) -> set:
    """The labels that a cascade of singleton rows forces to zero.

    ``rows`` gives the label sets of rows with zero right-hand side whose
    labels may all be dropped (see the module docstring).
    """
    # todo holds the labels of singleton rows; only longer rows are indexed
    where, todo = {}, []
    for row in rows:
        if len(row) == 1:
            todo.extend(row)
            continue
        row = set(row)
        for z in row:
            where.setdefault(z, []).append(row)
    forced = set()
    while todo:
        z = todo.pop()
        if z in forced:
            continue
        forced.add(z)
        for row in where.get(z, ()):
            row.discard(z)
            if len(row) == 1:
                todo.extend(row)
    return forced


def without(rows: Iterable[tuple[Row, Fraction]],
            labels) -> list[tuple[Row, Fraction]]:
    """The equations with the coordinates ``labels`` deleted; one left empty
    stays exactly when its right-hand side is not zero."""
    rows = (({z: c for z, c in row.items() if z not in labels}, rhs)
            for row, rhs in rows)
    return [(row, rhs) for row, rhs in rows if row or rhs]


# -- rows of term-form conditions -----------------------------------------


def check_bound(nvars: int, bound: int) -> None:
    """Refuse a negative bound, and one whose box in ``nvars`` variables
    would hold more than ``MAX_BOX_SIZE`` exponents."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if (2 * bound + 1) ** nvars > MAX_BOX_SIZE:
        raise ValueError(f"bound {bound} is too large: its box in {nvars} "
                         f"variables would hold over {MAX_BOX_SIZE} exponents")


def exponent_box(nvars: int, bound: int) -> list[Exponent]:
    """The exponents e with every |e_v| <= bound, in lexicographic order,
    once ``check_bound`` has passed."""
    check_bound(nvars, bound)
    return list(itertools.product(range(-bound, bound + 1), repeat=nvars))


def box_labels(prefix: tuple, exps: Iterable[Exponent]) -> dict[Exponent, tuple]:
    """The unknowns of F_prefix over a box: e -> prefix + (e,), in box order."""
    return {e: prefix + (e,) for e in exps}


class TermPlan(NamedTuple):
    """What the label pass and cascade of ``term_rows`` leave of one
    exponent structure, besides the forced set."""

    built: tuple  # per ``built`` row, the labels it keeps
    # per row left: (condition, exponent, merged-term indices, their labels);
    # a row with neither rhs nor scalar has the exponent None
    places: tuple


def term_rows(
    conditions: Iterable[tuple],
    labels: Mapping[tuple, Mapping[Exponent, Var]],
) -> tuple[set, list[tuple[Row, Fraction]]]:
    """The forced set Z of ``conditions`` and their rows with Z deleted.

    F_prefix has the unknown ``labels[prefix][e]`` per exponent e of its box
    (``box_labels``).  At an exponent f outside a condition's ring, its row
    holds the unknown at f - shift for each term with f - shift in the box,
    and each scalar whose poly has f in its support; its rhs is minus the
    known part at f.  This label pass is exact once repeated (prefix, shift)
    terms are merged, scalars merged by label, and zero coefficients
    dropped: at one f there is one label per term and per scalar, each with
    one nonzero coefficient, so none cancels, and the rhs comes from the
    known part alone.

    Z is what ``forced_by_singletons`` makes of the label sets of the
    zero-rhs rows without a scalar.  The rows come back with Z deleted, as
    ``without`` leaves them.

    It runs ``split_conditions``, ``plan_rows`` and ``fill_rows`` in turn
    and keeps nothing; a caller whose structures repeat runs them itself and
    keeps its plans (see the module docstring).
    """
    structure, values = split_conditions(conditions)
    forced, plan = plan_rows(structure, labels, [])
    return forced, fill_rows(plan, values, [])


def split_conditions(conditions: Iterable[tuple]) -> tuple[tuple, list]:
    """The structure of each condition, what ``plan_rows`` reads, and the
    values ``fill_rows`` reads (see the module docstring)."""
    structure, values = [], []
    for ring, known, terms, scalars in conditions:
        merged: dict[tuple, Fraction | int] = {}
        for prefix, shift, c in terms:
            merged[prefix, shift] = merged.get((prefix, shift), 0) + c
        by_label: dict[Var, dict] = {}
        for label, poly in scalars:
            at = by_label.setdefault(label, {})
            for f, c in poly.items():
                at[f] = at.get(f, 0) + c
        by_exp: dict[Exponent, Row] = {}  # the scalar part of each row
        for label, at in by_label.items():
            for f, c in at.items():
                if c:
                    by_exp.setdefault(f, {})[label] = c
        structure.append((
            ring,
            tuple(f for f, c in known.items() if c),
            tuple(key for key, c in merged.items() if c),
            tuple((label, tuple(f for f, c in at.items() if c))
                  for label, at in by_label.items()),
        ))
        values.append(
            (tuple(c for c in merged.values() if c), known, by_exp)
        )
    return tuple(structure), values


def plan_rows(
    structure: tuple, maps: Mapping[tuple, Mapping[Exponent, Var]],
    built: list,
) -> tuple[set, TermPlan]:
    """The label pass and cascade of ``term_rows``: Z and the plan.

    ``built`` holds the label set of each built row, in order.
    """
    member: dict[ExponentMonoid, dict] = {}  # ring -> {exponent: in ring}
    # the rows with a rhs or a scalar, then the candidates: the cascade's
    # zero-rhs rows, each {label: merged-term index}, and their conditions
    places, candidates, owners = [], [], []
    for k, (ring, known, fields, scalars) in enumerate(structure):
        rows_at: dict[Exponent, dict] = {}
        for t, (prefix, shift) in enumerate(fields):
            for f, lb in _shifted(maps[prefix].items(), shift):
                row = rows_at.get(f)
                if row is None:
                    rows_at[f] = {lb: t}
                else:
                    row[lb] = t
        special = {f for _, support in scalars for f in support}
        special.update(known)
        if ring is not None:
            inside = member.setdefault(ring, {})
            for f in (rows_at.keys() | special) - inside.keys():
                inside[f] = ring.contains(f)
            rows_at = {f: row for f, row in rows_at.items() if not inside[f]}
            special = {f for f in special if not inside[f]}
        places += [(k, f, rows_at.pop(f, {})) for f in special]
        candidates += rows_at.values()
        owners += [k] * len(rows_at)
    forced = forced_by_singletons(itertools.chain(built, candidates))
    # a candidate has neither rhs nor scalar, so its fill needs no exponent
    places += [(k, None, row) for k, row in zip(owners, candidates)
               if not forced.issuperset(row)]
    return forced, TermPlan(
        tuple(tuple(lb for lb in row if lb not in forced) for row in built),
        tuple(
            (k, f, tuple(t for lb, t in row.items() if lb not in forced),
             tuple(lb for lb in row if lb not in forced))
            for k, f, row in places
        ),
    )


def fill_rows(plan: TermPlan, values: list,
              built: list[tuple[Row, Fraction]]) -> list[tuple[Row, Fraction]]:
    """The rows at the places ``plan`` keeps, ``built`` first."""
    rows = [({lb: row[lb] for lb in kept}, rhs)
            for (row, rhs), kept in zip(built, plan.built) if kept or rhs]
    for k, f, terms, kept in plan.places:
        coeffs, known, by_exp = values[k]
        row = {lb: coeffs[t] for t, lb in zip(terms, kept)}
        if f is not None:
            extra = by_exp.get(f)
            if extra:
                row.update(extra)
            rows.append((row, -known.get(f, 0)))
        else:
            rows.append((row, 0))
    return rows


def _shifted(items, shift: Exponent):
    """The (exponent, label) ``items`` with each exponent moved by ``shift``;
    two variables, the common case, skip the per-exponent ``map``."""
    if not any(shift):
        return items
    if len(shift) == 2:
        s0, s1 = shift
        return (((a + s0, b + s1), lb) for (a, b), lb in items)
    return ((tuple(map(add, e, shift)), lb) for e, lb in items)
