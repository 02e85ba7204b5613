"""Chart atlases, transition cocycles, and double-scheme data.

An atlas lists the variables, the ordinary charts (each a monoid ring inside
the Laurent ring), and the pairwise overlap rings.  A multiplicative cocycle
(line-bundle transition data) assigns an invertible monomial to chart pairs;
a vector-field cocycle assigns a tuple of Laurent coefficients (one per
variable) to chart pairs and transforms with a multiplicative twist:

    D_ik = D_ij + alpha_ij * D_jk.

Both kinds of cocycle are stored on a connected spanning set of ordered pairs
and derived to all ordered pairs by one fold (``fold_tree``): each chart gets a
potential, the entry from the first chart r to it folded along a spanning
tree, and the entry on (i, k) joins the reversed potential of i to that of k.
The fold is pure, so each distinct spanning data set is folded once: the
folds behind ``derive_mult`` and ``derive_vector_field`` are memoised on the
chart names in atlas order, the variable count and the supplied entries, in
bounded memos of 64 bundle and 384 vector-field families, and every call
returns a fresh dict.  A twist is always named by its bundle cocycle, a
``MultCocycle``: the vector-field memo is keyed on the bundle's supplied
entries as well, and reads the bundle's derived family from the bundle memo.
``MultCocycle`` keeps every entry a single monomial q x^e, so the
vector-field fold applies each as a shift by e and a scaling by q.  Errors
are raised again on every call, and validation is never memoised.  The fold
reads each tree edge in one order only, so validation checks the derived
family against every supplied entry (a reverse-order entry that contradicts
the reversal rule is caught there), the triple identities, and membership:
bundle entries must be units of the overlap ring, and a vector-field entry
must map the overlap ring into itself (it suffices to check the image of
each monoid generator).  Cocycle data naming a chart outside the atlas is
rejected with ``ValueError``.

These checks read supports and monomial data in one pass and build no
polynomial.  Every bundle entry is a monomial c x^e, so a triple identity
is checked on exponent sums and on cross-multiplied numerators and
denominators.  Ring preservation is stated once, by
``derivation_conditions``: for each generator g of the ring, the image
sum(g[v] * x^(g - e_v) * comps[v]) of x^g lies in the ring, one condition
in the term form of ``pms.linear`` (a known part plus terms in unknown
fields).  The bounded solvers impose it on their unknown chart fields;
``derivation_failures`` reads it for a given entry, the entry's ``int``
numerators over one common denominator as the known parts, and reports each
generator whose image is nonzero at an exponent outside the ring.
Membership of the int tuples built here goes through
``ExponentMonoid._has``, which skips the re-validation of the public
``contains``.

A double-scheme description is an atlas, a distinguished bundle cocycle, and
a twisted vector-field cocycle, at truncation order two.  Atlases, cocycles
and descriptions are frozen values: each keeps read-only copies
(``MappingProxyType``) of the mappings it was built from, so changing the
caller's dict later changes nothing, and a changed value is built as a new
one (``{**c.data, pair: entry}``, ``Record._replace``).  So
``pms.p2_catalog`` and ``pms.blowup`` can share one value between equal
calls.  ``CENTER_KINDS`` names the centers a double scheme can be blown up
along (``pms.blowup``); it lives here, beside the documents every ``pms``
verb reads.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence

from .laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    Rational,
    Record,
    format_rational,
    json_int,
    json_shape,
    monomial_str,
    monoids_equal,
    numerators,
    parse_rational,
    poly_from_json,
    poly_to_json,
)

Pair = tuple[str, str]

CENTER_KINDS = ("reduced", "good", "hypersurface")


def pair_key(a: str, b: str) -> Pair:
    """Unordered pair key: the two names sorted."""
    if a == b:
        raise ValueError(f"overlap of a chart with itself: {a!r}")
    return (a, b) if a < b else (b, a)


class Chart(Record):
    __slots__ = ("name", "ring")

    def __init__(self, name: str, ring: ExponentMonoid):
        if not name or "," in name:
            raise ValueError(f"bad chart name {name!r}")
        self._fill(name, ring)


class Atlas(Record):
    """Charts and overlap rings: a value, ``overlaps`` and ``frames`` read-only."""

    __slots__ = ("variables", "truncation_order", "charts", "overlaps",
                 "frames", "residue_scale")
    _unhashed = ("overlaps", "frames")

    def __init__(self, variables: tuple[str, ...], truncation_order: int,
                 charts: tuple[Chart, ...],
                 overlaps: Mapping[Pair, ExponentMonoid],
                 frames: Mapping[str, LaurentPoly] | None = None,
                 residue_scale: Rational | None = None):
        if frames is not None:
            frames = MappingProxyType(dict(frames))
        self._fill(tuple(variables), truncation_order, tuple(charts),
                   MappingProxyType(dict(overlaps)), frames, residue_scale)
        if self.truncation_order < 2:
            raise ValueError("truncation order must be at least 2")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        names = [c.name for c in self.charts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chart names")
        if len(self.charts) < 2:
            raise ValueError("an atlas needs at least two charts")
        nvars = len(self.variables)
        for c in self.charts:
            if c.ring.nvars != nvars:
                raise ValueError(f"chart {c.name} has wrong variable count")
        expected = {
            pair_key(a, b)
            for i, a in enumerate(names)
            for b in names[i + 1:]
        }
        if set(self.overlaps) != expected:
            missing = expected - set(self.overlaps)
            extra = set(self.overlaps) - expected
            raise ValueError(
                f"overlap table mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(extra)}"
            )
        for key, ring in self.overlaps.items():
            if ring.nvars != nvars:
                raise ValueError(f"overlap {key} has wrong variable count")
        if self.frames is not None:
            for name, frame in self.frames.items():
                if name not in names:
                    raise ValueError(f"frame for unknown chart {name!r}")
                if frame.as_monomial() is None:
                    raise ValueError(f"frame of {name} must be a monomial")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def chart_names(self) -> list[str]:
        return [c.name for c in self.charts]

    def chart(self, name: str) -> Chart:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(f"no chart named {name!r}")

    def overlap(self, a: str, b: str) -> ExponentMonoid:
        return self.overlaps[pair_key(a, b)]

    def frame(self, name: str) -> LaurentPoly:
        if self.frames is None or name not in self.frames:
            raise ValueError(f"atlas carries no top-form frame for {name!r}")
        return self.frames[name]

    def structure_failures(self) -> list[str]:
        """Check that every overlap ring contains both chart rings."""
        out = []
        for c in self.charts:
            for d in self.charts:
                if c.name >= d.name:
                    continue
                ov = self.overlap(c.name, d.name)
                for side in (c, d):
                    for g in side.ring.generators:
                        if not ov._has(g):
                            out.append(
                                f"overlap {c.name},{d.name} does not contain "
                                f"generator {list(g)} of chart {side.name}"
                            )
        return out


class MultCocycle(Record):
    """Transition data of a line bundle: invertible monomials on chart pairs.

    A value: ``data`` is a read-only copy of the mapping it was built from.
    """

    __slots__ = ("name", "data")

    def __init__(self, name: str, data: Mapping[Pair, LaurentPoly]):
        self._fill(name, MappingProxyType(dict(data)))
        for (i, j), entry in self.data.items():
            if i == j:
                raise ValueError(f"cocycle entry on equal charts {i!r}")
            if len(entry) != 1:
                raise ValueError(
                    f"cocycle {self.name} entry on ({i},{j}) is not a single "
                    f"monomial term"
                )


class VectorFieldCocycle(Record):
    """Twisted vector-field data: per chart pair, one coefficient per variable.

    A value: ``data`` is a read-only copy, each entry a tuple.
    """

    __slots__ = ("data",)

    def __init__(self, data: Mapping[Pair, tuple[LaurentPoly, ...]]):
        self._fill(MappingProxyType({
            key: tuple(comps) for key, comps in data.items()
        }))
        for (i, j), comps in self.data.items():
            if i == j:
                raise ValueError(f"cocycle entry on equal charts {i!r}")
            nv = {c.nvars for c in comps}
            if len(nv) != 1 or len(comps) != comps[0].nvars:
                raise ValueError(
                    f"entry on ({i},{j}) must have one coefficient per variable"
                )


class DoubleSchemeSpec(Record):
    """A double scheme: atlas, bundle cocycle, and twisted derivation family.

    A value, which the catalog constructors share between equal calls.
    """

    __slots__ = ("atlas", "alpha", "D")

    def __init__(self, atlas: Atlas, alpha: MultCocycle, D: VectorFieldCocycle):
        if atlas.truncation_order != 2:
            raise ValueError("double-scheme data must have truncation order two")
        self._fill(atlas, alpha, D)


class ValidationReport(Record, frozen=False):
    __slots__ = ("failures",)

    def __init__(self, failures: list[str] | None = None):
        self._fill([] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures


# -- derivation of full cocycle families --------------------------------


def _spanning_tree(names: list[str], edges) -> list[Pair]:
    """BFS tree edges (a, b), a nearer the first chart, in visiting order.

    Raises if an edge names a chart outside ``names`` or if the edges leave
    some chart unconnected to the first.
    """
    outside = sorted({n for edge in edges for n in edge} - set(names))
    if outside:
        raise ValueError(f"cocycle data names charts outside the atlas: {outside}")
    adj: dict[str, set[str]] = {n: set() for n in names}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    root = names[0]
    seen = {root}
    tree: list[Pair] = []
    queue = [root]
    while queue:
        cur = queue.pop(0)
        for nxt in sorted(adj[cur] - seen):
            seen.add(nxt)
            tree.append((cur, nxt))
            queue.append(nxt)
    missing = [n for n in names if n not in seen]
    if missing:
        raise ValueError(
            f"cocycle data does not connect charts {missing} to {root}"
        )
    return tree


def fold_tree(names: Sequence[str], data: dict, reverse, start, step) -> dict:
    """Derive spanning data to every ordered chart pair, via chart potentials.

    ``reverse(i, j, entry_ij)`` is the entry on (j, i), and
    ``step(acc, i, a, entry_ab)`` extends a value on (i, a) to one on (i, b).
    With r the first chart, the potential of chart k is ``start`` folded
    along the tree path from r to k; the path walks away from r, and each
    step (a, b) reads the supplied entry on (a, b), or reverses the one on
    (b, a) when only that order is given.  The value on (i, k) is
    ``step(reverse(r, i, pot_i), i, r, pot_k)``, with ``start`` in place of
    the reversed potential when i is r.  Supplied entries off the walked
    steps, reverse orders included, are not read: validation compares them
    with the derived family.
    """
    root = names[0]
    pot = {root: start}
    for a, b in _spanning_tree(names, data):
        entry = data[(a, b)] if (a, b) in data else reverse(b, a, data[(b, a)])
        pot[b] = step(pot[a], root, a, entry)
    back = {i: reverse(root, i, pot[i]) for i in names[1:]}
    back[root] = start
    return {
        (i, k): step(back[i], i, root, pot[k])
        for i in names for k in names if i != k
    }


# 25 cocycle-search rounds (seed 801) fold 15 distinct bundle cocycles in
# 5,291 calls; an entry is one small family.
@lru_cache(maxsize=64)
def _fold_mult(names: tuple[str, ...], nvars: int, entries: tuple) -> dict:
    return fold_tree(
        names,
        dict(entries),
        lambda i, j, entry: entry.power(-1),
        LaurentPoly.const(nvars, 1),
        lambda acc, i, a, entry: acc * entry,
    )


def derive_mult(atlas: Atlas, c: MultCocycle) -> dict[Pair, LaurentPoly]:
    """All ordered-pair entries of a bundle cocycle: g_ik = g_ri^-1 g_rk."""
    return dict(_fold_mult(
        tuple(atlas.chart_names()), atlas.nvars, tuple(c.data.items())
    ))


# cocycle-search draws from 10 alphas and 81 good points, so every run folds
# the same 359 families.  Over 150 rounds (seed 5; seed 11 within 4%), 48
# entries miss 7,799 times and hold 0.57 MB (by tracemalloc), 256 miss 1,511
# (3.30 MB), and room for all 359 only on each first fold (4.64 MB).
@lru_cache(maxsize=384)
def _fold_vector_field(
    names: tuple[str, ...], nvars: int, entries: tuple, bundle: tuple,
) -> dict:
    # each twist entry q x^e once as (e, numerator, denominator)
    shifts = {
        pair: entry._monomial()
        for pair, entry in _fold_mult(names, nvars, bundle).items()
    }

    def twisted(pair, comps, sign=1):
        exp, num, den = shifts[pair]
        return tuple(c._times(exp, sign * num, den) for c in comps)

    def step(total, i, a, comps):
        return tuple(map(add, total, comps if a == i else twisted((i, a), comps)))

    return fold_tree(
        names,
        dict(entries),
        lambda i, j, comps: twisted((j, i), comps, -1),
        tuple(LaurentPoly.zero(nvars) for _ in range(nvars)),
        step,
    )


def derive_vector_field(
    atlas: Atlas, alpha: MultCocycle, D: VectorFieldCocycle
) -> dict[Pair, tuple[LaurentPoly, ...]]:
    """All ordered-pair entries of a vector-field cocycle twisted by ``alpha``.

    Uses the reversal rule D_ji = -alpha_ji * D_ij and the twisted chain rule
    D_ik = D_ir + alpha_ir * D_rk through the chart potentials D_rk.  Bundle
    data that ``derive_mult`` rejects raise the same ``ValueError`` here.
    """
    return dict(_fold_vector_field(
        tuple(atlas.chart_names()), atlas.nvars, tuple(D.data.items()),
        tuple(alpha.data.items()),
    ))


# -- validation ---------------------------------------------------------


def validate_mult_cocycle(atlas: Atlas, c: MultCocycle) -> ValidationReport:
    failures = _mult_failures(atlas, c)
    return ValidationReport(failures)


def _mult_failures(atlas: Atlas, c: MultCocycle) -> list[str]:
    try:
        full = derive_mult(atlas, c)
    except ValueError as exc:
        return [str(exc)]
    failures: list[str] = []
    for (i, j), entry in c.data.items():
        if full[(i, j)] != entry:
            failures.append(
                f"cocycle {c.name}: entry on ({i},{j}) is inconsistent with "
                f"the rest of the data"
            )
    # every entry is a monomial c x^e (``MultCocycle`` and the fold keep
    # them so), as (e, numerator, denominator) with the denominator > 0
    mono = {pair: entry._monomial() for pair, entry in full.items()}
    names = atlas.chart_names()
    for i in names:
        for j in names:
            if j == i:
                continue
            e1, n1, d1 = mono[(i, j)]
            for k in names:
                if k == i or k == j:
                    continue
                # c x^e c' x^e' = c'' x^e'': exponent sums, and the
                # coefficients cross-multiplied
                e2, n2, d2 = mono[(j, k)]
                e3, n3, d3 = mono[(i, k)]
                if n1 * n2 * d3 != n3 * d1 * d2 or tuple(map(add, e1, e2)) != e3:
                    failures.append(
                        f"cocycle {c.name}: triple identity fails on "
                        f"({i},{j},{k})"
                    )
    for (i, j), (exp, _, _) in mono.items():
        if i > j:
            continue
        ring = atlas.overlap(i, j)
        neg = tuple(-x for x in exp)
        if not (ring._has(exp) and ring._has(neg)):
            failures.append(
                f"cocycle {c.name}: entry {monomial_str(exp, atlas.variables)}"
                f" on ({i},{j}) is not a unit of the overlap ring"
            )
    return failures


def derivation_conditions(ring: ExponentMonoid, comps) -> list[tuple]:
    """The field sum(comps[v] * d/dx_v) preserves ``ring``, in the term form
    of ``pms.linear``: one condition per ring generator.

    ``comps[v]`` is (known, field terms).  For each ring generator g, the
    image sum(g[v] * x^(g - e_v) * comps[v]) of x^g lies in the ring.
    """
    out = []
    for g in ring.generators:
        known, terms = {}, []
        for v, (comp_known, comp_terms) in enumerate(comps):
            if not g[v]:
                continue
            d = g[:v] + (g[v] - 1,) + g[v + 1:]
            for e, c in comp_known.items():
                key = tuple(map(add, e, d))
                known[key] = known.get(key, 0) + g[v] * c
            terms += [
                (prefix, tuple(map(add, shift, d)), g[v] * c)
                for prefix, shift, c in comp_terms
            ]
        out.append((ring, known, tuple(terms), ()))
    return out


def derivation_failures(
    comps: tuple[LaurentPoly, ...], ring: ExponentMonoid,
    variables: tuple[str, ...],
) -> list[str]:
    """Generators of ``ring`` not preserved by sum(comps[v] * d/dv).

    Reads ``derivation_conditions`` with the comps' numerators over one
    common denominator as the known parts and no unknown: a generator fails
    when the known part of its condition, the image of x^g, is nonzero at an
    exponent outside the ring.
    """
    nvars = len(variables)
    if (ring.nvars != nvars or len(comps) != nvars
            or any(comp.nvars != nvars for comp in comps)):
        raise ValueError(
            "variable count mismatch between field, ring and variables"
        )
    if not any(comps):  # the zero field preserves every ring
        return []
    conditions = derivation_conditions(
        ring, [(known, ()) for known in numerators(comps)]
    )
    return [
        monomial_str(g, variables)
        for g, (_, known, _, _) in zip(ring.generators, conditions)
        if any(c and not ring._has(f) for f, c in known.items())
    ]


def validate_derivation_cocycle(spec: DoubleSchemeSpec) -> ValidationReport:
    atlas = spec.atlas
    alpha_failures = _mult_failures(atlas, spec.alpha)
    if alpha_failures:
        return ValidationReport(["bundle cocycle invalid"] + alpha_failures)
    failures: list[str] = []
    try:
        full = derive_vector_field(atlas, spec.alpha, spec.D)
    except ValueError as exc:
        return ValidationReport([str(exc)])
    for (i, j), comps in spec.D.data.items():
        if full[(i, j)] != comps:
            failures.append(
                f"vector-field entry on ({i},{j}) is inconsistent with the "
                f"rest of the data"
            )
    for (i, j), comps in full.items():
        if i > j:
            continue
        ring = atlas.overlap(i, j)
        for g in derivation_failures(comps, ring, atlas.variables):
            failures.append(
                f"vector-field entry on ({i},{j}) does not preserve the "
                f"overlap ring: image of {g} falls outside"
            )
    return ValidationReport(failures)


def validate_double_scheme(spec: DoubleSchemeSpec) -> ValidationReport:
    failures = spec.atlas.structure_failures()
    report = validate_derivation_cocycle(spec)
    failures.extend(report.failures)
    return ValidationReport(failures)


def same_structure(a: Atlas, b: Atlas) -> bool:
    """Equality of variables, order, charts, and overlaps (frames may differ).

    Chart and overlap rings are compared as monoids, so two presentations of
    the same ring by different generator lists still count as equal.
    """
    if a is b:
        return True
    if (
        a.variables != b.variables
        or a.truncation_order != b.truncation_order
        or a.chart_names() != b.chart_names()
    ):
        return False
    return all(
        monoids_equal(ca.ring, cb.ring)
        for ca, cb in zip(a.charts, b.charts)
    ) and all(
        monoids_equal(a.overlaps[key], b.overlaps[key]) for key in a.overlaps
    )


# -- spanning pairs -----------------------------------------------------


def canonical_spanning_pairs(atlas: Atlas) -> list[Pair]:
    names = atlas.chart_names()
    return [(a, b) for a, b in zip(names, names[1:])]


# -- serialization ------------------------------------------------------


class AtlasDocument(Record, frozen=False):
    """An atlas together with named bundle cocycles and optional double data."""

    __slots__ = ("atlas", "cocycles", "double")

    def __init__(self, atlas: Atlas, cocycles: dict[str, MultCocycle] | None = None,
                 double: DoubleSchemeSpec | None = None):
        self._fill(atlas, {} if cocycles is None else cocycles, double)
        for name, c in self.cocycles.items():
            if c.name != name:
                raise ValueError("cocycle name key mismatch")
        if self.double is not None:
            if self.double.alpha.name not in self.cocycles:
                raise ValueError(
                    "double structure references an unknown cocycle "
                    f"{self.double.alpha.name!r}"
                )


def _monoid_to_json(m: ExponentMonoid) -> list[list[int]]:
    return [list(g) for g in m.generators]


def _monoid_from_json(data, nvars: int) -> ExponentMonoid:
    gens = json_shape(data, list, "monoid generators", list)
    return ExponentMonoid(nvars, tuple(
        tuple(json_shape(g, list, "a monoid generator", int)) for g in gens
    ))


def document_to_json(doc: AtlasDocument) -> dict:
    atlas = doc.atlas
    out: dict = {
        "variables": list(atlas.variables),
        "truncation_order": atlas.truncation_order,
        "charts": [
            {"name": c.name, "monoid_generators": _monoid_to_json(c.ring)}
            for c in atlas.charts
        ],
        "overlaps": {
            f"{i},{j}": _monoid_to_json(ring)
            for (i, j), ring in sorted(atlas.overlaps.items())
        },
        "cocycles": {
            name: {
                f"{i},{j}": poly_to_json(entry)
                for (i, j), entry in sorted(c.data.items())
            }
            for name, c in sorted(doc.cocycles.items())
        },
    }
    if doc.double is not None:
        out["double_structure"] = {
            "alpha": doc.double.alpha.name,
            "D": {
                f"{i},{j}": [poly_to_json(comp) for comp in comps]
                for (i, j), comps in sorted(doc.double.D.data.items())
            },
        }
    if atlas.frames is not None:
        out["frames"] = {
            name: poly_to_json(frame)
            for name, frame in sorted(atlas.frames.items())
        }
    if atlas.residue_scale is not None:
        out["residue_scale"] = format_rational(atlas.residue_scale)
    return out


def _split_pair(key: str) -> Pair:
    parts = key.split(",")
    if len(parts) != 2 or not all(parts):
        raise ValueError(f"malformed chart pair key {key!r}")
    return parts[0], parts[1]


def document_from_json(data: dict) -> AtlasDocument:
    json_shape(data, dict, "an atlas document")
    for key in ("variables", "truncation_order", "charts", "overlaps"):
        if key not in data:
            raise ValueError(f"atlas document is missing {key!r}")
    variables = tuple(
        str(v) for v in json_shape(data["variables"], list, "variables")
    )
    nvars = len(variables)
    order = json_int(data["truncation_order"], "truncation_order")
    charts = []
    for item in json_shape(data["charts"], list, "charts", dict):
        if "name" not in item or "monoid_generators" not in item:
            raise ValueError("chart entries need name and monoid_generators")
        charts.append(
            Chart(str(item["name"]), _monoid_from_json(item["monoid_generators"], nvars))
        )
    overlaps = {
        _split_pair(key): _monoid_from_json(val, nvars)
        for key, val in json_shape(data["overlaps"], dict, "overlaps").items()
    }
    frames = None
    if "frames" in data:
        frames = {
            str(name): poly_from_json(val, nvars)
            for name, val in json_shape(data["frames"], dict, "frames").items()
        }
    scale = None
    if "residue_scale" in data:
        scale = parse_rational(str(data["residue_scale"]))
    atlas = Atlas(variables, order, tuple(charts), overlaps, frames, scale)

    cocycles = {}
    listed = json_shape(data.get("cocycles", {}), dict, "cocycles")
    for name, entries in listed.items():
        cdata = {
            _split_pair(key): poly_from_json(val, nvars)
            for key, val in json_shape(entries, dict, "a cocycle").items()
        }
        cocycles[str(name)] = MultCocycle(str(name), cdata)

    double = None
    if "double_structure" in data:
        ds = json_shape(data["double_structure"], dict, "double_structure")
        if "alpha" not in ds or "D" not in ds:
            raise ValueError("double_structure needs alpha and D")
        alpha_name = str(ds["alpha"])
        if alpha_name not in cocycles:
            raise ValueError(
                f"double_structure references unknown cocycle {alpha_name!r}"
            )
        ddata = {}
        for key, comps in json_shape(ds["D"], dict, "D").items():
            if not isinstance(comps, list) or len(comps) != nvars:
                raise ValueError(
                    f"vector-field entry {key!r} needs one coefficient per variable"
                )
            ddata[_split_pair(key)] = tuple(
                poly_from_json(c, nvars) for c in comps
            )
        double = DoubleSchemeSpec(
            atlas, cocycles[alpha_name], VectorFieldCocycle(ddata)
        )
    return AtlasDocument(atlas, cocycles, double)


def dumps_document(doc: AtlasDocument) -> str:
    return json.dumps(document_to_json(doc), sort_keys=True, indent=1) + "\n"


def loads_document(text: str) -> AtlasDocument:
    return document_from_json(json.loads(text))
