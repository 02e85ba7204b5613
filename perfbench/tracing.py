"""Span tracing of the pms layers, installed from outside the program.

``install(tracer)`` replaces every public function of the nine pms modules,
and the arithmetic, membership and solver methods of ``LaurentPoly``,
``ExponentMonoid`` and ``LinearSolver``, with wrappers that record one span
per call.  A function re-imported into another pms module is a separate
binding (``cohomology.derive_mult`` is ``atlas.derive_mult``), so every
binding of the same function object is replaced by the same wrapper.  No
file of the program changes.

Span names are ``<layer>.<function>`` or ``<layer>.<Class>.<method>``.  A
span's self time is its duration minus the time its child spans (wrappers
included) cover.  Spans are kept in memory as compact arrays and written once,
when the run ends.  Aggregates (calls, total and self time per name, plus the
layer counters below) are exact for every call, also for spans beyond the
in-memory cap.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import statistics
import time
import weakref
from fractions import Fraction

LAYERS = (
    "laurent_core",
    "truncated_ring",
    "linear",
    "atlas",
    "cohomology",
    "blowup",
    "good_points",
    "p2_catalog",
    "cli",
)

# Methods wrapped on the three core classes.  Cheap accessors (is_zero,
# coefficient, items, __len__, ...) stay unwrapped: a span costs more than
# they do, so their time stays in their caller's self time.
CLASS_METHODS = {
    ("laurent_core", "LaurentPoly"): (
        "__add__", "__sub__", "__neg__", "__mul__", "scale", "mul_monomial",
        "power", "partial_derivative", "extend_vars", "__eq__", "__hash__",
    ),
    ("laurent_core", "ExponentMonoid"): ("contains", "extend_vars"),
    ("linear", "LinearSolver"): ("add_equation", "solve", "is_consistent"),
}

# Private row builders of the family solver, wrapped so that row building
# shows as its own self time instead of inside solve_pullback_family.
PRIVATE_FUNCTIONS = {"p2_catalog": ("_pullback_rows", "_gauge_vectors")}
# spans kept in memory per process; the aggregates count every span
MAX_SPANS = 1_000_000

ARITH = tuple(
    f"laurent_core.LaurentPoly.{m}"
    for m in ("__add__", "__sub__", "__neg__", "__mul__", "scale",
              "mul_monomial", "power", "partial_derivative")
)

# Span groups behind the per-layer metrics: metric prefix -> span names.
GROUPS = {
    "laurent_core.arith": ARITH,
    "laurent_core.membership": ("laurent_core.ExponentMonoid.contains",),
    **{
        f"truncated_ring.{fn}": (f"truncated_ring.{fn}",)
        for fn in ("trunc_mul", "apply_endo", "compose_endo", "invert_unit",
                   "endo_inverse", "conjugate_chi")
    },
    "linear.add_equation": ("linear.LinearSolver.add_equation",),
    "linear.solve": ("linear.LinearSolver.solve",),
    "p2_catalog.solve_pullback_family": ("p2_catalog.solve_pullback_family",),
    "p2_catalog.builders": tuple(
        f"p2_catalog.{fn}"
        for fn in ("make_p2_atlas", "make_wcover_atlas", "p2_line_bundle",
                   "beta_table", "extension_bundle", "make_p2",
                   "make_blown_plane", "build_carpet", "wcover_unit_classes",
                   "_pullback_rows", "_gauge_vectors")
    ),
    "p2_catalog.carpet_queries": tuple(
        f"p2_catalog.{fn}"
        for fn in ("carpet_decompose", "carpet_obstruction", "carpet_extends",
                   "extension_lattice", "quasiprojective", "pairing_matrix")
    ),
    "cohomology.iso_decide": ("cohomology.iso_decide",),
    "cohomology.coboundary_solve": ("cohomology.coboundary_solve",),
    "cohomology.oneform_coboundary_solve": (
        "cohomology.oneform_coboundary_solve",
    ),
    "cohomology.pairing": tuple(
        f"cohomology.{fn}"
        for fn in ("contract_cup", "h2_residue", "residue_raw", "residue_poly",
                   "calibrate_residue", "extension_obstruction")
    ),
    "blowup.blowup": (
        "blowup.blowup_reduced", "blowup.blowup_good",
        "blowup.blowup_hypersurface",
    ),
    "blowup.successive_identity_check": ("blowup.successive_identity_check",),
    "good_points.blowup_iso_decide": ("good_points.blowup_iso_decide",),
    "atlas.derive": ("atlas.derive_mult", "atlas.derive_vector_field"),
    "atlas.validate": (
        "atlas.validate_mult_cocycle", "atlas.validate_derivation_cocycle",
        "atlas.validate_double_scheme", "atlas.derivation_failures",
    ),
    "atlas.document_json": (
        "atlas.document_to_json", "atlas.document_from_json",
        "atlas.dumps_document", "atlas.loads_document",
    ),
    "cli.main": ("cli.main",),
}

SOLVER_SPANS = (
    "cohomology.iso_decide",
    "cohomology.coboundary_solve",
    "cohomology.oneform_coboundary_solve",
)


def _bits(q) -> int:
    q = Fraction(q)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Span recorder with exact per-name aggregates and layer counters."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        # one frame [covered_by_children, span_index] per open span
        self.stack: list[list] = []
        self.s_name = array.array("i")
        self.s_parent = array.array("i")
        self.s_op = array.array("i")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        self.dropped = 0
        self.counters = {
            "term_products": 0,
            "membership_calls": 0,
            "membership_repeats": 0,
            "equations": 0,
            "rank_gained": 0,
            "unknowns_max": 0,
            "row_len_max": 0,
            "coeff_bits_max": 0,
            "solver_calls": 0,
            "solver_found": 0,
        }
        self._seen_membership: set = set()
        self._solver_vars = weakref.WeakKeyDictionary()
        self.import_s: list[float] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _open(self) -> int:
        if len(self.s_name) >= MAX_SPANS:
            self.dropped += 1
            return -1
        parent = self.stack[-1][1] if self.stack else -1
        self.s_name.append(-1)
        self.s_parent.append(parent)
        self.s_op.append(self.op)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        return len(self.s_name) - 1

    def _close(self, nid: int, index: int, start: float, end: float,
               covered: float) -> None:
        duration = end - start
        self.calls[nid] += 1
        self.total[nid] += duration
        self.self_time[nid] += duration - covered
        if index >= 0:
            self.s_name[index] = nid
            self.s_start[index] = start
            self.s_end[index] = end

    def wrap(self, name: str, fn, pre=None, post=None):
        """A wrapper recording one span named ``name`` per call of ``fn``."""
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            enter = clock()
            token = pre(args) if pre is not None else None
            frame = [0.0, tracer._open()]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                tracer._close(nid, frame[1], start, end, frame[0])
                if ok and post is not None:
                    post(token, args, result)
                if stack:
                    stack[-1][0] += clock() - enter
            return result

        return traced

    # -- layer counters ---------------------------------------------------

    def _mul_pre(self, args):
        a, b = args
        if isinstance(b, type(a)):  # other operands raise inside __mul__
            self.counters["term_products"] += len(a) * len(b)

    def _contains_pre(self, args):
        self.counters["membership_calls"] += 1
        target = args[1]
        if isinstance(target, (tuple, list)):
            key = (args[0].generators, tuple(target))
            if key in self._seen_membership:
                self.counters["membership_repeats"] += 1
            else:
                self._seen_membership.add(key)

    def _add_equation_pre(self, args):
        solver, coeffs = args[0], args[1]
        c = self.counters
        c["equations"] += 1
        nonzero = [(v, q) for v, q in coeffs.items() if q]
        c["row_len_max"] = max(c["row_len_max"], len(nonzero))
        values = [q for _, q in nonzero]
        if len(args) > 2:
            values.append(args[2])
        if values:
            c["coeff_bits_max"] = max(c["coeff_bits_max"],
                                      max(_bits(q) for q in values))
        seen = self._solver_vars.setdefault(solver, set())
        seen.update(v for v, _ in nonzero)
        c["unknowns_max"] = max(c["unknowns_max"], len(seen))
        return solver.rank

    def _add_equation_post(self, rank_before, args, result):
        self.counters["rank_gained"] += args[0].rank - rank_before

    def _solve_post(self, token, args, result):
        if result:
            c = self.counters
            c["coeff_bits_max"] = max(c["coeff_bits_max"],
                                      max(_bits(q) for q in result.values()))

    def _solver_post(self, token, args, result):
        self.counters["solver_calls"] += 1
        if result[1].get("status") == "found":
            self.counters["solver_found"] += 1

    def hooks(self, name: str):
        return {
            "laurent_core.LaurentPoly.__mul__": (self._mul_pre, None),
            "laurent_core.ExponentMonoid.contains": (self._contains_pre, None),
            "linear.LinearSolver.add_equation": (
                self._add_equation_pre, self._add_equation_post),
            "linear.LinearSolver.solve": (None, self._solve_post),
            **{n: (None, self._solver_post) for n in SOLVER_SPANS},
        }.get(name, (None, None))

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name totals and counters, mergeable across processes."""
        spans = {
            name: [self.calls[i], self.total[i], self.self_time[i]]
            for i, name in enumerate(self.names)
            if self.calls[i]
        }
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "import_s": list(self.import_s),
            "spans_stored": len(self.s_name),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        """Write the in-memory spans: a JSON header line, then raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.s_name),
            "dropped": self.dropped,
            "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.s_name, self.s_parent, self.s_op,
                        self.s_start, self.s_end):
                arr.tofile(out)


def read_spans(path) -> tuple[list[str], list[tuple]]:
    """Read a span file back as (names, [(name, parent, op, start, end)])."""
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        n = header["count"]
        cols = []
        for spec in header["arrays"]:
            arr = array.array(spec.split(":")[1])
            arr.fromfile(src, n)
            cols.append(arr)
    return header["names"], list(zip(*cols))


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value) or not callable(value):
            continue
        if inspect.isgeneratorfunction(inspect.unwrap(value)):
            continue  # a span would end before the generator runs
        yield attr, value


def install(tracer: Tracer) -> None:
    """Replace the pms layer functions and core methods with traced wrappers."""
    modules = {
        layer: importlib.import_module(f"pms.{layer}") for layer in LAYERS
    }
    replacements: dict[int, object] = {}
    for layer, module in modules.items():
        targets = list(_public_functions(module))
        targets += [
            (attr, getattr(module, attr))
            for attr in PRIVATE_FUNCTIONS.get(layer, ())
        ]
        for attr, fn in targets:
            name = f"{layer}.{attr}"
            replacements[id(fn)] = tracer.wrap(name, fn, *tracer.hooks(name))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for method in methods:
            name = f"{layer}.{cls_name}.{method}"
            fn = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(name, fn, *tracer.hooks(name)))


def merge(aggregates: list[dict]) -> dict:
    """Combine the aggregates of several traced processes."""
    out = {"spans": {}, "counters": {}, "import_s": [], "spans_stored": 0,
           "spans_dropped": 0}
    for agg in aggregates:
        for name, (calls, total, self_s) in agg["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, value in agg["counters"].items():
            if key.endswith("_max"):
                out["counters"][key] = max(out["counters"].get(key, 0), value)
            else:
                out["counters"][key] = out["counters"].get(key, 0) + value
        out["import_s"] += agg["import_s"]
        out["spans_stored"] += agg["spans_stored"]
        out["spans_dropped"] += agg["spans_dropped"]
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit), from an aggregate."""
    spans, c = agg["spans"], agg["counters"]

    def group(prefix):
        rows = [spans.get(n, (0, 0.0, 0.0)) for n in GROUPS[prefix]]
        return sum(r[0] for r in rows), sum(r[2] for r in rows)

    out: dict[str, tuple[float, str]] = {}

    def calls_self(prefix, with_calls=True):
        calls, self_s = group(prefix)
        if with_calls:
            out[f"{prefix}.calls"] = (calls, "count")
        out[f"{prefix}.self_s"] = (self_s, "s")

    calls_self("laurent_core.arith")
    out["laurent_core.mul.term_products"] = (c.get("term_products", 0), "count")
    for fn in ("trunc_mul", "apply_endo", "compose_endo", "invert_unit",
               "endo_inverse", "conjugate_chi"):
        calls_self(f"truncated_ring.{fn}")
    calls_self("laurent_core.membership")
    out["laurent_core.membership.repeat_share"] = (
        _ratio(c.get("membership_repeats", 0), c.get("membership_calls", 0)),
        "ratio",
    )
    calls_self("linear.add_equation")
    calls_self("linear.solve")
    out["linear.pivot_yield"] = (
        _ratio(c.get("rank_gained", 0), c.get("equations", 0)), "ratio")
    out["linear.unknowns_max"] = (c.get("unknowns_max", 0), "count")
    out["linear.row_len_max"] = (c.get("row_len_max", 0), "count")
    out["linear.coeff_bits_max"] = (c.get("coeff_bits_max", 0), "bits")
    calls_self("p2_catalog.solve_pullback_family")
    calls_self("p2_catalog.builders", with_calls=False)
    calls_self("p2_catalog.carpet_queries", with_calls=False)
    for fn in ("iso_decide", "coboundary_solve", "oneform_coboundary_solve"):
        calls_self(f"cohomology.{fn}")
    calls_self("cohomology.pairing", with_calls=False)
    out["cohomology.found_share"] = (
        _ratio(c.get("solver_found", 0), c.get("solver_calls", 0)), "ratio")
    calls_self("blowup.blowup")
    for prefix in ("blowup.successive_identity_check",
                   "good_points.blowup_iso_decide", "atlas.derive",
                   "atlas.validate", "atlas.document_json"):
        calls_self(prefix, with_calls=False)
    imports = agg.get("import_s") or [0.0]
    out["cli.import_s"] = (statistics.median(imports), "s")
    calls_self("cli.main", with_calls=False)
    return out
