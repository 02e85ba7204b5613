"""Bounded Cech cohomology computations on chart atlases.

Cochains are represented with explicit bounded coefficient supports: a
"bound D" search allows Laurent coefficients whose exponents lie in the box
|e_v| <= D (``linear.exponent_box``).  Solvers are exact and complete within
the declared box, so a positive answer comes with a rational witness (always
re-verified by substitution) while a negative answer only certifies that no
witness exists inside the box.  Every report states this caveat.

The module provides:

* coboundary solving for twisted vector-field cocycles and for one-form
  cocycles (optionally with extra unknown scalar multiples of given classes),
* the isomorphism decision for double-scheme data over a fixed bundle
  cocycle: D'_ij = tau * D_ij + T_i - alpha_ij T_j with tau invertible,
* logarithmic differential classes of bundle cocycles,
* index raising/lowering against per-chart top-form frames,
* the cup-product pairing into top-form-valued 2-cocycles, whose vector
  fields are always twisted by the bundle of top forms (``frame_cocycle``),
  the cup of two bundle classes, and the residue functional, normalized by
  a stored calibration scale.

Unknown chart vector fields carry one unknown t per boxed term
t * x^e d/dx_v, except where the system forces t to zero.  Dropping a set Z
of unknowns whose unit vectors lie in the row space changes no pivot,
witness or "none" answer (the direct-sum argument in ``pms.linear``).  The
solvers find Z in two steps.

* The chart ring, once per chart ring and bound (``_chart_ring_rows``).
  The ring-preservation rows of the full-box field
  (``atlas.derivation_conditions``, the statement that
  ``derivation_failures`` checks each witness field against) have zero
  right-hand side, and z is dropped when e_z lies in their span.  These
  rows are few and short: a term x^e d/dx_v has degree e - e_v (Demazure's
  grading of the derivations of a toric ring), and the row of a generator g
  at the exponent g + d mentions only unknowns of degree d, so a degree
  gives at most one row per generator, of at most nvars entries, and rows
  of different degrees share no unknown.  The singleton cascade finds most
  of these unknowns, and one solver on the rows it leaves finds the rest.
* The solve.  The singleton cascade over the cached ring rows and the
  twisted-difference conditions removes the rows u = 0 at the box edges and
  where the other chart's term was dropped.  Twist entries are monomials,
  so ``_twisted_difference`` states the system once, directly as what
  ``linear.plan_rows`` and ``fill_rows`` read.  The plan reads exponents
  only, and the searches repeat a few hundred structures with new
  coefficients, so ``_chart_plan`` keeps it per structure, keyed on the
  charts' names and rings, the bound and the structure: the twist
  exponents and the supports of the target and of the extras.  A repeated
  structure only fills in the coefficients and right-hand sides of the few
  rows the cascade leaves; one-form systems do not repeat, so they plan
  and fill with no memo.

Extra scalar unknowns (tau, and the one-form ``coeff`` and ``rho`` labels)
are never dropped: ``iso_decide`` pins tau = 1 when the rows leave tau
free, and a deleted tau would look free by mistake.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import add

from .atlas import (
    Atlas,
    DoubleSchemeSpec,
    MultCocycle,
    Pair,
    VectorFieldCocycle,
    canonical_spanning_pairs,
    derivation_conditions,
    derivation_failures,
    derive_mult,
    derive_vector_field,
    same_structure,
)
from .laurent_core import (
    Exponent,
    ExponentMonoid,
    LaurentPoly,
    Rational,
    Record,
    format_rational,
    poly_to_json,
)
from .linear import (
    TermPlan,
    box_labels,
    exponent_box,
    fill_rows,
    plan_rows,
    solve_rows,
    term_rows,
    without,
)

BOUND_CAVEAT = (
    "bounded search: coefficients were restricted to the exponent box "
    "|e| <= bound; a negative answer certifies no rational witness inside "
    "that box and is not a nonexistence proof over larger supports or over "
    "the complex numbers"
)


class OneFormCocycle(Record, frozen=False):
    """One-form valued chart-pair data: per pair, one coefficient per dv."""

    __slots__ = ("data",)

    def __init__(self, data: dict[Pair, tuple[LaurentPoly, ...]]):
        self._fill({k: tuple(v) for k, v in data.items()})


class TwoCocycle(Record, frozen=False):
    """Top-form valued data on chart triples increasing in atlas order."""

    __slots__ = ("data",)

    def __init__(self, data: dict[tuple[str, str, str], LaurentPoly]):
        self._fill(data)


def solver_report(status: str, bound: int, witness=None) -> dict:
    out = {"status": status, "bound": bound, "caveat": BOUND_CAVEAT}
    if witness is not None:
        out["witness"] = witness
    return out


# -- derived families ---------------------------------------------------


def _trivial_bundle(atlas: Atlas) -> MultCocycle:
    one = LaurentPoly.const(atlas.nvars, 1)
    return MultCocycle(
        "trivial", {pair: one for pair in canonical_spanning_pairs(atlas)}
    )


def derive_oneform(
    atlas: Atlas, omega: OneFormCocycle,
) -> dict[Pair, tuple[LaurentPoly, ...]]:
    """Full ordered-pair family of an untwisted one-form cocycle."""
    carrier = VectorFieldCocycle(omega.data)
    return derive_vector_field(atlas, _trivial_bundle(atlas), carrier)


def canonical_class(atlas: Atlas, c: MultCocycle) -> OneFormCocycle:
    """The logarithmic-differential class dlog of a bundle cocycle.

    A monomial entry q * x^e contributes sum_v e_v dx_v / x_v; the result is
    an untwisted one-form cocycle on the canonical spanning pairs.
    """
    full = derive_mult(atlas, c)
    nvars = atlas.nvars
    data = {}
    for pair in canonical_spanning_pairs(atlas):
        exp, _ = full[pair].as_monomial()
        comps = []
        for v in range(nvars):
            unit = [0] * nvars
            unit[v] = -1
            comps.append(LaurentPoly.monomial(nvars, tuple(unit), exp[v]))
        data[pair] = tuple(comps)
    return OneFormCocycle(data)


# -- frames: raising and lowering ---------------------------------------


def frame_cocycle(atlas: Atlas) -> MultCocycle:
    """The bundle cocycle g_j / g_i of the stored top-form frames."""
    data = {}
    for i, j in canonical_spanning_pairs(atlas):
        data[(i, j)] = atlas.frame(j) * atlas.frame(i).power(-1)
    return MultCocycle("frame", data)


def _require_frames(atlas: Atlas, alpha: MultCocycle) -> None:
    """Raise unless ``alpha`` derives to the frame ratios."""
    if derive_mult(atlas, alpha) != derive_mult(atlas, frame_cocycle(atlas)):
        raise ValueError(
            "operation requires the bundle of top forms: the supplied twist "
            "does not match the frame ratios"
        )


def sharp(atlas: Atlas, omega: OneFormCocycle) -> VectorFieldCocycle:
    """Raise indices: untwisted one-forms to frame-twisted vector fields.

    In the first two variables, f dx0 + g dx1 becomes (g d/dx0 - f d/dx1)
    divided by the chart frame of the pair's first chart.
    """
    if atlas.nvars < 2:
        raise ValueError("sharp needs an atlas in at least two variables")
    data = {}
    for (i, j), comps in omega.data.items():
        inv = atlas.frame(i).power(-1)
        out = [LaurentPoly.zero(atlas.nvars) for _ in range(atlas.nvars)]
        out[0] = inv * comps[1]
        out[1] = -(inv * comps[0])
        for extra in comps[2:]:
            if not extra.is_zero():
                raise ValueError("sharp expects forms in the first two variables")
        data[(i, j)] = tuple(out)
    return VectorFieldCocycle(data)


def flat(atlas: Atlas, spec: DoubleSchemeSpec) -> OneFormCocycle:
    """Lower indices: the frame-twisted vector-field family as one-forms.

    Contracts each entry into the top form and multiplies by the first
    chart's frame, giving an untwisted one-form cocycle on all ordered pairs
    restricted here to the canonical spanning pairs.
    """
    atlas = spec.atlas
    if atlas.nvars < 2:
        raise ValueError("flat needs an atlas in at least two variables")
    _require_frames(atlas, spec.alpha)
    sigma_full = derive_vector_field(atlas, spec.alpha, spec.D)
    data = {}
    for pair in canonical_spanning_pairs(atlas):
        i, _ = pair
        comps = sigma_full[pair]
        for extra in comps[2:]:
            if not extra.is_zero():
                raise ValueError("flat expects fields in the first two variables")
        g = atlas.frame(i)
        out = [LaurentPoly.zero(atlas.nvars) for _ in range(atlas.nvars)]
        out[0] = -(g * comps[1])
        out[1] = g * comps[0]
        data[pair] = tuple(out)
    return OneFormCocycle(data)


# -- cup product and residue --------------------------------------------


def contract_cup(
    atlas: Atlas, sigma: VectorFieldCocycle, omega: OneFormCocycle,
) -> TwoCocycle:
    """Cup product of a frame-twisted vector cocycle with a one-form cocycle.

    Entry on an increasing triple (i, j, k) is the contraction
    <sigma_ij, omega_jk> converted to a top-form coefficient through the
    frame of chart i.  The result satisfies the plain Cech 2-cocycle identity
    on quadruples.
    """
    sigma_full = derive_vector_field(atlas, frame_cocycle(atlas), sigma)
    omega_full = derive_oneform(atlas, omega)
    data = {}
    for i, j, k in itertools.combinations(atlas.chart_names(), 3):
        s = sigma_full[(i, j)]
        w = omega_full[(j, k)]
        contraction = LaurentPoly.zero(atlas.nvars)
        for sv, wv in zip(s, w):
            contraction = contraction + sv * wv
        data[(i, j, k)] = atlas.frame(i) * contraction
    return TwoCocycle(data)


def bundle_cup(
    atlas: Atlas, first: MultCocycle, second: MultCocycle,
) -> TwoCocycle:
    """The cup of sharp(dlog first) with dlog second."""
    field = sharp(atlas, canonical_class(atlas, first))
    return contract_cup(atlas, field, canonical_class(atlas, second))


def _constant(poly: LaurentPoly) -> Rational | None:
    """The value of a constant polynomial (zero included), else None."""
    if poly.is_zero():
        return Fraction(0)
    mono = poly.as_monomial()
    if mono is None or any(mono[0]):
        return None
    return mono[1]


def residue_raw(atlas: Atlas, t: TwoCocycle) -> LaurentPoly:
    """Unnormalized residue: strip the (-1, -1) coefficient of each triple.

    Returns a Laurent polynomial in the remaining variables (constant when
    the atlas has exactly two variables).
    """
    if atlas.nvars < 2:
        raise ValueError("the residue needs an atlas in at least two variables")
    nvars = atlas.nvars
    total = LaurentPoly.zero(nvars)
    for entry in t.data.values():
        for exp, coeff in entry.items():
            if exp[0] == -1 and exp[1] == -1:
                rest = (0, 0) + exp[2:]
                total = total + LaurentPoly.monomial(nvars, rest, coeff)
    return total


def residue_poly(atlas: Atlas, t: TwoCocycle) -> LaurentPoly:
    if atlas.residue_scale is None:
        raise ValueError("atlas has no residue calibration scale")
    return residue_raw(atlas, t).scale(atlas.residue_scale)


def h2_residue(atlas: Atlas, t: TwoCocycle) -> Rational:
    """Calibrated residue of a top-form valued 2-cocycle (rational case)."""
    value = _constant(residue_poly(atlas, t))
    if value is None:
        raise ValueError("residue is not a constant; use residue_poly")
    return value


def calibrate_residue(atlas: Atlas, unit: MultCocycle) -> Rational:
    """Scale making the self-pairing of the unit class equal to one."""
    value = _constant(residue_raw(atlas, bundle_cup(atlas, unit, unit)))
    if not value:
        raise ValueError("calibration pairing is degenerate")
    return Fraction(1) / value


def extension_obstruction(spec: DoubleSchemeSpec, bundle: MultCocycle):
    """Residue pairing of the double structure against dlog of a bundle.

    Requires the double structure to be twisted by the bundle of top forms.
    Returns an exact rational; with symbolic extra variables, a Laurent
    polynomial in them.
    """
    atlas = spec.atlas
    omega = canonical_class(atlas, bundle)
    _require_frames(atlas, spec.alpha)
    poly = residue_poly(atlas, contract_cup(atlas, spec.D, omega))
    value = _constant(poly)
    return poly if value is None else value


# -- bounded coboundary solving -----------------------------------------


# one entry per chart ring and bound; the warm-up and 20 cocycle-search
# rounds (seed 5) make 48 misses and 564 hits
@lru_cache(maxsize=256)
def _chart_ring_rows(
    generators: tuple[Exponent, ...], nvars: int, bound: int,
) -> tuple[tuple[tuple[Exponent, ...], ...], tuple[dict, ...]]:
    """The ring-preservation rows of a boxed chart field, forced unknowns out.

    Runs ``term_rows`` once on ``derivation_conditions`` over one unknown
    (v, e) per boxed term x^e d/dx_v and drops every unknown whose unit
    vector those rows span (see the module docstring).  The singleton
    cascade finds most of them; a solver holding the few rows left decides
    the rest, since outside the cascade's labels the two row spaces hold the
    same unit vectors.  Returns, per variable v, the kept exponents e, and
    the rows with the dropped coordinates deleted.
    """
    box = exponent_box(nvars, bound)
    zero = (0,) * nvars
    forced, rows = term_rows(
        derivation_conditions(
            ExponentMonoid(nvars, generators),
            [({}, (((v,), zero, 1),)) for v in range(nvars)],
        ),
        {(v,): box_labels((v,), box) for v in range(nvars)},
    )
    solver = solve_rows(rows)
    mentioned = {z for row, _ in rows for z in row}
    forced |= {z for z in mentioned if solver.spans({z: 1})}
    kept = tuple(
        tuple(e for e in box if (v, e) not in forced) for v in range(nvars)
    )
    return kept, tuple(row for row, _ in without(rows, forced))


def _twisted_difference(atlas: Atlas, forms, twist_full, target_full,
                        extra=()) -> tuple[tuple, list]:
    """F_i - twist_ij F_j + sum_s c_s K_s = target on spanning pairs, as the
    structure ``linear.plan_rows`` reads and the values ``fill_rows`` reads.

    With ``forms`` None, F is the unknown chart fields: component v of F_i
    is the field ("T", i, v).  Otherwise ``forms[chart][v]`` lists the
    (label, poly) scalar terms of component v.  ``extra`` lists pairs
    (label, K) of an unknown scalar c_s and its known family.  A twist
    q x^e shifts F_j by e and scales it by -q.  Each field and label occurs
    once per condition with a nonzero coefficient, so this is
    ``linear.split_conditions`` of the term form, with nothing to merge.
    """
    zero = (0,) * atlas.nvars
    shape, values = [], []
    for pair in canonical_spanning_pairs(atlas):
        i, j = pair
        exp_a, coeff_a = twist_full[pair].as_monomial()
        for v in range(atlas.nvars):
            if forms is None:
                fields = ((("T", i, v), zero), (("T", j, v), exp_a))
                coeffs, scalars = (1, -coeff_a), []
            else:
                fields, coeffs, scalars = (), (), list(forms[i][v])
                scalars += [(label, {tuple(map(add, e, exp_a)): -coeff_a * c
                                     for e, c in poly.items()})
                            for label, poly in forms[j][v]]
            scalars += [(label, dict(known[pair][v].items()))
                        for label, known in extra]
            by_exp: dict[Exponent, dict] = {}
            for label, poly in scalars:
                for f, c in poly.items():
                    by_exp.setdefault(f, {})[label] = c
            known = {f: -c for f, c in target_full[pair][v].items()}
            shape.append((None, tuple(known), fields,
                          tuple((label, tuple(poly)) for label, poly in scalars)))
            values.append((coeffs, known, by_exp))
    return tuple(shape), values


def _chart_fields(atlas: Atlas, bound: int, twist_full, target_full,
                  extra=()) -> list:
    """The rows of F_i - twist_ij F_j + sum_s c_s K_s = target over unknown
    boxed chart fields F that keep their chart rings.

    The coefficients are labelled ("T", chart, v, e).  A coefficient gets no
    unknown when its chart ring forces it to zero (``_chart_ring_rows``), or
    when the singleton cascade over the cached ring rows and the
    twisted-difference conditions does; the extra scalars c_s are never
    dropped.  The plan of the ``_twisted_difference`` structure is read
    from ``_chart_plan``, so a repeated structure only fills.
    """
    shape, values = _twisted_difference(
        atlas, None, twist_full, target_full, extra
    )
    charts = tuple((chart.name, chart.ring.generators) for chart in atlas.charts)
    plan, ring_rows = _chart_plan(charts, atlas.nvars, bound, shape)
    return fill_rows(plan, values, ring_rows)


# one entry per exponent structure of the chart-field systems; a
# cocycle-search run (seed 5, warm-up and 37 rounds) makes 174, and 2,279
# of its 2,453 calls hit
@lru_cache(maxsize=512)
def _chart_plan(
    charts: tuple[tuple[str, tuple[Exponent, ...]], ...], nvars: int,
    bound: int, shape: tuple,
) -> tuple[TermPlan, tuple[tuple[dict, int], ...]]:
    """The plan of the chart-field structure ``shape`` over the charts'
    (name, generators), and their ring rows.

    The key holds every input of the label pass: each chart's label map and
    ring rows are its ``_chart_ring_rows`` at the bound, labelled
    ("T", name, v, e).
    """
    labels, ring_rows = {}, []
    for name, generators in charts:
        kept, rows = _chart_ring_rows(generators, nvars, bound)
        at = [{e: ("T", name, v, e) for e in exps}
              for v, exps in enumerate(kept)]
        labels.update((("T", name, v), m) for v, m in enumerate(at))
        ring_rows += [({at[v][e]: c for (v, e), c in row.items()}, 0)
                      for row in rows]
    _, plan = plan_rows(shape, labels, [row for row, _ in ring_rows])
    return plan, tuple(ring_rows)


def _read_fields(atlas: Atlas, values) -> dict:
    """The chart fields of the solved ("T", chart, v, e) values; each must
    preserve its chart ring."""
    terms = {chart.name: [{} for _ in range(atlas.nvars)] for chart in atlas.charts}
    for label, value in values.items():
        if label[0] == "T":
            _, name, v, e = label
            terms[name][v][e] = value
    out = {}
    for chart in atlas.charts:
        comps = tuple(LaurentPoly(atlas.nvars, t) for t in terms[chart.name])
        bad = derivation_failures(comps, chart.ring, atlas.variables)
        if bad:  # pragma: no cover - solver constraints make this unreachable
            raise AssertionError(
                f"witness field on {chart.name} not ring-stable: {bad}"
            )
        out[chart.name] = comps
    return out


def _verify_resubstitution(
    atlas: Atlas, fields: dict, twist_full, target_full, extra=(),
) -> None:
    """Check F_i - twist_ij F_j + sum_s c_s K_s = target on every ordered pair.

    ``extra`` lists pairs (c_s, K_s) of solved scalars and known families.
    Plain polynomial arithmetic, independent of the row builder.
    """
    names = atlas.chart_names()
    for i in names:
        for j in names:
            if i == j:
                continue
            twist = twist_full[(i, j)]
            for v in range(atlas.nvars):
                acc = fields[i][v] - twist * fields[j][v]
                for scalar, known in extra:
                    acc = acc + known[(i, j)][v].scale(scalar)
                if acc != target_full[(i, j)][v]:
                    raise AssertionError(
                        f"witness fails resubstitution on ({i},{j})"
                    )


def _fields_json(fields: dict) -> dict:
    return {
        name: [poly_to_json(comp) for comp in comps]
        for name, comps in fields.items()
    }


def coboundary_solve(
    spec: DoubleSchemeSpec, bound: int = 6,
) -> tuple[dict[str, tuple[LaurentPoly, ...]] | None, dict]:
    """Find chart fields T with D_ij = T_i - alpha_ij T_j, within the bound.

    Returns (witness, report).  The witness maps chart names to per-variable
    coefficients and is verified by resubstitution on every ordered pair and
    by stability of each chart ring.
    """
    atlas = spec.atlas
    alpha_full = derive_mult(atlas, spec.alpha)
    sigma_full = derive_vector_field(atlas, spec.alpha, spec.D)
    rows = _chart_fields(atlas, bound, alpha_full, sigma_full)
    values = solve_rows(rows).solve()
    if values is None:
        return None, solver_report("none_within_bound", bound)
    witness = _read_fields(atlas, values)
    _verify_resubstitution(atlas, witness, alpha_full, sigma_full)
    return witness, solver_report("found", bound, _fields_json(witness))


def iso_decide(
    first: DoubleSchemeSpec, second: DoubleSchemeSpec, bound: int = 6,
) -> tuple[tuple[Rational, dict[str, tuple[LaurentPoly, ...]]] | None, dict]:
    """Decide D'_ij = tau D_ij + T_i - alpha_ij T_j with invertible tau.

    Both structures must live on the same atlas with the same bundle cocycle.
    Returns ((tau, fields), report) on success.  Complete within the bound:
    tau = 1 is pinned when the rows leave tau free; otherwise they force it
    to a single value, which must be nonzero.  One solve either way.
    """
    atlas = first.atlas
    if not same_structure(second.atlas, atlas):
        raise ValueError("isomorphism decision needs a common atlas")
    alpha_full = derive_mult(atlas, first.alpha)
    if derive_mult(atlas, second.alpha) != alpha_full:
        raise ValueError("isomorphism decision needs equal bundle cocycles")
    s1 = derive_vector_field(atlas, first.alpha, first.D)
    s2 = derive_vector_field(atlas, second.alpha, second.D)
    extra = [(("tau",), s1)]
    solver = solve_rows(_chart_fields(atlas, bound, alpha_full, s2, extra))
    if not solver.is_consistent():
        return None, solver_report("none_within_bound", bound)
    # the solution depends only on the solution set, so a free tau pinned to
    # 1 after the rows gives the same witness as one pinned first
    if not solver.spans({("tau",): 1}):
        solver.add_equation({("tau",): 1}, 1)
    values = solver.solve()
    tau = values[("tau",)]
    if not tau:
        return None, solver_report("none_within_bound", bound)
    witness = _read_fields(atlas, values)
    _verify_resubstitution(atlas, witness, alpha_full, s2, [(tau, s1)])
    json_witness = {"tau": format_rational(tau), "fields": _fields_json(witness)}
    return (tau, witness), solver_report("found", bound, json_witness)


# -- one-form coboundary solving ----------------------------------------


def _oneform_unknown(chart, box: list[Exponent]) -> tuple:
    """Unknown regular one-form on a chart: span of x^m d(x^g).

    m runs over the boxed exponents in the chart ring and g over its
    generators; the coefficient of x^m d(x^g) is the scalar labelled
    ("rho", chart, m, g).  Returns per variable the (label, poly) scalar
    terms of the component.
    """
    ring = chart.ring
    nvars = ring.nvars
    scalars = [[] for _ in range(nvars)]
    for m in box:
        if not ring.contains(m):
            continue
        for g in ring.generators:
            label = ("rho", chart.name, m, g)
            for v in range(nvars):
                if g[v] == 0:
                    continue
                exp = tuple(a + b for a, b in zip(m, g))
                exp = exp[:v] + (exp[v] - 1,) + exp[v + 1:]
                scalars[v].append((label, {exp: g[v]}))
    return tuple(tuple(comp) for comp in scalars)


def _evaluate(nvars: int, scalars, values) -> LaurentPoly:
    """sum(values[label] * poly) over the (label, poly) ``scalars``."""
    terms = {}
    for label, poly in scalars:
        value = values.get(label)
        if value:
            for e, c in poly.items():
                terms[e] = terms.get(e, 0) + c * value
    return LaurentPoly(nvars, terms)


def oneform_coboundary_solve(
    atlas: Atlas,
    sigma: OneFormCocycle,
    bound: int = 6,
    extra: dict[str, OneFormCocycle] | None = None,
) -> tuple[dict | None, dict]:
    """Solve sigma = sum_s c_s extra_s + (rho_i - rho_j), bounded.

    The chart cochains rho_i range over the span of x^m d(x^g) with m in the
    chart ring box; extra classes enter with unknown rational multipliers
    keyed by their names.  Returns (solution, report); the solution maps
    "coefficients" to the multipliers and "cochain" to the per-chart forms.
    """
    box = exponent_box(atlas.nvars, bound)
    twist_full = derive_mult(atlas, _trivial_bundle(atlas))
    sigma_full = derive_oneform(atlas, sigma)
    extra_full = {
        name: derive_oneform(atlas, cls) for name, cls in (extra or {}).items()
    }
    forms = {chart.name: _oneform_unknown(chart, box) for chart in atlas.charts}
    shape, values = _twisted_difference(
        atlas, forms, twist_full, sigma_full,
        [(("coeff", name), known) for name, known in extra_full.items()],
    )
    _, plan = plan_rows(shape, {}, [])
    values = solve_rows(fill_rows(plan, values, [])).solve()
    if values is None:
        return None, solver_report("none_within_bound", bound)

    coefficients = {
        name: values.get(("coeff", name), Fraction(0)) for name in extra_full
    }
    cochain = {
        name: tuple(_evaluate(atlas.nvars, scalars, values) for scalars in comps)
        for name, comps in forms.items()
    }
    _verify_resubstitution(
        atlas, cochain, twist_full, sigma_full,
        [(coefficients[name], known) for name, known in extra_full.items()],
    )
    solution = {"coefficients": coefficients, "cochain": cochain}
    json_witness = {
        "coefficients": {
            n: format_rational(c) for n, c in coefficients.items()
        },
        "cochain": _fields_json(cochain),
    }
    return solution, solver_report("found", bound, json_witness)
