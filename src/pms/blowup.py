"""Blow-up constructors for chart atlases with monomial centers.

Three constructions are provided.  Blowing up a reduced center replaces each
chart by one new chart per monomial generator of the center's ideal there,
with rings enlarged by the generator ratios.  Blowing up a hypersurface keeps
the atlas: each chart is its own new chart, with its local equation as the
one generator.  Both then run one rescaling core, ``_rescale``: over each
consecutive pair of new charts it takes the base transition (the identity
when both lie over one chart) and rescales it by the ratio x^(f-l) of the
two distinguished generators.  The reduced blow-up passes the blown-up atlas
and its charts; the hypersurface blow-up passes the unchanged atlas and
``BlownChart(name, name, equation)`` per chart.  Blowing up a good
zero-dimensional subscheme (ideal locally ``(y_r + a_r t)``) produces the
chart combinatorics of the reduced center but keeps the pulled-back bundle
cocycle, correcting the derivation family by the coefficient field
sum(a_r d/dy_r) on the center chart.  The blown-up atlas, a frozen value, is
built once per distinct input and shared by every result.

For truncation order two the constructions act on double-scheme data, where
the rescaling multiplies alpha by x^(f-l) and D by x^f; higher orders carry
their transitions as ring morphisms on consecutive chart pairs (the
``TransitionSpec`` form), which the rescaling conjugates directly.
"""

from __future__ import annotations

from functools import lru_cache

from .atlas import (
    CENTER_KINDS,
    Atlas,
    Chart,
    DoubleSchemeSpec,
    MultCocycle,
    Pair,
    ValidationReport,
    VectorFieldCocycle,
    canonical_spanning_pairs,
    derivation_failures,
    derive_mult,
    derive_vector_field,
    fold_tree,
    pair_key,
    validate_double_scheme,
)
from .cohomology import iso_decide
from .laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    Record,
    json_shape,
    minimal_generators,
    monomial_is_unit,
    monomial_str,
    poly_from_json,
    poly_in_ring,
    poly_to_json,
)
from .truncated_ring import (
    RingMorphism,
    TruncElement,
    apply_endo,
    compose_endo,
    conjugate_chi,
    endo_inverse,
    identity_morphism,
)

Exponent = tuple[int, ...]


# -- center descriptions ------------------------------------------------


class CenterSpec(Record):
    """A monomial center: ideal generators or (coordinate, coefficient) pairs.

    ``generators`` holds, per chart, the monomial ideal generators (reduced
    and hypersurface kinds); ``pairs`` holds the good-subscheme data, per
    chart a list of ``(y, a)`` with ``y`` a monomial coordinate and ``a`` a
    chart function, encoding the ideal ``(y + a*t)``.
    """

    __slots__ = ("kind", "generators", "pairs")

    def __init__(self, kind: str,
                 generators: dict[str, tuple[LaurentPoly, ...]] | None = None,
                 pairs: dict[str, tuple[tuple[LaurentPoly, LaurentPoly], ...]]
                 | None = None):
        self._fill(kind, generators, pairs)
        if self.kind not in CENTER_KINDS:
            raise ValueError(f"unknown center kind {self.kind!r}")
        if self.kind == "good":
            if self.pairs is None or self.generators is not None:
                raise ValueError("a good center is given by coordinate pairs")
            if len(self.pairs) != 1:
                raise ValueError(
                    "a good center lives on exactly one chart"
                )
        else:
            if self.generators is None or self.pairs is not None:
                raise ValueError(
                    f"a {self.kind} center is given by ideal generators"
                )
            for name, gens in self.generators.items():
                if not gens:
                    raise ValueError(f"center lists no generators on {name!r}")
                if self.kind == "hypersurface" and len(gens) != 1:
                    raise ValueError(
                        "a hypersurface center needs exactly one equation "
                        f"per chart, got {len(gens)} on {name!r}"
                    )


def center_to_json(c: CenterSpec) -> dict:
    per_chart: dict = {}
    if c.generators is not None:
        for name, gens in sorted(c.generators.items()):
            per_chart[name] = {"generators": [poly_to_json(g) for g in gens]}
    if c.pairs is not None:
        for name, items in sorted(c.pairs.items()):
            per_chart[name] = {
                "pairs": [[poly_to_json(y), poly_to_json(a)] for y, a in items]
            }
    return {"kind": c.kind, "per_chart": per_chart}


def center_from_json(data: dict, nvars: int) -> CenterSpec:
    if not isinstance(data, dict) or "kind" not in data or "per_chart" not in data:
        raise ValueError("a center needs 'kind' and 'per_chart'")
    kind = str(data["kind"])
    generators: dict[str, tuple[LaurentPoly, ...]] = {}
    pairs: dict[str, tuple[tuple[LaurentPoly, LaurentPoly], ...]] = {}
    per_chart = json_shape(data["per_chart"], dict, "per_chart")
    for name, entry in per_chart.items():
        entry = json_shape(entry, dict, f"center entry for {name!r}")
        if "generators" in entry:
            generators[str(name)] = tuple(
                poly_from_json(g, nvars)
                for g in json_shape(entry["generators"], list, "generators")
            )
        elif "pairs" in entry:
            items = json_shape(entry["pairs"], list, "pairs", list)
            if any(len(pair) != 2 for pair in items):
                raise ValueError("center pairs must be [y, a] lists")
            pairs[str(name)] = tuple(
                (poly_from_json(y, nvars), poly_from_json(a, nvars))
                for y, a in items
            )
        else:
            raise ValueError(
                f"center entry for {name!r} needs 'generators' or 'pairs'"
            )
    return CenterSpec(
        kind,
        generators=generators or None,
        pairs=pairs or None,
    )


# -- higher-multiplicity transition data --------------------------------


class TransitionSpec(Record, frozen=False):
    """Transition ring morphisms on consecutive chart pairs of an atlas."""

    __slots__ = ("atlas", "transitions")

    def __init__(self, atlas: Atlas, transitions: dict[Pair, RingMorphism]):
        self._fill(atlas, transitions)
        expected = set(canonical_spanning_pairs(self.atlas))
        if set(self.transitions) != expected:
            raise ValueError(
                "transitions must cover exactly the consecutive chart pairs"
            )
        order = self.atlas.truncation_order
        for pair, theta in self.transitions.items():
            if theta.order != order:
                raise ValueError(
                    f"transition on {pair} has order {theta.order}, "
                    f"expected {order}"
                )
            if theta.nvars != self.atlas.nvars:
                raise ValueError(f"transition on {pair} has wrong variables")


def derive_transitions(
    atlas: Atlas, transitions: dict[Pair, RingMorphism]
) -> dict[Pair, RingMorphism]:
    """Transition morphisms on all ordered pairs, composed along a tree."""
    return fold_tree(
        atlas.chart_names(),
        transitions,
        lambda i, j, theta: endo_inverse(theta),
        identity_morphism(atlas.truncation_order, atlas.nvars),
        lambda acc, i, a, theta: compose_endo(acc, theta),
    )


def validate_transition_spec(spec: TransitionSpec) -> ValidationReport:
    """Atlas structure, unit epsilons, and overlap rings kept at every order."""
    atlas = spec.atlas
    failures = atlas.structure_failures()
    for (i, j), theta in sorted(spec.transitions.items()):
        ring = atlas.overlap(i, j)
        where = f"transition on ({i},{j})"
        if not monomial_is_unit(theta.epsilon.coeffs[0], ring):
            failures.append(f"{where}: epsilon is not a unit of the overlap ring")
        for g in ring.generators:
            # theta(g) is phi(g): an element with no t-part has one slice
            image = apply_endo(theta, TruncElement.from_poly(
                theta.order, LaurentPoly.monomial(theta.nvars, g)))
            for k, coeff in enumerate(image.coeffs):
                if not poly_in_ring(coeff, ring):
                    failures.append(
                        f"{where}: image of {monomial_str(g, atlas.variables)}"
                        f" leaves the overlap ring at order {k}"
                    )
                    break
    return ValidationReport(failures)


# -- shared chart combinatorics -----------------------------------------


class BlownChart(Record):
    __slots__ = ("name", "base", "generator")

    def __init__(self, name: str, base: str, generator: Exponent):
        self._fill(name, base, generator)


class BlowupResult(Record, frozen=False):
    """A blow-up: the new structure plus its bundle bookkeeping.

    ``spec`` is the blown-up double scheme (or transition family for higher
    truncation order); ``pullback`` is the pulled-back input bundle cocycle
    and ``exceptional`` the exceptional-divisor cocycle, when present.  The
    bundle of ``spec`` is their tensor product.  ``charts`` records, for each
    new chart, the base chart and the distinguished center generator.
    """

    __slots__ = ("spec", "pullback", "exceptional", "charts")

    def __init__(self, spec: DoubleSchemeSpec | TransitionSpec,
                 pullback: MultCocycle, exceptional: MultCocycle | None,
                 charts: tuple[BlownChart, ...]):
        self._fill(spec, pullback, exceptional, charts)

    @property
    def atlas(self) -> Atlas:
        return self.spec.atlas


def _monomial_exponent(p: LaurentPoly, ring: ExponentMonoid, what: str) -> Exponent:
    if len(p) != 1:
        raise ValueError(f"{what} must be a single monomial")
    exp, _, _ = p._monomial()
    if not ring.contains(exp):
        raise ValueError(f"{what} lies outside its chart ring")
    return exp


def _center_exponents(
    atlas: Atlas, center: CenterSpec
) -> tuple[tuple[str, tuple[Exponent, ...]], ...]:
    """Per chart, the exponents of the center generators (default: the unit),
    as (chart name, exponents) pairs."""
    unknown = set(center.generators or ()) - set(atlas.chart_names())
    if unknown:
        raise ValueError(f"center names unknown charts {sorted(unknown)}")
    out = []
    for chart in atlas.charts:
        listed = (center.generators or {}).get(chart.name)
        if listed is None:
            out.append((chart.name, ((0,) * atlas.nvars,)))
        else:
            out.append((chart.name, tuple(
                _monomial_exponent(
                    g, chart.ring, f"center generator on {chart.name}"
                )
                for g in listed
            )))
    return tuple(out)


# The blown-up atlas and its charts, keyed on the atlas itself and shared
# between equal inputs; 150 cocycle-search rounds (seed 5) make 5,406 calls
# on 2 distinct inputs
@lru_cache(maxsize=16)
def _build_blown_atlas(
    atlas: Atlas, exponents: tuple, rename: tuple,
) -> tuple[Atlas, tuple[BlownChart, ...]]:
    exponents, rename = dict(exponents), dict(rename)
    nvars = atlas.nvars
    blown: list[BlownChart] = []
    charts: list[Chart] = []
    for chart in atlas.charts:
        for f in exponents[chart.name]:
            auto = f"{chart.name}/D+({monomial_str(f, atlas.variables)})"
            name = rename.get(auto, auto)
            ratios = [
                tuple(a[v] - f[v] for v in range(nvars))
                for a in exponents[chart.name]
            ]
            ring = minimal_generators(
                ExponentMonoid(
                    nvars,
                    tuple(dict.fromkeys(chart.ring.generators + tuple(ratios))),
                )
            )
            blown.append(BlownChart(name, chart.name, f))
            charts.append(Chart(name, ring))
    overlaps = {}
    for a_pos, a in enumerate(blown):
        for b in blown[a_pos + 1:]:
            if a.base == b.base:
                base_gens = atlas.chart(a.base).ring.generators
            else:
                base_gens = atlas.overlap(a.base, b.base).generators
            union = tuple(
                dict.fromkeys(exponents[a.base] + exponents[b.base])
            )
            gens = list(base_gens)
            for f in (a.generator, b.generator):
                gens.extend(
                    tuple(g[v] - f[v] for v in range(nvars)) for g in union
                )
            overlaps[pair_key(a.name, b.name)] = minimal_generators(
                ExponentMonoid(nvars, tuple(dict.fromkeys(gens)))
            )
    new_atlas = Atlas(
        atlas.variables, atlas.truncation_order, tuple(charts), overlaps
    )
    return new_atlas, tuple(blown)


def _require_valid(spec, label: str) -> None:
    if isinstance(spec, TransitionSpec):
        report = validate_transition_spec(spec)
    else:
        report = validate_double_scheme(spec)
    if not report.ok:
        raise AssertionError(
            f"{label} produced invalid output: " + "; ".join(report.failures)
        )


def _base_transitions(
    spec: DoubleSchemeSpec | TransitionSpec, blown: tuple[BlownChart, ...]
):
    """Each consecutive new-chart pair with the transition over its bases.

    The base transition is the identity when both new charts lie over one
    base chart.  It is a ring morphism for a ``TransitionSpec`` and the pair
    (alpha, D) for double-scheme data.
    """
    atlas = spec.atlas
    nvars = atlas.nvars
    if isinstance(spec, TransitionSpec):
        full = derive_transitions(atlas, spec.transitions)
        identity = identity_morphism(atlas.truncation_order, nvars)
    else:
        alpha_full = derive_mult(atlas, spec.alpha)
        d_full = derive_vector_field(atlas, spec.alpha, spec.D)
        full = {pair: (alpha_full[pair], d_full[pair]) for pair in d_full}
        identity = (
            LaurentPoly.const(nvars, 1),
            tuple(LaurentPoly.zero(nvars) for _ in range(nvars)),
        )
    for a, b in zip(blown, blown[1:]):
        # full holds no pair of a chart with itself: shared bases get identity
        yield a, b, full.get((a.base, b.base), identity)


def _rescale(
    spec: DoubleSchemeSpec | TransitionSpec,
    new_atlas: Atlas,
    blown: tuple[BlownChart, ...],
    suffix: str,
    label: str,
) -> BlowupResult:
    """Rescale every base transition by the ratio of distinguished monomials.

    On the new pair over the base pair (i, k) with distinguished generators
    f and l, the bundle entry becomes alpha_ik * x^(f-l); a ``TransitionSpec``
    morphism is conjugated by that rescaling, and at order two the derivation
    entry becomes x^f * D_ik.  The result is validated.
    """
    nvars = new_atlas.nvars
    order = new_atlas.truncation_order
    higher = isinstance(spec, TransitionSpec)
    transitions, alpha_data, d_data, pull_data, exc_data = {}, {}, {}, {}, {}
    for a, b, base in _base_transitions(spec, blown):
        key = (a.name, b.name)
        ratio = LaurentPoly.monomial(
            nvars, tuple(x - y for x, y in zip(a.generator, b.generator))
        )
        if higher:
            transitions[key] = conjugate_chi(
                base,
                LaurentPoly.monomial(nvars, b.generator),
                TruncElement.from_poly(order - 1, ratio),
            )
            base_alpha = base.epsilon.coeffs[0]
        else:
            base_alpha, base_d = base
            alpha_data[key] = base_alpha * ratio
            d_data[key] = tuple(
                comp.mul_monomial(a.generator) for comp in base_d
            )
        pull_data[key] = base_alpha
        exc_data[key] = ratio
    if higher:
        new_spec = TransitionSpec(new_atlas, transitions)
    else:
        new_spec = DoubleSchemeSpec(
            new_atlas,
            MultCocycle(f"{spec.alpha.name}.{suffix}", alpha_data),
            VectorFieldCocycle(d_data),
        )
    _require_valid(new_spec, label)
    return BlowupResult(
        new_spec,
        MultCocycle("pullback", pull_data),
        MultCocycle("exceptional", exc_data),
        blown,
    )


# -- reduced centers ----------------------------------------------------


def blowup_reduced(
    spec: DoubleSchemeSpec | TransitionSpec,
    center: CenterSpec,
    rename: dict[str, str] | None = None,
) -> BlowupResult:
    """Blow up along a reduced monomial center.

    Each chart contributes one new chart per center generator; on the new
    pair built over the base pair (i, k) with distinguished generators f and
    l, the bundle cocycle becomes alpha_ik * f/l and the transition morphism
    is conjugated by the corresponding rescalings.
    """
    if center.kind != "reduced":
        raise ValueError("blowup_reduced needs a reduced center")
    exponents = _center_exponents(spec.atlas, center)
    new_atlas, blown = _build_blown_atlas(
        spec.atlas, exponents, tuple((rename or {}).items())
    )
    return _rescale(spec, new_atlas, blown, "blown", "blowup_reduced")


def xi_map(
    spec: DoubleSchemeSpec,
    center: CenterSpec,
    rename: dict[str, str] | None = None,
) -> VectorFieldCocycle:
    """The induced derivation family on the blown-up atlas, all pairs at once.

    Independent route to the derivation part of ``blowup_reduced``: the entry
    over the base pair (i, k) with first-chart generator f is f * D_ik, here
    computed directly on every increasing chart pair and membership-checked
    against the blown-up overlap rings.
    """
    if center.kind != "reduced":
        raise ValueError("xi_map needs a reduced center")
    atlas = spec.atlas
    exponents = _center_exponents(atlas, center)
    new_atlas, blown = _build_blown_atlas(
        atlas, exponents, tuple((rename or {}).items())
    )
    nvars = atlas.nvars
    d_full = derive_vector_field(atlas, spec.alpha, spec.D)
    zero = tuple(LaurentPoly.zero(nvars) for _ in range(nvars))
    data = {}
    for a_pos, a in enumerate(blown):
        for b in blown[a_pos + 1:]:
            base_d = zero if a.base == b.base else d_full[(a.base, b.base)]
            comps = tuple(comp.mul_monomial(a.generator) for comp in base_d)
            ring = new_atlas.overlap(a.name, b.name)
            bad = derivation_failures(comps, ring, atlas.variables)
            if bad:
                raise ValueError(
                    f"induced derivation on ({a.name},{b.name}) does not "
                    f"preserve the overlap ring: image of {bad[0]} falls "
                    f"outside"
                )
            data[(a.name, b.name)] = comps
    return VectorFieldCocycle(data)


# -- good centers -------------------------------------------------------


def _coefficient_field(
    atlas: Atlas, chart_name: str,
    pairs: tuple[tuple[LaurentPoly, LaurentPoly], ...],
) -> tuple[LaurentPoly, ...]:
    """The field sum(a_r d/dy_r) in ambient coordinates on the center chart."""
    if atlas.nvars != 2 or len(pairs) != 2:
        raise ValueError(
            "good centers need exactly two coordinates on a two-variable chart"
        )
    ring = atlas.chart(chart_name).ring
    ys = []
    for y, a in pairs:
        _monomial_exponent(y, ring, f"center coordinate on {chart_name}")
        if not poly_in_ring(a, ring):
            raise ValueError(
                f"center coefficient on {chart_name} lies outside the chart "
                f"ring"
            )
        ys.append(y)
    jac = [[y.partial_derivative(v) for v in range(2)] for y in ys]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    mono = det.as_monomial()
    if mono is None:
        raise ValueError(
            "center coordinates must have a monomial Jacobian determinant"
        )
    det_exp, det_coeff = mono
    inv_exp = tuple(-x for x in det_exp)
    inv_coeff = 1 / det_coeff
    a1, a2 = (a for _, a in pairs)
    return (
        (a1 * jac[1][1] - a2 * jac[0][1]).mul_monomial(inv_exp, inv_coeff),
        (a2 * jac[0][0] - a1 * jac[1][0]).mul_monomial(inv_exp, inv_coeff),
    )


def _reduced_center(center: CenterSpec) -> CenterSpec:
    """The reduced center (y_1, ..., y_d) underlying a good center."""
    (chart, pairs), = center.pairs.items()
    return CenterSpec(
        "reduced", generators={chart: tuple(y for y, _ in pairs)}
    )


def blowup_good(
    spec: DoubleSchemeSpec,
    center: CenterSpec,
    rename: dict[str, str] | None = None,
    check: bool = True,
) -> BlowupResult:
    """Blow up a good zero-dimensional subscheme of a double scheme.

    The chart combinatorics are those of the reduced center (y_1, ..., y_d);
    the bundle cocycle is the plain pullback, and the derivation family is
    the pullback corrected by the coboundary of the coefficient field
    sum(a_r d/dy_r) attached to the center chart.
    """
    if center.kind != "good":
        raise ValueError("blowup_good needs a good center")
    if not isinstance(spec, DoubleSchemeSpec):
        raise ValueError("good centers act on double-scheme data")
    atlas = spec.atlas
    (center_chart, pairs), = center.pairs.items()
    if center_chart not in atlas.chart_names():
        raise ValueError(f"center names unknown chart {center_chart!r}")
    field = _coefficient_field(atlas, center_chart, pairs)
    exponents = _center_exponents(atlas, _reduced_center(center))
    new_atlas, blown = _build_blown_atlas(
        atlas, exponents, tuple((rename or {}).items())
    )
    nvars = atlas.nvars
    zero = tuple(LaurentPoly.zero(nvars) for _ in range(nvars))

    def rho(base: str) -> tuple[LaurentPoly, ...]:
        if base == center_chart:
            return tuple(-c for c in field)
        return zero

    alpha_data = {}
    d_data = {}
    for a, b, (base_alpha, base_d) in _base_transitions(spec, blown):
        rho_a, rho_b = rho(a.base), rho(b.base)
        alpha_data[(a.name, b.name)] = base_alpha
        d_data[(a.name, b.name)] = tuple(
            base_d[v] + rho_a[v] - base_alpha * rho_b[v]
            for v in range(nvars)
        )
    pull = MultCocycle("pullback", alpha_data)
    new_spec = DoubleSchemeSpec(
        new_atlas,
        MultCocycle(f"{spec.alpha.name}.pulled", alpha_data),
        VectorFieldCocycle(d_data),
    )
    if check:
        _require_valid(new_spec, "blowup_good")
    return BlowupResult(new_spec, pull, None, blown)


# -- hypersurface centers -----------------------------------------------


def _hypersurface_equations(
    atlas: Atlas, center: CenterSpec
) -> dict[str, Exponent]:
    if center.kind != "hypersurface":
        raise ValueError("expected a hypersurface center")
    names = atlas.chart_names()
    if set(center.generators or ()) != set(names):
        raise ValueError(
            "a hypersurface center needs one equation on every chart"
        )
    eqs = {
        name: _monomial_exponent(
            center.generators[name][0],
            atlas.chart(name).ring,
            f"hypersurface equation on {name}",
        )
        for name in names
    }
    for pos, i in enumerate(names):
        for j in names[pos + 1:]:
            ring = atlas.overlap(i, j)
            ratio = tuple(a - b for a, b in zip(eqs[i], eqs[j]))
            neg = tuple(-x for x in ratio)
            if not (ring.contains(ratio) and ring.contains(neg)):
                raise ValueError(
                    f"hypersurface equations on ({i},{j}) do not differ by a "
                    f"unit of the overlap ring"
                )
    return eqs


def blowup_hypersurface(
    spec: DoubleSchemeSpec | TransitionSpec,
    center: CenterSpec,
) -> BlowupResult:
    """Blow up along a hypersurface given by compatible monomial equations.

    The atlas is unchanged and each chart is its own new chart with its local
    equation as distinguished generator, so the rescaling multiplies the
    bundle cocycle by x_i/x_j and, at truncation order two, the derivation
    entries by x_i.
    """
    eqs = _hypersurface_equations(spec.atlas, center)
    blown = tuple(
        BlownChart(name, name, eqs[name]) for name in spec.atlas.chart_names()
    )
    return _rescale(spec, spec.atlas, blown, "twisted", "blowup_hypersurface")


# -- successive blow-ups ------------------------------------------------


def exceptional_center(result: BlowupResult) -> CenterSpec:
    """The exceptional divisor of a blow-up as a hypersurface center."""
    nvars = result.atlas.nvars
    return CenterSpec(
        "hypersurface",
        generators={
            c.name: (LaurentPoly.monomial(nvars, c.generator),)
            for c in result.charts
        },
    )


def successive_identity_check(
    spec: DoubleSchemeSpec, center: CenterSpec, bound: int = 6
) -> bool:
    """Blowing up a good subscheme then its exceptional divisor matches the
    one-step blow-up of the underlying reduced point, by an identity-scale
    change of trivializations."""
    if center.kind != "good":
        raise ValueError("the successive identity starts from a good center")
    good = blowup_good(spec, center)
    via_good = blowup_hypersurface(good.spec, exceptional_center(good))
    direct = blowup_reduced(spec, _reduced_center(center))
    witness, _report = iso_decide(via_good.spec, direct.spec, bound=bound)
    return witness is not None and witness[0] == 1
