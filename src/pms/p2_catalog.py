"""Catalog of surface atlases and double structures used throughout.

Two concrete atlases are provided in toric coordinates lam, mu:

* the projective plane with affine charts U0, U1, U2, and
* the plane blown up at the torus-fixed point of U2, with charts W0..W3,
  where W2 and W3 replace U2 and the exceptional curve meets both.

Monomials are tracked through exponent cones; chart rings, overlap rings,
top-form frames, and the residue calibration are built here once and shared.
So are the double structures: ``make_p2`` and ``make_blown_plane`` (and
``build_carpet``, its p = 1 member) build each distinct argument set once,
in bounded memos, and return shared frozen values (``pms.atlas``).
Argument errors raise ``ValueError`` on every call.

On the blown plane, line bundles are encoded by an exponent table
``beta_table(m, p)`` whose two integers are the pairing degrees against a
general line and against the exceptional curve (with the sign convention
that ``extension_bundle(m, n) = beta_table(m, -n)``).  The distinguished
double structures are produced by ``make_blown_plane``: the general member
has spanning entries

    E01 = [X] * (-lam^2 mu^2) d/dmu,
    E12 = A d/dlam + B d/dmu,
    E23 = mu^(p+m) ((C - A) d/dlam + (D - B) d/dmu),

with (A, B, C, D) in the rigid shape cut out by regularity along the
exceptional direction; ``solve_pullback_family`` recomputes that shape two
independent ways (boxed unknowns, singleton-forced ones cascaded out, modulo
gauge, and a named-coefficient ansatz), cross-checks the dimensions and
compares the solved relations with ``make_blown_plane``'s member, at m = -3
alone; route one's box is ``linear.exponent_box``.

A ribbon on the blown plane ("carpet") is the p = 1 member; its class
decomposes against the two generating bundle classes with coefficients
(1, alpha), and a bundle of degrees (m, n) prolongs to it exactly when the
residue obstruction m - n*alpha vanishes.  Both atlases have the two
variables lam, mu.  The ribbon's data is affine in alpha and the obstruction
linear in that data, so ``alpha = "symbolic"`` evaluates the obstruction at
alpha = 0 and 1 and reads off the polynomial o(0) + (o(1) - o(0)) al in the
indeterminate al.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .atlas import (
    Atlas,
    Chart,
    DoubleSchemeSpec,
    MultCocycle,
    VectorFieldCocycle,
    derivation_conditions,
    validate_double_scheme,
)
from .cohomology import (
    BOUND_CAVEAT,
    bundle_cup,
    calibrate_residue,
    canonical_class,
    extension_obstruction,
    flat,
    oneform_coboundary_solve,
    h2_residue,
)
from .laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    Rational,
    Record,
    format_rational,
    monomial_str,
)
from .linear import (
    LinearSolver,
    box_labels,
    exponent_box,
    rank_of_vectors,
    term_rows,
)

VARIABLES = ("lam", "mu")
SYMBOL = "al"

_P2_CHARTS = (
    ("U0", ((-1, 0), (-1, -1))),
    ("U1", ((1, 0), (0, -1))),
    ("U2", ((0, 1), (1, 1))),
)
_P2_OVERLAPS = {
    ("U0", "U1"): ((1, 0), (-1, 0), (0, -1)),
    ("U0", "U2"): ((-1, 0), (-1, -1), (1, 1), (0, 1)),
    ("U1", "U2"): ((1, 0), (0, 1), (0, -1)),
}
_P2_FRAMES = {
    "U0": ((-3, -2), -1),
    "U1": ((0, -2), -1),
    "U2": ((0, 1), -1),
}

_W_CHARTS = (
    ("W0", ((-1, 0), (-1, -1))),
    ("W1", ((1, 0), (0, -1))),
    ("W2", ((1, 0), (0, 1))),
    ("W3", ((-1, 0), (1, 1))),
)
_W_OVERLAPS = {
    ("W0", "W1"): ((1, 0), (-1, 0), (0, -1)),
    ("W0", "W2"): ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ("W0", "W3"): ((-1, 0), (1, 1), (-1, -1)),
    ("W1", "W2"): ((1, 0), (0, 1), (0, -1)),
    ("W1", "W3"): ((1, 0), (-1, 0), (0, 1), (0, -1)),
    ("W2", "W3"): ((1, 0), (-1, 0), (0, 1)),
}
_W_FRAMES = {
    "W0": ((-3, -2), -1),
    "W1": ((0, -2), -1),
    "W2": ((0, 0), -1),
    "W3": ((-1, 0), -1),
}


def _mono(exp, coeff=1) -> LaurentPoly:
    return LaurentPoly.monomial(2, exp, coeff)


def _build_atlas(charts, overlaps, frames, unit: MultCocycle) -> Atlas:
    atlas = Atlas(
        variables=VARIABLES,
        truncation_order=2,
        charts=tuple(Chart(n, ExponentMonoid(2, g)) for n, g in charts),
        overlaps={k: ExponentMonoid(2, g) for k, g in overlaps.items()},
        frames={n: _mono(e, c) for n, (e, c) in frames.items()},
    )
    return atlas._replace(residue_scale=calibrate_residue(atlas, unit))


@lru_cache(maxsize=1)
def make_p2_atlas() -> Atlas:
    """The projective plane atlas."""
    return _build_atlas(_P2_CHARTS, _P2_OVERLAPS, _P2_FRAMES, p2_line_bundle(1))


@lru_cache(maxsize=1)
def make_wcover_atlas() -> Atlas:
    """The blown-plane atlas."""
    return _build_atlas(_W_CHARTS, _W_OVERLAPS, _W_FRAMES, beta_table(1, 0))


def p2_line_bundle(m: int) -> MultCocycle:
    """Degree-m line bundle on the plane: lam^-m and mu^-m on spanning pairs."""
    return MultCocycle(f"O_{m}", {
        ("U0", "U1"): _mono((-m, 0)),
        ("U1", "U2"): _mono((0, -m)),
    })


def beta_table(m: int, p: int) -> MultCocycle:
    """Bundle on the blown plane with exponent pattern (lam^-m, mu^-p-m, lam^-p)."""
    return MultCocycle(f"beta_{m}_{p}", {
        ("W0", "W1"): _mono((-m, 0)),
        ("W1", "W2"): _mono((0, -p - m)),
        ("W2", "W3"): _mono((-p, 0)),
    })


def extension_bundle(m: int, n: int) -> MultCocycle:
    """Bundle of pairing degrees m (line) and n (exceptional curve)."""
    return MultCocycle(f"F_{m}_{n}", beta_table(m, -n).data)


def make_p2(m: int, nontrivial: bool = False) -> DoubleSchemeSpec:
    """Double structure on the plane twisted by the degree-m bundle.

    The nontrivial class exists only at m = -3; otherwise the derivation
    family is zero.  Equal arguments share one spec (``_build_p2``).
    """
    if nontrivial and m != -3:
        raise ValueError("a nonzero class requires twist degree -3")
    return _build_p2(m, bool(nontrivial))


# one entry per (m, class); cocycle-search draws 5, its reduced bases (2,527
# calls over the warm-up and 60 rounds, seed 5)
@lru_cache(maxsize=16)
def _build_p2(m: int, nontrivial: bool) -> DoubleSchemeSpec:
    zero = LaurentPoly.zero(2)
    if nontrivial:
        data = {
            ("U0", "U1"): (zero, _mono((2, 2), -1)),
            ("U1", "U2"): (_mono((0, 1)), zero),
        }
    else:
        data = {
            ("U0", "U1"): (zero, zero),
            ("U1", "U2"): (zero, zero),
        }
    return DoubleSchemeSpec(
        make_p2_atlas(), p2_line_bundle(m), VectorFieldCocycle(data)
    )


def make_blown_plane(
    m: int, p: int, c0: Rational = 0, r0: Rational = 0,
    nontrivial: bool | None = None,
) -> DoubleSchemeSpec:
    """Normal-form double structure on the blown plane, twist beta(m, p).

    The coefficient shape is A = [X] mu - mu^(2-p) R(lam), B = 0,
    C = [X] mu + lam^-p mu^(2-p) (-c0 lam + S(1/lam)), D = c0 lam^-p mu^(3-p)
    with (R, S) = (r0 + c0 lam, -r0) when p = 0, (c0, 0) when p = 1, and zero
    for p >= 2 (where c0 and r0 must vanish).  The data is affine in c0.
    Equal arguments share one spec (``_build_blown_plane``), however they
    are passed: the coefficients as rationals and the class resolved.
    """
    if p < 0:
        raise ValueError("the exceptional degree p must be non-negative")
    if nontrivial is None:
        nontrivial = m == -3
    if nontrivial and m != -3:
        raise ValueError("a nonzero plane class requires twist degree -3")
    c0 = Fraction(c0)
    r0 = Fraction(r0)
    if p >= 2 and (c0 or r0):
        raise ValueError("no free coefficients exist for p >= 2")
    if p == 1 and r0:
        raise ValueError("the residual coefficient r0 must vanish for p = 1")
    return _build_blown_plane(m, p, c0, r0, bool(nontrivial))


# one entry per (m, p, c0, r0, class); cocycle-search draws 107 (3,249
# calls over the warm-up and 60 rounds, seed 5): 81 good points, 20 carpets
# (10 alphas, trivial or not), 5 reduced normal forms and 1 rigid member.
# The 81 good-point specs hold 0.31 MB by tracemalloc
@lru_cache(maxsize=128)
def _build_blown_plane(m: int, p: int, c0: Fraction, r0: Fraction,
                       nontrivial: bool) -> DoubleSchemeSpec:
    zero = LaurentPoly.zero(2)
    x_part = 1 if nontrivial else 0

    c0p = LaurentPoly.const(2, c0)
    r0p = LaurentPoly.const(2, r0)
    if p == 0:
        r_poly = r0p + c0p * _mono((1, 0))
        s_poly = -r0p
    elif p == 1:
        r_poly = c0p
        s_poly = zero
    else:
        r_poly = zero
        s_poly = zero

    mu1 = _mono((0, 1), x_part)
    a_poly = mu1 - r_poly * _mono((0, 2 - p))
    b_poly = zero
    c_poly = mu1 - c0p * _mono((1 - p, 2 - p)) + s_poly * _mono((-p, 2 - p))
    d_poly = c0p * _mono((-p, 3 - p))

    shift = (0, p + m)
    data = {
        ("W0", "W1"): (zero, _mono((2, 2), -x_part)),
        ("W1", "W2"): (a_poly, b_poly),
        ("W2", "W3"): (
            (c_poly - a_poly).mul_monomial(shift, 1),
            (d_poly - b_poly).mul_monomial(shift, 1),
        ),
    }
    return DoubleSchemeSpec(
        make_wcover_atlas(), beta_table(m, p), VectorFieldCocycle(data)
    )


def build_carpet(alpha, trivial: bool = False) -> DoubleSchemeSpec:
    """The ribbon structure on the blown plane with decomposition (1, alpha).

    ``alpha`` is a rational (or anything Fraction accepts).  With
    ``trivial`` the plane class is dropped, leaving the pure alpha-part.
    It is ``make_blown_plane``'s p = 1 member, shared through its memo.
    """
    return make_blown_plane(-3, 1, Fraction(alpha), nontrivial=not trivial)


# -- classes, pairing, decomposition ------------------------------------


def wcover_unit_classes() -> tuple[MultCocycle, MultCocycle]:
    """The two generating bundle classes on the blown plane."""
    return beta_table(1, 0), beta_table(0, -1)


def pairing_matrix() -> tuple[tuple[Rational, ...], ...]:
    """Residue pairing of the blown plane's two generating classes."""
    atlas = make_wcover_atlas()
    classes = wcover_unit_classes()
    return tuple(
        tuple(h2_residue(atlas, bundle_cup(atlas, a, b)) for b in classes)
        for a in classes
    )


def carpet_decompose(
    alpha, bound: int = 6,
) -> tuple[tuple[Rational, Rational] | None, dict]:
    """Coefficients of the ribbon class on the two generating classes.

    Solves sigma = c_u * u + c_v * v + (coboundary) for the index-lowered
    ribbon family sigma; expected result (1, alpha) for the full ribbon.
    """
    spec = build_carpet(alpha)
    atlas = spec.atlas
    sigma = flat(atlas, spec)
    u_cls, v_cls = wcover_unit_classes()
    extra = {
        "u": canonical_class(atlas, u_cls),
        "v": canonical_class(atlas, v_cls),
    }
    solution, report = oneform_coboundary_solve(
        atlas, sigma, bound, extra=extra
    )
    if solution is None:
        return None, report
    coeffs = solution["coefficients"]
    return (coeffs["u"], coeffs["v"]), report


def carpet_obstruction(alpha, m: int, n: int):
    """Residue obstruction m - n*alpha to prolonging a bundle to the ribbon.

    For ``alpha = "symbolic"`` the value is a polynomial in the symbol al.
    The ribbon's data is affine in alpha and the obstruction linear in the
    data, so it is o(0) + (o(1) - o(0)) al from the rational values o(a);
    it stays the rational o(0) when no al term is left.
    """
    if alpha == "symbolic":
        return _symbolic_obstruction((build_carpet(0), build_carpet(1)), m, n)
    return extension_obstruction(build_carpet(alpha), extension_bundle(m, n))


def _symbolic_obstruction(ribbons, m: int, n: int):
    """``carpet_obstruction("symbolic")`` from the ribbons at alpha 0 and 1."""
    bundle = extension_bundle(m, n)
    o0, o1 = (extension_obstruction(ribbon, bundle) for ribbon in ribbons)
    if o1 == o0:
        return o0
    return LaurentPoly(3, {(0, 0, 0): o0, (0, 0, 1): o1 - o0})


def carpet_extends(alpha, m: int, n: int) -> bool:
    return carpet_obstruction(alpha, m, n) == 0


def extension_lattice(alpha) -> tuple[int, int]:
    """Primitive degree pair (m, n) generating the prolongable bundles."""
    a = Fraction(alpha)
    if a == 0:
        pair = (0, 1)
    else:
        pair = (a.numerator, a.denominator)
    if carpet_obstruction(alpha, *pair) != 0:  # pragma: no cover - sanity
        raise AssertionError("lattice generator fails the obstruction test")
    return pair


def _signed_sum(terms) -> str:
    """``c1*n1 + c2*n2 - ...`` over (coefficient, name) terms.

    A term without a name is a constant; an empty sum is ``0``.
    """
    parts = []
    for coeff, name in terms:
        if name is None:
            parts.append(format_rational(coeff))
        elif coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{format_rational(coeff)}*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for piece in parts[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _symbolic_str(ribbons, m: int, n: int) -> str:
    """The obstruction at (m, n) for an indeterminate alpha, as a sum, from
    the ribbons at alpha = 0 and 1."""
    value = _symbolic_obstruction(ribbons, m, n)
    if not isinstance(value, LaurentPoly):
        value = LaurentPoly.const(3, value)
    names = VARIABLES + (SYMBOL,)
    return _signed_sum(
        (c, monomial_str(e, names) if any(e) else None)
        for e, c in value.items()
    )


def quasiprojective(alpha) -> dict:
    """Whether some ample bundle prolongs to the ribbon.

    In the degree coordinates used here (pairing against a ruling fiber and
    against the exceptional curve) a bundle (m, n) is ample exactly when
    both degrees are positive, and it prolongs exactly when m - n*alpha
    vanishes.  Both happen together exactly for rational alpha > 0, with
    witness the reduced fraction (num, den) of alpha.
    """
    if alpha == "symbolic":
        ribbons = (build_carpet(0), build_carpet(1))
        return {
            "answer": "no",
            "evidence": {
                "obstruction_at_1_0": _symbolic_str(ribbons, 1, 0),
                "obstruction_at_0_1": _symbolic_str(ribbons, 0, 1),
                "reason": (
                    "the obstruction is linear in the degrees with "
                    "independent values on (1,0) and (0,1), so only the "
                    "zero bundle prolongs for an indeterminate alpha"
                ),
            },
        }
    a = Fraction(alpha)
    if a > 0:
        witness = (a.numerator, a.denominator)
        if carpet_obstruction(alpha, *witness) != 0:  # pragma: no cover
            raise AssertionError("witness bundle fails the obstruction test")
        return {"answer": "yes", "witness": list(witness)}
    return {
        "answer": "no",
        "evidence": {
            "obstruction_at_1_0": format_rational(
                Fraction(carpet_obstruction(alpha, 1, 0))
            ),
            "obstruction_at_0_1": format_rational(
                Fraction(carpet_obstruction(alpha, 0, 1))
            ),
            "reason": (
                "prolongable degrees satisfy m = n*alpha; with alpha <= 0 "
                "no such pair has both degrees positive, so no prolongable "
                "bundle is ample"
            ),
        },
    }


# -- the pullback family, two ways --------------------------------------


_TWIST = -3  # the family's twist m: the ansatz describes it only there
_POLY_RING = ExponentMonoid(2, ((1, 0), (0, 1)))
_W2_RING = ExponentMonoid(2, _W_CHARTS[2][1])
_W3_RING = ExponentMonoid(2, _W_CHARTS[3][1])
_W12_RING = ExponentMonoid(2, _W_OVERLAPS[("W1", "W2")])
_W23_RING = ExponentMonoid(2, _W_OVERLAPS[("W2", "W3")])
_W03_RING = ExponentMonoid(2, _W_OVERLAPS[("W0", "W3")])


def _pullback_conditions(p: int, x_part: int) -> list[tuple]:
    """The conditions on the family shape (A, B, C, D), in term form.

    The unknown fields are the prefixes ("A",) .. ("D",).  The
    exceptional-chart anchors stay polynomial, the far-chart anchors stay in
    that chart ring, and each derived entry sum(comp_v d/dx_v) preserves its
    overlap ring.
    """
    s = p + _TWIST
    a, b, c, d = ("A",), ("B",), ("C",), ("D",)
    conditions = [
        (_POLY_RING, {}, ((b, (0, s), 1),), ()),
        (_POLY_RING, {(0, s + 2): x_part},
         ((a, (0, s + 1), -1), (b, (1, s), -1)), ()),
        (_W3_RING, {}, ((d, (p, s), 1),), ()),
        (_W3_RING, {(p, s + 2): x_part},
         ((c, (p, s + 1), -1), (d, (p + 1, s), -1)), ()),
    ]
    # the derived entries: a ring and the (known, terms) of each component
    fields = (
        (_W12_RING, ({}, ((a, (0, 0), 1),)), ({}, ((b, (0, 0), 1),))),
        (_W23_RING, ({}, ((c, (0, s), 1), (a, (0, s), -1))),
         ({}, ((d, (0, s), 1), (b, (0, s), -1)))),
        (_W03_RING, ({}, ((c, (-_TWIST, 0), 1),)),
         ({(2, 2): -x_part}, ((d, (-_TWIST, 0), 1),))),
    )
    for ring, *comps in fields:
        conditions += derivation_conditions(ring, comps)
    return conditions


def _pullback_rows(conditions: list[tuple], bound: int) -> tuple[set, list]:
    """Route one: the cascade's forced set Z and the rows it leaves.

    Each of A, B, C, D has an unknown (name, e) per e in [-bound, bound]^2
    (``_family_box``); ``linear.term_rows`` reads the rows off exponents.
    """
    return term_rows(conditions, _family_box(bound))


# one entry per bound; ``_family_system``'s forced sets and gauge keys
# share these labels.  Bounds 3-7 take 0.26 MB by tracemalloc
@lru_cache(maxsize=16)
def _family_box(bound: int) -> dict:
    """Route one's label maps over [-bound, bound]^2, built once per bound
    and shared by every (p, x_part); nothing modifies them."""
    box = exponent_box(2, bound)
    return {
        name: box_labels(name, box) for name in (("A",), ("B",), ("C",), ("D",))
    }


def _ansatz(p: int, b: int, x_part: int) -> dict:
    """The named ansatz for (A, B, C, D): each prefix -> (its fixed part,
    its (label, exponent, coefficient) terms).

    Each component is a fixed part plus named scalars times monomials:
    A = [X] mu - sum R_k lam^k mu^(2-p), B = 0,
    C = [X] mu - c0 lam^(1-p) mu^(2-p) + sum S_k lam^(-k-p) mu^(2-p) and
    D = c0D lam^-p mu^(3-p), k in 0..b.
    """
    fixed = {(0, 1): x_part}
    return {
        ("A",): (fixed, [(("R", k), (k, 2 - p), -1) for k in range(b + 1)]),
        ("B",): ({}, []),
        ("C",): (fixed, [(("c0",), (1 - p, 2 - p), -1)]
                 + [(("S", k), (-k - p, 2 - p), 1) for k in range(b + 1)]),
        ("D",): ({}, [(("c0D",), (-p, 3 - p), 1)]),
    }


def _ansatz_conditions(conditions: list[tuple], p: int, b: int,
                       x_part: int) -> list[tuple]:
    """Route two: ``conditions`` with the named ansatz (``_ansatz``) put in
    for (A, B, C, D).

    A field term c x^shift F adds c x^shift times F's fixed part to the known
    part and one scalar term per named monomial; no field term is left.
    """
    ansatz = _ansatz(p, b, x_part)
    out = []
    for ring, known, terms, scalars in conditions:
        known, scalars = dict(known), list(scalars)
        for prefix, (s0, s1), c in terms:
            part, named = ansatz[prefix]
            for (e0, e1), v in part.items():
                f = (e0 + s0, e1 + s1)
                known[f] = known.get(f, 0) + c * v
            scalars += [(label, {(e0 + s0, e1 + s1): c * v})
                        for label, (e0, e1), v in named]
        out.append((ring, known, (), tuple(scalars)))
    return out


def _field_directions(ring: ExponentMonoid, weight) -> tuple:
    """Vector-field directions of one torus weight preserving a chart ring.

    A weight-w field a*x^(w+e0) d/dx0 + b*x^(w+e1) d/dx1 maps the generator
    monomial x^g to (a g0 + b g1) x^(g+w); whenever g+w leaves the ring this
    forces a linear condition on (a, b).  Returns a basis of the solutions.
    """
    rows = [
        g for g in ring.generators
        if not ring.contains((g[0] + weight[0], g[1] + weight[1]))
    ]
    if not rows:
        return ((1, 0), (0, 1))
    first = rows[0]
    for other in rows[1:]:
        if first[0] * other[1] != first[1] * other[0]:
            return ()
    return ((first[1], -first[0]),)


def _gauge_vectors(p: int, bound: int) -> list[dict]:
    """Coefficient directions of reparametrizations fixing the family shape.

    Type one moves the middle entry by mu^(-p-m) times a field regular on
    the exceptional chart; type two moves (C, D) by lam^-p mu^(-p-m) times a
    field regular on the far chart.  Directions are enumerated weight by
    weight; only those fully supported inside the box [-bound, bound]^2 are
    returned.
    """
    box = exponent_box(2, bound)
    boxset = set(box)
    vecs = []
    specs = (
        ("A", "B", _W2_RING, (0, -(p + _TWIST))),
        ("C", "D", _W3_RING, (-p, -(p + _TWIST))),
    )
    for la, lb, ring, shift in specs:
        weights = set()
        for e in box:
            weights.add((e[0] - 1 - shift[0], e[1] - shift[1]))
            weights.add((e[0] - shift[0], e[1] - 1 - shift[1]))
        for w in sorted(weights):
            exp_a = (w[0] + 1 + shift[0], w[1] + shift[1])
            exp_b = (w[0] + shift[0], w[1] + 1 + shift[1])
            for a, b in _field_directions(ring, w):
                pairs = (((la, exp_a), a), ((lb, exp_b), b))
                vec = {label: c for label, c in pairs if c}
                if vec and all(label[1] in boxset for label in vec):
                    vecs.append(vec)
    return vecs


class _FamilySystem(NamedTuple):
    """Both routes' rows (IntRow, int) of one (p, x_part, bound), in
    ``term_rows`` order with nonzero ``int`` entries, and the gauge."""

    forced: tuple  # route one's forced set Z, sorted
    rows: tuple  # route one's rows with Z deleted
    named_rows: tuple  # route two's rows
    # each label of a ``_gauge_vectors`` direction -> the (vector index,
    # coefficient) pairs that hold it; keys are ``_family_box``'s labels
    gauge_index: dict
    gauge_rank: int


# one entry per (p, x_part, bound); family-sweep's grid (p 0-3, bound 3-7,
# x_part 1) holds 20, 0.77 MB by tracemalloc besides the shared box labels,
# and p 0-5, x_part 0/1, bound 3-8 holds 72
@lru_cache(maxsize=128)
def _family_system(p: int, x_part: int, bound: int) -> _FamilySystem:
    """What ``solve_pullback_family`` reads of one key, built once; nothing
    modifies it.  The gauge vectors are kept only as the label index."""
    conditions = _pullback_conditions(p, x_part)
    forced, rows = _pullback_rows(conditions, bound)
    # no label map, so the cascade sees no row and drops no scalar
    _, named_rows = term_rows(
        _ansatz_conditions(conditions, p, bound, x_part), {}
    )
    vecs = _gauge_vectors(p, bound)
    box = _family_box(bound)
    index: dict = {}
    for i, vec in enumerate(vecs):
        for (name, e), c in vec.items():
            label = box[name,][e]
            index[label] = index.get(label, ()) + ((i, c),)
    return _FamilySystem(tuple(sorted(forced)), _integer_rows(rows),
                         _integer_rows(named_rows), index,
                         rank_of_vectors(vecs))


def _integer_rows(rows: list) -> tuple:
    """``rows`` as a tuple, once each entry and right-hand side is checked
    to be an ``int`` and each entry nonzero (``LinearSolver._add_integer``)."""
    for row, rhs in rows:
        if type(rhs) is not int or not all(
            type(c) is int and c for c in row.values()
        ):  # pragma: no cover - the family conditions have int coefficients
            raise AssertionError("family row with a non-integer entry")
    return tuple(rows)


def _integer_solver(rows: tuple) -> LinearSolver:
    """A solver holding ``rows`` of ``_integer_rows``, fed through the
    integer entry; the solver shares the rows and never modifies them."""
    solver = LinearSolver()
    for row, rhs in rows:
        solver._add_integer(row, rhs)
    return solver


def _label_str(label) -> str:
    return "".join(map(str, label))  # ("c0",) -> c0, ("R", 2) -> R2


class FamilyDescription(Record, frozen=False):
    """A family of normal-form double structures with its parameter count."""

    __slots__ = ("m", "p", "nontrivial", "parameter_dim", "free_parameters",
                 "relations", "ansatz_bound", "diagnostics")

    def __init__(self, m: int, p: int, nontrivial: bool, parameter_dim: int,
                 free_parameters: tuple[str, ...], relations: tuple[str, ...],
                 ansatz_bound: int, diagnostics: dict | None = None):
        self._fill(m, p, nontrivial, parameter_dim, free_parameters, relations,
                   ansatz_bound, {} if diagnostics is None else diagnostics)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "p": self.p,
            "nontrivial": self.nontrivial,
            "parameter_dim": self.parameter_dim,
            "free_parameters": list(self.free_parameters),
            "relations": list(self.relations),
            "ansatz_bound": self.ansatz_bound,
            "diagnostics": dict(self.diagnostics),
            "caveat": BOUND_CAVEAT,
        }


def solve_pullback_family(
    m: int, p: int, ansatz_bound: int = 6, nontrivial: bool = True,
) -> FamilyDescription:
    """Count the family of normal-form structures for twist beta(m, p).

    Route one treats the boxed coefficients of (A, B, C, D) as unknowns,
    eliminates the rows the singleton cascade leaves, and subtracts the gauge
    rank; route two plugs in the named-coefficient ansatz (c0, c0D, R_k,
    S_k) and counts its free parameters.  The two dimensions must agree.
    Both routes build their rows with ``linear.term_rows``; the tests
    expand route two's ansatz with the ``symbolic_rows`` reference too.

    Built once per key, in bounded memos, since nothing else enters them:
    both routes' rows, route one's forced set Z and the gauge with its rank,
    per (p, x_part, ansatz_bound) in one entry (``_family_system``, rows
    checked once to be ``int``, the gauge kept as a label index); and
    ``make_blown_plane``'s member, per (p, class), validated once and kept
    as numbers (``_constructor_member``).  Nothing else is memoised, neither
    a solver nor the description.  Every call still:

    * eliminates both routes, feeding the cached rows to fresh solvers
      through ``LinearSolver``'s integer entry, and re-verifies each
      ``solve`` against every original row;
    * checks the gauge against Z and route one's rows, through the index.
      The check is exact: a gauge vector pairs with a row only through the
      labels both hold, so a row that mentions neither of a vector's labels
      pairs with it to 0, and summing c * row[label] per vector over each
      row's labels reads every pairing that a full scan would;
    * picks the free parameters and solves for the relations among the
      named coefficients (``_free_parameters``): one solve for the base
      solution and one per free parameter, each on a copy of route two's
      solver with the pin rows added;
    * compares the solve with that member at c0 = 1 and R0 = 5 where free
      (``_check_against_constructor``): the free parameters and dimension,
      and the relations' values there with its coefficients, exactly.

    The domain is m = -3 (the normal-form ansatz describes the family only
    there) and ansatz_bound >= 3 (smaller boxes cut the family off for some
    p); other inputs raise ValueError.
    """
    if p < 0:
        raise ValueError("the exceptional degree p must be non-negative")
    if m != _TWIST:
        raise ValueError("the pull-back family is solved only for m = -3")
    if ansatz_bound < 3:
        raise ValueError("the ansatz bound must be at least 3")
    x_part = 1 if nontrivial else 0
    b = ansatz_bound
    generic_variables = 4 * (2 * b + 1) ** 2
    system = _family_system(p, x_part, b)

    # route one: generic boxed coefficients modulo gauge; every label is an
    # A/B/C/D unknown, so the cascade may drop any of them
    solver = _integer_solver(system.rows)
    if solver.solve() is None:  # pragma: no cover - shape always realizable
        raise AssertionError("family constraints are inconsistent")
    generic_rank = len(system.forced) + solver.rank
    kernel_dim = generic_variables - generic_rank
    # the gauge is memoised, its check is not; a kernel vector vanishes on
    # the forced labels, so off them it pairs with each row as with its
    # reduced row
    index = system.gauge_index
    if not index.keys().isdisjoint(system.forced):
        raise AssertionError("gauge direction moves a forced coefficient")
    for row, _ in system.rows:
        acc: dict = {}
        for label, v in row.items():
            for i, c in index.get(label, ()):
                acc[i] = acc.get(i, 0) + c * v
        if any(acc.values()):
            raise AssertionError("gauge direction violates a constraint")
    dim_generic = kernel_dim - system.gauge_rank

    # route two: named-coefficient ansatz
    named_labels = (
        [("c0",), ("R", 0), ("c0D",)]
        + [("R", k) for k in range(1, b + 1)]
        + [("S", k) for k in range(b + 1)]
    )
    named_solver = _integer_solver(system.named_rows)
    if not named_solver.is_consistent():  # pragma: no cover
        raise AssertionError("ansatz constraints are inconsistent")
    dim_named = len(named_labels) - named_solver.rank
    if dim_generic != dim_named:
        raise AssertionError(
            f"family dimension mismatch: generic route {dim_generic}, "
            f"ansatz route {dim_named}"
        )

    pins, base, directions = _free_parameters(named_solver, named_labels)
    if len(pins) != dim_named:  # pragma: no cover
        raise AssertionError("free-parameter selection failed")
    relations, zeros = [], []
    # each named label -> its (coefficient, free parameter or None) terms
    affine = {pin: [(1, _label_str(pin))] for pin in pins}
    for label in named_labels:
        if label in pins:
            continue
        const = base.get(label, Fraction(0))
        terms = affine[label] = [(const, None)] if const else []
        for pin in pins:
            coeff = directions[pin].get(label, Fraction(0)) - const
            if coeff:
                terms.append((coeff, _label_str(pin)))
        if terms:
            relations.append(f"{_label_str(label)} = {_signed_sum(terms)}")
        else:
            zeros.append(_label_str(label))
    if zeros:
        relations.append(" = ".join(zeros) + " = 0")

    desc = FamilyDescription(
        m=m,
        p=p,
        nontrivial=nontrivial,
        parameter_dim=dim_named,
        free_parameters=tuple(_label_str(lb) for lb in pins),
        relations=tuple(relations),
        ansatz_bound=b,
        diagnostics={
            "generic_variables": generic_variables,
            "generic_rank": generic_rank,
            "kernel_dim": kernel_dim,
            "gauge_rank": system.gauge_rank,
            "ansatz_variables": len(named_labels),
            "ansatz_rank": len(named_labels) - dim_named,
        },
    )
    _check_against_constructor(desc, affine)
    return desc


def _free_parameters(
    solver: LinearSolver, labels: list[tuple],
) -> tuple[list[tuple], dict, dict]:
    """Canonical free parameters of ``solver``'s system and its solutions.

    The pins are the greedy rank-increasing ``labels``.  Returns the pins,
    the solution with every pin 0, and per pin the solution with that pin 1
    and the others 0.  Each solution solves a copy of ``solver`` with the pin
    rows added; ``solver`` itself is left as it was.  Stored rows are never
    modified, so the copies share them instead of eliminating the system
    again, and each ``solve`` still re-verifies against every original row,
    the system's and the pins'.  The one-label pin rows {label: 1} are
    ``int`` rows, so they are tested (``_spans_integer``) and added
    (``_add_integer``) through the integer entry, uncleared.
    """
    pinned = solver.copy()
    pins = []
    for label in labels:
        pin = {label: 1}
        if not pinned._spans_integer(pin):
            pinned._add_integer(pin, 0)
            pins.append(label)
    directions = {}
    for one in pins:
        direction = solver.copy()
        for label in pins:
            direction._add_integer({label: 1}, int(label == one))
        directions[one] = direction.solve()
    return pins, pinned.solve(), directions


def _check_against_constructor(desc: FamilyDescription,
                               affine: dict) -> None:
    """The solve must match ``make_blown_plane``'s member
    (``_constructor_member``).

    ``desc``'s free parameters and ``parameter_dim`` must be the member's
    free coefficients.  The named labels' values there, read off ``affine``
    (the terms the relations are written from) and put into ``_ansatz``,
    must give exactly the member's (A, B, C, D) less [X] mu.
    """
    free, coefficients = _constructor_member(desc.p, desc.nontrivial)
    values = dict(free)
    names = tuple(values)
    if desc.free_parameters != names or desc.parameter_dim != len(names):
        raise AssertionError(
            f"family free parameters {list(desc.free_parameters)} differ "
            f"from the constructor's {list(names)}"
        )
    got: dict = {}
    ansatz = _ansatz(desc.p, desc.ansatz_bound, int(desc.nontrivial))
    for prefix, (_, named) in ansatz.items():
        for label, e, sign in named:
            value = sum(c * values[name] if name else c
                        for c, name in affine[label])
            got[prefix, e] = got.get((prefix, e), 0) + sign * value
    if frozenset((k, v) for k, v in got.items() if v) != coefficients:
        raise AssertionError(
            "family relations differ from the constructor member at "
            + ", ".join(f"{name} = {v}" for name, v in free)
        )


# one entry per (p, nontrivial); the family solver's grid gives two per p
@lru_cache(maxsize=16)
def _constructor_member(p: int, nontrivial: bool) -> tuple[tuple, frozenset]:
    """``make_blown_plane``'s member at c0 = 1 and R0 = 5 where it takes them
    nonzero (they are free), else 0, validated once.

    Kept are the (name, value) of each free coefficient and the ((prefix,
    exponent), value) of each nonzero coefficient of (A, B, C, D) less
    [X] mu: (A, B) is the (W1, W2) entry and mu^(p+m) (C - A, D - B) the
    (W2, W3) one.  The spec is ``make_blown_plane``'s shared read-only
    value; only these numbers are kept here.
    """
    free = []
    for name, value in (("c0", 1), ("R0", 5)):
        try:
            make_blown_plane(_TWIST, p, nontrivial=nontrivial,
                             **{name.lower(): value})
        except ValueError:
            continue
        free.append((name, Fraction(value)))
    spec = make_blown_plane(_TWIST, p, nontrivial=nontrivial,
                            **{name.lower(): v for name, v in free})
    report = validate_double_scheme(spec)
    if not report.ok:
        raise AssertionError(
            f"instantiated family member invalid: {report.failures}"
        )
    a, b = spec.D.data[("W1", "W2")]
    c, d = (f.mul_monomial((0, -p - _TWIST)) + g
            for f, g in zip(spec.D.data[("W2", "W3")], (a, b)))
    coefficients = set()
    for (prefix, (fixed, _)), poly in zip(
            _ansatz(p, 0, int(nontrivial)).items(), (a, b, c, d)):
        coefficients.update(((prefix, e), v)
                            for e, v in (poly - LaurentPoly(2, fixed)).items())
    return tuple(free), frozenset(coefficients)
