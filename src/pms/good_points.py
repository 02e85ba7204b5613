"""Good zero-dimensional subschemes at the marked chart origin.

A good point is an ideal ``(y_1 + a_1 t, y_2 + a_2 t)`` on the distinguished
affine chart of the plane, where the ``y_r`` cut out the chart origin with
independent differentials.  Its invariant is the tangent vector of
``sum(a_r d/dy_r)`` at the origin, carried in a fixed symbolic frame for the
nilpotent direction; only differences and subspace membership of these
vectors are ever consumed.

The evaluation subspace H(m) is the image at the origin of the global
sections of the tangent bundle twisted by degree ``m``, computed from the
three-homogeneous-component presentation with its rescaling relation.  The
blow-up comparison of two good points tests the invariant difference against
H(m) (nontrivial ambient structure) or compares the images in the quotient
by H(m) up to scale (trivial, normalized ambient structure).
"""

from __future__ import annotations

from fractions import Fraction

from .atlas import DoubleSchemeSpec, canonical_spanning_pairs, derive_mult
from .cohomology import coboundary_solve
from .laurent_core import (
    ExponentMonoid,
    LaurentPoly,
    Rational,
    Record,
    poly_in_ring,
)
from .linear import LinearSolver, check_bound, in_span, rank_of_vectors

POINT_RING = ExponentMonoid(2, ((0, 1), (1, 1)))
FRAME_TAG = "t-frame at the chart origin"
STANDARD_COORDS = (
    LaurentPoly.monomial(2, (0, 1)),
    LaurentPoly.monomial(2, (1, 1)),
)

Section = dict[tuple[int, tuple[int, int, int]], Fraction]


class GoodPoint(Record):
    """The ideal (y_1 + a_1 t, y_2 + a_2 t) at the origin of the chart U2."""

    __slots__ = ("coords", "coeffs")

    def __init__(self, coords: tuple[LaurentPoly, LaurentPoly],
                 coeffs: tuple[LaurentPoly, LaurentPoly]):
        self._fill(tuple(coords), tuple(coeffs))
        if len(self.coords) != 2 or len(self.coeffs) != 2:
            raise ValueError("a good point needs two coordinates and two "
                             "coefficients")
        for p in self.coords + self.coeffs:
            if p.nvars != 2:
                raise ValueError("good-point data must use two variables")
            if not poly_in_ring(p, POINT_RING):
                raise ValueError(
                    "good-point data must lie in the chart ring"
                )
        for y in self.coords:
            if y.constant_coefficient() != 0:
                raise ValueError("coordinates must vanish at the origin")
        if _jacobian_det(self.coords) == 0:
            raise ValueError(
                "coordinate differentials are not independent at the origin"
            )


def _linear_parts(coords) -> list[list[Rational]]:
    """Rows d(y_r) in the chart coordinate frame at the origin."""
    return [
        [y.coefficient((0, 1)), y.coefficient((1, 1))] for y in coords
    ]


def _jacobian_det(coords) -> Rational:
    j = _linear_parts(coords)
    return j[0][0] * j[1][1] - j[0][1] * j[1][0]


def standard_good_point(a1, a2) -> GoodPoint:
    """The good point with standard coordinates and constant coefficients."""
    def lift(value) -> LaurentPoly:
        if isinstance(value, LaurentPoly):
            return value
        return LaurentPoly.const(2, value)

    return GoodPoint(STANDARD_COORDS, (lift(a1), lift(a2)))


def delta_invariant(z: GoodPoint) -> tuple[Rational, Rational]:
    """Tangent vector of sum(a_r d/dy_r) at the origin, in the chart frame
    (the fiber frame ``FRAME_TAG``, the same for every good point)."""
    j = _linear_parts(z.coords)
    det = _jacobian_det(z.coords)
    a1, a2 = (a.constant_coefficient() for a in z.coeffs)
    return (
        (j[1][1] * a1 - j[0][1] * a2) / det,
        (j[0][0] * a2 - j[1][0] * a1) / det,
    )


# -- evaluation subspace -------------------------------------------------


def _degree_monomials(d: int) -> list[tuple[int, int, int]]:
    if d < 0:
        return []
    return [
        (i, j, d - i - j)
        for i in range(d + 1)
        for j in range(d + 1 - i)
    ]


def sections_TL(m: int) -> list[Section]:
    """A basis of global tangent fields twisted by degree ``m``.

    Sections are triples of degree-(m+1) homogeneous components modulo the
    rescaling relation; each basis element is returned as a sparse mapping
    from (component, exponent) to its coefficient.
    """
    solver = LinearSolver()
    for g in _degree_monomials(m):
        row: Section = {}
        for slot in range(3):
            e = list(g)
            e[slot] += 1
            row[(slot, tuple(e))] = Fraction(1)
        solver.add_equation(row, 0)
    basis: list[Section] = []
    for slot in range(3):
        for e in _degree_monomials(m + 1):
            before = solver.rank
            solver.add_equation({(slot, e): Fraction(1)}, 0)
            if solver.rank > before:
                basis.append({(slot, e): Fraction(1)})
    return basis


def _evaluate_section(sec: Section, m: int) -> dict[int, Fraction]:
    """Value of a section at the chart origin, in the tangent frame."""
    target = (0, 0, m + 1)
    out = {}
    for v in range(2):
        c = sec.get((v, target), Fraction(0))
        if c:
            out[v] = c
    return out


def h_lp(m: int) -> tuple[tuple[Rational, Rational], ...]:
    """A basis of the evaluation subspace H(m) inside the two-dim fiber."""
    kept: list[dict[int, Fraction]] = []
    solver = LinearSolver()
    for sec in sections_TL(m):
        vec = _evaluate_section(sec, m)
        solver.add_equation(vec, 0)
        if solver.rank > len(kept):
            kept.append(vec)
    return tuple(
        (vec.get(0, Fraction(0)), vec.get(1, Fraction(0))) for vec in kept
    )


# -- the blow-up comparison ---------------------------------------------


def bundle_degree(spec: DoubleSchemeSpec) -> int:
    """The twist degree read off the first transition monomial."""
    full = derive_mult(spec.atlas, spec.alpha)
    first = canonical_spanning_pairs(spec.atlas)[0]
    exp, coeff = full[first].as_monomial()
    if coeff != 1 or any(exp[1:]):
        raise ValueError(
            "the bundle cocycle is not in the standard one-variable form"
        )
    return -exp[0]


def _sparse(vec) -> dict[int, Fraction]:
    return {i: Fraction(c) for i, c in enumerate(vec) if c}


def blowup_iso_decide(
    z: GoodPoint, zp: GoodPoint, spec: DoubleSchemeSpec, bound: int = 6
) -> bool:
    """Whether blowing up the two good points yields isomorphic schemes.

    Nontrivial ambient structure: the invariant difference must lie in H(m).
    Trivial ambient structure (derivation data normalized to zero): the two
    images in the quotient by H(m) must span the same line (or both vanish).
    """
    check_bound(2, bound)  # the trivial case below searches no box
    d1, d2 = delta_invariant(z), delta_invariant(zp)
    m = bundle_degree(spec)
    h = [_sparse(vec) for vec in h_lp(m)]
    trivial = all(
        all(c.is_zero() for c in comps) for comps in spec.D.data.values()
    )
    if not trivial:
        witness, _report = coboundary_solve(spec, bound=bound)
        if witness is not None:
            raise ValueError(
                "trivial double scheme in non-normalized form: change the "
                "trivializations so the derivation data vanishes"
            )
        diff = {
            i: d1[i] - d2[i]
            for i in range(2)
            if d1[i] != d2[i]
        }
        return in_span(diff, h)
    v1, v2 = _sparse(d1), _sparse(d2)
    in1, in2 = in_span(v1, h), in_span(v2, h)
    if in1 != in2:
        return False
    if in1:
        return True
    return rank_of_vectors(h + [v1, v2]) == rank_of_vectors(h) + 1
