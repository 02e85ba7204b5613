"""Oracles that only the tests call, built on the public ``pms`` API.

* ``transition_endomorphism`` is a double scheme's order-two transition
  morphism on one chart pair, and ``lift_double`` collects them on the
  consecutive pairs, as input for the blow-up and transition tests;
* ``two_cocycle_failures`` checks the untwisted 2-cocycle identity that cup
  products must satisfy;
* ``field_directions`` spans the ring-stable fields of one degree on a
  two-variable chart ring, from which the tests draw chart fields, and
  ``moved`` plants such fields as a coboundary on a double structure;
* ``is_good_principal`` is the one-variable goodness criterion for a
  principal ideal;
* ``truncate_morphism`` cuts a ring morphism down to a lower order, so the
  tests can check that each order of the truncated calculus reads only the
  orders below it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from pms.atlas import (
    Atlas,
    DoubleSchemeSpec,
    VectorFieldCocycle,
    canonical_spanning_pairs,
    derive_mult,
    derive_vector_field,
)
from pms.blowup import TransitionSpec
from pms.cohomology import TwoCocycle
from pms.laurent_core import LaurentPoly
from pms.truncated_ring import (
    RingMorphism,
    TruncElement,
    identity_morphism,
    truncate_down,
)


def transition_endomorphism(spec: DoubleSchemeSpec, i: str, j: str) -> RingMorphism:
    """Order-two endomorphism: v -> v + D_ij(v) t, t -> alpha_ij t."""
    atlas = spec.atlas
    if atlas.truncation_order != 2:
        raise ValueError("transition endomorphisms need truncation order 2")
    nvars = atlas.nvars
    if i == j:
        return identity_morphism(2, nvars)
    alpha_full = derive_mult(atlas, spec.alpha)
    comps = derive_vector_field(atlas, spec.alpha, spec.D)[(i, j)]
    images = tuple(
        TruncElement(2, (LaurentPoly.var(nvars, v), comps[v]))
        for v in range(nvars)
    )
    eps = TruncElement(1, (alpha_full[(i, j)],))
    return RingMorphism(2, images, eps)


def lift_double(spec: DoubleSchemeSpec) -> TransitionSpec:
    """The order-two transition morphisms of a double scheme."""
    return TransitionSpec(spec.atlas, {
        (i, j): transition_endomorphism(spec, i, j)
        for i, j in canonical_spanning_pairs(spec.atlas)
    })


def two_cocycle_failures(atlas: Atlas, t: TwoCocycle) -> list[str]:
    """Violations of the untwisted 2-cocycle identity on quadruples."""
    out = []
    names = atlas.chart_names()
    for a, b, c, d in itertools.combinations(names, 4):
        acc = (
            t.data[(b, c, d)]
            - t.data[(a, c, d)]
            + t.data[(a, b, d)]
            - t.data[(a, b, c)]
        )
        if not acc.is_zero():
            out.append(f"quadruple ({a},{b},{c},{d})")
    return out


def is_good_principal(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Goodness of the principal ideal (f + g*t) on a one-variable chart.

    The reduced part must vanish to order exactly one at the origin; the
    t-coefficient must not vanish there.
    """
    if f.nvars != 1 or g.nvars != 1:
        raise ValueError("the principal criterion works on one variable")
    if g.constant_coefficient() == 0:
        raise ValueError("the t-coefficient must not vanish at the point")
    if f.is_zero() or f.constant_coefficient() != 0:
        raise ValueError(
            "the reduced part must vanish at the point (and not identically)"
        )
    orders = [e for (e,), _ in f.items()]
    if min(orders) < 0:
        raise ValueError("the reduced part must be regular at the point")
    return min(orders) == 1


def truncate_morphism(theta: RingMorphism, order: int) -> RingMorphism:
    """``theta`` with its variable images cut to ``order`` and epsilon to
    ``order - 1``."""
    if not 2 <= order <= theta.order:
        raise ValueError("bad truncation order")
    return RingMorphism(
        order,
        tuple(truncate_down(img, order) for img in theta.variable_images),
        truncate_down(theta.epsilon, order - 1),
    )


def field_directions(ring, weight):
    """The (a, b) with x^w (a x0 d/dx0 + b x1 d/dx1) preserving ``ring``.

    Independent reimplementation of the weight-piece null space: the
    generators g with g + w outside the ring must all be parallel, and
    (a, b) is then orthogonal to them.
    """
    rows = [
        g for g in ring.generators
        if not ring.contains((g[0] + weight[0], g[1] + weight[1]))
    ]
    if not rows:
        return [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    first = rows[0]
    if any(first[0] * g[1] != first[1] * g[0] for g in rows[1:]):
        return []
    return [(Fraction(first[1]), Fraction(-first[0]))]


def moved(base: DoubleSchemeSpec, tau, fields) -> DoubleSchemeSpec:
    """tau * D + (T_i - alpha_ij T_j) on the spanning pairs of ``base``."""
    alpha = derive_mult(base.atlas, base.alpha)
    d = derive_vector_field(base.atlas, base.alpha, base.D)
    data = {
        (i, j): tuple(
            d[(i, j)][v].scale(tau) + fields[i][v]
            - alpha[(i, j)] * fields[j][v]
            for v in range(2)
        )
        for i, j in canonical_spanning_pairs(base.atlas)
    }
    return DoubleSchemeSpec(base.atlas, base.alpha, VectorFieldCocycle(data))
