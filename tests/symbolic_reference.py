"""The ``SymPoly`` expander: the independent reference for ``term_rows``.

``pms.linear.term_rows`` reads the rows of term-form conditions off
exponents.  ``symbolic_rows`` expands the same conditions with ``SymPoly``,
a Laurent polynomial whose coefficients are affine in named unknowns, term
by term, and reads each coefficient outside the ring as one row.  The tests
compare the two.

``twisted_conditions`` states the twisted difference of the cohomology
solvers in that term form, the twisted F_j a term list with shifts and
products; ``pms.cohomology._twisted_difference`` states it directly as the
split structure and values, and the tests compare it with
``split_conditions`` of these conditions.

``symbolic_carpet`` is the ribbon of ``pms.p2_catalog`` with alpha the
invertible variable al, adjoined to the blown-plane atlas as a third
variable.  It is built from the catalog's two-variable answers only: the
ribbon's data is affine in alpha, so its field is D(0) + al (D(1) - D(0)).
The tests check ``carpet_obstruction("symbolic", ...)`` against it, and run
the atlas and validation code on three variables with it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping

from pms.atlas import (
    Atlas,
    Chart,
    DoubleSchemeSpec,
    MultCocycle,
    VectorFieldCocycle,
    canonical_spanning_pairs,
)
from pms.cohomology import calibrate_residue
from pms.laurent_core import Exponent, ExponentMonoid, LaurentPoly
from pms.linear import Row, Var
from pms.p2_catalog import SYMBOL, beta_table, build_carpet, make_wcover_atlas


def symbolic_rows(nvars: int, conditions: Iterable[tuple],
                  comps: Mapping[tuple, SymPoly]) -> list[tuple[Row, Fraction]]:
    """The rows of ``conditions`` with each F_prefix the ``SymPoly``
    ``comps[prefix]``, expanded term by term."""
    rows = []
    for ring, known, terms, scalars in conditions:
        poly = SymPoly.wrap(LaurentPoly(nvars, known))
        for prefix, shift, c in terms:
            poly = poly + comps[prefix].shifted(shift, c)
        if scalars:
            poly = poly + SymPoly.combination(nvars, scalars)
        rows += poly.membership_rows(ring)
    return rows


def twisted_conditions(atlas, fields: dict, twist_full, target_full,
                       extra=()) -> Iterator[tuple]:
    """F_i - twist_ij F_j + sum_s c_s K_s = target on spanning pairs.

    ``fields[chart][v]`` is the component v of F_chart as (terms, scalars)
    in the term form of ``pms.linear``; ``extra`` lists pairs (label,
    K) of an unknown scalar c_s and its known ordered-pair family.  Twist
    entries must be monomials.
    """
    for pair in canonical_spanning_pairs(atlas):
        i, j = pair
        exp_a, coeff_a = twist_full[pair].as_monomial()
        for v in range(atlas.nvars):
            terms_i, scalars_i = fields[i][v]
            terms_j, scalars_j = fields[j][v]
            yield (
                None,
                {f: -c for f, c in target_full[pair][v].items()},
                terms_i + tuple(
                    (prefix, tuple(map(add, shift, exp_a)), -coeff_a * c)
                    for prefix, shift, c in terms_j
                ),
                scalars_i + tuple(
                    (label, {tuple(map(add, e, exp_a)): -coeff_a * c
                             for e, c in poly.items()})
                    for label, poly in scalars_j
                ) + tuple((label, known[pair][v]) for label, known in extra),
            )


def padded(poly: LaurentPoly) -> LaurentPoly:
    """``poly`` in the variables (lam, mu, al), constant in al."""
    return LaurentPoly(3, {e + (0,): c for e, c in poly.items()})


def padded_bundle(bundle: MultCocycle) -> MultCocycle:
    return MultCocycle(bundle.name, {pair: padded(entry)
                                     for pair, entry in bundle.data.items()})


def _with_symbol(ring: ExponentMonoid) -> ExponentMonoid:
    """``ring`` with al and its inverse adjoined."""
    return ExponentMonoid(3, tuple(g + (0,) for g in ring.generators)
                          + ((0, 0, 1), (0, 0, -1)))


def symbolic_wcover_atlas() -> Atlas:
    """The blown-plane atlas with the invertible variable al adjoined; the
    residue scale is calibrated on the padded unit class beta(1, 0)."""
    plain = make_wcover_atlas()
    atlas = Atlas(
        variables=plain.variables + (SYMBOL,),
        truncation_order=plain.truncation_order,
        charts=tuple(Chart(ch.name, _with_symbol(ch.ring))
                     for ch in plain.charts),
        overlaps={k: _with_symbol(r) for k, r in plain.overlaps.items()},
        frames={n: padded(f) for n, f in plain.frames.items()},
    )
    return atlas._replace(residue_scale=calibrate_residue(
        atlas, padded_bundle(beta_table(1, 0))
    ))


def symbolic_carpet(trivial: bool = False) -> DoubleSchemeSpec:
    """The ribbon with alpha = al: field D(0) + al (D(1) - D(0)) and no al
    component, bundle the padded twist.  D(2) = 2 D(1) - D(0) is asserted
    entry by entry, so the catalog's ribbon is checked to be affine in
    alpha."""
    d0, d1, d2 = (build_carpet(a, trivial).D.data for a in (0, 1, 2))
    zero = LaurentPoly.zero(3)
    data = {}
    for pair, comps in d0.items():
        entry = []
        for c0, c1, c2 in zip(comps, d1[pair], d2[pair]):
            assert c2 == c1 + c1 - c0, pair
            entry.append(padded(c0) + padded(c1 - c0).mul_monomial((0, 0, 1)))
        data[pair] = (*entry, zero)
    return DoubleSchemeSpec(
        symbolic_wcover_atlas(),
        padded_bundle(build_carpet(0, trivial).alpha),
        VectorFieldCocycle(data),
    )


def _add_into(row: Row, label: Var, coeff: Fraction) -> None:
    """row[label] += coeff, dropping the entry when it cancels."""
    old = row.get(label)
    if old is None:
        row[label] = coeff
    elif total := old + coeff:
        row[label] = total
    else:
        del row[label]


class SymPoly:
    """Laurent polynomial whose coefficients are affine in named unknowns.

    ``table`` maps an exponent to its linear part {label: coefficient};
    ``const`` holds the known part.  Instances are immutable, and rows of
    ``table`` may be shared between instances, so no row is changed in place.
    """

    __slots__ = ("nvars", "table", "const")

    def __init__(self, nvars: int, table: dict[Exponent, Row] | None = None,
                 const: LaurentPoly | None = None):
        self.nvars = nvars
        self.table = table if table is not None else {}
        self.const = const if const is not None else LaurentPoly.zero(nvars)

    @classmethod
    def unknown(cls, nvars: int, prefix: tuple, exps) -> SymPoly:
        """One unknown coefficient, labelled ``prefix + (e,)``, per exponent e."""
        return cls(nvars, {e: {prefix + (e,): 1} for e in exps})

    @classmethod
    def combination(cls, nvars: int, pairs) -> SymPoly:
        """The sum of unknown scalars (labels) times known polynomials."""
        table: dict[Exponent, Row] = {}
        for label, poly in pairs:
            for e, c in poly.items():
                _add_into(table.setdefault(e, {}), label, c)
        return cls(nvars, table)

    @classmethod
    def wrap(cls, poly: LaurentPoly) -> SymPoly:
        return cls(poly.nvars, {}, poly)

    def shifted(self, exp: Exponent, coeff: Fraction | int) -> SymPoly:
        """This polynomial times the monomial coeff * x^exp (coeff nonzero)."""
        table = {
            tuple(map(add, e, exp)): {label: c * coeff for label, c in row.items()}
            for e, row in self.table.items()
        }
        return SymPoly(self.nvars, table, self.const.mul_monomial(exp, coeff))

    def __add__(self, other: SymPoly) -> SymPoly:
        table = dict(self.table)
        for e, row in other.table.items():
            mine = table.get(e)
            if mine is None:
                table[e] = row
                continue
            merged = dict(mine)
            for label, c in row.items():
                _add_into(merged, label, c)
            table[e] = merged
        return SymPoly(self.nvars, table, self.const + other.const)

    def membership_rows(
        self, ring: ExponentMonoid | None = None,
    ) -> Iterator[tuple[Row, Fraction]]:
        """Rows forcing every coefficient outside ``ring`` to vanish.

        Without a ring, every coefficient must vanish.
        """
        # the right-hand side is almost always zero: negate only stored terms
        rhs = {f: -c for f, c in self.const.items()}
        for f in sorted(rhs.keys() | self.table.keys()):
            if ring is None or not ring.contains(f):
                yield dict(self.table.get(f, {})), rhs.get(f, 0)
