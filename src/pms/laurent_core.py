"""Exact sparse Laurent polynomials and finitely generated exponent monoids.

A Laurent polynomial is stored as integer numerators over one common
denominator: a mapping from integer exponent vectors (one entry per variable)
to nonzero ``int`` numerators, and one positive ``int`` denominator, the
layout of FLINT's ``fmpq_poly``.  All arithmetic is exact over the rationals,
and products and sums of integral polynomials (the common case) touch no
denominator at all.  The canonical term order is lexicographic on exponent
vectors; the public accessors return each coefficient as a ``Fraction``.

Canonical form: every key of the term dict is a tuple of ``nvars`` ints,
every value is a nonzero ``int``, the denominator is an ``int`` > 0, and
``gcd(denominator, *numerators) == 1``; the zero polynomial has no terms and
denominator 1.  Each polynomial therefore has exactly one form, and
``__eq__`` and ``__hash__`` compare ``(nvars, denominator, terms)``.
Coefficients enter only through ``_rational``, which takes an ``int`` or a
``Fraction`` and refuses floats and bools.  Public input goes through
``LaurentPoly.__init__``, which checks and normalizes it.  The arithmetic
methods build numerator dicts over a common denominator and wrap them with
the internal ``LaurentPoly._wrap``, which skips re-normalization and
therefore accepts only canonical data; ``_reduced`` divides out the common
factor first where one can appear, and is free when the denominator is 1.
A zero operand of a sum, difference, product or monomial multiple returns at
once, before any dict is built: the result is the other operand, its
negation or a zero, and since values are immutable it may be an operand.

``Packing`` and ``PackedSeries`` are the packed form of the truncated
calculus, kept beside the representation they read (see ``truncated_ring``).

A chart ring is described by the monoid of exponents it contains, given by a
finite generator list.  Membership of an exponent vector e is decided through
the cone and lattice view of affine monoids (Bruns-Gubeladze, "Polytopes,
Rings, and K-Theory", ch. 2).  By Caratheodory's theorem e lies in the real
cone of the generators iff e = sum(l_i b_i) with l_i >= 0 for some linearly
independent generator subset b of full rank; if no such subset exists, e is
not in the monoid.  Nor is e when it lies off the lattice the generators
span, tested by reduction against their Hermite normal form.  Otherwise the
residue e - sum(floor(l_i) b_i) is an integer point of the half-open
parallelepiped of b, a finite set; if it is zero, or the bounded search below
finds it in the monoid, e is in the monoid, with the residue's coefficients
plus floor(l) as witness.  These answers are exact, and every yes carries a
non-negative integer witness.  When no residue is found in the monoid, the
bounded search on e decides: it accepts e iff e is a non-negative integer
combination of the generators with coefficients at most B, where B is the sum
of the absolute values of all generator and target components plus 4.  Only
this fallback can miss a member, one that needs a larger coefficient; for the
cone-like monoids used here the bound is large enough.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import add, attrgetter, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

Exponent = tuple[int, ...]
Rational = Fraction

MEMBERSHIP_SLACK = 4


def format_rational(q: Rational | int) -> str:
    """Render a rational as ``"n/d"`` with an explicit denominator."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse ``"n/d"`` or a plain integer string into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {text!r}: {exc}") from exc


class LaurentPoly:
    """An exact sparse Laurent polynomial in a fixed number of variables.

    Integer numerators over one denominator, always in canonical form (see
    the module docstring).
    """

    # ``_hash`` is filled in by the first ``__hash__`` call
    __slots__ = ("nvars", "_terms", "_den", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Rational] | None = None):
        _check_nvars(nvars)
        split = [
            (_exponent(exp, nvars), *_rational(coeff))
            for exp, coeff in (terms or {}).items()
        ]
        den = math.lcm(*(d for _, _, d in split))
        nums: dict[Exponent, int] = {}
        for exp, num, d in split:
            nums[exp] = nums.get(exp, 0) + num * (den // d)
        nums, den = _reduced({e: c for e, c in nums.items() if c}, den)
        _set_nvars(self, nvars)
        _set_terms(self, nums)
        _set_den(self, den)

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[Exponent, int], den: int = 1) -> LaurentPoly:
        """Internal: take ownership of ``terms`` over ``den``, which must be
        canonical."""
        poly = object.__new__(cls)
        _set_nvars(poly, nvars)
        _set_terms(poly, terms)
        _set_den(poly, den)
        return poly

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> LaurentPoly:
        _check_nvars(nvars)
        return LaurentPoly._wrap(nvars, {})

    @staticmethod
    def const(nvars: int, value: Rational | int) -> LaurentPoly:
        _check_nvars(nvars)
        num, den = _rational(value)
        if not num:
            return LaurentPoly._wrap(nvars, {})
        return LaurentPoly._wrap(nvars, {(0,) * nvars: num}, den)

    @staticmethod
    def monomial(nvars: int, exp: Iterable[int], coeff: Rational | int = 1) -> LaurentPoly:
        return LaurentPoly(nvars, {tuple(exp): coeff})

    @staticmethod
    def var(nvars: int, index: int) -> LaurentPoly:
        exp = [0] * nvars
        exp[index] = 1
        return LaurentPoly(nvars, {tuple(exp): 1})

    # -- basic queries --------------------------------------------------

    def items(self) -> Iterator[tuple[Exponent, Rational]]:
        """Iterate terms in the canonical (lexicographic) order."""
        den = self._den
        return ((e, _fraction(c, den)) for e, c in sorted(self._terms.items()))

    def support(self) -> set[Exponent]:
        return set(self._terms)

    def coefficient(self, exp: Iterable[int]) -> Rational:
        return _fraction(self._terms.get(_exponent(exp, self.nvars), 0), self._den)

    def constant_coefficient(self) -> Rational:
        return _fraction(self._terms.get((0,) * self.nvars, 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def as_monomial(self) -> tuple[Exponent, Rational] | None:
        """Return (exponent, coefficient) if this is a single term, else None."""
        mono = self._monomial()
        return None if mono is None else (mono[0], _fraction(*mono[1:]))

    def _monomial(self) -> tuple[Exponent, int, int] | None:
        """``as_monomial`` as (exponent, numerator, denominator), no Fraction."""
        if len(self._terms) != 1:
            return None
        [(exp, num)] = self._terms.items()
        return exp, num, self._den

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.nvars == other.nvars
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(
                (self.nvars, self._den, tuple(sorted(self._terms.items())))
            )
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        names = _default_names(self.nvars)
        parts = []
        for exp, coeff in self.items():
            mono = monomial_str(exp, names)
            if mono == "1":
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        return out

    # -- arithmetic -----------------------------------------------------

    def _check_same(self, other: LaurentPoly) -> None:
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        self._check_same(other)
        return self._combined(other, 1)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        self._check_same(other)
        return self._combined(other, -1)

    # 10 cocycle-search rounds (seed 5, after the warm-up and 60) give 7,435
    # of 11,640 products a zero factor, 15,633 of 18,750 sums and differences
    # and 4,145 of 9,388 ``_times`` calls a zero operand; each returns at once
    def _combined(self, other: LaurentPoly, sign: int) -> LaurentPoly:
        """``self + sign * other`` over the lcm of the two denominators."""
        if not other._terms:
            return self
        if not self._terms:
            return other if sign == 1 else -other
        den, db = self._den, other._den
        if den == db:
            terms, factor = dict(self._terms), sign
        else:
            den = math.lcm(den, db)
            scale = den // self._den
            terms = {e: c * scale for e, c in self._terms.items()}
            factor = sign * (den // db)
        for exp, coeff in other._terms.items():
            coeff *= factor
            old = terms.get(exp)
            if old is None:
                terms[exp] = coeff
            elif total := old + coeff:
                terms[exp] = total
            else:
                del terms[exp]
        return LaurentPoly._wrap(self.nvars, *_reduced(terms, den))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._wrap(
            self.nvars, {e: -c for e, c in self._terms.items()}, self._den
        )

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        """The product loop of the polynomial layer; the truncated calculus
        has its own packed loop (``PackedSeries.add_product``).  The
        numerators multiply as ``int``s over the product of the
        denominators, and the result is reduced once, and not at all when
        both factors are integral."""
        self._check_same(other)
        if not (self._terms and other._terms):
            return other if self._terms else self
        terms: dict[Exponent, int] = {}
        b_terms = other._terms.items()
        for e1, c1 in self._terms.items():
            for e2, c2 in b_terms:
                exp = tuple(map(add, e1, e2))
                old = terms.get(exp)
                terms[exp] = c1 * c2 if old is None else old + c1 * c2
        return LaurentPoly._wrap(self.nvars, *_reduced(
            {e: c for e, c in terms.items() if c}, self._den * other._den
        ))

    def scale(self, factor: Rational | int) -> LaurentPoly:
        return self._times(None, *_rational(factor))

    def mul_monomial(self, exp: Iterable[int], coeff: Rational | int = 1) -> LaurentPoly:
        return self._times(_exponent(exp, self.nvars), *_rational(coeff))

    def _times(self, shift: Exponent | None, num: int, den: int) -> LaurentPoly:
        """``self * (num / den) * x^shift``; ``shift=None`` is no shift."""
        if not num:
            return LaurentPoly._wrap(self.nvars, {})
        if not self._terms:
            return self
        terms = self._terms.items()
        if shift is not None:
            # a shift is injective on exponents, so no two terms collide
            terms = ((tuple(map(add, e, shift)), c) for e, c in terms)
        return LaurentPoly._wrap(
            self.nvars,
            *_reduced({e: c * num for e, c in terms}, self._den * den),
        )

    def power(self, k: int) -> LaurentPoly:
        """Integer power; negative powers only for single monomials."""
        if k == 0:
            return LaurentPoly.const(self.nvars, 1)
        if k < 0:
            mono = self.as_monomial()
            if mono is None:
                raise ValueError("negative powers require a monomial")
            exp, coeff = mono
            return LaurentPoly.monomial(
                self.nvars, tuple(k * e for e in exp), coeff ** k
            )
        out = LaurentPoly.const(self.nvars, 1)
        base = self
        n = k
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def partial_derivative(self, var: int) -> LaurentPoly:
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range")
        terms: dict[Exponent, int] = {}
        for exp, coeff in self._terms.items():
            if exp[var] == 0:
                continue
            new = list(exp)
            new[var] -= 1
            terms[tuple(new)] = coeff * exp[var]
        return LaurentPoly._wrap(self.nvars, *_reduced(terms, self._den))

    def extend_vars(self, nvars: int) -> LaurentPoly:
        """Reinterpret in a larger variable list (new exponents zero)."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable list")
        pad = (0,) * (nvars - self.nvars)
        return LaurentPoly._wrap(
            nvars, {e + pad: c for e, c in self._terms.items()}, self._den
        )


# ``__setattr__`` refuses every write; construction sets the slots through
# their descriptors, which costs about half of ``object.__setattr__``
_set_nvars, _set_terms, _set_den = (
    getattr(LaurentPoly, name).__set__ for name in ("nvars", "_terms", "_den")
)


# -- records ------------------------------------------------------------


class FrozenRecordError(AttributeError):
    """A write to, or deletion of, an attribute of a frozen ``Record``."""


class Record:
    """The base of the value classes of ``pms``, built as ``LaurentPoly`` is:
    a subclass lists its fields in ``__slots__`` (a slot starting with ``_``
    is no field), and its ``__init__`` checks its input and sets them with
    ``_fill``, which keeps them as one tuple ``_key`` too.  Equality compares
    ``_key`` within one class; the hash skips the fields in ``_unhashed``;
    ``repr`` has the dataclass form; ``_replace`` builds a changed copy
    through ``__init__``, so it is validated.  Writes raise
    ``FrozenRecordError``, except on a record declared ``frozen=False``,
    which is unhashable and reads its ``_key`` afresh."""

    __slots__ = ("_key",)
    _unhashed = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(s for s in vars(cls)["__slots__"] if s[0] != "_")
        cls._fields, cls._setters = fields, tuple(getattr(cls, f).__set__ for f in fields)
        if cls._unhashed:
            cls._hashed = attrgetter(*(f for f in fields if f not in cls._unhashed))
            cls.__hash__ = lambda self: hash(self._hashed(self))
        if not frozen:
            get = attrgetter(*fields)  # one field would come back bare
            cls._key = property(get if len(fields) > 1 else lambda r: (get(r),))
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def _fill(self, *values) -> None:
        for put, value in zip(self._setters, values):
            put(self, value)
        _set_key(self, values)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._key), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._key)
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in pairs)})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


_set_key = Record._key.__set__


def _rational(value: Rational | int) -> tuple[int, int]:
    """A coefficient as ``(numerator, denominator)``, denominator > 0.

    The one way coefficients enter a ``LaurentPoly``.  Only an ``int`` or a
    ``Fraction`` is taken: 0.1, 1.0 and True are ValueErrors, where
    ``Fraction()`` would take a float's binary expansion and a bool as 1.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise ValueError(f"coefficient {value!r} is not an int or a Fraction")


def _reduced(terms: dict[Exponent, int], den: int) -> tuple[dict[Exponent, int], int]:
    """Nonzero numerators over ``den`` > 0, with their common factor divided
    out (canonical form).  Free when ``den`` is 1."""
    if den == 1 or not terms:
        return terms, 1
    g = math.gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {e: c // g for e, c in terms.items()}, den // g


def _fraction(num: int, den: int) -> Rational:
    """``num / den`` as a reduced ``Fraction``."""
    return Fraction(num) if den == 1 else Fraction(num, den)


# -- packed truncated series --------------------------------------------


class Packing:
    """One ``int`` key per monomial t^k x^e, ``k * span + sum(e[v] *
    2^(width * v))`` with ``span = 2^(width * nvars)`` (Kronecker
    substitution, as in FLINT's packed ``fmpz_mpoly`` monomials)."""

    __slots__ = ("nvars", "span", "half", "places", "_bias", "_shifts",
                 "_mask", "_low")

    def __init__(self, nvars: int, width: int):
        self.nvars, self.span = nvars, 1 << (width * nvars)
        self.half, self._mask = self.span >> 1, (1 << width) - 1
        self._shifts = tuple(width * v for v in range(nvars))
        self.places = tuple(1 << s for s in self._shifts)
        # adding 2^(width-1) to each digit makes all digits non-negative
        self._low = 1 << (width - 1)
        self._bias = self._low * sum(self.places)

    def pack(self, coeffs: tuple[LaurentPoly, ...]) -> PackedSeries:
        """The element whose coefficient of t^k is ``coeffs[k]``."""
        den = math.lcm(*(c._den for c in coeffs))
        places, terms = self.places, {}
        for k, c in enumerate(coeffs):
            base, scale = k * self.span, den // c._den
            for exp, num in c._terms.items():
                terms[base + sum(map(mul, exp, places))] = num * scale
        return PackedSeries(self, len(coeffs), terms, den)

    def one(self, order: int) -> PackedSeries:
        return PackedSeries(self, order, {0: 1})

    def scalar_terms(self, p: LaurentPoly) -> Iterator[tuple[Exponent, PackedSeries]]:
        """Each term of ``p`` as its exponent and its coefficient as a packed
        constant, in term-dict order."""
        den = p._den
        for exp, num in p._terms.items():
            g = math.gcd(num, den)
            yield exp, PackedSeries(self, 1, {0: num // g}, den // g)

    def decode(self, key: int) -> tuple[int, Exponent]:
        """The t-degree and the exponent vector of a key."""
        x, mask, low = key + self._bias, self._mask, self._low
        return x // self.span, tuple([(x >> s & mask) - low for s in self._shifts])


# the calculus asks for few widths: the warm-up and 20 endo-calculus rounds
# (seed 5) ask for one, with 1 miss and 499 hits
shared_packing = lru_cache(maxsize=64)(Packing)


def numerators(polys: tuple[LaurentPoly, ...]) -> tuple[Mapping[Exponent, int], ...]:
    """Read-only {exponent: numerator} maps of ``polys`` over one common
    denominator, so an ``int`` combination of the maps is zero where the
    same combination of the polys is."""
    den = math.lcm(*(p._den for p in polys))
    return tuple(
        MappingProxyType(p._terms) if p._den == den
        else {e: c * (den // p._den) for e, c in p._terms.items()}
        for p in polys
    )


def largest_exponent(polys: Iterable[LaurentPoly]) -> int:
    """The largest |e[v]| over every exponent of ``polys`` (0 for none)."""
    return max(map(abs, itertools.chain.from_iterable(
        itertools.chain.from_iterable(p._terms for p in polys))), default=0)


class PackedSeries:
    """An element of R[t]/(t^order): ``int`` numerators over ``den``, keyed
    by the ``Packing`` keys of their monomials, all below t^order.  Zero
    numerators and a factor shared with ``den`` may stay until ``finished``
    (``unpack`` is canonical either way); a finished series never changes."""

    __slots__ = ("packing", "order", "terms", "den")

    def __init__(self, packing: Packing, order: int, terms: dict[int, int],
                 den: int = 1):
        self.packing, self.order, self.terms, self.den = packing, order, terms, den

    def add_product(self, a: PackedSeries, b: PackedSeries, shift: int = 0,
                    sign: int = 1) -> None:
        """Add sign * a * b * t^shift below t^order.  The loop of the
        truncated calculus: a term product adds two keys, and one comparison
        with the key limit truncates it."""
        lift = shift * self.packing.span
        room = self.order * self.packing.span - self.packing.half - lift
        factor = sign * self._share(a.den * b.den)
        terms, b_items = self.terms, b.terms.items()
        get = terms.get
        for ka, ca in a.terms.items():
            ca *= factor
            top, ka = room - ka, ka + lift
            for kb, cb in b_items:
                if kb < top:
                    key = ka + kb
                    terms[key] = get(key, 0) + ca * cb

    def _share(self, den: int) -> int:
        """Make ``self.den`` a multiple of ``den``; return their ratio."""
        if self.den % den:
            common = math.lcm(self.den, den)
            scale = common // self.den
            self.terms = {k: c * scale for k, c in self.terms.items()}
            self.den = common
        return self.den // den

    def finished(self) -> PackedSeries:
        """Drop zero numerators and the common factor; return ``self``."""
        self.terms, self.den = _reduced(
            {k: c for k, c in self.terms.items() if c}, self.den)
        return self

    def times(self, other: PackedSeries, order: int) -> PackedSeries:
        """The product in R[t]/(t^order), finished."""
        out = PackedSeries(self.packing, order, {})
        out.add_product(self, other)
        return out.finished()

    def degree(self, k: int, stop: int | None = None) -> PackedSeries:
        """The monomials of t^k, ..., t^(stop-1) (of t^k alone by default),
        keys unchanged."""
        span, half = self.packing.span, self.packing.half
        lo, hi = k * span - half, (k + 1 if stop is None else stop) * span - half
        terms = {key: c for key, c in self.terms.items() if c and lo <= key < hi}
        return PackedSeries(self.packing, self.order, terms, self.den)

    def coefficient(self, k: int) -> LaurentPoly:
        """``unpack()[k]``, decoding the keys of t^k alone."""
        decode = self.packing.decode
        terms = {decode(key)[1]: c for key, c in self.degree(k).terms.items()}
        return LaurentPoly._wrap(self.packing.nvars, *_reduced(terms, self.den))

    def head_inverse(self) -> PackedSeries | None:
        """1/a_0 when the coefficient a_0 of t^0 is a monomial, else None."""
        head = self.degree(0).terms
        if len(head) != 1:
            return None
        [(key, num)] = head.items()
        den, num = (self.den, num) if num > 0 else (-self.den, -num)
        g = math.gcd(num, den)
        return PackedSeries(self.packing, self.order, {-key: den // g}, num // g)

    def unpack(self) -> tuple[LaurentPoly, ...]:
        """The coefficients of t^0, ..., t^(order-1)."""
        parts = [{} for _ in range(self.order)]
        decode = self.packing.decode
        for key, num in self.terms.items():
            if num:
                k, exp = decode(key)
                parts[k][exp] = num
        nvars, den = self.packing.nvars, self.den
        return tuple(LaurentPoly._wrap(nvars, *_reduced(p, den)) for p in parts)


# -- exponent monoids ---------------------------------------------------


def _check_nvars(nvars: int) -> None:
    if nvars < 1:
        raise ValueError("a Laurent polynomial needs at least one variable")


def _exponent(values: Iterable[int], nvars: int) -> Exponent:
    """``values`` as a tuple of ``nvars`` ints.  No entry is coerced: 1.5,
    1.0 and True are ValueErrors, where ``int()`` would truncate 1.5 to 1."""
    exp = tuple(values)
    if len(exp) != nvars:
        raise ValueError(f"exponent {exp} has {len(exp)} entries, not {nvars}")
    for x in exp:
        if type(x) is not int:
            raise ValueError(f"exponent {exp} has a non-integer entry {x!r}")
    return exp


class ExponentMonoid(Record):
    """A finitely generated submonoid of Z^nvars, given by its generators."""

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators: tuple[Exponent, ...]):
        gens = tuple(_exponent(g, nvars) for g in generators)
        if not gens:
            raise ValueError("a monoid needs at least one generator")
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate monoid generators")
        self._fill(nvars, gens)

    def contains(self, exp: Iterable[int]) -> bool:
        return _monoid_contains_cached(
            self.generators, _exponent(exp, self.nvars)
        )

    def _has(self, exp: Exponent) -> bool:
        """``contains`` for internal callers: ``exp`` must already be a tuple
        of ``nvars`` ints (unchecked)."""
        return _monoid_contains_cached(self.generators, exp)

    def extend_vars(self, nvars: int) -> ExponentMonoid:
        """Embed into a larger variable list, adding the new unit directions."""
        if nvars < self.nvars:
            raise ValueError("cannot shrink the variable list")
        pad = (0,) * (nvars - self.nvars)
        gens = [g + pad for g in self.generators]
        for i in range(self.nvars, nvars):
            unit = [0] * nvars
            unit[i] = 1
            gens.append(tuple(unit))
        return ExponentMonoid(nvars, tuple(gens))


def membership_bound(generators: tuple[Exponent, ...], target: Exponent) -> int:
    """Coefficient bound for the complete bounded membership search."""
    total = sum(abs(x) for g in generators for x in g)
    total += sum(abs(x) for x in target)
    return total + MEMBERSHIP_SLACK


# a few thousand distinct queries cover the catalog solvers
@lru_cache(maxsize=8192)
def _monoid_contains_cached(generators: tuple[Exponent, ...], target: Exponent) -> bool:
    return membership_witness(generators, target)[1] is not None


def membership_witness(
    generators: tuple[Exponent, ...], target: Exponent
) -> tuple[str, tuple[int, ...] | None]:
    """How membership of ``target`` is decided, and a witness when it holds.

    Returns ``(branch, coeffs)``: ``coeffs`` are non-negative integers with
    ``sum(c * g) == target``, or ``None`` when the answer is no.  The branch
    is ``"outside_cone"`` or ``"outside_lattice"`` (exact noes), ``"residue"``
    (an exact yes through a simplicial cone) or ``"fallback"`` (the bounded
    search on the target).
    """
    cols, bases, lattice = _cone_bases(generators)
    picked = [target[c] for c in cols]
    solved = [
        (basis, den, [sum(a * x for a, x in zip(row, picked)) for row in inverse])
        for basis, inverse, den in bases
    ]
    basis, den, num = solved[0]
    # every basis spans the same space, so one test finds targets off it
    if _combine(generators, basis, num) != tuple(den * x for x in target):
        return "outside_cone", None
    cones = [entry for entry in solved if min(entry[2], default=0) >= 0]
    if not cones:
        return "outside_cone", None
    if not _in_lattice(lattice, target):
        return "outside_lattice", None
    for basis, den, num in cones:
        floors = [q // den for q in num]
        residue = tuple(
            x - y for x, y in zip(target, _combine(generators, basis, floors))
        )
        witness = _bounded_witness(generators, residue)
        if witness is None:
            continue
        coeffs = list(witness)
        for i, f in zip(basis, floors):
            coeffs[i] += f
        return "residue", tuple(coeffs)
    return "fallback", _bounded_witness(generators, target)


def _combine(
    generators: tuple[Exponent, ...], basis: tuple[int, ...], coeffs: list[int]
) -> Exponent:
    """``sum(c * generators[i])`` over the basis indices ``i``."""
    out = [0] * len(generators[0])
    for i, c in zip(basis, coeffs):
        for v, x in enumerate(generators[i]):
            out[v] += c * x
    return tuple(out)


# one entry per generator set; tier-1 reaches about two hundred sets
@lru_cache(maxsize=1024)
def _cone_bases(generators: tuple[Exponent, ...]):
    """The simplicial cones and the lattice of a generator set.

    Returns ``(cols, bases, lattice)`` for ``membership_witness``.  ``cols``
    are r coordinates on which the span of the generators (rank r) projects
    isomorphically.  ``bases`` lists every linearly independent r-subset of
    the generators as ``(indices, inverse, den)``: the coefficients of a
    target t in the span are ``inverse @ t[cols] / den``, with ``den > 0``.
    By Caratheodory's theorem a point of the cone lies in the cone of one of
    these bases.  ``lattice`` is the Hermite normal form of the generators
    (``_hermite_rows``).
    """
    nvars = len(generators[0])
    # the rank is the size of the largest invertible minor
    for rank in range(min(nvars, len(generators)), -1, -1):
        for cols in itertools.combinations(range(nvars), rank):
            bases = []
            for basis in itertools.combinations(range(len(generators)), rank):
                inverse = _inverse([[generators[i][c] for i in basis] for c in cols])
                if inverse is not None:
                    bases.append((basis,) + inverse)
            if bases:
                return cols, tuple(bases), _hermite_rows(generators)


def _hermite_rows(generators: tuple[Exponent, ...]) -> tuple[tuple[int, Exponent], ...]:
    """The row Hermite normal form of the generators, as ``(pivot, row)`` pairs.

    The rows are a basis of the lattice the generators span: row k is zero
    before its pivot column, its pivot entry is positive, and every row above
    it has an entry in ``[0, pivot entry)`` there.  Integer row operations
    only (Euclid on each column).
    """
    rows = [list(g) for g in generators if any(g)]
    out: list[tuple[int, list[int]]] = []
    for c in range(len(generators[0])):
        active = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(active) > 1:
            active.sort(key=lambda r: abs(r[c]))
            p = active[0]
            kept = [p]
            for r in active[1:]:
                q = r[c] // p[c]
                r = [x - q * y for x, y in zip(r, p)]
                if r[c]:
                    kept.append(r)
                elif any(r):
                    rows.append(r)
            active = kept
        if not active:
            continue
        p = active[0] if active[0][c] > 0 else [-x for x in active[0]]
        for _, r in out:
            q = r[c] // p[c]
            r[:] = [x - q * y for x, y in zip(r, p)]
        out.append((c, p))
    return tuple((c, tuple(r)) for c, r in out)


def _in_lattice(lattice: tuple[tuple[int, Exponent], ...], target: Exponent) -> bool:
    """Whether ``target`` is an integer combination of the Hermite rows."""
    rest = list(target)
    for c, row in lattice:
        q, r = divmod(rest[c], row[c])
        if r:
            return False
        rest = [x - q * y for x, y in zip(rest, row)]
    return not any(rest)


def _inverse(matrix: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """``(A, d)`` with ``A / d`` the inverse of a square integer matrix, ``d > 0``.

    ``None`` when the matrix is singular.  Gauss-Jordan over ``Fraction``.
    """
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    inverse = [row[n:] for row in aug]
    den = math.lcm(*(x.denominator for row in inverse for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in inverse), den


def _bounded_witness(
    generators: tuple[Exponent, ...], target: Exponent
) -> tuple[int, ...] | None:
    """Coefficients at most ``membership_bound`` reaching ``target``, or None.

    A complete depth-first search of the bounded box: it never claims a false
    yes, but it misses members that need a larger coefficient.
    """
    if not any(target):  # the residue of most targets
        return (0,) * len(generators)
    bound = membership_bound(generators, target)
    n = len(target)
    gens = generators
    # Per-coordinate reachability envelopes of the generator suffixes, used to
    # prune the search: after fixing coefficients for gens[:i], the residual
    # must lie inside what gens[i:] can still produce with coefficients <= bound.
    lo = [[0] * n for _ in range(len(gens) + 1)]
    hi = [[0] * n for _ in range(len(gens) + 1)]
    for i in range(len(gens) - 1, -1, -1):
        for v in range(n):
            g = gens[i][v]
            lo[i][v] = lo[i + 1][v] + bound * min(g, 0)
            hi[i][v] = hi[i + 1][v] + bound * max(g, 0)

    seen: set[tuple[int, Exponent]] = set()

    def rec(i: int, residual: Exponent) -> tuple[int, ...] | None:
        if all(x == 0 for x in residual):
            return (0,) * (len(gens) - i)
        if i == len(gens):
            return None
        if any(not lo[i][v] <= residual[v] <= hi[i][v] for v in range(n)):
            return None
        key = (i, residual)
        if key in seen:
            return None
        seen.add(key)
        g = gens[i]
        current = residual
        for k in range(bound + 1):
            found = rec(i + 1, current)
            if found is not None:
                return (k,) + found
            current = tuple(x - y for x, y in zip(current, g))
        return None

    return rec(0, target)


def monoids_equal(a: ExponentMonoid, b: ExponentMonoid) -> bool:
    """Whether two generator presentations span the same monoid."""
    if a.nvars != b.nvars:
        return False
    if a.generators == b.generators:
        return True
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
    )


def minimal_generators(m: ExponentMonoid) -> ExponentMonoid:
    """An irredundant sorted presentation of the same monoid.

    Repeatedly drops any generator that the remaining ones already produce;
    membership never claims a false positive (every yes has a witness), so
    the result generates exactly the same monoid.  It is irredundant wherever
    membership is exact, that is, unless the bounded-search fallback misses a
    member.
    """
    gens = sorted({g for g in m.generators if any(g)})
    if not gens:
        return ExponentMonoid(m.nvars, ((0,) * m.nvars,))
    reduced = True
    while reduced and len(gens) > 1:
        reduced = False
        for g in gens:
            rest = tuple(h for h in gens if h != g)
            if ExponentMonoid(m.nvars, rest).contains(g):
                gens = list(rest)
                reduced = True
                break
    return ExponentMonoid(m.nvars, tuple(gens))


def poly_in_ring(p: LaurentPoly, m: ExponentMonoid) -> bool:
    """Whether every exponent of ``p`` lies in the monoid ``m``."""
    if p.nvars != m.nvars:
        raise ValueError("variable count mismatch between polynomial and monoid")
    return all(m.contains(e) for e in p.support())


def monomial_is_unit(p: LaurentPoly, m: ExponentMonoid) -> bool:
    """Whether ``p`` is a single term invertible inside the monoid ring."""
    mono = p.as_monomial()
    if mono is None:
        return False
    exp, _ = mono
    neg = tuple(-x for x in exp)
    return m.contains(exp) and m.contains(neg)


# -- serialization ------------------------------------------------------


def poly_to_json(p: LaurentPoly) -> list[dict]:
    """Canonical JSON form: term list sorted lexicographically by exponent."""
    return [
        {"coeff": format_rational(c), "exp": list(e)}
        for e, c in p.items()
    ]


def _json_is(value, kind: type) -> bool:
    # bool is an int subclass, but JSON true and false are not integers
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (``true`` and ``false`` are not)."""
    if not _json_is(value, int):
        raise ValueError(f"{what} must be a JSON integer")
    return value


def json_shape(value, kind: type, what: str, item: type = object):
    """``value`` if it is a JSON ``kind`` (list or dict) of ``item`` entries."""
    if not isinstance(value, kind) or not all(_json_is(x, item) for x in value):
        raise ValueError(f"wrong JSON shape for {what}")
    return value


def poly_from_json(data: list, nvars: int) -> LaurentPoly:
    terms: dict[Exponent, Rational] = {}
    for item in json_shape(data, list, "a polynomial term list", dict):
        if "coeff" not in item or "exp" not in item:
            raise ValueError(f"malformed polynomial term {item!r}")
        exp = tuple(json_shape(item["exp"], list, "a term exponent", int))
        if len(exp) != nvars:
            raise ValueError(
                f"term exponent {list(exp)} has {len(exp)} entries, expected {nvars}"
            )
        coeff = parse_rational(str(item["coeff"]))
        if exp in terms:
            raise ValueError(f"duplicate exponent {list(exp)} in term list")
        terms[exp] = coeff
    return LaurentPoly(nvars, terms)


# -- display helpers ----------------------------------------------------


def _default_names(nvars: int) -> tuple[str, ...]:
    base = ("lam", "mu", "al")
    if nvars <= len(base):
        return base[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


def monomial_str(exp: Iterable[int], names: Iterable[str]) -> str:
    """Deterministic display form of a monomial, e.g. ``lam^2*mu^-1``."""
    parts = []
    for e, name in zip(tuple(exp), tuple(names)):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts) if parts else "1"
