"""Exact multivariate polynomials over the rationals, and the term-map core they share with forms.

A polynomial in coordinates v1..vm is a sparse map ``packed`` from monomial
keys to nonzero coefficients, ints or ``fractions.Fraction``, so all
arithmetic is exact; ``terms`` is its decoded view {exponent tuple: coeff}.
Instances are treated as immutable: no operation mutates an existing map.

A key is one int, in the layout ``forms`` shares (``layout``): bits [0, m)
hold a basis mask, 0 for a polynomial, and exponent e_i sits in the 16-bit
field at bit m + 16 i.  Every stored key keeps the top bit of each field, its
guard, clear, so e_i <= EXP_MAX and the sum of two keys never carries from
one field into the next: a monomial product is one int add, a derivative
key - one_i, and ``key & guard`` after an add is an exact overflow test.

``_Terms`` holds such a map with its ``dim`` and ``degree`` and implements,
once, what does not look at the basis mask: sum, difference, negation,
products with a scalar or a polynomial, equality, hash and the zero test.
There is one sum loop, ``_sum_into``, and one product loop, ``_products_into``,
each adding the terms it makes straight into an output dict and dropping a key
whose sum cancels.  ``_Terms._plus`` runs them into a copy of self's map:
self + c other, or self + c other p, so a sum of products builds no product.
``Polynomial`` is its degree-0 case; the forms and multivector fields of
``forms`` are the others.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat
from operator import mul, or_
from typing import Mapping, Union

Coeff = Union[int, Fraction]

EXP_BITS = 16
EXP_MAX = (1 << EXP_BITS - 1) - 1  # 32767: the guard bit above it stays clear


class ExponentOverflow(ValueError):
    """An exponent above EXP_MAX, which the packed key has no room for."""


@lru_cache(maxsize=None)
def layout(dim: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The packed key on R^dim as (fields, guard).

    fields[i] = (shift, one): exponent i is key >> shift & EXP_MAX and key + one
    raises it by 1; guard holds the top bit of every field."""
    fields = tuple((s, 1 << s) for s in range(dim, dim + EXP_BITS * dim, EXP_BITS))
    return fields, sum(one << EXP_BITS - 1 for _, one in fields)


def _pack(dim: int, exps: tuple) -> int:
    """The key of the monomial x^exps (basis mask 0)."""
    if len(exps) != dim:
        raise ValueError(f"exponent vector {exps} has length != {dim}")
    if not all(0 <= e <= EXP_MAX for e in exps):
        raise (ExponentOverflow if max(exps) > EXP_MAX else ValueError)(f"exponents {exps} outside 0..{EXP_MAX}")
    return sum(e << s for e, (s, _) in zip(exps, layout(dim)[0]))


def _guarded(dim: int, terms: dict) -> dict:
    """``terms``, refused if a key has a guard bit set: an exponent-adding kernel went past EXP_MAX."""
    if any(map(layout(dim)[1].__and__, terms)):
        raise ExponentOverflow(f"an exponent exceeds {EXP_MAX}")
    return terms


def _sum_into(out: dict, pieces) -> dict:
    """Add each (key, nonzero c) of ``pieces`` into ``out``; a key whose sum cancels is dropped."""
    get = out.get
    for key, c in pieces:
        s = get(key)
        if s is None:
            out[key] = c
        else:
            s += c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _products_into(dim: int, out: dict, left: dict, right: dict, factor: Coeff = 1) -> dict:
    """Add factor c1 c2 at key1 + key2 into ``out`` for each term of ``left`` and of ``right`` (mask 0).

    Only a product can set a guard bit in ``out``, and none has a field above that field of
    (OR of left) + (OR of right), so ``_guarded`` scans ``out`` only when that bound sets one."""
    bound = reduce(or_, left, 0) + reduce(or_, right, 0)
    right = right.items() if factor == 1 else [(k2, c2 * factor) for k2, c2 in right.items()]
    get = out.get
    for k1, c1 in left.items():
        for k2, c2 in right:
            key, c = k1 + k2, c1 * c2
            s = get(key)
            out[key] = s = c if s is None else s + c
            if not s:
                del out[key]
    return _guarded(dim, out) if bound & layout(dim)[1] else out


def _unscaled(residual, scale: int):
    """``residual`` / ``scale`` for a residual computed ``scale`` times over, divided only when nonzero.

    A residual is zero iff ``scale`` times it is, so an integer ``scale`` clearing the denominators
    keeps a passing check over Z; a failure still reads as the unscaled residual."""
    return residual * Fraction(1, scale) if residual else residual


class _Terms:
    """The arithmetic that polynomials and forms share: one sparse map ``packed``
    {key: nonzero coeff} on R^dim, of one ``degree`` (0 for a polynomial).

    ``*`` takes a scalar or a ``Polynomial`` factor and leaves any other to the
    other operand, so a product of two forms is refused rather than read as a
    product of coefficients.  ``+``, ``-`` and ``*`` check their operands and
    take their fast paths (a zero operand, a difference of equal maps); the sums
    then run ``_plus`` and the product ``_products_into``."""

    __slots__ = ("dim", "degree", "packed")

    @classmethod
    def _raw(cls, dim: int, degree: int, packed: dict):
        """The value whose stored map is ``packed``, taken as is."""
        obj = cls.__new__(cls)
        obj.dim, obj.degree, obj.packed = dim, degree, packed
        return obj

    @classmethod
    def zero(cls, dim: int, degree: int = 0):
        return cls._raw(dim, degree, {})

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if not self.packed and not other.packed:
            return True  # zero is zero in every degree
        return self.degree == other.degree and self.packed == other.packed

    def __hash__(self):
        if not self.packed:  # zero compares equal across degrees, so hash alike
            return hash(self.dim)
        return hash((self.dim, self.degree, frozenset(self.packed.items())))

    def _check(self, other, kind=None):
        """Refuse ``other`` unless it is a ``kind`` (by default this type) on the same R^dim."""
        if type(other) is not (kind or type(self)):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other, negate: bool = False):
        self._check(other)
        if not other.packed:  # before self, so zero + zero keeps the left degree
            return self
        if not self.packed:
            return -other if negate else other
        if self.degree != other.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        if negate and self.packed == other.packed:  # a passing residual is a difference of equal maps
            return self._raw(self.dim, self.degree, {})
        return self._plus(other, -1 if negate else 1)

    def __sub__(self, other):
        return self.__add__(other, True)

    def __neg__(self):
        return self._raw(self.dim, self.degree, {k: -c for k, c in self.packed.items()})

    def _plus(self, other, factor: Coeff = 1, p: Polynomial | None = None):
        """self + factor other, or self + factor other p for a ``Polynomial`` p, in one pass into a
        copy of self's map; a factor of 1 costs no multiply.  Unchecked: the caller guarantees
        the kind, dimension and degree of the operands."""
        out, terms = dict(self.packed), other.packed
        if p is not None:
            _products_into(self.dim, out, terms, p.packed, factor)
        else:
            _sum_into(out, terms.items() if factor == 1 else zip(terms, map(mul, terms.values(), repeat(factor))))
        return self._raw(self.dim, self.degree, out)

    def __mul__(self, other):
        """Multiply by a scalar or a polynomial: each product of terms adds keys and multiplies coefficients."""
        if type(other) is Polynomial:
            self._check(other, Polynomial)
            return self._raw(self.dim, self.degree, _products_into(self.dim, {}, self.packed, other.packed))
        if isinstance(other, (int, Fraction)):
            return self._raw(self.dim, self.degree, {k: c * other for k, c in self.packed.items()} if other else {})
        return NotImplemented

    __rmul__ = __mul__


class Polynomial(_Terms):
    """A polynomial: the degree-0 ``_Terms``, its keys of basis mask 0; ``_df`` is df once ``forms.d_poly`` made it."""

    __slots__ = ("_df",)

    def __init__(self, dim: int, terms: Mapping[tuple, Coeff] | None = None):
        self.dim, self.degree = dim, 0
        packed = {_pack(dim, exps): c for exps, c in (terms or {}).items()}
        self.packed = {k: c for k, c in packed.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, c: Coeff) -> "Polynomial":
        return cls._raw(dim, 0, {0: c} if c else {})

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "Polynomial":
        """The coordinate function v_{i+1} (0-based index i)."""
        if not 0 <= i < dim:
            raise ValueError(f"coordinate index {i} out of range for dim {dim}")
        return cls._raw(dim, 0, {layout(dim)[0][i][1]: 1})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, Coeff]:
        """The decoded view {exponent tuple: coeff}, in storage order."""
        fields = layout(self.dim)[0]
        return {tuple(k >> s & EXP_MAX for s, _ in fields): c for k, c in self.packed.items()}

    def constant_value(self) -> Coeff:
        return self.packed.get(0, 0)

    # -- calculus ----------------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th coordinate (0-based); distinct keys stay distinct."""
        shift, one = layout(self.dim)[0][i]
        out = {}
        for k, c in self.packed.items():
            e = k >> shift & EXP_MAX
            if e:
                out[k - one] = e * c
        return self._raw(self.dim, 0, out)

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Coeff]]:
        """Terms in graded-lex order (total degree, then exponent vector)."""
        return sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]))

    def __repr__(self):
        from .grammar import render_polynomial

        return f"Polynomial({self.dim}, {render_polynomial(self)!r})"
