"""Exact multivariate polynomials over the rationals.

A polynomial in coordinates v1..vm is stored as a sparse map from exponent
vectors (length-m tuples of non-negative ints) to nonzero coefficients.
Coefficients are Python ints or ``fractions.Fraction``; all arithmetic is
exact.  Instances are treated as immutable: every operation returns a new
polynomial and never mutates ``terms`` of an existing one.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Union

Coeff = Union[int, Fraction]


class Polynomial:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, Coeff] | None = None):
        self.dim = dim
        clean: dict[tuple, Coeff] = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != dim:
                    raise ValueError(f"exponent vector {exps} has length != {dim}")
                if c:
                    clean[exps] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c: Coeff) -> "Polynomial":
        return cls(dim, {(0,) * dim: c} if c else {})

    @classmethod
    def coordinate(cls, dim: int, i: int) -> "Polynomial":
        """The coordinate function v_{i+1} (0-based index i)."""
        if not 0 <= i < dim:
            raise ValueError(f"coordinate index {i} out of range for dim {dim}")
        e = [0] * dim
        e[i] = 1
        return cls(dim, {tuple(e): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Coeff:
        return self.terms.get((0,) * self.dim, 0)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Polynomial", negate: bool = False) -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            if negate:
                s = -c if acc is None else acc - c
            else:
                s = c if acc is None else acc + c
            if s:
                out[e] = s
            elif acc is not None:
                del out[e]
        p = Polynomial.__new__(Polynomial)
        p.dim, p.terms = self.dim, out
        return p

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self.__add__(other, True)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out: dict[tuple, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                acc = out.get(e)
                s = c if acc is None else acc + c
                if s:
                    out[e] = s
                elif acc is not None:
                    del out[e]
        p = Polynomial.__new__(Polynomial)
        p.dim, p.terms = self.dim, out
        return p

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "Polynomial":
        if not c:
            return Polynomial.zero(self.dim)
        p = Polynomial.__new__(Polynomial)
        p.dim = self.dim
        p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th coordinate (0-based)."""
        out: dict[tuple, Coeff] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k:
                e2 = e[:i] + (k - 1,) + e[i + 1 :]
                acc = out.get(e2)
                s = k * c if acc is None else acc + k * c
                if s:
                    out[e2] = s
                elif acc is not None:
                    del out[e2]
        p = Polynomial.__new__(Polynomial)
        p.dim, p.terms = self.dim, out
        return p

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Coeff]]:
        """Terms in graded-lex order (total degree, then exponent vector)."""
        return sorted(self.terms.items(), key=lambda it: (sum(it[0]), it[0]))

    def __repr__(self):
        from .grammar import render_polynomial

        return f"Polynomial({self.dim}, {render_polynomial(self)!r})"

