"""Differential forms and multivector fields on R^m with polynomial coefficients.

A homogeneous k-form is a sparse map from basis k-forms to polynomials, where
a basis k-form is a strictly increasing tuple of 0-based coordinate indices:
``(0, 2)`` stands for dx1^dx3.  Multivector fields use the same normal form
with basis k-vectors (0, 2) standing for e1^e3 (e_i the coordinate fields).

A form's ``degree`` is the degree its operation maps to, so a zero form may
have any integer degree (d of a top form is a zero (dim + 1)-form); a
nonzero one has basis tuples of that length in range(dim).

Sign conventions, pinned once and verified by the operator relation suite:

* the interior product ``contract_vector(X, a)`` is the graded derivation with
  iota_X(dx_i) = X^i;
* a decomposable bivector contracts first factor innermost:
  ``iota_{X^Y} = iota_Y . iota_X``, so iota_{e1^e2}(dx1^dx2) = 1.

The kernels work term by term.  The wedge product adds each +-c1 c2 of a
pair of bases straight into one exponent dict per merged basis, and ``d``,
with pos(i) the number of indices of I below i, streams

    d(c x^e dx_I) = sum over i not in I with e_i > 0 of
                    (-1)^pos(i) e_i c x^(e - 1_i) dx_{I + i}

into the same accumulator; each basis's dict becomes one Polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

from .poly import Coeff, Polynomial

Scalar = Union[int, Fraction, Polynomial]


def merge_indices(a: tuple, b: tuple) -> tuple[int, tuple]:
    """Merge two strictly increasing index tuples.

    Returns (sign, merged) where sign is the parity of the permutation that
    sorts the concatenation, or (0, ()) if an index repeats.
    """
    out = []
    sign = 1
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            return 0, ()
        if x < y:
            out.append(x)
            i += 1
        else:
            # moving b[j] past the remaining la - i elements of a
            if (la - i) & 1:
                sign = -sign
            out.append(y)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


class _Alternating:
    """Shared guts of DifferentialForm and MultiVectorField."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms: Mapping[tuple, Polynomial] | None = None):
        self.dim = dim
        self.degree = degree
        clean: dict[tuple, Polynomial] = {}
        if terms:
            for idx, p in terms.items():
                if len(idx) != degree:
                    raise ValueError(f"basis {idx} has wrong degree (expected {degree})")
                ok = all(0 <= u < v for u, v in zip(idx, idx[1:])) if len(idx) > 1 else True
                if not ok or (idx and not 0 <= idx[-1] < dim) or (idx and idx[0] < 0):
                    raise ValueError(f"basis {idx} is not strictly increasing in range(0, {dim})")
                if not p.is_zero():
                    clean[idx] = p
        self.terms = clean

    @classmethod
    def zero(cls, dim: int, degree: int = 0):
        return cls(dim, degree, {})

    @classmethod
    def basis(cls, dim: int, indices: Iterable[int], coeff: Scalar = 1):
        """The form c * dx_{i1}^...^dx_{ik} for strictly increasing 0-based indices."""
        idx = tuple(indices)
        p = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(dim, coeff)
        return cls(dim, len(idx), {idx: p})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if not self.terms and not other.terms:
            return True  # zero is zero in every degree
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        if not self.terms:  # zero compares equal across degrees, so hash alike
            return hash((type(self).__name__, self.dim))
        return hash((type(self).__name__, self.dim, self.degree, frozenset(self.terms.items())))

    def _check(self, other):
        if type(other) is not type(self) or self.dim != other.dim:
            raise ValueError("operands live on different spaces")

    def __add__(self, other, negate: bool = False):
        self._check(other)
        if not other.terms:  # before self, so zero + zero keeps the left degree
            return self
        if not self.terms:
            return -other if negate else other
        if self.degree != other.degree:
            raise ValueError(f"cannot add degrees {self.degree} and {other.degree}")
        out = dict(self.terms)
        for idx, p in other.terms.items():
            acc = out.get(idx)
            if negate:
                s = -p if acc is None else acc - p
            else:
                s = p if acc is None else acc + p
            if s.is_zero():
                if acc is not None:
                    del out[idx]
            else:
                out[idx] = s
        return self._raw(self.dim, self.degree, out)

    def __sub__(self, other):
        return self.__add__(other, True)

    def __neg__(self):
        return self._raw(self.dim, self.degree, {i: -p for i, p in self.terms.items()})

    def __mul__(self, c: Scalar):
        """Multiply by a scalar or a polynomial coefficient."""
        if isinstance(c, (int, Fraction)):
            if not c:
                return self._raw(self.dim, self.degree, {})
            return self._raw(self.dim, self.degree, {i: p.scale(c) for i, p in self.terms.items()})
        out = {}
        for idx, p in self.terms.items():
            q = p * c
            if not q.is_zero():
                out[idx] = q
        return self._raw(self.dim, self.degree, out)

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, dim, degree, terms):
        obj = cls.__new__(cls)
        obj.dim, obj.degree, obj.terms = dim, degree, terms
        return obj

    @classmethod
    def _collect_terms(cls, dim, degree, pieces):
        """Sum (basis, exponent, nonzero coefficient) triples; each basis's sum becomes one Polynomial."""
        acc: dict[tuple, dict[tuple, Coeff]] = {}
        for idx, e, c in pieces:
            poly = acc.get(idx)
            if poly is None:
                acc[idx] = {e: c}
                continue
            s = poly.get(e)
            s = c if s is None else s + c
            if s:
                poly[e] = s
            else:
                del poly[e]
        return cls._wrap(dim, degree, acc)

    @classmethod
    def _wrap(cls, dim, degree, acc):
        """The form with coefficient dict ``acc[idx]`` on basis ``idx``; empty dicts are dropped."""
        out = {}
        for idx, poly in acc.items():
            if poly:
                p = out[idx] = Polynomial.__new__(Polynomial)
                p.dim, p.terms = dim, poly
        return cls._raw(dim, degree, out)

    def wedge(self, other):
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.dim:
            return self._raw(self.dim, deg, {})
        acc: dict[tuple, dict[tuple, Coeff]] = {}
        for i1, p1 in self.terms.items():
            for i2, p2 in other.terms.items():
                sign, idx = merge_indices(i1, i2)
                if sign == 0:
                    continue
                poly = acc.setdefault(idx, {})
                for e1, c1 in p1.terms.items():
                    if sign < 0:
                        c1 = -c1
                    for e2, c2 in p2.terms.items():
                        e = tuple(map(add, e1, e2))
                        s = poly.get(e)
                        s = c1 * c2 if s is None else s + c1 * c2
                        if s:
                            poly[e] = s
                        else:
                            del poly[e]
        return self._wrap(self.dim, deg, acc)

    def sorted_terms(self) -> list[tuple[tuple, Polynomial]]:
        return sorted(self.terms.items())


class DifferentialForm(_Alternating):
    """Homogeneous differential form of fixed degree."""

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "DifferentialForm":
        return cls(p.dim, 0, {(): p} if not p.is_zero() else {})

    def as_polynomial(self) -> Polynomial:
        if self.degree != 0 and self.terms:
            raise ValueError(f"form of degree {self.degree} is not a function")
        return self.terms.get((), Polynomial.zero(self.dim))

    def __repr__(self):
        from .grammar import render_form

        return f"DifferentialForm({self.dim}, {render_form(self)!r})"


class MultiVectorField(_Alternating):
    """Homogeneous multivector field of fixed degree."""

    def __repr__(self):
        from .grammar import render_multivector

        return f"MultiVectorField({self.dim}, {render_multivector(self)!r})"


def wedge(a: _Alternating, b: _Alternating):
    """Wedge product; graded-commutative and bilinear over polynomials."""
    return a.wedge(b)


def d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative (closed form above): graded Leibniz, and d.d = 0."""
    dim = a.dim

    def pieces():
        for idx, p in a.terms.items():
            n = len(idx)
            for e, c in p.terms.items():
                pos = 0  # pos(i): the indices of idx below i
                for i, k in enumerate(e):
                    if pos < n and idx[pos] == i:
                        pos += 1
                    elif k:
                        c_i = -k * c if pos & 1 else k * c
                        yield idx[:pos] + (i,) + idx[pos:], e[:i] + (k - 1,) + e[i + 1 :], c_i

    return DifferentialForm._collect_terms(dim, a.degree + 1, pieces())


def d_poly(p: Polynomial) -> DifferentialForm:
    """Differential of a function, as a 1-form."""
    return d(DifferentialForm.from_polynomial(p))


def contract_vector(X: MultiVectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product iota_X for a vector field X (degree 1).

    A graded derivation of degree -1 of the wedge product.
    """
    if X.degree != 1:
        raise ValueError(f"expected a vector field, got degree {X.degree}")
    if X.dim != a.dim:
        raise ValueError("vector field and form live on different spaces")
    comps = {idx[0]: p for idx, p in X.terms.items()}

    def pieces():
        for idx, p in a.terms.items():
            for pos, i in enumerate(idx):
                xi = comps.get(i)
                if xi is not None:
                    rest = idx[:pos] + idx[pos + 1 :]
                    for e, c in (xi * p).terms.items():
                        yield rest, e, -c if pos & 1 else c

    return DifferentialForm._collect_terms(a.dim, a.degree - 1, pieces())


def contract_bivector(pi: MultiVectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product with a bivector, in the pinned order.

    For a decomposable X^Y this equals iota_Y(iota_X(a)); in particular
    iota_{e1^e2}(dx1^dx2) = 1.  Linear over polynomial coefficients in both
    arguments.
    """
    if pi.degree != 2:
        raise ValueError(f"expected a bivector, got degree {pi.degree}")
    if pi.dim != a.dim:
        raise ValueError("bivector and form live on different spaces")

    def pieces():
        for (i, j), w in pi.terms.items():
            for idx, p in a.terms.items():
                if i in idx and j in idx:
                    pos_i = idx.index(i)
                    rest = idx[:pos_i] + idx[pos_i + 1 :]
                    pos_j = rest.index(j)
                    final = rest[:pos_j] + rest[pos_j + 1 :]
                    for e, c in (w * p).terms.items():
                        yield final, e, -c if (pos_i + pos_j) & 1 else c

    return DifferentialForm._collect_terms(a.dim, a.degree - 2, pieces())
