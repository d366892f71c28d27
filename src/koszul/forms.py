"""Differential forms and multivector fields on R^m with polynomial coefficients.

A homogeneous k-form is one sparse dict ``{(m, e): c}`` over its terms
c x^e dx_I: ``m`` is the basis I as a bitmask, bit i standing for dx_{i+1}
(0b101 is dx1^dx3), ``e`` is the exponent tuple of the monomial (one entry
per coordinate) and ``c`` is a nonzero int or Fraction.  Multivector fields
are stored the same way, bit i standing for e_{i+1} (e_i the coordinate
fields).  The public constructor and ``components()`` speak the decoded
view instead: {basis tuple: Polynomial}, a basis k-form being a strictly
increasing tuple of 0-based coordinate indices, ``(0, 2)`` for dx1^dx3.

A form's ``degree`` is the degree its operation maps to, so a zero form may
have any integer degree (d of a top form is a zero (dim + 1)-form); a
nonzero one has bases of that many indices in range(dim).

Sign conventions, pinned once and verified by the operator relation suite:

* the interior product ``contract_vector(X, a)`` is the graded derivation with
  iota_X(dx_i) = X^i;
* a decomposable bivector contracts first factor innermost:
  ``iota_{X^Y} = iota_Y . iota_X``, so iota_{e1^e2}(dx1^dx2) = 1.

Every kernel is one loop over the term dict(s) that adds each term it makes
into one accumulator dict.  Signs are popcount parities, with
below(m, i) = popcount(m & ((1 << i) - 1)) the number of indices of m below i:

* ``d`` adds dx_i in front and moves it past below(m, i) factors,

      d(c x^e dx_m) = sum over i not in m with e_i > 0 of
                      (-1)^below(m, i) e_i c x^(e - 1_i) dx_(m | 1 << i);

* ``wedge`` skips pairs with m1 & m2, merges to m1 | m2 and takes the parity
  of the pairs (x in m1, y in m2) with x > y;
* ``contract_vector`` removes bit i with (-1)^below(m, i); ``contract_bivector``
  removes bits i < j with (-1) to the number of bits of m strictly between them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

from .poly import Polynomial

Scalar = Union[int, Fraction, Polynomial]


def _indices(m: int) -> tuple:
    """The basis tuple of bitmask ``m``."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


def _odd_above(m: int) -> int:
    """The mask with bit y set iff an odd number of bits of ``m`` lie above y."""
    x, s = m >> 1, 1
    while s < x.bit_length():  # prefix XOR from the top, in doubling windows
        x ^= x >> s
        s <<= 1
    return x


def _poly(dim: int, terms: dict) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p.dim, p.terms = dim, terms
    return p


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


class _Alternating:
    """Shared guts of DifferentialForm and MultiVectorField."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms: Mapping[tuple, Polynomial] | None = None):
        self.dim = dim
        self.degree = degree
        flat: dict[tuple, object] = {}
        if terms:
            for idx, p in terms.items():
                if len(idx) != degree:
                    raise ValueError(f"basis {idx} has wrong degree (expected {degree})")
                ok = all(0 <= u < v for u, v in zip(idx, idx[1:])) if len(idx) > 1 else True
                if not ok or (idx and not 0 <= idx[-1] < dim) or (idx and idx[0] < 0):
                    raise ValueError(f"basis {idx} is not strictly increasing in range(0, {dim})")
                if p.dim != dim:
                    raise ValueError(f"coefficient of basis {idx} lives on R^{p.dim}, not R^{dim}")
                m = sum(1 << i for i in idx)
                for e, c in p.terms.items():
                    flat[(m, e)] = c
        self.terms = flat

    @classmethod
    def zero(cls, dim: int, degree: int = 0):
        return cls._raw(dim, degree, {})

    @classmethod
    def basis(cls, dim: int, indices: Iterable[int], coeff: Scalar = 1):
        """The form c * dx_{i1}^...^dx_{ik} for strictly increasing 0-based indices."""
        idx = tuple(indices)
        p = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(dim, coeff)
        return cls(dim, len(idx), {idx: p})

    def components(self) -> dict[tuple, Polynomial]:
        """The decoded view {basis tuple: Polynomial}, in lexicographic order of the tuples."""
        groups: dict[int, dict] = {}
        for (m, e), c in self.terms.items():
            groups.setdefault(m, {})[e] = c
        decoded = sorted((_indices(m), m) for m in groups)
        return {idx: _poly(self.dim, groups[m]) for idx, m in decoded}

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
        pieces = ((k, -c) for k, c in other.terms.items()) if negate else other.terms.items()
        return self._raw(self.dim, self.degree, _sum_into(dict(self.terms), pieces))

    def __sub__(self, other):
        return self.__add__(other, True)

    def __neg__(self):
        return self._raw(self.dim, self.degree, {k: -c for k, c in self.terms.items()})

    def __mul__(self, s: Scalar):
        """Multiply by a scalar or a polynomial coefficient."""
        if isinstance(s, (int, Fraction)):
            return self._raw(self.dim, self.degree, {k: c * s for k, c in self.terms.items()} if s else {})
        if s.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {s.dim}")
        pieces = (
            ((m, tuple(map(add, e, e2))), c * c2) for (m, e), c in self.terms.items() for e2, c2 in s.terms.items()
        )
        return self._collect_terms(self.dim, self.degree, pieces)

    __rmul__ = __mul__

    @classmethod
    def _raw(cls, dim, degree, terms):
        obj = cls.__new__(cls)
        obj.dim, obj.degree, obj.terms = dim, degree, terms
        return obj

    @classmethod
    def _collect_terms(cls, dim, degree, pieces):
        """The form summing the ((m, e), nonzero c) pairs of ``pieces``."""
        return cls._raw(dim, degree, _sum_into({}, pieces))

    def wedge(self, other):
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.dim:
            return self._raw(self.dim, deg, {})
        right = other.terms.items()

        def pieces():
            odd = above = None
            for (m1, e1), c1 in self.terms.items():
                if m1 != above:  # a parity mask per run of equal bases
                    above, odd = m1, _odd_above(m1)
                for (m2, e2), c2 in right:
                    if not m1 & m2:
                        c = c1 * c2
                        yield (m1 | m2, tuple(map(add, e1, e2))), -c if (odd & m2).bit_count() & 1 else c

        return self._collect_terms(self.dim, deg, pieces())


class DifferentialForm(_Alternating):
    """Homogeneous differential form of fixed degree."""

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "DifferentialForm":
        return cls._raw(p.dim, 0, {(0, e): c for e, c in p.terms.items()})

    def as_polynomial(self) -> Polynomial:
        if self.degree != 0 and self.terms:
            raise ValueError(f"form of degree {self.degree} is not a function")
        return _poly(self.dim, {e: c for (_, e), c in self.terms.items()})

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

    def pieces():
        for (m, e), c in a.terms.items():
            for i, k in enumerate(e):
                if k and not m >> i & 1:
                    bit = 1 << i
                    c_i = -k * c if (m & (bit - 1)).bit_count() & 1 else k * c
                    yield (m | bit, e[:i] + (k - 1,) + e[i + 1 :]), c_i

    return DifferentialForm._collect_terms(a.dim, a.degree + 1, pieces())


def d_poly(p: Polynomial) -> DifferentialForm:
    """Differential of a function, as a 1-form."""
    return d(DifferentialForm.from_polynomial(p))


def _by_basis(x: MultiVectorField) -> dict[int, list]:
    """The terms of ``x`` grouped by basis mask: {m: [(e, c), ...]}."""
    groups: dict[int, list] = {}
    for (m, e), c in x.terms.items():
        groups.setdefault(m, []).append((e, c))
    return groups


def contract_vector(X: MultiVectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product iota_X for a vector field X (degree 1).

    A graded derivation of degree -1 of the wedge product.
    """
    if X.degree != 1:
        raise ValueError(f"expected a vector field, got degree {X.degree}")
    if X.dim != a.dim:
        raise ValueError("vector field and form live on different spaces")
    comps = _by_basis(X)

    def pieces():
        for (m, e), c in a.terms.items():
            for bit, xs in comps.items():
                if m & bit:
                    rest = m ^ bit
                    s = -c if (m & (bit - 1)).bit_count() & 1 else c
                    for e2, c2 in xs:
                        yield (rest, tuple(map(add, e, e2))), s * c2

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
    # per bivector basis i < j: the bits strictly between i and j, whose count gives the sign
    comps = [(pm, (pm & (pm - 1)) - ((pm & -pm) << 1), ws) for pm, ws in _by_basis(pi).items()]

    def pieces():
        for (m, e), c in a.terms.items():
            for pm, between, ws in comps:
                if m & pm == pm:
                    rest = m ^ pm
                    s = -c if (m & between).bit_count() & 1 else c
                    for e2, c2 in ws:
                        yield (rest, tuple(map(add, e, e2))), s * c2

    return DifferentialForm._collect_terms(a.dim, a.degree - 2, pieces())
