"""Differential forms and multivector fields on R^m with polynomial coefficients.

A homogeneous k-form is a ``poly._Terms``: its one sparse dict ``packed``
{key: c} over its terms c x^e dx_I, c a nonzero int or Fraction and key one
int in the layout of ``poly``: bits [0, dim) are the basis I as a bitmask m,
bit i standing for dx_{i+1} (0b101 is dx1^dx3), and e_i is the guarded
16-bit field at bit dim + 16 i.  A polynomial's key has m = 0, so a function
and its 0-form share one dict.  Multivector fields are stored the same way,
bit i standing for e_{i+1}.  Sums, scalar and polynomial multiples, equality
and hash come from ``_Terms``; this module adds what reads the basis mask.
The public constructor and ``components()`` speak the decoded view instead:
{basis tuple: Polynomial}, a basis k-form being a strictly increasing tuple
of 0-based coordinate indices, ``(0, 2)`` for dx1^dx3.

A form's ``degree`` is the degree its operation maps to, so a zero form may
have any integer degree (d of a top form is a zero (dim + 1)-form); a
nonzero one has bases of that many indices in range(dim).

Sign conventions, pinned once and verified by the operator relation suite:

* the interior product ``contract_vector(X, a)`` is the graded derivation with
  iota_X(dx_i) = X^i;
* a decomposable bivector contracts first factor innermost:
  ``iota_{X^Y} = iota_Y . iota_X``, so iota_{e1^e2}(dx1^dx2) = 1.

Every kernel is one loop that adds each term it makes straight into its
output dict, dropping a key whose sum cancels: a monomial product is key1 +
key2, the result checked once by ``poly._guarded``, and a derivative is
key - one_i.  A kernel reads what it needs of a basis m as table[m], from a
table per dimension (``_per_basis``) that builds an entry on first lookup,
so only the bases met are built, even on R^64.  The entry of d (and delta)
is (reads, steps), ``reads`` masking the exponent fields the steps read: a
term with not key & reads is skipped.  Wedge and the contractions read S_m
below from ``_odd_above``.  Signs are popcount parities, with
below(m, i) = popcount(m & ((1 << i) - 1)) the number of indices of m below i:

* ``d`` adds dx_i in front and moves it past below(m, i) factors,

      d(c x^e dx_m) = sum over i not in m with e_i > 0 of
                      (-1)^below(m, i) e_i c x^(e - 1_i) dx_(m | 1 << i);

* ``wedge`` skips pairs with m1 & m2, merges to m1 | m2 and takes the parity
  of the pairs (x in m1, y in m2) with x > y;
* ``contract_vector`` and ``contract_bivector`` share one rule: an r-vector basis
  P leaves a basis m containing it with (-1)^(r(r-1)/2 + popcount(m & S_P)), S_P
  the XOR over i in P of (1 << i) - 1; for r = 1 that is (-1)^below(m, i).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, Union

from .poly import EXP_MAX, Polynomial, _guarded, _Terms, layout

Scalar = Union[int, Fraction, Polynomial]


def _indices(m: int) -> tuple:
    """The basis tuple of bitmask ``m``."""
    return tuple(i for i in range(m.bit_length()) if m >> i & 1)


class _Table(dict):
    """{key: build(key)}, an entry built on its first lookup and kept, so a hit is one subscript."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        self[key] = entry = self.build(key)
        return entry


def _per_basis(entry) -> _Table:
    """{dim: {basis mask m: entry(dim, m)}}, both levels filled lazily: only the bases a kernel meets."""
    return _Table(lambda dim: _Table(partial(entry, dim)))


@_Table  # the same on every R^m: one table for all dimensions
def _odd_above(m: int) -> int:
    """The mask with bit y set iff an odd number of bits of ``m`` lie above y."""
    x, s = m >> 1, 1
    while s < x.bit_length():  # prefix XOR from the top, in doubling windows
        x ^= x >> s
        s <<= 1
    return x


class _Alternating(_Terms):
    """Shared guts of DifferentialForm and MultiVectorField: ``_Terms`` with a basis mask in every key."""

    __slots__ = ()

    def __init__(self, dim: int, degree: int, terms: Mapping[tuple, Polynomial] | None = None):
        self.dim = dim
        self.degree = degree
        flat: dict[int, object] = {}
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
                for key, c in p.packed.items():
                    flat[key | m] = c
        self.packed = flat

    @classmethod
    def basis(cls, dim: int, indices: Iterable[int], coeff: Scalar = 1):
        """The form c * dx_{i1}^...^dx_{ik} for strictly increasing 0-based indices."""
        idx = tuple(indices)
        p = coeff if isinstance(coeff, Polynomial) else Polynomial.constant(dim, coeff)
        return cls(dim, len(idx), {idx: p})

    def components(self) -> dict[tuple, Polynomial]:
        """The decoded view {basis tuple: Polynomial}, in lexicographic order of the tuples."""
        low = (1 << self.dim) - 1
        groups: dict[int, dict] = {}
        for key, c in self.packed.items():
            groups.setdefault(key & low, {})[key & ~low] = c
        decoded = sorted((_indices(m), m) for m in groups)
        return {idx: Polynomial._raw(self.dim, 0, groups[m]) for idx, m in decoded}

    def wedge(self, other):
        self._check(other)
        deg = self.degree + other.degree
        if deg > self.dim or not self.packed or not other.packed:
            return self._raw(self.dim, deg, {})
        low = (1 << self.dim) - 1
        right = [(k2 & low, k2, c2) for k2, c2 in other.packed.items()]
        out = {}
        get = out.get
        for k1, c1 in self.packed.items():
            odd = _odd_above[k1 & low]
            for m2, k2, c2 in right:
                if not k1 & m2:
                    key, c = k1 + k2, -c1 * c2 if (odd & m2).bit_count() & 1 else c1 * c2
                    s = get(key)
                    out[key] = s = c if s is None else s + c
                    if not s:
                        del out[key]
        return self._raw(self.dim, deg, _guarded(self.dim, out))


class DifferentialForm(_Alternating):
    """Homogeneous differential form of fixed degree."""

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "DifferentialForm":
        return cls._raw(p.dim, 0, p.packed)

    def as_polynomial(self) -> Polynomial:
        if self.degree != 0 and self.packed:
            raise ValueError(f"form of degree {self.degree} is not a function")
        return Polynomial._raw(self.dim, 0, self.packed)

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


def _derivation(a: DifferentialForm, degree: int, tables) -> DifferentialForm:
    """The first-order operator whose ``tables[dim][m]`` is (reads, steps), the steps (dkey, shift, negate)
    taking each term c x^e dx_m to (-1)^negate k c at key + dkey, k the exponent at ``shift``, if k > 0."""
    low = (1 << a.dim) - 1
    table = tables[a.dim]
    out = {}
    get = out.get
    for key, c in a.packed.items():
        reads, steps = table[key & low]
        if key & reads:  # else every exponent the steps read is 0
            for dkey, shift, negate in steps:
                if k := key >> shift & EXP_MAX:
                    k2, c2 = key + dkey, -k * c if negate else k * c
                    s = get(k2)
                    out[k2] = s = c2 if s is None else s + c2
                    if not s:
                        del out[k2]
    return DifferentialForm._raw(a.dim, degree, out)


def _derivation_table(steps) -> _Table:
    """``_per_basis`` of ``_derivation``'s entries (reads, steps(dim, m)), reads masking the fields the steps read."""
    def entry(dim: int, m: int) -> tuple:
        found = steps(dim, m)
        return sum(EXP_MAX << shift for _, shift, _ in found), found
    return _per_basis(entry)


@_derivation_table
def _d_table(dim: int, m: int) -> tuple:
    """d on basis m: per i not in m, dx_i joins at bit i and x^e loses one_i, with (-1)^below(m, i)."""
    fields = layout(dim)[0]
    return tuple(((1 << i) - one, shift, (m & (1 << i) - 1).bit_count() & 1)
                 for i, (shift, one) in enumerate(fields) if not m >> i & 1)


def d(a: DifferentialForm) -> DifferentialForm:
    """Exterior derivative (closed form above): graded Leibniz, and d.d = 0."""
    return _derivation(a, a.degree + 1, _d_table)


def d_poly(p: Polynomial) -> DifferentialForm:
    """Differential of a function, as a 1-form; computed on first use and kept in ``p._df``."""
    if (df := getattr(p, "_df", None)) is None:
        p._df = df = d(DifferentialForm.from_polynomial(p))
    return df


def _contract(X: MultiVectorField, a: DifferentialForm) -> DifferentialForm:
    """iota_X a for an r-vector X: a basis P = {p1 < ... < pr} of X contracts as
    iota_{e_pr} . ... . iota_{e_p1}, with the sign above; S_P is ``_odd_above[P]``."""
    low = (1 << X.dim) - 1
    flip = X.degree * (X.degree - 1) // 2
    xs = [(k & low, _odd_above[k & low], k & ~low, c) for k, c in X.packed.items()]
    out = {}
    get = out.get
    for key, c in a.packed.items():
        for pm, s_p, kx, cx in xs:
            if key & pm == pm:
                k2, c2 = key - pm + kx, -c * cx if (key & s_p).bit_count() + flip & 1 else c * cx
                s = get(k2)
                out[k2] = s = c2 if s is None else s + c2
                if not s:
                    del out[k2]
    return DifferentialForm._raw(a.dim, a.degree - X.degree, _guarded(a.dim, out))


def contract_vector(X: MultiVectorField, a: DifferentialForm) -> DifferentialForm:
    """Interior product iota_X for a vector field X (degree 1).

    A graded derivation of degree -1 of the wedge product.
    """
    if X.degree != 1:
        raise ValueError(f"expected a vector field, got degree {X.degree}")
    if X.dim != a.dim:
        raise ValueError("vector field and form live on different spaces")
    return _contract(X, a)


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
    return _contract(pi, a)
