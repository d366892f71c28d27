"""Shared helpers for the test suite: fixed-seed random inputs and oracles."""

import random
from fractions import Fraction
from itertools import combinations

from koszul import DifferentialForm, MultiVectorField, Polynomial, d_poly
from koszul.poly import EXP_BITS, EXP_MAX, ExponentOverflow, _guarded, _sum_into, layout
from koszul.randgen import random_form, random_polynomial, trial_rng

SEED = 20240718


def rng(label: str, trial: int = 0):
    return trial_rng(SEED, label, trial)


def rand_poly(label: str, trial: int, dim: int, max_degree: int = 3, terms: int = 2) -> Polynomial:
    return random_polynomial(rng(label, trial), dim, max_degree, terms)


def rand_form(label: str, trial: int, dim: int, degree: int, max_degree: int = 3) -> DifferentialForm:
    return random_form(rng(label, trial), dim, degree, max_degree)


def rand_frac_form(label: str, trial: int, dim: int, degree: int, max_degree: int = 3) -> DifferentialForm:
    """A random form with Fraction coefficients over mixed denominators."""
    a = rand_form(f"{label}/a", trial, dim, degree, max_degree) * Fraction(1, 3)
    return a + rand_form(f"{label}/b", trial, dim, degree, max_degree) * Fraction(-2, 7)


def rand_frac_poly(label: str, trial: int, dim: int, max_degree: int = 3) -> Polynomial:
    """``rand_poly`` with its coefficients over mixed denominators 3, 7, 11, ..."""
    p = rand_poly(label, trial, dim, max_degree)
    return Polynomial(dim, {e: Fraction(c, 3 + 4 * i) for i, (e, c) in enumerate(sorted(p.terms.items()))})


def doubled_wedge(wedge):
    """A mutant of ``wedge`` that doubles its result on spaces of dimension >= 3."""

    def doubled(self, other):
        out = wedge(self, other)
        return out * 2 if self.dim >= 3 else out

    return doubled


def doubled_mul(mul):
    """A mutant of ``Polynomial.__mul__`` that doubles polynomial products on spaces of dimension >= 3."""

    def doubled(self, other):
        out = mul(self, other)
        return out * 2 if isinstance(other, Polynomial) and out.dim >= 3 else out

    return doubled


def total_degree(p: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max(map(sum, p.terms), default=-1)


def m_k(s, fs) -> DifferentialForm:
    """The unsymmetrized map f_1 df_2 ^ ... ^ df_k."""
    total = DifferentialForm.from_polynomial(fs[0])
    for f in fs[1:]:
        total = total.wedge(d_poly(f))
    return total


def unshuffles(i: int, j: int) -> list[tuple[int, ...]]:
    """All (i, j)-unshuffles of range(i + j), as position -> index tuples.

    A permutation sigma qualifies iff it is increasing on the first i and on
    the last j positions; there are binomial(i + j, i) of them.
    """
    if i < 0 or j < 0:
        raise ValueError("block sizes must be non-negative")
    n = i + j
    return [head + tuple(x for x in range(n) if x not in head) for head in combinations(range(n), i)]


def merge_indices(a: tuple, b: tuple) -> tuple[int, tuple]:
    """Merge two strictly increasing index tuples.

    Returns (sign, merged) where sign is the parity of the permutation that
    sorts the concatenation, or (0, ()) if an index repeats.
    """
    if set(a) & set(b):
        return 0, ()
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(sorted(a + b))


def contraction_oracle(X: MultiVectorField, a: DifferentialForm) -> DifferentialForm:
    """Independent expansion of iota_X: alternating sum over term positions."""
    parts = DifferentialForm.zero(a.dim, a.degree - 1)
    comps = {idx[0]: p for idx, p in X.components().items()}
    for idx, p in a.components().items():
        for pos in range(len(idx)):
            comp = comps.get(idx[pos])
            if comp is None:
                continue
            coeff = comp * p * (Fraction(-1) ** pos)
            term = DifferentialForm(a.dim, a.degree - 1, {idx[:pos] + idx[pos + 1 :]: coeff})
            parts = parts + term
    return parts


def wedge_reference(a, b):
    """The per-pair wedge kernel: one Polynomial product per pair of bases, negated and added."""
    deg = a.degree + b.degree
    out: dict[tuple, Polynomial] = {}
    if deg <= a.dim:
        for i1, p1 in a.components().items():
            for i2, p2 in b.components().items():
                sign, idx = merge_indices(i1, i2)
                if sign == 0:
                    continue
                q = p1 * p2
                if sign < 0:
                    q = -q
                acc = out.get(idx)
                s = q if acc is None else acc + q
                if s.is_zero():
                    if acc is not None:
                        del out[idx]
                else:
                    out[idx] = s
    return type(a)(a.dim, deg, out)


def assert_stored_canonically(a):
    """The storage invariant of a form's term dict {packed key: coeff} (layout in ``koszul.poly``)."""
    guard = layout(a.dim)[1]
    low = (1 << a.dim) - 1
    for key, c in a.packed.items():
        m = key & low
        assert m.bit_count() == a.degree, f"basis mask {m:b} does not have {a.degree} bits"
        assert 0 <= key < 1 << a.dim + EXP_BITS * a.dim, f"key {key:#x} outside R^{a.dim}"
        assert not key & guard, f"key {key:#x} has a guard bit set"
        assert c and isinstance(c, (int, Fraction)), f"coefficient {c!r} stored at {key:#x}"
    return a


def solve_constant_system(matrix: list[list[Fraction]], rhs: list[Polynomial]) -> list[Polynomial]:
    """Solve A x = b for a constant invertible A over polynomial entries b
    (plain Gaussian elimination with Fraction pivots)."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    b = list(rhs)
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] = b[col] * inv
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - b[col] * factor
    return b


# -- the draw-stream oracle: the generators as written on the stdlib's randint, randrange and choice


def _stdlib_monomials(rng: random.Random, dim: int, max_degree: int, terms: int) -> dict[int, int]:
    """The nonzero {packed key: coeff} sum of ``terms`` random monomials; redrawn while it cancels."""
    if max_degree > EXP_MAX:
        raise ExponentOverflow(f"max_degree {max_degree} exceeds {EXP_MAX}")
    fields = layout(dim)[0]
    while True:
        acc: dict[int, int] = {}
        for _ in range(terms):
            total = rng.randint(0, max_degree)
            key = 0
            for _ in range(total):
                key += fields[rng.randrange(dim)][1]
            c = rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9))
            s = acc.pop(key, 0) + c
            if s:  # zero when c cancels an earlier monomial
                acc[key] = s
        if acc:
            return acc


def stdlib_random_polynomial(rng: random.Random, dim: int, max_degree: int, terms: int = 2) -> Polynomial:
    """Nonzero sum of ``terms`` random monomials of total degree <= max_degree,
    with integer coefficients in [-9, 9] \\ {0}; redrawn while the sum cancels."""
    return Polynomial._raw(dim, 0, _stdlib_monomials(rng, dim, max_degree, terms))


def stdlib_random_form(
    rng: random.Random,
    dim: int,
    degree: int,
    max_degree: int,
    density: float = 0.7,
) -> DifferentialForm:
    """Random homogeneous form; each basis component present with prob ``density``,
    its coefficient drawn as ``random_polynomial`` draws one."""
    masks = [sum(1 << i for i in idx) for idx in combinations(range(dim), degree)]
    terms = {k | m: c for m in masks if rng.random() < density
             for k, c in _stdlib_monomials(rng, dim, max_degree, 2).items()}
    if not terms:  # keep campaign inputs nonzero
        m = masks[rng.randrange(len(masks))]
        terms = {k | m: c for k, c in _stdlib_monomials(rng, dim, max_degree, 2).items()}
    return DifferentialForm._raw(dim, degree, terms)


def stdlib_random_vector_field(rng: random.Random, dim: int, max_degree: int) -> MultiVectorField:
    out = {}
    for i in range(dim):
        if rng.random() < 0.8:
            out[(i,)] = stdlib_random_polynomial(rng, dim, max_degree, 2)
    if not out:
        out[(rng.randrange(dim),)] = stdlib_random_polynomial(rng, dim, max_degree, 2)
    return MultiVectorField(dim, 1, out)


# -- the kernel oracle: each kernel as a generator of (key, c) pairs summed by ``_sum_into``,
# its per-basis rules written out here and evaluated afresh for every term


def _odd_above(m: int) -> int:
    """The mask with bit y set iff an odd number of bits of ``m`` lie above y."""
    x, s = m >> 1, 1
    while s < x.bit_length():  # prefix XOR from the top, in doubling windows
        x ^= x >> s
        s <<= 1
    return x


def _d_steps(dim: int, m: int) -> tuple:
    """d on basis m: per i not in m, dx_i joins at bit i and x^e loses one_i, with (-1)^below(m, i)."""
    fields = layout(dim)[0]
    return tuple(((1 << i) - one, shift, (m & (1 << i) - 1).bit_count() & 1)
                 for i, (shift, one) in enumerate(fields) if not m >> i & 1)


def _delta_steps(dim: int, m: int) -> tuple:
    """delta on basis m: the pos-th index j of m leaves and x^e loses one_(j^1), with (-1)^pos, negated for even j."""
    fields = layout(dim)[0]
    basis = [j for j in range(dim) if m >> j & 1]
    return tuple((-(1 << j) - fields[j ^ 1][1], fields[j ^ 1][0], not (pos ^ j) & 1) for pos, j in enumerate(basis))


def _collected(cls, dim, degree, pieces, adds_exponents=True):
    """The value summing the (key, nonzero c) pairs of ``pieces``; guarded when keys were added."""
    packed = _sum_into({}, pieces)
    return cls._raw(dim, degree, _guarded(dim, packed) if adds_exponents else packed)


def generator_mul(a, p: Polynomial):
    """``a * p`` for a polynomial ``p``: every product of terms adds keys and multiplies coefficients."""
    pieces = ((k1 + k2, c1 * c2) for k1, c1 in a.packed.items() for k2, c2 in p.packed.items())
    return _collected(type(a), a.dim, a.degree, pieces)


def generator_wedge(a, b):
    deg = a.degree + b.degree
    if deg > a.dim or not a.packed or not b.packed:
        return a._raw(a.dim, deg, {})
    low = (1 << a.dim) - 1
    right = [(k2 & low, k2, c2) for k2, c2 in b.packed.items()]

    def pieces():
        for k1, c1 in a.packed.items():
            odd = _odd_above(k1 & low)
            for m2, k2, c2 in right:
                if not k1 & m2:
                    c = c1 * c2
                    yield k1 + k2, -c if (odd & m2).bit_count() & 1 else c

    return _collected(type(a), a.dim, deg, pieces())


def _generator_derivation(a, degree, steps):
    low = (1 << a.dim) - 1

    def pieces():
        for key, c in a.packed.items():
            for dkey, shift, negate in steps(a.dim, key & low):
                k = key >> shift & EXP_MAX
                if k:
                    yield key + dkey, -k * c if negate else k * c

    return _collected(DifferentialForm, a.dim, degree, pieces(), False)


def generator_d(a):
    return _generator_derivation(a, a.degree + 1, _d_steps)


def generator_delta(s, a):
    return _generator_derivation(a, a.degree - 1, _delta_steps)


def generator_L(s, a):
    pairs = [3 << 2 * i for i in range(s.n)]
    pieces = ((key | pm, c) for key, c in a.packed.items() for pm in pairs if not key & pm)
    return _collected(DifferentialForm, a.dim, a.degree + 2, pieces, False)


def generator_Lam(s, a):
    pairs = [3 << 2 * i for i in range(s.n)]
    pieces = ((key ^ pm, c) for key, c in a.packed.items() for pm in pairs if key & pm == pm)
    return _collected(DifferentialForm, a.dim, a.degree - 2, pieces, False)


def generator_contract(X, a):
    low = (1 << X.dim) - 1
    flip = X.degree * (X.degree - 1) // 2
    xs = [(k & low, _odd_above(k & low), k & ~low, c) for k, c in X.packed.items()]
    pieces = ((key - pm + k2, (-c if (key & s_p).bit_count() + flip & 1 else c) * c2)
              for key, c in a.packed.items() for pm, s_p, k2, c2 in xs if key & pm == pm)
    return _collected(DifferentialForm, a.dim, a.degree - X.degree, pieces)
