"""Seeded random polynomials and forms for verification campaigns.

Per-trial generators are derived as Random(f"{seed}|{label}|{trial}"), which
CPython seeds by hashing the string with sha512: results are reproducible
across runs, platforms, and any parallel execution order.

Every integer is drawn by one rule on ``rng.getrandbits``: a value below n
takes k = n.bit_length() bits and is drawn again while it is >= n, and n < 1
is refused with ``ValueError``.  This is CPython's
``_randbelow_with_getrandbits``, to which ``randint(0, m)``, ``randrange(n)``
and ``choice(seq)`` all reduce, so each draw uses the same Mersenne Twister
words in the same order as those calls and leaves the generator in the same
state.  Owning the rule ties the inputs, and so every report, to the MT19937
output itself rather than to the stdlib's wrappers, and skips their frames
around each draw.  Presence tests stay ``rng.random() < density``.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .forms import DifferentialForm, MultiVectorField
from .poly import EXP_MAX, ExponentOverflow, Polynomial, layout

_COEFFS = (-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)
_COEFF_BITS = len(_COEFFS).bit_length()


def trial_rng(seed: int, label: str, trial: int) -> random.Random:
    return random.Random(f"{seed}|{label}|{trial}")


def _below(getrandbits, n: int, k: int) -> int:
    """A uniform int in [0, n) from k = n.bit_length() bits, drawn again while >= n (the module's rule)."""
    if n < 1:  # getrandbits(0) is 0, so an empty range would never end
        raise ValueError(f"empty range [0, {n})")
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@lru_cache(maxsize=1 << 10)
def _masks(dim: int, degree: int) -> tuple[int, ...]:
    """The basis bitmasks of the degree-``degree`` forms on R^dim, in ``combinations`` order."""
    return tuple(sum(1 << i for i in idx) for idx in combinations(range(dim), degree))


def _plan(rng: random.Random, dim: int, max_degree: int) -> tuple:
    """The constants of one form's draws: getrandbits, the ranges of the monomial degree and
    the coordinate with their bit widths, and each coordinate's ``one_i`` from ``layout``."""
    n = max_degree + 1
    return rng.getrandbits, n, n.bit_length(), dim, dim.bit_length(), [one for _, one in layout(dim)[0]]


def _monomials(plan: tuple, terms: int) -> dict[int, int]:
    """The nonzero {packed key: coeff} sum of ``terms`` random monomials; redrawn while it cancels."""
    getrandbits, n_deg, k_deg, n_coord, k_coord, ones = plan
    if n_deg > EXP_MAX + 1:
        raise ExponentOverflow(f"max_degree {n_deg - 1} exceeds {EXP_MAX}")
    if n_deg < 1:
        raise ValueError(f"empty range [0, {n_deg})")
    n_coeff = len(_COEFFS)
    while True:  # the module's rule, written out for each integer
        acc: dict[int, int] = {}
        for _ in range(terms):
            r = getrandbits(k_deg)
            while r >= n_deg:
                r = getrandbits(k_deg)
            if r and n_coord < 1:  # getrandbits(0) is 0, so an empty range would never end
                raise ValueError(f"empty range [0, {n_coord})")
            key = 0
            for _ in range(r):
                i = getrandbits(k_coord)
                while i >= n_coord:
                    i = getrandbits(k_coord)
                key += ones[i]
            i = getrandbits(_COEFF_BITS)
            while i >= n_coeff:
                i = getrandbits(_COEFF_BITS)
            s = acc.pop(key, 0) + _COEFFS[i]
            if s:  # zero when the coefficient cancels an earlier monomial
                acc[key] = s
        if acc:
            return acc


def random_polynomial(rng: random.Random, dim: int, max_degree: int, terms: int = 2) -> Polynomial:
    """Nonzero sum of ``terms`` random monomials of total degree <= max_degree,
    with integer coefficients in [-9, 9] \\ {0}; redrawn while the sum cancels."""
    return Polynomial._raw(dim, 0, _monomials(_plan(rng, dim, max_degree), terms))


def random_form(
    rng: random.Random,
    dim: int,
    degree: int,
    max_degree: int,
    density: float = 0.7,
) -> DifferentialForm:
    """Random homogeneous form; each basis component present with prob ``density``,
    its coefficient drawn as ``random_polynomial`` draws one."""
    masks = _masks(dim, degree)
    plan = _plan(rng, dim, max_degree)
    draw = rng.random
    terms = {k | m: c for m in masks if draw() < density for k, c in _monomials(plan, 2).items()}
    if not terms:  # keep campaign inputs nonzero
        m = masks[_below(rng.getrandbits, len(masks), len(masks).bit_length())]
        terms = {k | m: c for k, c in _monomials(plan, 2).items()}
    return DifferentialForm._raw(dim, degree, terms)


def random_vector_field(rng: random.Random, dim: int, max_degree: int) -> MultiVectorField:
    out = {}
    for i in range(dim):
        if rng.random() < 0.8:
            out[(i,)] = random_polynomial(rng, dim, max_degree, 2)
    if not out:
        out[(_below(rng.getrandbits, dim, dim.bit_length()),)] = random_polynomial(rng, dim, max_degree, 2)
    return MultiVectorField(dim, 1, out)
