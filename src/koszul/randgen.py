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

Each generator builds one private drawer that adds every monomial straight
into the value's own map, at its basis mask plus its exponent key.  A
polynomial is a sum of ``terms >= 1`` monomials; fewer is refused before any
draw, as the redraw of a sum of none would never end.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations

from .forms import DifferentialForm
from .poly import EXP_MAX, ExponentOverflow, Polynomial, layout

_COEFFS = (-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)
_COEFF_BITS = len(_COEFFS).bit_length()


def trial_rng(seed: int, label: str, trial: int) -> random.Random:
    return random.Random(f"{seed}|{label}|{trial}")


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n) by the module's rule."""
    if n < 1:  # getrandbits(0) is 0, so an empty range would never end
        raise ValueError(f"empty range [0, {n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


@lru_cache(maxsize=1 << 10)
def _masks(dim: int, degree: int) -> tuple[int, ...]:
    """The basis bitmasks of the degree-``degree`` forms on R^dim, in ``combinations`` order."""
    return tuple(sum(1 << i for i in idx) for idx in combinations(range(dim), degree))


@lru_cache(maxsize=None)
def _ones(dim: int) -> tuple[int, ...]:
    """Each coordinate's ``one_i`` from ``layout``: key + one_i raises exponent i by 1."""
    return tuple(one for _, one in layout(dim)[0])


def _drawer(rng: random.Random, dim: int, max_degree: int, terms: int = 2):
    """``draw(out, m)`` adds ``terms`` random monomials into ``out`` at keys m + sum one_i, redrawn while
    their sum cancels: keys at basis m meet no other basis's, so it is nonzero exactly when ``out`` grew.
    The ranges are checked at each draw, so a refusal comes at the first monomial."""
    getrandbits, ones, n_deg, n_coord, n_coeff = rng.getrandbits, _ones(dim), max_degree + 1, dim, len(_COEFFS)
    k_deg, k_coord = n_deg.bit_length(), n_coord.bit_length()

    def draw(out: dict, m: int) -> dict:
        if n_deg > EXP_MAX + 1:
            raise ExponentOverflow(f"max_degree {n_deg - 1} exceeds {EXP_MAX}")
        if n_deg < 1:
            raise ValueError(f"empty range [0, {n_deg})")
        size = len(out)
        while len(out) == size:  # the module's rule, written out for each integer
            for _ in range(terms):
                r = getrandbits(k_deg)
                while r >= n_deg:
                    r = getrandbits(k_deg)
                if r and n_coord < 1:  # getrandbits(0) is 0, so an empty range would never end
                    raise ValueError(f"empty range [0, {n_coord})")
                key = m
                for _ in range(r):
                    i = getrandbits(k_coord)
                    while i >= n_coord:
                        i = getrandbits(k_coord)
                    key += ones[i]
                i = getrandbits(_COEFF_BITS)
                while i >= n_coeff:
                    i = getrandbits(_COEFF_BITS)
                s = out.pop(key, 0) + _COEFFS[i]
                if s:  # zero when the coefficient cancels an earlier monomial
                    out[key] = s
        return out

    return draw


def random_polynomial(rng: random.Random, dim: int, max_degree: int, terms: int = 2) -> Polynomial:
    """Nonzero sum of ``terms`` >= 1 random monomials of total degree <= max_degree,
    with integer coefficients in [-9, 9] \\ {0}; redrawn while the sum cancels."""
    if terms < 1:  # a sum of no monomials is zero, so its redraw would never end
        raise ValueError(f"terms {terms} < 1")
    return Polynomial._raw(dim, 0, _drawer(rng, dim, max_degree, terms)({}, 0))


def random_form(rng: random.Random, dim: int, degree: int, max_degree: int, density: float = 0.7) -> DifferentialForm:
    """Random homogeneous form; each basis component present with prob ``density``,
    its coefficient drawn as ``random_polynomial`` draws one."""
    masks = _masks(dim, degree)
    draw, present, out = _drawer(rng, dim, max_degree), rng.random, {}
    for m in masks:
        if present() < density:
            draw(out, m)
    if not out:  # keep campaign inputs nonzero
        draw(out, masks[_below(rng, len(masks))])
    return DifferentialForm._raw(dim, degree, out)
