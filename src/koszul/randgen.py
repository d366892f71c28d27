"""Seeded random polynomials and forms for verification campaigns.

Per-trial generators are derived as Random(f"{seed}|{label}|{trial}"), which
CPython seeds by hashing the string with sha512: results are reproducible
across runs, platforms, and any parallel execution order.
"""

from __future__ import annotations

import random
from itertools import combinations

from .forms import DifferentialForm, MultiVectorField
from .poly import EXP_MAX, ExponentOverflow, Polynomial, layout


def trial_rng(seed: int, label: str, trial: int) -> random.Random:
    return random.Random(f"{seed}|{label}|{trial}")


def _monomials(rng: random.Random, dim: int, max_degree: int, terms: int) -> dict[int, int]:
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


def random_polynomial(rng: random.Random, dim: int, max_degree: int, terms: int = 2) -> Polynomial:
    """Nonzero sum of ``terms`` random monomials of total degree <= max_degree,
    with integer coefficients in [-9, 9] \\ {0}; redrawn while the sum cancels."""
    return Polynomial._raw(dim, 0, _monomials(rng, dim, max_degree, terms))


def random_form(
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
             for k, c in _monomials(rng, dim, max_degree, 2).items()}
    if not terms:  # keep campaign inputs nonzero
        m = masks[rng.randrange(len(masks))]
        terms = {k | m: c for k, c in _monomials(rng, dim, max_degree, 2).items()}
    return DifferentialForm._raw(dim, degree, terms)


def random_vector_field(rng: random.Random, dim: int, max_degree: int) -> MultiVectorField:
    out = {}
    for i in range(dim):
        if rng.random() < 0.8:
            out[(i,)] = random_polynomial(rng, dim, max_degree, 2)
    if not out:
        out[(rng.randrange(dim),)] = random_polynomial(rng, dim, max_degree, 2)
    return MultiVectorField(dim, 1, out)
