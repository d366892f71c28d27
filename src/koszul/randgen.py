"""Seeded random polynomials and forms for verification campaigns.

Per-trial generators are derived as Random(f"{seed}|{label}|{trial}"), which
CPython seeds by hashing the string with sha512: results are reproducible
across runs, platforms, and any parallel execution order.
"""

from __future__ import annotations

import random
from itertools import combinations

from .forms import DifferentialForm, MultiVectorField
from .poly import Polynomial


def trial_rng(seed: int, label: str, trial: int) -> random.Random:
    return random.Random(f"{seed}|{label}|{trial}")


def random_polynomial(rng: random.Random, dim: int, max_degree: int, terms: int = 2) -> Polynomial:
    """Nonzero sum of ``terms`` random monomials of total degree <= max_degree,
    with integer coefficients in [-9, 9] \\ {0}; redrawn while the sum cancels."""
    while True:
        acc: dict[tuple, int] = {}
        for _ in range(terms):
            total = rng.randint(0, max_degree)
            exps = [0] * dim
            for _ in range(total):
                exps[rng.randrange(dim)] += 1
            c = rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9))
            key = tuple(exps)
            acc[key] = acc.get(key, 0) + c
        p = Polynomial(dim, acc)
        if not p.is_zero():
            return p


def random_form(
    rng: random.Random,
    dim: int,
    degree: int,
    max_degree: int,
    density: float = 0.7,
) -> DifferentialForm:
    """Random homogeneous form; each basis component present with prob ``density``."""
    masks = [sum(1 << i for i in idx) for idx in combinations(range(dim), degree)]
    drawn = [(m, random_polynomial(rng, dim, max_degree)) for m in masks if rng.random() < density]
    if not drawn:  # keep campaign inputs nonzero
        drawn = [(masks[rng.randrange(len(masks))], random_polynomial(rng, dim, max_degree))]
    return DifferentialForm._raw(dim, degree, {(m, e): c for m, p in drawn for e, c in p.terms.items()})


def random_vector_field(rng: random.Random, dim: int, max_degree: int) -> MultiVectorField:
    out = {}
    for i in range(dim):
        if rng.random() < 0.8:
            out[(i,)] = random_polynomial(rng, dim, max_degree, 2)
    if not out:
        out[(rng.randrange(dim),)] = random_polynomial(rng, dim, max_degree, 2)
    return MultiVectorField(dim, 1, out)
