"""The campaign inputs: ``koszul.randgen`` against the stdlib-based oracle in ``_util``.

Both draw through the same Mersenne Twister, so on every seed they must give
the same value (or raise the same exception type) and leave the generator in
the same state.  The grid's ranges include n = 2, 4, 8 and 16, where a draw
of (n - 1).bit_length() bits in place of n.bit_length() changes the stream.
"""

import pytest

from koszul.poly import EXP_MAX
from koszul.randgen import random_form, random_polynomial, trial_rng

from _util import SEED, stdlib_random_form, stdlib_random_polynomial

MAX_DEGREES = (1, 2, 3, 4, 7, 8, 15, 16)
DENSITIES = (1e-9, 0.3, 0.7, 1)


def _outcome(draw, label, *args):
    """(value or exception type, generator state after the draw) on the generator of ``label``."""
    rng = trial_rng(SEED, label, 0)
    try:
        out = draw(rng, *args)
        value = (type(out), out.dim, out.degree, out.packed)
    except ValueError as exc:  # ExponentOverflow included
        value = type(exc)
    return value, rng.getstate()


def _grid():
    for dim in range(9):
        for md in MAX_DEGREES:
            for terms in (1, 2, 3):
                yield "poly", (dim, md, terms)
            for degree in range(dim + 2):
                for density in DENSITIES:
                    yield "form", (dim, degree, md, density)


# draws with no range to draw from (a basis of degree 3 on R^2, a coordinate of R^0), and a degree past
# EXP_MAX, refused at the first monomial: after the density draws, or never when the range is empty
EMPTY_RANGES = [("form", (2, 3, 2)), ("poly", (0, 3)),
                ("form", (2, 3, EXP_MAX + 1)), ("form", (2, 1, EXP_MAX + 1)), ("poly", (2, EXP_MAX + 1))]

PAIRS = {"form": (random_form, stdlib_random_form), "poly": (random_polynomial, stdlib_random_polynomial)}


def test_draw_stream_matches_the_stdlib_oracle_on_the_grid():
    kinds = set()
    for kind, args in _grid():
        label = f"grid/{kind}/{args}"
        ours, oracle = (_outcome(draw, label, *args) for draw in PAIRS[kind])
        assert ours == oracle, (kind, args)
        kinds.add((kind, ours[0] if isinstance(ours[0], type) else "value"))
    # both outcomes are reached: values everywhere, and the refusals of degree > dim and of R^0
    assert kinds == {(k, o) for k in PAIRS for o in ("value", ValueError)}


@pytest.mark.parametrize("kind, args", EMPTY_RANGES, ids=[f"{k}{a}" for k, a in EMPTY_RANGES])
def test_empty_ranges_are_refused_as_by_the_oracle(kind, args):
    outcomes = set()
    for t in range(40):
        ours, oracle = (_outcome(draw, f"empty/{t}", *args) for draw in PAIRS[kind])
        assert ours == oracle, t
        outcomes.add(ours[0] if isinstance(ours[0], type) else "value")
    assert outcomes - {"value"}, "no seed reached the refusal"
