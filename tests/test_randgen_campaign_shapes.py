"""The campaign inputs drawn in a row from one generator, in the campaign's own shapes.

Each draw of ``koszul.randgen`` must leave the generator where the stdlib-based
oracle in ``_util`` leaves it, so a later draw from the same generator sees the
same stream; the grid in ``test_randgen`` checks one draw per generator.
"""

import pytest

from koszul.randgen import random_form, random_polynomial, trial_rng

from _util import SEED, stdlib_random_form

# (degree, max_degree) of each form in the row: the n = 9 row of the L-infinity suite draws nine
# degree-1 forms on R^8 at max_degree 2; the operators suite's forms on R^8 have degrees 0..8 at 3
ROWS = {"linfty-n9": [(1, 2)] * 9, "operators": [(k, 3) for k in range(9)]}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_forms_drawn_in_a_row_match_the_oracle_form_by_form(row):
    for t in range(20):
        ours, oracle = trial_rng(SEED, f"row/{row}", t), trial_rng(SEED, f"row/{row}", t)
        for degree, max_degree in ROWS[row]:
            a, b = random_form(ours, 8, degree, max_degree), stdlib_random_form(oracle, 8, degree, max_degree)
            assert a == b and a.degree == b.degree, (t, degree)
            assert list(a.packed.items()) == list(b.packed.items()), (t, degree)  # same order too
            assert ours.getstate() == oracle.getstate(), (t, degree)


@pytest.mark.parametrize("terms", [0, -1])
def test_random_polynomial_refuses_fewer_than_one_term_before_any_draw(terms):
    rng = trial_rng(SEED, "terms", terms)
    before = rng.getstate()
    with pytest.raises(ValueError, match="terms"):
        random_polynomial(rng, 2, 3, terms)
    assert rng.getstate() == before
