from fractions import Fraction

import pytest

from koszul import DifferentialForm, MultiVectorField, Polynomial, parse_form
from koszul.poly import EXP_MAX, ExponentOverflow

from _util import rand_poly, total_degree


def test_zero_and_constant():
    z = Polynomial.zero(3)
    assert z.is_zero()
    assert Polynomial.constant(3, 0) == z
    c = Polynomial.constant(3, Fraction(2, 3))
    assert c.constant_value() == Fraction(2, 3)
    assert total_degree(c) == 0
    assert total_degree(z) == -1


def test_zero_coefficients_never_stored():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = Polynomial.coordinate(2, 0) - Polynomial.coordinate(2, 0)
    assert q.is_zero() and not q.terms


def test_exponent_length_enforced():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})


def test_ring_axioms_on_random_samples():
    for t in range(20):
        p = rand_poly("ring-p", t, 3)
        q = rand_poly("ring-q", t, 3)
        r = rand_poly("ring-r", t, 3)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert p - p == Polynomial.zero(3)
        assert (p * q) * r == p * (q * r)


def test_derivative_is_linear_and_leibniz():
    for t in range(20):
        p = rand_poly("diff-p", t, 2)
        q = rand_poly("diff-q", t, 2)
        for i in range(2):
            assert (p + q).diff(i) == p.diff(i) + q.diff(i)
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_partial_derivative_values():
    v1 = Polynomial.coordinate(2, 0)
    v2 = Polynomial.coordinate(2, 1)
    p = v1 * v1 * v2  # v1^2 v2
    assert p.diff(0) == 2 * v1 * v2
    assert p.diff(1) == v1 * v1
    assert p.diff(0).diff(1) == p.diff(1).diff(0)


def test_arithmetic_stays_exact():
    third = Polynomial.constant(1, Fraction(1, 3))
    total = Polynomial.zero(1)
    for _ in range(3):
        total = total + third
    assert total == Polynomial.constant(1, 1)
    p = rand_poly("exact", 0, 2)
    assert p * Fraction(1, 7) * 7 == p


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        Polynomial.zero(2) + Polynomial.zero(3)


# -- packed keys ----------------------------------------------------------------


def test_terms_is_the_decoded_tuple_view():
    # the benchmark tracer iterates the first key of ``terms``: it must stay {exponent tuple: coeff}
    p = Polynomial(3, {(2, 0, 1): Fraction(1, 2), (0, 0, 0): -4})
    assert p.terms == {(2, 0, 1): Fraction(1, 2), (0, 0, 0): -4}
    assert all(type(e) is tuple and len(e) == 3 for e in p.terms)
    assert not any(next(iter(Polynomial.constant(3, 5).terms)))
    assert p.packed[0] == -4 and len(p.packed) == 2


def test_exponents_above_the_bound_are_refused():
    assert Polynomial(2, {(EXP_MAX, 0): 1}).terms == {(EXP_MAX, 0): 1}
    with pytest.raises(ExponentOverflow):
        Polynomial(2, {(EXP_MAX + 1, 0): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): 1})


def test_product_overflow_is_raised_at_the_boundary():
    v1, v2 = Polynomial(2, {(1, 0): 1}), Polynomial(2, {(0, EXP_MAX): 1})
    high = Polynomial(2, {(EXP_MAX - 1, 3): 2})
    assert (high * v1).terms == {(EXP_MAX, 3): 2}
    assert (v1 * v2).terms == {(1, EXP_MAX): 1}  # a full field next to a nonzero one
    with pytest.raises(ExponentOverflow):
        high * v1 * v1
    with pytest.raises(ExponentOverflow):
        v2 * Polynomial(2, {(0, 1): 1})
    assert (high * v1).diff(0).terms == {(EXP_MAX - 1, 3): 2 * EXP_MAX}


@pytest.mark.parametrize("make", [
    lambda: Polynomial(3, {(1, 0, 2): 3, (0, 1, 0): -1}),
    lambda: parse_form("v1 dx1^dx2 - 3 v3^2 dx2^dx3", 3),
    lambda: MultiVectorField(3, 1, {(0,): Polynomial(3, {(1, 1, 0): 2}), (2,): Polynomial.constant(3, 5)}),
], ids=["polynomial", "form", "vector-field"])
def test_difference_of_equal_maps_is_the_zero_of_that_degree(make):
    x = make()
    same = x * Fraction(1)  # equal map, its coefficients Fractions where x's are ints
    assert {type(c) for c in x.packed.values()} == {int} and {type(c) for c in same.packed.values()} == {Fraction}
    for lhs, rhs in ((x, x), (x, make()), (x, same), (same, x)):
        out = lhs - rhs
        assert type(out) is type(x) and out.packed == {} and (out.dim, out.degree) == (x.dim, x.degree)
    zero = type(x).zero(x.dim, x.degree)
    assert x - zero is x and x + zero is x


def test_equal_operand_difference_keeps_every_refusal():
    p = Polynomial(3, {(1, 0, 0): 1})
    a = parse_form("v1 dx1", 3)
    with pytest.raises(ValueError, match="cannot combine"):
        p - DifferentialForm._raw(3, 0, dict(p.packed))
    with pytest.raises(ValueError, match="cannot combine"):
        a - MultiVectorField._raw(3, 1, dict(a.packed))
    with pytest.raises(ValueError, match="dimension mismatch"):
        p - Polynomial._raw(4, 0, dict(p.packed))
    with pytest.raises(ValueError, match="cannot add degrees 1 and 2"):
        a - DifferentialForm._raw(3, 2, dict(a.packed))
