from fractions import Fraction
from itertools import combinations

import pytest

from koszul import (
    DifferentialForm,
    MultiVectorField,
    Polynomial,
    SymplecticSpace,
    contract_bivector,
    contract_vector,
    d,
    d_poly,
    parse_form,
)
from koszul.forms import _contract
from koszul.poly import EXP_MAX, ExponentOverflow
from koszul.randgen import random_form, random_polynomial

from _util import (
    assert_stored_canonically,
    contraction_oracle,
    partial_derivative,
    rand_form,
    rand_frac_form,
    rand_frac_poly,
    rand_poly,
    rng,
    stdlib_random_vector_field,
    wedge_reference,
)


def basis(dim, *indices):
    return DifferentialForm.basis(dim, indices)


# -- wedge ------------------------------------------------------------------


def test_wedge_repeated_index_is_zero():
    assert basis(2, 0).wedge(basis(2, 0)).is_zero()


def test_wedge_one_forms_anticommute():
    a, b = basis(3, 0), basis(3, 1)
    assert a.wedge(b) == -(b.wedge(a))


def test_wedge_bilinear_over_polynomials():
    v1 = Polynomial.coordinate(2, 0)
    lhs = DifferentialForm.basis(2, (0,), v1).wedge(basis(2, 1))
    assert lhs == DifferentialForm.basis(2, (0, 1), v1)


def test_wedge_graded_commutative_random():
    for t in range(12):
        for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (0, 2)]:
            a = rand_form("gc-a", t + 10 * p, 4, p)
            b = rand_form("gc-b", t + 10 * q, 4, q)
            sign = -1 if (p * q) % 2 else 1
            assert a.wedge(b) == b.wedge(a) * sign


def test_wedge_associative_random():
    for t in range(10):
        a = rand_form("assoc-a", t, 4, 1)
        b = rand_form("assoc-b", t, 4, 1)
        c = rand_form("assoc-c", t, 4, 2)
        assert a.wedge(b.wedge(c)) == (a.wedge(b)).wedge(c)


def test_wedge_overflow_degree_is_zero():
    a = rand_form("ovf", 0, 2, 2)
    assert a.wedge(rand_form("ovf2", 0, 2, 1)).is_zero()


def _operand(cls, kind, label, t, dim, degree):
    """A sparse random operand; ``frac`` sums two draws over denominators 3 and 7."""
    a = random_form(rng(label, t), dim, degree, 2, density=0.4)
    if kind == "frac":
        a = a * Fraction(1, 3) + random_form(rng(f"{label}/b", t), dim, degree, 2, density=0.4) * Fraction(-2, 7)
    return cls(dim, degree, a.components())


def _fused_equals_reference(a, b):
    out = a.wedge(b)
    assert out == wedge_reference(a, b) and out.degree == a.degree + b.degree
    return assert_stored_canonically(out)


@pytest.mark.parametrize("kind", ["int", "frac"])
@pytest.mark.parametrize("cls", [DifferentialForm, MultiVectorField], ids=["form", "multivector"])
def test_wedge_kernel_matches_per_pair_reference(cls, kind):
    for dim in range(1, 9):
        for p in range(dim + 1):
            for q in range(dim + 1):
                label = f"wk-{cls.__name__}-{kind}-{dim}-{p}-{q}"
                a = _operand(cls, kind, f"{label}-a", 0, dim, p)
                b = _operand(cls, kind, f"{label}-b", 0, dim, q)
                ab = _fused_equals_reference(a, b)
                ba = _fused_equals_reference(b, a)
                # graded commutativity: the difference cancels to the zero form
                assert (ab - ba * (-1) ** (p * q)).is_zero()
                if p & 1:  # a ^ a cancels pair by pair inside one product
                    assert _fused_equals_reference(a, a).is_zero()


@pytest.mark.parametrize("kind", ["int", "frac"])
@pytest.mark.parametrize("dim", range(1, 9))
def test_every_kernel_keeps_the_storage_invariant(dim, kind):
    # every key (m, e) of a result has popcount(m) == degree, m < 2**dim, len(e) == dim, and c != 0
    frac = kind == "frac"
    form = rand_frac_form if frac else rand_form
    label = f"inv-{kind}/{dim}"
    X = stdlib_random_vector_field(rng(f"{label}/X", 0), dim, 2)
    pi = X.wedge(stdlib_random_vector_field(rng(f"{label}/Y", 0), dim, 2))
    f = (rand_frac_poly if frac else rand_poly)(f"{label}/f", 0, dim, 2)
    s = SymplecticSpace(dim // 2) if dim % 2 == 0 else None
    one = form(f"{label}/one", 0, dim, 1)
    for degree in range(dim + 1):
        a = form(f"{label}/a", degree, dim, degree, 2)
        b = form(f"{label}/b", degree, dim, degree, 2)
        results = [d(a), a.wedge(one), one.wedge(a), a.wedge(b), contract_vector(X, a), contract_bivector(pi, a),
                   a + b, a - b, a - a, -a, a * 3, a * Fraction(-2, 5), a * 0, a * f, pi, X * f]
        if s is not None:
            results += [s.L(a), s.Lam(a), s.delta(a), s.H(a)]
        for r in results:
            assert_stored_canonically(r)
        assert (a - a).is_zero() and (a * 0).is_zero()


# -- exterior derivative ------------------------------------------------------


def test_d_of_coordinate():
    v1 = Polynomial.coordinate(2, 0)
    assert d_poly(v1) == basis(2, 0)


def test_d_on_monomial_term():
    a = parse_form("v1 dx2", 2)
    assert d(a) == parse_form("dx1^dx2", 2)


def test_d_squared_zero_random():
    for t in range(10):
        for degree in range(0, 4):
            a = rand_form("dd", t + 10 * degree, 4, degree)
            assert d(d(a)).is_zero()


def d_oracle(a):
    """d a = sum_i dx_i ^ (d a / d x_i), from wedge and ``partial_derivative`` only."""
    total = DifferentialForm.zero(a.dim, min(a.degree + 1, a.dim))
    for i in range(a.dim):
        partial = DifferentialForm(a.dim, a.degree,
                                   {idx: partial_derivative(p, i) for idx, p in a.components().items()})
        total = total + basis(a.dim, i).wedge(partial)
    return total


@pytest.mark.parametrize("dim", range(1, 9))
def test_d_matches_partial_derivative_oracle(dim):
    for degree in range(0, dim + 1):
        for t in range(2):
            for a in (rand_form(f"d-oracle/{dim}", t + 2 * degree, dim, degree),
                      rand_frac_form(f"d-oracle-q/{dim}", t + 2 * degree, dim, degree)):
                assert d(a) == d_oracle(a)


def test_d_leibniz_random():
    for t in range(10):
        for p in (0, 1, 2):
            a = rand_form("leib-a", t + 7 * p, 3, p)
            b = rand_form("leib-b", t, 3, 1)
            lhs = d(a.wedge(b))
            rhs = d(a).wedge(b) + a.wedge(d(b)) * ((-1) ** p)
            assert lhs == rhs


# -- contractions -------------------------------------------------------------


def test_contract_vector_dual_pairing():
    X = MultiVectorField.basis(2, (0,))
    assert contract_vector(X, basis(2, 0)) == DifferentialForm.from_polynomial(
        Polynomial.constant(2, 1)
    )


def test_contract_vector_two_form():
    # iota_{e2}(dx1^dx2) = -dx1, by the alternating-sum expansion
    X = MultiVectorField.basis(2, (1,))
    got = contract_vector(X, basis(2, 0, 1))
    assert got == -basis(2, 0)
    assert got == contraction_oracle(X, basis(2, 0, 1))


def test_contract_vector_kills_functions():
    X = MultiVectorField.basis(2, (0,))
    f = rand_form("cf", 0, 2, 0)
    assert contract_vector(X, f).is_zero()


def test_contract_vector_matches_oracle_random():
    for t in range(12):
        X = stdlib_random_vector_field(rng("cv-X", t), 4, 2)
        for degree in (0, 1, 2, 3):
            a = rand_form("cv-a", t + 13 * degree, 4, degree)
            got, expected = contract_vector(X, a), contraction_oracle(X, a)
            assert got == expected and got.degree == expected.degree == a.degree - 1


def test_contract_vector_graded_derivation():
    for t in range(10):
        X = stdlib_random_vector_field(rng("der-X", t), 3, 2)
        for p in (1, 2):
            a = rand_form("der-a", t + 5 * p, 3, p)
            b = rand_form("der-b", t, 3, 1)
            lhs = contract_vector(X, a.wedge(b))
            rhs = contract_vector(X, a).wedge(b) + a.wedge(contract_vector(X, b)) * ((-1) ** p)
            assert lhs == rhs


def test_contract_bivector_pinned_order():
    # iota_{e1^e2}(dx1^dx2) = +1: first factor contracts innermost
    pi = MultiVectorField.basis(2, (0, 1))
    got = contract_bivector(pi, basis(2, 0, 1))
    assert got == DifferentialForm.from_polynomial(Polynomial.constant(2, 1))


def test_contract_bivector_index_mismatch():
    pi = MultiVectorField.basis(3, (0, 1))
    assert contract_bivector(pi, basis(3, 0, 2)).is_zero()


def test_contract_bivector_kills_low_degree():
    pi = MultiVectorField.basis(2, (0, 1))
    assert contract_bivector(pi, rand_form("cb0", 0, 2, 0)).is_zero()
    assert contract_bivector(pi, rand_form("cb1", 0, 2, 1)).is_zero()


def test_contract_bivector_agrees_with_iterated_contraction():
    # on decomposables X^Y the pinned order is iota_Y . iota_X
    for t in range(10):
        X = stdlib_random_vector_field(rng("it-X", t), 4, 2)
        Y = stdlib_random_vector_field(rng("it-Y", t), 4, 2)
        xy = X.wedge(Y)
        if xy.is_zero():
            continue
        for degree in (2, 3, 4):
            a = rand_form("it-a", t + 11 * degree, 4, degree)
            assert contract_bivector(xy, a) == contract_vector(Y, contract_vector(X, a))


def test_contraction_kernel_sign_rule_on_every_basis():
    # R1..R7, every basis m and every P inside it with |P| = 1, 2 or 3, unit coefficients; under 0.1 s.
    # The kernel must match the iterated contract_vector in the pinned order iota_{e_pr} ... iota_{e_p1},
    # and for |P| <= 2 the two closed rules it replaced, kept here as the oracle.
    for dim in range(1, 8):
        for m in range(1 << dim):
            a = DifferentialForm._raw(dim, m.bit_count(), {m: 1})
            idx = [i for i in range(dim) if m >> i & 1]
            for r in (1, 2, 3):
                for P in combinations(idx, r):
                    pm = sum(1 << i for i in P)
                    got = _contract(MultiVectorField._raw(dim, r, {pm: 1}), a)
                    iterated = a
                    for i in P:
                        iterated = contract_vector(MultiVectorField._raw(dim, 1, {1 << i: 1}), iterated)
                    assert got == iterated and got.degree == a.degree - r, (dim, m, P)
                    if r == 1:  # the vector rule: (-1)^below(m, i)
                        assert got.packed == {m ^ pm: (-1) ** (m & (pm - 1)).bit_count()}, (dim, m, P)
                    if r == 2:  # the bivector rule: (-1) to the number of bits of m strictly between i and j
                        between = (pm & (pm - 1)) - ((pm & -pm) << 1)
                        assert got.packed == {m ^ pm: (-1) ** (m & between).bit_count()}, (dim, m, P)


def test_degree_homogeneity_enforced():
    with pytest.raises(ValueError):
        basis(3, 0) + basis(3, 0, 1)


def test_nonzero_form_outside_its_degree_range_rejected():
    one = Polynomial.constant(2, 1)
    for cls in (DifferentialForm, MultiVectorField):
        with pytest.raises(ValueError):
            cls(2, 3, {(0, 1, 2): one})
        with pytest.raises(ValueError):
            cls(2, -1, {(): one})
        assert cls(2, 3).is_zero() and cls(2, -1).is_zero()


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        basis(2, 0).wedge(basis(3, 0))
    with pytest.raises(ValueError, match="lives on R"):
        DifferentialForm(3, 1, {(0,): Polynomial.coordinate(2, 0)})
    with pytest.raises(ValueError, match="dimension mismatch"):
        basis(3, 0) * Polynomial.coordinate(2, 0)


def test_mixed_operands_are_refused_or_commute():
    f = Polynomial.coordinate(2, 0)
    a = DifferentialForm.basis(2, (0,))
    with pytest.raises(TypeError):  # not a product of coefficients: dx1 * dx1 is no 1-form
        a * a
    with pytest.raises(TypeError):
        MultiVectorField.basis(2, (0,)) * a
    with pytest.raises(ValueError):
        f + a
    assert f * a == a * f == DifferentialForm.basis(2, (0,), f)


def test_multivector_wedge_and_equality():
    X = MultiVectorField.basis(3, (0,))
    Y = MultiVectorField.basis(3, (1,))
    assert X.wedge(Y) == MultiVectorField.basis(3, (0, 1))
    assert Y.wedge(X) == -MultiVectorField.basis(3, (0, 1))


# -- exponent bound --------------------------------------------------------------


def _power(dim, exponent):
    return Polynomial(dim, {(exponent,) + (0,) * (dim - 1): 1})


@pytest.mark.parametrize("kernel", ["wedge", "times-polynomial", "contract_vector", "contract_bivector"])
def test_every_product_kernel_raises_past_the_exponent_bound(kernel):
    # each kernel that adds keys: a result exponent of EXP_MAX is stored, EXP_MAX + 1 raises
    def run(extra):
        f, g = _power(2, EXP_MAX - 1), _power(2, extra)
        if kernel == "wedge":
            return DifferentialForm(2, 1, {(0,): f}).wedge(DifferentialForm(2, 1, {(1,): g}))
        if kernel == "times-polynomial":
            return DifferentialForm(2, 1, {(0,): f}) * g
        if kernel == "contract_vector":
            return contract_vector(MultiVectorField(2, 1, {(0,): g}), DifferentialForm(2, 1, {(0,): f}))
        return contract_bivector(MultiVectorField(2, 2, {(0, 1): g}), DifferentialForm(2, 2, {(0, 1): f}))

    top = assert_stored_canonically(run(1))
    assert [e for p in top.components().values() for e in p.terms] == [(EXP_MAX, 0)]
    with pytest.raises(ExponentOverflow):
        run(2)


def test_derivatives_read_the_top_exponent():
    top = DifferentialForm(2, 1, {(1,): _power(2, EXP_MAX)})
    assert d(top) == DifferentialForm(2, 2, {(0, 1): _power(2, EXP_MAX - 1) * EXP_MAX})
    assert SymplecticSpace(1).delta(top).as_polynomial() == _power(2, EXP_MAX - 1) * EXP_MAX


def test_random_inputs_refuse_degrees_above_the_bound():
    r = rng("exp-bound")
    assert random_form(r, 2, 1, EXP_MAX).degree == 1  # reachable, and stored with clear guards
    with pytest.raises(ExponentOverflow):
        random_form(r, 2, 1, EXP_MAX + 1)
    with pytest.raises(ExponentOverflow):
        random_polynomial(r, 2, EXP_MAX + 1)


def test_empty_operands_give_the_zero_form_of_the_product_degree():
    a = rand_form("empty-op", 0, 4, 2)
    zero1 = DifferentialForm.zero(4, 1)
    assert a.wedge(zero1).degree == 3 and zero1.wedge(a).is_zero()
    assert (a * Polynomial.zero(4)).is_zero() and (a * Polynomial.zero(4)).degree == 2
    assert (DifferentialForm.zero(4, 2) * rand_poly("empty-op-p", 0, 4)).degree == 2
