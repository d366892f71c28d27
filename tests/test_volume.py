import pytest

from koszul import (
    MultiVectorField,
    Polynomial,
    VolumeSpace,
    contract_vector,
    d,
    exact_divfree_vf,
    linfty_residual,
    parse_form,
    volume_family,
)

from _util import rand_form


@pytest.fixture(scope="module")
def v3():
    return VolumeSpace(3)


@pytest.fixture(scope="module")
def v4():
    return VolumeSpace(4)


def test_volume_form_is_closed_top(v3):
    assert v3.mu.degree == 3
    assert d(v3.mu).is_zero()
    assert not v3.mu.is_zero()


def test_dimension_lower_bound():
    with pytest.raises(ValueError):
        VolumeSpace(2)


# -- exact divergence-free fields ---------------------------------------------


def test_closed_potential_gives_zero_field(v3):
    alpha = d(rand_form("cl", 0, 3, 0))  # exact hence closed
    assert exact_divfree_vf(v3, alpha).is_zero()


def test_worked_example_r3(v3):
    # potential v3 dx1: the field points along -e2
    alpha = parse_form("v3 dx1", 3)
    X = exact_divfree_vf(v3, alpha)
    assert X == MultiVectorField.basis(3, (1,), Polynomial.constant(3, -1))


def test_defining_property_random(v3, v4):
    for v in (v3, v4):
        for t in range(12):
            alpha = rand_form("dp", t, v.dim, v.dim - 2)
            X = exact_divfree_vf(v, alpha)
            assert (contract_vector(X, v.mu) + d(alpha)).is_zero()
            # divergence-free: d iota_X mu = 0
            assert d(contract_vector(X, v.mu)).is_zero()


def test_wrong_degree_rejected(v3):
    with pytest.raises(ValueError):
        exact_divfree_vf(v3, rand_form("wd", 0, 3, 0))


# -- brackets -------------------------------------------------------------------


def bracket(v, alphas):
    """l_k of (m-2)-form potentials, through the family as ``koszul bracket --volume`` and the campaign take it."""
    fam = volume_family(v)
    return fam.l([fam.element(a) for a in alphas]).form


def test_bracket_with_closed_argument_vanishes(v3):
    closed = d(rand_form("bc", 0, 3, 0))
    other = rand_form("bc-o", 0, 3, 1)
    assert bracket(v3, [closed, other]).is_zero()


def test_worked_bracket_example_r3(v3):
    a = parse_form("v3 dx1", 3)
    b = parse_form("v1 dx2", 3)
    assert bracket(v3, [a, b]) == parse_form("dx1", 3)


def test_bracket_antisymmetric_and_repeated_zero(v3):
    a = rand_form("ba", 1, 3, 1)
    b = rand_form("bb", 1, 3, 1)
    assert bracket(v3, [a, b]) == -bracket(v3, [b, a])
    assert bracket(v3, [a, a]).is_zero()


def test_quotient_bracket_sign(v3):
    # the arity-2 bracket is the double contraction up to the family's global sign:
    # l_2(a, b) = -iota_{X_a} iota_{X_b} mu, exactly as forms
    for t in range(8):
        a = rand_form("qs-a", t, 3, 1)
        b = rand_form("qs-b", t, 3, 1)
        lhs = bracket(v3, [a, b])
        Xa, Xb = exact_divfree_vf(v3, a), exact_divfree_vf(v3, b)
        rhs = contract_vector(Xa, contract_vector(Xb, v3.mu))
        assert (lhs + rhs).is_zero()


# -- the family -------------------------------------------------------------------


def test_family_differential(v3):
    fam = volume_family(v3)
    f = rand_form("fd", 0, 3, 0)
    out = fam.l([fam.element(f)])
    assert out.form == d(f)
    # truncated at the (m-2)-form layer
    top = rand_form("fd-top", 0, 3, 1)
    assert fam.l([fam.element(top)]).form.is_zero()


def test_family_grading(v4):
    fam = volume_family(v4)
    assert fam.element(rand_form("gr", 0, 4, 2)).ldegree == 0
    assert fam.element(rand_form("gr0", 0, 4, 0)).ldegree == -2
    out = fam.l([fam.element(rand_form(f"gr3-{i}", i, 4, 2)) for i in range(3)])
    assert out.ldegree == -1
    assert out.form.degree == 1 or out.form.is_zero()


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_identities_on_random_potentials(m, arity):
    v = VolumeSpace(m)
    fam = volume_family(v)
    for t in range(6):
        args = [fam.element(rand_form(f"id-{m}-{arity}-{i}", t, m, m - 2)) for i in range(arity)]
        assert linfty_residual(fam, args).form.is_zero()


def test_identity_with_mixed_degrees(v4):
    fam = volume_family(v4)
    args = [
        fam.element(rand_form("mix-0", 0, 4, 2)),
        fam.element(rand_form("mix-1", 0, 4, 1)),
        fam.element(rand_form("mix-2", 0, 4, 2)),
    ]
    assert linfty_residual(fam, args).form.is_zero()


def test_groundedness_on_exact_first_argument(v3):
    # l_2(d beta, alpha) = 0 because the field of an exact potential vanishes
    fam = volume_family(v3)
    beta = rand_form("g3-b", 0, 3, 0)
    alpha = rand_form("g3-a", 0, 3, 1)
    out = fam.l([fam.element(d(beta)), fam.element(alpha)]).form
    assert out.is_zero() and out.degree == 3 - 2  # a zero keeps the degree m - k of l_k


def test_bracket_beyond_dimension_vanishes(v3):
    args = [rand_form(f"hi-{i}", i, 3, 1) for i in range(4)]
    assert bracket(v3, args).is_zero()
