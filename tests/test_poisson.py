import pytest

from koszul import (
    DifferentialForm,
    MultiVectorField,
    Polynomial,
    PoissonSpace,
    SymplecticSpace,
    contract_bivector,
    d_poly,
    jacobiator_residual,
    l_bracket,
    obstruction,
    obstruction_identity_residual,
    omega1_bracket,
    parse_form,
    sl2_dual,
    standard_symplectic,
    symplectic_obstruction_witness,
    zero_poisson,
)

from _util import rand_form, rand_poly


PRESETS = [standard_symplectic(1), standard_symplectic(2), sl2_dual(), zero_poisson(3)]


def coords(m):
    return [Polynomial.coordinate(m, i) for i in range(m)]


# -- presets -----------------------------------------------------------------


def test_preset_constructors():
    assert standard_symplectic(2).m == 4
    assert sl2_dual().name == "sl2star"
    assert zero_poisson(4).pi.is_zero()


def test_sl2_bracket_table():
    p = sl2_dual()
    v = coords(3)
    assert p.bracket(v[1], v[2]) == v[0]  # {v2, v3} = v1
    assert p.bracket(v[2], v[0]) == v[1]  # {v3, v1} = v2
    assert p.bracket(v[0], v[1]) == -v[2]  # {v1, v2} = -v3


def test_sl2_casimir():
    p = sl2_dual()
    v = coords(3)
    casimir = v[0] * v[0] + v[1] * v[1] - v[2] * v[2]
    for g in v:
        assert p.bracket(casimir, g).is_zero()


def test_standard_preset_matches_symplectic_bracket():
    s = SymplecticSpace(2)
    p = standard_symplectic(2)
    for t in range(8):
        f = rand_poly("std-f", t, 4)
        g = rand_poly("std-g", t, 4)
        assert p.bracket(f, g) == s.poisson_bracket(f, g)


def test_standard_preset_delta_matches_symplectic_delta():
    s = SymplecticSpace(2)
    p = standard_symplectic(2)
    for degree in range(0, 5):
        for t in range(4):
            a = rand_form(f"stdd-{degree}", t, 4, degree)
            assert p.delta(a) == s.delta(a)


def test_from_entries_grammar_interface():
    p = PoissonSpace.from_entries(3, [(2, 3, "v1"), (1, 3, "-v2"), (1, 2, "-v3")])
    assert p.pi == sl2_dual().pi
    with pytest.raises(ValueError):
        PoissonSpace.from_entries(3, [(3, 2, "v1")])


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_jacobi_on_coordinates_and_random(p):
    assert p.jacobi_ok_on_coordinates()
    for t in range(5):
        fs = [rand_poly(f"jac-{p.name}-{i}", t, p.m) for i in range(3)]
        assert p.jacobi_residual(*fs).is_zero()


# -- the differential ------------------------------------------------------------


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_delta_squared_zero_every_degree(p):
    for degree in range(0, p.m + 1):
        for t in range(6):
            a = rand_form(f"d2-{p.name}-{degree}", t, p.m, degree)
            assert p.delta(p.delta(a)).is_zero()


def test_delta_kills_functions():
    p = sl2_dual()
    assert p.delta(DifferentialForm.from_polynomial(rand_poly("dk", 0, 3))).is_zero()


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_delta_f_dg_is_bracket(p):
    for t in range(6):
        f = rand_poly(f"fdg-{p.name}-f", t, p.m)
        g = rand_poly(f"fdg-{p.name}-g", t, p.m)
        got = p.delta(d_poly(g) * f)
        assert got == DifferentialForm.from_polynomial(p.bracket(f, g))


def test_sl2_contraction_identity():
    # iota_pi(dx1^dx2^dx3) = v1 dx1 + v2 dx2 - v3 dx3, constant factor one
    p = sl2_dual()
    top = parse_form("dx1^dx2^dx3", 3)
    assert contract_bivector(p.pi, top) == parse_form("v1 dx1 + v2 dx2 - v3 dx3", 3)
    # and delta of the top form is then exact-zero
    assert p.delta(top).is_zero()


# -- obstruction machinery ----------------------------------------------------------


def test_obstruction_collapses_with_unit_argument():
    p = sl2_dual()
    f = rand_poly("obu-f", 0, 3)
    g = rand_poly("obu-g", 0, 3)
    one = Polynomial.constant(3, 1)
    got = obstruction(p, f, g, one)
    assert got == d_poly(p.bracket(f, g))


def test_obstruction_zero_structure():
    p = zero_poisson(3)
    fs = [rand_poly(f"obz-{i}", 1, 3) for i in range(3)]
    assert obstruction(p, *fs).is_zero()


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_obstruction_identity_residual_vanishes(p):
    for t in range(8):
        fs = [rand_poly(f"obi-{p.name}-{i}", t, p.m) for i in range(3)]
        assert obstruction_identity_residual(p, *fs).is_zero()


def test_symplectic_witness_certifies_membership():
    for n in (1, 2):
        s = SymplecticSpace(n)
        p = standard_symplectic(n)
        for t in range(8):
            fs = [rand_poly(f"wit-{n}-{i}", t, s.dim) for i in range(3)]
            w = symplectic_obstruction_witness(s, *fs)
            assert w.degree == 2 or w.is_zero()
            assert (obstruction(p, *fs) - p.delta(w)).is_zero()


# -- the 1-form bracket ---------------------------------------------------------------


def test_omega1_bracket_kills_delta_closed():
    p = sl2_dual()
    alpha = d_poly(rand_poly("o1c", 0, 3))  # delta(df) = 0
    assert p.delta(alpha).is_zero()
    beta = rand_form("o1c-b", 0, 3, 1)
    assert omega1_bracket(p, alpha, beta).is_zero()


def test_omega1_bracket_antisymmetric():
    p = sl2_dual()
    a = rand_form("o1a", 2, 3, 1)
    b = rand_form("o1b", 2, 3, 1)
    assert omega1_bracket(p, a, b) == -omega1_bracket(p, b, a)
    assert omega1_bracket(p, a, a).is_zero()


def test_omega1_bracket_matches_family_l2():
    s = SymplecticSpace(1)
    p = standard_symplectic(1)
    for t in range(6):
        a = rand_form("o1l2-a", t, 2, 1)
        b = rand_form("o1l2-b", t, 2, 1)
        assert omega1_bracket(p, a, b) == l_bracket(s, 2, [a, b]).form


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_jacobiator_residual_vanishes(p):
    for t in range(6):
        forms = [rand_form(f"jr-{p.name}-{i}", t, p.m, 1) for i in range(3)]
        assert jacobiator_residual(p, *forms).is_zero()


def test_jacobiator_with_delta_closed_argument():
    p = sl2_dual()
    closed = d_poly(rand_poly("jrc", 0, 3))
    b = rand_form("jrc-b", 0, 3, 1)
    c = rand_form("jrc-c", 0, 3, 1)
    res = jacobiator_residual(p, closed, b, c)
    assert res.is_zero()


def test_bivector_validation():
    with pytest.raises(ValueError):
        PoissonSpace(3, MultiVectorField.basis(3, (0,)))
    with pytest.raises(ValueError):
        PoissonSpace(4, MultiVectorField.basis(3, (0, 1)))
