from fractions import Fraction
from functools import partial

import pytest

import koszul.poisson
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
    symplectic_witness_residual,
    zero_poisson,
)
from koszul.forms import _Alternating

from _util import doubled_mul, doubled_wedge, jacobi_holds_on_coordinates, jacobi_residual, rand_form, rand_poly


PRESETS = [standard_symplectic(1), standard_symplectic(2), sl2_dual(), zero_poisson(3)]


def coords(m):
    return [Polynomial.coordinate(m, i) for i in range(m)]


# -- presets -----------------------------------------------------------------


def test_preset_constructors():
    assert standard_symplectic(2).dim == 4
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


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_jacobi_on_coordinates_and_random(p):
    assert jacobi_holds_on_coordinates(p)
    for t in range(5):
        fs = [rand_poly(f"jac-{p.name}-{i}", t, p.dim) for i in range(3)]
        assert jacobi_residual(p, *fs).is_zero()


# -- the differential ------------------------------------------------------------


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_delta_squared_zero_every_degree(p):
    for degree in range(0, p.dim + 1):
        for t in range(6):
            a = rand_form(f"d2-{p.name}-{degree}", t, p.dim, degree)
            assert p.delta(p.delta(a)).is_zero()


def test_delta_kills_functions():
    p = sl2_dual()
    assert p.delta(DifferentialForm.from_polynomial(rand_poly("dk", 0, 3))).is_zero()


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_delta_f_dg_is_bracket(p):
    for t in range(6):
        f = rand_poly(f"fdg-{p.name}-f", t, p.dim)
        g = rand_poly(f"fdg-{p.name}-g", t, p.dim)
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
        fs = [rand_poly(f"obi-{p.name}-{i}", t, p.dim) for i in range(3)]
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
        assert omega1_bracket(p, a, b) == l_bracket(s, [a, b]).form


@pytest.mark.parametrize("p", PRESETS, ids=lambda p: p.name)
def test_jacobiator_residual_vanishes(p):
    for t in range(6):
        forms = [rand_form(f"jr-{p.name}-{i}", t, p.dim, 1) for i in range(3)]
        assert jacobiator_residual(p, *forms).is_zero()


def test_jacobiator_with_delta_closed_argument():
    p = sl2_dual()
    closed = d_poly(rand_poly("jrc", 0, 3))
    b = rand_form("jrc-b", 0, 3, 1)
    c = rand_form("jrc-c", 0, 3, 1)
    res = jacobiator_residual(p, closed, b, c)
    assert res.is_zero()


def test_only_delta_squared_detects_a_bivector_that_is_not_poisson():
    # the obstruction identity and the jacobiator hold for every bivector, Poisson or not
    v1, v2, v3 = coords(3)
    p = PoissonSpace(3, MultiVectorField(3, 2, {(0, 1): v3, (1, 2): v3, (0, 2): v1 * v2}), name="not-poisson")
    assert not jacobi_holds_on_coordinates(p)
    for t in range(6):
        fs = [rand_poly(f"np-ob-{i}", t, 3) for i in range(3)]
        forms = [rand_form(f"np-jac-{i}", t, 3, 1) for i in range(3)]
        assert not obstruction(p, *fs).is_zero()  # neither row is vacuous
        assert obstruction_identity_residual(p, *fs).is_zero()
        assert not obstruction(p, *(p.delta(a).as_polynomial() for a in forms)).is_zero()
        assert jacobiator_residual(p, *forms).is_zero()
        assert not p.delta(p.delta(rand_form("np-d2", t, 3, 3))).is_zero()


def test_bivector_validation():
    with pytest.raises(ValueError):
        PoissonSpace(3, MultiVectorField.basis(3, (0,)))
    with pytest.raises(ValueError):
        PoissonSpace(4, MultiVectorField.basis(3, (0, 1)))


# -- integer-scaled residuals ------------------------------------------------------------
#
# The references below are the rational formulas the scaled residuals replaced: each
# computes the residual itself, with 1/2 and 1/3 as Fraction factors.


def _cyclic_reference(f, g, h):
    return ((f, g, h), (g, h, f), (h, f, g))


def _obstruction_reference(p, f, g, h):
    total = DifferentialForm.zero(p.dim, 1)
    for a, b, c in _cyclic_reference(f, g, h):
        bc = p.bracket(b, c)
        total = total + d_poly(bc) * a - d_poly(a) * bc
    return total


def _omega1_reference(p, alpha, beta):
    f = p.delta(alpha).as_polynomial()
    g = p.delta(beta).as_polynomial()
    return (d_poly(g) * f - d_poly(f) * g) * Fraction(1, 2)


def _jacobiator_reference(p, alpha, beta, gamma):
    nested = DifferentialForm.zero(p.dim, 1)
    for a, b, c in _cyclic_reference(alpha, beta, gamma):
        nested = nested + _omega1_reference(p, a, _omega1_reference(p, b, c))
    f, g, h = (p.delta(x).as_polynomial() for x in (alpha, beta, gamma))
    return nested - _obstruction_reference(p, f, g, h) * Fraction(1, 2)


def _witness_reference(s, f, g, h):
    p = standard_symplectic(s.n)
    wedges = DifferentialForm.zero(s.dim, 2)
    brackets = Polynomial.zero(s.dim)
    for a, b, c in _cyclic_reference(f, g, h):
        wedges = wedges + d_poly(b).wedge(d_poly(c)) * a
        brackets = brackets + a * p.bracket(b, c)
    return wedges * Fraction(-2, 3) + s.omega * brackets * Fraction(-1, 3)


def _witness_residual_reference(s, f, g, h):
    p = standard_symplectic(s.n)
    return _obstruction_reference(p, f, g, h) - p.delta(_witness_reference(s, f, g, h))


_SYMPLECTIC = [SymplecticSpace(1), SymplecticSpace(2)]
_MUTANTS = {"intact": None, "wedge": (_Alternating, "wedge", doubled_wedge),
            "poly-mul": (Polynomial, "__mul__", doubled_mul)}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_scaled_residuals_equal_the_rational_formulas(monkeypatch, mutant):
    # under each mutant one of the residuals is nonzero, so its division by D is compared too
    if _MUTANTS[mutant]:
        target, attr, wrap = _MUTANTS[mutant]
        monkeypatch.setattr(target, attr, wrap(getattr(target, attr)))
    live = set()
    for seed in range(4):
        for p in PRESETS:
            forms = [rand_form(f"jref-{p.name}-{i}", seed, p.dim, 1) for i in range(3)]
            residual = jacobiator_residual(p, *forms)
            assert residual == _jacobiator_reference(p, *forms), (p.name, seed)
            assert omega1_bracket(p, *forms[:2]) == _omega1_reference(p, *forms[:2]), (p.name, seed)
            live |= {"jacobiator"} if residual else set()
        for s in _SYMPLECTIC:
            fs = [rand_poly(f"wref-{s.n}-{i}", seed, s.dim) for i in range(3)]
            residual = symplectic_witness_residual(s, *fs)
            assert residual == _witness_residual_reference(s, *fs), (s.n, seed)
            assert symplectic_obstruction_witness(s, *fs) == _witness_reference(s, *fs), (s.n, seed)
            p = standard_symplectic(s.n)
            assert obstruction(p, *fs) == _obstruction_reference(p, *fs), (s.n, seed)
            live |= {"witness"} if residual else set()
    # on R3 and R4 the wedge mutant doubles {,}, which the jacobiator reads on its obstruction side
    # only, while every term of the witness residual doubles with it; the product mutant doubles
    # f{g,h} + cyc in the witness and reaches no product the jacobiator takes
    assert live == {"intact": set(), "wedge": {"jacobiator"}, "poly-mul": {"witness"}}[mutant]


@pytest.fixture
def scaled_poisson(monkeypatch):
    """Every delta value the Poisson residuals take, and each residual before division."""
    seen = []
    delta = PoissonSpace.delta
    monkeypatch.setattr(PoissonSpace, "delta", lambda self, a: seen.append(delta(self, a)) or seen[-1])
    unscaled = koszul.poisson._unscaled

    def recording(residual, scale):
        seen.append(residual)
        return unscaled(residual, scale)

    monkeypatch.setattr(koszul.poisson, "_unscaled", recording)
    return seen


def _coefficient_types(values):
    return {type(c) for x in values for c in x.packed.values()}


_SCALED_CASES = {
    **{f"jacobiator-{p.name}": (jacobiator_residual, p, partial(rand_form, dim=p.dim, degree=1)) for p in PRESETS},
    **{f"witness-R{s.dim}": (symplectic_witness_residual, s, partial(rand_poly, dim=s.dim)) for s in _SYMPLECTIC},
}


@pytest.mark.parametrize("name", sorted(_SCALED_CASES))
def test_poisson_residual_sums_stay_integer_on_integer_inputs(scaled_poisson, name):
    # the pass path sums ints only; a Fraction anywhere means a 1/2 or 1/3 leaked in
    check, space, draw = _SCALED_CASES[name]
    types = set()
    for t in range(3):
        scaled_poisson.clear()
        assert check(space, *(draw(f"pint-{name}-{i}", t) for i in range(3))).is_zero()
        types |= _coefficient_types(scaled_poisson)
    # and not vacuous, except on the zero structure, where delta and every residual vanish
    assert types == (set() if space.pi.is_zero() else {int})


def test_jacobiator_computes_each_delta_once(monkeypatch):
    # delta a, delta b, delta c and the three delta Omega(.,.): the rational form made 15 calls
    calls = []
    delta = PoissonSpace.delta
    monkeypatch.setattr(PoissonSpace, "delta", lambda self, a: calls.append(a) or delta(self, a))
    p = sl2_dual()
    forms = [rand_form(f"jcount-{i}", 0, 3, 1) for i in range(3)]
    assert jacobiator_residual(p, *forms).is_zero()
    assert len(calls) == 6
