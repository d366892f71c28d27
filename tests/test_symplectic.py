from fractions import Fraction

import pytest

from koszul import (
    DifferentialForm,
    MultiVectorField,
    PoissonSpace,
    Polynomial,
    SymplecticSpace,
    contract_bivector,
    contract_vector,
    d,
    d_poly,
    parse_form,
)
from koszul.brackets import symplectic_family
from koszul.campaign import CampaignConfig, Check, _run, operator_row
from koszul.grammar import render_form
from koszul.randgen import random_form, trial_rng
from koszul.symplectic import RELATIONS, operator_relations

from _util import (partial_derivative, rand_form, rand_frac_form, rand_frac_poly, rand_poly, solve_constant_system,
                   unshared_operator_relations)


@pytest.fixture(scope="module")
def s1():
    return SymplecticSpace(1)


@pytest.fixture(scope="module")
def s2():
    return SymplecticSpace(2)


def test_omega_closed_and_nondegenerate(s2):
    assert d(s2.omega).is_zero()
    power = s2.omega
    for _ in range(s2.n - 1):
        power = power.wedge(s2.omega)
    assert not power.is_zero()  # omega^n is a volume form


def test_pi_pairs_with_omega(s1, s2):
    one = DifferentialForm.from_polynomial(Polynomial.constant(2, 1))
    assert s1.Lam(s1.omega) == one
    assert s2.Lam(s2.omega) == DifferentialForm.from_polynomial(Polynomial.constant(4, 2))


def test_lefschetz_L_examples(s2):
    assert s2.L(DifferentialForm.from_polynomial(Polynomial.constant(4, 1))) == s2.omega
    # top-degree overflow
    top = rand_form("L-top", 0, 4, 3)
    assert s2.L(top).is_zero()
    assert s2.L(parse_form("dx1", 4)) == parse_form("dx1^dx3^dx4", 4)


def test_degree_operator_examples(s1, s2):
    one4 = DifferentialForm.from_polynomial(Polynomial.constant(4, 1))
    assert s2.H(one4) == one4 * 2
    dx1 = parse_form("dx1", 4)
    assert s2.H(dx1) == dx1
    assert s1.H(parse_form("dx1", 2)).is_zero()


def test_delta_kills_functions(s2):
    f = rand_form("delta-f", 0, 4, 0)
    assert s2.delta(f).is_zero()


def test_delta_of_f_dg_is_poisson_bracket():
    # oracle: the Darboux formula sum_i d_q f d_p g - d_p f d_q g, written out independently
    for n in (1, 2, 3, 4):
        s = SymplecticSpace(n)
        for kind in (rand_poly, rand_frac_poly):
            for t in range(10):
                f = kind("dfg-f", t, s.dim)
                g = kind("dfg-g", t, s.dim)
                expected = Polynomial.zero(s.dim)
                for i in range(s.n):
                    expected = expected + (partial_derivative(f, 2 * i) * partial_derivative(g, 2 * i + 1)
                                           - partial_derivative(f, 2 * i + 1) * partial_derivative(g, 2 * i))
                assert s.poisson_bracket(f, g) == expected, (n, kind.__name__, t)
                assert s.delta(d_poly(g) * f) == DifferentialForm.from_polynomial(expected), (n, kind.__name__, t)


def test_delta_of_f_omega_is_minus_df(s1, s2):
    for s in (s1, s2):
        for t in range(10):
            f = rand_poly("fomega", t, s.dim)
            assert (s.delta(s.omega * f) + d_poly(f)).is_zero()


def test_lambda_of_df_dg_is_poisson_bracket(s2):
    for t in range(10):
        f = rand_poly("lam-f", t, 4)
        g = rand_poly("lam-g", t, 4)
        got = s2.Lam(d_poly(f).wedge(d_poly(g))).as_polynomial()
        assert got == s2.poisson_bracket(f, g)


def test_lambda_of_triple_wedge_expansion(s2):
    # Lam(df^dg^dh) = {f,g} dh - {f,h} dg + {g,h} df
    for t in range(8):
        f = rand_poly("lam3-f", t, 4)
        g = rand_poly("lam3-g", t, 4)
        h = rand_poly("lam3-h", t, 4)
        got = s2.Lam(d_poly(f).wedge(d_poly(g)).wedge(d_poly(h)))
        expected = (
            d_poly(h) * s2.poisson_bracket(f, g)
            - d_poly(g) * s2.poisson_bracket(f, h)
            + d_poly(f) * s2.poisson_bracket(g, h)
        )
        assert got == expected


# -- Hamiltonian fields -------------------------------------------------------


def omega_matrix(s: SymplecticSpace) -> list[list[Fraction]]:
    """Matrix A with iota_X omega = sum_j (A X)_j dx_j for X in the e-basis."""
    m = [[Fraction(0)] * s.dim for _ in range(s.dim)]
    for i in range(s.n):
        q, p = 2 * i, 2 * i + 1
        m[p][q] = Fraction(1)  # iota_{e_q} omega = dx_p
        m[q][p] = Fraction(-1)  # iota_{e_p} omega = -dx_q
    return m


def test_hamiltonian_field_of_constant_is_zero(s2):
    assert s2.hamiltonian_vector_field(Polynomial.constant(4, 5)).is_zero()


def test_hamiltonian_field_solves_linear_system(s1, s2):
    # oracle: solve the constant 2n x 2n system A X = -grad f per component
    for s in (s1, s2):
        for t in range(8):
            f = rand_poly("ham", t, s.dim)
            rhs = [-partial_derivative(f, j) for j in range(s.dim)]
            expected = solve_constant_system(omega_matrix(s), rhs)
            X = s.hamiltonian_vector_field(f)
            comps = {idx[0]: p for idx, p in X.components().items()}
            for j in range(s.dim):
                assert comps.get(j, Polynomial.zero(s.dim)) == expected[j]


def test_hamiltonian_defining_property(s1, s2):
    for s in (s1, s2):
        for t in range(10):
            f = rand_poly("hamdef", t, s.dim)
            X = s.hamiltonian_vector_field(f)
            assert (contract_vector(X, s.omega) + d_poly(f)).is_zero()


def test_x_v1_on_r2(s1):
    X = s1.hamiltonian_vector_field(Polynomial.coordinate(s1.dim, 0))
    assert X.components() == {(1,): Polynomial.constant(2, 1)}


# -- Poisson bracket -----------------------------------------------------------


def test_bracket_with_constant_vanishes(s2):
    f = rand_poly("bc", 0, 4)
    c = Polynomial.constant(4, Fraction(7, 2))
    assert s2.poisson_bracket(f, c).is_zero()


def test_bracket_sign_frozen(s1):
    v1, v2 = Polynomial.coordinate(s1.dim, 0), Polynomial.coordinate(s1.dim, 1)
    assert s1.poisson_bracket(v1, v2) == Polynomial.constant(2, 1)


def test_bracket_antisymmetric_and_jacobi(s1, s2):
    for s in (s1, s2):
        for t in range(8):
            f = rand_poly("jac-f", t, s.dim)
            g = rand_poly("jac-g", t, s.dim)
            h = rand_poly("jac-h", t, s.dim)
            assert s.poisson_bracket(f, g) == -s.poisson_bracket(g, f)
            cyc = (
                s.poisson_bracket(f, s.poisson_bracket(g, h))
                + s.poisson_bracket(g, s.poisson_bracket(h, f))
                + s.poisson_bracket(h, s.poisson_bracket(f, g))
            )
            assert cyc.is_zero()


def test_bracket_three_routes_agree(s2):
    for t in range(8):
        f = rand_poly("routes-f", t, 4)
        g = rand_poly("routes-g", t, 4)
        X_f, X_g = s2.hamiltonian_vector_field(f), s2.hamiltonian_vector_field(g)
        via_fields = contract_vector(X_g, contract_vector(X_f, s2.omega)).as_polynomial()  # omega(X_f, X_g)
        via_pi = contract_bivector(s2.pi, d_poly(f).wedge(d_poly(g))).as_polynomial()
        assert s2.poisson_bracket(f, g) == via_fields == via_pi


# -- the relation suite ---------------------------------------------------------


def test_relation_table_is_complete(s1):
    names = [name for name, _, _ in unshared_operator_relations(s1)]
    assert len(names) == 14 and len(set(names)) == 14
    assert RELATIONS == tuple(names)
    a = rand_form("table", 0, 2, 1)
    assert [lhs(a) - rhs(a) for _, lhs, rhs in unshared_operator_relations(s1)] == list(operator_relations(s1, a))


def relation_reports(s, trials, max_degree, seed, density=0.7):
    """The operator row of ``s`` run through the campaign runner: one result per relation."""
    cfg = CampaignConfig(trials=trials, max_degree=max_degree, seed=seed, density=density)
    return _run("operators", operator_row(s, cfg))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_relations_hold(n):
    reports = relation_reports(SymplecticSpace(n), trials=8, max_degree=3, seed=99)
    assert len(reports) == 14
    for report in reports:
        assert report.ok, f"{report.name}: {report.failures[:1]}"
        assert report.trials == 8 * (2 * n + 1)


def test_report_records_counterexamples(s1):
    # feed a relation that is false to make sure failures are captured
    reports = relation_reports(s1, trials=3, max_degree=2, seed=4)
    assert all(r.ok for r in reports)
    # manual negative control: H = identity is wrong
    samples = [(rand_form("neg", t, 2, 1),) for t in range(3)]
    (bad,) = _run("operators", Check(samples, {"fake": lambda a: s1.H(a) - a}))
    assert bad.trials == 3 and not bad.ok
    assert bad.failures[0]["inputs"] == [render_form(samples[0][0])]


def test_trials_must_be_positive(s1):
    with pytest.raises(ValueError):
        relation_reports(s1, trials=0, max_degree=2, seed=1)


# -- direct kernels against the generic route ----------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_match_generic_composition(n):
    # oracle: L, Lam and delta composed from wedge, contract_bivector and d
    s = SymplecticSpace(n)
    for degree in range(0, s.dim + 1):
        label = f"kernel/n{n}/deg{degree}"
        samples = [rand_form(label, t, s.dim, degree, max_degree=2) for t in range(3)]
        for a in samples + [rand_frac_form(label, 0, s.dim, degree, max_degree=2)]:
            lam = contract_bivector(s.pi, a)
            assert s.Lam(a) == lam
            assert s.L(a) == s.omega.wedge(a)
            assert s.delta(a) == contract_bivector(s.pi, d(a)) - d(lam)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernel_degrees_at_the_edges(n):
    s = SymplecticSpace(n)
    one = DifferentialForm.from_polynomial(Polynomial.constant(s.dim, 1))
    top = DifferentialForm.basis(s.dim, range(s.dim))
    assert s.delta(rand_form("edge-f", n, s.dim, 0)).degree == -1
    assert s.Lam(rand_form("edge-1", n, s.dim, 1)).degree == -1
    assert s.L(rand_form("edge-top", n, s.dim, s.dim - 1)).degree == s.dim + 1
    assert s.L(top).is_zero() and s.Lam(one).is_zero()
    assert s.Lam(top).degree == s.dim - 2 and s.delta(top).is_zero()
    assert s.delta(top * Polynomial.coordinate(s.dim, 0)).degree == s.dim - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_degree_matches_poisson_route(n):
    # a zero result keeps the degree the kernel targets on both routes
    s = SymplecticSpace(n)
    p = PoissonSpace(s.dim, s.pi)
    zero_deltas = [
        DifferentialForm.from_polynomial(Polynomial.coordinate(s.dim, 0)),
        DifferentialForm.basis(s.dim, (0,)),
        DifferentialForm.basis(s.dim, (0,), Polynomial.coordinate(s.dim, 0)),
        DifferentialForm.basis(s.dim, range(s.dim), 3),
    ]
    randoms = [rand_form(f"route/n{n}", t, s.dim, deg) for deg in range(s.dim + 1) for t in range(3)]
    for a in zero_deltas + randoms:
        assert s.delta(a) == p.delta(a) and s.delta(a).degree == p.delta(a).degree
        assert p.delta(a).degree == a.degree - 1
    assert all(s.delta(a).is_zero() for a in zero_deltas)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_results_keep_the_degree_their_operator_maps_to(n):
    s = SymplecticSpace(n)
    p = PoissonSpace(s.dim, s.pi)
    one = DifferentialForm.from_polynomial(Polynomial.constant(s.dim, 1))
    dx1 = DifferentialForm.basis(s.dim, (0,))
    top = DifferentialForm.basis(s.dim, range(s.dim))
    X = MultiVectorField.basis(s.dim, (0,))
    assert d(top).degree == s.dim + 1
    assert contract_vector(X, one).degree == -1
    assert contract_bivector(s.pi, dx1).degree == -1
    assert contract_bivector(s.pi, one).degree == -2
    assert top.wedge(dx1).degree == s.dim + 1
    assert p.delta(one * Polynomial.coordinate(s.dim, 0)).degree == -1
    assert p.delta(top).degree == s.dim - 1
    fam = symplectic_family(s)
    k = s.dim + 2
    out = fam.l([fam.element(dx1)] * k)
    assert out.form.is_zero() and out.form.degree == fam.form_degree_of(out.ldegree) == s.dim + 1


def test_kernels_reject_other_dimensions(s1):
    for a in (parse_form("dx1^dx2", 4), DifferentialForm.basis(4, (0, 1, 2))):
        for op in (s1.L, s1.Lam, s1.H, s1.delta):
            with pytest.raises(ValueError, match="different spaces"):
                op(a)


class DroppedPairSpace(SymplecticSpace):
    """delta built from a pi that lacks the first Darboux pair: a wrong delta."""

    def delta(self, a):
        pi = MultiVectorField(self.dim, 2, {k: v for k, v in self.pi.components().items() if k != (0, 1)})
        return contract_bivector(pi, d(a)) - d(contract_bivector(pi, a))


def test_relation_suite_catches_a_wrong_delta():
    reports = {r.name: r for r in relation_reports(DroppedPairSpace(2), 4, 2, seed=5)}
    assert not reports["R4 [Lam,d]=delta"].ok
    assert reports["R4 [Lam,L]=H"].ok


def _without_pair(field):
    """A copy of omega or pi without the first Darboux pair (0, 1)."""
    return type(field)(field.dim, 2, {k: v for k, v in field.components().items() if k != (0, 1)})


class DroppedPairLSpace(SymplecticSpace):
    """L wedges with an omega that lacks the first Darboux pair: a wrong L."""

    def L(self, a):
        return _without_pair(self.omega).wedge(a)


class DroppedPairLamSpace(SymplecticSpace):
    """Lam contracts with a pi that lacks the first Darboux pair: a wrong Lam."""

    def Lam(self, a):
        return contract_bivector(_without_pair(self.pi), a)


class ShiftedHSpace(SymplecticSpace):
    """H counts n - deg + 1: a wrong H."""

    def H(self, a):
        return a * (self.n - a.degree + 1)


@pytest.mark.parametrize(
    "space, failing",
    [
        (DroppedPairLSpace, {"[Lam,L]=H", "[L,delta]=d", "[delta d,L]=0"}),
        (DroppedPairLamSpace, {"[Lam,L]=H", "[Lam,d]=delta", "[delta d,Lam]=0"}),
        (ShiftedHSpace, {"[Lam,L]=H"}),
    ],
)
def test_relation_suite_catches_a_wrong_operator(space, failing):
    reports = relation_reports(space(2), 4, 2, seed=5)
    assert {r.name for r in reports if not r.ok} == {f"R4 {name}" for name in failing}


def unshared_reports(s, trials, max_degree, seed, density=0.7):
    """Reference for the row: relation by relation, every operator called afresh."""
    out = []
    for name, lhs, rhs in unshared_operator_relations(s):
        count, failures = 0, []
        for degree in range(s.dim + 1):
            for t in range(trials):
                a = random_form(trial_rng(seed, f"operators/deg{degree}", t), s.dim, degree, max_degree, density)
                residual = lhs(a) - rhs(a)
                count += 1
                if not residual.is_zero():
                    failures.append({"inputs": [render_form(a)], "residual": render_form(residual)})
        out.append((f"R{s.dim} {name}", count, failures))
    return out


@pytest.mark.parametrize(
    "space", [SymplecticSpace(1), SymplecticSpace(2), DroppedPairSpace(2)], ids=["R2", "R4", "R4-dropped-pair"]
)
def test_shared_suite_equals_unshared_reference(space):
    expected = unshared_reports(space, 4, 2, seed=5)
    got = [(r.name, r.trials, r.failures) for r in relation_reports(space, 4, 2, seed=5)]
    assert got == expected
    if isinstance(space, DroppedPairSpace):
        assert any(failures for _, _, failures in expected)


class CountingSpace(SymplecticSpace):
    """Counts the kernel calls the relation suite makes."""

    def __init__(self, n):
        super().__init__(n)
        self.calls = 0

    def L(self, a):
        self.calls += 1
        return super().L(a)

    def Lam(self, a):
        self.calls += 1
        return super().Lam(a)

    def delta(self, a):
        self.calls += 1
        return super().delta(a)


def test_relation_suite_evaluates_each_operator_once_per_sample(monkeypatch):
    # 26 distinct applications of L, Lam, delta and d per sample; unshared, the table makes 56
    s = CountingSpace(2)

    def counted_d(a):
        s.calls += 1
        return d(a)

    monkeypatch.setattr("koszul.symplectic.d", counted_d)
    reports = relation_reports(s, trials=2, max_degree=2, seed=3)
    samples = 2 * (s.dim + 1)
    assert all(r.ok and r.trials == samples for r in reports)
    assert s.calls == 26 * samples
