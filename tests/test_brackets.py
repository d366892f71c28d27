from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from koszul import (
    DifferentialForm,
    Polynomial,
    SymplecticSpace,
    alt_m,
    bracket_coefficient,
    ce_partial,
    coefficient_recursions,
    d,
    d_poly,
    l_bracket,
    linfty_residual,
    parse_form,
    series_coefficient,
    symplectic_family,
    tilde_l,
    verify_alt_m_identity,
    verify_chain_identity,
    verify_quotient_congruence,
    verify_strict_morphism,
)
import koszul.brackets
import koszul.forms
from koszul.brackets import _alt_sum, lefschetz_sum, raised_coefficient
from koszul.forms import _Alternating
from koszul.poly import _Terms

from _util import full_path_alt_sum, m_k, rand_form, rand_frac_poly, rand_poly, rebuilt


@pytest.fixture(scope="module")
def s1():
    return SymplecticSpace(1)


@pytest.fixture(scope="module")
def s2():
    return SymplecticSpace(2)


# -- alt_m ------------------------------------------------------------------


def test_alt_m_arity_one_is_identity(s1):
    f = rand_poly("am1", 0, 2)
    assert alt_m([f]) == DifferentialForm.from_polynomial(f)


def test_alt_m_arity_two_formula(s1):
    f = rand_poly("am2-f", 1, 2)
    g = rand_poly("am2-g", 1, 2)
    expected = (d_poly(g) * f - d_poly(f) * g) * Fraction(1, 2)
    assert alt_m([f, g]) == expected


def test_alt_m_arity_three_formula(s2):
    f, g, h = (rand_poly(f"am3-{i}", 2, 4) for i in range(3))
    expected = (
        d_poly(g).wedge(d_poly(h)) * f
        - d_poly(f).wedge(d_poly(h)) * g
        + d_poly(f).wedge(d_poly(g)) * h
    ) * Fraction(1, 3)
    assert alt_m([f, g, h]) == expected


def test_alt_m_fully_antisymmetric(s2):
    fs = [rand_poly(f"ama-{i}", 5, 4) for i in range(4)]
    base = alt_m(fs)
    for i in range(3):
        swapped = list(fs)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        assert alt_m(swapped) == -base


def test_d_alt_m_equals_d_m(s2):
    for k in (2, 3, 4):
        fs = [rand_poly(f"dm-{k}-{i}", k, 4) for i in range(k)]
        assert d(alt_m(fs)) == d(m_k(s2, fs))


# -- the alternating sum k alt_m ----------------------------------------------


def _alt_sum_definition(s, fs):
    """sum_i (-1)^i f_i df_0 ^ ... (df_i omitted) ... ^ df_(k-1), one plain wedge chain per i."""
    total = DifferentialForm.zero(s.dim, len(fs) - 1)
    for i, f in enumerate(fs):
        chain = DifferentialForm.from_polynomial(Polynomial.constant(s.dim, 1))
        for j, g in enumerate(fs):
            if j != i:
                chain = chain.wedge(d_poly(g))
        total = total + chain * (f * (-1) ** i)
    return total


def _alt_sum_inputs(kind, n, k):
    """A random draw, the same with a zero function, and the same with a constant function."""
    dim = 2 * n
    fs = [_INPUTS[kind](f"alt-sum-{n}-{k}-{i}", 0, dim) for i in range(k)]
    yield fs
    yield fs[:k // 2] + [Polynomial.zero(dim)] + fs[k // 2 + 1:]
    yield [Polynomial.constant(dim, Fraction(5, 3) if kind == "frac" else 5)] + fs[1:]


@pytest.mark.parametrize("kind", ["int", "frac"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_alt_sum_equals_definition(n, kind):
    s = SymplecticSpace(n)
    for k in range(1, 2 * n + 3):
        for fs in _alt_sum_inputs(kind, n, k):
            out = _alt_sum(fs)
            assert out == _alt_sum_definition(s, fs) and out.degree == k - 1, f"k={k}"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alt_sum_wedges_linearly(monkeypatch, n):
    s = SymplecticSpace(n)
    operand_degrees = []
    wedge = _Alternating.wedge

    def recording(a, b):
        operand_degrees.append((a.degree, b.degree))
        return wedge(a, b)

    monkeypatch.setattr(_Alternating, "wedge", recording)
    for k in range(1, 2 * n + 3):
        operand_degrees.clear()
        out = _alt_sum([rand_poly(f"alt-shape-{n}-{k}-{i}", 0, s.dim) for i in range(k)])
        # the recurrence total_i = total_(i-1) ^ df_i +- f_i run_(i-1), run_i = run_(i-1) ^ df_i, which
        # stops early, with the zero form, only once run_i and total_i are both zero
        full = len(operand_degrees) == max(0, 2 * k - 3)
        assert full or (out.is_zero() and len(operand_degrees) < 2 * k - 3), f"k={k}: {operand_degrees}"
        assert all(1 in pair for pair in operand_degrees), f"k={k}: a product of two big forms"


def test_alt_sum_stops_once_run_and_total_vanish(monkeypatch):
    # constant functions: two zero differentials decide the 4-form before any of the 2k - 3 = 7 wedges
    calls = []
    wedge = _Alternating.wedge
    monkeypatch.setattr(_Alternating, "wedge", lambda a, b: calls.append(b.degree) or wedge(a, b))
    out = _alt_sum([Polynomial.constant(6, c) for c in (2, -1, 3, 5, 7)])
    assert out.is_zero() and out.degree == 4 and len(calls) == 0
    # f, f, g, h: R_2 = df ^ df and T_2 = f df - f df are zero, so it stops after 2 of the 5 wedges
    f = rand_poly("alt-stop", 0, 6)
    out = _alt_sum([f, f, rand_poly("alt-stop", 1, 6), rand_poly("alt-stop", 2, 6)])
    assert out.is_zero() and out.degree == 3 and len(calls) == 2


def _zero_rule_inputs(n):
    """On R2n, k = 2..2n+1 non-constant draws with a zero function at each position, one constant at
    each position and two at each pair of positions; each with whether its sum is decided zero."""
    dim = 2 * n
    for k in range(2, dim + 2):
        fs = [next(f for f in (rand_poly(f"alt-zero-{n}-{k}-{i}", t, dim, 2) for t in range(50)) if d_poly(f))
              for i in range(k)]
        for p in range(k):
            yield fs[:p] + [Polynomial.zero(dim)] + fs[p + 1:], True
            yield fs[:p] + [Polynomial.constant(dim, p + 2)] + fs[p + 1:], False
        for p, q in combinations(range(k), 2):
            yield [Polynomial.constant(dim, -3 if i == p else 7) if i in (p, q) else f for i, f in enumerate(fs)], True


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alt_sum_decides_zero_and_constant_arguments_before_any_wedge(monkeypatch, n):
    # a zero function or two constants make every term zero: no wedge runs.  One constant keeps
    # the full recurrence, wedge for wedge; every value equals the sum with no zero rule
    calls = []
    wedge = _Alternating.wedge
    monkeypatch.setattr(_Alternating, "wedge", lambda a, b: calls.append(b.degree) or wedge(a, b))
    live = 0
    for fs, decided in _zero_rule_inputs(n):
        calls.clear()
        out = _alt_sum(fs)
        ours = len(calls)
        calls.clear()
        want = full_path_alt_sum(fs)
        assert out == want and out.degree == len(fs) - 1, [str(f) for f in fs]
        assert ours == 0 if decided else ours == len(calls), (len(fs), decided, ours, len(calls))
        live += not decided and not out.is_zero()
    assert live  # the one-constant sums are not all zero


def test_alt_sum_above_the_top_degree_is_zero_at_once(monkeypatch):
    # on R2, 4 and 5 functions make a 3- and a 4-form: zero by degree, with no df and no wedge
    calls = []
    wedge = _Alternating.wedge
    monkeypatch.setattr(_Alternating, "wedge", lambda a, b: calls.append(b.degree) or wedge(a, b))
    monkeypatch.setattr(koszul.brackets, "d_poly", None)
    for k in (4, 5):
        out = _alt_sum([rand_poly(f"alt-top-{k}", i, 2) for i in range(k)])
        assert out.is_zero() and out.degree == k - 1
    assert calls == []


def test_alt_sum_adds_each_product_straight_into_its_sum(monkeypatch):
    # each step adds -+f_i R_(i-1) into T_(i-1) ^ df_i in one pass: no product f_i R_(i-1) is
    # built first, where multiplying and then adding took one _Terms.__mul__ per step, k - 1 in all
    s = SymplecticSpace(2)
    draws = [[rand_poly(f"alt-products-{k}", i, s.dim, 3, 3) for i in range(k)] for k in range(2, 6)]
    expected = [_alt_sum_definition(s, fs) for fs in draws]
    calls = []
    mul = _Terms.__mul__
    monkeypatch.setattr(_Terms, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    for fs, want in zip(draws, expected):
        out = _alt_sum(fs)
        assert not out.is_zero() and out == want, f"k={len(fs)}"
    assert calls == []


# -- coefficients --------------------------------------------------------------


def test_anchored_coefficient_values():
    assert bracket_coefficient(2, 0) == 1
    assert bracket_coefficient(3, 1) == Fraction(1, 2)
    assert bracket_coefficient(4, 1) == Fraction(1, 3)
    assert bracket_coefficient(5, 1) == Fraction(1, 4)
    assert bracket_coefficient(5, 2) == Fraction(1, 24)


def test_coefficient_domain():
    with pytest.raises(ValueError):
        bracket_coefficient(1, 0)
    with pytest.raises(ValueError):
        bracket_coefficient(4, 2)  # 2j > k-1
    with pytest.raises(ValueError):
        bracket_coefficient(3, -1)
    # extended domain for the recursion checks
    assert series_coefficient(4, 2) == Fraction(1, 12)
    with pytest.raises(ValueError):
        series_coefficient(4, 4)


def test_first_recursion_example():
    # 3 a(2,0) = 2 a(3,0) + 2 a(3,1)
    assert 3 * series_coefficient(2, 0) == 2 * series_coefficient(3, 0) + 2 * series_coefficient(3, 1)


def test_inductive_chain_reproduces_one_third():
    a = series_coefficient(2, 0)
    a = Fraction(2 - 0, 2) * a  # -> a(3,0)
    a = a / (1 * (3 - 1))  # -> a(3,1)
    a = Fraction(3 - 1, 3) * a  # -> a(4,1)
    assert a == Fraction(1, 3) == bracket_coefficient(4, 1)


def test_recursions_exact_to_k9():
    equalities = list(coefficient_recursions(9))
    assert all(lhs == rhs for _, lhs, rhs in equalities)
    assert max(int(label.split("k=")[1].split(",")[0]) for label, _, _ in equalities) == 9
    # every k in 2..9 with the odd-k boundary j = (k-1)/2 included: 88 equalities
    assert len(equalities) == 88


def test_recursions_reject_small_k():
    with pytest.raises(ValueError):
        coefficient_recursions(1)


# -- tilde_l ---------------------------------------------------------------------


def test_tilde_l_arity_two_is_alt_m(s1):
    f = rand_poly("tl2-f", 0, 2)
    g = rand_poly("tl2-g", 0, 2)
    assert tilde_l(s1, [f, g]) == alt_m([f, g])


def test_tilde_l_arity_three_operator_form(s2):
    fs = [rand_poly(f"tl3-{i}", 1, 4) for i in range(3)]
    base = alt_m(fs)
    expected = -(base + s2.L(s2.Lam(base)) * Fraction(1, 2))
    assert tilde_l(s2, fs) == expected


def test_tilde_l_frozen_value_on_r2(s1):
    one = Polynomial.constant(2, 1)
    got = tilde_l(s1, [one, Polynomial.coordinate(s1.dim, 0), Polynomial.coordinate(s1.dim, 1)])
    assert got == parse_form("-1/2 dx1^dx2", 2)


def test_tilde_l_antisymmetric(s2):
    fs = [rand_poly(f"tla-{i}", 3, 4) for i in range(4)]
    base = tilde_l(s2, fs)
    swapped = [fs[1], fs[0], fs[2], fs[3]]
    assert tilde_l(s2, swapped) == -base


def test_tilde_l_above_the_top_degree_is_zero_at_once(s1, monkeypatch):
    # on R^2 a bracket of 4 functions is a 3-form: zero by degree, with no df and no wedge computed
    fs = [rand_poly(f"tl-top-{i}", 0, 2) for i in range(4)]
    expected = lefschetz_sum(s1, _alt_sum(fs))
    monkeypatch.setattr(koszul.brackets, "d_poly", None)
    monkeypatch.setattr(_Alternating, "wedge", None)
    out = tilde_l(s1, fs)
    assert out == expected and out.is_zero() and (out.dim, out.degree) == (2, 3)


def test_tilde_l_refuses_functions_from_another_space(s1):
    # on R^8, 4 coordinates have a nonzero 3-form bracket, though a 3-form on R^2 is zero by degree;
    # 2 of them leave the Lefschetz sum no Lam to run, so only its own check sees the other space
    for k in (2, 4):
        with pytest.raises(ValueError, match="different spaces"):
            tilde_l(s1, [Polynomial.coordinate(8, i) for i in range(k)])
    with pytest.raises(ValueError, match="different spaces"):
        lefschetz_sum(s1, DifferentialForm.zero(8, 3))


def test_tilde_l_requires_arity_two():
    with pytest.raises(ValueError):
        tilde_l(SymplecticSpace(1), [Polynomial.constant(2, 1)])


# -- l_bracket ---------------------------------------------------------------------


def test_l1_is_koszul_differential_below_ground(s2):
    eta = rand_form("l1-eta", 0, 4, 2)
    out = l_bracket(s2, [eta])
    assert out.form == s2.delta(eta)
    assert out.ldegree == 0


def test_l1_truncated_on_ground_layer(s2):
    # the complex stops at 1-forms, so the family differential vanishes there
    alpha = rand_form("l1-alpha", 0, 4, 1)
    assert l_bracket(s2, [alpha]).form.is_zero()


def test_l2_worked_example(s1):
    a = parse_form("v1 dx2", 2)
    b = parse_form("1/2 v1^2 dx2", 2)
    out = l_bracket(s1, [a, b])
    assert out.form == parse_form("1/2 dx1", 2)
    assert out.ldegree == 0


def test_l4_vanishes_on_r2(s1):
    args = [rand_form(f"l4-{i}", i, 2, 1) for i in range(4)]
    assert l_bracket(s1, args).form.is_zero()


def test_l_bracket_repeated_argument_zero(s2):
    a = rand_form("rep", 0, 4, 1)
    b = rand_form("rep-b", 0, 4, 1)
    assert l_bracket(s2, [a, a, b]).form.is_zero()


# -- chain identity ------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (2, 3), (2, 4)])
def test_chain_identity_random(n, k):
    s = SymplecticSpace(n)
    for t in range(8):
        fs = [rand_poly(f"ch-{n}-{k}-{i}", t, s.dim) for i in range(k + 1)]
        assert verify_chain_identity(s, fs).is_zero()


def test_chain_identity_perturbed_coefficient_fails(s1):
    a = raised_coefficient(3, 1)  # a(3,1) -> 1/2 + 1
    hit = False
    for t in range(6):
        fs = [rand_poly(f"chp-{i}", t, 2) for i in range(3)]
        if not verify_chain_identity(s1, fs, a).is_zero():
            hit = True
            break
    assert hit


@pytest.mark.parametrize("n", [1, 2])
def test_mutation_sensitivity_every_coefficient(n):
    s = SymplecticSpace(n)
    for k in range(2, 2 * n + 2):
        for j in range(0, (k - 1) // 2 + 1):
            a = raised_coefficient(k, j)
            broke = False
            for t in range(6):
                for kk in range(max(2, k - 1), min(2 * n, k) + 1):
                    fs = [rand_poly(f"mut-{n}-{k}-{j}-{kk}-{i}", t, s.dim) for i in range(kk + 1)]
                    if not verify_chain_identity(s, fs, a).is_zero():
                        broke = True
                        break
                if broke:
                    break
            assert broke, f"perturbing a({k},{j}) left every sampled identity intact"


# The suites factor the Lefschetz sum P_k out of the coboundary by linearity.
# These references keep the unfactored sums, one tilde_l_k or alt_m_k per pair.


def _chain_reference(s, k, fs, a=None):
    lhs = ce_partial(s.poisson_bracket, lambda xs: tilde_l(s, xs, a), fs)
    return lhs - s.delta(tilde_l(s, fs, a))


def _alt_m_reference(s, k, fs):
    lhs = ce_partial(s.poisson_bracket, alt_m, fs)
    am = alt_m(fs)
    return lhs - (-s.delta(am) + d(s.Lam(am)) * Fraction(1, k))


_INPUTS = {"int": rand_poly, "frac": rand_frac_poly}


def _live_and_equal(factored, reference, draws):
    """Compare the two residuals on each draw up to the first nonzero one; True if one was."""
    for fs in draws:
        residual = factored(fs)
        assert residual == reference(fs)
        if not residual.is_zero():
            return True
    return False


def _draws(kind, label, dim, arity, budget=6):
    return ([_INPUTS[kind](f"{label}-{i}", t, dim) for i in range(arity)] for t in range(budget))


@pytest.mark.parametrize("kind", sorted(_INPUTS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_factored_chain_residual_equals_unfactored(n, kind):
    s = SymplecticSpace(n)
    for k in range(2, 2 * n + 1):
        fs = next(_draws(kind, f"fac-{n}-{k}", s.dim, k + 1))
        assert verify_chain_identity(s, fs).is_zero() and _chain_reference(s, k, fs).is_zero()
        # each coefficient on either side of the identity reaches the factored residual
        for kk in (k, k + 1):
            for j in range(0, (kk - 1) // 2 + 1):
                a = raised_coefficient(kk, j)
                assert _live_and_equal(
                    lambda xs: verify_chain_identity(s, xs, a),
                    lambda xs: _chain_reference(s, k, xs, a),
                    _draws(kind, f"fac-{n}-{k}-a{kk}{j}", s.dim, k + 1),
                ), f"perturbed a({kk},{j}) left every k={k} draw intact"


class _DoubledBracketSpace(SymplecticSpace):
    """Breaks the alt_m identity: its left side doubles, its right side does not."""

    def poisson_bracket(self, f, g):
        return super().poisson_bracket(f, g) * 2


@pytest.mark.parametrize("kind", sorted(_INPUTS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_factored_alt_m_residual_equals_unfactored(n, kind):
    s, broken = SymplecticSpace(n), _DoubledBracketSpace(n)
    for k in range(1, 2 * n + 1):
        fs = next(_draws(kind, f"fac-alt-{n}-{k}", s.dim, k + 1))
        assert verify_alt_m_identity(s, fs).is_zero() and _alt_m_reference(s, k, fs).is_zero()
        assert _live_and_equal(
            lambda xs: verify_alt_m_identity(broken, xs),
            lambda xs: _alt_m_reference(broken, k, xs),
            _draws(kind, f"fac-alt-{n}-{k}", s.dim, k + 1),
        ), f"the doubled bracket left every k={k} draw intact"


class _LamCountingSpace(SymplecticSpace):
    def __init__(self, n):
        super().__init__(n)
        self.lam_calls = 0

    def Lam(self, a):
        self.lam_calls += 1
        return super().Lam(a)


@pytest.mark.parametrize("n", [2, 3])
def test_chain_identity_applies_each_lefschetz_sum_once(n):
    s = _LamCountingSpace(n)
    for k in range(2, 2 * n + 1):
        fs = [rand_poly(f"lam-count-{n}-{k}-{i}", 0, s.dim) for i in range(k + 1)]
        s.lam_calls = 0
        assert verify_chain_identity(s, fs).is_zero()
        # one P_k on the coboundary and one P_(k+1) on the right side
        assert s.lam_calls <= (k - 1) // 2 + k // 2, f"k={k}: {s.lam_calls} Lam calls"


def test_chain_identity_differentiates_each_function_once(monkeypatch):
    # k = 4 on R4: the 5 inputs and the 10 brackets {f_a, f_b} are the only functions
    # differentiated; d_poly keeps df on each, so forms.d runs 15 times, not once per use
    calls = []
    d_form = koszul.forms.d
    monkeypatch.setattr(koszul.forms, "d", lambda a: calls.append(a) or d_form(a))
    fs = [rand_poly("chain-d", i, 4, 3, 3) for i in range(5)]
    assert verify_chain_identity(SymplecticSpace(2), fs).is_zero()
    assert len(calls) == 15 and all(a.degree == 0 for a in calls)


def test_chain_identity_validates_arguments(s1):
    with pytest.raises(ValueError, match="at least 3 functions"):
        verify_chain_identity(s1, [rand_poly("bad", 0, 2)] * 2)
    with pytest.raises(ValueError, match="at least 2 functions"):
        verify_alt_m_identity(s1, [rand_poly("bad", 0, 2)])


# -- integer-scaled residuals ------------------------------------------------------------


class _RecordingSpace(SymplecticSpace):
    """Keeps every value that L, Lam, delta and the Poisson bracket return."""

    def __init__(self, n):
        super().__init__(n)
        self.seen = []

    def _keep(self, out):
        self.seen.append(out)
        return out

    def L(self, a):
        return self._keep(super().L(a))

    def Lam(self, a):
        return self._keep(super().Lam(a))

    def delta(self, a):
        return self._keep(super().delta(a))

    def poisson_bracket(self, f, g):
        return self._keep(super().poisson_bracket(f, g))


@pytest.fixture
def scaled_sides(monkeypatch):
    """Every alternating sum, coboundary and Lefschetz sum the residuals build, and each residual before division."""
    seen = []
    for name in ("_alt_sum", "ce_partial", "lefschetz_sum"):
        fn = getattr(koszul.brackets, name)
        monkeypatch.setattr(koszul.brackets, name, lambda *a, fn=fn, **kw: seen.append(fn(*a, **kw)) or seen[-1])
    unscaled = koszul.brackets._unscaled

    def recording(residual, scale):
        seen.append(residual)
        return unscaled(residual, scale)

    monkeypatch.setattr(koszul.brackets, "_unscaled", recording)
    return seen


def _coefficient_types(values):
    return {type(c) for x in values for c in x.packed.values()}


@pytest.mark.parametrize("n", [2, 3])
def test_residual_sums_stay_integer_on_integer_inputs(scaled_sides, n):
    # the pass path of every bracket-layer residual sums ints only; a Fraction anywhere means a 1/k leaked in
    s = _RecordingSpace(n)
    polys = lambda label, t, count: [rand_poly(f"{label}-{i}", t, s.dim) for i in range(count)]
    forms = lambda label, t: [rand_form(f"{label}-{i}", t, s.dim, 1) for i in range(2)]
    checks = {f"chain k={k}": (verify_chain_identity, lambda t, k=k: [polys(f"int-ch-{n}-{k}", t, k + 1)])
              for k in range(2, 2 * n + 1)}
    checks.update({f"alt k={k}": (verify_alt_m_identity, lambda t, k=k: [polys(f"int-alt-{n}-{k}", t, k + 1)])
                   for k in range(1, 2 * n + 1)})
    checks["morphism"] = (verify_strict_morphism, lambda t: forms(f"int-mor-{n}", t))
    checks["congruence"] = (verify_quotient_congruence, lambda t: forms(f"int-qc-{n}", t))
    # the L-infinity identities through the evaluator, each D_k l_k that ``higher`` returns recorded;
    # from n = 3, as no term of the n = 2 identity on ground arguments survives
    fam = symplectic_family(s)
    recorded = rebuilt(fam, higher=lambda fs: scaled_sides.append(fam.higher(fs)) or scaled_sides[-1])
    identity = lambda s, *xs: linfty_residual(recorded, [recorded.element(x) for x in xs]).form
    checks.update({f"linfty n={k}": (identity, lambda t, k=k: [rand_form(f"int-li-{n}-{k}-{i}", t, s.dim, 1, 2)
                                                                for i in range(k)])
                   for k in range(3, s.dim + 3)})
    for name, (check, draw) in checks.items():
        types = set()
        for t in range(3):
            scaled_sides.clear()
            s.seen.clear()
            assert check(s, *draw(t)).is_zero(), name
            types |= _coefficient_types(scaled_sides + s.seen)
        assert types == {int}, name  # and not vacuous: some side was nonzero


def _lefschetz_reference(s, k, base, a):
    total = DifferentialForm.zero(s.dim, base.degree)
    for j in range(0, (k - 1) // 2 + 1):
        term = base
        for _ in range(j):
            term = s.Lam(term)
        for _ in range(j):
            term = s.L(term)
        total = total + term * (a(k, j) / k)
    return total * (-1) ** k


@pytest.mark.parametrize("n", [2, 3])
def test_lefschetz_sum_default_scale_is_the_rational_sum(n):
    s = SymplecticSpace(n)
    for a in (None, raised_coefficient(3, 1)):
        for k in range(2, s.dim + 2):
            fs = [rand_poly(f"ls-{n}-{k}-{i}", 0, s.dim) for i in range(k)]
            out = lefschetz_sum(s, _alt_sum(fs), a)
            assert out == _lefschetz_reference(s, k, _alt_sum(fs), a or bracket_coefficient), f"k={k}"
            assert Fraction in _coefficient_types([out]) or out.is_zero(), f"k={k}: 1/k was not applied"
            assert lefschetz_sum(s, _alt_sum(fs), a, scale=6 * k) == out * (6 * k), f"k={k}"
            assert tilde_l(s, fs, a) == out, f"k={k}"


def _lefschetz_bases(s):
    """(k, r, L^r eta) for each k <= 2n + 1 and r with s' = k - 1 - 2r >= 0 and r + s' <= n, where
    eta = f dq_1^...^dq_s' holds no Darboux pair, so it is primitive (Lam eta = 0) and L^r eta != 0."""
    for k in range(2, s.dim + 2):
        for r in range((k - 1) // 2 + 1):
            degree = k - 1 - 2 * r
            if r + degree <= s.n:
                base = rand_poly(f"lam-{s.n}-{k}-{r}", 0, s.dim) * DifferentialForm.basis(s.dim, range(0, 2 * degree, 2))
                for _ in range(r):
                    base = s.L(base)
                assert base, (k, r)
                yield k, r, base


@pytest.mark.parametrize("n, scalars", [(1, 2), (2, 5), (3, 9), (4, 14), (5, 20), (6, 27)])
def test_lefschetz_sum_is_the_closed_form_scalar(n, scalars):
    # on L^r eta, P_k/k is the scalar lambda_k(r)/k, lambda_k(r) = (-1)^k C(n+r+1, r) / C(k-1, r)
    # (CONVENTIONS.md, "Bracket families"), and each raised a(k, j) moves it on some basis of that k
    s = SymplecticSpace(n)
    bases = list(_lefschetz_bases(s))
    assert len(bases) == scalars
    for k, r, base in bases:
        assert lefschetz_sum(s, base) == base * Fraction((-1) ** k * comb(n + r + 1, r), comb(k - 1, r) * k), (k, r)
    raises = [(k, j) for k in range(2, s.dim + 2) for j in range((k - 1) // 2 + 1)]
    assert len(raises) == (n + 1) ** 2 - 1
    for k, j in raises:
        a = raised_coefficient(k, j)
        assert any(lefschetz_sum(s, base, a) != lefschetz_sum(s, base) for kk, _, base in bases if kk == k), (k, j)


def test_lefschetz_sum_applies_L_once_per_lam_power(monkeypatch):
    # Horner form: on the top form of R8, Lam^j is nonzero up to j = 4 = (9 - 1) // 2, and
    # c_0 b_0 + L(c_1 b_1 + L(...)) takes 4 L calls where sum_j L^j Lam^j takes 1 + 2 + 3 + 4
    calls = []
    real = SymplecticSpace.L
    monkeypatch.setattr(SymplecticSpace, "L", lambda s, a: calls.append(a) or real(s, a))
    s = SymplecticSpace(4)
    top = DifferentialForm.basis(8, tuple(range(8)))
    out = lefschetz_sum(s, top)
    assert len(calls) == 4
    assert out == _lefschetz_reference(s, 9, top, bracket_coefficient)


def test_lefschetz_sum_returns_a_zero_base_as_is(monkeypatch):
    # no coefficient is read and neither L nor Lam runs: the coefficient table here would raise
    monkeypatch.setattr(SymplecticSpace, "L", None)
    monkeypatch.setattr(SymplecticSpace, "Lam", None)
    for degree in (0, 2, 4):
        zero = DifferentialForm.zero(4, degree)
        assert lefschetz_sum(SymplecticSpace(2), zero, lambda k, j: 1 // 0) is zero


def _overriding(k, j, value):
    """``bracket_coefficient`` with a(k, j) replaced by ``value``."""
    return lambda kk, jj: value if (kk, jj) == (k, j) else bracket_coefficient(kk, jj)


@pytest.mark.parametrize("k, a", [
    (2, _overriding(3, 1, Fraction(1, 7))),  # at k + 1
    (3, _overriding(3, 1, Fraction(1, 7))),  # at k
    (3, _overriding(4, 1, Fraction(1, 11))),  # at k + 1
], ids=["a31-at-k+1", "a31-at-k", "a41-at-k+1"])
def test_chain_scale_is_read_from_the_table_in_use(scaled_sides, k, a):
    # a fresh prime denominator: a scale taken from the default a(k, j) leaves a Fraction in the scaled sides
    s = SymplecticSpace(2)
    live, types = False, set()
    for fs in _draws("int", f"fresh-prime-{k}", s.dim, k + 1):
        scaled_sides.clear()
        residual = verify_chain_identity(s, fs, a)
        types |= _coefficient_types(scaled_sides)
        assert residual == _chain_reference(s, k, fs, a)
        live = live or not residual.is_zero()
    assert live, "the override left every draw intact"
    assert types == {int}


# -- the alt_m derivative identity ------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (2, 5)])
def test_alt_m_identity_random(n, k):
    s = SymplecticSpace(n)
    for t in range(6):
        fs = [rand_poly(f"alt-{n}-{k}-{i}", t, s.dim) for i in range(k + 1)]
        assert verify_alt_m_identity(s, fs).is_zero()


def test_alt_m_identity_constants_trivial(s2):
    fs = [Polynomial.constant(4, c) for c in (1, 2, 3)]
    assert verify_alt_m_identity(s2, fs).is_zero()


# -- morphism and quotient congruence -----------------------------------------------------


def test_strict_morphism_random(s2):
    for t in range(10):
        alpha = rand_form("mor-a", t, 4, 1)
        beta = rand_form("mor-b", t, 4, 1)
        assert verify_strict_morphism(s2, alpha, beta).is_zero()


def test_strict_morphism_delta_closed_argument(s2):
    # delta-closed alpha: both sides vanish
    alpha = d_poly(rand_poly("mc", 0, 4))  # delta(df) = 0 since delta d = -d delta
    assert s2.delta(alpha).is_zero()
    beta = rand_form("mc-b", 0, 4, 1)
    assert verify_strict_morphism(s2, alpha, beta).is_zero()


def test_strict_morphism_delta_exact_argument(s2):
    eta = rand_form("me", 0, 4, 2)
    alpha = s2.delta(eta)
    beta = rand_form("me-b", 0, 4, 1)
    assert verify_strict_morphism(s2, alpha, beta).is_zero()


def test_quotient_congruence_random(s1, s2):
    for s in (s1, s2):
        for t in range(8):
            alpha = rand_form("qc-a", t, s.dim, 1)
            beta = rand_form("qc-b", t, s.dim, 1)
            assert verify_quotient_congruence(s, alpha, beta).is_zero()


def test_quotient_congruence_constant_delta(s1):
    # delta(beta) constant: the witness collapses to half d(c f)
    alpha = rand_form("qcc-a", 0, 2, 1)
    beta = DifferentialForm.basis(2, (1,), Polynomial.coordinate(s1.dim, 0))  # delta(v1 dx2) = 1
    assert s1.delta(beta) == DifferentialForm.from_polynomial(Polynomial.constant(2, 1))
    assert verify_quotient_congruence(s1, alpha, beta).is_zero()


def test_quotient_congruence_equal_arguments(s1):
    alpha = rand_form("qce", 0, 2, 1)
    assert verify_quotient_congruence(s1, alpha, alpha).is_zero()
