"""Acceptance suite: every criterion at its stated (exact-zero) tolerance.

Each test prints one PASS/FAIL line; run with ``pytest -s tests/test_acceptance.py``
to see them inline.  Residuals are exact polynomials, so the tolerance for
every identity is literal zero; the runtime budgets are asserted as well.
"""

import sys
import time
from contextlib import contextmanager

import pytest

from koszul import (
    DifferentialForm,
    Polynomial,
    SymplecticSpace,
    VolumeSpace,
    bracket_coefficient,
    coefficient_recursions,
    contract_bivector,
    contract_vector,
    d,
    exact_divfree_vf,
    l_bracket,
    linfty_residual,
    obstruction,
    obstruction_identity_residual,
    jacobiator_residual,
    parse_form,
    sl2_dual,
    standard_symplectic,
    symplectic_family,
    symplectic_obstruction_witness,
    verify_alt_m_identity,
    verify_chain_identity,
    verify_quotient_congruence,
    verify_strict_morphism,
    volume_family,
    zero_poisson,
)
from koszul.brackets import raised_coefficient
from koszul.campaign import CampaignConfig, _run, operator_row, run_campaign
from koszul.randgen import random_form, random_polynomial, trial_rng

SEED = 42


@contextmanager
def criterion(num: int, description: str, budget_s: float | None = None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}", file=sys.stderr, flush=True)
        raise
    elapsed = time.monotonic() - started
    stamp = f" [{elapsed:.2f}s" + (f" < {budget_s:.0f}s]" if budget_s else "]")
    print(f"PASS criterion {num}: {description}{stamp}", flush=True)
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def polys(label: str, trial: int, dim: int, count: int, terms: int = 3):
    rng = trial_rng(SEED, label, trial)
    return [random_polynomial(rng, dim, 3, terms) for _ in range(count)]


def forms(label: str, trial: int, dim: int, degree: int, count: int):
    rng = trial_rng(SEED, label, trial)
    return [random_form(rng, dim, degree, 3, 0.8) for _ in range(count)]


def test_criterion_1_operator_relation_suite():
    with criterion(1, "operator relation suite exact on R2 and R4, 50 forms per degree", 10.0):
        for n in (1, 2):
            s = SymplecticSpace(n)
            reports = _run("operators", operator_row(s, CampaignConfig(trials=50, max_degree=3, seed=SEED)))
            assert len(reports) == 14
            for report in reports:
                assert report.trials == 50 * (2 * n + 1)
                assert report.ok, f"{report.name}: {report.failures[:1]}"


def test_criterion_2_alt_m_derivative_identity():
    with criterion(2, "Alt-map derivative identity exact for k=1..5 on R2 and R4, 25 tuples", 30.0):
        for n in (1, 2):
            s = SymplecticSpace(n)
            for k in range(1, 6):
                for t in range(25):
                    fs = polys(f"c2/{n}/{k}", t, s.dim, k + 1)
                    residual = verify_alt_m_identity(s, fs)
                    assert residual.is_zero(), (n, k, t)


def test_criterion_3_chain_identity_with_mutation():
    with criterion(3, "chain identity exact for k=2..2n plus coefficient mutation sensitivity"):
        for n in (1, 2):
            s = SymplecticSpace(n)
            for k in range(2, 2 * n + 1):
                for t in range(25):
                    fs = polys(f"c3/{n}/{k}", t, s.dim, k + 1)
                    assert verify_chain_identity(s, fs).is_zero(), (n, k, t)
            # perturbing any single series coefficient must break some identity
            for k in range(2, 2 * n + 2):
                for j in range(0, (k - 1) // 2 + 1):
                    a = raised_coefficient(k, j)
                    broke = False
                    for t in range(8):
                        for kk in range(max(2, k - 1), min(2 * n, k) + 1):
                            fs = polys(f"c3m/{n}/{k}/{j}/{kk}", t, s.dim, kk + 1)
                            if not verify_chain_identity(s, fs, a).is_zero():
                                broke = True
                                break
                        if broke:
                            break
                    assert broke, f"a({k},{j}) mutation undetected on R{2 * n}"


def test_criterion_4_homotopy_identities_symplectic():
    with criterion(4, "homotopy Jacobi identities n=1..5 exact on R2 and R4, plus vanishing", 60.0):
        for n in (1, 2):
            s = SymplecticSpace(n)
            fam = symplectic_family(s)
            for arity in range(1, 6):
                for t in range(12):
                    rng = trial_rng(SEED, f"c4/{n}/{arity}", t)
                    args = [fam.element(random_form(rng, s.dim, 1, 3, 0.8)) for _ in range(arity)]
                    assert linfty_residual(fam, args).form.is_zero(), (n, arity, t)
            # mixed complex degrees exercise the grounded short-circuits
            for t in range(6):
                rng = trial_rng(SEED, f"c4mix/{n}", t)
                degrees = [1, 2, min(3, s.dim), 1]
                args = [fam.element(random_form(rng, s.dim, dd, 3, 0.8)) for dd in degrees]
                assert linfty_residual(fam, args).form.is_zero(), (n, t)
            # l_k vanishes identically above arity dim+1, checked at dim+2
            for t in range(4):
                rng = trial_rng(SEED, f"c4top/{n}", t)
                args = [random_form(rng, s.dim, 1, 3, 0.8) for _ in range(s.dim + 2)]
                assert l_bracket(s, args).form.is_zero(), (n, t)


def test_criterion_5_coefficient_table():
    with criterion(5, "coefficient table: anchored values and exact recursions to k=9"):
        from fractions import Fraction

        assert bracket_coefficient(2, 0) == 1
        assert bracket_coefficient(3, 1) == Fraction(1, 2)
        assert bracket_coefficient(4, 1) == Fraction(1, 3)
        assert bracket_coefficient(5, 1) == Fraction(1, 4)
        assert bracket_coefficient(5, 2) == Fraction(1, 24)
        equalities = list(coefficient_recursions(9))
        assert all(lhs == rhs for _, lhs, rhs in equalities) and len(equalities) == 88


def test_criterion_6_volume_family():
    with criterion(6, "volume family: defining property, identities n=1..4 on R3 and R4, exact-kill"):
        for m in (3, 4):
            v = VolumeSpace(m)
            fam = volume_family(v)
            for t in range(25):
                rng = trial_rng(SEED, f"c6vf/{m}", t)
                alpha = random_form(rng, m, m - 2, 3, 0.8)
                X = exact_divfree_vf(v, alpha)
                assert (contract_vector(X, v.mu) + d(alpha)).is_zero(), (m, t)
            for arity in range(1, 5):
                for t in range(8):
                    rng = trial_rng(SEED, f"c6id/{m}/{arity}", t)
                    args = [fam.element(random_form(rng, m, m - 2, 3, 0.8)) for _ in range(arity)]
                    assert linfty_residual(fam, args).form.is_zero(), (m, arity, t)
            for t in range(10):
                rng = trial_rng(SEED, f"c6ex/{m}", t)
                beta = random_form(rng, m, m - 3, 3, 0.8)
                alpha = random_form(rng, m, m - 2, 3, 0.8)
                out = fam.l([fam.element(d(beta)), fam.element(alpha)])
                assert out.form.is_zero(), (m, t)


def test_criterion_7_morphism_and_quotient():
    with criterion(7, "strict morphism on 50 pairs and quotient congruence with explicit witness"):
        for n in (1, 2):
            s = SymplecticSpace(n)
            for t in range(50):
                rng = trial_rng(SEED, f"c7m/{n}", t)
                alpha = random_form(rng, s.dim, 1, 3, 0.8)
                beta = random_form(rng, s.dim, 1, 3, 0.8)
                assert verify_strict_morphism(s, alpha, beta).is_zero(), (n, t)
            for t in range(25):
                rng = trial_rng(SEED, f"c7q/{n}", t)
                alpha = random_form(rng, s.dim, 1, 3, 0.8)
                beta = random_form(rng, s.dim, 1, 3, 0.8)
                assert verify_quotient_congruence(s, alpha, beta).is_zero(), (n, t)


def test_criterion_8_poisson_suite():
    with criterion(8, "Poisson suite: delta^2, structure identities, sl2star contraction, witness"):
        presets = [standard_symplectic(1), standard_symplectic(2), sl2_dual(), zero_poisson(3)]
        for p in presets:
            for degree in range(0, p.dim + 1):
                for t in range(10):
                    rng = trial_rng(SEED, f"c8d2/{p.name}/{degree}", t)
                    a = random_form(rng, p.dim, degree, 3, 0.8)
                    assert p.delta(p.delta(a)).is_zero(), (p.name, degree, t)
            for t in range(25):
                fs = polys(f"c8ob/{p.name}", t, p.dim, 3)
                assert obstruction_identity_residual(p, *fs).is_zero(), (p.name, t)
                rng = trial_rng(SEED, f"c8jr/{p.name}", t)
                one_forms = [random_form(rng, p.dim, 1, 3, 0.8) for _ in range(3)]
                assert jacobiator_residual(p, *one_forms).is_zero(), (p.name, t)
        # sl2star: the bivector contracts the top form onto the pinned 1-form exactly
        p = sl2_dual()
        top = parse_form("dx1^dx2^dx3", 3)
        assert contract_bivector(p.pi, top) == parse_form("v1 dx1 + v2 dx2 - v3 dx3", 3)
        # symplectic witness: constructive delta-exactness of the obstruction
        for n in (1, 2):
            s = SymplecticSpace(n)
            p = standard_symplectic(n)
            for t in range(25):
                fs = polys(f"c8w/{n}", t, s.dim, 3)
                w = symplectic_obstruction_witness(s, *fs)
                assert (obstruction(p, *fs) - p.delta(w)).is_zero(), (n, t)


def test_criterion_9_deterministic_reports():
    with criterion(9, "two identical-seed full campaigns produce byte-identical JSON"):
        cfg = CampaignConfig(suite="all", trials=5, seed=SEED)
        first = run_campaign(cfg).to_json()
        second = run_campaign(CampaignConfig(suite="all", trials=5, seed=SEED)).to_json()
        assert first.encode() == second.encode()
        assert '"failed": 0' in first
