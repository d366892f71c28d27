"""Verification campaigns: run the identity suites on seeded random inputs
and assemble machine-readable reports.

A campaign is deterministic for a given config: every random input is derived
from (seed, suite label, trial index), and the JSON rendering is canonical,
so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import __version__
from .brackets import (
    CoefficientTable,
    bracket_coefficient,
    l_bracket,
    symplectic_family,
    verify_alt_m_identity,
    verify_chain_identity,
    verify_coefficient_recursions,
    verify_quotient_congruence,
    verify_strict_morphism,
)
from .forms import DifferentialForm, contract_bivector, contract_vector, d
from .grammar import parse_form, render_form, render_polynomial
from .linfty import linfty_residual
from .poisson import (
    PoissonSpace,
    obstruction,
    obstruction_identity_residual,
    jacobiator_residual,
    sl2_dual,
    standard_symplectic,
    symplectic_obstruction_witness,
    zero_poisson,
)
from .poly import Polynomial
from .randgen import random_form, random_polynomial, trial_rng
from .symplectic import SymplecticSpace, verify_operator_relations
from .volume import VolumeSpace, exact_divfree_vf, volume_family

SUITES = (
    "operators",
    "chain",
    "alt-relation",
    "linfty-symplectic",
    "linfty-volume",
    "poisson",
    "coefficients",
    "all",
)

# suites that would silently run nothing for an empty dimension list
_HALF_DIM_SUITES = ("operators", "chain", "alt-relation", "linfty-symplectic", "poisson", "all")
_VOLUME_DIM_SUITES = ("linfty-volume", "all")


@dataclass
class CampaignConfig:
    suite: str = "all"
    half_dims: tuple[int, ...] = (1, 2)
    volume_dims: tuple[int, ...] = (3, 4)
    max_degree: int = 3
    density: float = 0.7
    trials: int = 25
    seed: int = 7
    arity_max: int = 5
    k_max: int = 9
    fmt: str = "text"

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.max_degree < 1:  # constant inputs make every identity vacuous
            raise ValueError("degree must be >= 1")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if any(n < 1 for n in self.half_dims):
            raise ValueError("half-dimensions must be >= 1")
        if any(m < 3 for m in self.volume_dims):
            raise ValueError("volume dimensions must be >= 3")
        if not self.half_dims and self.suite in _HALF_DIM_SUITES:
            raise ValueError(f"suite {self.suite} needs at least one half-dimension")
        if not self.volume_dims and self.suite in _VOLUME_DIM_SUITES:
            raise ValueError(f"suite {self.suite} needs at least one volume dimension")
        if self.arity_max < 1:
            raise ValueError("arity-max must be >= 1")
        if self.k_max < 2:
            raise ValueError("k-max must be >= 2")
        if self.fmt not in ("text", "json"):
            raise ValueError("format must be text or json")

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "half_dims": list(self.half_dims),
            "volume_dims": list(self.volume_dims),
            "max_degree": self.max_degree,
            "density": self.density,
            "trials": self.trials,
            "seed": self.seed,
            "arity_max": self.arity_max,
            "k_max": self.k_max,
        }


@dataclass
class CheckResult:
    suite: str
    name: str
    trials: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, inputs: list[str], residual: str):
        self.failures.append({"inputs": inputs, "residual": residual})

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "trials": self.trials,
            "status": "pass" if self.ok else "fail",
            "failures": self.failures,
        }


@dataclass
class CampaignReport:
    config: CampaignConfig
    checks: list[CheckResult]
    duration_s: float

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    def to_json(self) -> str:
        # wall-clock duration is deliberately left out: reports must be
        # byte-identical across runs with the same config
        payload = {
            "schema": 1,
            "tool": "koszul",
            "version": __version__,
            "config": self.config.as_dict(),
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "failed": self.failed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"

    def to_text(self) -> str:
        lines = [f"koszul {__version__} verification campaign"]
        cfg = self.config.as_dict()
        lines.append("config: " + ", ".join(f"{k}={v}" for k, v in cfg.items()))
        for c in self.checks:
            status = "ok  " if c.ok else "FAIL"
            lines.append(f"  [{status}] {c.suite:18s} {c.name}  ({c.trials} trials)")
            for f in c.failures[:3]:
                lines.append(f"         inputs:   {'; '.join(f['inputs'])}")
                lines.append(f"         residual: {f['residual']}")
            if len(c.failures) > 3:
                lines.append(f"         ... {len(c.failures) - 3} more failures")
        lines.append(
            f"{self.passed} passed, {self.failed} failed in {self.duration_s:.2f}s"
        )
        return "\n".join(lines) + "\n"


# -- individual suites --------------------------------------------------------


def _random_functions(cfg: CampaignConfig, label: str, trial: int, dim: int, count: int) -> list[Polynomial]:
    rng = trial_rng(cfg.seed, label, trial)
    return [random_polynomial(rng, dim, cfg.max_degree) for _ in range(count)]


def suite_operators(cfg: CampaignConfig) -> list[CheckResult]:
    out = []
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        label = f"R{2 * n}"
        for report in verify_operator_relations(s, cfg.trials, cfg.max_degree, cfg.seed, cfg.density):
            check = CheckResult("operators", f"{label} {report.relation}", report.trials)
            for rendered_input, residual in report.failures:
                check.record([rendered_input], residual)
            out.append(check)
    return out


def suite_chain(cfg: CampaignConfig) -> list[CheckResult]:
    out = []
    trials = max(3, cfg.trials // 5)
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        label = f"R{2 * n}"
        for k in range(2, 2 * n + 1):
            check = CheckResult("chain", f"{label} partial(l~_{k}) = delta l~_{k + 1}")
            for t in range(trials):
                fs = _random_functions(cfg, f"chain/{label}/k{k}", t, s.dim, k + 1)
                residual = verify_chain_identity(s, k, fs)
                check.trials += 1
                if not residual.is_zero():
                    check.record([render_polynomial(f) for f in fs], render_form(residual))
            out.append(check)
        # mutation sensitivity: any perturbed coefficient must break some identity
        for k in range(2, 2 * n + 2):
            for j in range(0, (k - 1) // 2 + 1):
                check = CheckResult("chain", f"{label} mutation a({k},{j}) breaks the identity")
                broke = False
                table = CoefficientTable.perturbed(k, j)
                # an unlucky draw can miss; keep drawing before reporting a miss
                for t in range(4 * trials):
                    for kk in range(max(2, k - 1), min(2 * n, k) + 1):
                        fs = _random_functions(cfg, f"chain-mut/{label}/k{kk}/a{k}_{j}", t, s.dim, kk + 1)
                        check.trials += 1
                        if not verify_chain_identity(s, kk, fs, table).is_zero():
                            broke = True
                            break
                    if broke:
                        break
                if not broke:
                    check.record([f"a({k},{j}) -> {bracket_coefficient(k, j)} + 1"], "no input broke the identity")
                out.append(check)
    return out


def suite_alt_relation(cfg: CampaignConfig) -> list[CheckResult]:
    out = []
    trials = max(3, cfg.trials // 5)
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        label = f"R{2 * n}"
        for k in range(1, 6):
            check = CheckResult("alt-relation", f"{label} partial(Alt m_{k}) = (-delta + d Lam/{k}) Alt m_{k + 1}")
            for t in range(trials):
                fs = _random_functions(cfg, f"alt/{label}/k{k}", t, s.dim, k + 1)
                residual = verify_alt_m_identity(s, k, fs)
                check.trials += 1
                if not residual.is_zero():
                    check.record([render_polynomial(f) for f in fs], render_form(residual))
            out.append(check)
    return out


def suite_linfty_symplectic(cfg: CampaignConfig) -> list[CheckResult]:
    out = []
    trials = max(2, cfg.trials // 8)
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        fam = symplectic_family(s)
        label = f"R{2 * n}"
        for arity in range(1, cfg.arity_max + 1):
            check = CheckResult("linfty-symplectic", f"{label} identity n={arity} (ground args)")
            for t in range(trials):
                rng = trial_rng(cfg.seed, f"linfty/{label}/n{arity}", t)
                args = [
                    fam.element(random_form(rng, s.dim, 1, cfg.max_degree, cfg.density))
                    for _ in range(arity)
                ]
                residual = linfty_residual(fam, args)
                check.trials += 1
                if not residual.form.is_zero():
                    check.record([render_form(x.form) for x in args], render_form(residual.form))
            out.append(check)
        # mixed complex degrees exercise groundedness
        check = CheckResult("linfty-symplectic", f"{label} identity n=3 (mixed degrees)")
        for t in range(trials):
            rng = trial_rng(cfg.seed, f"linfty-mixed/{label}", t)
            degrees = [1, 2, min(3, s.dim)]
            args = [fam.element(random_form(rng, s.dim, dd, cfg.max_degree, cfg.density)) for dd in degrees]
            residual = linfty_residual(fam, args)
            check.trials += 1
            if not residual.form.is_zero():
                check.record([render_form(x.form) for x in args], render_form(residual.form))
        out.append(check)
        # brackets above dim+1 vanish
        check = CheckResult("linfty-symplectic", f"{label} l_{s.dim + 2} = 0")
        for t in range(trials):
            rng = trial_rng(cfg.seed, f"linfty-top/{label}", t)
            args = [random_form(rng, s.dim, 1, cfg.max_degree, cfg.density) for _ in range(s.dim + 2)]
            value = l_bracket(s, s.dim + 2, args)
            check.trials += 1
            if not value.form.is_zero():
                check.record([render_form(x) for x in args], render_form(value.form))
        out.append(check)
        # strict morphism and quotient congruence
        check = CheckResult("linfty-symplectic", f"{label} delta l_2(a,b) = {{delta a, delta b}}")
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, f"morphism/{label}", t)
            alpha = random_form(rng, s.dim, 1, cfg.max_degree, cfg.density)
            beta = random_form(rng, s.dim, 1, cfg.max_degree, cfg.density)
            residual = verify_strict_morphism(s, alpha, beta)
            check.trials += 1
            if not residual.is_zero():
                check.record([render_form(alpha), render_form(beta)], render_polynomial(residual))
        out.append(check)
        check = CheckResult("linfty-symplectic", f"{label} quotient congruence witness")
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, f"congruence/{label}", t)
            alpha = random_form(rng, s.dim, 1, cfg.max_degree, cfg.density)
            beta = random_form(rng, s.dim, 1, cfg.max_degree, cfg.density)
            residual = verify_quotient_congruence(s, alpha, beta)
            check.trials += 1
            if not residual.is_zero():
                check.record([render_form(alpha), render_form(beta)], render_form(residual))
        out.append(check)
    return out


def suite_linfty_volume(cfg: CampaignConfig) -> list[CheckResult]:
    out = []
    trials = max(2, cfg.trials // 8)
    for m in cfg.volume_dims:
        v = VolumeSpace(m)
        fam = volume_family(v)
        label = f"R{m}(vol)"
        check = CheckResult("linfty-volume", f"{label} iota_X mu = -d(potential)")
        for t in range(cfg.trials):
            rng = trial_rng(cfg.seed, f"volume-vf/{label}", t)
            alpha = random_form(rng, m, m - 2, cfg.max_degree, cfg.density)
            X = exact_divfree_vf(v, alpha)
            residual = contract_vector(X, v.mu) + d(alpha)
            check.trials += 1
            if not residual.is_zero():
                check.record([render_form(alpha)], render_form(residual))
        out.append(check)
        for arity in range(1, min(4, cfg.arity_max) + 1):
            check = CheckResult("linfty-volume", f"{label} identity n={arity} (ground args)")
            for t in range(trials):
                rng = trial_rng(cfg.seed, f"linfty-vol/{label}/n{arity}", t)
                args = [
                    fam.element(random_form(rng, m, m - 2, cfg.max_degree, cfg.density))
                    for _ in range(arity)
                ]
                residual = linfty_residual(fam, args)
                check.trials += 1
                if not residual.form.is_zero():
                    check.record([render_form(x.form) for x in args], render_form(residual.form))
            out.append(check)
        check = CheckResult("linfty-volume", f"{label} bracket kills d-exact arguments")
        for t in range(trials):
            rng = trial_rng(cfg.seed, f"volume-exact/{label}", t)
            beta = random_form(rng, m, m - 3, cfg.max_degree, cfg.density)
            alpha = random_form(rng, m, m - 2, cfg.max_degree, cfg.density)
            value = fam.l(2, [fam.element(d(beta)), fam.element(alpha)])
            check.trials += 1
            if not value.form.is_zero():
                check.record([render_form(d(beta)), render_form(alpha)], render_form(value.form))
        out.append(check)
    return out


def suite_poisson(cfg: CampaignConfig) -> list[CheckResult]:
    out = []
    trials = max(5, cfg.trials // 3)
    spaces = [standard_symplectic(1), standard_symplectic(2), sl2_dual(), zero_poisson(3)]
    for p in spaces:
        label = p.name
        check = CheckResult("poisson", f"{label} delta^2 = 0")
        for degree in range(0, p.m + 1):
            for t in range(trials):
                rng = trial_rng(cfg.seed, f"poisson-delta/{label}/deg{degree}", t)
                a = random_form(rng, p.m, degree, cfg.max_degree, cfg.density)
                residual = p.delta(p.delta(a))
                check.trials += 1
                if not residual.is_zero():
                    check.record([render_form(a)], render_form(residual))
        out.append(check)
        check = CheckResult("poisson", f"{label} obstruction identity")
        for t in range(trials):
            fs = _random_functions(cfg, f"poisson-ob/{label}", t, p.m, 3)
            residual = obstruction_identity_residual(p, *fs)
            check.trials += 1
            if not residual.is_zero():
                check.record([render_polynomial(f) for f in fs], render_form(residual))
        out.append(check)
        check = CheckResult("poisson", f"{label} jacobiator vs obstruction")
        for t in range(trials):
            rng = trial_rng(cfg.seed, f"poisson-jac/{label}", t)
            forms = [random_form(rng, p.m, 1, cfg.max_degree, cfg.density) for _ in range(3)]
            residual = jacobiator_residual(p, *forms)
            check.trials += 1
            if not residual.is_zero():
                check.record([render_form(a) for a in forms], render_form(residual))
        out.append(check)
    # sl2star contraction identity: iota_pi(dx1^dx2^dx3) = v1 dx1 + v2 dx2 - v3 dx3
    p = sl2_dual()
    check = CheckResult("poisson", "sl2star iota_pi(top) = v1 dx1 + v2 dx2 - v3 dx3")
    top = DifferentialForm(3, 3, {(0, 1, 2): Polynomial.constant(3, 1)})
    got = contract_bivector(p.pi, top)
    expected = parse_form("v1 dx1 + v2 dx2 - v3 dx3", 3)
    check.trials = 1
    if got != expected:
        check.record([render_form(top)], render_form(got - expected))
    out.append(check)
    # symplectic witness: obstruction = delta(witness), exactly
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        p = standard_symplectic(n)
        check = CheckResult("poisson", f"standard-symplectic({n}) obstruction = delta(witness)")
        for t in range(trials):
            fs = _random_functions(cfg, f"poisson-witness/R{2 * n}", t, s.dim, 3)
            w = symplectic_obstruction_witness(s, *fs)
            residual = obstruction(p, *fs) - p.delta(w)
            check.trials += 1
            if not residual.is_zero():
                check.record([render_polynomial(f) for f in fs], render_form(residual))
        out.append(check)
    return out


def suite_coefficients(cfg: CampaignConfig) -> list[CheckResult]:
    report = verify_coefficient_recursions(cfg.k_max)
    check = CheckResult("coefficients", f"recursions and inductive formulas, k <= {cfg.k_max}", report.checked)
    for f in report.failures:
        check.record([f], "exact mismatch")
    anchored = CheckResult("coefficients", "anchored values a(2,0)..a(5,2)")
    from fractions import Fraction as F

    expected = {(2, 0): F(1), (3, 1): F(1, 2), (4, 1): F(1, 3), (5, 1): F(1, 4), (5, 2): F(1, 24)}
    for (k, j), val in sorted(expected.items()):
        anchored.trials += 1
        got = bracket_coefficient(k, j)
        if got != val:
            anchored.record([f"a({k},{j})"], f"{got} != {val}")
    return [check, anchored]


_SUITE_RUNNERS = {
    "operators": suite_operators,
    "chain": suite_chain,
    "alt-relation": suite_alt_relation,
    "linfty-symplectic": suite_linfty_symplectic,
    "linfty-volume": suite_linfty_volume,
    "poisson": suite_poisson,
    "coefficients": suite_coefficients,
}


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    cfg.validate()
    started = time.monotonic()
    checks: list[CheckResult] = []
    if cfg.suite == "all":
        for name in SUITES[:-1]:
            checks.extend(_SUITE_RUNNERS[name](cfg))
    else:
        checks.extend(_SUITE_RUNNERS[cfg.suite](cfg))
    return CampaignReport(cfg, checks, time.monotonic() - started)
