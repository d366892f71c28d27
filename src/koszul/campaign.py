"""Verification campaigns: run the identity suites on seeded random inputs
and assemble machine-readable reports.

Every suite is a generator of check rows (``Check``): suite, input stream,
named residuals and an optional mutant message.  The stream yields one
argument tuple per trial, and each named check passes when its
``residual(*args)`` is exactly zero on every tuple.  The residuals of one row
all run on a tuple before the next is drawn, so they may share work within
that sample: the operator row evaluates each operator once per form for all
14 relations.  A row with a mutant message checks a deliberately broken
identity: it passes at the first nonzero residual, else fails and reports the
mutant.  One runner, ``_run``, counts the trials and renders every failure of
every suite.

Each trial draws its inputs from ``trial_rng(seed, label, t)``, and the JSON
rendering is canonical, so identical configs produce byte-identical reports.
The labels, the order of draws under each, and the rule that turns the
generator's bits into an integer below n (``randgen``: n.bit_length() bits,
drawn again while >= n, as CPython's ``randrange`` does) are part of that
contract: a renamed label or another rule changes the report.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import NamedTuple

from . import __version__
from .brackets import (
    bracket_coefficient,
    coefficient_recursions,
    l_bracket,
    raised_coefficient,
    symplectic_family,
    verify_alt_m_identity,
    verify_chain_identity,
    verify_quotient_congruence,
    verify_strict_morphism,
)
from .forms import DifferentialForm, contract_bivector, contract_vector, d
from .grammar import parse_form, render_form, render_polynomial
from .linfty import BracketFamily, linfty_residual
from .poisson import (
    jacobiator_residual,
    obstruction_identity_residual,
    sl2_dual,
    standard_symplectic,
    symplectic_witness_residual,
    zero_poisson,
)
from .poly import EXP_MAX, Polynomial
from .randgen import random_form, random_polynomial, trial_rng
from .symplectic import SymplecticSpace, operator_relations
from .volume import VolumeSpace, exact_divfree_vf, volume_family

# suites that would silently run nothing for an empty dimension list
_HALF_DIM_SUITES = ("operators", "chain", "alt-relation", "linfty-symplectic", "poisson", "all")
_VOLUME_DIM_SUITES = ("linfty-volume", "all")

# the recursion check costs about k_max^3: under a second at 200 on a
# 2-core machine, over a minute at 800
K_MAX = 200
# operators and chain draw forms of every degree (C(2n, n) bases), 4-7 times the cost per step;
# on a shared 2-core machine operators takes 1.2-1.3 s at --half-dim 5 and 5.0-5.5 s at 6, chain
# 2.5-3.2 s at 5 (46 s at 6 when last measured).  alt-relation, linfty-symplectic and poisson stay
# under 2 s up to 40.
HALF_DIM_MAX = 6
# linfty-volume draws (m-2)-forms on R^m, 2-2.6 times the cost per two dimensions; on the same
# machine --suite linfty-volume --volume-dim 10, 12, 14, 16 take 0.9, 2.2, 5.4, 10.9 s
VOLUME_DIM_MAX = 16
# the L-infinity identities up to arity A cost about A^3, the forms' size aside: on a 2-core machine
# --suite linfty-symplectic --trials 1 takes 0.08, 0.34, 0.50 s at A = 20, 30, 40 on --half-dim 1,
# and 3.2, 3.6, 4.9 s at A = 10, 13, 40 on --half-dim 6, where brackets above arity 13 vanish
ARITY_MAX = 40
_HALF_DIM_CAPPED = ("operators", "chain", "all")
# suites with chain mutation rows that no linear input breaks (R2's, and a(5,j) on R4)
_QUADRATIC_SUITES = ("chain", "all")


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

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 1 <= self.max_degree <= EXP_MAX:  # constant inputs make every identity vacuous
            raise ValueError(f"degree must be >= 1 and <= {EXP_MAX}")
        if self.max_degree < 2 and self.suite in _QUADRATIC_SUITES:
            raise ValueError(f"degree must be >= 2 for suite {self.suite}: "
                             "linear inputs leave some chain mutation rows unbroken")
        if not 0 < self.density <= 1:
            raise ValueError("density must be in (0, 1]")
        if any(n < 1 for n in self.half_dims):
            raise ValueError("half-dimensions must be >= 1")
        if self.suite in _HALF_DIM_CAPPED and any(n > HALF_DIM_MAX for n in self.half_dims):
            raise ValueError(f"half-dimensions must be <= {HALF_DIM_MAX} for suite {self.suite}: each step costs 4-7x")
        if any(m < 3 for m in self.volume_dims):
            raise ValueError("volume dimensions must be >= 3")
        if self.suite in _VOLUME_DIM_SUITES and any(m > VOLUME_DIM_MAX for m in self.volume_dims):
            raise ValueError(f"volume dimensions must be <= {VOLUME_DIM_MAX} for suite {self.suite}: "
                             "each two dimensions cost 2-2.6x")
        for name, dims in (("half-dimensions", self.half_dims), ("volume dimensions", self.volume_dims)):
            if len(set(dims)) < len(dims):  # each repeat would run and report every check again
                raise ValueError(f"{name} repeat: {','.join(map(str, dims))}")
        if not self.half_dims and self.suite in _HALF_DIM_SUITES:
            raise ValueError(f"suite {self.suite} needs at least one half-dimension")
        if not self.volume_dims and self.suite in _VOLUME_DIM_SUITES:
            raise ValueError(f"suite {self.suite} needs at least one volume dimension")
        if not 1 <= self.arity_max <= ARITY_MAX:
            raise ValueError(f"arity-max must be in 1..{ARITY_MAX}: the identities cost about A^3")
        if not 2 <= self.k_max <= K_MAX:
            raise ValueError(f"k-max must be in 2..{K_MAX}: the recursion check costs about k^3")

    def as_dict(self) -> dict:
        return {**asdict(self), "half_dims": list(self.half_dims), "volume_dims": list(self.volume_dims)}


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
        return {**asdict(self), "status": "pass" if self.ok else "fail"}


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
        lines.append(f"{self.passed} passed, {self.failed} failed in {self.duration_s:.2f}s")
        return "\n".join(lines) + "\n"


# -- the check table ----------------------------------------------------------


class Check(NamedTuple):
    """One check row: each of ``residuals``, ``{name: residual}`` in report
    order, must vanish at every ``args`` in ``inputs``.

    Each input runs through every residual before the next is drawn, so the
    residuals of a row may share work within one sample.  With ``mutant`` set
    the row has exactly one residual, its identity is deliberately broken, and
    the row instead needs one input whose residual is nonzero.  A suite yields
    rows one at a time and each runs before the next is built, so ``inputs``
    and ``residuals`` may close over the suite's loop variables.
    """

    suite: str
    inputs: Iterable[tuple]
    residuals: dict[str, Callable[..., Polynomial | DifferentialForm]]
    mutant: str | None = None


def _render(x) -> str:
    if isinstance(x, Polynomial):
        return render_polynomial(x)
    return render_form(x) if isinstance(x, DifferentialForm) else str(x)


def _run(row: Check) -> list[CheckResult]:
    checks = [CheckResult(row.suite, name) for name in row.residuals]
    for args in row.inputs:
        for check, residual_of in zip(checks, row.residuals.values()):
            residual = residual_of(*args)
            check.trials += 1
            if residual.is_zero():
                continue
            if row.mutant:
                return checks
            check.record([_render(x) for x in args], _render(residual))
    if row.mutant:
        checks[0].record([row.mutant], "no input broke the identity")
    return checks


def _stream(cfg: CampaignConfig, label: str, trials: int, draw: Callable) -> Iterable[tuple]:
    """Per trial t, the argument tuple ``draw(trial_rng(seed, label, t))``."""
    return (draw(trial_rng(cfg.seed, label, t)) for t in range(trials))


def _polys(cfg: CampaignConfig, dim: int, count: int) -> Callable:
    return lambda rng: tuple(random_polynomial(rng, dim, cfg.max_degree) for _ in range(count))


def _forms(cfg: CampaignConfig, dim: int, *degrees: int) -> Callable:
    return lambda rng: tuple(random_form(rng, dim, deg, cfg.max_degree, cfg.density) for deg in degrees)


def _identity(fam: BracketFamily) -> Callable:
    """The L-infinity identity residual on forms of ``fam``'s complex."""
    return lambda *forms: linfty_residual(fam, [fam.element(a) for a in forms]).form


# -- individual suites --------------------------------------------------------


def operator_row(s: SymplecticSpace, cfg: CampaignConfig) -> Check:
    """The relation table of ``s`` as one row on seeded random forms of every degree 0..2n.

    All 14 relations run on one form before the next is drawn, and within that
    sample each of L, Lam, H, delta and d is evaluated once per input object
    (``d(a)`` alone feeds eight relations).  This is exact: the kernels are
    pure functions of their input and forms are never mutated, so a shared
    value is the value a fresh call returns.  The memo is keyed by the
    identity of the input and holds the input, so no key can be reused by
    another object, and the stream empties it before each sample and after
    the last.
    """
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")
    memo: dict = {}

    def share(op):
        def once(a):
            key = (op, id(a))
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (a, op(a))
            return hit[1]

        return once

    def inputs():
        for degree in range(0, s.dim + 1):
            for args in _stream(cfg, f"operators/deg{degree}", cfg.trials, _forms(cfg, s.dim, degree)):
                memo.clear()
                yield args
        memo.clear()

    return Check("operators", inputs(), {f"R{s.dim} {name}": lambda a, lhs=lhs, rhs=rhs: lhs(a) - rhs(a)
                                         for name, lhs, rhs in operator_relations(s, share)})


def suite_operators(cfg: CampaignConfig) -> Iterable[Check]:
    for n in cfg.half_dims:
        yield operator_row(SymplecticSpace(n), cfg)


def suite_chain(cfg: CampaignConfig) -> Iterable[Check]:
    trials = max(3, cfg.trials // 5)
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        label = f"R{2 * n}"
        for k in range(2, 2 * n + 1):
            yield Check("chain", _stream(cfg, f"chain/{label}/k{k}", trials, _polys(cfg, s.dim, k + 1)),
                        {f"{label} partial(l~_{k}) = delta l~_{k + 1}": lambda *fs: verify_chain_identity(s, k, fs)})
        # mutation sensitivity: any perturbed coefficient must break some identity;
        # an unlucky draw can miss, so keep drawing before reporting a miss
        for k in range(2, 2 * n + 2):
            for j in range(0, (k - 1) // 2 + 1):
                a = raised_coefficient(k, j)
                inputs = ((kk, *_polys(cfg, s.dim, kk + 1)(trial_rng(cfg.seed, f"chain-mut/{label}/k{kk}/a{k}_{j}", t)))
                          for t in range(4 * trials) for kk in range(max(2, k - 1), min(2 * n, k) + 1))
                yield Check("chain", inputs,
                            {f"{label} mutation a({k},{j}) breaks the identity":
                             lambda kk, *fs: verify_chain_identity(s, kk, fs, a)},
                            f"a({k},{j}) -> {bracket_coefficient(k, j)} + 1")


def suite_alt_relation(cfg: CampaignConfig) -> Iterable[Check]:
    trials = max(3, cfg.trials // 5)
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        label = f"R{2 * n}"
        for k in range(1, 6):
            yield Check("alt-relation", _stream(cfg, f"alt/{label}/k{k}", trials, _polys(cfg, s.dim, k + 1)),
                        {f"{label} partial(Alt m_{k}) = (-delta + d Lam/{k}) Alt m_{k + 1}":
                         lambda *fs: verify_alt_m_identity(s, k, fs)})


def suite_linfty_symplectic(cfg: CampaignConfig) -> Iterable[Check]:
    trials = max(2, cfg.trials // 8)
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        identity = _identity(symplectic_family(s))
        label = f"R{2 * n}"
        for arity in range(1, cfg.arity_max + 1):
            yield Check("linfty-symplectic",
                        _stream(cfg, f"linfty/{label}/n{arity}", trials, _forms(cfg, s.dim, *[1] * arity)),
                        {f"{label} identity n={arity} (ground args)": identity})
        # mixed complex degrees exercise groundedness
        yield Check("linfty-symplectic",
                    _stream(cfg, f"linfty-mixed/{label}", trials, _forms(cfg, s.dim, 1, 2, min(3, s.dim))),
                    {f"{label} identity n=3 (mixed degrees)": identity})
        # brackets above dim+1 vanish
        yield Check("linfty-symplectic",
                    _stream(cfg, f"linfty-top/{label}", trials, _forms(cfg, s.dim, *[1] * (s.dim + 2))),
                    {f"{label} l_{s.dim + 2} = 0": lambda *forms: l_bracket(s, s.dim + 2, forms).form})
        # strict morphism and quotient congruence
        yield Check("linfty-symplectic", _stream(cfg, f"morphism/{label}", cfg.trials, _forms(cfg, s.dim, 1, 1)),
                    {f"{label} delta l_2(a,b) = {{delta a, delta b}}": partial(verify_strict_morphism, s)})
        yield Check("linfty-symplectic", _stream(cfg, f"congruence/{label}", cfg.trials, _forms(cfg, s.dim, 1, 1)),
                    {f"{label} quotient congruence witness": partial(verify_quotient_congruence, s)})


def suite_linfty_volume(cfg: CampaignConfig) -> Iterable[Check]:
    trials = max(2, cfg.trials // 8)
    for m in cfg.volume_dims:
        v = VolumeSpace(m)
        fam = volume_family(v)
        label = f"R{m}(vol)"
        yield Check("linfty-volume", _stream(cfg, f"volume-vf/{label}", cfg.trials, _forms(cfg, m, m - 2)),
                    {f"{label} iota_X mu = -d(potential)":
                     lambda alpha: contract_vector(exact_divfree_vf(v, alpha), v.mu) + d(alpha)})
        for arity in range(1, min(4, cfg.arity_max) + 1):
            yield Check("linfty-volume",
                        _stream(cfg, f"linfty-vol/{label}/n{arity}", trials, _forms(cfg, m, *[m - 2] * arity)),
                        {f"{label} identity n={arity} (ground args)": _identity(fam)})
        pairs = _stream(cfg, f"volume-exact/{label}", trials, _forms(cfg, m, m - 3, m - 2))
        yield Check("linfty-volume", ((d(beta), alpha) for beta, alpha in pairs),
                    {f"{label} bracket kills d-exact arguments":
                     lambda exact, alpha: fam.l(2, [fam.element(exact), fam.element(alpha)]).form})


def suite_poisson(cfg: CampaignConfig) -> Iterable[Check]:
    trials = max(5, cfg.trials // 3)
    for p in (standard_symplectic(1), standard_symplectic(2), sl2_dual(), zero_poisson(3)):
        label = p.name
        yield Check("poisson",
                    chain.from_iterable(_stream(cfg, f"poisson-delta/{label}/deg{degree}", trials,
                                                _forms(cfg, p.m, degree)) for degree in range(0, p.m + 1)),
                    {f"{label} delta^2 = 0": lambda a: p.delta(p.delta(a))})
        yield Check("poisson", _stream(cfg, f"poisson-ob/{label}", trials, _polys(cfg, p.m, 3)),
                    {f"{label} obstruction identity": partial(obstruction_identity_residual, p)})
        yield Check("poisson", _stream(cfg, f"poisson-jac/{label}", trials, _forms(cfg, p.m, 1, 1, 1)),
                    {f"{label} jacobiator vs obstruction": partial(jacobiator_residual, p)})
    # sl2star contraction identity: iota_pi(dx1^dx2^dx3) = v1 dx1 + v2 dx2 - v3 dx3
    p = sl2_dual()
    expected = parse_form("v1 dx1 + v2 dx2 - v3 dx3", 3)
    yield Check("poisson", [(DifferentialForm(3, 3, {(0, 1, 2): Polynomial.constant(3, 1)}),)],
                {"sl2star iota_pi(top) = v1 dx1 + v2 dx2 - v3 dx3": lambda top: contract_bivector(p.pi, top) - expected})
    # symplectic witness: obstruction = delta(witness), exactly
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        yield Check("poisson", _stream(cfg, f"poisson-witness/R{2 * n}", trials, _polys(cfg, s.dim, 3)),
                    {f"standard-symplectic({n}) obstruction = delta(witness)": partial(symplectic_witness_residual, s)})


def _mismatch(label: str, lhs: Fraction, rhs: Fraction) -> Polynomial:
    return Polynomial.constant(0, lhs - rhs)


def suite_coefficients(cfg: CampaignConfig) -> Iterable[Check]:
    yield Check("coefficients", coefficient_recursions(cfg.k_max),
                {f"recursions and inductive formulas, k <= {cfg.k_max}": _mismatch})
    expected = {
        (2, 0): Fraction(1), (3, 1): Fraction(1, 2), (4, 1): Fraction(1, 3),
        (5, 1): Fraction(1, 4), (5, 2): Fraction(1, 24),
    }
    anchored = ((f"a({k},{j})", bracket_coefficient(k, j), val) for (k, j), val in sorted(expected.items()))
    yield Check("coefficients", anchored, {"anchored values a(2,0)..a(5,2)": _mismatch})


_SUITE_ROWS = {
    "operators": suite_operators,
    "chain": suite_chain,
    "alt-relation": suite_alt_relation,
    "linfty-symplectic": suite_linfty_symplectic,
    "linfty-volume": suite_linfty_volume,
    "poisson": suite_poisson,
    "coefficients": suite_coefficients,
}
SUITES = (*_SUITE_ROWS, "all")


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    cfg.validate()
    started = time.monotonic()
    names = _SUITE_ROWS if cfg.suite == "all" else (cfg.suite,)
    checks = [check for name in names for row in _SUITE_ROWS[name](cfg) for check in _run(row)]
    return CampaignReport(cfg, checks, time.monotonic() - started)
