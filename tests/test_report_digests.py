"""Byte-identity guard: the benchmark's pinned campaigns reproduce their reports.

Each workload of ``benchmarks/workloads.py`` runs at the pinned seed through
``run_campaign``, and the sha256 of ``to_json()`` (the bytes that
``koszul verify --format json`` prints) must equal the digest pinned there.
A refactor or kernel change that alters any report byte fails here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from koszul.campaign import CampaignConfig, run_campaign
from koszul.forms import _Alternating
from koszul.poly import Polynomial

from _util import doubled_mul, doubled_wedge

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import PINNED_SEED, WORKLOADS, campaign_kwargs  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_report_digest(name):
    report = run_campaign(CampaignConfig(**campaign_kwargs(name, PINNED_SEED)))
    assert report.failed == 0
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == WORKLOADS[name]["digest_seed7"]


# Every workload above is a passing report.  These pin how a failure renders:
# each mutant doubles a kernel's result on spaces of dimension >= 3 (R2 stays
# intact), so the failing checks record inputs and residuals of every type.
FAILING_CONFIG = {"suite": "all", "trials": 3, "half_dims": (1, 2), "volume_dims": (3,)}


def _digest(report):
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def test_default_config_digest():
    report = run_campaign(CampaignConfig())
    assert _digest(report) == "25abd976a0b92955f1946c1002a1af6c200a8138a7ce34153e3cb42ce0077646"


def test_half_dim_3_digest():
    # the smallest space whose brackets use a(k,2), i.e. L^2 Lam^2 in the Lefschetz sum
    report = run_campaign(CampaignConfig(half_dims=(3,)))
    assert _digest(report) == "3e6005237ad5a4683b97b8eae4d8483047db3457fee0a39a647fe2965a511918"


def test_half_dim_4_digest():
    report = run_campaign(CampaignConfig(half_dims=(4,)))
    assert _digest(report) == "95b83573e5784bc2ba8ae91b0fb00720f9274abfcd375a657beae63435c2882d"


def test_linfty_tower_digest():
    # the full bracket tower on R8: identities up to arity 9
    report = run_campaign(CampaignConfig(suite="linfty-symplectic", half_dims=(4,), arity_max=9))
    assert _digest(report) == "204f6025fb0f50820bd242bdb53a4477e505aa45db8b56271ccc6375c56f438a"


def test_linfty_r10_digest():
    # on R10 up to arity 11: Lefschetz sums reach L^5 Lam^5 and the evaluator scales by D_11
    report = run_campaign(CampaignConfig(suite="linfty-symplectic", half_dims=(5,), arity_max=11, trials=2))
    assert _digest(report) == "a5d209df6917dc640ef53b9ed9a5c13736fa917156ddbccb7543fde0704e313a"


@pytest.mark.parametrize(
    "target, attr, mutant, failing_suites, failing_check, digest",
    [
        (_Alternating, "wedge", doubled_wedge, {"chain", "alt-relation", "linfty-symplectic", "poisson"},
         "R4 partial(l~_2) = delta l~_3",
         "bfab4e824959005bbf044efdb44230dba58795952de0a10d0db670487a8ec394"),
        # form kernels multiply coefficients term by term, so this mutant reaches forms only
        # through products of two polynomials (f g, a {b, c}, ...); a symplectic {f, g} is the
        # contraction X_f g, so the chain and alt-relation rows are out of its reach
        (Polynomial, "__mul__", doubled_mul, {"linfty-symplectic", "poisson"},
         "sl2star obstruction identity",
         "a0383aa54954f38d3cfab6b7fa97c108b97da67d3d8ab8bdf9a6fb4252629040"),
    ],
    ids=["wedge", "poly-mul"],
)
def test_failing_campaign_digest(monkeypatch, target, attr, mutant, failing_suites, failing_check, digest):
    monkeypatch.setattr(target, attr, mutant(getattr(target, attr)))
    report = run_campaign(CampaignConfig(**FAILING_CONFIG))
    failed = {c.name: c.suite for c in report.checks if not c.ok}
    assert set(failed.values()) == failing_suites
    assert failing_check in failed
    assert _digest(report) == digest


# degree 2 makes every lift delta x affine, so each inner value lifts to a constant {delta x, delta y}
# and most l_k on the tower take a zero or two constant arguments: these pin how the failures render
# where those zeros are decided before they are computed
DEGREE_2_TOWER = {"suite": "linfty-symplectic", "half_dims": (2, 4), "arity_max": 9, "max_degree": 2, "trials": 3}


@pytest.mark.parametrize(
    "target, attr, mutant, failed, digest",
    [
        (None, None, None, 0, "92db19a6dd6fa04b0cbc72e22bcb62bda9dda6976d02f15a3338093e2b14837c"),
        (_Alternating, "wedge", doubled_wedge, 4,
         "8f9304b1ed9d54a93b84fdf714de48466217858a995d87641e9919869e907179"),
        (Polynomial, "__mul__", doubled_mul, 2,
         "97164ce0d8cfd495aa4d8c77422be67732e1b21fef5d7eb6185c8d95a210d199"),
    ],
    ids=["clean", "wedge", "poly-mul"],
)
def test_degree_2_tower_digest(monkeypatch, target, attr, mutant, failed, digest):
    if mutant:
        monkeypatch.setattr(target, attr, mutant(getattr(target, attr)))
    report = run_campaign(CampaignConfig(**DEGREE_2_TOWER))
    assert (report.failed, len(report.checks)) == (failed, 26)
    assert _digest(report) == digest


# ``to_json`` sorts its keys, so the digests above cannot see the order of the config line or of the failure
# lines that ``to_text`` writes; these pin the text report without its last line, the run's wall time
@pytest.mark.parametrize(
    "config, mutant, digest",
    [
        ({}, None, "9bbecba9b655aefe932254175f281982c28fee2f35ddf22c1c4c17dfc7bbb483"),
        (FAILING_CONFIG, doubled_wedge, "f49f94faab222b376402767a42da287964b6bbe2622ba868c7962b8e56eb412b"),
    ],
    ids=["default", "wedge"],
)
def test_text_report_digest(monkeypatch, config, mutant, digest):
    if mutant:
        monkeypatch.setattr(_Alternating, "wedge", mutant(_Alternating.wedge))
    text = run_campaign(CampaignConfig(**config)).to_text()
    assert hashlib.sha256(text[: text.rindex("\n", 0, -1) + 1].encode()).hexdigest() == digest
