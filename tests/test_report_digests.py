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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import PINNED_SEED, WORKLOADS, campaign_kwargs  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_report_digest(name):
    report = run_campaign(CampaignConfig(**campaign_kwargs(name, PINNED_SEED)))
    assert report.failed == 0
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == WORKLOADS[name]["digest_seed7"]
