"""The benchmark's workloads: pinned ``koszul verify`` campaigns.

Each workload is a set of ``CampaignConfig`` fields; the benchmark adds only
the seed.  ``digest_seed7`` is the sha256 of ``CampaignReport.to_json()`` for
the campaign at seed 7, recorded from the commit that defined the benchmark:
a change that keeps the report byte-identical keeps the digest.
"""

from __future__ import annotations

PINNED_SEED = 7

WORKLOADS = {
    "campaign-all": {
        "config": {"suite": "all", "trials": 50},
        "why": "small inputs across all seven suites; fixed per-call costs dominate (bypass workload for kernel changes)",
        "digest_seed7": "4455cd83402da90d5c30e63b2e7cbfdfe339b34819b56660cadbacd859bba8b7",
    },
    "chain-r4": {
        "config": {"suite": "chain", "half_dims": (2,), "trials": 50},
        "why": "Polynomial mul on Fraction coefficients leads, through L, tilde_l and alt_m; few delta arguments repeat",
        "digest_seed7": "33ffc8c03aa77924b438e7342233d0ccf0f9ef098506adca5954dc80f0b997fc",
    },
    "operators-r8": {
        "config": {"suite": "operators", "half_dims": (4,)},
        "why": "diff, d, merge_indices and contract_bivector on integer coefficients; every mul has a constant factor",
        "digest_seed7": "468967489c424550794a4d386374e0182f865a807e77ff0024c106c084cc3a3a",
    },
    "linfty-r8": {
        "config": {"suite": "linfty-symplectic", "half_dims": (4,), "arity_max": 9, "max_degree": 2},
        "why": "L-infinity evaluator up to arity 9; most delta arguments repeat, so caching shows here",
        "digest_seed7": "5c44938da88c68d402d5f45b26fe2bbad822d540c3300f8ee539fac15b6bf6f7",
    },
}

# Every workload runs with these unless its config says otherwise.
DEFAULTS = {"max_degree": 3, "density": 0.7, "trials": 25}


def campaign_kwargs(name: str, seed: int) -> dict:
    """The ``CampaignConfig`` fields of workload ``name`` at ``seed``."""
    return {**DEFAULTS, **WORKLOADS[name]["config"], "seed": seed}


def warmup_kwargs(name: str, seed: int) -> dict:
    """A small campaign of the same suite that runs every code path of it once."""
    return {**campaign_kwargs(name, seed), "half_dims": (1,), "volume_dims": (3,), "trials": 3}
