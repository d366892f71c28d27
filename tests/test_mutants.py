"""Mutation table: a public kernel negated wherever a ``koszul`` module binds it,
and the exact set of checks of the default campaign (``CampaignConfig()``) that
the mutant fails.  A row that fails nothing is a surviving mutant, kept here
with its reason and listed as an open item in ROADMAP.md.

Each row runs one default campaign; the four rows take about 1.1 s in all.
"""

import inspect
import sys

import pytest

from koszul.campaign import CampaignConfig, run_campaign

VOLUME_CHECKS = {
    "R3(vol) iota_X mu = -d(potential)",
    "R3(vol) identity n=3 (ground args)",
    "R4(vol) iota_X mu = -d(potential)",
    "R4(vol) identity n=3 (ground args)",
    "R4(vol) identity n=4 (ground args)",
}

MUTANTS = {
    # l_2 contracts twice, so only the arity-3 and arity-4 identities see a negated contraction
    "contract_vector": VOLUME_CHECKS,
    "exact_divfree_vf": VOLUME_CHECKS,
    # the same as pi -> -pi, which is still Poisson: delta^2 = 0, the obstruction identity and
    # the jacobiator hold for it, so only the checks that compare with a fixed value fail
    "contract_bivector": {
        "sl2star iota_pi(top) = v1 dx1 + v2 dx2 - v3 dx3",
        "standard-symplectic(1) obstruction = delta(witness)",
        "standard-symplectic(2) obstruction = delta(witness)",
    },
    # survives: no campaign builds a Hamiltonian vector field
    "hamiltonian_vector_field": set(),
}


def holders(name: str) -> list:
    """Each koszul module, and each class defined in one, that binds ``name``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "koszul" and not mod_name.startswith("koszul."):
            continue
        classes = [v for v in vars(module).values() if inspect.isclass(v) and v.__module__ == mod_name]
        found += [h for h in [module, *classes] if name in vars(h)]
    return found


@pytest.mark.parametrize("name", MUTANTS)
def test_negated_kernel_fails_exactly_its_checks(monkeypatch, name):
    targets = holders(name)
    assert targets, name
    for holder in targets:
        kernel = vars(holder)[name]
        monkeypatch.setattr(holder, name, lambda *args, kernel=kernel: -kernel(*args))
    report = run_campaign(CampaignConfig())
    assert {c.name for c in report.checks if not c.ok} == MUTANTS[name]
