"""Self-tests of the benchmark's tracer and per-layer counts.

    python3 benchmarks/selftest.py

* Coverage: on a short campaign the tracer's call count of every traced
  function equals cProfile's ``ncalls`` for the same code object, so no
  binding made at import (``from .forms import d`` and the like) escapes it.
* Determinism: two traced runs of ``campaign-all`` at seed 7, and two at
  another seed, give identical exact counts, all checks pass, and at seed 7
  the report digest is the pinned one.
"""

from __future__ import annotations

import cProfile
import hashlib
import inspect
import pstats
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from koszul.campaign import CampaignConfig, run_campaign  # noqa: E402

from layers import exact_counts, layer_metrics  # noqa: E402
from tracer import Tracer, traced_functions  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, campaign_kwargs  # noqa: E402

SHORT = CampaignConfig(suite="all", trials=3, seed=PINNED_SEED)


def traced_run(cfg: CampaignConfig):
    tracer = Tracer()
    with tracer:
        report = tracer.run(run_campaign, cfg)
    return tracer, report


class TracerCoverage(unittest.TestCase):
    def test_calls_match_cprofile(self):
        tracer, _ = traced_run(SHORT)
        spans = tracer.summary()
        profile = cProfile.Profile()
        profile.runcall(run_campaign, SHORT)
        ncalls = {key[:3]: row[1] for key, row in pstats.Stats(profile).stats.items()}
        by_code: dict = {}
        for name, (_, _, fn) in traced_functions().items():
            by_code.setdefault(fn.__code__, []).append(name)
        self.assertGreater(len(by_code), 50)
        for code, names in by_code.items():
            with self.subTest(names=names):
                expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
                self.assertEqual(sum(spans[n]["calls"] for n in names), expected)

    def test_every_binding_is_patched_and_restored(self):
        originals = {fn for _, _, fn in traced_functions().values()}

        def held():
            return {
                (mod_name, attr)
                for mod_name, module in sys.modules.items()
                if mod_name == "koszul" or mod_name.startswith("koszul.")
                for attr, value in vars(module).items()
                if inspect.isfunction(value) and value in originals
            }

        before = held()
        self.assertIn(("koszul.symplectic", "d"), before)
        with Tracer():
            self.assertEqual(held(), set())
        self.assertEqual(held(), before)


class Determinism(unittest.TestCase):
    def test_exact_counts_repeat(self):
        for seed in (PINNED_SEED, 8):
            cfg = CampaignConfig(**campaign_kwargs("campaign-all", seed))
            runs = [traced_run(cfg) for _ in range(2)]
            counts = [exact_counts(layer_metrics(tracer, report)) for tracer, report in runs]
            with self.subTest(seed=seed):
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["poly.mul.term_products"], 0)
                self.assertGreater(counts[0]["campaign.trials"], 0)
                for _, report in runs:
                    self.assertEqual(report.failed, 0)
                if seed == PINNED_SEED:
                    digest = hashlib.sha256(runs[0][1].to_json().encode()).hexdigest()
                    self.assertEqual(digest, WORKLOADS["campaign-all"]["digest_seed7"])


if __name__ == "__main__":
    unittest.main()
