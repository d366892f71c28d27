"""Guard for the benchmark harness: one tiny traced campaign through ``benchmarks/``.

``benchmarks/tracer.py`` wraps the layer functions from outside the package and
reads some of their results (``BracketFamily.l`` returns an element with a
``form``), and ``benchmarks/layers.py`` turns the spans into the per-layer
metrics that ``BENCHMARK.json`` declares.  A change to ``src/`` that breaks
either fails here, in well under a second, instead of only in
``benchmarks/selftest.py``.
"""

import inspect
import json
import sys
from pathlib import Path

from koszul.campaign import CampaignConfig, run_campaign

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
from layers import layer_metrics  # noqa: E402
from tracer import Tracer, traced_functions  # noqa: E402


def bindings() -> dict:
    """Every function held by a koszul module or by a class defined in one."""
    held = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "koszul" and not mod_name.startswith("koszul."):
            continue
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                held[mod_name, attr] = value
            elif inspect.isclass(value) and value.__module__.startswith("koszul"):
                held.update({(value, name): fn for name, fn in vars(value).items() if callable(fn)})
    return held


def test_tracer_yields_every_declared_layer_metric_and_restores_bindings():
    cfg = CampaignConfig(suite="all", half_dims=(1,), volume_dims=(3,), trials=1, arity_max=3)
    before = bindings()
    tracer = Tracer()
    with tracer:
        assert bindings() != before  # the trace is live
        report = tracer.run(run_campaign, cfg)
    assert bindings() == before
    assert report.failed == 0
    metrics = layer_metrics(tracer, report)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert "campaign.verify_s" in metrics  # run.py turns it into trace.overhead_s
    assert [name for name in declared if name not in metrics and name != "trace.overhead_s"] == []
    assert metrics["linfty.l.calls"][0] > 0
    # a kernel method moved where the tracer cannot see it would zero these declared metrics
    for name in ("poly.mul.calls", "poly.add.calls", "forms.add.calls", "forms.wedge.calls", "forms.contract.calls",
                 "volume.exact_divfree_vf.calls"):
        assert metrics[name][0] > 0, name


def test_randgen_spans_are_its_four_public_generators():
    # the tracer wraps every public randgen function: a public per-draw helper would add a span
    # per integer drawn and inflate trace.overhead_s
    traced = {name for name in traced_functions() if name.startswith("randgen.")}
    assert traced == {f"randgen.{name}" for name in
                      ("trial_rng", "random_polynomial", "random_form", "random_vector_field")}
