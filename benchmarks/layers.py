"""Per-layer metrics from one traced campaign.

``SPAN_GROUPS`` maps each per-layer metric stem to the tracer spans it sums;
``<stem>.calls`` and ``<stem>.self_s`` are emitted for each.  On top of those:
the self time of every layer as a whole, the counters read off the calls
(``poly.mul.*`` shares and term products, ``symplectic.delta.repeat_share``,
``linfty.l.zero_share``) and the campaign totals.
"""

from __future__ import annotations

from tracer import LAYERS, ROOT

SPAN_GROUPS = {
    "poly.mul": ("poly.Polynomial.__mul__", "poly.Polynomial.__rmul__"),
    "poly.add": ("poly.Polynomial.__add__",),
    "poly.diff": ("poly.Polynomial.diff",),
    "forms.wedge": ("forms.DifferentialForm.wedge", "forms.MultiVectorField.wedge"),
    "forms.d": ("forms.d",),
    "forms.contract": ("forms.contract_vector", "forms.contract_bivector"),
    "forms.add": ("forms.DifferentialForm.__add__", "forms.MultiVectorField.__add__"),
    "symplectic.L": ("symplectic.SymplecticSpace.L",),
    "symplectic.Lam": ("symplectic.SymplecticSpace.Lam",),
    "symplectic.delta": ("symplectic.SymplecticSpace.delta",),
    "symplectic.poisson_bracket": ("symplectic.SymplecticSpace.poisson_bracket",),
    "brackets.alt_m": ("brackets.alt_m",),
    "brackets.tilde_l": ("brackets.tilde_l",),
    "brackets.verify_chain_identity": ("brackets.verify_chain_identity",),
    "linfty.linfty_residual": ("linfty.linfty_residual",),
    "linfty.ce_partial": ("linfty.ce_partial",),
    "volume.volume_bracket": ("volume.volume_bracket",),
    "volume.exact_divfree_vf": ("volume.exact_divfree_vf",),
    "poisson.bracket": ("poisson.PoissonSpace.bracket",),
    "poisson.delta": ("poisson.PoissonSpace.delta",),
    "grammar.render": ("grammar.render_form", "grammar.render_polynomial", "grammar.render_multivector"),
}

# Counts of work and their ratios: they must repeat exactly for a given seed.
EXACT_UNITS = ("count", "share")


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, report) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced campaign."""
    spans = tracer.summary()

    def total(names, key):
        return sum(spans[n][key] for n in names if n in spans)

    out = {}
    for stem, names in SPAN_GROUPS.items():
        out[f"{stem}.calls"] = (total(names, "calls"), "count")
        out[f"{stem}.self_s"] = (total(names, "self_s"), "s")
    mul_calls = out["poly.mul.calls"][0]
    out["poly.mul.term_products"] = (tracer.mul_term_products, "count")
    out["poly.mul.const_share"] = (_share(tracer.mul_const, mul_calls), "share")
    out["poly.mul.frac_share"] = (_share(tracer.mul_out_fracs, tracer.mul_out_coeffs), "share")
    out["symplectic.delta.repeat_share"] = (_share(tracer.delta_repeats, out["symplectic.delta.calls"][0]), "share")
    l_calls = total(("linfty.BracketFamily.l",), "calls")
    out["linfty.l.calls"] = (l_calls, "count")
    out["linfty.l.zero_share"] = (_share(tracer.l_zero, l_calls), "share")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (total([n for n in spans if n.startswith(layer + ".")], "self_s"), "s")
    out["campaign.self_s"] = (spans[ROOT]["self_s"], "s")
    out["campaign.checks"] = (len(report.checks), "count")
    out["campaign.trials"] = (sum(c.trials for c in report.checks), "count")
    out["campaign.verify_s"] = (spans[ROOT]["total_s"], "s")
    return out


def exact_counts(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    return {name: value for name, (value, unit) in metrics.items() if unit in EXACT_UNITS}
