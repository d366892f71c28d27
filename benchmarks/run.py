"""The koszul benchmark: pinned `koszul verify` campaigns, timed end to end.

    python3 benchmarks/run.py --workload chain-r4 --seed 7 --seconds 20 --trace 0

One process, one thread, a closed loop: campaigns run back to back through
``koszul.campaign.run_campaign`` (the body of ``koszul verify``) until
``--seconds`` have passed.  The seed builds the ``CampaignConfig``; the
program receives nothing else.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``verify_s``: median wall seconds of one campaign in a warm process,
  rescaled to the machine's reference speed (``speed.py``).  The first
  campaign runs at ``--seed``; later ones at seeds derived from it, so the
  median covers many inputs and no campaign repeats an earlier one.
* ``setup_s``: median over SETUP_PROBES fresh processes of the seconds from
  process start to ready (interpreter start, ``import koszul.cli``, the
  workload's spaces and families), rescaled the same way.
* ``peak_rss_mb``: peak resident memory of this process, read right after
  the campaign at ``--seed``; before it only a small warm-up campaign ran.
* ``pass_share``: 1 - failed_share, where failed_share is (failed checks +
  report-digest mismatches) / checks run.

``--trace 1`` alternates untraced and traced campaigns at ``--seed`` and
reports the per-layer metrics (see ``README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also writes
``benchmarks/results/BENCH_<workload>_seed<seed>_trace<0|1>.json`` with the
samples and an environment stamp.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

from speed import SpeedClock, rescale  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS, campaign_kwargs, warmup_kwargs  # noqa: E402


def load_program():
    """Import the koszul checked out next to the benchmark, and only that one."""
    if not (SRC / "koszul" / "__init__.py").is_file():
        raise SystemExit(f"error: no koszul sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import koszul.cli  # noqa: F401
    from koszul import campaign

    if not Path(campaign.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported koszul from {campaign.__file__}, not from {SRC}")
    return campaign


# -- measurements ----------------------------------------------------------


class Ledger:
    """Correctness of every campaign run: checks run, checks failed, digest mismatches."""

    def __init__(self, workload: str, seed: int):
        self.pinned = WORKLOADS[workload]["digest_seed7"] if seed == PINNED_SEED else None
        self.checks = 0
        self.failed = 0
        self.mismatches = 0

    def record(self, report, seed_digest: bool = False) -> str:
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        self.checks += len(report.checks)
        self.failed += report.failed
        if seed_digest and self.pinned is not None and digest != self.pinned:
            self.mismatches += 1
        return digest

    @property
    def failures(self) -> int:
        return self.failed + self.mismatches


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ``ready`` for SETUP_PROBES fresh processes.

    Each probe times the reference pass itself right after ``ready``, on
    whichever core it ran, and its set-up time is rescaled by that.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            ref = proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or ready.strip() != "ready":
            raise SystemExit(f"error: set-up probe for {workload} exited {code}")
        samples.append(rescale(elapsed, float(ref)))
    return samples


def sample_seed(seed: int, i: int) -> int:
    """Seed of the i-th timed campaign: ``seed`` itself, then seeds derived from it."""
    return seed if i == 0 else 1_000_000 * i + seed


def run_untraced(campaign, workload: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    setup = measure_setup(workload, seed)
    ledger.record(campaign.run_campaign(campaign.CampaignConfig(**warmup_kwargs(workload, seed))))
    clock = SpeedClock()
    wall, samples, seeds = [], [], []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        first = not samples
        s = sample_seed(seed, len(samples))
        cfg = campaign.CampaignConfig(**campaign_kwargs(workload, s))
        report, elapsed, scaled = clock.time(campaign.run_campaign, cfg)
        digest = ledger.record(report, seed_digest=first)
        if first:
            seed_digest = digest
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples.append(scaled)
        wall.append(elapsed)
        seeds.append(s)
    metrics = {
        "verify_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_share": (1 - ledger.failures / ledger.checks, "share"),
    }
    detail = {
        "verify_samples": len(samples),
        "verify_wall_median_s": statistics.median(wall),
        "verify_samples_s": samples,
        "verify_wall_samples_s": wall,
        "verify_sample_seeds": seeds,
        "setup_samples_s": setup,
        "reference_median_s": statistics.median(clock.passes),
        "report_digest": seed_digest,
    }
    return metrics, detail


def run_traced(campaign, workload: str, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    """Alternate untraced and traced campaigns at ``seed`` until ``seconds`` pass.

    Exact counts come from the first traced campaign and must repeat in every
    later one; times are medians over the traced campaigns, rescaled like
    ``verify_s``.
    """
    from layers import exact_counts, layer_metrics
    from tracer import Tracer

    cfg = campaign.CampaignConfig(**campaign_kwargs(workload, seed))
    ledger.record(campaign.run_campaign(campaign.CampaignConfig(**warmup_kwargs(workload, seed))))
    clock = SpeedClock()
    untraced, rounds, digests = [], [], set()
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        report, _, scaled = clock.time(campaign.run_campaign, cfg)
        untraced.append(scaled)
        digests.add(ledger.record(report, seed_digest=True))
        tracer = Tracer()
        with tracer:
            report, elapsed, scaled = clock.time(tracer.run, campaign.run_campaign, cfg)
        factor = scaled / elapsed
        digests.add(ledger.record(report, seed_digest=True))
        metrics = layer_metrics(tracer, report)
        rounds.append({k: (v * factor if unit == "s" else v, unit) for k, (v, unit) in metrics.items()})
        del tracer  # its span arrays can hold 100 MB; free them before the next campaign
    # tracing must not change the report, and exact counts must repeat
    ledger.mismatches += len(digests) - 1
    ledger.mismatches += sum(exact_counts(r) != exact_counts(rounds[0]) for r in rounds[1:])
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        if unit == "s":
            value = statistics.median(r[name][0] for r in rounds)
        metrics[name] = (value, unit)
    traced = metrics.pop("campaign.verify_s")[0]
    metrics["trace.overhead_s"] = (traced - statistics.median(untraced), "s")
    detail = {
        "rounds": len(rounds),
        "untraced_samples_s": untraced,
        "traced_samples_s": [r["campaign.verify_s"][0] for r in rounds],
        "reference_median_s": statistics.median(clock.passes),
        "report_digest": sorted(digests),
    }
    return metrics, detail


# -- reporting -------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    campaign = load_program()
    ledger = Ledger(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, detail = run(campaign, args.workload, args.seed, args.seconds, ledger)

    if ledger.pinned is None:
        print(f"report digest at seed {args.seed}: {detail['report_digest']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:.6g} {unit}")
    result = {
        "correct": ledger.failures == 0,
        "attempted": ledger.checks,
        "failed": ledger.failures,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in campaign_kwargs(args.workload, args.seed).items()},
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "failed_share": ledger.failures / ledger.checks,
        **result,
        **detail,
    }
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
