"""Set-up probe: start, import the CLI, build one workload's spaces and families.

    python3 benchmarks/setup_probe.py <workload> <seed>

Prints ``ready`` once everything a campaign needs before its first trial
exists.  ``run.py`` times this from process start to that line to measure
``setup_s``; work moved into import or construction shows there.  Then it
prints the reference pass's time on the core it ran on (see ``speed.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import koszul.cli  # noqa: E402,F401  (the import a `koszul verify` user pays for)
from koszul.brackets import symplectic_family  # noqa: E402
from koszul.campaign import CampaignConfig  # noqa: E402
from koszul.poisson import sl2_dual, standard_symplectic, zero_poisson  # noqa: E402
from koszul.symplectic import SymplecticSpace  # noqa: E402
from koszul.volume import VolumeSpace, volume_family  # noqa: E402

from workloads import campaign_kwargs  # noqa: E402


def build(cfg: CampaignConfig) -> list:
    """The spaces and bracket families the campaign's suites construct."""
    built = []
    for n in cfg.half_dims:
        s = SymplecticSpace(n)
        built += [s, symplectic_family(s)]
    if cfg.suite in ("all", "linfty-volume"):
        for m in cfg.volume_dims:
            v = VolumeSpace(m)
            built += [v, volume_family(v)]
    if cfg.suite in ("all", "poisson"):
        built += [standard_symplectic(1), standard_symplectic(2), sl2_dual(), zero_poisson(3)]
        built += [standard_symplectic(n) for n in cfg.half_dims]
    return built


def main(argv: list[str]) -> int:
    cfg = CampaignConfig(**campaign_kwargs(argv[0], int(argv[1])))
    cfg.validate()
    build(cfg)
    print("ready", flush=True)
    from speed import median_pass_s

    print(median_pass_s(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
