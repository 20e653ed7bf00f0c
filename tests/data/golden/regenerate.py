"""Regenerate ``scenario_digests.json``: per-layer digests of each scenario.

Runs every pinned scenario at a tiny scale and digests its sessions,
alerts, events, timelines and experiment outcomes with the benchmark's
output oracle (``perfbench/oracle.py``).  A change that alters study
output on purpose reruns this script and says why in CHANGES.md:

    PYTHONPATH=src python tests/data/golden/regenerate.py
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
GOLDEN = HERE / "scenario_digests.json"
FEED_DIR = ROOT / "tests" / "data" / "feeds"

SCENARIOS = (
    "paper-default",
    "evasive-payloads",
    "strict-rca",
    "sparse-telescope",
    "real-feeds",
)
OVERRIDES = {"volume_scale": 0.01, "background_nvd_count": 2000}


def _oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", ROOT / "perfbench" / "oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenario_digests(name: str) -> Dict[str, str]:
    """The five layer digests of one scenario's uncached study."""
    from repro.analysis.pipeline import StudyConfig, run_study
    from repro.experiments import EXPERIMENTS, registry

    oracle = _oracle()
    overrides = dict(OVERRIDES)
    if name == "real-feeds":
        overrides["feed_dir"] = str(FEED_DIR)
    result = run_study(StudyConfig.from_scenario(name, **overrides))
    digests = oracle.study_digests(result)
    digests["experiments"] = oracle.experiment_digest(
        {key: registry.run_experiment(key, result) for key in EXPERIMENTS}
    )
    return digests


def main() -> None:
    golden = {
        "overrides": OVERRIDES,
        "scenarios": {name: scenario_digests(name) for name in SCENARIOS},
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
