"""Per-layer output digests of every pinned scenario match the golden file.

``tests/data/golden/scenario_digests.json`` holds, for each scenario at a
tiny scale, the oracle digests of its sessions, alerts, events, timelines
and experiment outcomes.  A rewrite that must not change behaviour proves
it here; a change that alters output on purpose regenerates the file with
``tests/data/golden/regenerate.py`` and says why in CHANGES.md.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


def _regenerate_module():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = _regenerate_module()
GOLDEN = json.loads((GOLDEN_DIR / "scenario_digests.json").read_text())


def test_golden_file_covers_every_pinned_scenario():
    assert GOLDEN["overrides"] == REGENERATE.OVERRIDES
    assert sorted(GOLDEN["scenarios"]) == sorted(REGENERATE.SCENARIOS)
    for digests in GOLDEN["scenarios"].values():
        assert sorted(digests) == [
            "alerts", "events", "experiments", "sessions", "timelines",
        ]


@pytest.mark.parametrize("name", REGENERATE.SCENARIOS)
def test_scenario_digests_match_golden(name):
    assert REGENERATE.scenario_digests(name) == GOLDEN["scenarios"][name]
