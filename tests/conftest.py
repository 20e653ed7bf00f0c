"""Shared fixtures.

The full study pipeline is deterministic, so one small-scale run is shared
(session-scoped) by every integration-style test; unit tests build their own
fixtures.
"""

from __future__ import annotations

import pytest

from repro.analysis.pipeline import StudyConfig, StudyResult, run_study


@pytest.fixture(scope="session")
def study() -> StudyResult:
    """A small but complete study run (same seed as the benchmarks)."""
    return run_study(
        StudyConfig(
            volume_scale=0.02,
            background_per_exploit=0.3,
            background_nvd_count=2000,
        )
    )


@pytest.fixture(scope="session")
def bundle(study: StudyResult):
    return study.bundle


@pytest.fixture
def shard_store(study: StudyResult, tmp_path):
    """A :class:`repro.store.ShardStore` whose root holds the study's
    published cache entry (arrivals left out), so its shard can be saved."""
    from repro.cache import StudyCache
    from repro.store import ShardStore

    StudyCache(root=tmp_path).save(
        study.config,
        arrivals=[],
        store=study.store,
        alerts=study.alerts,
        collection_stats=study.collection_stats,
        ground_truth=study.ground_truth,
    )
    return ShardStore(root=tmp_path)
