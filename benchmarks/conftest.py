"""Benchmark harness fixtures.

One full-scale study run (the paper's two years of traffic, ~117k exploit
events; scale with ``REPRO_BENCH_SCALE``) is shared by every benchmark.
Each bench times the *regeneration* of one paper artifact from that run,
asserts the measured values land within shape tolerance of the paper, and
writes a paper-vs-measured report to ``benchmarks/results/``.

The run's heavy intermediates are served from the on-disk study cache
(``~/.cache/repro`` unless ``REPRO_CACHE_DIR`` overrides it), so repeated
bench sessions — and any other process studying the same configuration —
skip generation, capture, and scanning entirely.  Set ``REPRO_BENCH_CACHE=0``
to force a cold build, and ``REPRO_BENCH_WORKERS`` to parallelise one.

Every cached session starts with a cache GC pass: orphaned staging dirs and
torn entries are removed (so a crashed earlier bench can never wedge the
key), and ``REPRO_BENCH_CACHE_MAX_BYTES`` optionally bounds the cache's
total size, evicting oldest entries first.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.pipeline import StudyConfig, StudyResult, run_study
from repro.cache import StudyCache
from repro.experiments.registry import ExperimentResult, run_experiment

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "1") != "0"
BENCH_CACHE_MAX_BYTES = (
    int(os.environ["REPRO_BENCH_CACHE_MAX_BYTES"])
    if os.environ.get("REPRO_BENCH_CACHE_MAX_BYTES")
    else None
)


def bench_config() -> StudyConfig:
    """The configuration every benchmark session studies."""
    return StudyConfig(
        volume_scale=BENCH_SCALE,
        background_per_exploit=1.0,
        background_nvd_count=20000,
        workers=BENCH_WORKERS,
    )


@pytest.fixture(scope="session")
def study_full() -> StudyResult:
    """The study run benchmarks analyse (cached across sessions)."""
    cache = None
    if BENCH_CACHE:
        cache = StudyCache()
        # Self-heal before studying: a bench killed mid-save must not leave
        # staging debris or a torn entry wedging this configuration's key.
        cache.gc(max_bytes=BENCH_CACHE_MAX_BYTES)
    # Manifests land under benchmarks/results/ so every bench session is
    # self-describing (span tree, metrics, cache/recovery outcomes) even
    # when the study cache is disabled.
    manifest_dir = Path(__file__).parent / "results" / "manifests"
    result = run_study(bench_config(), cache=cache, manifest=manifest_dir)
    cache_telemetry = result.telemetry.cache
    if cache_telemetry is not None:
        print(
            f"\n[study cache] {'hit' if result.from_cache else 'miss'} "
            f"(hits={cache_telemetry.hits} misses={cache_telemetry.misses} "
            f"evictions={cache_telemetry.evictions} "
            f"integrity_failures={cache_telemetry.integrity_failures})"
        )
    if result.telemetry.manifest_path is not None:
        print(f"[run manifest] {result.telemetry.manifest_path}")
    return result


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


def write_report(results_dir: Path, result: ExperimentResult) -> None:
    """Persist one experiment's paper-vs-measured report."""
    lines = [f"{result.experiment_id}: {result.title}", ""]
    if result.paper:
        lines.append(f"{'quantity':45s} {'paper':>10s} {'measured':>10s}")
        for key, paper_value in result.paper.items():
            measured = result.measured.get(key)
            measured_text = f"{measured:10.3f}" if measured is not None else "      -"
            lines.append(f"{key:45s} {paper_value:10.3f} {measured_text}")
        lines.append("")
    extra = {
        key: value for key, value in result.measured.items()
        if key not in result.paper
    }
    if extra:
        lines.append("additional measured quantities:")
        for key, value in extra.items():
            lines.append(f"  {key}: {value:.3f}")
        lines.append("")
    lines.append(result.text)
    (results_dir / f"{result.experiment_id}.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )


def bench_experiment(
    benchmark, study: StudyResult, results_dir: Path, experiment_id: str
) -> ExperimentResult:
    """Time an experiment's regeneration and persist its report."""
    result = benchmark.pedantic(
        run_experiment, args=(experiment_id, study), rounds=3, iterations=1
    )
    write_report(results_dir, result)
    return result
