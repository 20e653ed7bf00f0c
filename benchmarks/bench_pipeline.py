"""Performance benchmarks for the measurement stack itself.

Unlike the per-figure benches (which time artifact regeneration on a cached
study run), these measure the system's throughput: traffic generation,
telescope capture, and NIDS scanning — the pieces a downstream user would
size a deployment with.

``test_nids_scan_engines`` additionally times the scan on the
session-scoped full-scale store with both prefilter engines — the
Aho-Corasick reference baseline and the C-speed regex prefilter — serial
and multiprocess, and writes a machine-readable
``results/BENCH_pipeline.json`` (sessions/sec per engine, prefilter
speedup, parallel speedup, scan telemetry), so the perf trajectory is
tracked across PRs.  Each timing takes the best of
``REPRO_BENCH_REPEATS`` runs (default 3): wall times on shared hosts
swing several-fold under load, and min-of-K is the standard noise
rejection.  Worker count defaults to 4; override with
``REPRO_BENCH_SCAN_WORKERS``.

The parallel numbers carry their context: both ``os.cpu_count()`` and the
*schedulable* core count (``len(os.sched_getaffinity(0))`` — containers
routinely pin a 64-core box to 1 core) are recorded, and any row whose
worker count exceeds the schedulable cores is annotated ``oversubscribed``
/ ``unreliable`` — its speedup measures contention, not the pool.  ``worker_sweep`` rows force the pool on (``threshold=0``) so the
curve is measurable at any scale; the headline ``parallel_seconds`` runs
under the default break-even policy and records whether it fell back to
serial (``fallback_serial``).  ``REPRO_BENCH_VOLUME_ROW=<scale>`` adds a
scan-only row at a different traffic scale (the issue's ``volume_scale >=
10`` trajectory point) without paying for a full study at that scale.

``test_rules_vs_throughput`` sweeps *ruleset* size instead of traffic
volume: deterministic synthetic Snort rulesets (64 → 10k rules, see
``repro.nids.scale``) scanned serial and forced-parallel over a fixed
synthetic session corpus, recorded to the ``rules_sweep`` section of the
same JSON.  ``test_prefilter_compile`` times building a
:class:`~repro.nids.prefilter.RegexPrefilter` for every shard of the
largest swept ruleset's fast-pattern table — the compile a Snort-scale
rescan pays before it matches anything — recorded under
``prefilter_compile``.  ``test_warm_analysis`` times what a warm cache hit
re-runs on the session's study — bundle build, event/RCA/timeline
derivation and every registered experiment — under ``warm_analysis``.
Every writer merges into ``BENCH_pipeline.json`` rather than overwriting
it, so each can run alone.
"""

import json
import os
import re
import statistics
import subprocess
import time

from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.nids.engine import DetectionEngine
from repro.nids.prefilter import DEFAULT_SHARD_SIZE, RegexPrefilter
from repro.nids.scale import ScaleConfig, generate_scaled, throughput_sweep
from repro.telescope.collector import DscopeCollector
from repro.telescope.config import TelescopeConfig
from repro.traffic.generator import TrafficConfig, TrafficGenerator

SCAN_WORKERS = int(os.environ.get("REPRO_BENCH_SCAN_WORKERS", "4"))
SCAN_REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "3"))
SWEEP_WORKERS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_WORKER_SWEEP", "1,2,4,8").split(",")
    if part.strip()
]
VOLUME_ROW_SCALE = float(os.environ.get("REPRO_BENCH_VOLUME_ROW", "0") or 0)
RULE_SIZES = tuple(
    int(part)
    for part in os.environ.get(
        "REPRO_BENCH_RULE_SIZES", "64,1024,4096,10000"
    ).split(",")
    if part.strip()
)


def _merge_results(results_dir, section, payload):
    """Read-modify-write one section of ``BENCH_pipeline.json``.

    ``test_nids_scan_engines`` and ``test_rules_vs_throughput`` each own a
    disjoint slice of the file; merging (instead of overwriting) lets either
    run alone without clobbering the other's committed numbers.
    """
    path = results_dir / "BENCH_pipeline.json"
    document = {}
    if path.exists():
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):  # torn file: rebuild from scratch
            document = {}
    if section is None:
        document.update(payload)
    else:
        document[section] = payload
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def _cpu_info():
    """(advertised cores, schedulable cores) — they differ in containers."""
    affinity = None
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - affinity unsupported
            affinity = None
    return os.cpu_count(), affinity


def _small_config():
    return TrafficConfig(volume_scale=0.02, background_per_exploit=0.5)


def test_traffic_generation_throughput(benchmark):
    def generate():
        return TrafficGenerator(_small_config()).generate()

    arrivals = benchmark.pedantic(generate, rounds=3, iterations=1)
    assert len(arrivals) > 2000


def test_telescope_capture_throughput(benchmark):
    arrivals = TrafficGenerator(_small_config()).generate()

    def collect():
        collector = DscopeCollector(
            TelescopeConfig(concurrent_instances=300), window=STUDY_WINDOW
        )
        return collector.collect(arrivals)

    store = benchmark.pedantic(collect, rounds=3, iterations=1)
    assert len(store) == len(arrivals)


def test_nids_scan_throughput(benchmark):
    arrivals = TrafficGenerator(_small_config()).generate()
    collector = DscopeCollector(window=STUDY_WINDOW)
    store = collector.collect(arrivals)
    ruleset = build_study_ruleset()

    def scan():
        return DetectionEngine(ruleset).scan(store)

    alerts = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert alerts


def _best_scan(make_engine, store, reference_alerts=None):
    """Best-of-``SCAN_REPEATS`` scan; returns (seconds, alerts, stats).

    Every repeat's alert stream is asserted identical to the reference
    (when given) and to the other repeats, so a timing can never come from
    a run that produced different detections.
    """
    best_seconds = None
    best_stats = None
    alerts = None
    for _ in range(max(1, SCAN_REPEATS)):
        engine = make_engine()
        start = time.perf_counter()
        run_alerts = engine.scan(store)
        elapsed = time.perf_counter() - start
        if alerts is None:
            alerts = run_alerts
        else:
            assert run_alerts == alerts
        if reference_alerts is not None:
            assert run_alerts == reference_alerts
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            best_stats = engine.stats
    return best_seconds, alerts, best_stats


def test_nids_scan_engines(study_full, results_dir):
    """Aho-Corasick baseline vs regex prefilter on the full-scale store.

    Times the serial scan under both prefilter engines and the multiprocess
    scan under the default (regex) engine, asserting all three produce
    identical alert streams, and records everything — including per-engine
    :class:`~repro.nids.engine.ScanTelemetry` — to ``BENCH_pipeline.json``.
    The speedups themselves are recorded, not asserted: they are properties
    of the host, not of the code.  (The acceptance target for this PR stack
    is ``prefilter_speedup >= 3`` at full scale on an unloaded machine.)
    """
    store = study_full.store
    sessions = len(store)

    aho_seconds, aho_alerts, aho_stats = _best_scan(
        lambda: DetectionEngine(build_study_ruleset(prefilter="aho")), store
    )
    regex_ruleset = build_study_ruleset(prefilter="regex")
    regex_seconds, regex_alerts, regex_stats = _best_scan(
        lambda: DetectionEngine(regex_ruleset), store, aho_alerts
    )
    # Headline parallel row: the *default* break-even policy, so the
    # recorded number is what a run_study(workers=N) user actually gets —
    # including a serial fallback when the store is below break-even.
    parallel_seconds, _, parallel_stats = _best_scan(
        lambda: DetectionEngine(regex_ruleset, workers=SCAN_WORKERS),
        store,
        aho_alerts,
    )
    assert regex_stats == aho_stats  # telemetry excluded from equality

    cpu_count, cpu_affinity = _cpu_info()
    schedulable = cpu_affinity if cpu_affinity is not None else cpu_count

    def _sweep_row(workers):
        seconds, _, stats = _best_scan(
            lambda: DetectionEngine(regex_ruleset, workers=workers, threshold=0),
            store,
            aho_alerts,
        )
        telemetry = stats.telemetry
        oversubscribed = schedulable is not None and workers > schedulable
        return {
            "workers": workers,
            "seconds": round(seconds, 3),
            "sessions_per_sec": round(sessions / seconds, 1),
            "speedup": round(regex_seconds / seconds, 3),
            "fallback_serial": telemetry.fallback_serial,
            # More workers than schedulable cores measures contention,
            # not the pool: the speedup is not trustworthy.
            "oversubscribed": oversubscribed,
            "unreliable": oversubscribed,
        }

    worker_sweep = [_sweep_row(workers) for workers in SWEEP_WORKERS]

    payload = {
        "sessions": sessions,
        "alerts": len(regex_alerts),
        "workers": SCAN_WORKERS,
        "cpu_count": cpu_count,
        "cpu_affinity": cpu_affinity,
        "repeats": SCAN_REPEATS,
        # Legacy keys: the default-engine (regex) numbers, so the trajectory
        # across PRs stays comparable.
        "serial_seconds": round(regex_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "serial_sessions_per_sec": round(sessions / regex_seconds, 1),
        "parallel_sessions_per_sec": round(sessions / parallel_seconds, 1),
        "speedup": round(regex_seconds / parallel_seconds, 3),
        "fallback_serial": parallel_stats.telemetry.fallback_serial,
        "prefilter_speedup": round(aho_seconds / regex_seconds, 3),
        "volume_scale": study_full.config.volume_scale,
        "worker_sweep": worker_sweep,
        "engines": {
            "aho": {
                "serial_seconds": round(aho_seconds, 3),
                "serial_sessions_per_sec": round(sessions / aho_seconds, 1),
                "telemetry": aho_stats.telemetry.as_dict(),
            },
            "regex": {
                "serial_seconds": round(regex_seconds, 3),
                "serial_sessions_per_sec": round(sessions / regex_seconds, 1),
                "parallel_seconds": round(parallel_seconds, 3),
                "parallel_sessions_per_sec": round(
                    sessions / parallel_seconds, 1
                ),
                "telemetry": regex_stats.telemetry.as_dict(),
                "parallel_telemetry": parallel_stats.telemetry.as_dict(),
            },
        },
    }

    if VOLUME_ROW_SCALE > 0:
        # Scan-only trajectory point at a different traffic scale: traffic
        # generation + capture run once (they are not what is being timed),
        # then serial vs default-policy parallel on the resulting store.
        heavy_store = DscopeCollector(window=STUDY_WINDOW).collect(
            TrafficGenerator(
                TrafficConfig(
                    volume_scale=VOLUME_ROW_SCALE, background_per_exploit=1.0
                )
            ).generate()
        )
        heavy_sessions = len(heavy_store)
        heavy_serial, heavy_alerts, _ = _best_scan(
            lambda: DetectionEngine(regex_ruleset), heavy_store
        )
        heavy_parallel, _, heavy_stats = _best_scan(
            lambda: DetectionEngine(regex_ruleset, workers=SCAN_WORKERS),
            heavy_store,
            heavy_alerts,
        )
        oversubscribed = (
            schedulable is not None and SCAN_WORKERS > schedulable
        )
        payload["volume_row"] = {
            "volume_scale": VOLUME_ROW_SCALE,
            "sessions": heavy_sessions,
            "workers": SCAN_WORKERS,
            "serial_seconds": round(heavy_serial, 3),
            "parallel_seconds": round(heavy_parallel, 3),
            "speedup": round(heavy_serial / heavy_parallel, 3),
            "fallback_serial": heavy_stats.telemetry.fallback_serial,
            "oversubscribed": oversubscribed,
            "unreliable": oversubscribed,
        }

    _merge_results(results_dir, None, payload)


def test_rules_vs_throughput(results_dir):
    """Scan throughput as the ruleset grows from 64 to 10k synthetic rules.

    Runs :func:`repro.nids.scale.throughput_sweep` — deterministic scaled
    Snort-text rulesets parsed through ``parse_rules``, scanned serial and
    forced-parallel over the same synthetic session corpus — and merges the
    result into ``BENCH_pipeline.json`` under ``rules_sweep``.  Every entry
    asserts the serial and parallel alert streams are byte-identical
    (``alerts_equal``), so a sharding regression fails the bench rather than
    skewing the curve.  Sizes override with ``REPRO_BENCH_RULE_SIZES``;
    sessions with ``REPRO_BENCH_RULE_SESSIONS``.
    """
    session_count = int(os.environ.get("REPRO_BENCH_RULE_SESSIONS", "2000"))
    sweep = throughput_sweep(
        sizes=RULE_SIZES, session_count=session_count, workers=SCAN_WORKERS
    )
    assert len(sweep["entries"]) == len(RULE_SIZES)
    assert all(entry["alerts_equal"] for entry in sweep["entries"])
    _merge_results(results_dir, "rules_sweep", sweep)


def _git_revision():
    """(commit sha, whether the work tree has uncommitted changes), or
    ``(None, None)`` outside a git checkout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, check=True, capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def test_prefilter_compile(results_dir):
    """Compile cost of the regex prefilter at the largest swept rule count.

    Takes the scaled corpus's fast-pattern table (lowercased, de-duplicated,
    rule order — what :class:`~repro.nids.ruleset.Ruleset` hands the
    sharded prefilter), cuts it into ``DEFAULT_SHARD_SIZE`` shards and
    builds a :class:`RegexPrefilter` for every shard, ``max(3,
    REPRO_BENCH_REPEATS)`` times.  ``re``'s pattern cache is purged before
    each repeat so every repeat pays the full closure build, trie emit and
    ``sre`` compile.  Merged into ``BENCH_pipeline.json`` under
    ``prefilter_compile``.
    """
    size = max(RULE_SIZES)
    patterns = []
    seen = set()
    for scaled in generate_scaled(ScaleConfig(size=size)):
        fast = scaled.rule.fast_pattern
        if fast is not None and fast.pattern.lower() not in seen:
            seen.add(fast.pattern.lower())
            patterns.append(fast.pattern.lower())
    assert patterns
    shards = [
        patterns[start : start + DEFAULT_SHARD_SIZE]
        for start in range(0, len(patterns), DEFAULT_SHARD_SIZE)
    ]
    seconds = []
    chunks = 0
    for _ in range(max(3, SCAN_REPEATS)):
        re.purge()
        start = time.perf_counter()
        engines = [RegexPrefilter(shard) for shard in shards]
        seconds.append(time.perf_counter() - start)
        chunks = sum(engine.chunk_count for engine in engines)
    sha, dirty = _git_revision()
    _merge_results(
        results_dir,
        "prefilter_compile",
        {
            "rules": size,
            "patterns": len(patterns),
            "shards": len(shards),
            "chunks": chunks,
            "repeats": len(seconds),
            "median_seconds": round(statistics.median(seconds), 4),
            "min_seconds": round(min(seconds), 4),
            "max_seconds": round(max(seconds), 4),
            "cpu_count": os.cpu_count(),
            "git_sha": sha,
            "git_dirty": dirty,
        },
    )


def test_warm_analysis(study_full, results_dir):
    """The analysis a warm cache hit still pays, stage by stage.

    A cached ``run_study`` skips traffic, capture and scan but rebuilds the
    dataset bundle (including the synthetic NVD background population) and
    re-derives events, RCA decisions and timelines from the stored alerts;
    ``repro run`` then regenerates every registered experiment.  Times
    those three stages on the session's study (``REPRO_BENCH_SCALE``)
    ``max(3, REPRO_BENCH_REPEATS)`` times and merges median/min/max per
    stage into ``BENCH_pipeline.json`` under ``warm_analysis``.  Every
    repeat's derived analysis must equal the study's own.
    """
    from repro.analysis.pipeline import build_bundle, derive_analysis
    from repro.experiments.registry import EXPERIMENTS, run_experiment
    from repro.scenarios import resolve

    config = study_full.config
    resolved = resolve(config.scenario or "paper-default", config)
    seconds = {"build_bundle": [], "derive_analysis": [], "experiments": []}
    for _ in range(max(3, SCAN_REPEATS)):
        start = time.perf_counter()
        bundle = build_bundle(resolved.plan)
        seconds["build_bundle"].append(time.perf_counter() - start)

        start = time.perf_counter()
        analysis = derive_analysis(
            bundle, study_full.alerts, study_full.store, rca=resolved.build_rca
        )
        seconds["derive_analysis"].append(time.perf_counter() - start)
        assert analysis.events_per_cve == study_full.events_per_cve
        assert analysis.timelines == study_full.timelines

        start = time.perf_counter()
        for name in EXPERIMENTS:
            run_experiment(name, study_full)
        seconds["experiments"].append(time.perf_counter() - start)

    events = len(study_full.kept_events)
    assert events > 0
    sha, dirty = _git_revision()
    _merge_results(
        results_dir,
        "warm_analysis",
        {
            "volume_scale": config.volume_scale,
            "background_nvd_count": config.background_nvd_count,
            "events": events,
            "kept_cves": len(study_full.events_per_cve),
            "experiments": len(EXPERIMENTS),
            "repeats": len(seconds["experiments"]),
            "stages": {
                stage: {
                    "median_seconds": round(statistics.median(values), 4),
                    "min_seconds": round(min(values), 4),
                    "max_seconds": round(max(values), 4),
                }
                for stage, values in seconds.items()
            },
            "cpu_count": os.cpu_count(),
            "git_sha": sha,
            "git_dirty": dirty,
        },
    )


def test_ruleset_build(benchmark):
    ruleset = benchmark.pedantic(build_study_ruleset, rounds=5, iterations=1)
    assert len(ruleset) == 80
