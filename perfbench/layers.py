"""Per-layer self times, measured from outside the program.

A :class:`LayerTrace` replaces each layer's public entry point (a module
function or a class method, named in :data:`TARGETS`) with a timing
wrapper, and puts the original back on :meth:`LayerTrace.uninstall`.
Nothing under ``src/`` changes.

A layer's **self time** is the wall time of its wrapped calls minus the
wall time of wrapped calls nested inside them, so the layers' self times
never double-count.  What no wrapper covers stays in the operation's
``trace.unattributed_s``.  A target whose module or attribute no longer
exists is skipped and listed in :attr:`LayerTrace.missing`, and its time
lands in ``trace.unattributed_s``.

Counts come from the telemetry objects the calls already expose
(``CollectionStats``, ``engine.stats.telemetry``,
``StudyCache.telemetry``, ``CheckpointStore.telemetry``) or from the
length of what a call returns; the benchmark adds no counters.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Counts = Dict[str, float]


def _count_arrivals(counts: Counts, args, result, before) -> None:
    counts["traffic.arrivals"] += len(result)


def _count_collection(counts: Counts, args, result, before) -> None:
    stats = args[0].stats
    counts["telescope.sessions"] += stats.sessions_captured
    counts["telescope.tenancies"] += stats.tenancies_materialised
    counts["telescope.lost_to_preemption"] += stats.arrivals_lost_to_preemption


def _growth(key: str, field: str) -> Dict[str, Callable]:
    """Hooks adding the growth of ``self.telemetry.<field>`` to ``key``."""

    def before(args) -> int:
        return getattr(args[0].telemetry, field)

    def count(counts: Counts, args, result, start: int) -> None:
        counts[key] += getattr(args[0].telemetry, field) - start

    return {"before": before, "count": count}


def _count_scan(counts: Counts, args, result, before) -> None:
    telemetry = args[0].stats.telemetry
    counts["nids.alerts"] += len(result)
    counts["nids.sessions"] += telemetry.sessions
    counts["nids.prefilter_hits"] += telemetry.prefilter_hits
    counts["nids.prefiltered"] += telemetry.match_cache_misses
    counts["nids.nominated"] += telemetry.candidates_nominated
    counts["nids.evaluated"] += telemetry.candidates_evaluated
    counts["nids.shards_compiled"] += telemetry.shards_compiled


def _count_kept(counts: Counts, args, result, before) -> None:
    counts["analysis.kept_cves"] += len(result.events_per_cve)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``<module>:<attribute path>`` charged to
    ``layer`` (a per-layer metric name without its ``_s`` suffix)."""

    layer: str
    module: str
    attribute: str
    count: Optional[Callable[..., None]] = None
    before: Optional[Callable[[tuple], Any]] = None

    @property
    def where(self) -> str:
        return f"{self.module}:{self.attribute}"


#: Every wrapped entry point, by layer.  ``repro.analysis.pipeline`` binds
#: ``build_bundle`` and ``derive_analysis`` as its own globals, so those
#: are wrapped where ``run_study`` looks them up.
TARGETS: Tuple[Target, ...] = (
    Target("datasets.build", "repro.analysis.pipeline", "build_bundle"),
    Target("traffic.generate", "repro.scenarios.resolve",
           "ResolvedScenario.build_traffic"),
    Target("traffic.generate", "repro.traffic.generator",
           "TrafficGenerator.generate", _count_arrivals),
    Target("telescope.collect", "repro.scenarios.resolve",
           "ResolvedScenario.build_collector"),
    Target("telescope.collect", "repro.telescope.collector",
           "DscopeCollector.collect", _count_collection),
    Target("checkpoint.encode", "repro.cache.checkpoint", "encode_stage_arrivals"),
    Target("checkpoint.encode", "repro.cache.checkpoint", "encode_stage_store"),
    Target("checkpoint.encode", "repro.cache.checkpoint", "encode_stage_alerts"),
    Target("checkpoint.save", "repro.cache.checkpoint", "CheckpointStore.save",
           **_growth("checkpoint.bytes_written", "bytes_written")),
    Target("cache.save", "repro.cache.study", "StudyCache.save",
           **_growth("cache.bytes_written", "bytes_written")),
    Target("cache.load", "repro.cache.study", "StudyCache.load",
           **_growth("cache.bytes_read", "bytes_read")),
    Target("obs.manifest_write", "repro.obs.manifest", "RunManifest.write"),
    Target("nids.rules_build", "repro.scenarios.resolve",
           "ResolvedScenario.build_ruleset"),
    Target("nids.rules_build", "repro.nids.parser", "parse_rules"),
    Target("nids.rules_build", "repro.nids.ruleset", "Ruleset.extend"),
    Target("nids.scan", "repro.nids.engine", "DetectionEngine.scan", _count_scan),
    Target("analysis.derive", "repro.analysis.pipeline", "derive_analysis",
           _count_kept),
    Target("experiments.run", "repro.experiments.registry", "run_experiment"),
    Target("store.shard_open", "repro.store.shard", "ShardStore.load"),
    Target("store.answer", "repro.store.service", "StudyService.answer_bytes"),
)

#: Layers whose self time is reported, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: Every per-layer metric and its unit.  ``trace.overhead_s`` (traced minus
#: untraced median operation time) is computed by the runner.
UNITS: Dict[str, str] = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    "traffic.arrivals": "count",
    "telescope.sessions": "count",
    "telescope.tenancies": "count",
    "telescope.lost_to_preemption": "count",
    "checkpoint.bytes_written": "bytes",
    "cache.bytes_written": "bytes",
    "cache.bytes_read": "bytes",
    "nids.sessions_per_s": "1/s",
    "nids.alerts": "count",
    "nids.prefilter_hit_ratio": "ratio",
    "nids.eval_ratio": "ratio",
    "nids.shards_compiled": "count",
    "analysis.kept_cves": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(target: Target) -> Optional[Tuple[Any, str]]:
    """(owner object, attribute name) for a target, or None if gone."""
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class LayerTrace:
    """Timing wrappers around :data:`TARGETS`, installed for one traced
    operation and uninstalled after it."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.missing: List[str] = []
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._stack: List[float] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Counts = defaultdict(float)

    def install(self) -> "LayerTrace":
        for target in self.targets:
            found = _resolve(target)
            if found is None:
                self.missing.append(target.where)
                continue
            owner, name = found
            defined_here = name in vars(owner)
            original = vars(owner)[name] if defined_here else getattr(owner, name)
            setattr(owner, name, self._wrap(target, getattr(owner, name)))
            self._restore.append((owner, name, original, defined_here))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original, defined_here = self._restore.pop()
            if defined_here:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _wrap(self, target: Target, function: Callable) -> Callable:
        trace = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start_state = target.before(args) if target.before else None
            trace._stack.append(0.0)
            started = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                nested = trace._stack.pop()
                trace.self_seconds[target.layer] += elapsed - nested
                if trace._stack:
                    trace._stack[-1] += elapsed
            if target.count is not None:
                target.count(trace.counts, args, result, start_state)
            return result

        return wrapper

    def operation_metrics(self, wall_seconds: float) -> Dict[str, float]:
        """The per-layer metrics of one traced operation of ``wall_seconds``."""
        metrics = {f"{layer}_s": self.self_seconds.get(layer, 0.0) for layer in LAYERS}
        counts = self.counts
        for name, unit in UNITS.items():
            if unit in ("count", "bytes"):
                metrics[name] = counts.get(name, 0.0)
        scan_s = metrics["nids.scan_s"]
        metrics["nids.sessions_per_s"] = (
            counts.get("nids.sessions", 0.0) / scan_s if scan_s > 0 else 0.0
        )
        prefiltered = counts.get("nids.prefiltered", 0.0)
        metrics["nids.prefilter_hit_ratio"] = (
            counts.get("nids.prefilter_hits", 0.0) / prefiltered if prefiltered else 0.0
        )
        nominated = counts.get("nids.nominated", 0.0)
        metrics["nids.eval_ratio"] = (
            counts.get("nids.evaluated", 0.0) / nominated if nominated else 0.0
        )
        metrics["trace.unattributed_s"] = wall_seconds - sum(self.self_seconds.values())
        return metrics
