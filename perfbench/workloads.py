"""The benchmark's three workloads, each a set-up plus a repeated operation.

Every workload calls the program the way its users do: ``run_study``,
``run_experiment``, ``shard_for_config`` / ``StudyService`` and the
``nids`` parser, ruleset and engine, always with ``workers=1``.

* ``study-cold``: each operation runs the paper-default study into a
  fresh, empty cache root, as a user's first ``repro run`` does.
* ``study-warm``: set-up runs the same study once and builds its shard;
  each operation re-opens it (a cache hit), runs every registered
  experiment, re-opens the shard and answers seven queries from a fresh
  ``StudyService``.
* ``rules-rescan``: set-up captures one store and renders the synthetic
  Snort corpus as text; each operation parses the text into a fresh
  ruleset merged with the study ruleset, scans the store and derives the
  analysis.

An operation returns its raw outputs; :meth:`Workload.digests` turns them
into oracle digests outside the timed region.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

import oracle

#: The seven query targets of the serve benchmark: every query family and
#: two window variants.
QUERY_TARGETS: Tuple[str, ...] = (
    "/v1/skill",
    "/v1/lifecycle",
    "/v1/vendors",
    "/v1/kev",
    "/v1/describe",
    "/v1/windows?later=A&earlier=D",
    "/v1/windows?later=X&earlier=F",
)


def _query(target: str) -> Tuple[str, Dict[str, str]]:
    split = urlsplit(target)
    return split.path[len("/v1/"):], dict(parse_qsl(split.query))


def study_config(seed: int, volume_scale: float):
    """The paper-default study at ``volume_scale``, run serially."""
    from repro.analysis.pipeline import StudyConfig

    return StudyConfig(
        seed=seed,
        volume_scale=volume_scale,
        background_per_exploit=1.0,
        background_nvd_count=20000,
        workers=1,
    )


@dataclass
class State:
    """What set-up hands to the operations of one workload run."""

    seed: int
    root: Path
    config: Any
    #: Digests every operation must reproduce; filled by set-up, or by the
    #: first operation when set-up produces no outputs to compare with.
    reference: Dict[str, str] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One workload: its name, why it exists, and its run-length knobs."""

    name: str
    why: str
    volume_scale: float
    rule_count: int = 0

    def params(self) -> Dict[str, object]:
        return {"volume_scale": self.volume_scale, "rule_count": self.rule_count}

    def setup(self, seed: int, root: Path) -> State:
        raise NotImplementedError

    def operation(self, state: State) -> Any:
        raise NotImplementedError

    def digests(self, state: State, outputs: Any) -> Dict[str, str]:
        raise NotImplementedError

    def problems(self, state: State, outputs: Any) -> List[str]:
        """Reasons an otherwise successful operation still failed."""
        return []

    def after_operation(self, state: State) -> None:
        """Untimed clean-up after each operation."""


class StudyCold(Workload):
    def setup(self, seed: int, root: Path) -> State:
        from repro.analysis.pipeline import build_bundle
        from repro.scenarios import resolve

        config = study_config(seed, self.volume_scale)
        build_bundle(resolve("paper-default", config).plan)
        return State(seed=seed, root=root, config=config)

    @staticmethod
    def _cache_root(state: State) -> Path:
        return state.root / f"cold-{state.extra.get('runs', 0)}"

    def operation(self, state: State) -> Any:
        from repro.analysis.pipeline import run_study

        state.extra["runs"] = state.extra.get("runs", 0) + 1
        return run_study(state.config, cache=str(self._cache_root(state)))

    def digests(self, state: State, outputs: Any) -> Dict[str, str]:
        return oracle.study_digests(outputs)

    def after_operation(self, state: State) -> None:
        shutil.rmtree(self._cache_root(state), ignore_errors=True)

    def problems(self, state: State, outputs: Any) -> List[str]:
        return ["served from a cache"] if outputs.from_cache else []


def reopen_study(config, cache_root: Path):
    """Re-open a stored study: cache hit, experiments, shard and queries."""
    from repro import store
    from repro.analysis.pipeline import run_study
    from repro.experiments import EXPERIMENTS, registry

    result = run_study(config, cache=str(cache_root))
    outcomes = {name: registry.run_experiment(name, result) for name in EXPERIMENTS}
    shard, built = store.shard_for_config(config, cache_root=cache_root)
    service = store.StudyService(shard)
    bodies = {target: service.answer_bytes(*_query(target)) for target in QUERY_TARGETS}
    return result, outcomes, built, bodies


class StudyWarm(Workload):
    def setup(self, seed: int, root: Path) -> State:
        from repro import store
        from repro.analysis.pipeline import run_study
        from repro.experiments import EXPERIMENTS, registry

        config = study_config(seed, self.volume_scale)
        cold = run_study(config, cache=str(root))
        shard, built = store.shard_for_config(config, cache_root=root)
        if cold.from_cache or not built:
            raise RuntimeError("study-warm set-up found a populated cache root")
        reference = oracle.study_digests(cold)
        reference["experiments"] = oracle.experiment_digest(
            {name: registry.run_experiment(name, cold) for name in EXPERIMENTS}
        )
        service = store.StudyService(shard)
        reference["queries"] = oracle.query_digest(
            {target: service.answer_bytes(*_query(target)) for target in QUERY_TARGETS}
        )
        return State(seed=seed, root=root, config=config, reference=reference)

    def operation(self, state: State) -> Any:
        return reopen_study(state.config, state.root)

    def digests(self, state: State, outputs: Any) -> Dict[str, str]:
        result, outcomes, _, bodies = outputs
        digests = oracle.study_digests(result)
        digests["experiments"] = oracle.experiment_digest(outcomes)
        digests["queries"] = oracle.query_digest(bodies)
        return digests

    def problems(self, state: State, outputs: Any) -> List[str]:
        result, _, built, _ = outputs
        problems = []
        if not result.from_cache:
            problems.append("study not served from the cache")
        if built:
            problems.append("shard rebuilt")
        return problems


class RulesRescan(Workload):
    def setup(self, seed: int, root: Path) -> State:
        from repro.analysis.pipeline import build_bundle
        from repro.nids.scale import ScaleConfig, generate_scaled
        from repro.scenarios import resolve
        from repro.util.rng import derive_seed

        config = study_config(seed, self.volume_scale)
        resolved = resolve("paper-default", config)
        bundle = build_bundle(resolved.plan)
        arrivals = resolved.build_traffic(bundle.window).generate(workers=1)
        captured = resolved.build_collector(bundle.window).collect(arrivals)
        corpus = ScaleConfig(
            size=self.rule_count, seed=derive_seed(config.seed, "scaled-rules")
        )
        sound = [rule for rule in generate_scaled(corpus) if rule.fodder is None]
        return State(
            seed=seed,
            root=root,
            config=config,
            extra={
                "resolved": resolved,
                "bundle": bundle,
                "store": captured,
                "sessions_digest": oracle.digest(captured),
                "rule_text": "\n".join(rule.text for rule in sound) + "\n",
                "published": [rule.published for rule in sound],
            },
        )

    def operation(self, state: State) -> Any:
        from repro.analysis import pipeline
        from repro.nids import parser
        from repro.nids.engine import DetectionEngine

        extra = state.extra
        resolved = extra["resolved"]
        ruleset = resolved.build_ruleset()
        rules = parser.parse_rules(extra["rule_text"].splitlines())
        if len(rules) != len(extra["published"]):
            raise ValueError(
                f"parsed {len(rules)} rules from {len(extra['published'])} texts"
            )
        ruleset.extend(zip(rules, extra["published"]))
        alerts = DetectionEngine(ruleset, workers=1).scan(extra["store"])
        analysis = pipeline.derive_analysis(
            extra["bundle"], alerts, extra["store"], rca=resolved.build_rca
        )
        return alerts, analysis

    def digests(self, state: State, outputs: Any) -> Dict[str, str]:
        alerts, analysis = outputs
        digests = {"sessions": state.extra["sessions_digest"]}
        digests.update(
            oracle.analysis_digests(alerts, analysis.events_per_cve, analysis.timelines)
        )
        return digests


#: The workloads at their benchmark run lengths, by name.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        StudyCold(
            "study-cold",
            "first study run into an empty cache: traffic, telescope, scan and the storage write path",
            volume_scale=0.04,
        ),
        StudyWarm(
            "study-warm",
            "re-open a stored study: cache read, experiments, shard and queries; no traffic, telescope or scan",
            volume_scale=0.04,
        ),
        RulesRescan(
            "rules-rescan",
            "rescan a stored capture with a 10k-rule Snort text corpus: rule parse, build and scan",
            volume_scale=0.01,
            rule_count=10_000,
        ),
    )
}


def scaled(workload: Workload, volume_scale: float, rule_count: Optional[int] = None) -> Workload:
    """A copy of ``workload`` at another run length (self-test, tuning)."""
    return type(workload)(
        workload.name,
        workload.why,
        volume_scale=volume_scale,
        rule_count=workload.rule_count if rule_count is None else rule_count,
    )
