"""The run manifest: one auditable JSON record per ``run_study`` call.

Measurement pipelines earn trust by being able to say, after the fact,
exactly what a run computed, from which configuration and code, and where
its time went.  A :class:`RunManifest` is that statement, in four sections:

* ``study`` — the *identity* of the computation: content key, code
  fingerprint, and the semantic configuration (the same fields the study
  cache keys on).  Two runs of the same study agree here byte-for-byte no
  matter how they executed.
* ``outcome`` — what was computed: record counts (sessions, alerts,
  events, kept CVEs) and the cache/checkpoint verdicts.  Also execution-
  independent: a serial and a ``workers=4`` run must agree exactly.
* ``execution`` — *how* this particular run happened: worker count,
  cache/checkpoint provenance per stage, recovery counters, wall/cpu
  seconds, and the optional ``REPRO_PROFILE`` stats.  Expected to differ
  between runs.
* ``spans`` / ``metrics`` — the trace tree and the metrics snapshot for
  this run (both timing-bearing, so also execution-varying).

Manifests are written atomically (``.tmp<pid>`` + ``os.replace``) under
``<cache root>/manifests/<study key>.json``, next to the study cache entry
they describe, and render via ``repro trace`` / ``repro metrics``.
:func:`validate_manifest` is the dependency-free schema check CI runs
against every freshly emitted manifest.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Bump when the manifest document layout changes.
MANIFEST_SCHEMA = 1

#: Required top-level keys and the type each must carry.
_TOP_LEVEL: Dict[str, type] = {
    "schema": int,
    "run": dict,
    "study": dict,
    "outcome": dict,
    "execution": dict,
    "spans": list,
    "metrics": dict,
}

_STUDY_KEYS = ("key", "code", "config")
_OUTCOME_KEYS = ("sessions", "alerts", "events", "kept_cves")
_EXECUTION_KEYS = ("workers", "from_cache", "checkpoint_stages")
_METRICS_KEYS = ("counters", "gauges", "histograms")


@dataclass
class RunManifest:
    """One run's self-description (see the module docstring for sections)."""

    study: Dict[str, object]
    outcome: Dict[str, object]
    execution: Dict[str, object]
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA
    run: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.run:
            self.run = {
                "created": time.time(),
                "pid": os.getpid(),
                "python": sys.version.split()[0],
            }

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "run": self.run,
            "study": self.study,
            "outcome": self.outcome,
            "execution": self.execution,
            "spans": self.spans,
            "metrics": self.metrics,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Atomically persist the manifest; returns the final path.

        Staged as a ``.tmp<pid>`` sibling and published with one
        ``os.replace``, so a reader can only ever observe a complete
        document (the same discipline as the study cache).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            staging.write_text(
                json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            os.replace(staging, path)
        except BaseException:
            staging.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "RunManifest":
        problems = validate_manifest(record)
        if problems:
            raise ValueError(
                "invalid run manifest: " + "; ".join(problems)
            )
        return cls(
            schema=record["schema"],  # type: ignore[arg-type]
            run=record["run"],  # type: ignore[arg-type]
            study=record["study"],  # type: ignore[arg-type]
            outcome=record["outcome"],  # type: ignore[arg-type]
            execution=record["execution"],  # type: ignore[arg-type]
            spans=record["spans"],  # type: ignore[arg-type]
            metrics=record["metrics"],  # type: ignore[arg-type]
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read and validate a manifest file.

        Raises ``OSError`` when the file cannot be read and ``ValueError``
        (naming the problem on one line) when it is not a valid manifest.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except UnicodeDecodeError as error:
            raise ValueError(f"not UTF-8 text ({error.reason})") from None
        except json.JSONDecodeError as error:
            raise ValueError(f"not valid JSON: {error}") from None
        except RecursionError:
            raise ValueError("not valid JSON: nested too deeply") from None
        return cls.from_dict(document)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_spans(spans: List[object], problems: List[str]) -> None:
    # An explicit stack, so a deeply nested document is reported, not a
    # RecursionError.
    stack = [(f"spans[{index}]", span) for index, span in enumerate(spans)]
    stack.reverse()
    while stack:
        path, record = stack.pop()
        if not isinstance(record, dict):
            problems.append(f"{path}: span is not an object")
            continue
        if not isinstance(record.get("name"), str):
            problems.append(f"{path}: span missing string 'name'")
        for key in ("started", "duration"):
            if not _is_number(record.get(key)):
                problems.append(f"{path}: span missing numeric {key!r}")
        if record.get("status") not in ("ok", "error"):
            problems.append(f"{path}: span status must be 'ok' or 'error'")
        if record.get("attributes") is not None and not isinstance(
            record["attributes"], dict
        ):
            problems.append(f"{path}: span 'attributes' is not an object")
        children = record.get("children")
        if children is None:
            continue
        if not isinstance(children, list):
            problems.append(f"{path}: span 'children' is not a list")
            continue
        stack.extend(
            (f"{path}.children[{index}]", child)
            for index, child in reversed(list(enumerate(children)))
        )


def _validate_metrics(metrics: Dict[str, object], problems: List[str]) -> None:
    for name, value in metrics["counters"].items():  # type: ignore[union-attr]
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"metrics counters[{name!r}] is not an integer")
    for name, value in metrics["gauges"].items():  # type: ignore[union-attr]
        if not _is_number(value):
            problems.append(f"metrics gauges[{name!r}] is not a number")
    for name, record in metrics["histograms"].items():  # type: ignore[union-attr]
        if not isinstance(record, dict) or not all(
            record.get(key) is None or _is_number(record[key])
            for key in ("count", "sum", "min", "max")
        ):
            problems.append(
                f"metrics histograms[{name!r}] is not an object of numbers"
            )


def validate_manifest(record: object) -> List[str]:
    """Structural problems with a manifest document ([] = valid).

    Dependency-free on purpose: CI validates every emitted manifest with
    this exact function, and ``RunManifest.load`` refuses documents it
    flags.  It never raises: every defect, however the document is
    malformed, comes back as one problem string.
    """
    problems: List[str] = []
    if not isinstance(record, dict):
        return ["manifest is not a JSON object"]
    for key, expected in _TOP_LEVEL.items():
        value = record.get(key)
        if not isinstance(value, expected) or isinstance(value, bool):
            problems.append(f"missing or mistyped top-level {key!r}")
    if problems:
        return problems
    if record["schema"] != MANIFEST_SCHEMA:
        problems.append(
            f"schema {record['schema']!r} != supported {MANIFEST_SCHEMA}"
        )
    for key in _STUDY_KEYS:
        if key not in record["study"]:
            problems.append(f"study section missing {key!r}")
    for key in _OUTCOME_KEYS:
        value = record["outcome"].get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"outcome section missing integer {key!r}")
    for key in _EXECUTION_KEYS:
        if key not in record["execution"]:
            problems.append(f"execution section missing {key!r}")
    metrics_ok = True
    for key in _METRICS_KEYS:
        if not isinstance(record["metrics"].get(key), dict):
            problems.append(f"metrics section missing mapping {key!r}")
            metrics_ok = False
    if metrics_ok:
        _validate_metrics(record["metrics"], problems)
    _validate_spans(record["spans"], problems)
    return problems


def manifests_root(cache_root: Union[str, Path]) -> Path:
    """Where a cache root keeps its manifests."""
    return Path(cache_root) / "manifests"


def latest_manifest(
    cache_root: Union[str, Path], *, prefix: str = ""
) -> Optional[Path]:
    """The most recently written manifest under a cache root, if any.

    ``prefix`` narrows the search by filename — e.g. ``prefix="watch-"``
    picks out only the rolling per-window manifests a ``repro watch``
    daemon emits, ignoring batch run manifests sharing the directory.
    """
    root = manifests_root(cache_root)
    if not root.is_dir():
        return None
    candidates = [
        path
        for path in root.iterdir()
        if path.name.endswith(".json")
        and ".tmp" not in path.name
        and path.name.startswith(prefix)
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda path: path.stat().st_mtime)
