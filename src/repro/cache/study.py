"""On-disk cache of a study run's heavy intermediates.

The pipeline's expensive stages — traffic generation, telescope capture,
and the NIDS scan — are pure functions of the :class:`StudyConfig` and the
code that implements them.  :class:`StudyCache` persists their outputs
(arrival stream, session store, alert list, collection statistics, ground
truth) under a content-addressed directory, so any process — the CLI, the
benchmark harness, the test suite — can reuse a study another process
already computed.

Keying and invalidation:

* the key digests every *semantic* config field (seed, scales, counts,
  delays) — execution knobs like ``workers`` are excluded, because they
  cannot change the result;
* the key also folds in :func:`repro.cache.fingerprint.code_fingerprint`,
  a digest of the stage modules' source bytes, so editing pipeline code
  invalidates every prior entry without version bookkeeping.

Durability (the publish/verify/GC protocol):

* entries are staged in a ``<key>.tmp<pid>`` sibling directory and
  published with one atomic ``os.replace``; ``meta.json`` is written last
  inside the staging dir, so a published entry is complete by construction;
* the data files are :mod:`repro.store.frame` frames — ``arrivals.frame``,
  ``store.frame`` (sessions, collection statistics, ground truth) and
  ``alerts.frame``, staged by the run as each stage finishes
  (:mod:`repro.cache.checkpoint`);
* ``meta.json`` records each file's byte size and header digest and each
  stream's record count; :meth:`StudyCache.load` checks the sizes, reads
  every frame once against its recorded digest, and evicts on any mismatch;
* a published entry may also hold the study's serve shard
  (``shard.frame``, :mod:`repro.store.shard`); it is not in the manifest,
  and every eviction, ``gc`` and ``clear`` removes it with its entry;
* when the publishing rename fails because a directory already occupies the
  slot, the occupant is verified: a *complete* entry means a concurrent
  writer won an equivalent race (benign — the staging dir is dropped), while
  a *torn* one (crash debris, partial eviction, hand-deleted ``meta.json``)
  is evicted and the rename retried, bounded times — a torn entry can never
  permanently block its key;
* :meth:`StudyCache.gc` removes orphaned staging dirs and torn entries and
  applies optional age/size bounds (see :mod:`repro.cache.gc`);
* every hit, miss, eviction, verification failure, publish conflict, and
  byte moved is counted on :attr:`StudyCache.telemetry`.

The default root is ``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``
or the ``root=`` argument; ``XDG_CACHE_HOME`` is honoured).  The ``repro
cache`` CLI (``stats`` / ``verify`` / ``gc`` / ``clear``) operates on the
same layout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.cache.fingerprint import code_fingerprint
from repro.cache.gc import (
    GcReport,
    ManifestGcReport,
    STAGING_GRACE_SECONDS,
    collect_garbage,
    collect_manifest_garbage,
    dir_bytes,
    pid_alive,
    staging_owner,
)
from repro.cache.integrity import (
    DATA_FILES,
    EntryReport,
    read_stage,
    verify_entry,
)
from repro.net.pcapstore import SessionStore
from repro.nids.ruleset import Alert
from repro.obs import active_span
from repro.telescope.collector import CollectionStats
from repro.traffic.arrivals import ScanArrival

#: Bump when the entry protocol changes (not when pipeline code does — the
#: code fingerprint covers that).  2: per-file checksums and record counts
#: in ``meta.json``.  The schema is folded into every study key, and the
#: key is also the serving ETag, so a change of data-file layout alone does
#: not bump it: the manifest names the files, and an entry whose manifest
#: lacks any of :data:`~repro.cache.integrity.DATA_FILES` (an entry of an
#: older layout) fails verification and is evicted like a torn one.
CACHE_SCHEMA = 2

#: How many times :meth:`StudyCache.save` will evict a stale occupant and
#: retry the publishing rename before giving the save up.
PUBLISH_ATTEMPTS = 4

#: Config fields that select *how* a study runs, not *what* it computes;
#: they are excluded from the cache key so e.g. ``workers=1`` and
#: ``workers=8`` share an entry.  ``feed_dir`` names *where* feed
#: snapshots live; the snapshots' *content* reaches the key through the
#: resolved scenario fingerprint, so moving files never re-keys but
#: editing them always does.
EXECUTION_FIELDS = frozenset({"workers", "feed_dir"})


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


def staging_dir(entry: Path) -> Path:
    """This process's ``<key>.tmp<pid>`` staging directory for an entry."""
    return entry.with_name(f"{entry.name}.tmp{os.getpid()}")


def _scenario_token(config) -> Optional[str]:
    """The scenario's contribution to the cache key, or None for none.

    The token is the resolved scenario's fingerprint (component refs +
    params + dataset content hashes) — but only when it *differs* from the
    paper-default composition resolved under the same config.  Params-only
    scenarios (``quick``, ``standard``, ``full``) therefore share entries
    with equivalent hand-built configs, and ``from_scenario
    ("paper-default")`` keys identically to a plain default config.
    """
    name = getattr(config, "scenario", None)
    if name is None:
        return None
    from repro.scenarios import resolve

    resolved = resolve(name, config)
    baseline = resolve("paper-default", config)
    if resolved.fingerprint == baseline.fingerprint:
        return None
    return resolved.fingerprint


def semantic_config(config) -> Dict[str, object]:
    """The key-relevant view of a (dataclass) study config."""
    semantic: Dict[str, object] = {}
    for field in dataclasses.fields(config):
        if field.name in EXECUTION_FIELDS:
            continue
        if field.name == "scenario":
            token = _scenario_token(config)
            if token is not None:
                semantic["scenario"] = token
            continue
        value = getattr(config, field.name)
        if isinstance(value, timedelta):
            value = value.total_seconds()
        semantic[field.name] = value
    return semantic


def study_key(config) -> str:
    """Content hash identifying one study's intermediates."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "code": code_fingerprint(),
            "config": semantic_config(config),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


# -- the cache itself -------------------------------------------------------


@dataclass
class CachedStudy:
    """One cache entry, loaded (arrivals stay on disk until asked for)."""

    path: Path
    meta: dict
    store: SessionStore
    alerts: List[Alert]
    collection_stats: CollectionStats
    ground_truth: Dict[int, Optional[str]]

    def load_arrivals(self) -> List[ScanArrival]:
        """The cached arrival stream (lazy: rarely needed downstream)."""
        from repro.store.frame import arrivals_from_frame

        return arrivals_from_frame(read_stage(self.path, self.meta, "arrivals"))


@dataclass
class CacheTelemetry:
    """Counters for one :class:`StudyCache` instance's lifetime.

    ``publish_conflicts`` counts benign races (a complete concurrent entry
    won); ``blocked_slot_evictions`` counts the bug class this subsystem
    exists to prevent — a stale or torn directory squatting on a key and
    evicted so the save could publish.
    """

    hits: int = 0
    misses: int = 0
    saves: int = 0
    evictions: int = 0
    integrity_failures: int = 0
    publish_conflicts: int = 0
    blocked_slot_evictions: int = 0
    publish_failures: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class StudyCache:
    """Content-addressed store for study intermediates."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.telemetry = CacheTelemetry()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a telemetry counter, mirrored into the process metrics.

        The dataclass stays the per-instance API; the process-wide registry
        (``cache.<name>``) aggregates across every cache instance so run
        manifests and ``repro metrics`` see cache behaviour in one place.
        """
        setattr(self.telemetry, name, getattr(self.telemetry, name) + amount)
        from repro.obs import get_registry

        get_registry().inc(f"cache.{name}", amount)

    @property
    def study_root(self) -> Path:
        return self.root / "study"

    def key(self, config) -> str:
        return study_key(config)

    def entry_path(self, config) -> Path:
        return self.study_root / self.key(config)

    def _evict_dir(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self._count("evictions")

    def load(self, config) -> Optional[CachedStudy]:
        """The cached entry for a config, or None.

        Missing, torn, and checksum-failing entries all count as misses;
        anything unusable occupying the slot is evicted so the recompute's
        :meth:`save` can publish.  Traced as ``cache.load`` under the
        active span (:func:`repro.obs.active_span`).
        """
        with active_span("cache.load") as span:
            cached = self._load(config)
            if span is not None:
                span.set("hit", cached is not None)
        return cached

    def _load(self, config) -> Optional[CachedStudy]:
        from repro.cache.checkpoint import decode_stage_alerts, decode_stage_store

        path = self.entry_path(config)
        if not path.exists():
            self._count("misses")
            return None
        # Sizes and manifest first; then every frame is read once, its
        # digest re-derived and compared with the one meta.json records.
        report = verify_entry(path, deep=False, expect_schema=CACHE_SCHEMA)
        meta = report.meta
        try:
            if not report.ok:
                raise ValueError("; ".join(report.problems))
            read_stage(path, meta, "arrivals")  # decoded only on demand
            store, stats, ground_truth = decode_stage_store(
                read_stage(path, meta, "store")
            )
            alerts = decode_stage_alerts(read_stage(path, meta, "alerts"))
            records = meta.get("records", {})
            if (
                len(store) != records.get("sessions")
                or len(alerts) != records.get("alerts")
            ):
                raise ValueError("record counts disagree with meta.json")
        except (OSError, ValueError):
            # Torn or corrupt: evict rather than leave it blocking the key.
            self._count("integrity_failures")
            self._count("misses")
            self._evict_dir(path)
            return None
        self._count("hits")
        self._count("bytes_read", report.bytes)
        return CachedStudy(
            path=path,
            meta=meta,
            store=store,
            alerts=alerts,
            collection_stats=stats,
            ground_truth=ground_truth,
        )

    def _publish(self, staging: Path, path: Path) -> bool:
        """Atomically move a staged entry into place; True if we published.

        A failed rename means *something* occupies the slot.  A complete
        entry there is a concurrent writer's equivalent result — benign
        loss, drop the staging dir.  Anything else (torn directory, debris)
        is evicted and the rename retried, at most :data:`PUBLISH_ATTEMPTS`
        times, so stale state can never permanently block the key.
        """
        for _ in range(PUBLISH_ATTEMPTS):
            try:
                os.replace(staging, path)
                return True
            except OSError:
                if verify_entry(path, deep=False, expect_schema=CACHE_SCHEMA).ok:
                    self._count("publish_conflicts")
                    shutil.rmtree(staging, ignore_errors=True)
                    return False
                self._count("blocked_slot_evictions")
                self._evict_dir(path)
        # Pathological contention: give the save up rather than spin.
        self._count("publish_failures")
        shutil.rmtree(staging, ignore_errors=True)
        return False

    def save(
        self,
        config,
        *,
        arrivals: List[ScanArrival],
        store: SessionStore,
        alerts: List[Alert],
        collection_stats: CollectionStats,
        ground_truth: Dict[int, Optional[str]],
    ) -> Path:
        """Persist one study's intermediates; returns the entry path.

        Writes only the data files the run's stage checkpoints have not
        already staged, and leaves them in place if it raises.
        Best-effort by design: after the publish protocol exhausts its
        retries (possible only under pathological contention) the save is
        dropped and counted in ``telemetry.publish_failures`` — a cache
        save must never fail an otherwise-successful study run.  Traced as
        ``cache.save`` under the active span.
        """
        from repro.store.frame import (
            alerts_frame,
            arrivals_frame,
            frame_digest,
            store_frame,
            write_frame,
        )

        encoders = {
            "arrivals.frame": lambda: arrivals_frame(arrivals),
            "store.frame": lambda: store_frame(
                list(store), collection_stats, ground_truth
            ),
            "alerts.frame": lambda: alerts_frame(alerts),
        }
        with active_span("cache.save"):
            path = self.entry_path(config)
            staging = staging_dir(path)
            staging.mkdir(parents=True, exist_ok=True)
            files = {}
            for name in DATA_FILES:
                target = staging / name
                try:
                    digest = frame_digest(target)
                except (OSError, ValueError):  # not staged (or unreadable)
                    written = write_frame(encoders[name](), target, schema=CACHE_SCHEMA)
                    self._count("bytes_written", written)
                    digest = frame_digest(target)
                files[name] = {"bytes": target.stat().st_size, "digest": digest}
            meta = {
                "schema": CACHE_SCHEMA,
                "key": path.name,
                "code": code_fingerprint(),
                "created": time.time(),
                "config": {
                    name: str(value)
                    for name, value in semantic_config(config).items()
                },
                "records": {
                    "arrivals": len(arrivals),
                    "sessions": len(store),
                    "alerts": len(alerts),
                },
                "files": files,
            }
            # meta.json written last: its presence marks the entry complete.
            (staging / "meta.json").write_text(
                json.dumps(meta, indent=2) + "\n", encoding="utf-8"
            )
            self._publish(staging, path)
            self._count("saves")
            return path

    # -- lifecycle / inspection --------------------------------------------

    def entries(self) -> List[Path]:
        """Entry directories (published or torn; staging dirs excluded)."""
        if not self.study_root.is_dir():
            return []
        return sorted(
            path
            for path in self.study_root.iterdir()
            if path.is_dir() and ".tmp" not in path.name
        )

    def staging_dirs(self) -> List[Path]:
        """``<key>.tmp<pid>`` staging directories: in-flight or killed runs."""
        if not self.study_root.is_dir():
            return []
        return sorted(
            path
            for path in self.study_root.iterdir()
            if path.is_dir() and ".tmp" in path.name
        )

    def verify(self, *, deep: bool = True) -> List[EntryReport]:
        """Verify every entry against its manifest (no eviction)."""
        return [
            verify_entry(path, deep=deep, expect_schema=CACHE_SCHEMA)
            for path in self.entries()
        ]

    def gc(
        self,
        *,
        max_age: Optional[timedelta] = None,
        max_bytes: Optional[int] = None,
        staging_grace: float = STAGING_GRACE_SECONDS,
    ) -> GcReport:
        """Collect garbage (see :func:`repro.cache.gc.collect_garbage`)."""
        report = collect_garbage(
            self.study_root,
            max_age=max_age,
            max_bytes=max_bytes,
            staging_grace=staging_grace,
        )
        self._count("evictions", report.entries_removed)
        return report

    def gc_manifests(
        self,
        *,
        max_age: Optional[timedelta] = None,
        max_count: Optional[int] = None,
        staging_grace: float = STAGING_GRACE_SECONDS,
    ) -> ManifestGcReport:
        """Bound the rolling ``watch-*`` manifests under this cache root
        (see :func:`repro.cache.gc.collect_manifest_garbage`)."""
        from repro.obs import manifests_root

        return collect_manifest_garbage(
            manifests_root(self.root),
            max_age=max_age,
            max_count=max_count,
            staging_grace=staging_grace,
        )

    def stats(self) -> Dict[str, object]:
        """Snapshot of the on-disk population plus this instance's counters."""
        entries = []
        total_bytes = 0
        for path in self.entries():
            report = verify_entry(path, deep=False, expect_schema=CACHE_SCHEMA)
            meta = report.meta or {}
            size = dir_bytes(path)  # the data frames, meta.json and shard
            total_bytes += size
            entries.append(
                {
                    "key": path.name,
                    "complete": report.ok,
                    "bytes": size,
                    "created": meta.get("created"),
                    "records": meta.get("records", {}),
                    "config": meta.get("config", {}),
                }
            )
        staging = []
        for path in self.staging_dirs():
            owner = staging_owner(path)
            staging.append(
                {
                    "key": owner[0] if owner else path.name,
                    "stages": sorted(frame.stem for frame in path.glob("*.frame")),
                    "bytes": dir_bytes(path),
                    "owner_alive": bool(owner) and pid_alive(owner[1]),
                }
            )
        return {
            "root": str(self.root),
            "entries": entries,
            "entry_count": len(entries),
            "staging": staging,
            "staging_count": len(staging),
            "total_bytes": total_bytes,
            "telemetry": self.telemetry.as_dict(),
        }

    def clear(self) -> int:
        """Drop every study entry and staged run; returns how many
        directories were removed."""
        if not self.study_root.exists():
            return 0
        entries = [p for p in self.study_root.iterdir() if p.is_dir()]
        for entry in entries:
            shutil.rmtree(entry, ignore_errors=True)
        self._count("evictions", len(entries))
        return len(entries)
