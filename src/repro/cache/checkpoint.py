"""Stage checkpoints: a view over the study cache entry's staging directory.

A cold cached run writes each heavy stage (``arrivals``, ``store``,
``alerts``) once, as ``<name>.frame`` under :data:`CACHE_SCHEMA`, straight
into ``<cache root>/study/<key>.tmp<pid>`` — the directory
:meth:`StudyCache.save <repro.cache.study.StudyCache.save>` adds
``meta.json`` to and publishes by rename.  A run killed mid-way leaves
exactly the stages it finished there.  A load reads a stage with its
expected kind and column dtypes; any unreadable or mismatched frame, or
one the caller's decoder rejects, is an integrity failure, deleted, and a
miss.  While this process has no staging directory for a key, a load first
adopts one whose owner pid is dead (one ``os.replace``; losing that race
is a plain miss).  ``delete`` drops this process's staging directory for a
key and any dead-owner ones; whatever else is left is
:func:`repro.cache.gc.collect_garbage`'s to reap.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.cache.gc import pid_alive, staging_owner
from repro.obs import active_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.frame import Frame

T = TypeVar("T")


@dataclass
class CheckpointTelemetry:
    """Counters for one :class:`CheckpointStore` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    saves: int = 0
    integrity_failures: int = 0
    deletes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class CheckpointStore:
    """The heavy stages of one in-flight study, staged where its cache
    entry will be published."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        from repro.cache.study import default_cache_root

        self.root = Path(root).expanduser() if root else default_cache_root()
        self.telemetry = CheckpointTelemetry()

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a telemetry counter, mirrored into the process metrics
        registry as ``checkpoint.<name>`` (see ``StudyCache._count``)."""
        setattr(self.telemetry, name, getattr(self.telemetry, name) + amount)
        from repro.obs import get_registry

        get_registry().inc(f"checkpoint.{name}", amount)

    def dir_for(self, key: str) -> Path:
        """This process's staging directory for ``key``."""
        from repro.cache.study import staging_dir

        if not key or "/" in key or key.startswith(".") or ".tmp" in key:
            raise ValueError(f"invalid checkpoint key: {key!r}")
        return staging_dir(self.root / "study" / key)

    def _stage_path(self, key: str, name: str) -> Path:
        from repro.store.frame import STAGE_DTYPES

        if name not in STAGE_DTYPES:
            raise ValueError(f"invalid checkpoint stage name: {name!r}")
        return self.dir_for(key) / f"{name}.frame"

    def _dead_owned(self, key: str) -> List[Path]:
        """Staging directories of ``key`` whose owner pid is dead."""
        paths = sorted((self.root / "study").glob(f"{key}.tmp*"))
        owners = ((path, staging_owner(path)) for path in paths)
        return [path for path, owner in owners if owner and not pid_alive(owner[1])]

    # -- stage lifecycle -----------------------------------------------------

    def save(self, key: str, name: str, frame: "Frame") -> Path:
        """Stage one frame atomically; returns its path.

        Traced as ``checkpoint.save`` under the active span.
        """
        from repro.cache.study import CACHE_SCHEMA
        from repro.store.frame import write_frame

        path = self._stage_path(key, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with active_span("checkpoint.save", blob=name):
            written = write_frame(frame, path, schema=CACHE_SCHEMA)
        self._count("saves")
        self._count("bytes_written", written)
        return path

    def load(
        self,
        key: str,
        name: str,
        decode: Optional[Callable[["Frame"], T]] = None,
    ) -> Optional[Union["Frame", T]]:
        """The stage's frame — or ``decode(frame)`` — or None.

        Traced as ``checkpoint.load`` under the active span.
        """
        with active_span("checkpoint.load", blob=name) as span:
            value = self._load(key, name, decode)
            if span is not None:
                span.set("hit", value is not None)
        return value

    def _load(self, key: str, name: str, decode):
        from repro.cache.study import CACHE_SCHEMA
        from repro.store.frame import STAGE_DTYPES, read_frame

        path = self._stage_path(key, name)
        if not path.parent.exists():
            for orphan in self._dead_owned(key)[:1]:
                try:
                    os.replace(orphan, path.parent)
                except OSError:
                    pass  # another process adopted it first: a plain miss
        try:
            data = path.read_bytes()
            frame = read_frame(
                data, schema=CACHE_SCHEMA, kind=name, dtypes=STAGE_DTYPES[name]
            )
            value = decode(frame) if decode is not None else frame
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError):
            self._count("integrity_failures")
            self._count("misses")
            path.unlink(missing_ok=True)
            return None
        self._count("hits")
        self._count("bytes_read", len(data))
        return value

    def delete(self, key: str) -> bool:
        """Drop this process's staging directory for ``key`` and any
        dead-owner ones; True if anything was removed."""
        removed = False
        for directory in (self.dir_for(key), *self._dead_owned(key)):
            if directory.exists():
                shutil.rmtree(directory, ignore_errors=True)
                removed = True
        if removed:
            self._count("deletes")
        return removed


# -- pipeline stage codecs ---------------------------------------------------
#
# The heavy stages are staged through the same record codecs the study
# cache writes, so a staged stage *is* the entry's data file.


def encode_stage_arrivals(arrivals) -> "Frame":
    from repro.store.frame import arrivals_frame

    return arrivals_frame(arrivals)


def decode_stage_arrivals(frame: "Frame") -> List["ScanArrival"]:
    from repro.store.frame import arrivals_from_frame

    return arrivals_from_frame(frame)


def encode_stage_store(store, collection_stats, ground_truth) -> "Frame":
    from repro.store.frame import store_frame

    return store_frame(list(store), collection_stats, ground_truth)


def decode_stage_store(
    frame: "Frame",
) -> Tuple["SessionStore", "CollectionStats", Dict[int, Optional[str]]]:
    from repro.net.pcapstore import SessionStore
    from repro.store.frame import store_from_frame

    sessions, stats, ground_truth = store_from_frame(frame)
    store = SessionStore()
    store.extend(sessions)
    return store, stats, ground_truth


def encode_stage_alerts(alerts) -> "Frame":
    from repro.store.frame import alerts_frame

    return alerts_frame(alerts)


def decode_stage_alerts(frame: "Frame") -> List["Alert"]:
    from repro.store.frame import alerts_from_frame

    return alerts_from_frame(frame)
