"""Crash-recovery checkpoints for in-flight pipeline work.

The study cache (:mod:`repro.cache.study`) persists *finished* runs; this
module persists *partial* ones.  A long run that dies mid-way — an OOM
kill, a machine reboot, a ctrl-C — leaves behind per-stage checkpoints
keyed by the same content hash as the study cache, so the next invocation
of the same configuration recomputes only what is missing.

Layout and protocol:

* blobs live under ``<cache root>/checkpoints/<key>/<name>.frame`` — one
  :mod:`repro.store.frame` per blob, published with an atomic
  ``os.replace`` from a ``.tmp<pid>`` sibling, so a blob is either absent
  or complete (the same staging/publish discipline as the study cache,
  collapsed to one file);
* every blob's frame header carries :data:`CHECKPOINT_SCHEMA` and a
  BLAKE2b digest of the header and column bytes —
  :meth:`CheckpointStore.load` re-derives it and treats any mismatch (bit
  rot, truncation, schema drift), or a frame its decoder rejects, as a
  miss, deleting the corrupt blob so the recompute can republish;
* checkpoints are *recovery state, not a cache*: the pipeline deletes a
  key's directory the moment the run it protected completes (its results
  then live in the study cache), and :meth:`CheckpointStore.gc` reaps
  directories that outlive ``max_age`` plus orphaned staging files.

The stage codecs at the bottom translate the pipeline's heavy intermediates
(arrival stream, session store + collection stats, alert list) to and from
frames with the same record codecs the study cache writes, so the two
stores can never disagree about on-disk semantics.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import time
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.obs import active_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.frame import Frame

#: Bump when the blob layout changes.  2: blobs are frames (schema-1
#: envelopes are never read).
CHECKPOINT_SCHEMA = 2

_SUFFIX = ".frame"
_STAGING_RE = re.compile(r"\.tmp\d+$")

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
    """Atomic, digest-verified blob store for partial pipeline results."""

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

    @property
    def checkpoint_root(self) -> Path:
        return self.root / "checkpoints"

    def dir_for(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid checkpoint key: {key!r}")
        return self.checkpoint_root / key

    def _blob_path(self, key: str, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid checkpoint blob name: {name!r}")
        return self.dir_for(key) / f"{name}{_SUFFIX}"

    # -- blob lifecycle ------------------------------------------------------

    def save(self, key: str, name: str, frame: "Frame") -> Path:
        """Persist one blob atomically; returns its path.

        The frame is staged in a ``.tmp<pid>`` sibling and published with
        one ``os.replace``, so a reader can never observe a torn blob —
        only the previous one or the new one.  Traced as
        ``checkpoint.save`` under the active span.
        """
        from repro.store.frame import write_frame

        path = self._blob_path(key, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        with active_span("checkpoint.save", blob=name):
            written = write_frame(frame, path, schema=CHECKPOINT_SCHEMA)
        self._count("saves")
        self._count("bytes_written", written)
        return path

    def load(
        self,
        key: str,
        name: str,
        decode: Optional[Callable[["Frame"], T]] = None,
    ) -> Optional[Union["Frame", T]]:
        """The blob's frame — or ``decode(frame)`` — or None.

        A missing blob is a plain miss; an unreadable frame, a schema or
        digest mismatch, or a frame ``decode`` rejects with ``ValueError``
        counts an integrity failure, deletes the blob, and is reported as a
        miss so the caller recomputes.  Traced as ``checkpoint.load`` under
        the active span.
        """
        with active_span("checkpoint.load", blob=name) as span:
            value = self._load(key, name, decode)
            if span is not None:
                span.set("hit", value is not None)
        return value

    def _load(self, key: str, name: str, decode):
        from repro.store.frame import load_frame

        path = self._blob_path(key, name)
        try:
            raw_size = path.stat().st_size
            frame = load_frame(path, schema=CHECKPOINT_SCHEMA)
            value = decode(frame) if decode is not None else frame
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError):
            self._invalidate(path)
            return None
        self._count("hits")
        self._count("bytes_read", raw_size)
        return value

    def _invalidate(self, path: Path) -> None:
        self._count("integrity_failures")
        self._count("misses")
        path.unlink(missing_ok=True)

    def has(self, key: str, name: str) -> bool:
        return self._blob_path(key, name).exists()

    def names(self, key: str) -> List[str]:
        """Blob names present under a key (sorted; staging files excluded)."""
        directory = self.dir_for(key)
        if not directory.is_dir():
            return []
        return sorted(
            child.name[: -len(_SUFFIX)]
            for child in directory.iterdir()
            if child.name.endswith(_SUFFIX)
            and not _STAGING_RE.search(child.name)
        )

    def delete(self, key: str) -> bool:
        """Drop one key's entire checkpoint directory; True if it existed."""
        directory = self.dir_for(key)
        existed = directory.exists()
        if existed:
            shutil.rmtree(directory, ignore_errors=True)
            self._count("deletes")
        return existed

    # -- population / lifecycle ---------------------------------------------

    def keys(self) -> List[str]:
        if not self.checkpoint_root.is_dir():
            return []
        return sorted(
            child.name
            for child in self.checkpoint_root.iterdir()
            if child.is_dir()
        )

    def _key_info(self, key: str) -> Dict[str, object]:
        directory = self.checkpoint_root / key
        blobs = 0
        total = 0
        newest = 0.0
        for child in directory.iterdir():
            if not child.is_file() or _STAGING_RE.search(child.name):
                continue
            blobs += 1
            try:
                stat = child.stat()
            except OSError:  # pragma: no cover - racing deletion
                continue
            total += stat.st_size
            newest = max(newest, stat.st_mtime)
        return {
            "key": key,
            "blobs": blobs,
            "bytes": total,
            "newest": newest,
        }

    def stats(self) -> Dict[str, object]:
        """Snapshot of the on-disk population plus this instance's counters."""
        keys = [self._key_info(key) for key in self.keys()]
        return {
            "root": str(self.root),
            "keys": keys,
            "key_count": len(keys),
            "total_bytes": sum(int(info["bytes"]) for info in keys),
            "telemetry": self.telemetry.as_dict(),
        }

    def gc(
        self,
        *,
        max_age: Optional[timedelta] = None,
        now: Optional[float] = None,
    ) -> int:
        """Remove stale checkpoint state; returns directories removed.

        Always deletes orphaned ``.tmp<pid>`` staging files; with
        ``max_age``, additionally removes key directories whose newest blob
        is older than the bound (an abandoned run nobody resumed).
        """
        if not self.checkpoint_root.is_dir():
            return 0
        now = time.time() if now is None else now
        removed = 0
        for key in self.keys():
            directory = self.checkpoint_root / key
            for child in directory.iterdir():
                if child.is_file() and _STAGING_RE.search(child.name):
                    child.unlink(missing_ok=True)
            info = self._key_info(key)
            empty = info["blobs"] == 0
            expired = (
                max_age is not None
                and now - float(info["newest"]) > max_age.total_seconds()
            )
            if empty or expired:
                shutil.rmtree(directory, ignore_errors=True)
                self._count("deletes")
                removed += 1
        return removed

    def clear(self) -> int:
        """Drop every checkpoint directory; returns how many were removed."""
        keys = self.keys()
        for key in keys:
            shutil.rmtree(self.checkpoint_root / key, ignore_errors=True)
        self._count("deletes", len(keys))
        return len(keys)


# -- pipeline stage codecs ---------------------------------------------------
#
# The heavy stages checkpoint their outputs as frames through the same
# record codecs the study cache writes, so a stage checkpoint and a
# published cache entry are byte-compatible views of the same records.


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
