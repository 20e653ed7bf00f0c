"""A study's serve shard: one frame inside its study cache entry.

A shard is one :mod:`repro.store.frame` of kind ``"shard"``, written under
the study cache's ``CACHE_SCHEMA``: the study's identity in the header
``meta``, its CVE and category tables as the header's string tables, and
one column per :data:`COLUMN_DTYPES` entry.  :func:`load_shard` maps the
file once and wraps every column as a read-only ``np.frombuffer`` view
over the ``mmap`` — no column bytes are copied (the frame digest is
checked once at open, which reads each page once); the
:class:`ColumnarStudy` keeps the mmap alive for as long as any view might
be.

At rest a shard lives in the published cache entry it was packed from, as
``<cache root>/study/<key>/shard.frame``; the key is the study cache key,
which is also the shard's etag.  :class:`ShardStore` writes it only into
an entry whose ``meta.json`` exists, with :func:`write_frame`'s
``.tmp<pid>`` + ``os.replace``, so a shard never creates or outlives its
entry: ``repro cache stats``, ``verify --evict``, ``gc`` and ``clear``
cover it with the entry.  A published shard is immutable, which is what
lets the serving layer hand out ``Cache-Control: immutable`` responses
keyed by the same fingerprint.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.store.columnar import COLUMN_DTYPES, ColumnarStudy
from repro.store.frame import Frame, read_frame, write_frame

#: The shard's file name inside its study cache entry.
SHARD_FILE = "shard.frame"


def write_shard(study: ColumnarStudy, path: Union[str, Path]) -> Path:
    """Serialise a packed study to ``path`` atomically; returns the path.

    The directory must exist: a shard never creates its own.
    """
    from repro.cache.study import CACHE_SCHEMA

    for name, array in study.columns.items():
        if array.dtype != np.dtype(COLUMN_DTYPES[name]):
            raise TypeError(
                f"column {name}: dtype {array.dtype}, "
                f"expected {COLUMN_DTYPES[name]}"
            )
    frame = Frame(
        kind="shard",
        columns=study.columns,
        meta=study.meta,
        strings={"cves": study.cves, "categories": study.categories},
    )
    write_frame(frame, path, schema=CACHE_SCHEMA)
    return Path(path)


def load_shard(path: Union[str, Path]) -> ColumnarStudy:
    """Map a shard and wrap its columns zero-copy.

    The returned study's arrays are read-only ``np.frombuffer`` views over
    one shared ``mmap``.  Raises ``ValueError`` (a
    :class:`repro.store.frame.FrameError`) for anything that is not a
    complete, intact shard of the current schema.
    """
    from repro.cache.study import CACHE_SCHEMA

    with open(path, "rb") as handle:
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        frame = read_frame(mm, schema=CACHE_SCHEMA, kind="shard", dtypes=COLUMN_DTYPES)
        cves = frame.strings.get("cves")
        categories = frame.strings.get("categories")
        if cves is None or categories is None:
            frame.columns.clear()
            raise ValueError(f"{path}: shard lacks its string tables")
    except BaseException:
        mm.close()
        raise
    return ColumnarStudy(
        meta=dict(frame.meta),
        cves=list(cves),
        categories=list(categories),
        columns=frame.columns,
        _backing=mm,
    )


class ShardStore:
    """The shards of the published study cache entries under one root."""

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        from repro.cache import StudyCache

        cache = StudyCache(root)
        self.root, self.study_root = cache.root, cache.study_root

    def save(self, study: ColumnarStudy) -> Optional[Path]:
        """Write the shard into its published entry; None when there is no
        entry to write into (or it went away while writing)."""
        entry = self.study_root / study.etag
        if not (entry / "meta.json").is_file():
            return None
        try:
            return write_shard(study, entry / SHARD_FILE)
        except OSError:
            return None

    def load(self, etag: str) -> Optional[ColumnarStudy]:
        """The shard of a published entry, or None (corrupt shards evicted)."""
        entry = self.study_root / etag
        path = entry / SHARD_FILE
        if not (entry / "meta.json").is_file() or not path.is_file():
            return None
        try:
            return load_shard(path)
        except (ValueError, OSError):
            try:
                path.unlink()
            except OSError:
                pass
            return None
