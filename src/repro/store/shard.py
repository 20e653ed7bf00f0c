"""Binary shard persistence for :class:`ColumnarStudy`.

A ``.shard`` file is one :mod:`repro.store.frame` of kind ``"shard"``: the
study's identity in the header ``meta``, its CVE and category tables as
the header's string tables, and one column per :data:`COLUMN_DTYPES`
entry.  :func:`load_shard` maps the file once and wraps every column as a
read-only ``np.frombuffer`` view over the ``mmap`` — no column bytes are
copied (the frame digest is checked once at open, which reads each page
once); the :class:`ColumnarStudy` keeps the mmap alive for as long as any
view might be.

Shards are content-keyed: :class:`ShardStore` files them under
``<cache root>/shards/<etag>.shard`` where the etag *is* the study cache
fingerprint (config + code digest), published atomically via the same
``.tmp<pid>`` + ``os.replace`` discipline as the study cache — a shard is
immutable once published, which is what lets the serving layer hand out
``Cache-Control: immutable`` responses keyed by the same fingerprint.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.store.columnar import COLUMN_DTYPES, ColumnarStudy
from repro.store.frame import Frame, read_frame, write_frame

#: Bump when the shard layout changes (column additions are covered by the
#: header's explicit descriptors; this is for structural breaks).  2: the
#: shard is a digest-carrying :mod:`repro.store.frame`.
SHARD_SCHEMA = 2


def write_shard(study: ColumnarStudy, path: Union[str, Path]) -> Path:
    """Serialise a packed study to ``path`` atomically; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    write_frame(frame, path, schema=SHARD_SCHEMA)
    return path


def load_shard(path: Union[str, Path]) -> ColumnarStudy:
    """Map a shard and wrap its columns zero-copy.

    The returned study's arrays are read-only ``np.frombuffer`` views over
    one shared ``mmap``.  Raises ``ValueError`` (a
    :class:`repro.store.frame.FrameError`) for anything that is not a
    complete, intact shard of the current schema.
    """
    with open(path, "rb") as handle:
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        frame = read_frame(mm, schema=SHARD_SCHEMA, kind="shard", dtypes=COLUMN_DTYPES)
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
    """Content-keyed shard files under ``<cache root>/shards/``.

    The key is the study cache fingerprint (the shard's etag); the study
    cache, checkpoint store, manifests, and shards thereby share one root
    and one invalidation story — editing pipeline code changes the
    fingerprint, which orphans old shards rather than corrupting them.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        from repro.cache import default_cache_root

        self.root = Path(root).expanduser() if root else default_cache_root()

    @property
    def shard_root(self) -> Path:
        return self.root / "shards"

    def path_for(self, etag: str) -> Path:
        return self.shard_root / f"{etag}.shard"

    def has(self, etag: str) -> bool:
        return self.path_for(etag).exists()

    def save(self, study: ColumnarStudy) -> Path:
        return write_shard(study, self.path_for(study.etag))

    def load(self, etag: str) -> Optional[ColumnarStudy]:
        """The shard for a fingerprint, or None (corrupt shards evicted)."""
        path = self.path_for(etag)
        if not path.exists():
            return None
        try:
            return load_shard(path)
        except (ValueError, OSError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def entries(self) -> List[Path]:
        if not self.shard_root.is_dir():
            return []
        return sorted(self.shard_root.glob("*.shard"))
