"""Columnar read plane: pack once, mmap forever, answer with array ops.

The batch pipeline writes dataclasses; this package is the read-optimized
mirror of a finished study:

* :mod:`repro.store.columnar` — the struct-of-arrays representation
  (:class:`ColumnarStudy`): int64 µs timestamps, interned string tables,
  parallel column groups in the pipeline's canonical orders;
* :mod:`repro.store.frame` — the binary column frame, the one layout at
  rest: a study cache entry's data files (staged as crash checkpoints)
  and its shard are all frames;
* :mod:`repro.store.shard` — a study as one frame, kept as
  ``shard.frame`` in its published cache entry (:class:`ShardStore`) and
  loaded zero-copy via ``mmap`` + ``np.frombuffer``;
* :mod:`repro.store.kernels` — vectorized aggregations value-identical to
  the ``derive_analysis`` dataclass path;
* :mod:`repro.store.service` — the query handlers ``repro serve`` and
  ``repro query`` share;
* :mod:`repro.store.server` — the stdlib-asyncio HTTP/1.1 query plane.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from repro.store.columnar import MISSING, ColumnarStudy, from_micros, to_micros
from repro.store.kernels import (
    a_before_p_rate,
    delta_days,
    kev_rollup,
    skill_rollup,
    vendor_rollup,
    window_cdf,
)
from repro.store.server import StudyServer, serve
from repro.store.service import QUERY_NAMES, QueryError, StudyService
from repro.store.shard import ShardStore, load_shard, write_shard


def shard_for_config(
    config=None,
    *,
    cache_root: Optional[Union[str, Path]] = None,
    build: bool = True,
) -> Tuple[Optional[ColumnarStudy], bool]:
    """The shard for a study config: load it, or build and publish it.

    Returns ``(study, built)``.  A shard already in the study's published
    cache entry is mmapped and returned **without re-running the study**
    — the warm path a serving process relies on.  Otherwise the study
    runs (through the study cache, so its own hit short-circuits the heavy
    stages), is packed, and the shard written into the entry for next
    time; when there is no entry to write into (the cache could not
    publish one), the in-memory pack is served.  ``build=False`` probes
    without running anything (``(None, False)`` on a miss).
    """
    from repro.analysis.pipeline import StudyConfig, run_study
    from repro.cache import study_key

    config = config or StudyConfig()
    store = ShardStore(root=cache_root)
    etag = study_key(config)
    loaded = store.load(etag)
    if loaded is not None:
        return loaded, False
    if not build:
        return None, False
    result = run_study(config, cache=str(store.root))
    packed = ColumnarStudy.from_study(result)
    path = store.save(packed)
    # Serve from the mmapped bytes rather than the in-memory pack, so the
    # first server process exercises the same plane as every later one.
    return (packed if path is None else load_shard(path)), True


__all__ = [
    "MISSING",
    "QUERY_NAMES",
    "ColumnarStudy",
    "QueryError",
    "ShardStore",
    "StudyServer",
    "StudyService",
    "a_before_p_rate",
    "delta_days",
    "from_micros",
    "kev_rollup",
    "load_shard",
    "serve",
    "shard_for_config",
    "skill_rollup",
    "to_micros",
    "vendor_rollup",
    "window_cdf",
    "write_shard",
]
