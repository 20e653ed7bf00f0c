"""Multiprocess post-facto scanning: one fork-pool map over session ranges.

Each stored session is matched against the ruleset on its own, so
:func:`parallel_scan` cuts the session list into contiguous ``(start,
stop)`` ranges, scans them in a ``fork`` process pool and concatenates the
per-range alert lists in range order — the merged output is *identical*
(same alerts, same order, same fields) to a serial scan of the same stream.

The compiled ruleset and the session list reach the workers as the pool's
initializer arguments.  Under ``fork`` those are inherited, not pickled, so
tasks are just index pairs, and because every scan builds its own pool no
module-level state is shared between scans running in different threads.
Where ``fork`` is unavailable the scan runs serially.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.net.session import TcpSession
from repro.nids.engine import ScanTelemetry, scan_stream
from repro.nids.ruleset import Alert, Ruleset

#: Ranges per worker: >1 so one slow range (dense with candidate-heavy
#: payloads) does not leave the other workers idle at the end of the scan.
CHUNKS_PER_WORKER = 4

#: Sessions below which a parallel request runs serially in-process: below
#: a few tens of thousands of sessions, forking the pool and shipping the
#: alerts back cost more than the match work saved.  ``threshold=0`` forces
#: the pool on (tests, benches).
DEFAULT_PARALLEL_THRESHOLD = 25000

ScanResult = Tuple[List[Alert], int, ScanTelemetry]

_worker_ruleset: Optional[Ruleset] = None
_worker_sessions: Sequence[TcpSession] = ()


def _init_worker(ruleset: Ruleset, sessions: Sequence[TcpSession]) -> None:
    global _worker_ruleset, _worker_sessions
    _worker_ruleset, _worker_sessions = ruleset, sessions


def _scan_range(bounds: Tuple[int, int]) -> ScanResult:
    start, stop = bounds
    return scan_stream(_worker_ruleset, _worker_sessions[start:stop])


def chunk_bounds(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` slices covering ``range(total)``.

    >>> chunk_bounds(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    >>> chunk_bounds(0, 4)
    []
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return [
        (start, min(start + chunk_size, total))
        for start in range(0, total, chunk_size)
    ]


def parallel_scan(
    ruleset: Ruleset,
    sessions: Iterable[TcpSession],
    *,
    workers: int,
    chunk_size: Optional[int] = None,
    checkpoint_store=None,
    checkpoint_key: Optional[str] = None,
    tracer=None,
    transfer: Optional[str] = None,
    threshold: Optional[int] = None,
) -> ScanResult:
    """Scan sessions across ``workers`` processes.

    Returns ``(alerts, sessions_scanned, telemetry)`` with alerts in
    session order — identical to a serial :func:`scan_stream` over the same
    stream — and the per-range telemetry merged in range order.

    Streams shorter than ``threshold`` sessions (default
    :data:`DEFAULT_PARALLEL_THRESHOLD`; ``0`` forces the pool on) are
    scanned serially in-process, with ``telemetry.fallback_serial``
    recording that a parallel request was served serially.

    ``checkpoint_store`` and ``checkpoint_key`` are accepted and ignored:
    the pipeline's ``scan`` stage checkpoint already saves the merged
    alerts, so per-range checkpoints would only duplicate it.  ``transfer``
    must be ``None``; the fork pool is the only data plane.

    With ``tracer`` (a :class:`repro.obs.Tracer`), each range attaches a
    pre-measured ``chunk-NNNNN`` child span to the caller's open span.  The
    merged telemetry's ``wall_seconds`` is measured by this parent around
    the whole pass; the summed worker clocks are ``cpu_seconds``.
    """
    started = time.perf_counter()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if transfer is not None:
        raise ValueError(
            f"unknown transfer plane {transfer!r}; the fork pool is the only one"
        )
    if threshold is None:
        threshold = DEFAULT_PARALLEL_THRESHOLD
    elif threshold < 0:
        raise ValueError("parallel threshold must be >= 0")
    items = list(sessions)
    if chunk_size is None:
        chunk_size = max(1, -(-len(items) // (workers * CHUNKS_PER_WORKER)))
    bounds = chunk_bounds(len(items), chunk_size)
    if (
        workers == 1
        or len(bounds) <= 1
        or len(items) < threshold
        or "fork" not in multiprocessing.get_all_start_methods()
    ):
        alerts, scanned, telemetry = scan_stream(ruleset, items)
        if workers > 1:
            telemetry.fallback_serial = 1
        return alerts, scanned, telemetry

    # Compile once in the parent; forked workers inherit the result.
    ruleset._ensure_compiled()
    with ProcessPoolExecutor(
        max_workers=min(workers, len(bounds)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(ruleset, items),
    ) as pool:
        results = list(pool.map(_scan_range, bounds))

    alerts: List[Alert] = []
    scanned = 0
    telemetry = ScanTelemetry(engine=ruleset.prefilter_engine)
    for index, (range_alerts, count, range_telemetry) in enumerate(results):
        alerts.extend(range_alerts)
        scanned += count
        telemetry.merge(range_telemetry)
        if tracer is not None:
            tracer.child(
                f"chunk-{index:05d}",
                duration=range_telemetry.scan_seconds,
                sessions=count,
            )
    telemetry.wall_seconds = time.perf_counter() - started
    return alerts, scanned, telemetry
