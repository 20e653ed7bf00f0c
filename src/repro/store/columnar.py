"""Struct-of-arrays packing of a finished study.

The dataclass object graph a study produces (:class:`CveTimeline`,
:class:`Alert`, :class:`ExploitEvent`, ...) is the right shape for the
*write* side of the pipeline; the read side — "what is the D < A violation
rate", "which KEV CVEs did the telescope see first" — wants flat numpy
columns it can mask and reduce without touching a Python object per CVE.
:class:`ColumnarStudy` is that representation:

* every event timestamp is an ``int64`` count of **microseconds since the
  epoch** (the pipeline's datetimes are naive UTC; the conversion is exact
  integer arithmetic, so the dataclass path and the columnar path cannot
  disagree by a rounding error);
* missing timestamps use the :data:`MISSING` sentinel (``int64`` min), so
  "both events known" is a mask, not an ``is not None`` chain;
* CVE ids and vendor categories are interned into small string tables and
  referenced by index from every column (``-1`` = no reference);
* alerts, kept exploit events, KEV entries, and RCA decisions are parallel
  column groups in their canonical pipeline orders, so order-sensitive
  answers (delta series, overlap listings) reproduce the dataclass answers
  element for element.

Packing consumes a finished :class:`repro.analysis.pipeline.StudyResult`;
:mod:`repro.store.shard` persists the result as a frame in the study's
cache entry and reloads it zero-copy; :mod:`repro.store.kernels` answers
queries from the columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.lifecycle.events import LifecycleEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.pipeline import StudyResult

#: Sentinel for "timestamp unknown" in int64 microsecond columns.
MISSING = np.int64(np.iinfo(np.int64).min)

#: The six lifecycle events in enum order; timeline timestamp columns are
#: named ``timeline_t_<letter>`` in this order.
EVENT_LETTERS = tuple(event.value for event in LifecycleEvent)

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)

#: Column name -> dtype for every column a shard may carry.  The shard
#: format validates against this table, so a column can never be loaded
#: under the wrong dtype.
COLUMN_DTYPES: Dict[str, str] = {
    # timelines (one row per CVE timeline, in timeline-dict order)
    "timeline_cve": "int32",
    "timeline_category": "int16",
    **{f"timeline_t_{letter}": "int64" for letter in EVENT_LETTERS},
    # alerts (pipeline alert order)
    "alert_session": "int64",
    "alert_t": "int64",
    "alert_sid": "int32",
    "alert_cve": "int32",
    "alert_rule_published": "int64",
    "alert_src_ip": "int64",
    "alert_dst_ip": "int64",
    "alert_dst_port": "int32",
    # kept exploit events (time-sorted, ties by nothing further — the
    # pipeline's kept_events order)
    "event_cve": "int32",
    "event_t": "int64",
    "event_sid": "int32",
    "event_session": "int64",
    "event_mitigated": "uint8",
    # KEV catalog (bundle order)
    "kev_cve": "int32",
    "kev_added": "int64",
    "kev_published": "int64",
    # RCA decisions (decision order)
    "rca_cve": "int32",
    "rca_kept": "uint8",
    # per-CVE-table flags
    "cve_studied": "uint8",
}


def to_micros(when: Optional[datetime]) -> int:
    """Naive-UTC datetime -> int64 microseconds since the epoch.

    Exact integer arithmetic (no ``timestamp()``, which would apply the
    host timezone to the naive datetime).

    >>> to_micros(datetime(1970, 1, 1, 0, 0, 1))
    1000000
    >>> to_micros(None) == int(MISSING)
    True
    """
    if when is None:
        return int(MISSING)
    return (when - _EPOCH) // _US


def from_micros(stamp: int) -> Optional[datetime]:
    """Inverse of :func:`to_micros` (MISSING -> None).

    >>> from_micros(to_micros(datetime(2021, 12, 10, 3, 4, 5)))
    datetime.datetime(2021, 12, 10, 3, 4, 5)
    """
    if stamp == int(MISSING):
        return None
    return _EPOCH + timedelta(microseconds=int(stamp))


class _Interner:
    """Insertion-ordered string interning (value -> stable index)."""

    def __init__(self) -> None:
        self.values: List[str] = []
        self._index: Dict[str, int] = {}

    def intern(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        index = self._index.get(value)
        if index is None:
            index = len(self.values)
            self.values.append(value)
            self._index[value] = index
        return index


@dataclass
class ColumnarStudy:
    """One study snapshot as struct-of-arrays columns.

    ``meta`` carries the identity (the cache fingerprint that becomes the
    serving ``ETag``), provenance, and scalar counts; ``cves`` and
    ``categories`` are the interned string tables every ``*_cve`` /
    ``*_category`` column indexes into; ``columns`` maps the names in
    :data:`COLUMN_DTYPES` to numpy arrays (in-memory after packing,
    mmap-backed after a shard load).
    """

    meta: Dict[str, object]
    cves: List[str]
    categories: List[str]
    columns: Dict[str, np.ndarray]
    #: Keeps the mmap (and its file) alive for zero-copy loads.
    _backing: object = field(default=None, repr=False, compare=False)

    @property
    def etag(self) -> str:
        """The content fingerprint this snapshot was keyed under."""
        return str(self.meta["etag"])

    @property
    def n_timelines(self) -> int:
        return int(self.columns["timeline_cve"].size)

    @property
    def n_alerts(self) -> int:
        return int(self.columns["alert_t"].size)

    @property
    def n_events(self) -> int:
        return int(self.columns["event_t"].size)

    @property
    def n_kev(self) -> int:
        return int(self.columns["kev_added"].size)

    def col(self, name: str) -> np.ndarray:
        return self.columns[name]

    def timeline_times(self, letter: str) -> np.ndarray:
        """The int64 µs column of one lifecycle event (by letter)."""
        if letter not in EVENT_LETTERS:
            raise KeyError(f"unknown lifecycle event {letter!r}")
        return self.columns[f"timeline_t_{letter}"]

    # -- packing -----------------------------------------------------------

    @classmethod
    def from_study(cls, result: "StudyResult") -> "ColumnarStudy":
        """Pack a batch :class:`StudyResult` (ETag = its study cache key)."""
        from repro.cache import code_fingerprint, semantic_config
        from repro.cache import study_key as compute_study_key
        from repro.datasets.catalog import profile_for

        alerts = result.alerts
        kept_events = result.kept_events
        rca_decisions = result.rca_decisions
        bundle = result.bundle

        cves = _Interner()
        categories = _Interner()
        columns: Dict[str, np.ndarray] = {}

        # Timelines, in the dict's iteration order (the order every
        # dataclass-path aggregation sees them in).
        timeline_list = list(result.timelines.values())
        n = len(timeline_list)
        timeline_cve = np.empty(n, dtype=np.int32)
        timeline_category = np.full(n, -1, dtype=np.int16)
        event_cols = {
            letter: np.full(n, MISSING, dtype=np.int64)
            for letter in EVENT_LETTERS
        }
        for row, timeline in enumerate(timeline_list):
            timeline_cve[row] = cves.intern(timeline.cve_id)
            try:
                category = profile_for(timeline.cve_id).category
            except KeyError:
                category = None
            timeline_category[row] = categories.intern(category)
            for event in LifecycleEvent:
                event_cols[event.value][row] = to_micros(timeline.time(event))
        columns["timeline_cve"] = timeline_cve
        columns["timeline_category"] = timeline_category
        for letter in EVENT_LETTERS:
            columns[f"timeline_t_{letter}"] = event_cols[letter]

        columns["alert_session"] = np.fromiter(
            (alert.session_id for alert in alerts), np.int64, len(alerts)
        )
        columns["alert_t"] = np.fromiter(
            (to_micros(alert.timestamp) for alert in alerts),
            np.int64, len(alerts),
        )
        columns["alert_sid"] = np.fromiter(
            (alert.sid for alert in alerts), np.int32, len(alerts)
        )
        columns["alert_cve"] = np.fromiter(
            (cves.intern(alert.cve_id) for alert in alerts),
            np.int32, len(alerts),
        )
        columns["alert_rule_published"] = np.fromiter(
            (to_micros(alert.rule_published) for alert in alerts),
            np.int64, len(alerts),
        )
        columns["alert_src_ip"] = np.fromiter(
            (alert.src_ip for alert in alerts), np.int64, len(alerts)
        )
        columns["alert_dst_ip"] = np.fromiter(
            (alert.dst_ip for alert in alerts), np.int64, len(alerts)
        )
        columns["alert_dst_port"] = np.fromiter(
            (alert.dst_port for alert in alerts), np.int32, len(alerts)
        )

        columns["event_cve"] = np.fromiter(
            (cves.intern(event.cve_id) for event in kept_events),
            np.int32, len(kept_events),
        )
        columns["event_t"] = np.fromiter(
            (to_micros(event.timestamp) for event in kept_events),
            np.int64, len(kept_events),
        )
        columns["event_sid"] = np.fromiter(
            (event.sid for event in kept_events), np.int32, len(kept_events)
        )
        columns["event_session"] = np.fromiter(
            (event.session_id for event in kept_events),
            np.int64, len(kept_events),
        )
        columns["event_mitigated"] = np.fromiter(
            (event.mitigated for event in kept_events),
            np.uint8, len(kept_events),
        )

        kev_entries = list(bundle.kev)
        columns["kev_cve"] = np.fromiter(
            (cves.intern(entry.cve_id) for entry in kev_entries),
            np.int32, len(kev_entries),
        )
        columns["kev_added"] = np.fromiter(
            (to_micros(entry.date_added) for entry in kev_entries),
            np.int64, len(kev_entries),
        )
        columns["kev_published"] = np.fromiter(
            (to_micros(entry.published) for entry in kev_entries),
            np.int64, len(kev_entries),
        )

        columns["rca_cve"] = np.fromiter(
            (cves.intern(decision.cve_id) for decision in rca_decisions),
            np.int32, len(rca_decisions),
        )
        columns["rca_kept"] = np.fromiter(
            (decision.kept for decision in rca_decisions),
            np.uint8, len(rca_decisions),
        )

        studied_ids = {seed.cve_id for seed in bundle.studied}
        columns["cve_studied"] = np.fromiter(
            (cve_id in studied_ids for cve_id in cves.values),
            np.uint8, len(cves.values),
        )

        for name, array in columns.items():
            expected = COLUMN_DTYPES[name]
            if array.dtype != np.dtype(expected):  # pragma: no cover - guard
                raise TypeError(f"{name}: {array.dtype} != {expected}")

        meta: Dict[str, object] = {
            "etag": compute_study_key(result.config),
            "code": code_fingerprint(),
            "config": {
                name: str(value)
                for name, value in semantic_config(result.config).items()
            },
            "counts": {
                "sessions": len(result.store),
                "alerts": len(alerts),
                "events": len(result.events),
                "kept_events": len(kept_events),
                "kept_cves": sum(
                    1 for decision in rca_decisions if decision.kept
                ),
                "timelines": n,
                "kev": len(kev_entries),
            },
        }
        return cls(
            meta=meta,
            cves=list(cves.values),
            categories=list(categories.values),
            columns=columns,
        )
