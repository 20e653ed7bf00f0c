"""The binary column frame: the one layout the program keeps at rest.

Every data file a study leaves on disk is one frame: the study cache
entry's stage frames (crash checkpoints while the entry is staged) and,
once the entry is published, its serve shard::

    magic   8 bytes   b"REPROFR1"
    hlen    8 bytes   little-endian uint64: byte length of the header JSON
    header  hlen      UTF-8 JSON (see below)
    blobs             raw little-endian column bytes, each 64-byte aligned

The header is a JSON object with exactly these keys:

* ``kind`` — what the frame holds (``"store"``, ``"arrivals"``,
  ``"alerts"``, ``"shard"``);
* ``schema`` — the study cache's layout version (``CACHE_SCHEMA``); a
  reader names the schema it expects and rejects any other;
* ``meta`` — scalars (collection counters, a shard's identity);
* ``strings`` — interned string tables, referenced from ``int32`` columns
  by index (``-1`` = ``None``);
* ``columns`` — ``{name, dtype, count, offset}`` per column, ``offset``
  counted from the start of the frame, so a reader wraps each column as
  ``np.frombuffer(buffer, dtype, count, offset)`` without copying;
* ``digest`` — BLAKE2b-128 over the canonical JSON of the other header
  keys followed by every byte after the header, so a flipped, truncated or
  appended byte anywhere in the frame fails :func:`read_frame`.

Column conventions shared by the record codecs at the bottom:

* timestamps are ``int64`` microseconds since the epoch
  (:func:`repro.store.columnar.to_micros`); ``None`` is
  :data:`~repro.store.columnar.MISSING`, which is ``NaT`` as ``int64``, so
  ``column.astype("datetime64[us]").tolist()`` decodes a whole column to
  naive datetimes and ``None`` in one call (optional integers reuse the
  same sentinel);
* byte payloads are one ``uint8`` blob plus an ``int64`` offsets column of
  ``rows + 1`` entries starting at 0;
* booleans are ``uint8``.

Decoders rebuild dataclasses through their constructors, so the
``__post_init__`` validation of :class:`TcpSession` and
:class:`ScanArrival` runs on every row read back.  Every malformed frame —
bad magic, a header that is not a complete object, negative or overlapping
column extents, a digest mismatch, an out-of-range string index — raises
:class:`FrameError` (a ``ValueError``), which every caller treats as a miss
and evicts.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.store.columnar import MISSING, _Interner, to_micros

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.session import TcpSession
    from repro.nids.ruleset import Alert
    from repro.telescope.collector import CollectionStats
    from repro.traffic.arrivals import ScanArrival

MAGIC = b"REPROFR1"
#: Column blobs start on multiples of this (keeps wide columns page- and
#: cache-line-friendly under ``mmap``).
ALIGNMENT = 64
#: The only dtypes a frame column may declare.
DTYPES = frozenset({"uint8", "int16", "int32", "int64"})
HEADER_KEYS = frozenset({"kind", "schema", "meta", "strings", "columns", "digest"})

_LEN_BYTES = 8
_PREFIX = len(MAGIC) + _LEN_BYTES
_DIGEST_PLACEHOLDER = "0" * 32


class FrameError(ValueError):
    """A buffer is not a complete, intact frame of the expected kind."""


@dataclass
class Frame:
    """One frame's content: named columns plus header scalars and tables."""

    kind: str
    columns: Dict[str, np.ndarray]
    meta: Dict[str, Any] = field(default_factory=dict)
    strings: Dict[str, List[str]] = field(default_factory=dict)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _render(header: Mapping[str, Any]) -> bytes:
    return json.dumps(header, sort_keys=True).encode("utf-8")


def _digest(rest: bytes, data) -> str:
    hasher = hashlib.blake2b(rest, digest_size=16)
    hasher.update(data)
    return hasher.hexdigest()


# -- writing -----------------------------------------------------------------


def frame_bytes(frame: Frame, *, schema: int) -> bytes:
    """The complete on-disk bytes of ``frame`` under ``schema``."""
    arrays: List[np.ndarray] = []
    descriptors: List[Dict[str, Any]] = []
    for name in sorted(frame.columns):
        array = np.ascontiguousarray(frame.columns[name])
        dtype = array.dtype.name
        if dtype not in DTYPES:
            raise TypeError(f"column {name}: unsupported dtype {dtype}")
        arrays.append(array)
        descriptors.append(
            {"name": name, "dtype": dtype, "count": int(array.size), "offset": 0}
        )
    # Round-trip meta and strings through JSON first, so the header the
    # digest covers is exactly what a reader re-renders after parsing.
    header: Dict[str, Any] = json.loads(
        json.dumps({"meta": frame.meta, "strings": frame.strings})
    )
    header.update(
        kind=frame.kind,
        schema=schema,
        columns=descriptors,
        digest=_DIGEST_PLACEHOLDER,
    )

    # Offsets appear inside the header and the header's length moves the
    # offsets; rendered digit counts only grow with the offsets, so this
    # converges in a couple of rounds.
    rendered = _render(header)
    while True:
        cursor = _align(_PREFIX + len(rendered))
        for descriptor, array in zip(descriptors, arrays):
            descriptor["offset"] = cursor
            cursor = _align(cursor + array.nbytes)
        again = _render(header)
        if len(again) == len(rendered):
            break
        rendered = again

    header_end = _PREFIX + len(rendered)
    pieces: List[bytes] = []
    position = header_end
    for descriptor, array in zip(descriptors, arrays):
        pieces.append(b"\0" * (descriptor["offset"] - position))
        pieces.append(array.tobytes())
        position = descriptor["offset"] + array.nbytes
    data = b"".join(pieces)

    # The digest is as long as its placeholder, so no offset moves.
    rest = {key: value for key, value in header.items() if key != "digest"}
    header["digest"] = _digest(_render(rest), data)
    header_bytes = _render(header)
    return b"".join(
        (MAGIC, len(header_bytes).to_bytes(_LEN_BYTES, "little"), header_bytes, data)
    )


def write_frame(frame: Frame, path: Union[str, Path], *, schema: int) -> int:
    """Publish ``frame`` at ``path`` atomically; returns the bytes written.

    The bytes are staged in a ``.tmp<pid>`` sibling and moved into place
    with one ``os.replace``, so a reader sees the old file or the new one,
    never a torn one; the staging file never outlives a failure.
    """
    path = Path(path)
    data = frame_bytes(frame, schema=schema)
    staging = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        staging.write_bytes(data)
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return len(data)


# -- reading -----------------------------------------------------------------


def _non_negative(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FrameError(f"{what} is not an integer: {value!r}")
    if value < 0:
        raise FrameError(f"{what} is negative: {value}")
    return value


def _parse_header(buffer) -> Tuple[Dict[str, Any], int]:
    """The validated header and the offset where it ends."""
    size = len(buffer)
    if size < _PREFIX or bytes(buffer[: len(MAGIC)]) != MAGIC:
        raise FrameError("not a frame (bad magic)")
    hlen = int.from_bytes(buffer[len(MAGIC): _PREFIX], "little")
    header_end = _PREFIX + hlen
    if header_end > size:
        raise FrameError("truncated header")
    try:
        header = json.loads(bytes(buffer[_PREFIX:header_end]))
    except ValueError as exc:
        raise FrameError(f"unreadable header: {exc}") from None
    if not isinstance(header, dict):
        raise FrameError(f"header is a {type(header).__name__}, not an object")
    missing = HEADER_KEYS - set(header)
    if missing:
        raise FrameError(f"header lacks {sorted(missing)}")
    if not isinstance(header["meta"], dict):
        raise FrameError("header meta is not an object")
    strings = header["strings"]
    if not isinstance(strings, dict) or not all(
        isinstance(table, list) and all(isinstance(item, str) for item in table)
        for table in strings.values()
    ):
        raise FrameError("header strings are not tables of strings")
    if not isinstance(header["columns"], list):
        raise FrameError("header columns is not a list")
    return header, header_end


def _extents(
    header: Dict[str, Any], header_end: int, size: int
) -> List[Tuple[str, str, int, int]]:
    """``(name, dtype, count, offset)`` per column, bounds-checked."""
    extents = []
    for descriptor in header["columns"]:
        if not isinstance(descriptor, dict):
            raise FrameError(f"column descriptor is not an object: {descriptor!r}")
        name = descriptor.get("name")
        dtype = descriptor.get("dtype")
        if not (isinstance(name, str) and isinstance(dtype, str) and dtype in DTYPES):
            raise FrameError(f"bad column descriptor {descriptor!r}")
        count = _non_negative(descriptor.get("count"), f"column {name!r} count")
        offset = _non_negative(descriptor.get("offset"), f"column {name!r} offset")
        if offset < header_end:
            raise FrameError(f"column {name!r} starts inside the header")
        if offset + count * np.dtype(dtype).itemsize > size:
            raise FrameError(f"column {name!r} runs past the end of the frame")
        extents.append((name, dtype, count, offset))
    if len({name for name, _, _, _ in extents}) != len(extents):
        raise FrameError("duplicate column names")
    end = header_end
    for name, dtype, count, offset in sorted(extents, key=lambda item: item[3]):
        if offset < end:
            raise FrameError(f"column {name!r} overlaps the previous column")
        end = offset + count * np.dtype(dtype).itemsize
    return extents


def read_frame(
    buffer,
    *,
    schema: int,
    kind: Optional[str] = None,
    dtypes: Optional[Mapping[str, str]] = None,
    digest: Optional[str] = None,
) -> Frame:
    """Validate ``buffer`` as a frame and wrap its columns zero-copy.

    ``buffer`` is anything exposing the buffer protocol — the ``bytes`` of
    a plain file read, or a long-lived ``mmap`` (shards).  The returned
    columns are read-only views over it.  ``kind``, ``dtypes`` (column
    name -> dtype, every one required) and ``digest`` (as recorded in a
    cache entry's ``meta.json``) are checked when given.  Raises
    :class:`FrameError` for anything that is not a complete, intact frame
    of ``schema``; no view is created before every check has passed.
    """
    header, header_end = _parse_header(buffer)
    if header["schema"] != schema:
        raise FrameError(f"schema {header['schema']!r}, expected {schema}")
    if kind is not None and header["kind"] != kind:
        raise FrameError(f"frame holds {header['kind']!r}, expected {kind!r}")
    extents = _extents(header, header_end, len(buffer))
    if dtypes is not None:
        found = {name: dtype for name, dtype, _, _ in extents}
        for name, dtype in dtypes.items():
            if found.get(name) != dtype:
                raise FrameError(
                    f"column {name!r} has dtype {found.get(name)!r}, "
                    f"expected {dtype!r}"
                )
    expected = header.pop("digest")
    if digest is not None and expected != digest:
        raise FrameError("digest differs from the recorded one")
    with memoryview(buffer) as view, view[header_end:] as data:
        actual = _digest(_render(header), data)
    if actual != expected:
        raise FrameError("digest mismatch")
    columns = {
        name: np.frombuffer(buffer, dtype=np.dtype(dtype), count=count, offset=offset)
        for name, dtype, count, offset in extents
    }
    return Frame(
        kind=header["kind"],
        columns=columns,
        meta=header["meta"],
        strings=header["strings"],
    )


def frame_digest(path: Union[str, Path]) -> str:
    """The digest a frame file's header records; only the header is read
    (the data bytes are checked when the frame itself is read)."""
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX)
        if len(prefix) < _PREFIX or prefix[: len(MAGIC)] != MAGIC:
            raise FrameError("not a frame (bad magic)")
        hlen = int.from_bytes(prefix[len(MAGIC):], "little")
        header, _ = _parse_header(prefix + handle.read(hlen))
    return header["digest"]


# -- column primitives -------------------------------------------------------


def _ints(values: Sequence[int], dtype: str) -> np.ndarray:
    return np.fromiter(values, dtype=dtype, count=len(values))


def _times(values: Sequence[Any]) -> np.ndarray:
    return np.fromiter(map(to_micros, values), dtype=np.int64, count=len(values))


def _decode_times(column: np.ndarray) -> List[Any]:
    return column.astype("datetime64[us]").tolist()


def _optional_ints(values: Sequence[Optional[int]]) -> np.ndarray:
    missing = int(MISSING)
    return np.fromiter(
        (missing if value is None else value for value in values),
        dtype=np.int64,
        count=len(values),
    )


def _decode_optional_ints(column: np.ndarray) -> List[Optional[int]]:
    missing = int(MISSING)
    return [None if value == missing else value for value in column.tolist()]


def _intern(values: Sequence[Optional[str]], table: _Interner) -> np.ndarray:
    return np.fromiter(map(table.intern, values), dtype=np.int32, count=len(values))


def _lookup(column: np.ndarray, table: List[str]) -> List[Optional[str]]:
    if column.size and (column.min() < -1 or column.max() >= len(table)):
        raise FrameError("string index out of range")
    values: List[Optional[str]] = list(table)
    values.append(None)  # index -1
    return [values[index] for index in column.tolist()]


def _pack_bytes(chunks: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum(_ints([len(chunk) for chunk in chunks], "int64"), out=offsets[1:])
    return np.frombuffer(b"".join(chunks), dtype=np.uint8), offsets


def _unpack_bytes(blob: np.ndarray, offsets: np.ndarray, rows: int) -> List[bytes]:
    if (
        offsets.size != rows + 1
        or offsets[0] != 0
        or offsets[-1] != blob.size
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise FrameError("payload offsets do not cover the payload blob")
    data = blob.tobytes()
    bounds = offsets.tolist()
    return [data[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _rows(frame: Frame, names: Sequence[str]) -> int:
    """The shared row count of ``names`` (FrameError if they disagree)."""
    counts = {frame.columns[name].size for name in names}
    if len(counts) > 1:
        raise FrameError(f"{frame.kind} columns disagree on the row count")
    return counts.pop() if counts else 0


def _expect(frame: Frame, kind: str, dtypes: Mapping[str, str]) -> None:
    if frame.kind != kind:
        raise FrameError(f"frame holds {frame.kind!r}, expected {kind!r}")
    for name, dtype in dtypes.items():
        column = frame.columns.get(name)
        if column is None or column.dtype.name != dtype:
            raise FrameError(f"{kind} frame lacks a {dtype} column {name!r}")


# -- record codecs -----------------------------------------------------------

SESSION_DTYPES: Dict[str, str] = {
    "session_id": "int64",
    "session_start": "int64",
    "session_end": "int64",
    "session_src_ip": "int64",
    "session_src_port": "int32",
    "session_dst_ip": "int64",
    "session_dst_port": "int32",
    "session_payload": "uint8",
    "session_payload_offsets": "int64",
    "session_established": "uint8",
}
STORE_DTYPES: Dict[str, str] = {
    **SESSION_DTYPES,
    "truth_session": "int64",
    "truth_cve": "int32",
    "stats_receiving_ips": "int64",
    "stats_source_ips": "int64",
}
ARRIVAL_DTYPES: Dict[str, str] = {
    "arrival_t": "int64",
    "arrival_src_ip": "int64",
    "arrival_src_port": "int32",
    "arrival_dst_port": "int32",
    "arrival_payload": "uint8",
    "arrival_payload_offsets": "int64",
    "arrival_truth_cve": "int32",
    "arrival_variant_sid": "int64",
}
ALERT_DTYPES: Dict[str, str] = {
    "alert_session": "int64",
    "alert_t": "int64",
    "alert_sid": "int64",
    "alert_cve": "int32",
    "alert_rule_published": "int64",
    "alert_dst_ip": "int64",
    "alert_dst_port": "int32",
    "alert_src_ip": "int64",
}
#: The pipeline's stage frames: kind -> required column dtypes.
STAGE_DTYPES: Dict[str, Dict[str, str]] = {
    "arrivals": ARRIVAL_DTYPES,
    "store": STORE_DTYPES,
    "alerts": ALERT_DTYPES,
}
#: Scalar collection counters carried in a store frame's ``meta``.
STATS_COUNTERS = (
    "arrivals_routed",
    "sessions_captured",
    "tenancies_materialised",
    "arrivals_lost_to_preemption",
)

#: One-value-per-row columns (the payload blob and its offsets aside).
_SESSION_ROWS = tuple(n for n in SESSION_DTYPES if "_payload" not in n)
_ARRIVAL_ROWS = tuple(n for n in ARRIVAL_DTYPES if "_payload" not in n)


def _session_columns(sessions: Sequence["TcpSession"]) -> Dict[str, np.ndarray]:
    payload, offsets = _pack_bytes([s.payload for s in sessions])
    return {
        "session_id": _ints([s.session_id for s in sessions], "int64"),
        "session_start": _times([s.start for s in sessions]),
        "session_end": _times([s.end for s in sessions]),
        "session_src_ip": _ints([s.src_ip for s in sessions], "int64"),
        "session_src_port": _ints([s.src_port for s in sessions], "int32"),
        "session_dst_ip": _ints([s.dst_ip for s in sessions], "int64"),
        "session_dst_port": _ints([s.dst_port for s in sessions], "int32"),
        "session_payload": payload,
        "session_payload_offsets": offsets,
        "session_established": _ints([s.established for s in sessions], "uint8"),
    }


def _sessions(frame: Frame) -> List["TcpSession"]:
    from repro.net.session import TcpSession

    c = frame.columns
    rows = _rows(frame, _SESSION_ROWS)
    payloads = _unpack_bytes(c["session_payload"], c["session_payload_offsets"], rows)
    # Positional order of TcpSession's fields; the constructor validates.
    return list(
        map(
            TcpSession,
            c["session_id"].tolist(),
            _decode_times(c["session_start"]),
            c["session_src_ip"].tolist(),
            c["session_src_port"].tolist(),
            c["session_dst_ip"].tolist(),
            c["session_dst_port"].tolist(),
            payloads,
            _decode_times(c["session_end"]),
            c["session_established"].astype(bool).tolist(),
        )
    )


def store_frame(
    sessions: Sequence["TcpSession"],
    stats: "CollectionStats",
    ground_truth: Mapping[int, Optional[str]],
) -> Frame:
    """The capture stage: sessions, collection statistics, ground truth."""
    cves = _Interner()
    columns = _session_columns(list(sessions))
    columns.update(
        truth_session=_ints(list(ground_truth), "int64"),
        truth_cve=_intern(list(ground_truth.values()), cves),
        stats_receiving_ips=_ints(sorted(stats.receiving_ips), "int64"),
        stats_source_ips=_ints(sorted(stats.source_ips), "int64"),
    )
    return Frame(
        kind="store",
        columns=columns,
        meta={"stats": {name: getattr(stats, name) for name in STATS_COUNTERS}},
        strings={"cves": cves.values},
    )


def store_from_frame(
    frame: Frame,
) -> Tuple[List["TcpSession"], "CollectionStats", Dict[int, Optional[str]]]:
    """Inverse of :func:`store_frame`."""
    from repro.telescope.collector import CollectionStats

    _expect(frame, "store", STORE_DTYPES)
    c = frame.columns
    _rows(frame, ("truth_session", "truth_cve"))
    counters = frame.meta.get("stats")
    if not isinstance(counters, dict) or set(counters) != set(STATS_COUNTERS):
        raise FrameError("store frame lacks its collection counters")
    stats = CollectionStats(
        **counters,
        receiving_ips=set(c["stats_receiving_ips"].tolist()),
        source_ips=set(c["stats_source_ips"].tolist()),
    )
    truth = _lookup(c["truth_cve"], frame.strings.get("cves", []))
    ground_truth = dict(zip(c["truth_session"].tolist(), truth))
    return _sessions(frame), stats, ground_truth


def arrivals_frame(arrivals: Sequence["ScanArrival"]) -> Frame:
    """The traffic stage: the arrival stream in generation order."""
    arrivals = list(arrivals)
    cves = _Interner()
    payload, offsets = _pack_bytes([a.payload for a in arrivals])
    return Frame(
        kind="arrivals",
        columns={
            "arrival_t": _times([a.timestamp for a in arrivals]),
            "arrival_src_ip": _ints([a.src_ip for a in arrivals], "int64"),
            "arrival_src_port": _ints([a.src_port for a in arrivals], "int32"),
            "arrival_dst_port": _ints([a.dst_port for a in arrivals], "int32"),
            "arrival_payload": payload,
            "arrival_payload_offsets": offsets,
            "arrival_truth_cve": _intern([a.truth_cve for a in arrivals], cves),
            "arrival_variant_sid": _optional_ints([a.variant_sid for a in arrivals]),
        },
        strings={"cves": cves.values},
    )


def arrivals_from_frame(frame: Frame) -> List["ScanArrival"]:
    """Inverse of :func:`arrivals_frame`."""
    from repro.traffic.arrivals import ScanArrival

    _expect(frame, "arrivals", ARRIVAL_DTYPES)
    c = frame.columns
    rows = _rows(frame, _ARRIVAL_ROWS)
    payloads = _unpack_bytes(c["arrival_payload"], c["arrival_payload_offsets"], rows)
    return list(
        map(
            ScanArrival,
            _decode_times(c["arrival_t"]),
            c["arrival_src_ip"].tolist(),
            c["arrival_src_port"].tolist(),
            c["arrival_dst_port"].tolist(),
            payloads,
            _lookup(c["arrival_truth_cve"], frame.strings.get("cves", [])),
            _decode_optional_ints(c["arrival_variant_sid"]),
        )
    )


def alerts_frame(alerts: Sequence["Alert"]) -> Frame:
    """The scan stage's alert list."""
    alerts = list(alerts)
    cves = _Interner()
    return Frame(
        kind="alerts",
        columns={
            "alert_session": _ints([a.session_id for a in alerts], "int64"),
            "alert_t": _times([a.timestamp for a in alerts]),
            "alert_sid": _ints([a.sid for a in alerts], "int64"),
            "alert_cve": _intern([a.cve_id for a in alerts], cves),
            "alert_rule_published": _times([a.rule_published for a in alerts]),
            "alert_dst_ip": _ints([a.dst_ip for a in alerts], "int64"),
            "alert_dst_port": _ints([a.dst_port for a in alerts], "int32"),
            "alert_src_ip": _ints([a.src_ip for a in alerts], "int64"),
        },
        meta={},
        strings={"cves": cves.values},
    )


def alerts_from_frame(frame: Frame) -> List["Alert"]:
    """Inverse of :func:`alerts_frame`."""
    from repro.nids.ruleset import Alert

    _expect(frame, "alerts", ALERT_DTYPES)
    c = frame.columns
    _rows(frame, tuple(ALERT_DTYPES))
    return list(
        map(
            Alert,
            c["alert_session"].tolist(),
            _decode_times(c["alert_t"]),
            c["alert_sid"].tolist(),
            _lookup(c["alert_cve"], frame.strings.get("cves", [])),
            _decode_times(c["alert_rule_published"]),
            c["alert_dst_ip"].tolist(),
            c["alert_dst_port"].tolist(),
            c["alert_src_ip"].tolist(),
        )
    )
