"""Cache entry integrity: per-file frame digests and verification.

A cache entry is a directory of data files plus a ``meta.json`` completion
marker.  The marker records, for every data file (a
:mod:`repro.store.frame`), its byte size and its frame header's BLAKE2b
digest, plus the record count of every stream.
:func:`verify_entry` checks an entry against its own
manifest; the cache calls it before trusting a hit, the publish path calls
it (shallowly) to distinguish a *complete* concurrent entry from stale
debris squatting on the slot, and ``repro cache verify`` exposes it to
operators.

The distinction matters because the failure modes differ:

* a **complete** entry (readable manifest, every file present at the
  recorded size, digests matching) is equivalent to anything a concurrent
  writer would publish — losing the rename race to it is benign;
* a **torn** entry (no readable ``meta.json``, or files missing/short) is
  debris from a crashed or interrupted writer — it must be evicted, or it
  blocks its key forever.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

#: The data files every complete entry contains (``meta.json`` aside).
DATA_FILES = ("arrivals.frame", "store.frame", "alerts.frame")


@dataclass
class EntryReport:
    """Outcome of verifying one cache entry."""

    path: Path
    key: str
    ok: bool
    problems: List[str] = field(default_factory=list)
    #: Total on-disk bytes of the data files the manifest names (0 if the
    #: manifest itself is unreadable).
    bytes: int = 0
    meta: Optional[dict] = None

    @property
    def summary(self) -> str:
        state = "ok" if self.ok else "; ".join(self.problems)
        return f"{self.key}: {state}"


def read_meta(entry: Path) -> Optional[dict]:
    """The entry's ``meta.json`` as a dict, or None if missing/unreadable."""
    try:
        meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return meta if isinstance(meta, dict) else None


def read_stage(entry: Path, meta: dict, kind: str):
    """One entry frame, read with its kind and columns and checked against
    the digest ``meta.json`` records (``FrameError`` on any mismatch)."""
    from repro.store.frame import STAGE_DTYPES, read_frame

    name = f"{kind}.frame"
    return read_frame(
        (entry / name).read_bytes(),
        schema=meta.get("schema"),
        kind=kind,
        dtypes=STAGE_DTYPES[kind],
        digest=meta["files"][name]["digest"],
    )


def verify_entry(
    entry: Path, *, deep: bool = True, expect_schema: Optional[int] = None
) -> EntryReport:
    """Check one entry directory against its own manifest.

    Shallow (``deep=False``) checks the manifest is readable and every data
    file exists at its recorded size, with a digest recorded — enough to
    tell a complete entry from a torn one without reading data bytes.  Deep
    verification additionally reads every frame against that digest.
    """
    report = EntryReport(path=entry, key=entry.name, ok=False)
    meta = read_meta(entry)
    if meta is None:
        report.problems.append("missing or unreadable meta.json")
        return report
    report.meta = meta
    if expect_schema is not None and meta.get("schema") != expect_schema:
        report.problems.append(
            f"schema {meta.get('schema')!r} != expected {expect_schema}"
        )
    manifest = meta.get("files")
    if not isinstance(manifest, dict) or not manifest:
        report.problems.append("meta.json lacks a file manifest")
        return report
    for name in DATA_FILES:
        expected = manifest.get(name)
        if not isinstance(expected, dict):
            report.problems.append(f"{name}: absent from manifest")
            continue
        if not isinstance(expected.get("digest"), str):
            report.problems.append(f"{name}: no frame digest recorded")
            continue
        path = entry / name
        if not path.is_file():
            report.problems.append(f"{name}: missing")
            continue
        size = path.stat().st_size
        report.bytes += size
        if size != expected.get("bytes"):
            report.problems.append(
                f"{name}: {size} bytes on disk != {expected.get('bytes')} recorded"
            )
            continue
        if deep:
            try:
                read_stage(entry, meta, path.stem)
            except (OSError, ValueError) as exc:
                report.problems.append(f"{name}: checksum mismatch ({exc})")
    report.ok = not report.problems
    return report
