"""Output oracle: BLAKE2b digests over canonical encodings of study outputs.

The encodings are built here, from the objects' public fields, so the
oracle does not depend on any serialiser inside the program: a change to
the program's own codecs that loses or alters a value changes a digest.
Each layer of output has its own digest, so a mismatch names the layer
that changed.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from datetime import datetime, timedelta
from typing import Any, Dict, Iterable, Mapping


def canonical(value: Any) -> Any:
    """A JSON-native, order-stable rendering of ``value``."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, datetime):
        return value.isoformat()
    if isinstance(value, timedelta):
        return repr(value.total_seconds())
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value).hex()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: canonical(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        items = [(canonical(key), canonical(item)) for key, item in value.items()]
        return [list(pair) for pair in sorted(items, key=lambda pair: json.dumps(pair[0]))]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def digest(records: Iterable[Any]) -> str:
    """Digest of a sequence of records, each canonically encoded."""
    hasher = hashlib.blake2b(digest_size=16)
    for record in records:
        hasher.update(json.dumps(canonical(record), sort_keys=True).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def analysis_digests(alerts, events_per_cve, timelines) -> Dict[str, str]:
    """Digests of the alerts, the kept events and the per-CVE timelines."""
    kept = sorted(
        (event for group in events_per_cve.values() for event in group),
        key=lambda event: (event.timestamp, event.session_id, event.cve_id),
    )
    return {
        "alerts": digest(alerts),
        "events": digest(kept),
        "timelines": digest(timelines[cve] for cve in sorted(timelines)),
    }


def study_digests(result) -> Dict[str, str]:
    """Digests of a :class:`StudyResult`: captured sessions and analysis."""
    digests = {"sessions": digest(result.store)}
    digests.update(
        analysis_digests(result.alerts, result.events_per_cve, result.timelines)
    )
    return digests


def experiment_digest(outcomes: Mapping[str, Any]) -> str:
    """Digest of every experiment's ``measured`` values and text."""
    return digest(
        (name, outcomes[name].measured, outcomes[name].text)
        for name in sorted(outcomes)
    )


def query_digest(bodies: Mapping[str, bytes]) -> str:
    """Digest of the query response bodies, keyed by request target."""
    return digest((target, bodies[target]) for target in sorted(bodies))
