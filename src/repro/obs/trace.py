"""Nested wall-clock span tracing.

A :class:`Tracer` records where a run spent its time as a tree of
:class:`Span` nodes: each ``with tracer.span("scan")`` block opens a child
of the innermost open span, measures its duration on ``perf_counter``,
carries free-form attributes, and captures any exception that escapes the
block (recorded, then re-raised — tracing never swallows errors).

Workers in a process pool cannot share the parent's tracer, so parallel
stages *merge* instead: the parent attaches synthetic child spans
(:meth:`Tracer.child`) built from per-chunk telemetry as chunk results
arrive, which is how the scan's per-chunk spans survive worker boundaries.

The tree serialises to JSON-native dicts (:meth:`Span.as_dict`) for the
:class:`repro.obs.manifest.RunManifest` and renders as an indented tree
(:func:`render_span_tree`) for ``repro trace``.

Span stacks are thread-local: two threads tracing on one tracer each nest
correctly, and completed roots are collected under a lock.

While a tracer has a span open, it is the *active* tracer of the current
context, and :func:`active_span` opens a child of that span.  Library
layers that take no tracer argument — the study cache, the checkpoint
store — charge their work to named spans this way, so every second of a
run lands in a span without threading a tracer through every call site.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed region of a run."""

    name: str
    #: Wall-clock start (``time.time()``), for cross-run ordering.
    started: float = 0.0
    #: Elapsed seconds (``perf_counter`` delta; monotonic).
    duration: float = 0.0
    status: str = "ok"  #: ``ok`` | ``error``
    #: ``"ExcType: message"`` when the block raised, else None.
    error: Optional[str] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (JSON-native values only)."""
        self.attributes[key] = value

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "started": self.started,
            "duration": self.duration,
            "status": self.status,
        }
        if self.error is not None:
            record["error"] = self.error
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.children:
            record["children"] = [child.as_dict() for child in self.children]
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        return cls(
            name=str(record.get("name", "?")),
            started=float(record.get("started", 0.0)),
            duration=float(record.get("duration", 0.0)),
            status=str(record.get("status", "ok")),
            error=record.get("error"),  # type: ignore[arg-type]
            attributes=dict(record.get("attributes", {})),  # type: ignore[call-overload]
            children=[
                cls.from_dict(child)
                for child in record.get("children", [])  # type: ignore[union-attr]
            ],
        )


class Tracer:
    """Collects a run's span tree."""

    def __init__(self) -> None:
        self._roots: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def roots(self) -> List[Span]:
        """Completed top-level spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a child of the current span (or a new root) around a block."""
        node = Span(name=name, started=time.time(), attributes=dict(attributes))
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(node)
        token = _ACTIVE.set(self)
        tick = time.perf_counter()
        try:
            yield node
        except BaseException as exc:
            node.status = "error"
            node.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            node.duration = time.perf_counter() - tick
            _ACTIVE.reset(token)
            stack.pop()
            if parent is not None:
                parent.children.append(node)
            else:
                with self._lock:
                    self._roots.append(node)

    def child(
        self, name: str, *, duration: float = 0.0, **attributes: object
    ) -> Span:
        """Attach a pre-measured child span to the current span.

        For work that ran elsewhere (a pool worker, a checkpoint hit) whose
        timing arrives as data rather than being measured in-block.
        Attached to the innermost open span, or as a root when none is open.
        """
        node = Span(
            name=name,
            started=time.time(),
            duration=duration,
            attributes=dict(attributes),
        )
        parent = self.current()
        if parent is not None:
            parent.children.append(node)
        else:
            with self._lock:
                self._roots.append(node)
        return node

    def tree(self) -> List[Dict[str, object]]:
        """The completed span tree as JSON-native dicts (manifest form)."""
        return [span.as_dict() for span in self.roots]


#: The tracer with the innermost open span in this context (see
#: :func:`active_span`).
_ACTIVE: "ContextVar[Optional[Tracer]]" = ContextVar(
    "repro_active_tracer", default=None
)


def active_span(name: str, **attributes: object):
    """A span under the active tracer's innermost open span, or a no-op
    context (yielding None) when no tracer has a span open."""
    return span_or_null(_ACTIVE.get(), name, **attributes)


def span_or_null(tracer: Optional[Tracer], name: str, **attributes: object):
    """``tracer.span(...)`` when tracing, a no-op context otherwise.

    Lets instrumented code paths (traffic generation, the scan) accept an
    optional tracer without branching at every site.
    """
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, **attributes)


def _format_attributes(attributes: Dict[str, object]) -> str:
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, float):
            value = f"{value:.6g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def render_span_tree(
    spans: List[Dict[str, object]], *, show_attributes: bool = True
) -> str:
    """Render serialised spans as an indented tree with durations.

    >>> print(render_span_tree([{"name": "run", "duration": 1.5,
    ...     "children": [{"name": "scan", "duration": 1.0}]}],
    ...     show_attributes=False))
    run                                                  1.500s
      scan                                               1.000s
    """
    lines: List[str] = []

    def walk(record: Dict[str, object], depth: int) -> None:
        name = str(record.get("name", "?"))
        duration = float(record.get("duration", 0.0))
        label = "  " * depth + name
        line = f"{label:<48} {duration:9.3f}s"
        if record.get("status") == "error":
            line += f"  !! {record.get('error', 'error')}"
        lines.append(line.rstrip())
        attributes = record.get("attributes") or {}
        if show_attributes and attributes:
            lines.append(
                "  " * (depth + 1) + "· " + _format_attributes(attributes)
            )
        for child in record.get("children", []) or []:
            walk(child, depth + 1)

    for span in spans:
        walk(span, 0)
    return "\n".join(lines)


#: Label of the diff row that charges a root's time no child span covers.
UNATTRIBUTED = "(unattributed)"


def _self_seconds(record: Dict[str, object]) -> float:
    """A span's duration minus its children's: time charged to it alone."""
    children = record.get("children") or []
    return float(record.get("duration", 0.0)) - sum(
        float(child.get("duration", 0.0)) for child in children
    )


def _labelled(spans: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Spans keyed by name; the k-th repeat of a sibling name is ``name [k]``."""
    seen: Dict[str, int] = {}
    labelled: Dict[str, Dict[str, object]] = {}
    for span in spans:
        name = str(span.get("name", "?"))
        seen[name] = seen.get(name, 0) + 1
        labelled[name if seen[name] == 1 else f"{name} [{seen[name]}]"] = span
    return labelled


def _times(record: Optional[Dict[str, object]]) -> Optional[Dict[str, float]]:
    if record is None:
        return None
    return {
        "duration": float(record.get("duration", 0.0)),
        "self": _self_seconds(record),
    }


def _delta(before, after, key: str) -> float:
    return (after[key] if after else 0.0) - (before[key] if before else 0.0)


def diff_span_trees(
    before: List[Dict[str, object]], after: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Align two serialised span trees by their paths of names.

    One row per span in either tree, in pre-order (``before``'s order, then
    spans only ``after`` has), plus an ``(unattributed)`` row closing each
    root: the root's duration minus its children's.  A row carries each
    side's ``duration`` and ``self`` seconds (None where that side lacks
    the span), their changes (a missing side counts as zero), and each
    side's error text when the span failed.
    """
    rows: List[Dict[str, object]] = []

    def walk(path, old: List[Dict[str, object]], new: List[Dict[str, object]]):
        old_by_label, new_by_label = _labelled(old), _labelled(new)
        labels = list(old_by_label) + [
            label for label in new_by_label if label not in old_by_label
        ]
        for label in labels:
            a, b = old_by_label.get(label), new_by_label.get(label)
            times_a, times_b = _times(a), _times(b)
            rows.append({
                "path": path + (label,),
                "before": times_a,
                "after": times_b,
                "delta_duration": _delta(times_a, times_b, "duration"),
                "delta_self": _delta(times_a, times_b, "self"),
                "errors": [
                    f"{side}: {record.get('error') or 'error'}"
                    for side, record in (("A", a), ("B", b))
                    if record is not None and record.get("status") == "error"
                ],
            })
            walk(
                path + (label,),
                (a or {}).get("children") or [],
                (b or {}).get("children") or [],
            )
            if not path:
                # A root's self time is exactly the time no child covers.
                root_a, root_b = (
                    None if times is None else {"duration": times["self"]}
                    for times in (times_a, times_b)
                )
                rows.append({
                    "path": (label, UNATTRIBUTED),
                    "before": root_a,
                    "after": root_b,
                    "delta_duration": _delta(root_a, root_b, "duration"),
                    "delta_self": None,
                    "errors": [],
                })

    walk((), before, after)
    return rows


def render_span_diff(
    before: List[Dict[str, object]], after: List[Dict[str, object]]
) -> str:
    """Render :func:`diff_span_trees` as a table in milliseconds.

    >>> print(render_span_diff(
    ...     [{"name": "run", "duration": 1.0,
    ...       "children": [{"name": "scan", "duration": 0.75}]}],
    ...     [{"name": "run", "duration": 0.5,
    ...       "children": [{"name": "scan", "duration": 0.25}]}]))
    span (ms)                          A total    A self   B total    B self   Δ total    Δ self
    run                                 1000.0     250.0     500.0     250.0    -500.0      +0.0
      scan                               750.0     750.0     250.0     250.0    -500.0    -500.0
      (unattributed)                     250.0               250.0                +0.0
    """

    def cell(value: Optional[float], signed: bool = False) -> str:
        if value is None:
            return f"{'':>9}"
        millis = round(value * 1e3, 1) + 0.0  # no "-0.0" from float noise
        return f"{millis:+9.1f}" if signed else f"{millis:9.1f}"

    def side(times: Optional[Dict[str, float]]) -> str:
        if times is None:
            return f"{'-':>9} {'-':>9}"
        return f"{cell(times['duration'])} {cell(times.get('self'))}"

    header = ["A total", "A self", "B total", "B self", "Δ total", "Δ self"]
    lines = [f"{'span (ms)':<32} " + " ".join(f"{h:>9}" for h in header)]
    for row in diff_span_trees(before, after):
        path = row["path"]
        label = "  " * (len(path) - 1) + path[-1]
        line = (
            f"{label:<32} {side(row['before'])} {side(row['after'])} "
            f"{cell(row['delta_duration'], True)} "
            f"{cell(row['delta_self'], True)}"
        )
        if row["before"] is None:
            line += "  (only in B)"
        elif row["after"] is None:
            line += "  (only in A)"
        for error in row["errors"]:
            line += f"  !! {error}"
        lines.append(line.rstrip())
    return "\n".join(lines)
