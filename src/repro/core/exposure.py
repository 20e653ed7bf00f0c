"""Mitigated vs unmitigated exposure over time (Section 6.2.1).

Two views of the same segmentation:

* :func:`unique_cve_bins` — Figure 6: in each 5-day bin after publication,
  how many *distinct* CVEs were targeted, split by whether an IDS rule was
  deployed during that bin;
* :func:`exposure_cdf` — Figure 7: the cumulative count of exploit
  *events* since publication, split by whether the matched signature was
  already deployed when the traffic arrived.

Finding 12's headline — 50% of unmitigated exposure lands within 30 days of
publication — falls out of the unmitigated CDF.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.lifecycle.events import CveTimeline, D, P
from repro.lifecycle.exploit_events import ExploitEvent
from repro.util.stats import Ecdf, bin_edges
from repro.util.timeutil import to_days


@dataclass(frozen=True)
class CveBin(object):
    """One Figure 6 bar: a 5-day bin's distinct-CVE counts."""

    bin_start_days: float
    mitigated_cves: int
    unmitigated_cves: int

    @property
    def total(self) -> int:
        return self.mitigated_cves + self.unmitigated_cves


def _publication_anchors(
    timelines: Mapping[str, CveTimeline],
) -> Dict[str, Tuple[datetime, Optional[float]]]:
    """Each CVE's P and its D − P gap in days (None when D is unknown).

    Only timelines with a known P appear.  Resolving these once per CVE
    leaves the per-event loops of Figures 4, 6 and 7 one dict lookup and
    one :func:`to_days` each; day gaps keep ``to_days``'s exact
    ``total_seconds() / 86400.0`` arithmetic (the value-identity rule of
    :mod:`repro.store.kernels`).
    """
    anchors: Dict[str, Tuple[datetime, Optional[float]]] = {}
    for cve_id, timeline in timelines.items():
        published = timeline.time(P)
        if published is None:
            continue
        deployed = timeline.time(D)
        gap = None if deployed is None else to_days(deployed - published)
        anchors[cve_id] = (published, gap)
    return anchors


def unique_cve_bins(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
    *,
    bin_days: float = 5.0,
    lo_days: float = -60.0,
    hi_days: float = 400.0,
) -> List[CveBin]:
    """Distinct targeted CVEs per publication-relative bin (Figure 6).

    Following the caption — "CVEs are separated based on whether an IDS
    rule is available during that bin" — a CVE counts as *mitigated* in a
    bin when its rule deployment D falls before the bin's end, regardless
    of individual event flags.  Bins are keyed by index over the edges
    :func:`~repro.util.stats.bin_counts` uses
    (:func:`~repro.util.stats.bin_edges`), so any ``bin_days`` covers
    ``[lo_days, hi_days)`` without drift.
    """
    edges = bin_edges(bin_width=bin_days, lo=lo_days, hi=hi_days)
    labels = np.round(edges[:-1], 12).tolist()  # bin_counts' labels
    bounds = edges.tolist()
    anchors = _publication_anchors(timelines)
    cves_per_bin: List[Set[str]] = [set() for _ in labels]
    for event in events:
        anchor = anchors.get(event.cve_id)
        if anchor is None:
            continue
        days = to_days(event.timestamp - anchor[0])
        if lo_days <= days < hi_days:
            cves_per_bin[bisect_right(bounds, days) - 1].add(event.cve_id)
    bins: List[CveBin] = []
    for label, end, cves in zip(labels, bounds[1:], cves_per_bin):
        gaps = [anchors[cve_id][1] for cve_id in cves]
        mitigated = sum(1 for gap in gaps if gap is not None and gap < end)
        bins.append(
            CveBin(
                bin_start_days=label,
                mitigated_cves=mitigated,
                unmitigated_cves=len(cves) - mitigated,
            )
        )
    return bins


def exposure_cdf(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
) -> Tuple[Ecdf, Ecdf]:
    """(mitigated, unmitigated) CDFs of events over days since publication
    (Figure 7)."""
    anchors = _publication_anchors(timelines)
    mitigated: List[float] = []
    unmitigated: List[float] = []
    for event in events:
        anchor = anchors.get(event.cve_id)
        if anchor is not None:
            days = to_days(event.timestamp - anchor[0])
            (mitigated if event.mitigated else unmitigated).append(days)
    return Ecdf.from_values(mitigated), Ecdf.from_values(unmitigated)


def mitigated_share(events: Iterable[ExploitEvent]) -> float:
    """Fraction of exploit events arriving after their signature deployed
    (the paper's "exploit traffic is prevented 95% of the time")."""
    events = list(events)
    if not events:
        raise ValueError("no exploit events")
    return sum(1 for event in events if event.mitigated) / len(events)


def unmitigated_half_life_days(
    events: Iterable[ExploitEvent],
    timelines: Mapping[str, CveTimeline],
) -> float:
    """Days after publication by which half the unmitigated exposure has
    occurred (Finding 12: ~30 days)."""
    _, unmitigated = exposure_cdf(events, timelines)
    if unmitigated.n == 0:
        raise ValueError("no unmitigated events")
    return unmitigated.quantile(0.5)
