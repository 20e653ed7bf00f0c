"""Synthetic NVD feed.

Two products:

* :func:`studied_cve_records` — NVD records for the 63-CVE study set, built
  from the Appendix E seed table plus the categorical catalog.  Publication
  dates and severities are the paper's.
* :func:`background_population` — a synthetic "all CVEs published 2021-2023"
  population for Figure 2's impact-CDF comparison.  The paper compares the
  studied set (median CVSS 9.8) and KEV against the full NVD population;
  only the *severity distribution* of that population matters, so we sample
  CVSS scores from the well-known NVD severity histogram (mode in the
  7.0-8.0 HIGH band, thin CRITICAL tail).
"""

from __future__ import annotations

from datetime import datetime
from itertools import repeat
from typing import List, Optional

import numpy as np

from repro.datasets.catalog import CVE_PROFILES
from repro.datasets.records import CveRecord
from repro.datasets.seed_cves import SEED_CVES, STUDY_WINDOW
from repro.util.rng import derive_rng
from repro.util.timeutil import TimeWindow

#: NVD CVSS v3 base-score histogram (bucket lower edge -> weight).  Values
#: approximate the published NVD distribution for 2021-2023: LOW is rare,
#: MEDIUM and HIGH dominate, a modest CRITICAL share.
_CVSS_BUCKETS = [
    (2.0, 0.01),
    (3.0, 0.02),
    (4.0, 0.08),
    (5.0, 0.16),
    (6.0, 0.20),
    (7.0, 0.24),
    (8.0, 0.13),
    (9.0, 0.13),
    (9.8, 0.03),
]


def studied_cve_records() -> List[CveRecord]:
    """NVD records for the studied CVEs (P dates and CVSS from the paper)."""
    records = []
    for seed in SEED_CVES:
        profile = CVE_PROFILES[seed.cve_id]
        records.append(
            CveRecord(
                cve_id=seed.cve_id,
                published=seed.published,
                cvss=seed.impact,
                description=seed.description,
                vendor=profile.vendor,
                cwe=profile.cwe,
                assigner=profile.assigner,
            )
        )
    return records


def background_population(
    *,
    seed: int,
    count: int = 20000,
    window: Optional[TimeWindow] = None,
) -> List[CveRecord]:
    """Synthetic full-NVD population published during the study window.

    The real window saw ~50k CVEs; ``count`` defaults lower because only the
    severity CDF is consumed (Figure 2) and it converges quickly.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    window = window or STUDY_WINDOW
    rng = derive_rng(seed, "nvd-background")
    edges = [edge for edge, _ in _CVSS_BUCKETS]
    weights = [weight for _, weight in _CVSS_BUCKETS]
    total = sum(weights)
    probabilities = [weight / total for weight in weights]
    bucket_choices = rng.choice(len(edges), size=count, p=probabilities)
    offsets = rng.uniform(0.0, window.duration.total_seconds(), size=count)
    # One vector draw consumes the generator exactly as a per-record scalar
    # ``rng.uniform(low, high)`` loop would: element i is low_i + (high_i -
    # low_i) * u_i with the same u_i, so the scores are bit-identical.
    highs = edges[1:] + [10.0]
    scores = rng.uniform(
        np.take(edges, bucket_choices), np.take(highs, bucket_choices)
    )
    times = _shifted(window.start, offsets)
    years = times.astype("datetime64[Y]").astype(np.int64) + 1970
    ids = list(map("CVE-%d-9%05d".__mod__, zip(years.tolist(), range(count))))
    published = times.tolist()
    cvss = _round_tenths(scores).tolist()
    # Free the arrays before the records are built, so they do not add to
    # the peak alongside 20k objects.
    del bucket_choices, offsets, scores, times, years
    if window.start.tzinfo is not None:
        tz = window.start.tzinfo
        published = [when.replace(tzinfo=tz) for when in published]
    return list(
        map(CveRecord, ids, published, cvss, repeat("synthetic background CVE"))
    )


def _shifted(start: datetime, seconds: np.ndarray) -> np.ndarray:
    """``start + timedelta(seconds=s)`` for each ``s >= 0``, as ``datetime64[us]``.

    ``timedelta`` keeps the whole seconds exactly and rounds the float
    product ``frac * 1e6`` of the fractional part to whole microseconds,
    half to even; ``modf`` and ``rint`` do the same steps in bulk.
    """
    fractions, whole = np.modf(seconds)
    micros = whole.astype(np.int64) * 1_000_000 + np.rint(
        fractions * 1e6
    ).astype(np.int64)
    base = np.datetime64(start.replace(tzinfo=None), "us")
    return base + micros.astype("timedelta64[us]")


def _round_tenths(scores: np.ndarray) -> np.ndarray:
    """``min(round(x, 1), 10.0)`` for each score, in bulk.

    ``rint(10x) / 10`` is the correctly rounded result unless the float
    product ``10x`` crossed a ``.5`` tie, which it can only do when ``10x``
    lies within a few ulps of one; those rare scores take builtin ``round``.
    """
    tenths = scores * 10.0
    rounded = np.rint(tenths) / 10.0
    near_tie = np.abs(tenths - np.floor(tenths) - 0.5) < 1e-6
    if near_tie.any():
        rounded[near_tie] = [round(x, 1) for x in scores[near_tie].tolist()]
    return np.minimum(rounded, 10.0)
