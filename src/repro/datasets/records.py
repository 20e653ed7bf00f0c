"""Record schemata for the six data sources (paper Table 2).

Each record type mirrors the fields the paper extracts from the real feed:

* :class:`CveRecord` — NVD: publication date (P) and severity.
* :class:`RuleHistoryEntry` — Talos/Snort rule availability history (F, D).
* :class:`TalosReport` — Talos vulnerability report history (V for
  Talos-disclosed CVEs).
* :class:`ExploitEvidence` — Suciu et al.: earliest public exploit (X) and
  expected-exploitability score.
* :class:`KevEntry` — CISA Known Exploited Vulnerabilities (comparative A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional, Tuple


@dataclass(frozen=True, init=False)
class CveRecord:
    """An NVD CVE entry (the study's source for P and severity).

    The constructor is written out rather than generated: a generated frozen
    ``__init__`` stores each field through ``object.__setattr__``, which
    doubles the cost of the 20k-record Figure 2 background built on every
    study.  Storing into ``__dict__`` leaves the instance exactly as the
    generated one would, and assignment after construction still raises
    ``FrozenInstanceError``.
    """

    cve_id: str
    published: datetime
    cvss: float
    description: str = ""
    vendor: str = ""
    cwe: str = ""
    assigner: str = ""

    def __init__(
        self,
        cve_id: str,
        published: datetime,
        cvss: float,
        description: str = "",
        vendor: str = "",
        cwe: str = "",
        assigner: str = "",
    ) -> None:
        if not cve_id.startswith("CVE-"):
            raise ValueError(f"malformed CVE id: {cve_id!r}")
        if not 0.0 <= cvss <= 10.0:
            raise ValueError(f"CVSS out of range: {cvss}")
        store = self.__dict__
        store["cve_id"] = cve_id
        store["published"] = published
        store["cvss"] = cvss
        store["description"] = description
        store["vendor"] = vendor
        store["cwe"] = cwe
        store["assigner"] = assigner

    @property
    def year(self) -> int:
        return int(self.cve_id.split("-")[1])


@dataclass(frozen=True)
class RuleHistoryEntry:
    """Publication of one IDS signature in the Talos rule history.

    ``published`` is when the rule became available (F); the paper models
    deployment (D) as immediate installation of rule updates, so D == F for
    commercial-feed subscribers.  ``delayed_days`` supports modelling the
    30-day registered-user delay the paper footnotes.
    """

    sid: int
    cve_id: str
    published: datetime
    message: str = ""
    ports: Tuple[int, ...] = ()
    delayed_days: int = 0

    @property
    def deployed(self) -> datetime:
        """Deployment time under the immediate-installation assumption."""
        from datetime import timedelta

        return self.published + timedelta(days=self.delayed_days)


@dataclass(frozen=True)
class TalosReport:
    """A Talos vulnerability report (vendor-disclosure evidence for V)."""

    report_id: str
    cve_id: str
    disclosed: datetime
    reported_to_vendor: Optional[datetime] = None


@dataclass(frozen=True)
class ExploitEvidence:
    """Suciu et al. exploit-availability evidence for one CVE.

    ``exploit_public`` is the earliest crawled public exploit artifact (X);
    ``expected_exploitability`` is their 0-100 likelihood score.
    """

    cve_id: str
    exploit_public: Optional[datetime]
    expected_exploitability: Optional[float] = None

    def __post_init__(self) -> None:
        score = self.expected_exploitability
        if score is not None and not 0.0 <= score <= 100.0:
            raise ValueError(f"exploitability score out of range: {score}")


@dataclass(frozen=True)
class KevEntry:
    """A CISA Known Exploited Vulnerabilities catalog entry.

    ``published`` is the CVE's NVD publication date (KEV itself doesn't
    carry it; the study joins against NVD, and the synthetic builder
    records it directly so Figure 10's A − P analysis can run without a
    full synthetic-NVD join).
    """

    cve_id: str
    date_added: datetime
    published: Optional[datetime] = None
    vendor: str = ""
    product: str = ""
