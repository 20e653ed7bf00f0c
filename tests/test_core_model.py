"""Tests for the CERT model core: desiderata, histories, skill, per-event,
windows, hypothetical, exposure."""

import signal
from contextlib import contextmanager
from datetime import timedelta
from fractions import Fraction
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trends import events_relative_to_publication

from repro.core.desiderata import (
    DESIDERATA,
    Desideratum,
    OrderingRelation,
    desiderata_matrix,
    desideratum,
    relation,
)
from repro.core.exposure import (
    CveBin,
    exposure_cdf,
    mitigated_share,
    unique_cve_bins,
    unmitigated_half_life_days,
)
from repro.core.histories import (
    HOUSEHOLDER_SPRING_MODEL,
    THIS_WORK_MODEL,
    baseline_frequencies,
    enumerate_histories,
    simulate_history,
)
from repro.core.hypothetical import ids_vendor_inclusion_experiment, shift_timelines
from repro.core.perevent import per_event_satisfaction
from repro.core.skill import (
    PAPER_BASELINES,
    SkillReport,
    compute_skill,
    mean_skill,
    skill,
    skill_table,
)
from repro.core.windows import (
    delta_series,
    narrow_violations,
    shifted_satisfaction,
    violation_rate,
    window_cdf,
)
from repro.lifecycle.events import A, CveTimeline, D, F, LifecycleEvent, P, V, X
from repro.lifecycle.exploit_events import ExploitEvent
from repro.util.rng import derive_rng
from repro.util.stats import Ecdf, bin_counts
from repro.util.timeutil import to_days, utc

T0 = utc(2022, 1, 1)


def _timeline(cve="CVE-X", **offsets_days):
    timeline = CveTimeline(cve_id=cve)
    for letter, days in offsets_days.items():
        event = LifecycleEvent.from_letter(letter)
        timeline.set(event, None if days is None else T0 + timedelta(days=days))
    return timeline


class TestDesiderata:
    def test_nine_desiderata(self):
        assert len(DESIDERATA) == 9
        labels = [d.label for d in DESIDERATA]
        assert labels[0] == "V < A"
        assert labels[-1] == "X < A"

    def test_lookup_by_label(self):
        assert desideratum("D < A").second is A
        assert desideratum("D<A").first is D
        with pytest.raises(KeyError):
            desideratum("Z < Q")

    def test_satisfied_by(self):
        timeline = _timeline(D=0, A=5)
        assert desideratum("D < A").satisfied_by(timeline) is True
        assert desideratum("X < A").satisfied_by(timeline) is None

    def test_matrix_shapes(self):
        for which in ("householder-spring", "this-work"):
            rows = desiderata_matrix(which)
            assert len(rows) == 7
            assert all(len(row) == 7 for row in rows)
        with pytest.raises(KeyError):
            desiderata_matrix("other")

    def test_matrix_contents_match_paper(self):
        assert relation(V, F) is OrderingRelation.REQUIRED
        assert relation(P, A) is OrderingRelation.DESIRED
        assert relation(A, V) is OrderingRelation.UNDESIRED
        # This work: public knowledge implies vendor knowledge.
        assert relation(V, P, "this-work") is OrderingRelation.REQUIRED
        assert relation(P, X, "this-work") is OrderingRelation.REQUIRED
        assert relation(V, P) is OrderingRelation.DESIRED


class TestHistories:
    def test_admissible_history_counts(self):
        assert len(enumerate_histories(HOUSEHOLDER_SPRING_MODEL)) == 120
        assert len(enumerate_histories(THIS_WORK_MODEL)) == 36

    def test_probabilities_sum_to_one(self):
        for model in (HOUSEHOLDER_SPRING_MODEL, THIS_WORK_MODEL):
            total = sum(p for _, p in enumerate_histories(model))
            assert total == Fraction(1)

    def test_all_histories_admissible(self):
        for model in (HOUSEHOLDER_SPRING_MODEL, THIS_WORK_MODEL):
            for history, probability in enumerate_histories(model):
                assert model.is_admissible(history)
                assert probability > 0

    def test_required_orderings_hold(self):
        for history, _ in enumerate_histories(HOUSEHOLDER_SPRING_MODEL):
            assert history.index(V) < history.index(F) < history.index(D)

    def test_this_work_adds_public_orderings(self):
        for history, _ in enumerate_histories(THIS_WORK_MODEL):
            assert history.index(V) < history.index(P) < history.index(X)

    def test_baselines_bounded_and_complementary(self):
        baselines = baseline_frequencies()
        for desid, frequency in baselines.items():
            assert 0 < frequency < 1
        # X and A are symmetric under the H&S model.
        xa = baselines[desideratum("X < A")]
        assert xa == Fraction(1, 2)

    def test_d_desiderata_hardest(self):
        baselines = baseline_frequencies()
        assert baselines[desideratum("D < P")] < baselines[desideratum("F < P")]
        assert baselines[desideratum("D < A")] < baselines[desideratum("F < A")]

    def test_monte_carlo_agrees_with_exact(self):
        rng = derive_rng(42, "mc")
        draws = [simulate_history(rng) for _ in range(4000)]
        exact = baseline_frequencies()[desideratum("D < P")]
        observed = sum(
            1 for h in draws if h.index(D) < h.index(P)
        ) / len(draws)
        assert observed == pytest.approx(float(exact), abs=0.03)

    def test_simulated_histories_admissible(self):
        rng = derive_rng(43, "mc")
        for _ in range(100):
            history = simulate_history(rng, THIS_WORK_MODEL)
            assert THIS_WORK_MODEL.is_admissible(history)


class TestSkill:
    def test_skill_formula(self):
        assert skill(0.5, 0.5) == 0.0
        assert skill(1.0, 0.25) == 1.0
        assert skill(0.0, 0.5) == -1.0
        assert skill(0.75, 0.5) == pytest.approx(0.5)

    def test_skill_validation(self):
        with pytest.raises(ValueError):
            skill(1.5, 0.5)
        with pytest.raises(ValueError):
            skill(0.5, 1.0)

    def test_compute_skill_excludes_unknown(self):
        timelines = [
            _timeline(cve="a", D=0, A=5),
            _timeline(cve="b", D=3, A=1),
            _timeline(cve="c", A=1),  # no D: excluded from D < A
        ]
        reports = {r.desideratum.label: r for r in compute_skill(timelines)}
        da = reports["D < A"]
        assert da.evaluated == 2
        assert da.satisfied == 1
        assert da.observed == 0.5

    def test_paper_baselines_used_by_default(self):
        reports = compute_skill([_timeline(D=0, A=5)])
        by_label = {r.desideratum.label: r for r in reports}
        assert by_label["D < A"].baseline == PAPER_BASELINES["D < A"]

    def test_model_baselines_option(self):
        reports = compute_skill(
            [_timeline(D=0, A=5)], model=HOUSEHOLDER_SPRING_MODEL
        )
        by_label = {r.desideratum.label: r for r in reports}
        exact = float(baseline_frequencies()[desideratum("D < A")])
        assert by_label["D < A"].baseline == pytest.approx(exact)

    def test_mean_skill_and_table(self):
        timelines = [_timeline(V=0, F=1, D=1, P=2, X=3, A=4)]
        reports = compute_skill(timelines)
        assert mean_skill(reports) > 0.9  # perfect ordering
        rows = skill_table(reports)
        assert len(rows) == 9

    def test_empty_evaluation_raises_on_observed(self):
        reports = compute_skill([_timeline(P=0)])
        da = [r for r in reports if r.desideratum.label == "D < A"][0]
        with pytest.raises(ValueError):
            _ = da.observed


class TestPerEvent:
    def _events(self, cve, days):
        return [
            ExploitEvent(
                cve_id=cve, timestamp=T0 + timedelta(days=d), sid=1,
                session_id=i, src_ip=1, dst_ip=2, dst_port=80,
                mitigated=True,
            )
            for i, d in enumerate(days)
        ]

    def test_event_timestamp_replaces_a(self):
        timelines = {"CVE-X": _timeline(cve="CVE-X", V=0, F=1, D=1, P=2, X=3, A=4)}
        # 1 event before D, 3 events after.
        events = self._events("CVE-X", [0.5, 5, 6, 7])
        reports = {r.desideratum.label: r for r in
                   per_event_satisfaction(events, timelines)}
        assert reports["D < A"].observed == 0.75
        assert reports["D < A"].evaluated == 4

    def test_non_attack_desiderata_weighted_by_events(self):
        timelines = {
            "good": _timeline(cve="good", F=0, P=1, D=0, X=2, A=3),
            "bad": _timeline(cve="bad", F=5, P=1, D=5, X=2, A=3),
        }
        events = self._events("good", [4]) + self._events("bad", [4, 5, 6])
        reports = {r.desideratum.label: r for r in
                   per_event_satisfaction(events, timelines)}
        assert reports["F < P"].observed == 0.25  # 1 of 4 events

    def test_unknown_cve_skipped(self):
        events = self._events("CVE-UNKNOWN", [1])
        reports = per_event_satisfaction(events, {})
        assert all(r.evaluated == 0 for r in reports)


class TestWindows:
    def _timelines(self):
        return [
            _timeline(cve="a", D=0, A=5, P=1),
            _timeline(cve="b", D=10, A=2, P=1),
            _timeline(cve="c", D=3, A=None, P=1),
        ]

    def test_delta_series_skips_unknown(self):
        gaps = delta_series(self._timelines(), A, D)
        assert sorted(gaps) == [-8.0, 5.0]

    def test_violation_rate_is_cdf_at_zero(self):
        cdf = window_cdf(self._timelines(), A, D)
        assert violation_rate(cdf) == 0.5

    def test_shifted_satisfaction_improves(self):
        cdf = window_cdf(self._timelines(), A, D)
        assert shifted_satisfaction(cdf, 0.0) == 0.5
        assert shifted_satisfaction(cdf, 10.0) == 1.0

    def test_narrow_violations(self):
        timelines = [
            _timeline(cve="n", D=2, A=0),    # violation by 2 days (narrow)
            _timeline(cve="w", D=100, A=0),  # violation by 100 days (wide)
            _timeline(cve="s", D=0, A=1),    # satisfied
        ]
        narrow, total = narrow_violations(timelines, A, D, within_days=30)
        assert (narrow, total) == (1, 2)


class TestHypothetical:
    def _timelines(self):
        return {
            # Rule 5 days after publication, attack at day 2: shifting D to
            # P flips the desideratum.
            "flip": _timeline(cve="flip", P=0, D=5, F=5, A=2),
            # Rule 60 days after publication: outside the inclusion window.
            "far": _timeline(cve="far", P=0, D=60, F=60, A=2),
            # Already satisfied.
            "ok": _timeline(cve="ok", P=0, D=1, F=1, A=30),
        }

    def test_shift_only_within_window(self):
        shifted, count = shift_timelines(self._timelines())
        assert count == 2  # "flip" and "ok" are within 30 days
        assert shifted["flip"].time(D) == shifted["flip"].time(P)
        assert shifted["far"].time(D) == self._timelines()["far"].time(D)

    def test_experiment_improves_satisfaction(self):
        outcome = ids_vendor_inclusion_experiment(self._timelines())
        assert outcome.satisfied_before == pytest.approx(1 / 3)
        assert outcome.satisfied_after == pytest.approx(2 / 3)
        assert outcome.skill_after > outcome.skill_before

    def test_prepublication_rules_untouched(self):
        timelines = {"early": _timeline(cve="early", P=0, D=-5, F=-5, A=2)}
        shifted, count = shift_timelines(timelines)
        assert count == 0
        assert shifted["early"].time(D) == timelines["early"].time(D)


class TestExposure:
    def _world(self):
        timelines = {
            "cve-fast": _timeline(cve="cve-fast", P=0, D=1),
            "cve-slow": _timeline(cve="cve-slow", P=0, D=50),
        }
        events = []
        for i, day in enumerate([2, 3, 40, 60]):
            events.append(
                ExploitEvent(
                    cve_id="cve-fast", timestamp=T0 + timedelta(days=day),
                    sid=1, session_id=i, src_ip=1, dst_ip=2, dst_port=80,
                    mitigated=True,
                )
            )
        for i, day in enumerate([5, 10, 80]):
            events.append(
                ExploitEvent(
                    cve_id="cve-slow", timestamp=T0 + timedelta(days=day),
                    sid=2, session_id=10 + i, src_ip=1, dst_ip=2, dst_port=80,
                    mitigated=(day >= 50),
                )
            )
        return events, timelines

    def test_mitigated_share(self):
        events, _ = self._world()
        assert mitigated_share(events) == pytest.approx(5 / 7)
        with pytest.raises(ValueError):
            mitigated_share([])

    def test_exposure_cdf_partition(self):
        events, timelines = self._world()
        mitigated, unmitigated = exposure_cdf(events, timelines)
        assert mitigated.n == 5
        assert unmitigated.n == 2

    def test_unmitigated_half_life(self):
        events, timelines = self._world()
        # Unmitigated events at days 5 and 10 -> median 5.
        assert unmitigated_half_life_days(events, timelines) == 5.0

    def test_unique_cve_bins_rule_availability(self):
        events, timelines = self._world()
        bins = unique_cve_bins(events, timelines, bin_days=5.0,
                               lo_days=0.0, hi_days=100.0)
        first = [b for b in bins if b.bin_start_days == 0.0][0]
        # Day 2-3 events: cve-fast has rule by day 5 (bin end) -> mitigated.
        assert first.mitigated_cves == 1
        slow_bin = [b for b in bins if b.bin_start_days == 5.0][0]
        # cve-slow's rule (day 50) not available during bin [5, 10).
        assert slow_bin.unmitigated_cves == 1

    def test_rule_deployed_exactly_at_bin_end_is_not_available(self):
        # "Available during the bin" is strict: D − P == bin end misses it.
        timelines = {"cve-edge": _timeline(cve="cve-edge", P=0, D=5)}
        events = [
            ExploitEvent(
                cve_id="cve-edge", timestamp=T0 + timedelta(days=day), sid=1,
                session_id=i, src_ip=1, dst_ip=2, dst_port=80, mitigated=False,
            )
            for i, day in enumerate([2, 7])
        ]
        bins = {b.bin_start_days: b for b in unique_cve_bins(events, timelines)}
        assert (bins[0.0].mitigated_cves, bins[0.0].unmitigated_cves) == (0, 1)
        assert (bins[5.0].mitigated_cves, bins[5.0].unmitigated_cves) == (1, 0)
        assert list(bins.values()) == _oracle_unique_cve_bins(events, timelines)


class TestUniqueCveBinsEdges:
    """Bins are keyed by index over :func:`bin_edges`, not by float sums."""

    @staticmethod
    def _one_cve_per_day(days):
        timelines, events = {}, []
        for i, day in enumerate(days):
            cve = f"CVE-{i}"
            timelines[cve] = _timeline(cve=cve, P=0, D=0)
            events.append(
                ExploitEvent(
                    cve_id=cve, timestamp=T0 + timedelta(days=day), sid=1,
                    session_id=i, src_ip=1, dst_ip=2, dst_port=80,
                    mitigated=True,
                )
            )
        return events, timelines

    def test_non_representable_width_counts_every_in_range_event(self):
        # A float-sum key (lo + w * k) never matched the accumulated bin
        # starts for w = 0.7: 99% of in-range events were dropped and the
        # last label drifted to 399.89999999999606.
        events, timelines = self._one_cve_per_day(range(-60, 400))
        bins = unique_cve_bins(events, timelines, bin_days=0.7)
        assert sum(b.total for b in bins) == len(events)
        assert bins[0].bin_start_days == -60.0
        assert bins[-1].bin_start_days == 399.9
        assert [b.bin_start_days for b in bins] == [
            edge for edge, _ in bin_counts([], bin_width=0.7, lo=-60.0, hi=400.0)
        ]

    def test_zero_width_raises_instead_of_hanging(self):
        with _time_limit(1.0):
            with pytest.raises(ValueError):
                unique_cve_bins([], {}, bin_days=0.0)
            with pytest.raises(ValueError):
                unique_cve_bins([], {}, bin_days=-5.0)

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            unique_cve_bins([], {}, lo_days=10.0, hi_days=10.0)
        with pytest.raises(ValueError):
            unique_cve_bins([], {}, lo_days=10.0, hi_days=0.0)


@contextmanager
def _time_limit(seconds):
    """Fail the enclosed block with TimeoutError after ``seconds``."""

    def _expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- the per-event loops before per-CVE grouping, kept verbatim as oracles --


def _oracle_per_event_satisfaction(events, timelines, *, baselines=None):
    resolved = dict(baselines) if baselines is not None else dict(PAPER_BASELINES)
    counts: Dict[str, List[int]] = {
        desideratum.label: [0, 0] for desideratum in DESIDERATA
    }
    for event in events:
        timeline = timelines.get(event.cve_id)
        if timeline is None:
            continue
        for desideratum in DESIDERATA:
            if desideratum.second is A:
                other = timeline.time(desideratum.first)
                if other is None:
                    continue
                outcome = other < event.timestamp
            else:
                cve_outcome = desideratum.satisfied_by(timeline)
                if cve_outcome is None:
                    continue
                outcome = cve_outcome
            bucket = counts[desideratum.label]
            bucket[1] += 1
            bucket[0] += int(outcome)
    return [
        SkillReport(
            desideratum=desideratum,
            satisfied=counts[desideratum.label][0],
            evaluated=counts[desideratum.label][1],
            baseline=resolved[desideratum.label],
        )
        for desideratum in DESIDERATA
    ]


def _oracle_days_since_publication(event, timelines):
    timeline = timelines.get(event.cve_id)
    if timeline is None:
        return None
    published = timeline.time(P)
    if published is None:
        return None
    return to_days(event.timestamp - published)


def _oracle_unique_cve_bins(
    events, timelines, *, bin_days=5.0, lo_days=-60.0, hi_days=400.0
):
    per_bin = {}
    for event in events:
        days = _oracle_days_since_publication(event, timelines)
        if days is None or not lo_days <= days < hi_days:
            continue
        bin_start = lo_days + bin_days * int((days - lo_days) // bin_days)
        cves = per_bin.setdefault(bin_start, {})
        timeline = timelines[event.cve_id]
        deployed = timeline.time(D)
        published = timeline.time(P)
        rule_available = (
            deployed is not None
            and published is not None
            and to_days(deployed - published) < bin_start + bin_days
        )
        cves[event.cve_id] = rule_available
    bins = []
    start = lo_days
    while start < hi_days:
        cves = per_bin.get(start, {})
        mitigated = sum(1 for flag in cves.values() if flag)
        bins.append(
            CveBin(
                bin_start_days=start,
                mitigated_cves=mitigated,
                unmitigated_cves=len(cves) - mitigated,
            )
        )
        start += bin_days
    return bins


def _oracle_exposure_cdf(events, timelines):
    mitigated = []
    unmitigated = []
    for event in events:
        days = _oracle_days_since_publication(event, timelines)
        if days is None:
            continue
        (mitigated if event.mitigated else unmitigated).append(days)
    return Ecdf.from_values(mitigated), Ecdf.from_values(unmitigated)


def _oracle_events_relative_to_publication(
    events, timelines, *, bin_days=7.0, lo_days=-200.0, hi_days=500.0
):
    offsets = []
    for event in events:
        timeline = timelines.get(event.cve_id)
        if timeline is None:
            continue
        published = timeline.time(P)
        if published is None:
            continue
        offsets.append(to_days(event.timestamp - published))
    return bin_counts(offsets, bin_width=bin_days, lo=lo_days, hi=hi_days)


# -- strategies: few CVEs, instants on a coarse grid so ties are common -----

_CVES = ("CVE-A", "CVE-B", "CVE-C")
#: Events of this CVE never get a timeline, and may carry no timestamp.
_ORPHAN = "CVE-ORPHAN"


def _instants(days):
    """Instants ``days`` apart-ish: whole days, ±1 µs nudges and half days,
    so equal timestamps and near-edge day gaps both occur."""
    return st.builds(
        lambda day, micros: T0 + timedelta(days=day, microseconds=micros),
        days,
        st.sampled_from([0, 0, 0, 1, -1, 43_200_000_000]),
    )


def _worlds(days):
    instants = _instants(days)
    lifecycle = st.dictionaries(
        st.sampled_from(list(LifecycleEvent)), st.one_of(st.none(), instants)
    )
    timelines = st.dictionaries(st.sampled_from(_CVES), lifecycle).map(
        lambda spec: {
            cve: CveTimeline(cve_id=cve, times=dict(times))
            for cve, times in spec.items()
        }
    )
    event_specs = st.one_of(
        st.tuples(st.sampled_from(_CVES), instants, st.booleans()),
        st.tuples(st.just(_ORPHAN), st.one_of(st.none(), instants), st.booleans()),
    )
    events = st.lists(event_specs, max_size=40).map(
        lambda specs: [
            ExploitEvent(
                cve_id=cve, timestamp=when, sid=1, session_id=i, src_ip=1,
                dst_ip=2, dst_port=80, mitigated=mitigated,
            )
            for i, (cve, when, mitigated) in enumerate(specs)
        ]
    )
    return st.tuples(events, timelines)


def _cdf_values(cdf):
    return cdf.xs.tolist(), cdf.ps.tolist()


class TestGroupedEqualsPerEventOracle:
    """The per-CVE rewrites return exactly what the per-event loops did."""

    @settings(max_examples=300, deadline=None)
    @given(_worlds(st.integers(-3, 3)))
    def test_per_event_satisfaction(self, world):
        events, timelines = world
        expected = _oracle_per_event_satisfaction(events, timelines)
        assert per_event_satisfaction(events, timelines) == expected
        for report, oracle in zip(
            per_event_satisfaction(events, timelines), expected
        ):
            assert type(report.satisfied) is type(oracle.satisfied) is int

    @settings(max_examples=300, deadline=None)
    @given(_worlds(st.sampled_from([-65, -60, -55, -5, 0, 5, 10, 395, 400, 405])))
    def test_exposure_and_bins(self, world):
        # Few day offsets, all on or next to the default Figure 6 bin edges
        # and range ends: events and D − P gaps land on (and 1 µs either
        # side of) a bin boundary often.
        events, timelines = world
        mitigated, unmitigated = exposure_cdf(events, timelines)
        oracle_mitigated, oracle_unmitigated = _oracle_exposure_cdf(
            events, timelines
        )
        assert _cdf_values(mitigated) == _cdf_values(oracle_mitigated)
        assert _cdf_values(unmitigated) == _cdf_values(oracle_unmitigated)
        assert unique_cve_bins(events, timelines) == _oracle_unique_cve_bins(
            events, timelines
        )
        assert events_relative_to_publication(
            events, timelines
        ) == _oracle_events_relative_to_publication(events, timelines)

    def test_study_run(self, study):
        events, timelines = study.kept_events, study.timelines
        assert per_event_satisfaction(
            events, timelines
        ) == _oracle_per_event_satisfaction(events, timelines)
        for new, old in zip(
            exposure_cdf(events, timelines), _oracle_exposure_cdf(events, timelines)
        ):
            assert _cdf_values(new) == _cdf_values(old)
        assert unique_cve_bins(events, timelines) == _oracle_unique_cve_bins(
            events, timelines
        )
        assert events_relative_to_publication(
            events, timelines
        ) == _oracle_events_relative_to_publication(events, timelines)
