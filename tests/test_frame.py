"""The binary column frame: malformed-header rejection and codec round trips.

Two halves:

* **Malformed headers.**  A frame (a serve shard, a cache entry file, a
  checkpoint blob) whose header is not a complete object, or whose column
  extents are negative, start inside the header or overlap, must raise
  ``ValueError`` from the reader — never ``KeyError``/``AttributeError``,
  never a column silently sized to "the rest of the file" — and every
  caller must evict it.  The forged frames are rewritten from a real
  shard's header, with the digest recomputed when the layout carries one,
  so each case reaches the check it names.
* **Round trips.**  Hypothesis properties: every record codec decodes to
  exactly what was encoded, through the on-disk bytes.
"""

from __future__ import annotations

import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CheckpointStore, StudyCache
from repro.cache.checkpoint import (
    decode_stage_alerts,
    decode_stage_arrivals,
    decode_stage_store,
    encode_stage_alerts,
    encode_stage_arrivals,
    encode_stage_store,
)
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.ruleset import Alert
from repro.store import ColumnarStudy, ShardStore, load_shard, write_shard
from repro.telescope.collector import CollectionStats
from repro.traffic.arrivals import ScanArrival

_PREFIX = 16  # magic + header length


@pytest.fixture(scope="module")
def packed(study):
    return ColumnarStudy.from_study(study)


def _header(path: Path) -> dict:
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:_PREFIX], "little")
    return json.loads(data[_PREFIX:_PREFIX + hlen])


def _forge(path: Path, mutate) -> None:
    """Rewrite ``path``'s header in place as ``mutate(header)`` returns it.

    The new header is space-padded to the old length so every column
    offset stays valid, and re-digested when the layout has a digest.
    """
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:_PREFIX], "little")
    header = mutate(json.loads(data[_PREFIX:_PREFIX + hlen]))
    if isinstance(header, dict) and "digest" in header:
        from repro.store.frame import _digest, _render

        rest = {key: value for key, value in header.items() if key != "digest"}
        header["digest"] = _digest(_render(rest), data[_PREFIX + hlen:])
    rendered = json.dumps(header, sort_keys=True).encode("utf-8")
    assert len(rendered) <= hlen, "forged header must not grow"
    rendered += b" " * (hlen - len(rendered))
    path.write_bytes(data[:_PREFIX] + rendered + data[_PREFIX + hlen:])


def _column(header: dict, name: str) -> dict:
    return next(d for d in header["columns"] if d["name"] == name)


def _without(key):
    def mutate(header):
        del header[key]
        return header

    return mutate


def _set(name, **fields):
    def mutate(header):
        _column(header, name).update(fields)
        return header

    return mutate


class TestMalformedHeaders:
    """Each case raised KeyError/AttributeError or loaded mis-sized
    columns before the reader validated headers."""

    @pytest.mark.parametrize("key", ["columns", "meta"])
    def test_missing_header_key_is_evicted(self, packed, tmp_path, key):
        store = ShardStore(root=tmp_path)
        path = store.save(packed)
        _forge(path, _without(key))
        with pytest.raises(ValueError, match=f"lacks.*{key}"):
            load_shard(path)
        assert store.load(packed.etag) is None
        assert not path.exists()

    def test_non_object_header_is_evicted(self, packed, tmp_path):
        store = ShardStore(root=tmp_path)
        path = store.save(packed)
        _forge(path, lambda header: [])
        with pytest.raises(ValueError, match="not an object"):
            load_shard(path)
        assert store.load(packed.etag) is None
        assert not path.exists()

    def test_negative_count_rejected(self, packed, tmp_path):
        path = write_shard(packed, tmp_path / "s.shard")
        assert _column(_header(path), "kev_added")["count"] > 0
        _forge(path, _set("kev_added", count=-1))
        with pytest.raises(ValueError, match="count is negative"):
            load_shard(path)

    def test_negative_offset_rejected(self, packed, tmp_path):
        path = write_shard(packed, tmp_path / "s.shard")
        _forge(path, _set("kev_added", offset=-8))
        with pytest.raises(ValueError, match="offset is negative"):
            load_shard(path)

    def test_column_inside_header_rejected(self, packed, tmp_path):
        path = write_shard(packed, tmp_path / "s.shard")
        _forge(path, _set("kev_added", offset=0))
        with pytest.raises(ValueError, match="inside the header"):
            load_shard(path)

    def test_overlapping_columns_rejected(self, packed, tmp_path):
        path = write_shard(packed, tmp_path / "s.shard")
        header = _header(path)
        other = _column(header, "kev_published")["offset"]
        _forge(path, _set("kev_added", offset=other))
        with pytest.raises(ValueError, match="overlaps"):
            load_shard(path)

    def test_shard_for_config_rebuilds_after_eviction(self, tmp_path):
        from repro.analysis.pipeline import StudyConfig
        from repro.store import shard_for_config

        config = StudyConfig.from_scenario(
            "quick", volume_scale=0.005, background_nvd_count=300
        )
        study, built = shard_for_config(config, cache_root=tmp_path)
        assert built
        path = ShardStore(root=tmp_path).path_for(study.etag)
        del study
        _forge(path, _without("columns"))
        again, rebuilt = shard_for_config(config, cache_root=tmp_path)
        assert rebuilt and again.n_alerts > 0

    def test_cache_entry_with_forged_header_is_evicted(self, tmp_path):
        cache = StudyCache(root=tmp_path)
        entry = _save_tiny(cache)
        target = entry / "alerts.frame"
        _forge(target, _without("meta"))
        # Re-sync the manifest so only the frame reader can catch it.
        meta = json.loads((entry / "meta.json").read_text())
        meta["files"]["alerts.frame"]["digest"] = _header(target)["digest"]
        (entry / "meta.json").write_text(json.dumps(meta))
        assert cache.load(_tiny_config()) is None
        assert not entry.exists()
        assert cache.telemetry.integrity_failures == 1

    def test_checkpoint_with_forged_header_is_evicted(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        path = store.save("key", "alerts", encode_stage_alerts(_ALERTS))
        _forge(path, _set("alert_t", offset=0))
        assert store.load("key", "alerts") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()


T0 = datetime(2022, 1, 1)
_ALERTS = [
    Alert(session_id=1, timestamp=T0, sid=58722, cve_id="CVE-2021-44228",
          rule_published=T0 - timedelta(days=20), dst_ip=7, dst_port=80,
          src_ip=9),
    Alert(session_id=2, timestamp=T0, sid=9, cve_id=None,
          rule_published=T0, dst_ip=7, dst_port=443, src_ip=9),
]


def _tiny_config():
    from repro.analysis.pipeline import StudyConfig

    return StudyConfig(volume_scale=0.01, background_per_exploit=0.3,
                       background_nvd_count=500)


def _save_tiny(cache: StudyCache) -> Path:
    store = SessionStore()
    store.append(TcpSession(session_id=1, start=T0, src_ip=9, src_port=1,
                            dst_ip=7, dst_port=80, payload=b"GET /"))
    return cache.save(
        _tiny_config(),
        arrivals=[],
        store=store,
        alerts=_ALERTS,
        collection_stats=CollectionStats(arrivals_routed=1),
        ground_truth={1: None},
    )


# -- round-trip properties ---------------------------------------------------

times = st.datetimes(min_value=datetime(1900, 1, 1), max_value=datetime(2200, 1, 1))
ports = st.sampled_from([0, 65535]) | st.integers(0, 65535)
ips = st.integers(0, 2**32 - 1)
ids = st.integers(0, 2**63 - 1)
payloads = st.sampled_from([b"", b"\x00\xff"]) | st.binary(max_size=64)
cves = st.none() | st.sampled_from(["CVE-2021-44228", "CVE-2022-1388"]) | st.text(
    max_size=12
)


@st.composite
def sessions(draw):
    start = draw(times)
    end = draw(st.none() | st.timedeltas(timedelta(0), timedelta(days=2)).map(
        lambda span: start + span
    ))
    return TcpSession(
        session_id=draw(ids), start=start, end=end, src_ip=draw(ips),
        src_port=draw(ports), dst_ip=draw(ips), dst_port=draw(ports),
        payload=draw(payloads), established=draw(st.booleans()),
    )


arrivals = st.builds(
    ScanArrival,
    timestamp=times, src_ip=ips, src_port=ports, dst_port=ports,
    payload=payloads, truth_cve=cves,
    variant_sid=st.none() | st.integers(0, 2**40),
)
alerts = st.builds(
    Alert,
    session_id=ids, timestamp=times, sid=st.integers(1, 2**40), cve_id=cves,
    rule_published=times, dst_ip=ips, dst_port=ports, src_ip=ips,
)
counters = st.integers(0, 2**40)
stats = st.builds(
    CollectionStats,
    arrivals_routed=counters, sessions_captured=counters,
    tenancies_materialised=counters, arrivals_lost_to_preemption=counters,
    receiving_ips=st.sets(ips, max_size=8), source_ips=st.sets(ips, max_size=8),
)
finite = st.floats(allow_nan=False, allow_infinity=False)


def _through_disk(frame):
    from repro.store.frame import frame_bytes, read_frame

    return read_frame(frame_bytes(frame, schema=7), schema=7)


@settings(max_examples=60, deadline=None)
@given(st.lists(sessions(), max_size=8), stats,
       st.dictionaries(ids, cves, max_size=8))
def test_store_round_trip(session_list, collection, truth):
    store = SessionStore()
    store.extend(session_list)
    frame = _through_disk(encode_stage_store(store, collection, truth))
    loaded, loaded_stats, loaded_truth = decode_stage_store(frame)
    assert list(loaded) == list(store)
    assert loaded_stats == collection
    assert loaded_truth == truth and list(loaded_truth) == list(truth)


@settings(max_examples=60, deadline=None)
@given(st.lists(arrivals, max_size=8))
def test_arrivals_round_trip(arrival_list):
    frame = _through_disk(encode_stage_arrivals(arrival_list))
    assert decode_stage_arrivals(frame) == arrival_list


@settings(max_examples=60, deadline=None)
@given(st.lists(alerts, max_size=8))
def test_alerts_round_trip(alert_list):
    frame = _through_disk(encode_stage_alerts(alert_list))
    assert decode_stage_alerts(frame) == alert_list


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.sampled_from(["uint8", "int16", "int32", "int64"]).flatmap(
        lambda dtype: st.lists(
            st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max), max_size=6
        ).map(lambda values: np.array(values, dtype=dtype))
    ),
    max_size=5,
), st.dictionaries(st.text(max_size=6), st.integers() | finite | st.text()),
   st.dictionaries(st.text(max_size=6), st.lists(st.text(max_size=6), max_size=4)))
def test_any_frame_round_trips(columns, meta, strings):
    from repro.store.frame import Frame

    frame = Frame(kind="any", columns=columns, meta=meta, strings=strings)
    loaded = _through_disk(frame)
    assert loaded.kind == "any" and loaded.meta == meta and loaded.strings == strings
    assert set(loaded.columns) == set(columns)
    for name, column in columns.items():
        assert loaded.columns[name].dtype == column.dtype
        assert loaded.columns[name].tolist() == column.tolist()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | finite | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
descriptors = st.fixed_dictionaries(
    {},
    optional={
        "name": st.text(max_size=3) | json_values,
        "dtype": st.sampled_from(["uint8", "int64", "float64", "O"]) | json_values,
        "count": st.integers(-3, 10**6) | json_values,
        "offset": st.integers(-64, 4096) | json_values,
    },
)
headers = json_values | st.fixed_dictionaries(
    {},
    optional={
        "kind": st.just("any") | json_values,
        "schema": st.just(7) | json_values,
        "meta": st.just({}) | json_values,
        "strings": st.just({}) | json_values,
        "columns": st.lists(descriptors, max_size=4) | json_values,
        "digest": st.text(max_size=32) | json_values,
    },
)


@settings(max_examples=300, deadline=None)
@given(headers, st.binary(max_size=256))
def test_any_forged_header_raises_frame_error(header, tail):
    """Whatever a forged header says, the reader raises FrameError (a
    ValueError) — never KeyError, TypeError or AttributeError."""
    from repro.store.frame import FrameError, read_frame

    rendered = json.dumps(header).encode("utf-8")
    buffer = b"REPROFR1" + len(rendered).to_bytes(8, "little") + rendered + tail
    with pytest.raises(FrameError):
        read_frame(buffer, schema=7)
