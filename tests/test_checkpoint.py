"""Tests for stage checkpoints: the cache entry's staging directory.

The contract: a cold cached run writes each heavy stage once, into
``<root>/study/<key>.tmp<pid>``, and the study cache publishes that
directory by rename.  A staged stage is either absent or complete (atomic
write), a corrupt or mis-typed one is indistinguishable from a missing one
(verified loads), a killed run's staging directory is adopted and resumed
from by the next run of its key, and staged runs are listed, collected and
cleared by the ``repro cache`` commands.
"""

import importlib.util
import json
import multiprocessing
import os
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.pipeline import StudyConfig, run_study
from repro.cache import CACHE_SCHEMA, CheckpointStore, StudyCache, study_key
from repro.cache.checkpoint import (
    decode_stage_arrivals,
    encode_stage_alerts,
    encode_stage_arrivals,
    encode_stage_store,
)
from repro.cli import main
from repro.net.pcapstore import SessionStore
from repro.net.session import TcpSession
from repro.nids.ruleset import Alert
from repro.store.frame import Frame, write_frame
from repro.telescope.collector import CollectionStats
from repro.traffic.arrivals import ScanArrival

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
DEAD_PID = 999999999

T0 = datetime(2022, 1, 1)
_ARRIVALS = [
    ScanArrival(timestamp=T0, src_ip=9, src_port=40000, dst_port=80,
                payload=b"probe", truth_cve=None, variant_sid=None),
]
_ALERTS = [
    Alert(session_id=1, timestamp=T0, sid=58722, cve_id="CVE-2021-44228",
          rule_published=T0 - timedelta(days=20), dst_ip=7, dst_port=80,
          src_ip=9),
]


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(root=tmp_path)


def _store_stage() -> Frame:
    sessions = SessionStore()
    sessions.append(TcpSession(session_id=1, start=T0, src_ip=9, src_port=1,
                               dst_ip=7, dst_port=80, payload=b"GET /"))
    return encode_stage_store(
        sessions, CollectionStats(arrivals_routed=1), {1: None}
    )


def _staged(root: Path) -> dict:
    """Staged runs as ``repro cache stats`` reports them: key -> stages."""
    return {
        run["key"]: run["stages"]
        for run in StudyCache(root=root).stats()["staging"]
    }


def _dead_owner_dir(root: Path, key: str) -> Path:
    directory = root / "study" / f"{key}.tmp{DEAD_PID}"
    directory.mkdir(parents=True)
    return directory


class TestBlobLifecycle:
    def test_roundtrip(self, store, tmp_path):
        path = store.save("key", "arrivals", encode_stage_arrivals(_ARRIVALS))
        assert path.exists() and path.name == "arrivals.frame"
        # The stage lives in the cache entry's staging directory.
        assert path.parent == tmp_path / "study" / f"key.tmp{os.getpid()}"
        loaded = store.load("key", "arrivals")
        assert loaded.kind == "arrivals"
        assert decode_stage_arrivals(loaded) == _ARRIVALS
        assert store.telemetry.saves == 1
        assert store.telemetry.hits == 1
        assert store.telemetry.misses == 0

    def test_missing_blob_is_a_plain_miss(self, store):
        assert store.load("key", "alerts") is None
        assert store.telemetry.misses == 1
        assert store.telemetry.integrity_failures == 0

    def test_has_and_names(self, store, tmp_path):
        store.save("key", "arrivals", encode_stage_arrivals(_ARRIVALS))
        store.save("key", "store", _store_stage())
        assert _staged(tmp_path) == {"key": ["arrivals", "store"]}
        assert store.load("other", "arrivals") is None

    def test_tampered_payload_is_evicted(self, store):
        path = store.save("key", "store", _store_stage())
        data = path.read_bytes()
        assert data.count(b'"arrivals_routed": 1') == 1
        # Same size, valid JSON, digest now wrong.
        path.write_bytes(
            data.replace(b'"arrivals_routed": 1', b'"arrivals_routed": 2')
        )

        assert store.load("key", "store") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()  # evicted so the recompute can restage

    def test_garbage_bytes_are_evicted(self, store):
        path = store.save("key", "alerts", encode_stage_alerts(_ALERTS))
        path.write_bytes(b"not a frame at all")
        assert store.load("key", "alerts") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()

    def test_schema_mismatch_is_evicted(self, store):
        frame = encode_stage_alerts(_ALERTS)
        path = store.save("key", "alerts", frame)
        # An intact frame, digest and all, written under another schema.
        write_frame(frame, path, schema=999)
        assert store.load("key", "alerts") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()

    def test_decoder_rejection_is_evicted(self, store):
        path = store.save("key", "alerts", encode_stage_alerts(_ALERTS))

        def reject(frame):
            raise ValueError(f"not a {frame.kind} I can decode")

        assert store.load("key", "alerts", reject) is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()
        store.save("key", "alerts", encode_stage_alerts(_ALERTS))
        assert store.load("key", "alerts", lambda frame: frame.kind) == "alerts"

    @pytest.mark.parametrize(
        "frame",
        [
            encode_stage_alerts(_ALERTS),  # another stage's kind
            Frame(kind="arrivals",  # the right kind, a column short
                  columns={"arrival_t": np.array([1], dtype=np.int64)}),
        ],
        ids=["wrong-kind", "missing-columns"],
    )
    def test_wrong_kind_or_columns_is_evicted(self, store, frame):
        path = store.save("key", "arrivals", frame)
        assert store.load("key", "arrivals") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()

    def test_staging_never_published_on_failure(self, store, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", boom)
        with pytest.raises(OSError):
            store.save("key", "alerts", encode_stage_alerts(_ALERTS))
        # Neither the stage nor its staging sibling survives.
        assert not (store.dir_for("key") / "alerts.frame").exists()
        assert list(store.dir_for("key").iterdir()) == []

    @pytest.mark.parametrize("bad", ["", "a/b", ".hidden", "../escape"])
    def test_invalid_keys_and_names_rejected(self, store, bad):
        with pytest.raises(ValueError):
            store.save(bad, "alerts", encode_stage_alerts(_ALERTS))
        with pytest.raises(ValueError):
            store.save("key", bad, encode_stage_alerts(_ALERTS))


class TestAdoption:
    def test_dead_owner_staging_is_adopted(self, store, tmp_path):
        orphan = _dead_owner_dir(tmp_path, "key")
        write_frame(encode_stage_arrivals(_ARRIVALS),
                    orphan / "arrivals.frame", schema=CACHE_SCHEMA)

        loaded = store.load("key", "arrivals")
        assert decode_stage_arrivals(loaded) == _ARRIVALS
        assert not orphan.exists()
        assert (store.dir_for("key") / "arrivals.frame").exists()

    def test_live_owner_staging_is_left_alone(self, store, tmp_path):
        live = tmp_path / "study" / f"key.tmp{os.getppid()}"
        live.mkdir(parents=True)
        write_frame(encode_stage_arrivals(_ARRIVALS),
                    live / "arrivals.frame", schema=CACHE_SCHEMA)

        assert store.load("key", "arrivals") is None
        assert (live / "arrivals.frame").exists()
        assert not store.delete("key")
        assert live.exists()

    def test_losing_the_adoption_race_is_a_plain_miss(
        self, store, tmp_path, monkeypatch
    ):
        _dead_owner_dir(tmp_path, "key")

        def taken(*args, **kwargs):
            raise FileNotFoundError("adopted by another process")

        monkeypatch.setattr("os.replace", taken)
        assert store.load("key", "arrivals") is None
        assert store.telemetry.misses == 1
        assert store.telemetry.integrity_failures == 0

    def test_delete_drops_own_and_dead_owner_dirs(self, store, tmp_path):
        store.save("key", "alerts", encode_stage_alerts(_ALERTS))
        orphan = _dead_owner_dir(tmp_path, "key")
        assert store.delete("key")
        assert not orphan.exists()
        assert not store.dir_for("key").exists()


class TestPopulation:
    def test_delete_and_keys(self, store, tmp_path):
        store.save("one", "alerts", encode_stage_alerts(_ALERTS))
        store.save("two", "alerts", encode_stage_alerts(_ALERTS))
        assert sorted(_staged(tmp_path)) == ["one", "two"]
        assert store.delete("one")
        assert not store.delete("one")  # already gone
        assert sorted(_staged(tmp_path)) == ["two"]

    def test_gc_by_age(self, store, tmp_path):
        store.save("stale", "alerts", encode_stage_alerts(_ALERTS))
        store.save("fresh", "alerts", encode_stage_alerts(_ALERTS))
        old = time.time() - 2 * 86400
        os.utime(store.dir_for("stale"), (old, old))
        # A live owner's staged run survives until it outlives the grace.
        report = StudyCache(root=tmp_path).gc()
        assert report.staging_removed == 1
        assert sorted(_staged(tmp_path)) == ["fresh"]

    def test_gc_reaps_orphaned_staging(self, store, tmp_path):
        store.save("key", "alerts", encode_stage_alerts(_ALERTS))
        orphan = _dead_owner_dir(tmp_path, "key")
        (orphan / "store.frame").write_bytes(b"partial")
        report = StudyCache(root=tmp_path).gc()
        assert report.staging_removed == 1  # this process's run is alive
        assert not orphan.exists()
        assert store.dir_for("key").exists()

    def test_gc_removes_empty_key_dirs(self, tmp_path):
        _dead_owner_dir(tmp_path, "empty")
        assert StudyCache(root=tmp_path).gc().staging_removed == 1
        assert _staged(tmp_path) == {}

    def test_clear(self, store, tmp_path):
        store.save("one", "alerts", encode_stage_alerts(_ALERTS))
        store.save("two", "alerts", encode_stage_alerts(_ALERTS))
        assert StudyCache(root=tmp_path).clear() == 2
        assert _staged(tmp_path) == {}


class TestCheckpointCli:
    """Staged runs through ``repro cache stats / gc / clear``."""

    def _seed(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        store.save("deadbeef", "arrivals", encode_stage_arrivals(_ARRIVALS))
        store.save("deadbeef", "store", _store_stage())
        return store

    def test_list(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "deadbeef" in out
        assert "staged runs: 1" in out
        assert "arrivals,store" in out and "alive" in out

    def test_json(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "stats", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["staging_count"] == 1
        (run,) = snapshot["staging"]
        assert run["key"] == "deadbeef"
        assert run["stages"] == ["arrivals", "store"]
        assert run["owner_alive"] and run["bytes"] > 0

    def test_gc_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        # A young staged run of a live owner survives gc.
        assert main([
            "cache", "gc", "--cache-dir", str(tmp_path),
            "--max-age-days", "1",
        ]) == 0
        assert "staging dirs removed: 0" in capsys.readouterr().out
        assert list(_staged(tmp_path)) == ["deadbeef"]

    def test_clear_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert _staged(tmp_path) == {}


# -- whole runs --------------------------------------------------------------


def _golden():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN_DIR / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    golden = json.loads((GOLDEN_DIR / "scenario_digests.json").read_text())
    return module, golden["scenarios"]["paper-default"]


def _paper_default(module) -> StudyConfig:
    return StudyConfig.from_scenario("paper-default", **module.OVERRIDES)


def _fork():
    return multiprocessing.get_context("fork")


def _killed_at_scan(root: str, config: StudyConfig) -> None:
    from repro.nids.engine import DetectionEngine

    def die(self, store):
        os._exit(17)  # no cleanup, as a kill would leave it

    DetectionEngine.scan = die
    run_study(config, cache=root)


def _cold_run(root: str, config: StudyConfig, out: str) -> None:
    module, _ = _golden()
    result = run_study(config, cache=root)
    digests = module._oracle().study_digests(result)
    Path(out).write_text(json.dumps(digests))


def _stage_sources(result) -> dict:
    root = result.telemetry.manifest.as_dict()["spans"][0]
    return {
        child["name"]: child.get("attributes", {}).get("source")
        for child in root["children"]
    }


def test_cold_run_writes_each_stage_once(tmp_path):
    """The stages are staged once and published as the entry's files; the
    cache save writes no frame of its own."""
    config = StudyConfig.from_scenario(
        "quick", volume_scale=0.005, background_nvd_count=300
    )
    result = run_study(config, cache=tmp_path)
    counters = result.telemetry.manifest.as_dict()["metrics"]["counters"]
    (entry,) = StudyCache(root=tmp_path).entries()
    published = sum(path.stat().st_size for path in entry.glob("*.frame"))
    assert counters["checkpoint.bytes_written"] == published
    assert counters["cache.bytes_written"] == 0
    assert not StudyCache(root=tmp_path).staging_dirs()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
class TestPipelineRecovery:
    def test_killed_run_resumes_from_its_staged_stages(self, tmp_path):
        module, golden = _golden()
        config = _paper_default(module)
        root = tmp_path / "cache"
        child = _fork().Process(target=_killed_at_scan, args=(str(root), config))
        child.start()
        child.join(timeout=300)
        assert child.exitcode == 17
        staged = StudyCache(root=root).stats()["staging"]
        assert [(run["stages"], run["owner_alive"]) for run in staged] == [
            (["arrivals", "store"], False)
        ]

        result = run_study(config, cache=root)
        assert result.telemetry.checkpoints == ["arrivals", "store"]
        sources = _stage_sources(result)
        assert sources["traffic"] == sources["capture"] == "checkpoint"
        assert sources["scan"] == "computed"
        digests = module._oracle().study_digests(result)
        assert digests == {name: golden[name] for name in digests}

        cache = StudyCache(root=root)
        (entry,) = cache.entries()
        assert not [p for p in entry.rglob("*") if ".tmp" in p.name]
        assert not cache.staging_dirs()
        (report,) = cache.verify(deep=True)
        assert report.ok, report.problems

    def test_two_cold_runs_on_one_key(self, tmp_path):
        module, golden = _golden()
        config = _paper_default(module)
        root = tmp_path / "cache"
        outs = [tmp_path / f"digests-{index}.json" for index in range(2)]
        runs = [
            _fork().Process(target=_cold_run, args=(str(root), config, str(out)))
            for out in outs
        ]
        for run in runs:
            run.start()
        for run in runs:
            run.join(timeout=300)
            assert run.exitcode == 0
        first, second = (json.loads(out.read_text()) for out in outs)
        assert first == second == {name: golden[name] for name in first}

        cache = StudyCache(root=root)
        assert len(cache.entries()) == 1
        assert not cache.staging_dirs()
        (report,) = cache.verify(deep=True)
        assert report.ok, report.problems

    def test_wrong_kind_stage_is_recomputed(self, tmp_path):
        """An alerts frame staged as ``arrivals`` used to raise FrameError
        out of ``run_study``: the kind was only checked by the decoder."""
        module, golden = _golden()
        config = _paper_default(module)
        store = CheckpointStore(root=tmp_path)
        store.save(study_key(config), "arrivals", encode_stage_alerts(_ALERTS))

        result = run_study(config, cache=tmp_path, checkpoints=store)
        assert result.telemetry.checkpoints == []
        assert store.telemetry.integrity_failures == 1
        digests = module._oracle().study_digests(result)
        assert digests == {name: golden[name] for name in digests}
        (report,) = StudyCache(root=tmp_path).verify(deep=True)
        assert report.ok, report.problems
