"""Tests for the crash-recovery checkpoint store and its CLI surface.

The store's contract: a blob is either absent or complete (atomic publish),
a corrupt blob is indistinguishable from a missing one (verified loads),
and checkpoints are recovery state with an explicit end of life (delete on
success, gc by age).
"""

import json
from datetime import timedelta

import numpy as np
import pytest

from repro.cache import CheckpointStore
from repro.cli import main
from repro.store.frame import Frame, write_frame


@pytest.fixture()
def store(tmp_path):
    return CheckpointStore(root=tmp_path)


def _blob(**meta) -> Frame:
    """A small frame: one column plus header scalars."""
    return Frame(
        kind="test",
        columns={"rows": np.array([1, 2], dtype=np.int64)},
        meta=meta,
        strings={"names": ["a", "b"]},
    )


class TestBlobLifecycle:
    def test_roundtrip(self, store):
        path = store.save("key", "chunk-00000", _blob(scanned=2))
        assert path.exists() and path.name == "chunk-00000.frame"
        loaded = store.load("key", "chunk-00000")
        assert loaded.kind == "test"
        assert loaded.meta == {"scanned": 2}
        assert loaded.strings == {"names": ["a", "b"]}
        assert loaded.columns["rows"].tolist() == [1, 2]
        assert store.telemetry.saves == 1
        assert store.telemetry.hits == 1
        assert store.telemetry.misses == 0

    def test_missing_blob_is_a_plain_miss(self, store):
        assert store.load("key", "nothing") is None
        assert store.telemetry.misses == 1
        assert store.telemetry.integrity_failures == 0

    def test_has_and_names(self, store):
        store.save("key", "arrivals", _blob(a=1))
        store.save("key", "chunk-00001", _blob(b=2))
        assert store.has("key", "arrivals")
        assert not store.has("key", "store")
        assert store.names("key") == ["arrivals", "chunk-00001"]
        assert store.names("unknown") == []

    def test_tampered_payload_is_evicted(self, store):
        path = store.save("key", "blob", _blob(value=1))
        data = path.read_bytes()
        assert data.count(b'"value": 1') == 1
        # Same size, valid JSON, digest now wrong.
        path.write_bytes(data.replace(b'"value": 1', b'"value": 2'))

        assert store.load("key", "blob") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()  # evicted so the recompute can republish

    def test_garbage_bytes_are_evicted(self, store):
        path = store.save("key", "blob", _blob(value=1))
        path.write_bytes(b"not a frame at all")
        assert store.load("key", "blob") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()

    def test_schema_mismatch_is_evicted(self, store):
        path = store.save("key", "blob", _blob(value=1))
        # An intact frame, digest and all, written under another schema.
        write_frame(_blob(value=1), path, schema=999)
        assert store.load("key", "blob") is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()

    def test_decoder_rejection_is_evicted(self, store):
        path = store.save("key", "blob", _blob(value=1))

        def reject(frame):
            raise ValueError(f"not a {frame.kind} I can decode")

        assert store.load("key", "blob", reject) is None
        assert store.telemetry.integrity_failures == 1
        assert not path.exists()
        store.save("key", "blob", _blob(value=1))
        assert store.load("key", "blob", lambda frame: frame.meta) == {"value": 1}

    def test_staging_never_published_on_failure(self, store, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", boom)
        with pytest.raises(OSError):
            store.save("key", "blob", _blob(value=1))
        # Neither the blob nor its staging sibling survives.
        assert not store.has("key", "blob")
        assert list(store.dir_for("key").iterdir()) == []

    @pytest.mark.parametrize("bad", ["", "a/b", ".hidden", "../escape"])
    def test_invalid_keys_and_names_rejected(self, store, bad):
        with pytest.raises(ValueError):
            store.save(bad, "blob", _blob())
        with pytest.raises(ValueError):
            store.save("key", bad, _blob())


class TestPopulation:
    def test_delete_and_keys(self, store):
        store.save("one", "a", _blob())
        store.save("two", "b", _blob())
        assert store.keys() == ["one", "two"]
        assert store.delete("one")
        assert not store.delete("one")  # already gone
        assert store.keys() == ["two"]

    def test_gc_by_age(self, store):
        store.save("stale", "blob", _blob())
        store.save("fresh", "blob", _blob())
        newest = store._key_info("stale")["newest"]
        removed = store.gc(
            max_age=timedelta(days=1),
            now=float(newest) + 2 * 86400,
        )
        # Both keys have the same mtime here, so both expire.
        assert removed == 2
        assert store.keys() == []

    def test_gc_reaps_orphaned_staging(self, store):
        store.save("key", "blob", _blob())
        orphan = store.dir_for("key") / "torn.frame.tmp12345"
        orphan.write_bytes(b"partial")
        assert store.gc() == 0  # key itself is alive
        assert not orphan.exists()

    def test_gc_removes_empty_key_dirs(self, store):
        store.dir_for("empty").mkdir(parents=True)
        assert store.gc() == 1
        assert store.keys() == []

    def test_clear(self, store):
        store.save("one", "a", _blob())
        store.save("two", "b", _blob())
        assert store.clear() == 2
        assert store.keys() == []


class TestCheckpointCli:
    def _seed(self, tmp_path):
        store = CheckpointStore(root=tmp_path)
        store.save("deadbeef", "arrivals", _blob())
        store.save("deadbeef", "chunk-x-00000", _blob())
        return store

    def test_list(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["cache", "checkpoints", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "deadbeef" in out
        assert "keys: 1" in out

    def test_json(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "checkpoints", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["key_count"] == 1
        assert snapshot["keys"][0]["blobs"] == 2

    def test_gc_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        # Young keys survive an age-bounded gc.
        assert main([
            "cache", "checkpoints", "--cache-dir", str(tmp_path),
            "--max-age-days", "1",
        ]) == 0
        assert "gc removed 0" in capsys.readouterr().out
        assert CheckpointStore(root=tmp_path).keys() == ["deadbeef"]

    def test_clear_flag(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(
            ["cache", "checkpoints", "--cache-dir", str(tmp_path), "--clear"]
        ) == 0
        assert "removed 1" in capsys.readouterr().out
        assert CheckpointStore(root=tmp_path).keys() == []
