"""Crash-safety suite: every registered crash point, checked end to end.

The contract under test (docs/durability.md):

* a simulated crash at *every* crash-point firing during save /
  append / imprint persistence leaves a store that ``Database.verify()``
  passes after recovery;
* an ingest killed at any point and resumed with ``resume=True``
  produces column files byte-identical to an uninterrupted run;
* checksum mismatches raise typed errors and count
  ``durability.checksum_failures``; corrupt imprints are quarantined
  (with a warning) and rebuilt lazily with identical query results;
* transient ``OSError``\\ s retry with backoff, typed corruption errors
  do not.
"""

import json

import numpy as np
import pytest

from repro.api import PointCloudDB
from repro.engine.catalog import CATALOG_FILE, Database
from repro.engine.durable import (
    InjectedCrash,
    KNOWN_CRASH_POINTS,
    with_retries,
)
from repro.engine.storage import StorageError, dump_array, load_array
from repro.las import binloader
from repro.las.binloader import LoadStats, load_files
from repro.las.header import LasFormatError
from repro.las.ingest import ResumableIngest, manifest_path
from repro.las.manifest import LoadManifest
from repro.las.writer import write_las
from tests import faults


def _points(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "x": rng.uniform(0, 100, n),
        "y": rng.uniform(0, 100, n),
        "z": rng.uniform(0, 10, n),
    }


# -- atomic writes and the torn-write harness --------------------------------


class TestAtomicWrites:
    def test_crash_before_rename_keeps_old_file(self, tmp_path):
        path = tmp_path / "v.col"
        dump_array(np.arange(5, dtype=np.int64), path)
        before = path.read_bytes()
        with faults.crash_at("durable.col.written"):
            with pytest.raises(InjectedCrash):
                dump_array(np.arange(50, dtype=np.int64), path)
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_array(path), np.arange(5))

    def test_torn_write_never_reaches_destination(self, tmp_path):
        path = tmp_path / "v.col"
        dump_array(np.arange(5, dtype=np.int64), path)
        before = path.read_bytes()
        with faults.torn_write(at_byte=10):
            with pytest.raises(InjectedCrash):
                dump_array(np.arange(500, dtype=np.int64), path)
        # The destination survives; only a temp file holds the torn prefix.
        assert path.read_bytes() == before
        wreckage = list(tmp_path.glob("v.col.tmp.*"))
        assert wreckage and wreckage[0].stat().st_size <= 10

    def test_transient_rename_failure_cleans_up(self, tmp_path):
        path = tmp_path / "v.col"
        dump_array(np.arange(5, dtype=np.int64), path)
        before = path.read_bytes()
        with faults.failing_replace(exc_factory=lambda: OSError("EIO")):
            with pytest.raises(OSError):
                dump_array(np.arange(9, dtype=np.int64), path)
        assert path.read_bytes() == before
        # A real (catchable) failure removes its temp file.
        assert not list(tmp_path.glob("v.col.tmp.*"))


# -- crash at every step of save + imprint persistence -----------------------


def _build_store(root):
    """A two-table store with one built imprint, fully persisted."""
    pc = PointCloudDB(directory=root)
    a = pc.db.create_table("alpha", [("x", "float64"), ("y", "int64")])
    a.append_columns({"x": np.linspace(0, 1, 64), "y": np.arange(64)})
    b = pc.db.create_table("beta", [("z", "float64")])
    b.append_columns({"z": np.linspace(5, 6, 32)})
    pc.manager.ensure(a, "x")
    pc.save()
    return pc


def _mutate_and_save(root):
    """The run the crash is injected into: grow both tables, re-save."""
    pc = PointCloudDB.load(root)
    a = pc.table("alpha")
    a.append_columns({"x": np.linspace(1, 2, 16), "y": np.arange(16)})
    pc.table("beta").append_columns({"z": np.linspace(6, 7, 8)})
    pc.manager.ensure(a, "x")
    pc.save()


class TestCrashEveryPointDuringSave:
    def test_recover_passes_verify_after_crash_at_every_step(self, tmp_path):
        # Rehearse once to enumerate every crash-point firing of the
        # mutate-and-save run, then inject a crash at each step.
        rehearsal = tmp_path / "rehearsal"
        _build_store(rehearsal)
        steps = faults.rehearse_and_enumerate(
            lambda: _mutate_and_save(rehearsal)
        )
        assert len(steps) > 20, "save path lost its instrumentation"

        for step, name in steps:
            root = tmp_path / f"crash_{step}"
            _build_store(root)
            with faults.crash_at_step(step):
                with pytest.raises(InjectedCrash):
                    _mutate_and_save(root)
            recovered = PointCloudDB.recover(root)
            report = recovered.verify()
            assert report["ok"], (
                f"verify failed after crash at step {step} ({name}): {report}"
            )
            # Each table holds either its old or its new committed rows.
            assert len(recovered.table("alpha")) in (64, 80), (step, name)
            assert len(recovered.table("beta")) in (32, 40), (step, name)

    def test_crash_points_cover_every_artifact_class(self, tmp_path):
        _build_store(tmp_path / "s")
        faults.crash_points_hit(lambda: _mutate_and_save(tmp_path / "s"))
        for expected in (
            "durable.col.written",
            "durable.schema.replaced",
            "durable.catalog.begin",
            "durable.imprint.written",
            "storage.table.column_saved",
            "catalog.table_saved",
        ):
            assert expected in KNOWN_CRASH_POINTS


# -- kill-and-resume bulk ingest ---------------------------------------------


@pytest.fixture(scope="module")
def tiles(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiles")
    paths = []
    for i in range(4):
        path = root / f"tile_{i}.las"
        write_las(path, _points(120, seed=i))
        paths.append(path)
    return paths


def _ingest(root, paths, resume=False):
    job = ResumableIngest(root, table="points", checkpoint_every=2)
    return job.load(paths, resume=resume)


def _strip_generation(raw: bytes) -> bytes:
    """Drop the catalog-generation stamp from a metadata file.

    The generation counts *publishes*, so a crashed-and-resumed ingest
    legitimately lands one save ahead of a clean run; content identity
    is what resume guarantees.
    """
    meta = json.loads(raw)
    meta.pop("generation", None)
    return json.dumps(meta, indent=2).encode()


def _store_state(root):
    """The durable artifacts a resumed ingest must reproduce exactly."""
    table_dir = root / "points"
    state = {p.name: p.read_bytes() for p in sorted(table_dir.glob("*.col"))}
    state["schema.json"] = _strip_generation(
        (table_dir / "schema.json").read_bytes()
    )
    state[CATALOG_FILE] = _strip_generation((root / CATALOG_FILE).read_bytes())
    return state


class TestKillAndResumeIngest:
    def test_resume_after_crash_at_every_point_is_byte_identical(
        self, tmp_path, tiles
    ):
        baseline_root = tmp_path / "baseline"
        db, stats = _ingest(baseline_root, tiles)
        assert stats.n_files == 4 and len(db.table("points")) == 480
        baseline = _store_state(baseline_root)

        rehearsal = tmp_path / "rehearsal"
        steps = faults.rehearse_and_enumerate(
            lambda: _ingest(rehearsal, tiles), sample_every=13
        )
        names = {name for _step, name in steps}
        assert {"ingest.tile_pending", "ingest.tile_appended",
                "ingest.checkpointed"} <= names

        for step, name in steps:
            root = tmp_path / f"kill_{step}"
            with faults.crash_at_step(step):
                with pytest.raises(InjectedCrash):
                    _ingest(root, tiles)
            db, stats = _ingest(root, tiles, resume=True)
            assert _store_state(root) == baseline, (
                f"resumed store differs after crash at step {step} ({name})"
            )
            assert db.verify()["ok"], (step, name)

    def test_resume_skips_durable_tiles(self, tmp_path, tiles):
        root = tmp_path / "skip"
        _ingest(root, tiles)
        before = faults.counter_value("load.tiles_skipped")
        db, stats = _ingest(root, tiles, resume=True)
        assert stats.n_skipped == 4 and stats.n_files == 0
        assert faults.counter_value("load.tiles_skipped") == before + 4
        assert len(db.table("points")) == 480

    def test_journal_states_and_fingerprints(self, tmp_path, tiles):
        root = tmp_path / "journal"
        _ingest(root, tiles)
        manifest = LoadManifest.open(manifest_path(root, "points"), "points")
        assert sorted(manifest.states["indexed"]) == sorted(
            p.name for p in tiles
        )
        assert manifest.rows_committed == 480
        for entry in manifest.entries.values():
            assert entry.size > 0 and entry.mtime > 0

    def test_corrupt_journal_is_a_typed_error(self, tmp_path, tiles):
        root = tmp_path / "badjournal"
        _ingest(root, tiles)
        manifest_path(root, "points").write_text("{torn json")
        from repro.las.manifest import ManifestError

        with pytest.raises(ManifestError):
            _ingest(root, tiles, resume=True)


# -- checksums ----------------------------------------------------------------


class TestChecksums:
    def test_payload_flip_is_detected_and_counted(self, tmp_path):
        path = tmp_path / "v.col"
        dump_array(np.arange(32, dtype=np.int64), path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        before = faults.counter_value("durability.checksum_failures")
        with pytest.raises(StorageError, match="checksum"):
            load_array(path)
        assert faults.counter_value("durability.checksum_failures") == before + 1

    def test_header_flip_is_detected(self, tmp_path):
        # The CRC covers the header too: corrupting the count field must
        # fail verification, not reinterpret the payload.
        path = tmp_path / "v.col"
        dump_array(np.arange(32, dtype=np.int64), path)
        raw = bytearray(path.read_bytes())
        raw[9] ^= 0x01  # inside the u64 count
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError):
            load_array(path)

    def test_load_reports_health_instead_of_dying(self, tmp_path):
        db = Database(directory=tmp_path)
        db.create_table("good", [("v", "int64")]).append_columns({"v": [1, 2]})
        db.create_table("bad", [("v", "int64")]).append_columns({"v": [3, 4]})
        db.save()
        raw = bytearray((tmp_path / "bad" / "v.col").read_bytes())
        raw[-1] ^= 0xFF
        (tmp_path / "bad" / "v.col").write_bytes(bytes(raw))

        loaded = Database.load(tmp_path)
        assert "good" in loaded and "bad" not in loaded
        assert loaded.health["good"]["ok"]
        assert not loaded.health["bad"]["ok"]
        assert loaded.health["bad"]["issues"]
        report = loaded.verify()
        assert not report["ok"] and not report["tables"]["bad"]["ok"]

    def test_torn_tail_recovers_to_committed_rows(self, tmp_path):
        db = Database(directory=tmp_path)
        db.create_table("t", [("a", "int64"), ("b", "int64")]).append_columns(
            {"a": np.arange(5), "b": np.arange(5)}
        )
        db.save()
        # Simulate a crash mid-save: one column one batch ahead.
        dump_array(np.arange(9, dtype=np.int64), tmp_path / "t" / "a.col")
        loaded = Database.load(tmp_path)
        assert len(loaded.table("t")) == 5
        assert loaded.health["t"]["ok"] and loaded.health["t"]["issues"]
        recovered = Database.recover(tmp_path)
        assert recovered.verify()["ok"]


# -- imprint quarantine -------------------------------------------------------


class TestImprintQuarantine:
    def _store_with_imprint(self, root):
        pc = PointCloudDB(directory=root)
        t = pc.db.create_table("pts", [("x", "float64")])
        rng = np.random.default_rng(7)
        t.append_columns({"x": rng.uniform(0, 100, 4096)})
        pc.manager.ensure(t, "x")
        pc.save()
        return pc

    def test_corrupt_imprint_quarantined_and_rebuilt(self, tmp_path):
        pc = self._store_with_imprint(tmp_path)
        expected = pc.manager.range_select(pc.table("pts"), "x", 20.0, 40.0)
        files = list((tmp_path / "_imprints").glob("*.imprint"))
        assert len(files) == 1
        raw = bytearray(files[0].read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        files[0].write_bytes(bytes(raw))

        before = faults.counter_value("durability.quarantines")
        with pytest.warns(RuntimeWarning, match="quarantined corrupt imprint"):
            reloaded = PointCloudDB.load(tmp_path)
        assert faults.counter_value("durability.quarantines") == before + 1
        assert reloaded.manager.quarantined
        assert not files[0].exists()
        quarantined = files[0].with_name(files[0].name + ".quarantined")
        assert quarantined.exists()  # degraded, never destroyed

        # First query rebuilds lazily with identical results.
        got = reloaded.manager.range_select(
            reloaded.table("pts"), "x", 20.0, 40.0
        )
        np.testing.assert_array_equal(np.sort(got), np.sort(expected))
        assert reloaded.verify()["ok"]

    def test_verify_flags_corrupt_imprint(self, tmp_path):
        pc = self._store_with_imprint(tmp_path)
        files = list((tmp_path / "_imprints").glob("*.imprint"))
        raw = bytearray(files[0].read_bytes())
        raw[-1] ^= 0xFF
        files[0].write_bytes(bytes(raw))
        report = pc.verify()
        assert not report["ok"] and report["imprints"]["issues"]


# -- the stale-catalog fix ----------------------------------------------------


class TestDroppedTableCatalog:
    def test_dropped_table_stays_dropped_after_reload(self, tmp_path):
        db = Database(directory=tmp_path)
        db.create_table("keep", [("v", "int64")]).append_columns({"v": [1]})
        db.create_table("drop_me", [("v", "int64")]).append_columns({"v": [2]})
        db.save()
        db.drop_table("drop_me")
        db.save()

        loaded = Database.load(tmp_path)
        assert loaded.table_names == ["keep"]
        # The directory lingers (save never deletes data) but the catalog
        # rules: neither load nor verify resurrects the dropped table.
        assert (tmp_path / "drop_me" / "schema.json").exists()
        report = loaded.verify()
        assert report["ok"] and "drop_me" not in report["tables"]

    def test_crash_before_the_first_catalog_commits_no_table(self, tmp_path):
        # Table files written, catalog never: the store holds nothing,
        # and a later save publishes generation 1 as if from scratch.
        db = Database(directory=tmp_path)
        db.create_table("t", [("v", "int64")]).append_columns({"v": [1, 2]})
        with faults.crash_at("durable.catalog.begin"):
            with pytest.raises(InjectedCrash):
                db.save()
        assert (tmp_path / "t" / "schema.json").exists()
        loaded = Database.load(tmp_path)
        assert loaded.table_names == [] and loaded.generation == 0
        assert loaded.verify() == {"ok": True, "tables": {}}
        assert Database.read_generation(tmp_path) == 0

    def test_catalog_is_written_last(self, tmp_path):
        db = Database(directory=tmp_path)
        db.create_table("t", [("v", "int64")]).append_columns({"v": [1]})
        events = faults.crash_points_hit(db.save)
        assert events[-1] == "durable.catalog.replaced"
        catalog = json.loads((tmp_path / CATALOG_FILE).read_text())
        assert catalog["tables"] == ["t"]


# -- retry policy -------------------------------------------------------------


class TestRetries:
    def test_transient_oserror_retries_and_counts(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        before = faults.counter_value("durability.retries")
        assert with_retries(flaky, retries=3, backoff=0) == "ok"
        assert calls["n"] == 3
        assert faults.counter_value("durability.retries") == before + 2

    def test_typed_corruption_is_never_retried(self):
        calls = {"n": 0}

        def corrupt():
            calls["n"] += 1
            raise StorageError("bad bytes")

        with pytest.raises(StorageError):
            with_retries(
                corrupt, retries=5, backoff=0, no_retry=(StorageError,)
            )
        assert calls["n"] == 1

    def test_retry_budget_is_bounded(self):
        calls = {"n": 0}

        def always_down():
            calls["n"] += 1
            raise OSError("still down")

        with pytest.raises(OSError):
            with_retries(always_down, retries=2, backoff=0)
        assert calls["n"] == 3  # initial try + 2 retries

    def test_load_files_rolls_back_and_retries_tile(
        self, tmp_path, monkeypatch
    ):
        from repro.engine.table import Table

        table = Table("t", [("a", "int64")])
        calls = {"n": 0}

        def flaky_load(table, path, spool_dir=None):
            calls["n"] += 1
            if calls["n"] == 1:
                # Half-appended batch, then a transient failure.
                table.append_columns({"a": [1, 2, 3]})
                raise OSError("NFS hiccup")
            table.append_columns({"a": [10, 20]})
            return LoadStats(n_points=2, n_files=1)

        monkeypatch.setattr(binloader, "load_file", flaky_load)
        stats = load_files(table, [tmp_path / "fake.las"], retries=2, backoff=0)
        assert calls["n"] == 2
        assert stats.n_points == 2 and stats.n_rows_rolled_back == 3
        np.testing.assert_array_equal(
            np.asarray(table.column("a").values), [10, 20]
        )

    def test_load_files_does_not_retry_corrupt_tiles(
        self, tmp_path, monkeypatch
    ):
        from repro.engine.table import Table

        calls = {"n": 0}

        def corrupt_load(table, path, spool_dir=None):
            calls["n"] += 1
            raise LasFormatError("truncated tile")

        monkeypatch.setattr(binloader, "load_file", corrupt_load)
        with pytest.raises(LasFormatError):
            load_files(
                Table("t", [("a", "int64")]),
                [tmp_path / "fake.las"],
                retries=5,
                backoff=0,
            )
        assert calls["n"] == 1
