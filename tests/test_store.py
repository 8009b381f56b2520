import json
import os

import pytest

from wattbench.errors import CorruptRun, DuplicateRun, NotFound
from wattbench.loadgen import records_csv_bytes
from wattbench.metrics import Phase, samples_csv_bytes
from wattbench.power import CounterReading, DomainKind
from wattbench.store import MANIFEST_NAME, RunManifest, RunRecord, RunStore
from wattbench.metrics import Sample, classify

from conftest import BIG_RANGE_UJ, make_counters, make_requests


def _record(run_id="r1", commit_id="c1", status="valid"):
    return RunRecord(
        run_id=run_id,
        commit_id=commit_id,
        plan_id="plan",
        plan_hash="ph1",
        repetition_index=0,
        status=status,
        warmup_ms=1000,
        duration_ms=11_000,
        domains=[
            {"kind": "cpu_package", "max_range_uj": BIG_RANGE_UJ},
            {"kind": "dram", "max_range_uj": BIG_RANGE_UJ},
        ],
    )


def _counter_bytes(watts, duration_ms=11_000):
    desc = classify("cpu_energy_counter")
    return samples_csv_bytes(
        [Sample(r.timestamp_ms, desc, "host", float(r.raw_uj))
         for r in make_counters(watts, duration_ms)]
    )


def _files():
    mem = classify("memory_usage")
    return [
        ("power_cpu_package.csv", "power", _counter_bytes(10.0)),
        ("power_dram.csv", "power", _counter_bytes(0.5)),
        ("container_c1.csv", "container",
         samples_csv_bytes([Sample(t, mem, "c1", 1e6) for t in range(0, 11_000, 1000)])),
        ("requests.csv", "requests", records_csv_bytes(make_requests(100, 1000, 11_000))),
    ]


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "store"))


class TestPersistAndLoad:
    def test_layout_is_commit_plan_run(self, store):
        store.persist_run(_record(), _files())
        run_dir = store.root / "c1" / "ph1" / "r1"
        assert (run_dir / MANIFEST_NAME).is_file()
        assert (run_dir / "meta.json").is_file()
        assert (run_dir / "requests.csv").is_file()

    def test_roundtrip_identity(self, store):
        store.persist_run(_record(), _files())
        loaded = store.load_run("r1")
        # compare against a pristine record: persist fills data_paths locally
        assert loaded.record == _record()
        assert loaded.counters[DomainKind.CPU_PACKAGE] == make_counters(10.0, 11_000)
        assert loaded.counters[DomainKind.DRAM] == make_counters(0.5, 11_000)
        assert len(loaded.requests) == 100
        assert all(s.scope_id == "c1" for s in loaded.samples)
        assert loaded.domain(DomainKind.CPU_PACKAGE).max_range_uj == BIG_RANGE_UJ
        marks = loaded.record.phase_marks()
        assert [(m.phase, m.start_ms, m.end_ms) for m in marks] == [
            (Phase.WARMUP, 0, 1000),
            (Phase.MEASUREMENT, 1000, 11_000),
        ]

    def test_duplicate_run_id_rejected(self, store):
        store.persist_run(_record(), _files())
        with pytest.raises(DuplicateRun):
            store.persist_run(_record(), _files())

    def test_duplicate_rejected_even_under_other_commit(self, store):
        store.persist_run(_record(), _files())
        with pytest.raises(DuplicateRun):
            store.persist_run(_record(commit_id="c2"), _files())

    def test_unknown_run_rejected(self, store):
        with pytest.raises(NotFound):
            store.load_run("ghost")

    def test_invalid_runs_persisted_with_reason(self, store):
        record = _record(status="invalid")
        record.invalid_reason = "degraded collectors"
        store.persist_run(record, _files())
        loaded = store.load_run("r1")
        assert not loaded.record.valid
        assert loaded.record.invalid_reason == "degraded collectors"


class TestIntegrity:
    def test_checksum_mismatch_detected(self, store):
        store.persist_run(_record(), _files())
        path = store.root / "c1" / "ph1" / "r1" / "requests.csv"
        path.write_bytes(path.read_bytes() + b"tampered\n")
        with pytest.raises(CorruptRun):
            store.load_run("r1")

    def test_missing_file_detected(self, store):
        store.persist_run(_record(), _files())
        (store.root / "c1" / "ph1" / "r1" / "power_dram.csv").unlink()
        with pytest.raises(CorruptRun):
            store.load_run("r1")

    def test_manifest_checksums_and_rows_match_payload(self, store):
        manifest = store.persist_run(_record(), _files())
        by_name = {e["relative_path"]: e for e in manifest.files}
        assert set(by_name) == {
            "power_cpu_package.csv", "power_dram.csv", "container_c1.csv",
            "requests.csv", "meta.json",
        }
        assert by_name["requests.csv"]["rows"] == 100
        assert by_name["meta.json"]["kind"] == "meta"


class TestAtomicity:
    def test_interrupted_persist_leaves_no_visible_run(self, store, monkeypatch):
        def explode(src, dst):
            raise OSError("power loss simulation")

        monkeypatch.setattr("wattbench.store.os.replace", explode)
        with pytest.raises(OSError):
            store.persist_run(_record(), _files())
        monkeypatch.undo()
        assert store.list_runs() == []
        assert store.find_run_dir("r1") is None
        # the store stays usable and the same run id can be retried
        store.persist_run(_record(), _files())
        assert store.load_run("r1").record.run_id == "r1"

    def test_leftover_temp_dir_never_listed(self, store):
        store.persist_run(_record(), _files())
        stale = store.root / "c1" / "ph1" / ".tmp-r9-abc"
        stale.mkdir()
        (stale / MANIFEST_NAME).write_text(
            RunManifest("r9", "c1", "ph1", "valid", "2026-01-01T00:00:00", []).to_json()
        )
        assert [m.run_id for m in store.list_runs()] == ["r1"]

    def test_manifest_presence_defines_visibility(self, store):
        # a directory without manifest.json (crash before the final write)
        partial = store.root / "c1" / "ph1" / "r2"
        partial.mkdir(parents=True)
        (partial / "requests.csv").write_bytes(b"start_ms,endpoint,user,latency_ms,outcome\n")
        assert store.find_run_dir("r2") is None
        with pytest.raises(NotFound):
            store.load_run("r2")


class TestListing:
    def _populate(self, store):
        for commit, run in (("c1", "r1"), ("c1", "r2"), ("c2", "r3")):
            store.persist_run(_record(run_id=run, commit_id=commit), _files())

    def test_list_all_sorted_by_creation(self, store):
        self._populate(store)
        assert [m.run_id for m in store.list_runs()] == ["r1", "r2", "r3"]

    def test_list_filters_by_commit_and_plan(self, store):
        self._populate(store)
        assert [m.run_id for m in store.list_runs(commit_id="c1")] == ["r1", "r2"]
        assert [m.run_id for m in store.list_runs(commit_id="c2", plan_hash="ph1")] == ["r3"]
        assert store.list_runs(commit_id="c1", plan_hash="other") == []


class TestMaintenance:
    def test_meta_json_is_stable_readable_json(self, store):
        store.persist_run(_record(), _files())
        meta = json.loads((store.root / "c1" / "ph1" / "r1" / "meta.json").read_text())
        assert meta["run_id"] == "r1"
        assert meta["status"] == "valid"
        assert {d["kind"] for d in meta["domains"]} == {"cpu_package", "dram"}
