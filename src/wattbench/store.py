"""Durable append-only run storage: plain directories with CSV payloads and
a JSON manifest, keyed by commit and plan hash.

Layout: ``store/<commit_id>/<plan_hash>/<run_id>/`` with ``manifest.json``
written last; publication is an atomic directory rename, so a listed run is
always fully loadable.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path

from .agent import sha256_hex
from .errors import CorruptRun, DuplicateRun, NotFound
from .loadgen import RequestRecord, read_records_csv
from .metrics import Phase, PhaseMark, Sample, read_samples_csv
from .power import CounterReading, DomainKind, EnergyDomain

MANIFEST_NAME = "manifest.json"
META_NAME = "meta.json"

FILE_KINDS = ("power", "container", "requests", "meta")


@dataclass
class RunRecord:
    run_id: str
    commit_id: str
    plan_id: str
    plan_hash: str
    repetition_index: int
    status: str  # "valid" | "invalid"
    invalid_reason: str = ""
    data_paths: list[str] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    wall_clock_anchor: str = ""
    warmup_ms: int = 0
    duration_ms: int = 0
    domains: list[dict] = field(default_factory=list)  # {"kind", "max_range_uj"}
    warnings: list[str] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    def phase_marks(self) -> tuple[PhaseMark, PhaseMark]:
        return (
            PhaseMark(Phase.WARMUP, 0, self.warmup_ms),
            PhaseMark(Phase.MEASUREMENT, self.warmup_ms, self.duration_ms),
        )


@dataclass
class RunManifest:
    run_id: str
    commit_id: str
    plan_hash: str
    status: str
    created_at: str
    files: list[dict]  # {"relative_path", "kind", "checksum", "rows"}

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(**{k: data[k] for k in ("run_id", "commit_id", "plan_hash", "status",
                                           "created_at", "files")})


@dataclass
class LoadedRun:
    record: RunRecord
    manifest: RunManifest
    counters: dict[DomainKind, list[CounterReading]]
    samples: list[Sample]
    requests: list[RequestRecord]

    def domain(self, kind: DomainKind) -> EnergyDomain:
        for d in self.record.domains:
            if d["kind"] == kind.value:
                return EnergyDomain(kind, "stored", int(d["max_range_uj"]))
        raise KeyError(kind)


class RunStore:
    def __init__(self, root: str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- write --------------------------------------------------------------

    def persist_run(self, record: RunRecord, files: list[tuple[str, str, bytes]]) -> RunManifest:
        """Atomically store a run: write to a temp dir, rename, manifest last.

        ``files`` is a list of (relative_path, kind, payload) entries; the
        meta entry is generated from the record.
        """
        if self.find_run_dir(record.run_id) is not None:
            raise DuplicateRun(record.run_id)
        plan_dir = self.root / record.commit_id / record.plan_hash
        plan_dir.mkdir(parents=True, exist_ok=True)
        final_dir = plan_dir / record.run_id
        if final_dir.exists():
            raise DuplicateRun(record.run_id)

        meta_bytes = (json.dumps(asdict(record), sort_keys=True, indent=2) + "\n").encode("utf-8")
        all_files = list(files) + [(META_NAME, "meta", meta_bytes)]
        manifest = RunManifest(
            run_id=record.run_id,
            commit_id=record.commit_id,
            plan_hash=record.plan_hash,
            status=record.status,
            created_at=datetime.now(timezone.utc).isoformat(),
            files=[
                {
                    "relative_path": name,
                    "kind": kind,
                    "checksum": sha256_hex(data),
                    "rows": data.count(b"\n") - 1 if name.endswith(".csv") else 0,
                }
                for name, kind, data in sorted(all_files)
            ],
        )

        tmp_dir = Path(tempfile.mkdtemp(prefix=f".tmp-{record.run_id}-", dir=plan_dir))
        try:
            for name, _, data in all_files:
                path = tmp_dir / name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)
            (tmp_dir / MANIFEST_NAME).write_text(manifest.to_json())
            os.replace(tmp_dir, final_dir)
        except BaseException:
            shutil.rmtree(tmp_dir, ignore_errors=True)
            raise
        record.data_paths = [str(final_dir / name) for name, _, _ in all_files]
        return manifest

    # -- read ---------------------------------------------------------------

    def find_run_dir(self, run_id: str) -> Path | None:
        if run_id.startswith("."):
            return None
        for manifest_path in self.root.glob(f"*/*/{run_id}/{MANIFEST_NAME}"):
            return manifest_path.parent
        return None

    def load_run(self, run_id: str) -> LoadedRun:
        run_dir = self.find_run_dir(run_id)
        if run_dir is None:
            raise NotFound(run_id)
        manifest = RunManifest.from_json((run_dir / MANIFEST_NAME).read_text())
        file_bytes: dict[str, bytes] = {}
        for entry in manifest.files:
            path = run_dir / entry["relative_path"]
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise CorruptRun(f"{run_id}: missing {entry['relative_path']}") from exc
            if sha256_hex(data) != entry["checksum"]:
                raise CorruptRun(f"{run_id}: checksum mismatch for {entry['relative_path']}")
            file_bytes[entry["relative_path"]] = data

        record = RunRecord(**json.loads(file_bytes[META_NAME]))
        counters: dict[DomainKind, list[CounterReading]] = {}
        samples: list[Sample] = []
        requests: list[RequestRecord] = []
        for entry in manifest.files:
            name, kind = entry["relative_path"], entry["kind"]
            if kind == "power":
                rows = read_samples_csv(io.StringIO(file_bytes[name].decode("ascii")))
                domain_kind = DomainKind(name[len("power_"):-len(".csv")])
                counters[domain_kind] = [
                    CounterReading(s.timestamp_ms, int(s.value)) for s in rows
                ]
            elif kind == "container":
                samples.extend(read_samples_csv(io.StringIO(file_bytes[name].decode("ascii"))))
            elif kind == "requests":
                requests = read_records_csv(io.StringIO(file_bytes[name].decode("ascii")))
        return LoadedRun(record, manifest, counters, samples, requests)

    def list_runs(self, commit_id: str | None = None, plan_hash: str | None = None) -> list[RunManifest]:
        commit_glob = commit_id or "*"
        plan_glob = plan_hash or "*"
        manifests = [
            RunManifest.from_json(p.read_text())
            for p in self.root.glob(f"{commit_glob}/{plan_glob}/*/{MANIFEST_NAME}")
            if not p.parent.name.startswith(".")  # unpublished temp dirs
        ]
        return sorted(manifests, key=lambda m: (m.created_at, m.run_id))
