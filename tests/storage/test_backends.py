"""Protocol conformance for both backends + JSONL crash safety."""

from __future__ import annotations

import json

import pytest

from repro.storage import JsonlBackend, MemoryBackend, StorageBackend


def _fill(backend):
    backend.append("metrics", {"t": 0.0, "k": "V1/readTime", "v": 1.0})
    backend.append("metrics", {"t": 60.0, "k": "V1/readTime", "v": 2.0})
    backend.append("metrics", {"t": 120.0, "k": "V2/readTime", "v": 3.0})
    backend.append_many(
        "events",
        [{"t": 30.0, "k": "V1", "kind": "x"}, {"t": 90.0, "k": "V2", "kind": "y"}],
    )
    return backend


@pytest.fixture(params=["memory", "jsonl"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        b = JsonlBackend(tmp_path / "seg")
        yield b
        b.close()


class TestProtocolConformance:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, StorageBackend)

    def test_append_scan_preserves_order(self, backend):
        _fill(backend)
        values = [r["v"] for r in backend.scan("metrics")]
        assert values == [1.0, 2.0, 3.0]

    def test_scan_by_key(self, backend):
        _fill(backend)
        assert [r["v"] for r in backend.scan("metrics", key="V1/readTime")] == [1.0, 2.0]
        assert [r["v"] for r in backend.scan("metrics", key="nope")] == []

    def test_keyspaces_isolated_and_sorted(self, backend):
        _fill(backend)
        assert backend.keyspaces() == ["events", "metrics"]
        assert [r["kind"] for r in backend.scan("events")] == ["x", "y"]
        assert list(backend.scan("missing")) == []

    def test_append_many_returns_count(self, backend):
        n = backend.append_many("bulk", [{"t": float(i)} for i in range(17)])
        assert n == 17
        assert len(list(backend.scan("bulk"))) == 17

    def test_append_after_close_raises(self, backend):
        backend.close()
        with pytest.raises(ValueError):
            backend.append("metrics", {"t": 0.0})


class TestJsonlDurability:
    def test_reopen_replays_identically(self, tmp_path):
        root = tmp_path / "seg"
        original = _fill(JsonlBackend(root))
        before = {ks: list(original.scan(ks)) for ks in original.keyspaces()}
        original.close()

        reopened = JsonlBackend(root)
        after = {ks: list(reopened.scan(ks)) for ks in reopened.keyspaces()}
        assert json.dumps(before, sort_keys=True) == json.dumps(after, sort_keys=True)
        reopened.close()

    def test_reopen_without_close_still_replays(self, tmp_path):
        """A killed process never calls close(); flush-on-scan + append-only
        segments must still leave every record recoverable."""
        root = tmp_path / "seg"
        b = JsonlBackend(root)
        _fill(b)
        list(b.scan("metrics"))  # forces the segment flush a scan performs
        # no close(): simulate SIGKILL by dropping the object
        del b
        reopened = JsonlBackend(root)
        assert [r["v"] for r in reopened.scan("metrics")] == [1.0, 2.0, 3.0]
        reopened.close()

    def test_torn_trailing_line_is_discarded_and_truncated(self, tmp_path):
        root = tmp_path / "seg"
        b = _fill(JsonlBackend(root))
        b.close()
        segment = root / "metrics.jsonl"
        with segment.open("ab") as fh:
            fh.write(b'{"t": 999.0, "k": "V9/readTime", "v":')  # crash mid-append
        torn_size = segment.stat().st_size

        reopened = JsonlBackend(root)
        assert [r["v"] for r in reopened.scan("metrics")] == [1.0, 2.0, 3.0]
        # reading never mutates: a query process must not truncate a file a
        # live writer may still own
        assert segment.stat().st_size == torn_size
        # the first *append* reclaims the tail and lands on a clean boundary
        reopened.append("metrics", {"t": 180.0, "k": "V2/readTime", "v": 4.0})
        reopened.close()
        again = JsonlBackend(root)
        assert [r["v"] for r in again.scan("metrics")] == [1.0, 2.0, 3.0, 4.0]
        again.close()

    def test_corrupt_tail_json_is_discarded(self, tmp_path):
        root = tmp_path / "seg"
        b = _fill(JsonlBackend(root))
        b.close()
        with (root / "metrics.jsonl").open("ab") as fh:
            fh.write(b"not json at all\n")
        reopened = JsonlBackend(root)
        assert [r["v"] for r in reopened.scan("metrics")] == [1.0, 2.0, 3.0]
        reopened.close()

    def test_manifest_written_atomically_on_flush(self, tmp_path):
        root = tmp_path / "seg"
        b = _fill(JsonlBackend(root))
        b.flush()
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["keyspaces"]["metrics"]["records"] == 3
        assert not (root / ".MANIFEST.json.tmp").exists()
        b.close()

    def test_read_only_open_never_writes(self, tmp_path):
        """A query process (e.g. `repro incidents` on a live watch dir) must
        leave the writer's files — manifest included — untouched."""
        root = tmp_path / "seg"
        _fill(JsonlBackend(root)).close()
        (root / "MANIFEST.json").unlink()
        sizes = {p.name: p.stat().st_size for p in root.glob("*.jsonl")}

        reader = JsonlBackend(root)
        list(reader.scan("metrics"))
        reader.flush()
        reader.close()
        assert not (root / "MANIFEST.json").exists()
        assert {p.name: p.stat().st_size for p in root.glob("*.jsonl")} == sizes

    def test_invalid_keyspace_names_rejected(self, tmp_path):
        b = JsonlBackend(tmp_path / "seg")
        for bad in ("", "../evil", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                b.append(bad, {"t": 0.0})
        b.close()

    def test_scan_appends_during_iteration_are_not_lost(self, tmp_path):
        b = JsonlBackend(tmp_path / "seg")
        b.append_many("metrics", [{"t": float(i), "v": float(i)} for i in range(10)])
        seen = []
        for rec in b.scan("metrics"):
            seen.append(rec["v"])
            if len(seen) == 1:
                b.append("metrics", {"t": 99.0, "v": 99.0})
        # the in-flight scan is bounded to its snapshot ...
        assert seen == [float(i) for i in range(10)]
        # ... but the appended record is durable and visible to a new scan
        assert [r["v"] for r in b.scan("metrics")][-1] == 99.0
        b.close()


class TestFleetEventLogConformance:
    """The durable fleet event log rides the same backend contract: any
    conformant backend can carry the ``fleet_events`` keyspace."""

    EVENTS = [
        {"type": "advanced", "env": "env-a", "clock": 1800.0, "advanced_s": 1800.0},
        {"type": "incident_opened", "env": "env-a", "incident_id": "INC-env-a-1",
         "opened_at": 1750.0},
        {"type": "fleet_done", "advanced_s": 1800.0, "skew_s": 0.0},
    ]

    def test_append_and_tail_any_backend(self, backend):
        from repro.stream import FleetEventLog

        log = FleetEventLog(backend)
        for event in self.EVENTS:
            log.append(event)
        records = list(log.tail())
        assert [r["event"]["type"] for r in records] == [
            "advanced", "incident_opened", "fleet_done",
        ]
        assert [r["seq"] for r in records] == [0, 1, 2]
        # t comes from the event's own simulated time; env routes the key
        assert records[1]["t"] == 1750.0 and records[1]["k"] == "env-a"
        assert records[2]["t"] == 1800.0 and "k" not in records[2]
        # incremental tailing
        assert [r["seq"] for r in log.tail(after_seq=1)] == [2]
        assert log.events(env="env-a", kind="incident_opened")[0][
            "incident_id"
        ] == "INC-env-a-1"

    def test_seq_continues_across_reopen_when_durable(self, backend):
        """A log opened over a backend that already holds events continues
        their numbering, on every backend (memory included)."""
        from repro.stream import FleetEventLog

        log = FleetEventLog(backend)
        for event in self.EVENTS:
            log.append(event)
        log.flush()
        reopened = FleetEventLog(backend)
        assert reopened.last_seq == 2
        reopened.append({"type": "advanced", "env": "env-b", "clock": 3600.0})
        assert [r["seq"] for r in reopened.tail()] == [0, 1, 2, 3]

    def test_live_tailer_survives_writer_kill_and_resume(self, tmp_path):
        """SSE-style consumers hold their *own* backend handle and poll
        ``tail(after_seq)``: they must keep seeing events appended by a
        separate writer handle, across the writer being killed (handle
        abandoned after flush, never closed) and resumed (fresh handle that
        continues numbering).  At-least-once with monotone ``seq`` is the
        contract."""
        from repro.stream import FleetEventLog

        state = tmp_path / "state"
        writer = FleetEventLog.open(state)
        for i in range(3):
            writer.append({"type": "advanced", "env": "env-a", "clock": 60.0 * i})
        writer.flush()

        tailer = FleetEventLog(JsonlBackend(state / FleetEventLog.KEYSPACE))
        assert [r["seq"] for r in tailer.tail()] == [0, 1, 2]

        # The writer keeps going *after* the tailer opened: a reader's index
        # is frozen at replay time, so only the refresh inside ``tail()``
        # makes these visible.
        for i in range(3, 6):
            writer.append({"type": "advanced", "env": "env-a", "clock": 60.0 * i})
        writer.flush()
        assert [r["seq"] for r in tailer.tail(after_seq=2)] == [3, 4, 5]

        # Kill the writer and resume it elsewhere; the tailer never reopens.
        del writer
        resumed = FleetEventLog.open(state)
        assert resumed.last_seq == 5
        resumed.append({"type": "advanced", "env": "env-a", "clock": 360.0})
        resumed.flush()
        assert [r["seq"] for r in tailer.tail(after_seq=5)] == [6]
        seqs = [r["seq"] for r in tailer.tail()]
        assert seqs == sorted(seqs) == list(range(7))
        resumed.close()
        tailer.close()


class TestReadersReplayWhatTheBackendHolds:
    """A fresh journal store lists what its backend already holds, whether
    or not the backend outlives the process."""

    def test_fresh_journal_stores_over_memory_list_existing_records(self):
        from repro.correlate import CorrelationEngine, FleetIncidentStore
        from repro.stream import IncidentManager, IncidentStore
        from repro.stream.detectors import Detection

        backend = MemoryBackend()
        incidents = IncidentStore(backend)
        envs = ("env-a", "env-b", "env-c")
        managers = {env: IncidentManager(env, store=incidents) for env in envs}
        fleet = FleetIncidentStore(backend)
        engine = CorrelationEngine({"P1": envs}, drilldown_delay_s=0.0, store=fleet)
        for env, manager in managers.items():
            incident = manager.observe(
                Detection(
                    time=100.0, detector="ewma-drift", target="V1/readTime",
                    value=10.0, expected=5.0, magnitude=1.5, kind="drift",
                )
            )
            engine.observe(
                {"type": "incident_opened", "env": env,
                 "incident_id": incident.incident_id, "opened_at": 100.0}
            )
        for env in envs:
            engine.observe({"type": "advanced", "env": env, "advanced_s": 200.0})
        assert len(incidents.history()) == 3
        assert len(fleet.history()) == 1

        assert IncidentStore(backend).history() == incidents.history()
        assert FleetIncidentStore(backend).history() == fleet.history()
