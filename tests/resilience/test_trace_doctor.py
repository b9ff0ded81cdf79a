"""repro-doctor on the content-addressed trace store (D011, D019)."""

import json

from repro.machine.presets import r8000
from repro.resilience.doctor import (
    TRACE_STORE_LABEL,
    audit_trace_store,
    main,
    repair,
)
from repro.sim.engine import Simulator
from repro.trace.store import TraceCapture, TraceStore, trace_key_for


def tiny_program(context):
    context.recorder.record_lines([0, 1, 2, 3, 2, 1])
    context.recorder.count_instructions(10)
    return None


def another_program(context):
    context.recorder.record_lines([7, 8, 9])
    context.recorder.count_instructions(5)
    return None


def populate(root, programs=(tiny_program, another_program)):
    machine = r8000(64)
    store = TraceStore(root)
    simulator = Simulator(machine, verify=False)
    digests = []
    for program in programs:
        capture = TraceCapture()
        result = simulator.run(program, capture=capture)
        key = trace_key_for(program, None, machine, 4096)
        digests.append(store.put(key, capture, result, machine, 4096))
    assert all(digests)
    return store, digests


def codes(findings):
    return sorted(f.code for f in findings)


class TestAudit:
    def test_healthy_store_is_clean(self, tmp_path):
        root = tmp_path / "traces"
        populate(root)
        assert audit_trace_store(root) == []

    def test_absent_store_is_clean(self, tmp_path):
        assert audit_trace_store(tmp_path / "nowhere") == []

    def test_corrupt_object_is_d019(self, tmp_path):
        root = tmp_path / "traces"
        store, digests = populate(root)
        flip_last_byte(store.object_path(digests[0]))
        findings = audit_trace_store(root)
        assert codes(findings) == ["D019"]
        assert findings[0].run_id == TRACE_STORE_LABEL
        assert findings[0].severity == "warning"

    def test_stray_tmp_is_d011(self, tmp_path):
        root = tmp_path / "traces"
        store, digests = populate(root)
        stray = store.object_path(digests[0]).with_name(f"{digests[0]}.rtr.tmp")
        stray.write_bytes(b"partial")
        findings = audit_trace_store(root)
        assert codes(findings) == ["D011"]
        assert findings[0].paths == [stray]


def flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRepair:
    def test_repair_restores_clean_audit(self, tmp_path):
        root = tmp_path / "traces"
        store, digests = populate(root)
        flip_last_byte(store.object_path(digests[1]))  # D019
        (root / "objects" / "zz").mkdir(parents=True, exist_ok=True)
        (root / "objects" / "zz" / "orphan.tmp").write_bytes(b"partial")
        findings = audit_trace_store(root)
        assert codes(findings) == ["D011", "D019"]

        actions = repair(findings)
        assert f"D019: deleted {digests[1]}.rtr" in actions
        assert "D011: deleted orphan.tmp" in actions
        assert audit_trace_store(root) == []
        assert [p.stem for p in store.object_paths()] == [digests[0]]

    def test_repair_keeps_valid_objects_replayable(self, tmp_path):
        root = tmp_path / "traces"
        machine = r8000(64)
        store, digests = populate(root)
        flip_last_byte(store.object_path(digests[1]))
        repair(audit_trace_store(root))
        fresh = TraceStore(root)
        key = trace_key_for(tiny_program, None, machine, 4096)
        stored = fresh.get(key)
        assert stored is not None
        replayed = Simulator(machine, verify=False).replay(stored)
        live = Simulator(machine, verify=False).run(tiny_program)
        assert replayed.stats == live.stats


class TestDoctorCli:
    def test_cli_audits_and_repairs(self, tmp_path, capsys):
        root = tmp_path / "traces"
        store, digests = populate(root)
        flip_last_byte(store.object_path(digests[0]))
        args = ["--runs-dir", str(tmp_path / "runs"), "--trace-store", str(root)]

        code = main(args)
        out = capsys.readouterr().out
        assert code == 0  # warnings only, no errors
        assert "D019" in out
        assert "trace store" in out

        code = main([*args, "--repair"])
        out = capsys.readouterr().out
        assert code == 0
        assert f"deleted {digests[0]}.rtr" in out

        code = main(args)
        out = capsys.readouterr().out
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_cli_json_format(self, tmp_path, capsys):
        root = tmp_path / "traces"
        store, digests = populate(root)
        stray = store.object_path(digests[0]).with_name(f"{digests[0]}.rtr.tmp")
        stray.write_bytes(b"partial")
        code = main(
            [
                "--runs-dir",
                str(tmp_path / "runs"),
                "--trace-store",
                str(root),
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["healthy"] is False
        assert {f["code"] for f in payload["findings"]} == {"D011"}

    def test_cli_repair_sweeps_a_lone_stray_tmp(self, tmp_path):
        root = tmp_path / "traces"
        store, digests = populate(root)
        stray = store.object_path(digests[0]).with_name(f"{digests[0]}.rtr.tmp")
        stray.write_bytes(b"partial")
        args = ["--runs-dir", str(tmp_path / "runs"), "--trace-store", str(root)]
        assert main([*args, "--repair"]) == 0
        assert not stray.exists()
        assert audit_trace_store(root) == []
