"""Tests of the benchmark itself: its checks must be able to fail, its runs
must pass at this commit, and its output must match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

import run
import tracing
from reference import PROBE_NOMINAL_S, HostSpeed
from macc import cli
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _rewrite_log(argv, edit):
    """Run the real CLI, then replace its transmission log by ``edit(lines)``."""
    rc = cli.main(argv)
    log = Path(argv[argv.index("--log") + 1])
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    log.write_text("".join(edit(lines)), encoding="utf-8")
    return rc


def drop_log_line(argv):
    return _rewrite_log(argv, lambda lines: lines[:-1])


def flip_payload_byte(argv):
    def edit(lines):
        tx = json.loads(lines[0])
        payload = bytearray.fromhex(tx["payload_hex"])
        payload[0] ^= 0x01
        tx["payload_hex"] = payload.hex()
        return [json.dumps(tx, sort_keys=True) + "\n"] + lines[1:]
    return _rewrite_log(argv, edit)


def wrong_rate(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    sys.stdout.write(buf.getvalue().replace("rate=4/1", "rate=5/1"))
    return rc


def raises(argv):
    raise RuntimeError("injected fault")


def exits_nonzero(argv):
    cli.main(argv)
    return 1


@pytest.mark.parametrize("faulty_main, message", [
    (drop_log_line, "log has 863 lines"),
    (flip_payload_byte, "payload is not the XOR"),
    (wrong_rate, "stdout rate='5/1'"),
    (raises, "raised RuntimeError"),
    (exits_nonzero, "exit code 1"),
])
def test_every_injected_fault_counts_as_failed(faulty_main, message):
    records = run.run_workload(faulty_main, "simulate-bytes", seed=3, seconds=0,
                               speed=HostSpeed())
    assert len(records) == 2  # one warm-up op, one timed op
    assert all(any(message in p for p in r.problems) for r in records), records
    _, shown, _ = run.end_to_end(records, setup=[(0.1, 0.005)] * run.SETUP_LAUNCHES)
    assert shown["error_rate"][0] == 1.0


def test_recorded_digests_catch_output_that_passes_the_checks():
    def reformatted(argv):
        rc = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        if out.suffix == ".json":
            doc = json.loads(out.read_text(encoding="utf-8"))
            out.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        return rc

    records = run.run_workload(reformatted, "tools", seed=5, seconds=0)
    design, topology, compare = records[:3]  # the warm-up ops
    assert design.problems == ["out differs from its recorded digest"]
    assert topology.problems == ["out differs from its recorded digest"]
    assert compare.problems == []  # its --out is the CSV, left as written


def test_end_to_end_times_are_divided_by_the_probe_around_them():
    def record(seconds, reference, shape):
        return run.Record(seconds, [], 0, shape, reference=reference)

    # "a" takes 10 probes whatever the host's speed; one op was disturbed
    records = [record(0.1, 0.01, "a"), record(0.2, 0.02, "a"), record(0.5, 0.01, "a"),
               record(0.4, 0.02, "b")]
    assert run.reference_op_time(records) == pytest.approx((3 * 10 + 20) / 4 * PROBE_NOMINAL_S)
    launches = [(0.1, 0.01), (0.2, 0.02), (0.3, 0.01)]
    assert run.setup_time(launches) == pytest.approx(10 * PROBE_NOMINAL_S)


def test_workload_inputs_depend_only_on_the_seed(work_dir):
    for name, workload in WORKLOADS.items():
        first = [op.argv for op in islice(workload(11, work_dir), 6)]
        again = [op.argv for op in islice(workload(11, work_dir), 6)]
        other = [op.argv for op in islice(workload(12, work_dir), 6)]
        assert first == again and first != other, name


def test_tracer_records_spans_self_time_and_counted_leaf():
    engine = types.SimpleNamespace()
    engine.subfile_bytes = lambda seed, file, subfile, size=64: b"x" * size
    engine.deliver = lambda: [1, 2, 3]
    engine.place = lambda: None

    def simulate():
        engine.place()
        for sub in (1, 1, 2):
            engine.subfile_bytes(0, 1, sub)
        return engine.deliver()

    engine.simulate = simulate
    originals = dict(vars(engine))
    tracer = tracing.Tracer({"engine": engine})
    with tracer.installed(op=0):
        tracer.call(tracing.ROOT, lambda: engine.simulate())
    assert vars(engine) == originals

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["engine.simulate"].parent == by_name["cli"].id
    assert by_name["engine.deliver"].parent == by_name["engine.simulate"].id
    assert by_name["engine.deliver"].count == 3
    sim = by_name["engine.simulate"]
    children = sum(s.end - s.start for s in tracer.spans if s.parent == sim.id)
    expected_self = sim.end - sim.start - children - tracer.counted["busy_s"]
    assert sim.self_s == pytest.approx(expected_self, abs=1e-9)
    metrics = tracer.metrics(ops=1)
    assert metrics["engine.subfile_bytes.calls"][0] == 3
    assert metrics["engine.subfile_bytes.unique_ratio"][0] == pytest.approx(2 / 3)
    assert "designs.verify_mcrd" in tracer.missing


def _result(capsys, argv):
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_and_reports_every_metric(capsys, workload):
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert workload in names
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0"]

    result = _result(capsys, argv + ["--trace", "0"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result = _result(capsys, argv + ["--trace", "1"])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["cli.calls"] == 1 and metrics["cli.errors"] == 0
    if workload == "tools":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("engine."))
    else:
        assert metrics["engine.simulate.calls"] == 1
        assert all(v == 0 for k, v in metrics.items()
                   if k.startswith(("designs.verify_mcrd.", "analysis.")))
    if workload == "simulate-large":
        assert metrics["engine.subfile_bytes.calls"] == 0
        assert metrics["engine.deliver.transmissions"] == 128000


def test_traced_run_fails_when_a_traced_binding_is_gone(capsys, monkeypatch):
    gone = ("engine", "renamed_away", "engine.deliver")
    monkeypatch.setattr(tracing, "SPAN_TARGETS", tracing.SPAN_TARGETS + (gone,))
    argv = ["--workload", "tools", "--seed", "0", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1])["correct"] is False
    assert any("engine.renamed_away" in line for line in out)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "tools", "--seed", "1",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
