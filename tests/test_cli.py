import hashlib
import itertools
import json
import random
import time

import pytest

from macc import (
    SchemeParams,
    canonical_topology,
    construct_mcrd,
    random_topology,
    simulate,
    subfile_bytes,
    validate,
    verify_mcrd,
)
from macc import cli
from macc.analysis import CSV_HEADER
from macc.cli import _ENCODER, MAX_COMPARE_USERS, main
from macc.engine import MAX_USERS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_design_command(capsys):
    code, out, _ = run_cli(capsys, "design", "--m", "2", "--b", "4", "--mu", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["passed"]
    assert doc["verification"]["measured_mu"] == 1
    assert doc["design"]["blocks"][0][0] == [1, 2, 3, 4]
    assert doc["design"]["blocks"][1] == [
        [1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15], [4, 8, 12, 16]
    ]


def test_design_command_mu2(capsys):
    code, out, _ = run_cli(capsys, "design", "--m", "3", "--b", "2", "--mu", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["measured_mu"] == 2
    assert doc["design"]["blocks"][0][0] == [1, 2, 3, 4, 5, 6, 7, 8]


def test_design_trivial(capsys):
    code, out, _ = run_cli(capsys, "design", "--m", "1", "--b", "1", "--mu", "1")
    assert code == 0
    assert json.loads(out)["design"]["blocks"] == [[[1]]]


def test_topology_command(capsys, tmp_path):
    out_path = tmp_path / "topo.json"
    code, out, _ = run_cli(
        capsys, "topology", "--m", "2", "--b", "4", "--z", "2", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["validation"]["passed"]
    assert len(doc["topology"]["access"]) == 8


def test_topology_command_rejects_invalid_file(capsys, tmp_path):
    bad = {"m": 1, "b": 2, "z": 1, "access": [[1], [1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(
        capsys, "topology", "--m", "1", "--b", "2", "--z", "1", "--source", str(path)
    )
    assert code == 1
    assert not json.loads(out)["validation"]["c3_ok"]


def test_simulate_command(capsys, tmp_path):
    log = tmp_path / "tx.jsonl"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
        "--topology", "canonical", "--log", str(log), "--report", str(report),
    )
    assert code == 0
    assert "transmissions=32" in out
    assert "rate=2/1" in out
    assert "subpacketization=16" in out
    assert "decoded=8/8" in out
    lines = log.read_text().strip().split("\n")
    assert len(lines) == 32
    first = json.loads(lines[0])
    assert set(first) == {"n", "coords", "summands"}
    doc = json.loads(report.read_text())
    assert report.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc["rate"] == {"num": 2, "den": 1}
    assert all(doc["users_complete"])


def test_simulate_second_example_via_file(capsys, tmp_path):
    group = [[1, 3, 5], [2, 3, 5], [2, 3, 5], [2, 4, 5], [2, 3, 5], [2, 3, 6], [2, 3, 7]]
    access = [[s for s in row] for row in group]
    access += [[s + 7 for s in row] for row in group]
    path = tmp_path / "topo.json"
    path.write_text(json.dumps({"m": 2, "b": 7, "z": 3, "access": access}))
    code, out, _ = run_cli(
        capsys,
        "simulate", "--m", "2", "--b", "7", "--z", "3", "--t", "2",
        "--topology", str(path),
    )
    assert code == 0
    assert "transmissions=49" in out
    assert "rate=1/1" in out
    assert "decoded=14/14" in out


def test_simulate_reads_topology_command_output(capsys, tmp_path):
    # the file `macc topology --out` writes feeds straight into simulate
    topo = tmp_path / "topo.json"
    code, _, _ = run_cli(
        capsys, "topology", "--m", "2", "--b", "7", "--z", "3",
        "--source", "random", "--seed", "9", "--out", str(topo),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "simulate", "--m", "2", "--b", "7", "--z", "3", "--t", "2",
        "--topology", str(topo),
    )
    assert code == 0
    assert "rate=1/1" in out and "decoded=14/14" in out


def test_simulate_rejects_non_topology_file(capsys, tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text(json.dumps({"something": 1}))
    code, _, err = run_cli(
        capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
        "--topology", str(bad),
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("doc, field", [
    ([1, 2], "topology JSON"),
    ("topology", "topology JSON"),
    ({"topology": [1]}, "topology JSON"),
    ({"m": 2, "b": 4, "z": 2, "access": [1, 2]}, "'access'"),
    ({"m": 2, "b": 4, "z": 2, "access": [[1, "3"]] * 8}, "'access'"),
    ({"m": None, "b": 4, "z": 2, "access": [[1, 3]] * 8}, "'m'"),
])
def test_simulate_rejects_malformed_topology_fields(capsys, tmp_path, doc, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
        "--topology", str(bad),
    )
    assert code == 2
    assert field in err


@pytest.mark.parametrize("demands", [[None] + [1] * 7, {"1": 1}, [1.5] * 8, "1"])
def test_simulate_rejects_malformed_demands(capsys, tmp_path, demands):
    path = tmp_path / "demands.json"
    path.write_text(json.dumps(demands))
    code, _, err = run_cli(
        capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
        "--demands", str(path),
    )
    assert code == 2
    assert "demands must be" in err


def test_simulate_payload_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
        "--payload", "64", "--seed", "7",
    )
    assert code == 0
    assert "byte_oracle=ok" in out


@pytest.mark.parametrize("t", ["1", "2"])  # rate 1 and rate 0
@pytest.mark.parametrize("size", ["0", "-3"])
def test_simulate_rejects_payload_below_one(capsys, t, size):
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", t,
                             "--payload", size)
    assert code == 2 and out == ""
    assert err == "error: payload size must be >= 1\n"


def test_simulate_random_topology_seeded(capsys):
    code1, out1, _ = run_cli(
        capsys, "simulate", "--m", "2", "--b", "5", "--z", "2", "--t", "1",
        "--topology", "random", "--seed", "3", "--placement", "seeded",
    )
    code2, out2, _ = run_cli(
        capsys, "simulate", "--m", "2", "--b", "5", "--z", "2", "--t", "1",
        "--topology", "random", "--seed", "3", "--placement", "seeded",
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_demands_file(capsys, tmp_path):
    demands = tmp_path / "demands.json"
    demands.write_text(json.dumps([1] * 8))
    code, out, _ = run_cli(
        capsys,
        "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
        "--files", "1", "--demands", str(demands),
    )
    assert code == 0
    assert "decoded=8/8" in out


def test_compare_command(capsys, tmp_path):
    json_path = tmp_path / "rows.json"
    code, out, _ = run_cli(
        capsys,
        "compare", "--K", "100", "--z", "5",
        "--grid", "0.16,0.17,0.18,0.19,0.2", "--json", str(json_path),
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mn_num,mn_den,scheme,rate,log10_subpacketization"
    assert len(lines) == 1 + 5 * 8
    assert any(l.startswith("4,25,ours,2.000000") for l in lines)
    assert any(l.startswith("4,25,RK,4.000000") for l in lines)
    rows = json.loads(json_path.read_text())
    assert len(rows) == 40


def test_compare_empty_grid(capsys):
    code, out, _ = run_cli(capsys, "compare", "--K", "8", "--z", "2", "--grid", "")
    assert code == 0
    assert out == "mn_num,mn_den,scheme,rate,log10_subpacketization\n"


def test_compare_default_grid(capsys):
    code, out, _ = run_cli(capsys, "compare", "--K", "8", "--z", "2")
    assert code == 0
    # default grid: t/K for t = 0..ceil(K/z) = 0..4 -> 5 memories x 8 schemes
    assert len(out.strip().split("\n")) == 1 + 5 * 8
    # every shape runs, K <= 2z - 2 included, where SPE has no corner
    for k in range(1, 25):
        for z in range(1, k + 1):
            code, out, err = run_cli(capsys, "compare", "--K", str(k), "--z", str(z))
            assert code == 0 and err == "", (k, z, err)
            assert len(out.strip().split("\n")) == 1 + 8 * (-(-k // z) + 1), (k, z)


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "2", "--b", "4", "--z", "9", "--t", "1")
    assert code == 2
    assert "error" in err


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--m", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--K", "8", "--z", "9"], "need 1 <= --z <= --K, got --z 9 and --K 8"),
    (["--K", "0", "--z", "1"], "need 1 <= --z <= --K, got --z 1 and --K 0"),
    (["--K", "8", "--z", "0"], "need 1 <= --z <= --K, got --z 0 and --K 8"),
    (["--K", "8", "--z", "2", "--grid", "1/0"], "--grid: '1/0' is not"),
    (["--K", "8", "--z", "2", "--grid", "3/2"], "--grid: memory fraction 3/2 is outside [0, 1]"),
    (["--K", "8", "--z", "2", "--grid=-1/8"], "--grid: memory fraction -1/8 is outside [0, 1]"),
])
def test_compare_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run_cli(capsys, "compare", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message)


@pytest.mark.parametrize("grid", ["1e-5000", "1e-3000000"])
def test_compare_refuses_grid_entries_the_csv_cannot_print(capsys, grid):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compare", "--K", "8", "--z", "2", "--grid", grid)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: --grid: '{grid}' has more digits than the CSV prints (4300)\n"


@pytest.mark.parametrize("argv", [
    ["topology", "--m", "2", "--b", "4", "--z", "2", "--source", "FILE"],
    ["simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1", "--topology", "FILE"],
    ["simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1", "--demands", "FILE"],
])
def test_deeply_nested_json_input_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run_cli(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
    assert code == 2 and out == ""
    assert err == f"error: {path}: JSON nested too deeply to parse\n"


def test_simulate_topology_flag_fills_the_source(capsys, monkeypatch):
    args = cli.build_parser().parse_args(["simulate", "--m", "2", "--b", "4", "--z", "2",
                                          "--t", "1", "--topology", "random"])
    assert args.source == "random" and not hasattr(args, "topology")
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    out = capsys.readouterr().out
    assert " [--topology TOPOLOGY] " in out
    assert "\n  --topology TOPOLOGY   canonical | random | path to topology JSON\n" in out


def test_simulate_rejects_seed_outside_int64(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
                           "--payload", "4", "--seed", "99999999999999999999")
    assert code == 2 and err.startswith("error: --seed")
    code, out, _ = run_cli(capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
                           "--payload", "4", "--seed", str(-(2**63)))
    assert code == 0 and "byte_oracle=ok" in out


def test_random_topology_failure_names_tries_and_rate(capsys):
    code, _, err = run_cli(capsys, "topology", "--m", "2", "--b", "12", "--z", "1",
                           "--source", "random")
    assert code == 2
    assert "in 1000 tries" in err and "0 of 1000 draws accepted, acceptance rate 0" in err


@pytest.mark.parametrize("extra", [[], ["--payload", "8"]])
def test_simulate_log_lines_are_sorted_key_json(capsys, tmp_path, extra):
    log, demands_path = tmp_path / "tx.jsonl", tmp_path / "demands.json"
    demands = [u % 3 + 1 for u in range(12)]
    demands_path.write_text(json.dumps(demands))
    code, _, _ = run_cli(capsys, "simulate", "--m", "3", "--b", "4", "--z", "2", "--t", "1",
                         "--files", "3", "--demands", str(demands_path),
                         "--topology", "random", "--seed", "5", "--log", str(log), *extra)
    assert code == 0
    lines = log.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 * 4**3
    for line in lines:
        doc = json.loads(line)
        assert line == json.dumps(doc, sort_keys=True)
        assert [s["file"] for s in doc["summands"]] == \
            [demands[s["user"] - 1] for s in doc["summands"]]
        if extra:
            want = 0
            for s in doc["summands"]:
                want ^= int.from_bytes(subfile_bytes(5, s["file"], s["subfile"], 8), "big")
            assert doc["payload_hex"] == want.to_bytes(8, "big").hex()
        else:
            assert "payload_hex" not in doc


def test_simulate_rate_zero_writes_empty_log(capsys, tmp_path):
    log = tmp_path / "tx.jsonl"
    code, out, _ = run_cli(capsys, "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "2",
                           "--log", str(log))
    assert code == 0 and "transmissions=0" in out
    assert log.read_bytes() == b""


def test_simulate_refuses_schedule_above_row_limit(capsys):
    # 10**6 points fit the design budget, but 999 rounds of them do not fit the schedule
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--b", "1000", "--z", "1",
                             "--t", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: schedule of r=999 rounds x b^m=1000000 cells = 999000000 "
                   "transmissions exceeds 10000000\n")
    code, out, _ = run_cli(capsys, "simulate", "--m", "3", "--b", "20", "--z", "4", "--t", "1")
    assert code == 0 and "transmissions=128000\n" in out and "decoded=60/60\n" in out


def test_simulate_refuses_points_above_budget(capsys):
    # 1001**2 cells of one round fit the schedule rows, but not the point budget
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--b", "1001", "--z", "1",
                             "--t", "1000", "--topology", "random")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: 1002001 points exceeds budget 1000000\n"


def test_simulate_refuses_coverage_above_budget(capsys):
    # 10 rounds of 10**6 cells fit the rows and the points; 10**6 users' coverage does not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "1", "--b", "1000000", "--z", "1",
                             "--t", "999990")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: coverage tables of m*b^2 = 1000000000000 entries "
                   "exceed 10000000\n")


def test_simulate_refuses_payloads_above_budget(capsys):
    # 4 * (size + 100) bytes of payloads and contents: the limit admits 12499900 bytes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "1", "--b", "2", "--z", "1", "--t", "1",
                             "--payload", "12499901")
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == ("error: payloads and contents of (m+1)*r*F*(size+100) = 50000004 bytes "
                   "exceed 50000000\n")


@pytest.mark.parametrize("m, b, cost", [("2", "433", 100278037), ("222223", "1", 100000351)])
def test_design_refuses_work_above_budget(capsys, m, b, cost):
    # one past the largest accepted designs at m = 2, (2, 432), and at b = 1, (222222, 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "design", "--m", m, "--b", b)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: design work of {cost} element visits exceeds budget 100000000\n"


def test_topology_refuses_coverage_above_budget(capsys):
    # simulate's coverage budget bounds topology too, before any graph is built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "topology", "--m", "11", "--b", "1000", "--z", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: coverage tables of m*b^2 = 11000000 entries exceed 10000000\n"
    code, out, _ = run_cli(capsys, "topology", "--m", "10", "--b", "1000", "--z", "1")
    assert code == 0 and json.loads(out)["validation"]["passed"]


def test_compare_refuses_users_above_budget(capsys):
    start = time.perf_counter()
    k = MAX_COMPARE_USERS + 1
    code, out, err = run_cli(capsys, "compare", "--K", str(k), "--z", str(k))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: --K {k} exceeds the compare budget of {MAX_COMPARE_USERS} users\n"
    k = MAX_COMPARE_USERS
    code, out, _ = run_cli(capsys, "compare", "--K", str(k), "--z", str(k))
    assert code == 0 and out.startswith(CSV_HEADER)


@pytest.mark.parametrize("argv, message", [
    (["design", "--m", "100000", "--b", "2"], "b^m = 2^100000 points exceeds budget 1000000"),
    (["design", "--m", "3000000", "--b", "3"], "b^m = 3^3000000 points exceeds budget 1000000"),
    (["simulate", "--m", "20000", "--b", "2", "--z", "1", "--t", "1"],
     "b^m = 2^20000 points exceeds budget 1000000"),
])
def test_point_budgets_refuse_huge_powers_unbuilt(capsys, argv, message):
    # b**m is neither computed (3**3000000 takes about 0.6 s) nor formatted (past 4300
    # digits that raises) once it reaches 2**64
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", str(MAX_USERS + 1), "--b", "1", "--z", "1", "--t", "1"],
    ["topology", "--m", str(MAX_USERS + 1), "--b", "1", "--z", "1"],
])
def test_user_budget_bounds_b_equal_one(capsys, argv):
    # at b = 1 the point, row and coverage budgets never bind
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: K = m*b = {MAX_USERS + 1} users exceed {MAX_USERS}\n"


class _Writes:
    """A text stream, and its context manager, that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _recorded(monkeypatch, argv):
    """Run ``argv`` with stdout and every file `cli` opens replaced by `_Writes`."""
    stdout, files = _Writes(), {}
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs:
                        files.setdefault(path, _Writes()), raising=False)
    assert main(argv) == 0
    return stdout.writes, {path: stream.writes for path, stream in files.items()}


def _log_line(n, coords, summands, payload):
    doc = {"coords": list(coords), "n": n, "summands": [
        {"file": f, "subfile": s, "user": u} for u, f, s in summands]}
    if payload is not None:
        doc["payload_hex"] = payload.hex()
    return json.dumps(doc, sort_keys=True) + "\n"


def test_every_output_goes_out_in_writes_of_at_most_16_kb(monkeypatch):
    def check(writes, want):
        assert all(len(text) <= 2**14 for text in writes)
        assert "".join(writes) == want

    writes, files = _recorded(monkeypatch, ["design", "--m", "2", "--b", "100"])
    design = construct_mcrd(2, 100, 1)
    assert not files and len(writes) > 1
    check(writes, _ENCODER.encode({"design": design, "verification": verify_mcrd(design)}) + "\n")

    writes, _ = _recorded(monkeypatch, ["topology", "--m", "3", "--b", "400", "--z", "40",
                                        "--source", "random"])
    top = random_topology(3, 400, 40, seed=0)
    check(writes, _ENCODER.encode({"topology": top, "validation": validate(top)}) + "\n")

    writes, files = _recorded(monkeypatch, ["simulate", "--m", "2", "--b", "6", "--z", "2",
                                            "--t", "1", "--payload", "1024",
                                            "--log", "tx.jsonl", "--report", "report.json"])
    report = simulate(canonical_topology(2, 6, 2), SchemeParams(m=2, b=6, z=2, t=1, n_files=12),
                      payload_size=1024, seed=0)
    schedule = report.transmissions
    payloads = itertools.chain.from_iterable(schedule.payloads)
    lines = [_log_line(n, coords, zip(users, files_, subfiles), next(payloads))
             for n, summands in enumerate(schedule.rounds, start=1)
             for coords, users, files_, subfiles in zip(
                 zip(*schedule.cells), zip(*schedule.users), zip(*schedule.files), zip(*summands))]
    assert len(lines) == 144 and len(files["tx.jsonl"]) > 1
    check(files["tx.jsonl"], "".join(lines))
    check(files["report.json"], _ENCODER.encode(report.to_json_dict()) + "\n")
    assert writes == ["transmissions=144\nrate=4/1\nsubpacketization=36\ndecoded=12/12\n"
                      "coding_gain_min=2\ncoding_gain_max=2\nbyte_oracle=ok\n"]


def test_emit_skips_empty_chunks(monkeypatch, tmp_path):
    stdout = _Writes()
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    chunks = ["", "a", "", "", "b", "c" * 9000, "", "", "", "", "d"]
    cli._emit(iter(chunks), None)
    assert "".join(stdout.writes) == "".join(chunks)
    cli._emit(chunks, str(tmp_path / "out.txt"))
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "".join(chunks)


# sha256 over exit code, stdout, stderr, --log and --report bytes of every run below
SIMULATE_GOLDEN = "01532469f16d4beaf8887d32b173e942cacf1cc0242a087ddabad4ab68f935e5"


def test_simulate_output_bytes_are_pinned(capsys, tmp_path):
    log, report = tmp_path / "tx.jsonl", tmp_path / "report.json"
    seeded = ["--payload", "8", "--topology", "random", "--placement", "seeded", "--seed", "7"]
    digest = hashlib.sha256()
    for m, b in itertools.product((1, 2), range(1, 5)):
        for z, t, extra in itertools.product(range(1, b + 1), range(1, b + 1), ([], seeded)):
            shape = ["--m", str(m), "--b", str(b), "--z", str(z), "--t", str(t)]
            code, out, err = run_cli(capsys, "simulate", *shape, *extra,
                                     "--log", str(log), "--report", str(report))
            written = [path.read_bytes() if path.exists() else None for path in (log, report)]
            log.unlink(missing_ok=True)
            report.unlink(missing_ok=True)
            digest.update(repr((shape, extra, code, out, err, *written)).encode())
    assert digest.hexdigest() == SIMULATE_GOLDEN


# the same, over runs whose users share each file 3 ways
SHARED_SIMULATE_GOLDEN = "872177fed414c3414d170439484cf607d91a2ae8b9727547bc436f33ffe07d9b"


def test_simulate_shared_demand_bytes_are_pinned(capsys, tmp_path):
    log, report, demands = tmp_path / "tx.jsonl", tmp_path / "report.json", tmp_path / "d.json"
    digest = hashlib.sha256()
    for m, b in itertools.product((1, 2, 3), range(1, 5)):
        users = m * b
        demands.write_text(json.dumps([u // 3 + 1 for u in range(users)]))
        extra = ["--files", str(-(-users // 3)), "--demands", str(demands), "--payload", "4",
                 "--topology", "random", "--placement", "seeded", "--seed", "3"]
        for z, t in itertools.product(range(1, b + 1), repeat=2):
            shape = ["--m", str(m), "--b", str(b), "--z", str(z), "--t", str(t)]
            code, out, err = run_cli(capsys, "simulate", *shape, *extra,
                                     "--log", str(log), "--report", str(report))
            written = [path.read_bytes() if path.exists() else None for path in (log, report)]
            log.unlink(missing_ok=True)
            report.unlink(missing_ok=True)
            digest.update(repr((shape, code, out, err, *written)).encode())
    assert digest.hexdigest() == SHARED_SIMULATE_GOLDEN


# sha256 over exit code, stdout and stderr of every `topology` run below
TOPOLOGY_GOLDEN = "dd455e8ba33b382abb07efc7791810785634b5fff896f1dec62f11e3c671da18"


def _broken_access(rng, m, b, z):
    """Canonical access lists with one to three seeded faults: a cache of another
    group, a cache repeated or a second cache in its cell, a missed cell, one group
    reading a single user's caches (no perfect matching), or a random access list."""
    access = [list(caches) for caches in canonical_topology(m, b, z).access]
    for _ in range(rng.randint(1, 3)):
        u = rng.randrange(m * b)
        kind = rng.randrange(5)
        if kind == 0 and m > 1 and access[u]:
            group = u // b
            other = rng.choice([g for g in range(m) if g != group])
            access[u][rng.randrange(len(access[u]))] = other * b + rng.randint(1, b)
        elif kind == 1 and access[u]:
            access[u].append(rng.choice(access[u]))
            access[u].append(u // b * b + rng.randint(1, b))
        elif kind == 2 and access[u]:
            access[u].pop(rng.randrange(len(access[u])))
        elif kind == 3:
            first = u // b * b
            access[first:first + b] = [list(access[first]) for _ in range(b)]
        else:
            access[u] = rng.sample(range(1, m * b + 1), rng.randint(1, min(z + 1, m * b)))
        rng.shuffle(access[u])
    return access


def test_topology_output_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "topology.json"
    digest = hashlib.sha256()
    for m, b in itertools.product((1, 2, 3), range(1, 7)):
        for z in range(1, b + 1):
            shape = ["--m", str(m), "--b", str(b), "--z", str(z)]
            for source in (["canonical"], ["random", "--seed", "5"], ["random", "--seed", "6"]):
                code, out, err = run_cli(capsys, "topology", *shape, "--source", *source)
                digest.update(repr((shape, source, code, out, err)).encode())
    for n in range(280):
        rng = random.Random(n)
        m, b = rng.randint(1, 3), rng.randint(1, 6)
        z = rng.randint(1, b)
        path.write_text(json.dumps({"m": m, "b": b, "z": z,
                                    "access": _broken_access(rng, m, b, z)}))
        code, out, err = run_cli(capsys, "topology", "--m", str(m), "--b", str(b),
                                 "--z", str(z), "--source", str(path))
        digest.update(repr((n, code, out, err)).encode())
    assert digest.hexdigest() == TOPOLOGY_GOLDEN


# sha256 over exit code, stdout, stderr and --json bytes of every `compare` and `design`
# run below, including usage errors and a design over the point budget
COMPARE_DESIGN_GOLDEN = "010e33aacc749e920c31c5bcb3f8633172294615882edfef9e73531a0ee89099"


def test_compare_and_design_output_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "rows.json"
    runs = [["compare", "--K", str(k), "--z", str(z)] for k in range(1, 31) for z in range(1, k + 1)]
    runs += [["compare", "--K", "100", "--z", "5", "--grid", "0.16,0.17,0.18,0.19,0.2"],
             ["compare", "--K", "12", "--z", "2", "--grid", "1/2,1/3"],
             ["compare", "--K", "8", "--z", "9"],
             ["compare", "--K", "8", "--z", "2", "--grid", "3/2"],
             ["compare", "--K", "8", "--z", "2", "--grid", "x"]]
    runs += [["design", "--m", str(m), "--b", str(b), "--mu", str(mu)]
             for m, b, mu in ((1, 1, 1), (1, 5, 3), (2, 4, 1), (2, 3, 2), (3, 2, 2), (3, 3, 1),
                              (2, 1000, 10))]
    digest = hashlib.sha256()
    for argv in runs:
        extra = ["--json", str(path)] if argv[0] == "compare" else []
        code, out, err = run_cli(capsys, *argv, *extra)
        written = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        digest.update(repr((argv, code, out, err, written)).encode())
    assert digest.hexdigest() == COMPARE_DESIGN_GOLDEN
