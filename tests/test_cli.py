import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from macc import (
    SchemeParams,
    canonical_topology,
    comparison_table,
    construct_mcrd,
    random_topology,
    simulate,
    subfile_bytes,
    validate,
    verify_mcrd,
)
import macc
from macc import cli
from macc.analysis import json_default, rows_to_csv
from macc.cli import MAX_GRID_DIGITS, check_compare_cost, main, write_log
from macc.designs import (MAX_HELD_BYTES, MAX_STEPS, PointBudgetError, check_design_cost,
                          check_terms)
from macc.engine import Schedule, check_cost, user_terms

# the stdlib's own indented encoding, which `cli._json_doc` must reproduce byte for byte
ORACLE = json.JSONEncoder(sort_keys=True, indent=2, default=json_default)


def check_graph_cost(m, b, z):
    """`topology`'s price of its flags, the users' terms of the cost model."""
    check_terms("topology", *user_terms(m, b, z))


def _accepted(price, *args) -> bool:
    try:
        price(*args)
    except PointBudgetError:
        return False
    return True


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
    ({"m": 2, "b": 4, "z": 1, "access": [[1, 3]] * 8}, "does not match --m/--b/--z"),
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


ACCESS_REFUSAL = "topology field 'access' must be a list of lists of integer cache ids"


# each a valid (2, 2, 1) topology document with one field changed (None drops it)
@pytest.mark.parametrize("field, value, message", [
    ("access", [[1.0], [2], [3], [4]], ACCESS_REFUSAL),
    ("access", [[True], [2], [3], [4]], ACCESS_REFUSAL),
    ("access", [["1"], [2], [3], [4]], ACCESS_REFUSAL),
    ("access", [[[1]], [2], [3], [4]], ACCESS_REFUSAL),
    ("access", [1, [2], [3], [4]], ACCESS_REFUSAL),
    ("access", "[[1], [2], [3], [4]]", ACCESS_REFUSAL),
    ("access", None, "{path} is not a topology JSON (need m, b, z, access)"),
    ("m", "2", "topology field 'm' must be an integer"),
], ids=["float-id", "bool-id", "string-id", "nested-list", "number-row", "string-access",
        "no-access", "string-m"])
def test_malformed_topology_files_are_refused_by_both_commands(capsys, tmp_path, field, value,
                                                              message):
    doc = {"m": 2, "b": 2, "z": 1, "access": [[1], [2], [3], [4]], field: value}
    path = tmp_path / "topology.json"
    path.write_text(json.dumps({key: v for key, v in doc.items() if v is not None}))
    shape = ["--m", "2", "--b", "2", "--z", "1"]
    for argv in (["topology", *shape, "--source", str(path)],
                 ["simulate", *shape, "--t", "1", "--topology", str(path)]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n"), argv


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


def test_compare_json_refuses_rates_past_the_digit_limit_before_writing(capsys, tmp_path):
    # the entry fits MAX_GRID_DIGITS, but an interpolated rate's denominator is the entry's
    # times a few more digits, past what int-to-str conversion prints
    csv, rows = tmp_path / "rows.csv", tmp_path / "rows.json"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compare", "--K", "200", "--z", "1", "--grid",
                             "1/" + "7" * 4298, "--out", str(csv), "--json", str(rows))
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: --json: an exact rate has more than {MAX_GRID_DIGITS} digits\n"
    assert not csv.exists() and not rows.exists()


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
    # 10**6 points fit the design budget, but the work of 999 rounds of them does not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--b", "1000", "--z", "1",
                             "--t", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: simulate needs about 17992540000 steps, over 60000000; its largest "
                   "term is broadcast work 2*rows*(m+5) = 13986000000\n")
    code, out, _ = run_cli(capsys, "simulate", "--m", "3", "--b", "20", "--z", "4", "--t", "1")
    assert code == 0 and "transmissions=128000\n" in out and "decoded=60/60\n" in out


def test_simulate_refuses_points_above_budget(capsys):
    # one round of 1001**2 cells fits the steps, but not decode's table of 2002 users'
    # rows of 1001**2 + 1 states
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--b", "1001", "--z", "1",
                             "--t", "1000", "--topology", "random")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: simulate needs about 2765784021 held bytes, over 250000000; its "
                   "largest term is decode's table 5*K*(F+1)/4 = 2507510005\n")


def test_simulate_refuses_coverage_above_budget(capsys):
    # 10 rounds of 10**6 cells fit the points; 10**6 users' pools of 10**6 slots do not
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "1", "--b", "1000000", "--z", "1",
                             "--t", "999990")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: simulate needs about 5000400000000 steps, over 60000000; its "
                   "largest term is user work K*(250+20*z+5*b) = 5000270000000\n")


def test_simulate_refuses_payloads_above_budget(capsys):
    # 10 * (size + 100) held bytes of payloads and contents: the limit admits 24999693 bytes
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--m", "1", "--b", "2", "--z", "1", "--t", "1",
                             "--payload", "24999694")
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == ("error: simulate needs about 250000003 held bytes, over 250000000; its "
                   "largest term is payloads and contents 5*(m+1)*rows*(size+100)/2 = 249997940\n")


@pytest.mark.parametrize("m, b, mu, message", [
    ("416667", "1", "1", "60000052 steps, over 60000000; its largest term is blocks and "
                         "classes 70*m*(b+1) = 58333380"),
    ("1", "769230", "1", "60000010 steps, over 60000000; its largest term is blocks and "
                         "classes 70*m*(b+1) = 53846170"),
    ("16", "2", "11", "259529280 held bytes, over 250000000; its largest term is block "
                      "entries 20*m*mu*b^m = 230686720"),
    ("1", "1", "9999960", "79999820 steps, over 60000000; its largest term is points "
                          "4*mu*b^m = 39999840"),
], ids=["b=1", "m=1", "mu-at-16-2", "mu-at-1-1"])
def test_design_refuses_work_above_budget(capsys, m, b, mu, message):
    # one past the largest accepted designs at b = 1, (416666, 1), at m = 1, (1, 769229),
    # and at (16, 2) in mu, (16, 2, 10), before any block is built; at (1, 1, 9999960) a
    # fresh process took 7.1 s and 556 MB with the design's terms lifted
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "design", "--m", m, "--b", b, "--mu", mu)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: design needs about {message}\n"
    for shape in ((416666, 1, 1), (1, 769229, 1), (16, 2, 10)):
        check_design_cost(*shape)


def test_design_accepts_what_its_block_entries_allowed():
    # the cost model accepts every design that the 10**6 point budget and the 10**7 block
    # entries m*(mu*b^m + 40*b) accepted before it measured the design's terms
    for m, b, mu in itertools.product((1, 2, 3, 5, 8, 10, 16, 19, 243902, 243903),
                                      (1, 2, 3, 10, 1000, 243902, 243903), (1, 2, 9, 10, 976)):
        if m * (b.bit_length() - 1) < 64 and mu * b**m <= 10**6:
            assert (_accepted(check_design_cost, m, b, mu)
                    or m * (mu * b**m + 40 * b) > 10**7), (m, b, mu)


@pytest.mark.parametrize("m, b", [("4", "14"), ("5", "8")])
def test_design_accepts_shapes_that_only_the_intersection_count_refused(capsys, m, b):
    # refused while the check intersected every block tuple, mu*b^(2m-1) element visits
    code, out, _ = run_cli(capsys, "design", "--m", m, "--b", b, "--mu", "1")
    assert code == 0 and json.loads(out)["verification"]["passed"]


def test_topology_refuses_coverage_above_budget(capsys):
    # the users' terms of the cost model, before any graph is built: one past the largest
    # accepted b at m = 11 and z = 1, (11, 1017, 1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "topology", "--m", "11", "--b", "1018", "--z", "1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == ("error: topology needs about 60021280 steps, over 60000000; its largest "
                   "term is user work K*(250+20*z+5*b) = 60021280\n")
    check_graph_cost(11, 1017, 1)
    code, out, _ = run_cli(capsys, "topology", "--m", "10", "--b", "1000", "--z", "1")
    assert code == 0 and json.loads(out)["validation"]["passed"]


def test_topology_matches_the_largest_one_cache_file_in_time(capsys, tmp_path):
    # every user of the largest accepted group at z = 1 reads cache 1, so the greedy pass
    # leaves b - 1 users to the C3 matching, whose searches all fail at cache 1 and keep
    # its mark; the 5*b steps a user of the user work term, which price place's pool in
    # simulate and stand for the matching's successful searches, set this edge
    b = 3437
    check_graph_cost(1, b, 1)
    with pytest.raises(PointBudgetError):
        check_graph_cost(1, b + 1, 1)
    path = tmp_path / "one_cache.json"
    path.write_text(json.dumps({"m": 1, "b": b, "z": 1, "access": [[1]] * b}))
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "topology", "--m", "1", "--b", str(b), "--z", "1",
                           "--source", str(path))
    assert time.perf_counter() - start < 6
    assert code == 1
    assert json.loads(out)["validation"]["violations"] == [
        f"C3: group 1 has maximum matching 1 < {b}"]


def test_topology_refuses_access_entries_above_budget(capsys):
    # the K*z access entries are priced by the users' terms before any list is built
    for argv, steps in ((["--m", "1", "--b", "1733", "--z", "1733"], 75515475),
                        (["--m", "10", "--b", "1000", "--z", "301"], 112700000)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "topology", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (f"error: topology needs about {steps} steps, over 60000000; its "
                       f"largest term is user work K*(250+20*z+5*b) = {steps}\n")
    # the largest accepted z at b = z and at (10, 1000)
    check_graph_cost(1, 1544, 1544)
    check_graph_cost(10, 1000, 37)
    with pytest.raises(PointBudgetError):
        check_graph_cost(10, 1000, 38)
    # a z outside 1..b keeps the topology's own message
    code, _, err = run_cli(capsys, "topology", "--m", "1", "--b", "3", "--z", str(10**12))
    assert code == 2 and err == f"error: need 1 <= z <= b, got z={10**12}, b=3\n"


class _Priced(Exception):
    """Raised in place of building a topology, once `topology` has priced its shape."""


@pytest.mark.parametrize("m, b, z, accepted", [
    (150001, 1, 1, True), (218181, 1, 1, True), (1, 1544, 1544, True),
    (1, 1545, 1545, False), (1, 1732, 1732, False), (1, 3162, 948, False),
    (10, 1000, 300, False),
])
def test_topology_prices_a_graph_as_simulate_does(capsys, monkeypatch, m, b, z, accepted):
    # topology accepts a shape iff the users' terms of the cost model fit both limits,
    # and accepts every graph that simulate accepts at some t
    def priced(args):
        raise _Priced

    monkeypatch.setattr(cli, "_load_topology", priced)
    k = m * b
    fits = (k * (250 + 20 * z + 5 * b) <= MAX_STEPS
            and k * (800 + 80 * z + 8 * b) <= MAX_HELD_BYTES)
    assert fits == accepted
    try:
        code = main(["topology", "--m", str(m), "--b", str(b), "--z", str(z)])
    except _Priced:
        code = None
    assert (code is None) == accepted, capsys.readouterr().err
    if any(_accepted(check_cost, m, b, z, t) for t in range(1, b + 1)):
        assert code is None


@pytest.mark.parametrize("z, edge", [(1, 5449), (8, 17728)])
def test_compare_refuses_big_integers_above_budget(capsys, z, edge):
    # one past the largest default-grid K at z = 1 and z = 8, priced in O(1) before any
    # binomial is computed; K = 16000 at z = 8 takes about 1 s
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compare", "--K", str(edge + 1), "--z", str(z))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err.startswith("error: compare needs about ")
    assert "; its largest term is big integers (K/z+entries)*bits^2/6144 = " in err
    check_compare_cost(edge, z, None)
    check_compare_cost(16000, 8, None)


def test_compare_refuses_grid_rows_above_budget(capsys):
    # 8 table rows per --grid entry, counted by commas before any entry is parsed, and up
    # to three subpacketizations of about K bits each at z = 1: the steps admit 13090
    # entries at K = 4000; 100000 at K = 100 took 12.9 s and 594 MB unpriced
    for k, entries, message in (
            (4000, 13091, "60001732 steps, over 60000000; its largest term is big integers "
                          "(K/z+entries)*bits^2/6144 = 44507812"),
            (100, 100000, "112175723 steps, over 60000000; its largest term is table rows "
                          "140*8*entries = 112000000")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "compare", "--K", str(k), "--z", "1",
                                 "--grid", ",".join(["0"] * entries))
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err == f"error: compare needs about {message}\n"
    check_compare_cost(4000, 1, ",".join(["0"] * 13090))


def test_compare_json_integers_stay_printable():
    # --json prints every subpacketization whole, and int-to-str refuses more than 4300
    # digits (14284 bits).  At the largest K the cost model admits for each z <= 4096 (with
    # the fewest grid entries), ours' b^(K/b) for b >= z and NT's K*C(K - t'z + t', t'), the
    # largest corners, stay below that; past z = 4096, ours' corners refuse K > 3750000
    def admitted(k, z):
        return _accepted(check_compare_cost, k, z, "0")

    def log2_nt(k, z, t):  # log2 of C(K - t'z + t', t')
        n = k - t * z + t
        return (math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)) / math.log(2)

    limit = MAX_GRID_DIGITS * math.log2(10)
    for z in range(1, 4097):
        lo, hi = z, 2 * z  # the largest admitted K, by doubling and bisection
        while admitted(hi, z):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid, z) else (lo, mid)
        k, lo, hi = lo, 1, lo // z  # binomials along a line of Pascal's triangle are
        while lo < hi:              # log-concave: bisect for the t' where they stop rising
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if log2_nt(k, z, mid + 1) > log2_nt(k, z, mid) else (lo, mid)
        b = max(z, 3)  # log2(b)/b falls from b = 3 on
        assert max((k // b) * math.log2(b), log2_nt(k, z, lo) + math.log2(k)) < limit - 500, (k, z)
    assert not admitted(3750001, 3750001)
    assert 3750000 * math.log2(4097) / 4097 < limit - 500


@pytest.mark.parametrize("argv, message", [
    (["design", "--m", "100000", "--b", "2"], "b^m = 2^100000 points is 2^64 or more"),
    (["design", "--m", "3000000", "--b", "3"], "b^m = 3^3000000 points is 2^64 or more"),
    (["simulate", "--m", "20000", "--b", "2", "--z", "1", "--t", "1"],
     "b^m = 2^20000 points is 2^64 or more"),
], ids=["design-2^100000", "design-3^3000000", "simulate-2^20000"])
def test_point_budgets_refuse_huge_powers_unbuilt(capsys, argv, message):
    # b**m is neither computed (3**3000000 takes about 0.6 s) nor formatted (past 4300
    # digits that raises) once it reaches 2**64
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "218182", "--b", "1", "--z", "1", "--t", "1"],
    ["topology", "--m", "218182", "--b", "1", "--z", "1"],
])
def test_user_budget_bounds_b_equal_one(capsys, argv):
    # at b = 1 only the users bind, one past (218181, 1, 1): simulate's and topology's
    # user work, one term of one cost model
    message = (f"{argv[0]} needs about 60000050 steps, over 60000000; its largest term is "
               "user work K*(250+20*z+5*b) = 60000050")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_every_exported_error_is_a_value_error():
    # main maps ValueError and OSError to exit 2, so each refusal the package raises is one
    errors = {name for name, obj in vars(macc).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert errors == {"PointBudgetError", "MatchingError", "GenerationError",
                      "ApplicabilityError"}
    assert all(issubclass(getattr(macc, name), ValueError) for name in errors)


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


def test_every_output_goes_out_in_writes_of_at_most_64_kb(monkeypatch):
    def check(writes, want):
        assert all(len(text) <= 2 * cli._WRITE for text in writes)
        assert "".join(writes) == want

    writes, files = _recorded(monkeypatch, ["design", "--m", "2", "--b", "100"])
    design = construct_mcrd(2, 100, 1)
    assert not files and len(writes) > 1
    check(writes, ORACLE.encode({"design": design, "verification": verify_mcrd(design)}) + "\n")

    writes, _ = _recorded(monkeypatch, ["topology", "--m", "3", "--b", "400", "--z", "40",
                                        "--source", "random"])
    top = random_topology(3, 400, 40, seed=0)
    check(writes, ORACLE.encode({"topology": top, "validation": validate(top)}) + "\n")

    writes, files = _recorded(monkeypatch, ["simulate", "--m", "2", "--b", "6", "--z", "2",
                                            "--t", "1", "--payload", "1024",
                                            "--log", "tx.jsonl", "--report", "report.json"])
    report = simulate(canonical_topology(2, 6, 2), SchemeParams(m=2, b=6, z=2, t=1, n_files=12),
                      payload_size=1024, seed=0)
    lines = _log_lines(report.transmissions)
    assert len(lines) == 144 and len(files["tx.jsonl"]) > 1
    check(files["tx.jsonl"], "".join(lines))
    check(files["report.json"], ORACLE.encode(report.to_json_dict()) + "\n")
    assert writes == ["transmissions=144\nrate=4/1\nsubpacketization=36\ndecoded=12/12\n"
                      "coding_gain_min=2\ncoding_gain_max=2\nbyte_oracle=ok\n"]

    writes, files = _recorded(monkeypatch, ["compare", "--K", "1680", "--z", "5",
                                            "--out", "rows.csv", "--json", "rows.json"])
    rows = comparison_table(1680, 5, [Fraction(t, 1680) for t in range(337)])
    assert not writes and len(files["rows.csv"]) > 1 and len(files["rows.json"]) > 1
    check(files["rows.csv"], "".join(rows_to_csv(rows)))
    check(files["rows.json"], json.dumps([r.to_json_dict() for r in rows], sort_keys=True,
                                         default=json_default) + "\n")


def _doc_text(doc):
    return "".join(cli._json_doc(doc))


def _scalar_runs():
    """Lists of scalars at the lengths around the encoder's slice, plain and nested."""
    cut = cli._SLICE
    for size in (0, 1, cut - 1, cut, cut + 1, 3 * cut + 7):
        yield list(range(size))
        yield {"runs": [tuple(range(size)), [f"é{i}\"\n" for i in range(size)]], "n": size}
        yield [[i * 0.5, None, i % 2 == 0] for i in range(size)]
        yield [i if i % 5 else [i, {"k": i}] for i in range(size)]  # scalar and nested items


def _real_docs():
    design = construct_mcrd(2, 20, 1)
    yield {"design": design, "verification": verify_mcrd(design)}
    top = random_topology(3, 40, 4, seed=3)
    yield {"topology": top, "validation": validate(top)}
    report = simulate(canonical_topology(2, 20, 4), SchemeParams(m=2, b=20, z=4, t=1, n_files=40))
    assert len(report.beneficiary_counts) > cli._SLICE
    yield report.to_json_dict()


EDGE_DOCS = [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}, ()], {"a": [[[]], {"b": {}}]}, (1, (2, ())),
    "", 'quote " backslash \\ newline \n tab \t bell \x07 é ☃ \U0001f600', {"é": "☃"},
    [True, False, None], [True], [None, None], [0.1, -0.0, 1e300, 1e-7, float("inf"),
                                              float("-inf"), float("nan")],
    [1, "x", 2.5, None, True, -3], 7, -1.5, None, True,
    {"rate": Fraction(7, 3), "leaf": [Fraction(1, 2), Fraction(-4)]},
    {"report": validate(canonical_topology(2, 4, 2)), "z": [validate(canonical_topology(1, 2, 1))]},
]


def test_json_doc_matches_the_stdlib_indented_encoder():
    for doc in itertools.chain(EDGE_DOCS, _scalar_runs(), _real_docs()):
        assert _doc_text(doc) == ORACLE.encode(doc) + "\n", doc


def test_json_doc_check_catches_a_wrong_separator(monkeypatch):
    # the scalar runs written with the one-line separator instead of newline and indent
    monkeypatch.setattr(cli, "_run_encoder", lambda level: json.JSONEncoder(separators=(", ", ": ")))
    assert _doc_text([]) == ORACLE.encode([]) + "\n"
    assert _doc_text([1, 2]) != ORACLE.encode([1, 2]) + "\n"
    design = construct_mcrd(2, 3, 1)
    doc = {"design": design, "verification": verify_mcrd(design)}
    assert _doc_text(doc) != ORACLE.encode(doc) + "\n"


def _row_lists():
    """Lists of rows around the rows path's limits, each with the lengths of the row
    lists that the path writes for it."""
    cut = cli._SLICE
    yield [[1, -2, 3]] * 5, [5]
    yield [[0.5, -0.0, 1e300, float("inf"), float("nan")], [True, False], [None], [2**70]], [4]
    yield [(1, 2), [3, 4, 5], (6,), [7]], [4]  # list and tuple rows
    yield [list(range(cut))] * 3, [3]
    yield [list(range(cut + 1))] * 3, []
    yield [list(range(i % 7 + 1)) for i in range(3 * cut + 5)], [3 * cut + 5]
    yield [[1, 2], [], [3]], []  # an empty row
    yield [[1, "],\n  ["], [2]], []  # a str, spelled as a row boundary
    yield [[1], ["],\n    ["]], []
    yield [], []
    yield {"classes": [[[1, 2], [3]], [[4, 5, 6]], [[7], [8, 9]]]}, [2, 1, 2]  # design blocks
    yield {"a": {"b": [[[[1]], [[2, 3]]]]}}, [1, 1]


def test_json_doc_writes_rows_of_numbers_a_slice_at_a_time(monkeypatch):
    calls, rows = [], cli._rows
    monkeypatch.setattr(cli, "_rows", lambda obj, *args: calls.append(len(obj)) or rows(obj, *args))
    for doc, written in _row_lists():
        for outer in (doc, {"x": doc}, [doc, 1]):
            calls.clear()
            assert _doc_text(outer) == ORACLE.encode(outer) + "\n", outer
            assert calls == written, outer


def _log_lines(schedule):
    payloads = itertools.chain.from_iterable(schedule.payloads or [])
    return [_log_line(n, coords, zip(users, files, subfiles),
                      None if schedule.payloads is None else next(payloads))
            for n, summands in enumerate(schedule.rounds, start=1)
            for coords, users, files, subfiles in zip(
                zip(*schedule.cells), zip(*schedule.users), zip(*schedule.files), zip(*summands))]


def _written_log(monkeypatch, schedule):
    files = {}
    monkeypatch.setattr(cli, "open", lambda path, *args, **kwargs:
                        files.setdefault(path, _Writes()), raising=False)
    write_log("tx.jsonl", schedule)
    writes = files["tx.jsonl"].writes
    assert all(len(text) <= 2 * cli._WRITE for text in writes)
    return writes


@pytest.mark.parametrize("payload", [None, 1024])
@pytest.mark.parametrize("m, b, z, t", [(1, 7, 2, 1), (2, 6, 2, 1), (3, 4, 2, 1), (4, 3, 1, 1),
                                        (2, 3, 1, 3)])  # the last at rate 0: an empty log
def test_write_log_lines_match_sorted_key_json(monkeypatch, m, b, z, t, payload):
    report = simulate(canonical_topology(m, b, z), SchemeParams(m=m, b=b, z=z, t=t, n_files=m * b),
                      payload_size=payload)
    schedule = report.transmissions
    writes = _written_log(monkeypatch, schedule)
    want = _log_lines(schedule)
    assert len(want) == report.transmission_count
    assert "".join(writes) == "".join(want)


@pytest.mark.parametrize("payload", [None, 16])
def test_write_log_lines_match_with_repeated_demands_on_a_random_topology(monkeypatch, payload):
    # 4 files among 18 users: each piece's (user, file) key recurs over many cells
    demands = [u % 4 + 1 for u in range(18)]
    report = simulate(random_topology(3, 6, 2, seed=3), SchemeParams(m=3, b=6, z=2, t=1, n_files=4),
                      demands=demands, payload_size=payload, seed=2)
    schedule = report.transmissions
    assert report.transmission_count == 4 * 6**3
    assert len(set(zip(schedule.users[0], schedule.files[1]))) < len(schedule.cells[0])
    assert "".join(_written_log(monkeypatch, schedule)) == "".join(_log_lines(schedule))


def _cut(schedule, keep):
    """``schedule`` at the cells ``keep`` alone, each keeping its subfile ids."""
    def pick(columns):
        return [[column[k] for k in keep] for column in columns]

    return Schedule(cells=pick(schedule.cells), users=pick(schedule.users),
                    files=pick(schedule.files), rounds=list(map(pick, schedule.rounds)),
                    payloads=schedule.payloads and pick(schedule.payloads))


def _full_2_6_schedule(payload):
    """The (2, 6, 2, 1) schedule: 36 cells, 4 rounds, subfile ids 1..36."""
    return simulate(canonical_topology(2, 6, 2), SchemeParams(m=2, b=6, z=2, t=1, n_files=12),
                    payload_size=payload).transmissions


def test_write_log_reaches_subfile_ids_above_the_cell_count(monkeypatch):
    # one cell of a (2, 6) schedule, whose subfile ids run to 36
    full = _full_2_6_schedule(8)
    schedule = _cut(full, [k for k, coords in enumerate(zip(*full.cells)) if coords == (6, 6)])
    assert max(itertools.chain.from_iterable(itertools.chain.from_iterable(schedule.rounds))) > 1
    assert "".join(_written_log(monkeypatch, schedule)) == "".join(_log_lines(schedule))


@pytest.mark.parametrize("payload", [None, 8])
def test_write_log_grows_its_id_table_mid_stream(monkeypatch, payload):
    # 19 cells of a (2, 6) schedule, one of whose group-2 ids in round 2 passes 19 while every
    # id before it, in round and column order, is at most 19: the table first grows there
    full, size = _full_2_6_schedule(payload), 19
    (first_1, first_2), (second_1, second_2) = full.rounds[:2]  # by round, then by group
    fits = [k for k, ids in enumerate(zip(first_1, first_2, second_1)) if max(ids) <= size]
    grows = [k for k in fits if second_2[k] > size]
    schedule = _cut(full, sorted([k for k in fits if k not in grows][:size - 1] + grows[:1]))
    overflows = [(n, i) for n, summands in enumerate(schedule.rounds, start=1)
                 for i, column in enumerate(summands, start=1) if max(column) > size]
    assert len(schedule.cells[0]) == size and overflows[0] == (2, 2)
    assert "".join(_written_log(monkeypatch, schedule)) == "".join(_log_lines(schedule))


def test_emit_skips_empty_chunks(monkeypatch, tmp_path):
    stdout = _Writes()
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    cap = cli._WRITE
    chunks = ["", "a", "", "", "b", "c" * (cap + 1), "", "", "", "", "d"]
    cli._emit(iter(chunks), None)
    # at most cap per write, a longer chunk alone, and no empty write
    assert stdout.writes == ["ab", "c" * (cap + 1), "d"]
    stdout.writes.clear()
    cli._emit(["x" * 5000, "y" * (cap - 5000), "z" * 2, ""], None)
    assert stdout.writes == ["x" * 5000 + "y" * (cap - 5000), "zz"]
    stdout.writes.clear()
    cli._emit(["", ""], None)
    assert stdout.writes == []
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
# run below, including usage errors and a design over the cost model's steps
COMPARE_DESIGN_GOLDEN = "7e968cf21366a9e689df545cc9f08e43db91b20d2517bdb0bb317de88b7775d7"


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


# sha256 over exit code, stdout, stderr and --json bytes of one `compare` whose grid is
# unsorted, repeats an entry and holds entries off the t/K lattice: rows keep its order
COMPARE_ROW_ORDER_GOLDEN = "29c0e3340814c4b5494fe86641f10291c5d57aa8f5561d9cf19a93f9d8d62d11"


def test_compare_rows_follow_the_grid_order(capsys, tmp_path):
    path = tmp_path / "rows.json"
    argv = ["compare", "--K", "100", "--z", "5", "--grid", "1/3,0,1/7,1/7,1,2/100"]
    code, out, err = run_cli(capsys, *argv, "--json", str(path))
    digest = hashlib.sha256(repr((argv, code, out, err, path.read_bytes())).encode())
    assert digest.hexdigest() == COMPARE_ROW_ORDER_GOLDEN
