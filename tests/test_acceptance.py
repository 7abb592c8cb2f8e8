"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions themselves.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from macc import (
    SchemeParams,
    achievable_rate,
    construct_mcrd,
    count_topologies,
    extract_matchings,
    our_envelope,
    place,
    random_topology,
    rival_corner,
    rival_envelope,
    simulate,
    verify_mcrd,
)
from macc.analysis import check_sr1_rate, check_sr2_rate
from macc.topology import cell_slots

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def _ok(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_first_example_regression(example_a):
    top, params = example_a
    start = time.perf_counter()
    report = simulate(top, params)
    elapsed = time.perf_counter() - start
    assert report.transmission_count == 32
    assert report.rate == 2
    assert report.subpacketization == 16
    assert set(report.beneficiary_counts) == {2}
    assert report.all_complete() and len(report.users_complete) == 8
    assert elapsed < 1.0
    _ok(1, f"K=8 z=2 t=1: 32 tx, rate 2, F=16, gain 2, 8/8 decoded ({elapsed:.3f}s)")


def test_criterion_2_second_example_regression(example_b):
    top, params = example_b
    start = time.perf_counter()
    placement = place(top, params)
    expected = ((1, 2), (1, 2), (3, 4), (3, 4), (5, 6), (5, 6), (5, 7))
    assert placement.cache_blocks == expected * 2
    report = simulate(top, params)
    elapsed = time.perf_counter() - start
    assert report.transmission_count == 49
    assert report.rate == 1
    assert report.subpacketization == 49
    assert report.all_complete() and len(report.users_complete) == 14
    assert elapsed < 1.0
    _ok(2, f"K=14 z=3 t=2: published placement, 49 tx, rate 1, 14/14 decoded ({elapsed:.3f}s)")


def test_criterion_3_design_fixtures():
    from tests.test_designs import KNOWN_CONSTRUCTIONS

    for (m, b, mu), expected in sorted(KNOWN_CONSTRUCTIONS.items()):
        design = construct_mcrd(m, b, mu)
        got = [[list(blk) for blk in cls] for cls in design.blocks]
        assert got == expected, (m, b, mu)
        report = verify_mcrd(design)
        assert report.passed and report.measured_mu == mu
    _ok(3, "all five published constructions reproduced verbatim and verified")


def test_criterion_4_corner_points():
    curve = our_envelope(100, 5)
    assert list(curve.points) == [
        (F(0), F(100)),
        (F(1, 50), F(45)),
        (F(1, 25), F(20)),
        (F(1, 20), F(15)),
        (F(1, 10), F(5)),
        (F(1, 5), F(0)),
    ]
    _ok(4, "K=100 z=5 envelope vertices are exactly the five listed corners plus (0,100)")


def test_criterion_5_comparison_table_values():
    grid = [F("0.16"), F("0.17"), F("0.18"), F("0.19"), F("0.2")]
    ours = our_envelope(100, 5)
    rk = rival_envelope("RK", 100, 5)
    sr1 = rival_envelope("SR1", 100, 5)
    assert [ours.rate_at(x) for x in grid] == [F(2), F(3, 2), F(1), F(1, 2), F(0)]
    assert [rk.rate_at(x) for x in grid] == [F(4), F(9, 4), F(1), F(1, 4), F(0)]
    published_sr1 = [3.4965, 1.6953, 0.9528, 0.2103, 0.0]
    for x, want in zip(grid, published_sr1):
        assert abs(float(sr1.rate_at(x)) - want) <= 1e-3, x
    _ok(5, "table values at 0.16..0.20: ours and RK exact, SR1 within 1e-3")


def test_criterion_6_comparison_examples():
    assert check_sr2_rate(120, 5, 5, 24, 3) is True
    assert achievable_rate(24, 5, 5, 3) == 9 and rival_corner("SR2", 120, 5, 15)[0] == F(45, 4)

    # the published SR1 pair (m1, m2) = (4, 10): a chord of our t = 1 corners at M/N = 7/100
    assert check_sr1_rate(100, 5, 7) is True
    r4, r10 = achievable_rate(25, 4, 5, 1), achievable_rate(10, 10, 5, 1)
    assert r4 + F(7 - 4, 10 - 4) * (r10 - r4) == F(25, 2)
    assert rival_corner("SR1", 100, 5, 7)[0] == 32
    # the full envelope does even better at that memory
    assert our_envelope(100, 5).rate_at(F(7, 100)) == 11 <= 32
    _ok(6, "SR2 example 9 vs 11.25 exact; SR1 example 12.5 vs 32 exact")


def _random_config(rng):
    m = rng.choice([1, 1, 1, 2, 2, 2, 2, 3, 3, 4])
    b_max = {1: 40, 2: 17, 3: 8, 4: 5}[m]
    b = rng.randint(1, b_max)
    # z = 1 forces each user onto a single uniform cache, so rejection
    # sampling for C3 only converges when b is small
    z = rng.randint(1, b) if b <= 6 else rng.randint(2, b)
    t = rng.randint(1, b)
    return m, b, z, t


def _check_config(m, b, z, t, seed, payload_size=16):
    k = m * b
    top = random_topology(m, b, z, seed=seed)
    params = SchemeParams(m=m, b=b, z=z, t=t, n_files=k)
    rng = random.Random(seed ^ 0x5EED)
    demands = rng.sample(range(1, k + 1), k)

    report = simulate(
        top, params,
        demands=demands,
        payload_size=payload_size,
        seed=seed,
        placement_seed=seed + 1,
    )
    f = b**m
    assert report.transmission_count == params.missing_count * f
    assert report.rate == achievable_rate(b, m, z, t)
    assert report.all_complete()
    assert all(c == m for c in report.beneficiary_counts)
    if payload_size is not None:
        assert report.byte_oracle_ok is True

    placement = place(top, params, seed=seed + 1)
    cell_of = {j: l for l, cell in enumerate(cell_slots(b, z)) for j in cell}
    for i in range(1, m + 1):
        for j1 in range(1, b + 1):
            for j2 in range(j1 + 1, b + 1):
                if cell_of[j1] != cell_of[j2]:
                    assert not (
                        set(placement.cache_blocks[(i - 1) * b + j1 - 1])
                        & set(placement.cache_blocks[(i - 1) * b + j2 - 1])
                    )

    matching = extract_matchings(top)
    assert sorted(matching) == list(range(1, m * b + 1))
    assert all(len(placement.missing[u - 1]) == params.missing_count for u in matching)


def test_criterion_7_randomized_property_suite():
    start = time.perf_counter()
    rng = random.Random(20260811)
    n_configs = 200
    for idx in range(n_configs):
        m, b, z, t = _random_config(rng)
        _check_config(m, b, z, t, seed=rng.randrange(2**30))
    # larger runs near the subpacketization cap (b**m <= 1e5)
    big = [(2, 300, 149, 2), (3, 40, 13, 3)]
    for m, b, z, t in big:
        assert b**m <= 10**5
        _check_config(m, b, z, t, seed=rng.randrange(2**30), payload_size=None)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(7, f"{n_configs} random configs + {len(big)} large configs, all invariants ({elapsed:.1f}s)")


def test_criterion_8_brute_force_oracles():
    design_grid = [
        (1, 9, 1), (1, 9, 3), (2, 10, 1), (2, 31, 1), (2, 100, 1),
        (2, 10, 2), (3, 8, 1), (3, 21, 1), (4, 7, 1),
    ]
    for m, b, mu in design_grid:
        assert b**m <= 10**4
        report = verify_mcrd(construct_mcrd(m, b, mu))
        assert report.passed and report.measured_mu == mu, (m, b, mu)

    def enumerate_count(m, b, z):
        sizes = [len(cell) for cell in cell_slots(b, z)]
        starts = [sum(sizes[:l]) for l in range(z)]
        per_user = [
            tuple(starts[l] + off + 1 for l, off in enumerate(choice))
            for choice in itertools.product(*[range(s) for s in sizes])
        ]
        return len(set(itertools.product(per_user, repeat=b * m)))

    count_grid = [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 3, 3), (2, 3, 2),
                  (3, 2, 2), (1, 4, 2), (1, 5, 2), (2, 2, 1)]
    for m, b, z in count_grid:
        assert b * m <= 6
        assert count_topologies(m, b, z) == enumerate_count(m, b, z), (m, b, z)
    _ok(8, f"verify scan on {len(design_grid)} designs; counts match enumeration on {len(count_grid)} universes")


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "macc.cli", *argv],
        capture_output=True,
        check=False,
        env=env,
    )
    return proc.returncode, proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["design", "--m", "3", "--b", "3", "--mu", "1"],
        ["topology", "--m", "2", "--b", "5", "--z", "2", "--source", "random", "--seed", "42"],
        ["simulate", "--m", "2", "--b", "5", "--z", "2", "--t", "1",
         "--topology", "random", "--placement", "seeded", "--payload", "16", "--seed", "42"],
        ["compare", "--K", "20", "--z", "2"],
    ]
    for argv in commands:
        code1, out1 = _run(argv)
        code2, out2 = _run(argv)
        assert code1 == code2 == 0, argv
        assert out1 == out2, argv

    # file outputs are byte-identical too
    logs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        log, rep = d / "tx.jsonl", d / "report.json"
        code, _ = _run([
            "simulate", "--m", "2", "--b", "4", "--z", "2", "--t", "1",
            "--payload", "16", "--seed", "5",
            "--log", str(log), "--report", str(rep),
        ])
        assert code == 0
        logs.append((log.read_bytes(), rep.read_bytes()))
    assert logs[0] == logs[1]
    _ok(9, "repeated CLI runs with fixed seeds are byte-identical")
