#!/usr/bin/env python3
"""Print one ``sha256  argv`` line per in-process ``macc`` run over a fixed sweep.

Each digest covers the run's exit code, stdout, stderr and every file it wrote, with
its temporary directory written as TMP.  Running the script against two source trees
and diffing the output checks that a change keeps every byte the CLI writes:

    PYTHONPATH=path/to/parent/src python3 scripts/cli_digests.py > before.txt
    PYTHONPATH=src python3 scripts/cli_digests.py > after.txt
    diff before.txt after.txt

The sweep: `simulate` for m <= 3, b <= 6, z in 0..b+1 and t in 0..b, canonical, with
8-byte payloads, and on a seeded random topology with seeded placement, each with
--log and --report; `simulate` with shared demands for m <= 3, b <= 4, z and t in
1..b, symbolic and with 8-byte payloads, where user u of K wants file (u - 1) % N + 1
of N = ceil(K/3) (the script writes that --demands file itself, and the digest leaves
it out); `topology` for the same m, b and z as the first sweep, canonical to stdout and
random to --out; `design` for m <= 3, b <= 5 and mu <= 2; `compare --json` for
K <= 30 and z in 0..K+1, and for K in {60, 100, 210, 360, 840} and z in {1, 2, 3, 5,
7}, where SR1's sums are long; runs whose JSON holds lists of scalars longer than one
slice of the document encoder (`simulate` at (3, 20, 4, 1) with --log and --report, whose
report lists 128 000 beneficiary counts, and `design` at (2, 100)); random `topology` at
the benchmark's nine shapes, m = 3, b in {200, 300, 400} and z = b // cell for cell in
{10, 15, 20}, of which (200, 13) and (400, 26) have an uneven last cell; `design` at the
benchmark's other shapes (3, 16), (4, 8), (3, 14) and (5, 5), and at (3, 10) with mu = 2;
one run of each subcommand whose output file cannot be opened; and `simulate --topology
FILE` with 8-byte payloads on five seeded valid topologies whose JSON rows are shuffled and
repeat ids, which the CLI reads as sorted rows without repeats (the script writes each file
from `random_topology` at the run's --seed, and the digest leaves it out).

:func:`lines` yields the output; a tier-1 test pins one sha256 over it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from macc import cli, topology

TMP = "TMP"
SIMULATE_VARIANTS = ([], ["--payload", "8"],
                     ["--topology", "random", "--placement", "seeded", "--seed", "7"])
DEMANDS = f"{TMP}/demands.json"
SHUFFLED = f"{TMP}/shuffled.json"


def sweep() -> list[list[str]]:
    """Every argv of the sweep, with TMP standing for the run's temporary directory."""
    runs = []
    for m, b in itertools.product(range(1, 4), range(1, 7)):
        for z in range(b + 2):
            shape = ["--m", str(m), "--b", str(b), "--z", str(z)]
            runs.append(["topology", *shape])
            runs.append(["topology", *shape, "--source", "random", "--seed", "5",
                         "--out", f"{TMP}/topology.json"])
            runs += [["simulate", *shape, "--t", str(t), *extra, "--log", f"{TMP}/tx.jsonl",
                      "--report", f"{TMP}/report.json"]
                     for t, extra in itertools.product(range(b + 1), SIMULATE_VARIANTS)]
    for m, b in itertools.product(range(1, 4), range(1, 5)):
        n_files = -(-m * b // 3)
        runs += [["simulate", "--m", str(m), "--b", str(b), "--z", str(z), "--t", str(t),
                  "--files", str(n_files), "--demands", DEMANDS, *extra,
                  "--log", f"{TMP}/tx.jsonl", "--report", f"{TMP}/report.json"]
                 for z, t, extra in itertools.product(range(1, b + 1), range(1, b + 1),
                                                      SIMULATE_VARIANTS[:2])]
    runs += [["design", "--m", str(m), "--b", str(b), "--mu", str(mu)]
             for m, b, mu in itertools.product(range(1, 4), range(1, 6), (1, 2))]
    runs += [["compare", "--K", str(k), "--z", str(z), "--json", f"{TMP}/rows.json"]
             for k, z in [(k, z) for k in range(1, 31) for z in range(k + 2)]
             + [*itertools.product((60, 100, 210, 360, 840), (1, 2, 3, 5, 7))]]
    runs += [["simulate", "--m", "3", "--b", "20", "--z", "4", "--t", "1", *SIMULATE_VARIANTS[2],
              "--log", f"{TMP}/tx.jsonl", "--report", f"{TMP}/report.json"],
             ["design", "--m", "2", "--b", "100"]]
    runs += [["topology", "--m", "3", "--b", str(b), "--z", str(b // cell), "--source", "random"]
             for b, cell in itertools.product((200, 300, 400), (10, 15, 20))]
    runs += [["design", "--m", str(m), "--b", str(b), "--mu", str(mu)]
             for m, b, mu in ((3, 16, 1), (4, 8, 1), (3, 14, 1), (5, 5, 1), (3, 10, 2))]
    missing = f"{TMP}/missing/out"
    runs += [["design", "--m", "2", "--b", "2", "--out", missing],
             ["topology", "--m", "2", "--b", "2", "--z", "1", "--out", missing],
             ["simulate", "--m", "2", "--b", "2", "--z", "1", "--t", "1", "--log", missing],
             ["simulate", "--m", "2", "--b", "2", "--z", "1", "--t", "1", "--report", missing],
             ["compare", "--K", "4", "--z", "1", "--json", missing]]
    runs += [["simulate", "--m", str(m), "--b", str(b), "--z", str(z), "--t", str(t),
              "--topology", SHUFFLED, "--seed", str(seed), "--payload", "8",
              "--log", f"{TMP}/tx.jsonl", "--report", f"{TMP}/report.json"]
             for m, b, z, t, seed in ((1, 5, 1, 2, 1), (2, 4, 2, 1, 2), (2, 6, 3, 1, 3),
                                      (3, 5, 2, 2, 4), (3, 6, 6, 1, 5))]
    return runs


def write_shuffled(path: Path, m: int, b: int, z: int, seed: int) -> None:
    """The JSON of ``random_topology(m, b, z, seed)`` with each row shuffled after
    repeating some of its ids, seeded by ``seed``."""
    rng, rows = random.Random(seed), []
    for row in topology.random_topology(m, b, z, seed).access:
        row = [*row, *rng.sample(row, rng.randint(0, len(row)))]
        rng.shuffle(row)
        rows.append(row)
    path.write_text(json.dumps({"m": m, "b": b, "z": z, "access": rows}))


def digest(argv: list[str], tmp: Path) -> str:
    """sha256 of one in-process run's exit code, stdout, stderr and written files;
    ``tmp`` is an empty directory that stands for TMP and is left empty again.  A run
    with --demands reads a file of shared demands written here first, and a run on
    SHUFFLED a topology file written by :func:`write_shuffled`."""
    inputs = [arg.replace(TMP, str(tmp)) for arg in (DEMANDS, SHUFFLED) if arg in argv]
    argv = [arg.replace(TMP, str(tmp)) for arg in argv]
    if inputs:
        args = cli.build_parser().parse_args(argv)
        if args.demands:
            Path(args.demands).write_text(
                json.dumps([u % args.files + 1 for u in range(args.m * args.b)]))
        if args.source in inputs:
            write_shuffled(Path(args.source), args.m, args.b, args.z, args.seed)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    for path in inputs:
        Path(path).unlink()
    written = []
    for path in sorted(tmp.iterdir()):
        written.append((path.name, path.read_bytes()))
        path.unlink()
    run = repr((code, out.getvalue(), err.getvalue(), written)).replace(str(tmp), TMP)
    return hashlib.sha256(run.encode()).hexdigest()


def lines():
    """One ``sha256  argv`` line, newline included, per run of the sweep, in its order."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in sweep():
            yield f"{digest(argv, Path(tmp))}  {' '.join(argv)}\n"


def main() -> None:
    sys.stdout.writelines(lines())


if __name__ == "__main__":
    main()
