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
K <= 30 and z in 0..K+1; and one run of each subcommand whose output file cannot be
opened.
"""

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from macc import cli

TMP = "TMP"
SIMULATE_VARIANTS = ([], ["--payload", "8"],
                     ["--topology", "random", "--placement", "seeded", "--seed", "7"])
DEMANDS = f"{TMP}/demands.json"


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
             for k in range(1, 31) for z in range(k + 2)]
    missing = f"{TMP}/missing/out"
    runs += [["design", "--m", "2", "--b", "2", "--out", missing],
             ["topology", "--m", "2", "--b", "2", "--z", "1", "--out", missing],
             ["simulate", "--m", "2", "--b", "2", "--z", "1", "--t", "1", "--log", missing],
             ["simulate", "--m", "2", "--b", "2", "--z", "1", "--t", "1", "--report", missing],
             ["compare", "--K", "4", "--z", "1", "--json", missing]]
    return runs


def digest(argv: list[str], tmp: Path) -> str:
    """sha256 of one in-process run's exit code, stdout, stderr and written files;
    ``tmp`` is an empty directory that stands for TMP and is left empty again.  A run
    with --demands reads a file of shared demands written here first."""
    argv = [arg.replace(TMP, str(tmp)) for arg in argv]
    demands = None
    if "--demands" in argv:
        args = cli.build_parser().parse_args(argv)
        demands = Path(args.demands)
        demands.write_text(json.dumps([u % args.files + 1 for u in range(args.m * args.b)]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if demands is not None:
        demands.unlink()
    written = []
    for path in sorted(tmp.iterdir()):
        written.append((path.name, path.read_bytes()))
        path.unlink()
    run = repr((code, out.getvalue(), err.getvalue(), written)).replace(str(tmp), TMP)
    return hashlib.sha256(run.encode()).hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in sweep():
            print(f"{digest(argv, Path(tmp))}  {' '.join(argv)}")


if __name__ == "__main__":
    main()
