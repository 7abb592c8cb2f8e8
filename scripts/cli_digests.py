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
--log and --report; `topology` for the same m, b and z, canonical to stdout and
random to --out; `design` for m <= 3, b <= 5 and mu <= 2; `compare --json` for
K <= 30 and z in 0..K+1; and one run of each subcommand whose output file cannot be
opened.
"""

import contextlib
import hashlib
import io
import itertools
import tempfile
from pathlib import Path

from macc import cli

TMP = "TMP"
SIMULATE_VARIANTS = ([], ["--payload", "8"],
                     ["--topology", "random", "--placement", "seeded", "--seed", "7"])


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
    ``tmp`` is an empty directory that stands for TMP and is left empty again."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([arg.replace(TMP, str(tmp)) for arg in argv])
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
