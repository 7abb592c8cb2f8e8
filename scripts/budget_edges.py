#!/usr/bin/env python3
"""Run each size limit's largest accepted and smallest refused ``macc`` argv and print one table.

Every run gets a fresh child process of its own, one at a time, with stdout thrown away
and --log/--report written to a temporary directory (TMP in the table).  The child
reports its wall seconds from start-up to exit, its peak RSS (``ru_maxrss``, in MiB)
and its exit code; the table also quotes what it wrote to stderr.  A refused run
exits 2 and names its limit:

    PYTHONPATH=src python3 scripts/budget_edges.py

The accepted runs take up to about 8 s and 250 MB each, one after another.
"""

import json
import subprocess
import sys
import tempfile

TMP = "TMP"
LOGS = f"--log {TMP}/tx.jsonl --report {TMP}/report.json"

# (limit, largest accepted argv, smallest refused argv or None, the refusal's message);
# the refused argv steps the accepted one just past the limit, and past no other one.
# simulate's cost model (engine.check_cost) has one pair per term that can bind first,
# each accepted run with the flags that cost the most at its shape
EDGES = [
    ("MAX_STEPS", f"simulate --m 17 --b 2 --z 1 --t 1 {LOGS}",
     "simulate --m 18 --b 2 --z 1 --t 1", "largest term is summand lookups rows*m^2"),
    ("MAX_STEPS", f"simulate --m 1 --b 1818 --z 1 --t 1 {LOGS}",
     "simulate --m 1 --b 1819 --z 1 --t 1", "largest term is broadcast work 2*rows*(m+5)"),
    ("MAX_STEPS", f"simulate --m 218181 --b 1 --z 1 --t 1 --topology random "
                  f"--placement seeded {LOGS}",
     "simulate --m 218182 --b 1 --z 1 --t 1", "largest term is user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", f"simulate --m 1 --b 3435 --z 1 --t 3434 --placement seeded {LOGS}",
     "simulate --m 1 --b 3436 --z 1 --t 3435", "largest term is user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", f"simulate --m 1 --b 1544 --z 1544 --t 1 --topology random {LOGS}",
     "simulate --m 1 --b 1545 --z 1545 --t 1", "largest term is user work K*(250+20*z+5*b)"),
    ("MAX_HELD_BYTES", f"simulate --m 4 --b 25 --z 1 --t 24 {LOGS}",
     "simulate --m 4 --b 26 --z 1 --t 25", "largest term is cell columns 96*m*F"),
    ("MAX_HELD_BYTES", f"simulate --m 2 --b 461 --z 1 --t 461 {LOGS}",
     "simulate --m 2 --b 462 --z 1 --t 462", "largest term is decode's table 5*K*(F+1)/4"),
    ("MAX_HELD_BYTES", f"simulate --m 1 --b 2 --z 1 --t 1 --payload 24999693 {LOGS}",
     f"simulate --m 1 --b 2 --z 1 --t 1 --payload 24999694 {LOGS}",
     "largest term is payloads and contents 5*(m+1)*rows*(size+100)/2"),
    ("DEFAULT_POINT_BUDGET", f"simulate --m 6 --b 10 --z 1 --t 10 {LOGS}",
     "simulate --m 7 --b 10 --z 1 --t 10", "10000000 points exceeds budget 1000000"),
    ("DEFAULT_POINT_BUDGET", f"simulate --m 19 --b 2 --z 1 --t 2 {LOGS}",
     "simulate --m 20 --b 2 --z 1 --t 2", "1048576 points exceeds budget 1000000"),
    ("DEFAULT_POINT_BUDGET", "design --m 19 --b 2",
     "design --m 20 --b 2", "1048576 points exceeds budget 1000000"),
    ("DEFAULT_POINT_BUDGET", "design --m 11 --b 3 --mu 5",
     "design --m 11 --b 3 --mu 6", "1062882 points exceeds budget 1000000"),
    ("MAX_DESIGN_COST", "design --m 1 --b 243902",
     "design --m 1 --b 243903", "= 10000023 entries exceed 10000000"),
    ("MAX_COMPARE_USERS", "compare --K 4000 --z 1",
     "compare --K 4001 --z 1", "--K 4001 exceeds the compare budget of 4000 users"),
    ("MAX_GRID_DIGITS", "compare --K 1 --z 1 --grid 1e-4299",
     "compare --K 1 --z 1 --grid 1e-4300", "has more digits than the CSV prints (4300)"),
    ("MAX_COVERAGE_ENTRIES", "topology --m 1 --b 3162 --z 948",
     "topology --m 1 --b 3163 --z 948", "m*b^2 = 10004569 entries exceed 10000000"),
    ("MAX_ACCESS_ENTRIES", "topology --m 1 --b 1732 --z 1732 --source random",
     "topology --m 1 --b 1733 --z 1733", "K*z = 3003289 entries exceed 3000000"),
    ("MAX_USERS", "topology --m 150000 --b 1 --z 1",
     "topology --m 150001 --b 1 --z 1", "K = m*b = 150001 users exceed 150000"),
    ("RANDOM_TRIES", "topology --m 1 --b 30 --z 1 --source random",
     "topology --m 1 --b 31 --z 1 --source random",
     "no C3-satisfying draw is within reach for b=31, z=1"),
]

# runs the CLI on its argv and writes its exit code, wall seconds and ru_maxrss as the
# last line of stderr
CHILD = """
import time
start = time.perf_counter()
import json, resource, sys
from macc import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.stderr.write("\\n" + json.dumps({"exit": code, "wall_s": time.perf_counter() - start,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}) + "\\n")
sys.exit(code)
"""


def run(argv: str, tmp: str) -> dict:
    """One fresh child's exit code, wall seconds, peak RSS and stderr for ``argv``."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv.replace(TMP, tmp).split()],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    *message, report = proc.stderr.rstrip("\n").split("\n")
    try:
        got = json.loads(report)
    except ValueError:  # the child died before it could report, say with a traceback
        nan = float("nan")
        got = {"exit": proc.returncode, "wall_s": nan, "maxrss_mb": nan}
        message.append(report)
    return {**got, "stderr": " ".join(filter(None, message)).replace(tmp, TMP)}


def main() -> None:
    print("| limit | edge | argv | exit | wall s | ru_maxrss MB | stderr |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for limit, accepted, refused, _ in EDGES:
            for edge, argv in (("accepted", accepted), ("refused", refused)):
                if argv is None:
                    continue
                got = run(argv, tmp)
                print(f"| {limit} | {edge} | `{argv}` | {got['exit']} | {got['wall_s']:.2f} "
                      f"| {got['maxrss_mb']:.0f} | {got['stderr']} |", flush=True)


if __name__ == "__main__":
    main()
