#!/usr/bin/env python3
"""Run each size limit's largest accepted and smallest refused ``macc`` argv and print one table.

Every command is priced by one cost model (``designs.check_terms``: ``MAX_STEPS`` and
``MAX_HELD_BYTES``) before it does any work.  For each term of the model that can bind
first, the script finds the edge itself: it bisects the command's pricing function
in-process along one named parameter of an argv, so the accepted argv is the largest
value the model admits and the refused one the next.  The limits outside the model
keep hand-typed pairs.

Every run gets a fresh child process of its own, one at a time, with stdout thrown away
and --log/--report written to a temporary directory (TMP in the table).  The child
reports its wall seconds from start-up to exit, its peak RSS (``ru_maxrss``, in MiB)
and its exit code; the table also quotes what it wrote to stderr.  A refused run
exits 2 and names its limit:

    PYTHONPATH=src python3 scripts/budget_edges.py

The accepted runs take up to about 8 s and 251 MB each, one after another.
"""

import json
import subprocess
import sys
import tempfile

from macc import cli, designs, engine

TMP = "TMP"
LOGS = f"--log {TMP}/tx.jsonl --report {TMP}/report.json"
PARSER = cli.build_parser()

# the pricing function each command calls on its flags before any work
PRICES = {"design": lambda a: designs.check_design_cost(a.m, a.b, a.mu),
          "topology": lambda a: designs.check_terms("topology", *engine.user_terms(a.m, a.b, a.z)),
          "simulate": lambda a: engine.check_cost(a.m, a.b, a.z, a.t, a.payload),
          "compare": lambda a: cli.check_compare_cost(a.K, a.z, a.grid)}

# (limit, parameter, argv at a value of the parameter, the term its refusal names): one
# edge per term that can bind first, searched from the parameter's value 2 on, each
# accepted run with the flags that cost the most at its shape
MODELLED = [
    ("MAX_STEPS", "m", lambda m: f"simulate --m {m} --b 2 --z 1 --t 1 {LOGS}",
     "summand lookups rows*m^2"),
    ("MAX_STEPS", "b", lambda b: f"simulate --m 1 --b {b} --z 1 --t 1 {LOGS}",
     "broadcast work 2*rows*(m+5)"),
    ("MAX_STEPS", "m", lambda m: f"simulate --m {m} --b 1 --z 1 --t 1 --topology random "
                                 f"--placement seeded {LOGS}",
     "user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", "b = t + 1", lambda b: f"simulate --m 1 --b {b} --z 1 --t {b - 1} "
                                         f"--placement seeded {LOGS}",
     "user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", "b = z", lambda b: f"simulate --m 1 --b {b} --z {b} --t 1 --topology random "
                                     f"{LOGS}",
     "user work K*(250+20*z+5*b)"),
    ("MAX_HELD_BYTES", "b = t + 1", lambda b: f"simulate --m 4 --b {b} --z 1 --t {b - 1} {LOGS}",
     "cell columns 96*m*F"),
    ("MAX_HELD_BYTES", "b = t", lambda b: f"simulate --m 2 --b {b} --z 1 --t {b} {LOGS}",
     "decode's table 5*K*(F+1)/4"),
    ("MAX_HELD_BYTES", "size", lambda n: f"simulate --m 1 --b 2 --z 1 --t 1 --payload {n} {LOGS}",
     "payloads and contents 5*(m+1)*rows*(size+100)/2"),
    ("MAX_HELD_BYTES", "m", lambda m: f"simulate --m {m} --b 2 --z 1 --t 2 {LOGS}",
     "decode's table 5*K*(F+1)/4"),
    ("MAX_STEPS", "b", lambda b: f"design --m 1 --b {b}", "blocks and classes 70*m*(b+1)"),
    ("MAX_HELD_BYTES", "mu", lambda mu: f"design --m 1 --b 1 --mu {mu}", "points 40*mu*b^m"),
    ("MAX_HELD_BYTES", "b", lambda b: f"design --m 2 --b {b}", "points 40*mu*b^m"),
    ("MAX_STEPS", "m", lambda m: f"design --m {m} --b 2", "block entries 4*m*mu*b^m"),
    ("MAX_STEPS", "m", lambda m: f"topology --m {m} --b 1 --z 1", "user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", "b", lambda b: f"topology --m 1 --b {b} --z 1", "user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", "b = z", lambda b: f"topology --m 1 --b {b} --z {b} --source random",
     "user work K*(250+20*z+5*b)"),
    ("MAX_STEPS", "K", lambda k: f"compare --K {k} --z 1 --json {TMP}/rows.json",
     "big integers (K/z+entries)*bits^2/6144"),
    ("MAX_STEPS", "K", lambda k: f"compare --K {k} --z 2 --json {TMP}/rows.json",
     "big integers (K/z+entries)*bits^2/6144"),
    ("MAX_STEPS", "K/8", lambda n: f"compare --K {8 * n} --z 8 --json {TMP}/rows.json",
     "big integers (K/z+entries)*bits^2/6144"),
    ("MAX_STEPS", "entries", lambda n: f"compare --K 4000 --z 1 --json {TMP}/rows.json "
                                       f"--grid {','.join(['1/2'] * n)}",
     "big integers (K/z+entries)*bits^2/6144"),
]

# (limit, largest accepted argv, smallest refused argv, the refusal's message) for the
# limits outside the cost model; the refused argv steps the accepted one just past the
# limit, and past no other one
HAND = [
    ("MAX_GRID_DIGITS", "compare --K 1 --z 1 --grid 1e-4299",
     "compare --K 1 --z 1 --grid 1e-4300", "has more digits than the CSV prints (4300)"),
    ("RANDOM_TRIES", "topology --m 1 --b 30 --z 1 --source random",
     "topology --m 1 --b 31 --z 1 --source random",
     "no C3-satisfying draw is within reach for b=31, z=1"),
]


def accepted(argv: str) -> bool:
    """Whether the cost model and the limits checked with it admit ``argv``."""
    args = PARSER.parse_args(argv.split())
    try:
        PRICES[args.command](args)
    except designs.PointBudgetError:
        return False
    return True


def largest_accepted(argv_at) -> int:
    """The largest value that ``argv_at`` is accepted at, searched by doubling from 2 and
    then bisecting; the first refused value is one more."""
    lo, hi = 2, 4
    assert accepted(argv_at(lo)), argv_at(lo)
    while accepted(argv_at(hi)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(argv_at(mid)) else (lo, mid)
    return lo


def edges() -> list[tuple[str, str, str, str]]:
    """(limit, largest accepted argv, smallest refused argv, the refusal's message) for
    every modelled term, searched, then every hand pair."""
    found = []
    for limit, parameter, argv_at, term in MODELLED:
        value = largest_accepted(argv_at)
        found.append((f"{limit} along {parameter}", argv_at(value), argv_at(value + 1),
                      f"largest term is {term} = "))
    return found + HAND


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


def shown(argv: str) -> str:
    """``argv`` with a --grid of more than 8 entries cut to its first two and its count."""
    return " ".join(f"{arg[:4]}...({arg.count(',') + 1} entries)" if arg.count(",") > 8 else arg
                    for arg in argv.split())


def main() -> None:
    print("| limit | edge | argv | exit | wall s | ru_maxrss MB | stderr |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for limit, accepted_argv, refused_argv, _ in edges():
            for edge, argv in (("accepted", accepted_argv), ("refused", refused_argv)):
                got = run(argv, tmp)
                print(f"| {limit} | {edge} | `{shown(argv)}` | {got['exit']} "
                      f"| {got['wall_s']:.2f} | {got['maxrss_mb']:.0f} | {got['stderr']} |",
                      flush=True)


if __name__ == "__main__":
    main()
