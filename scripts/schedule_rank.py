#!/usr/bin/env python3
"""Print, per scheme shape, the rows and the GF(2) rank of the delivery schedule.

Each broadcast is the XOR of its summands, one (file, subfile) variable each.  A broadcast
in the span of others is their XOR, so every user can compute it without it being sent,
and the rank over F is a rate that this very placement and delivery reach (the argument
of Yu, Maddah-Ali and Avestimehr, arXiv 1609.07817).  The paper's rate counts every row;
it is a worst case over demands.

Each shape (m, b, z, t) runs on the canonical topology with deterministic placement, for
two demand patterns: distinct (user u wants file u, N = K) and grouped (every user of
group i wants file i, N = m).  The rank comes from `tests/span_oracle.py`'s reduction,
which shares nothing with `decode`, `deliver` or `place`.  The default shapes take about
3.4 s and 131 MB `ru_maxrss` in one process.

    python3 scripts/schedule_rank.py                                    # the default shapes
    python3 scripts/schedule_rank.py --shape 3 6 2 1 --shape 3 10 2 1   # chosen shapes
"""

import argparse
import sys
from pathlib import Path

from macc import SchemeParams, canonical_topology, deliver, extract_matchings, place

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from span_oracle import broadcasts, rank  # noqa: E402

SHAPES = [(3, 6, 2, 1), (3, 10, 2, 1), (3, 20, 4, 1)]


def rows(m: int, b: int, z: int, t: int):
    """(demands, rows, rank) for the distinct and the grouped demands at (m, b, z, t)."""
    k = m * b
    top = canonical_topology(m, b, z)
    for name, demands in (("distinct", list(range(1, k + 1))),
                          ("group i wants file i", [(u - 1) // b + 1 for u in range(1, k + 1)])):
        placement = place(top, SchemeParams(m=m, b=b, z=z, t=t, n_files=max(demands)))
        sent = broadcasts(deliver(placement, extract_matchings(top), demands))
        yield name, len(sent), rank(sent)


def _grouped(n: int) -> str:
    """``n`` with its digits in groups of three, as README's tables write counts."""
    return f"{n:,}".replace(",", " ")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", type=int, nargs=4, action="append", metavar=("M", "B", "Z", "T"),
                        help=f"a scheme shape; default {', '.join(map(str, SHAPES))}")
    shapes = parser.parse_args(argv).shape or SHAPES
    print("| shape | demands | rows | rank |\n|---|---|---|---|")
    for shape in shapes:
        label = "(" + ",".join(map(str, shape)) + ")"
        for name, count, found in rows(*shape):
            print(f"| {label} | {name} | {_grouped(count)} | {_grouped(found)} |")


if __name__ == "__main__":
    main()
