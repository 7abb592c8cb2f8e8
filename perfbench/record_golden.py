"""Record the output digests that every benchmark run compares.

    python3 perfbench/record_golden.py

Writes perfbench/golden.json: sha256 of stdout and of every output file for
the first ops of each workload at DEFAULT_SEED.  The digests pin the CLI's
byte-identical output; record them again only when a change to that output
is intended.
"""

from __future__ import annotations

import json
import sys
from itertools import islice

from run import GOLDEN, SRC, WORK, run_op
from checks import check, digests
from workloads import DEFAULT_SEED, WORKLOADS

GOLDEN_OPS = {"simulate-large": 1, "simulate-bytes": 3, "tools": 6}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from macc import cli

    WORK.mkdir(exist_ok=True)
    golden = {}
    for workload, count in GOLDEN_OPS.items():
        golden[workload] = []
        for op in islice(WORKLOADS[workload](DEFAULT_SEED, WORK), count):
            out, _ = run_op(cli.main, op)
            problems = check(op.command, op.params, out)
            if problems:
                sys.stderr.write(f"{workload}: {op.argv}: {problems}\n")
                return 1
            golden[workload].append(digests(out))
            for path in [*op.outputs.values(), *op.inputs]:
                path.unlink(missing_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
