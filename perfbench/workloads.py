"""The benchmark's workloads: seeded, endless streams of `macc` invocations.

Each workload is a generator ``fn(seed, work)`` that yields :class:`Op`s.
The same seed yields the same argv and input files; ``work`` is the
directory the operations read their inputs from and write their outputs to.
NOTES.md says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0

# Sizes for the tools workload.  Every size keeps a single op under ~0.5 s
# and inside the regimes where random_topology accepts (see NOTES.md).
DESIGN_SIZES = ((3, 16), (4, 8), (2, 100), (3, 14), (5, 5))
TOPOLOGY_M = 3
TOPOLOGY_SIZES = tuple((b, cell) for b in (200, 300, 400) for cell in (10, 15, 20))
COMPARE_SIZES = tuple((k, z) for k in (360, 600, 720, 840) for z in (5, 6))


@dataclass
class Op:
    """One `macc` invocation and what its checker needs to know about it."""

    command: str
    argv: list[str]
    params: dict
    inputs: dict[Path, bytes] = field(default_factory=dict)
    outputs: dict[str, Path] = field(default_factory=dict)

    @property
    def shape(self) -> str:
        """The command and its sizes; ops of one shape differ only in their seed."""
        sizes = sorted((k, v) for k, v in self.params.items() if k != "seed")
        return f"{self.command} {sizes}"


def _simulate_op(work: Path, m: int, b: int, z: int, t: int, seed: int,
                 payload: int | None = None, files: int | None = None,
                 demands: list[int] | None = None) -> Op:
    outputs = {"log": work / "tx.jsonl", "report": work / "report.json"}
    argv = ["simulate", "--m", str(m), "--b", str(b), "--z", str(z), "--t", str(t)]
    inputs = {}
    if payload is not None:
        argv += ["--payload", str(payload)]
    if files is not None:
        argv += ["--files", str(files)]
    if demands is not None:
        path = work / "demands.json"
        inputs[path] = json.dumps(demands).encode()
        argv += ["--demands", str(path)]
    argv += ["--topology", "random", "--placement", "seeded", "--seed", str(seed),
             "--log", str(outputs["log"]), "--report", str(outputs["report"])]
    params = {"m": m, "b": b, "z": z, "t": t, "seed": seed, "payload": payload}
    return Op("simulate", argv, params, inputs, outputs)


def simulate_large(seed: int, work: Path):
    """ROADMAP rung (3,20,4,1): F = 8000, 128 000 broadcasts, distinct demands."""
    rng = random.Random(f"simulate-large:{seed}")
    while True:
        yield _simulate_op(work, 3, 20, 4, 1, seed=rng.randrange(2**31))


def simulate_bytes(seed: int, work: Path):
    """1 KiB byte oracle at F = 216; N = K/3 files, each demanded by 3 users."""
    rng = random.Random(f"simulate-bytes:{seed}")
    m, b, n_files = 3, 6, 6
    share = m * b // n_files
    while True:
        demands = [f for f in range(1, n_files + 1) for _ in range(share)]
        rng.shuffle(demands)
        yield _simulate_op(work, m, b, 2, 1, seed=rng.randrange(2**31), payload=1024,
                           files=n_files, demands=demands)


def _shuffled_cycle(items, rng: random.Random):
    """Every item once per round, in a fresh seeded order each round.

    Stratifying the sizes this way keeps the mix of a run close to the mix
    of the whole set, so runs of different seeds load the layers alike.
    """
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def tools(seed: int, work: Path):
    """Round robin over design, topology and compare; sizes drawn from the seed."""
    rng = random.Random(f"tools:{seed}")
    design_sizes = _shuffled_cycle(DESIGN_SIZES, rng)
    topology_sizes = _shuffled_cycle(TOPOLOGY_SIZES, rng)
    compare_sizes = _shuffled_cycle(COMPARE_SIZES, rng)
    out = work / "out.json"
    while True:
        m, b = next(design_sizes)
        yield Op("design", ["design", "--m", str(m), "--b", str(b), "--out", str(out)],
                 {"m": m, "b": b}, outputs={"out": out})

        b, cell = next(topology_sizes)
        z = b // cell
        yield Op("topology",
                 ["topology", "--m", str(TOPOLOGY_M), "--b", str(b), "--z", str(z),
                  "--source", "random", "--seed", str(rng.randrange(2**31)),
                  "--out", str(out)],
                 {"m": TOPOLOGY_M, "b": b, "z": z}, outputs={"out": out})

        k, z = next(compare_sizes)
        csv, js = work / "table.csv", work / "table.json"
        yield Op("compare",
                 ["compare", "--K", str(k), "--z", str(z), "--out", str(csv), "--json", str(js)],
                 {"K": k, "z": z}, outputs={"out": csv, "json": js})


WORKLOADS = {
    "simulate-large": simulate_large,
    "simulate-bytes": simulate_bytes,
    "tools": tools,
}

# Untimed operations run first, from DEFAULT_SEED, to warm the process and
# to compare output digests in every run.  tools warms one of each command.
WARMUP_OPS = {"simulate-large": 1, "simulate-bytes": 1, "tools": 3}
