"""A fixed reference workload that tracks the host's speed during a run.

Other guests on the shared host slow this one by up to 1.7x, in phases of
seconds to minutes (NOTES.md, "Machine").  The benchmark runs this probe in
short batches between operations and divides each operation's time by the
mean probe time around it.  The probe is the benchmark's own code, so a
change to the program moves an operation's time but not its reference.
"""

from __future__ import annotations

import gc
import hashlib
import json
from time import perf_counter

# Mean time of one probe() on the machine the benchmark was made on, in its
# fast phase.  It turns a ratio to the probe back into seconds; changing it
# rescales every normalised figure, so it is fixed.
PROBE_NOMINAL_S = 0.0055
PROBE_MIN_S = 0.02  # shortest probe batch
PROBE_MAX_S = 0.3  # longest probe batch
PROBE_SHARE = 0.25  # probe batch length as a share of the interval it follows


def probe() -> int:
    """One unit of pure-Python work resembling macc's mix, ~5-10 ms.

    Dicts keyed by tuples, sets, sorting, JSON encoding, keyed BLAKE2b and
    big-integer XOR: the operations the simulate and tools paths spend on.
    """
    acc = 0
    table: dict[tuple[int, int], list[int]] = {}
    for i in range(4000):
        table.setdefault((i % 97, i % 89), []).append(i)
    seen = set()
    for values in table.values():
        seen.update(values[::3])
        acc += len(values)
    acc += sum(len(json.dumps({"id": i, "users": [i, i + 1, i + 2], "sub": [i % 7, i % 5]},
                              sort_keys=True)) for i in range(600))
    x = 0
    for i in range(300):
        digest = hashlib.blake2b(b"%d" % i, key=b"perfbench", digest_size=64).digest()
        x ^= int.from_bytes(digest, "big")
    return acc + (x & 0xFF) + len(sorted(seen))


def batch(budget: float) -> float:
    """Mean probe time over probes run until ``budget`` seconds have passed.

    The garbage collector is off meanwhile, so that objects the program
    left alive cannot make the probe slower.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            probe()
            t1 = perf_counter()
            times.append(t1 - t0)
            if t1 - start >= budget:
                return sum(times) / len(times)
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe batches between measured intervals.

    ``start()`` runs a batch before the first interval.  ``after(seconds)``
    is called right after an interval of ``seconds``: it runs a batch and
    returns the mean of the batches just before and just after that
    interval, i.e. the probe time while the interval ran.
    """

    last = 0.0

    def start(self) -> None:
        batch(PROBE_MIN_S)  # warm the probe's own code paths
        self.last = batch(PROBE_MIN_S)

    def after(self, seconds: float) -> float:
        following = batch(min(max(PROBE_MIN_S, PROBE_SHARE * seconds), PROBE_MAX_S))
        reference = (self.last + following) / 2
        self.last = following
        return reference
