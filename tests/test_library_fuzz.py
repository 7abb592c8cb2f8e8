"""Every library entry point ends in a result or a named ValueError: a fixed, seeded set of
calls whose integer parameters are drawn from small ints, the edges of the shape checks,
floats, bools, strings and None.  A call given anything but an int is refused."""

import random

import pytest

from macc import (
    SchemeParams,
    Topology,
    canonical_topology,
    comparison_table,
    construct_mcrd,
    count_topologies,
    our_corners,
    random_topology,
    rival_corner,
    rival_corners,
    subfile_bytes,
)
from macc.analysis import (
    check_mr_rate,
    check_rk_rate,
    check_sr1_rate,
    check_sr2_rate,
    check_subpacketization,
)

INTS = (-1, 0, 1, 2, 3, 4)
NOT_INTS = (1.5, 3.0, True, False, "3", None)
# each entry point, called with its integer parameters only
ENTRY_POINTS = {
    "our_corners": lambda k, z: our_corners(k, z),
    "comparison_table": lambda k, z: comparison_table(k, z, [0]),
    "rival_corner": lambda k, z, t: rival_corner("RK", k, z, t),
    "rival_corners": lambda k, z, t: rival_corners("MR", k, z, [t]),
    "construct_mcrd": lambda m, b, mu: construct_mcrd(m, b, mu),
    "canonical_topology": lambda m, b, z: canonical_topology(m, b, z),
    "random_topology": lambda m, b, z: random_topology(m, b, z, 0),
    "count_topologies": lambda m, b, z: count_topologies(m, b, z),
    "Topology": lambda m, b, z, c: Topology(m, b, z, [[c], [2], [3], [4]]),
    "SchemeParams": lambda m, b, z, t, n: SchemeParams(m, b, z, t, n),
    "subfile_bytes": lambda seed, f, s, size: subfile_bytes(seed, f, s, size),
    "check_rk_rate": lambda k, z, m, b, t: check_rk_rate(k, z, m, b, t),
    "check_subpacketization": lambda k, z, m, b: check_subpacketization(k, z, m, b),
    "check_sr1_rate": lambda k, z, tpp: check_sr1_rate(k, z, tpp),
    "check_sr2_rate": lambda k, z, m, b, t: check_sr2_rate(k, z, m, b, t),
    "check_mr_rate": lambda k, z, m, b: check_mr_rate(k, z, m, b),
}
# the calls that ended in a TypeError or an AttributeError, or were accepted, before each
# entry point refused what is not an int
NAMED = [lambda: our_corners(12.0, 2), lambda: comparison_table(10.0, 2, [0]),
         lambda: rival_corner("RK", 10, 2, 1.5), lambda: canonical_topology(2, 3.0, 1),
         lambda: random_topology(1, 3.0, 1, 0), lambda: count_topologies(1, 3.0, 1),
         lambda: subfile_bytes(0, 1, 1, 1.5), lambda: construct_mcrd(2, 3.0, 1),
         lambda: Topology(1, 2, 1, [[1.0], [2]]),
         lambda: Topology(2.0, 2, 1, [[1], [2], [3], [4]]),
         lambda: SchemeParams(2, 3, 1, 1, 6.5), lambda: SchemeParams(1, 1, 1, 1, True),
         lambda: subfile_bytes(0, 1, 1, True), lambda: rival_corners("MR", 10, 2, [1.0]),
         lambda: Topology(1, 1, 1, [5]), lambda: Topology(1, 1, 1, [None]),
         lambda: Topology(1, 1, 1, 5), lambda: check_sr1_rate(100, 5, 7.0),
         lambda: check_rk_rate(100.0, 5, 2, 50, 1), lambda: check_rk_rate(100, 5, 2.0, 50, 1)]


def fuzz_calls(count: int = 300, seed: int = 18):
    """(name, args) for ``count`` draws per entry point with ``random.Random(seed)``; each
    argument is one of ``NOT_INTS`` with probability 1/5."""
    rng = random.Random(seed)
    for name, call in ENTRY_POINTS.items():
        for _ in range(count):
            yield name, tuple(rng.choice(INTS if rng.random() < 0.8 else NOT_INTS)
                              for _ in range(call.__code__.co_argcount))


@pytest.mark.parametrize("call", NAMED, ids=range(len(NAMED)))
def test_named_calls_are_refused_as_not_ints(call):
    with pytest.raises(ValueError, match=r"\bint"):
        call()


def test_every_call_ends_in_a_result_or_a_value_error():
    failures, outcomes = [], set()
    for name, args in fuzz_calls():
        try:
            ENTRY_POINTS[name](*args)
            outcome = "result"
        except ValueError:
            outcome = "refused"
        except Exception as exc:  # noqa: BLE001 - every other escape is the failure under test
            outcome = repr(exc)
        outcomes.add((name, outcome))
        if outcome != "refused" and (outcome != "result"
                                     or any(type(v) is not int for v in args)):
            failures.append((name, args, outcome))
    assert not failures
    # every entry point both returned and refused
    assert outcomes == {(name, o) for name in ENTRY_POINTS for o in ("result", "refused")}
