"""User-to-cache association graphs for grouped multi-access caching.

The K = m*b users and caches split into m groups of b.  A valid topology
satisfies three conditions:

  C1  edges stay inside a group: user k(i,j) only reads caches c(i, .)
  C2  the b caches of a group split into the z contiguous cells of
      :func:`cell_slots` (the first z-1 of size floor(b/z), the last of size
      b - (z-1)*floor(b/z)) and every user reads exactly one cache per cell,
      hence exactly z caches
  C3  every group graph has a perfect matching

Users and caches are addressed either as (group i, slot j), both 1-based,
or as global ids (i-1)*b + j; the JSON form uses global ids, row-major.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import rshift

from .designs import require_ints


class MatchingError(ValueError):
    """No perfect matching exists in some group (condition C3 fails)."""


class GenerationError(ValueError):
    """Random generation failed to satisfy C3 within the retry budget."""


RANDOM_TRIES = 1000  # draws per group before random_topology gives up


def cell_slots(b: int, z: int) -> list[range]:
    """The z cells as ranges of cache slots: floor(b/z) slots for cells 1..z-1, the rest
    for cell z.  :func:`~macc.engine.achievable_rate` sums over these sizes in closed form."""
    if type(b) is not int or type(z) is not int or not 1 <= z <= b:
        raise ValueError(f"need ints b and z with 1 <= z <= b, got z={z!r}, b={b!r}")
    x = b // z
    starts = [l * x + 1 for l in range(z)] + [b + 1]
    return [range(start, end) for start, end in zip(starts, starts[1:])]


@dataclass(frozen=True)
class Topology:
    """Access lists for all m*b users; entry u is a sorted tuple of global cache ids."""

    m: int
    b: int
    z: int
    access: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for name in (n for n in ("m", "b", "z") if type(getattr(self, n)) is not int):
            raise ValueError(f"topology field {name!r} must be an integer")
        if self.m < 1 or not 1 <= self.z <= self.b:
            raise ValueError("need m >= 1 and 1 <= z <= b")
        try:
            rows = tuple(tuple(sorted(row)) for row in self.access)
        except TypeError:  # access or a row is not iterable, or a row's ids do not compare
            raise ValueError("access must be rows of int cache ids") from None
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            raise ValueError("every cache id of an access row must be an int")
        object.__setattr__(self, "access", rows)
        k = self.m * self.b
        if len(self.access) != k:
            raise ValueError(f"need {k} access lists, got {len(self.access)}")
        if any(row and (row[0] < 1 or row[-1] > k) for row in self.access):  # rows ascend
            raise ValueError("cache id out of range")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Topology":
        """Build from the JSON form; a field of the wrong type raises ValueError naming it."""
        rows = doc["access"]
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)
                and set(map(type, chain.from_iterable(rows))) <= {int}):  # before set() hashes
            raise ValueError("topology field 'access' must be a list of lists of integer cache ids")
        return cls(m=doc["m"], b=doc["b"], z=doc["z"], access=map(set, rows))

    @classmethod
    def from_group_slots(cls, m: int, b: int, z: int, slots) -> "Topology":
        """Build from per-group, per-user lists of within-group cache slots."""
        return cls(m=m, b=b, z=z, access=(map(((i - 1) * b).__add__, user)
                                          for i in range(1, m + 1) for user in slots[i - 1]))


def _max_matching(adj: list[list[int]], n_right: int) -> list[int]:
    """Kuhn augmenting-path matching; returns the left owner per right vertex (0 = none).

    A greedy seeding pass hands every left vertex its lowest free neighbour,
    then augmenting passes (in ascending left order, neighbours ascending)
    match the rest, so the result is deterministic with lowest-index
    tie-breaking and greedy assignments are kept whenever possible.
    """
    match_right = [0] * (n_right + 1)
    seen = [0] * (n_right + 1)  # seen[v] == stamp: a search since the last augmentation met v
    seeded = [False] * len(adj)
    for u in range(1, len(adj)):
        for v in adj[u]:
            if match_right[v] == 0:
                match_right[v] = u
                seeded[u] = True
                break

    stamp = 1  # kept through a failed search: it changes nothing and meets no free vertex
    for u in range(1, len(adj)):
        if not seeded[u]:
            stamp += _augment(adj, match_right, u, seen, stamp)
    return match_right


def _augment(adj: list, match_right: list[int], root: int, seen: list[int], stamp: int) -> bool:
    """Depth-first search for an augmenting path from ``root``; flips it if found.

    An explicit stack replaces recursion, so path length is not bounded by
    the interpreter's recursion limit; the visiting order is the recursive one.
    It marks the right vertices it reaches with ``stamp`` in ``seen``, one list per matching.
    """
    stack = [(root, iter(adj[root]))]
    via: list[int] = []  # via[k]: right vertex that led from stack[k] to stack[k+1]
    while stack:
        for v in stack[-1][1]:
            if seen[v] == stamp:
                continue
            seen[v] = stamp
            if match_right[v] == 0:
                via.append(v)
                for (u, _), w in zip(stack, via):
                    match_right[w] = u
                return True
            via.append(v)
            stack.append((match_right[v], iter(adj[match_right[v]])))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


@dataclass(frozen=True)
class TopologyReport:
    c1_ok: bool
    c2_ok: bool
    c2_at_most_ok: bool
    c3_ok: bool
    passed: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}: C1={self.c1_ok} C2={self.c2_ok} C3={self.c3_ok}"


def _own_rows(topology: Topology) -> list:
    """Matching adjacency (entry 0 unused): user u's row, cut to its own group's caches (C1)."""
    b, adj = topology.b, [(), *topology.access]
    for u in range(1, len(adj)):
        first, row = (u - 1) // b * b, adj[u]
        if row and (row[0] <= first or row[-1] > first + b):
            adj[u] = [c for c in row if first < c <= first + b]
    return adj


def validate(topology: Topology) -> TopologyReport:
    """Check C1, C2 (exactly one cache per cell), and C3 independently.

    A user that reads at most one cache per cell but misses some cell meets
    the looser reading of C2; that is reported as a warning, distinct from a
    user that reads two caches in one cell.
    """
    m, b, z = topology.m, topology.b, topology.z
    c1: list[str] = []
    c2: list[str] = []
    warnings: list[str] = []
    cell_of = [0] + [l for l, cell in enumerate(cell_slots(b, z)) for _ in cell] * m  # by cache id
    adj = _own_rows(topology)
    for u, caches in enumerate(topology.access, start=1):
        i, j, row = (u - 1) // b + 1, (u - 1) % b + 1, adj[u]
        if len(row) < len(caches):  # _own_rows cut the caches of other groups
            c1 += [f"C1: user k({i},{j}) reads cache {c} of group {(c - 1) // b + 1}"
                   for c in caches if (c - 1) // b + 1 != i]
        cells = set(map(cell_of.__getitem__, row))
        if len(cells) < len(row):
            c2.append(f"C2: user k({i},{j}) reads several caches in one cell")
        elif len(cells) < z:
            warnings.append(f"C2: user k({i},{j}) misses a cell (at-most-but-not-exactly)")
    match = _max_matching(adj, m * b)  # groups share no cache, so it splits into theirs
    short = [match[first + 1:first + b + 1].count(0) for first in range(0, m * b, b)]  # unmatched
    c3 = [f"C3: group {i} has maximum matching {b - n} < {b}" for i, n in enumerate(short, 1) if n]

    c2_at_most_ok = not c2
    return TopologyReport(
        c1_ok=not c1,
        c2_ok=c2_at_most_ok and not warnings,
        c2_at_most_ok=c2_at_most_ok,
        c3_ok=not c3,
        passed=not (c1 or c2 or c3 or warnings),
        violations=tuple(c1 + c2 + c3),
        warnings=tuple(warnings),
    )


def extract_matchings(topology: Topology) -> tuple[int, ...]:
    """Deterministic perfect matching per group (lowest-index tie-breaking), as found, by
    global id: ``to_user[c-1]`` is the user of cache c's group that cache c serves."""
    b = topology.b
    match = _max_matching(_own_rows(topology), topology.m * b)
    if 0 in match[1:]:  # the first unmatched cache's group: it has as many unmatched users
        raise MatchingError(f"group {-(-match.index(0, 1) // b)} admits no perfect matching (C3)")
    return tuple(match[1:])


def canonical_topology(m: int, b: int, z: int) -> Topology:
    """Fixed valid topology: in each cell, user j reads the cache at offset (j-1) mod cellsize."""
    require_ints("m", m)
    cells = cell_slots(b, z)
    group = [[cell[(j - 1) % len(cell)] for cell in cells] for j in range(1, b + 1)]
    return Topology.from_group_slots(m, b, z, [group] * m)


def random_topology(m: int, b: int, z: int, seed: int) -> Topology:
    """Seeded uniform choice of one cache per cell per user; each group is redrawn until
    C3 holds, up to ``RANDOM_TRIES`` times.  The picks are ``rng.choice(cell)``'s: the first
    r = ``getrandbits(k)`` below len(cell), k its bit length, is the top k bits of a word."""
    require_ints("m", m)
    cells = cell_slots(b, z)
    if z == 1:
        # a draw is accepted iff the b users pick distinct caches: rate b!/b^b
        log10_rate = (math.lgamma(b + 1) - b * math.log(b)) / math.log(10)
        if RANDOM_TRIES * 10**log10_rate < 1e-9:
            exponent = math.floor(log10_rate)
            raise GenerationError(
                f"no C3-satisfying draw is within reach for b={b}, z=1: a group draw is "
                f"accepted with probability b!/b^b = {10 ** (log10_rate - exponent):.3f}e"
                f"{exponent}, so {RANDOM_TRIES} tries per group succeed with probability "
                f"below 1e-9")
    rng, n = random.Random(seed), min(2**14, b * z)
    # getrandbits(32) words, n per read, lowest first; only their top bytes when every k <= 8
    bits = 8 if len(cells[-1]) < 256 else 32  # the last cell is the largest
    chunks = (rng.getrandbits(32 * n).to_bytes(4 * n, "little") for _ in repeat(None))
    words = chain.from_iterable(raw[3::4] if bits == 8 else struct.unpack(f"<{n}I", raw)
                                for raw in chunks)
    draws = []
    for cell in cells:
        k = len(cell).bit_length()
        table = [*cell, *[None] * (2**k - len(cell))]  # None: r is past the cell, draw again
        draws.append(filter(None, map(table.__getitem__, map(rshift, words, repeat(bits - k)))))
    slots = []
    tries = 0
    for i in range(1, m + 1):
        for _ in range(RANDOM_TRIES):
            tries += 1
            # one slot per cell, cells ascending, so each user's slots come out ascending
            group = [list(map(next, draws)) for _ in range(b)]
            match = _max_matching([[]] + group, b)
            if all(v != 0 for v in match[1:]):
                slots.append(group)
                break
        else:
            raise GenerationError(
                f"no C3-satisfying draw for group {i} in {RANDOM_TRIES} tries; {len(slots)} of "
                f"{tries} draws accepted, acceptance rate {len(slots) / tries:.3g}")
    return Topology.from_group_slots(m, b, z, slots)


def count_topologies(m: int, b: int, z: int) -> int:
    """Number of graphs satisfying C1 and C2 (C3 not filtered); exact."""
    if type(m) is not int or m < 1:
        raise ValueError(f"need an int m >= 1, got {m!r}")
    return math.prod(map(len, cell_slots(b, z))) ** (b * m)  # one cache per cell, per user
