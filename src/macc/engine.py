"""Placement, XOR broadcast delivery, and decode verification.

Pipeline: a validated topology from :mod:`macc.topology` yields a placement
(each cache stores min(t, |cell|) blocks of its cell), a missing-block table
(which blocks each matched user still misses), and a delivery schedule of XOR
transmissions.  Every transmission combines one needed subfile per group, so
each serves m users at once.  The rate, :func:`achievable_rate`, is the number
of blocks per group that no user covers.  Rates are exact rationals; no floats
on correctness paths.

Subfiles are numbered as the points of ``construct_mcrd(m, b, 1)``: subfile
s is mixed-radix coordinate number s - 1 of its blocks.  :func:`class_blocks`
states that labelling, and :func:`deliver` and :func:`decode` both read it
there; the engine takes no design object.
File indices run 1..N, subfile indices 1..b**m, users and caches are
addressed as in :mod:`macc.topology`.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .designs import DEFAULT_POINT_BUDGET, PointBudgetError, point_count
from .topology import (
    MatchingAssignment,
    Topology,
    cell_slots,
    extract_matchings,
    validate,
)

DEFAULT_PAYLOAD_SIZE = 64
MAX_SCHEDULE_ROWS = 10**7  # transmissions r * b**m that SchemeParams accepts
MAX_COVERAGE_ENTRIES = 10**7  # m * b**2 per-user coverage and placement table entries, likewise
MAX_RECOVERED_FLAGS = 10**8  # K * (F + 1) per-user recovered-subfile flags, likewise
# users K = m * b, likewise; at b = 1 the slowest accepted simulate takes 6.3 s and 157 MB
MAX_USERS = 150000
# bytes of r*F payloads and the m*r*F contents they XOR, each with ~100 B of overhead
MAX_PAYLOAD_BYTES = 5 * 10**7


def achievable_rate(b: int, m: int, z: int, t: int) -> Fraction:
    """Broadcast rate in file units: the blocks per group that no user covers; exact.

    A user reads one cache per cell of :func:`~macc.topology.cell_slots`, and each
    cache stores min(t, |cell|) blocks of its cell, so r is the sum over the cells
    of |cell| - min(t, |cell|).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    return Fraction(sum(len(cell) - min(t, len(cell)) for cell in cell_slots(b, z)))


def check_coverage_budget(m: int, b: int) -> None:
    """Refuse m*b^2 coverage and placement table entries, or m*b users, above budget."""
    if m * b**2 > MAX_COVERAGE_ENTRIES:
        raise PointBudgetError(f"coverage tables of m*b^2 = {m * b**2} entries "
                               f"exceed {MAX_COVERAGE_ENTRIES}")
    if m * b > MAX_USERS:
        raise PointBudgetError(f"K = m*b = {m * b} users exceed {MAX_USERS}")


@dataclass(frozen=True)
class SchemeParams:
    """Problem parameters: m*b users/caches, access degree z, memory t*N/b, N files."""

    m: int
    b: int
    z: int
    t: int
    n_files: int

    def __post_init__(self):
        if self.m < 1 or self.n_files < 1:
            raise ValueError("m and n_files must be >= 1")
        r, f = self.missing_count, self.subpacketization
        if r * f > MAX_SCHEDULE_ROWS:
            raise PointBudgetError(f"schedule of r={r} rounds x b^m={f} cells = {r * f} "
                                   f"transmissions exceeds {MAX_SCHEDULE_ROWS}")
        if f > DEFAULT_POINT_BUDGET:
            raise PointBudgetError(f"{f} points exceeds budget {DEFAULT_POINT_BUDGET}")
        check_coverage_budget(self.m, self.b)
        if self.num_users * (f + 1) > MAX_RECOVERED_FLAGS:
            raise PointBudgetError(f"recovered flags K*(F+1) = {self.num_users * (f + 1)} "
                                   f"exceed {MAX_RECOVERED_FLAGS}")

    @property
    def subpacketization(self) -> int:
        return point_count(self.m, self.b)

    @property
    def missing_count(self) -> int:
        """Blocks per group no user covers via its caches; also the rate in files."""
        return int(achievable_rate(self.b, self.m, self.z, self.t))

    @property
    def memory_fraction(self) -> Fraction:
        return Fraction(self.t, self.b)

    @property
    def num_users(self) -> int:
        return self.m * self.b


@dataclass(frozen=True)
class Schedule:
    """The delivery table as per-group columns, in (n, coords) order.  At cell k,
    group i's block, user and file are ``cells[i-1][k]``, ``users[i-1][k]`` and
    ``files[i-1][k]`` in every round; ``rounds[n-1][i-1][k]`` is its subfile in round
    n, and ``payloads[n-1][k]``, when attached, is that broadcast's XOR payload."""

    cells: list[list[int]]
    users: list[list[int]]
    files: list[list[int]]
    rounds: list[list[list[int]]]
    payloads: list[list[bytes]] | None = None

    def __len__(self) -> int:
        return len(self.rounds) * len(self.cells[0])


@dataclass(frozen=True)
class Placement:
    """Block slots stored per cache and the blocks each user misses.

    ``cache_blocks[i-1][j-1]`` lists the class-i block slots cache c(i,j)
    stores; ``missing[i-1][j-1]`` lists, ascending, the r class-i block slots
    that none of user k(i,j)'s caches stores.  Caches in different cells of a
    group never share blocks.
    """

    topology: Topology
    params: SchemeParams
    cache_blocks: tuple[tuple[tuple[int, ...], ...], ...]
    missing: tuple[tuple[tuple[int, ...], ...], ...]


def place(topology: Topology, params: SchemeParams, seed: int | None = None) -> Placement:
    """Fill caches: c(i,j) keeps block (i,j) plus quota-1 more from its cell.

    Deterministic mode (seed None) picks the lowest-indexed extra blocks;
    seeded mode samples them reproducibly.  Requires params shaped like the
    topology, and a topology that passes validation, so each user reads one
    cache per cell and misses the blocks of those cells its caches leave out.
    """
    if (params.m, params.b, params.z) != (topology.m, topology.b, topology.z):
        raise ValueError("params and topology shapes differ")
    report = validate(topology)
    if not report.passed:
        raise ValueError(f"topology invalid: {report.summary()}")

    rng = None if seed is None else random.Random(seed)
    cells = cell_slots(params.b, params.z)
    cache_rows, missing_rows = [], []
    for i in range(1, params.m + 1):
        row, gaps = [], []  # gaps[j-1]: the blocks of c(i,j)'s cell that it does not store
        # cells ascending, then slots ascending: the order of the seeded draws
        for cell in cells:
            quota = min(params.t, len(cell))
            for j in cell:
                pool = [s for s in cell if s != j]
                extra = pool[: quota - 1] if rng is None else rng.sample(pool, quota - 1)
                stored = {j, *extra}
                row.append(tuple(sorted(stored)))
                gaps.append(tuple(s for s in cell if s not in stored))
        cache_rows.append(tuple(row))
        # the cells are contiguous, so ascending slots chain their gaps in ascending order
        missing_rows.append(tuple(tuple(itertools.chain.from_iterable(gaps[s - 1] for s in slots))
                                  for slots in topology.group_slots(i)))

    return Placement(topology=topology, params=params,
                     cache_blocks=tuple(cache_rows), missing=tuple(missing_rows))


def build_demand_graph(placement: Placement, matchings: MatchingAssignment):
    """The demand graph's edges: ``missing[i-1][j-1]`` lists, ascending, the
    class-i block slots that the user matched to cache c(i,j) does not cover."""
    return tuple(tuple(row[u - 1] for u in matchings.inverse(i))
                 for i, row in enumerate(placement.missing, start=1))


def class_blocks(m: int, b: int, i: int) -> list[int]:
    """The class-i block of each subfile, indexed by subfile (index 0 unused).

    Subfile s is coordinate number s - 1 in base b, most significant class
    first, so its class-i block is ((s - 1) // b**(m-i)) % b + 1.
    """
    stride = b ** (m - i)
    return [0] + [j for j in range(1, b + 1) for _ in range(stride)] * b ** (i - 1)


def _check_demands(demands, params: SchemeParams) -> tuple[int, ...]:
    demands = tuple(int(d) for d in demands)
    if len(demands) != params.num_users:
        raise ValueError(f"need {params.num_users} demands, got {len(demands)}")
    if any(not 1 <= d <= params.n_files for d in demands):
        raise ValueError("demand out of range 1..N")
    return demands


def deliver(placement: Placement, matchings: MatchingAssignment, demands) -> Schedule:
    """The schedule of all transmissions, in canonical (n, coords) lexicographic order.

    For each round n and each coordinate tuple, group i contributes the
    subfile at the intersection of the chosen blocks with coordinate i
    swapped for the n-th block its matched user misses.  Repeated demands
    are allowed; the schedule never inspects them.
    """
    params = placement.params
    if not matchings.is_valid_for(placement.topology):
        raise ValueError("matchings do not fit the placement's topology")
    demands = _check_demands(demands, params)

    m, b = params.m, params.b
    r = params.missing_count
    if r == 0:
        return Schedule(*([[] for _ in range(m)] for _ in range(3)), [])

    missing = build_demand_graph(placement, matchings)
    # cell k has coordinate number k, so it is subfile k + 1; the addressed users and
    # their files are the same in every round, each a lookup of a small shared int
    cells = [class_blocks(m, b, i)[1:] for i in range(1, m + 1)]
    # user_of[i-1][c]: the user of group i matched to its cache slot c
    user_of = [[0] + [i * b + u for u in matchings.inverse(i + 1)] for i in range(m)]
    users = [list(map(table.__getitem__, column)) for table, column in zip(user_of, cells)]
    file_of = [0, *demands]
    files = [list(map(file_of.__getitem__, column)) for column in users]
    # subfile[k] is k + 1: the r*b^m entries of the rounds then share one int object
    # per subfile instead of each holding its own
    subfile = list(range(1, len(cells[0]) + 1))
    rounds = []
    for n in range(1, r + 1):
        summands = []
        for i in range(1, m + 1):
            # moving coordinate i from c to the n-th missing block shifts the coordinate number
            stride = b ** (m - i)
            shift = [0] + [(gap[n - 1] - c) * stride
                           for c, gap in enumerate(missing[i - 1], start=1)]
            summands.append([subfile[k + shift[c]] for k, c in enumerate(cells[i - 1])])
        rounds.append(summands)
    return Schedule(cells, users, files, rounds)


class Decoding(NamedTuple):
    recovered: tuple[bytearray, ...]  # recovered[u-1][s] == 1 iff user u decodes subfile s
    beneficiary_counts: tuple[int, ...]  # users served, per transmission
    byte_ok: bool | None  # None when no contents were given


def decode(placement: Placement, schedule: Schedule, demands, contents=None) -> Decoding:
    """Decode every user's demanded file from the schedule, a round and a group at a time.

    A user recovers a summand addressed to its file when the subfiles of
    all other summands sit in blocks it covers.  ``contents`` maps
    (file, subfile) to that subfile's ground-truth bytes as a big-endian
    int; when given, every row some user decodes must carry the XOR of all
    its summands' contents, which is each recovery yielding the ground truth.
    """
    if contents is not None and schedule.payloads is None:
        raise ValueError("checking contents needs a schedule with payloads")
    params = placement.params
    demands = _check_demands(demands, params)
    m, b, f = params.m, params.b, params.subpacketization
    users, cells, w = len(demands), len(schedule.cells[0]), b + 1
    # known[v*w + block] == 1 iff user v covers that block of its group's class; the
    # last row is a reader that knows everything, so it never decodes
    known = bytearray(b"\1") * ((users + 1) * w)
    for v, blocks in enumerate(itertools.chain.from_iterable(placement.missing)):
        for block in blocks:
            known[v * w + block] = 0
    unknown = known.translate(b"\1" + bytes(255))
    block_of = [class_blocks(m, b, g) for g in range(1, m + 1)]

    readers: dict[int, dict[int, list[int]]] = {}  # file -> reader group -> its users
    for v, d in enumerate(demands):
        readers.setdefault(d, {}).setdefault(v // b, []).append(v)
    # per (summand group i, reader group g, slot): the row offset v*w of the slot-th
    # user v of group g that wants the cell's group-i file, for each g that holds one
    readings = []
    for i, column in enumerate(schedule.files):
        wanted = {d: readers.get(d, {}) for d in column}
        for g in sorted(set().union(*wanted.values())):
            found = [groups.get(g, ()) for groups in wanted.values()]
            for slot in range(max(map(len, found))):
                row_at = {d: (vs[slot] if slot < len(vs) else users) * w
                          for d, vs in zip(wanted, found)}
                readings.append((i, g, list(map(row_at.__getitem__, column))))

    recovered = tuple(bytearray(f + 1) for _ in demands)
    beneficiary_counts: list[int] = []
    byte_ok: bool | None = None if contents is None else True
    for n, summands in enumerate(schedule.rounds):
        counts = [0] * cells
        decoded_rows = 0
        for i, g, offsets in readings:
            # the reader must cover every summand's class-g block but summand i's
            hits = -1
            for j, column in enumerate(summands):
                table = unknown if j == i else known
                hits &= int.from_bytes(bytes(map(table.__getitem__, map(
                    add, offsets, map(block_of[g].__getitem__, column)))), "big")
            if not hits:
                continue
            hit = hits.to_bytes(cells, "big")
            for offset, s in itertools.compress(zip(offsets, summands[i]), hit):
                recovered[offset // w][s] = 1
            counts = list(map(add, counts, hit))
            decoded_rows |= hits
        beneficiary_counts += counts
        if contents is not None and decoded_rows:
            for k in itertools.compress(range(cells), decoded_rows.to_bytes(cells, "big")):
                got = int.from_bytes(schedule.payloads[n][k], "big")
                for files, column in zip(schedule.files, summands):
                    got ^= contents[files[k], column[k]]
                if got:
                    byte_ok = False
    return Decoding(recovered, tuple(beneficiary_counts), byte_ok)


def subfile_bytes(seed: int, file: int, subfile: int, size: int = DEFAULT_PAYLOAD_SIZE) -> bytes:
    """Deterministic content of a subfile; the ground truth for the byte oracle."""
    if size < 1:
        raise ValueError("payload size must be >= 1")
    key = seed.to_bytes(8, "big", signed=True)
    blocks = [hashlib.blake2b(b"%d:%d:%d" % (file, subfile, counter), key=key,
                              digest_size=64).digest() for counter in range(-(-size // 64))]
    return b"".join(blocks)[:size]


@dataclass(frozen=True)
class SimulationReport:
    m: int
    b: int
    z: int
    t: int
    n_files: int
    subpacketization: int
    transmission_count: int
    rate: Fraction
    expected_rate: Fraction
    users_complete: tuple[bool, ...]
    beneficiary_counts: tuple[int, ...]
    byte_oracle_ok: bool | None
    transmissions: Schedule

    def all_complete(self) -> bool:
        return all(self.users_complete)

    def to_json_dict(self) -> dict:
        """Every field but the schedule, for :func:`macc.analysis.json_default`."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "transmissions"}


def simulate(topology: Topology, params: SchemeParams, demands=None,
             payload_size: int | None = None, seed: int = 0,
             placement_seed: int | None = None) -> SimulationReport:
    """Run placement, delivery, and per-user decode; report rate and completeness.

    ``demands`` defaults to user u demanding file u (needs N >= K).  With
    ``payload_size`` set, subfiles get seeded byte contents, transmissions
    carry XOR payloads, and every recovery is re-checked at byte level
    against the ground-truth generator.
    """
    if payload_size is not None:
        if payload_size < 1:
            raise ValueError("payload size must be >= 1")
        rows = params.missing_count * params.subpacketization
        held = (params.m + 1) * rows * (payload_size + 100)
        if held > MAX_PAYLOAD_BYTES:
            raise PointBudgetError(f"payloads and contents of (m+1)*r*F*(size+100) = {held} "
                                   f"bytes exceed {MAX_PAYLOAD_BYTES}")
    if demands is None:
        if params.n_files < params.num_users:
            raise ValueError("default distinct demands need N >= K")
        demands = range(1, params.num_users + 1)
    demands = _check_demands(demands, params)

    placement = place(topology, params, seed=placement_seed)
    matchings = extract_matchings(topology)
    schedule = deliver(placement, matchings, demands)

    contents: dict[tuple[int, int], int] | None = None
    if payload_size is not None:
        contents = {}
        payloads = []
        for summands in schedule.rounds:
            column = []
            for files, subfiles in zip(zip(*schedule.files), zip(*summands)):
                acc = 0
                for key in zip(files, subfiles):
                    if key not in contents:
                        contents[key] = int.from_bytes(subfile_bytes(seed, *key, payload_size), "big")
                    acc ^= contents[key]
                column.append(acc.to_bytes(payload_size, "big"))
            payloads.append(column)
        schedule = replace(schedule, payloads=payloads)

    decoding = decode(placement, schedule, demands, contents)

    m, b = params.m, params.b
    f = params.subpacketization
    users_complete = [got.count(1) == len(gaps) * b ** (m - 1) for gaps, got in
                      zip(itertools.chain.from_iterable(placement.missing), decoding.recovered)]

    return SimulationReport(
        m=m,
        b=b,
        z=params.z,
        t=params.t,
        n_files=params.n_files,
        subpacketization=f,
        transmission_count=len(schedule),
        rate=Fraction(len(schedule), f),
        expected_rate=achievable_rate(b, m, params.z, params.t),
        users_complete=tuple(users_complete),
        beneficiary_counts=decoding.beneficiary_counts,
        byte_oracle_ok=decoding.byte_ok,
        transmissions=schedule,
    )
