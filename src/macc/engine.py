"""Placement, XOR broadcast delivery, and decode verification.

Pipeline: a validated topology from :mod:`macc.topology` yields a placement
(each cache stores min(t, |cell|) blocks of its cell), the blocks each matched
user misses, and a schedule of XOR broadcasts, each of one needed subfile per
group, so it serves m users at once; any user who wants a summand's file may
decode it.  :func:`decode` proves symbolically who recovers which subfile, and
:func:`check_payloads` that every payload is the XOR of its summands' bytes.
The rate, :func:`achievable_rate`, is the blocks per group that no user covers,
an exact rational; no floats on correctness paths.

Subfiles are numbered as the points of ``construct_mcrd(m, b, 1)``: subfile
s is mixed-radix coordinate number s - 1 of its blocks.  :func:`class_blocks`
states that labelling: :func:`deliver` reads it there, and :func:`decode` tiles
its per-user subfile table with the same strides; the engine takes no design object.
File indices run 1..N, subfile indices 1..b**m, users and caches are
addressed as in :mod:`macc.topology`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from operator import add, getitem, xor
from typing import NamedTuple

from .designs import check_terms, point_count, require_ints
from .topology import Topology, cell_slots, extract_matchings, validate

DEFAULT_PAYLOAD_SIZE = 64


def achievable_rate(b: int, m: int, z: int, t: int) -> Fraction:
    """Broadcast rate in file units: the blocks per group that no user covers; exact.  A
    user reads one cache in each cell of :func:`~macc.topology.cell_slots`, z - 1 cells of
    x = floor(b/z) slots and one of b - (z-1)x, and a cache stores min(t, |cell|) blocks."""
    require_ints("b, m, z and t", b, m, z, t)
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 1 <= z <= b:
        raise ValueError(f"need 1 <= z <= b, got z={z}, b={b}")
    x = b // z
    return Fraction((z - 1) * max(0, x - t) + max(0, b - (z - 1) * x - t))


def user_terms(m: int, b: int, z: int) -> tuple[dict[str, int], dict[str, int]]:
    """Steps and held bytes of the K = m*b users' graph and work, after the shape checks; a
    user's 5*b steps price place's pool and stand for the C3 matching's successful searches."""
    achievable_rate(b, m, z, 1)  # the shape checks: m >= 1, then 1 <= z <= b
    return ({"user work K*(250+20*z+5*b)": m * b * (250 + 20 * z + 5 * b)},
            {"user data K*(800+80*z+8*b)": m * b * (800 + 80 * z + 8 * b)})


def check_cost(m: int, b: int, z: int, t: int, payload_size: int | None = None) -> None:
    """Refuse a simulate run whose estimated steps or held bytes exceed their limit, naming
    the largest term: closed forms in (m, b, z, t, size), after the shape checks and the
    2^64 guard, so nothing loops over or allocates in b or z before a refusal."""
    r, f = int(achievable_rate(b, m, z, t)), point_count(m, b)  # shape first, then 2^64
    rows, k = r * f, m * b
    payload = 0 if payload_size is None else (m + 1) * rows * (payload_size + 100)
    user_steps, user_held = user_terms(m, b, z)
    check_terms("simulate",
                {"summand lookups rows*m^2": rows * m * m,
                 "broadcast work 2*rows*(m+5)": 2 * rows * (m + 5), **user_steps},
                {"rounds 12*rows*(m+2)": 12 * rows * (m + 2),
                 "cell columns 96*m*F": 96 * m * f if r else 0,
                 "decode's table 5*K*(F+1)/4": 5 * k * (f + 1) // 4, **user_held,
                 "payloads and contents 5*(m+1)*rows*(size+100)/2": 5 * payload // 2})


@dataclass(frozen=True)
class SchemeParams:
    """Problem parameters: m*b users/caches, access degree z, memory t*N/b, N files."""

    m: int
    b: int
    z: int
    t: int
    n_files: int

    def __post_init__(self):
        require_ints("m and n_files", self.m, self.n_files)  # b, z and t: achievable_rate
        if self.m < 1 or self.n_files < 1:
            raise ValueError("m and n_files must be >= 1")
        check_cost(self.m, self.b, self.z, self.t)

    @property
    def subpacketization(self) -> int:
        return point_count(self.m, self.b)

    @property
    def missing_count(self) -> int:
        """Blocks per group no user covers via its caches; also the rate in files."""
        return int(achievable_rate(self.b, self.m, self.z, self.t))

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
    """Block slots stored per cache and the blocks each user misses, by global id.

    ``cache_blocks[c-1]`` lists the class-i block slots that cache c = (i-1)*b + j
    stores; ``missing[u-1]`` lists, ascending, the r class-i block slots that none
    of user u's caches stores, u in group i.  Caches in different cells of a group
    never share blocks.
    """

    topology: Topology
    params: SchemeParams
    cache_blocks: tuple[tuple[int, ...], ...]
    missing: tuple[tuple[int, ...], ...]


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
    cells = list(map(list, cell_slots(params.b, params.z)))  # every group shares each slot's int
    cache_blocks, gaps = [], [()]  # gaps[c]: the blocks of cache c's cell that it does not store
    for cell in cells * params.m:  # groups, cells, slots ascending, as seeded draws and ids go
        quota = min(params.t, len(cell))
        for p, j in enumerate(cell):
            if rng is None:  # keep j and the lowest quota - 1 others: cell[h] is j or cell[quota-1]
                h = max(p, quota - 1)
                cache_blocks.append((*cell[:quota - 1], cell[h]))
                gaps.append((*cell[quota - 1:h], *cell[h + 1:]))
            else:
                stored = {j, *rng.sample([s for s in cell if s != j], quota - 1)}
                cache_blocks.append(tuple(sorted(stored)))
                gaps.append(tuple(s for s in cell if s not in stored))
    # the cells are contiguous, so a user's ascending caches chain their gaps in ascending order
    missing = tuple(tuple(itertools.chain.from_iterable(map(gaps.__getitem__, row)))
                    for row in topology.access)
    return Placement(topology=topology, params=params, cache_blocks=tuple(cache_blocks),
                     missing=missing)


def class_blocks(m: int, b: int, i: int) -> list[int]:
    """The class-i block of each of the b**m cells, in coordinate order: cell k is subfile
    k + 1, coordinate number k in base b, most significant class first, so its class-i
    block is (k // b**(m-i)) % b + 1.  It is group i's column of :attr:`Schedule.cells`.
    """
    stride = b ** (m - i)
    return [j for j in range(1, b + 1) for _ in range(stride)] * b ** (i - 1)


def _check_demands(demands, params: SchemeParams) -> tuple[int, ...]:
    demands = tuple(demands)
    if any(type(d) is not int for d in demands):
        raise ValueError("demands must be int file indices")
    if len(demands) != params.num_users:
        raise ValueError(f"need {params.num_users} demands, got {len(demands)}")
    if any(not 1 <= d <= params.n_files for d in demands):
        raise ValueError("demand out of range 1..N")
    return demands


def deliver(placement: Placement, matching, demands) -> Schedule:
    """The schedule of all transmissions, in canonical (n, coords) lexicographic order.

    ``matching[c-1]`` is the global user that cache c serves, as :func:`extract_matchings`
    finds it; a matching that is not a K-tuple of ints which, group by group, permutes that
    group's users along edges of the placement's topology is a ValueError.
    For each round n and each coordinate tuple, group i contributes the
    subfile at the intersection of the chosen blocks with coordinate i
    swapped for the n-th block its matched user misses.  Repeated demands
    are allowed; the schedule never inspects them.
    """
    params, access = placement.params, placement.topology.access
    m, b, f = params.m, params.b, params.subpacketization
    # every id is an int and each group's slice permutes its users before one indexes access
    if len(matching) != m * b or not {int}.issuperset(map(type, matching)) or any(
            sorted(matching[g:g + b]) != [*range(g + 1, g + b + 1)] for g in range(0, m * b, b)
    ) or any(c not in access[u - 1] for c, u in enumerate(matching, start=1)):
        raise ValueError("matchings do not fit the placement's topology")
    demands = _check_demands(demands, params)

    r = params.missing_count
    if r == 0:
        return Schedule(*([[] for _ in range(m)] for _ in range(3)), [])

    # cell k has coordinate number k, so it is subfile k + 1; the addressed users and
    # their files are the same in every round, each a lookup of a small shared int
    cells = [class_blocks(m, b, i) for i in range(1, m + 1)]
    # user_of[i][c]: the user matched to cache slot c of group i + 1
    user_of = [(0, *matching[i * b:(i + 1) * b]) for i in range(m)]
    users = [list(map(table.__getitem__, column)) for table, column in zip(user_of, cells)]
    file_of = [0, *demands]
    files = [list(map(file_of.__getitem__, column)) for column in users]
    # subfile[k] is k + 1: the r*b^m entries of the rounds then share one int object
    # per subfile instead of each holding its own
    subfile = list(range(1, f + 1))
    rounds = [[] for _ in range(r)]
    for i in range(1, m + 1):
        # moving coordinate i from block c to block miss moves c's b^(i-1) runs of b^(m-i) cells
        # by (miss - c)*stride: a slice per run or, if fewer, an extended slice per run cell;
        # the copies start every skip cells over reach cells, each width cells at step
        stride, span = b ** (m - i), b ** (m - i + 1)
        reach, skip, width, step = (f, span, stride, 1) if i - 1 <= m - i else (stride, 1, f, span)
        for n, summands in enumerate(rounds):
            summands.append(column := [0] * f)  # exact length: equal-length copies never regrow it
            if m == 1:  # each block is one cell, so the column is one gather
                column[:] = [subfile[placement.missing[u - 1][n] - 1] for u in matching]
                continue
            for c, u in enumerate(matching[(i - 1) * b:i * b]):
                move = (placement.missing[u - 1][n] - 1 - c) * stride
                for x in range(c * stride, c * stride + reach, skip):
                    column[x:x + width:step] = subfile[x + move:x + move + width:step]
    return Schedule(cells, users, files, rounds)


# decode's table states 0 (not covered), 1 (covered) and 2 (decoded): bit 0 is "covered",
# and read as flags only 2 is set
_DECODED = bytes((0, 0, 1)) + bytes(253)


class Decoding(NamedTuple):
    recovered: tuple[bytearray, ...]  # recovered[u-1][s] == 1 iff user u decodes subfile s
    beneficiary_counts: tuple[int, ...]  # users served, per transmission


def decode(placement: Placement, schedule: Schedule, demands) -> Decoding:
    """Decode every user's demanded file from the schedule, a round and a group at a time.

    Every user who wants a summand's file reads it, whatever its group, and
    recovers it when the subfiles of all other summands sit in blocks it
    covers.  Each user's coverage is expanded once into a row of F+1 bytes
    indexed by subfile, so a summand column is read with one lookup per entry;
    the same row records what the user decodes, which never counts as
    coverage.  The proof is symbolic; :func:`check_payloads` checks the bytes.
    A round not of m columns of ids in 1..F, one per cell, is a ValueError.
    """
    params = placement.params
    demands = _check_demands(demands, params)
    m, b, f = params.m, params.b, params.subpacketization
    cells = len(schedule.cells[0])
    # table[v][s]: 1 iff user v covers the block of subfile s in its group's class, else
    # 0, and 2 once v decodes s; the rows tile v's b+1 coverage row with the stride of
    # class_blocks.  The last row is a reader that covers everything, so it never decodes
    table = []
    for v, blocks in enumerate(placement.missing):
        g = v // b
        stride = b ** (m - 1 - g)
        period = bytearray(b"\1") * (b * stride)
        for block in blocks:
            period[(block - 1) * stride:block * stride] = bytes(stride)
        table.append(bytearray(1) + period * b ** g)
    table.append(b"\1" * (f + 1))

    readers: dict[int, list[bytearray]] = {}  # file -> the table rows of the users who want it
    for row, d in zip(table, demands):
        readers.setdefault(d, []).append(row)
    # per (summand group i, reader slot): each cell's row of the slot-th user who wants the
    # cell's group-i file, or the last row, which never decodes, when fewer users want it
    readings = []
    for i, column in enumerate(schedule.files):
        found = {d: readers.get(d, ()) for d in set(column)}
        for slot in range(max(map(len, found.values()), default=0)):
            row_at = {d: rows[slot] if slot < len(rows) else table[-1]
                      for d, rows in found.items()}
            readings.append((i, list(map(row_at.__getitem__, column))))

    beneficiary_counts: list[int] = []
    ones = int.from_bytes(b"\1" * cells, "big")
    for n, summands in enumerate(schedule.rounds, start=1):
        counts = [0] * cells
        try:
            # a column too many, too few or too short, or an id below 1 (it would wrap or mark
            # the unused slot 0), is refused here; an id above F fails its lookup below
            if len(summands) != m or any(len(c) != cells or min(c, default=1) < 1 for c in summands):
                raise IndexError
            for first in range(0, len(readings), 255):  # byte lanes, emptied before one reaches 256
                lanes = 0
                for i, rows in readings[first:first + 255]:
                    # the reader must cover every summand's subfile but summand i's
                    hits = ones
                    for j, column in enumerate(summands):
                        got = int.from_bytes(bytes(map(getitem, rows, column)), "big")
                        hits &= got ^ ones if j == i else got
                    if hits:
                        lanes += hits
                        for row, s in itertools.compress(zip(rows, summands[i]),
                                                         hits.to_bytes(cells, "big")):
                            row[s] = 2
                counts = list(map(add, counts, lanes.to_bytes(cells, "big")))
        except IndexError:
            raise ValueError(f"round {n} needs {m} columns of {cells} ids in 1..{f}") from None
        beneficiary_counts += counts
    recovered = tuple(table[:-1])
    for row in recovered:
        row[:] = row.translate(_DECODED)
    return Decoding(recovered, tuple(beneficiary_counts))


def check_payloads(schedule: Schedule, contents) -> bool:
    """True iff every broadcast's payload is the XOR of its summands' ``contents``, which
    maps (file, subfile) to its ground-truth bytes as a big-endian int."""
    if schedule.payloads is None:
        raise ValueError("checking contents needs a schedule with payloads")
    if list(map(len, schedule.payloads)) != [len(schedule.cells[0])] * len(schedule.rounds):
        raise ValueError("payload columns do not match the schedule's rounds and cells")
    try:
        return not any(functools.reduce(xor, map(contents.__getitem__, zip(files, subfiles)),
                                        int.from_bytes(payload, "big"))
                       for column, summands in zip(schedule.payloads, schedule.rounds)
                       for payload, files, subfiles in zip(column, zip(*schedule.files),
                                                           zip(*summands), strict=True))
    except KeyError as missing:
        raise ValueError(f"contents lack (file, subfile) {missing.args[0]}") from None


def subfile_bytes(seed: int, file: int, subfile: int, size: int = DEFAULT_PAYLOAD_SIZE) -> bytes:
    """Deterministic content of a subfile, the byte oracle's ground truth: keyed BLAKE2b-512
    blocks of b"file:subfile:counter", keyed by the seed as 8 signed big-endian bytes."""
    if not (type(seed) is type(file) is type(subfile) is type(size) is int):
        raise ValueError(f"seed, file, subfile and size must be ints: {seed, file, subfile, size}")
    if size < 1:
        raise ValueError("payload size must be >= 1")
    try:
        key = seed.to_bytes(8, "big", signed=True)
    except OverflowError:
        raise ValueError("seed must lie in the signed 64-bit range -2**63..2**63-1") from None
    # every block hashes the same key and prefix, so each copies one state that has them
    state = hashlib.blake2b(b"%d:%d:" % (file, subfile), key=key, digest_size=64)
    blocks = []
    for counter in range(-(-size // 64)):
        block = state.copy()
        block.update(b"%d" % counter)
        blocks.append(block.digest())
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
    carry XOR payloads, and :func:`check_payloads` checks every broadcast's
    payload against the ground-truth generator.
    """
    if payload_size is not None and payload_size < 1:
        raise ValueError("payload size must be >= 1")
    check_cost(params.m, params.b, params.z, params.t, payload_size)  # the payloads' share too
    if demands is None:
        if params.n_files < params.num_users:
            raise ValueError("default distinct demands need N >= K")
        demands = range(1, params.num_users + 1)
    demands = _check_demands(demands, params)

    placement = place(topology, params, seed=placement_seed)
    schedule = deliver(placement, extract_matchings(topology), demands)

    contents: dict[tuple[int, int], int] = {}
    if payload_size is not None:
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

    decoding = decode(placement, schedule, demands)

    m, b, f = params.m, params.b, params.subpacketization
    missed = params.missing_count * b ** (m - 1)  # each user's r blocks of b^(m-1) subfiles
    users_complete = [got.count(1) == missed for got in decoding.recovered]

    return SimulationReport(
        m=m, b=b, z=params.z, t=params.t, n_files=params.n_files, subpacketization=f,
        transmission_count=len(schedule), rate=Fraction(len(schedule), f),
        expected_rate=achievable_rate(b, m, params.z, params.t),
        users_complete=tuple(users_complete), beneficiary_counts=decoding.beneficiary_counts,
        byte_oracle_ok=None if payload_size is None else check_payloads(schedule, contents),
        transmissions=schedule)
