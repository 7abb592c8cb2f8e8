"""Decodability read as linear algebra over GF(2), for the tests: user u recovers
subfile s of its file d_u iff the unit vector of the variable (d_u, s) lies in the span
of all broadcasts once every variable that u's caches store is zeroed.  The rank of the
broadcasts themselves, no variable zeroed, is what ``scripts/schedule_rank.py`` prints.

Each broadcast is the XOR of its summands, one (file, subfile) variable each, held as a
Python int whose bits are the variables.  The oracle reads only the schedule's rounds
and files, the placement's ``cache_blocks`` and the topology's ``access``, and takes each
subfile's blocks from the points of ``construct_mcrd(m, b, 1)``; it shares nothing with
:func:`macc.decode`, which proves decodability one broadcast at a time."""

import functools
from collections import Counter

from macc import construct_mcrd

_design = functools.lru_cache(maxsize=None)(construct_mcrd)


def broadcasts(schedule) -> list[tuple[tuple[int, int], ...]]:
    """Every broadcast's summands as (file, subfile) pairs, rounds in order, cells in order."""
    return [tuple(zip(files, subfiles)) for summands in schedule.rounds
            for files, subfiles in zip(zip(*schedule.files), zip(*summands))]


def cached(placement, user: int) -> set[int]:
    """The subfiles, of every file, that the caches user ``user`` reads store: cache c of
    group i keeps each point of the class-i blocks that ``cache_blocks[c-1]`` names."""
    b = placement.topology.b
    design = _design(placement.topology.m, b, 1)
    return {s for c in placement.topology.access[user - 1]
            for j in placement.cache_blocks[c - 1] for s in design.blocks[(c - 1) // b][j - 1]}


def _reduce(vector: int, basis: dict[int, int]) -> int:
    """``vector`` less the span of ``basis``, which maps each member's top bit to it."""
    while vector and (top := vector.bit_length() - 1) in basis:
        vector ^= basis[top]
    return vector


def rank(sent) -> int:
    """The GF(2) rank of the broadcasts ``sent`` (as :func:`broadcasts` lists them).

    A broadcast that holds a variable no other one holds lies outside the span of the
    others: it adds one to the rank and is set aside, which may leave another variable in
    one broadcast only.  The rest are reduced as bit vectors numbered among themselves.
    With distinct demands every broadcast is set aside; reduced as vectors, the 128 000 of
    (3,20,4,1) would hold about 3 GB, since row n's vector spans about 3n bits."""
    rows = [tuple(var for var, count in Counter(summands).items() if count % 2)
            for summands in sent]
    holders: dict[tuple[int, int], list[int]] = {}  # variable -> the rows that hold it
    for i, row in enumerate(rows):
        for var in row:
            holders.setdefault(var, []).append(i)
    alone = [var for var, held in holders.items() if len(held) == 1]
    apart = set()
    while alone:
        if len(held := holders[alone.pop()]) == 1:
            (i,) = held
            apart.add(i)
            for var in rows[i]:
                holders[var].remove(i)
                if len(holders[var]) == 1:
                    alone.append(var)
    bit: dict[tuple[int, int], int] = {}  # variable -> its bit, numbered as first met
    basis: dict[int, int] = {}
    for i, row in enumerate(rows):
        if i not in apart:
            vector = sum(1 << bit.setdefault(var, len(bit)) for var in row)
            if vector := _reduce(vector, basis):
                basis[vector.bit_length() - 1] = vector
    return len(apart) + len(basis)


def span_decodes(placement, sent, demands) -> list[set[int]]:
    """Per user, the subfiles of its file that it does not cache and that the broadcasts
    ``sent`` (as :func:`broadcasts` lists them) reveal to it."""
    f = placement.params.subpacketization
    bit: dict[tuple[int, int], int] = {}  # variable -> its bit, numbered as first met
    for summands in sent:
        for var in summands:
            bit.setdefault(var, len(bit))
    decodes = []
    for user, d in enumerate(demands, start=1):
        known, basis = cached(placement, user), {}
        for summands in sent:
            vector = 0
            for var in summands:
                if var[1] not in known:
                    vector ^= 1 << bit[var]
            if vector := _reduce(vector, basis):
                basis[vector.bit_length() - 1] = vector
        decodes.append({s for s in range(1, f + 1) if s not in known and (d, s) in bit
                        and not _reduce(1 << bit[d, s], basis)})
    return decodes


def span_complete(placement, sent, demands) -> bool:
    """True iff every user caches or recovers every subfile of its file."""
    f = placement.params.subpacketization
    return all(len(got) + len(cached(placement, u)) == f
               for u, got in enumerate(span_decodes(placement, sent, demands), start=1))
