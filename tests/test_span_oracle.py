"""The span oracle against :func:`macc.decode`, and the faults only the oracle can see."""

import random
from dataclasses import replace

from span_oracle import broadcasts, cached, rank, span_complete, span_decodes

from macc import SchemeParams, decode, deliver, extract_matchings, place, random_topology

# the shapes (m, b, z, t) swept, each with distinct demands and with files shared by users
SHAPES = [(2, 4, 2, 1), (3, 4, 2, 1), (2, 6, 3, 1), (3, 6, 2, 1), (2, 6, 2, 2), (3, 4, 1, 1),
          (2, 5, 2, 1), (4, 3, 1, 1)]


def _runs():
    """(placement, schedule, demands) per shape and demand pattern, topology and placement
    seeded by the shape: user u wants file u, or a file of ceil(K/3) drawn at random."""
    for n, (m, b, z, t) in enumerate(SHAPES):
        k = m * b
        top = random_topology(m, b, z, seed=n)
        placement = place(top, SchemeParams(m=m, b=b, z=z, t=t, n_files=k), seed=n)
        rng = random.Random(n)
        for demands in (list(range(1, k + 1)), [rng.randint(1, -(-k // 3)) for _ in range(k)]):
            yield placement, deliver(placement, extract_matchings(top), demands), demands


def test_span_oracle_agrees_with_decode():
    # on a whole schedule the two agree pair by pair; on its first rounds alone the span can
    # also combine broadcasts for users who share a file, so decode's set lies within it
    whole = prefix = 0
    for placement, schedule, demands in _runs():
        distinct = len(set(demands)) == len(demands)
        every = set(range(1, placement.params.subpacketization + 1))
        assert span_complete(placement, broadcasts(schedule), demands)
        for n in range(1, len(schedule.rounds) + 1):
            part = replace(schedule, rounds=schedule.rounds[:n])
            flags = decode(placement, part, demands).recovered
            for u, got in enumerate(span_decodes(placement, broadcasts(part), demands), start=1):
                missing = every - cached(placement, u)
                want = {s for s in missing if flags[u - 1][s]}
                if n == len(schedule.rounds):
                    whole += len(missing)
                    assert want == got, (placement.params, u)
                else:
                    prefix += len(missing)
                    assert want == got if distinct else want <= got, (placement.params, n, u)
    assert (whole, prefix) == (9548, 21800)


def _distinct_runs():
    """The runs in which user u wants file u: their broadcasts are independent, and no user
    can learn its file from a broadcast meant for another, so every fault shows."""
    return [run for run in _runs() if len(set(run[2])) == len(run[2])]


def test_span_oracle_fails_on_a_dropped_broadcast():
    for placement, schedule, demands in _distinct_runs():
        sent = broadcasts(schedule)
        assert not span_complete(placement, sent[:7] + sent[8:], demands), placement.params


def test_span_oracle_sees_a_block_that_a_cache_no_longer_stores():
    # the blocks a user misses follow from cache_blocks, so decode sees the fault too and
    # leaves some user short of a subfile that its caches no longer hold
    for placement, schedule, demands in _distinct_runs():
        kept = list(placement.cache_blocks)
        kept[3] = kept[3][1:]
        faulty = replace(placement, cache_blocks=tuple(kept))
        flags = decode(faulty, schedule, demands).recovered
        assert flags != decode(placement, schedule, demands).recovered, placement.params
        every = set(range(1, placement.params.subpacketization + 1))
        assert any(not all(got[s] for s in every - cached(faulty, u))
                   for u, got in enumerate(flags, start=1)), placement.params
        assert not span_complete(faulty, broadcasts(schedule), demands), placement.params


def _eliminated_rank(sent):
    """The rank by plain elimination: each broadcast as one int over all its variables,
    reduced against a basis kept in descending order of leading bits."""
    bit, basis = {}, []
    for summands in sent:
        vector = 0
        for var in summands:
            vector ^= 1 << bit.setdefault(var, len(bit))
        for member in basis:
            vector = min(vector, vector ^ member)
        if vector:
            basis = sorted([*basis, vector], reverse=True)
    return len(basis)


def test_rank_matches_plain_elimination():
    # a repeated broadcast and one whose summands cancel add nothing
    seen = []
    for _, schedule, demands in _runs():
        sent = broadcasts(schedule)
        for part in (sent, sent + sent[:5], sent + [((1, 1), (1, 1))]):
            assert rank(part) == _eliminated_rank(part)
        seen.append((len(set(demands)) == len(demands), rank(sent) == len(sent)))
    # distinct demands leave no broadcast redundant; some shared demands do
    assert (True, False) not in seen and (False, False) in seen
