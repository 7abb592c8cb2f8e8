import functools
import hashlib
import itertools
import json
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import (
    PointBudgetError,
    SchemeParams,
    achievable_rate,
    build_demand_graph,
    canonical_topology,
    construct_mcrd,
    decode,
    deliver,
    extract_matchings,
    place,
    point_at,
    random_topology,
    simulate,
    subfile_bytes,
)
from macc.cli import write_log
from macc.designs import DEFAULT_POINT_BUDGET
from macc.engine import (
    MAX_RECOVERED_FLAGS,
    MAX_SCHEDULE_ROWS,
    MAX_USERS,
    Schedule,
    class_blocks,
)
from macc.topology import cell_slots


def rows(schedule):
    """The schedule read row by row, in (n, coords) order: (n, coords, summands) per
    broadcast, where summands holds group i's (user, file, subfile) at position i-1."""
    return [(n, coords, tuple(zip(users, files, subfiles)))
            for n, summands in enumerate(schedule.rounds, start=1)
            for coords, users, files, subfiles in zip(
                zip(*schedule.cells), zip(*schedule.users), zip(*schedule.files), zip(*summands))]


def decoded(flags):
    """The subfile ids a ``Decoding.recovered`` flag table marks."""
    return {s for s, flag in enumerate(flags) if flag}


def sub_schedule(schedule, rounds, cells):
    """The part of ``schedule`` in the given rounds and cells (0-based indices)."""
    def pick(column):
        return [column[k] for k in cells]
    payloads = None if schedule.payloads is None else [pick(schedule.payloads[n]) for n in rounds]
    return Schedule(*([pick(column) for column in field]
                      for field in (schedule.cells, schedule.users, schedule.files)),
                    [[pick(column) for column in schedule.rounds[n]] for n in rounds], payloads)


_design = functools.lru_cache(maxsize=None)(construct_mcrd)


def user_coords(b, user):
    """(group i, slot j) of global user id ``user`` in groups of b."""
    return (user - 1) // b + 1, (user - 1) % b + 1


def covered_blocks(placement, i, j):
    """The class-i block slots that the caches user k(i,j) reads store."""
    return {block for slot in placement.topology.group_slots(i)[j - 1]
            for block in placement.cache_blocks[i - 1][slot - 1]}


def cached_subfiles(placement, i, j):
    """Subfile indices user k(i,j) reads from its caches (any file), read off the
    blocks of the design the engine's subfile numbering comes from."""
    design = _design(placement.params.m, placement.params.b, 1)
    return {p for block in covered_blocks(placement, i, j) for p in design.block(i, block)}


def test_achievable_rate_examples():
    assert achievable_rate(50, 2, 5, 1) == 45
    assert achievable_rate(4, 2, 2, 2) == 0
    assert achievable_rate(7, 2, 3, 2) == 1
    assert achievable_rate(10, 10, 5, 1) == 5
    assert achievable_rate(4, 2, 2, 1) == 2
    with pytest.raises(ValueError, match="^t must be >= 1$"):
        achievable_rate(4, 2, 2, 0)
    with pytest.raises(ValueError, match="^need 1 <= z <= b, got z=5, b=4$"):
        achievable_rate(4, 2, 5, 1)


def test_achievable_rate_equals_quota_form():
    # the paper's three regimes: b - tz while t <= floor(b/z), then the last
    # cell drains linearly, then zero once every user covers its whole group
    for b in range(1, 15):
        for z in range(1, b + 1):
            for t in range(1, b + 1):
                x = b // z
                if t <= x:
                    piecewise = b - t * z
                elif t < b - (z - 1) * x:
                    piecewise = b - (z - 1) * x - t
                else:
                    piecewise = 0
                assert achievable_rate(b, 1, z, t) == piecewise
                params = SchemeParams(m=1, b=b, z=z, t=t, n_files=1)
                assert params.missing_count == piecewise


def test_place_single_block_per_cache(example_a):
    top, params = example_a
    placement = place(top, params)
    assert placement.cache_blocks == (((1,), (2,), (3,), (4,)),) * 2
    # user k(1,1) reads caches 1 and 3, so covers blocks 1 and 3 and misses 2 and 4
    assert placement.missing[0][0] == (2, 4)


def test_place_matches_published_block_sets(example_b):
    top, params = example_b
    placement = place(top, params)
    expected = ((1, 2), (1, 2), (3, 4), (3, 4), (5, 6), (5, 6), (5, 7))
    assert placement.cache_blocks == (expected, expected)
    # every user but the last covers all blocks except block 7; the last misses block 6
    for i in (1, 2):
        for j in range(1, 7):
            assert placement.missing[i - 1][j - 1] == (7,)
        assert placement.missing[i - 1][6] == (6,)


def test_place_full_cell_when_quota_saturates():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    placement = place(top, params)
    for i in (1, 2):
        for j in (1, 2):
            assert placement.cache_blocks[i - 1][j - 1] == (1, 2)
        for j in (3, 4):
            assert placement.cache_blocks[i - 1][j - 1] == (3, 4)


def test_place_seeded_choice_is_deterministic_and_valid():
    top = canonical_topology(1, 9, 2)
    params = SchemeParams(m=1, b=9, z=2, t=3, n_files=9)
    p1 = place(top, params, seed=5)
    p2 = place(top, params, seed=5)
    assert p1.cache_blocks == p2.cache_blocks
    for j in range(1, 10):
        blocks = p1.cache_blocks[0][j - 1]
        assert j in blocks and len(blocks) == 3


def test_place_missing_is_the_complement_of_read_caches():
    # every shape with m <= 3, b <= 8; deterministic and seeded placement on the canonical
    # topology, and seeded placement on a random one where z >= 2 makes draws cheap
    for m, b in itertools.product(range(1, 4), range(1, 9)):
        for z, t in itertools.product(range(1, b + 1), repeat=2):
            params = SchemeParams(m=m, b=b, z=z, t=t, n_files=1)
            top = canonical_topology(m, b, z)
            cases = [(top, None), (top, t)]
            if z > 1:
                cases.append((random_topology(m, b, z, seed=b + t), t))
            for top, seed in cases:
                placement = place(top, params, seed=seed)
                for i, j in itertools.product(range(1, m + 1), range(1, b + 1)):
                    missing = placement.missing[i - 1][j - 1]
                    assert list(missing) == sorted(set(missing))
                    assert len(missing) == params.missing_count
                    assert set(missing) == set(range(1, b + 1)) - covered_blocks(placement, i, j)


def test_place_cell_disjointness():
    top = canonical_topology(2, 7, 3)
    params = SchemeParams(m=2, b=7, z=3, t=2, n_files=14)
    placement = place(top, params, seed=2)
    cell_of = {j: l for l, cell in enumerate(cell_slots(7, 3)) for j in cell}

    for i in (1, 2):
        for j1 in range(1, 8):
            for j2 in range(j1 + 1, 8):
                if cell_of[j1] != cell_of[j2]:
                    a = set(placement.cache_blocks[i - 1][j1 - 1])
                    b = set(placement.cache_blocks[i - 1][j2 - 1])
                    assert not (a & b)


def test_place_rejects_bad_inputs(example_a):
    top, params = example_a
    with pytest.raises(ValueError, match="params and topology shapes differ"):
        place(top, SchemeParams(m=2, b=3, z=2, t=1, n_files=6))
    from macc import Topology

    broken = Topology.from_group_slots(2, 4, 2, [[[1], [2], [3], [4]]] * 2)
    with pytest.raises(ValueError):
        place(broken, params)


def test_demand_graph_example_a(example_a, example_a_matching):
    top, params = example_a
    missing = build_demand_graph(place(top, params), example_a_matching)
    # cache (1,1) is matched to user k(1,1), which covers blocks 1 and 3
    assert missing[0][0] == (2, 4)
    for i in (1, 2):
        for j in range(1, 5):
            assert len(missing[i - 1][j - 1]) == 2


def test_demand_graph_example_b(example_b, example_b_identity_matching):
    top, params = example_b
    missing = build_demand_graph(place(top, params), example_b_identity_matching)
    for i in (1, 2):
        for j in range(1, 7):
            assert missing[i - 1][j - 1] == (7,)
        assert missing[i - 1][6] == (6,)


def test_demand_graph_empty_when_rate_zero():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    missing = build_demand_graph(place(top, params), extract_matchings(top))
    assert all(len(missing[i - 1][j - 1]) == 0 for i in (1, 2) for j in range(1, 5))


def test_deliver_example_a_published_transmissions(example_a, example_a_matching):
    top, params = example_a
    placement = place(top, params)
    txs = rows(deliver(placement, example_a_matching, range(1, 9)))
    assert len(txs) == 32
    # first broadcast: subfile 5 for user k(1,1) against subfile 2 for k(2,4)
    assert txs[0] == (1, (1, 1), ((1, 1, 5), (8, 8, 2)))
    # later rounds swap to the second missing block: coords (1,1), n=2
    tx_2_11 = next(sums for n, coords, sums in txs if n == 2 and coords == (1, 1))
    assert tx_2_11 == ((1, 1, 13), (8, 8, 4))


def test_deliver_example_b_published_transmissions(example_b, example_b_identity_matching):
    top, params = example_b
    placement = place(top, params)
    txs = deliver(placement, example_b_identity_matching, range(1, 15))
    assert len(txs) == 49
    by_coords = {coords: sums for _, coords, sums in rows(txs)}
    assert by_coords[(1, 1)] == ((1, 1, 43), (8, 8, 7))
    assert by_coords[(7, 7)] == ((7, 7, 42), (14, 14, 48))
    assert by_coords[(3, 7)] == ((3, 3, 49), (14, 14, 20))


def _brute_schedule(placement, matchings, demands):
    """The schedule read off the design: in round n at blocks ``coords``, group i
    sends the point where its matched user's n-th missing block meets the rest."""
    params = placement.params
    m, b = params.m, params.b
    design = construct_mcrd(m, b, 1)
    rows = []
    for n in range(1, params.missing_count + 1):
        for coords in itertools.product(range(1, b + 1), repeat=m):
            row = []
            for i in range(1, m + 1):
                slot = matchings.inverse(i)[coords[i - 1] - 1]
                user = (i - 1) * b + slot
                gaps = sorted(set(range(1, b + 1)) - covered_blocks(placement, i, slot))
                (subfile,) = point_at(design, coords[: i - 1] + (gaps[n - 1],) + coords[i:])
                row.append((user, demands[user - 1], subfile))
            rows.append((n, coords, tuple(row)))
    return rows


def test_deliver_matches_brute_force_schedule(example_a, example_a_matching,
                                              example_b, example_b_identity_matching):
    top_c = canonical_topology(3, 8, 2)
    cases = [
        (*example_a, example_a_matching, range(1, 9)),
        (*example_b, example_b_identity_matching, [(u * 5) % 14 + 1 for u in range(14)]),
        (top_c, SchemeParams(m=3, b=8, z=2, t=1, n_files=24),
         extract_matchings(top_c), range(1, 25)),
    ]
    for top, params, matchings, demands in cases:
        placement = place(top, params, seed=1)
        demands = list(demands)
        assert rows(deliver(placement, matchings, demands)) == \
            _brute_schedule(placement, matchings, demands)


def test_class_blocks_match_the_constructed_design():
    for m, b in itertools.product(range(1, 4), range(1, 9)):
        design = construct_mcrd(m, b, 1)
        for i in range(1, m + 1):
            block_of = class_blocks(m, b, i)
            assert len(block_of) == b**m + 1
            assert [tuple(p for p in range(1, b**m + 1) if block_of[p] == j)
                    for j in range(1, b + 1)] == list(design.blocks[i - 1])


def test_deliver_empty_when_rate_zero():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    placement = place(top, params)
    schedule = deliver(placement, extract_matchings(top), range(1, 9))
    assert len(schedule) == 0
    assert rows(schedule) == []


def test_scheme_params_bound_the_schedule_rows():
    # (m, b, z, t) = (2, 250, 1, 90): rate 160 over 62500 cells, the row limit exactly
    params = SchemeParams(m=2, b=250, z=1, t=90, n_files=1)
    assert params.missing_count * params.subpacketization == MAX_SCHEDULE_ROWS
    # (6, 10, 1, 1): rate 9 over 10**6 cells, the point limit exactly
    params = SchemeParams(m=6, b=10, z=1, t=1, n_files=1)
    assert params.subpacketization == DEFAULT_POINT_BUDGET
    # (2, 1000, 1, 990) meets both limits too, but 2000 users' recovered flags over
    # 10**6 + 1 subfile ids do not fit
    with pytest.raises(PointBudgetError, match="^recovered flags K\\*\\(F\\+1\\) = "
                                               "2000002000 exceed 100000000$"):
        SchemeParams(m=2, b=1000, z=1, t=990, n_files=1)
    params = SchemeParams(m=2, b=368, z=1, t=300, n_files=1)  # 99672800 flags
    assert params.num_users * (params.subpacketization + 1) <= MAX_RECOVERED_FLAGS
    with pytest.raises(PointBudgetError, match="K\\*\\(F\\+1\\) = 100487556 exceed"):
        SchemeParams(m=2, b=369, z=1, t=300, n_files=1)
    # the same rows and points from one group of 10**6 users need 10**12 coverage entries
    with pytest.raises(PointBudgetError, match="^coverage tables of m\\*b\\^2 = "
                                               "1000000000000 entries exceed 10000000$"):
        SchemeParams(m=1, b=10**6, z=1, t=999990, n_files=1)
    SchemeParams(m=1, b=3162, z=1, t=3161, n_files=1)  # 9998244 entries
    with pytest.raises(PointBudgetError, match="m\\*b\\^2 = 10004569 entries"):
        SchemeParams(m=1, b=3163, z=1, t=3162, n_files=1)
    with pytest.raises(PointBudgetError, match="r=2 rounds x b\\^m=10000000 cells = 20000000"):
        SchemeParams(m=7, b=10, z=1, t=8, n_files=1)
    # rate 1 over 10**7 cells fits the rows, but not the points
    with pytest.raises(PointBudgetError, match="^10000000 points exceeds budget 1000000$"):
        SchemeParams(m=7, b=10, z=1, t=9, n_files=1)
    # from b**m = 2**64 on, the points are refused before the power is computed
    with pytest.raises(PointBudgetError, match=f"^schedule of r=1 rounds x b\\^m={2**63} cells "):
        SchemeParams(m=63, b=2, z=1, t=1, n_files=1)
    with pytest.raises(PointBudgetError, match="^b\\^m = 2\\^64 points exceeds budget 1000000$"):
        SchemeParams(m=64, b=2, z=1, t=1, n_files=1)
    # at b = 1 only the user budget binds
    SchemeParams(m=MAX_USERS, b=1, z=1, t=1, n_files=1)
    with pytest.raises(PointBudgetError, match=f"^K = m\\*b = {MAX_USERS + 1} users exceed"):
        SchemeParams(m=MAX_USERS + 1, b=1, z=1, t=1, n_files=1)


def test_schedule_payloads_sit_beside_their_rounds(example_a, example_a_matching):
    top, params = example_a
    schedule = deliver(place(top, params), example_a_matching, range(1, 9))
    assert len(schedule) == len(rows(schedule)) == 32
    report = simulate(top, params, payload_size=16, seed=5)
    schedule = report.transmissions
    assert len(schedule) == len(rows(schedule)) == 32
    assert replace(schedule, payloads=None) == \
        deliver(place(top, params), extract_matchings(top), range(1, 9))
    assert [len(column) for column in schedule.payloads] == [16, 16]
    for n, summands in enumerate(schedule.rounds):
        for k, (files, subfiles) in enumerate(zip(zip(*schedule.files), zip(*summands))):
            want = 0
            for f, s in zip(files, subfiles):
                want ^= int.from_bytes(subfile_bytes(5, f, s, 16), "big")
            assert schedule.payloads[n][k] == want.to_bytes(16, "big")


@pytest.mark.parametrize("m, b, z, t", [(1, 5, 2, 1), (2, 4, 2, 1), (3, 3, 1, 1), (2, 4, 2, 2)])
def test_schedule_fields_are_per_group_columns_of_ints(m, b, z, t):
    top = canonical_topology(m, b, z)
    params = SchemeParams(m=m, b=b, z=z, t=t, n_files=2)
    matchings = extract_matchings(top)
    demands = [u % 2 + 1 for u in range(m * b)]
    schedule = deliver(place(top, params), matchings, demands)
    fields_ = (schedule.cells, schedule.users, schedule.files)
    assert all(type(field) is list and len(field) == m for field in fields_)
    if params.missing_count == 0:
        assert schedule.rounds == [] and len(schedule) == 0
        assert all(column == [] for field in fields_ for column in field)
        return
    assert len(schedule) == params.missing_count * b**m
    for i in range(1, m + 1):
        assert schedule.cells[i - 1] == class_blocks(m, b, i)[1:]
        # group i's user at cell k is the one of group i matched to the cache of its block
        assert [((u - 1) // b + 1, matchings.to_cache[i - 1][(u - 1) % b])
                for u in schedule.users[i - 1]] == [(i, c) for c in schedule.cells[i - 1]]
        assert schedule.files[i - 1] == [demands[u - 1] for u in schedule.users[i - 1]]
        for column in (schedule.cells[i - 1], schedule.users[i - 1], schedule.files[i - 1]):
            assert type(column) is list and all(type(x) is int for x in column)


def test_simulate_peak_memory_stays_below_materialised_rows():
    # a list of the rows alone, or one set of recovered ids per user, exceeds the bound;
    # a row is a 6-field tuple (n, coords, users, files, subfiles, payload) holding an
    # m-tuple of subfiles
    top = canonical_topology(3, 12, 3)
    params = SchemeParams(m=3, b=12, z=3, t=1, n_files=36)
    bound = params.missing_count * params.subpacketization * (
        sys.getsizeof((0,) * 6) + sys.getsizeof((0,) * params.m))
    tracemalloc.start()
    try:
        report = simulate(top, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.transmission_count == 15552 and report.all_complete()
    assert peak < bound


def test_deliver_validates_demands(example_a, example_a_matching):
    top, params = example_a
    placement = place(top, params)
    with pytest.raises(ValueError):
        deliver(placement, example_a_matching, [1] * 7)
    with pytest.raises(ValueError):
        deliver(placement, example_a_matching, [0] + [1] * 7)
    with pytest.raises(ValueError):
        deliver(placement, example_a_matching, [9] + [1] * 7)


def test_decode_single_transmission(example_a, example_a_matching):
    top, params = example_a
    placement = place(top, params)
    demands = range(1, 9)
    schedule = deliver(placement, example_a_matching, demands)
    first = decode(placement, sub_schedule(schedule, [0], [0]), demands)
    # user 1 learns subfile 5 of file 1 from the very first broadcast
    assert decoded(first.recovered[0]) == {5}
    # user 2 can cancel one summand but the leftover is not its file
    assert decoded(first.recovered[1]) == set()
    # on the (3,3) broadcast user 2 covers neither summand (subfiles 3 and 9
    # sit in class-1 blocks 1 and 3; user 2 covers blocks 2 and 4)
    only_33 = sub_schedule(schedule, [0], [list(zip(*schedule.cells)).index((3, 3))])
    ((_, _, sums_33),) = rows(only_33)
    assert {s for _, _, s in sums_33} == {3, 9}
    assert decoded(decode(placement, only_33, demands).recovered[1]) == set()


def test_decode_completeness(example_a, example_a_matching):
    top, params = example_a
    placement = place(top, params)
    txs = deliver(placement, example_a_matching, range(1, 9))
    decoding = decode(placement, txs, range(1, 9))
    full = set(range(1, 17))
    for user in range(1, 9):
        i, j = user_coords(top.b, user)
        got = decoded(decoding.recovered[user - 1])
        cached = cached_subfiles(placement, i, j)
        assert not (got & cached)
        assert got | cached == full
    assert decoding.beneficiary_counts == (2,) * 32
    assert decoding.byte_ok is None


def test_decode_rate_zero_regime():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    placement = place(top, params)
    for user in range(1, 9):
        i, j = user_coords(top.b, user)
        assert cached_subfiles(placement, i, j) == set(range(1, 17))


def test_decode_visits_only_groups_that_read_a_wanted_file():
    # one user per group and rate 0: decode once visited every pair of groups
    m = 20000
    start = time.perf_counter()
    report = simulate(canonical_topology(m, 1, 1), SchemeParams(m=m, b=1, z=1, t=1, n_files=m))
    assert time.perf_counter() - start < 10
    assert report.transmission_count == 0 and report.all_complete()


def test_simulate_example_a(example_a):
    top, params = example_a
    report = simulate(top, params, payload_size=64, seed=1)
    assert report.transmission_count == 32
    assert report.rate == 2
    assert report.subpacketization == 16
    assert report.all_complete()
    assert set(report.beneficiary_counts) == {2}
    assert report.byte_oracle_ok is True


def test_simulate_example_b(example_b):
    top, params = example_b
    report = simulate(top, params)
    assert report.transmission_count == 49
    assert report.rate == 1
    assert report.all_complete()
    assert set(report.beneficiary_counts) == {2}


def test_simulate_scaled_down_high_rate_point():
    # same b, z, t as the rate-5 full-scale point, with fewer groups
    top = canonical_topology(2, 10, 5)
    params = SchemeParams(m=2, b=10, z=5, t=1, n_files=20)
    report = simulate(top, params)
    assert report.rate == 5 == report.expected_rate


def test_simulate_with_repeated_demands(example_a):
    top, params = example_a
    report = simulate(top, params, demands=[1] * 8, payload_size=32, seed=9)
    assert report.transmission_count == 32
    assert report.all_complete()
    assert report.byte_oracle_ok is True
    assert min(report.beneficiary_counts) >= 2


def _brute_decoded_rows(placement, schedule, user, demand):
    """Per broadcast, the subfile of ``demand`` that ``user`` recovers from it, or None."""
    cached = cached_subfiles(placement, *user_coords(placement.params.b, user))
    got = []
    for _, _, sums in rows(schedule):
        unknown = [(f, s) for _, f, s in sums if s not in cached]
        got.append(unknown[0][1] if len(unknown) == 1 and unknown[0][0] == demand else None)
    return got


def _brute_decode(placement, schedule, user, demand):
    """Subfiles of ``demand`` that ``user`` recovers, checked one broadcast at a time."""
    return set(_brute_decoded_rows(placement, schedule, user, demand)) - {None}


def test_simulate_matches_decode(example_a):
    top, params = example_a
    report = simulate(top, params)
    placement = place(top, params)
    decoding = decode(placement, report.transmissions, range(1, 9))
    for user in range(1, 9):
        i, j = user_coords(top.b, user)
        got = _brute_decode(placement, report.transmissions, user, demand=user)
        cached = cached_subfiles(placement, i, j)
        assert (got | cached == set(range(1, 17))) == report.users_complete[user - 1]
        assert decoded(decoding.recovered[user - 1]) == got - cached


def test_decode_matches_brute_force_with_shared_files():
    # with files shared, a broadcast reaches users other than its addressees,
    # and only those that cover every other summand may count
    top = canonical_topology(3, 4, 2)
    params = SchemeParams(m=3, b=4, z=2, t=1, n_files=3)
    demands = [u % 3 + 1 for u in range(12)]
    placement = place(top, params, seed=4)
    txs = deliver(placement, extract_matchings(top), demands)
    decoding = decode(placement, txs, demands)
    for user in range(1, 13):
        assert decoded(decoding.recovered[user - 1]) == \
            _brute_decode(placement, txs, user, demands[user - 1])
    per_user = [_brute_decoded_rows(placement, txs, u, demands[u - 1]) for u in range(1, 13)]
    assert decoding.beneficiary_counts == tuple(
        sum(s is not None for s in row) for row in zip(*per_user))


def test_decode_matches_brute_force_sweep():
    # every shape with m <= 3, b <= 5; canonical and seeded random placements; distinct
    # files, files shared by 3 users, and one file for everyone
    for m, b in itertools.product(range(1, 4), range(1, 6)):
        users = m * b
        for z, t in itertools.product(range(1, b + 1), repeat=2):
            params = SchemeParams(m=m, b=b, z=z, t=t, n_files=users)
            tops = ((canonical_topology(m, b, z), None), (random_topology(m, b, z, seed=t), z + t))
            for (top, seed), demands in itertools.product(tops, (
                    list(range(1, users + 1)), [u // 3 + 1 for u in range(users)], [1] * users)):
                placement = place(top, params, seed=seed)
                schedule = deliver(placement, extract_matchings(top), demands)
                decoding = decode(placement, schedule, demands)
                rows = [_brute_decoded_rows(placement, schedule, u, demands[u - 1])
                        for u in range(1, users + 1)]
                assert [decoded(got) for got in decoding.recovered] == \
                    [set(got) - {None} for got in rows]
                assert decoding.beneficiary_counts == tuple(
                    sum(s is not None for s in row) for row in zip(*rows))


def _complete(placement, decoding):
    full = set(range(1, placement.params.subpacketization + 1))
    return [
        decoded(decoding.recovered[u - 1])
        | cached_subfiles(placement, *user_coords(placement.params.b, u))
        == full
        for u in range(1, placement.params.num_users + 1)
    ]


def _contents(schedule, seed, size):
    return {
        (f, s): int.from_bytes(subfile_bytes(seed, f, s, size), "big")
        for _, _, sums in rows(schedule)
        for _, f, s in sums
    }


def test_decode_catches_dropped_broadcast(example_a):
    top, params = example_a
    report = simulate(top, params)
    placement = place(top, params)
    schedule = report.transmissions
    assert all(_complete(placement, decode(placement, schedule, range(1, 9))))
    rounds = range(len(schedule.rounds))
    for k in (0, 9, 15):
        # cell k's entries leave every column, so its broadcast is gone from each round
        dropped = sub_schedule(schedule, rounds, [c for c in range(16) if c != k])
        assert not all(_complete(placement, decode(placement, dropped, range(1, 9))))


def test_decode_catches_swapped_summand(example_a):
    top, params = example_a
    report = simulate(top, params)
    placement = place(top, params)
    schedule = report.transmissions
    user, first = schedule.users[0][5], schedule.rounds[0][0][5]
    # another subfile of the same file, one its addressee still has to decode
    other = next(s for _, _, sums in rows(schedule) for u, _, s in sums
                 if u == user and s != first)
    rounds = [[list(column) for column in summands_n] for summands_n in schedule.rounds]
    rounds[0][0][5] = other
    decoding = decode(placement, replace(schedule, rounds=rounds), range(1, 9))
    assert not _complete(placement, decoding)[user - 1]


def test_decode_catches_flipped_payload_byte(example_a):
    top, params = example_a
    report = simulate(top, params, payload_size=16, seed=4)
    placement = place(top, params)
    contents = _contents(report.transmissions, seed=4, size=16)
    assert decode(placement, report.transmissions, range(1, 9), contents).byte_ok is True
    payloads = [list(column) for column in report.transmissions.payloads]
    payload = bytearray(payloads[0][9])
    payload[3] ^= 0x01
    payloads[0][9] = bytes(payload)
    decoding = decode(placement, replace(report.transmissions, payloads=payloads),
                      range(1, 9), contents)
    assert decoding.byte_ok is False
    assert all(_complete(placement, decoding))  # only the byte oracle sees it


def test_decode_refuses_contents_without_payloads(example_a):
    top, params = example_a
    placement = place(top, params)
    schedule = deliver(placement, extract_matchings(top), range(1, 9))
    with pytest.raises(ValueError, match="needs a schedule with payloads"):
        decode(placement, schedule, range(1, 9), contents={})


def test_subfile_bytes_matches_keyed_blake2b():
    # 64-byte keyed BLAKE2b-512 blocks of b"file:subfile:counter", chained and cut to size
    for seed, size in ((3, 1), (-1, 63), (3, 64), (2**63 - 1, 65), (3, 1024), (5, 2 * 10**6)):
        key = seed.to_bytes(8, "big", signed=True)
        want = bytearray()
        while len(want) < size:
            want += hashlib.blake2b(b"7:11:%d" % (len(want) // 64), key=key, digest_size=64).digest()
        assert subfile_bytes(seed, 7, 11, size) == want[:size]
    with pytest.raises(ValueError, match="^payload size must be >= 1$"):
        subfile_bytes(0, 7, 11, 0)


def test_simulate_requires_enough_files(example_a):
    top, params = example_a
    small = SchemeParams(m=2, b=4, z=2, t=1, n_files=4)
    with pytest.raises(ValueError):
        simulate(top, small)


def test_transmission_json(example_a, example_a_matching, tmp_path):
    top, params = example_a
    placement = place(top, params)
    schedule = deliver(placement, example_a_matching, range(1, 9))
    write_log(tmp_path / "tx.jsonl", sub_schedule(schedule, [0], [0]), 2)
    doc = json.loads((tmp_path / "tx.jsonl").read_text())
    assert doc == {
        "n": 1,
        "coords": [1, 1],
        "summands": [
            {"user": 1, "file": 1, "subfile": 5},
            {"user": 8, "file": 8, "subfile": 2},
        ],
    }


def test_placement_respects_memory_budget():
    # stored blocks per cache never exceed t, i.e. t * b**(m-1) * N subfiles
    for b, z, t in [(7, 3, 2), (9, 4, 5), (6, 2, 4), (5, 5, 1)]:
        top = canonical_topology(1, b, z)
        params = SchemeParams(m=1, b=b, z=z, t=t, n_files=b)
        placement = place(top, params, seed=1)
        assert all(len(blocks) <= t for blocks in placement.cache_blocks[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_grid_invariants(data):
    m = data.draw(st.integers(1, 3))
    b = data.draw(st.integers(1, 6))
    z = data.draw(st.integers(1, b))
    t = data.draw(st.integers(1, b))
    top = canonical_topology(m, b, z)
    params = SchemeParams(m=m, b=b, z=z, t=t, n_files=m * b)
    report = simulate(top, params, payload_size=8, seed=0)
    assert report.transmission_count == params.missing_count * b**m
    assert report.rate == achievable_rate(b, m, z, t)
    assert report.all_complete()
    schedule = report.transmissions
    assert all(len(summands) == m for summands in schedule.rounds)
    assert len(schedule.cells) == len(schedule.users) == len(schedule.files) == m
    # a schedule with no rounds has m empty columns per field
    cells = b**m if schedule.rounds else 0
    assert all(len(column) == cells for field in (schedule.cells, schedule.users, schedule.files)
               for column in field)
    assert all(c == m for c in report.beneficiary_counts)
    assert report.byte_oracle_ok is True
