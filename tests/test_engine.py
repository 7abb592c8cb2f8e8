import collections
import functools
import hashlib
import itertools
import json
import re
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_oracles import point_at
from span_oracle import broadcasts, span_complete, span_decodes
from macc import (
    PointBudgetError,
    SchemeParams,
    Topology,
    achievable_rate,
    canonical_topology,
    check_payloads,
    construct_mcrd,
    decode,
    deliver,
    extract_matchings,
    place,
    random_topology,
    simulate,
    subfile_bytes,
)
from macc import engine
from macc.cli import write_log
from macc.engine import Decoding, Schedule, check_cost, class_blocks
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
    b = placement.params.b
    return {block for c in placement.topology.access[(i - 1) * b + j - 1]
            for block in placement.cache_blocks[c - 1]}


def cached_subfiles(placement, i, j):
    """Subfile indices user k(i,j) reads from its caches (any file), read off the
    blocks of the design the engine's subfile numbering comes from."""
    design = _design(placement.params.m, placement.params.b, 1)
    return {p for block in covered_blocks(placement, i, j) for p in design.blocks[i - 1][block - 1]}


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
    # a float or a bool reads as a number in the formula, but a float t breaks simulate's slices
    for shape in [(6, 2, 2, 1.5), (6.0, 2, 2, 1), (6, 2.0, 2, 1), (6, 2, True, 1),
                  (6, 2, 2, True), (6, 2, 2, "1")]:
        with pytest.raises(ValueError, match="^b, m, z and t must be ints, got "):
            achievable_rate(*shape)
    with pytest.raises(ValueError, match="^b, m, z and t must be ints, got 6, 2, 2, 1.5$"):
        simulate(canonical_topology(2, 6, 2), SchemeParams(2, 6, 2, 1.5, 12))


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
    assert placement.cache_blocks == ((1,), (2,), (3,), (4,)) * 2
    # user k(1,1) reads caches 1 and 3, so covers blocks 1 and 3 and misses 2 and 4
    assert placement.missing[0] == (2, 4)


def test_place_matches_published_block_sets(example_b):
    top, params = example_b
    placement = place(top, params)
    expected = ((1, 2), (1, 2), (3, 4), (3, 4), (5, 6), (5, 6), (5, 7))
    assert placement.cache_blocks == expected * 2
    # every user but the last covers all blocks except block 7; the last misses block 6
    for i in (1, 2):
        for j in range(1, 7):
            assert placement.missing[(i - 1) * 7 + j - 1] == (7,)
        assert placement.missing[(i - 1) * 7 + 6] == (6,)


def test_place_full_cell_when_quota_saturates():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    placement = place(top, params)
    for i in (1, 2):
        for j in (1, 2):
            assert placement.cache_blocks[(i - 1) * 4 + j - 1] == (1, 2)
        for j in (3, 4):
            assert placement.cache_blocks[(i - 1) * 4 + j - 1] == (3, 4)


def test_place_seeded_choice_is_deterministic_and_valid():
    top = canonical_topology(1, 9, 2)
    params = SchemeParams(m=1, b=9, z=2, t=3, n_files=9)
    p1 = place(top, params, seed=5)
    p2 = place(top, params, seed=5)
    assert p1.cache_blocks == p2.cache_blocks
    for j in range(1, 10):
        blocks = p1.cache_blocks[j - 1]
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
                    missing = placement.missing[(i - 1) * b + j - 1]
                    assert list(missing) == sorted(set(missing))
                    assert len(missing) == params.missing_count
                    assert set(missing) == set(range(1, b + 1)) - covered_blocks(placement, i, j)
                for i, cell in itertools.product(range(m), cell_slots(b, z) if seed is None else ()):
                    for j in cell:  # deterministic: the lowest blocks of the cell besides j, and j
                        want = {j, *[s for s in cell if s != j][:min(t, len(cell)) - 1]}
                        assert placement.cache_blocks[i * b + j - 1] == tuple(sorted(want))


def test_place_cell_disjointness():
    top = canonical_topology(2, 7, 3)
    params = SchemeParams(m=2, b=7, z=3, t=2, n_files=14)
    placement = place(top, params, seed=2)
    cell_of = {j: l for l, cell in enumerate(cell_slots(7, 3)) for j in cell}

    for i in (1, 2):
        for j1 in range(1, 8):
            for j2 in range(j1 + 1, 8):
                if cell_of[j1] != cell_of[j2]:
                    a = set(placement.cache_blocks[(i - 1) * 7 + j1 - 1])
                    b = set(placement.cache_blocks[(i - 1) * 7 + j2 - 1])
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
    by_user = place(top, params).missing
    # the demand graph: missing[c-1] lists the blocks that cache c's matched user misses
    missing = [by_user[u - 1] for u in example_a_matching]
    # cache (1,1) is matched to user k(1,1), which covers blocks 1 and 3
    assert missing[0] == (2, 4)
    assert all(len(gaps) == 2 for gaps in missing)


def test_demand_graph_example_b(example_b, example_b_identity_matching):
    top, params = example_b
    by_user = place(top, params).missing
    missing = [by_user[u - 1] for u in example_b_identity_matching]  # by cache
    for i in (1, 2):
        for j in range(1, 7):
            assert missing[(i - 1) * 7 + j - 1] == (7,)
        assert missing[(i - 1) * 7 + 6] == (6,)


def test_demand_graph_empty_when_rate_zero():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    by_user = place(top, params).missing
    missing = [by_user[u - 1] for u in extract_matchings(top)]
    assert len(missing) == 8 and all(len(gaps) == 0 for gaps in missing)


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


def _brute_schedule(placement, matching, demands):
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
                user = matching[(i - 1) * b + coords[i - 1] - 1]
                slot = user - (i - 1) * b
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
    for top, params, matching, demands in cases:
        placement = place(top, params, seed=1)
        demands = list(demands)
        assert rows(deliver(placement, matching, demands)) == \
            _brute_schedule(placement, matching, demands)


def _per_cell_rounds(placement, matching):
    """Each round's summand columns one cell at a time: at cell k, whose class-i block is
    c, group i sends subfile k + 1 + (miss - c)*b^(m-i), miss the n-th block that the user
    matched to c misses."""
    m, b = placement.params.m, placement.params.b
    return [[[k + 1 + (placement.missing[matching[(i - 1) * b + c - 1] - 1][n] - c)
              * b ** (m - i) for k, c in enumerate(class_blocks(m, b, i))]
             for i in range(1, m + 1)]
            for n in range(placement.params.missing_count)]


def _deliver_cases():
    """Every z and t <= b at m = 1..4 (b <= 7, 5, 4, 3), and shapes with F > 256 ids;
    canonical and seeded random topologies, deterministic and seeded placement, and
    demands shared by 3 users each."""
    shapes = [(m, b, z, t) for m, top_b in ((1, 7), (2, 5), (3, 4), (4, 3))
              for b in range(1, top_b + 1) for z in range(1, b + 1) for t in range(1, b + 1)]
    for m, b, z, t in shapes + [(2, 20, 4, 1), (3, 8, 2, 1), (3, 7, 3, 2), (4, 5, 1, 2)]:
        params = SchemeParams(m=m, b=b, z=z, t=t, n_files=m * b)
        demands = [u // 3 + 1 for u in range(m * b)]
        for top in (canonical_topology(m, b, z), random_topology(m, b, z, seed=b * z + t)):
            for seed in (None, t):
                yield place(top, params, seed=seed), extract_matchings(top), demands


def test_deliver_matches_the_per_cell_formula():
    for placement, matching, demands in _deliver_cases():
        f = placement.params.subpacketization
        schedule = deliver(placement, matching, demands)
        assert schedule.rounds == _per_cell_rounds(placement, matching)
        # exact-length columns whose entries share one int object per subfile id: each
        # guards the peak memory of a large schedule
        columns = [column for summands in schedule.rounds for column in summands]
        assert {sys.getsizeof(column) for column in columns} <= {sys.getsizeof([0] * f)}
        assert len({id(s) for column in columns for s in column}) <= f


def test_class_blocks_match_the_constructed_design():
    for m, b in itertools.product(range(1, 4), range(1, 9)):
        design = construct_mcrd(m, b, 1)
        for i in range(1, m + 1):
            block_of = class_blocks(m, b, i)
            assert len(block_of) == b**m  # cell k is subfile k + 1
            assert [tuple(k + 1 for k in range(b**m) if block_of[k] == j)
                    for j in range(1, b + 1)] == list(design.blocks[i - 1])


def test_deliver_empty_when_rate_zero():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    placement = place(top, params)
    schedule = deliver(placement, extract_matchings(top), range(1, 9))
    assert len(schedule) == 0
    assert rows(schedule) == []


def test_scheme_params_bound_the_schedule_rows():
    # check_cost's model: for each term that can bind first, the largest accepted shape
    # along one parameter and the smallest refused one, whose message names that term
    edges = [((17, 2, 1, 1), (18, 2, 1, 1), "steps", "summand lookups rows*m^2"),
             ((1, 1818, 1, 1), (1, 1819, 1, 1), "steps", "broadcast work 2*rows*(m+5)"),
             ((218181, 1, 1, 1), (218182, 1, 1, 1), "steps", "user work K*(250+20*z+5*b)"),
             ((1, 3435, 1, 3434), (1, 3436, 1, 3435), "steps", "user work K*(250+20*z+5*b)"),
             ((4, 25, 1, 24), (4, 26, 1, 25), "held bytes", "cell columns 96*m*F"),
             ((2, 461, 1, 461), (2, 462, 1, 462), "held bytes", "decode's table 5*K*(F+1)/4")]
    for accepted, refused, what, term in edges:
        SchemeParams(*accepted, n_files=1)
        with pytest.raises(PointBudgetError, match=f"^simulate needs about \\d+ {what}, over "
                                                   f"\\d+; its largest term is {re.escape(term)} "):
            SchemeParams(*refused, n_files=1)
    with pytest.raises(PointBudgetError, match="^simulate needs about 97003360 steps, over "
                                               "60000000; its largest term is summand lookups "
                                               "rows\\*m\\^2 = 84934656$"):
        SchemeParams(m=18, b=2, z=1, t=1, n_files=1)
    # the payloads and their contents count only once a payload size is given
    check_cost(1, 2, 1, 1, 24999693)
    with pytest.raises(PointBudgetError, match="held bytes, over 250000000; its largest term "
                                               "is payloads and contents "):
        check_cost(1, 2, 1, 1, 24999694)
    # the benchmark's shapes: (3, 20, 4, 1), and (3, 6, 2, 1) with 1 KiB payloads
    SchemeParams(m=3, b=20, z=4, t=1, n_files=1)
    check_cost(3, 6, 2, 1, 1024)
    # at rate 0 decode's table binds: (22, 2, 1, 2) holds 44 users' rows of 2**22 + 1
    # states and no broadcast rows, and 10**7 points at (7, 10, 1, 10) are refused
    assert SchemeParams(m=22, b=2, z=1, t=2, n_files=1).subpacketization == 2**22
    for m, b in ((23, 2), (7, 10)):
        with pytest.raises(PointBudgetError, match="held bytes, over 250000000; its largest "
                                                   "term is decode's table 5\\*K\\*\\(F\\+1\\)/4 "):
            SchemeParams(m=m, b=b, z=1, t=b, n_files=1)
    # 2**63 points price 2**63 rows; from b**m = 2**64 on, the points are refused before
    # the power is computed
    with pytest.raises(PointBudgetError, match=f"^simulate needs about \\d+ steps, over 60000000; "
                                               f"its largest term is summand lookups rows\\*m\\^2 = "
                                               f"{2**63 * 63**2}$"):
        SchemeParams(m=63, b=2, z=1, t=1, n_files=1)
    with pytest.raises(PointBudgetError, match="^b\\^m = 2\\^64 points is 2\\^64 or more$"):
        SchemeParams(m=64, b=2, z=1, t=1, n_files=1)


def test_achievable_rate_closed_form_matches_the_cells():
    # the closed form against the sum over cell_slots' cells, two distinct sizes at most
    for b in range(1, 80):
        for z in range(1, b + 1):
            sizes = collections.Counter(map(len, cell_slots(b, z)))
            for t in range(1, b + 2):
                assert achievable_rate(b, 1, z, t) == sum(
                    count * (size - min(t, size)) for size, count in sizes.items())


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
    matching = extract_matchings(top)
    demands = [u % 2 + 1 for u in range(m * b)]
    schedule = deliver(place(top, params), matching, demands)
    fields_ = (schedule.cells, schedule.users, schedule.files)
    assert all(type(field) is list and len(field) == m for field in fields_)
    if params.missing_count == 0:
        assert schedule.rounds == [] and len(schedule) == 0
        assert all(column == [] for field in fields_ for column in field)
        return
    assert len(schedule) == params.missing_count * b**m
    for i in range(1, m + 1):
        assert schedule.cells[i - 1] == class_blocks(m, b, i)
        # group i's user at cell k is the one matched to group i's cache of its block
        assert schedule.users[i - 1] == [matching[(i - 1) * b + c - 1]
                                         for c in schedule.cells[i - 1]]
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


def test_simulate_refuses_demands_that_are_not_ints():
    # a float or a bool is no file index, though it compares as one (1.5 lies in 1..N)
    top, params = canonical_topology(2, 3, 1), SchemeParams(2, 3, 1, 1, 6)
    for demands in ([1.5] * 6, [True] * 6, [1] * 5 + [2.0]):
        with pytest.raises(ValueError, match="^demands must be int file indices$"):
            simulate(top, params, demands=demands)
    assert simulate(top, params, demands=[1] * 6).all_complete()


def test_deliver_reads_the_matching_cache_to_user(example_a):
    # users 1, 2 and 3 read caches 2, 3 and 1, so caches 1, 2 and 3 serve users 3, 1 and 2:
    # a matching that is not its own inverse, so one read transposed shows
    top = Topology.from_group_slots(1, 3, 1, [[[2], [3], [1]]])
    placement = place(top, SchemeParams(m=1, b=3, z=1, t=1, n_files=3))
    matching = extract_matchings(top)
    assert matching == (3, 1, 2)
    schedule = deliver(placement, matching, range(1, 4))
    assert len(schedule) == 6 and all(_complete(placement, decode(placement, schedule, [1, 2, 3])))
    for cache, user in zip(schedule.cells[0], schedule.users[0]):
        assert cache in top.access[user - 1], (cache, user)
    two = place(canonical_topology(2, 3, 1), SchemeParams(m=2, b=3, z=1, t=1, n_files=6))
    assert len(deliver(two, (1, 2, 3, 4, 5, 6), range(1, 7))) == 2 * 3**2  # r * b**m


def _wrong_matchings(example_a):
    """(placement, matching) pairs that deliver must refuse, grouped by the fault they carry."""
    one = place(Topology.from_group_slots(1, 3, 1, [[[2], [3], [1]]]),
                SchemeParams(m=1, b=3, z=1, t=1, n_files=3))
    two = place(canonical_topology(2, 3, 1), SchemeParams(m=2, b=3, z=1, t=1, n_files=6))
    # users 1 and 3 read only caches 3 and 1, across their groups (C1 breaks): every pair of
    # the matching (3, 2, 1, 4) is an edge, so only the group-by-group clause refuses it
    crossed = Topology(m=2, b=2, z=1, access=[[3], [2], [1], [4]])
    params = SchemeParams(m=2, b=2, z=1, t=1, n_files=4)
    cross = replace(place(canonical_topology(2, 2, 1), params), topology=crossed)
    return {
        # too short, too long, and one past K, whose last id would index past the users
        "length": [(two, (1, 2, 3)), (two, (1, 2, 3) * 3), (two, (1, 2, 3, 4, 5, 6, 7))],
        # ids that sort equal to users but are no ints: a float, a bool, a string
        "type": [(two, (1.0, 2, 3, 4, 5, 6)), (two, (True, 2, 3, 4, 5, 6)),
                 (two, ("1", 2, 3, 4, 5, 6))],
        # in example A, where users read two caches, every pair an edge but users 1 and 2
        # matched twice; and the crossed groups above
        "permutation": [(place(*example_a), (1, 2, 1, 2, 8, 7, 6, 5)), (cross, (3, 2, 1, 4))],
        # a pair whose user does not read the cache, and the transposed matching
        "edge": [(one, (1, 2, 3)), (one, (2, 3, 1))],
    }


@pytest.mark.parametrize("fault", ["length", "type", "permutation", "edge"])
def test_deliver_refuses_a_matching_that_does_not_fit(example_a, fault):
    for graph, wrong in _wrong_matchings(example_a)[fault]:
        with pytest.raises(ValueError, match="^matchings do not fit the placement's topology$"):
            deliver(graph, wrong, range(1, graph.params.num_users + 1))


def test_deliver_refuses_a_placement_that_leaves_a_user_missing_other_than_r():
    # each user misses r = 2 blocks; a block added to or dropped from cache 1 leaves the
    # users who read it missing one or three, which no round count fits
    top = canonical_topology(2, 4, 2)
    placement = place(top, SchemeParams(m=2, b=4, z=2, t=1, n_files=8))
    assert placement.cache_blocks[0] == (1,)
    for blocks, lengths in (((1, 2), {1, 2}), ((), {2, 3})):
        faulty = replace(placement, cache_blocks=(blocks, *placement.cache_blocks[1:]))
        assert set(map(len, faulty.missing)) == lengths
        with pytest.raises(ValueError, match="^the placement leaves some user missing other "
                                             "than r = 2 blocks$"):
            deliver(faulty, extract_matchings(top), range(1, 9))


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
    # decode proves coverage and nothing else: the payload bytes are check_payloads'
    assert Decoding._fields == ("recovered", "beneficiary_counts")


def test_decode_rate_zero_regime():
    top = canonical_topology(2, 4, 2)
    params = SchemeParams(m=2, b=4, z=2, t=2, n_files=8)
    placement = place(top, params)
    for user in range(1, 9):
        i, j = user_coords(top.b, user)
        assert cached_subfiles(placement, i, j) == set(range(1, 17))


def test_decode_work_is_linear_at_rate_zero():
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


def _assert_decode_matches_brute_force(placement, schedule, demands):
    decoding = decode(placement, schedule, demands)
    rows = [_brute_decoded_rows(placement, schedule, u, demands[u - 1])
            for u in range(1, len(demands) + 1)]
    # flags only: the decoder's own states (such as "decoded") must not leak out
    assert all(set(got) <= {0, 1} for got in decoding.recovered)
    assert [decoded(got) for got in decoding.recovered] == [set(got) - {None} for got in rows]
    assert decoding.beneficiary_counts == tuple(
        sum(s is not None for s in row) for row in zip(*rows))


def test_decode_matches_brute_force_sweep():
    # every shape with m <= 3, b <= 5; canonical and seeded random placements; distinct
    # files, files shared by 3 users, one file for everyone, and file 1 for every even
    # user with a file of its own for every odd one, whose readings span groups and pad
    # every reader slot past the first
    for m, b in itertools.product(range(1, 4), range(1, 6)):
        users = m * b
        for z, t in itertools.product(range(1, b + 1), repeat=2):
            params = SchemeParams(m=m, b=b, z=z, t=t, n_files=users)
            tops = ((canonical_topology(m, b, z), None), (random_topology(m, b, z, seed=t), z + t))
            for (top, seed), demands in itertools.product(tops, (
                    list(range(1, users + 1)), [u // 3 + 1 for u in range(users)], [1] * users,
                    [u if u % 2 else 1 for u in range(1, users + 1)])):
                placement = place(top, params, seed=seed)
                schedule = deliver(placement, extract_matchings(top), demands)
                _assert_decode_matches_brute_force(placement, schedule, demands)
    # block ids above 255 do not fit in a byte
    params = SchemeParams(m=1, b=300, z=1, t=298, n_files=300)
    top = canonical_topology(1, 300, 1)
    for demands in (list(range(1, 301)), [u // 3 + 1 for u in range(300)]):
        placement = place(top, params, seed=5)
        schedule = deliver(placement, extract_matchings(top), demands)
        _assert_decode_matches_brute_force(placement, schedule, demands)


def test_decode_marks_fully_and_partly_decoded_readings_alike(monkeypatch):
    # the byte workload's shape, each file wanted by 3 users: some readings decode at every
    # cell, and are marked in one pass, and others at some cells only, marked cell by cell
    top = random_topology(3, 6, 2, seed=3)
    params = SchemeParams(m=3, b=6, z=2, t=1, n_files=6)
    demands = [2, 4, 3, 6, 5, 2, 5, 1, 3, 6, 2, 1, 4, 6, 1, 3, 4, 5]
    placement = place(top, params, seed=3)
    schedule = deliver(placement, extract_matchings(top), demands)
    ran = collections.Counter()

    def spy(name, real):
        def counted(*args):
            ran[name] += 1
            return real(*args)
        return counted
    monkeypatch.setattr(engine, "deque", spy("full", collections.deque))
    monkeypatch.setattr(itertools, "compress", spy("part", itertools.compress))
    # the whole schedule, then every other cell of two rounds, where the span reveals more
    for part in (schedule, sub_schedule(schedule, range(2), range(0, 216, 2))):
        _assert_decode_matches_brute_force(placement, part, demands)
        spans = span_decodes(placement, broadcasts(part), demands)
        got = [decoded(row) for row in decode(placement, part, demands).recovered]
        assert all(row <= span for row, span in zip(got, spans))
        assert (got == spans) is (part is schedule)  # whole, every user decodes its file
    assert ran["full"] and ran["part"], ran


def test_decode_counts_past_255_readers_of_one_broadcast():
    # all 300 users want file 1, so each broadcast of round 1 has 300 readings, and 299 of
    # its readers lack its one subfile: more than one byte lane can count
    top = canonical_topology(1, 300, 1)
    params = SchemeParams(m=1, b=300, z=1, t=1, n_files=1)
    placement = place(top, params)
    demands = [1] * 300
    schedule = deliver(placement, extract_matchings(top), demands)
    schedule = replace(schedule, rounds=schedule.rounds[:1])
    counts = decode(placement, schedule, demands).beneficiary_counts
    cached = [cached_subfiles(placement, 1, j) for j in range(1, 301)]
    assert counts == tuple(sum(s not in got for got in cached) for s in schedule.rounds[0][0])
    assert set(counts) == {299}


def test_decode_ignores_what_a_reader_already_decoded(example_a):
    # a subfile the reader decoded earlier but does not cache is no side knowledge: a
    # broadcast that needs it cancelled serves the reader nothing
    top, params = example_a
    placement = place(top, params)
    demands = list(range(1, 9))
    schedule = sub_schedule(deliver(placement, extract_matchings(top), demands), [0, 1], [5])
    reader = schedule.users[0][0]
    first, second = schedule.rounds[0][0][0], schedule.rounds[1][0][0]
    cached = cached_subfiles(placement, *user_coords(params.b, reader))
    assert _brute_decode(placement, schedule, reader, reader) == {first, second}
    other = min(set(range(1, 17)) - cached - {first, second})
    # the appended broadcast XORs a subfile the reader still needs with, as the other
    # group's summand (of another file), the subfile id the reader decoded first
    extra = replace(schedule, rounds=[*schedule.rounds, [[other], [first]]])
    assert _brute_decoded_rows(placement, extra, reader, reader)[-1] is None
    _assert_decode_matches_brute_force(placement, extra, demands)


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
        assert not span_complete(placement, broadcasts(dropped), range(1, 9))


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
    swapped = replace(schedule, rounds=rounds)
    assert not _complete(placement, decode(placement, swapped, range(1, 9)))[user - 1]
    assert not span_complete(placement, broadcasts(swapped), range(1, 9))


def test_decode_catches_flipped_payload_byte(example_a):
    top, params = example_a
    report = simulate(top, params, payload_size=16, seed=4)
    placement = place(top, params)
    contents = _contents(report.transmissions, seed=4, size=16)
    assert check_payloads(report.transmissions, contents) is True
    # round 1's cell 9, and the last broadcast of the last round
    for n, k in ((0, 9), (-1, -1)):
        payloads = [list(column) for column in report.transmissions.payloads]
        payload = bytearray(payloads[n][k])
        payload[3] ^= 0x01
        payloads[n][k] = bytes(payload)
        flipped = replace(report.transmissions, payloads=payloads)
        assert all(_complete(placement, decode(placement, flipped, range(1, 9))))
        assert check_payloads(flipped, contents) is False  # only the byte oracle sees it


def test_check_payloads_refuses_missing_or_misaligned_payloads(example_a):
    top, params = example_a
    report = simulate(top, params, payload_size=16, seed=4)
    contents = _contents(report.transmissions, seed=4, size=16)
    with pytest.raises(ValueError, match="needs a schedule with payloads"):
        check_payloads(replace(report.transmissions, payloads=None), contents)
    payloads = [list(column) for column in report.transmissions.payloads]
    del payloads[-1][-1]
    with pytest.raises(ValueError, match="payload columns do not match"):
        check_payloads(replace(report.transmissions, payloads=payloads), contents)
    with pytest.raises(ValueError, match="payload columns do not match"):
        check_payloads(replace(report.transmissions, payloads=payloads[:-1]), contents)
    # a summand column one cell short leaves the last payload of its round unmatched
    rounds = [list(summands) for summands in report.transmissions.rounds]
    rounds[-1][1] = rounds[-1][1][:-1]
    with pytest.raises(ValueError):
        check_payloads(replace(report.transmissions, rounds=rounds), contents)


def test_decode_refuses_a_round_it_cannot_read(example_a, example_a_matching):
    # unchecked, id 0 would set the unused flag 0, id -1 would wrap to subfile F, id F + 1
    # and a missing column would end in an IndexError, ids 1.0, "1" and None in a TypeError,
    # and a short column would misalign every read after it
    top, params = example_a
    placement = place(top, params)
    schedule = deliver(placement, example_a_matching, range(1, 9))
    first, second = schedule.rounds[-1]
    changed = []
    for s in (0, -1, 17, 1.0, "1", None):
        column = list(first)
        column[3] = s
        changed.append([column, second])
    for summands in (*changed, [first], [first, second[1:]]):
        bad = replace(schedule, rounds=[*schedule.rounds[:-1], summands])
        with pytest.raises(ValueError, match=r"^round 2 needs 2 columns of 16 ids in 1\.\.16$"):
            decode(placement, bad, range(1, 9))
    # cells dropped from every column leave a schedule decode reads
    fewer = sub_schedule(schedule, range(2), range(1, 16))
    assert len(decode(placement, fewer, range(1, 9)).beneficiary_counts) == 30


def test_subfile_bytes_matches_keyed_blake2b():
    # 64-byte keyed BLAKE2b-512 blocks of b"file:subfile:counter", chained and cut to size,
    # each block spelled out as its own keyed hash.  Seeds alternate, so state kept from an
    # earlier seed or (file, subfile) shows, and ids run to two digits on either side of a ":"
    def want(seed, file, subfile, size):
        key = seed.to_bytes(8, "big", signed=True)
        blocks = bytearray()
        while len(blocks) < size:
            blocks += hashlib.blake2b(b"%d:%d:%d" % (file, subfile, len(blocks) // 64), key=key,
                                      digest_size=64).digest()
        return blocks[:size]

    for seed in (3, -1, 3, 2**63 - 1, 3):
        for file, subfile in ((7, 11), (1, 23), (12, 3), (1, 2)):
            for size in (1, 63, 64, 65, 128, 129, 1024):
                assert subfile_bytes(seed, file, subfile, size) == want(seed, file, subfile, size)
    assert subfile_bytes(5, 7, 11, 2 * 10**6) == want(5, 7, 11, 2 * 10**6)
    with pytest.raises(ValueError, match="^payload size must be >= 1$"):
        subfile_bytes(0, 7, 11, 0)


def test_out_of_range_seeds_and_missing_contents_are_value_errors():
    assert len(subfile_bytes(-2**63, 1, 1, 8)) == len(subfile_bytes(2**63 - 1, 1, 1, 8)) == 8
    for seed in (2**63, -2**63 - 1, 10**30):
        with pytest.raises(ValueError, match=r"^seed must lie in the signed 64-bit range"):
            subfile_bytes(seed, 1, 1, 8)
    top, params = canonical_topology(2, 4, 2), SchemeParams(m=2, b=4, z=2, t=1, n_files=8)
    with pytest.raises(ValueError, match=r"^seed must lie in the signed 64-bit range"):
        simulate(top, params, payload_size=8, seed=2**63)
    schedule = simulate(top, params, payload_size=8).transmissions
    with pytest.raises(ValueError, match=r"^contents lack \(file, subfile\) \(1, 5\)$"):
        check_payloads(schedule, {})


def test_simulate_hashes_each_distinct_summand_once(monkeypatch):
    # shared demands as in the simulate-bytes bench: (3, 6, 2, 1), each of 6 files wanted by
    # 3 users, so a (file, subfile) summand recurs across broadcasts; each is hashed once
    calls = collections.Counter()

    def counted(seed, file, subfile, size):
        calls[file, subfile] += 1
        return subfile_bytes(seed, file, subfile, size)

    monkeypatch.setattr(engine, "subfile_bytes", counted)
    params = SchemeParams(m=3, b=6, z=2, t=1, n_files=6)
    demands = [u * 5 % 6 + 1 for u in range(18)]
    report = simulate(canonical_topology(3, 6, 2), params, demands, payload_size=8, seed=5)
    assert report.byte_oracle_ok and report.all_complete()
    summands = [(f, s) for _, _, sums in rows(report.transmissions) for _, f, s in sums]
    assert len(set(summands)) < len(summands) // 2
    assert calls == collections.Counter(set(summands))


def test_simulate_requires_enough_files(example_a):
    top, params = example_a
    small = SchemeParams(m=2, b=4, z=2, t=1, n_files=4)
    with pytest.raises(ValueError):
        simulate(top, small)


def test_transmission_json(example_a, example_a_matching, tmp_path):
    top, params = example_a
    placement = place(top, params)
    schedule = deliver(placement, example_a_matching, range(1, 9))
    write_log(tmp_path / "tx.jsonl", sub_schedule(schedule, [0], [0]))
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
        assert all(len(blocks) <= t for blocks in placement.cache_blocks)


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
