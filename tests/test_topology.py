import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macc import (
    GenerationError,
    MatchingError,
    SchemeParams,
    Topology,
    TopologyReport,
    canonical_topology,
    count_topologies,
    extract_matchings,
    place,
    random_topology,
    validate,
)
from macc.analysis import json_default
from macc.topology import RANDOM_TRIES, _max_matching, cell_slots


def _reads(top, i, j):
    """Global cache ids read by user k(i,j)."""
    return top.access[(i - 1) * top.b + j - 1]


def _fits(matching, top):
    """Reference check of a matching on ``top``: a tuple of the K users, each once, where
    user ``matching[c-1]`` lies in cache c's group and reads cache c."""
    k = top.m * top.b
    return (type(matching) is tuple and sorted(matching) == list(range(1, k + 1))
            and all((u - 1) // top.b == (c - 1) // top.b and c in top.access[u - 1]
                    for c, u in enumerate(matching, start=1)))


def _cache_cell(j, b, z):
    """Cell (1..z) of cache slot j, worked out arithmetically: cells 1..z-1 hold
    floor(b/z) slots each and cell z the rest."""
    return min(-(-j // (b // z)), z)


def test_cache_cell_partitions_slots():
    for b in range(1, 12):
        for z in range(1, b + 1):
            sizes = [len(cell) for cell in cell_slots(b, z)]
            assert sum(sizes) == b
            counts = [0] * z
            for j in range(1, b + 1):
                counts[_cache_cell(j, b, z) - 1] += 1
            assert counts == sizes
            cells = cell_slots(b, z)
            assert [s for cell in cells for s in cell] == list(range(1, b + 1))
            assert all(cell.step == 1 for cell in cells)
            assert [len(cell) for cell in cells] == sizes
            assert all(_cache_cell(j, b, z) == l for l, cell in enumerate(cells, start=1)
                       for j in cell)


def test_validate_example_a(example_a):
    top, _ = example_a
    assert validate(top).passed


def test_validate_flags_cross_group_edge(example_a):
    top, _ = example_a
    access = list(top.access)
    access[0] = (5, 3)  # cache 5 lives in group 2
    warped = Topology(m=2, b=4, z=2, access=tuple(access))
    report = validate(warped)
    assert not report.c1_ok and not report.passed


def test_validate_flags_missing_matching():
    # both users want the single cache 1 only
    top = Topology.from_group_slots(1, 2, 1, [[[1], [1]]])
    report = validate(top)
    assert not report.c3_ok and not report.passed


def test_validate_warns_on_at_most_users(example_a):
    top, _ = example_a
    access = list(top.access)
    access[0] = (1,)  # user covers cell 1 but misses cell 2
    short = Topology(m=2, b=4, z=2, access=tuple(access))
    report = validate(short)
    assert not report.c2_ok
    assert report.c2_at_most_ok
    assert report.warnings


def test_validate_flags_two_caches_in_one_cell(example_a):
    top, _ = example_a
    access = list(top.access)
    access[0] = (1, 2)  # both in cell 1
    doubled = Topology(m=2, b=4, z=2, access=tuple(access))
    report = validate(doubled)
    assert not report.c2_ok and not report.c2_at_most_ok


def test_extract_matchings_example_a(example_a):
    top, _ = example_a
    match = extract_matchings(top)
    assert _fits(match, top)
    # each group's caches serve that group's users
    assert sorted(match[:4]) == [1, 2, 3, 4] and sorted(match[4:]) == [5, 6, 7, 8]


def test_extract_matchings_example_b(example_b):
    top, _ = example_b
    match = extract_matchings(top)
    assert _fits(match, top)
    # the identity assignment is also valid for this graph
    assert _fits(tuple(range(1, 15)), top)


def test_extract_matchings_identity_tie_break():
    # user j reads cache j plus only higher-numbered caches, so the
    # lowest-index rule settles on the identity
    top = Topology.from_group_slots(1, 4, 2, [[[1, 3], [2, 4], [3, 1], [4, 2]]])
    match = extract_matchings(top)
    assert match == (1, 2, 3, 4)


def test_extract_matchings_long_augmenting_chain():
    # caches 1..n form cell 1 and n+1..2n cell 2.  Greedy seeding gives
    # user A_j cache j and user B_j cache n+j, leaving X unmatched; its only
    # augmenting path runs X, A_1, B_1, A_2, ..., B_(n-1), A_n: 2n users deep.  Flipping it
    # gives cache 1 to X, cache j+1 to B_j and cache n+j to A_j
    n = 2500
    group = [[j, n + j] for j in range(1, n + 1)]  # A_j
    group += [[j + 1, n + j] for j in range(1, n)]  # B_j
    group.append([1, n + 1])  # X
    top = Topology.from_group_slots(1, 2 * n, 2, [group])
    assert validate(top).passed
    expected = (2 * n,) + tuple(range(n + 1, 2 * n)) + tuple(range(1, n + 1))
    assert extract_matchings(top) == expected


def _recursive_matching(adj, n_right):
    """Textbook recursive Kuhn with the same greedy seeding, as a reference."""
    match_right = [0] * (n_right + 1)
    seeded = [False] * len(adj)
    for u in range(1, len(adj)):
        for v in adj[u]:
            if match_right[v] == 0:
                match_right[v], seeded[u] = u, True
                break

    def try_augment(u, seen):
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                if match_right[v] == 0 or try_augment(match_right[v], seen):
                    match_right[v] = u
                    return True
        return False

    for u in range(1, len(adj)):
        if not seeded[u]:
            try_augment(u, [False] * (n_right + 1))
    return match_right


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_matching_agrees_with_recursive_reference(data):
    n_left = data.draw(st.integers(1, 9))
    n_right = data.draw(st.integers(1, 9))
    neighbours = st.sets(st.integers(1, n_right), max_size=n_right).map(sorted)
    adj = [[]] + data.draw(st.lists(neighbours, min_size=n_left, max_size=n_left))
    assert _max_matching(adj, n_right) == _recursive_matching(adj, n_right)


def test_failed_searches_keep_their_marks_in_time():
    # every user reads the first slot of each two-slot cell, so greedy seeding matches b/2
    # users and each of the other b/2 searches fails over the same b/2 caches: walked once
    # with kept marks, about z^3/2 steps if every failed search walked them again
    b = 1544
    top = Topology(m=1, b=b, z=b // 2, access=[tuple(range(1, b + 1, 2))] * b)
    start = time.perf_counter()
    report = validate(top)
    assert time.perf_counter() - start < 1
    assert report.violations == (f"C3: group 1 has maximum matching {b // 2} < {b}",)


def test_extract_matchings_raises_without_c3():
    top = Topology.from_group_slots(1, 2, 1, [[[1], [1]]])
    with pytest.raises(MatchingError):
        extract_matchings(top)


def test_canonical_topology_offset_rule():
    top = canonical_topology(2, 4, 2)
    # derived from the offset rule: odd users read {1,3}, even read {2,4}
    assert _reads(top, 1, 1) == (1, 3)
    assert _reads(top, 1, 2) == (2, 4)
    assert _reads(top, 1, 3) == (1, 3)
    assert _reads(top, 1, 4) == (2, 4)
    assert _reads(top, 2, 1) == (5, 7)
    assert validate(top).passed


def test_canonical_topology_z1_identity_like():
    top = canonical_topology(1, 3, 1)
    assert [_reads(top, 1, j) for j in (1, 2, 3)] == [(1,), (2,), (3,)]
    assert validate(top).passed


def test_canonical_topology_uneven_cells():
    top = canonical_topology(2, 7, 3)
    assert [len(cell) for cell in cell_slots(7, 3)] == [2, 2, 3]
    assert validate(top).passed


def test_random_topology_deterministic_and_valid():
    a = random_topology(2, 4, 2, seed=11)
    b = random_topology(2, 4, 2, seed=11)
    assert a == b
    assert validate(a).passed


def test_random_topology_spreads_over_seeds():
    seen = {random_topology(2, 4, 2, seed=s).access for s in range(100)}
    assert len(seen) > 10


def test_random_topology_z1_fails_before_drawing_when_hopeless():
    start = time.perf_counter()
    with pytest.raises(GenerationError, match="b=1000, z=1") as exc:
        random_topology(1, 1000, 1, seed=0)
    assert time.perf_counter() - start < 0.1
    rate = Fraction(math.factorial(1000), 1000**1000)  # the exact acceptance rate
    assert f"b!/b^b = {float(rate * 10**433):.3f}e-433, so 1000 tries" in str(exc.value)
    # b = 31 is the first size where 1000 tries succeed with probability below 1e-9
    with pytest.raises(GenerationError, match="b=31, z=1"):
        random_topology(1, 31, 1, seed=0)
    with pytest.raises(GenerationError, match="in 1000 tries; 0 of 1000 draws accepted"):
        random_topology(1, 30, 1, seed=0)


# sha256 over the seeded draws (or failure messages) below; the early refusal at
# z = 1 must leave every draw that can succeed as it was
RANDOM_Z1_GOLDEN = "1ef933f7ff6e640d7a00dda3b12ee7cb3a2b761df2b19a605dd143d99270b2b9"


def _choice_topology(m, b, z, seed):
    """``random_topology`` drawn pick by pick with ``rng.choice``: the access lists, or
    the GenerationError text, that its bulk draws must reproduce."""
    cells = cell_slots(b, z)
    rng = random.Random(seed)
    slots, tries = [], 0
    for i in range(1, m + 1):
        for _ in range(RANDOM_TRIES):
            tries += 1
            group = [[rng.choice(cell) for cell in cells] for _ in range(b)]
            if all(_max_matching([[]] + group, b)[1:]):
                slots.append(group)
                break
        else:
            return (f"no C3-satisfying draw for group {i} in {RANDOM_TRIES} tries; {len(slots)} "
                    f"of {tries} draws accepted, acceptance rate {len(slots) / tries:.3g}")
    return Topology.from_group_slots(m, b, z, slots).access


@pytest.mark.parametrize("m, b, z, seeds", [
    (2, 6, 6, 4), (1, 9, 9, 4),  # one-slot cells: k = 1, half the words dropped
    (2, 16, 4, 4), (2, 24, 3, 4), (3, 8, 4, 4),  # cells of 4, 8 and 2 slots
    (1, 200, 13, 2), (2, 47, 5, 4),  # uneven last cells: 20 after 15s, 11 after 9s
    (3, 6, 1, 4), (2, 9, 1, 6),  # z = 1; at b = 9 some seeds fail, some do not
    (1, 2304, 9, 1),  # cells of 256 slots: 9 bits, read from whole words
])
def test_random_topology_draws_as_choice_does(m, b, z, seeds):
    outcomes = []
    for seed in range(seeds):
        try:
            got = random_topology(m, b, z, seed=seed).access
        except GenerationError as exc:
            got = str(exc)
        assert got == _choice_topology(m, b, z, seed), (m, b, z, seed)
        outcomes.append(type(got))
    if (m, b, z) == (2, 9, 1):
        assert set(outcomes) == {str, tuple}


def test_random_topology_z1_draws_are_unchanged():
    digest = hashlib.sha256()
    for m, b, seed in itertools.product((1, 2), range(1, 9), range(4)):
        try:
            digest.update(repr((m, b, seed, random_topology(m, b, 1, seed=seed))).encode())
        except GenerationError as exc:
            digest.update(repr((m, b, seed, str(exc))).encode())
    assert digest.hexdigest() == RANDOM_Z1_GOLDEN


def test_count_topologies_values():
    assert count_topologies(1, 2, 2) == 1
    assert count_topologies(2, 4, 2) == 65536
    assert count_topologies(1, 3, 1) == 27


def _enumerate_topologies(m, b, z):
    sizes = [len(cell) for cell in cell_slots(b, z)]
    starts = [sum(sizes[:l]) for l in range(z)]
    per_user = [
        tuple(starts[l] + off + 1 for l, off in enumerate(choice))
        for choice in itertools.product(*[range(s) for s in sizes])
    ]
    return set(itertools.product(per_user, repeat=b * m))


@pytest.mark.parametrize("m,b,z", [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 3, 2), (2, 3, 3), (3, 2, 1), (1, 6, 3)])
def test_count_topologies_matches_enumeration(m, b, z):
    assert count_topologies(m, b, z) == len(_enumerate_topologies(m, b, z))


def test_json_round_trip(example_a):
    top, _ = example_a
    assert Topology.from_json_dict(json.loads(json.dumps(top, default=json_default))) == top
    # the hook encodes Fractions and dataclasses only
    with pytest.raises(TypeError, match="^object is not JSON serializable$"):
        json.dumps({"topology": top, "extra": object()}, default=json_default)


def test_global_cache_id_encoding(example_b):
    top, _ = example_b
    # group 2 user 7 reads caches (2,2), (2,3), (2,7) -> global 9, 10, 14
    assert _reads(top, 2, 7) == (9, 10, 14)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_canonical_always_validates(data):
    m = data.draw(st.integers(1, 3))
    b = data.draw(st.integers(1, 9))
    z = data.draw(st.integers(1, b))
    top = canonical_topology(m, b, z)
    report = validate(top)
    assert report.passed
    match = extract_matchings(top)
    assert _fits(match, top)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_topologies_validate_and_match(data):
    m = data.draw(st.integers(1, 3))
    b = data.draw(st.integers(1, 7))
    z = data.draw(st.integers(1, b))
    seed = data.draw(st.integers(0, 10**6))
    top = random_topology(m, b, z, seed=seed)
    assert validate(top).passed
    match = extract_matchings(top)
    assert _fits(match, top)


def _group_slots(top, i):
    """The within-group view the graph was once read through: entry j-1 lists, ascending,
    the cache slots user k(i,j) reads in group i; caches of other groups are left out."""
    first, last = (i - 1) * top.b, i * top.b
    return [sorted([c - first for c in caches if first < c <= last])
            for caches in top.access[first:last]]


def _reference_validate(top):
    """``validate`` as it read each group through :func:`_group_slots`, with one recursive
    matching per group."""
    m, b, z = top.m, top.b, top.z
    c1, c2, c3, warnings = [], [], [], []
    cell_of = {s: l for l, cell in enumerate(cell_slots(b, z)) for s in cell}
    for i in range(1, m + 1):
        group = _group_slots(top, i)
        for j, slots in enumerate(group, start=1):
            caches = _reads(top, i, j)
            if len(slots) < len(caches):
                c1 += [f"C1: user k({i},{j}) reads cache {c} of group {(c - 1) // b + 1}"
                       for c in caches if (c - 1) // b + 1 != i]
            cells = {cell_of[s] for s in slots}
            if len(cells) < len(slots):
                c2.append(f"C2: user k({i},{j}) reads several caches in one cell")
            elif len(cells) < z:
                warnings.append(f"C2: user k({i},{j}) misses a cell (at-most-but-not-exactly)")
        size = sum(1 for v in _recursive_matching([[]] + group, b) if v)
        if size != b:
            c3.append(f"C3: group {i} has maximum matching {size} < {b}")
    return TopologyReport(c1_ok=not c1, c2_ok=not c2 and not warnings, c2_at_most_ok=not c2,
                          c3_ok=not c3, passed=not (c1 or c2 or c3 or warnings),
                          violations=tuple(c1 + c2 + c3), warnings=tuple(warnings))


def _reference_matchings(top):
    """``extract_matchings`` as it matched each group's :func:`_group_slots` on its own,
    slots moved to global ids: the matching, or the MatchingError text."""
    matching = []
    for i in range(1, top.m + 1):
        match = _recursive_matching([[]] + _group_slots(top, i), top.b)
        if not all(match[1:]):
            return f"group {i} admits no perfect matching (C3)"
        matching += ((i - 1) * top.b + u for u in match[1:])
    return tuple(matching)


def _reference_missing(placement):
    """``Placement.missing`` as each user's slots in :func:`_group_slots` chained the gaps
    their caches leave in their cells, users in global id order."""
    top = placement.topology
    missing = []
    for i in range(1, top.m + 1):
        stored = placement.cache_blocks[(i - 1) * top.b:i * top.b]
        gaps = [[s for s in cell if s not in stored[j - 1]]
                for cell in cell_slots(top.b, top.z) for j in cell]
        missing += (tuple(itertools.chain.from_iterable(gaps[s - 1] for s in slots))
                    for slots in _group_slots(top, i))
    return tuple(missing)


def _faulty_rows(rng, m, b, z):
    """Access rows of a valid topology with zero to three seeded faults, each row shuffled:
    an id repeated, a cache of another group, an empty row, a missed cell, a group whose
    users all read one row (no perfect matching) or random ids."""
    try:
        rows = [list(row) for row in random_topology(m, b, z, seed=rng.randrange(100)).access]
    except GenerationError:
        rows = [list(row) for row in canonical_topology(m, b, z).access]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        u = rng.randrange(m * b)
        kind = rng.randrange(6)
        if kind == 0 and rows[u]:
            rows[u].append(rng.choice(rows[u]))
        elif kind == 1 and m > 1:
            other = rng.choice([g for g in range(m) if g != u // b])
            rows[u].insert(rng.randrange(len(rows[u]) + 1), other * b + rng.randint(1, b))
        elif kind == 2:
            rows[u] = []
        elif kind == 3 and rows[u]:
            rows[u].pop(rng.randrange(len(rows[u])))
        elif kind == 4:
            first = u // b * b
            rows[first:first + b] = [list(rows[u]) for _ in range(b)]
        else:
            rows[u] = [rng.randint(1, m * b) for _ in range(rng.randint(0, z + 1))]
    for row in rows:
        rng.shuffle(row)
    return rows


def test_one_graph_form_matches_the_group_view_reference():
    # validate, extract_matchings and place read Topology.access as stored; the
    # references read it through the within-group view they replaced
    kinds = set()
    for n in range(600):
        rng = random.Random(n)
        m, b = rng.randint(1, 3), rng.randint(1, 6)
        z = rng.randint(1, b)
        rows = _faulty_rows(rng, m, b, z)
        top = Topology(m=m, b=b, z=z, access=(tuple(row) for row in rows))
        assert top.access == tuple(tuple(sorted(row)) for row in rows)
        report = validate(top)
        assert report == _reference_validate(top), n
        try:
            got = extract_matchings(top)
        except MatchingError as exc:
            got = str(exc)
        assert got == _reference_matchings(top), n
        kinds.add((report.c1_ok, report.c2_at_most_ok, report.c2_ok, report.c3_ok, type(got)))
        if report.passed:
            params = SchemeParams(m=m, b=b, z=z, t=rng.randint(1, b), n_files=m * b)
            for seed in (None, n):
                placement = place(top, params, seed=seed)
                assert placement.missing == _reference_missing(placement), (n, seed)
    # valid graphs; C1, C2, the missed-cell warning and C3 each failing alone; all at once
    matched = tuple
    assert {(True, True, True, True, matched), (False, True, True, True, matched),
            (True, False, False, True, matched), (True, True, False, True, matched),
            (True, True, True, False, str), (False, False, False, False, str)} <= kinds
