import collections
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from design_oracles import block_cover_check, point_at, product_report
from macc import (
    Design,
    PointBudgetError,
    cli,
    construct_mcrd,
    designs,
    verify_mcrd,
)

# Block lists of the published small constructions, frozen verbatim.
KNOWN_CONSTRUCTIONS = {
    (3, 2, 1): [
        [[1, 2, 3, 4], [5, 6, 7, 8]],
        [[1, 2, 5, 6], [3, 4, 7, 8]],
        [[1, 3, 5, 7], [2, 4, 6, 8]],
    ],
    (4, 2, 1): [
        [[1, 2, 3, 4, 5, 6, 7, 8], [9, 10, 11, 12, 13, 14, 15, 16]],
        [[1, 2, 3, 4, 9, 10, 11, 12], [5, 6, 7, 8, 13, 14, 15, 16]],
        [[1, 2, 5, 6, 9, 10, 13, 14], [3, 4, 7, 8, 11, 12, 15, 16]],
        [[1, 3, 5, 7, 9, 11, 13, 15], [2, 4, 6, 8, 10, 12, 14, 16]],
    ],
    (3, 3, 1): [
        [
            [1, 2, 3, 4, 5, 6, 7, 8, 9],
            [10, 11, 12, 13, 14, 15, 16, 17, 18],
            [19, 20, 21, 22, 23, 24, 25, 26, 27],
        ],
        [
            [1, 2, 3, 10, 11, 12, 19, 20, 21],
            [4, 5, 6, 13, 14, 15, 22, 23, 24],
            [7, 8, 9, 16, 17, 18, 25, 26, 27],
        ],
        [
            [1, 4, 7, 10, 13, 16, 19, 22, 25],
            [2, 5, 8, 11, 14, 17, 20, 23, 26],
            [3, 6, 9, 12, 15, 18, 21, 24, 27],
        ],
    ],
    (2, 4, 1): [
        [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]],
        [[1, 5, 9, 13], [2, 6, 10, 14], [3, 7, 11, 15], [4, 8, 12, 16]],
    ],
    (3, 2, 2): [
        [[1, 2, 3, 4, 5, 6, 7, 8], [9, 10, 11, 12, 13, 14, 15, 16]],
        [[1, 2, 3, 4, 9, 10, 11, 12], [5, 6, 7, 8, 13, 14, 15, 16]],
        [[1, 2, 5, 6, 9, 10, 13, 14], [3, 4, 7, 8, 11, 12, 15, 16]],
    ],
}


@pytest.mark.parametrize("key", sorted(KNOWN_CONSTRUCTIONS))
def test_construct_matches_known_block_lists(key):
    m, b, mu = key
    design = construct_mcrd(m, b, mu)
    expected = KNOWN_CONSTRUCTIONS[key]
    got = [[list(blk) for blk in cls] for cls in design.blocks]
    assert got == expected
    report = verify_mcrd(design)
    assert report.passed and report.measured_mu == mu


def test_trivial_design():
    design = construct_mcrd(1, 1, 1)
    assert design.blocks == (((1,),),)
    assert verify_mcrd(design).passed


def test_mu3_equals_2_design_shape():
    design = construct_mcrd(3, 2, 2)
    assert design.num_points == 16
    assert all(len(blk) == 8 for cls in design.blocks for blk in cls)
    report = verify_mcrd(design)
    assert report.passed and report.measured_mu == 2


def test_verify_rejects_nonconstant_intersections():
    # resolvable but with cross intersections of several sizes
    bad = Design(2, 4, 1, (
        ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 16)),
        ((1, 2, 9, 13), (5, 6, 10, 14), (3, 7, 11, 15), (4, 8, 12, 16)),
    ))
    report = verify_mcrd(bad)
    assert not report.passed
    assert report.measured_mu is None
    assert {0, 2} <= set(report.intersection_sizes)
    assert all(report.classes_partition)


def test_verify_reports_partition_failure():
    broken = Design(2, 2, 1, (((1, 2), (2, 3)), ((1, 3), (2, 4))))
    report = verify_mcrd(broken)
    assert not report.passed
    assert not all(report.classes_partition)


def test_point_at_examples():
    d = construct_mcrd(2, 4, 1)
    assert point_at(d, (1, 1)) == (1,)
    # independent of the constructor: intersect the published blocks directly
    assert set(point_at(d, (2, 3))) == set([5, 6, 7, 8]) & set([3, 7, 11, 15])
    d1 = construct_mcrd(1, 3, 1)
    assert point_at(d1, (2,)) == d1.blocks[0][1]


def test_point_at_rejects_bad_coords():
    d = construct_mcrd(2, 4, 1)
    with pytest.raises(ValueError):
        point_at(d, (1,))
    with pytest.raises(ValueError):
        point_at(d, (0, 1))
    with pytest.raises(ValueError):
        point_at(d, (1, 5))


def test_block_cover_examples():
    assert block_cover_check(construct_mcrd(2, 4, 1), 1, 1)
    assert block_cover_check(construct_mcrd(3, 3, 1), 1, 1)
    d1 = construct_mcrd(1, 4, 1)
    assert all(block_cover_check(d1, 1, j) for j in range(1, 5))


def test_argument_and_budget_errors():
    for bad in [(0, 2, 1), (2, 0, 1), (2, 2, 0), (-1, 2, 1)]:
        with pytest.raises(ValueError):
            construct_mcrd(*bad)
    with pytest.raises(PointBudgetError, match="^design needs about 120140140 steps, over "
                                               "60000000; its largest term is block entries "):
        construct_mcrd(2, 1000, 10)
    # b**m >= 2**64 is refused before the power is computed, at any m
    with pytest.raises(PointBudgetError, match="^b\\^m = 2\\^64 points is 2\\^64 or more$"):
        construct_mcrd(64, 2, 1)
    with pytest.raises(PointBudgetError, match=f"^b\\^m = {2**32}\\^2 points is 2\\^64 or more$"):
        construct_mcrd(2, 2**32, 1)
    with pytest.raises(PointBudgetError, match=f"^design needs about {4 * 64 * 2**63 + 70 * 189} "
                                               f"steps, over 60000000; its largest term is "
                                               f"block entries 4\\*m\\*mu\\*b\\^m = "):
        construct_mcrd(63, 2, 1)
    # a point is an int: 2.0 and True compare equal to ints but are refused by type
    for point in (2.0, True):
        kind = type(point).__name__
        with pytest.raises(ValueError, match=f"^points must be of type int, got {kind}$"):
            Design(1, 2, 1, (((1,), (point,)),))
    # the blocks are checked against the declared shape and the point range 1..mu*b**m
    for blocks in [(((1, 2), (3, 4)),), (((1, 2),), ((1, 3),))]:  # one class; one block each
        with pytest.raises(ValueError, match="^blocks must be an m x b family$"):
            Design(2, 2, 1, blocks)
    for point in (0, 3):
        with pytest.raises(ValueError, match="^point out of range 1..2$"):
            Design(1, 2, 1, (((1,), (point,)),))


@pytest.mark.parametrize("m, b, mu", [(1, 1, 20000), (2, 142, 1), (14, 2, 1)])
def test_design_held_bytes_bound_its_traced_peak(monkeypatch, m, b, mu):
    # the held bytes `design` is priced at bound the traced peak of all it does: build,
    # verify and write the JSON, at about 2*10**4 points whose memory is mostly points
    # (m = 1), points and block entries (m = 2) and block entries (m = 14).  Tracing
    # costs 1-4 us per allocation on a 2-vCPU x86-64 VM: 2*10**5 points took about 25 s
    held, check_terms = {}, designs.check_terms

    def priced(command, steps, terms):
        held.update(terms)
        check_terms(command, steps, terms)

    monkeypatch.setattr(designs, "check_terms", priced)
    tracemalloc.start()
    try:
        design = construct_mcrd(m, b, mu)
        report = verify_mcrd(design)
        collections.deque(cli._json_doc({"design": design, "verification": report}), maxlen=0)
        del design, report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= sum(held.values()), (peak, held)


def _runs_blocks(m, b, mu):
    """The blocks as runs of mu*b**(m-i) columns gathered slice by slice, the construction
    that built every class before the last class at mu = 1 became one strided slice."""
    n = mu * b**m
    points = [*range(1, n + 1)]
    return tuple(tuple(tuple(itertools.chain.from_iterable(points[s:s + run]
                                                           for s in range(l * run, n, b * run)))
                       for l in range(b))
                 for run in (mu * b ** (m - i) for i in range(1, m + 1)))


@pytest.mark.parametrize("m, b, mu", [(2, 5, 1), (3, 4, 1), (2, 3, 2)])
def test_construct_matches_the_runs_construction(m, b, mu):
    assert construct_mcrd(m, b, mu).blocks == _runs_blocks(m, b, mu)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    b=st.integers(1, 4),
    mu=st.integers(1, 2),
)
def test_constructed_designs_always_verify(m, b, mu):
    design = construct_mcrd(m, b, mu)
    assert design.num_points == mu * b**m
    assert all(len(blk) == mu * b ** (m - 1) for cls in design.blocks for blk in cls)
    report = verify_mcrd(design)
    assert report.passed
    assert report.measured_mu == mu
    assert all(
        block_cover_check(design, i, j)
        for i in range(1, m + 1)
        for j in range(1, b + 1)
    )


def _corruptions(design: Design, rng: random.Random):
    """Seeded corruptions of ``design``, each a Design with the same m, b and mu."""
    m, b = design.m, design.b
    blocks = [[list(blk) for blk in cls] for cls in design.blocks]

    def edited(i, j, blk):
        new = [list(cls) for cls in blocks]
        new[i][j] = blk
        return Design(m, b, design.mu, tuple(tuple(map(tuple, cls)) for cls in new))

    i, j = rng.randrange(m), rng.randrange(b)
    blk = blocks[i][j]
    point = rng.choice(blk)
    yield edited(i, j, [q for q in blk if q != point])  # a point dropped from its block
    yield edited(i, j, blk + [point])  # a point repeated inside its block
    if b > 1:
        other = (j + rng.randrange(1, b)) % b
        yield edited(i, other, sorted(blocks[i][other] + [point]))  # in a second block
        yield edited(i, other, blk)  # a block duplicated within its class
    if m > 1 and b > 1:
        # class i swaps the points of tuples (1, ..., 1) and (2, ..., 2) between its
        # blocks 1 and 2: the classes still partition, and tuple (1, ..., 1) meets in 0
        ones, twos = point_at(design, [1] * m), point_at(design, [2] * m)
        swapped = [list(cls) for cls in blocks]
        swapped[i][0] = sorted({*blocks[i][0]} - {*ones} | {*twos})
        swapped[i][1] = sorted({*blocks[i][1]} - {*twos} | {*ones})
        yield Design(m, b, design.mu, tuple(tuple(map(tuple, cls)) for cls in swapped))


def test_verify_matches_the_product_of_intersections():
    # every small construction and seeded corruptions of it, each reported exactly as
    # intersecting all b**m cross-class block tuples reports it
    rng = random.Random(0)
    zero_seen = 0
    for m, b, mu in itertools.product(range(1, 4), range(1, 6), (1, 2)):
        design = construct_mcrd(m, b, mu)
        assert verify_mcrd(design) == product_report(design)
        for bad in _corruptions(design, rng):
            report = verify_mcrd(bad)
            assert report == product_report(bad)
            assert not report.passed
            zero_seen += 0 in report.intersection_sizes and all(report.classes_partition)
    assert zero_seen == 16  # the swaps, at m in {2, 3}, b in {2, ..., 5} and mu in {1, 2}
