"""Brute-force readings of a design's blocks, for the tests: the points where m blocks
of distinct classes meet, whether a block is the union of those through it, and the
design's report from intersecting every cross-class block tuple."""

import itertools

from macc import Design, DesignReport


def point_at(design: Design, coords) -> tuple[int, ...]:
    """Intersection of blocks (1, coords[0]), ..., (m, coords[m-1]).

    For a valid MCRD this has exactly mu points.
    """
    coords = tuple(coords)
    if len(coords) != design.m:
        raise ValueError(f"need {design.m} coordinates, got {len(coords)}")
    if any(not 1 <= c <= design.b for c in coords):
        raise ValueError(f"coordinates {coords} out of range 1..{design.b}")
    acc = set(design.blocks[0][coords[0] - 1])
    for cls, c in zip(design.blocks[1:], coords[1:]):
        acc.intersection_update(cls[c - 1])
    return tuple(sorted(acc))


def block_cover_check(design: Design, i: int, j: int) -> bool:
    """True iff block (i,j) equals the union of all cross intersections through it."""
    covered: set[int] = set()
    free = [range(1, design.b + 1)] * (design.m - 1)
    for rest in itertools.product(*free):
        coords = rest[: i - 1] + (j,) + rest[i - 1 :]
        covered.update(point_at(design, coords))
    return covered == set(design.blocks[i - 1][j - 1])


def product_report(design: Design) -> DesignReport:
    """What :func:`macc.verify_mcrd` reports, found by intersecting the frozensets of all
    b**m cross-class block tuples: mu * b**(2m-1) element visits for a valid design."""
    n = design.num_points
    classes_partition = tuple(sorted(itertools.chain.from_iterable(cls)) == [*range(1, n + 1)]
                              for cls in design.blocks)
    sizes = {len(blk) for cls in design.blocks for blk in cls}
    block_size_ok = len(sizes) == 1
    block_sets = [[frozenset(blk) for blk in cls] for cls in design.blocks]
    observed = sorted({len(frozenset.intersection(*combo))
                       for combo in itertools.product(*block_sets)})
    measured_mu = observed[0] if len(observed) == 1 else None
    return DesignReport(
        classes_partition=classes_partition,
        block_size_ok=block_size_ok,
        block_size=sizes.pop() if block_size_ok else None,
        intersection_sizes=tuple(observed),
        measured_mu=measured_mu,
        passed=all(classes_partition) and block_size_ok and measured_mu == design.mu,
    )
