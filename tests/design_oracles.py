"""Brute-force readings of a design's blocks, for the tests: the points where m blocks
of distinct classes meet, and whether a block is the union of those through it."""

import itertools

from macc import Design


def point_at(design: Design, coords) -> tuple[int, ...]:
    """Intersection of blocks (1, coords[0]), ..., (m, coords[m-1]).

    For a valid MCRD this has exactly mu points.
    """
    coords = tuple(coords)
    if len(coords) != design.m:
        raise ValueError(f"need {design.m} coordinates, got {len(coords)}")
    if any(not 1 <= c <= design.b for c in coords):
        raise ValueError(f"coordinates {coords} out of range 1..{design.b}")
    acc = set(design.block(1, coords[0]))
    for i, c in enumerate(coords[1:], start=2):
        acc.intersection_update(design.block(i, c))
    return tuple(sorted(acc))


def block_cover_check(design: Design, i: int, j: int) -> bool:
    """True iff block (i,j) equals the union of all cross intersections through it."""
    covered: set[int] = set()
    free = [range(1, design.b + 1)] * (design.m - 1)
    for rest in itertools.product(*free):
        coords = rest[: i - 1] + (j,) + rest[i - 1 :]
        covered.update(point_at(design, coords))
    return covered == set(design.block(i, j))
