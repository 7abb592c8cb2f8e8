"""Resolvable block designs with constant cross-class intersections.

A design here is a ground set X = {1, ..., mu * b**m} together with m
parallel classes of b blocks each.  Every parallel class partitions X, and
any m blocks picked from m distinct classes meet in exactly ``mu`` points
(a maximal cross resolvable design, MCRD).  Blocks index subfiles, and the
m-wise intersections are the subfiles a single transmission serves.
:mod:`macc.engine` takes no design: it numbers subfiles as the points of
``construct_mcrd(m, b, 1)`` arithmetically, and the tests check that
numbering against the design built here.

Blocks and points are 1-based throughout, matching the usual design-theory
convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

DEFAULT_POINT_BUDGET = 10**6
# design work in verify_mcrd's set-element visits (20-70 ns): mu*b^(2m-1) to intersect,
# 50 per block point and 400 per block to build, check and write; the slowest accepted,
# (m, b) = (2, 432), takes 5.7 s in-process on a 2-vCPU x86-64 VM
MAX_DESIGN_COST = 10**8


class PointBudgetError(Exception):
    """Requested design or delivery schedule is larger than its budget."""


def point_count(m: int, b: int, mu: int = 1) -> int:
    """mu * b**m; once b**m >= 2**64, past every budget, refused before it is computed."""
    if m * (b.bit_length() - 1) >= 64:
        raise PointBudgetError(f"b^m = {b}^{m} points exceeds budget {DEFAULT_POINT_BUDGET}")
    return mu * b**m


@dataclass(frozen=True)
class Design:
    """m parallel classes of b blocks over {1, ..., mu * b**m}.

    ``blocks[i-1][j-1]`` is block j of class i as a sorted tuple of points.
    ``mu`` is the declared cross intersection number; :func:`verify_mcrd`
    checks whether the blocks actually realize it.
    """

    m: int
    b: int
    mu: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.m < 1 or self.b < 1 or self.mu < 1:
            raise ValueError("m, b, mu must be positive")
        if len(self.blocks) != self.m or any(len(cls) != self.b for cls in self.blocks):
            raise ValueError("blocks must be an m x b family")
        n = self.num_points
        for cls in self.blocks:
            for blk in cls:
                if any(p < 1 or p > n for p in blk):
                    raise ValueError(f"point out of range 1..{n}")

    @property
    def num_points(self) -> int:
        return point_count(self.m, self.b, self.mu)

    def block(self, i: int, j: int) -> tuple[int, ...]:
        """Block j of parallel class i (both 1-based)."""
        if not (1 <= i <= self.m and 1 <= j <= self.b):
            raise ValueError(f"block index ({i},{j}) out of range")
        return self.blocks[i - 1][j - 1]


def construct_mcrd(m: int, b: int, mu: int) -> Design:
    """Construct an MCRD with m classes, b blocks per class, intersection mu.

    Points are the columns of the m x (mu * b**m) matrix whose columns run
    through all length-m residue vectors mod b in lexicographic order (row 1
    most significant), each vector repeated mu times contiguously.  Block
    (i, l+1) collects the columns whose row-i entry equals l.
    """
    if m < 1 or b < 1 or mu < 1:
        raise ValueError("m, b, mu must be positive")
    n = point_count(m, b, mu)
    if n > DEFAULT_POINT_BUDGET:
        raise PointBudgetError(f"{n} points exceeds budget {DEFAULT_POINT_BUDGET}")
    cost = mu * b ** (2 * m - 1) + 50 * m * b * (mu * b ** (m - 1) + 8)
    if cost > MAX_DESIGN_COST:
        raise PointBudgetError(f"design work of {cost} element visits exceeds budget "
                               f"{MAX_DESIGN_COST}")

    classes = [[[] for _ in range(b)] for _ in range(m)]
    for col in range(n):
        vec = col // mu
        for i in range(m - 1, -1, -1):
            classes[i][vec % b].append(col + 1)
            vec //= b
    blocks = tuple(tuple(tuple(blk) for blk in cls) for cls in classes)
    return Design(m=m, b=b, mu=mu, blocks=blocks)


@dataclass(frozen=True)
class DesignReport:
    """Outcome of the exhaustive design check; failures are entries, not faults."""

    classes_partition: tuple[bool, ...]
    block_size_ok: bool
    block_size: int | None
    intersection_sizes: tuple[int, ...]
    measured_mu: int | None
    passed: bool


def verify_mcrd(design: Design) -> DesignReport:
    """Exhaustively check the MCRD properties of ``design``.

    Every cross-class block tuple (all b**m of them) is intersected; the
    design passes iff each class partitions the point set, block sizes are
    uniform, and the measured intersection is constant and equals the
    declared mu.  This is the ground-truth oracle: O(b**m * m * blocksize).
    """
    n = design.num_points
    classes_partition = [sorted(itertools.chain.from_iterable(cls)) == [*range(1, n + 1)]
                         for cls in design.blocks]

    sizes = {len(blk) for cls in design.blocks for blk in cls}
    block_size_ok = len(sizes) == 1
    block_size = sizes.pop() if block_size_ok else None

    block_sets = [[frozenset(blk) for blk in cls] for cls in design.blocks]
    observed: set[int] = set()
    for combo in itertools.product(*block_sets):
        observed.add(len(frozenset.intersection(*combo)))

    measured_mu = observed.pop() if len(observed) == 1 else None
    if measured_mu is not None:
        observed = {measured_mu}
    passed = all(classes_partition) and block_size_ok and measured_mu == design.mu
    return DesignReport(
        classes_partition=tuple(classes_partition),
        block_size_ok=block_size_ok,
        block_size=block_size,
        intersection_sizes=tuple(sorted(observed)),
        measured_mu=measured_mu,
        passed=passed,
    )

