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
import math
import sys
from dataclasses import dataclass

# the one cost model that prices every command, :func:`check_terms`: a step takes about
# 0.13 us and a held byte adds about 1 B of ru_maxrss, so the slowest accepted runs take
# at most 8.3 s and 251 MB in fresh processes on a 2-vCPU x86-64 VM (budget_edges.py)
MAX_STEPS = 6 * 10**7
MAX_HELD_BYTES = 25 * 10**7


class PointBudgetError(ValueError):
    """Requested design or delivery schedule is larger than its budget."""


def check_terms(command: str, steps: dict[str, int], held: dict[str, int]) -> None:
    """Refuse ``command`` if its closed-form terms of steps or held bytes sum over a limit."""
    for what, limit, terms in (("steps", MAX_STEPS, steps), ("held bytes", MAX_HELD_BYTES, held)):
        total, top = sum(terms.values()), max(terms, key=terms.get)
        if total > limit:  # a count past the digits int-to-str prints reads 10^N
            total, most = (str(n) if n < 10**sys.int_info.default_max_str_digits
                           else f"10^{int(math.log10(n))}" for n in (total, terms[top]))
            raise PointBudgetError(f"{command} needs about {total} {what}, over {limit}; "
                                   f"its largest term is {top} = {most}")


def require_ints(names: str, *values) -> None:
    """ValueError naming ``names`` unless each of ``values`` is exactly an int, not a bool."""
    if not {int}.issuperset(map(type, values)):
        raise ValueError(f"{names} must be ints, got {', '.join(map(repr, values))}")


def point_count(m: int, b: int, mu: int = 1) -> int:
    """mu * b**m for positive ints, refused once b**m >= 2**64, before the power is computed."""
    require_ints("m, b and mu", m, b, mu)
    if m < 1 or b < 1 or mu < 1:
        raise ValueError("m, b, mu must be positive")
    if m * (b.bit_length() - 1) >= 64:
        raise PointBudgetError(f"b^m = {b}^{m} points is 2^64 or more")
    return mu * b**m


def check_design_cost(m: int, b: int, mu: int) -> int:
    """mu*b^m points, once the cost model accepts the design: per point, per block entry
    and per block or class, the steps and held bytes that fresh `design` runs measured."""
    n = point_count(m, b, mu)
    check_terms("design", {"points 4*mu*b^m": 4 * n, "block entries 4*m*mu*b^m": 4 * m * n,
                           "blocks and classes 70*m*(b+1)": 70 * m * (b + 1)},
                {"points 40*mu*b^m": 40 * n, "block entries 20*m*mu*b^m": 20 * m * n,
                 "blocks and classes 140*m*(b+1)": 140 * m * (b + 1)})
    return n


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
        n = self.num_points  # m, b and mu are positive ints, b**m is below 2**64
        if len(self.blocks) != self.m or any(len(cls) != self.b for cls in self.blocks):
            raise ValueError("blocks must be an m x b family")
        blocks = [*itertools.chain.from_iterable(self.blocks)]
        for kind in set(map(type, itertools.chain.from_iterable(blocks))) - {int}:
            raise ValueError(f"points must be of type int, got {kind.__name__}")
        if (min(itertools.chain.from_iterable(blocks), default=1) < 1
                or max(itertools.chain.from_iterable(blocks), default=n) > n):
            raise ValueError(f"point out of range 1..{n}")

    @property
    def num_points(self) -> int:
        return point_count(self.m, self.b, self.mu)


def construct_mcrd(m: int, b: int, mu: int) -> Design:
    """Construct an MCRD with m classes, b blocks per class, intersection mu.

    Points are the columns of the m x (mu * b**m) matrix whose columns run
    through all length-m residue vectors mod b in lexicographic order (row 1
    most significant), each vector repeated mu times contiguously.  Block
    (i, l+1) collects the columns whose row-i entry equals l.
    """
    n = check_design_cost(m, b, mu)

    # block (i, l+1) is the b**(i-1) runs of mu*b**(m-i) columns that start at l*run,
    # (l+b)*run, ..., a strided slice for runs of one; slicing shares each point's int
    points = [*range(1, n + 1)]
    blocks = tuple(tuple(tuple(points[l::b]) if run == 1 else
                         tuple(itertools.chain.from_iterable(points[s:s + run]
                                                             for s in range(l * run, n, b * run)))
                         for l in range(b))
                   for run in (mu * b ** (m - i) for i in range(1, m + 1)))
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

    Each point counts once toward every cross-class block tuple in the product of the
    blocks that hold it, one pass over the blocks, so a tuple's count is exactly the
    size of its blocks' intersection and a tuple no point reaches meets in 0 points; a
    point repeated inside one block counts once.  The design passes iff each class
    partitions the point set, block sizes are uniform, and all b**m intersections have
    the declared size mu.  This is the ground-truth oracle: it reads only the blocks, in
    O(m * points + the sum of the intersection sizes).
    """
    m, b, n = design.m, design.b, design.num_points
    sizes = {len(blk) for cls in design.blocks for blk in cls}
    block_size_ok = len(sizes) == 1
    block_size = sizes.pop() if block_size_ok else None

    # a point counts toward the tuple (j_1, ..., j_m) of 0-based block indices at its
    # coordinate number, the sum of the shares j_i * b**(m-i); held[i][p-1] is the tuple
    # of p's shares in class i, one per time a block of class i lists p
    held = [[()] * n for _ in range(m)]
    for i, (owner, cls) in enumerate(zip(held, design.blocks)):
        for j, blk in enumerate(cls):
            share = (j * b ** (m - 1 - i),)
            for p in blk:
                owner[p - 1] += share
    # points lie in 1..n, so a class partitions them iff it lists each exactly once
    classes_partition = [set(map(len, owner)) == {1} for owner in held]
    partition = all(classes_partition)
    codes = (map(sum, map(itertools.chain.from_iterable, zip(*held))) if partition else
             (sum(c) for point in zip(*held) for c in itertools.product(*map(set, point))))
    counts = [0] * b**m
    for code in codes:
        counts[code] += 1

    observed = tuple(sorted(set(counts)))
    measured_mu = observed[0] if len(observed) == 1 else None
    return DesignReport(classes_partition=tuple(classes_partition),
                        block_size_ok=block_size_ok, block_size=block_size,
                        intersection_sizes=observed, measured_mu=measured_mu,
                        passed=partition and block_size_ok and measured_mu == design.mu)
