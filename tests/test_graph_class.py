"""Every graph of the class at small shapes: each C1–C2 graph, enumerated here without the
library's generators or matching, gets ``validate``'s verdict checked against a brute-force
perfect-matching search, and each valid one runs the whole scheme at every memory."""

import itertools

from macc import SchemeParams, Topology, count_topologies, simulate, validate

# (m, b, z) -> the number of its C1–C2 graphs that have a perfect matching in every group;
# at z = 1 a group's users must pick distinct caches, so a group has b! of them
VALID_COUNTS = {(1, 4, 1): 24, (1, 4, 2): 180, (1, 5, 1): 120, (1, 5, 2): 3960,
                (2, 3, 1): 36, (2, 3, 2): 36}


def _cells(b, z):
    """The z contiguous cells of cache slots: z - 1 of floor(b/z) slots, then the rest."""
    x = b // z
    starts = [l * x + 1 for l in range(z)] + [b + 1]
    return list(map(range, starts, starts[1:]))


def _every_graph(m, b, z):
    """Every C1–C2 graph as access rows by global cache id: each user reads exactly one cache
    in each cell of its own group's slots."""
    rows = list(itertools.product(*_cells(b, z)))  # one user's choice, slots ascending
    for graph in itertools.product(itertools.product(rows, repeat=b), repeat=m):
        yield [tuple(g * b + s for s in row) for g, group in enumerate(graph) for row in group]


def _perfect(rows, taken=()):
    """True iff the users of ``rows`` can each be given a distinct cache they read: every
    assignment is tried, user by user, in order."""
    return not rows or any(_perfect(rows[1:], (*taken, c)) for c in rows[0] if c not in taken)


def test_every_graph_of_the_class_at_small_shapes():
    for (m, b, z), want in VALID_COUNTS.items():
        params = [SchemeParams(m=m, b=b, z=z, t=t, n_files=m * b) for t in range(1, b // z + 1)]
        graphs = valid = 0
        for access in _every_graph(m, b, z):
            graphs += 1
            top = Topology(m=m, b=b, z=z, access=access)
            matched = all(_perfect(access[g:g + b]) for g in range(0, m * b, b))
            assert validate(top).passed == matched, access
            valid += matched
            for p in params if matched else ():
                report = simulate(top, p)
                assert report.all_complete() and report.rate == report.expected_rate, (access, p)
        assert (graphs, valid) == (count_topologies(m, b, z), want), (m, b, z)
