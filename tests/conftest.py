"""Shared fixtures: the two worked-example setups and small helpers."""

import pytest

from macc import SchemeParams, Topology


@pytest.fixture
def example_a():
    """K=8, z=2, t=1 setup: m=2 groups of b=4, the classic 16-subfile run."""
    top = Topology.from_group_slots(
        2, 4, 2,
        [
            [[1, 3], [2, 4], [1, 4], [2, 3]],
            [[1, 4], [2, 3], [2, 4], [1, 3]],
        ],
    )
    params = SchemeParams(m=2, b=4, z=2, t=1, n_files=8)
    return top, params


@pytest.fixture
def example_a_matching():
    """The matching used in the worked example's printed transmissions: cache c serves user
    ``to_user[c-1]``, by global id (group 2's caches 5..8 serve users 8, 7, 6, 5)."""
    return (1, 2, 4, 3, 8, 7, 6, 5)


@pytest.fixture
def example_b():
    """K=14, z=3, t=2 setup: m=2 groups of b=7, 49 subfiles."""
    group = [[1, 3, 5], [2, 3, 5], [2, 3, 5], [2, 4, 5], [2, 3, 5], [2, 3, 6], [2, 3, 7]]
    top = Topology.from_group_slots(2, 7, 3, [group, group])
    params = SchemeParams(m=2, b=7, z=3, t=2, n_files=14)
    return top, params


@pytest.fixture
def example_b_identity_matching():
    return tuple(range(1, 15))
