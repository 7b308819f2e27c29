"""Shared fixtures: the diamond worked example and random graph corpora."""

from __future__ import annotations

import random

import pytest

from treecount import Graph

# 4-cycle 1-2-3-4 plus the chord 1-3; it has exactly 8 spanning trees.
DIAMOND_EDGES = [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]

# All eight spanning trees of the diamond, as edge subsets.
DIAMOND_TREES = [
    {(1, 4), (3, 4), (2, 3)},
    {(3, 4), (2, 3), (1, 2)},
    {(2, 3), (1, 2), (1, 4)},
    {(1, 2), (1, 4), (3, 4)},
    {(1, 4), (1, 3), (2, 3)},
    {(1, 4), (1, 2), (1, 3)},
    {(3, 4), (2, 3), (1, 3)},
    {(3, 4), (1, 3), (1, 2)},
]

# (n, edges, tau) for graphs whose subset scan reaches three components, each
# of at least 3 vertices, with no edge left ahead that crosses them.
THREE_CLUSTER_GRAPHS = {
    "connected": (9, [(1, 2), (1, 5), (1, 8), (2, 3), (2, 4), (2, 7), (3, 5), (3, 6),
                      (3, 8), (3, 9), (4, 7), (5, 8), (6, 9)], 216),
    "disconnected": (9, [(1, 6), (1, 7), (2, 4), (2, 5), (2, 9), (3, 8), (3, 9), (4, 5),
                         (6, 7), (8, 9)], 0),
}


@pytest.fixture
def diamond() -> Graph:
    return Graph(4, DIAMOND_EDGES)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g
