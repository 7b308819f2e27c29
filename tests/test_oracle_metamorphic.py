"""Metamorphic properties of tau at oracle sizes: random graphs on at most 8
vertices, connected or not, each property read through both brute-force
oracles.  The oracles share no code with the determinant methods, so these
identities check them against the recurrence and symmetries of tau itself
rather than against another method's answer."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from treecount import Graph, Multigraph, tau_delcon, tau_reduced, tau_subsets

from conftest import random_graph

ORACLES = {
    "subsets": tau_subsets,
    "delcon": lambda g: tau_delcon(Multigraph.from_graph(g)),
}
SEEDS = st.integers(0, 2**32)
EXAMPLES = settings(max_examples=25, deadline=None)


def small_graph(rng: random.Random, n: int) -> Graph:
    return random_graph(rng, n, rng.uniform(0.3, 0.9))


def contract(g: Graph, edge: tuple[int, int]) -> Multigraph:
    """g / ab for an edge a < b: b merged into a, the vertices above b
    renumbered down by one; parallel edges add up and the loop ab drops."""
    a, b = edge

    def image(v):
        return a if v == b else v - (v > b)

    return Multigraph(g.n - 1, Counter((image(i), image(j)) for i, j in g.edges))


@pytest.mark.parametrize("oracle", ORACLES)
@given(st.integers(2, 8), SEEDS)
@EXAMPLES
def test_deletion_contraction(oracle, n, seed):
    rng = random.Random(seed)
    g = small_graph(rng, n)
    if not g.edges:
        g = Graph(n, [(1, n)])
    e = rng.choice(sorted(g.edges))
    deleted = Graph(n, g.edges - {e})
    assert ORACLES[oracle](g) == tau_reduced(deleted, 1, 1) + tau_delcon(contract(g, e))


@pytest.mark.parametrize("oracle", ORACLES)
@given(st.integers(1, 8), SEEDS)
@EXAMPLES
def test_relabelling_invariance(oracle, n, seed):
    rng = random.Random(seed)
    g = small_graph(rng, n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    h = Graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
    assert ORACLES[oracle](h) == ORACLES[oracle](g)


@pytest.mark.parametrize("oracle", ORACLES)
@given(st.integers(1, 7), SEEDS)
@EXAMPLES
def test_pendant_vertex_leaves_tau_unchanged(oracle, n, seed):
    rng = random.Random(seed)
    g = small_graph(rng, n)
    h = Graph(n + 1, [*g.edges, (rng.randint(1, n), n + 1)])
    assert ORACLES[oracle](h) == ORACLES[oracle](g)


@pytest.mark.parametrize("oracle", ORACLES)
@given(st.integers(1, 7), st.integers(1, 7), SEEDS)
@EXAMPLES
def test_gluing_at_cut_vertex_multiplies(oracle, a, b, seed):
    if a + b - 1 > 8:
        b = 9 - a
    rng = random.Random(seed)
    first, second = small_graph(rng, a), small_graph(rng, b)
    # vertex `cut` of the first graph is identified with vertex 1 of the
    # second, whose other vertices follow the first graph's
    cut = rng.randint(1, a)

    def image(v):
        return cut if v == 1 else a + v - 1

    glued = Graph(a + b - 1, [*first.edges, *((image(i), image(j)) for i, j in second.edges)])
    count = ORACLES[oracle]
    assert count(glued) == count(first) * count(second)


@pytest.mark.parametrize("oracle", ORACLES)
@given(st.integers(1, 8), SEEDS)
@EXAMPLES
def test_degree_product_bound(oracle, n, seed):
    g = small_graph(random.Random(seed), n)
    bound = 1
    for v in range(2, n + 1):
        bound *= g.degree(v)
    assert 0 <= ORACLES[oracle](g) <= bound
