import random

import pytest

from treecount import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    LoopEdgeError,
    OutOfRangeError,
    build_graph,
)

from conftest import DIAMOND_EDGES, random_graph


def test_build_graph_stores_each_edge_once(diamond):
    assert diamond.n == 4
    assert diamond.edges == {(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)}


def test_build_graph_normalizes_endpoint_order():
    g = build_graph(3, [(2, 1), (3, 2)])
    assert g.edges == {(1, 2), (2, 3)}


def test_single_vertex_graph():
    g = build_graph(1, [])
    assert g.n == 1
    assert g.edges == frozenset()


def test_loop_edge_rejected():
    with pytest.raises(LoopEdgeError):
        build_graph(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(OutOfRangeError):
        build_graph(3, [(1, 4)])
    with pytest.raises(OutOfRangeError):
        build_graph(3, [(0, 2)])


def test_duplicate_edge_rejected_even_when_flipped():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(1, 2), (2, 1)])


def test_vertex_count_must_be_positive():
    with pytest.raises(GraphError):
        build_graph(0, [])


@pytest.mark.parametrize("n, edges", [
    (2.5, []),
    (3.0, []),
    ("3", []),
    (None, []),
    (3, [(1.5, 2)]),
    (3, [(1, 2.0)]),
    (3, [("1", 2)]),
    (3, [(1, None)]),
])
def test_vertex_count_and_endpoints_must_be_ints(n, edges):
    with pytest.raises(GraphError):
        build_graph(n, edges)


def test_degree(diamond):
    assert diamond.degree(1) == 3
    assert diamond.degree(2) == 2
    assert build_graph(1, []).degree(1) == 0
    with pytest.raises(OutOfRangeError):
        diamond.degree(5)


def test_neighbors(diamond):
    assert diamond.neighbors(2) == {1, 3}
    assert diamond.neighbors(1) == {2, 3, 4}
    assert build_graph(1, []).neighbors(1) == frozenset()
    with pytest.raises(OutOfRangeError):
        diamond.neighbors(0)


def test_laplacian_matches_worked_example(diamond):
    assert diamond.laplacian() == [
        [3, -1, -1, -1],
        [-1, 2, -1, 0],
        [-1, -1, 3, -1],
        [-1, 0, -1, 2],
    ]


def test_laplacian_trivial_cases():
    assert build_graph(1, []).laplacian() == [[0]]
    assert build_graph(2, [(1, 2)]).laplacian() == [[1, -1], [-1, 1]]


def test_is_connected(diamond):
    assert diamond.is_connected()
    assert not build_graph(4, [(1, 2), (3, 4)]).is_connected()
    assert build_graph(1, []).is_connected()


def test_structural_equality_and_hash():
    a = build_graph(3, [(1, 2), (2, 3)])
    b = build_graph(3, [(2, 3), (2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_graph(3, [(1, 2)])
    assert a != build_graph(4, [(1, 2), (2, 3)])


def test_random_graphs_satisfy_basic_invariants():
    rng = random.Random(20240801)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.1, 0.9))
        lap = g.laplacian()
        assert all(lap[i][j] == lap[j][i] for i in range(g.n) for j in range(g.n))
        assert all(sum(row) == 0 for row in lap)
        cols = [sum(lap[i][j] for i in range(g.n)) for j in range(g.n)]
        assert cols == [0] * g.n
        assert sum(g.degree(v) for v in range(1, g.n + 1)) == 2 * len(g.edges)
        assert all(g.degree(v) == len(g.neighbors(v)) for v in range(1, g.n + 1))
        assert all(g.degree(v) <= g.n - 1 for v in range(1, g.n + 1))


def test_laplacian_deterministic_for_equal_graphs():
    a = build_graph(4, DIAMOND_EDGES)
    b = build_graph(4, list(reversed(DIAMOND_EDGES)))
    assert a == b
    assert a.laplacian() == b.laplacian()


def test_laplacian_rows_worked_example(diamond):
    assert diamond.laplacian_rows() == [
        {0: 3, 1: -1, 2: -1, 3: -1},
        {0: -1, 1: 2, 2: -1},
        {0: -1, 1: -1, 2: 3, 3: -1},
        {0: -1, 2: -1, 3: 2},
    ]
    assert build_graph(1, []).laplacian_rows() == [{}]
    assert build_graph(3, [(1, 3)]).laplacian_rows() == [{0: 1, 2: -1}, {}, {0: -1, 2: 1}]


def test_laplacian_rows_agree_with_laplacian():
    rng = random.Random(20240802)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.uniform(0.0, 0.9))
        rows = g.laplacian_rows()
        assert all(0 not in row.values() for row in rows)
        assert rows == [{j: x for j, x in enumerate(row) if x} for row in g.laplacian()]
        for v in range(1, g.n + 1):
            expected = {w - 1: -1 for w in g.neighbors(v)}
            if g.degree(v):
                expected[v - 1] = g.degree(v)
            assert rows[v - 1] == expected
