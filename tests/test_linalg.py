from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from treecount import (
    DimensionMismatchError,
    Graph,
    IndexOutOfRangeError,
    add_outer_product,
    adjugate,
    det_int,
    det_perturbed,
    det_rat,
    minor_matrix,
)

from conftest import DIAMOND_EDGES


def det_naive(m):
    """Permutation-expansion determinant; the independent reference."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


square_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def matrix_with_vectors(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        )
    )


def test_det_int_worked_example():
    lap = Graph(4, DIAMOND_EDGES).laplacian()
    assert det_int(lap) == 0
    assert det_int([[3, -1, -1], [-1, -1, 0], [-1, -1, 2]]) == -8


def test_det_int_small_cases():
    assert det_int([]) == 1
    assert det_int([[7]]) == 7
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int(identity(4)) == 1


def test_det_int_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        det_int([[1, 2], [3]])


@given(square_matrices)
@settings(max_examples=200, deadline=None)
def test_det_int_matches_naive_expansion(m):
    assert det_int(m) == det_naive(m)


@given(square_matrices)
@settings(max_examples=100, deadline=None)
def test_det_transpose_invariant(m):
    n = len(m)
    mt = [[m[j][i] for j in range(n)] for i in range(n)]
    assert det_int(mt) == det_int(m)


@given(matrix_with_vectors(4), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_det_row_swap_flips_sign(mv, a, b):
    m, _, _ = mv
    n = len(m)
    a, b = a % n, b % n
    swapped = [row[:] for row in m]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    expected = det_int(m) if a == b else -det_int(m)
    assert det_int(swapped) == expected


def test_det_rat_exact():
    half = Fraction(1, 2)
    assert det_rat([[half, 1], [1, half]]) == Fraction(-3, 4)
    assert det_rat([]) == 1
    assert det_rat([[1, 2], [2, 4]]) == 0


def test_minor_matrix_worked_example():
    lap = Graph(4, DIAMOND_EDGES).laplacian()
    assert minor_matrix(lap, 3, 2) == [[3, -1, -1], [-1, -1, 0], [-1, -1, 2]]


def test_minor_matrix_trivial_cases():
    assert minor_matrix([[5]], 1, 1) == []
    assert minor_matrix(identity(3), 1, 1) == identity(2)
    assert minor_matrix([[1, 2], [3, 4]], 2, 1) == [[2]]


def test_minor_matrix_index_errors():
    with pytest.raises(IndexOutOfRangeError):
        minor_matrix(identity(3), 0, 1)
    with pytest.raises(IndexOutOfRangeError):
        minor_matrix(identity(3), 1, 4)


def test_add_outer_product_complete_graph_identity():
    # L(K_n) + ones ones^T is n times the identity
    for n in range(1, 6):
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        lap = Graph(n, edges).laplacian()
        ones = [1] * n
        assert add_outer_product(lap, ones, ones) == [
            [n if i == j else 0 for j in range(n)] for i in range(n)
        ]


def test_add_outer_product_edge_cases():
    m = [[1, 2], [3, 4]]
    assert add_outer_product(m, [0, 0], [5, 7]) == m
    assert add_outer_product([[0, 0], [0, 0]], [1, 0], [0, 1]) == [[0, 1], [0, 0]]
    with pytest.raises(DimensionMismatchError):
        add_outer_product(m, [1], [1, 2])


def test_det_perturbed_worked_example():
    lap = Graph(4, DIAMOND_EDGES).laplacian()
    ones = [1, 1, 1, 1]
    # both routes: the dedicated entry point and an explicit matrix build
    assert det_perturbed(lap, ones, ones) == 128
    assert det_int(add_outer_product(lap, ones, ones)) == 128


def test_det_perturbed_small_cases():
    assert det_perturbed(identity(2), [1, 0], [1, 0]) == 2
    k3 = Graph(3, [(1, 2), (1, 3), (2, 3)]).laplacian()
    assert det_perturbed(k3, [1, 1, 1], [1, 1, 1]) == 27


@given(matrix_with_vectors())
@settings(max_examples=150, deadline=None)
def test_matrix_determinant_lemma(mv):
    m, u, v = mv
    n = len(m)
    adj = adjugate(m)
    correction = sum(v[i] * adj[i][j] * u[j] for i in range(n) for j in range(n))
    assert det_perturbed(m, u, v) == det_int(m) + correction


def test_adjugate_worked_example():
    lap = Graph(4, DIAMOND_EDGES).laplacian()
    assert adjugate(lap) == [[8] * 4 for _ in range(4)]


def test_adjugate_small_cases():
    assert adjugate(identity(3)) == identity(3)
    assert adjugate([[9]]) == [[1]]
    with pytest.raises(DimensionMismatchError):
        adjugate([])


@given(matrix_with_vectors())
@settings(max_examples=150, deadline=None)
def test_adjugate_product_identity(mv):
    m, _, _ = mv
    n = len(m)
    adj = adjugate(m)
    det = det_int(m)
    product = [
        [sum(m[i][t] * adj[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert product == [[det if i == j else 0 for j in range(n)] for i in range(n)]
