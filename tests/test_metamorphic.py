"""Metamorphic properties of tau at sizes where det_int takes its symmetric
modular kernel, which it picks by order alone: sparse random graphs on
31-60 vertices.  Each property reads tau_reduced (a sparse minor) and
tau_temperley (L + J, which det_perturbed hands to det_int's path as the
symmetric bordered matrix [[L, 1], [1^T, -1]]), both on the symmetric
kernel, against tau from a Laplacian minor by Bareiss elimination.  So a
fault shared by every determinant route, or one in either modular kernel,
in the hand-off between them or in the bordering, breaks an identity that
does not depend on any one method."""

import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from treecount import Graph, linalg, minor_matrix, tau_reduced, tau_temperley

SEEDS = st.integers(0, 2**32)
SIZES = st.integers(linalg.SPARSE_MIN_ORDER + 1, 60)
# two parts that make a graph of at least SPARSE_MIN_ORDER + 1 vertices
PARTS = st.integers(16, 30)


def sparse_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus about n extra edges: connected, average
    degree about 4."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < 2 * n - 1:
        i, j = rng.sample(range(1, n + 1), 2)
        edges.add((min(i, j), max(i, j)))
    return Graph(n, edges)


def det_int_inputs(count, g: Graph) -> tuple[int, list]:
    """count(g), and the matrices det_int received while computing it: a
    minor, or the matrix det_perturbed builds."""
    with mock.patch.object(linalg, "det_int", wraps=linalg.det_int) as spy:
        value = count(g)
    return value, [call.args[0] for call in spy.call_args_list]


def reduced_by_modular_kernel(g: Graph) -> int:
    """tau_reduced(g, 1, 1), checking that det_int received the order n - 1
    minor, an order that det_int sends to the modular kernel."""
    value, matrices = det_int_inputs(lambda h: tau_reduced(h, 1, 1), g)
    assert [len(m) for m in matrices] == [g.n - 1]
    assert len(matrices[0]) >= linalg.SPARSE_MIN_ORDER
    return value


def temperley_by_bordered_matrix(g: Graph) -> int:
    """tau_temperley(g), checking that det_int's path received the bordered L + J
    of order n + 1, an order that det_int sends to the modular kernel."""
    value, matrices = det_int_inputs(tau_temperley, g)
    assert [len(m) for m in matrices] == [g.n + 1]
    assert len(matrices[0]) >= linalg.SPARSE_MIN_ORDER
    return value


def tau_by_bareiss(g: Graph) -> int:
    """tau(g) from the Laplacian minor without row and column 1, by Bareiss
    elimination whatever the matrix: the reference side of each property."""
    return linalg._det_bareiss(minor_matrix(g.laplacian(), 1, 1))


def shifted(edges, offset):
    return [(i + offset, j + offset) for i, j in edges]


@given(SIZES, SEEDS)
@settings(max_examples=15, deadline=None)
def test_relabelling_invariance(n, seed):
    rng = random.Random(seed)
    g = sparse_connected_graph(rng, n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    h = Graph(n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])
    assert reduced_by_modular_kernel(h) == reduced_by_modular_kernel(g) == tau_by_bareiss(g)
    assert temperley_by_bordered_matrix(h) == tau_by_bareiss(h)


@given(SIZES, SEEDS)
@settings(max_examples=15, deadline=None)
def test_pendant_vertex_leaves_tau_unchanged(n, seed):
    rng = random.Random(seed)
    g = sparse_connected_graph(rng, n)
    h = Graph(n + 1, [*g.edges, (rng.randint(1, n), n + 1)])
    assert reduced_by_modular_kernel(h) == temperley_by_bordered_matrix(h) == tau_by_bareiss(g)


@given(PARTS, PARTS, SEEDS)
@settings(max_examples=15, deadline=None)
def test_gluing_at_cut_vertex_multiplies(a, b, seed):
    rng = random.Random(seed)
    first, second = sparse_connected_graph(rng, a), sparse_connected_graph(rng, b)
    # vertex a of the first graph is identified with vertex 1 of the second
    glued = Graph(a + b - 1, [*first.edges, *shifted(second.edges, a - 1)])
    expected = tau_by_bareiss(first) * tau_by_bareiss(second)
    assert reduced_by_modular_kernel(glued) == temperley_by_bordered_matrix(glued) == expected


@given(SIZES, SEEDS)
@settings(max_examples=15, deadline=None)
def test_degree_product_bound(n, seed):
    g = sparse_connected_graph(random.Random(seed), n)
    bound = 1
    for v in range(2, n + 1):
        bound *= g.degree(v)
    value = reduced_by_modular_kernel(g)
    assert value == temperley_by_bordered_matrix(g) == tau_by_bareiss(g)
    assert 0 < value <= bound


@given(PARTS, PARTS, SEEDS)
@settings(max_examples=15, deadline=None)
def test_disconnected_graph_counts_zero(a, b, seed):
    rng = random.Random(seed)
    first, second = sparse_connected_graph(rng, a), sparse_connected_graph(rng, b)
    g = Graph(a + b, [*first.edges, *shifted(second.edges, a)])
    assert reduced_by_modular_kernel(g) == temperley_by_bordered_matrix(g) == tau_by_bareiss(g) == 0


@given(SIZES, SEEDS, st.data())
@settings(max_examples=15, deadline=None)
def test_reduced_minor_reindexing(n, seed, data):
    """tau_reduced deletes any row and a different column of the sparse
    rows and re-indexes the columns; the minor, as a rule not symmetric,
    goes to _det_modular.  Its signed determinant equals Bareiss on the
    dense minor."""
    g = sparse_connected_graph(random.Random(seed), n)
    row = data.draw(st.integers(1, n))
    col = data.draw(st.integers(1, n).filter(lambda c: c != row))
    sign = -1 if (row + col) % 2 else 1
    assert tau_reduced(g, row, col) == sign * linalg._det_bareiss(minor_matrix(g.laplacian(), row, col))


def cycle_edges(n):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def test_disconnected_graphs_hand_off_and_count_zero():
    """A component without vertex 1 is a singular block of the minor, and
    L + J of a disconnected graph is singular too.  An isolated vertex's
    row has a zero diagonal and is popped first, so the symmetric kernel
    hands the block left to _det_modular in both.  On two cycles, the
    border reaches a zero diagonal in the sparse loop and hands off, and
    the minor's elimination ends in the dense tail, whose last pair gives
    0."""
    cycle_and_point = Graph(31, cycle_edges(30))
    two_cycles = Graph(32, [*cycle_edges(20), *shifted(cycle_edges(12), 20)])
    for g, hand_offs, tails in ((cycle_and_point, 2, 0), (two_cycles, 1, 1)):
        with (
            mock.patch.object(linalg, "_det_symmetric", wraps=linalg._det_symmetric) as kernel,
            mock.patch.object(linalg, "_det_modular", wraps=linalg._det_modular) as hand_off,
            mock.patch.object(linalg, "_dense_tail", wraps=linalg._dense_tail) as tail,
        ):
            assert reduced_by_modular_kernel(g) == temperley_by_bordered_matrix(g) == 0
        assert (kernel.call_count, hand_off.call_count, tail.call_count) == (2, hand_offs, tails)


@st.composite
def relabelled_connected_graphs(draw) -> Graph:
    """A cycle, a grid or a connected G(n, 3n) on 31-90 vertices, with its
    vertices relabelled at random."""
    rng = random.Random(draw(SEEDS))
    kind = draw(st.sampled_from(["cycle", "grid", "G(n, 3n)"]))
    if kind == "grid":
        rows = draw(st.integers(2, 9))
        cols = draw(st.integers(-(-31 // rows), 90 // rows))
        n = rows * cols
        edges = [(v, v + 1) for v in range(1, n + 1) if v % cols] + [(v, v + cols) for v in range(1, n - cols + 1)]
    else:
        n = draw(st.integers(31, 90))
        edges = cycle_edges(n)
        if kind == "G(n, 3n)":
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            edges = rng.sample(pairs, 3 * n)
            while not Graph(n, edges).is_connected():
                edges = rng.sample(pairs, 3 * n)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Graph(n, [(label[i - 1], label[j - 1]) for i, j in edges])


@given(relabelled_connected_graphs())
@settings(max_examples=40, deadline=None)
def test_connected_graphs_end_in_the_dense_tail(g):
    """The minor of a connected graph is positive definite and its
    Temperley border is singular only through L, so every elimination ends
    in the dense tail, the border's zero pivot in the tail's last pair, and
    none hands a block to _det_modular."""
    values = []
    for count in (lambda h: tau_reduced(h, 1, 1), tau_temperley):
        with (
            mock.patch.object(linalg, "_dense_tail", wraps=linalg._dense_tail) as tail,
            mock.patch.object(linalg, "_det_modular", wraps=linalg._det_modular) as hand_off,
        ):
            values.append(count(g))
        assert (tail.call_count, hand_off.call_count) == (1, 0)
    assert values[0] == values[1] > 0


def test_long_cycle():
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)])
    assert reduced_by_modular_kernel(cycle) == tau_reduced(cycle, 75, 3) == 150
    assert temperley_by_bordered_matrix(cycle) == tau_by_bareiss(cycle) == 150
