import math
import random
import sys
from collections import Counter
from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from treecount import (
    EdgeNotInGraphError,
    Graph,
    Multigraph,
    OracleTooLargeError,
    build_graph,
    gen_complete,
    is_spanning_tree,
    tau_delcon,
    tau_reduced,
    tau_subsets,
)

from treecount.oracle import _degeneracy_rank, _last_levels

from conftest import DIAMOND_TREES, THREE_CLUSTER_GRAPHS, random_graph


def tau_by_literal_enumeration(g):
    """Reference count: test every (n-1)-subset with is_spanning_tree."""
    return sum(
        1
        for combo in combinations(sorted(g.edges), g.n - 1)
        if is_spanning_tree(g, combo)
    )


def test_is_spanning_tree_examples(diamond):
    assert is_spanning_tree(diamond, {(1, 4), (3, 4), (2, 3)})
    # contains the cycle on 1, 3, 4
    assert not is_spanning_tree(diamond, {(1, 4), (3, 4), (1, 3), (1, 2)})
    # too few edges, disconnected
    assert not is_spanning_tree(diamond, {(1, 4), (2, 3)})


def test_is_spanning_tree_rejects_foreign_edges(diamond):
    with pytest.raises(EdgeNotInGraphError):
        is_spanning_tree(diamond, {(2, 4)})


def test_is_spanning_tree_accepts_exactly_the_eight_diamond_trees(diamond):
    accepted = [
        set(combo)
        for combo in combinations(sorted(diamond.edges), 3)
        if is_spanning_tree(diamond, combo)
    ]
    assert len(accepted) == 8
    for tree in DIAMOND_TREES:
        assert tree in accepted


def test_tau_subsets_examples(diamond):
    assert tau_subsets(diamond) == 8
    assert tau_subsets(gen_complete(4)) == 16
    path = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert tau_subsets(path) == 1
    assert tau_subsets(build_graph(1, [])) == 1


def test_tau_subsets_equals_literal_enumeration():
    rng = random.Random(31337)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9))
        assert tau_subsets(g) == tau_by_literal_enumeration(g)


def all_labelled_graphs(n):
    """Every simple graph on vertices 1..n: 2^C(n,2) of them, including
    the edgeless ones, those with isolated vertices and the disconnected."""
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [p for bit, p in enumerate(pairs) if mask >> bit & 1])


@pytest.mark.parametrize("n", range(1, 6))
def test_oracles_match_literal_enumeration_on_every_labelled_graph(n):
    for g in all_labelled_graphs(n):
        expected = tau_by_literal_enumeration(g)
        guard = math.comb(len(g.edges), n - 1)
        assert tau_subsets(g, limit=guard) == expected, sorted(g.edges)
        with pytest.raises(OracleTooLargeError):
            tau_subsets(g, limit=guard - 1)
        assert tau_delcon(Multigraph.from_graph(g)) == expected, sorted(g.edges)


def test_tau_subsets_guard_is_a_hard_error():
    g = gen_complete(5)  # C(10, 4) = 210 subsets
    with pytest.raises(OracleTooLargeError):
        tau_subsets(g, limit=209)
    assert tau_subsets(g, limit=210) == 125


def test_tau_delcon_examples(diamond):
    assert tau_delcon(Multigraph.from_graph(diamond)) == 8
    assert tau_delcon(Multigraph.from_graph(gen_complete(5))) == 125
    assert tau_delcon(Multigraph.from_graph(build_graph(1, []))) == 1
    assert tau_delcon(Multigraph.from_graph(build_graph(3, [(1, 2)]))) == 0


def test_tau_delcon_parallel_edges():
    for k in range(1, 6):
        mg = Multigraph(2, Counter({(1, 2): k}))
        assert tau_delcon(mg) == k


def test_oracles_agree_on_random_corpus():
    rng = random.Random(987)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 7), rng.uniform(0.2, 0.9))
        assert tau_subsets(g) == tau_delcon(Multigraph.from_graph(g))


@pytest.mark.parametrize("name", THREE_CLUSTER_GRAPHS)
def test_oracles_count_three_components_with_no_crossing_edge_ahead(name):
    n, edges, tau = THREE_CLUSTER_GRAPHS[name]
    g = build_graph(n, edges)
    assert tau_subsets(g) == tau_delcon(Multigraph.from_graph(g)) == tau_reduced(g, 1, 1) == tau


@st.composite
def clustered_graphs(draw):
    """Three or four triangles or K4s on 9-12 vertices, joined by 0-4 random
    edges, relabelled at random: disconnected when the joins miss a cluster."""
    sizes = draw(st.sampled_from([(3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4), (3, 3, 3, 3)]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = sum(sizes)
    labels = rng.sample(range(1, n + 1), n)
    edges = set()
    for start, size in zip(accumulate((0, *sizes)), sizes):
        edges.update(combinations(sorted(labels[start:start + size]), 2))
    for _ in range(draw(st.integers(0, 4))):
        edges.add(tuple(sorted(rng.sample(labels, 2))))
    return Graph(n, edges)


@given(clustered_graphs())
@settings(max_examples=60, deadline=None)
def test_oracles_agree_with_reduced_on_clustered_graphs(g):
    assert tau_subsets(g) == tau_delcon(Multigraph.from_graph(g)) == tau_reduced(g, 1, 1)


def test_oracles_count_three_stranded_trees():
    # both oracles end their searches in closed form: the subset scan at
    # five components, deletion-contraction at three stripped vertices,
    # which here have no bundle between them
    g = Graph(6, [(1, 2), (3, 4), (5, 6)])
    assert tau_subsets(g) == tau_delcon(Multigraph.from_graph(g)) == 0


@st.composite
def joined_components(draw):
    """Disjoint unions of 2-4 random trees or cycles on at most 12 vertices,
    joined by 0-3 random edges, relabelled at random: three trees left
    apart strip down to three stranded vertices.  Each part has an edge, so
    an isolated vertex does not end the search before it gets there."""
    parts = draw(st.integers(2, 4))
    sizes = [draw(st.integers(2, 12 // parts)) for _ in range(parts)]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = sum(sizes)
    labels = rng.sample(range(1, n + 1), n)
    edges = set()
    for start, size in zip(accumulate((0, *sizes)), sizes):
        part = labels[start:start + size]
        if size >= 3 and draw(st.booleans()):
            edges.update(zip(part, part[1:] + part[:1]))
        else:
            edges.update((part[i], rng.choice(part[:i])) for i in range(1, size))
    for _ in range(draw(st.integers(0, 3))):
        edges.add(tuple(rng.sample(labels, 2)))
    return Graph(n, {tuple(sorted(e)) for e in edges})


@given(joined_components())
@settings(max_examples=120, deadline=None)
def test_oracles_agree_with_reduced_on_joined_trees_and_cycles(g):
    assert tau_subsets(g) == tau_delcon(Multigraph.from_graph(g)) == tau_reduced(g, 1, 1)


def test_tau_delcon_complete_graph_k9():
    assert tau_delcon(Multigraph.from_graph(gen_complete(9))) == 9**7


def test_oracles_leave_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    path = build_graph(1500, [(i, i + 1) for i in range(1, 1500)])
    cycle = build_graph(300, [(i, i % 300 + 1) for i in range(1, 301)])
    for g, tau in ((path, 1), (cycle, 300)):
        assert tau_subsets(g) == tau
        assert tau_delcon(Multigraph.from_graph(g)) == tau
    assert sys.getrecursionlimit() == limit


def test_oracles_count_a_long_path_and_cycle():
    # a quadratic vertex ordering takes tens of seconds on the path
    path = Graph(20_000, [(i, i + 1) for i in range(1, 20_000)])
    cycle = Graph(1200, [(i, i % 1200 + 1) for i in range(1, 1201)])
    for g, tau in ((path, 1), (cycle, 1200)):
        assert tau_subsets(g) == tau
        assert tau_delcon(Multigraph.from_graph(g)) == tau


def test_multigraph_sorts_pairs_and_drops_loops_and_zeros():
    mg = Multigraph(3, Counter({(2, 1): 2, (1, 2): 1, (3, 3): 4, (2, 3): 0}))
    assert mg.edges == Counter({(1, 2): 3})
    assert tau_delcon(Multigraph(2, Counter({(1, 1): 1, (1, 2): 1}))) == 1
    assert tau_delcon(Multigraph(2, Counter({(1, 2): 0}))) == 0
    assert tau_delcon(Multigraph(3, Counter({(2, 1): 1, (3, 2): 2, (1, 2): 1}))) == 4


@pytest.mark.parametrize("n, edges", [
    (3, {(1, 2): -1}),
    (3, {(0, 1): 1}),
    (3, {(1, 4): 1}),
    (3, {(4, 4): 1}),
    (0, {}),
])
def test_multigraph_rejects_bad_input(n, edges):
    with pytest.raises(ValueError):
        Multigraph(n, Counter(edges))


@pytest.mark.parametrize("n, edges", [
    (3, {(1, 2): 1.5, (2, 3): 2}),
    (3, {(1, 2): 2.0}),
    (3, {(1, 2): "2"}),
    (3.0, {(1, 2): 1}),
    ("3", {}),
    (3, {(1.0, 2): 1}),
    (3, {(1, "2"): 1}),
])
def test_multigraph_rejects_non_int_counts_and_endpoints(n, edges):
    with pytest.raises(ValueError):
        Multigraph(n, Counter(edges))


def tau_by_labelled_edges(n, bundles):
    """Reference count for a multigraph given as (i, j, k) bundles: expand
    each into k labelled edges and test every (n-1)-subset with a fresh
    union-find.  A loop, or any edge that closes a cycle, rejects a subset;
    n - 1 edges without a cycle span all n vertices."""
    labelled = [(i, j) for i, j, k in bundles for _ in range(k)]
    count = 0
    for subset in combinations(labelled, n - 1):
        parent = list(range(n + 1))
        for i, j in subset:
            while parent[i] != i:
                i = parent[i]
            while parent[j] != j:
                j = parent[j]
            if i == j:
                break
            parent[i] = j
        else:
            count += 1
    return count


@st.composite
def multigraph_bundles(draw):
    """(n, bundles) with n <= 6 and bundles (i, j, k), k in 0..3.  Each
    vertex v > 1 has a bundle to an earlier vertex, so connected graphs are
    common; that bundle may have k = 0, and the extra bundles include loops,
    repeated pairs and both orders, so pendant vertices, isolated vertices
    and disconnected graphs all occur."""
    n = draw(st.integers(1, 6))
    vertex, mult = st.integers(1, n), st.integers(0, 3)
    tree = [(draw(st.integers(1, v - 1)), v, draw(mult)) for v in range(2, n + 1)]
    return n, tree + draw(st.lists(st.tuples(vertex, vertex, mult), max_size=6))


@given(multigraph_bundles())
@settings(max_examples=200, deadline=None)
def test_tau_delcon_matches_labelled_edge_enumeration(nb):
    n, bundles = nb
    edges = Counter()
    for i, j, k in bundles:
        edges[(i, j)] += k
    assert tau_delcon(Multigraph(n, edges)) == tau_by_labelled_edges(n, bundles)


FOUR_VERTEX_PAIRS = list(combinations(range(1, 5), 2))


def test_tau_delcon_counts_every_four_vertex_multigraph():
    """All 3^6 bundle vectors on four vertices, multiplicities 0-2: the
    connected ones that strip to four vertices end in the closed form, the
    rest strip further or are disconnected."""
    for mults in product(range(3), repeat=6):
        bundles = [(i, j, k) for (i, j), k in zip(FOUR_VERTEX_PAIRS, mults)]
        mg = Multigraph(4, Counter({(i, j): k for i, j, k in bundles}))
        assert tau_delcon(mg) == tau_by_labelled_edges(4, bundles), mults


FIVE_VERTEX_PAIRS = list(combinations(range(1, 6), 2))


def k5_trees():
    """The 125 labelled spanning trees of K5, decoded from their Pruefer
    sequences, each as a list of four sorted pairs."""
    trees = []
    for code in product(range(1, 6), repeat=3):
        degree = [1] * 6
        for v in code:
            degree[v] += 1
        tree = []
        for v in code:
            leaf = min(u for u in range(1, 6) if degree[u] == 1)
            tree.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        tree.append(tuple(u for u in range(1, 6) if degree[u] == 1))
        trees.append(tree)
    return trees


K5_TREES = k5_trees()


def tau_by_k5_trees(mults):
    """Spanning trees of a five-vertex multigraph with mults[i] copies of
    FIVE_VERTEX_PAIRS[i]: the product of the copies over each tree of K5."""
    k = dict(zip(FIVE_VERTEX_PAIRS, mults))
    return sum(math.prod(k[e] for e in tree) for tree in K5_TREES)


def test_tau_delcon_counts_every_five_vertex_simple_graph():
    """All 2^10 bundle vectors on five vertices, multiplicities 0-1: those
    with every degree at least 2 end in the five-vertex closed form at once,
    and those with an isolated vertex or two components count 0.  This also
    checks the K5 tree sum that the multigraph test below relies on."""
    zeros = 0
    for mults in product(range(2), repeat=10):
        bundles = [(i, j, k) for (i, j), k in zip(FIVE_VERTEX_PAIRS, mults)]
        tau = tau_delcon(Multigraph(5, Counter({(i, j): k for i, j, k in bundles})))
        assert tau == tau_by_labelled_edges(5, bundles) == tau_by_k5_trees(mults), mults
        zeros += tau == 0
    assert zeros == 1024 - 728  # 728 connected labelled graphs on five vertices


@given(st.lists(st.integers(0, 3), min_size=10, max_size=10))
@settings(max_examples=300, deadline=None)
def test_tau_delcon_counts_five_vertex_multigraphs(mults):
    mg = Multigraph(5, Counter(dict(zip(FIVE_VERTEX_PAIRS, mults))))
    assert tau_delcon(mg) == tau_by_k5_trees(mults)


@pytest.mark.parametrize("mults", [(1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 0, 3), (1, 0, 1, 1, 0, 1)])
@pytest.mark.parametrize("k", [1, 2])
def test_tau_delcon_counts_zero_with_a_stranded_fifth_vertex(mults, k):
    """A K4, diamond or 4-cycle on 1..4 beside a bundle 5-6: stripping 5
    (or 6) leaves five vertices, one of them without a bundle."""
    edges = Counter(dict(zip(FOUR_VERTEX_PAIRS, mults)))
    edges[(5, 6)] = k
    assert tau_delcon(Multigraph(6, edges)) == 0


@pytest.mark.parametrize("missing", range(10))
def test_last_levels_counts_five_components_with_one_pair_empty(missing):
    """Five components of a partial forest, with 1-3 edges between each
    pair but one and edges inside components, which complete nothing:
    against every 4-subset of the edges ahead."""
    components = [(1, 2), (3, 4), (5, 6, 7), (8, 9), (10, 11)]
    parent = [0, 1, 1, 3, 3, 5, 5, 5, 8, 8, 10, 10]
    edges = [(1, 2), (5, 7), (6, 7)]
    for i, (p, q) in enumerate(combinations(components, 2)):
        if i != missing:
            edges += list(product(p, q))[:1 + i % 3]
    root = {v: c for c, part in enumerate(components) for v in part}
    expected = 0
    for subset in combinations(edges, 4):
        links = {(root[a], root[b]) for a, b in subset if root[a] != root[b]}
        reach = {0}
        for _ in range(4):
            reach |= {b for a, b in links if a in reach} | {a for a, b in links if b in reach}
        expected += len(links) == 4 and len(reach) == 5
    assert expected > 0
    assert _last_levels(edges, 0, parent, 4) == expected


@st.composite
def small_sparse_graphs(draw):
    """Graphs on 6-9 vertices: a random tree, perhaps missing an edge, plus
    0-5 random edges, relabelled at random.  At most n + 4 edges keeps the
    literal enumeration to C(13, 8) = 1287 subsets."""
    n = draw(st.integers(6, 9))
    rng = random.Random(draw(st.integers(0, 2**32)))
    labels = rng.sample(range(1, n + 1), n)
    edges = {(labels[v], labels[rng.randrange(v)]) for v in range(1, n)}
    if draw(st.booleans()):
        edges.remove(rng.choice(sorted(edges)))
    for _ in range(draw(st.integers(0, 5))):
        edges.add(tuple(rng.sample(labels, 2)))
    return Graph(n, {tuple(sorted(e)) for e in edges})


@given(small_sparse_graphs())
@settings(max_examples=100, deadline=None)
def test_oracles_match_literal_enumeration_on_small_sparse_graphs(g):
    expected = tau_by_literal_enumeration(g)
    assert tau_subsets(g) == expected
    assert tau_delcon(Multigraph.from_graph(g)) == expected


def degeneracy_rank_by_scan(n, pairs):
    """Reference for _degeneracy_rank: scan every vertex not yet taken for
    the fewest neighbours not yet taken, the smallest label on ties."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    rank = [0] * (n + 1)
    for taken in range(1, n + 1):
        v = min(adj, key=lambda v: (len(adj[v]), v))
        rank[v] = taken
        for w in adj.pop(v):
            adj[w].discard(v)
    return rank


@given(st.integers(1, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] < e[1])))))
@settings(max_examples=200, deadline=None)
def test_degeneracy_rank_takes_a_vertex_of_fewest_neighbours_left(graph):
    n, pairs = graph
    rank = _degeneracy_rank(n, pairs)
    assert rank[0] == 0 and sorted(rank[1:]) == list(range(1, n + 1))
    assert rank == degeneracy_rank_by_scan(n, pairs)


@st.composite
def split_vertex_multigraphs(draw):
    """(n, bundles) on 4-8 vertices: a vertex v with exactly two or three
    bundles, 1-3 copies each, and among the other vertices, v's neighbours
    included, a cycle in random order plus random bundles of 1-2 copies,
    so that most states keep six vertices after stripping and reach a
    split.  Random bundles are dropped from the end until there are at most
    20 labelled edges, which keeps the reference to C(20, 7) = 77520
    subsets."""
    n = draw(st.integers(4, 8))
    v = draw(st.integers(1, n))
    others = draw(st.permutations([u for u in range(1, n + 1) if u != v]))
    nbrs = draw(st.lists(st.sampled_from(others), min_size=2, max_size=3, unique=True))
    bundles = [(v, u, draw(st.integers(1, 3))) for u in nbrs]
    bundles += [(u, w, 1) for u, w in zip(others, others[1:] + others[:1])]
    pair = st.lists(st.sampled_from(others), min_size=2, max_size=2, unique=True)
    rest = [(i, j, k) for (i, j), k in draw(st.lists(st.tuples(pair, st.integers(1, 2)), max_size=n))]
    while rest and sum(k for _, _, k in bundles + rest) > 20:
        rest.pop()
    return n, bundles + rest


@given(split_vertex_multigraphs())
@settings(max_examples=150, deadline=None)
def test_tau_delcon_splits_a_vertex_of_two_or_three_bundles(nb):
    n, bundles = nb
    edges = Counter()
    for i, j, k in bundles:
        edges[(i, j)] += k
    assert tau_delcon(Multigraph(n, edges)) == tau_by_labelled_edges(n, bundles)


def subdivided_k4():
    """K4 with vertex 5 + i in the middle of its i-th edge."""
    return [(e[side], 5 + i, 1) for i, e in enumerate(FOUR_VERTEX_PAIRS) for side in (0, 1)]


# a weighted triangle 2-3-4 (x = 2, y = 1, z = 3 copies on 23, 34, 24)
WEIGHTED_TRIANGLE = [(2, 3, 2), (3, 4, 1), (2, 4, 3)]
SPLIT_CASES = {
    "K4": (4, [(a, b, 1) for a, b in FOUR_VERTEX_PAIRS], 16),
    # each of K4's 16 trees, and either half of each of the three edges it leaves out
    "K4 with every edge subdivided": (10, subdivided_k4(), 16 * 2**3),
    # vertex 1 with a, b, c = 1, 2, 3 copies to 2, 3, 4: the split's five parts,
    # (a + b + c)(xy + yz + zx) + ab(y + z) + bc(x + z) + ac(x + y) + abc
    "a three-bundle vertex on a weighted triangle": (
        4, WEIGHTED_TRIANGLE + [(1, 2, 1), (1, 3, 2), (1, 4, 3)], 6 * 11 + 2 * 4 + 6 * 5 + 3 * 3 + 6
    ),
    "three three-bundle vertices on a weighted triangle": (
        6,
        WEIGHTED_TRIANGLE + [(1, 2, 1), (1, 3, 2), (1, 4, 3), (5, 2, 2), (5, 3, 1), (5, 4, 1),
                             (6, 2, 1), (6, 3, 1), (6, 4, 2)],
        3334,
    ),
}


@pytest.mark.parametrize("n, bundles, tau", SPLIT_CASES.values(), ids=SPLIT_CASES)
def test_tau_delcon_split_cases(n, bundles, tau):
    """Six or more vertices that strip to nothing smaller reach a split: the
    subdivided K4 splits at its two-bundle vertices, and the last case at
    one of its three-bundle vertices."""
    edges = Counter({(i, j): k for i, j, k in bundles})
    assert tau_by_labelled_edges(n, bundles) == tau
    assert tau_delcon(Multigraph(n, edges)) == tau
