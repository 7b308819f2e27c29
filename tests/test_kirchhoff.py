import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from treecount import (
    Bipartition,
    BoundAbovePrimesError,
    Graph,
    IndexOutOfRangeError,
    IsolatedColumnVertexError,
    NotBipartitionError,
    ZeroVectorSumError,
    add_outer_product,
    adjugate,
    build_graph,
    check_bipartition,
    cli,
    det_int,
    det_rat,
    find_bipartition,
    gen_complete,
    gen_complete_bipartite,
    gen_ferrers,
    kirchhoff,
    linalg,
    oracle,
    parse_family,
    s_matrix,
    tau,
    tau_bipartite_schur,
    tau_rank_one,
    tau_reduced,
    tau_subsets,
    tau_temperley,
)

from conftest import random_connected_graph, random_graph


def small_corpus(seed, count, n_max=7, allow_disconnected=False):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(2, n_max)
        p = rng.uniform(0.3, 0.8)
        if allow_disconnected:
            graphs.append(random_graph(rng, n, p))
        else:
            graphs.append(random_connected_graph(rng, n, p))
    return graphs


def test_tau_reduced_worked_example(diamond):
    assert tau_reduced(diamond, 3, 2) == 8
    assert tau_reduced(build_graph(1, []), 1, 1) == 1
    assert tau_reduced(build_graph(4, [(1, 2), (3, 4)]), 1, 1) == 0


def test_tau_reduced_index_invariance():
    for g in small_corpus(seed=101, count=8):
        values = {
            tau_reduced(g, row, col)
            for row in range(1, g.n + 1)
            for col in range(1, g.n + 1)
        }
        assert len(values) == 1


def test_tau_reduced_index_errors(diamond):
    for row, col in [(0, 1), (1, 0), (5, 1), (1, 5), (0, 5), (5, 5)]:
        with pytest.raises(IndexOutOfRangeError):
            tau_reduced(diamond, row, col)
    with pytest.raises(IndexOutOfRangeError):
        tau_reduced(build_graph(1, []), 2, 1)


def test_laplacian_rows_are_the_only_matrix_the_methods_build():
    """No counting method calls Graph.laplacian: the Laplacian routes build
    their matrices on Graph.laplacian_rows, and every matrix they hand
    minor_matrix is made of dict rows, so no dense n x n Laplacian is built
    on the way to a kernel."""
    fam = parse_family("bipartite:3,4")
    every, determinants = list(cli.METHODS), ["reduced", "rankone", "temperley", "schur"]
    cases = [
        (fam.graph(), fam, every),
        (build_graph(1, []), None, every),
        (build_graph(5, [(1, 2), (3, 4)]), None, every),
        (Graph(40, [(i, i % 40 + 1) for i in range(1, 41)]), None, determinants),  # modular kernels
        (gen_complete(40), None, determinants),  # L + J unbordered
        (random_graph(random.Random(5), 35, 0.3), None, determinants),  # Bareiss
    ]
    expected = [tau_reduced(g, 1, 1) for g, _, _ in cases]
    with (
        mock.patch.object(Graph, "laplacian") as laplacian,
        mock.patch.object(linalg, "minor_matrix", wraps=linalg.minor_matrix) as minor_matrix,
    ):
        for (g, family, methods), value in zip(cases, expected):
            assert tau(g) == value
            assert {tau_reduced(g, g.n, 1), tau_reduced(g, 1, g.n)} == {value}
            for method in methods:
                try:
                    assert cli.METHODS[method](g, family) == value, method
                except cli.MethodUnavailableError:
                    pass
    assert laplacian.call_count == 0
    assert minor_matrix.call_count > 0
    for call in minor_matrix.call_args_list:
        assert all(isinstance(row, dict) for row in call.args[0])


def test_laplacian_routes_size_the_prime_by_the_count_bound(monkeypatch):
    """tau_reduced hands det_int the degree product B_r and tau_temperley
    n^2 B_1, the bounds _count checks, and the prime the symmetric kernel
    receives is the smallest tabled one above twice that bound, in whole
    30-bit digits: 6 and 6 digits on the 150-cycle, 9 and 10 on the 12 x 12
    grid, where the Hadamard bound and the 32-bit table gave 8 and 8, and
    11 and 11."""
    primes, bounds = [], []
    real_symmetric, real_det_int = linalg._det_symmetric, linalg.det_int
    monkeypatch.setattr(linalg, "_det_symmetric", lambda rows, p: primes.append(p) or real_symmetric(rows, p))
    monkeypatch.setattr(linalg, "det_int", lambda m, bound: bounds.append(bound) or real_det_int(m, bound=bound))
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)])
    grid = Graph(144, [(v, v + 1) for v in range(1, 144) if v % 12] + [(v, v + 12) for v in range(1, 133)])
    for g, digits in ((cycle, [6, 6]), (grid, [9, 10])):
        primes.clear()
        bounds.clear()
        assert tau_reduced(g, 1, 1) == tau_temperley(g) > 0
        b = kirchhoff._degree_bound(g, 1)
        assert bounds == [b, g.n**2 * b]
        assert primes == [linalg.prime_above(2 * bound) for bound in bounds]
        assert [-(-p.bit_length() // 30) for p in primes] == digits


def test_each_laplacian_count_reaches_the_kernels_through_one_public_call():
    """reduced, rankone and temperley each call linalg.det_int exactly once
    per count, on a sparse graph whose matrices take a modular kernel and on
    a small one whose matrices take Bareiss elimination; schur calls
    linalg.det_mod once and det_int never.  The rank-one routes reach
    det_int through det_perturbed, so a tracer that wraps det_int sees
    their kernel time.  Each of the four ends in one call of
    kirchhoff._count, the checked tail."""
    grid = Graph(36, [(v, v + 1) for v in range(1, 36) if v % 6] + [(v, v + 6) for v in range(1, 31)])  # 6 x 6
    cube = Graph(8, [(v + 1, (v | bit) + 1) for v in range(8) for bit in (1, 2, 4) if not v & bit])  # Q3
    for g, expected in ((grid, 32565539635200), (cube, 384)):
        for method, det_int_calls, det_mod_calls in (
            ("reduced", 1, 0),
            ("rankone", 1, 0),
            ("temperley", 1, 0),
            ("schur", 0, 1),
        ):
            with (
                mock.patch.object(linalg, "det_int", wraps=linalg.det_int) as det_int_spy,
                mock.patch.object(linalg, "det_mod", wraps=linalg.det_mod) as det_mod_spy,
                mock.patch.object(kirchhoff, "_count", wraps=kirchhoff._count) as count_spy,
            ):
                assert cli.METHODS[method](g, None) == expected, method
            assert (det_int_spy.call_count, det_mod_spy.call_count) == (det_int_calls, det_mod_calls), method
            assert count_spy.call_count == 1, method


# route -> (the kernel its determinant comes from, the count, the scale
# relating the two on the 5-vertex graphs below); each bounds tau by B_1
TAIL_ROUTES = {
    "reduced": ("det_int", lambda g: tau_reduced(g, 1, 2), -1),
    "rankone": ("det_perturbed", lambda g: tau_rank_one(g, [2, 0, 1, 0, 0], [0, 3, 0, 0, 0]), 9),
    "temperley": ("det_perturbed", tau_temperley, 25),
}


@pytest.mark.parametrize("route", TAIL_ROUTES)
def test_count_tail_refuses_a_determinant_off_the_scale_or_above_the_bound(route):
    """A determinant of scale * bound gives the bound; one of
    scale * (bound + 1), or of scale times a negative count, or one that
    scale does not divide, is an assertion failure."""
    kernel, count, scale = TAIL_ROUTES[route]
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])  # 5-cycle and a chord
    bound = kirchhoff._degree_bound(g, 1)
    assert count(g) == tau_subsets(g) == 11 < bound == 24
    with mock.patch.object(linalg, kernel, return_value=scale * bound):
        assert count(g) == bound
    wrong = [scale * (bound + 1), -scale]
    if abs(scale) > 1:
        wrong.append(scale * 11 + 1)
    for det in wrong:
        with mock.patch.object(linalg, kernel, return_value=det), pytest.raises(AssertionError):
            count(g)


def test_degree_bound_of_a_star_is_one_at_its_centre():
    for leaves in range(6):
        star = gen_complete_bipartite(1, leaves) if leaves else build_graph(1, [])
        assert kirchhoff._degree_bound(star, 1) == tau_reduced(star, 1, 1) == 1
        assert all(kirchhoff._degree_bound(star, leaf) == leaves for leaf in range(2, leaves + 2))


def test_tau_rank_one_examples(diamond):
    ones = [1, 1, 1, 1]
    assert tau_rank_one(diamond, ones, ones) == 8
    # indicator vectors reproduce a single cofactor
    assert tau_rank_one(diamond, [1, 0, 0, 0], [0, 0, 1, 0]) == 8
    for n in range(2, 7):
        k = gen_complete(n)
        assert tau_rank_one(k, [1] * n, [1] * n) == n ** (n - 2)


def test_tau_rank_one_zero_sum_rejected(diamond):
    with pytest.raises(ZeroVectorSumError):
        tau_rank_one(diamond, [1, -1, 0, 0], [1, 1, 1, 1])
    with pytest.raises(ZeroVectorSumError):
        tau_rank_one(diamond, [1, 1, 1, 1], [0, 0, 0, 0])


def test_tau_rank_one_divisibility_and_independence_of_vectors():
    rng = random.Random(2718)
    for g in small_corpus(seed=99, count=6):
        expected = tau_temperley(g)
        for _ in range(10):
            u = [rng.randint(-3, 3) for _ in range(g.n)]
            v = [rng.randint(-3, 3) for _ in range(g.n)]
            if sum(u) == 0 or sum(v) == 0:
                continue
            assert tau_rank_one(g, u, v) == expected


def test_rank_one_indicator_vectors_reproduce_reduced():
    # u = indicator of the deleted column's vertex, v = of the deleted row's
    for g in small_corpus(seed=313, count=5, n_max=6):
        for row in range(1, g.n + 1):
            for col in range(1, g.n + 1):
                u = [1 if i == col else 0 for i in range(1, g.n + 1)]
                v = [1 if i == row else 0 for i in range(1, g.n + 1)]
                assert tau_rank_one(g, u, v) == tau_reduced(g, row, col)


def test_tau_temperley_examples(diamond):
    assert tau_temperley(diamond) == 8
    assert tau_temperley(gen_complete(5)) == 125 == tau_subsets(gen_complete(5))
    assert tau_temperley(build_graph(2, [])) == 0
    assert tau_temperley(build_graph(1, [])) == 1


def test_cofactor_constancy():
    for g in small_corpus(seed=55, count=6):
        expected = tau(g)
        adj = adjugate(g.laplacian())
        assert adj == [[expected] * g.n for _ in range(g.n)]


def test_laplacian_always_singular():
    for g in small_corpus(seed=77, count=10, allow_disconnected=True):
        assert det_int(g.laplacian()) == 0


def test_tau_zero_iff_disconnected():
    for g in small_corpus(seed=88, count=20, allow_disconnected=True):
        if g.is_connected():
            assert tau(g) > 0
        else:
            assert tau(g) == 0


def test_check_bipartition_valid_and_invalid():
    g = gen_complete_bipartite(2, 2)
    check_bipartition(g, Bipartition((1, 2), (3, 4)))
    with pytest.raises(NotBipartitionError):
        check_bipartition(g, Bipartition((1, 3), (2, 4)))  # edge inside a side
    with pytest.raises(NotBipartitionError):
        check_bipartition(g, Bipartition((1, 2), (3,)))  # does not cover
    with pytest.raises(NotBipartitionError):
        check_bipartition(g, Bipartition((1, 2, 3), (3, 4)))  # overlap
    with pytest.raises(NotBipartitionError):
        check_bipartition(g, Bipartition((1, 2, 2), (3, 4)))  # repeat


def test_find_bipartition():
    assert find_bipartition(gen_complete(3)) is None
    bp = find_bipartition(gen_complete_bipartite(2, 3))
    assert bp == Bipartition((1, 2), (3, 4, 5))
    # isolated vertices land on the row side
    bp = find_bipartition(build_graph(3, [(1, 2)]))
    assert bp == Bipartition((1, 3), (2,))


def dfs_bipartition(g):
    """The reference two-colouring: a depth-first search from each smallest
    uncoloured vertex that stops at the first edge inside one colour."""
    color = {}
    for start in range(1, g.n + 1):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    rows = tuple(v for v in range(1, g.n + 1) if color[v] == 0)
    cols = tuple(v for v in range(1, g.n + 1) if color[v] == 1)
    return Bipartition(rows, cols)


@st.composite
def graphs_of_several_components(draw):
    """Graphs on at most 10 vertices, often with isolated vertices and several
    components; half of them keep only the edges across a random split of
    the vertices, so that they are bipartite."""
    n = draw(st.integers(1, 10))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    if draw(st.booleans()):
        side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        edges = [(i, j) for i, j in edges if side[i - 1] != side[j - 1]]
    return Graph(n, edges)


@given(graphs_of_several_components())
@settings(max_examples=300, deadline=None)
def test_find_bipartition_matches_the_depth_first_reference(g):
    assert find_bipartition(g) == dfs_bipartition(g)


@st.composite
def graphs_on_any_edges(draw):
    """Graphs on at most 8 vertices with any edge set, so dense, sparse,
    disconnected and with isolated vertices."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return Graph(n, [pair for pair in pairs if draw(st.booleans())])


@given(st.one_of(graphs_on_any_edges(), graphs_of_several_components()))
@settings(max_examples=200, deadline=None)
def test_tree_count_is_at_most_the_degree_product_at_every_root(g):
    count = oracle.tau_delcon(oracle.Multigraph.from_graph(g))
    for root in range(1, g.n + 1):
        assert count <= kirchhoff._degree_bound(g, root)


def test_s_matrix_ferrers_is_upper_triangular_with_degree_diagonal():
    g = gen_ferrers([4, 4, 3, 2, 1])
    bp = Bipartition((1, 2, 3, 4, 5), (6, 7, 8, 9))
    s = s_matrix(g, bp)
    assert [s[i][i] for i in range(5)] == [4, 4, 3, 2, 1]
    for i in range(5):
        for j in range(i):
            assert s[i][j] == 0


def test_s_matrix_star_and_four_cycle():
    star = gen_complete_bipartite(1, 4)
    assert s_matrix(star, Bipartition((1,), (2, 3, 4, 5))) == [[Fraction(4)]]
    square = gen_complete_bipartite(2, 2)
    assert s_matrix(square, Bipartition((1, 2), (3, 4))) == [
        [Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(2)],
    ]


def test_s_matrix_isolated_column_vertex_rejected():
    g = build_graph(3, [(1, 2)])
    s_matrix(g, Bipartition((1, 3), (2,)))  # fine: the only column has degree 1
    # with the sides swapped, vertex 3 is a degree-0 column
    with pytest.raises(IsolatedColumnVertexError):
        s_matrix(g, Bipartition((2,), (1, 3)))


def test_s_matrix_agrees_with_generic_schur_complement():
    # shift the Laplacian by the column-side/row-side outer product, then
    # take the Schur complement A - B D^-1 C of the trailing column block;
    # no edge joins two column vertices, so D is diag(column degrees)
    cases = [
        gen_complete_bipartite(2, 3),
        gen_complete_bipartite(3, 3),
        gen_ferrers([4, 4, 3, 2, 1]),
        gen_ferrers([3, 1, 1]),
    ]
    for g in cases:
        bp = find_bipartition(g)
        m = len(bp.rows)
        assert bp.rows == tuple(range(1, m + 1))
        u = [0] * m + [1] * len(bp.cols)
        v = [1] * m + [0] * len(bp.cols)
        shifted = add_outer_product(g.laplacian(), u, v)
        a = [row[:m] for row in shifted[:m]]
        b = [row[m:] for row in shifted[:m]]
        c = [row[:m] for row in shifted[m:]]
        d = [row[m:] for row in shifted[m:]]
        degrees = [g.degree(col) for col in bp.cols]
        assert d == [[deg if k == t else 0 for k in range(len(d))] for t, deg in enumerate(degrees)]
        schur = [
            [a[i][j] - sum(Fraction(b[i][t] * c[t][j], degrees[t]) for t in range(len(d))) for j in range(m)]
            for i in range(m)
        ]
        assert schur == s_matrix(g, bp)


def test_tau_bipartite_schur_examples():
    g = gen_ferrers([4, 4, 3, 2, 1])
    assert tau_bipartite_schur(g, find_bipartition(g)) == 576
    k23 = gen_complete_bipartite(2, 3)
    assert tau_bipartite_schur(k23, Bipartition((1, 2), (3, 4, 5))) == 12
    assert tau_subsets(k23) == 12
    single_edge = gen_complete_bipartite(1, 1)
    assert tau_bipartite_schur(single_edge, Bipartition((1,), (2,))) == 1


def test_tau_bipartite_schur_empty_side_rejected():
    g = build_graph(1, [])
    with pytest.raises(NotBipartitionError):
        tau_bipartite_schur(g, Bipartition((1,), ()))
    with pytest.raises(NotBipartitionError):
        tau_bipartite_schur(g)


def test_tau_bipartite_schur_finds_the_bipartition_when_none_given():
    assert tau_bipartite_schur(gen_ferrers([4, 4, 3, 2, 1])) == 576
    assert tau_bipartite_schur(gen_complete_bipartite(2, 3)) == 12
    with pytest.raises(NotBipartitionError):
        tau_bipartite_schur(gen_complete(3))  # odd cycle


def test_tau_bipartite_schur_and_s_matrix_check_a_given_bipartition():
    square = build_graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert tau_bipartite_schur(square, Bipartition((1, 2), (3, 4))) == 4
    for bad in [
        Bipartition((1, 3), (2, 4)),  # edge inside a side
        Bipartition((1, 2), (3,)),  # does not cover
        Bipartition((1, 2, 3), (3, 4)),  # overlap
    ]:
        with pytest.raises(NotBipartitionError):
            tau_bipartite_schur(square, bad)
        with pytest.raises(NotBipartitionError):
            s_matrix(square, bad)


def random_bipartite(seed, r, c, p):
    rng = random.Random(seed)
    edges = {(i, r + j) for i in range(1, r + 1) for j in range(1, c + 1) if rng.random() < p}
    edges |= {(rng.randint(1, r), r + j) for j in range(1, c + 1)}
    return Graph(r + c, edges), Bipartition(tuple(range(1, r + 1)), tuple(range(r + 1, r + c + 1)))


@st.composite
def bipartite_graphs(draw):
    """(g, bp): rows 1..r and columns r+1..r+c, every column on at least
    one edge; rows may be isolated, so some graphs are disconnected.  About
    half have 30 to 40 rows."""
    r = draw(st.one_of(st.integers(1, 12), st.integers(30, 40)))
    c = draw(st.integers(1, 25))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    return random_bipartite(draw(st.integers(0, 2**32)), r, c, p)


def rational_schur(g, bp):
    """The reduction counted over the rationals: the reference side."""
    deg_product = 1
    for c in bp.cols:
        deg_product *= g.degree(c)
    return deg_product * det_rat(s_matrix(g, bp)) / (len(bp.rows) * len(bp.cols))


@given(bipartite_graphs())
@settings(max_examples=40, deadline=None)
def test_bipartite_schur_matches_reduced_and_the_rational_reduction(gbp):
    g, bp = gbp
    assert tau_bipartite_schur(g, bp) == tau_reduced(g, 1, 1) == rational_schur(g, bp)


def test_bipartite_schur_at_thirty_rows_and_more():
    for seed, (r, c, p) in enumerate([(30, 20, 0.3), (35, 12, 0.5), (40, 25, 0.25)]):
        g, bp = random_bipartite(seed, r, c, p)
        value = tau_bipartite_schur(g, bp)
        assert value > 0
        assert value == tau_reduced(g, 1, 1) == rational_schur(g, bp)


def test_bipartite_schur_self_check_catches_a_wrong_reciprocal(monkeypatch):
    """1/(deg(c) + 1) in place of any one 1/deg(c) makes the count over the
    rationals a non-integer, whose residue exceeds the degree-product
    bound: the self-check raises."""
    g, bp = random_bipartite(0, 8, 6, 0.5)
    assert tau_bipartite_schur(g, bp) == tau_reduced(g, 1, 1) > 0
    primes = []
    real_prime_above, real_reduction = linalg.prime_above, kirchhoff._reduction
    monkeypatch.setattr(linalg, "prime_above", lambda bound: primes.append(real_prime_above(bound)) or primes[-1])
    for c in bp.cols:

        def perturbed(g, bp, reciprocal, c=c):
            return real_reduction(g, bp, {**reciprocal, c: pow(g.degree(c) + 1, -1, primes[-1])})

        with mock.patch.object(kirchhoff, "_reduction", perturbed), pytest.raises(AssertionError):
            tau_bipartite_schur(g, bp)


def test_bipartite_schur_bound_above_the_primes(monkeypatch):
    monkeypatch.setattr(linalg, "PRIMES", ((64, 59),))
    with pytest.raises(BoundAbovePrimesError):
        tau_bipartite_schur(gen_complete_bipartite(1, 1))


def test_method_agreement_on_random_corpus(diamond):
    corpus = [diamond] + small_corpus(seed=404, count=10)
    for g in corpus:
        reference = tau_subsets(g)
        assert tau_reduced(g, 1, 1) == reference
        assert tau_temperley(g) == reference
        u = [1] * g.n
        v = [0] * g.n
        v[-1] = 1
        assert tau_rank_one(g, u, v) == reference
        bp = find_bipartition(g)
        if bp is not None and bp.rows and bp.cols:
            assert tau_bipartite_schur(g, bp) == reference


def test_tau_dispatcher(diamond):
    assert tau(diamond) == 8
    assert tau(gen_complete(4)) == 16
    path = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert tau(path) == 1
