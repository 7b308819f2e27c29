import random
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from treecount import (
    DimensionMismatchError,
    Graph,
    IndexOutOfRangeError,
    add_outer_product,
    adjugate,
    det_int,
    det_mod,
    det_perturbed,
    det_rat,
    minor_matrix,
    tau_rank_one,
)
from treecount import linalg
from treecount.linalg import (
    PRIMES,
    LinalgError,
    _det_bareiss,
    _det_modular,
    _det_symmetric,
    _hadamard_bound,
    prime_above,
)

from conftest import DIAMOND_EDGES, random_graph


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
    # unequal denominators in one row, and an all-zero row
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    assert det_rat([[half, third], [sixth, Fraction(3, 4)]]) == Fraction(3, 8) - Fraction(1, 18)
    assert det_rat([[half, third, 1], [0, 0, 0], [sixth, 2, Fraction(5, 7)]]) == 0
    with pytest.raises(DimensionMismatchError):
        det_rat([[half, 1], [1]])


rational_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(rational_matrices)
@settings(max_examples=80, deadline=None)
def test_det_rat_matches_naive_expansion(m):
    assert det_rat(m) == det_naive(m)


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


def sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def det_modular(m):
    """_det_modular with the prime det_int would pick for m."""
    rows = sparse_rows(m)
    return _det_modular(rows, prime_above(2 * _hadamard_bound(rows)))


@st.composite
def degenerate_matrices(draw):
    """Square matrices, some made singular by a zero row or a repeated row."""
    m = draw(square_matrices)
    if len(m) >= 2:
        kind = draw(st.sampled_from(["none", "zero", "repeat"]))
        if kind == "zero":
            m[0] = [0] * len(m)
        elif kind == "repeat":
            m[0] = list(m[1])
    return m


@given(degenerate_matrices())
@settings(max_examples=300, deadline=None)
def test_det_modular_matches_naive_expansion(m):
    assert det_modular(m) == det_naive(m)


# Lazy reduction works modulo any prime: Mersenne primes 2^k - 1, primes
# 2^k - c with c > 1 like the tabled ones (13 = 2^4 - 3, 61 = 2^6 - 3,
# 251 = 2^8 - 5), and primes of neither form.
SMALL_PRIMES = [3, 7, 31, 127, 13, 61, 251, 2, 5, 11]


@given(degenerate_matrices(), st.sampled_from(SMALL_PRIMES))
@settings(max_examples=300, deadline=None)
def test_det_modular_residue_for_small_mersenne_primes(m, p):
    # With a tiny prime, many stored entries are 0 mod p without being 0,
    # so pivots must be reduced before use; the result is still det mod p.
    residue = _det_modular(sparse_rows(m), p)
    assert (residue - det_naive(m)) % p == 0
    assert abs(residue) <= p // 2


@st.composite
def degenerate_symmetric_matrices(draw):
    """Symmetric matrices, some made singular by a zero row and column or
    by a repeated row and column."""
    m = draw(square_matrices)
    n = len(m)
    m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if n >= 2:
        kind = draw(st.sampled_from(["none", "zero", "repeat"]))
        for i in range(n):
            if kind == "zero":
                m[0][i] = m[i][0] = 0
            elif kind == "repeat":
                m[0][i] = m[i][0] = m[1][i] if i else m[1][1]
    return m


@given(degenerate_symmetric_matrices(), st.sampled_from(SMALL_PRIMES))
@settings(max_examples=300, deadline=None)
def test_det_symmetric_residue_for_small_primes(m, p):
    # Tiny primes make diagonal residues 0 often, so most examples hand a
    # block to _det_modular, from the sparse loop or the dense tail.
    residue = _det_symmetric(sparse_rows(m), p)
    assert (residue - det_naive(m)) % p == 0
    assert abs(residue) <= p // 2


@given(st.integers(20, 60), st.integers(2, 4), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_det_modular_matches_bareiss_on_sparse_nonsymmetric(n, per_row, seed):
    rng = random.Random(seed)
    m = [[0] * n for _ in range(n)]
    for row in m:
        for j in rng.sample(range(n), per_row):
            row[j] = rng.randint(-(10**9), 10**9)
        row[rng.randrange(n)] = rng.randint(1, 10**9)  # keeps most matrices nonsingular
    assert det_modular(m) == _det_bareiss(m)


def test_prime_above():
    assert prime_above(0) == 2**60 - 93
    assert prime_above(2**60 - 94) == 2**60 - 93
    assert prime_above(2**60 - 93) == 2**90 - 33
    assert prime_above(2**130) == 2**150 - 3
    # the seam between the pseudo-Mersenne primes and the Mersenne primes
    assert prime_above(2**1260 - 36) == 2**1260 - 35
    assert prime_above(2**1260 - 35) == 2**1279 - 1
    assert prime_above(2**1279 - 2) == 2**1279 - 1
    assert prime_above(2**1279 - 1) == 2**2203 - 1
    # the ceiling
    assert prime_above(2**44497 - 2) == 2**44497 - 1
    assert prime_above(2**44497 - 1) is None


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_table():
    ks = [k for k, _ in PRIMES]
    assert ks == sorted(set(ks))
    pseudo = [(k, c) for k, c in PRIMES if k <= 1260]
    # whole 30-bit digits of a Python int
    assert [k for k, _ in pseudo] == list(range(60, 1261, 30))
    for k, c in PRIMES:
        assert 0 < c
        assert c == 1 or k <= 1260
    # The Mersenne entries above 1260 are known primes; Miller-Rabin on
    # them would take seconds.
    for k, c in pseudo:
        assert is_probable_prime((1 << k) - c), (k, c)
    # the test itself rejects composites: 2^64 - 57 = 41 * 163 * 269 * 8807 *
    # 1165112831, and the Carmichael number 561
    assert not is_probable_prime(2**64 - 57)
    assert not is_probable_prime(561)


def test_hadamard_bound_covers_determinant():
    m = [[3, -1, 0], [-1, 3, -1], [0, -1, 3]]
    assert abs(det_int(m)) <= _hadamard_bound(sparse_rows(m)) - 1
    assert _hadamard_bound(sparse_rows([[0, 0], [1, 1]])) == 1


def spy_kernels(monkeypatch):
    """Record, in order, the names of the kernels det_int calls."""
    used = []

    def spy(name):
        real = getattr(linalg, name)

        def kernel(*args):
            used.append(name)
            return real(*args)

        return kernel

    for name in ("_det_bareiss", "_det_modular", "_det_symmetric"):
        monkeypatch.setattr(linalg, name, spy(name))
    return used


def test_det_int_kernel_choice(monkeypatch):
    used = spy_kernels(monkeypatch)
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)]).laplacian()
    assert det_int(minor_matrix(cycle, 1, 1)) == 150
    assert det_int(minor_matrix(cycle, 1, 2)) == -150  # not symmetric
    ones = [1] * 150
    assert det_int(add_outer_product(cycle, ones, ones)) == 150**3  # dense, symmetric
    assert det_int(identity(9)) == 1
    rng = random.Random(5)
    ten_per_row = [[0] * 40 for _ in range(40)]
    for row in ten_per_row:
        for j in rng.sample(range(40), 10):
            row[j] = rng.choice([-1, 1]) * rng.randint(1, 9)
    assert ten_per_row != [list(col) for col in zip(*ten_per_row)]  # not symmetric
    assert det_int(ten_per_row) == _det_bareiss(ten_per_row)
    full = [[rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(40)] for _ in range(40)]
    assert det_int(full) == _det_bareiss(full)
    # the order alone picks the kernel family, whatever the density
    assert used == [
        "_det_symmetric", "_det_modular", "_det_symmetric", "_det_bareiss", "_det_modular", "_det_modular"
    ]


@given(degenerate_matrices(), st.sampled_from(SMALL_PRIMES + [2**64 - 59]))
@settings(max_examples=150, deadline=None)
def test_det_mod_residue_on_either_row_form(m, p):
    residue = det_mod(m, p)
    assert (residue - det_naive(m)) % p == 0
    assert abs(residue) <= p // 2
    assert det_mod(sparse_rows(m), p) == residue


def test_det_mod_kernel_choice_and_checks(monkeypatch):
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)]).laplacian()
    used = spy_kernels(monkeypatch)
    p = 2**64 - 59
    assert det_mod(minor_matrix(cycle, 1, 1), p) == 150
    assert det_mod(minor_matrix(cycle, 1, 2), p) == -150
    assert det_mod([[1, 2], [3, 4]], 7) == -2
    assert used == ["_det_symmetric", "_det_modular", "_det_modular"]
    with pytest.raises(DimensionMismatchError):
        det_mod([[1, 2], [3]], p)
    with pytest.raises(IndexOutOfRangeError):
        det_mod([{0: 1}, {2: 1}], p)


def test_det_int_falls_back_when_bound_exceeds_largest_prime(monkeypatch):
    # 1500-bit entries on 30 rows give a Hadamard bound of about 45000 bits,
    # above the largest tabled prime, so Bareiss must run.
    used = spy_kernels(monkeypatch)
    rng = random.Random(7)
    n = linalg.SPARSE_MIN_ORDER
    m = [[0] * n for _ in range(n)]
    expected = 1
    for i in range(n):
        m[i][i] = rng.getrandbits(1500) | 1 << 1499
        expected *= m[i][i]
        if i:
            m[i][i - 1] = rng.getrandbits(1500)  # lower bidiagonal
    assert prime_above(2 * _hadamard_bound(sparse_rows(m))) is None
    assert det_int(m) == expected
    assert used == ["_det_bareiss"]


@st.composite
def sparse_rank_one_updates(draw):
    """(M, u, v): sparse integer M of order 25-60, and vectors that are
    dense, sparse or all zero, with zero entries among the dense ones."""
    n = draw(st.integers(25, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    big = 10**6
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(m):
        for j in rng.sample(range(n), rng.randint(1, 4)):
            row[j] = rng.randint(-big, big)
        row[i] = rng.randint(1, big)

    def vector(kind):
        if kind == "zero":
            return [0] * n
        if kind == "sparse":
            vec = [0] * n
            for j in rng.sample(range(n), 3):
                vec[j] = rng.randint(-big, big)
            return vec
        return [rng.randint(-big, big) if rng.random() < 0.75 else 0 for _ in range(n)]

    kinds = st.sampled_from(["dense", "dense", "sparse", "zero"])
    return m, vector(draw(kinds)), vector(draw(kinds))


@given(sparse_rank_one_updates())
@settings(max_examples=25, deadline=None)
def test_det_perturbed_matches_bareiss_on_sparse_updates(muv):
    m, u, v = muv
    assert det_perturbed(m, u, v) == _det_bareiss(add_outer_product(m, u, v))


def spy_det_int_orders(monkeypatch):
    """Record, in order, the orders of the matrices det_int receives: a
    caller's own matrix, or the one det_perturbed builds from M, u and v."""
    orders = []
    real_det_int = linalg.det_int

    def det_int_spy(m, **kwargs):
        orders.append(len(m))
        return real_det_int(m, **kwargs)

    monkeypatch.setattr(linalg, "det_int", det_int_spy)
    return orders


@st.composite
def rank_one_updates_either_side(draw):
    """(M, u, v) of order 28-60: M with 2-40 nonzeros a row, as row lists
    or as dict rows that store some zeros, and u, v dense, sparse or zero.
    Some entries of M are -u_i v_j, so M + u v^T stores a zero there.  Half
    the draws have u and v dense and at most n/4 nonzeros a row, which puts
    them on the border's side of det_perturbed's rule."""
    n = draw(st.integers(28, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    near_border = draw(st.booleans())

    def vector(kind):
        if kind == "zero":
            return [0] * n
        if kind == "sparse":
            vec = [0] * n
            for j in rng.sample(range(n), 3):
                vec[j] = rng.randint(1, 9)
            return vec
        return [rng.choice([-1, 1]) * rng.randint(1, 9) if rng.random() < 0.9 else 0 for _ in range(n)]

    kinds = st.just("dense") if near_border else st.sampled_from(["dense", "sparse", "zero"])
    u, v = vector(draw(kinds)), vector(draw(kinds))
    m = [[0] * n for _ in range(n)]
    for i, row in enumerate(m):
        for j in rng.sample(range(n), rng.randint(2, n // 4 if near_border else min(n, 40))):
            cancel = -u[i] * v[j]
            row[j] = cancel if cancel and rng.random() < 0.25 else rng.choice([-1, 1]) * rng.randint(1, 9)
    if draw(st.booleans()):
        m = [{j: x for j, x in enumerate(row) if x or rng.random() < 0.05} for row in m]
    return m, u, v


def nonzeros(entries):
    return sum(x != 0 for x in entries)


def test_det_perturbed_borders_exactly_when_the_nonzero_rule_says(monkeypatch):
    """det_perturbed hands det_int the border [[M, u], [v^T, -1]] of order
    n + 1 exactly when n + 1 >= SPARSE_MIN_ORDER and 2 nnz(M) + nnz(u) +
    nnz(v) + 1 < nnz(u) nnz(v), and M + u v^T otherwise (below that order
    both would go to Bareiss); both sides are drawn, and both give
    det(M + u v^T)."""
    orders = spy_det_int_orders(monkeypatch)
    outcomes = set()

    @given(rank_one_updates_either_side())
    @settings(max_examples=40, deadline=None)
    def check(muv):
        m, u, v = muv
        rows = dense(m) if isinstance(m[0], dict) else m
        shifted = add_outer_product(m, u, v)
        assert shifted == [[x + ui * vj for x, vj in zip(row, v)] for row, ui in zip(rows, u)]
        orders.clear()
        assert det_perturbed(m, u, v) == _det_bareiss(shifted)
        nnz_u, nnz_v = nonzeros(u), nonzeros(v)
        bordered = (
            len(m) + 1 >= linalg.SPARSE_MIN_ORDER and 2 * sum(map(nonzeros, rows)) + nnz_u + nnz_v + 1 < nnz_u * nnz_v
        )
        assert orders == [len(m) + 1 if bordered else len(m)]
        outcomes.add(bordered)

    check()
    assert outcomes == {True, False}


def test_rank_one_sum_takes_modular_kernel(monkeypatch):
    """tau_rank_one with u = 1 and v = e_1 on a graph of average degree 8:
    u v^T has only n nonzeros, so det_int gets L + 1 e_1^T itself, which is
    not symmetric and goes to the Markowitz kernel."""
    pairs = [(i, j) for i in range(1, 121) for j in range(i + 1, 121)]
    g = Graph(120, random.Random(12).sample(pairs, 480))
    expected = _det_bareiss(minor_matrix(g.laplacian(), 1, 1))
    used = spy_kernels(monkeypatch)
    orders = spy_det_int_orders(monkeypatch)
    assert tau_rank_one(g, [1] * 120, [1] + [0] * 119) == expected
    assert orders == [120]
    assert used == ["_det_modular"]


def test_det_perturbed_matrix_and_kernel_choice(monkeypatch):
    """Which matrix det_perturbed hands det_int's path (order n + 1 means the
    bordered one), and which kernel det_int then runs, for L + J."""
    rng = random.Random(11)
    pairs = [(i, j) for i in range(1, 121) for j in range(i + 1, 121)]
    graphs = {
        "150-cycle": Graph(150, [(i, i % 150 + 1) for i in range(1, 151)]),
        "G(120, m=480)": Graph(120, random.Random(12).sample(pairs, 480)),
        "G(60, 0.97)": random_graph(rng, 60, 0.97),
        "K40": random_graph(rng, 40, 1.0),
        "G(40, 0.3)": random_graph(rng, 40, 0.3),
        "K8": random_graph(rng, 8, 1.0),
    }
    taus = {name: _det_bareiss(minor_matrix(g.laplacian(), 1, 1)) for name, g in graphs.items()}
    used = spy_kernels(monkeypatch)
    orders = spy_det_int_orders(monkeypatch)
    choices = {}
    for name, g in graphs.items():
        ones = [1] * g.n
        assert det_perturbed(g.laplacian(), ones, ones) == g.n**2 * taus[name]
        bordered = orders == [g.n + 1]
        assert bordered or orders == [g.n]
        choices[name] = (bordered, used[:])
        orders.clear()
        used.clear()
    # L + J is bordered below density about 1/2; the bordered L + J is
    # symmetric.  Every elimination of it ends in the dense tail, whose last
    # pair takes the zero pivot of the singular L itself (see
    # test_dense_tail_switch)
    assert choices == {
        "150-cycle": (True, ["_det_symmetric"]),
        "G(120, m=480)": (True, ["_det_symmetric"]),
        "G(60, 0.97)": (False, ["_det_symmetric"]),
        "K40": (False, ["_det_symmetric"]),
        "G(40, 0.3)": (True, ["_det_symmetric"]),
        "K8": (False, ["_det_bareiss"]),
    }


@st.composite
def sparse_symmetric_matrices(draw):
    """Symmetric integer M of order 30-60 with about 3 off-diagonal entries
    per row, diagonals that may be zero or negative, and some made singular
    by repeating a row and its column."""
    n = draw(st.integers(linalg.SPARSE_MIN_ORDER, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    diagonal = draw(st.sampled_from(["positive", "mixed", "zero"]))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = {"positive": rng.randint(1, 50), "mixed": rng.randint(-50, 50), "zero": 0}[diagonal]
        for j in rng.sample(range(n), 2):
            if j != i:
                m[i][j] = m[j][i] = rng.randint(-50, 50)
    if draw(st.booleans()):
        a, b = rng.sample(range(n), 2)  # row and column b become copies of a
        for j in range(n):
            m[b][j] = m[a][j]
        for i in range(n):
            m[i][b] = m[i][a]
    return m


@given(sparse_symmetric_matrices())
@settings(max_examples=40, deadline=None)
def test_det_int_symmetric_matches_bareiss(m):
    with mock.patch.object(linalg, "_det_symmetric", wraps=linalg._det_symmetric) as kernel:
        assert det_int(m) == _det_bareiss(m)
    assert kernel.call_count == 1


@given(sparse_symmetric_matrices(), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_det_perturbed_symmetric_border_matches_bareiss(m, seed):
    rng = random.Random(seed)
    u = [rng.randint(-50, 50) if rng.random() < 0.5 else 0 for _ in m]
    with mock.patch.object(linalg, "_det_symmetric", wraps=linalg._det_symmetric) as kernel:
        assert det_perturbed(m, u, u) == _det_bareiss(add_outer_product(m, u, u))
    assert kernel.call_count == 1


@st.composite
def bounded_matrices(draw):
    """(M, d, b): M of order 30-60, symmetric or not, with about 3
    off-diagonal entries a row and some singular; d = det(M) by Bareiss;
    and b with |d| <= b <= H, the Hadamard bound, |d| itself half the time."""
    if draw(st.booleans()):
        m = draw(sparse_symmetric_matrices())
    else:
        n = draw(st.integers(linalg.SPARSE_MIN_ORDER, 60))
        rng = random.Random(draw(st.integers(0, 2**32)))
        m = [[0] * n for _ in range(n)]
        for i, row in enumerate(m):
            row[i] = rng.randint(-50, 50)
            for j in rng.sample(range(n), 3):
                row[j] = rng.randint(-50, 50)
        if draw(st.booleans()):
            m[0] = list(m[1])
    d = _det_bareiss(m)
    h = _hadamard_bound(sparse_rows(m))
    return m, d, draw(st.one_of(st.just(abs(d)), st.integers(abs(d), h)))


@given(bounded_matrices())
@settings(max_examples=40, deadline=None)
def test_det_int_bound_keeps_the_value(mdb):
    m, d, b = mdb
    assert det_int(m, bound=b) == det_int(m) == d


def test_det_perturbed_bound_keeps_the_value_on_both_paths(monkeypatch):
    """A bound b with |det(M + u v^T)| <= b reaches det_int on both of
    det_perturbed's paths, the border and M + u v^T, and leaves the value
    as it is; both paths are drawn."""
    orders = spy_det_int_orders(monkeypatch)
    outcomes = set()

    @given(rank_one_updates_either_side(), st.data())
    @settings(max_examples=40, deadline=None)
    def check(muv, data):
        m, u, v = muv
        shifted = add_outer_product(m, u, v)
        d = _det_bareiss(shifted)
        b = data.draw(st.one_of(st.just(abs(d)), st.integers(abs(d), _hadamard_bound(sparse_rows(shifted)))))
        orders.clear()
        assert det_perturbed(m, u, v, bound=b) == det_perturbed(m, u, v) == d
        outcomes.add(orders[0] == len(m) + 1)

    check()
    assert outcomes == {True, False}


def test_det_int_bound_at_each_prime_seam(monkeypatch):
    """diag(b, 1, ..., 1) of order 30 with b = (p - 1) // 2 for each tabled
    prime p below 2^1279: with bound=b, 2b = p - 1, so p is the prime, and
    the residue b, or -b, is the least one in absolute value.  The Hadamard
    bound b + 1 alone, or with a larger bound, picks the next prime."""
    primes = []
    monkeypatch.setattr(linalg, "_det_symmetric", lambda rows, p: primes.append(p) or _det_symmetric(rows, p))
    for k, c in PRIMES:
        if k >= 1279:
            break
        p = (1 << k) - c
        b = (p - 1) // 2
        for sign in (1, -1):
            m = identity(linalg.SPARSE_MIN_ORDER)
            m[0][0] = sign * b
            primes.clear()
            assert det_int(m, bound=b) == sign * b
            assert primes == [p]
            # a bound above the Hadamard bound changes nothing
            assert det_int(m) == det_int(m, bound=b * b) == sign * b
            assert primes[1] == primes[2] > p


@pytest.mark.parametrize("bound", [-1, 1.5, "3", Fraction(3), [3]])
def test_det_int_rejects_a_bad_bound(bound):
    for m in (identity(3), identity(linalg.SPARSE_MIN_ORDER)):
        with pytest.raises(LinalgError):
            det_int(m, bound=bound)
        with pytest.raises(LinalgError):
            det_perturbed(m, [1] * len(m), [1] * len(m), bound=bound)


def block_orders(monkeypatch):
    """Record (kernel, order) for every modular kernel call."""
    calls = []

    def spy(name):
        real = getattr(linalg, name)

        def kernel(rows, p):
            calls.append((name, len(rows)))
            return real(rows, p)

        return kernel

    for name in ("_det_modular", "_det_symmetric"):
        monkeypatch.setattr(linalg, name, spy(name))
    return calls


def test_zero_diagonal_hand_off(monkeypatch):
    """An isolated vertex leaves an empty row in the minor of a 30-cycle
    plus that vertex: minimum degree pops it first, its diagonal is 0, and
    the sparse loop hands the whole block left to _det_modular."""
    calls = block_orders(monkeypatch)
    g = Graph(31, [(i, i % 30 + 1) for i in range(1, 31)])
    assert det_int(minor_matrix(g.laplacian_rows(), 1, 1)) == 0
    assert calls == [("_det_symmetric", 30), ("_det_modular", 30)]


def test_dense_tail_switch(monkeypatch):
    """Minimum degree fills a G(120, 360) minor and its Temperley border to
    a block at least 7/10 full, where the dense tail takes over; on the
    border, L's zero pivot falls in the tail's last pair of rows, which
    ends the product itself, so no _det_modular runs.  A cycle never fills,
    so its minor stays in the sparse loop until its last two rows."""
    calls = block_orders(monkeypatch)
    real = linalg._dense_tail

    def tail(block, p):
        calls.append(("_dense_tail", len(block)))
        return real(block, p)

    monkeypatch.setattr(linalg, "_dense_tail", tail)
    rng = random.Random(1)
    pairs = [(i, j) for i in range(1, 121) for j in range(i + 1, 121)]
    g = Graph(120, rng.sample(pairs, 360))
    assert g.is_connected()
    minor = minor_matrix(g.laplacian_rows(), 1, 1)
    p = prime_above(2 * _hadamard_bound(minor))
    tau = _det_modular(minor, p)  # the Markowitz kernel alone
    calls.clear()
    assert det_int(minor) == tau
    assert [name for name, _ in calls] == ["_det_symmetric", "_dense_tail"]
    calls.clear()
    ones = [1] * 120
    assert det_perturbed(g.laplacian_rows(), ones, ones) == 120**2 * tau
    assert [name for name, _ in calls] == ["_det_symmetric", "_dense_tail"]
    calls.clear()
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)])
    assert det_int(minor_matrix(cycle.laplacian_rows(), 1, 1)) == 150
    assert calls == [("_det_symmetric", 149), ("_dense_tail", 2)]


def coprime_entry(rng):
    """A nonzero integer with no factor in SMALL_PRIMES, so it stays an
    entry modulo each of them."""
    while True:
        x = rng.randint(-(10**6), 10**6)
        if all(x % q for q in SMALL_PRIMES):
            return x


@st.composite
def tail_matrices(draw):
    """(kind, M): symmetric integer M of order 9-40 in which every row but
    a zero one has at least 7/10 of n entries that are nonzero modulo every
    prime in SMALL_PRIMES, so _det_symmetric starts its dense tail on the
    whole matrix.  Entries are zero only off the diagonal where i + j = 10
    mod 11, at most n // 11 + 1 in a row.  Kinds: "full"; "repeated row",
    row and column b copies of a (singular); "zero row", row and column 0
    zero (singular; the sparse loop hands it to _det_modular before any
    tail); "laplacian", the Laplacian of a graph (singular, so some tail
    pivot is 0); "zero block", [[0, B], [B^T, C]] with a zero a x a corner,
    a <= 3n/10, and B and C without zeros, so the corner's rows are the
    shortest, the tail's first pivot is 0 and the whole block goes to
    _det_modular."""
    n = draw(st.integers(9, 40))
    kind = draw(st.sampled_from(["full", "repeated row", "zero row", "laplacian", "zero block"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j or (i + j) % 11 != 10:
                m[i][j] = m[j][i] = coprime_entry(rng)
    if kind == "repeated row":
        a, b = rng.sample(range(n), 2)
        m[b] = list(m[a])
        for row in m:
            row[b] = row[a]
    elif kind == "zero row":
        m[0] = [0] * n
        for row in m:
            row[0] = 0
    elif kind == "laplacian":
        for i, row in enumerate(m):
            row[:] = [-1 if x and j != i else 0 for j, x in enumerate(row)]
            row[i] = -sum(row)
    elif kind == "zero block":
        a = rng.randint(1, 3 * n // 10)
        m = [[0 if i < a and j < a else coprime_entry(rng) for j in range(n)] for i in range(n)]
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return kind, m


@given(tail_matrices(), st.sampled_from(SMALL_PRIMES + [2**64 - 59]))
@settings(max_examples=120, deadline=None)
def test_dense_tail_residue_on_every_path(km, p):
    """det_mod through the dense tail: tiny primes make pivots 0 mod p in
    its middle too, and a zero pivot before the last pair hands the whole
    block to _det_modular."""
    kind, m = km
    with mock.patch.object(linalg, "_dense_tail", wraps=linalg._dense_tail) as tail:
        residue = det_mod(m, p)
    assert (residue - _det_bareiss(m)) % p == 0
    assert abs(residue) <= p // 2
    if kind == "zero row":
        assert tail.call_count == 0
    else:
        assert tail.call_count == 1 and len(tail.call_args.args[0]) == len(m)


# Where _dense_tail can meet a zero pivot: either row of a pair with an
# inverse to take, or either row of the last pair.
ZERO_PIVOTS = ["none", "pair, first row", "pair, second row", "last pair, first row", "last pair, second row"]


@st.composite
def paired_tail_blocks(draw):
    """(where, p, M): a symmetric integer M of order 1-16 and a prime p from
    SMALL_PRIMES, with d_z = 0 mod p in M's LDL^T for the row z that `where`
    names (unless an earlier pivot is 0 mod p already): a_zz is shifted by
    det(M[:z+1, :z+1]) / det(M[:z, :z]) mod p, which zeroes that leading
    minor and only it.  An odd block gets a leading unit row, so its row z
    is row z + 1 of the tail's pairs, and row 0 is the first pair's second
    row."""
    k = draw(st.integers(1, 16))
    p = draw(st.sampled_from(SMALL_PRIMES))
    where = draw(st.sampled_from(ZERO_PIVOTS))
    pad = k % 2
    if where != "none":
        # the tail's first row of each pair before the last, or of the last
        firsts = range(0, k + pad - 2, 2) if where.startswith("pair") else [k + pad - 2]
        assume(firsts)
        z = draw(st.sampled_from(firsts)) + where.endswith("second row") - pad
        assume(z >= 0)  # the unit row is never 0
    rng = random.Random(draw(st.integers(0, 2**32)))
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = rng.randint(-9, 9)
    if where != "none":
        leading = _det_bareiss([row[:z] for row in m[:z]]) % p
        if leading:
            m[z][z] -= _det_bareiss([row[: z + 1] for row in m[: z + 1]]) * pow(leading, -1, p) % p
    return where, p, m


@given(paired_tail_blocks())
@settings(max_examples=300, deadline=None)
def test_paired_dense_tail_residue(block):
    """_dense_tail on its own, with a zero pivot in each place the paired
    rows tell apart: the result is det mod p all the same.  A zero before
    the last pair hands the whole block, all k rows, to _det_modular."""
    where, p, m = block
    rows = sparse_rows(m)
    with mock.patch.object(linalg, "_det_modular", wraps=linalg._det_modular) as hand_off:
        assert (linalg._dense_tail(rows, p) - _det_bareiss(m)) % p == 0
    assert hand_off.call_args_list == [mock.call(rows, p)] * hand_off.call_count  # all k rows
    if where.startswith("pair"):
        assert hand_off.call_count == 1


def test_dense_tail_takes_one_inverse_a_pair(monkeypatch):
    """On a nonsingular block of k rows, _dense_tail takes at most k // 2
    modular inverses: one for each pair of rows but the last, where an odd
    block's row 0 pairs with a leading unit row."""
    inverses = []

    def counting_pow(*args):
        inverses.append(args)
        return pow(*args)

    monkeypatch.setattr(linalg, "pow", counting_pow, raising=False)
    rng = random.Random(27)
    p = 2**64 - 59
    for k in range(1, 17):
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                m[i][j] = m[j][i] = rng.randint(-(10**6), 10**6)
        assert _det_bareiss(m) % p
        inverses.clear()
        assert (linalg._dense_tail(sparse_rows(m), p) - _det_bareiss(m)) % p == 0
        assert len(inverses) <= k // 2


def test_det_int_dict_rows_match_list_rows(monkeypatch):
    """det_int gives the same value, through the same kernel, on dict rows
    as on row lists: every kernel, the Bareiss fallback above the largest
    prime, order 0 and rows with no entries."""
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)]).laplacian()
    ones = [1] * 150
    empty_row = minor_matrix(cycle, 1, 1)
    empty_row[40] = [0] * 149  # a row with no entries: det 0 on either kernel
    empty_both = [[0 if 40 in (i, j) else x for j, x in enumerate(row)] for i, row in enumerate(empty_row)]
    rng = random.Random(7)
    huge = [[0] * 30 for _ in range(30)]  # bound above the largest prime
    for i in range(30):
        huge[i][i] = rng.getrandbits(1500) | 1 << 1499
    u = [rng.randint(1, 9) for _ in range(40)]
    cases = {
        "symmetric": (minor_matrix(cycle, 1, 1), ["_det_symmetric"]),
        "modular": (minor_matrix(cycle, 1, 2), ["_det_modular"]),
        "dense, symmetric": (add_outer_product(cycle, ones, ones), ["_det_symmetric"]),
        "dense, general": (add_outer_product([row[:40] for row in cycle[:40]], u, ones[:40]), ["_det_modular"]),
        "empty row": (empty_row, ["_det_modular"]),
        "empty row and column": (empty_both, ["_det_symmetric", "_det_modular"]),
        "Bareiss": ([[3, -1, -1], [-1, -1, 0], [-1, -1, 2]], ["_det_bareiss"]),
        "Bareiss, empty row": ([[1, 2, 0], [0, 0, 0], [4, 5, 6]], ["_det_bareiss"]),
        "above the primes": (huge, ["_det_bareiss"]),
        "order 0": ([], ["_det_bareiss"]),
    }
    used = spy_kernels(monkeypatch)
    for name, (m, kernels) in cases.items():
        expected = det_int(m)
        assert used == kernels, name
        used.clear()
        assert det_int(sparse_rows(m)) == expected, name
        assert used == kernels, name
        used.clear()
    # a stored zero is not an entry: the symmetry test still sends the minor
    # to the symmetric kernel
    rows = sparse_rows(minor_matrix(cycle, 1, 1))
    rows[0][100] = 0
    assert det_int(rows) == 150
    assert used == ["_det_symmetric"]


def test_det_int_dict_rows_rejects_bad_columns():
    with pytest.raises(IndexOutOfRangeError):
        det_int([{0: 1}, {2: 1}])
    with pytest.raises(IndexOutOfRangeError):
        det_int([{-1: 1}, {1: 1}])
    with pytest.raises(DimensionMismatchError):
        det_int([{0: 1}, [1]])
    with pytest.raises(DimensionMismatchError):
        det_perturbed([{0: 1}, {1: 1}], [1], [1, 1])


def test_det_perturbed_dict_rows_match_list_rows(monkeypatch):
    """det_perturbed on dict rows equals det_perturbed on row lists, for the
    bordered matrix, both dense M + u v^T kernels, order 0 and a row with no
    entries."""
    cycle = Graph(150, [(i, i % 150 + 1) for i in range(1, 151)]).laplacian()
    k40 = Graph(40, [(i, j) for i in range(1, 41) for j in range(i + 1, 41)]).laplacian()
    isolated = Graph(40, [(i, i % 39 + 1) for i in range(1, 40)]).laplacian()  # vertex 40 alone
    rng = random.Random(3)
    u = [rng.randint(-5, 5) for _ in range(150)]
    cases = {
        "bordered, symmetric": (cycle, [1] * 150, [1] * 150, ["_det_symmetric"]),
        "bordered, general": (cycle, u, [1] * 150, ["_det_modular"]),
        "dense, symmetric": (k40, [1] * 40, [1] * 40, ["_det_symmetric"]),
        "dense, Bareiss": ([[2, 1], [1, 3]], [1, 2], [3, 4], ["_det_bareiss"]),
        "empty row": (isolated, [1] * 40, [1] * 40, ["_det_symmetric", "_det_modular"]),
        "order 0": ([], [], [], ["_det_bareiss"]),
    }
    used = spy_kernels(monkeypatch)
    for name, (m, u, v, kernels) in cases.items():
        expected = det_perturbed(m, u, v)
        assert used == kernels, name
        used.clear()
        assert det_perturbed(sparse_rows(m), u, v) == expected, name
        assert used == kernels, name
        used.clear()
        assert expected == _det_bareiss(add_outer_product(m, u, v)), name
        used.clear()


@given(sparse_rank_one_updates())
@settings(max_examples=15, deadline=None)
def test_dict_rows_match_list_rows_on_sparse_updates(muv):
    m, u, v = muv
    assert det_int(sparse_rows(m)) == det_int(m)
    assert det_perturbed(sparse_rows(m), u, v) == det_perturbed(m, u, v)


def dense(rows):
    """Dict rows of a square matrix as row lists."""
    return [[row.get(j, 0) for j in range(len(rows))] for row in rows]


@st.composite
def matrices_in_both_row_forms(draw):
    """(m, rows, u, v): a square integer matrix of order 0-7 with many zero
    entries, the same matrix as dict rows, some of which store their zeros,
    and two vectors of its order."""
    n = draw(st.integers(0, 7))
    entries = st.one_of(st.just(0), st.integers(-9, 9))
    vectors = st.lists(entries, min_size=n, max_size=n)
    m = draw(st.lists(vectors, min_size=n, max_size=n))
    stores_zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rows = [{j: x for j, x in enumerate(row) if x or keep} for row, keep in zip(m, stores_zeros)]
    return m, rows, draw(vectors), draw(vectors)


@given(matrices_in_both_row_forms(), st.sampled_from([7, 2**64 - 59]))
@settings(max_examples=150, deadline=None)
def test_every_public_function_gives_the_same_result_on_either_row_form(murv, p):
    m, rows, u, v = murv
    n = len(m)
    assert det_int(rows) == det_int(m)
    assert det_mod(rows, p) == det_mod(m, p)
    assert det_perturbed(rows, u, v) == det_perturbed(m, u, v)
    assert det_rat(rows) == det_rat(m)
    assert add_outer_product(rows, u, v) == add_outer_product(m, u, v)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            minor = minor_matrix(rows, i, j)
            assert all(isinstance(row, dict) for row in minor)
            assert dense(minor) == minor_matrix(m, i, j)
    if n:
        assert adjugate(rows) == adjugate(m)


def test_dict_row_worked_examples():
    """L(K2) + I as dict rows, through the functions that once read dict
    rows as lists."""
    m = [{0: 2, 1: -1}, {0: -1, 1: 2}]
    assert minor_matrix(m, 1, 1) == [{0: 2}]
    assert minor_matrix(m, 1, 2) == [{0: -1}]
    assert adjugate(m) == [[2, 1], [1, 2]]
    assert det_rat(m) == 3
    assert add_outer_product([{1: -1}, {0: -1}], [1, 1], [1, 1]) == [[1, 0], [0, 1]]
    with pytest.raises(IndexOutOfRangeError):
        minor_matrix(m, 3, 1)
    with pytest.raises(IndexOutOfRangeError):
        add_outer_product([{0: 1}, {2: 1}], [1, 1], [1, 1])


# non-int entries, zeros among them: a zero that no kernel reads is still
# not an integer entry
NOT_INTS = [1.5, 0.5, 0.0, Fraction(1, 2), Fraction(0)]


def with_entry(m, i, j, x):
    """Copy of the row lists m with entry (i, j) set to x."""
    copy = [list(row) for row in m]
    copy[i][j] = x
    return copy


def test_det_int_rejects_non_integer_entries():
    with pytest.raises(LinalgError):
        det_int([[1.5]])
    with pytest.raises(LinalgError):
        det_int([[0.5, 1], [1, 2]])
    cycle = Graph(40, [(i, i % 40 + 1) for i in range(1, 41)]).laplacian()  # a modular kernel's order
    for bad in NOT_INTS:
        for m in ([[2, 1], [1, bad]], with_entry(cycle, 0, 20, bad), with_entry(cycle, 0, 0, bad)):
            with pytest.raises(LinalgError):
                det_int(m)
            with pytest.raises(LinalgError):
                det_int([{j: x for j, x in enumerate(row) if x or not isinstance(x, int)} for row in m])


def test_det_mod_rejects_non_integer_entries():
    with pytest.raises(LinalgError):
        det_mod([[1.5]], 7)
    for bad in NOT_INTS:
        for m in ([[2, 1], [1, bad]], [{0: 2, 1: bad}, {0: 1}]):
            with pytest.raises(LinalgError):
                det_mod(m, 7)


def test_det_perturbed_rejects_non_integer_entries():
    """On both routes: the bordered matrix, which drops the zeros of M, u
    and v, and the dense M + u v^T."""
    cycle = Graph(40, [(i, i % 40 + 1) for i in range(1, 41)]).laplacian()
    ones = [1] * 40
    for bad in NOT_INTS:
        for m, u in ((cycle, ones), ([[2, 1], [1, 2]], [1, 1])):
            n = len(m)
            cases = [
                (with_entry(m, 0, n // 2, bad), u, u),
                ([{0: bad}, *sparse_rows(m)[1:]], u, u),
                (m, [bad, *u[1:]], u),
                (m, u, [*u[:-1], bad]),
            ]
            for case in cases:
                with pytest.raises(LinalgError):
                    det_perturbed(*case)


def test_det_mod_rejects_a_modulus_below_two():
    m = [[2, 1], [1, 2]]  # det 3
    assert det_mod(m, 2) == 1
    for p in (1, 0, -7):
        with pytest.raises(LinalgError):
            det_mod(m, p)
    for p in (7.0, "7"):  # judged by type before the comparison with 2
        with pytest.raises(LinalgError, match="int modulus"):
            det_mod(m, p)
