"""Exact linear algebra over Python ints.

Integer determinants (`det_int`) have three exact kernels:

- Bareiss elimination, fraction-free on the dense matrix, so every
  intermediate value is an integer and every internal division is checked
  to be exact.
- Modular sparse elimination (`_det_modular`): the nonzero entries only,
  eliminated in Markowitz order over GF(P).  H = isqrt(prod_i sum_j
  a_ij^2) + 1 is the Hadamard bound, |det| <= H, and a caller may pass a
  bound b of its own with |det| <= b.  P is the smallest prime 2^k - c
  above 2 min(H, b) in the literal table PRIMES: k = 60, 90, ..., 1260
  with a small c, so that a residue fills whole 30-bit digits of a Python
  int, then Mersenne primes 2^k - 1 up to 2^44497 - 1.  Reduction is
  lazy: entries are reduced once when a kernel starts, an update adds
  g v < P^2 for the reduced row factor g and pivot-row value v, and every
  read of a stored entry reduces it with % P.  An entry gets at most one
  update per pivot, so every stored entry stays below (n + 1) P^2.  The
  result is exact: any nonzero residue is an invertible pivot, a row left
  with no nonzero residue means det = 0 mod P, and one residue mod
  P > 2 min(H, b) fixes an integer in [-min(H, b), min(H, b)].  So there
  is no Chinese remaindering and no unlucky prime.
- Symmetric sparse elimination (`_det_symmetric`), for symmetric matrices
  such as Laplacian minors: minimum-degree order with diagonal pivots over
  the same GF(P).  A diagonal pivot leaves the block left symmetric (its
  Schur complement), so each pair update is computed once and written to
  both (a, b) and (b, a).  One pivot on a Laplacian is the paper's
  Schur-complement step (star-mesh reduction), and the minimum-degree
  order keeps the fill of sparse graphs small.  When a diagonal residue is
  0, the block left goes to the Markowitz kernel; the Schur-complement
  identity det = prod(pivots) * det(block left) is exact over GF(P).
  Once the block left is nearly dense (the row minimum degree pops holds
  at least 7/10 of the rows left, so every row does), it is copied into
  dense lists and finished by a dense tail (`_dense_tail`): left-looking
  LDL^T over the same GF(P), two rows at a time, each factor entry one dot
  product in C reduced once.  That rule holds at the latest for the last
  row, so every elimination that meets no zero diagonal first ends in the
  tail.  A block of odd order gets a leading unit row and column, so its
  rows form pairs.  The 2 x 2 Schur block of a pair gives the product of
  its two pivots without a division, and one modular inverse gives both
  their inverses (Montgomery's simultaneous inversion); the last pair
  needs none, since its product ends the determinant.  So the zero pivot
  of L's last vertex in the Temperley border [[L, 1], [1^T, -1]] of a
  connected graph, which falls in that pair, is no hand-off.  A zero pivot
  in an earlier pair hands the whole block to the Markowitz kernel.

`det_int` picks the kernel from the order of the matrix it receives, and
from nothing else: a modular one for order at least SPARSE_MIN_ORDER, when
2 min(H, b) fits under the largest tabled prime; Bareiss otherwise.  The
nonzero count does not enter: with its dense tail, the symmetric kernel beats
Bareiss at every density from order 30 up (0.33-0.73x its time on Laplacian
minors of orders 30-40; at orders 15-28 it wins on sparse minors but not
always on dense ones), and the Markowitz kernel beats it on sparse and
mid-density matrices, losing 1.3-1.5x only on dense non-symmetric ones such
as L + 1 e_1^T of a nearly complete graph.
`det_mod` gives det mod a caller's prime through the same two modular
kernels, the symmetric one when the matrix is symmetric, for callers that
bound the value they recover themselves (the bipartite reduction in
`kirchhoff`).

A rank-one update has a second matrix with the same determinant up to
sign.  The bordered matrix B = [[M, u], [v^T, -1]] of order n + 1 has the
Schur complement M + u v^T on its trailing -1, so det B = -det(M + u v^T)
(the matrix determinant lemma), and B is symmetric exactly when M is and
u == v.  Below n + 1 = SPARSE_MIN_ORDER both would go to Bareiss, whose
cost depends on the order alone, so `det_perturbed` hands `det_int`
M + u v^T as row lists.  From that order up it hands `det_int` the
sparser of the two, judged from the nonzero counts of M, u and v alone:
B has nnz(M) + nnz(u) + nnz(v) + 1, and M + u v^T at least
nnz(u) nnz(v) - nnz(M), since each entry of M cancels at most one entry
of u v^T.  B is used when it has fewer nonzeros than that, M + u v^T
otherwise, built in dict rows in O(nnz(M) + nnz(u) nnz(v)) without the
entries that cancel.  So L + J of a sparse graph, zero only at its 2m
edge entries, takes the symmetric kernel on L plus one dense row and
column.  L is singular, so elimination meets a zero pivot at L's last
vertex, in the dense tail's last pair, which takes it: the border of a
connected graph never reaches the Markowitz kernel.  L + J = nI -
L(complement) of a dense graph stays unbordered, and stores no entry
where L and J cancel.  Near density 1/2 the two are about the same size.

`det_rat`, the determinant of a rational matrix, scales each row to
integers by the lcm of its denominators and calls `det_int`.

Every public matrix function takes a square matrix in either of two row
forms: a list of row lists, or a list of sparse rows, each a dict
{column: entry} with 0-based columns and the absent entries zero, as
`Graph.laplacian_rows` gives them.  `minor_matrix` returns the form it was
given, so `kirchhoff.tau_reduced` builds its minor with it and keeps dict
rows; `add_outer_product` and `adjugate` return row lists.  The kernels
run on dict rows directly, and only Bareiss elimination builds a dense
copy.  The entries of `det_int`, `det_mod` and `det_perturbed` (M, u and
v) must be ints, and any other entry raises LinalgError;
`minor_matrix` and `det_rat` also take rationals.  Each public function
checks its own input's shape and entries, and reaches the kernels only
through the public functions: what it builds (a minor, the border,
M + u v^T, the scaled rows) goes to `det_int`, which checks it again.
Row/column arguments on the public surface are 1-based to match vertex
labels.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from operator import countOf, itemgetter, mul
from math import isqrt, lcm

IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]
# rows as lists of n entries, or as dicts {0-based column: entry}
IntRows = Sequence[Sequence[int] | dict[int, int]]

# The primes P = 2^k - c the modular kernels work modulo, as (k, c) in
# increasing order: for k = 60, 90, ..., 1260 the smallest c making 2^k - c
# prime (found offline and checked by a Miller-Rabin test in the suite), then
# Mersenne primes 2^k - 1.  CPython stores an int in 30-bit digits, so a
# residue below 2^k fills k / 30 of them, and steps of 30 bits size P to the
# determinant's bound with at most one digit more than that bound needs.
PRIMES = (
    (60, 93), (90, 33), (120, 119), (150, 3), (180, 47), (210, 47), (240, 467),
    (270, 53), (300, 153), (330, 255), (360, 719), (390, 137), (420, 317),
    (450, 501), (480, 47), (510, 75), (540, 335), (570, 261), (600, 95),
    (630, 395), (660, 473), (690, 455), (720, 395), (750, 161), (780, 147),
    (810, 5), (840, 213), (870, 783), (900, 207), (930, 765), (960, 167),
    (990, 195), (1020, 537), (1050, 1881), (1080, 405), (1110, 413),
    (1140, 185), (1170, 833), (1200, 305), (1230, 123), (1260, 35),
    (1279, 1), (2203, 1), (2281, 1), (3217, 1), (4253, 1), (4423, 1),
    (9689, 1), (9941, 1), (11213, 1), (19937, 1), (21701, 1), (23209, 1),
    (44497, 1),
)
# det_int's kernel choice: below this order Bareiss runs.  The symmetric
# kernel at the bound-sized prime, against Bareiss on Laplacian minors of
# connected G(n, p) (best of 7, Python 3.11, 2 vCPUs): 1.7-4.6x slower at
# orders 5-8; at orders 15-28, 0.41-0.86x its time on sparse minors
# (p = 0.3) and 0.78-1.31x on dense ones (p = 0.95); at orders 30-40,
# 0.33-0.55x and 0.64-0.73x.  A lower floor for sparse minors alone would
# be a rule on the nonzero count, which the choice leaves out.
SPARSE_MIN_ORDER = 30
# _det_symmetric's dense tail starts when the row minimum degree pops has at
# least DENSE_TAIL_TENTHS / 10 of the rows left as entries.  Kernel time
# against no tail, summed over the minors and Temperley borders of 30
# graphs of the `sparse` benchmark (best of 7 interleaved, Python 3.11,
# 2 vCPUs): 0.93 from 5/10, 0.91-0.92 from 6/10 to 9/10; at 7/10, G(n, 3n)
# took 0.88 and grids 0.98.
# With the tail taking rows in pairs, kernel time on the minors and borders
# of 9 G(n, 3n) (n = 60, 90, 120) and 9 relabelled 8x8, 10x10 and 12x12
# grids, against 7/10 (best of 15, then of 21, switch values shuffled in
# each round): 5/10 1.04 and 1.01, 6/10 1.03 and 0.99, 8/10 1.02 and 0.99,
# 9/10 1.03 and 1.02, so no value beats 7/10 by more than the noise.
DENSE_TAIL_TENTHS = 7


class LinalgError(ValueError):
    """Invalid matrix input."""


class DimensionMismatchError(LinalgError):
    """Vector or block dimensions do not agree with the matrix."""


class IndexOutOfRangeError(LinalgError):
    """A row/column index falls outside the matrix."""


def _order(m: IntRows) -> int:
    """Order of a square matrix given as row lists or as dict rows."""
    n = len(m)
    columns: set[int] = set()
    for row in m:
        if isinstance(row, dict):
            columns.update(row)
        elif len(row) != n:
            raise DimensionMismatchError(f"matrix is not square: {n} rows, row of length {len(row)}")
    if columns and (min(columns) < 0 or max(columns) >= n):
        raise IndexOutOfRangeError(f"a sparse row has a column outside 0..{n - 1}")
    return n


def det_int(m: IntRows, *, bound: int | None = None) -> int:
    """Exact determinant of a square integer matrix, given as row lists or
    as sparse rows {0-based column: entry}; an entry that is not an int
    raises LinalgError.

    `bound`, when given, is the caller's promise that |det(m)| <= bound; it
    must be an int >= 0, or LinalgError is raised.  A matrix of order at
    least SPARSE_MIN_ORDER goes to a modular kernel, the symmetric one when
    m is symmetric, whenever twice the smaller of its Hadamard bound and
    `bound` is below the largest tabled prime; the prime is the smallest
    tabled one above that, so a bound larger than the Hadamard bound
    changes nothing.  All others go to Bareiss elimination (see the module
    docstring).  The 0x0 matrix has determinant 1 (empty product).
    """
    if bound is not None and (not isinstance(bound, int) or bound < 0):
        raise LinalgError(f"a determinant bound must be an int >= 0, got {bound!r}")
    n = _order(m)
    _nonzeros(m)  # checks the entries
    if n >= SPARSE_MIN_ORDER:
        rows = _sparse_rows(m)
        hadamard = _hadamard_bound(rows)
        p = prime_above(2 * (hadamard if bound is None else min(hadamard, bound)))
        if p is not None:
            return _det_mod_rows(rows, p)
    return _det_bareiss(_dense_rows(m, n))


def det_mod(m: IntRows, p: int) -> int:
    """det(m) mod p, as the residue of least absolute value, for a square
    integer matrix given as `det_int` takes it: the symmetric kernel when m
    is symmetric, the Markowitz kernel otherwise.

    p must be prime, which is not tested; a p that is not an int or is
    below 2, and an entry that is not an int, raise LinalgError."""
    if not isinstance(p, int):
        raise LinalgError(f"det_mod needs an int modulus, got {p!r}")
    if p < 2:
        raise LinalgError(f"det_mod needs a prime modulus, got {p}")
    _order(m)
    _nonzeros(m)  # checks the entries
    return _det_mod_rows(_sparse_rows(m), p)


def _det_mod_rows(rows: list[dict[int, int]], p: int) -> int:
    if all(rows[j].get(i, 0) == x for i, row in enumerate(rows) for j, x in row.items()):
        return _det_symmetric(rows, p)
    return _det_modular(rows, p)


def _nonzeros(m: IntRows) -> int:
    """The nonzero count of m, after checking that every entry, stored
    zeros included, is an int.  det_int, det_mod, det_perturbed and
    adjugate each call it on their whole input, which is where their
    entries are checked; det_int checks again each matrix the others
    build and hand it."""
    entries = list(chain.from_iterable(row.values() if isinstance(row, dict) else row for row in m))
    if not all(map(isinstance, entries, repeat(int))):
        raise LinalgError("matrix and vector entries must be ints")
    return len(entries) - countOf(entries, 0)


def _sparse_rows(m: IntRows) -> list[dict[int, int]]:
    """The rows of m as dicts {column: entry}; dict rows are not copied."""
    return [
        row if isinstance(row, dict) else {j: row[j] for j in compress(range(len(row)), row)}
        for row in m
    ]


def _dense_rows(m: IntRows, n: int) -> Sequence[Sequence[int]]:
    """The rows of m as lists of n entries; list rows are not copied."""
    dense = []
    for row in m:
        if isinstance(row, dict):
            filled = [0] * n
            for j, x in row.items():
                filled[j] = x
            row = filled
        dense.append(row)
    return dense


def _hadamard_bound(rows: Sequence[dict[int, int]]) -> int:
    """H with |det| <= H: the product of the row norms, rounded up."""
    product = 1
    for row in rows:
        values = row.values()
        product *= sum(map(mul, values, values))
    return isqrt(product) + 1


def prime_above(bound: int) -> int | None:
    """Smallest tabled prime 2^k - c greater than `bound`, or None.  The
    table steps by 30 bits from 2^60 to 2^1260, so for a `bound` between
    those P has at most 30 bits more than it."""
    for k, c in PRIMES:
        p = (1 << k) - c
        if p > bound:
            return p
    return None


def _centered(residue: int, p: int) -> int:
    """The integer of least absolute value congruent to `residue` mod p."""
    residue %= p
    return residue - p if residue > p // 2 else residue


def _det_modular(rows: list[dict[int, int]], p: int) -> int:
    """det(A) mod p as the residue of least absolute value, for a prime p
    and A given by its nonzero entries, row i as `rows[i] = {column: entry}`.

    Gaussian elimination over GF(p) in Markowitz order: the row with fewest
    entries left, and in it the column with fewest entries left.  Entries
    are reduced when the kernel starts and then lazily: an update adds
    g * v, with the row factor g and the pivot-row value v both reduced,
    and every read of a stored entry (pivot, pivot-row value, row factor)
    reduces it, so a stored entry that is 0 mod p is never used as a pivot,
    and each entry, updated at most once per pivot, stays below
    (n + 1) p^2.  Then det(A) = sgn(s) * prod(pivots) mod p, where s maps
    each pivot's row to its column.  A heap of (entry count, row) picks
    the row: every row a pivot touches is pushed again with its new count,
    and a popped entry whose row is done or holds another count is stale
    and skipped.
    """
    n = len(rows)
    rows = [{j: r for j, x in row.items() if (r := x % p)} for row in rows]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    done = [False] * n
    col_of = [0] * n
    det = 1
    while heap:
        size, r = heappop(heap)
        row = rows[r]
        if done[r] or size != len(row):
            continue  # stale heap entry
        while True:
            if not row:
                return 0  # no nonzero residue left in row r: A is singular mod p
            col = min(row, key=lambda j: len(cols[j]))
            cols[col].discard(r)
            pivot = row.pop(col) % p
            if pivot:
                break
        done[r] = True
        col_of[r] = col
        det = det * pivot % p
        for j in row:
            cols[j].discard(r)
        inv = pow(pivot, -1, p)
        items = [(j, v) for j, x in row.items() if (v := x % p)]
        for i in cols[col]:
            target = rows[i]
            g = -(target.pop(col) % p) * inv % p
            if g:
                get = target.get
                for j, v in items:
                    if j not in target:
                        cols[j].add(i)
                    target[j] = get(j, 0) + g * v
            heappush(heap, (len(target), i))
        cols[col] = set()
        row.clear()  # never read again: frees the entries of eliminated rows
    # parity of s: a cycle of length l is l - 1 transpositions
    seen = [False] * n
    odd = False
    for start in range(n):
        v = start
        while not seen[v]:
            seen[v] = True
            v = col_of[v]
            if v != start:
                odd = not odd
    return _centered(-det if odd else det, p)


def _det_symmetric(rows: list[dict[int, int]], p: int) -> int:
    """`_det_modular` for a symmetric A: det(A) mod p as the residue of least
    absolute value, for a prime p.

    Minimum-degree elimination with diagonal pivots over GF(p): the row with
    fewest entries left is eliminated together with its column.  Each step
    keeps the block left symmetric (it is the Schur complement on the
    pivot), so every pair update a_ab -= a_ar a_rb / a_rr is computed once
    and stored at both (a, b) and (b, a); entries are reduced lazily as in
    `_det_modular`, so each stays below (n + 1) p^2.  Eliminating a row
    with its column permutes nothing, so det(A) = prod(pivots) * det(block
    left).  When a diagonal residue is 0, as on a singular Laplacian, the
    block left (in which that diagonal is 0) goes to `_det_modular`, which
    reduces its entries when it starts.  The heap is `_det_modular`'s:
    every row a pivot touches is pushed again, and stale entries are
    skipped when popped.

    The popped row has the fewest entries, so once it holds at least
    DENSE_TAIL_TENTHS / 10 of the rows left, every row left does.  Then
    the block left goes to `_dense_tail` instead, its rows ordered by their
    entry count and then by index, whatever the popped diagonal is: pair
    updates on dicts cost about twenty bytecodes each, where the tail's dot
    products run in C.  A last row with a nonzero diagonal meets the rule,
    so an elimination that meets no zero diagonal first ends in the tail.
    """
    rows = [{j: r for j, x in row.items() if (r := x % p)} for row in rows]
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    done = [False] * len(rows)
    left = len(rows)
    det = 1
    while heap:
        size, r = heappop(heap)
        row = rows[r]
        if done[r] or size != len(row):
            continue  # stale heap entry
        dense = 10 * size >= DENSE_TAIL_TENTHS * left
        pivot = row.get(r, 0) % p
        if dense or not pivot:
            rest = [i for i, finished in enumerate(done) if not finished]
            rest.sort(key=lambda i: len(rows[i]))  # stable: ties stay in index order
            index = {i: new for new, i in enumerate(rest)}
            block = [{index[j]: x for j, x in rows[i].items()} for i in rest]
            return _centered(det * (_dense_tail if dense else _det_modular)(block, p), p)
        del row[r]
        done[r] = True
        left -= 1
        det = det * pivot % p
        for a in row:
            del rows[a][r]
        inv = pow(pivot, -1, p)
        items = [(j, v) for j, x in row.items() if (v := x % p)]
        for t, (a, va) in enumerate(items):
            target = rows[a]
            get = target.get
            g = -va * inv % p
            target[a] = get(a, 0) + g * va
            for b, vb in items[t + 1:]:
                target[b] = rows[b][a] = get(b, 0) + g * vb
        for a in row:
            heappush(heap, (len(rows[a]), a))
        row.clear()  # never read again: frees the entries of eliminated rows
    return _centered(det, p)


def _dense_tail(block: list[dict[int, int]], p: int) -> int:
    """det(A) mod p for a symmetric A given as `_det_modular` takes it, by
    left-looking LDL^T elimination over GF(p) on dense rows, two rows at a
    time in row order.

    A = L D L^T with L unit lower triangular.  Row j of U = L D is found
    from the rows of L before it: u_jt = a_jt - sum_s u_js l_ts for t < j,
    each one dot product over the columns s < t reduced once, and then
    l_jt = u_jt / d_t.  Rows j and j + 1 are found in one loop over the
    rows of L done, and their Schur complement on those rows is the 2 x 2
    [[d_j, s], [s, r]], with s = u_(j+1)j.  So N = d_j r - s^2 = d_j d_(j+1)
    needs no division, one inverse w = 1 / (d_j N) gives 1 / d_j = N w and
    1 / d_(j+1) = d_j^2 w, and l_(j+1)j = s / d_j.  A block of odd order
    gets a leading unit row and column, which leave its determinant as it
    is, so the rows always form pairs.  The last pair's N ends the product
    with no inverse, even when its d_j is 0, as at L's last vertex in the
    Temperley border [[L, 1], [1^T, -1]] of a connected graph.  So a block
    of k rows takes at most k // 2 inverses.  A zero d_j or N in an earlier
    pair hands the whole block to `_det_modular`.
    """
    a = _dense_rows(block, len(block))
    if len(a) % 2:
        a = [[1] + [0] * len(a), *([0, *row] for row in a)]
    k = len(a)
    lows: list[list[int]] = []  # the rows of L done, left of the diagonal
    inverses: list[int] = []  # 1 / d_t
    det = 1
    for j in range(0, k, 2):
        row, next_row = a[j], a[j + 1]
        u: list[int] = []
        v: list[int] = []
        for x, y, low_t in zip(row, next_row, lows):
            u.append((x - sum(map(mul, u, low_t))) % p)
            v.append((y - sum(map(mul, v, low_t))) % p)
        low = [x * inv % p for x, inv in zip(u, inverses)]
        next_low = [x * inv % p for x, inv in zip(v, inverses)]
        d = (row[j] - sum(map(mul, u, low))) % p
        s = (next_row[j] - sum(map(mul, v, low))) % p
        n = (d * (next_row[j + 1] - sum(map(mul, v, next_low))) - s * s) % p
        if j + 2 == k:
            return det * n % p
        if not d * n:
            return _det_modular(block, p)
        det = det * n % p
        w = pow(d * n, -1, p)
        inverses += (n * w % p, d * d * w % p)
        lows += (low, [*next_low, s * inverses[-2] % p])
    return det


def _det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    Pivots are the first nonzero entry in each column, searched downward;
    stability is irrelevant in exact arithmetic, the fixed order just keeps
    runs deterministic.
    """
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - factor * row_k[j], prev)
                assert r == 0, "Bareiss elimination produced an inexact division"
                row_i[j] = q
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_rat(m: Sequence[Sequence | dict]) -> Fraction:
    """Exact determinant of a square rational matrix, in either row form:
    each row scaled to integers by the lcm of its denominators, `det_int`
    of the result, and that divided by the product of the scales."""
    scaled, scale = [], 1
    for row in _dense_rows(m, _order(m)):
        row = [Fraction(x) for x in row]
        d = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    return Fraction(det_int(scaled), scale)


def minor_matrix(m: Sequence[Sequence | dict], row: int, col: int) -> list:
    """Copy of a square matrix with 1-based `row` and `col` deleted, in the
    row form it was given: a dict row loses column `col`, and its columns
    after `col` shift down by one."""
    n = _order(m)
    if not (1 <= row <= n and 1 <= col <= n):
        raise IndexOutOfRangeError(f"minor indices ({row},{col}) outside 1..{n}")
    c = col - 1
    return [
        {j - (j > c): x for j, x in r.items() if j != c} if isinstance(r, dict) else [*r[:c], *r[col:]]
        for i, r in enumerate(m, start=1)
        if i != row
    ]


def add_outer_product(m: IntRows, u: Sequence[int], v: Sequence[int]) -> IntMatrix:
    """Entrywise M + u v^T, as row lists, for an n x n matrix in either row
    form and length-n vectors."""
    n = _order(m)
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(f"vector lengths {len(u)}, {len(v)} do not match n={n}")
    return [[x + ui * y for x, y in zip(row, v)] for row, ui in zip(_dense_rows(m, n), u)]


def _outer_sum(rows: list[dict[int, int]], u: Sequence[int], v: Sequence[int]) -> list[dict[int, int]]:
    """M + u v^T as dict rows, for M as dict rows, in O(nnz(M) + nnz(u)
    nnz(v)): a row whose u_i is 0 is M's own row, not a copy, and the
    others store no zeros, so an entry that cancels to 0 is dropped."""
    column = [(j, x) for j, x in enumerate(v) if x]
    return [
        dict(filter(itemgetter(1), {**row, **{j: row.get(j, 0) + ui * x for j, x in column}}.items())) if ui else row
        for row, ui in zip(rows, u)
    ]


def det_perturbed(m: IntRows, u: Sequence[int], v: Sequence[int], *, bound: int | None = None) -> int:
    """det(M + u v^T) for an n x n matrix, given as `det_int` takes it, and
    length-n vectors; an entry of M, u or v that is not an int raises
    LinalgError.  `bound` is a bound on |det(M + u v^T)|, which `det_int`
    takes as it is, since the bordered matrix below has the same
    determinant up to sign.

    Below n + 1 = SPARSE_MIN_ORDER, `det_int` gets M + u v^T as row lists
    from `add_outer_product`: the bordered matrix would go to Bareiss too,
    one order larger.  From that order up, `det_int` gets the sparser of
    two matrices, judged from the nonzero counts of M, u and v without
    building either.  The bordered matrix
    [[M, u], [v^T, -1]] of order n + 1, whose Schur complement on its
    trailing -1 is M + u v^T, so its determinant is -det(M + u v^T), has
    nnz(M) + nnz(u) + nnz(v) + 1 nonzeros, and is built as M's rows as
    dicts with u in a column n added, and v with the -1 as one last row.
    It is used exactly when 2 nnz(M) + nnz(u) + nnz(v) + 1 < nnz(u)
    nnz(v): M + u v^T has at least nnz(u) nnz(v) - nnz(M) nonzeros, since
    each entry of M cancels at most one of u v^T.  Otherwise `_outer_sum`
    builds M + u v^T in dict rows, without the entries that cancel.  The
    border is symmetric when M is and u == v, so L + J of a sparse graph
    takes the symmetric kernel, and L + J = nI - L(complement) of a dense
    graph stays unbordered.
    M, u and v are checked here, and det_int checks the matrix built from
    them again.
    """
    n = _order(m)
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(f"vector lengths {len(u)}, {len(v)} do not match n={n}")
    nnz_u, nnz_v, nnz_m = _nonzeros([u]), _nonzeros([v]), _nonzeros(m)
    if n + 1 < SPARSE_MIN_ORDER:
        return det_int(add_outer_product(m, u, v), bound=bound)
    if 2 * nnz_m + nnz_u + nnz_v + 1 < nnz_u * nnz_v:
        bordered = [{**row, n: x} if x else row for row, x in zip(_sparse_rows(m), u)]
        last = {j: x for j, x in enumerate(v) if x}
        last[n] = -1
        bordered.append(last)
        return -det_int(bordered, bound=bound)
    return det_int(_outer_sum(_sparse_rows(m), u, v), bound=bound)


def adjugate(m: IntRows) -> IntMatrix:
    """Transpose of the cofactor matrix; satisfies M adj(M) = det(M) I.

    Computed as n^2 minor determinants.  That is O(n^5), which is fine at
    the scale this library targets; the 1x1 case is [[1]] by the empty
    minor convention.
    """
    n = _order(m)
    if n == 0:
        raise DimensionMismatchError("adjugate requires n >= 1")
    _nonzeros(m)  # checks the entries: a 1x1 matrix has only the empty minor
    return [
        [(-1 if (i + j) % 2 else 1) * det_int(minor_matrix(m, j + 1, i + 1)) for j in range(n)]
        for i in range(n)
    ]

