"""Spanning-tree counts from Laplacian determinants.

Three independent routes to tau(G): the classical reduced-Laplacian
cofactor, a rank-one determinant update det(L + u v^T) = (sum u)(sum v) tau,
and a Schur-complement reduction that collapses a bipartite Laplacian onto
one side of the bipartition.  All arithmetic is exact.

Each route's determinant is a known nonzero integer times tau: +-1 for a
reduced minor, (sum u)(sum v) for the rank-one update, and |R| |C| for
the reduction's det(S) prod deg(c).  Each tree gives every vertex but a
root r the edge towards r, so tau is at most the degree product
B_r = prod_{v != r} deg(v).  Every route ends in `_count`, the one place
that divides: it asserts that the division is exact and that
0 <= tau <= B_r, so an inexact, negative or oversized count is an
assertion failure, never a value.  The Laplacian routes hand
`linalg.det_int` the same bound on |det|, B_r for a minor and
|sum u sum v| B_1 for the rank-one update, and it sizes its prime by
that bound when it is below the Hadamard bound.  One residue mod a prime
above twice a true bound is exact with no slack, but with less slack
`_count`'s range check rejects fewer wrong residues.

The bipartite reduction works over GF(P) for one prime P: the entries
1/deg(c) of its matrix S become modular inverses, and `linalg.det_mod`
takes det(S) mod P.  P is the smallest tabled prime above 2 B_1 2^64, and
|R| |C| < 2^33, so the residue of det(S) prod deg(c) in [0, P) is
|R| |C| tau itself, and `_count` divides it like any other determinant.
The 64 bits of margin make that tail a self-check, at least as strong as
the integrality check of a count over the rationals: a wrong S passes
only when its residue is one of the B_1 + 1 multiples of |R| |C| up to
|R| |C| B_1, about once in 2^64.  A wrong S whose count is still an
integer in [0, B_1] passes, as it would over the rationals.

Every refusal of a route to count an input is a MethodUnavailableError:
an odd cycle, an empty side, an isolated column vertex or a bound above
the primes for the reduction, a zero vector sum for the rank-one update.
One except clause catches them all; the CLI maps it to exit 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Sequence
from math import prod

from . import linalg
from .graph import Graph, reach


class MethodUnavailableError(ValueError):
    """A counting route cannot count this input."""


class ZeroVectorSumError(MethodUnavailableError):
    """A rank-one update vector sums to zero, so the count cannot be recovered."""


class NotBipartitionError(MethodUnavailableError):
    """The given vertex split is not a bipartition of the graph."""


class IsolatedColumnVertexError(MethodUnavailableError):
    """A column-side vertex has degree zero, so 1/deg(c) is undefined."""


class BoundAbovePrimesError(MethodUnavailableError):
    """The bipartite reduction's degree-product bound, with its margin, is
    above the largest tabled prime."""


@dataclass(frozen=True)
class Bipartition:
    """Ordered two-sided vertex split: no edge may run inside either side."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))


def check_bipartition(g: Graph, bp: Bipartition) -> None:
    """Raise NotBipartitionError unless bp is a valid bipartition of g."""
    rows, cols = set(bp.rows), set(bp.cols)
    if len(rows) != len(bp.rows) or len(cols) != len(bp.cols):
        raise NotBipartitionError("bipartition sides contain repeated vertices")
    if rows & cols:
        raise NotBipartitionError(f"sides overlap on {sorted(rows & cols)}")
    if rows | cols != set(range(1, g.n + 1)):
        raise NotBipartitionError("sides do not cover the vertex set exactly")
    for i, j in g.edges:
        if (i in rows) == (j in rows):
            raise NotBipartitionError(f"edge ({i},{j}) lies inside one side")


def find_bipartition(g: Graph) -> Bipartition | None:
    """Two-color g by search; None when some component has an odd cycle.

    Each component is colored by the parity of the distance from its
    smallest vertex, so isolated vertices and component roots go to the
    row side, and the result is deterministic for a given graph.
    """
    dist: dict[int, int] = {}
    for start in range(1, g.n + 1):
        if start not in dist:
            dist.update(reach(g.neighbors, start))
    # the ends of an edge are at most one step apart, so same parity is same distance
    if any(dist[i] == dist[j] for i, j in g.edges):
        return None
    rows = tuple(v for v in range(1, g.n + 1) if dist[v] % 2 == 0)
    cols = tuple(v for v in range(1, g.n + 1) if dist[v] % 2 == 1)
    return Bipartition(rows, cols)


def _degree_bound(g: Graph, root: int) -> int:
    """prod_{v != root} deg(v), an upper bound on tau(g) for any root."""
    return prod(g.degree(v) for v in range(1, g.n + 1) if v != root)


def _count(det: int, scale: int, bound: int) -> int:
    """tau = det / scale, for a route whose determinant is scale * tau and
    whose count is at most bound; the only place a count is divided or
    checked.  A remainder, or a quotient outside [0, bound], is an
    arithmetic bug, not an error path."""
    value, rem = divmod(det, scale)
    assert rem == 0 and 0 <= value <= bound, "determinant is not scale times a count in [0, bound]"
    return value


def tau_reduced(g: Graph, row: int, col: int) -> int:
    """Count spanning trees from the reduced Laplacian with `row` and `col`
    deleted: (-1)^(row+col) det(L_{row,col}).  Any vertex pair gives the
    same value; disconnected graphs give 0.  The minor is
    `linalg.minor_matrix` of the sparse Laplacian rows, so it stays in dict
    rows, and indices outside 1..n raise IndexOutOfRangeError there."""
    minor = linalg.minor_matrix(g.laplacian_rows(), row, col)
    bound = _degree_bound(g, row)
    return _count(linalg.det_int(minor, bound=bound), -1 if (row + col) % 2 else 1, bound)


def tau_rank_one(g: Graph, u: Sequence[int], v: Sequence[int]) -> int:
    """Count spanning trees as det(L + u v^T) / ((sum u)(sum v)).

    Both vector sums must be nonzero; the identity degenerates to 0 = 0
    otherwise.  The division is exact for any valid input, so a remainder
    is an arithmetic bug, not an error path (see `_count`).
    """
    sum_u, sum_v = sum(u), sum(v)
    if sum_u == 0 or sum_v == 0:
        raise ZeroVectorSumError("rank-one vector sums must be nonzero to recover the count")
    scale, bound = sum_u * sum_v, _degree_bound(g, 1)
    det = linalg.det_perturbed(g.laplacian_rows(), u, v, bound=abs(scale) * bound)
    return _count(det, scale, bound)


def tau_temperley(g: Graph) -> int:
    """Count spanning trees as det(L + J) / n^2, J the all-ones matrix.

    This is the rank-one route with u = v = all-ones: it needs no choice of
    row and column, and handles every graph including the single vertex.
    """
    ones = [1] * g.n
    return tau_rank_one(g, ones, ones)


def s_matrix(g: Graph, bp: Bipartition) -> linalg.RatMatrix:
    """Reduction of a bipartite Laplacian onto the row side.

    Entry (r,r) is deg(r); entry (r,r') for r != r' is the sum of 1/deg(c)
    over columns c adjacent to r but not to r'.  The diagonal needs no
    correction term because the corresponding correction matrix has zero
    diagonal.  bp is checked with `check_bipartition` first.
    """
    check_bipartition(g, bp)
    return _reduction(g, bp, {c: Fraction(1, d) for c, d in _column_degrees(g, bp).items()})


def _column_degrees(g: Graph, bp: Bipartition) -> dict[int, int]:
    degrees = {c: g.degree(c) for c in bp.cols}
    for c, d in degrees.items():
        if d == 0:
            raise IsolatedColumnVertexError(f"schur cannot count this graph: column vertex {c} has degree 0")
    return degrees


def _reduction(g: Graph, bp: Bipartition, reciprocal: dict) -> list[list]:
    """`s_matrix` for a bp already known to be a bipartition of g, with
    reciprocal[c] standing for 1/deg(c): a Fraction, or an inverse mod P."""
    nbrs = {r: g.neighbors(r) for r in bp.rows}
    return [
        [g.degree(r) if r == r2 else sum(map(reciprocal.__getitem__, nbrs[r] - nbrs[r2])) for r2 in bp.rows]
        for r in bp.rows
    ]


def tau_bipartite_schur(g: Graph, bp: Bipartition | None = None) -> int:
    """Count spanning trees of a bipartite graph from its reduction matrix:
    (prod of column degrees) * det(S) / (|rows| * |cols|), over GF(P) (see
    the module docstring).

    A given bp is checked with `check_bipartition`; without one, the
    bipartition comes from `find_bipartition`, and a graph with an odd
    cycle raises NotBipartitionError.  A bound above the largest tabled
    prime raises BoundAbovePrimesError.
    """
    if bp is None:
        bp = find_bipartition(g)
        if bp is None:
            raise NotBipartitionError("schur needs a bipartite graph; this one has an odd cycle")
    else:
        check_bipartition(g, bp)
    m, n = len(bp.rows), len(bp.cols)
    if m == 0 or n == 0:
        raise NotBipartitionError("schur needs a bipartite graph with two nonempty sides")
    degrees = _column_degrees(g, bp)
    bound = _degree_bound(g, 1)
    p = linalg.prime_above(2 * bound << 64)
    if p is None:
        raise BoundAbovePrimesError(f"schur cannot count this graph: a {bound.bit_length()}-bit degree product")
    det = linalg.det_mod(_reduction(g, bp, {c: pow(d, -1, p) for c, d in degrees.items()}), p)
    return _count(det * prod(degrees.values()) % p, m * n, bound)


def tau(g: Graph) -> int:
    """Number of spanning trees of g.

    Uses the matrix that keeps g's sparsity, so the determinant kernel can
    exploit it: the reduced Laplacian with row and column 1 deleted when g
    has at most half of all possible edges, else L + J = nI - L(complement),
    which follows the sparser complement.
    """
    if len(g.edges) <= g.n * (g.n - 1) // 4:
        return tau_reduced(g, 1, 1)
    return tau_temperley(g)
