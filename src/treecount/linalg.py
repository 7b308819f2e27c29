"""Exact dense linear algebra over Python ints and Fractions.

Integer determinants use fraction-free Bareiss elimination, so every
intermediate value is an integer and every internal division is checked to
be exact.  Rational work (the bipartite reduction matrix) uses Fraction,
which keeps entries normalized with positive denominators.

Matrices are plain lists of row lists; row/column arguments on the public
surface are 1-based to match vertex labels.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

IntMatrix = list[list[int]]
RatMatrix = list[list[Fraction]]


class LinalgError(ValueError):
    """Invalid matrix input."""


class DimensionMismatchError(LinalgError):
    """Vector or block dimensions do not agree with the matrix."""


class IndexOutOfRangeError(LinalgError):
    """A row/column index falls outside the matrix."""


def _square_size(m: Sequence[Sequence]) -> int:
    n = len(m)
    for row in m:
        if len(row) != n:
            raise DimensionMismatchError(f"matrix is not square: {n} rows, row of length {len(row)}")
    return n


def det_int(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination.

    The 0x0 matrix has determinant 1 (empty product).  Pivots are the first
    nonzero entry in each column, searched downward; stability is irrelevant
    in exact arithmetic, the fixed order just keeps runs deterministic.
    """
    n = _square_size(m)
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


def det_rat(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant over the rationals by Gaussian elimination."""
    n = _square_size(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor:
                row_i, row_k = a[i], a[k]
                for j in range(k, n):
                    row_i[j] -= factor * row_k[j]
    return det


def minor_matrix(m: Sequence[Sequence], row: int, col: int) -> list[list]:
    """Copy of a square matrix with 1-based `row` and `col` deleted."""
    n = _square_size(m)
    if not (1 <= row <= n and 1 <= col <= n):
        raise IndexOutOfRangeError(f"minor indices ({row},{col}) outside 1..{n}")
    return [
        [x for j, x in enumerate(r, start=1) if j != col]
        for i, r in enumerate(m, start=1)
        if i != row
    ]


def add_outer_product(
    m: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]
) -> IntMatrix:
    """Entrywise M + u v^T for an n x n matrix and length-n vectors."""
    n = _square_size(m)
    if len(u) != n or len(v) != n:
        raise DimensionMismatchError(f"vector lengths {len(u)}, {len(v)} do not match n={n}")
    return [[m[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]


def det_perturbed(
    m: Sequence[Sequence[int]], u: Sequence[int], v: Sequence[int]
) -> int:
    """det(M + u v^T), computed directly on the perturbed matrix."""
    return det_int(add_outer_product(m, u, v))


def adjugate(m: Sequence[Sequence[int]]) -> IntMatrix:
    """Transpose of the cofactor matrix; satisfies M adj(M) = det(M) I.

    Computed as n^2 minor determinants.  That is O(n^5), which is fine at
    the scale this library targets; the 1x1 case is [[1]] by the empty
    minor convention.
    """
    n = _square_size(m)
    if n == 0:
        raise DimensionMismatchError("adjugate requires n >= 1")
    return [
        [(-1 if (i + j) % 2 else 1) * det_int(minor_matrix(m, j + 1, i + 1)) for j in range(n)]
        for i in range(n)
    ]

