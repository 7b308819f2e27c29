"""Reference kernels that measure how fast the machine runs during a run.

On a shared machine the speed of pure-Python code drifts by a quarter or
more over minutes, as other tenants come and go, and ten runs of the same
program spread by as much.  A kernel frozen here, timed between graphs all
through a run, slows down in the same phases as the program does, so the
benchmark divides every time it reports by the run's slowdown, the kernel's
mean time in the run over its reference time: figures are given at the
reference machine's typical speed.

Each workload gets the kernel that does the same kind of work as its
operations: fraction-free Gaussian elimination on a big-integer Laplacian
minor for the determinant workloads, and deletion-contraction over a
multigraph for `crosscheck`, where the oracles dominate.  The kernels are
the benchmark's own code, so no change to the program can change them; a
slower program still reads slower.
"""

from __future__ import annotations

import time
from collections import Counter


def bareiss(matrix: list[list[int]]) -> int:
    """Determinant by fraction-free elimination with row swaps."""
    a = [row[:] for row in matrix]
    n, prev, sign = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for i in range(k + 1, n):
            row = a[i]
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def grid_minor(k: int) -> list[list[int]]:
    """The k×k grid's Laplacian without its first row and column."""
    n = k * k
    lap = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in (i + 1 if (i + 1) % k else None, i + k if i + k < n else None):
            if j is not None:
                lap[i][j] -= 1
                lap[j][i] -= 1
                lap[i][i] += 1
                lap[j][j] += 1
    return [row[1:] for row in lap[1:]]


def delcon(n: int, edges: dict[tuple[int, int], int]) -> int:
    """Spanning trees of a loopless multigraph on 0..n-1, given as
    {(u, v): multiplicity} with u < v, by deletion-contraction."""
    if n == 1:
        return 1
    adjacent: dict[int, set[int]] = {}
    for u, v in edges:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adjacent.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) < n:
        return 0
    (u, v), mult = next(iter(edges.items()))
    rest = {e: m for e, m in edges.items() if e != (u, v)}
    # contract v into u, then move the last vertex into v's place
    merged: Counter = Counter()
    for (a, b), m in rest.items():
        a, b = (u if x == v else x for x in (a, b))
        a, b = (v if x == n - 1 else x for x in (a, b))
        if a != b:
            merged[min(a, b), max(a, b)] += m
    return delcon(n, rest) + mult * delcon(n - 1, dict(merged))


GRID = grid_minor(8)
K6 = {(i, j): 1 for i in range(6) for j in range(i + 1, 6)}

# workload -> (kernel, its exact result, its typical mean time in ms on the
# reference machine, a shared 2-vCPU VM with Python 3.11; this only sets the
# scale the times are given at)
KERNELS = {
    "sparse": (lambda: bareiss(GRID), 126231322912498539682594816, 10.0),
    "dense": (lambda: bareiss(GRID), 126231322912498539682594816, 10.0),
    "families": (lambda: bareiss(GRID), 126231322912498539682594816, 10.0),
    "crosscheck": (lambda: delcon(6, K6), 6 ** 4, 4.0),
}


class Probe:
    """Times of a workload's kernel over a stretch of a run."""

    INTERVAL = 0.25

    def __init__(self, workload: str):
        self.kernel, self.expected, self.reference_ms = KERNELS[workload]
        self.samples_ms: list[float] = []
        self.last = -float("inf")

    def sample(self) -> float:
        """Time the kernel once; return the seconds spent."""
        start = time.perf_counter()
        result = self.kernel()
        self.last = time.perf_counter()
        if result != self.expected:
            raise AssertionError(f"calibration kernel returned {result}, not {self.expected}")
        self.samples_ms.append((self.last - start) * 1000.0)
        return self.last - start

    def maybe(self) -> float:
        """Time the kernel if INTERVAL seconds have passed since it last
        ran; return the seconds spent, 0 if it did not run."""
        if time.perf_counter() - self.last < self.INTERVAL:
            return 0.0
        return self.sample()

    @property
    def slowdown(self) -> float:
        """How much slower than the reference this run's machine was."""
        return sum(self.samples_ms) / len(self.samples_ms) / self.reference_ms
