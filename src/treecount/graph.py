"""Simple undirected graphs on vertices 1..n, with degrees and Laplacians,
and the package's one graph search."""

from __future__ import annotations

from collections.abc import Callable, Iterable

# The most vertices a parsed input may declare, checked before anything is
# allocated for them: ten times the order of the largest graphs the
# determinant kernels are meant for (about 10^4 vertices), and far below
# the count whose adjacency sets alone would exhaust memory.
MAX_VERTICES = 100_000

# The most edges a graph may have before one is built from a family spec or
# an edge-list header: a Graph of 10^6 edges takes about 0.4 GiB, while the
# vertex cap alone admits K_100000's 5 * 10^9 edges.
MAX_EDGES = 1_000_000


class GraphError(ValueError):
    """Invalid graph construction or vertex access."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered pair appears more than once in the input."""


class OutOfRangeError(GraphError):
    """A vertex index falls outside 1..n."""


class Graph:
    """Immutable simple undirected graph on vertices labelled 1..n.

    Edges are unordered pairs of distinct vertices, each stored once as a
    sorted tuple.  Loops, duplicate edges, and a vertex count or endpoint
    that is not an int are rejected at construction so bad input surfaces
    early rather than being silently cleaned up.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edge_list: Iterable[tuple[int, int]] = ()):
        if not isinstance(n, int):
            raise GraphError(f"vertex count must be an int, got {n!r}")
        if n < 1:
            raise GraphError(f"vertex count must be >= 1, got {n}")
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        edges: set[tuple[int, int]] = set()
        for i, j in edge_list:
            if not isinstance(i, int) or not isinstance(j, int):
                raise GraphError(f"edge ({i!r},{j!r}) has an endpoint that is not an int")
            if i == j:
                raise LoopEdgeError(f"loop edge ({i},{j}) is not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise OutOfRangeError(f"edge ({i},{j}) has an endpoint outside 1..{n}")
            e = (i, j) if i < j else (j, i)
            if e in edges:
                raise DuplicateEdgeError(f"edge ({i},{j}) appears more than once")
            edges.add(e)
            adj[i].add(j)
            adj[j].add(i)
        self.n = n
        self.edges = frozenset(edges)
        self._adj = {v: frozenset(nb) for v, nb in adj.items()}

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise OutOfRangeError(f"vertex {v} outside 1..{self.n}")

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        """Set of vertices sharing an edge with v."""
        self._check_vertex(v)
        return self._adj[v]

    def laplacian_rows(self) -> list[dict[int, int]]:
        """The Laplacian as n sparse rows: row i - 1 is {column: entry}, with
        0-based columns, -1 at each neighbour of i and deg(i) on the
        diagonal.  No zero is stored, so the row of an isolated vertex is
        empty."""
        rows = []
        for v, nb in self._adj.items():
            row = {w - 1: -1 for w in nb}
            if nb:
                row[v - 1] = len(nb)
            rows.append(row)
        return rows

    def laplacian(self) -> list[list[int]]:
        """Degree matrix minus adjacency matrix, as an n x n list of ints.

        Entry (i,i) is deg(i), entry (i,j) is -1 when {i,j} is an edge and 0
        otherwise, so every row and column sums to zero.  It is the dense
        form of `laplacian_rows`.
        """
        lap = []
        for row in self.laplacian_rows():
            dense = [0] * self.n
            for j, x in row.items():
                dense[j] = x
            lap.append(dense)
        return lap

    def is_connected(self) -> bool:
        """True when every vertex is reachable from vertex 1."""
        return len(reach(self._adj.__getitem__, 1)) == self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


def reach(neighbors: Callable[[int], Iterable[int]], start: int) -> dict[int, int]:
    """Breadth-first search from start: {vertex: its distance from start}
    for every vertex that start reaches, where neighbors(v) yields v's
    neighbours.  Every connectivity and two-colouring question in the
    package is answered from this one search."""
    dist = {start: 0}
    order = [start]
    for v in order:  # the queue: the loop also visits what it appends
        for w in neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    return dist


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Construct a Graph from a vertex count and an edge list."""
    return Graph(n, edge_list)
