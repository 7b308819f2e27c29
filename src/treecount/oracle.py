"""Brute-force spanning-tree counters used as ground truth.

Two deliberately independent oracles: exhaustive enumeration of (n-1)-edge
subsets, and the deletion-contraction recurrence on a multigraph.  Neither
touches the linear algebra, so a determinant bug cannot validate itself.
Both are desk-scale by design; the subset oracle refuses oversized inputs
outright rather than silently skipping.

The recurrence splits a whole bundle at a time: for the k parallel copies
of an edge ab, every spanning tree uses none of them or exactly one, so
tau(G) = tau(G - all k copies) + k * tau(G / ab).  Before each split it
strips pendant vertices, found with a queue: a vertex whose only bundle has
k copies is joined to the tree by one of them, a factor of k, and a vertex
with no bundle left (other than the last one) leaves no spanning tree.  The
recurrence is linear, so it runs on an explicit stack of weighted states,
as the subset scan does: neither oracle depends on Python's recursion limit.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import Graph

DEFAULT_SUBSET_LIMIT = 10_000_000


class EdgeNotInGraphError(ValueError):
    """A candidate subset mentions an edge the graph does not contain."""


class OracleTooLargeError(ValueError):
    """The subset space exceeds the enumeration guard."""


def is_spanning_tree(g: Graph, subset: Iterable[tuple[int, int]]) -> bool:
    """True when the edge subset forms a spanning tree of g.

    Checks edge count n-1 plus connectivity over all n vertices; with the
    count fixed, connectivity already rules out cycles.
    """
    chosen = set()
    for i, j in subset:
        e = (i, j) if i < j else (j, i)
        if e not in g.edges:
            raise EdgeNotInGraphError(f"edge ({i},{j}) is not in the graph")
        chosen.add(e)
    if len(chosen) != g.n - 1:
        return False
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for i, j in chosen:
        adj[i].append(j)
        adj[j].append(i)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def tau_subsets(g: Graph, limit: int = DEFAULT_SUBSET_LIMIT) -> int:
    """Count spanning trees by enumerating (n-1)-edge subsets.

    Equivalent to testing every subset with is_spanning_tree, implemented
    as a backtracking scan that abandons a branch as soon as a chosen edge
    closes a cycle.  Each edge is first taken, when it joins two
    union-find components, and then skipped; the taken edges form an
    explicit stack of undo records.  Refuses to run when C(|E|, n-1)
    exceeds `limit`.
    """
    n = g.n
    edges = sorted(g.edges)
    need = n - 1
    if math.comb(len(edges), need) > limit:
        raise OracleTooLargeError(
            f"C({len(edges)},{need}) exceeds the subset guard of {limit}"
        )
    total_edges = len(edges)
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    taken: list[tuple[int, int, int]] = []  # (edge index, new root, merged root)
    count = 0
    idx = 0
    while True:
        chosen = len(taken)
        if chosen < need and total_edges - idx >= need - chosen:
            a, b = edges[idx]
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
                taken.append((idx, a, b))
            idx += 1
            continue
        if chosen == need:
            count += 1
        if not taken:
            return count
        # undo the last taken edge and go on with it skipped
        idx, root_a, root_b = taken.pop()
        parent[root_b] = root_b
        size[root_a] -= size[root_b]
        idx += 1


@dataclass(frozen=True)
class Multigraph:
    """Vertex count plus an edge multiset, {(i, j): multiplicity}.

    Construction stores each pair sorted, merging (j, i) into (i, j), and
    drops loops (no spanning tree contains one) and zero multiplicities.
    """

    n: int
    edges: Counter

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        edges: Counter = Counter()
        for (i, j), k in self.edges.items():
            if k < 0:
                raise ValueError(f"edge ({i},{j}) has negative multiplicity {k}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) has an endpoint outside 1..{self.n}")
            if k and i != j:
                edges[(i, j) if i < j else (j, i)] += k
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_graph(cls, g: Graph) -> "Multigraph":
        return cls(g.n, Counter(g.edges))


def tau_delcon(mg: Multigraph) -> int:
    """Count spanning trees by the deletion-contraction recurrence.

    A state is (weight, vertex count, bundles {(a, b): k}); tau(G) is the
    total counted so far plus weight * tau(state) summed over the stack,
    which starts as [(1, n, G's bundles)].  Each state first loses its
    pendant vertices (a factor of k each), then counts its weight if one
    vertex is left, and 0 if it is disconnected; otherwise its first bundle
    in sorted order, ab with k copies, splits it into (weight, G - ab) and
    (weight * k, G / ab), b merged into a.
    """
    total = 0
    stack = [(1, mg.n, dict(mg.edges))]
    while stack:
        weight, vertices, edges = stack.pop()
        adj: dict[int, dict[int, int]] = {}
        for (a, b), k in edges.items():
            adj.setdefault(a, {})[b] = k
            adj.setdefault(b, {})[a] = k
        if len(adj) < vertices:  # a vertex without bundles: no tree unless it is alone
            total += weight if vertices == 1 else 0
            continue
        queue = deque(v for v, bundles in adj.items() if len(bundles) == 1)
        while queue:
            v = queue.popleft()
            if not adj[v]:  # stripped into by a pendant neighbour: last vertex, or disconnected
                continue
            ((u, k),) = adj.pop(v).items()
            weight *= k
            vertices -= 1
            del edges[(v, u) if v < u else (u, v)]
            del adj[u][v]
            if len(adj[u]) == 1:
                queue.append(u)
        if vertices == 1:
            total += weight
            continue
        if not _connected(adj):
            continue
        a, b = min(edges)
        k = edges.pop((a, b))
        contracted = dict(edges)
        for c, kc in adj[b].items():
            if c != a:
                del contracted[(b, c) if b < c else (c, b)]
                e = (a, c) if a < c else (c, a)
                contracted[e] = contracted.get(e, 0) + kc
        stack.append((weight, vertices, edges))
        stack.append((weight * k, vertices - 1, contracted))
    return total


def _connected(adj: dict[int, dict[int, int]]) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)
