"""Brute-force spanning-tree counters used as ground truth.

Two deliberately independent oracles: exhaustive enumeration of (n-1)-edge
subsets, and the deletion-contraction recurrence on a multigraph.  Neither
touches the linear algebra, so a determinant bug cannot validate itself.
Both are desk-scale by design; the subset oracle refuses oversized inputs
outright rather than silently skipping.  Both spend their work on the
trees they count rather than on what they reject.

Both oracles first relabel the vertices in degeneracy order: repeatedly
the vertex with the fewest neighbours not yet taken, the smallest label on
ties (the removal order of Matula and Beck's smallest-last ordering).  Low
labels then go to the sparse end of the graph, which both searches visit
first.

The subset scan is a backtracking search over the edges sorted under the
new labels, as in Read and Tarjan's spanning-tree listing: it drops a
branch when an edge would close a cycle, and when some component of the
forest taken so far has no incident edge left ahead of the scan.  The
last four edges of a tree are not enumerated but counted in one pass over
the remaining edges, from the number of edges crossing each pair of the
last five components.

The recurrence splits at a vertex where it can, by the rooted-forest
expansion (Chaiken 1982) that `_k5_trees` uses for its fifth part and
`_k6_trees` for its sixth.  Take v, the vertex with the fewest bundles
(the smallest label on ties), with k_u copies to each neighbour u.  Every
spanning tree uses the bundles of some nonempty set S of v's neighbours:
with one, it is a tree of G - v with v hung on it; with |S| >= 2, less v
it is a forest of G - v with one tree per member of S, that is a spanning
tree of (G - v)/S, S merged into its smallest label and the bundles inside
S dropped.  So
tau(G) = (sum of k_u) * tau(G - v)
         + the sum over S with |S| >= 2 of (product of k_u over S) * tau((G - v)/S):
two parts when v has two bundles, five when it has three.
A vertex of d bundles would split into 2^d - d parts, so when v has four
or more the recurrence splits one bundle instead: for the k parallel
copies of an edge ab, every spanning tree uses none of them or exactly
one, so tau(G) = tau(G - all k copies) + k * tau(G / ab).  Before each
split it strips pendant vertices, found with a queue: a vertex whose only
bundle has k copies is joined to the tree by one of them, a factor of k,
and a vertex with no bundle left (other than the last one) leaves no
spanning tree.  The recurrence ends at six vertices: a stripped state of
four or five is counted by `_k5_trees`, and one of six by `_k6_trees`.  A
stripped state of three goes on like a larger one: either a bundle joins
every two of its vertices, and a vertex split takes it to parts of two
vertices and one, which stripping counts, or no bundle is left, and the
connectivity check counts it 0.  A bundle split takes the bundle with the
smallest labels.  Different splits reach the same stripped multigraph, so
each call keeps a cache from stripped state to tau (Haggard, Pearce and
Royle's deletion-contraction with a subgraph cache).
Both oracles run on explicit stacks: neither depends on Python's recursion
limit.

Both oracles end in one closed form, `_k5_trees`, on the pair counts of
four or five parts: the subset scan's last components, joined by the edges
ahead, and the recurrence's states of four or five vertices, joined by
their bundles.  On four parts it is e3 of their six pair counts minus the
four triangle products, the weighted count of the 16 spanning trees of K4.
Five parts are counted by the rooted-forest expansion (Chaiken's
all-minors matrix-tree theorem, read as a count of forests): a spanning
tree less one part v's edges is a forest of the other four with one tree
per part that v is joined to, so tau is the sum over nonempty sets S of
those four of the product of v's counts to S times the forests rooted at
S, each of which is one of the two smaller closed forms, a count sum, or
1.  The recurrence goes one vertex further: `_k6_trees` counts a state of
six vertices by the same expansion at its vertex of fewest bundles, over
`_k5_trees` of the other five and of them with S merged.  The subset scan
still ends at five components: a sixth there was slower, since it counts
crossing edges that the scan's pruning skips.  Like every closed form here
each is exact on any counts, so it is 0 when the parts are not connected.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations

from .graph import Graph, reach

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
    return len(chosen) == g.n - 1 and Graph(g.n, chosen).is_connected()


def tau_subsets(g: Graph, limit: int = DEFAULT_SUBSET_LIMIT) -> int:
    """Count spanning trees by enumerating (n-1)-edge subsets.

    Equivalent to testing every subset with is_spanning_tree, implemented
    as a backtracking scan over the edges relabelled by `_degeneracy_rank`
    and sorted under the new labels.  Each edge is first taken, when it
    joins two union-find components, and then skipped; the taken edges
    form an explicit stack of undo records.  A branch is
    abandoned as soon as a chosen edge would close a cycle, and as soon as
    a component of the taken forest has no incident edge left at or after
    the scan position: each root keeps the last edge index touching its
    component, the larger of the two on a merge, restored on undo.  The
    last four levels are counted in one pass over the remaining edges:
    with two components left every crossing edge completes a tree, with
    three any two crossing edges of different pairs do, with four any
    three crossing edges whose pairs form a spanning tree of K4 on the
    components, and with five any four whose pairs form a spanning tree
    of K5 (see `_last_levels`).  Refuses to run when C(|E|, n-1) exceeds
    `limit`.
    """
    n = g.n
    need = n - 1
    if math.comb(len(g.edges), need) > limit:
        raise OracleTooLargeError(
            f"C({len(g.edges)},{need}) exceeds the subset guard of {limit}"
        )
    if need == 0:
        return 1
    rank = _degeneracy_rank(n, g.edges)
    edges = []
    for a, b in g.edges:
        a, b = rank[a], rank[b]
        edges.append((a, b) if a < b else (b, a))
    edges.sort()
    last = [-1] * (n + 1)  # per root: the last edge index touching its component
    for idx, (a, b) in enumerate(edges):
        last[a] = last[b] = idx
    if min(last[1:]) < 0:  # an isolated vertex
        return 0
    total_edges = len(edges)
    parent = list(range(n + 1))
    size = [1] * (n + 1)
    taken: list[tuple[int, int, int, int]] = []  # (edge index, new root, merged root, its last)
    count = 0
    idx = 0
    while True:
        left = need - len(taken)
        if left <= 4:
            count += _last_levels(edges, idx, parent, left)
        elif total_edges - idx >= left:
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
                taken.append((idx, a, b, last[a]))
                last[a] = max(last[a], last[b])
            if last[a] > idx:  # the component (merged, or closed on) has edges ahead
                idx += 1
                continue
        # undo the last taken edge and go on with it skipped, while that
        # leaves both of its components an edge ahead
        while True:
            if not taken:
                return count
            idx, root_a, root_b, last[root_a] = taken.pop()
            parent[root_b] = root_b
            size[root_a] -= size[root_b]
            if last[root_a] > idx and last[root_b] > idx:
                idx += 1
                break


def _last_levels(edges: list[tuple[int, int]], idx: int, parent: list[int], left: int) -> int:
    """The ways to finish a forest of left + 1 components (left <= 4) with
    `left` edges from edges[idx:].  Each root gets a bit, so an edge's pair
    of components is named by the or of its roots' bits; an edge inside
    one component names a single bit, which no pair uses.  With two
    components every crossing edge completes a tree; with three, xy + yz +
    zx for x, y, z crossing edges per pair; with four or five, `_k5_trees`
    of the crossing edges per pair.  Every vertex takes its root's bit,
    found once, so an edge's pair costs two list reads."""
    bit = [0] * len(parent)
    next_bit = 1
    for v in range(1, len(parent)):
        root = v
        while parent[root] != root:
            root = parent[root]
        if not bit[root]:
            bit[root] = next_bit
            next_bit <<= 1
        bit[v] = bit[root]
    counts = [0] * 32  # by the or of two root bits
    for a, b in edges[idx:]:
        counts[bit[a] | bit[b]] += 1
    if left == 1:
        return counts[3]
    if left == 2:
        x, y, z = counts[3], counts[5], counts[6]
        return x * y + y * z + z * x
    # components a, b, c, d have bits 1, 2, 4, 8, and v, when there are five, 16
    v = (counts[17], counts[18], counts[20], counts[24]) if left == 4 else None
    return _k5_trees(counts[3], counts[5], counts[9], counts[6], counts[10], counts[12], v)


def _k5_trees(ab: int, ac: int, ad: int, bc: int, bd: int, cd: int, v=None) -> int:
    """The spanning trees of four parts a, b, c, d joined by ab, ..., cd
    edges per pair, or, with v their counts (va, vb, vc, vd) to a fifth
    part, of all five (see the module docstring).  Four: e3 of the six
    counts minus the four triangle products.  Five: the sum over nonempty
    sets S of a, b, c, d of the product of v's counts to S times the
    forests of the four rooted at S, which for |S| = 1 is the four-part
    count, for 2 the three-part count with both of S merged, for 3 the
    fourth's counts to S, and for 4 one, each written out as pair terms."""
    e1 = e2 = e3 = 0
    for k in (ab, ac, ad, bc, bd, cd):
        e3 += e2 * k
        e2 += e1 * k
        e1 += k
    tau = e3 - ab * ac * bc - ab * ad * bd - ac * ad * cd - bc * bd * cd
    if v is None:
        return tau
    va, vb, vc, vd = v
    tau *= va + vb + vc + vd
    # two trees, v joined to s and t: the three-part count with s and t merged
    x, y = ac + bc, ad + bd
    tau += va * vb * (x * y + (x + y) * cd)
    x, y = ab + bc, ad + cd
    tau += va * vc * (x * y + (x + y) * bd)
    x, y = ab + bd, ac + cd
    tau += va * vd * (x * y + (x + y) * bc)
    x, y = ab + ac, bd + cd
    tau += vb * vc * (x * y + (x + y) * ad)
    x, y = ab + ad, bc + cd
    tau += vb * vd * (x * y + (x + y) * ac)
    x, y = ac + ad, bc + bd
    tau += vc * vd * (x * y + (x + y) * ab)
    # three trees: the fourth part hangs on one of them; four: one forest
    tau += va * vb * vc * (ad + bd + cd + vd) + va * vb * vd * (ac + bc + cd)
    return tau + va * vc * vd * (ab + bc + bd) + vb * vc * vd * (ab + ac + ad)


# _PAIRS[d], for the first d of five parts: (group, then the other parts) for
# each group of two of them; _TRIPLES[d] and _QUADS[d] for groups of three, four
_PAIRS, _TRIPLES, _QUADS = (
    [[(*group, *(i for i in range(5) if i not in group)) for group in combinations(range(d), size)]
     for d in range(6)]
    for size in (2, 3, 4)
)


def _k6_trees(adj: dict) -> int:
    """The spanning trees of six vertices joined by the bundles of `adj`,
    {vertex: {neighbour: copies}}, by the rooted-forest expansion at v, the
    vertex with the fewest bundles (the smallest label on ties), with k_u
    copies to each neighbour u: (sum of k_u) times the five-part count of
    the other five, plus, for each set S of two or more of v's neighbours,
    (product of k_u over S) times the trees of the other five with S
    merged.  Those have four parts for |S| = 2, counted by the four-part
    form on summed counts, three for |S| = 3 (xy + yz + zx), two for |S| =
    4 (their crossing count) and one for |S| = 5 (1).  Exact on any
    bundles, so 0 when the six are not connected."""
    v = min(adj, key=lambda u: (len(adj[u]), u))
    split = adj[v]
    others = [*split, *(u for u in adj if u != v and u not in split)]  # v's neighbours first
    m = [[adj[w].get(u, 0) for u in others] for w in others]
    k = [*split.values()]
    d = len(k)
    (_, ab, ac, ad, ae), (_, _, bc, bd, be), (*_, cd, ce), (*_, de) = m[:4]
    tau = sum(k) * _k5_trees(ab, ac, ad, bc, bd, cd, (ae, be, ce, de))
    for i, j, p, q, r in _PAIRS[d]:  # S of two: four parts
        mi, mj, mp, mq = m[i], m[j], m[p], m[q]
        tau += k[i] * k[j] * _k5_trees(mi[p] + mj[p], mi[q] + mj[q], mi[r] + mj[r],
                                       mp[q], mp[r], mq[r])
    for i, j, h, p, q in _TRIPLES[d]:  # S of three: three parts, xy + yz + zx
        mi, mj, mh = m[i], m[j], m[h]
        x, y, z = mi[p] + mj[p] + mh[p], mi[q] + mj[q] + mh[q], m[p][q]
        tau += k[i] * k[j] * k[h] * (x * y + (x + y) * z)
    for i, j, h, g, p in _QUADS[d]:  # S of four: two parts, joined by their crossing count
        tau += k[i] * k[j] * k[h] * k[g] * (m[i][p] + m[j][p] + m[h][p] + m[g][p])
    return tau + (math.prod(k) if d == 5 else 0)  # S of five: one part


def _degeneracy_rank(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """rank[v], a permutation of 1..n over v in 1..n, for distinct pairs on
    1..n: the order in which repeatedly taking a vertex with the fewest
    neighbours not yet taken, the smallest label on ties, takes them.  A
    heap holds (neighbours left, v), pushed again on every decrease, and
    an entry that no longer matches is skipped, so this is O((n + m) log n)."""
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    left = [len(nbrs) for nbrs in adj]
    heap = [(left[v], v) for v in range(1, n + 1)]
    heapify(heap)
    rank = [0] * (n + 1)
    taken = 0
    while heap:
        d, v = heappop(heap)
        if rank[v] or d != left[v]:
            continue  # stale heap entry
        taken += 1
        rank[v] = taken
        for w in adj[v]:
            if not rank[w]:
                left[w] -= 1
                heappush(heap, (left[w], w))
    return rank


@dataclass(frozen=True)
class Multigraph:
    """Vertex count plus an edge multiset, {(i, j): multiplicity}.

    Construction stores each pair sorted, merging (j, i) into (i, j), and
    drops loops (no spanning tree contains one) and zero multiplicities.
    A vertex count, endpoint or multiplicity that is not an int raises
    ValueError.
    """

    n: int
    edges: Counter

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise ValueError(f"vertex count must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        edges: Counter = Counter()
        for (i, j), k in self.edges.items():
            if not isinstance(i, int) or not isinstance(j, int):
                raise ValueError(f"edge ({i!r},{j!r}) has an endpoint that is not an int")
            if not isinstance(k, int):
                raise ValueError(f"edge ({i},{j}) has multiplicity {k!r}, not an int")
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

    The vertices are first relabelled by `_degeneracy_rank`.  A state is
    (vertex count, bundles {(a, b): k}).  Each state first loses its
    pendant vertices (a factor of k each); one vertex left counts 1, four
    and five count `_k5_trees` of their bundles and six count `_k6_trees`
    (0 when the vertices are not connected), with no cache entry, so the
    recurrence ends at six vertices.  Any other state is looked up in the
    cache, then counts 0 when it is disconnected, and otherwise splits
    (see the module docstring).  Three stripped vertices are a triangle of
    bundles, which a vertex split takes to two vertices and one, or three
    stranded trees, which count 0 there.  At v, the vertex with the
    fewest bundles and the smallest label on ties, when v has two or
    three: tau = (sum of k_u) * tau(G - v) + the sum over sets S of two or
    more of v's neighbours of (product of k_u over S) * tau((G - v)/S), for
    k_u copies from v to u.  Else at its first bundle in sorted order, ab
    with k copies: tau = tau(G - ab) + k * tau(G / ab).  `_merged` builds
    every contraction.  The recurrence runs on an explicit post-order
    stack: a split pushes a combine frame, with one coefficient per part
    ((1, k) for a bundle split), under its parts, and the frame adds each
    part's result times its coefficient once all are on the value stack.

    Different splits reach the same stripped state, so a per-call
    cache maps its frozen bundles to tau.  The bundles fix the vertex
    count only when every vertex has one, and the key rests on that: a
    split at a vertex of fewest bundles never leaves a tree beside another
    component, so no state a split makes has a vertex without a bundle
    after stripping.  Only the input itself can, and then it is
    disconnected: the connectivity check counts it 0 before anything is
    cached.  A state is stored only the second time its hash is seen: a
    chain of states seen once, such as the shrinking cycles of a long
    cycle, keeps nothing but one int per state.
    """
    rank = _degeneracy_rank(mg.n, mg.edges)
    relabelled = {}
    for (a, b), k in mg.edges.items():
        a, b = rank[a], rank[b]
        relabelled[(a, b) if a < b else (b, a)] = k
    cache: dict[frozenset, int] = {}
    seen: set[int] = set()
    values: list[int] = []
    stack: list[tuple] = [(mg.n, relabelled)]
    while stack:
        task = stack.pop()
        if len(task) == 3:  # a combine frame: every part of its split is on `values`
            factor, coefficients, key = task
            tau = sum(c * values.pop() for c in reversed(coefficients))
            if key is not None:
                cache[key] = tau
            values.append(factor * tau)
            continue
        vertices, edges = task
        adj: dict[int, dict[int, int]] = {}
        for (a, b), k in edges.items():
            adj.setdefault(a, {})[b] = k
            adj.setdefault(b, {})[a] = k
        if len(adj) < vertices:  # a vertex without bundles: no tree unless it is alone
            values.append(1 if vertices == 1 else 0)
            continue
        factor = 1
        queue = deque(v for v, bundles in adj.items() if len(bundles) == 1)
        while queue:
            v = queue.popleft()
            if not adj[v]:  # stripped into by a pendant neighbour: last vertex, or disconnected
                continue
            ((u, k),) = adj.pop(v).items()
            factor *= k
            vertices -= 1
            del edges[(v, u) if v < u else (u, v)]
            del adj[u][v]
            if len(adj[u]) == 1:
                queue.append(u)
        if vertices == 1:
            values.append(factor)
            continue
        if vertices == 4 or vertices == 5:  # the fifth vertex, if any, is v of `_k5_trees`
            *fifth, a, b, c, d = adj
            v = [adj[fifth[0]].get(u, 0) for u in (a, b, c, d)] if fifth else None
            tau = _k5_trees(adj[a].get(b, 0), adj[a].get(c, 0), adj[a].get(d, 0),
                            adj[b].get(c, 0), adj[b].get(d, 0), adj[c].get(d, 0), v)
            values.append(factor * tau)
            continue
        if vertices == 6:
            values.append(factor * _k6_trees(adj))
            continue
        key = frozenset(edges.items())
        tau = cache.get(key)
        if tau is not None:
            values.append(factor * tau)
            continue
        if len(reach(adj.__getitem__, next(iter(adj)))) < len(adj):
            values.append(0)
            continue
        if hash(key) not in seen:
            seen.add(hash(key))
            key = None
        v = min(adj, key=lambda u: (len(adj[u]), u))
        bundles = adj[v]
        if len(bundles) <= 3:  # a vertex split, on which of v's bundles a tree uses
            for u in bundles:
                del edges[(v, u) if v < u else (u, v)]
            groups = [s for size in range(2, len(bundles) + 1) for s in combinations(bundles, size)]
            coefficients = (sum(bundles.values()), *(math.prod(map(bundles.get, s)) for s in groups))
            parts = [(vertices - 1, edges)]
            parts += [(vertices - len(s), _merged(edges, adj, s)) for s in groups]
        else:  # a bundle split on the first bundle ab
            a, b = min(edges)
            coefficients = (1, edges.pop((a, b)))
            parts = [(vertices, edges), (vertices - 1, _merged(edges, adj, (a, b)))]
        stack.append((factor, coefficients, key))
        stack.extend(reversed(parts))  # the first part first: the smaller ones wait
    return values.pop()


def _merged(edges: dict, adj: dict, group) -> dict:
    """A copy of `edges` with the vertices of `group` merged into its
    smallest label a: a bundle inside the group is dropped, and a bundle
    from another member to c outside it is added to the bundle ac.  `adj`
    may list bundles that `edges` no longer has (the split bundle, the
    split vertex's bundles); those are skipped."""
    a = min(group)
    merged = dict(edges)
    for b in group:
        if b == a:  # every bundle inside the group has an end other than a
            continue
        for c in adj[b]:
            k = merged.pop((b, c) if b < c else (c, b), 0)
            if k and c not in group:
                e = (a, c) if a < c else (c, a)
                merged[e] = merged.get(e, 0) + k
    return merged
