"""Graph family generators and their closed-form spanning-tree counts.

Five families: complete graphs, complete bipartite and multipartite graphs,
Ferrers graphs of integer partitions, and threshold graphs given by a
creation sequence.  Each family has a generator returning a Graph with a
fixed, documented vertex numbering, and a closed-form count that the test
suite checks against the determinant methods and the brute-force oracles.
Under that numbering every family joins each vertex v to exactly the
vertices 1..a_v below it, so each generator only computes its sequence a
of lower-neighbour counts (for a Ferrers graph, the conjugate partition
after a zero per row).

Family spec strings (shared by all CLI commands):

    complete:N            bipartite:M,N         multipartite:N1,N2,...
    ferrers:L1,L2,...     threshold:BITS

Numeric argument lists accept a repetition token CxV meaning C copies of V
(so ferrers:3x4 is the partition (4,4,4)).  Threshold BITS is a string over
{d,i}: d adds a vertex adjacent to everything so far, i adds an isolated
vertex, read left to right in addition order.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

from .graph import MAX_EDGES, MAX_VERTICES, Graph

DOMINATING = "d"
ISOLATED = "i"


class FamilySpecError(ValueError):
    """Malformed family spec string or invalid family parameters."""


class NotThresholdOrderedError(ValueError):
    """Vertex labels do not satisfy the threshold ordering property."""


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or value < 1:
        raise FamilySpecError(f"{name} must be a positive integer, got {value!r}")


def _check_sizes(sizes: Sequence[int]) -> list[int]:
    """At least one size, each a positive integer."""
    sizes = list(sizes)
    if not sizes:
        raise FamilySpecError("family needs at least one size")
    for s in sizes:
        _check_positive("size", s)
    return sizes


def _check_partition(parts: Sequence[int]) -> list[int]:
    parts = _check_sizes(parts)
    if any(a < b for a, b in zip(parts, parts[1:])):
        raise FamilySpecError(f"partition parts must be weakly decreasing, got {parts}")
    return parts


def _check_bits(bits) -> str:
    text = "".join(bits).lower()
    if any(ch not in (DOMINATING, ISOLATED) for ch in text):
        raise FamilySpecError(f"threshold sequence may only contain 'd' and 'i', got {text!r}")
    return text


def _parse_bits(text: str) -> str:
    """A threshold creation sequence from spec text, whose length, one less
    than the vertex count, is checked against MAX_VERTICES first."""
    text = text.strip()
    if len(text) >= MAX_VERTICES:
        raise FamilySpecError(
            f"threshold sequence of {len(text)} steps makes {len(text) + 1} vertices, "
            f"above the limit of {MAX_VERTICES}"
        )
    return _check_bits(text)


def _prefix_graph(lower: Sequence[int]) -> Graph:
    """The graph on 1..len(lower) that joins each vertex v to exactly the
    vertices 1..lower[v-1] below it."""
    return Graph(len(lower), ((u, v) for v, below in enumerate(lower, 1) for u in range(1, below + 1)))


def gen_complete(n: int) -> Graph:
    """Complete graph on n vertices: every pair joined."""
    _check_positive("n", n)
    return _prefix_graph(range(n))


def gen_complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite graph: side one is 1..m, side two is m+1..m+n,
    with exactly the m*n cross edges."""
    _check_positive("m", m)
    _check_positive("n", n)
    return _prefix_graph([0] * m + [m] * n)


def gen_complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph with consecutively numbered parts.

    Vertices 1..sizes[0] form the first part, the next sizes[1] vertices the
    second, and so on; two vertices are adjacent exactly when they lie in
    different parts.
    """
    sizes = _check_sizes(sizes)
    lower = []
    for size in sizes:  # a part's vertices see every vertex of the parts before it
        lower += [len(lower)] * size
    return _prefix_graph(lower)


def gen_ferrers(parts: Sequence[int]) -> Graph:
    """Bipartite graph of a partition's diagram.

    With m parts and largest part n, vertices 1..m are the m rows and
    m+1..m+n the n columns; row i is joined to column j exactly when the
    diagram has a box at (i,j), i.e. j <= parts[i-1].
    """
    parts = _check_partition(parts)
    return _prefix_graph([0] * len(parts) + conjugate_partition(parts))


def gen_threshold(bits) -> Graph:
    """Threshold graph built from a creation sequence, in canonical order.

    Construction: start from a single vertex, then for each character add a
    dominating vertex ('d', adjacent to all vertices so far) or an isolated
    one ('i').  The dominating vertices are numbered first in reverse
    addition order (last added becomes vertex 1), the initial vertex
    follows them at position t = #d + 1, and the isolated additions trail
    in addition order.  Under this labelling, vertices 1..t form the unique
    maximal clique prefix, an isolated addition is joined to the vertices
    1..c where c is the number of 'd's after it, and every edge {k,l} with
    k < l implies the edges {i,l} for i < k and {k,j} for j < l.
    """
    text = _check_bits(bits)
    later = text.count(DOMINATING)  # 'd' steps after the current one
    lower = list(range(later + 1))  # the clique prefix 1..t
    for ch in text:
        later -= ch == DOMINATING
        if ch == ISOLATED:
            lower.append(later)
    return _prefix_graph(lower)


def threshold_t(g: Graph) -> int:
    """Largest index t such that vertex t is adjacent to every lower index.

    Requires g to be labelled in threshold order; a labelling that violates
    the ordering property raises NotThresholdOrderedError.
    """
    for i, j in g.edges:
        for k in range(1, i):
            if (k, j) not in g.edges:
                raise NotThresholdOrderedError(
                    f"edge ({i},{j}) present but ({k},{j}) missing"
                )
        for k in range(1, j):
            if k != i and (min(i, k), max(i, k)) not in g.edges:
                raise NotThresholdOrderedError(
                    f"edge ({i},{j}) present but ({i},{k}) missing"
                )
    for t in range(g.n, 0, -1):
        if all((i, t) in g.edges for i in range(1, t)):
            return t
    raise AssertionError("unreachable: t = 1 always qualifies")


def conjugate_partition(parts: Sequence[int]) -> list[int]:
    """Transpose of the partition diagram.

    The returned list has length parts[0]; its j-th entry (1-based) is the
    number of parts of size at least j, which is also the degree of column
    vertex j in the Ferrers graph.
    """
    parts = _check_partition(parts)
    conj, rows = [], len(parts)
    for j in range(1, parts[0] + 1):
        while parts[rows - 1] < j:  # parts weakly decrease, so rows only ever drops
            rows -= 1
        conj.append(rows)
    return conj


def _product(powers) -> int:
    """The product of factor ** exponent over a factor -> exponent mapping.

    Each distinct factor is raised to its exponent once; the powers are then
    multiplied in pairs, level by level, so that each multiplication joins
    numbers of similar size.  An empty mapping gives 1.
    """
    level = [factor**exponent for factor, exponent in powers.items()]
    while len(level) > 1:
        level = [math.prod(level[i:i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


def count_complete(n: int) -> int:
    """n^(n-2) spanning trees; the single vertex counts 1 by convention."""
    _check_positive("n", n)
    if n == 1:
        return 1
    return n ** (n - 2)


def count_complete_bipartite(m: int, n: int) -> int:
    """m^(n-1) * n^(m-1) spanning trees."""
    _check_positive("m", m)
    _check_positive("n", n)
    return m ** (n - 1) * n ** (m - 1)


def count_complete_multipartite(sizes: Sequence[int]) -> int:
    """n^(k-2) * prod (n - n_i)^(n_i - 1) spanning trees over k parts.

    A single part gives an edgeless graph: 1 for the lone vertex, else 0.
    """
    sizes = _check_sizes(sizes)
    n = sum(sizes)
    if len(sizes) == 1:
        return 1 if n == 1 else 0
    # equal parts share one factor n - n_i, its exponents summed, never expanded
    powers = {n - size: repeat * (size - 1) for size, repeat in Counter(sizes).items()}
    return _product({n: len(sizes) - 2, **powers})


def count_ferrers(parts: Sequence[int]) -> int:
    """Product of row degrees 2..m times column degrees 2..n.

    Row degrees are the parts themselves and column degrees the conjugate
    parts.  The equivalent form prod(all degrees) / (m*n) is computed too
    and the two are asserted equal.
    """
    parts = _check_partition(parts)
    conj = conjugate_partition(parts)
    from_second = _product(Counter(parts[1:] + conj[1:]))
    quotient, rem = divmod(_product(Counter(parts + conj)), len(parts) * parts[0])
    assert rem == 0 and quotient == from_second, "the two degree-product forms disagree"
    return from_second


def count_threshold(bits) -> int:
    """Spanning trees of the threshold graph of a creation sequence.

    For a connected graph this is prod_{i=2}^{t-1} (deg(v_i)+1) times
    prod_{i=t+1}^{n} deg(v_i) over the canonical labelling of gen_threshold,
    where t = #d + 1 is the clique-prefix length.  Both come straight from
    the sequence in O(n): a vertex added by 'd' at step s has degree s plus
    the number of later 'd's, one added by 'i' only the later 'd's.  The
    graph is disconnected exactly when the sequence ends in 'i', which
    counts 0, matching tau: that step's factor, its later 'd's, is 0.
    """
    text = _check_bits(bits)
    later = text.count(DOMINATING)  # 'd' steps after the current one
    powers = Counter()
    for step, ch in enumerate(text, start=1):
        later -= ch == DOMINATING
        if ch == ISOLATED:
            powers[later] += 1
        elif later:  # the last 'd' is vertex 1, outside the product
            powers[step + later + 1] += 1
    return _product(powers)


@dataclass(frozen=True)
class Family:
    """A parsed family spec: the kind plus its numeric or bit arguments."""

    kind: str
    args: tuple

    def __post_init__(self):
        _kind_entry(self.kind)

    def graph(self) -> Graph:
        """The family's graph; FamilySpecError, before any edge is made,
        when it would have more than MAX_EDGES edges."""
        edges = self.size()[1]
        if edges > MAX_EDGES:
            raise FamilySpecError(f"{self.kind} graph has {edges} edges, above the limit of {MAX_EDGES}")
        return KINDS[self.kind][1](self.args)

    def formula_count(self) -> int:
        return KINDS[self.kind][2](self.args)

    def size(self) -> tuple[int, int]:
        """(vertices, edges) of `graph()`, in closed form: nothing is built."""
        return KINDS[self.kind][3](self.args)


_INT_TOKEN = re.compile(r"^(?:(\d+)x)?(\d+)$")


def _parse_sizes(kind: str, text: str, count: int | None = None) -> tuple[int, ...]:
    """Positive sizes from a comma list with CxV repetition; exactly `count`
    of them when given.

    The sum of C * V over the tokens is checked against MAX_VERTICES before
    any token is expanded.  It is the vertex count of the complete kinds and
    the edge count of a Ferrers graph, which has at most twice as many
    vertices as edges; a V of 0 is rejected first, so the sum also bounds
    the number of sizes.
    """
    if not text:
        raise FamilySpecError(f"{kind} spec needs arguments")
    tokens = []
    for token in text.split(","):
        match = _INT_TOKEN.match(token.strip())
        if not match:
            raise FamilySpecError(f"bad numeric token {token!r} in {kind} spec")
        try:
            repeat, value = int(match.group(1) or 1), int(match.group(2))
        except ValueError:  # above the interpreter's digit limit for int()
            raise FamilySpecError(f"numeric token in {kind} spec has too many digits") from None
        _check_positive("size", value)
        tokens.append((repeat, value))
    total = sum(repeat * value for repeat, value in tokens)
    if total > MAX_VERTICES:
        raise FamilySpecError(f"{kind} sizes sum to {total}, above the limit of {MAX_VERTICES}")
    values = [value for repeat, value in tokens for _ in range(repeat)]
    if count is not None and len(values) != count:
        raise FamilySpecError(f"{kind} takes exactly {count} size(s), got {len(values)}")
    return tuple(_check_sizes(values))


# kind -> (parse: spec text after ':' -> args, gen: args -> Graph,
# count: args -> closed-form tau, size: args -> closed-form (vertices,
# edges)).  Entries look functions up on the module at call time, so a
# wrapped or patched generator is the one that runs.  A multipartite graph
# joins every pair but those inside a part; a Ferrers graph has a row per
# part, a column per box of the first, and an edge per box; a threshold
# step 'd' at position s joins the s vertices before it.
KINDS = {
    "complete": (
        lambda text: _parse_sizes("complete", text, 1),
        lambda args: gen_complete(args[0]),
        lambda args: count_complete(args[0]),
        lambda args: (args[0], args[0] * (args[0] - 1) // 2),
    ),
    "bipartite": (
        lambda text: _parse_sizes("bipartite", text, 2),
        lambda args: gen_complete_bipartite(*args),
        lambda args: count_complete_bipartite(*args),
        lambda args: (args[0] + args[1], args[0] * args[1]),
    ),
    "multipartite": (
        lambda text: _parse_sizes("multipartite", text),
        lambda args: gen_complete_multipartite(args),
        lambda args: count_complete_multipartite(args),
        lambda args: (sum(args), (sum(args) ** 2 - sum(s * s for s in args)) // 2),
    ),
    "ferrers": (
        lambda text: tuple(_check_partition(_parse_sizes("ferrers", text))),
        lambda args: gen_ferrers(args),
        lambda args: count_ferrers(args),
        lambda args: (len(args) + args[0], sum(args)),
    ),
    "threshold": (
        lambda text: (_parse_bits(text),),
        lambda args: gen_threshold(args[0]),
        lambda args: count_threshold(args[0]),
        lambda args: (len(args[0]) + 1, sum(s for s, ch in enumerate(args[0], 1) if ch == DOMINATING)),
    ),
}


def _kind_entry(kind: str):
    try:
        return KINDS[kind]
    except KeyError:
        raise FamilySpecError(f"unknown family kind {kind!r}") from None


def parse_family(text: str) -> Family:
    """Parse a family spec string; FamilySpecError on any malformed input."""
    kind, sep, rest = text.partition(":")
    kind = kind.strip().lower()
    if not sep:
        raise FamilySpecError(f"family spec {text!r} is missing ':'")
    return Family(kind, _kind_entry(kind)[0](rest))
