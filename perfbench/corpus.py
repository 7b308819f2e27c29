"""Seeded inputs for the four workloads, with the benchmark's own expected counts.

The program under test only ever sees what this module makes: edge-list files
and family spec strings.  Nothing here calls into treecount, so a change to
the program cannot change the workload, and the expected counts below are an
independent check on its answers.

Every workload is a list of rounds.  A round holds one graph per size stratum
and is shuffled by the seed, so every round has the same size mix and a seed
changes graph structure, labels and order, not the amount of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

COUNT_SPARSE = ("temperley", "reduced")
COUNT_DENSE = ("temperley", "reduced", "rankone")
FORMULA = ("formula",)
FORMULA_SCHUR = ("formula", "schur")


@dataclass(frozen=True)
class Item:
    """One input graph and the operations run on it.

    Exactly one of `edges` (written to an edge-list file) and `spec` (passed
    as --family) is set.  `methods` lists the `count` methods to run, in
    order; None means a single `verify` call.  `expected` is the closed-form
    count, or None when only agreement between methods is checked.
    """

    name: str
    n: int
    m: int
    expected: int | None
    methods: tuple[str, ...] | None
    edges: tuple[tuple[int, int], ...] | None = None
    spec: str | None = None

    def argvs(self, path: str | None) -> list[list[str]]:
        source = ["--family", self.spec] if self.spec is not None else ["--file", path]
        if self.methods is None:
            return [["verify", *source]]
        return [["count", *source, "--method", m, "--json"] for m in self.methods]


def edgelist_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)


# --- closed forms ---------------------------------------------------------


def cayley(n: int) -> int:
    return n ** (n - 2) if n >= 2 else 1


def complete_bipartite(a: int, b: int) -> int:
    return a ** (b - 1) * b ** (a - 1)


def complete_multipartite(parts) -> int:
    n, k = sum(parts), len(parts)
    value = n ** (k - 2) if k >= 2 else 0
    for p in parts:
        value *= (n - p) ** (p - 1)
    return value


def conjugate(values, length: int) -> list[int]:
    """Entry j (1-based, j <= length) counts the values that are at least j."""
    at_least = [0] * (length + 2)
    for v in values:
        at_least[min(v, length + 1)] += 1
    for j in range(length, 0, -1):
        at_least[j] += at_least[j + 1]
    return at_least[1 : length + 1]


def ferrers(parts) -> int:
    """Product of row degrees 2..m times column degrees 2..n (Ehrenborg–van Willigenburg)."""
    return math.prod(parts[1:]) * math.prod(conjugate(parts, parts[0])[1:])


def threshold_degrees(bits: str) -> list[int]:
    """Degrees of the threshold graph of a creation sequence over {d, i}."""
    later_d = [0] * (len(bits) + 1)
    for s in range(len(bits) - 1, -1, -1):
        later_d[s] = later_d[s + 1] + (bits[s] == "d")
    degrees = [later_d[0]]
    for s, ch in enumerate(bits, start=1):
        degrees.append((s if ch == "d" else 0) + later_d[s])
    return degrees


def threshold(bits: str) -> int:
    """Merris: the Laplacian spectrum of a threshold graph is the conjugate of
    its degree sequence, so tau = prod of the first n-1 conjugate degrees / n."""
    degrees = threshold_degrees(bits)
    n = len(degrees)
    product = math.prod(conjugate(degrees, n - 1))
    value, rem = divmod(product, n)
    assert rem == 0, "Merris product not divisible by n"
    return value


# --- graphs ---------------------------------------------------------------


def is_connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def relabel(rng: random.Random, n: int, edges) -> tuple[tuple[int, int], ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges))


def connected_gnm(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Uniform connected graph with exactly m edges: G(n, p) conditioned on its
    expected edge count, so the seed changes structure but not size."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected graph on {n} vertices has {m} edges")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    while True:
        edges = tuple(sorted(rng.sample(pairs, m)))
        if is_connected(n, edges):
            return edges


def cycle_edges(n: int):
    return [(i, i + 1) for i in range(1, n)] + [(1, n)]


def grid_edges(k: int):
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c + 1
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return edges


def file_item(name, n, edges, expected, methods) -> Item:
    return Item(name, n, len(edges), expected, methods, edges=tuple(edges))


def complete_item(n: int, methods) -> Item:
    return Item(f"complete{n}", n, n * (n - 1) // 2, cayley(n), methods, spec=f"complete:{n}")


def bipartite_item(a: int, b: int, methods) -> Item:
    return Item("bipartite", a + b, a * b, complete_bipartite(a, b), methods, spec=f"bipartite:{a},{b}")


def multipartite_item(parts, methods) -> Item:
    n = sum(parts)
    spec = "multipartite:" + ",".join(map(str, parts))
    return Item(f"multipartite{n}", n, (n * n - sum(p * p for p in parts)) // 2,
                complete_multipartite(parts), methods, spec=spec)


def ferrers_item(parts, methods) -> Item:
    spec = "ferrers:" + ",".join(map(str, parts))
    return Item(f"ferrers{len(parts)}x{parts[0]}", len(parts) + parts[0], sum(parts), ferrers(parts), methods, spec=spec)


def threshold_item(bits: str, methods) -> Item:
    m = sum(s for s, ch in enumerate(bits, start=1) if ch == "d")
    return Item(f"threshold{len(bits)}", len(bits) + 1, m, threshold(bits), methods, spec=f"threshold:{bits}")


def random_parts(rng: random.Random, n: int, k: int) -> list[int]:
    """Composition of n into k positive parts."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, n])]


def random_partition(rng: random.Random, rows: int, cols: int) -> list[int]:
    """Partition with exactly `rows` parts and largest part `cols`."""
    return sorted([cols] + [rng.randint(1, cols) for _ in range(rows - 1)], reverse=True)


def random_bits(rng: random.Random, length: int) -> str:
    """Mixed creation sequence ending in 'd', so the graph is connected."""
    return "".join(rng.choice("di") for _ in range(length - 1)) + "d"


# --- workloads ------------------------------------------------------------


def sparse_round(rng: random.Random, index: int, small: bool) -> list[Item]:
    # Two alternating halves keep each round near one second, so the size
    # mix of a run stays balanced wherever its deadline falls.
    if small:
        cycles, grids, gnms = (5, 7), (3,), (8,)
    elif index % 2 == 0:
        cycles, grids, gnms = (60, 120), (8, 12), (90,)
    else:
        cycles, grids, gnms = (90, 150), (10,), (60, 120)
    items = [file_item(f"cycle{n}", n, relabel(rng, n, cycle_edges(n)), n, COUNT_SPARSE) for n in cycles]
    items += [file_item(f"grid{k}", k * k, relabel(rng, k * k, grid_edges(k)), None, COUNT_SPARSE) for k in grids]
    # average degree 6
    items += [file_item(f"gnm{n}", n, connected_gnm(rng, n, 3 * n), None, COUNT_SPARSE) for n in gnms]
    return items


def dense_round(rng: random.Random, index: int, small: bool) -> list[Item]:
    items = []
    for n in (6, 8) if small else (40, 60, 80):
        pairs = n * (n - 1) // 2
        for p in (0.3, 0.97):
            m = max(n - 1, round(p * pairs))
            items.append(file_item(f"gnp{n}-{p}", n, connected_gnm(rng, n, m), None, COUNT_DENSE))
        items.append(complete_item(n, COUNT_DENSE))
        items.append(multipartite_item(random_parts(rng, n, rng.randint(3, 5)), COUNT_DENSE))
    return items


def families_round(rng: random.Random, index: int, small: bool) -> list[Item]:
    items = [threshold_item(random_bits(rng, length), FORMULA) for length in ((5, 9) if small else (60, 100, 150))]
    for rows, cols in ((3, 3), (2, 5)) if small else ((40, 40), (20, 60)):
        items.append(ferrers_item(random_partition(rng, rows, cols), FORMULA_SCHUR))
    for _ in range(2):
        a, b = (rng.randint(2, 3), rng.randint(2, 4)) if small else (rng.randint(20, 40), rng.randint(20, 60))
        items.append(bipartite_item(a, b, FORMULA_SCHUR))
    parts = [rng.randint(1, 3 if small else 10) for _ in range(rng.randint(3, 6))]
    items.append(multipartite_item(parts, FORMULA))
    return items


def small_family(rng: random.Random) -> Item:
    """A family spec whose `verify` stays as cheap as the n=6 and n=7 graphs."""
    kind = rng.choice(("complete", "bipartite", "ferrers", "threshold", "multipartite"))
    if kind == "complete":
        return complete_item(rng.randint(3, 5), None)
    if kind == "bipartite":
        return bipartite_item(rng.randint(1, 3), rng.randint(2, 3), None)
    if kind == "ferrers":
        return ferrers_item(random_partition(rng, rng.randint(2, 3), rng.randint(2, 3)), None)
    if kind == "threshold":
        return threshold_item(random_bits(rng, rng.randint(3, 5)), None)
    return multipartite_item([rng.randint(1, 2) for _ in range(rng.randint(2, 3))], None)


def edge_case(rng: random.Random, index: int) -> Item:
    """Alternately the single vertex and a disconnected graph of two components."""
    if index % 2 == 0:
        return file_item("n1", 1, (), 1, None)
    a, b = rng.randint(2, 4), rng.randint(2, 4)
    first = connected_gnm(rng, a, rng.randint(a - 1, a * (a - 1) // 2))
    second = connected_gnm(rng, b, rng.randint(b - 1, b * (b - 1) // 2))
    edges = [*first, *((i + a, j + a) for i, j in second)]
    return file_item("disconnected", a + b, relabel(rng, a + b, edges), 0, None)


def crosscheck_round(rng: random.Random, index: int, small: bool) -> list[Item]:
    # Six n=8 graphs against four cheap inputs (n=6, n=7, an edge case, a
    # small family) and two n=9 graphs puts the median latency inside the
    # n=8 cluster rather than in a gap between clusters, and leaves the n=9
    # graphs (delcon-bound) for the tail.
    strata = ((4, 4), (5, 6), (5, 6), (6, 8)) if small else ((6, 8), (7, 10), *[(8, 14)] * 6, (9, 18), (9, 18))
    items = [file_item(f"gnm{n}", n, connected_gnm(rng, n, m), None, None) for n, m in strata]
    items += [edge_case(rng, index), small_family(rng)]
    return items


ROUNDS = {
    "sparse": sparse_round,
    "dense": dense_round,
    "families": families_round,
    "crosscheck": crosscheck_round,
}

# Seconds one round takes on a 2-CPU machine (Python 3.11).
ROUND_SECONDS = {"sparse": 1.3, "dense": 2.1, "families": 0.55, "crosscheck": 0.55}


def build(workload: str, seed: int, rounds: int, small: bool = False) -> list[list[Item]]:
    """The seeded corpus for one workload: `rounds` rounds, each shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    corpus = []
    for index in range(rounds):
        batch = ROUNDS[workload](rng, index, small)
        rng.shuffle(batch)
        corpus.append(batch)
    return corpus
