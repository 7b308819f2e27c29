"""Known answers for four sparse families that the family closed forms do
not cover: hypercubes, wheels, fans and prisms.  Each count comes from a
published closed form computed in integers, so the Laplacian methods are
checked against something other than each other far beyond the oracles'
reach.  Every applicable method must give it exactly: the three Laplacian
routes always, `schur` on the bipartite ones of at most 256 vertices
(hypercubes up to Q8, even prisms up to n = 100), both oracles on graphs
of at most 11 vertices, and `schur` must refuse the others, which all have
an odd cycle."""

from math import comb, prod

import pytest

from treecount import Graph, cli


def recurrence(a0: int, a1: int, c1: int, c2: int, k: int) -> int:
    """a_k for a_j = c1 a_{j-1} + c2 a_{j-2}."""
    for _ in range(k):
        a0, a1 = a1, c1 * a1 + c2 * a0
    return a0


def hypercube(d: int) -> Graph:
    """Q_d: vertex v + 1 for each d-bit v, joined to those one bit away."""
    return Graph(2**d, [(v + 1, (v | 1 << k) + 1) for v in range(2**d) for k in range(d) if not v >> k & 1])


def cycle_edges(n: int, first: int = 1) -> list[tuple[int, int]]:
    return [(first + v, first + (v + 1) % n) for v in range(n)]


def wheel(n: int) -> Graph:
    """The cycle 1..n and the hub n + 1."""
    return Graph(n + 1, cycle_edges(n) + [(v, n + 1) for v in range(1, n + 1)])


def fan(n: int) -> Graph:
    """The path 1..n and the hub n + 1."""
    return Graph(n + 1, [(v, v + 1) for v in range(1, n)] + [(v, n + 1) for v in range(1, n + 1)])


def prism(n: int) -> Graph:
    """C_n x K_2: the cycles 1..n and n+1..2n, with v joined to n + v."""
    return Graph(2 * n, cycle_edges(n) + cycle_edges(n, n + 1) + [(v, n + v) for v in range(1, n + 1)])


# family -> (graph, closed-form count)
FAMILIES = {
    # the Laplacian eigenvalue 2k of Q_d has multiplicity C(d, k)
    "hypercube": (hypercube, lambda d: 2 ** (2**d - d - 1) * prod(k ** comb(d, k) for k in range(2, d + 1))),
    # Lucas L_2n - 2 (Myers, IEEE Trans. Circuit Theory 1971)
    "wheel": (wheel, lambda n: recurrence(2, 1, 1, 1, 2 * n) - 2),
    # Fibonacci F_2n
    "fan": (fan, lambda n: recurrence(0, 1, 1, 1, 2 * n)),
    # (n/2)(a_n - 2), a_0 = 2, a_1 = 4 (Boesch & Prodinger, Graphs Combin. 1986)
    "prism": (prism, lambda n: n * (recurrence(2, 4, 4, -1, n) - 2) // 2),
}

LARGER = (32, 64, 100, 150, 200, 300)
CASES = (
    [("hypercube", d) for d in range(1, 9)]
    + [("wheel", n) for n in (*range(3, 21), *LARGER)]
    + [("fan", n) for n in (*range(2, 21), *LARGER)]
    + [("prism", n) for n in (*range(3, 21), *LARGER)]
)


@pytest.mark.parametrize("family, n", CASES, ids=[f"{family}{n}" for family, n in CASES])
def test_every_applicable_method_gives_the_closed_form(family, n):
    build, closed_form = FAMILIES[family]
    g, expected = build(n), closed_form(n)
    methods = ["reduced", "rankone", "temperley"]
    bipartite = family == "hypercube" or (family == "prism" and n % 2 == 0)
    if bipartite and g.n <= 256:
        methods.append("schur")
    elif not bipartite:
        with pytest.raises(cli.MethodUnavailableError):
            cli.METHODS["schur"](g, None)
    if g.n <= 11:
        methods += ["oracle", "delcon"]
    for method in methods:
        assert cli.METHODS[method](g, None) == expected, method
