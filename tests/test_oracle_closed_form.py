"""The oracles' closed forms against linear algebra: the matrix-tree theorem
on the weighted Laplacian of the parts, one row and column deleted, taken by
`linalg.det_int`.  `oracle._k5_trees`, the four- and five-part count both
oracles share, is called directly; `oracle._k6_trees`, the six-vertex count
`tau_delcon` ends in, both directly and through `tau_delcon`.  The oracles
never call `linalg`; this test is where the two meet, so the closed forms
are pinned both here and by the literal-enumeration tests of
test_oracle.py."""

from collections import Counter
from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from treecount.linalg import det_int
from treecount.oracle import Multigraph, _k5_trees, _k6_trees, tau_delcon


def tau_by_minor(parts: int, counts: dict) -> int:
    """det of the weighted Laplacian on parts 0..parts-1, with counts[(i, j)]
    edges between i and j, less the last part's row and column."""
    lap = [[0] * parts for _ in range(parts)]
    for (i, j), k in counts.items():
        lap[i][j] -= k
        lap[j][i] -= k
        lap[i][i] += k
        lap[j][j] += k
    return det_int([row[:-1] for row in lap[:-1]])


def test_four_part_count_equals_the_laplacian_minor_for_counts_up_to_three():
    pairs = list(combinations(range(4), 2))  # ab, ac, ad, bc, bd, cd
    for counts in product(range(4), repeat=6):
        assert _k5_trees(*counts) == tau_by_minor(4, dict(zip(pairs, counts))), counts


def test_five_part_count_equals_the_laplacian_minor_for_counts_up_to_two():
    """All 3^10 count vectors; the fifth part v is part 4, joined to a, b,
    c, d by the last four counts."""
    pairs = list(combinations(range(4), 2)) + [(i, 4) for i in range(4)]
    zeros = 0
    for counts in product(range(3), repeat=10):
        tau = _k5_trees(*counts[:6], counts[6:])
        assert tau == tau_by_minor(5, dict(zip(pairs, counts))), counts
        zeros += tau == 0
    assert 0 < zeros < 3 ** 10


SIX_VERTEX_PAIRS = list(combinations(range(1, 7), 2))


def minor_of_six(mults) -> int:
    """tau_by_minor of six vertices with mults[i] copies of SIX_VERTEX_PAIRS[i]."""
    return tau_by_minor(6, {(i - 1, j - 1): k for (i, j), k in zip(SIX_VERTEX_PAIRS, mults)})


def test_six_vertex_count_equals_the_laplacian_minor_on_every_simple_graph():
    """All 2^15 graphs on six labelled vertices: those with every degree at
    least 2 end in `_k6_trees` at once, the rest strip first or are
    disconnected, and exactly the 32768 - 26704 disconnected ones count 0."""
    zeros = 0
    for mults in product(range(2), repeat=15):
        tau = tau_delcon(Multigraph(6, Counter(dict(zip(SIX_VERTEX_PAIRS, mults)))))
        assert tau == minor_of_six(mults), mults
        zeros += tau == 0
    assert zeros == 32768 - 26704  # 26704 connected labelled graphs on six vertices


@given(st.lists(st.integers(0, 3), min_size=15, max_size=15))
@settings(max_examples=300, deadline=None)
def test_six_vertex_count_equals_the_laplacian_minor_on_multigraphs(mults):
    """With 0-3 copies a pair: `_k6_trees` on the bundles as given, pendant
    and isolated vertices included, and `tau_delcon`, which strips first."""
    adj = {v: {} for v in range(1, 7)}
    for (i, j), k in zip(SIX_VERTEX_PAIRS, mults):
        if k:
            adj[i][j] = adj[j][i] = k
    expected = minor_of_six(mults)
    assert _k6_trees(adj) == expected
    assert tau_delcon(Multigraph(6, Counter(dict(zip(SIX_VERTEX_PAIRS, mults))))) == expected
