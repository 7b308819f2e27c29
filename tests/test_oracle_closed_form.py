"""The oracles' shared four- and five-part count, `oracle._k5_trees`, against
linear algebra: the matrix-tree theorem on the weighted Laplacian of the
parts, one row and column deleted, taken by `linalg.det_int`.  The oracles
never call `linalg`; this test is where the two meet, so the closed form is
pinned both here and by the literal-enumeration tests of test_oracle.py."""

from itertools import combinations, product

from treecount.linalg import det_int
from treecount.oracle import _k5_trees


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
