import random
from collections import Counter
from itertools import combinations, permutations, product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from treecount import (
    Family,
    FamilySpecError,
    Graph,
    NotThresholdOrderedError,
    build_graph,
    cli,
    conjugate_partition,
    count_complete,
    count_complete_bipartite,
    count_complete_multipartite,
    count_ferrers,
    count_threshold,
    gen_complete,
    gen_complete_bipartite,
    gen_complete_multipartite,
    gen_ferrers,
    gen_threshold,
    parse_family,
    families,
    tau,
    tau_temperley,
    threshold_t,
)

# Six-vertex threshold graph with clique prefix 1..4; built by the creation
# sequence "ididd" and counted by the degree-product formula as 180.
SIX_VERTEX_THRESHOLD_EDGES = {
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
    (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 4), (3, 5),
}


def all_threshold_bits(max_len):
    for length in range(max_len + 1):
        for bits in product("di", repeat=length):
            yield "".join(bits)


def test_gen_complete():
    assert gen_complete(3).edges == {(1, 2), (1, 3), (2, 3)}
    assert gen_complete(1) == build_graph(1, [])
    k5 = gen_complete(5)
    assert len(k5.edges) == 10
    assert [k5.degree(v) for v in range(1, 6)] == [4] * 5


def test_gen_complete_bipartite():
    assert gen_complete_bipartite(1, 1).edges == {(1, 2)}
    g = gen_complete_bipartite(3, 4)
    assert len(g.edges) == 12
    assert [g.degree(v) for v in range(1, 8)] == [4, 4, 4, 3, 3, 3, 3]
    square = gen_complete_bipartite(2, 2)
    assert square.edges == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_gen_complete_multipartite():
    assert gen_complete_multipartite([1] * 5) == gen_complete(5)
    assert gen_complete_multipartite([3, 4]) == gen_complete_bipartite(3, 4)
    g = gen_complete_multipartite([2, 3, 4])
    assert g.n == 9
    assert len(g.edges) == 26
    with pytest.raises(FamilySpecError, match="at least one size"):
        gen_complete_multipartite([])


def test_gen_ferrers_structure():
    g = gen_ferrers([4, 4, 3, 2, 1])
    assert g.n == 9
    assert len(g.edges) == 14
    # row degrees are the parts, column degrees the conjugate parts
    assert [g.degree(v) for v in range(1, 6)] == [4, 4, 3, 2, 1]
    assert [g.degree(v) for v in range(6, 10)] == [5, 4, 3, 2]
    assert gen_ferrers([1]).edges == {(1, 2)}
    assert gen_ferrers([4, 4, 4]) == gen_complete_bipartite(3, 4)


def test_gen_ferrers_conditions_hold_for_random_partitions():
    rng = random.Random(1234)
    for _ in range(30):
        m = rng.randint(1, 6)
        parts = sorted((rng.randint(1, 6) for _ in range(m)), reverse=True)
        g = gen_ferrers(parts)
        n = parts[0]
        # a box at (k,l) forces boxes at all (i,j) with i <= k, j <= l
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if (i, m + j) in g.edges:
                    assert all(
                        (i2, m + j2) in g.edges
                        for i2 in range(1, i + 1)
                        for j2 in range(1, j + 1)
                    )
        # corner boxes: first row reaches the last column, last row the first
        assert (1, m + n) in g.edges
        assert (m, m + 1) in g.edges


def test_gen_threshold_all_dominating_is_complete():
    for n in range(1, 7):
        g = gen_threshold("d" * (n - 1))
        assert g == gen_complete(n)
        assert threshold_t(g) == n


def test_gen_threshold_small_trace():
    # isolated then dominating: a path through the dominating vertex
    g = gen_threshold("id")
    assert g.edges == {(1, 2), (1, 3)}
    assert threshold_t(g) == 2


def test_gen_threshold_six_vertex_example():
    g = gen_threshold("ididd")
    assert g.edges == SIX_VERTEX_THRESHOLD_EDGES
    assert threshold_t(g) == 4
    assert sorted((g.degree(v) for v in range(1, 7)), reverse=True) == [5, 5, 4, 3, 3, 2]


def test_gen_threshold_ordering_property_exhaustive():
    for bits in all_threshold_bits(6):
        g = gen_threshold(bits)
        threshold_t(g)  # raises if the canonical labelling is not threshold-ordered
        for i, j in g.edges:
            for k in range(1, i):
                assert (k, j) in g.edges
            for k in range(1, j):
                if k != i:
                    assert (min(i, k), max(i, k)) in g.edges


def test_threshold_degree_identities_when_connected():
    for bits in all_threshold_bits(6):
        g = gen_threshold(bits)
        if not g.is_connected() or g.n < 2:
            continue
        t = threshold_t(g)
        assert g.degree(1) + 1 == g.n
        assert g.degree(t) == t - 1


def test_threshold_t_star_and_bad_labelling():
    star = gen_threshold("iid")
    assert [star.degree(v) for v in range(1, 5)] == [3, 1, 1, 1]
    assert threshold_t(star) == 2
    with pytest.raises(NotThresholdOrderedError):
        threshold_t(build_graph(3, [(1, 3)]))  # needs (1,2) to be present
    with pytest.raises(NotThresholdOrderedError):
        threshold_t(build_graph(3, [(2, 3)]))


def test_threshold_count_invariant_under_any_valid_relabelling():
    # the degree-product formula does not depend on which threshold-ordered
    # labelling is chosen; checked exhaustively through 6 vertices
    for bits in all_threshold_bits(5):
        g = gen_threshold(bits)
        if not g.is_connected():
            continue
        expected = count_threshold(bits)
        seen_valid = 0
        for perm in permutations(range(1, g.n + 1)):
            relabel = {old: perm[old - 1] for old in range(1, g.n + 1)}
            h = Graph(g.n, ((relabel[a], relabel[b]) for a, b in g.edges))
            try:
                t = threshold_t(h)
            except NotThresholdOrderedError:
                continue
            seen_valid += 1
            value = 1
            for i in range(2, t):
                value *= h.degree(i) + 1
            for i in range(t + 1, h.n + 1):
                value *= h.degree(i)
            assert value == expected
        assert seen_valid >= 1  # the canonical labelling itself always qualifies


def test_conjugate_partition():
    assert conjugate_partition([4, 4, 3, 2, 1]) == [5, 4, 3, 2]
    assert conjugate_partition([1]) == [1]
    assert conjugate_partition([3, 3]) == [2, 2, 2]
    assert conjugate_partition(conjugate_partition([4, 4, 3, 2, 1])) == [4, 4, 3, 2, 1]


@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_conjugate_partition_counts_the_parts_of_each_size_or_more(parts):
    parts = sorted(parts, reverse=True)
    assert conjugate_partition(parts) == [sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)]


def test_count_complete():
    assert count_complete(1) == 1
    assert count_complete(2) == 1
    assert count_complete(4) == 16
    assert count_complete(5) == 125


def test_count_complete_bipartite():
    assert count_complete_bipartite(2, 2) == 4
    assert count_complete_bipartite(1, 9) == 1
    assert count_complete_bipartite(3, 4) == 432


def test_count_complete_multipartite():
    assert count_complete_multipartite([2, 3, 4]) == 283500
    for k in range(1, 7):
        assert count_complete_multipartite([1] * k) == count_complete(k)
    for m in range(1, 6):
        for n in range(1, 6):
            assert count_complete_multipartite([m, n]) == count_complete_bipartite(m, n)
    assert count_complete_multipartite([3]) == 0
    assert count_complete_multipartite([1]) == 1
    with pytest.raises(FamilySpecError, match="at least one size"):
        count_complete_multipartite([])
    # K_3000 spelled three ways, and K_{a,b} three ways
    assert count_complete(3000) == count_complete_multipartite([1] * 3000) == count_threshold("d" * 2999)
    for a in range(1, 61):
        for b in range(1, 61):
            assert count_complete_bipartite(a, b) == count_complete_multipartite([a, b]) == count_ferrers([b] * a)


def test_count_ferrers():
    assert count_ferrers([4, 4, 3, 2, 1]) == 576
    assert count_ferrers([1]) == 1
    for m in range(1, 6):
        for n in range(1, 6):
            assert count_ferrers([n] * m) == count_complete_bipartite(m, n)


def test_count_threshold():
    assert count_threshold("ididd") == 180
    for n in range(1, 8):
        assert count_threshold("d" * (n - 1)) == count_complete(n)
    assert count_threshold("iid") == 1  # a star is a tree
    assert count_threshold("di") == 0  # trailing isolated vertex disconnects
    assert count_threshold("") == 1


@given(st.text(alphabet="di", max_size=12))
@settings(max_examples=150, deadline=None)
def test_count_threshold_matches_tau_and_graph_formula(bits):
    g = gen_threshold(bits)
    expected = tau(g)
    assert count_threshold(bits) == expected
    if g.is_connected():
        # the same product read off the built graph, with t from threshold_t
        t = threshold_t(g)
        product = 1
        for i in range(2, t):
            product *= g.degree(i) + 1
        for i in range(t + 1, g.n + 1):
            product *= g.degree(i)
        assert product == expected


def test_threshold_formula_does_not_build_the_graph(monkeypatch):
    def fail(bits):
        raise AssertionError("count_threshold built the graph")

    monkeypatch.setattr(families, "gen_threshold", fail)
    assert parse_family("threshold:ididd").formula_count() == 180


def test_closed_forms_match_determinant_count():
    instances = [
        (gen_complete(6), count_complete(6)),
        (gen_complete_bipartite(4, 3), count_complete_bipartite(4, 3)),
        (gen_complete_multipartite([2, 2, 3]), count_complete_multipartite([2, 2, 3])),
        (gen_ferrers([5, 3, 3, 1]), count_ferrers([5, 3, 3, 1])),
        (gen_threshold("didid"), count_threshold("didid")),
    ]
    for g, expected in instances:
        assert tau_temperley(g) == expected


FACTORS = st.one_of(st.integers(0, 3), st.integers(0, 10**12))


@given(st.one_of(
    st.lists(FACTORS, max_size=60).map(Counter),  # repeated factors sum their exponents
    st.dictionaries(FACTORS, st.integers(0, 5), max_size=30),  # exponents of 0 too
))
@example({})
@example({0: 1, 7: 3})
@example({0: 0, 1: 9})
@settings(max_examples=300, deadline=None)
def test_product_equals_a_left_to_right_loop(powers):
    expected = 1
    for factor, exponent in powers.items():
        for _ in range(exponent):
            expected *= factor
    assert families._product(powers) == expected


def test_parse_family_valid_specs():
    assert parse_family("complete:5") == Family("complete", (5,))
    assert parse_family("bipartite:2,3") == Family("bipartite", (2, 3))
    assert parse_family("multipartite:2,3,4") == Family("multipartite", (2, 3, 4))
    assert parse_family("ferrers:4,4,3,2,1") == Family("ferrers", (4, 4, 3, 2, 1))
    assert parse_family("ferrers:2x4,1") == Family("ferrers", (4, 4, 1))
    assert parse_family("threshold:IDidd") == Family("threshold", ("ididd",))
    assert parse_family("Complete:3") == Family("complete", (3,))


def test_parse_family_graph_and_formula_dispatch():
    fam = parse_family("ferrers:4,4,3,2,1")
    assert fam.graph() == gen_ferrers([4, 4, 3, 2, 1])
    assert fam.formula_count() == 576
    fam = parse_family("threshold:ididd")
    assert fam.graph().edges == SIX_VERTEX_THRESHOLD_EDGES
    assert fam.formula_count() == 180


def as_sizes(values) -> str:
    return ",".join(map(str, values))


FAMILY_SPECS = st.one_of(
    st.integers(1, 12).map(lambda n: f"complete:{n}"),
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda mn: f"bipartite:{mn[0]},{mn[1]}"),
    st.lists(st.integers(1, 5), min_size=1, max_size=5).map(lambda s: "multipartite:" + as_sizes(s)),
    st.lists(st.integers(1, 8), min_size=1, max_size=6).map(
        lambda s: "ferrers:" + as_sizes(sorted(s, reverse=True))),
    st.text("di", max_size=14).map("threshold:".__add__),
)


@given(FAMILY_SPECS)
@settings(max_examples=200, deadline=None)
def test_closed_form_size_equals_the_generated_graph(spec):
    """size() equals the built graph's (vertices, edges), and so the length
    and sum of the lower-neighbour sequence the generator hands to
    _prefix_graph, each of whose entries a_v lies in 0..v-1."""
    fam = parse_family(spec)
    with mock.patch.object(families, "_prefix_graph", wraps=families._prefix_graph) as spy:
        g = fam.graph()
    (lower,), _ = spy.call_args
    assert all(0 <= below < v for v, below in enumerate(lower, 1))
    assert fam.size() == (g.n, len(g.edges)) == (len(lower), sum(lower))


# Reference generators, one independent edge loop per family in the
# documented numbering: Family.graph() must match them label for label.
def reference_complete(n):
    return Graph(n, combinations(range(1, n + 1), 2))


def reference_bipartite(m, n):
    return Graph(m + n, ((i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)))


def reference_multipartite(sizes):
    n = sum(sizes)
    part = []
    for index, size in enumerate(sizes):
        part.extend([index] * size)
    edges = ((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if part[i - 1] != part[j - 1])
    return Graph(n, edges)


def reference_ferrers(parts):
    m = len(parts)
    return Graph(m + parts[0], ((i, m + j) for i in range(1, m + 1) for j in range(1, parts[i - 1] + 1)))


def reference_threshold(bits):
    # construction ids: 0 is the initial vertex, then 1..n-1 in addition order
    raw_edges = []
    for step, ch in enumerate(bits, start=1):
        if ch == "d":
            raw_edges.extend((earlier, step) for earlier in range(step))
    dominating = [step for step, ch in enumerate(bits, start=1) if ch == "d"]
    isolated = [step for step, ch in enumerate(bits, start=1) if ch == "i"]
    order = list(reversed(dominating)) + [0] + isolated
    label = {old: new for new, old in enumerate(order, start=1)}
    return Graph(len(bits) + 1, ((label[a], label[b]) for a, b in raw_edges))


REFERENCE = {
    "complete": lambda args: reference_complete(args[0]),
    "bipartite": lambda args: reference_bipartite(*args),
    "multipartite": reference_multipartite,
    "ferrers": reference_ferrers,
    "threshold": lambda args: reference_threshold(args[0]),
}


@given(FAMILY_SPECS)
@example("complete:7")
@example("bipartite:3,4")
@example("multipartite:1,2,3")
@example("ferrers:4,3,3,1")
@example("threshold:ididd")
@settings(max_examples=300, deadline=None)
def test_generated_graph_equals_the_reference_edge_loops(spec):
    fam = parse_family(spec)
    assert fam.graph() == REFERENCE[fam.kind](fam.args)


def test_closed_forms_never_build_the_lower_neighbour_graph(monkeypatch):
    """formula_count() and size() are independent of the lower-neighbour
    sequences: neither calls _prefix_graph."""
    def fail(lower):
        raise AssertionError("a closed form built the lower-neighbour graph")

    monkeypatch.setattr(families, "_prefix_graph", fail)
    for spec in ("complete:7", "bipartite:3,4", "multipartite:1,2,3", "ferrers:4,3,3,1", "threshold:ididd"):
        fam = parse_family(spec)
        assert fam.formula_count() > 0
        assert fam.size()[1] > 0


def test_size_of_large_families_builds_nothing(monkeypatch):
    def fail(*args):
        raise AssertionError("Family.size built a graph")

    monkeypatch.setattr(Graph, "__init__", fail)
    assert parse_family("complete:100000").size() == (100_000, 4_999_950_000)
    assert parse_family("bipartite:50000,50000").size() == (100_000, 2_500_000_000)
    assert parse_family("multipartite:3x33333").size() == (99_999, 3 * 33_333 ** 2)
    assert parse_family("ferrers:50000,49999x1").size() == (100_000, 99_999)
    assert parse_family("threshold:" + "d" * 99_999).size() == (100_000, 4_999_950_000)


@pytest.mark.parametrize(
    "spec",
    [
        "complete",  # missing colon
        "complete:",  # missing size
        "complete:2,3",  # wrong arity
        "complete:0",
        "bipartite:4",
        "multipartite:",
        "multipartite:2,0",
        "ferrers:1,2",  # not weakly decreasing
        "ferrers:3,x",
        "threshold:idx",
        "triangular:3",
    ],
)
def test_parse_family_rejects_malformed_specs(spec):
    with pytest.raises(FamilySpecError):
        parse_family(spec)


def test_family_rejects_unknown_kind():
    with pytest.raises(FamilySpecError):
        Family("bogus", ("dd",))


def test_family_sizes_are_capped_before_expanding(monkeypatch, capsys):
    """The sum of C * V over a spec's sizes is checked against the vertex
    cap before any CxV token is expanded, so a huge repeat count is a spec
    error (exit 2), not an allocation."""
    monkeypatch.setattr(families, "MAX_VERTICES", 10)
    for spec in ("complete:10", "bipartite:4,6", "multipartite:5x2", "ferrers:10x1", "ferrers:2x4,2"):
        parse_family(spec)
    for spec in ("complete:11", "bipartite:5,6", "multipartite:3x4", "ferrers:11x1", "ferrers:2x4,3", "ferrers:1000x1"):
        with pytest.raises(FamilySpecError, match="limit"):
            parse_family(spec)
    # a zero size is rejected before the sum, so it cannot hide a repeat count
    with pytest.raises(FamilySpecError, match="positive"):
        parse_family("multipartite:1000x0")
    monkeypatch.undo()
    assert families.MAX_VERTICES == 100_000
    assert cli.main(["count", "--family", "ferrers:100001x1"]) == cli.EXIT_PARSE
    assert "limit" in capsys.readouterr().err


def test_family_edges_are_capped_before_building(monkeypatch, capsys, tmp_path):
    """A family graph of more than MAX_EDGES edges is a spec error, exit 2,
    for every command that builds one, and no Graph is constructed for it;
    `count --method formula` builds nothing and is not capped."""
    monkeypatch.setattr(families, "MAX_EDGES", 10)
    at_cap = ["complete:5", "bipartite:2,5", "multipartite:5x1", "ferrers:4,3,2,1", "threshold:dddd"]
    for spec in at_cap:
        assert len(parse_family(spec).graph().edges) == 10
    over_cap = ["complete:6", "bipartite:1,11", "multipartite:2,2,2", "ferrers:4,4,3", "threshold:" + "i" * 10 + "d"]

    def fail(*args):
        raise AssertionError("a Graph was built above the edge cap")

    monkeypatch.setattr(Graph, "__init__", fail)
    for spec in over_cap:
        for argv in (
            ["count", "--family", spec],
            ["count", "--family", spec, "--method", "reduced"],
            ["verify", "--family", spec],
            ["generate", "--family", spec, "-o", str(tmp_path / "out.edges")],
        ):
            assert cli.main(argv) == cli.EXIT_PARSE, argv
            assert "limit of 10" in capsys.readouterr().err
    assert cli.main(["bench", "--family", "complete", "--sizes", "6..6"]) == cli.EXIT_PARSE
    assert "limit of 10" in capsys.readouterr().err
    assert cli.main(["count", "--family", "complete:6", "--method", "formula"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "tau = 1296"
    assert not (tmp_path / "out.edges").exists()


def test_numeric_token_above_the_digit_limit_is_a_spec_error(capsys):
    """int() refuses more than 4300 digits with a ValueError; the parser
    turns it into a spec error, exit 2, not a traceback."""
    for spec in ("complete:" + "9" * 5000, "ferrers:" + "1" * 5000 + "x1"):
        with pytest.raises(FamilySpecError, match="digits"):
            parse_family(spec)
        assert cli.main(["count", "--family", spec, "--method", "formula"]) == cli.EXIT_PARSE
        assert "digits" in capsys.readouterr().err


def test_threshold_sequence_is_capped(capsys, tmp_path):
    """A creation sequence of s steps makes s + 1 vertices: s = MAX_VERTICES - 1
    is the longest accepted, by count and by generate alike."""
    path = str(tmp_path / "star.edges")
    longest = "threshold:" + "i" * (families.MAX_VERTICES - 2) + "d"  # a star
    assert cli.main(["count", "--family", longest, "--method", "formula"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "tau = 1"
    assert cli.main(["generate", "--family", longest, "-o", path]) == cli.EXIT_OK
    with open(path) as f:
        assert f.readline() == f"{families.MAX_VERTICES} {families.MAX_VERTICES - 1}\n"
    too_long = "threshold:" + "i" * (families.MAX_VERTICES - 1) + "d"
    for argv in (
        ["count", "--family", too_long, "--method", "formula"],
        ["generate", "--family", too_long, "-o", path],
    ):
        assert cli.main(argv) == cli.EXIT_PARSE
        assert "limit" in capsys.readouterr().err
