import tracemalloc

import pytest

from treecount import (
    EdgeListParseError,
    build_graph,
    cli,
    edgelist,
    format_edgelist,
    gen_ferrers,
    parse_edgelist,
    read_edgelist,
    write_edgelist,
)

from treecount.graph import MAX_EDGES, MAX_VERTICES

from conftest import DIAMOND_EDGES


def test_format_is_byte_stable_with_sorted_edges():
    g = build_graph(4, DIAMOND_EDGES)
    assert format_edgelist(g) == "4 5\n1 2\n1 3\n1 4\n2 3\n3 4\n"


def test_round_trip(tmp_path):
    g = gen_ferrers([4, 4, 3, 2, 1])
    path = tmp_path / "graph.edges"
    write_edgelist(g, path)
    assert read_edgelist(path) == g
    raw = path.read_bytes()
    assert raw.startswith(b"9 14\n")
    assert b"\r" not in raw


def test_parse_ignores_comments_and_blank_lines():
    text = "# a comment\n\n3 2\n1 2\n# another\n\n2 3\n"
    assert parse_edgelist(text) == build_graph(3, [(1, 2), (2, 3)])


def test_parse_single_vertex():
    assert parse_edgelist("1 0\n") == build_graph(1, [])


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty
        "3\n",  # bad header
        "3 x\n",
        "3 2\n1 2\n",  # declared count mismatch
        "3 1\n1 2\n2 3\n",
        "3 1\n1 2 3\n",  # bad edge line
        "3 1\n1 b\n",
        "3 1\n1 4\n",  # endpoint out of range
        "3 1\n2 2\n",  # loop
        "3 2\n1 2\n2 1\n",  # duplicate
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(EdgeListParseError):
        parse_edgelist(text)


def test_every_line_break_of_splitlines_ends_a_line():
    lines = ["# a comment", "", "4 3", "1 2", "2 3", "3 4"]
    graph = parse_edgelist("\n".join(lines))
    mixed = "".join(line + end for line, end in zip(lines, ["\r", "\r\n", "\v", "\f", "\x1c", "\n"]))
    assert parse_edgelist(mixed) == graph
    with pytest.raises(EdgeListParseError, match="line 6: edge endpoints"):
        parse_edgelist(mixed.replace("3 4", "3 x"))


def test_a_long_document_keeps_its_line_numbers():
    """The reader splits a long document into blocks at line breaks; a
    "\r\n" that straddles a block boundary is still one break, so the line
    numbers stay those of str.splitlines.  Padding around each power of two
    puts a break at every offset near the usual block sizes."""
    body = "4 3\r\n1 2\r\n2 3\r\n3 x\r\n"
    for size in (4096, 8192, 16384, 32768, 65536):
        for pad in range(size - 3, size + 3):
            with pytest.raises(EdgeListParseError, match="^line 6: edge endpoints"):
                parse_edgelist("#" * pad + "\r\n" + "\r\n" + body)


def test_edge_lines_past_the_header_count_are_refused_in_memory_that_follows_the_header():
    """A document declaring one edge and holding 200 000 is refused at its
    second edge line, and one declaring -1 edges on its header, without a
    copy of its lines: the traced peak stays below 8 bytes per character
    of the document."""
    for header, error in (
        ("2 1", "line 3: header declares 1 edges but this is edge line 2"),
        ("2 -1", "line 1: header declares -1 edges, a negative count"),
    ):
        text = header + "\n" + "1 2\n" * 200_000
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(EdgeListParseError, match=error):
                parse_edgelist(text)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 * len(text), header


def test_header_vertex_count_is_capped_before_allocating(monkeypatch, tmp_path, capsys):
    """A header declaring more than MAX_VERTICES vertices is a parse error
    (exit 2), raised before the Graph, whose adjacency sets are the
    allocation, is built.  The spy never builds a Graph above the cap."""
    built = []
    real_graph = edgelist.Graph

    def spy(n, edges):
        built.append(n)
        assert n <= MAX_VERTICES, f"Graph({n}) built above the cap"
        return real_graph(n, edges)

    monkeypatch.setattr(edgelist, "Graph", spy)
    assert parse_edgelist(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    assert built == [MAX_VERTICES]
    built.clear()
    for text in (f"{MAX_VERTICES + 1} 0\n", "1000000000 0\n", "1000000000 1\n1 2\n"):
        with pytest.raises(EdgeListParseError, match="limit"):
            parse_edgelist(text)
    path = tmp_path / "huge.edges"
    path.write_text("1000000000 0\n")
    assert cli.main(["count", "--file", str(path)]) == cli.EXIT_PARSE
    assert "limit" in capsys.readouterr().err
    assert built == []


def test_header_edge_count_is_capped_before_building(monkeypatch, tmp_path, capsys):
    """A header declaring more than MAX_EDGES edges is a parse error (exit
    2), raised before the edge lines are read into a Graph."""
    built = []
    real_graph = edgelist.Graph

    def spy(n, edges):
        built.append(len(edges))
        return real_graph(n, edges)

    monkeypatch.setattr(edgelist, "Graph", spy)
    monkeypatch.setattr(edgelist, "MAX_EDGES", 3)
    assert len(parse_edgelist("4 3\n1 2\n2 3\n3 4\n").edges) == 3
    assert built == [3]
    built.clear()
    with pytest.raises(EdgeListParseError, match="4 edges is above the limit of 3"):
        parse_edgelist("4 4\n1 2\n2 3\n3 4\n4 1\n")
    path = tmp_path / "cycle.edges"
    path.write_text("4 4\n1 2\n2 3\n3 4\n4 1\n")
    assert cli.main(["count", "--file", str(path)]) == cli.EXIT_PARSE
    assert "limit" in capsys.readouterr().err
    monkeypatch.undo()
    assert MAX_EDGES == 1_000_000
    # the real cap is checked before the declared count is compared with the lines
    with pytest.raises(EdgeListParseError, match="limit"):
        parse_edgelist(f"5 {MAX_EDGES + 1}\n1 2\n")
    assert built == []
