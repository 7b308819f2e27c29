"""Plain-text edge-list files: header "n m", then one "i j" line per edge.

Lines starting with '#' are comments; blank lines are ignored.  The writer
emits ASCII with LF line endings and single spaces, edges sorted, so output
is byte-stable for a given graph.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator

from .graph import MAX_EDGES, MAX_VERTICES, Graph, GraphError


class EdgeListParseError(ValueError):
    """Malformed edge-list document."""


def parse_edgelist(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    One pass over the lines of `text.splitlines()`: a negative edge count
    and both caps are checked on the header before any edge line is read,
    and an edge line past the header's m is refused where it stands, so
    memory follows the header, not the length of the document.
    """
    lines = _data_lines(text)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise EdgeListParseError("no header line found")
    n, m = _two_ints(lineno, header, "header must be 'n m'", "header must be two integers")
    if m < 0:
        raise EdgeListParseError(f"line {lineno}: header declares {m} edges, a negative count")
    if n > MAX_VERTICES:
        raise EdgeListParseError(f"line {lineno}: {n} vertices is above the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise EdgeListParseError(f"line {lineno}: {m} edges is above the limit of {MAX_EDGES}")
    edges = []
    for lineno, line in lines:
        if len(edges) == m:
            raise EdgeListParseError(f"line {lineno}: header declares {m} edges but this is edge line {m + 1}")
        edges.append(_two_ints(lineno, line, "edge line must be 'i j'", "edge endpoints must be integers"))
    if len(edges) != m:
        raise EdgeListParseError(f"header declares {m} edges but {len(edges)} edge lines found")
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise EdgeListParseError(str(exc)) from exc


def _two_ints(lineno: int, line: str, shape: str, kind: str) -> tuple[int, int]:
    """The two integers of a header or edge line: an error naming the line
    says `shape` when it does not have two fields, `kind` when they are not
    integers."""
    fields = line.split()
    if len(fields) != 2:
        raise EdgeListParseError(f"line {lineno}: {shape}, got {line!r}")
    try:
        return int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListParseError(f"line {lineno}: {kind}") from None


# Every line break of str.splitlines; "\r\n" is one.
_BREAK = re.compile("\r\n?|[\n\v\f\x1c-\x1e\x85\u2028\u2029]")


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line of text.splitlines() that
    is neither blank nor a comment.  The text is split a block of about 16
    KiB at a time: each block ends at the first line break after that size,
    so no line is cut in two and no list of every line is held."""
    lineno = start = 0
    while start < len(text):
        found = _BREAK.search(text, start + 16384)
        end = found.end() if found else len(text)
        for raw in text[start:end].splitlines():
            lineno += 1
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line
        start = end


def read_edgelist(path: str | os.PathLike) -> Graph:
    with open(path, encoding="ascii") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise EdgeListParseError(f"not an ASCII document: {exc}") from None
    return parse_edgelist(text)


def format_edgelist(g: Graph) -> str:
    """Render a Graph as an edge-list document (sorted edges, LF endings)."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def write_edgelist(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii", newline="") as handle:
        handle.write(format_edgelist(g))
