"""Plain-text edge-list files: header "n m", then one "i j" line per edge.

Lines starting with '#' are comments; blank lines are ignored.  The writer
emits ASCII with LF line endings and single spaces, edges sorted, so output
is byte-stable for a given graph.
"""

from __future__ import annotations

import os

from .graph import MAX_EDGES, MAX_VERTICES, Graph, GraphError


class EdgeListParseError(ValueError):
    """Malformed edge-list document."""


def parse_edgelist(text: str) -> Graph:
    """Parse an edge-list document into a Graph."""
    data_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        data_lines.append((lineno, line))
    if not data_lines:
        raise EdgeListParseError("no header line found")
    lineno, header = data_lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise EdgeListParseError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListParseError(f"line {lineno}: header must be two integers") from None
    if n > MAX_VERTICES:
        raise EdgeListParseError(f"line {lineno}: {n} vertices is above the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise EdgeListParseError(f"line {lineno}: {m} edges is above the limit of {MAX_EDGES}")
    if len(data_lines) - 1 != m:
        raise EdgeListParseError(
            f"header declares {m} edges but {len(data_lines) - 1} edge lines found"
        )
    edges = []
    for lineno, line in data_lines[1:]:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListParseError(f"line {lineno}: edge line must be 'i j', got {line!r}")
        try:
            edges.append((int(fields[0]), int(fields[1])))
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: edge endpoints must be integers") from None
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise EdgeListParseError(str(exc)) from exc


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
