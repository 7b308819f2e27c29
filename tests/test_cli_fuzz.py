"""The CLI's exit-code contract on arbitrary input: `count` with each of its
methods and `verify`, fed edge-list files of arbitrary bytes after a header
declaring at most 12 vertices, and family specs over the spec alphabet
whose families have at most 12 vertices, return 0, 2, 3 or 4 and raise
nothing.  A disagreement (1) cannot happen on a correct program, so it
fails here too."""

import contextlib
import io
import os
import tempfile
from itertools import combinations

from hypothesis import given, settings, strategies as st

from treecount import cli, families

COUNT_METHODS = [m for m in cli.METHODS if m != "delcon"]  # `count --method` refuses delcon
CONTRACT = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_METHOD, cli.EXIT_ORACLE}
MAX_N = 12


def exit_codes(source: list[str]) -> list[int]:
    """cli.main's return value for `count` with every method and for
    `verify`, on one input; an exception propagates."""
    argvs = [["count", *source, "--method", m] for m in COUNT_METHODS] + [["verify", *source]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return [cli.main(argv) for argv in argvs]


@st.composite
def edge_list_bytes(draw):
    """A header 'n m' with n <= 12, then distinct edge lines on 1..n, either
    way round, with up to two chunks of arbitrary bytes or edge lines over
    -1..13 put in anywhere; m is the line count or arbitrary.  So graphs of
    every shape occur, as do duplicate, loop and out-of-range edges,
    miscounted headers and garbage."""
    n = draw(st.integers(-1, MAX_N))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    lines = [f"{i} {j}\n" if draw(st.booleans()) else f"{j} {i}\n" for i, j in edges]
    chunks = [line.encode() for line in lines]
    any_line = st.tuples(st.integers(-1, MAX_N + 1), st.integers(-1, MAX_N + 1)).map(
        lambda e: f"{e[0]} {e[1]}\n".encode())
    for noise in draw(st.lists(st.one_of(st.binary(max_size=12), any_line), max_size=2)):
        chunks.insert(draw(st.integers(0, len(chunks))), noise)
    m = draw(st.integers(0, 30)) if draw(st.integers(0, 3)) == 0 else len(chunks)
    return f"{n} {m}\n".encode() + b"".join(chunks)


@given(edge_list_bytes())
@settings(max_examples=150, deadline=None)
def test_exit_codes_on_arbitrary_edge_list_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.edges")
        with open(path, "wb") as handle:
            handle.write(data)
        codes = exit_codes(["--file", path])
    assert set(codes) <= CONTRACT, codes


def at_most_twelve_vertices(spec: str) -> bool:
    """True for a spec that does not parse (it must exit 2) and for one whose
    family has at most 12 vertices."""
    try:
        return families.parse_family(spec).size()[0] <= MAX_N
    except families.FamilySpecError:
        return True


SPEC_ALPHABET = "0123456789x,:di "
size = st.integers(0, MAX_N + 1).map(str)
sizes = st.lists(
    st.one_of(size, st.tuples(size, size).map("x".join), st.text(SPEC_ALPHABET, max_size=4)),
    min_size=1,
    max_size=4,
).map(",".join)
specs = st.one_of(
    st.tuples(st.sampled_from(["complete", "bipartite", "multipartite", "ferrers"]), sizes).map(":".join),
    st.text("diDI", max_size=MAX_N).map("threshold:".__add__),
    st.tuples(st.sampled_from(list(families.KINDS)), st.text(SPEC_ALPHABET, max_size=14)).map(":".join),
    st.text(SPEC_ALPHABET + "abcdefghijklmnopqrstuvwxyz", max_size=20),
).filter(at_most_twelve_vertices)


@given(specs)
@settings(max_examples=150, deadline=None)
def test_exit_codes_on_family_spec_strings(spec):
    codes = exit_codes(["--family", spec])
    assert set(codes) <= CONTRACT, codes
