import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from treecount import Graph, cli, kirchhoff, linalg
from treecount.cli import EXIT_MISMATCH, EXIT_METHOD, EXIT_OK, EXIT_ORACLE, EXIT_PARSE

from conftest import THREE_CLUSTER_GRAPHS


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tau_from_text(out):
    for line in out.splitlines():
        if line.startswith("tau = "):
            return line.removeprefix("tau = ")
    raise AssertionError(f"no tau line in output:\n{out}")


def test_count_family_formula(capsys):
    code, out, _ = run(capsys, "count", "--family", "complete:5", "--method", "formula")
    assert code == EXIT_OK
    assert tau_from_text(out) == "125"


def test_count_default_method_is_temperley(capsys):
    code, out, _ = run(capsys, "count", "--family", "bipartite:3,4")
    assert code == EXIT_OK
    assert "method=temperley" in out
    assert tau_from_text(out) == "432"


def test_count_json_matches_text(capsys):
    argv = ["count", "--family", "threshold:ididd", "--method", "reduced"]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    text_tau = tau_from_text(out)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["tau"] == text_tau == "180"
    assert report["method"] == "reduced"
    assert report["n"] == 6
    assert report["edges"] == 11
    assert report["elapsed_ms"] >= 0


def test_count_from_file(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("4 5\n1 2\n1 3\n1 4\n2 3\n3 4\n")
    code, out, _ = run(capsys, "count", "--file", str(path), "--method", "temperley")
    assert code == EXIT_OK
    assert tau_from_text(out) == "8"


def test_generate_headers(capsys):
    code, out, _ = run(capsys, "generate", "--family", "ferrers:4,4,3,2,1")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "9 14"
    code, out, _ = run(capsys, "generate", "--family", "complete:3")
    assert out.splitlines()[0] == "3 3"
    code, out, _ = run(capsys, "generate", "--family", "multipartite:2,3,4")
    assert out.splitlines()[0] == "9 26"


def test_generate_count_round_trip(capsys, tmp_path):
    cases = [
        ("complete:5", ["reduced", "rankone", "temperley", "oracle"]),
        ("bipartite:2,3", ["reduced", "rankone", "temperley", "schur", "oracle"]),
        ("multipartite:2,3,4", ["reduced", "temperley"]),
        ("ferrers:4,4,3,2,1", ["reduced", "temperley", "schur"]),
        ("threshold:ididd", ["reduced", "temperley", "oracle"]),
    ]
    for spec, methods in cases:
        path = tmp_path / "roundtrip.edges"
        code, _, _ = run(capsys, "generate", "--family", spec, "-o", str(path))
        assert code == EXIT_OK
        for method in methods:
            code, out, _ = run(capsys, "count", "--family", spec, "--method", method)
            assert code == EXIT_OK
            from_family = tau_from_text(out)
            code, out, _ = run(capsys, "count", "--file", str(path), "--method", method)
            assert code == EXIT_OK
            assert tau_from_text(out) == from_family


def test_verify_family_agreement(capsys):
    code, out, _ = run(capsys, "verify", "--family", "ferrers:4,4,3,2,1")
    assert code == EXIT_OK
    assert "all methods agree: tau = 576" in out
    for method in ["reduced", "rankone", "temperley", "schur", "formula", "oracle", "delcon"]:
        assert method in out


def test_verify_threshold_k9_runs_delcon(capsys):
    # K9: C(36, 8) subsets exceed the oracle guard, so delcon is the brute force
    code, out, _ = run(capsys, "verify", "--family", "threshold:dddddddd")
    assert code == EXIT_OK
    assert "all methods agree: tau = 4782969" in out
    assert [line.split()[0] for line in out.splitlines()[1:-1]] == [
        "reduced", "rankone", "temperley", "formula", "delcon",
    ]


def test_schur_finds_the_bipartition_once_and_does_not_recheck_it(capsys, monkeypatch):
    calls = []
    for name in ("find_bipartition", "check_bipartition"):
        real = getattr(cli.kirchhoff, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli.kirchhoff, name, counted)
    code, out, _ = run(capsys, "verify", "--family", "ferrers:4,4,3,2,1")
    assert code == EXIT_OK
    assert "all methods agree: tau = 576" in out
    assert calls == ["find_bipartition"]


def write_edges(path, n, edges):
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges))
    return str(path)


def count_json(capsys, path, method):
    code, out, _ = run(capsys, "count", "--file", path, "--method", method, "--json")
    assert code == EXIT_OK
    return json.loads(out)["tau"]


def test_temperley_on_sparse_files_matches_reduced(capsys, tmp_path):
    # L + J of these graphs is dense, so temperley goes through the bordered
    # matrix and the sparse kernel
    cycle = write_edges(tmp_path / "cycle.edges", 150, [(i, i % 150 + 1) for i in range(1, 151)])
    assert count_json(capsys, cycle, "temperley") == count_json(capsys, cycle, "reduced") == "150"
    side = 12
    grid_edges = [(r * side + c + 1, r * side + c + 2) for r in range(side) for c in range(side - 1)]
    grid_edges += [(r * side + c + 1, (r + 1) * side + c + 1) for r in range(side - 1) for c in range(side)]
    grid = write_edges(tmp_path / "grid.edges", side * side, grid_edges)
    assert count_json(capsys, grid, "temperley") == count_json(capsys, grid, "reduced")


def verify_methods(out):
    lines = out.splitlines()
    assert lines[0].startswith("method")
    return [line.split()[0] for line in lines[1:-1]]


def test_verify_file_lists_methods_in_table_order(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("4 4\n1 2\n2 3\n3 4\n1 4\n")  # 4-cycle, bipartite
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == EXIT_OK
    assert verify_methods(out) == ["reduced", "rankone", "temperley", "schur", "oracle", "delcon"]
    path.write_text("3 3\n1 2\n2 3\n1 3\n")  # triangle, not bipartite
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == EXIT_OK
    assert verify_methods(out) == ["reduced", "rankone", "temperley", "oracle", "delcon"]


@pytest.mark.parametrize("name", THREE_CLUSTER_GRAPHS)
def test_verify_file_three_cluster_graphs(capsys, tmp_path, name):
    n, edges, tau = THREE_CLUSTER_GRAPHS[name]
    code, out, _ = run(capsys, "verify", "--file", write_edges(tmp_path / "g.edges", n, edges))
    assert code == EXIT_OK
    assert "oracle" in verify_methods(out)
    assert out.splitlines()[-1] == f"all methods agree: tau = {tau}"


def test_verify_file_three_stranded_edges(capsys, tmp_path):
    # a perfect matching on six vertices: deletion-contraction strips it to
    # three vertices with no bundle between them
    code, out, _ = run(capsys, "verify", "--file", write_edges(tmp_path / "g.edges", 6, [(1, 2), (3, 4), (5, 6)]))
    assert code == EXIT_OK
    assert verify_methods(out)[-2:] == ["oracle", "delcon"]
    assert out.splitlines()[-1] == "all methods agree: tau = 0"


def test_verify_trivial_bipartite(capsys):
    code, out, _ = run(capsys, "verify", "--family", "bipartite:1,1")
    assert code == EXIT_OK
    assert "all methods agree: tau = 1" in out


def test_verify_detects_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli.kirchhoff, "tau_temperley", lambda g: 999)
    code, out, err = run(capsys, "verify", "--family", "complete:4")
    assert code == EXIT_MISMATCH
    assert "temperley=999" in err


def test_verify_random_corpus(capsys):
    code, out, _ = run(capsys, "verify", "--random", "n=5", "trials=6", "--seed", "7")
    assert code == EXIT_OK
    assert "agreements: 6/6" in out
    assert "seed=7" in out


def test_verify_random_refuses_a_family_or_a_file_input(capsys, tmp_path):
    """--random draws its own graphs, so an input given beside it is an
    error (exit 2), not silently dropped."""
    path = write_edges(tmp_path / "g.edges", 2, [(1, 2)])
    for extra in (["--family", "complete:3"], ["--file", str(path)], ["--file", str(tmp_path / "missing")]):
        code, out, err = run(capsys, "verify", "--random", "n=4", "trials=1", *extra)
        assert code == EXIT_PARSE, extra
        assert out == ""
        assert "--random" in err


def test_verify_refuses_a_seed_without_random(capsys):
    """--seed seeds only the --random corpus, so a seed given with a family
    or file input is an error (exit 2, one error line), not silently dropped."""
    code, out, err = run(capsys, "verify", "--family", "complete:3", "--seed", "5")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.splitlines() == ["error: --seed seeds the --random corpus: give it only with --random"]


def test_verify_random_n_is_capped_by_its_vertex_pairs(capsys, monkeypatch):
    """--random n=K is refused (exit 2) when its K(K-1)/2 candidate edges,
    each a coin drawn before any graph is built, exceed MAX_EDGES."""
    drawn = []
    real_draw, real_cap = cli._random_connected_graph, cli.MAX_EDGES

    def spy(rng, n):
        drawn.append(n)
        return real_draw(rng, n)

    monkeypatch.setattr(cli, "_random_connected_graph", spy)
    monkeypatch.setattr(cli, "MAX_EDGES", 10)
    code, out, _ = run(capsys, "verify", "--random", "n=5", "trials=1")
    assert code == EXIT_OK
    assert "agreements: 1/1" in out
    code, _, err = run(capsys, "verify", "--random", "n=6", "trials=1")
    assert code == EXIT_PARSE
    assert "15 vertex pairs, above the limit of 10" in err
    monkeypatch.setattr(cli, "MAX_EDGES", real_cap)
    code, _, err = run(capsys, "verify", "--random", "n=1415", "trials=1")
    assert code == EXIT_PARSE
    assert "1000405 vertex pairs" in err
    assert drawn == [5]


def test_verify_restricted_methods(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "complete:4", "--methods", "reduced,oracle"
    )
    assert code == EXIT_OK
    assert "all methods agree: tau = 16" in out
    assert "temperley" not in out


def test_bench_csv_shape(capsys):
    code, out, _ = run(
        capsys,
        "bench", "--family", "complete", "--sizes", "4..9",
        "--methods", "temperley,reduced,formula",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "family,size,method,tau,elapsed_ms"
    assert len(lines) == 1 + 18
    by_size = {}
    for line in lines[1:]:
        family, size, method, tau_value, _ = line.split(",")
        assert family == "complete"
        by_size.setdefault(size, set()).add(tau_value)
    assert all(len(values) == 1 for values in by_size.values())
    assert by_size["9"] == {str(9 ** 7)}


def test_bench_single_size(capsys):
    code, out, _ = run(capsys, "bench", "--family", "complete", "--sizes", "1..1")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[:4] == ["complete", "1", "temperley", "1"]


def test_bench_pattern_substitution(capsys):
    code, out, _ = run(capsys, "bench", "--family", "ferrers:kxk", "--sizes", "2..3")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["4", "81"]  # square cases match m^(n-1) n^(m-1)


# tau(K_{2,15000}) = 2^14999 * 15000 has 4520 digits, above the 4300 that
# str() converts; the formula gives it without a determinant of order 15002
WIDE_FAMILY = "bipartite:2,15000"
WIDE_TAU = 2**14999 * 15000


def digits_equal(text: str, value: int) -> bool:
    """text is value's decimal digits, checked in chunks of 3000, under the
    interpreter's conversion limit."""
    return len(text) == 4520 and int(text[:-3000]) * 10**3000 + int(text[-3000:]) == value


def test_count_prints_a_count_above_the_str_limit(capsys):
    code, out, _ = run(capsys, "count", "--family", WIDE_FAMILY, "--method", "formula")
    assert code == EXIT_OK
    assert digits_equal(tau_from_text(out), WIDE_TAU)
    code, out, _ = run(capsys, "count", "--family", WIDE_FAMILY, "--method", "formula", "--json")
    assert code == EXIT_OK
    assert digits_equal(json.loads(out)["tau"], WIDE_TAU)


def test_verify_and_bench_print_a_count_above_the_str_limit(capsys):
    code, out, _ = run(capsys, "verify", "--family", WIDE_FAMILY, "--methods", "formula")
    assert code == EXIT_OK
    table_row, agreed = out.strip().splitlines()[1:]
    assert digits_equal(table_row.split()[1], WIDE_TAU)
    assert digits_equal(agreed.removeprefix("all methods agree: tau = "), WIDE_TAU)
    code, out, _ = run(
        capsys, "bench", "--family", "bipartite:2,k", "--sizes", "15000", "--methods", "formula"
    )
    assert code == EXIT_OK
    assert digits_equal(out.strip().splitlines()[1].split(",")[-2], WIDE_TAU)


def test_bench_sizes_are_a_lazy_range():
    sizes = cli._parse_sizes("1..1000000000")
    assert isinstance(sizes, range)
    assert (sizes.start, sizes.stop, len(sizes)) == (1, 1000000001, 10**9)
    assert cli._parse_sizes("7") == range(7, 8)


def test_exit_code_parse_error_on_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 2\n1 2\n")
    code, _, err = run(capsys, "count", "--file", str(path))
    assert code == EXIT_PARSE
    assert "error:" in err
    code, _, _ = run(capsys, "count", "--file", str(tmp_path / "missing.edges"))
    assert code == EXIT_PARSE


def test_exit_code_parse_error_on_non_ascii_file(capsys, tmp_path):
    path = tmp_path / "accent.edges"
    path.write_bytes(b"2 1\n1 2 \xc3\xa9\n")
    code, _, err = run(capsys, "count", "--file", str(path))
    assert code == EXIT_PARSE
    assert "error:" in err
    assert "Traceback" not in err


def test_exit_code_parse_error_on_bad_family(capsys):
    code, _, err = run(capsys, "count", "--family", "heptagonal:3")
    assert code == EXIT_PARSE
    assert "error:" in err


@pytest.mark.parametrize(
    "spec", ["complete:7", "bipartite:3,4", "multipartite:2,3,4", "ferrers:4,4,3,2,1", "threshold:ididd"])
def test_count_formula_builds_no_graph(capsys, monkeypatch, spec):
    """`count --method formula` prints the same n, edges and tau as a
    method that counts the built graph, in text and --json, and never
    constructs a Graph."""
    built = [run(capsys, "count", "--family", spec, "--method", "reduced", *flag) for flag in ([], ["--json"])]

    def fail(*args):
        raise AssertionError("count --method formula built a Graph")

    monkeypatch.setattr(Graph, "__init__", fail)
    code, out, _ = run(capsys, "count", "--family", spec, "--method", "formula")
    assert code == EXIT_OK
    summary = re.sub(r"method=\S+ elapsed_ms=\S+", "", out)
    assert summary == re.sub(r"method=\S+ elapsed_ms=\S+", "", built[0][1])
    code, out, _ = run(capsys, "count", "--family", spec, "--method", "formula", "--json")
    assert code == EXIT_OK
    report, expected = json.loads(out), json.loads(built[1][1])
    assert [report[k] for k in ("tau", "n", "edges")] == [expected[k] for k in ("tau", "n", "edges")]


def test_exit_code_method_unavailable(capsys):
    code, _, err = run(capsys, "count", "--family", "complete:3", "--method", "schur")
    assert code == EXIT_METHOD
    assert "bipartite" in err
    code, _, _ = run(capsys, "count", "--family", "complete:1", "--method", "schur")
    assert code == EXIT_METHOD
    code, _, err = run(capsys, "verify", "--family", "complete:3", "--methods", "schur")
    assert code == EXIT_METHOD
    assert "bipartite" in err


def test_exit_code_method_unavailable_when_schur_bound_exceeds_the_primes(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "PRIMES", ((64, 59),))
    code, _, err = run(capsys, "count", "--family", "ferrers:4,4,3,2,1", "--method", "schur")
    assert code == EXIT_METHOD
    assert "schur" in err
    # verify leaves schur out, as for a graph that is not bipartite
    code, out, _ = run(capsys, "verify", "--family", "ferrers:4,4,3,2,1")
    assert code == EXIT_OK
    assert "schur" not in out
    assert "all methods agree: tau = 576" in out


def test_no_counting_method_builds_a_fraction(capsys, monkeypatch, tmp_path):
    """schur counts over one residue: no CLI method constructs a Fraction,
    and schur calls neither the rational determinant nor s_matrix."""
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    Fraction(1, 2)
    assert made == [(1, 2)]  # the spy sees constructions
    made.clear()
    unused = []
    monkeypatch.setattr(linalg, "det_rat", lambda *args: unused.append("det_rat"))
    monkeypatch.setattr(kirchhoff, "s_matrix", lambda *args: unused.append("s_matrix"))
    path = tmp_path / "g.edges"
    path.write_text("6 6\n1 4\n1 5\n2 5\n2 6\n3 6\n3 4\n")  # the 6-cycle
    for argv in (
        ["count", "--family", "ferrers:4,4,3,2,1", "--method", "schur"],
        ["count", "--file", str(path), "--method", "schur"],
        ["verify", "--family", "bipartite:2,3"],
        ["verify", "--file", str(path)],
    ):
        assert run(capsys, *argv)[0] == EXIT_OK, argv
    assert made == [] and unused == []


ROUTE_REFUSALS = [
    kirchhoff.NotBipartitionError,
    kirchhoff.IsolatedColumnVertexError,
    kirchhoff.BoundAbovePrimesError,
    kirchhoff.ZeroVectorSumError,
]


@pytest.mark.parametrize("refusal", ROUTE_REFUSALS, ids=lambda cls: cls.__name__)
def test_every_route_refusal_exits_3_from_count_and_is_left_out_by_verify(capsys, monkeypatch, refusal):
    """Each kirchhoff refusal is the CLI's one exit-3 class, whichever
    route raises it; schur is patched to raise each in turn."""
    assert cli.MethodUnavailableError is kirchhoff.MethodUnavailableError
    assert issubclass(refusal, cli.MethodUnavailableError) and issubclass(refusal, ValueError)

    def refuse(g, bp=None):
        raise refusal("schur cannot count this graph")

    monkeypatch.setattr(kirchhoff, "tau_bipartite_schur", refuse)
    code, out, err = run(capsys, "count", "--family", "bipartite:2,3", "--method", "schur")
    assert code == EXIT_METHOD
    assert out == ""
    assert err.splitlines() == ["error: schur cannot count this graph"]
    code, out, _ = run(capsys, "verify", "--family", "bipartite:2,3")
    assert code == EXIT_OK
    assert verify_methods(out) == ["reduced", "rankone", "temperley", "formula", "oracle", "delcon"]
    assert "all methods agree: tau = 12" in out


def test_exit_code_formula_needs_family(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("2 1\n1 2\n")
    code, _, _ = run(capsys, "count", "--file", str(path), "--method", "formula")
    assert code == EXIT_METHOD


def test_exit_code_oracle_too_large(capsys, monkeypatch):
    monkeypatch.setenv("TREECOUNT_ORACLE_LIMIT", "100")
    code, _, err = run(capsys, "count", "--family", "complete:5", "--method", "oracle")
    assert code == EXIT_ORACLE
    assert "guard" in err


def test_negative_oracle_limit_rejected(capsys, monkeypatch):
    monkeypatch.setenv("TREECOUNT_ORACLE_LIMIT", "-5")
    for argv in (
        ["count", "--family", "complete:3", "--method", "oracle"],
        ["verify", "--family", "complete:3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert "TREECOUNT_ORACLE_LIMIT" in err
        assert out == ""


def test_zero_oracle_limit_allowed(capsys, monkeypatch, tmp_path):
    # two isolated vertices: C(0, 1) = 0 subsets, so a zero guard still runs
    path = tmp_path / "g.edges"
    path.write_text("2 0\n")
    monkeypatch.setenv("TREECOUNT_ORACLE_LIMIT", "0")
    code, out, _ = run(capsys, "count", "--file", str(path), "--method", "oracle")
    assert code == EXIT_OK
    assert tau_from_text(out) == "0"


def test_oracle_limit_env_override_allows_runs(capsys, monkeypatch):
    monkeypatch.setenv("TREECOUNT_ORACLE_LIMIT", "300")
    code, out, _ = run(capsys, "count", "--family", "complete:5", "--method", "oracle")
    assert code == EXIT_OK
    assert tau_from_text(out) == "125"


def test_input_is_required(capsys):
    code, _, err = run(capsys, "count")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "verify")
    assert code == EXIT_PARSE


def test_both_inputs_rejected(capsys, tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("2 1\n1 2\n")
    code, _, _ = run(capsys, "count", "--family", "complete:3", "--file", str(path))
    assert code == EXIT_PARSE


def fresh_process(argv):
    """(exit code, stdout, stderr) of the CLI run in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "treecount.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def in_process(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process; argparse
    reports a bad flag by raising SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MIXED_CALLS = [
    ["count", "--family", "complete:6", "--json"],
    ["count", "--family", "complete:6"],
    ["count", "--family", "complete:6", "--no-such-flag"],
    ["count", "--family", "bipartite:3,4", "--method", "reduced"],
]


def test_repeated_main_calls_match_fresh_processes(capsys):
    def untimed(result):
        code, out, err = result
        return code, re.sub(r'(elapsed_ms"?[=:] ?)[0-9.]+', r"\1#", out), err

    in_one_process = [untimed(in_process(capsys, argv)) for argv in MIXED_CALLS]
    assert [code for code, _, _ in in_one_process] == [EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_OK]
    assert in_one_process == [untimed(fresh_process(argv)) for argv in MIXED_CALLS]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    in_process(capsys, MIXED_CALLS[0])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    codes = [in_process(capsys, argv)[0] for argv in MIXED_CALLS]
    assert codes == [EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_OK]
    assert built == []


MALFORMED_FLAGS = {
    "empty method list": ({}, ["verify", "--family", "complete:3", "--methods", ","]),
    "unknown method": ({}, ["verify", "--family", "complete:3", "--methods", "reduced,foo"]),
    "unknown random key": ({}, ["verify", "--random", "foo=1"]),
    "non-integer random value": ({}, ["verify", "--random", "n=x"]),
    "random n below 1": ({}, ["verify", "--random", "n=0"]),
    "non-integer oracle limit": (
        {"TREECOUNT_ORACLE_LIMIT": "abc"}, ["count", "--family", "complete:3", "--method", "oracle"]
    ),
    "bench pattern without ':'": ({}, ["bench", "--family", "foo", "--sizes", "3"]),
    "bench pattern without k": ({}, ["bench", "--family", "complete:5", "--sizes", "3"]),
    "sizes not a range": ({}, ["bench", "--family", "complete", "--sizes", "x"]),
    "sizes decreasing": ({}, ["bench", "--family", "complete", "--sizes", "3..1"]),
}


@pytest.mark.parametrize("env, argv", MALFORMED_FLAGS.values(), ids=MALFORMED_FLAGS)
def test_malformed_flags_exit_2(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, _, err = in_process(capsys, argv)
    assert code == EXIT_PARSE
    assert "error:" in err
    assert "Traceback" not in err


def test_oracle_limit_is_read_only_when_the_oracle_runs(capsys, monkeypatch):
    monkeypatch.setenv("TREECOUNT_ORACLE_LIMIT", "abc")
    code, out, _ = run(capsys, "count", "--family", "complete:3", "--method", "reduced")
    assert code == EXIT_OK
    assert tau_from_text(out) == "3"
    code, out, _ = run(capsys, "verify", "--family", "complete:3", "--methods", "reduced,delcon")
    assert code == EXIT_OK
    for argv in (
        ["count", "--family", "complete:3", "--method", "oracle"],
        ["verify", "--family", "complete:3"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert "TREECOUNT_ORACLE_LIMIT" in err


def test_verify_random_reports_each_mismatched_trial(capsys, monkeypatch):
    monkeypatch.setitem(cli.METHODS, "temperley", lambda g, fam: -1)
    code, out, err = run(capsys, "verify", "--random", "n=5", "trials=3")
    assert code == EXIT_MISMATCH
    assert [line.split(":")[0] for line in out.splitlines() if "MISMATCH" in line] == [
        "trial 1", "trial 2", "trial 3"
    ]
    assert "temperley=-1" in out
    assert "agreements: 0/3" in out
    assert "3 of 3 random trials disagreed" in err
