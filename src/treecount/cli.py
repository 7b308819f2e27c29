"""Command-line front end: count, verify, generate, and bench.

Exit codes: 0 success, 1 method disagreement, 2 parse error (bad file,
bad family spec, bad flags, an input above graph.MAX_VERTICES or
graph.MAX_EDGES), 3 method unavailable for the input, 4 subset oracle over
its guard.  The guard defaults to 10^7 subsets and can be
overridden with the TREECOUNT_ORACLE_LIMIT environment variable, which must
be an integer >= 0 (exit 2 otherwise).  The variable is read only when the
subset oracle runs, so a malformed value fails only the commands that run
it.  Exit 3 is kirchhoff.MethodUnavailableError, the one class of every
route's refusal, or formula without a --family input.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import json
import os
import random
import re
import sys
import time

from . import edgelist, families, kirchhoff, oracle
from .graph import MAX_EDGES, Graph
from .kirchhoff import MethodUnavailableError

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_METHOD = 3
EXIT_ORACLE = 4


class CliInputError(ValueError):
    """Bad command-line input not caught by argparse itself."""


class MismatchError(Exception):
    """Two counting methods returned different values."""


def _subset_limit() -> int:
    raw = os.environ.get("TREECOUNT_ORACLE_LIMIT")
    if raw is None:
        return oracle.DEFAULT_SUBSET_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        raise CliInputError(f"TREECOUNT_ORACLE_LIMIT must be an integer, got {raw!r}") from None
    if limit < 0:
        raise CliInputError(f"TREECOUNT_ORACLE_LIMIT must be >= 0, got {limit}")
    return limit


def _load_input(args, build: bool = True) -> tuple[Graph | None, families.Family | None]:
    """The input graph and, for --family, its Family.  With `build` false
    a family's graph is not built and None stands in for it."""
    if getattr(args, "family", None) and getattr(args, "file", None):
        raise CliInputError("give either --family or --file, not both")
    if getattr(args, "family", None):
        fam = families.parse_family(args.family)
        return (fam.graph() if build else None), fam
    if getattr(args, "file", None):
        return edgelist.read_edgelist(args.file), None
    raise CliInputError("an input is required: --family or --file")


def _needs_graph(methods: list[str] | None) -> bool:
    """Whether `methods` (None: every method) count from the built graph:
    the formula needs none, since a family's size is in closed form too."""
    return methods is None or any(m != "formula" for m in methods)


def _formula(g: Graph | None, fam: families.Family | None) -> int:
    if fam is None:
        raise MethodUnavailableError("formula needs a --family input")
    return fam.formula_count()


# name -> fn(graph, family or None), in the order verify runs them.  Entries
# look functions up on their modules at call time, so a wrapped or patched
# module function is the one that runs.
METHODS = {
    "reduced": lambda g, fam: kirchhoff.tau_reduced(g, 1, 1),
    "rankone": lambda g, fam: kirchhoff.tau_rank_one(g, [1] * g.n, [1] + [0] * (g.n - 1)),
    "temperley": lambda g, fam: kirchhoff.tau_temperley(g),
    "schur": lambda g, fam: kirchhoff.tau_bipartite_schur(g),
    "formula": _formula,
    "oracle": lambda g, fam: oracle.tau_subsets(g, _subset_limit()),
    "delcon": lambda g, fam: oracle.tau_delcon(oracle.Multigraph.from_graph(g)),
}

def _parse_method_list(text: str) -> list[str]:
    methods = [t.strip() for t in text.split(",") if t.strip()]
    if not methods:
        raise CliInputError("empty method list")
    for m in methods:
        if m not in METHODS:
            raise CliInputError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    return methods


def _digits(value: int) -> str:
    """The decimal digits of a count.  str() refuses integers above 4300
    digits (the interpreter's conversion limit, which is process-wide state
    the library leaves alone); Decimal converts any size."""
    return str(decimal.Decimal(value))


def cmd_count(args) -> int:
    g, fam = _load_input(args, build=_needs_graph([args.method]))
    [(_, value, elapsed_ms)] = _run_methods(g, fam, [args.method])
    n, edges = fam.size() if g is None else (g.n, len(g.edges))
    if args.json:
        print(json.dumps({
            "method": args.method,
            "tau": _digits(value),
            "n": n,
            "edges": edges,
            "elapsed_ms": round(elapsed_ms, 3),
        }))
    else:
        print(f"n={n} edges={edges} method={args.method} elapsed_ms={elapsed_ms:.3f}")
        print(f"tau = {_digits(value)}")
    return EXIT_OK


def _run_methods(g: Graph | None, fam, methods: list[str] | None) -> list[tuple[str, int, float]]:
    """(method, tau, elapsed_ms) per method.  With `methods` None every
    method runs, and those that cannot run on this input are left out."""
    skip = () if methods else (MethodUnavailableError, oracle.OracleTooLargeError)
    rows = []
    for method in methods or METHODS:
        start = time.perf_counter()
        try:
            value = METHODS[method](g, fam)
        except skip:
            continue
        rows.append((method, value, (time.perf_counter() - start) * 1000.0))
    return rows


def _agreed_value(rows: list[tuple[str, int, float]], where: str = "") -> int:
    values = {value for _, value, _ in rows}
    if len(values) > 1:
        detail = ", ".join(f"{m}={_digits(v)}" for m, v, _ in rows)
        raise MismatchError(f"{where}methods disagree: {detail}")
    return values.pop()


def _parse_random_spec(tokens: list[str]) -> tuple[int, int]:
    params = {"n": 6, "trials": 20}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key not in params:
            raise CliInputError(f"bad --random token {token!r}; expected n=K and/or trials=T")
        try:
            params[key] = int(value)
        except ValueError:
            raise CliInputError(f"--random {key} must be an integer, got {value!r}") from None
    n, trials = params["n"], params["trials"]
    if n < 1 or trials < 1:
        raise CliInputError("--random n and trials must be >= 1")
    pairs = n * (n - 1) // 2  # each a candidate edge that draws a coin before a graph is built
    if pairs > MAX_EDGES:
        raise CliInputError(f"--random n={n} has {pairs} vertex pairs, above the limit of {MAX_EDGES}")
    return n, trials


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    """G(n, 1/2), drawn again until it is connected."""
    while True:
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        if g.is_connected():
            return g


def cmd_verify(args) -> int:
    methods = _parse_method_list(args.methods) if args.methods else None
    if args.random is not None:
        if args.family or args.file:
            raise CliInputError("--random draws its own graphs: give no --family or --file")
        return _verify_random(args, methods)
    if args.seed is not None:
        raise CliInputError("--seed seeds the --random corpus: give it only with --random")
    g, fam = _load_input(args, build=_needs_graph(methods))
    rows = _run_methods(g, fam, methods)
    width = max(len(m) for m, _, _ in rows)
    print(f"{'method'.ljust(width)}  {'tau'.rjust(12)}  elapsed_ms")
    for method, value, ms in rows:
        print(f"{method.ljust(width)}  {_digits(value).rjust(12)}  {ms:10.3f}")
    print(f"all methods agree: tau = {_digits(_agreed_value(rows))}")
    return EXIT_OK


def _verify_random(args, methods: list[str] | None) -> int:
    n, trials = _parse_random_spec(args.random)
    seed = args.seed if args.seed is not None else 0
    rng = random.Random(seed)
    print(f"random corpus: n={n} trials={trials} seed={seed}")
    failures = 0
    for trial in range(1, trials + 1):
        g = _random_connected_graph(rng, n)
        try:
            _agreed_value(_run_methods(g, None, methods))
        except MismatchError as exc:
            failures += 1
            print(f"trial {trial}: MISMATCH on edges={sorted(g.edges)}: {exc}")
    print(f"agreements: {trials - failures}/{trials}")
    if failures:
        raise MismatchError(f"{failures} of {trials} random trials disagreed (seed={seed})")
    return EXIT_OK


def cmd_generate(args) -> int:
    g = families.parse_family(args.family).graph()
    if args.output:
        edgelist.write_edgelist(g, args.output)
    else:
        sys.stdout.write(edgelist.format_edgelist(g))
    return EXIT_OK


_BARE_PATTERNS = {"complete": "complete:k", "bipartite": "bipartite:k,k"}


def _substitute_size(pattern: str, size: int) -> str:
    if ":" not in pattern:
        if pattern in _BARE_PATTERNS:
            pattern = _BARE_PATTERNS[pattern]
        else:
            raise CliInputError(
                f"bench pattern {pattern!r} needs an explicit 'k' placeholder, e.g. ferrers:kxk"
            )
    # 'k' is the size placeholder; tokens are delimited by ':', ',' and the
    # 'x' of the CxV repetition syntax
    tokens = re.split(r"([:,x])", pattern)
    if "k" not in tokens:
        raise CliInputError(f"bench pattern {pattern!r} contains no 'k' placeholder")
    return "".join(str(size) if token == "k" else token for token in tokens)


def _parse_sizes(text: str) -> range:
    match = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not match:
        raise argparse.ArgumentTypeError(f"sizes must look like A..B, got {text!r}")
    low = int(match.group(1))
    high = int(match.group(2)) if match.group(2) else low
    if low < 1 or high < low:
        raise argparse.ArgumentTypeError(f"bad size range {text!r}")
    return range(low, high + 1)


def cmd_bench(args) -> int:
    methods = _parse_method_list(args.methods) if args.methods else ["temperley"]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["family", "size", "method", "tau", "elapsed_ms"])
    build = _needs_graph(methods)
    for size in args.sizes:
        fam = families.parse_family(_substitute_size(args.family, size))
        g = fam.graph() if build else None
        rows = _run_methods(g, fam, methods)
        for method, value, ms in rows:
            writer.writerow([args.family, size, method, _digits(value), f"{ms:.3f}"])
        _agreed_value(rows, f"size {size}: ")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` does
    not change it."""
    parser = argparse.ArgumentParser(
        prog="treecount",
        description="Count spanning trees exactly and cross-check the counting methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count spanning trees of one graph")
    count.add_argument("--family", help="family spec, e.g. complete:5 or threshold:ididd")
    count.add_argument("--file", help="edge-list file (header 'n m', lines 'i j')")
    count.add_argument("--method", choices=[m for m in METHODS if m != "delcon"], default="temperley")
    count.add_argument("--json", action="store_true", help="emit a JSON report")
    count.set_defaults(func=cmd_count)

    verify = sub.add_parser("verify", help="run all applicable methods and compare")
    verify.add_argument("--family")
    verify.add_argument("--file")
    verify.add_argument("--methods", help="comma-separated subset of methods to run")
    verify.add_argument(
        "--random",
        nargs="+",
        metavar="KEY=VAL",
        help="check random connected graphs, e.g. --random n=6 trials=50",
    )
    verify.add_argument("--seed", type=int, help="seed for the --random corpus (only with --random)")
    verify.set_defaults(func=cmd_verify)

    generate = sub.add_parser("generate", help="write a family graph as an edge list")
    generate.add_argument("--family", required=True)
    generate.add_argument("-o", "--output", help="output path (default: stdout)")
    generate.set_defaults(func=cmd_generate)

    bench = sub.add_parser("bench", help="time methods across a size range, as CSV")
    bench.add_argument(
        "--family",
        required=True,
        help="family pattern with 'k' as the size placeholder, e.g. complete or ferrers:kxk",
    )
    bench.add_argument("--sizes", type=_parse_sizes, required=True, metavar="A..B")
    bench.add_argument("--methods", help="comma-separated methods (default: temperley)")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (CliInputError, families.FamilySpecError, edgelist.EdgeListParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MethodUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD
    except oracle.OracleTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
