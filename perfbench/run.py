"""End-to-end benchmark of treecount's CLI on four seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 30 --trace 0

One operation is one in-process call of `treecount.cli.main(argv)` on one
input with stdout captured, so it crosses cli -> edgelist/families -> graph
-> kirchhoff -> linalg/oracle.  The loop is closed with a single client: the
next operation starts only after the previous one has finished and its
answer has been checked.

`--trace 0` measures the unmodified library for `--seconds` and prints the
end-to-end metrics.  `--trace 1` makes one pass over a fixed prefix of the
corpus (about half of `--seconds` of work on the reference machine) untraced,
then a second pass over the same prefix with span wrappers installed, and
prints the per-layer metrics: totals over identical work, whatever the
program's speed.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it carries environment and size context, and the raw figures.
Every time reported is scaled to the reference machine's speed by a
reference kernel timed all through the run (see calibrate.py).  The program is imported
from src/ next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import corpus
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"  # edge-list files, reused across runs
WORKLOADS = tuple(corpus.ROUNDS)
SETUP_REPEATS = 7
VERIFY_LAST = re.compile(r"all methods agree: tau = (\d+)")


class SetupError(RuntimeError):
    """The program under test could not be imported from the checkout."""


def import_program():
    """Fresh import of treecount from SRC; stdlib modules stay cached."""
    if not (SRC / "treecount" / "__init__.py").is_file():
        raise SetupError(f"no treecount package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "treecount" or n.startswith("treecount.")]:
        del sys.modules[name]
    package = importlib.import_module("treecount")
    if Path(package.__file__).resolve().parent != SRC / "treecount":
        raise SetupError(f"treecount was imported from {package.__file__}, not {SRC}")
    return importlib.import_module("treecount.cli")


def write_in_place(path: str, text: str) -> None:
    """Overwrite a file without first truncating it to zero bytes.

    On ext4, a file truncated to zero and rewritten is flushed to disk when
    it is closed; over thousands of files that made set-up time follow the
    disk rather than the work.  Overwriting and then cutting the file to its
    new, nonzero length writes only to the page cache.
    """
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as handle:
        handle.write(text.encode("ascii"))
        handle.truncate()


def set_up(workload: str, seed: int, seconds: float, workdir: Path, small: bool = False) -> list[list]:
    """Import the program, build the seeded corpus and write its edge-list files.

    Returns the corpus as rounds, each a list of (corpus.Item, argv of each
    of its operations) pairs.  The corpus holds 1.5 times the rounds a run
    needs on the reference machine, so a run sees each graph once.
    """
    import_program()
    rounds = max(2, math.ceil(1.5 * seconds / corpus.ROUND_SECONDS[workload]))
    workdir.mkdir(parents=True, exist_ok=True)
    work, index = [], 0
    for batch in corpus.build(workload, seed, rounds, small):
        pairs = []
        for item in batch:
            path = None
            if item.edges is not None:
                path = str(workdir / f"{index:05d}.edges")
                write_in_place(path, corpus.edgelist_text(item.n, item.edges))
            pairs.append((item, item.argvs(path)))
            index += 1
        work.append(pairs)
    return work


def flat(rounds: list[list]) -> list:
    return [pair for batch in rounds for pair in batch]


def timed_setups(workload: str, seed: int, seconds: float, workdir: Path, small: bool = False):
    """Set up SETUP_REPEATS times; return the last set-up, every duration,
    and the slowdown the reference kernel showed around them.

    The kernel is timed before and after each set-up, so the slowdown is
    that of the seconds the set-ups ran in.  The files are rewritten in
    place and kept for the next run: creating and deleting thousands of
    small files costs far more, and far more variably, than rewriting them.
    """
    probe = calibrate.Probe(workload)
    durations, work = [], None
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        work = set_up(workload, seed, seconds, workdir, small)
        durations.append(time.perf_counter() - start)
    probe.sample()
    return work, durations, probe.slowdown


def parse_tau(argv: list[str], rc, out: str) -> int | None:
    """The count an operation printed, or None when its output is not a valid answer.

    `verify` must list at least two methods and every one must show the
    agreed count.
    """
    if rc != 0:
        return None
    lines = out.strip().splitlines()
    try:
        if argv[0] == "count":
            return int(json.loads(lines[-1])["tau"])
        match = VERIFY_LAST.fullmatch(lines[-1])
        rows = [line.split() for line in lines[1:-1]]
        if match is None or len(rows) < 2:
            return None
        tau = int(match.group(1))
        return tau if all(int(row[1]) == tau for row in rows) else None
    except (IndexError, KeyError, ValueError):
        return None


@dataclass
class Run:
    seconds: float = 0.0
    graphs: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)  # in attempt order
    n_sum: int = 0
    m_sum: int = 0
    nnz_sum: int = 0
    tau_bits_max: int = 0
    passes: int = 0
    slowdown: float = 1.0  # this run's machine speed against the reference

    @property
    def graphs_per_s(self) -> float:
        return self.graphs / self.seconds


def call(cli, argv: list[str]):
    """One operation: run the CLI in-process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if exc.code is not None else 0
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def measure(work: list, seconds: float | None, probe: calibrate.Probe,
            tracer: tracing.Tracer | None = None) -> Run:
    """Closed loop over the corpus for `seconds` on a freshly imported
    program, checking every answer; one pass over `work` when `seconds` is
    None.

    A graph is started only before the deadline and always finished, so
    every counted graph had all of its operations run and checked.  The
    probe's kernel runs between graphs; its time is not counted in
    `seconds`.  With a tracer, the layer wrappers are installed for the loop
    and removed after.
    """
    cli = import_program()
    run = Run()
    probing = 0.0
    gc.collect()
    with tracing.installed(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else math.inf
        limit = len(work) if seconds is None else math.inf
        index = 0
        while index < limit and time.perf_counter() < deadline:
            probing += probe.maybe()
            item, argvs = work[index % len(work)]
            index += 1
            seen = set()
            for argv in argvs:
                if tracer is not None:
                    tracer.op = run.attempted
                rc, out, elapsed = call(cli, argv)
                run.latencies_ms.append(elapsed * 1000.0)
                run.attempted += 1
                tau = parse_tau(argv, rc, out)
                ok = tau is not None and (item.expected is None or tau == item.expected)
                if ok and seen and tau not in seen:
                    ok = False  # disagrees with an earlier method on the same graph
                if tau is not None:
                    seen.add(tau)
                    run.tau_bits_max = max(run.tau_bits_max, tau.bit_length())
                if not ok:
                    run.failed += 1
                    print(f"FAILED {item.name}: {' '.join(argv)} -> rc={rc!r} tau={tau} "
                          f"expected={item.expected}", file=sys.stderr)
            run.graphs += 1
            run.n_sum += item.n
            run.m_sum += item.m
            run.nnz_sum += item.n + 2 * item.m
        run.seconds = time.perf_counter() - start - probing
    run.passes = math.ceil(index / len(work))
    run.slowdown = probe.slowdown
    return run


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten operations beyond it, and its value:
    the eleventh slowest operation (the fastest one when fewer ran)."""
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, 1)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def git_commit(root: Path = HERE.parent) -> str | None:
    """HEAD read from .git, when the checkout is a git repository.

    Follows a `gitdir:` file (worktrees, submodules) and its `commondir`,
    and looks a branch up in packed-refs when it has no loose ref file.
    """
    git = root / ".git"
    try:
        if git.is_file():
            git = git.parent / git.read_text().split(":", 1)[1].strip()
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        common = git / (git / "commondir").read_text().strip() if (git / "commondir").is_file() else git
        for refs in (git, common):
            if (refs / ref).is_file():
                return (refs / ref).read_text().strip()
        for line in (common / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except (OSError, IndexError):
        pass
    return None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: Run, setup_s: float) -> dict:
    """The end-to-end metrics, times at the reference machine's speed;
    `setup_s` is already scaled."""
    _, tail_ms = tail(run.latencies_ms)
    return {
        "graphs_per_s": metric(run.graphs_per_s * run.slowdown, "1/s"),
        "op_ms.p50": metric(statistics.median(run.latencies_ms) / run.slowdown, "ms"),
        "op_ms.tail": metric(tail_ms / run.slowdown, "ms"),
        "ok_ratio": metric((run.attempted - run.failed) / run.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(untraced: Run, traced: Run, tracer: tracing.Tracer) -> dict:
    """The per-layer metrics, times at the reference machine's speed."""
    ms = {bucket: total / traced.slowdown for bucket, total in tracer.bucket_ms().items()}
    calls = tracer.calls()
    graphs = traced.graphs

    def total(bucket):
        return metric(ms.get(bucket, 0.0), "ms")

    return {
        "linalg.det_int_ms": total("linalg.det_int"),
        "linalg.det_int.calls": metric(calls["linalg.det_int"], "count"),
        "linalg.det_int.order_sum": metric(tracer.det_order_sum, "count"),
        "linalg.assemble_ms": total("linalg.assemble"),
        "linalg.det_rat_ms": total("linalg.det_rat"),
        "linalg.det_bits.max": metric(tracer.det_bits_max, "bits"),
        "kirchhoff.post_ms": total("kirchhoff.post"),
        "kirchhoff.s_matrix_ms": total("kirchhoff.s_matrix"),
        "kirchhoff.bipartition_ms": total("kirchhoff.bipartition"),
        "kirchhoff.bipartition.per_graph": metric(calls["kirchhoff.find_bipartition"] / graphs, "calls/graph"),
        "families.parse_ms": total("families.parse"),
        "families.gen_ms": total("families.gen"),
        "families.formula_ms": total("families.formula"),
        "oracle.subsets_ms": total("oracle.subsets"),
        "oracle.subsets.calls": metric(calls["oracle.tau_subsets"], "count"),
        "oracle.delcon_ms": total("oracle.delcon"),
        "oracle.delcon.calls": metric(calls["oracle.tau_delcon"], "count"),
        "graph.build_ms": total("graph.build"),
        "graph.laplacian_ms": total("graph.laplacian"),
        "graph.laplacian.per_graph": metric(calls["graph.Graph.laplacian"] / graphs, "calls/graph"),
        "graph.connected_ms": total("graph.connected"),
        "edgelist.read_ms": total("edgelist.read"),
        "edgelist.bytes": metric(tracer.edgelist_bytes, "bytes"),
        "cli.self_ms": total("cli.self"),
        "cli.calls": metric(calls["cli.main"], "count"),
        "trace.overhead_pct": metric(
            (untraced.graphs_per_s * untraced.slowdown / (traced.graphs_per_s * traced.slowdown) - 1) * 100, "%"),
        "input.nnz.sum": metric(traced.nnz_sum, "count"),
        "tau_bits.max": metric(traced.tau_bits_max, "bits"),
    }


def context(workload: str, seed: int, runs: dict[str, Run], setups: list[float], setup_slowdown: float) -> dict:
    """Environment, sizes and the raw figures: times as measured, before
    scaling by each run's slowdown."""
    info = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "setup_s_each": setups,
        "setup_slowdown": setup_slowdown,
    }
    for label, run in runs.items():
        pct, tail_ms = tail(run.latencies_ms)
        info[label] = {
            "seconds": run.seconds,
            "slowdown": run.slowdown,
            "graphs_per_s": run.graphs_per_s,
            "op_ms_p50": statistics.median(run.latencies_ms),
            "op_ms_tail": tail_ms,
            "graphs": run.graphs,
            "operations": run.attempted,
            "corpus_passes": run.passes,
            "failed": run.failed,
            "fail_ratio": run.failed / run.attempted,
            "tail_percentile": pct,
            "n_sum": run.n_sum,
            "m_sum": run.m_sum,
            "nnz_sum": run.nnz_sum,
            "tau_bits_max": run.tau_bits_max,
        }
    return info


def traced_rounds(workload: str, seconds: float) -> int:
    """Rounds in the fixed prefix a traced run passes over twice: about
    `seconds` / 2 of work each pass on the reference machine."""
    return max(1, round(seconds / 2 / corpus.ROUND_SECONDS[workload]))


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: Path = WORK, small: bool = False):
    """Run one workload; return (context, result) as printed by main."""
    rounds, setups, setup_slowdown = timed_setups(workload, seed, seconds, workdir / workload, small)
    if not trace:
        run = measure(flat(rounds), seconds, calibrate.Probe(workload))
        runs, metrics = {"untraced": run}, end_to_end(run, statistics.median(setups) / setup_slowdown)
    else:
        fixed = flat(rounds[: traced_rounds(workload, seconds)])
        untraced = measure(fixed, None, calibrate.Probe(workload))
        tracer = tracing.Tracer()
        traced = measure(fixed, None, calibrate.Probe(workload), tracer)
        runs, metrics = {"untraced": untraced, "traced": traced}, per_layer(untraced, traced, tracer)
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return context(workload, seed, runs, setups, setup_slowdown), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        info, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
