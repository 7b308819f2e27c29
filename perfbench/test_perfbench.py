"""Tests of the benchmark itself: tiny smoke runs, output names, tracing hygiene.

Run with `python3 -m pytest -q perfbench` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace, tmp_path):
    info, result = run.benchmark(workload, 3, 0.2, trace, workdir=tmp_path, small=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert info["untraced"]["operations"] >= 1
    json.dumps(result)


def test_same_seed_same_corpus():
    for workload in run.WORKLOADS:
        assert corpus.build(workload, 7, 2) == corpus.build(workload, 7, 2)
        assert corpus.build(workload, 7, 2) != corpus.build(workload, 8, 2)


def _current(path):
    owner, attr = tracing._resolve(path)
    return owner.__dict__[attr]


def _wrapped(path) -> bool:
    fn = _current(path)
    return hasattr(getattr(fn, "__func__", fn), "__wrapped__")


def test_wrappers_absent_after_traced_run(tmp_path):
    run.import_program()
    before = {path: _current(path) for path in tracing.WRAPPED}
    with tracing.installed(tracing.Tracer()):
        assert all(_wrapped(path) for path in tracing.WRAPPED)
    assert all(_current(path) is before[path] for path in tracing.WRAPPED)

    # the benchmark imports the program afresh, so check the modules it used
    run.benchmark("crosscheck", 1, 0.2, True, workdir=tmp_path, small=True)
    assert not any(_wrapped(path) for path in tracing.WRAPPED)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_fit_in_each_operation(workload, tmp_path):
    work = run.flat(run.set_up(workload, 5, 0.3, tmp_path, small=True))
    tracer = tracing.Tracer()
    measured = run.measure(work, None, calibrate.Probe(workload), tracer)
    assert measured.graphs == len(work)
    per_op = tracer.op_self_ms()
    assert sorted(per_op) == list(range(measured.attempted))
    for op, wall_ms in enumerate(measured.latencies_ms):
        assert 0 < per_op[op] <= wall_ms
    assert all(ns >= 0 for ns in tracer.self_ns())


def test_traced_run_covers_fixed_work(tmp_path):
    """Per-layer counts are taken over the same graphs on every run, so they
    cannot follow the program's throughput."""
    counts = []
    for _ in range(2):
        _, result = run.benchmark("sparse", 4, 0.2, True, workdir=tmp_path, small=True)
        m = result["metrics"]
        counts.append([m[k]["value"] for k in ("linalg.det_int.calls", "linalg.det_int.order_sum", "cli.calls", "edgelist.bytes")])
    assert counts[0] == counts[1] and counts[0][0] > 0


def test_rewrite_in_place_shortens(tmp_path):
    path = str(tmp_path / "g.edges")
    run.write_in_place(path, "3 2\n1 2\n2 3\n")
    run.write_in_place(path, "2 1\n1 2\n")
    assert Path(path).read_text() == "2 1\n1 2\n"


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert run.git_commit(tmp_path) is None
    (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "a" * 40 + " refs/heads/main\n")
    assert run.git_commit(tmp_path) == "a" * 40
    (git / "refs" / "heads" / "main").write_text("b" * 40 + "\n")
    assert run.git_commit(tmp_path) == "b" * 40
    worktree = tmp_path / "wt"
    (git / "worktrees" / "wt").mkdir(parents=True)
    (git / "worktrees" / "wt" / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "worktrees" / "wt" / "commondir").write_text("../..\n")
    worktree.mkdir()
    (worktree / ".git").write_text(f"gitdir: {git / 'worktrees' / 'wt'}\n")
    assert run.git_commit(worktree) == "b" * 40
    assert run.git_commit(tmp_path / "nowhere") is None


def test_wrong_answer_counts_as_failed(tmp_path):
    cycle = corpus.file_item("cycle5", 5, corpus.cycle_edges(5), 6, corpus.COUNT_SPARSE)
    path = tmp_path / "cycle5.edges"
    path.write_text(corpus.edgelist_text(5, cycle.edges))
    measured = run.measure([(cycle, cycle.argvs(str(path)))], 0.05, calibrate.Probe("sparse"))
    assert measured.attempted == 2 * measured.graphs
    assert measured.failed == measured.attempted


def test_calibration_kernels():
    assert calibrate.bareiss([[2, 1], [1, 3]]) == 5
    assert calibrate.bareiss([[0, 1], [1, 0]]) == -1
    assert calibrate.bareiss(calibrate.grid_minor(2)) == 4  # the 4-cycle
    assert calibrate.delcon(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}) == 4
    assert calibrate.delcon(3, {(0, 1): 2, (1, 2): 1}) == 2
    assert calibrate.delcon(3, {(0, 1): 1}) == 0
    for workload in run.WORKLOADS:
        kernel, expected, reference_ms = calibrate.KERNELS[workload]
        assert kernel() == expected and reference_ms > 0


def test_times_scale_with_slowdown():
    measured = run.Run(seconds=10.0, graphs=20, attempted=40, latencies_ms=[5.0] * 40, slowdown=2.0)
    metrics = run.end_to_end(measured, 0.5)
    assert metrics["graphs_per_s"]["value"] == 4.0
    assert metrics["op_ms.p50"]["value"] == metrics["op_ms.tail"]["value"] == 2.5


def test_tail_is_eleventh_slowest():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0 / 3, 1.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
