"""Span tracing of treecount's layers from outside the program.

`installed` swaps the public functions named in WRAPPED for wrappers that
record a span (bucket, parent span, operation, start, end) and puts the
originals back on exit.  Self time of a span is its duration minus the
durations of its child spans; calls are strictly nested in one thread, so
children never overlap.

Not wrapped: `Graph.degree` and `Graph.neighbors`, accessors called in inner
loops, where a wrapper would cost more than the call (their time counts to
the caller); `linalg.det_perturbed`, a one-line composition of two wrapped
functions; and functions no CLI operation reaches (`kirchhoff.tau`,
`build_graph`, `adjugate`, `schur_complement`, `det_via_schur`,
`format_edgelist`, `write_edgelist`, `is_spanning_tree`).
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# "module.qualname" under the treecount package -> bucket its self time goes to
WRAPPED = {
    "cli.main": "cli.self",
    "edgelist.read_edgelist": "edgelist.read",
    "edgelist.parse_edgelist": "edgelist.read",
    "graph.Graph.__init__": "graph.build",
    "graph.Graph.laplacian": "graph.laplacian",
    "graph.Graph.is_connected": "graph.connected",
    "families.parse_family": "families.parse",
    "families.gen_complete": "families.gen",
    "families.gen_complete_bipartite": "families.gen",
    "families.gen_complete_multipartite": "families.gen",
    "families.gen_ferrers": "families.gen",
    "families.gen_threshold": "families.gen",
    "families.Family.graph": "families.gen",
    "families.count_complete": "families.formula",
    "families.count_complete_bipartite": "families.formula",
    "families.count_complete_multipartite": "families.formula",
    "families.count_ferrers": "families.formula",
    "families.count_threshold": "families.formula",
    "families.threshold_t": "families.formula",
    "families.conjugate_partition": "families.formula",
    "families.Family.formula_count": "families.formula",
    "kirchhoff.tau_reduced": "kirchhoff.post",
    "kirchhoff.tau_rank_one": "kirchhoff.post",
    "kirchhoff.tau_temperley": "kirchhoff.post",
    "kirchhoff.tau_bipartite_schur": "kirchhoff.post",
    "kirchhoff.s_matrix": "kirchhoff.s_matrix",
    "kirchhoff.find_bipartition": "kirchhoff.bipartition",
    "kirchhoff.check_bipartition": "kirchhoff.bipartition",
    "linalg.det_int": "linalg.det_int",
    "linalg.minor_matrix": "linalg.assemble",
    "linalg.add_outer_product": "linalg.assemble",
    "linalg.det_rat": "linalg.det_rat",
    "oracle.tau_subsets": "oracle.subsets",
    "oracle.tau_delcon": "oracle.delcon",
    "oracle.Multigraph.from_graph": "oracle.delcon",
}


class Span:
    __slots__ = ("key", "bucket", "parent", "op", "start", "end")

    def __init__(self, key, bucket, parent, op, start):
        self.key, self.bucket, self.parent, self.op, self.start = key, bucket, parent, op, start
        self.end = start


class Tracer:
    """Spans of one traced run, kept in memory, plus the counts the wrappers
    observe: det_int matrix orders and result bits, and edge-list bytes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = 0
        self.det_order_sum = 0
        self.det_bits_max = 0
        self.edgelist_bytes = 0

    def wrap(self, fn, key: str, bucket: str):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(key, bucket, stack[-1] if stack else -1, self.op, perf_counter_ns()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index].end = perf_counter_ns()
                stack.pop()
            self.observe(key, args, result)
            return result

        return traced

    def observe(self, key: str, args, result) -> None:
        if key == "linalg.det_int":
            self.det_order_sum += len(args[0])
            self.det_bits_max = max(self.det_bits_max, abs(result).bit_length())
        elif key == "edgelist.parse_edgelist":
            self.edgelist_bytes += len(args[0])

    def self_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def bucket_ms(self) -> dict[str, float]:
        totals = defaultdict(float)
        for span, ns in zip(self.spans, self.self_ns()):
            totals[span.bucket] += ns / 1e6
        return totals

    def op_self_ms(self) -> dict[int, float]:
        """Summed self time of all spans of each operation."""
        totals = defaultdict(float)
        for span, ns in zip(self.spans, self.self_ns()):
            totals[span.op] += ns / 1e6
        return totals

    def calls(self) -> Counter:
        return Counter(span.key for span in self.spans)


def _resolve(path: str):
    module, *owners, attr = path.split(".")
    owner = importlib.import_module(f"treecount.{module}")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Wrap every function in WRAPPED for the duration of the block."""
    originals = []
    try:
        for path, bucket in WRAPPED.items():
            owner, attr = _resolve(path)
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(original.__func__, path, bucket)))
            else:
                setattr(owner, attr, tracer.wrap(original, path, bucket))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
