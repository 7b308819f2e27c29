"""The README's claim that the library is safe to use from multiple threads:
every counting method, run concurrently on distinct small inputs, returns
what it returns serially, and leaves the interpreter-wide state (recursion
limit, int-to-str digit limit, random module state) and the decimal context
as it found them."""

import decimal
import random
import sys
from concurrent.futures import ThreadPoolExecutor

from treecount import cli, parse_family

from conftest import random_connected_graph

# (spec, whether the family's graphs are bipartite); all have at most 8 vertices
FAMILY_SPECS = [
    ("complete:6", False),
    ("complete:8", False),
    ("bipartite:3,5", True),
    ("bipartite:2,4", True),
    ("multipartite:1,2,3", False),
    ("ferrers:3,2,1", True),
    ("ferrers:4,4,2", True),
    ("threshold:ididd", False),
]


def decimal_state():
    ctx = decimal.getcontext()
    return ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax, ctx.capitals, ctx.clamp, dict(ctx.flags), dict(ctx.traps)


def global_state():
    int_digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    return sys.getrecursionlimit(), int_digits, decimal_state(), random.getstate()


def jobs():
    """(method, graph, family) for every method: family inputs for all of
    them (schur only on bipartite ones), and a distinct random connected
    graph on 2-8 vertices per method and size for those that take any
    graph."""
    result = []
    for spec, bipartite in FAMILY_SPECS:
        fam = parse_family(spec)
        for method in cli.METHODS:
            if method != "schur" or bipartite:
                result.append((method, fam.graph(), fam))
    rng = random.Random(23)
    for method in cli.METHODS:
        if method not in ("schur", "formula"):
            for n in range(2, 9):
                result.append((method, random_connected_graph(rng, n), None))
    return result


def run_job(job):
    """The job's count, checking that the method leaves this thread's
    decimal context as it found it."""
    method, g, fam = job
    before = decimal_state()
    value = cli.METHODS[method](g, fam)
    assert decimal_state() == before, method
    return value


def test_methods_from_four_threads_match_serial_and_leave_global_state():
    work = jobs()
    assert {method for method, _, _ in work} == set(cli.METHODS)
    before = global_state()
    serial = [run_job(job) for job in work]
    for seed in range(3):
        order = list(range(len(work)))
        random.Random(seed).shuffle(order)
        with ThreadPoolExecutor(max_workers=4) as pool:
            values = list(pool.map(run_job, [work[i] for i in order]))
        assert values == [serial[i] for i in order]
    assert global_state() == before
