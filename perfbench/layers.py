"""The traced run: which bindings it wraps and how spans become layer metrics.

Two kinds of binding are wrapped. The benchmark's own calls into the
library are wrapped at the names ``workloads`` and ``checks`` imported.
Calls the library's modules make into one another are wrapped at the
calling module's binding (``polytri.bst_solver.find_bridges_linear`` is
the finder as bst_solver sees it), so a span names the layer being
entered and its parent names the layer that entered it.

Per-layer times and counts are per traced op: a total over the traced
ops' spans divided by the number of ops. The exceptions are the ratios
and ``core.monotonic_check_ms``, the ensure_monotonic time of one set-up.
The checks a workload runs after an op's timing (spans under a ``check``
root) count only toward the layers that exist to check, CHECK_LAYERS, so
staircase's yao cross-check adds nothing to ``bridges.*`` or
``yao_solver.*``. ``*_ms`` metrics are self times unless said otherwise;
counts come from the solvers' return values and the bridge tables, never
from timing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

import polytri.bst_solver as bst_solver
import polytri.cli as cli
import polytri.core as core
import polytri.yao_solver as yao_solver
from tracing import Span, Tracer

import checks
import workloads

BST = "bst_solver.solve_bst"
YAO = "yao_solver.solve_yao"
EXPAND = "bst_solver.expand_cone_calls"
EXACT_COUNTS = ("bridges.count", "bridges.census", "bst_solver.visited_cones",
                "bst_solver.memo_hits", EXPAND)
CHECK_LAYERS = ("core.validate", "core.reweigh")


def _solve_stats(span: Span, result: Any) -> None:
    st = result[2]
    span.attrs = {"backend": st.backend, "visited": st.visited_cones,
                  "hits": st.memo_hits, "census": st.total_cones}


def _table(span: Span, table: Any) -> None:
    # counted after the run, outside every timed interval
    span.attrs = {"table": table}


def register(tracer: Tracer) -> None:
    """Register every wrapper; ``tracer.install()`` then applies them."""
    # the benchmark's own calls into the library
    tracer.wrap(workloads, "Polygon", "core.polygon")
    tracer.wrap(checks, "validate_triangulation", "core.validate")
    tracer.wrap(workloads, "triangulation_weight", "core.reweigh")
    tracer.wrap(workloads, "solve_dp_cubic", "baselines.solve_dp_cubic")
    tracer.wrap(workloads, "solve_yao", YAO, _solve_stats)
    tracer.wrap(workloads, "solve_bst", BST, _solve_stats)
    tracer.wrap(workloads, "cli_main", "cli.main")
    # the library's calls between its own layers
    tracer.wrap(core.TriangleWeightFn, "ensure_monotonic", "core.monotonic_check")
    tracer.wrap(bst_solver, "find_bridges_linear", "bridges.find", _table)
    tracer.wrap(yao_solver, "find_bridges_linear", "bridges.find", _table)
    tracer.wrap(bst_solver, "reconstruct_triangulation", "bst_solver.reconstruct")
    tracer.wrap(yao_solver, "reconstruct_triangulation", "yao_solver.reconstruct")
    tracer.wrap(cli, "solve_dp_cubic", "baselines.solve_dp_cubic")
    tracer.wrap(cli, "solve_yao", YAO, _solve_stats)
    tracer.wrap(cli, "solve_bst", BST, _solve_stats)
    tracer.wrap(cli, "chain_to_polygon", "matrix_chain.map")
    tracer.wrap(cli, "triangulation_to_parenthesization", "matrix_chain.map")
    # once per cone: a count, no span
    tracer.count(bst_solver, "expand_cone", EXPAND, inside=BST)


def in_rollup(spans: list[Span]) -> list[bool]:
    """Per span: whether it counts toward its layer's metrics."""
    root: list[int] = []
    for i, sp in enumerate(spans):
        root.append(i if sp.parent < 0 else root[sp.parent])
    return [spans[r].name != "check" or sp.name in CHECK_LAYERS for sp, r in zip(spans, root)]


def count_tables(spans: list[Span]) -> None:
    """Replace each stashed bridge table by its bridge count and census."""
    for sp in spans:
        if sp.attrs and "table" in sp.attrs:
            table = sp.attrs.pop("table")
            sp.attrs.update(count=len(table), census=table.total_cones())


def exact_counts(spans: list[Span], counts: dict) -> dict[Any, dict[str, int]]:
    """Per op id: the exact counts that must repeat bit for bit per seed."""
    out: dict[Any, dict[str, int]] = defaultdict(lambda: dict.fromkeys(EXACT_COUNTS, 0))
    for sp, keep in zip(spans, in_rollup(spans)):
        if not keep or not sp.attrs:  # a call that raised leaves no result to count
            continue
        c = out[sp.op]
        if sp.name == "bridges.find":
            c["bridges.count"] += sp.attrs["count"]
            c["bridges.census"] += sp.attrs["census"]
        elif sp.name == BST:
            c["bst_solver.visited_cones"] += sp.attrs["visited"]
            c["bst_solver.memo_hits"] += sp.attrs["hits"]
    for (op, name), k in counts.items():
        out[op][name] += k
    return out


def layer_metrics(
    spans: list[Span], selfs: list[int], per_op: dict[Any, dict[str, int]], ops: list
) -> dict[str, float]:
    """Every per-layer metric except the two the runner adds.

    per_op is ``exact_counts``'s result; ops are the traced op ids.
    """
    wanted = set(ops)
    k = len(ops)
    self_ns: dict[str, int] = defaultdict(int)
    bst_ns = {"hash": 0, "dense": 0}
    bst_census = yao_calls = yao_vector = setup_check_ns = 0
    for sp, s, keep in zip(spans, selfs, in_rollup(spans)):
        if sp.op == "setup" and sp.name == "core.monotonic_check":
            setup_check_ns += sp.duration
        if sp.op not in wanted or not keep:
            continue
        self_ns[sp.name] += s
        if not sp.attrs:
            continue
        if sp.name == BST:
            bst_ns[sp.attrs["backend"]] += sp.duration
            bst_census += sp.attrs["census"]
        elif sp.name == YAO:
            yao_calls += 1
            yao_vector += sp.attrs["backend"] == "vector"
    total = {name: sum(per_op[op][name] for op in ops) for name in EXACT_COUNTS}
    visited, hits = total["bst_solver.visited_cones"], total["bst_solver.memo_hits"]

    def ms(name: str) -> float:
        return self_ns[name] / 1e6 / k

    return {
        "core.polygon_ms": ms("core.polygon"),
        "core.validate_ms": ms("core.validate"),
        "core.reweigh_ms": ms("core.reweigh"),
        "core.monotonic_check_ms": setup_check_ns / 1e6,
        "bridges.find_ms": ms("bridges.find"),
        "bridges.count": total["bridges.count"] / k,
        "bridges.census": total["bridges.census"] / k,
        "bst_solver.search_ms": ms(BST),
        "bst_solver.reconstruct_ms": ms("bst_solver.reconstruct"),
        "bst_solver.hash_ms": bst_ns["hash"] / 1e6 / k,
        "bst_solver.dense_ms": bst_ns["dense"] / 1e6 / k,
        "bst_solver.visited_cones": visited / k,
        "bst_solver.memo_hits": hits / k,
        "bst_solver.visited_frac": visited / bst_census if bst_census else 0.0,
        "bst_solver.hit_frac": hits / (hits + visited) if hits + visited else 0.0,
        EXPAND: total[EXPAND] / k,
        "yao_solver.sweep_ms": ms(YAO),
        "yao_solver.reconstruct_ms": ms("yao_solver.reconstruct"),
        "yao_solver.vector_frac": yao_vector / yao_calls if yao_calls else 0.0,
        "baselines.dp3_ms": ms("baselines.solve_dp_cubic"),
        "matrix_chain.map_ms": ms("matrix_chain.map"),
        "cli.self_ms": ms("cli.main"),
    }
