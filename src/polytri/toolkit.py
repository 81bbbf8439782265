"""Benchmark harness: run solver grids, collect counters, read/write CSV.

Instances derive from one top-level seed via child_seed(seed, n, trial),
so any single (n, trial) cell can be regenerated without replaying the
grid. All solvers run on identical polygons per cell and their optima are
cross-checked; disagreement is a solver bug and raises immediately.
"""

from __future__ import annotations

import csv
import math
import sys
import time
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .baselines import solve_dp_cubic
from .bst_solver import solve_bst
from .core import TriangleWeightFn
from .generators import gen_random, gen_staircase
from .heuristic import heuristic_triangulate
from .yao_solver import solve_yao

__all__ = [
    "BenchRecord",
    "CSV_COLUMNS",
    "child_seed",
    "growth_summary",
    "read_csv",
    "run_bench",
    "write_csv",
]

CSV_COLUMNS = (
    "n",
    "trial",
    "algo",
    "weight_fn",
    "memo",
    "visited_cones",
    "total_cones",
    "elapsed_ns",
    "optimal_weight",
)

# past these sizes the slow algorithms stop being useful data points
DP3_CAP = 1500
YAO_CAP = 20000


@dataclass(frozen=True)
class BenchRecord:
    """One solver run on one instance; maps 1:1 onto a CSV row."""

    n: int
    trial: int
    algo: str
    weight_fn: str
    memo: str
    visited_cones: int
    total_cones: int
    elapsed_ns: int
    optimal_weight: int

    def to_row(self) -> list[str]:
        return [str(getattr(self, col)) for col in CSV_COLUMNS]

    @classmethod
    def from_row(cls, row: Sequence[str]) -> "BenchRecord":
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"bench row has {len(row)} fields, wanted {len(CSV_COLUMNS)}")
        return cls(
            n=int(row[0]),
            trial=int(row[1]),
            algo=row[2],
            weight_fn=row[3],
            memo=row[4],
            visited_cones=int(row[5]),
            total_cones=int(row[6]),
            elapsed_ns=int(row[7]),
            optimal_weight=int(row[8]),
        )


def child_seed(seed: int, n: int, trial: int) -> int:
    """Per-cell seed; 1_000_003 is prime so cells cannot collide for sane
    grids."""
    return (seed * 1_000_003 + n) * 1_000_003 + trial


def _run_one(poly, n: int, trial: int, algo: str, f: TriangleWeightFn) -> BenchRecord:
    if algo == "bst":
        opt, _, st = solve_bst(poly, f)
        return BenchRecord(
            n, trial, algo, f.kind, st.backend, st.visited_cones, st.total_cones, st.elapsed_ns, opt
        )
    if algo == "yao":
        opt, _, st = solve_yao(poly, f)
        return BenchRecord(
            n, trial, algo, f.kind, st.backend, st.visited_cones, st.total_cones, st.elapsed_ns, opt
        )
    if algo == "dp3":
        t0 = time.perf_counter_ns()
        opt, _ = solve_dp_cubic(poly, f)
        elapsed = time.perf_counter_ns() - t0
        return BenchRecord(n, trial, algo, f.kind, "-", 0, 0, elapsed, opt)
    if algo == "heuristic":
        t0 = time.perf_counter_ns()
        tri, _ = heuristic_triangulate(poly)
        elapsed = time.perf_counter_ns() - t0
        return BenchRecord(n, trial, algo, f.kind, "-", 0, 0, elapsed, tri.weight)
    raise ValueError(f"unknown algorithm {algo!r}")


def run_bench(
    sizes: Iterable[int],
    trials: int,
    seed: int,
    algos: Sequence[str] = ("bst", "yao", "dp3"),
    kind: str = "random",
    f: TriangleWeightFn | None = None,
    report: IO[str] | None = None,
) -> list[BenchRecord]:
    """Run each algorithm on each (size, trial) instance; return the records.

    kind is "random" or "staircase" (staircase ignores trial variation:
    the instance is determined by n, which must be even). The default
    weight function is additive so the heuristic can join the grid. Cells
    skipped by the size caps (DP3_CAP, YAO_CAP) are reported as comment
    lines on the report stream (stderr by default) and produce no record.
    Exact-weight agreement between the exact solvers in a cell is asserted.
    """
    f = f or TriangleWeightFn.additive()
    out = report if report is not None else sys.stderr
    records: list[BenchRecord] = []
    for n in sizes:
        for trial in range(trials):
            if kind == "random":
                poly = gen_random(n, child_seed(seed, n, trial))
            elif kind == "staircase":
                if n % 2:
                    print(f"# skip n={n} reason=staircase-needs-even-n", file=out)
                    break
                poly = gen_staircase(n // 2)
            else:
                raise ValueError(f"unknown instance kind {kind!r}")
            exact: dict[str, int] = {}
            for algo in algos:
                if algo == "dp3" and n > DP3_CAP:
                    print(f"# skip n={n} trial={trial} algo=dp3 reason=cap={DP3_CAP}", file=out)
                    continue
                if algo == "yao" and n > YAO_CAP:
                    print(f"# skip n={n} trial={trial} algo=yao reason=cap={YAO_CAP}", file=out)
                    continue
                if algo == "heuristic" and f.kind != "add":
                    print(
                        f"# skip n={n} trial={trial} algo=heuristic reason=weight-fn={f.kind}",
                        file=out,
                    )
                    continue
                rec = _run_one(poly, n, trial, algo, f)
                records.append(rec)
                if algo in ("bst", "yao", "dp3"):
                    exact[algo] = rec.optimal_weight
            if len(set(exact.values())) > 1:
                raise RuntimeError(f"solver disagreement at n={n} trial={trial}: {exact}")
    return records


def write_csv(records: Iterable[BenchRecord], path_or_file: str | IO[str]) -> None:
    def _write(fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.to_row())

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", newline="") as fh:
            _write(fh)
    else:
        _write(path_or_file)


def read_csv(path_or_file: str | IO[str]) -> list[BenchRecord]:
    def _read(fh: IO[str]) -> list[BenchRecord]:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != CSV_COLUMNS:
            raise ValueError(f"missing or malformed bench CSV header: {header}")
        return [BenchRecord.from_row(row) for row in reader if row]

    if isinstance(path_or_file, str):
        with open(path_or_file, newline="") as fh:
            return _read(fh)
    return _read(path_or_file)


def growth_summary(records: Iterable[BenchRecord]) -> dict[str, list[dict[str, float]]]:
    """Mean visited-cone counts per (algo, n) with normalized columns.

    For each algorithm: one row per size with mean_visited and that mean
    divided by n*log2(n) and by n**2, the two growth laws worth comparing
    against. Requires at least two sizes per algorithm spanning a decade
    (max >= 10 * min), otherwise the summary would suggest asymptotics the
    data cannot support.
    """
    by_algo: dict[str, dict[int, list[int]]] = {}
    for rec in records:
        by_algo.setdefault(rec.algo, {}).setdefault(rec.n, []).append(rec.visited_cones)
    out: dict[str, list[dict[str, float]]] = {}
    for algo, per_n in by_algo.items():
        ns = sorted(per_n)
        if len(ns) < 2 or ns[-1] < 10 * ns[0]:
            raise ValueError(
                f"growth summary for {algo!r} needs sizes spanning a decade, got {ns}"
            )
        rows = []
        for n in ns:
            vals = per_n[n]
            mean = sum(vals) / len(vals)
            rows.append(
                {
                    "n": float(n),
                    "mean_visited": mean,
                    "per_n_log2_n": mean / (n * math.log2(n)),
                    "per_n2": mean / (n * n),
                }
            )
        out[algo] = rows
    return out
