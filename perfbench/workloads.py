"""The four benchmark workloads, each with the reason it exists.

A workload builds its inputs in ``setup`` from the seed alone (through
``polytri.generators`` and ``toolkit.child_seed``), checks its weight
functions, and warms up on a small input. ``items`` is the op input pool;
the timed loop walks it in order, cycling, and only stops at a multiple
of ``block`` ops, so every run holds whole blocks and therefore the same
mix of input sizes whatever the seed. ``op`` runs one op and returns an
Outcome whose checks ran inside the op, plus optional ``deferred`` checks
that the loop runs after the op's timing.

The functions the ops call into the library are bound here at module
level, so the traced run can wrap these bindings without touching the
library's own.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from checks import check_solutions
from polytri.baselines import solve_dp_cubic
from polytri.bst_solver import solve_bst
from polytri.cli import main as cli_main
from polytri.core import Polygon, TriangleWeightFn, int64_safe, triangulation_weight
from polytri.generators import gen_random, gen_random_chain, gen_staircase
from polytri.matrix_chain import format_chain, parenthesization_cost
from polytri.toolkit import child_seed
from polytri.yao_solver import solve_yao

# Seeds for baselines and for later claims: a gain is measured on
# BASELINE_SEEDS while the change is written and must then also hold on
# HELD_OUT_SEED, which no one tunes against.
BASELINE_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 7919


@dataclass
class Outcome:
    record: dict
    reasons: list[str] = field(default_factory=list)
    deferred: Callable[[], list[str]] | None = None


def _weight_fns() -> dict[str, TriangleWeightFn]:
    fns = {
        "mult": TriangleWeightFn.multiplicative(),
        "add": TriangleWeightFn.additive(),
        "custom": TriangleWeightFn.product_plus_sum(),
    }
    for f in fns.values():
        f.ensure_monotonic()
    return fns


class VerifyMix:
    """Criterion 1's cross-solver traffic at one tenth.

    Inputs: random n in 4..50 plus 100 and 200, ten trials each, weights in
    [1, 10**5] (int64-safe at every size), times the mult, add and custom
    weight functions: 1470 cells, one block per trial. Op: one (polygon, f)
    cell - build the Polygon, run solve_dp_cubic, solve_yao and solve_bst
    with the hash and the dense memo, then validate and re-weigh all four
    results.

    Why: per-call overhead and the small-n engines dominate. One pass
    measured about 12.3 s on a 2-core host: dp3 56%, yao 21%, bst 14%,
    validate and re-weigh 8%, p50 4.0 ms and p99 143 ms. The bridge finder
    and the big-n search barely appear.
    """

    name = "verify-mix"
    tail_pct = 99
    sizes = (*range(4, 51), 100, 200)
    trials = 10
    block = len(sizes) * 3

    def setup(self, seed: int, scratch: Path) -> None:
        self.fns = _weight_fns()
        self.items = []
        for trial in range(self.trials):
            for n in self.sizes:
                poly = gen_random(n, child_seed(seed, n, trial), hi=10**5)
                for fname, f in self.fns.items():
                    if not int64_safe(poly, f):
                        raise RuntimeError(f"verify-mix cell n={n} f={fname} is not int64-safe")
                    self.items.append((fname, poly.weights))
        warm = gen_random(100, child_seed(seed, 100, -1), hi=10**5).weights
        for fname in self.fns:
            _require_clean(self.op((fname, warm)), "verify-mix warm-up")

    def op(self, item: tuple[str, tuple[int, ...]]) -> Outcome:
        fname, weights = item
        f = self.fns[fname]
        poly = Polygon(weights)
        dp_opt, dp_tri = solve_dp_cubic(poly, f)
        yao_opt, yao_tri, _ = solve_yao(poly, f)
        hash_opt, hash_tri, hs = solve_bst(poly, f, backend="hash")
        dense_opt, dense_tri, ds = solve_bst(poly, f, backend="dense")
        solutions = [
            ("dp3", dp_opt, dp_tri.edges),
            ("yao", yao_opt, yao_tri.edges),
            ("bst-hash", hash_opt, hash_tri.edges),
            ("bst-dense", dense_opt, dense_tri.edges),
        ]
        reasons = check_solutions(poly, solutions, lambda e: triangulation_weight(poly, e, f))
        record = {
            "weights": [dp_opt, yao_opt, hash_opt, dense_opt],
            "bst_stats": [hs.visited_cones, hs.memo_hits, ds.visited_cones, ds.memo_hits, hs.total_cones],
        }
        return Outcome(record, reasons)


class _LargeSolve:
    """Shared op: Polygon + solve_bst(hash), checked after the op's timing."""

    block = 1
    tail_pct = 100  # a run holds a handful of ops, too few for any percentile

    def op(self, weights: tuple[int, ...]) -> Outcome:
        poly = Polygon(weights)
        opt, tri, st = solve_bst(poly, self.f, backend="hash")
        record = {"weights": [opt], "bst_stats": [st.visited_cones, st.memo_hits, st.total_cones]}
        return Outcome(record, deferred=lambda: self.check(poly, opt, tri.edges))

    def check(self, poly: Polygon, opt: int, edges: Any) -> list[str]:
        return check_solutions(
            poly, [("bst", opt, edges)], lambda e: triangulation_weight(poly, e, self.f)
        )


class RandomLarge(_LargeSolve):
    """Criterion 8's desk-scale solve.

    Inputs: three random polygons with n = 10**5, weights in [1, 10**6],
    additive weights. Op: Polygon(weights) + solve_bst(backend="hash");
    validation and re-weighing run after each op, outside its timing.

    Why: bst search is about 70% of the op, reconstruction 20%, bridges 7%
    and Polygon 3% (5.35 s solve + 0.15 s polygon on a 2-core host). dp3,
    yao and the dense memo do no work here, so a change to them must read
    "no change" on this workload.
    """

    name = "random-large"
    n = 10**5
    pool = 3

    def setup(self, seed: int, scratch: Path) -> None:
        self.f = TriangleWeightFn.additive()
        self.f.ensure_monotonic()
        self.items = [gen_random(self.n, child_seed(seed, self.n, t)).weights for t in range(self.pool)]
        warm = self.op(gen_random(2000, child_seed(seed, 2000, -1)).weights)
        _require_clean(warm, "random-large warm-up")


class Staircase(_LargeSolve):
    """BST's worst case.

    Inputs: gen_staircase(1000) (n = 2000), additive weights, rotated by a
    seed-chosen offset per pool entry; rotation relabels the nodes and
    leaves every count unchanged. Op: Polygon + solve_bst(backend="hash").
    After the op's timing the result is validated, re-weighed and compared
    with solve_yao's optimum, so yao work shows in this workload's traced
    check spans, never in its op time.

    Why: BST visits 1,995,004 of 1,997,001 cones and the memo holds about
    2*10**6 entries (4.3 s per op on a 2-core host). Census-aware dispatch
    or lazy apex rows must show here, while random-large shows they cost
    nothing.
    """

    name = "staircase"
    half_n = 1000
    pool = 4

    def setup(self, seed: int, scratch: Path) -> None:
        self.f = TriangleWeightFn.additive()
        self.f.ensure_monotonic()
        self.items = [
            _rotate(gen_staircase(self.half_n).weights, child_seed(seed, 2 * self.half_n, t))
            for t in range(self.pool)
        ]
        warm = self.op(_rotate(gen_staircase(50).weights, child_seed(seed, 100, -1)))
        _require_clean(warm, "staircase warm-up")

    def check(self, poly: Polygon, opt: int, edges: Any) -> list[str]:
        yao_opt, yao_tri, _ = solve_yao(poly, self.f)
        return check_solutions(
            poly,
            [("bst", opt, edges), ("yao", yao_opt, yao_tri.edges)],
            lambda e: triangulation_weight(poly, e, self.f),
        )


class ChainCli:
    """The matrix-chain case, end to end through the CLI, on exact integers.

    Inputs: random chains of 100, 110, ..., 200 matrices (one block), eight
    trials, dims in [1, 10**6], so int64_safe is false and every solver
    takes its bignum engine. Chain files are written during set-up. Op:
    three in-process ``polytri.cli.main(["solve", "--mode", "chain",
    "--weight", "mult", "--emit-edges", "--algo", A, "--input", path])``
    calls with A in bst, yao, dp3; the op parses the key=value output,
    checks that the optima agree, that each edge set is a triangulation
    and that parenthesization_cost(chain, edges) equals the optimum.

    Why: the same solvers as verify-mix but on the exact fallbacks
    (dp3-python dominates, yao-scalar second); the only workload that runs
    cli and matrix_chain. A fast-path change that slows or breaks the exact
    path shows here.
    """

    name = "chain-cli"
    tail_pct = 75
    sizes = tuple(range(100, 201, 10))
    trials = 8
    block = len(sizes)
    algos = ("bst", "yao", "dp3")

    def setup(self, seed: int, scratch: Path) -> None:
        f = TriangleWeightFn.multiplicative()
        f.ensure_monotonic()
        chain_dir = scratch / f"chains-seed{seed}"
        chain_dir.mkdir(parents=True, exist_ok=True)
        self.items = [
            self._write_chain(chain_dir, m, seed, trial) for trial in range(self.trials) for m in self.sizes
        ]
        for _, _, poly in self.items:
            if int64_safe(poly, f):
                raise RuntimeError(f"chain of {poly.n - 1} matrices is int64-safe; wanted bignums")
        _require_clean(self.op(self._write_chain(chain_dir, 20, seed, -1)), "chain-cli warm-up")

    @staticmethod
    def _write_chain(chain_dir: Path, m: int, seed: int, trial: int) -> tuple[str, Any, Polygon]:
        chain = gen_random_chain(m, child_seed(seed, m, trial), lo=1, hi=10**6)
        path = chain_dir / f"m{m}-t{trial}.txt"
        path.write_text(format_chain(chain))
        return str(path), chain, Polygon(chain.dims)

    def op(self, item: tuple[str, Any, Polygon]) -> Outcome:
        path, chain, poly = item
        out = {}
        for algo in self.algos:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli_main(
                    ["solve", "--mode", "chain", "--weight", "mult", "--emit-edges",
                     "--algo", algo, "--input", path]
                )
            if rc != 0:
                raise RuntimeError(f"polytri solve --algo {algo} exited {rc}")
            out[algo] = dict(line.split("=", 1) for line in buf.getvalue().splitlines())
        solutions = [
            (algo, int(kv["optimal_weight"]), _parse_edges(kv["edges"])) for algo, kv in out.items()
        ]
        reasons = check_solutions(poly, solutions, lambda e: parenthesization_cost(chain, e))
        bst = out["bst"]
        record = {
            "weights": [w for _, w, _ in solutions],
            "bst_stats": [int(bst["visited_cones"]), int(bst["memo_hits"]), int(bst["total_cones"])],
        }
        return Outcome(record, reasons)


WORKLOADS = {wl.name: wl for wl in (VerifyMix, RandomLarge, Staircase, ChainCli)}


def _rotate(weights: tuple[int, ...], seed: int) -> tuple[int, ...]:
    r = random.Random(seed).randrange(len(weights))
    return weights[r:] + weights[:r]


def _parse_edges(text: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in tok.split("-")) for tok in text.split()]


def _require_clean(outcome: Outcome, what: str) -> None:
    reasons = outcome.reasons + (outcome.deferred() if outcome.deferred else [])
    if reasons:
        raise RuntimeError(f"{what} failed its checks: {reasons}")
