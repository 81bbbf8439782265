"""Digest every exact solver's output over a fixed corpus, for refactor identity checks.

Run from the repository root, on two checkouts, and compare the lines:

    PYTHONPATH=src python tests/identity_digest.py

The corpus is test_bst_sweep's (300 random polygons from
``random.Random(2021)``, n 3..300, weights to 5, 100 and 10**4, and the
staircases h = 2, 3, 10, 50, 200) plus sorted, equal, zigzag and random
polygons of n = 3000, each under mult, add and custom (xyz + x + y + z).
Each part solves it one way and hashes, per solve, the optimum, the sorted
edges, visited_cones, memo_hits, total_cones, backend and engine:

- bst-auto: solve_bst as dispatched;
- loop: solve_bst with SWEEP_MIN_N patched high, so the loop runs;
- dense: solve_bst(backend="dense"), or its refusal message past DENSE_CAP;
- sweep: solve_bst with SWEEP_MIN_N, SWEEP_MIN_WIDTH and ROWS_FACTOR
  patched to 0;
- rows: solve_bst with SWEEP_MIN_N and SWEEP_MIN_WIDTH patched to 0 and
  ROWS_FACTOR high, so Yao's rows run wherever the layout counts a cell;
- yao-vector: solve_yao as called, so it runs ``vec``;
- yao-scalar: solve_yao on the weight function's fn_only twin (conftest),
  so it runs ``fn`` in object dtype;
- dp3-numpy, dp3-python: solve_dp_cubic the same two ways, on the polygons
  with n <= 300 only, hashing the optimum and the sorted edges.

The part "bridges" hashes both finders' tables as sorted (u, v, S) triples.
The script prints one sha256 (first 16 hex digits) per part and one over
all parts. pytest does not collect it (no ``test_`` prefix); it takes about
five minutes on a 2-core host, most of it in dp3-python.
"""

from __future__ import annotations

import hashlib
import random
import sys
from unittest import mock

from conftest import fn_only
from polytri import (
    Polygon,
    TriangleWeightFn,
    bst_solver,
    find_bridges_linear,
    find_bridges_walk,
    gen_random,
    gen_staircase,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
)

FNS = [
    TriangleWeightFn.multiplicative(),
    TriangleWeightFn.additive(),
    TriangleWeightFn.product_plus_sum(),
]


def corpus():
    rng = random.Random(2021)
    for i in range(300):
        n = rng.randint(3, 300)
        hi = (5, 100, 10**4)[i % 3]
        yield Polygon(tuple(rng.randint(1, hi) for _ in range(n)))
    for half_n in (2, 3, 10, 50, 200):
        yield gen_staircase(half_n)
    yield Polygon(tuple(range(1, 3001)))
    yield Polygon((7,) * 3000)
    yield Polygon(tuple((i % 2) * 3000 + i + 1 for i in range(3000)))
    yield gen_random(3000, 1)


DP3_MAX_N = 300


def outcome(solve, poly, f) -> str:
    try:
        opt, tri, *stats = solve(poly, f)
    except ValueError as exc:
        return f"refused: {exc}"
    row = [opt, sorted(tri.edges)]
    for st in stats:  # none from dp3
        row += [st.visited_cones, st.memo_hits, st.total_cones, st.backend, st.engine]
    return repr(tuple(row))


def forced(**cutoffs):
    """solve_bst with the module's dispatch cutoffs patched for the call."""

    def solve(poly, f):
        with mock.patch.multiple(bst_solver, **cutoffs):
            return solve_bst(poly, f)

    return solve


PARTS = {
    "bst-auto": solve_bst,
    "loop": forced(SWEEP_MIN_N=10**9),
    "dense": lambda poly, f: solve_bst(poly, f, backend="dense"),
    "sweep": forced(SWEEP_MIN_N=0, SWEEP_MIN_WIDTH=0, ROWS_FACTOR=0),
    "rows": forced(SWEEP_MIN_N=0, SWEEP_MIN_WIDTH=0, ROWS_FACTOR=10**9),
    "yao-scalar": lambda poly, f: solve_yao(poly, fn_only(f)),
    "yao-vector": solve_yao,
    "dp3-python": lambda poly, f: solve_dp_cubic(poly, fn_only(f)),
    "dp3-numpy": solve_dp_cubic,
}


def bridge_triples(table) -> str:
    return repr(sorted((u, v, x) for x, (u, v) in enumerate(zip(table.left, table.right)) if u >= 0))


def main() -> int:
    polys = list(corpus())
    hashes = {name: hashlib.sha256() for name in (*PARTS, "bridges")}
    for poly in polys:
        for f in FNS:
            for name, solve in PARTS.items():
                if name.startswith("dp3") and poly.n > DP3_MAX_N:
                    continue
                hashes[name].update(outcome(solve, poly, f).encode())
        for finder in (find_bridges_walk, find_bridges_linear):
            hashes["bridges"].update(bridge_triples(finder(poly)).encode())
    overall = hashlib.sha256()
    for name, h in hashes.items():
        digest = h.hexdigest()
        overall.update(digest.encode())
        print(f"{name:<11} {digest[:16]}")
    print(f"{'overall':<11} {overall.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
