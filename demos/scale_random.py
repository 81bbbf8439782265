"""Random polygons from n = 10^3 up: each layer's time and how it grows.

Paper contribution 5 claims that on random weights the branching search
takes Theta(n log n) while the bottom-up sweep pays the Theta(n^2) cone
census. Each size runs in a fresh interpreter (so its peak RSS is its own)
and solves gen_random(n, seed) under additive weights, the way solve_bst
does at this size, one layer at a time:

    Polygon        rank the weights (from a tuple of Python ints)
    bridges        find_bridges_linear, the bridge table and the census
    search         the BST sweep over the visited cones
    walk           the sweep's witness walk
    Triangulation  the witness's edge set

It prints each layer's milliseconds, peak RSS, visited/(n log2 n) and
census/n^2, then the growth exponent of each column: the least-squares
slope of log(value) on log(n) over the sizes run. A time exponent near 1
is linear work, near 2 quadratic. The fit reads only this host's numbers;
it neither confirms nor denies the claim beyond them.

    python demos/scale_random.py           # n = 10^3, 10^4, 10^5
    python demos/scale_random.py --full    # and 10^6 (about 1.2 GB, 10 s)
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time

from polytri import Polygon, TriangleWeightFn, Triangulation, find_bridges_linear, gen_random
from polytri.bst_solver import _sweep
from polytri.core import triangulation_weight

COLUMNS = ("Polygon", "bridges", "search", "walk", "Triangulation", "rss_mb", "visited/nlogn", "census/n2")


def one(n: int, seed: int) -> dict:
    """Time each layer of one sweep solve at size n; checks the witness after the timing."""
    f = TriangleWeightFn.additive()
    weights = gen_random(n, seed).weights
    clock = time.perf_counter
    t0 = clock()
    poly = Polygon(weights)
    t1 = clock()
    table = find_bridges_linear(poly)
    census = table.total_cones()
    t2 = clock()
    swept = _sweep(poly, table, f)
    if swept is None or len(swept) != 5:
        raise SystemExit(f"n={n}: solve_bst would not take the sweep here")
    visited, _, _, _, walk = swept
    t3 = clock()
    opt, rows = walk()
    t4 = clock()
    tri = Triangulation(zip(*rows.T.tolist()), opt)
    t5 = clock()
    assert triangulation_weight(poly, tri, f) == opt
    return {
        "Polygon": (t1 - t0) * 1e3,
        "bridges": (t2 - t1) * 1e3,
        "search": (t3 - t2) * 1e3,
        "walk": (t4 - t3) * 1e3,
        "Triangulation": (t5 - t4) * 1e3,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "visited/nlogn": visited / (n * math.log2(n)),
        "census/n2": census / n**2,
    }


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="also run n = 10^6")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child: one size, JSON out
    args = parser.parse_args()
    if args.one:
        print(json.dumps(one(args.one, args.seed)))
        return
    sizes = [10**3, 10**4, 10**5] + ([10**6] if args.full else [])
    print(f"random weights in [1, 10^6], additive, seed {args.seed}; times in ms, one fresh process per n")
    print(f"{'n':>8} " + " ".join(f"{c:>13}" for c in COLUMNS))
    rows = []
    for n in sizes:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(n), "--seed", str(args.seed)],
            capture_output=True, text=True, check=True,
        )
        rows.append(json.loads(out.stdout))
        print(f"{n:>8} " + " ".join(f"{rows[-1][c]:>13.4g}" for c in COLUMNS))
    print(f"{'exponent':>8} " + " ".join(f"{slope(sizes, [r[c] for r in rows]):>13.2f}" for c in COLUMNS))


if __name__ == "__main__":
    main()
