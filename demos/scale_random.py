"""Random polygons from n = 10^3 up: each layer's time and how it grows.

Paper contribution 5 claims that on random weights the branching search
takes Theta(n log n) while the bottom-up sweep pays the Theta(n^2) cone
census. Each size runs in a fresh interpreter (so its peak RSS is its own)
and solves gen_random(n, seed, 1, hi) under additive weights, the way
solve_bst does at this size, one layer at a time:

    Polygon        rank the weights (from a tuple of Python ints)
    bridges        find_bridges_linear, the bridge table and the census
    pass1          the BST sweep's layout of the visited cones and its proof
    pass2          the sweep's valuing of every laid-out cone
    walk           the sweep's witness walk
    Triangulation  the witness (the sweep's rows, kept as they are)
    check          validate_triangulation and triangulation_weight on it

Weights in [1, 10] tie so often that the cone graph is about n levels deep,
and solve_bst takes the loop instead (engine "loop"): pass1 is then the
sweep's count that hands over, pass2 the loop's search and walk
reconstruct_triangulation. Each weight range prints each layer's
milliseconds, peak RSS, visited/(n log2 n) and census/n^2, and with
--trace the tracemalloc peak of the search (pass1 and pass2, run again
after the timing), then the growth exponent of each column: the
least-squares slope of log(value) on log(n) over the sizes run. A time
exponent near 1 is linear work, near 2 quadratic. The fit reads only this
host's numbers; it neither confirms nor denies the claim beyond them.

    python demos/scale_random.py           # n = 10^3, 10^4, 10^5
    python demos/scale_random.py --full    # and 10^6 (about 1.2 GB; [1, 10] takes about a minute there)
    python demos/scale_random.py --trace   # and the search's tracemalloc peak
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
import tracemalloc

from polytri import Polygon, TriangleWeightFn, Triangulation, find_bridges_linear, gen_random
from polytri import bst_solver
from polytri.core import triangulation_weight, validate_triangulation

COLUMNS = ("Polygon", "bridges", "pass1", "pass2", "walk", "Triangulation", "check", "rss_mb", "visited/nlogn", "census/n2")
RANGES = (10, 10**6, 10**12)  # the largest weight of each range; the least is 1


def search(poly: Polygon, table, f: TriangleWeightFn) -> tuple:
    """The sweep, or the loop where solve_bst takes it: (engine, visited, seconds of pass 1, walk)."""
    clock, stamp = time.perf_counter, []
    check = bst_solver._check_layout

    def checked(*args):
        check(*args)
        stamp.append(clock())  # pass 1 ends with the layout's proof

    bst_solver._check_layout = checked
    try:
        t0 = clock()
        swept = bst_solver._sweep(poly, table, f)
    finally:
        bst_solver._check_layout = check
    if swept is not None and len(swept) == 5:
        return "sweep", swept[0], stamp[0] - t0, swept[4]
    if swept is not None:
        raise SystemExit(f"n={poly.n}: solve_bst would take Yao's rows here")
    t1 = clock()
    memo: dict = {}
    visited, _ = bst_solver._search(poly, table, f, memo)
    return "loop", visited, t1 - t0, lambda: bst_solver.reconstruct_triangulation(poly, table, f, memo.__getitem__)


def one(n: int, seed: int, hi: int, trace: bool) -> dict:
    """Time each layer of one solve at size n, then the check of its witness."""
    f = TriangleWeightFn.additive()
    weights = gen_random(n, seed, 1, hi).weights
    clock = time.perf_counter
    t0 = clock()
    poly = Polygon(weights)
    t1 = clock()
    table = find_bridges_linear(poly)
    census = table.total_cones()
    t2 = clock()
    engine, visited, pass1, walk = search(poly, table, f)
    t3 = clock()
    opt, rows = walk()
    t4 = clock()
    tri = Triangulation(rows, opt)
    t5 = clock()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # the solve's peak, before the check
    if not (validate_triangulation(poly, tri).ok and triangulation_weight(poly, tri, f) == opt):
        raise SystemExit(f"n={n}: the witness does not check")
    t6 = clock()
    out = {
        "engine": engine,
        "Polygon": (t1 - t0) * 1e3,
        "bridges": (t2 - t1) * 1e3,
        "pass1": pass1 * 1e3,
        "pass2": (t3 - t2 - pass1) * 1e3,
        "walk": (t4 - t3) * 1e3,
        "Triangulation": (t5 - t4) * 1e3,
        "check": (t6 - t5) * 1e3,
        "rss_mb": rss,
        "visited/nlogn": visited / (n * math.log2(n)),
        "census/n2": census / n**2,
    }
    if trace:
        del walk, rows, tri
        tracemalloc.start()
        search(poly, table, f)
        out["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return out


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true", help="also run n = 10^6")
    parser.add_argument("--trace", action="store_true", help="add the search's tracemalloc peak (a second run)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # a child: one size, JSON out
    parser.add_argument("--hi", type=int, default=10**6, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(one(args.one, args.seed, args.hi, args.trace)))
        return
    sizes = [10**3, 10**4, 10**5] + ([10**6] if args.full else [])
    columns = COLUMNS + (("peak_mb",) if args.trace else ())
    for hi in RANGES:
        label = f"[1, 10^{round(math.log10(hi))}]"
        print(f"random weights in {label}, additive, seed {args.seed}; times in ms, one fresh process per n")
        print(f"{'n':>8} {'engine':>6} " + " ".join(f"{c:>13}" for c in columns))
        rows = []
        for n in sizes:
            cmd = [sys.executable, __file__, "--one", str(n), "--seed", str(args.seed), "--hi", str(hi)]
            out = subprocess.run(cmd + ["--trace"] * args.trace, capture_output=True, text=True, check=True)
            rows.append(json.loads(out.stdout))
            print(f"{n:>8} {rows[-1]['engine']:>6} " + " ".join(f"{rows[-1][c]:>13.4g}" for c in columns))
        fits = [slope(sizes, [r[c] for r in rows]) for c in columns]
        print(f"{'exponent':>15} " + " ".join(f"{e:>13.2f}" for e in fits) + "\n")


if __name__ == "__main__":
    main()
