"""The staircase family: where the branching search stops being lazy.

On random weights the branching solver visits a near-linear sliver of the
quadratic cone census (see benchmark_harness.py). Staircase polygons are
built so that adjacent nodes are adjacent in weight rank, which forces the
search to keep discovering new cones: visits grow as 2h^2 - 5h + 4 on
2h nodes, the same Theta(n^2) as the census (2h-2)(2h-1)/2 that the
bottom-up sweep always pays.

Each row also names the engine solve_bst ran and its time. From
SWEEP_MIN_N nodes on it is Yao's rank-prefix rows: the search visits all
but a sliver of the census, so valuing every cone, one numpy expression
per bridge, is cheaper than the numpy sweep's level-by-level pass over
the visited ones; below that the inline loop.
"""

from polytri import TriangleWeightFn, gen_staircase, solve_bst, solve_yao
from polytri.bst_solver import ROWS_FACTOR, SWEEP_MIN_N


def main() -> None:
    f = TriangleWeightFn.additive()
    print(
        f"{'2h':>6} {'weights':<28} {'bst visits':>10} {'2h^2-5h+4':>10} {'census':>8}"
        f" {'engine':>7} {'ms':>8}"
    )
    for half_n in (3, 4, 6, 10, 30, 100, 400, 1000):
        poly = gen_staircase(half_n)
        _, _, st_b = solve_bst(poly, f)
        _, _, st_y = solve_yao(poly, f)
        label = str(poly.weights) if poly.n <= 8 else "(1, 2, 4, ..., 5, 3)"
        assert st_y.total_cones == st_b.total_cones
        print(
            f"{poly.n:>6} {label:<28} {st_b.visited_cones:>10} "
            f"{2 * half_n**2 - 5 * half_n + 4:>10} {st_b.total_cones:>8}"
            f" {st_b.engine:>7} {st_b.elapsed_ns / 1e6:>8.1f}"
        )
    print("\nvisits == 2h^2 - 5h + 4 at every size; no shortcut survives this family")
    print(
        f"on this family solve_bst takes the rows from n = {SWEEP_MIN_N} on (census < {ROWS_FACTOR} x cells),"
        " the loop below"
    )


if __name__ == "__main__":
    main()
