"""Command line interface.

Four subcommands: ``solve`` (one instance, one algorithm, key=value output),
``bench`` (solver grid to CSV), ``gen`` (instance generators, polygon file
format on stdout), ``bridges`` (debug dump of the bridge table). Errors
exit nonzero with a single machine-readable ``error=...`` line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .baselines import solve_dp_cubic
from .bridges import find_bridges_linear
from .bst_solver import solve_bst
from .core import TriangleWeightFn, format_polygon, parse_polygon
from .generators import gen_heuristic_worst, gen_random, gen_staircase
from .heuristic import error_ratio, heuristic_triangulate
from .matrix_chain import chain_to_polygon, parse_chain, triangulation_to_parenthesization
from .toolkit import run_bench, write_csv
from .yao_solver import solve_yao

__all__ = ["main"]

_WEIGHT_FNS = {  # one instance per name: a custom fn's spot check runs once per process
    "mult": TriangleWeightFn.multiplicative(),
    "add": TriangleWeightFn.additive(),
    "custom": TriangleWeightFn.product_plus_sum(),
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(pairs: list[tuple[str, object]]) -> None:
    for key, val in pairs:
        print(f"{key}={val}")


def _edges_str(edges) -> str:
    return " ".join(f"{a}-{b}" for a, b in sorted(edges))


def _cmd_solve(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    chain = None
    if args.mode == "chain":
        if args.weight != "mult":
            raise ValueError("chain mode prices scalar multiplications; use --weight mult")
        if args.algo == "heuristic":
            raise ValueError("the heuristic is additive-only and cannot solve chains")
        chain = parse_chain(text)
        poly = chain_to_polygon(chain)
        if poly is None:
            # single matrix: nothing to multiply
            _emit(
                [
                    ("algo", args.algo),
                    ("weight_fn", args.weight),
                    ("mode", "chain"),
                    ("optimal_weight", 0),
                    ("parenthesization", "A1"),
                ]
            )
            return 0
    else:
        poly = parse_polygon(text)

    f = _WEIGHT_FNS[args.weight]
    pairs: list[tuple[str, object]] = [
        ("algo", args.algo),
        ("weight_fn", args.weight),
        ("mode", args.mode),
        ("n", poly.n),
    ]
    if args.algo == "heuristic":
        if args.weight != "add":
            raise ValueError("the heuristic requires --weight add")
        t0 = time.perf_counter_ns()
        tri, _ = heuristic_triangulate(poly)
        elapsed = time.perf_counter_ns() - t0
        pairs.append(("heuristic_weight", tri.weight))
        if args.exact:
            report = error_ratio(poly)
            pairs.append(("optimal_weight", report.optimal_weight))
            pairs.append(("error_ratio", report.ratio))
        if args.emit_edges:
            pairs.append(("edges", _edges_str(tri.edges)))
        pairs.append(("elapsed_ns", elapsed))
        _emit(pairs)
        return 0

    if args.algo == "dp3":
        t0 = time.perf_counter_ns()
        opt, tri = solve_dp_cubic(poly, f)
        elapsed = time.perf_counter_ns() - t0
        stats_pairs: list[tuple[str, object]] = [("elapsed_ns", elapsed)]
    elif args.algo == "yao":
        opt, tri, st = solve_yao(poly, f)
        stats_pairs = [
            ("visited_cones", st.visited_cones),
            ("total_cones", st.total_cones),
            ("engine", st.engine),
            ("elapsed_ns", st.elapsed_ns),
        ]
    else:
        opt, tri, st = solve_bst(poly, f)
        stats_pairs = [
            ("visited_cones", st.visited_cones),
            ("memo_hits", st.memo_hits),
            ("total_cones", st.total_cones),
            ("memo", st.backend),
            ("engine", st.engine),
            ("elapsed_ns", st.elapsed_ns),
        ]
    pairs.append(("optimal_weight", opt))
    if args.emit_edges:
        pairs.append(("edges", _edges_str(tri.edges)))
    if chain is not None:
        pairs.append(("parenthesization", triangulation_to_parenthesization(chain, tri)))
    pairs.extend(stats_pairs)
    _emit(pairs)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(part) for part in args.sizes.split(",") if part]
    algos = [part for part in args.algos.split(",") if part]
    records = run_bench(
        sizes,
        trials=args.trials,
        seed=args.seed,
        algos=algos,
        kind=args.kind,
        f=_WEIGHT_FNS[args.weight],
    )
    if args.csv is not None:
        write_csv(records, args.csv)
    else:
        write_csv(records, sys.stdout)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "random":
        poly = gen_random(args.n, args.seed, distinct=args.distinct)
    elif args.kind == "staircase":
        if args.n % 2:
            raise ValueError("staircase polygons have an even node count")
        poly = gen_staircase(args.n // 2)
    else:
        poly = gen_heuristic_worst(args.n, args.t, perturb=args.perturb)
    sys.stdout.write(format_polygon(poly))
    return 0


def _cmd_bridges(args: argparse.Namespace) -> int:
    poly = parse_polygon(_read_text(args.input))
    table = find_bridges_linear(poly)
    for u, v in table.bridges:
        print(f"{u} {v} {table.s_node(u, v)}")
    return 0


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polytri",
        description="Minimum-weight triangulation of node-weighted convex polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance, print key=value lines")
    p_solve.add_argument("--input", required=True, help="instance file, or - for stdin")
    p_solve.add_argument("--mode", choices=("polygon", "chain"), default="polygon")
    p_solve.add_argument("--algo", choices=("dp3", "yao", "bst", "heuristic"), default="bst")
    p_solve.add_argument("--weight", choices=("mult", "add", "custom"), default="mult")
    p_solve.add_argument("--emit-edges", action="store_true", help="print the edge list")
    p_solve.add_argument(
        "--exact",
        action="store_true",
        help="with --algo heuristic: also print the optimum and the exact error ratio",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run a solver grid, write CSV")
    p_bench.add_argument("--sizes", required=True, help="comma-separated node counts")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--algos", default="bst,yao,dp3")
    p_bench.add_argument("--kind", choices=("random", "staircase"), default="random")
    p_bench.add_argument("--weight", choices=("mult", "add", "custom"), default="add")
    p_bench.add_argument("--csv", help="output path (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)

    p_gen = sub.add_parser("gen", help="generate an instance in the polygon file format")
    p_gen.add_argument("--kind", choices=("random", "staircase", "heuristic-worst"), required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--t", type=int, default=10, help="heavy/light weight ratio")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--distinct", action="store_true", help="random: pairwise distinct weights")
    p_gen.add_argument("--perturb", action="store_true", help="heuristic-worst: distinct weights")
    p_gen.set_defaults(func=_cmd_gen)

    p_bridges = sub.add_parser("bridges", help="dump bridge table as 'u v S(u,v)' lines")
    p_bridges.add_argument("--input", required=True)
    p_bridges.set_defaults(func=_cmd_bridges)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
