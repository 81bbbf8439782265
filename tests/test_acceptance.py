"""End-to-end acceptance checks: one test and one printed line per criterion.

Run `pytest tests/test_acceptance.py -s -v` to watch the lines as they
complete (the suite takes several minutes; criteria 5 and 8 time large
instances). Criteria 3 and 4 each contain a sub-check of a claimed
property that this implementation refutes - a neighbor-edge necessity
claim and an exact visited-cone count - so those two tests fail, with the
refuting numbers in their printed lines. All other sub-checks pass.
"""

import math
import random
import statistics
import time
from fractions import Fraction

from conftest import bridges_by_definition, chain_cost_bruteforce, connected_in, fn_only
from polytri import (
    Polygon,
    TriangleWeightFn,
    child_seed,
    error_ratio,
    find_bridges_linear,
    find_bridges_walk,
    gen_heuristic_worst,
    gen_random,
    gen_random_chain,
    gen_staircase,
    solve_bruteforce,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
    validate_triangulation,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def distinct_polygon(rng: random.Random, n: int) -> Polygon:
    return Polygon(tuple(rng.sample(range(1, 10**6), n)))


def test_criterion_1_cross_algorithm_exactness(weight_fns):
    # weights capped at 10**5 so every engine stays int64-safe at n = 200
    # and the stated 2-minute budget holds with the fast paths engaged
    t0 = time.perf_counter()
    sizes = list(range(4, 51)) + [100, 200]
    bad = 0
    first = ""
    checked = 0
    for n in sizes:
        for trial in range(100):
            poly = gen_random(n, child_seed(101, n, trial), hi=10**5)
            for name, f in weight_fns.items():
                results = [
                    solve_dp_cubic(poly, f),
                    solve_yao(poly, f)[:2],
                    solve_bst(poly, f, backend="hash")[:2],
                    solve_bst(poly, f, backend="dense")[:2],
                ]
                vals = {v for v, _ in results}
                ok = len(vals) == 1
                for v, tri in results:
                    ok = (
                        ok
                        and validate_triangulation(poly, tri).ok
                        and triangulation_weight(poly, tri, f) == v
                    )
                checked += 1
                if not ok:
                    bad += 1
                    first = first or f"n={n} trial={trial} f={name} values={vals}"
    elapsed = time.perf_counter() - t0
    detail = (
        f"{checked} (polygon, f) cells x 4 solvers agree exactly, "
        f"all reconstructions validate; {elapsed:.1f}s"
        + (f"; FIRST BAD {first}" if bad else "")
    )
    report(1, bad == 0 and elapsed < 120.0, detail)


def test_criterion_2_oracle_equivalence(weight_fns):
    bad = 0
    checked = 0
    for n in range(3, 13):
        for trial in range(50):
            poly = gen_random(n, child_seed(202, n, trial))
            for f in weight_fns.values():
                want, winners = solve_bruteforce(poly, f)
                for val, tri in (
                    solve_dp_cubic(poly, f),
                    solve_yao(poly, f)[:2],
                    solve_bst(poly, f, backend="hash")[:2],
                    solve_bst(poly, f, backend="dense")[:2],
                ):
                    checked += 1
                    if val != want or tri.edges not in winners:
                        bad += 1
    fm = weight_fns["mult"]
    chain_bad = 0
    chain_checked = 0
    for n_matrices in range(1, 13):
        for trial in range(25):
            chain = gen_random_chain(n_matrices, child_seed(212, n_matrices, trial))
            want = chain_cost_bruteforce(chain.dims)
            if n_matrices == 1:
                got = 0
            else:
                got = solve_bst(Polygon(chain.dims), fm)[0]
            chain_checked += 1
            chain_bad += got != want
    report(
        2,
        bad == 0 and chain_bad == 0,
        f"{checked} solver runs match the complete-optimum oracle; "
        f"{chain_checked} chains match split-recursion brute force",
    )


def test_criterion_3_theorem_invariants(weight_fns):
    fm, fa = weight_fns["mult"], weight_fns["add"]
    rng = random.Random(303)

    # (a) the lightest node is connected to the 2nd and 3rd lightest in
    # EVERY optimum (multiplicative optima)
    con = 0
    for _ in range(200):
        poly = distinct_polygon(rng, rng.randint(4, 11))
        v1, v2, v3 = poly.rank[:3]
        _, winners = solve_bruteforce(poly, fm)
        if any(
            not (connected_in(poly, T, v1, v2) and connected_in(poly, T, v1, v3))
            for T in winners
        ):
            con += 1

    # (b) neighbors of v1 are v2 and v3 => every optimum contains edge
    # (v2, v3) or edge (v1, v4)
    dic = 0
    checked = 0
    while checked < 200:
        poly = distinct_polygon(rng, rng.randint(4, 8))
        v1, v2, v3, v4 = poly.rank[:4]
        if {(v1 + 1) % poly.n, (v1 - 1) % poly.n} != {v2, v3}:
            continue
        checked += 1
        e23, e14 = tuple(sorted((v2, v3))), tuple(sorted((v1, v4)))
        _, winners = solve_bruteforce(poly, fm)
        if any(e23 not in T and e14 not in T for T in winners):
            dic += 1

    # (c) same setting, additive optima: (v2, v3) present requires
    # w1 + w4 > w2 + w3, and (v2, v3) absent requires (v1, v4) present
    nec = 0
    checked = 0
    while checked < 200:
        poly = distinct_polygon(rng, rng.randint(4, 8))
        v1, v2, v3, v4 = poly.rank[:4]
        if {(v1 + 1) % poly.n, (v1 - 1) % poly.n} != {v2, v3}:
            continue
        checked += 1
        w = poly.weights
        e23, e14 = tuple(sorted((v2, v3))), tuple(sorted((v1, v4)))
        _, winners = solve_bruteforce(poly, fa)
        for T in winners:
            if e23 in T:
                if not (w[v1] + w[v4] > w[v2] + w[v3]):
                    nec += 1
                    break
            elif e14 not in T:
                nec += 1
                break

    # (d) a node heavier than both its arc neighbors forces the edge
    # between those neighbors into the optimum (additive optima, read
    # charitably as "present in SOME optimum"); this claim is false
    nbr = 0
    for _ in range(200):
        poly = distinct_polygon(rng, rng.randint(4, 11))
        _, winners = solve_bruteforce(poly, fa)
        for m in range(poly.n):
            p, q = (m - 1) % poly.n, (m + 1) % poly.n
            if poly.weights[m] > max(poly.weights[p], poly.weights[q]):
                e = tuple(sorted((p, q)))
                if all(e not in T for T in winners):
                    nbr += 1
                    break

    detail = (
        f"connectivity {con}/200, dichotomy {dic}/200, necessary-condition "
        f"{nec}/200, neighbor-edge {nbr}/200 instances violated"
    )
    if nbr:
        detail += (
            "; the neighbor-edge claim is false: weights [5,6,5,1] have the "
            "unique optimum {(1,3)}, not the claimed edge (0,2)"
        )
    report(3, con == 0 and dic == 0 and nec == 0 and nbr == 0, detail)


def test_criterion_4_staircase_tight_bound():
    fa = TriangleWeightFn.additive()
    t0 = time.perf_counter()
    rows = []
    for half_n in (3, 10, 100, 1000):
        claim = (2 * half_n - 2) * (2 * half_n - 1) // 2
        poly = gen_staircase(half_n)
        _, _, st_b = solve_bst(poly, fa)
        _, _, st_y = solve_yao(poly, fa)
        rows.append((half_n, st_b.visited_cones, claim, st_y.total_cones))
    elapsed = time.perf_counter() - t0
    bst_bad = [(h, got, claim) for h, got, claim, _ in rows if got != claim]
    yao_bad = [(h, got, claim) for h, _, claim, got in rows if got != claim]
    detail = f"yao total_cones == (2h-2)(2h-1)/2 at all sizes; {elapsed:.1f}s"
    if bst_bad:
        mism = ", ".join(f"h={h}: visited {got} != claimed {claim}" for h, got, claim in bst_bad)
        detail += (
            f"; bst visited_cones never matches the claimed census ({mism}); "
            "the search tree provably visits 2h^2-5h+4 cones on this family"
        )
    report(4, not bst_bad and not yao_bad, detail)


def test_criterion_5_growth_and_ordering():
    fa = TriangleWeightFn.additive()
    trials = 30

    bst_ratio = {}
    for n in (10**3, 10**4, 10**5):
        vs = []
        for trial in range(trials):
            poly = gen_random(n, child_seed(505, n, trial))
            vs.append(solve_bst(poly, fa)[2].visited_cones)
        bst_ratio[n] = statistics.mean(vs) / (n * math.log2(n))
    spread = max(bst_ratio.values()) / min(bst_ratio.values())

    yao_frac = {}
    for n in (10**3, 10**4):  # the sizes under the 2*10^4 yao cutoff
        vis, tot = [], []
        for trial in range(trials):
            poly = gen_random(n, child_seed(515, n, trial))
            st = solve_yao(poly, fa)[2]
            vis.append(st.visited_cones)
            tot.append(st.total_cones)
        yao_frac[n] = (statistics.mean(vis) / n**2) / (statistics.mean(tot) / n**2)
    yao_ok = all(0.5 <= frac <= 2.0 for frac in yao_frac.values())

    poly = gen_random(1000, child_seed(525, 1000, 0))
    fa_scalar = fn_only(fa)  # yao-scalar: the sweep over fn in object dtype
    fa_scalar.ensure_monotonic()  # before the timed solves; fa comes checked
    bst_t, yao_t, dp3_t = [], [], []
    for _ in range(3):
        bst_t.append(solve_bst(poly, fa, backend="hash")[2].elapsed_ns)
        yao_t.append(solve_yao(poly, fa_scalar)[2].elapsed_ns)
        t0 = time.perf_counter_ns()
        solve_dp_cubic(poly, fa)
        dp3_t.append(time.perf_counter_ns() - t0)
    b, y, d = (statistics.median(t) for t in (bst_t, yao_t, dp3_t))

    ratios = ", ".join(f"n=10^{round(math.log10(n))}: {r:.3f}" for n, r in bst_ratio.items())
    detail = (
        f"bst visited/(n log2 n) [{ratios}] spread {spread:.2f}x < 3; "
        f"yao visited/n^2 at factor {max(yao_frac.values()):.2f} of census; "
        f"elapsed at n=1000: bst {b / 1e6:.0f}ms < yao {y / 1e6:.0f}ms < dp3 {d / 1e6:.0f}ms"
    )
    report(5, spread < 3.0 and yao_ok and b < y < d, detail)


def test_criterion_6_heuristic_bound():
    t0 = time.perf_counter()
    family_ok = all(
        error_ratio(gen_heuristic_worst(5, t)).ratio == Fraction(t - 1, 3 * (t + 2))
        for t in (2, 4, 10, 100)
    )
    golden = error_ratio(gen_heuristic_worst(5, 4))
    family_ok = family_ok and (golden.heuristic_weight, golden.optimal_weight) == (21, 18)

    rng = random.Random(606)
    viol = 0
    for _ in range(500):
        poly = gen_random(rng.randint(4, 200), rng.randrange(2**32))
        viol += error_ratio(poly).ratio >= Fraction(1, 3)

    tight = error_ratio(gen_heuristic_worst(5, 10**4)).ratio
    tight_ok = tight > Fraction(333, 1000) - Fraction(1, 1000)
    elapsed = time.perf_counter() - t0
    report(
        6,
        family_ok and viol == 0 and tight_ok and elapsed < 60.0,
        f"family ratios exact, {viol}/500 random instances at or above 1/3, "
        f"E(t=10^4) = {float(tight):.6f} > 0.332; {elapsed:.1f}s",
    )


def test_criterion_7_bridge_machinery():
    rng = random.Random(707)
    bad = 0
    for _ in range(500):
        n = rng.randint(3, 60)
        poly = Polygon(tuple(rng.randint(1, 10**6) for _ in range(n)))
        walk = find_bridges_walk(poly)
        linear = find_bridges_linear(poly)
        s_walk, s_linear = ({uv: t.s_node(*uv) for uv in t.bridges} for t in (walk, linear))
        ok = (
            walk.bridges == linear.bridges
            and s_walk == s_linear == {uv: s for uv, (s, _) in bridges_by_definition(poly).items()}
            and len(walk) == len(linear) == n - 2
        )
        bad += not ok
    report(7, bad == 0, f"{bad}/500 polygons disagree across walk, linear, definition")


def test_criterion_8_desk_scale_performance():
    fa = TriangleWeightFn.additive()
    poly = gen_random(10**5, seed=808)
    t0 = time.perf_counter()
    opt, tri, stats = solve_bst(poly, fa, backend="hash")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0 and validate_triangulation(poly, tri).ok
    report(
        8,
        ok,
        f"n=10^5 solved in {elapsed:.1f}s (< 60s), visited {stats.visited_cones} "
        f"of {stats.total_cones} cones, optimum {opt}",
    )
