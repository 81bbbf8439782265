"""Branching solver: expansion rules, memo stores, stats, value agreement.

The in-test evaluator below recomputes cone values recursively from the
public expand_cone/cone_value_base alone, so the packed hot loop in
solve_bst is always checked against the readable form of the same rules.
"""

import random

import pytest

from conftest import cone_value_oracle, random_polygon, witness_by_reexpansion
from polytri import (
    Branch,
    Cone,
    MemoStore,
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    cone_value_base,
    enumerate_cones,
    expand_cone,
    expand_root,
    find_bridges_linear,
    gen_staircase,
    is_base_cone,
    reconstruct_triangulation,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
    validate_triangulation,
)

ENGINES = {
    "bst-hash": lambda poly, f: solve_bst(poly, f, backend="hash"),
    "bst-dense": lambda poly, f: solve_bst(poly, f, backend="dense"),
    "yao-scalar": lambda poly, f: solve_yao(poly, f, engine="scalar"),
    "yao-vector": lambda poly, f: solve_yao(poly, f, engine="vector"),
}


def eval_cone(poly, table, f, cone):
    """Reference cone value: recurse over the public expansion rules."""
    if is_base_cone(poly, cone):
        return cone_value_base(poly, cone, f)
    w = poly.weights
    best = None
    for br in expand_cone(cone, table):
        val = sum(f.fn(w[a], w[b], w[c]) for a, b, c in br.triangles)
        val += sum(eval_cone(poly, table, f, ch) for ch in br.children)
        if best is None or val < best:
            best = val
    return best


class TestBaseCones:
    def test_is_base_cone(self):
        poly = Polygon((1, 2, 5, 3))
        assert is_base_cone(poly, Cone(1, 2, apex=0))
        assert not is_base_cone(poly, Cone(1, 3, apex=0))
        assert is_base_cone(poly, Cone(1, 3))
        assert not is_base_cone(poly, Cone(1, 0))

    def test_base_values(self, weight_fns):
        poly = Polygon((1, 2, 5, 3))
        fm = weight_fns["mult"]
        assert cone_value_base(poly, Cone(1, 2, apex=0), fm) == 2 * 5 * 1
        assert cone_value_base(poly, Cone(1, 2), fm) == 0
        assert cone_value_base(poly, Cone(1, 3), fm) == 2 * 5 * 3

    def test_base_value_rejects_expandable_cones(self, weight_fns):
        poly = Polygon((1, 2, 5, 3))
        with pytest.raises(ValueError, match="not a base case"):
            cone_value_base(poly, Cone(1, 3, apex=0), weight_fns["mult"])
        with pytest.raises(ValueError, match="not a base case"):
            cone_value_base(poly, Cone(1, 0), weight_fns["mult"])


class TestExpandCone:
    def test_apexed_golden(self):
        poly = Polygon((1, 2, 5, 3))
        table = find_bridges_linear(poly)
        b1, b2 = expand_cone(Cone(1, 3, apex=0), table)
        assert b1 == Branch(((1, 3),), (Cone(1, 3),), ((1, 3, 0),))
        assert b2 == Branch(((0, 2),), (Cone(1, 2, 0), Cone(2, 3, 0)), ())

    def test_apexless_neighbor_is_s_golden(self):
        poly = gen_staircase(3)  # weights (1, 2, 4, 6, 5, 3)
        table = find_bridges_linear(poly)
        b1, b2 = expand_cone(Cone(1, 5), table)
        assert b1 == Branch(((2, 5),), (Cone(2, 5),), ((1, 2, 5),))
        assert b2 == Branch(((1, 4),), (Cone(2, 4, 1), Cone(4, 5, 1)), ())

    def test_apexless_forced_edge_lighter_v(self):
        poly = Polygon((2, 9, 4, 8, 1))
        table = find_bridges_linear(poly)
        (br,) = expand_cone(Cone(0, 4), table)
        assert br == Branch(((2, 4),), (Cone(0, 2, 4), Cone(2, 4)), ())

    def test_apexless_forced_edge_lighter_u(self):
        poly = Polygon((1, 8, 4, 9, 2))
        table = find_bridges_linear(poly)
        (br,) = expand_cone(Cone(0, 4), table)
        assert br == Branch(((0, 2),), (Cone(0, 2), Cone(2, 4, 0)), ())

    def test_rejects_base_cones(self):
        poly = Polygon((1, 2, 5, 3))
        table = find_bridges_linear(poly)
        with pytest.raises(ValueError, match="not expandable"):
            expand_cone(Cone(1, 3), table)
        with pytest.raises(ValueError, match="not expandable"):
            expand_cone(Cone(1, 2, apex=0), table)

    def test_every_cone_matches_sub_polygon_optimum(self, weight_fns):
        """Core soundness: expansion value == cubic DP on the cone polygon."""
        rng = random.Random(61)
        for _ in range(40):
            poly = random_polygon(rng, n_lo=4, n_hi=12)
            table = find_bridges_linear(poly)
            for f in weight_fns.values():
                for cone in enumerate_cones(poly, table):
                    got = eval_cone(poly, table, f, cone)
                    assert got == cone_value_oracle(poly, cone, f), (poly, cone)


class TestExpandRoot:
    def test_one_adjacent(self):
        branches = expand_root(Polygon((1, 5, 3, 7, 2)))
        assert branches == [Branch(((0, 2),), (Cone(2, 4, 0), Cone(0, 2)), ())]

    def test_one_adjacent_mirror(self):
        branches = expand_root(Polygon((9, 1, 2, 8, 7, 3)))
        assert branches == [Branch(((1, 5),), (Cone(2, 5, 1), Cone(5, 1)), ())]

    def test_both_adjacent(self):
        branches = expand_root(Polygon((2, 1, 3, 9, 8, 7)))
        assert branches == [
            Branch(((0, 2),), (Cone(2, 0),), ((1, 0, 2),)),
            Branch(((1, 5),), (Cone(2, 5, 1), Cone(5, 0, 1)), ()),
        ]

    def test_both_adjacent_mirror(self):
        branches = expand_root(Polygon((3, 1, 2, 9, 8, 7)))
        assert branches == [
            Branch(((0, 2),), (Cone(2, 0),), ((1, 2, 0),)),
            Branch(((1, 5),), (Cone(2, 5, 1), Cone(5, 0, 1)), ()),
        ]

    def test_neither_adjacent(self):
        branches = expand_root(Polygon((5, 1, 6, 2, 7, 3)))
        assert branches == [
            Branch(((1, 3), (1, 5)), (Cone(1, 3), Cone(3, 5, 1), Cone(5, 1)), ())
        ]

    def test_requires_four_nodes(self):
        with pytest.raises(ValueError, match="n >= 4"):
            expand_root(Polygon((1, 2, 3)))

    def test_best_branch_is_global_optimum(self, weight_fns):
        rng = random.Random(67)
        for _ in range(40):
            poly = random_polygon(rng, n_lo=4, n_hi=11)
            table = find_bridges_linear(poly)
            for f in weight_fns.values():
                want = solve_dp_cubic(poly, f, engine="python")[0]
                vals = []
                for br in expand_root(poly):
                    val = sum(f.fn(*(poly.weights[i] for i in t)) for t in br.triangles)
                    val += sum(eval_cone(poly, table, f, ch) for ch in br.children)
                    vals.append(val)
                assert min(vals) == want


class TestSolveBst:
    def test_quad_goldens(self, weight_fns):
        poly = Polygon((1, 2, 5, 3))
        opt, tri, stats = solve_bst(poly, weight_fns["mult"])
        assert (opt, tri.edges) == (25, frozenset({(0, 2)}))
        assert (stats.visited_cones, stats.memo_hits, stats.total_cones) == (2, 0, 3)
        opt, tri, _ = solve_bst(poly, weight_fns["add"])
        assert (opt, tri.edges) == (16, frozenset({(1, 3)}))

    def test_triangle(self, weight_fns):
        opt, tri, stats = solve_bst(Polygon((2, 3, 4)), weight_fns["mult"])
        assert (opt, tri.edges) == (24, frozenset())
        assert (stats.visited_cones, stats.total_cones) == (0, 1)

    def test_matches_cubic_dp(self, weight_fns):
        rng = random.Random(71)
        for _ in range(60):
            n = rng.randint(3, 60)
            poly = Polygon(tuple(rng.randint(1, 10**6) for _ in range(n)))
            for f in weight_fns.values():
                want = solve_dp_cubic(poly, f)[0]
                opt, tri, stats = solve_bst(poly, f)
                assert opt == want
                assert validate_triangulation(poly, tri).ok
                assert triangulation_weight(poly, tri, f) == opt
                assert stats.visited_cones <= stats.total_cones
                assert stats.total_cones == find_bridges_linear(poly).total_cones()

    def test_backends_agree(self, weight_fns):
        rng = random.Random(73)
        for _ in range(40):
            poly = random_polygon(rng, n_lo=3, n_hi=40)
            for f in weight_fns.values():
                oh, th, sh = solve_bst(poly, f, backend="hash")
                od, td, sd = solve_bst(poly, f, backend="dense")
                assert oh == od
                assert th.edges == td.edges  # same first-branch walk
                assert (sh.visited_cones, sh.memo_hits) == (sd.visited_cones, sd.memo_hits)
                assert (sh.backend, sd.backend) == ("hash", "dense")

    def test_reconstruction_deterministic(self, weight_fns):
        poly = Polygon((4, 4, 4, 4, 4, 4, 4))
        runs = {solve_bst(poly, weight_fns["add"])[1].edges for _ in range(5)}
        assert len(runs) == 1

    @pytest.mark.parametrize("half_n", [2, 3, 4, 10, 100])
    def test_staircase_visit_counts(self, half_n, weight_fns):
        poly = gen_staircase(half_n)
        for f in weight_fns.values():
            _, tri, stats = solve_bst(poly, f)
            assert validate_triangulation(poly, tri).ok
            assert stats.visited_cones == 2 * half_n * half_n - 5 * half_n + 4
            assert stats.total_cones == (2 * half_n - 2) * (2 * half_n - 1) // 2

    def test_dense_cap(self):
        poly = Polygon(tuple(range(1, 11)))
        with pytest.raises(ValueError, match="dense memo refused"):
            solve_bst(poly, TriangleWeightFn.additive(), backend="dense", dense_cap=5)

    def test_accumulator_guard(self):
        poly = Polygon((2**63 - 1,) * 5)
        with pytest.raises(OverflowError, match="128-bit"):
            solve_bst(poly, TriangleWeightFn.multiplicative())


class TestReconstruction:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_walk_matches_reexpansion(self, engine, weight_fns):
        """Every engine's packed-key walk returns the re-expansion's witness."""
        rng = random.Random(103)
        root_adjacent = set()
        for i in range(20):
            n = 4 + i if i < 4 else rng.randint(4, 150)
            hi = 5 if i % 2 else 10**4  # odd rows are tie-heavy
            poly = Polygon(tuple(rng.randint(1, hi) for _ in range(n)))
            root_adjacent.add(poly.adjacent(poly.rank[0], poly.rank[1]))
            for f in weight_fns.values():
                opt, tri, _ = ENGINES[engine](poly, f)
                assert (opt, tri.edges) == witness_by_reexpansion(poly, f), poly.weights
        assert root_adjacent == {True, False}

    def test_inconsistent_values_raise_invariant_error(self, weight_fns):
        poly = Polygon((1, 2, 9, 7, 8, 6, 5, 4, 3, 10))
        table = find_bridges_linear(poly)
        with pytest.raises(SolverInvariantError, match="no branch of cone"):
            reconstruct_triangulation(poly, table, weight_fns["add"], lambda key: 10**9)


class TestMemoStore:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown memo backend"):
            MemoStore(8, backend="btree")

    def test_dense_refuses_large_n(self):
        with pytest.raises(ValueError, match="dense memo refused"):
            MemoStore(3000, backend="dense")
        MemoStore(3000, backend="hash")  # no cap on the dict form

    def test_hash_round_trip(self):
        store = MemoStore(8)
        assert store.get(17) is None
        store.put(17, 123)
        assert store.get(17) == 123
        assert len(store) == 1
        with pytest.raises(SolverInvariantError, match="written twice"):
            store.put(17, 999)

    def test_dense_round_trip(self):
        n = 6
        bk = 1 * n + 5
        store = MemoStore(n, backend="dense", bridge_keys=(bk,))
        key = bk * (n + 1) + 0
        assert store.get(key) is None
        store.put(key, 7)
        store.put(key + 3, 9)  # same bridge row, apex 2
        assert (store.get(key), store.get(key + 3)) == (7, 9)
        assert len(store) == 2
        assert store[key + 3] == 9
        with pytest.raises(KeyError, match="empty"):
            store[key + 1]
        with pytest.raises(SolverInvariantError, match="written twice"):
            store.put(key, 7)

    def test_dense_rejects_non_bridge_rows(self):
        n = 6
        store = MemoStore(n, backend="dense", bridge_keys=(1 * n + 5,))
        with pytest.raises(KeyError, match="no bridge"):
            store.get((2 * n + 4) * (n + 1))
        with pytest.raises(KeyError, match="no bridge"):
            store.put((2 * n + 4) * (n + 1), 1)
