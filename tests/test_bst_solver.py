"""Branching solver: expansion rules, memo backends, stats, value agreement.

The in-test evaluator below recomputes cone values recursively from the
public expand_cone/cone_value_base alone, so the packed hot loop in
solve_bst is always checked against the readable form of the same rules;
TestBranchRecord checks the branch record that loop, the keyed walk and
Yao's sweep read against expand_cone one cone at a time.
"""

import random
from unittest import mock

import pytest

from conftest import cone_value_oracle, fn_only, random_polygon, witness_by_reexpansion
from polytri import (
    Branch,
    Cone,
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    cone_value_base,
    enumerate_cones,
    expand_cone,
    expand_root,
    find_bridges_linear,
    gen_random,
    gen_staircase,
    is_base_cone,
    reconstruct_triangulation,
    solve_bst,
    solve_dp_cubic,
    solve_yao,
    triangulation_weight,
    validate_triangulation,
)
from polytri import bst_solver
from polytri.bst_solver import _branches, _search

ENGINES = {
    "bst-hash": lambda poly, f: solve_bst(poly, f, backend="hash"),
    "bst-dense": lambda poly, f: solve_bst(poly, f, backend="dense"),
    "yao-scalar": lambda poly, f: solve_yao(poly, fn_only(f)),
    "yao-vector": solve_yao,
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


def record_branches(table, rec):
    """The branches a _branches record states, as (edges, children, constant), branch 1 first.

    Children are the cones its packed keys name; the constant is branch 1's
    triangle, or the single triangles branch 2 folds in.
    """
    n1, left, right = table.poly.n + 1, table.left, table.right

    def cone(key):
        x, k = divmod(key, n1)
        return Cone(left[x], right[x], k - 1 if k else None)

    p, m, c2, ch2a, ch2b, c1, ch1 = rec
    two = ((min(p, m), max(p, m)),), tuple(cone(c) for c in (ch2a, ch2b) if c >= 0), c2
    if ch1 < 0:
        return [two]
    a, b = left[m], right[m]
    return [(((min(a, b), max(a, b)),), (cone(ch1),), c1), two]


def public_branches(poly, table, f, cone):
    """expand_cone's branches as a record states them: base children other than an
    apexless one-triangle cone count into the constant, through cone_value_base."""
    w = poly.weights
    out = []
    for br in expand_cone(cone, table):
        keyed = tuple(
            c for c in br.children if not is_base_cone(poly, c) or c.apex is None and poly.arc_len(c.u, c.v) == 2
        )
        const = sum(cone_value_base(poly, c, f) for c in br.children if c not in keyed)
        const += sum(f.fn(w[a], w[b], w[c]) for a, b, c in br.triangles)
        out.append((br.edges, keyed, const))
    return out


class TestBranchRecord:
    """_branches, the one record the loop, the keyed walk and Yao's sweep read, against expand_cone."""

    def test_every_cone_matches_expand_cone(self, weight_fns):
        rng = random.Random(109)
        shapes = set()
        for i in range(60):
            n = rng.randint(3, 40)
            if i % 2:  # tie-heavy
                poly = Polygon(tuple(rng.randint(1, 5) for _ in range(n)))
            else:
                poly = Polygon(tuple(rng.sample(range(1, 10**4), n)))
            if n > 3:
                shapes.add(poly.adjacent(poly.rank[0], poly.rank[1]))
            table = find_bridges_linear(poly)
            for f in weight_fns.values():
                branch = _branches(poly, table, f)
                for cone in enumerate_cones(poly, table):
                    x = table.s_node(cone.u, cone.v)
                    rec = branch(x, 0 if cone.apex is None else cone.apex + 1)
                    if cone.apex is None and poly.arc_len(cone.u, cone.v) == 2:
                        assert rec == (cone_value_base(poly, cone, f),), (poly, cone)
                    elif not is_base_cone(poly, cone):
                        assert record_branches(table, rec) == public_branches(poly, table, f, cone), (poly, cone)
        assert shapes == {True, False}


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
                want = solve_dp_cubic(poly, fn_only(f))[0]
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
        polys = [random_polygon(rng, n_lo=3, n_hi=40) for _ in range(40)]
        for poly in [*polys, gen_staircase(10), gen_random(500, 73)]:
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

    def test_one_triangle_cone_must_hold_its_weight(self, weight_fns):
        # every value one too high: the root's branch 1 (triangle (0, 1, 3), 6) still reproduces
        # its value, 17, so only the one-triangle cone (1, 3) it leads to, holding 11, not 10, can refuse
        poly, f = Polygon((1, 2, 5, 3)), weight_fns["add"]
        table = find_bridges_linear(poly)
        memo = {}
        _search(poly, table, f, memo)
        assert reconstruct_triangulation(poly, table, f, memo.__getitem__) == (16, frozenset({(1, 3)}))
        with pytest.raises(SolverInvariantError, match=r"cone \(1, 3, apex None\) reproduces its solved value 11"):
            reconstruct_triangulation(poly, table, f, lambda key: memo[key] + 1)


class TestMemoStore:
    """solve_bst chooses the memo from backend: a dict, or a flat list up to DENSE_CAP."""

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown memo backend"):
            solve_bst(Polygon((1, 2, 5, 3)), TriangleWeightFn.additive(), backend="btree")

    def test_dense_refuses_large_n(self):
        fa = TriangleWeightFn.additive()
        poly = Polygon(tuple(range(1, 2002)))  # n = 2001, one past the cap
        with mock.patch.object(bst_solver, "find_bridges_linear", wraps=find_bridges_linear) as bridges:
            with pytest.raises(ValueError, match="dense memo refused"):
                solve_bst(poly, fa, backend="dense")
        assert bridges.call_count == 0  # refused before any work
        at_cap = Polygon(poly.weights[:-1])
        opt, _, stats = solve_bst(at_cap, fa, backend="dense")
        assert (opt, stats.backend) == (solve_bst(at_cap, fa)[0], "dense")
