"""The two routes that build the bridge table: the numpy pass and the stack pass.

From ``bridges.JUMP_MIN_N`` nodes on, ``find_bridges_linear`` tries the
pointer-jumping numpy pass (``bridges._jump``) first; a polygon whose jumps
exceed ``JUMP_WORK * n * log2(n)`` element steps, and every smaller polygon, takes
the stack pass (``bridges._stack``). These tests force each route by
patching the crossover and require the same table, bit for bit, from both.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bridges_by_definition
from polytri import (
    Polygon,
    TriangleWeightFn,
    bridges,
    bst_solver,
    find_bridges_linear,
    find_bridges_walk,
    gen_random,
    gen_staircase,
    solve_bst,
)

ROUTES = {"jump": 3, "stack": 10**9}  # JUMP_MIN_N that forces each route


def build(poly, route, work=None):
    with mock.patch.object(bridges, "JUMP_MIN_N", ROUTES[route]):
        with mock.patch.object(bridges, "JUMP_WORK", work or bridges.JUMP_WORK):
            return find_bridges_linear(poly)


def stack_calls(poly):
    """How many times find_bridges_linear runs the stack pass on ``poly``."""
    with mock.patch.object(bridges, "_stack", wraps=bridges._stack) as spy:
        find_bridges_linear(poly)
    return spy.call_count


def fields(table):
    return (table.left, table.right, table.lc, table.rc, table.apexed, table.total_cones())


def assert_same_tables(poly, work=None):
    """Both routes, the walk and the definition give one table; returns the jump route's."""
    jumped, stacked = build(poly, "jump", work), build(poly, "stack")
    assert fields(jumped) == fields(stacked) == fields(find_bridges_walk(poly))
    assert all(type(v) is int for row in fields(jumped)[:4] for v in row)
    assert type(jumped.apexed) is int
    assert "arrays" not in vars(stacked)  # the stack route converts nothing until asked
    for table in (jumped, stacked):
        arrays = table.arrays
        assert arrays.dtype == np.int64 and arrays.shape == (5, poly.n)
        assert not arrays.flags.writeable
        assert arrays.tolist() == [table.left, table.right, table.lc, table.rc, list(poly.rank_of)]
        assert table.arrays is arrays
    if poly.n <= 40:
        oracle = {uv: s for uv, (s, _) in bridges_by_definition(poly).items()}
        assert {(u, v): x for x, (u, v) in enumerate(zip(jumped.left, jumped.right)) if u >= 0} == oracle
    return jumped


@given(
    st.sampled_from([2, 3, 10**6]).flatmap(
        lambda hi: st.lists(st.integers(1, hi), min_size=3, max_size=400)
    )
)
@settings(max_examples=120, deadline=None)
def test_routes_agree(weights):
    # ties at hi = 2 and 3 run the jumps long on one side
    assert_same_tables(Polygon(tuple(weights)))


def families(n):
    return {
        "staircase": gen_staircase(n // 2),
        "increasing": Polygon(tuple(range(1, n + 1))),
        "decreasing": Polygon(tuple(range(n, 0, -1))),
        "sawtooth": Polygon(tuple(i % (n // 2) + 1 for i in range(n))),  # two teeth
        "constant": Polygon((7,) * n),
    }


@pytest.mark.parametrize("n", [8, 41, 400, 2000])
@pytest.mark.parametrize("family", ["staircase", "increasing", "decreasing", "sawtooth", "constant"])
def test_routes_agree_where_the_budget_trips(family, n):
    poly = families(n)[family]
    assert_same_tables(poly)  # a tripped budget hands the polygon to the stack pass
    assert_same_tables(poly, work=n * n)  # the jumps run to the end


@pytest.mark.parametrize("family", ["staircase"])
def test_budget_trips_on_long_chains(family):
    # staircases need about n/8 rounds
    poly = families(2000)[family]
    assert bridges._jump(poly) is None
    assert stack_calls(poly) == 1


@pytest.mark.parametrize("family", ["increasing", "decreasing", "sawtooth", "constant"])
def test_log_deep_chains_take_the_jumps(family):
    # sorted, sawtooth and constant weights need about log2(n) rounds on one side: within the budget
    poly = families(2000)[family]
    assert bridges._jump(poly) is not None
    assert stack_calls(poly) == 0


def test_jump_work_is_bounded():
    """The jumps' element steps never pass JUMP_WORK * n * log2(n), whatever the polygon."""
    seen = []
    real = bridges._nearest_lighter

    def spy(rk, near, budget):
        left = real(rk, near, budget)
        seen.append((budget, left))
        return left

    for name, poly in [("random", gen_random(5000, 1)), *families(2000).items()]:
        seen.clear()
        with mock.patch.object(bridges, "_nearest_lighter", spy):
            bridges._jump(poly)
        (budget, left), *rest = seen
        assert budget == int(bridges.JUMP_WORK * poly.n * math.log2(poly.n))  # one budget for both sides
        if rest:
            assert rest[0][0] == left >= 0
        assert all(-1 <= left <= budget for budget, left in seen)
        if name == "increasing":  # every left neighbour is lighter: nothing jumps, not even the ends
            assert left == budget


def test_route_is_pinned():
    assert bridges.JUMP_MIN_N <= 5000
    assert stack_calls(gen_random(5000, 1)) == 0
    assert stack_calls(gen_staircase(1000)) == 1  # staircase n = 2000 trips the budget
    assert stack_calls(gen_random(bridges.JUMP_MIN_N - 1, 1)) == 1


def test_budget_grows_with_log_n():
    # sorted weights jump about n log2(n) steps and stay on numpy; a staircase still hands over
    assert stack_calls(Polygon(tuple(range(1, 10**4 + 1)))) == 0
    assert stack_calls(gen_staircase(1000)) == 1


def test_sweep_solves_make_no_bridge_lists():
    # a hash solve that takes the sweep reads the jump route's arrays alone; the lists wait for a reader
    tables = []

    def finder(poly):
        tables.append(find_bridges_linear(poly))
        return tables[-1]

    with mock.patch.object(bst_solver, "find_bridges_linear", finder):
        assert solve_bst(gen_random(4000, 2), TriangleWeightFn.additive())[2].engine == "sweep"
    (table,) = tables
    assert not {"left", "right", "lc", "rc"} & set(vars(table))
    assert table.lc == table.arrays[2].tolist() and "lc" in vars(table)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_tables_match_above_the_crossover(seed):
    rng = random.Random(seed)
    n = rng.randint(bridges.JUMP_MIN_N, 3 * bridges.JUMP_MIN_N)
    poly = Polygon(tuple(rng.randint(1, rng.choice([3, 100, 10**6])) for _ in range(n)))
    table = find_bridges_linear(poly)
    stacked = build(poly, "stack")
    assert fields(table) == fields(stacked)
    assert table.arrays.tolist() == stacked.arrays.tolist()
    assert len(table) == n - 2
