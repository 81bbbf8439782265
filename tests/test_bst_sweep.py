"""The branching search's numpy sweep and Yao's rows against its inline loop.

The engines must visit the same cones, count the same memo hits and
compute the same value for every cone: the sweep's cells must hold exactly
the keys of the loop's memo, with its values. The sweep's own walk must
give the optimum and edge set that reconstruct_triangulation reads off the
same values. solve_bst takes the sweep for hash solves from SWEEP_MIN_N
nodes on, when the layout counts at least SWEEP_MIN_WIDTH cells per nest
level, whatever the weight function: its ``vec`` picks only the dtype
(watched int64, else fn in object dtype). Where the census is below
ROWS_FACTOR times those cells, Yao's rows value every cone in the same
dtype instead, and the loop's counts come from the layout's first pass.
The tests below lower the cutoffs to run the sweep and the rows on small
and thin polygons too, and set ROWS_FACTOR to 0 wherever they mean the
sweep.
"""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fn_only
from test_exact_engines import FNS, MIX_2_62, heavy_light, random_piece_sums, vec_dtypes
from polytri import (
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    find_bridges_linear,
    gen_random,
    gen_staircase,
    reconstruct_triangulation,
    solve_bst,
    solve_yao,
    triangulation_weight,
)
from polytri import bst_solver
from polytri.bst_solver import SWEEP_MIN_N, _root, _search, _sweep
from polytri.yao_solver import _sweep as yao_rows

WEIGHT_FNS = [FNS["mult"], FNS["add"], FNS["custom"]]
# fn alone, so the sweep runs it in object dtype: exact values, Fractions too
FRACTION = TriangleWeightFn.custom(lambda x, y, z: Fraction(x * y * z + x + y + z, 7))
NO_VEC = [TriangleWeightFn.custom(g.fn) for g in FNS.values()] + [FRACTION]


def corpus():
    """300 random polygons, n 3..300, weights to 5, 100 and 10**4, plus staircases."""
    rng = random.Random(2021)
    for i in range(300):
        n = rng.randint(3, 300)
        hi = (5, 100, 10**4)[i % 3]
        yield Polygon(tuple(rng.randint(1, hi) for _ in range(n)))
    for half_n in (2, 3, 10, 50, 200):
        yield gen_staircase(half_n)


def sweep(poly, table, f):
    """_sweep with SWEEP_MIN_WIDTH and ROWS_FACTOR at 0: it sweeps whatever its cells per nest level and census."""
    with mock.patch.multiple(bst_solver, SWEEP_MIN_WIDTH=0, ROWS_FACTOR=0):
        return _sweep(poly, table, f)


def assert_sweep_matches_loop(poly, f):
    """Same visited and hit counts, and the loop's memo as the sweep's cells."""
    table = find_bridges_linear(poly)
    memo = {}
    counts = _search(poly, table, f, memo)
    visited, hits, keys, values, _ = sweep(poly, table, f)
    assert (visited, hits) == counts
    assert len(keys) == len(values) == visited
    assert dict(zip(keys.tolist(), values.tolist())) == memo


def walked(walk):
    """The sweep walk's optimum and its edge rows as a set of pairs."""
    opt, rows = walk()
    assert rows.shape[1:] == (2,) and (rows[:, 0] < rows[:, 1]).all()
    return opt, frozenset(map(tuple, rows.tolist()))


def assert_walks_agree(poly, f):
    """The sweep's walk and reconstruct_triangulation over its values: one optimum, one edge set."""
    table = find_bridges_linear(poly)
    _, _, keys, values, walk = sweep(poly, table, f)
    cells = dict(zip(keys.tolist(), values.tolist()))
    assert walked(walk) == reconstruct_triangulation(poly, table, f, cells.__getitem__)
    return values.dtype


FORCE = {
    "loop": {"SWEEP_MIN_N": 10**9},
    "sweep": {"SWEEP_MIN_N": 0, "SWEEP_MIN_WIDTH": 0, "ROWS_FACTOR": 0},
    "rows": {"SWEEP_MIN_N": 0, "SWEEP_MIN_WIDTH": 0, "ROWS_FACTOR": 10**9},
}


def forced(engine, poly, f):
    """solve_bst with the dispatch cutoffs patched so that this engine runs (rows: given any cells)."""
    with mock.patch.multiple(bst_solver, **FORCE[engine]):
        return solve_bst(poly, f)


def solve_both(poly, f):
    """solve_bst through the loop, then through the sweep."""
    loop, swept = forced("loop", poly, f), forced("sweep", poly, f)
    assert (loop[2].engine, swept[2].engine) == ("loop", "sweep")
    return loop, swept


def outcome(result):
    opt, tri, st = result
    return opt, tri.edges, st.visited_cones, st.memo_hits, st.total_cones, st.backend


@pytest.mark.parametrize("fname", ["mult", "add", "custom", "fraction"])
def test_rows_sweep_and_loop_agree(fname):
    # each engine forced: one optimum, edge set, visited_cones and memo_hits;
    # the rows run wherever the layout counts a cell
    f = FRACTION if fname == "fraction" else FNS[fname]
    for poly in [*corpus(), *map(gen_staircase, range(2, 41))]:
        rows, swept, loop = (forced(engine, poly, f) for engine in ("rows", "sweep", "loop"))
        assert outcome(rows) == outcome(swept) == outcome(loop)
        assert rows[2].engine == ("rows" if loop[2].visited_cones else "sweep")


@pytest.mark.parametrize("fname", ["mult", "add", "custom"])
def test_identity_corpus(fname):
    f = FNS[fname]
    f.ensure_monotonic()
    for poly in corpus():
        assert_sweep_matches_loop(poly, f)


def test_identity_through_solve_bst():
    rng = random.Random(7)
    polys = [gen_staircase(h) for h in (2, 3, 10, 50)]
    for hi in (5, 10**4) * 15:
        polys.append(Polygon(tuple(rng.randint(1, hi) for _ in range(rng.randint(3, 120)))))
    for poly in polys:
        for f in WEIGHT_FNS:
            loop, swept = solve_both(poly, f)
            assert outcome(swept) == outcome(loop)


@pytest.mark.parametrize("fname", ["mult", "custom"])
@pytest.mark.parametrize(
    "poly",
    [
        Polygon((2**20,) * 70),
        heavy_light(1, 60, 2**20),
        heavy_light(3, 40, 2**20),
        MIX_2_62,
        heavy_light(2, 60, 2**21 - 1000),
        Polygon((2**22,) * 70),
        heavy_light(3, 50, 2**22),
        Polygon((2**40, 1, 2, 2**40, 3, 4, 2**39)),
    ],
    ids=[
        "uniform-2^20",
        "mix-2^20-a",
        "mix-2^20-b",
        "mix-2^62",
        "mix-2^21",
        "uniform-2^22",
        "mix-2^22",
        "2^40",
    ],
)
def test_past_int64(poly, fname):
    # test_exact_engines' inputs, where the vector engines leave int64 for
    # object dtype mid-run or from the start; the sweep does so mid-run on
    # the first four and from the start on the rest
    f = FNS[fname]
    assert_sweep_matches_loop(poly, f)
    assert assert_walks_agree(poly, f) == object
    if poly is MIX_2_62:
        # valued and walked: the constants and two Z levels in int64, the other nine and the walk in
        # object dtype (A levels take their triangles from the constants)
        table = find_bridges_linear(poly)
        assert vec_dtypes(f, lambda g: sweep(poly, table, g)[4]()) == [("int64", 10), ("object", 30)]
    loop, swept = solve_both(poly, f)
    assert outcome(swept) == outcome(forced("rows", poly, f)) == outcome(loop)
    _, ts, _ = solve_yao(poly, fn_only(f))
    assert (swept[0], swept[1].edges) == (ts.weight, ts.edges)


def test_dispatch(monkeypatch):
    # each solve's visited cones, memo hits, census and engine, as pinned:
    # the polygon picks the engine, the weight function only its dtype
    fa = TriangleWeightFn.additive()
    plain = TriangleWeightFn.custom(lambda x, y, z: x + y + z)  # no vec
    at = gen_staircase(SWEEP_MIN_N // 2)  # about n / 2 cells per nest level, census 1.0025 x cells
    spread = gen_random(4 * SWEEP_MIN_N, 3)  # census 75 x cells
    cases = [
        (Polygon(at.weights[:-1]), fa, "hash", (316412, 315615, 318002, "loop")),
        (at, fa, "hash", (318004, 317206, 318801, "rows")),
        (at, fa, "dense", (318004, 317206, 318801, "loop")),
        (at, plain, "hash", (318004, 317206, 318801, "rows")),
        (spread, fa, "hash", (23362, 19105, 1743135, "sweep")),
        (spread, plain, "hash", (23362, 19105, 1743135, "sweep")),
    ]
    for poly, f, backend, want in cases:
        st = solve_bst(poly, f, backend=backend)[2]
        assert (st.visited_cones, st.memo_hits, st.total_cones, st.engine) == want
    in_int64, in_object = (outcome(solve_bst(at, g)) for g in (fa, plain))
    assert in_int64 == in_object  # backend "hash" and engine "rows" in both

    # exact non-integer values through the rows
    opt, tri, st = solve_bst(at, FRACTION)
    assert st.engine == "rows" and isinstance(opt, Fraction) and opt.denominator != 1
    assert opt == triangulation_weight(at, tri.edges, FRACTION)

    # exact non-integer values through the unpatched dispatch
    poly = gen_random(2 * SWEEP_MIN_N, 3)
    opt, tri, st = solve_bst(poly, FRACTION)
    assert st.engine == "sweep" and isinstance(opt, Fraction)
    assert opt == triangulation_weight(poly, tri.edges, FRACTION)
    monkeypatch.setattr(bst_solver, "SWEEP_MIN_N", 10**9)
    loop = solve_bst(poly, FRACTION)
    assert loop[2].engine == "loop"
    assert outcome(loop) == outcome((opt, tri, st))


def test_vec_never_sees_an_empty_array(monkeypatch):
    # np.vectorize without otypes raises ValueError on size-0 arrays, yet
    # passes ensure_monotonic, so the sweep must call vec on cells only
    def g(x, y, z):
        return x + y + z

    f = TriangleWeightFn.custom(g, vec=np.vectorize(g))
    poly = gen_random(2 * SWEEP_MIN_N, 3)
    swept = solve_bst(poly, f)
    assert swept[2].engine == "sweep"
    monkeypatch.setattr(bst_solver, "SWEEP_MIN_N", 10**9)
    assert outcome(swept) == outcome(solve_bst(poly, f))


@pytest.mark.parametrize(
    "weights",
    [range(1, 3001), [7] * 3000, [(i % 2) * 3000 + i + 1 for i in range(3000)]],
    ids=["sorted", "equal", "zigzag"],
)
def test_thin_polygons_take_the_loop(weights, monkeypatch):
    # nested n deep with a few cells per nest level: the loop is many times
    # faster, and the layout hands over before it lays out a cell,
    # in int64 (add's vec) and in object dtype (fn alone) alike
    poly = Polygon(tuple(weights))

    def chunks(*args):
        raise AssertionError("_chunks reached")

    monkeypatch.setattr(bst_solver, "_chunks", chunks)
    for f in (TriangleWeightFn.additive(), TriangleWeightFn.custom(lambda x, y, z: x + y + z)):
        opt, tri, st = solve_bst(poly, f)
        assert st.engine == "loop"
        assert st.visited_cones < 2 * poly.n
        want, ty, _ = solve_yao(poly, f)
        assert (opt, tri.edges) == (want, ty.edges)


def test_cells_are_the_visited_cones():
    poly = gen_random(60, 5)
    table = find_bridges_linear(poly)
    memo = {}
    _search(poly, table, FNS["add"], memo)
    keys = sweep(poly, table, FNS["add"])[2].tolist()
    n1 = poly.n + 1
    census = {x * n1 + k for x in range(poly.n) if table.left[x] >= 0 for k in range(n1)}
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(memo) < census


def _corrupt(kind, layout):
    """_layout with one fault planted in the per-node tables it returns."""

    def planted(*args):
        visited, hits, levels, node, start, base, keys, root_cells = layout(*args)
        n = len(args[0])
        has_1 = (base[1] < visited) & (start[:-1] < visited)  # a node with cells and a child 1
        i = int(np.flatnonzero(has_1)[0])
        if kind == "child":  # child 1 names the next cell, which holds another cone
            base[1, i] += 1
        elif kind == "unwritten":
            keys[start[i]] = -1
        elif kind == "twice":  # one cone written into two slots, the second one's own lost
            keys[base[1, i]] = keys[start[i]]
        elif kind == "apex":  # slot 0 of a Z row's Z child 1 holds another apex than the row's: k becomes k % n + 1
            c = base[1, n + int(np.flatnonzero(has_1[n:])[0])]
            keys[c] += keys[c] % (n + 1) % n + 1 - keys[c] % (n + 1)
        elif kind == "level":  # levels 0 and 2 (A nodes, say) trade places, each node's run of cells moved whole
            ends, swap = np.append(start[node], visited), [2, 1, 0, *range(3, len(levels) - 1)]
            node = np.concatenate([node[levels[i] : levels[i + 1]] for i in swap])
            levels = [0, *np.cumsum(np.diff(levels)[swap]).tolist()]
            old = np.concatenate([np.arange(start[x], ends[np.searchsorted(ends, start[x], side="right")]) for x in node])
            moved = np.append(np.empty(visited, np.int64), visited)  # each cell's new place; the absent child's stays
            moved[old] = np.arange(visited)
            start, base, keys, root_cells = moved[start], moved[base], keys[old], moved[root_cells]
        else:  # "orphan": the roots' cells go missing, so no cell names them
            root_cells = root_cells[:0]
        return visited, hits, levels, node, start, base, keys, root_cells

    return planted


FAULTS = {
    "child": "wrong child",
    "unwritten": "wrote no cone",
    "twice": "wrong child",
    "apex": "different apexes",
    "level": "child . in level",
    "orphan": "no cell's child",
}


@pytest.mark.parametrize("kind", sorted(FAULTS))
@pytest.mark.parametrize("poly", [gen_random(60, 5), gen_staircase(8)], ids=["random", "staircase"])
def test_corrupt_layout_raises(poly, kind, monkeypatch):
    # _check_layout proves the laid-out cells are the cone graph before any is valued
    table = find_bridges_linear(poly)
    monkeypatch.setattr(bst_solver, "_layout", _corrupt(kind, bst_solver._layout))
    with pytest.raises(SolverInvariantError, match=FAULTS[kind]):
        sweep(poly, table, FNS["add"])


@st.composite
def root_shapes(draw):
    """A random, tie-heavy (weights to 30) or rotated staircase polygon, v1 and v2 adjacent or not as drawn.

    When the drawn polygon has the other root shape, two of its nodes are made
    the two lightest, next to each other or apart.
    """
    kind = draw(st.sampled_from(["random", "ties", "staircase"]))
    if kind == "staircase":
        w = list(gen_staircase(draw(st.integers(2, 40))).weights)
    else:
        w = draw(st.lists(st.integers(1, 30 if kind == "ties" else 10**4), min_size=4, max_size=90))
    n = len(w)
    turn = draw(st.integers(0, n - 1))
    w = w[turn:] + w[:turn]
    adjacent = draw(st.booleans())
    v1, v2 = Polygon(tuple(w)).rank[:2]
    if ((v2 - v1) % n in (1, n - 1)) != adjacent:
        i = draw(st.integers(0, n - 1))
        j = (i + draw(st.sampled_from([1, n - 1]) if adjacent else st.integers(2, n - 2))) % n
        w = [x + 2 for x in w]
        w[i], w[j] = 1, 2
    poly = Polygon(tuple(w))
    v1, v2 = poly.rank[:2]
    assert ((v2 - v1) % n in (1, n - 1)) == adjacent
    return poly


@settings(deadline=None, max_examples=150)
@given(poly=root_shapes(), f=st.sampled_from(WEIGHT_FNS))
def test_sweep_equals_loop_on_both_root_shapes(poly, f):
    # the closed-form layout holds exactly the loop's memo: keys, values, visited and hits
    f.ensure_monotonic()
    assert_sweep_matches_loop(poly, f)


@pytest.mark.parametrize("fname", ["mult", "add", "custom"])
def test_walks_agree_corpus(fname):
    f = FNS[fname]
    f.ensure_monotonic()
    for poly in corpus():
        assert_walks_agree(poly, f)


@settings(deadline=None, max_examples=40)
@given(weights=st.lists(st.integers(2**18, 2**22), min_size=3, max_size=60))
def test_walks_agree_past_int64(weights):
    # a node of 2**21 or more makes one triangle reach 2**63: object dtype throughout
    dtype = assert_walks_agree(Polygon(tuple(weights)), FNS["mult"])
    assert dtype == object or max(weights) < 2**21


@pytest.mark.parametrize("poly", [gen_random(60, 5), gen_staircase(8)], ids=["random", "staircase"])
def test_walk_refuses_a_corrupt_cell(poly):
    # a walked cell whose value its branch does not give raises; any other is never read
    f = FNS["add"]
    table = find_bridges_linear(poly)
    _, _, _, values, walk = sweep(poly, table, f)
    clean = walked(walk)
    raised = 0
    for i in range(len(values)):
        values[i] += 1
        try:
            assert walked(walk) == clean
        except SolverInvariantError as exc:
            assert "reproduces its solved value" in str(exc)
            raised += 1
        values[i] -= 1
    # at least the cells that give an edge, all but the root's
    assert raised >= poly.n - 3 - len(_root(poly, table.lc, table.rc, f)[0])


@pytest.mark.parametrize("store", ["loop", "rows"])
@pytest.mark.parametrize("poly", [gen_random(60, 5), gen_staircase(8)], ids=["random", "staircase"])
def test_keyed_walk_refuses_a_corrupt_value(poly, store):
    # a value read whose cone's record does not give it raises; any other read leaves the walk as it was
    f = FNS["add"]
    table = find_bridges_linear(poly)
    if store == "loop":
        memo = {}
        _search(poly, table, f, memo)
        get = memo.__getitem__
    else:
        get = yao_rows(poly, table, f)
    read = []
    clean = reconstruct_triangulation(poly, table, f, lambda key: read.append(key) or get(key))
    raised = 0
    for bad in dict.fromkeys(read):
        try:
            assert reconstruct_triangulation(poly, table, f, lambda key: get(key) + (key == bad)) == clean
        except SolverInvariantError as exc:
            assert "reproduces its solved value" in str(exc)
            raised += 1
    # at least the cones that give an edge, all but the root's
    assert raised >= poly.n - 3 - len(_root(poly, table.lc, table.rc, f)[0])


@settings(deadline=None, max_examples=60)
@given(
    weights=st.lists(
        st.one_of(st.integers(1, 64), st.integers(2**18, 2**22)), min_size=3, max_size=60
    ),
    f=st.one_of(
        st.sampled_from([FNS[name] for name in sorted(FNS)] + NO_VEC),
        random_piece_sums,
        random_piece_sums.map(lambda g: TriangleWeightFn.custom(g.fn)),
    ),
)
def test_sweep_equals_loop(weights, f):
    # with vec in watched int64, without it fn in object dtype
    poly = Polygon(tuple(weights))
    f.ensure_monotonic()
    assert_sweep_matches_loop(poly, f)
    assert_walks_agree(poly, f)
