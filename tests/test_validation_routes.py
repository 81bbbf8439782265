"""The two routes that read an edge set: the numpy pass and the Python sweep.

From ``core.PASS_MIN_N`` nodes on, ``validate_triangulation``,
``require_valid``, ``list_triangles`` and ``triangulation_weight`` try the
sorted numpy pass first and hand every edge set it does not accept to the
sweep. These tests force each route by patching the crossover and require
the same public answers, errors and messages from both. A Triangulation
built from a solver's int64 rows hands the pass its rows as they are; the
rows tests require the answers of the same edges given as tuples.
"""

import copy
import pickle
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import (
    Polygon,
    TriangleWeightFn,
    Triangulation,
    list_triangles,
    norm_edge,
    require_valid,
    solve_bst,
    triangulation_weight,
    validate_triangulation,
)
from polytri import core
from polytri.generators import gen_random

FNS = {
    "mult": TriangleWeightFn.multiplicative(),
    "add": TriangleWeightFn.additive(),
    "custom": TriangleWeightFn.product_plus_sum(),
    "fraction": TriangleWeightFn.custom(lambda x, y, z: Fraction(x * y * z + x + y + z, 7)),
}
ROUTES = {"pass": 3, "sweep": 10**9}  # PASS_MIN_N that forces each route


def ear_cut(n: int, rng: random.Random) -> list[tuple[int, int]]:
    ring, edges = list(range(n)), []
    while len(ring) > 3:
        i = rng.randrange(len(ring))
        a, c = ring[i - 1], ring[(i + 1) % len(ring)]
        if (c - a) % n not in (1, n - 1):
            edges.append(norm_edge(a, c))
        ring.pop(i)
    rng.shuffle(edges)
    return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]


def as_rows(pairs) -> np.ndarray:
    return np.array(list(pairs), np.int64).reshape(-1, 2)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # both routes must fail alike, so any exception is the answer
        return type(exc), str(exc)


def answers(poly: Polygon, make_edges) -> list:
    """Every public reading of the edge set; ``make_edges`` gives a fresh copy each time."""
    out = [
        outcome(validate_triangulation, poly, make_edges()),
        outcome(require_valid, poly, make_edges()),
        outcome(list_triangles, poly, make_edges()),
    ]
    out += [outcome(triangulation_weight, poly, make_edges(), f) for f in FNS.values()]
    return out


def on_route(route: str, poly: Polygon, make_edges) -> list:
    with mock.patch.object(core, "PASS_MIN_N", ROUTES[route]):
        return answers(poly, make_edges)


@contextmanager
def counted_sweeps():
    """A list that gains one entry per ``core._sweep`` call inside the block."""
    calls = []
    sweep = core._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    with mock.patch.object(core, "_sweep", counted):
        yield calls


@contextmanager
def counted_reads():
    """A list that gains one entry per ``core._sweep`` or ``array("q")`` call inside the block."""
    calls = []
    read = core.array

    def counted(*args):
        calls.append("array")
        return read(*args)

    with counted_sweeps() as sweeps, mock.patch.object(core, "array", counted):
        yield calls
    calls += sweeps


@settings(deadline=None, max_examples=150)
@given(
    n=st.integers(3, 300),
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["valid", "perturbed", "random"]),
)
def test_routes_agree(n, seed, kind):
    rng = random.Random(seed)
    poly = Polygon(tuple(rng.randint(1, 10**4) for _ in range(n)))
    edges = ear_cut(n, rng)
    if kind == "perturbed" and edges:
        # any pair near the range: degenerate, out of range, a side, a crossing or a repeat
        edges[rng.randrange(len(edges))] = (rng.randint(-1, n), rng.randint(-1, n))
    elif kind == "random":
        edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(n - 3 + rng.randint(-1, 1))]
        if edges and rng.random() < 0.2:
            edges[rng.randrange(len(edges))] = rng.choice([(0, 2.5), ("2", 0), (Fraction(2), 0)])
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    if kind == "valid":
        with counted_sweeps() as calls:
            assert on_route("pass", poly, lambda: list(edges)) == fast
        assert fast[0].ok and calls == []


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "edges, error",
    [
        ([(0, 2), (2, 2), (0, 4)], "degenerate edge (2, 2)"),
        ([(0, 2), (0, 3), (0, 6)], "edge (0, 6) out of range for n=6"),
        ([(0, 2), (-1, 3), (0, 4)], "edge (-1, 3) out of range for n=6"),
        # keyed as -1 * 6 + 10, it would read as the chord (0, 4)
        ([(0, 2), (0, 3), (-1, 10)], "edge (-1, 10) out of range for n=6"),
        ([(0, 2), (0, 3), (0, 2**70)], f"edge (0, {2**70}) out of range for n=6"),
        ([(0, 2), (0, 2.5), (0, 4)], "edge (0, 2.5) has an endpoint that is not an integer"),
        ([(0, 2), ("2", 0), (0, 4)], "edge ('2', 0) has an endpoint that is not an integer"),
    ],
)
def test_bad_endpoints_raise_alike(route, edges, error):
    poly = Polygon((3, 1, 4, 1, 5, 9))
    for got in on_route(route, poly, lambda: list(edges)):
        assert got == (ValueError, error)
    if all(type(v) is int and abs(v) < 2**63 for e in edges for v in e):  # as int64 rows too
        for got in on_route(route, poly, lambda: Triangulation(as_rows(edges), 0)):
            assert got == (ValueError, error)


@pytest.mark.parametrize("bad", [2.5, "2", np.float64(2.0)], ids=["float", "str", "np-float"])
def test_pass_never_truncates_an_endpoint(bad):
    # read as 2, the set {(0, 2), (0, 3), (0, 4)} would triangulate the hexagon
    poly = Polygon((1,) * 6)
    assert core._pass(poly, [(0, bad), (0, 3), (0, 4)]) is None
    assert core._pass(poly, [(0, 2), (0, 3), (0, 4)]) is not None


@pytest.mark.parametrize("route", ROUTES)
def test_iterator_is_read_once(route):
    poly = gen_random(40, 3)
    edges = list(solve_bst(poly, FNS["add"])[1].edges)
    crossing = edges[:-1] + [(edges[-1][0] + 1, edges[-1][1] + 1)]
    for given_edges in (edges, crossing, edges[:-1]):
        assert on_route(route, poly, lambda: iter(given_edges)) == on_route(
            "sweep", poly, lambda: list(given_edges)
        )


@pytest.mark.parametrize(
    "edges, taken",
    [
        ([(np.int64(0), np.int32(2)), (np.int16(0), 3), (4, np.uint8(0))], True),
        ([(False, 2), (0, True), (0, 4)], False),  # (0, True) is a side
        ([(False, 2), (3, False), (False, 4)], True),
        ([(True, False), (0, 3), (0, 4)], False),
        ([(np.int64(0), np.int64(2)), (np.int64(0), np.int64(3)), (np.int64(5), np.int64(1))], False),
    ],
    ids=["numpy-ints", "bool-side", "bool-valid", "all-bool-pair", "numpy-crossing"],
)
def test_numpy_and_bool_endpoints(edges, taken):
    # numpy integers and bools are integers to both routes; the pass takes a valid set of them
    poly = Polygon((2, 7, 1, 8, 2, 8))
    assert (core._pass(poly, edges) is not None) == taken
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    for got in fast[1:3]:  # require_valid and list_triangles give Python ints on both routes
        if isinstance(got, set):
            assert all(type(v) is int for t in got for v in t)


@pytest.mark.parametrize(
    "edges", [[(0, 2, 0), (3,), (0, 4)], [(0, 2), (0, 3), [0, 4, 5]]], ids=["3+1", "3"]
)
def test_pairs_of_other_lengths_are_handed_to_the_sweep(edges):
    # flattened, the first reads as the fan {(0, 2), (0, 3), (0, 4)}
    poly = Polygon((1,) * 6)
    assert core._pass(poly, edges) is None
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    assert fast[0][0] is ValueError


def test_repeated_edge_is_handed_to_the_sweep():
    poly = Polygon((1,) * 6)
    repeated = [(0, 2), (0, 3), (0, 4), (4, 0)]  # n - 2 entries, n - 3 distinct
    assert core._pass(poly, repeated) is None
    assert validate_triangulation(poly, repeated).ok
    short = [(0, 2), (0, 3), (3, 0)]  # n - 3 entries, n - 4 distinct
    assert core._pass(poly, short) is None
    for edges in (repeated, short):
        assert on_route("pass", poly, lambda: list(edges)) == on_route("sweep", poly, lambda: list(edges))
        assert on_route("pass", poly, lambda: Triangulation(as_rows(edges), 0)) == on_route("sweep", poly, lambda: list(edges))


@pytest.mark.parametrize(
    "weights, edges",
    [
        ((5, 6, 7), []),
        ((5, 6, 7), [(0, 1)]),
        ((5, 6, 5, 1), [(0, 2)]),
        ((5, 6, 5, 1), [(3, 1)]),
        ((5, 6, 5, 1), [(3, 0)]),
        ((5, 6, 5, 1), [(0, 2), (1, 3)]),
        ((5, 6, 5, 1), []),
    ],
)
def test_smallest_polygons(weights, edges):
    poly = Polygon(weights)
    fast = on_route("pass", poly, lambda: list(edges))
    assert fast == on_route("sweep", poly, lambda: list(edges))
    if poly.n == 3 and not edges:
        assert fast[0].ok and fast[2] == {(0, 1, 2)} and fast[4] == 18


def test_large_witness_never_reaches_the_sweep():
    # random n = 5000 is far above the crossover and takes the BST sweep: its witness goes to the
    # Triangulation as int64 rows, and the pass alone validates and re-weighs them, with no
    # frozenset, no array("q") read and no sweep; from its edge set, as well
    poly = gen_random(5000, 11)
    f = FNS["add"]
    opt, tri, stats = solve_bst(poly, f)
    assert stats.engine == "sweep" and tri.rows.shape == (poly.n - 3, 2) and "edges" not in vars(tri)
    with counted_reads() as calls:
        assert validate_triangulation(poly, tri).ok
        assert triangulation_weight(poly, tri, f) == opt
        assert require_valid(poly, tri) == set(map(tuple, tri.rows.tolist()))
        assert len(list_triangles(poly, tri)) == poly.n - 2
    assert calls == [] and "edges" not in vars(tri)
    with counted_reads() as calls:
        assert validate_triangulation(poly, tri.edges).ok
        assert require_valid(poly, tri.edges) == tri.edges
        assert len(list_triangles(poly, tri.edges)) == poly.n - 2
        assert triangulation_weight(poly, tri.edges, f) == opt
    assert calls == []


@settings(deadline=None, max_examples=120)
@given(
    n=st.integers(24, 300),
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["valid", "perturbed", "side", "crossing", "repeat", "extra", "short", "random"]),
)
def test_rows_and_tuples_agree(n, seed, kind):
    # the rows route answers, raises and words its errors as the tuples do, falling back to the sweep alike
    rng = random.Random(seed)
    poly = Polygon(tuple(rng.randint(1, 10**4) for _ in range(n)))
    edges = ear_cut(n, rng)
    i = rng.randrange(len(edges))
    if kind == "perturbed":
        edges[i] = (rng.randint(-1, n), rng.randint(-1, n))
    elif kind == "side":
        a = rng.randrange(n)
        edges[i] = (a, (a + 1) % n)
    elif kind == "crossing":
        a, b = norm_edge(*edges[i])
        edges[i] = (a + 1, (b + 1) % n)
    elif kind == "repeat":
        edges[i] = edges[i - 1][::-1]
    elif kind == "extra":  # n - 2 rows, n - 3 distinct edges: a valid set
        edges.append(edges[i][::-1])
    elif kind == "short":
        edges.pop(i)
    elif kind == "random":
        edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(n - 3 + rng.randint(-1, 1))]
    rows = as_rows(edges)
    from_rows = answers(poly, lambda: Triangulation(rows, 0))
    assert from_rows == answers(poly, lambda: Triangulation(edges, 0))
    assert from_rows == answers(poly, lambda: Triangulation(rows, 0).edges)
    if kind == "valid":
        with counted_reads() as calls:
            assert answers(poly, lambda: Triangulation(rows, 0)) == from_rows
        assert from_rows[0].ok and calls == []


@settings(deadline=None, max_examples=60)
@given(n=st.integers(3, 300), seed=st.integers(0, 2**32), weight=st.integers(0, 10**9))
def test_rows_triangulation_equals_the_tuples_one(n, seed, weight):
    rng = random.Random(seed)
    edges = ear_cut(n, rng)
    if edges and rng.random() < 0.3:
        edges[0] = (rng.randint(-1, n), rng.randint(-1, n))  # any pair: the edge set is the same rule's
    from_rows, from_pairs = Triangulation(as_rows(edges), weight), Triangulation(edges, weight)
    assert "edges" not in vars(from_rows)
    assert from_rows.edges == from_pairs.edges and type(from_rows.edges) is core.EdgeSet
    assert all(type(v) is int for e in from_rows.edges for v in e)
    assert from_rows == from_pairs and hash(from_rows) == hash(from_pairs)
    assert from_rows.weight == from_pairs.weight == weight
    assert from_rows.edges.rows is from_rows.rows and from_pairs.rows is None


def test_kept_rows_are_read_only():
    given_rows = as_rows([(0, 2), (0, 3), (0, 4)])
    tri = Triangulation(given_rows, 9)
    given_rows[0] = (1, 5)  # the caller's array stays the caller's
    assert tri.edges == {(0, 2), (0, 3), (0, 4)}
    copies = [copy.copy(tri), copy.deepcopy(tri), pickle.loads(pickle.dumps(tri))]
    for rows in [tri.rows, tri.edges.rows] + [c.rows for c in copies]:
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
    assert copies == [tri] * 3


def test_derived_sets_carry_no_rows():
    poly = gen_random(60, 4)
    _, tri, _ = solve_bst(poly, FNS["add"])
    tri = Triangulation(as_rows(sorted(tri.edges)), tri.weight)
    edges = tri.edges
    derived = [edges | set(), edges - set(), edges & edges, edges.copy(), copy.copy(edges), copy.deepcopy(edges)]
    derived.append(pickle.loads(pickle.dumps(edges)))
    for d in derived:
        assert type(d) is frozenset and d == edges
        with counted_reads() as calls:
            assert validate_triangulation(poly, d).ok
        assert calls == ["array"]  # today's route: read by array("q"), accepted by the pass


@pytest.mark.parametrize(
    "given_rows",
    [np.array([[0, 2], [0, 3], [0, 4]], np.int32), np.array([[0, 2], [0, 3], [0, 4.5]]), np.array([0, 2, 0, 3])],
    ids=["int32", "float", "flat"],
)
def test_other_arrays_are_read_pair_by_pair(given_rows):
    # only (k, 2) int64 rows are kept; any other array is read as it was, one item at a time
    got = outcome(Triangulation, given_rows, 0)
    assert got == outcome(Triangulation, list(given_rows), 0)
    if isinstance(got, Triangulation):
        assert got.rows is None and type(got.edges) is frozenset
