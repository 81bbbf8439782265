"""The op-output checker, and BENCHMARK.json's workloads against the code."""

import json

from checks import check_solutions
from polytri import Polygon, TriangleWeightFn, solve_bst, triangulation_weight

import run
from workloads import WORKLOADS

POLY = Polygon((5, 3, 8, 2, 9, 4, 7))
F = TriangleWeightFn.multiplicative()


def reweigh(edges):
    return triangulation_weight(POLY, edges, F)


def good():
    opt, tri, _ = solve_bst(POLY, F)
    return opt, sorted(tri.edges)


def test_correct_solutions_pass():
    opt, edges = good()
    assert check_solutions(POLY, [("a", opt, edges), ("b", opt, edges)], reweigh) == []


def test_wrong_weight_fails():
    opt, edges = good()
    reasons = check_solutions(POLY, [("a", opt + 1, edges)], reweigh)
    assert len(reasons) == 1 and "re-evaluated" in reasons[0]


def test_invalid_edge_sets_fail():
    opt, edges = good()
    crossing = [(0, 2), (1, 3), (0, 3), (0, 4)]
    short = edges[:-1]
    out_of_range = edges[:-1] + [(0, 99)]
    for bad in (crossing, short, out_of_range):
        reasons = check_solutions(POLY, [("a", opt, bad)], reweigh)
        assert len(reasons) == 1 and "invalid edge set" in reasons[0], bad


def test_disagreement_fails_even_when_each_result_is_self_consistent():
    opt, edges = good()
    other = [(0, 2), (0, 3), (0, 4), (0, 5)]
    reasons = check_solutions(POLY, [("a", opt, edges), ("b", reweigh(other), other)], reweigh)
    assert len(reasons) == 1 and reasons[0].startswith("solver disagreement")


def test_benchmark_json_names_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
