"""The library bindings the benchmark wraps or imports still exist.

perfbench/layers.py replaces module attributes with timing wrappers and
perfbench/workloads.py and checks.py import library names, so renaming or
removing one of them breaks the benchmark's traced run without failing any
library test. The solvers must also call reconstruction through their own
module binding, or the wrapper sees nothing.
"""

import importlib
import operator

import pytest

from polytri import Polygon, TriangleWeightFn

WRAPPED = [
    ("polytri.bst_solver", "reconstruct_triangulation"),
    ("polytri.yao_solver", "reconstruct_triangulation"),
    ("polytri.bst_solver", "expand_cone"),
    ("polytri.bst_solver", "find_bridges_linear"),
    ("polytri.yao_solver", "find_bridges_linear"),
    ("polytri.cli", "solve_dp_cubic"),
    ("polytri.cli", "solve_yao"),
    ("polytri.cli", "solve_bst"),
    ("polytri.cli", "chain_to_polygon"),
    ("polytri.cli", "triangulation_to_parenthesization"),
    ("polytri.core", "TriangleWeightFn.ensure_monotonic"),
]
IMPORTED = [
    ("polytri.baselines", "solve_dp_cubic"),
    ("polytri.bst_solver", "solve_bst"),
    ("polytri.yao_solver", "solve_yao"),
    ("polytri.cli", "main"),
    ("polytri.core", "Polygon"),
    ("polytri.core", "TriangleWeightFn"),
    ("polytri.core", "int64_safe"),
    ("polytri.core", "triangulation_weight"),
    ("polytri.core", "validate_triangulation"),
    ("polytri.core", "Edge"),
    ("polytri.generators", "gen_random"),
    ("polytri.generators", "gen_random_chain"),
    ("polytri.generators", "gen_staircase"),
    ("polytri.matrix_chain", "format_chain"),
    ("polytri.matrix_chain", "parenthesization_cost"),
    ("polytri.toolkit", "child_seed"),
]


@pytest.mark.parametrize("module, name", WRAPPED + IMPORTED)
def test_binding_exists(module, name):
    assert operator.attrgetter(name)(importlib.import_module(module)) is not None


@pytest.mark.parametrize("module", ["polytri.bst_solver", "polytri.yao_solver"])
def test_solver_reconstructs_through_its_module_binding(module, monkeypatch):
    mod = importlib.import_module(module)
    real = mod.reconstruct_triangulation
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mod, "reconstruct_triangulation", spy)
    solve = mod.solve_bst if module.endswith("bst_solver") else mod.solve_yao
    opt, _, _ = solve(Polygon((1, 2, 5, 3)), TriangleWeightFn.multiplicative())
    assert opt == 25
    assert len(calls) == 1
