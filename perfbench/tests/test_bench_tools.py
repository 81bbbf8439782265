"""The bit-for-bit self-check and the host guard of the comparison step."""

import json

import compare
import selfcheck

HOST = {"nproc": 2, "cpu_count": 2, "cpu_model": "X", "python": "3.11.7", "numpy": "2.4.6",
        "commit": "a", "src_sha256": "b"}


def result(weights, host=HOST, value=1.0):
    ops = [{"op": i, "weights": [w], "bst_stats": [1, 2, 3]} for i, w in enumerate(weights)]
    return {"host": host, "workload": "w", "ops": ops,
            "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}}


def test_selfcheck_compares_the_ops_both_runs_completed():
    assert selfcheck.compare(result([5, 6, 7]), result([5, 6])) == (2, [])
    n, diffs = selfcheck.compare(result([5, 6]), result([5, 9, 7]))
    assert n == 2 and len(diffs) == 1 and diffs[0].startswith("op 1 leg 0")


def test_compare_refuses_results_from_different_hosts(tmp_path, capsys):
    other = dict(HOST, cpu_model="Y")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result([1])))
    b.write_text(json.dumps(result([1], host=other)))
    assert compare.main(["--base", str(a), "--head", str(b)]) == 2
    assert "different hosts" in capsys.readouterr().err
    assert compare.main(["--base", str(a), "--head", str(a)]) == 0
    assert "op_p50_ms" in capsys.readouterr().out


def test_compare_ignores_commit_and_source_hash():
    assert compare.host_of(result([1])) == compare.host_of(
        result([1], host=dict(HOST, commit="c", src_sha256="d")))


def test_layer_rollup_skips_calls_that_raised():
    import layers
    from tracing import Span, self_times

    spans = [
        Span("op", 0, 100, -1, op=0),
        Span(layers.BST, 10, 60, 0, op=0,
             attrs={"backend": "hash", "visited": 5, "hits": 3, "census": 10}),
        Span(layers.BST, 60, 90, 0, op=0),  # raised: no stats
    ]
    per_op = layers.exact_counts(spans, {(0, layers.EXPAND): 2})
    assert per_op[0]["bst_solver.visited_cones"] == 5 and per_op[0][layers.EXPAND] == 2
    m = layers.layer_metrics(spans, self_times(spans), per_op, [0])
    assert m["bst_solver.hash_ms"] == 50 / 1e6
    assert m["bst_solver.search_ms"] == 80 / 1e6
    assert m["bst_solver.visited_frac"] == 0.5


def test_layer_rollup_leaves_deferred_checks_to_the_checking_layers():
    import layers
    from tracing import Span, self_times

    spans = [
        Span("op", 0, 100, -1, op=0),
        Span("bridges.find", 10, 20, 0, op=0, attrs={"count": 4, "census": 9}),
        Span("check", 100, 200, -1, op=0),
        Span(layers.YAO, 110, 150, 2, op=0,
             attrs={"backend": "vector", "visited": 0, "hits": 0, "census": 9}),
        Span("bridges.find", 120, 130, 3, op=0, attrs={"count": 4, "census": 9}),
        Span("core.validate", 150, 170, 2, op=0),
    ]
    per_op = layers.exact_counts(spans, {})
    assert per_op[0]["bridges.count"] == 4 and per_op[0]["bridges.census"] == 9
    m = layers.layer_metrics(spans, self_times(spans), per_op, [0])
    assert m["bridges.find_ms"] == 10 / 1e6
    assert m["yao_solver.sweep_ms"] == 0 and m["yao_solver.vector_frac"] == 0
    assert m["core.validate_ms"] == 20 / 1e6
