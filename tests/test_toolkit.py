"""Benchmark harness: grid runs, CSV round trips, skips, growth summaries."""

import io

import pytest

import polytri.toolkit as toolkit
from polytri import (
    BenchRecord,
    CSV_COLUMNS,
    TriangleWeightFn,
    child_seed,
    gen_random,
    growth_summary,
    read_csv,
    run_bench,
    solve_bst,
    write_csv,
)


def make_record(**kw):
    base = dict(
        n=10,
        trial=0,
        algo="bst",
        weight_fn="add",
        memo="hash",
        visited_cones=12,
        total_cones=20,
        elapsed_ns=1000,
        optimal_weight=99,
    )
    base.update(kw)
    return BenchRecord(**base)


class TestChildSeed:
    def test_deterministic_and_cell_unique(self):
        seen = set()
        for n in (4, 10, 64):
            for trial in range(8):
                s = child_seed(7, n, trial)
                assert s == child_seed(7, n, trial)
                assert s not in seen
                seen.add(s)
        assert child_seed(7, 10, 0) != child_seed(8, 10, 0)


class TestRunBench:
    def test_grid_shape_and_values(self):
        report = io.StringIO()
        records = run_bench((6, 12), trials=2, seed=3, report=report)
        # 2 sizes x 2 trials x 3 default algos
        assert len(records) == 12
        assert report.getvalue() == ""
        for rec in records:
            assert rec.algo in ("bst", "yao", "dp3")
            assert rec.weight_fn == "add"
            poly = gen_random(rec.n, child_seed(3, rec.n, rec.trial))
            want = solve_bst(poly, TriangleWeightFn.additive())[0]
            assert rec.optimal_weight == want

    def test_cap_skips_are_reported(self, monkeypatch):
        monkeypatch.setattr(toolkit, "DP3_CAP", 8)
        monkeypatch.setattr(toolkit, "YAO_CAP", 8)
        report = io.StringIO()
        records = run_bench((6, 12), trials=1, seed=0, report=report)
        assert [r.algo for r in records] == ["bst", "yao", "dp3", "bst"]
        lines = report.getvalue().splitlines()
        assert "# skip n=12 trial=0 algo=dp3 reason=cap=8" in lines
        assert "# skip n=12 trial=0 algo=yao reason=cap=8" in lines

    def test_heuristic_skipped_under_non_additive_f(self):
        report = io.StringIO()
        records = run_bench(
            (8,),
            trials=1,
            seed=1,
            algos=("bst", "heuristic"),
            f=TriangleWeightFn.multiplicative(),
            report=report,
        )
        assert [r.algo for r in records] == ["bst"]
        assert "algo=heuristic reason=weight-fn=mult" in report.getvalue()

    def test_heuristic_joins_additive_runs(self):
        records = run_bench((8,), trials=2, seed=1, algos=("bst", "heuristic"))
        heur = [r for r in records if r.algo == "heuristic"]
        exact = {(r.n, r.trial): r.optimal_weight for r in records if r.algo == "bst"}
        assert len(heur) == 2
        for rec in heur:
            assert rec.optimal_weight >= exact[(rec.n, rec.trial)]
            assert rec.memo == "-" and rec.visited_cones == 0

    def test_staircase_kind(self):
        report = io.StringIO()
        records = run_bench(
            (6, 7), trials=3, seed=0, algos=("bst",), kind="staircase", report=report
        )
        # n=6 runs once per trial on the same instance; odd n=7 whole size skipped
        assert [(r.n, r.trial) for r in records] == [(6, 0), (6, 1), (6, 2)]
        assert len({r.optimal_weight for r in records}) == 1
        assert "# skip n=7 reason=staircase-needs-even-n" in report.getvalue()

    def test_rejects_unknown_kind_and_algo(self):
        with pytest.raises(ValueError, match="unknown instance kind"):
            run_bench((6,), trials=1, seed=0, kind="spiral", report=io.StringIO())
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_bench((6,), trials=1, seed=0, algos=("bst", "qp"), report=io.StringIO())

    def test_solver_disagreement_raises(self, monkeypatch):
        real = toolkit._run_one

        def lying(poly, n, trial, algo, f):
            rec = real(poly, n, trial, algo, f)
            if algo == "yao":
                return BenchRecord(
                    n, trial, algo, rec.weight_fn, rec.memo, rec.visited_cones,
                    rec.total_cones, rec.elapsed_ns, rec.optimal_weight + 1,
                )
            return rec

        monkeypatch.setattr(toolkit, "_run_one", lying)
        with pytest.raises(RuntimeError, match="solver disagreement at n=6 trial=0"):
            run_bench((6,), trials=1, seed=0, report=io.StringIO())


class TestCsv:
    def test_round_trip_file(self, tmp_path):
        path = str(tmp_path / "bench.csv")
        records = run_bench((6,), trials=2, seed=9, report=io.StringIO())
        write_csv(records, path)
        assert read_csv(path) == records

    def test_round_trip_stream(self):
        records = [make_record(), make_record(trial=1, algo="yao", memo="scalar")]
        buf = io.StringIO()
        write_csv(records, buf)
        buf.seek(0)
        assert read_csv(buf) == records

    def test_header_is_mandatory(self):
        buf = io.StringIO()
        write_csv([make_record()], buf)
        body = buf.getvalue().splitlines()[1:]  # drop the header
        with pytest.raises(ValueError, match="malformed bench CSV header"):
            read_csv(io.StringIO("\n".join(body) + "\n"))

    def test_rejects_short_rows(self):
        text = ",".join(CSV_COLUMNS) + "\n6,0,bst\n"
        with pytest.raises(ValueError, match="fields"):
            read_csv(io.StringIO(text))


class TestGrowthSummary:
    def test_normalized_columns(self):
        records = [
            make_record(n=10, trial=t, visited_cones=100 + t) for t in range(2)
        ] + [make_record(n=100, trial=t, visited_cones=10_000 - t) for t in range(2)]
        out = growth_summary(records)
        (rows,) = out.values()
        assert [r["n"] for r in rows] == [10.0, 100.0]
        assert rows[0]["mean_visited"] == 100.5
        assert rows[1]["mean_visited"] == 9999.5
        assert rows[1]["per_n2"] == pytest.approx(0.99995)
        assert rows[0]["per_n_log2_n"] == pytest.approx(100.5 / (10 * 3.321928), rel=1e-6)

    def test_requires_a_decade_of_sizes(self):
        records = [make_record(n=10), make_record(n=50)]
        with pytest.raises(ValueError, match="spanning a decade"):
            growth_summary(records)

    def test_real_run_grows_like_the_census_for_yao(self):
        records = run_bench((10, 100), trials=2, seed=4, algos=("yao",), report=io.StringIO())
        (rows,) = growth_summary(records).values()
        for row, rec_n in zip(rows, (10, 100)):
            per_cell = [
                r.visited_cones / r.total_cones for r in records if r.n == rec_n
            ]
            assert all(x == 1.0 for x in per_cell)
            assert 0 < row["per_n2"] <= 0.5  # census is at most ~n^2/2
