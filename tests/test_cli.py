"""CLI: golden outputs per subcommand, error paths, console-script smoke."""

import io
import subprocess
import sys

import pytest

from polytri import bst_solver, cli, gen_random, read_csv
from polytri.cli import main

QUAD = "4\n1 2 5 3\n"
CHAIN3 = "3\n10 20 30 40\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


@pytest.fixture
def quad_file(tmp_path):
    path = tmp_path / "quad.txt"
    path.write_text(QUAD)
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN3)
    return str(path)


class TestSolve:
    def test_bst_golden(self, capsys, quad_file):
        code, out, err = run_cli(
            capsys, "solve", "--input", quad_file, "--emit-edges"
        )
        assert (code, err) == (0, "")
        pairs = kv(out)
        assert pairs["algo"] == "bst"
        assert pairs["weight_fn"] == "mult"
        assert (pairs["n"], pairs["optimal_weight"]) == ("4", "25")
        assert pairs["edges"] == "0-2"
        assert pairs["memo"] == "hash"
        assert {"visited_cones", "memo_hits", "total_cones", "elapsed_ns"} <= set(pairs)

    def test_additive_golden(self, capsys, quad_file):
        code, out, _ = run_cli(
            capsys, "solve", "--input", quad_file, "--weight", "add", "--emit-edges",
        )
        pairs = kv(out)
        assert code == 0
        assert (pairs["optimal_weight"], pairs["edges"], pairs["memo"]) == ("16", "1-3", "hash")

    def test_engine_line(self, capsys, quad_file, monkeypatch):
        bst = kv(run_cli(capsys, "solve", "--input", quad_file)[1])
        yao = kv(run_cli(capsys, "solve", "--input", quad_file, "--algo", "yao")[1])
        assert (bst["engine"], bst["memo"]) == ("loop", "hash")
        assert yao["engine"] == "vector" and "memo" not in yao  # Yao keeps no memo
        monkeypatch.setattr(bst_solver, "SWEEP_MIN_N", 4)
        monkeypatch.setattr(bst_solver, "SWEEP_MIN_WIDTH", 0)
        _, out, _ = run_cli(capsys, "solve", "--input", quad_file, "--emit-edges")
        pairs = kv(out)
        assert (pairs["engine"], pairs["memo"], pairs["optimal_weight"], pairs["edges"]) == (
            "sweep", "hash", "25", "0-2"
        )

    @pytest.mark.parametrize("algo", ["dp3", "yao"])
    def test_other_exact_algos(self, capsys, quad_file, algo):
        code, out, _ = run_cli(capsys, "solve", "--input", quad_file, "--algo", algo)
        pairs = kv(out)
        assert code == 0
        assert (pairs["algo"], pairs["optimal_weight"]) == (algo, "25")
        if algo == "yao":
            assert (pairs["visited_cones"], pairs["total_cones"]) == ("3", "3")

    def test_heuristic_with_exact_scoring(self, capsys, tmp_path):
        path = tmp_path / "worst.txt"
        path.write_text("5\n1 1 4 4 1\n")
        code, out, _ = run_cli(
            capsys, "solve", "--input", str(path), "--algo", "heuristic",
            "--weight", "add", "--exact",
        )
        pairs = kv(out)
        assert code == 0
        assert (pairs["heuristic_weight"], pairs["optimal_weight"]) == ("21", "18")
        assert pairs["error_ratio"] == "1/6"

    def test_heuristic_requires_additive(self, capsys, quad_file):
        code, out, err = run_cli(capsys, "solve", "--input", quad_file, "--algo", "heuristic")
        assert (code, out) == (1, "")
        assert err.startswith("error=") and "--weight add" in err

    def test_chain_mode_golden(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "solve", "--input", chain_file, "--mode", "chain", "--emit-edges"
        )
        pairs = kv(out)
        assert code == 0
        assert (pairs["optimal_weight"], pairs["edges"]) == ("18000", "0-2")
        assert pairs["parenthesization"] == "((A1 A2) A3)"

    def test_chain_mode_rejects_additive(self, capsys, chain_file):
        code, _, err = run_cli(
            capsys, "solve", "--input", chain_file, "--mode", "chain", "--weight", "add"
        )
        assert code == 1 and "use --weight mult" in err

    def test_single_matrix_chain(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\n10 20\n")
        code, out, _ = run_cli(capsys, "solve", "--input", str(path), "--mode", "chain")
        pairs = kv(out)
        assert code == 0
        assert (pairs["optimal_weight"], pairs["parenthesization"]) == ("0", "A1")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(QUAD))
        code, out, _ = run_cli(capsys, "solve", "--input", "-")
        assert code == 0 and kv(out)["optimal_weight"] == "25"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--input", "/no/such/file.txt")
        assert code == 1 and err.startswith("error=")

    def test_malformed_polygon(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n1 2 5\n")
        code, _, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1 and err.startswith("error=")


class TestGen:
    def test_staircase_golden(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "staircase", "--n", "6")
        assert (code, out) == (0, "6\n1 2 4 6 5 3\n")

    def test_staircase_rejects_odd(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--kind", "staircase", "--n", "7")
        assert code == 1 and "even" in err

    def test_heuristic_worst_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "heuristic-worst", "--n", "5", "--t", "4"
        )
        assert (code, out) == (0, "5\n1 1 4 4 1\n")

    def test_random_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--kind", "random", "--n", "8", "--seed", "3")
        want = gen_random(8, seed=3)
        assert code == 0
        assert out == "8\n" + " ".join(map(str, want.weights)) + "\n"


class TestBridges:
    def test_quad_golden(self, capsys, quad_file):
        code, out, _ = run_cli(capsys, "bridges", "--input", quad_file)
        assert code == 0
        assert out == "1 3 2\n1 0 3\n"

    def test_tie_heavy_golden(self, capsys, tmp_path):
        """Equal weights go by node index; n - 2 lines in canonical order."""
        path = tmp_path / "ties.txt"
        path.write_text("12\n2 1 2 1 3 1 2 2 3 1 1 2\n")
        code, out, _ = run_cli(capsys, "bridges", "--input", str(path))
        assert code == 0
        assert out == (
            "1 3 2\n3 5 4\n3 1 5\n5 9 6\n5 1 9\n6 9 7\n7 9 8\n9 1 10\n10 0 11\n10 1 0\n"
        )


class TestBench:
    def test_csv_to_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "6,8", "--trials", "2", "--algos", "bst,yao"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,trial,algo")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_csv_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "bench.csv")
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "6", "--trials", "3", "--csv", path,
            "--algos", "bst", "--weight", "custom",
        )
        assert (code, out) == (0, "")
        records = read_csv(path)
        assert len(records) == 3
        assert {r.weight_fn for r in records} == {"custom"}


def test_successive_calls_match_fresh_ones(capsys, quad_file):
    """One process, one parser and one weight fn per name: each call prints what a fresh one does."""
    argvs = [
        ("solve", "--input", quad_file, "--algo", "dp3", "--weight", "custom", "--emit-edges"),
        ("gen", "--kind", "staircase", "--n", "6"),
        ("solve", "--input", quad_file, "--algo", "heuristic"),
        ("solve", "--input", quad_file, "--weight", "custom", "--emit-edges"),
    ]

    def strip(result):
        code, out, err = result
        return code, [line for line in out.splitlines() if not line.startswith("elapsed_ns=")], err

    cli._build_parser.cache_clear()
    successive = [strip(run_cli(capsys, *argv)) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(strip(run_cli(capsys, *argv)))
    assert successive == fresh
    assert [code for code, _, _ in successive] == [0, 0, 1, 0]
    assert successive[1][1] == ["6", "1 2 4 6 5 3"]
    _, out, err = successive[2]
    assert out == [] and err.count("\n") == 1 and err.startswith("error=")
    assert "optimal_weight=42" in successive[0][1] and "optimal_weight=42" in successive[3][1]


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "polytri.cli", "gen", "--kind", "staircase", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 and out.stdout == "4\n1 2 4 3\n"
    script = subprocess.run(
        ["polytri", "gen", "--kind", "staircase", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0 and script.stdout == "4\n1 2 4 3\n"
