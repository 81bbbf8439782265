"""Check that two runs on one seed reproduce every exact output bit for bit.

    python3 perfbench/selfcheck.py

Runs each workload's traced run twice on SEED for SECONDS, one process
after the other, and compares every op both runs completed: its optimal
weights, the solver stats, and the exact counts (bridges.count,
bridges.census, bst_solver.visited_cones, bst_solver.memo_hits,
bst_solver.expand_cone_calls). Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_KEYS = ("weights", "bst_stats", "counts")
SEED = 1
SECONDS = 1


def exact_by_op(result: dict) -> dict[tuple[int, int], dict]:
    """(op, leg) -> exact outputs; a traced run holds every op twice."""
    seen: dict[int, int] = {}
    out = {}
    for rec in result["ops"]:
        leg = seen[rec["op"]] = seen.get(rec["op"], -1) + 1
        out[(rec["op"], leg)] = {k: rec.get(k) for k in EXACT_KEYS}
    return out


def compare(a: dict, b: dict) -> tuple[int, list[str]]:
    ea, eb = exact_by_op(a), exact_by_op(b)
    common = sorted(ea.keys() & eb.keys())
    diffs = [f"op {op} leg {leg}: {ea[(op, leg)]} != {eb[(op, leg)]}"
             for op, leg in common if ea[(op, leg)] != eb[(op, leg)]]
    return len(common), diffs


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bad = 0
    for name in [w["name"] for w in spec["workloads"]]:
        results = []
        for k in (1, 2):
            out = HERE / "out" / "selfcheck" / f"{name}-seed{SEED}-run{k}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(SEED), "--seconds", str(SECONDS), "--trace", "1", "--out", str(out)]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            results.append(json.loads(out.read_text()))
        n, diffs = compare(*results)
        status = "ok" if n and not diffs else "MISMATCH"
        print(f"{name}: {n} ops compared, {len(diffs)} differ: {status}")
        for d in diffs[:5]:
            print(f"  {d}")
        bad += status != "ok"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
