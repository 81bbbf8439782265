"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --head B1.json B2.json ...

Result files are the ones run.py writes (perfbench/out/*.json). For each
workload and metric it prints both medians, the change, each side's
quartile spread as a share of its median, and, for end-to-end metrics, a
verdict against the bound in BENCHMARK.json. Two more rows per workload
show whether the host-speed divisor moved: the calibration kernel's
median time and its inside/outside-op ratio (hostspeed.py). Results from
different hosts (nproc, CPU model, Python or numpy) are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HOST_KEYS = ("nproc", "cpu_count", "cpu_model", "python", "numpy")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def host_of(result: dict) -> tuple:
    return tuple(result["host"].get(k) for k in HOST_KEYS)


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def verdict(base: list[float], head: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    b, h = statistics.median(base), statistics.median(head)
    worse = (h - b) / b if better == "lower" else (b - h) / b
    if worse <= bound:
        return "within bound" if worse > 0 else "not worse"
    if max(spread(base), spread(head)) > bound:
        return "UNRESOLVED (spread wider than bound)"
    return f"REGRESSED beyond bound {bound:g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)

    hosts = {host_of(r) for r in base + head}
    if len(hosts) > 1:
        print("refusing to compare results from different hosts: "
              + " vs ".join(map(str, sorted(hosts))), file=sys.stderr)
        return 2

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    meta = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[tuple, tuple[list, list]] = {}
    for side, results in ((0, base), (1, head)):
        for r in results:
            rows = [(name, m["unit"], m["value"]) for name, m in r["metrics"].items()]
            if "hostspeed" in r:
                hs = r["hostspeed"]
                kernel_us = statistics.median(hs["kernel_ns"]) / 1e3
                rows += [("hostspeed.kernel_p50_us", "us", kernel_us),
                         ("hostspeed.inside_vs_outside", "ratio", hs["inside_vs_outside"][0])]
            for name, unit, value in rows:
                groups.setdefault((r["workload"], name, unit), ([], []))[side].append(value)
    for (workload, name, unit), (b, h) in sorted(groups.items()):
        if not b or not h:
            continue
        better, bound = meta.get(name, ("lower", None))
        mb, mh = statistics.median(b), statistics.median(h)
        change = f"{(mh - mb) / mb:+.1%}" if mb else "n/a"
        print(f"{workload:12} {name:30} base {mb:.6g} head {mh:.6g} {unit} ({change}; "
              f"spread {spread(b):.3f}/{spread(h):.3f}; runs {len(b)}/{len(h)}) "
              f"{verdict(b, h, better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
