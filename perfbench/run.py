"""polytri benchmark: one workload, one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` beside this
directory and nowhere else, and the command fails when it is missing.
Workloads are defined, with the reason for each, in ``workloads.py``.

--trace 0 measures end to end with no wrappers installed: set-up (the
median of SETUP_REPEATS fresh interpreters importing the benchmark and
the library, plus the median of SETUP_REPEATS full set-ups), then whole
blocks of ops until ``--seconds`` have passed. --trace 1 runs one traced set-up,
then runs every block twice, once plain and once with the layer wrappers
of ``layers.py`` installed; it reports the per-layer metrics and the
tracing overhead between the two.

End-to-end times are calibrated against a host-speed sampler that runs
throughout (hostspeed.py explains why); the report line beside each
metric gives the raw figure, and a report line gives the sampler's
inside/outside-op ratio over the timed loop. Every op's output is
checked. Report lines go to stdout, each metric by name with its unit; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric units come from ``BENCHMARK.json`` at the repository root. The
full result - host, every op's raw and calibrated latency, the sampler's
samples, optimal weights and exact counts, failures and, when traced, the
spans - is written to ``perfbench/out/`` (or ``--out``).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3


@dataclass
class Loop:
    """What one timed loop saw: each op's start and end, records and
    failures."""

    op_ids: list[int] = field(default_factory=list)
    intervals: list[tuple[int, int]] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    failed: int = 0

    def latencies(self, sampler: hostspeed.Sampler) -> tuple[list[int], list[float]]:
        """Raw and calibrated op latencies in ns, recorded into the records."""
        raw, cal = zip(*(sampler.measure(t0, t1) for t0, t1 in self.intervals))
        for rec, r, c in zip(self.records, raw, cal):
            rec.update(ns=r, cal_ns=c)
        return list(raw), list(cal)


def run_ops(wl, op_ids: range, loop: Loop, sampler: hostspeed.Sampler, tracer=None) -> None:
    """Run the given ops one at a time, appending to ``loop``.

    Each op's timing covers ``wl.op`` only; checks it defers run after.
    """
    gc.collect()
    for op in op_ids:
        item = wl.items[op % len(wl.items)]
        if tracer is not None:
            tracer.op = op
            root = tracer.begin("op")
        outcome = None
        sampler.in_op = True
        t0 = time.perf_counter_ns()
        try:
            outcome = wl.op(item)
            reasons = outcome.reasons
        except Exception as exc:  # a failed op is counted, not fatal
            reasons = [f"{type(exc).__name__}: {exc}"]
            if not loop.failed:
                traceback.print_exc()
        t1 = time.perf_counter_ns()
        sampler.in_op = False
        if tracer is not None:
            tracer.end(root)
        if outcome is not None and outcome.deferred is not None:
            if tracer is not None:
                root = tracer.begin("check")
            try:
                reasons = reasons + outcome.deferred()
            except Exception as exc:
                reasons = reasons + [f"check raised {type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.end(root)
        record = {"op": op, **(outcome.record if outcome is not None else {})}
        if reasons:
            loop.failed += 1
            record["failed"] = reasons
            print(f"FAILED op {op}: {'; '.join(reasons)}", file=sys.stderr)
        loop.op_ids.append(op)
        loop.intervals.append((t0, t1))
        loop.records.append(record)


def run_timed(
    wl, seconds: float, sampler: hostspeed.Sampler, tracer=None
) -> tuple[Loop, Loop, tuple[int, int]]:
    """Run whole blocks of ops until ``seconds`` have passed.

    Returns the untraced and traced loops and the timed loop's start and
    end. With a tracer, each block runs twice, untraced and traced,
    alternating which goes first, so drift on the host hits both loops
    alike.
    """
    plain, traced = Loop(), Loop()
    begin_ns = time.perf_counter_ns()
    block = 0
    while True:
        ids = range(block * wl.block, (block + 1) * wl.block)
        if tracer is None:
            run_ops(wl, ids, plain, sampler)
        else:
            legs = [(plain, None), (traced, tracer)]
            for loop, tr in legs if block % 2 == 0 else legs[::-1]:
                if tr is not None:
                    tr.install()
                try:
                    run_ops(wl, ids, loop, sampler, tr)
                finally:
                    if tr is not None:
                        tr.uninstall()
        block += 1
        end_ns = time.perf_counter_ns()
        if end_ns - begin_ns >= seconds * 1e9:
            return plain, traced, (begin_ns, end_ns)


def loop_time(sampler: hostspeed.Sampler, wall: tuple[int, int], loop: Loop) -> tuple[int, float]:
    """Raw and calibrated ns of the timed loop, calibrated piece by piece
    from one op's start to the next, so each piece is scaled by the host's
    speed at its own time."""
    cuts = [wall[0], *(t0 for t0, _ in loop.intervals[1:]), wall[1]]
    pieces = [sampler.measure(a, b) for a, b in zip(cuts, cuts[1:])]
    return sum(r for r, _ in pieces), sum(c for _, c in pieces)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; pct=100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(
    raw_ns: list[int], cal_ns: list[float], tail_pct: float, wall: tuple[int, float],
    setup_s: float, raw_setup_s: float,
) -> tuple[dict, dict]:
    """The end-to-end metrics from calibrated times, and notes by metric
    with the raw figure beside it. ``wall`` is the timed loop's raw and
    calibrated ns."""
    n = len(raw_ns)
    cal_ms = [ns / 1e6 for ns in cal_ns]
    raw_ms = [ns / 1e6 for ns in raw_ns]
    tail = percentile(cal_ms, tail_pct)
    values = {
        "op_p50_ms": statistics.median(cal_ms),
        "op_tail_ms": tail,
        "ops_per_s": n / (wall[1] / 1e9),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    label = "max" if tail_pct >= 100 else f"p{tail_pct:g}"
    beyond = sum(1 for x in cal_ms if x > tail)
    notes = {
        "op_p50_ms": f"raw {statistics.median(raw_ms):.6g} ms; samples={n}",
        "op_tail_ms": f"raw {percentile(raw_ms, tail_pct):.6g} ms; percentile={label} samples={n} "
        f"beyond={beyond}"
        + ("" if n >= 20 else "; fewer than 20 ops, so the maximum stands in for a tail"),
        "ops_per_s": f"raw {n / (wall[0] / 1e9):.6g} 1/s; ops={n} over the timed loop's wall time, "
        "checks included",
        "setup_s": f"raw {raw_setup_s:.6g} s; medians of {SETUP_REPEATS} fresh imports and "
        f"{SETUP_REPEATS} set-ups",
    }
    return values, notes


def time_imports(sampler: hostspeed.Sampler) -> list[tuple[int, float]]:
    """Raw and calibrated ns of SETUP_REPEATS fresh interpreters, each
    importing what a run imports before its set-up."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", code], check=True)
        out.append(sampler.measure(t0, time.perf_counter_ns()))
    return out


def host_info() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _src_digest() -> str:
    """Hash of the library sources, which names the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "polytri").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD's commit read from .git without running git; 'none' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: perfbench/out/<workload>-seed<N>-trace<T>.json)")
    args = parser.parse_args(argv)

    if not (SRC / "polytri" / "__init__.py").is_file():
        print(f"error: no polytri sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polytri

    if Path(polytri.__file__).resolve().parent != (SRC / "polytri").resolve():
        print(f"error: polytri imported from {polytri.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    scratch = OUT / "inputs"
    host = host_info()
    result: dict = {"host": host, "workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    problems: list[str] = []
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        if args.trace == 0:
            imports = time_imports(sampler)
            setups = []
            for _ in range(SETUP_REPEATS):
                wl = None
                gc.collect()
                t0 = time.perf_counter_ns()
                wl = make()
                wl.setup(args.seed, scratch)
                setups.append((t0, time.perf_counter_ns()))
            loop, _, wall = run_timed(wl, args.seconds, sampler)
        else:
            import layers
            from tracing import Tracer, check_self_time_identity, self_times

            tracer = Tracer()
            layers.register(tracer)
            tracer.install()
            tracer.op = "setup"
            root = tracer.begin("setup")
            wl = make()
            wl.setup(args.seed, scratch)
            tracer.end(root)
            tracer.uninstall()
            plain, traced, wall = run_timed(wl, args.seconds, sampler, tracer)
    finally:
        sampler.stop()

    if args.trace == 0:
        raw_ns, cal_ns = loop.latencies(sampler)
        import_raw, import_cal = zip(*imports)
        set_raw, set_cal = zip(*(sampler.measure(t0, t1) for t0, t1 in setups))
        metrics, notes = end_to_end(
            raw_ns, cal_ns, wl.tail_pct, loop_time(sampler, wall, loop),
            (statistics.median(import_cal) + statistics.median(set_cal)) / 1e9,
            (statistics.median(import_raw) + statistics.median(set_raw)) / 1e9)
        result.update(import_ns=import_raw, setup_ns=set_raw, loop_ns=wall)
        attempted, failed, records = len(loop.op_ids), loop.failed, loop.records
    else:
        layers.count_tables(tracer.spans)
        selfs = self_times(tracer.spans)
        problems = check_self_time_identity(tracer.spans, selfs)
        counts = layers.exact_counts(tracer.spans, tracer.counts)
        metrics = layers.layer_metrics(tracer.spans, selfs, counts, traced.op_ids)
        attempted = len(plain.op_ids) + len(traced.op_ids)
        failed = plain.failed + traced.failed
        p50_plain = statistics.median(plain.latencies(sampler)[1])
        p50_traced = statistics.median(traced.latencies(sampler)[1])
        metrics["trace_overhead_frac"] = p50_traced / p50_plain - 1
        metrics["fail_frac"] = failed / attempted
        notes = {"trace_overhead_frac":
                 f"calibrated p50 traced {p50_traced / 1e6:.6g} ms / untraced "
                 f"{p50_plain / 1e6:.6g} ms - 1, same {len(traced.op_ids)} ops"}
        for rec in traced.records:
            rec["counts"] = counts[rec["op"]]
        records = plain.records + traced.records
        result["spans"] = tracer.dump()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    in_out = sampler.inside_vs_outside(*wall)
    result.update(metrics=reported, attempted=attempted, failed=failed, problems=problems,
                  ops=records, hostspeed=dict(sampler.dump(), inside_vs_outside=in_out))
    out = Path(args.out) if args.out else OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result))

    print("host " + " ".join(f"{k}={v!r}" for k, v in host.items()))
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g} result={out}")
    print("hostspeed kernel median inside ops / outside ops = %.4g (samples %d / %d)" % in_out)
    for name, m in reported.items():
        note = notes.get(name)
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (f"  [{note}]" if note else ""))
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    final = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
             "metrics": reported}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
