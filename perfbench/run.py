"""Benchmark for msetperm: time to solution, per-operation latency, set-up
time and memory on three workloads, with every answer checked.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 25 --trace 0

The workload's fixed list of operations runs in as many whole passes as
typically fit in --seconds, at least two.  Timings are scaled to a
reference host speed (hostspeed.py).  An operation's latency is its fastest
over the passes, and run_s is the sum of those.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones instead, with the tracing overhead.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
from hostspeed import REFERENCE_PROBE_S, HostSpeed
from workloads import WORKLOADS, Evidence, Truth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-out"

#: fresh interpreters timed for setup_s, after one that fills __pycache__
SETUP_RUNS = 21


def import_package():
    """Import msetperm from this checkout's src/, and nothing else."""
    home = SRC / "msetperm"
    if not (home / "__init__.py").is_file():
        sys.exit(f"no package source at {home}")
    sys.path.insert(0, str(SRC))
    import msetperm
    if Path(msetperm.__file__).resolve().parent != home.resolve():
        sys.exit(f"imported msetperm from {msetperm.__file__}, not {home}")
    return msetperm


#: Run in each fresh interpreter: the probe, then `import msetperm`, then
#: the probe again, in the same process, so the import is scaled by the
#: speed of the core it ran on.  Only `time` is imported before msetperm.
SETUP_CHILD = """import time
{probe}
before = probe_seconds()
t0 = time.perf_counter()
import msetperm
t1 = time.perf_counter()
print(before, t1 - t0, probe_seconds())
"""


def measure_setup() -> tuple[float, float]:
    """Median time for `import msetperm` in a fresh interpreter, scaled to
    the reference host speed, and the same median unscaled."""
    code = SETUP_CHILD.format(probe=inspect.getsource(hostspeed._walk)
                              + inspect.getsource(hostspeed.probe_seconds))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, times = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        before, seconds, after = map(float, out.stdout.split())
        if i:
            times.append(seconds)
            scaled.append(seconds * REFERENCE_PROBE_S * 2 / (before + after))
    return statistics.median(scaled), statistics.median(times)


def scaled(p) -> tuple[float, list[float]]:
    """A pass's time between operations and its operation latencies, at the
    reference host speed."""
    latencies = [t * p.speed.factor(t0, t0 + t) for t0, t in zip(p.starts, p.latencies)]
    between = (p.run_s - sum(p.latencies)) * p.speed.typical_factor()
    return between, latencies


def fastest(passes) -> tuple[float, list[float]]:
    """Each operation's fastest scaled latency over the passes, and the
    time to solution they add up to."""
    runs = [scaled(p) for p in passes]
    latencies = [min(ops) for ops in zip(*(lat for _, lat in runs))]
    return min(between for between, _ in runs) + sum(latencies), latencies


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_passes(workload, seconds: float, trace: bool):
    """As many passes as typically fit in `seconds`, at least two.  With
    trace, untraced and traced passes alternate."""
    from tracing import Tracer

    plain, traced = [], []
    for i in range(max(2, int(seconds // workload.pass_s))):
        with HostSpeed() as speed:
            if trace and i % 2:
                with Tracer(speed.clock) as tracer:
                    result = workload.run(tracer, speed.clock)
                traced.append((result, tracer))
            else:
                result = workload.run(None, speed.clock)
                plain.append(result)
        result.speed = speed
    return plain, traced


def end_to_end(passes, setup_s: float) -> dict:
    run_s, latencies = fastest(passes)
    return {
        "run_s": metric(run_s, "s"),
        "op_p50_ms": metric(percentile(latencies, 50) * 1e3, "ms"),
        "op_p95_ms": metric(percentile(latencies, 95) * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, plain, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced passes) and self-check failures."""
    from tracing import TRACED_NAMES

    med = statistics.median_low  # a value one traced pass measured
    rows = []
    for result, tracer in traced:
        summary = tracer.summary()
        row = {}
        for name in TRACED_NAMES:
            stats = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row[f"{name}.calls"] = metric(stats["calls"], "count")
            row[f"{name}.busy_s"] = metric(stats["busy_s"], "s")
            row[f"{name}.self_s"] = metric(stats["self_s"], "s")
        for suite in Evidence.SUITES:
            busy = summary.get(f"verify.{suite}", {}).get("busy_s", 0.0)
            row[f"verify.{suite}.busy_s"] = metric(busy, "s")
        lookups = summary.get("cache.CountCache.lookup", {}).get("calls", 0)
        row["cache.hit_ratio"] = metric(tracer.cache_hits / lookups if lookups else 0.0,
                                        "ratio")
        row["cli.refused"] = metric(result.refused, "count")
        covered = sum(summary.get(name, {}).get("busy_s", 0.0)
                      for name in workload.root_spans)
        row["trace.covered_share"] = metric(covered / result.run_s, "ratio")
        rows.append(row)
    out = {key: metric(med(r[key]["value"] for r in rows), rows[0][key]["unit"])
           for key in rows[0]}
    overhead = fastest([r for r, _ in traced])[0] / fastest(plain)[0]
    out["trace.overhead_ratio"] = metric(overhead, "ratio")

    share = out["trace.covered_share"]["value"]
    margin = workload.coverage_margin
    problems = []
    if not 1 - margin <= share <= 1 + margin:
        problems.append(f"self-check: {' + '.join(workload.root_spans)} busy time is "
                        f"{share:.4f} of run_s, outside 1 +- {margin}")
    print(f"self-check: {' + '.join(workload.root_spans)} busy_s covers "
          f"{share:.4f} of traced run_s (allowed 1 +- {margin})")
    print(f"tracing overhead: traced run_s / untraced run_s = {overhead:.4f}")
    return out, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = import_package()
    WORKDIR.mkdir(exist_ok=True)
    # The CLI is always given --cache; this keeps any default-path use inside
    # the checkout as well, away from the host's own cache.
    os.environ["MSETPERM_CACHE"] = str(WORKDIR / "default-cache.jsonl")

    setup_s, setup_raw = (None, None) if args.trace else measure_setup()
    workload = WORKLOADS[args.workload](pkg, Truth(HERE / "truth.json"), args.seed, WORKDIR)
    plain, traced = run_passes(workload, args.seconds, bool(args.trace))

    passes = plain + [result for result, _ in traced]
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.errors for p in passes)
    unexpected = sum(p.unexpected_errors for p in passes)
    refused = sum(p.refused for p in passes)
    notes = [note for p in passes for note in p.notes]
    trace_problems = []

    if args.trace:
        metrics, trace_problems = per_layer(workload, plain, traced)
        tracer = traced[-1][1]
        tracer.write(WORKDIR / f"spans-{args.workload}.jsonl")
        print(f"spans of the last traced pass: {len(tracer.spans)}, written to "
              f"{(WORKDIR / f'spans-{args.workload}.jsonl').relative_to(ROOT)}")
    else:
        metrics = end_to_end(plain, setup_s)

    ops = len(passes[0].latencies)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {ops} operations each")
    print(f"error_rate = {failed / attempted:.6f} ({failed} of {attempted} operations; "
          f"{failed - unexpected} of them the known answer-path defect)")
    print(f"refused = {refused / attempted:.6f} ({refused} documented refusals, exit 2 or 3)")
    if not args.trace:
        print(f"op latencies: the fastest of {len(plain)} passes for each of {ops} "
              f"operations" + ("" if ops >= 200 else ", fewer than the 200 a p95 needs"))
        factors = [REFERENCE_PROBE_S / d for p in plain for d in p.speed.durations]
        print(f"unscaled: run_s = {statistics.median(p.run_s for p in plain):.6g} s, "
              f"setup_s = {setup_raw:.6g} s; host-speed factor median "
              f"{statistics.median(factors):.4f}, range {min(factors):.4f}"
              f"..{max(factors):.4f} over {len(factors)} probes")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for note in dict.fromkeys(notes + trace_problems):
        print(note, file=sys.stderr)
    correct = unexpected == 0 and not trace_problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
