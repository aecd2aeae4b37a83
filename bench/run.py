"""Benchmark of localsym: one workload, one run, one JSON result line.

    python3 bench/run.py --workload census --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; localsym is imported from ``src/``.  The
run sets up its inputs from ``--seed`` (several times, to time set-up),
then runs whole rounds of the workload until the next round would end
past ``--seconds``, checking each round's outputs after it.  The last
line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
ROUND_SPAN = "bench.round"  # the benchmark's own layer is "bench"
# self times plus the benchmark's own time must add up to the traced wall
# time within this share of it
TRACE_SUM_TOL = 1e-6


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "numpy": numpy.__version__,
            "python": platform.python_version(), "git_sha": git_sha(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_rounds(workload, rec, seconds: float, tracer=None):
    """Whole rounds until the next one would likely end past ``seconds``.

    Each round's outputs are checked right after it, outside its timing
    and outside its trace span.  Returns the duration of each round, less
    the calibrator's samples taken in it, and with a calibrator the range
    of its samples that bracket each round: from the last one before the
    round to the first one after it.
    """
    cal = rec.calibrator
    round_s: list[float] = []
    brackets: list[tuple[int, int]] = []
    cycle_s: list[float] = []
    start = time.perf_counter()
    r = 0
    while True:
        if cal:
            cal.maybe()
            spent, first = cal.spent_s, len(cal.samples) - 1
        t0 = time.perf_counter()
        span = tracer.open(ROUND_SPAN) if tracer else None
        workload.round(r, rec)
        if tracer:
            tracer.close(span)
        round_s.append(time.perf_counter() - t0)
        if cal:
            round_s[-1] -= cal.spent_s - spent
            brackets.append((first, len(cal.samples) + 1))
        rec.end_round()
        rec.check()
        cycle_s.append(time.perf_counter() - t0)
        r += 1
        if time.perf_counter() - start + statistics.median(cycle_s) > seconds:
            if cal:
                cal.sample()  # the last round's closing sample
            return round_s, brackets


def layer_metrics(tracer, rounds: int) -> tuple[dict, dict]:
    """Per-layer metrics (per round where a total) and the trace totals."""
    self_s = tracer.self_times()
    layer_self: dict[str, float] = defaultdict(float)
    span_total: dict[str, float] = defaultdict(float)
    span_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, name in enumerate(tracer.names):
        layer_self[name.split(".")[0]] += self_s[i]
        span_total[name] += tracer.ends[i] - tracer.starts[i]
        span_self[name] += self_s[i]
        calls[name] += 1
    wall = span_total[ROUND_SPAN]
    total = sum(layer_self.values())
    if abs(total - wall) > TRACE_SUM_TOL * wall:
        raise RuntimeError(f"self times add up to {total} s, traced wall is {wall} s")

    restarts = witnesses = 0
    sweeps = []
    for name, counts in zip(tracer.names, tracer.counts):
        if name == "stabilizer._search":
            restarts += counts[0]
            witnesses += counts[1]
        elif name == "critical.scale_to_critical":
            sweeps.append(counts)

    def mean(name, scale):
        return scale * span_total[name] / calls[name] if calls[name] else 0.0

    def per_round(value):
        return value / rounds

    metrics = {
        "stabilizer.self_s": (per_round(layer_self["stabilizer"]), "s"),
        "stabilizer.search_ms_per_restart": (
            1e3 * span_self["stabilizer._search"] / restarts if restarts else 0.0, "ms"),
        "stabilizer.lie_stabilizer_dim_ms": (
            mean("stabilizer.lie_stabilizer_dim", 1e3), "ms"),
        "stabilizer.witness_yield": (witnesses / restarts if restarts else 0.0, "ratio"),
        "critical.scale_to_critical_ms": (mean("critical.scale_to_critical", 1e3), "ms"),
        "critical.scale_iterations": (
            sum(sweeps) / len(sweeps) if sweeps else 0.0, "count"),
        "critical.self_s": (per_round(layer_self["critical"]), "s"),
        "states.apply_chain_us": (mean("states.apply_chain", 1e6), "us"),
        "states.reduced_density_calls": (
            per_round(calls["states.reduced_density"]), "count"),
        "states.self_s": (per_round(layer_self["states"]), "s"),
        "invariants.self_s": (per_round(layer_self["invariants"]), "s"),
        "convert.self_s": (per_round(layer_self["convert"]), "s"),
        "convert.pmax_us": (mean("convert.pmax", 1e6), "us"),
        "convert.simulate_protocol_ms": (mean("convert.simulate_protocol", 1e3), "ms"),
        "genericity.self_s": (per_round(layer_self["genericity"]), "s"),
        "io.self_ms": (per_round(1e3 * layer_self["io"]), "ms"),
        "cli.self_ms": (per_round(1e3 * layer_self["cli"]), "ms"),
    }
    totals = {"traced_wall_s": wall, "rounds": rounds,
              "restarts_run": restarts, "witnesses": witnesses,
              "layer_self_s": dict(layer_self),
              "span_calls": dict(calls)}
    return metrics, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one process and one thread: keep BLAS from starting a thread pool
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "localsym" / "__init__.py").is_file():
        print(f"error: no localsym sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import calibration
    import tracing
    import workloads
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    # timings are reported at the reference speed (calibration.py); the
    # traced run reports raw self times and takes no kernel samples
    cal = None if args.trace else calibration.Calibrator()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        if cal:
            cal.sample()
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    if cal:
        cal.sample()

    rec = workloads.Recorder(cal)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.start()
    round_s, brackets = run_rounds(workload, rec, args.seconds, tracer)
    if tracer:
        tracer.uninstall()
    workload.finish(rec)

    if tracer:
        metrics, details = layer_metrics(tracer, len(round_s))
        tracer.dump(OUT / f"{tag}.spans.json")
    else:
        # each round at the speed of the kernel samples that bracket it;
        # set-up at that of the samples around the set-ups
        factors = [cal.factor(*b) for b in brackets]
        setup_factor = cal.factor(0, SETUP_REPEATS + 1)
        metrics = {
            "setup_s": (setup_factor * (import_s + statistics.median(setup_s)), "s"),
            "wall_s": (statistics.fmean(s * f for s, f in zip(round_s, factors)), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            **{m: (rec.mean(m, factors), unit) for m, unit in
               (("call_s", "s"), ("results_per_s", "1/s"), ("cli_ms", "ms"))},
        }
        details = {"import_s": import_s, "setup_runs_s": setup_s,
                   "setup_factor": setup_factor, "round_factors": factors,
                   "round_kernel_brackets": brackets,
                   "kernel_samples_s": cal.samples,
                   "kernel_spent_s": cal.spent_s}
    details["round_s"] = round_s
    details["round_samples"] = dict(rec.rounds)

    result = {"correct": rec.correct, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({**result, "environment": environment(args),
                   "problems": rec.problems, "details": details}, fh, indent=1)
        fh.write("\n")
    for problem in rec.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
