#!/usr/bin/env python3
"""The mf2 benchmark: four workloads through the public API, one closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; mf2 is imported from src/ (as with
PYTHONPATH=src), nothing is installed.  Workloads: window_gf2, window_gf4,
reduce, search (see workloads.py).  One caller issues each op only after
the previous one returned; there are no threads and no pools.

--trace 0 measures whole rounds of ops (see workloads.py) for S seconds,
and at least MIN_OPS ops, and reports:

  op_s.p50, op_s.p90  median and 90th percentile of one op's time; the op
                      count is printed on the info line
  ops_per_s           ops that passed their check / time of the op loop
                      (ops and checks; input generation excluded)
  setup_s             median over SETUP_RUNS fresh processes of the time
                      for imports, fixture parsing, UngradedMF
                      verification and Rp2Context builds (input reading
                      and generation excluded)
  pass_ratio          ops that passed their check / ops attempted
  peak_rss_mb         ru_maxrss of this process, in MiB

Times are calibrated seconds: wall time scaled to a machine on which
`calibration_kernel` takes CAL_REF_S, with the kernel run just before and
just after each op and each set-up (see `measure`).  The raw wall-time
percentiles are printed on the info line, the line before the result.

--trace 1 runs the set-up under the tracer, then the same ops twice: once
untraced for a fifth of S (whole rounds, at least MIN_TRACE_OPS ops), once
traced.  It reports per-layer metrics: set-up totals for cli.parse_s,
paperlab.context_s and groebner.*, means per traced op for the rest, and
trace.overhead = traced / untraced calibrated time of the same ops.  Spans,
counters and per-op wall and process times go to
perfbench/.out/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any op
raised or returned a wrong answer, 2 when the checkout has no src/mf2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = wl.HERE.parent
SRC = ROOT / "src"
OUT = wl.HERE / ".out"
SETUP_RUNS = 15
MIN_OPS = 100  # the 90th percentile keeps ten samples beyond it
MIN_TRACE_OPS = 20
MAX_LOOP_S = 150.0
CAL_REF_S = 0.001  # calibration kernel time that defines the reported time scale


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- calibration and set-up time ------------------------------------------------------


def calibration_kernel() -> None:
    """Fixed pure-Python work shaped like mf2's hot loops: a sparse product
    of dicts keyed by exponent tuples and a packed-int elimination.  It
    never touches mf2, so only the speed of the machine moves it."""
    a = {(i, j): (3 * i + j) % 3 + 1 for i in range(-3, 4) for j in range(-3, 4)}
    b = {(i, -j): (i + 2 * j) % 3 + 1 for i in range(-2, 3) for j in range(-2, 3)}
    out: dict[tuple[int, int], int] = {}
    for (e1, f1), c1 in a.items():
        for (e2, f2), c2 in b.items():
            key = (e1 + e2, f1 + f2)
            v = out.get(key, 0) ^ (c1 & c2)
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    pivots: dict[int, int] = {}
    for i in range(1, 160):
        row = (i * 2654435761) & ((1 << 160) - 1)
        while row:
            low = (row & -row).bit_length() - 1
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]


def calibrate() -> float:
    """Seconds the calibration kernel takes right now."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def setup_child(workload: str) -> int:
    """Time a cold set-up in this fresh process; mf2 is not imported yet.
    The calibration kernel runs right before and after it."""
    texts = wl.read_inputs(workload)
    cal = [calibrate() for _ in range(3)]
    start = time.perf_counter()
    wl.setup(workload, texts)
    setup_s = time.perf_counter() - start
    cal += [calibrate() for _ in range(3)]
    print(json.dumps({"setup_s": setup_s, "calibration_s": statistics.median(cal)}))
    return 0


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """(raw, calibrated) set-up times of SETUP_RUNS fresh processes, after
    one discarded run that fills the bytecode and file caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-child"]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:
            raw.append(child["setup_s"])
            scaled.append(child["setup_s"] * CAL_REF_S / child["calibration_s"])
    return raw, scaled


# -- the op loop ---------------------------------------------------------------------


def run_op(op: wl.Op) -> tuple[float, float, bool]:
    """(wall seconds, process seconds, passed) for one op; the check is not timed."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        got, raised = op.call(), None
    except Exception as exc:  # a raising op is a failed op
        got, raised = None, exc
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ok = raised is None and op.check(got)
    if not ok:
        why = f"raised {raised!r}" if raised is not None else "wrong answer"
        print(f"FAIL {op.label}: {why}", file=sys.stderr)
    return wall, cpu, ok


def warm_up(workload: str, seed: int, state: dict, refs: dict) -> tuple[int, int]:
    """Run one op of each class from a separate stream; (attempted, failed)."""
    first = next(wl.rounds(workload, f"{seed}-warmup", state, refs))
    chosen = {op.kind: op for op in first}
    return len(chosen), sum(not run_op(op)[2] for op in chosen.values())


def measure(rounds, seconds: float, min_ops: int) -> dict:
    """Run whole rounds of ops until `seconds` have passed and at least
    `min_ops` ops ran, so every class keeps its share of the samples.

    The calibration kernel runs between ops, outside the timed interval,
    and each op's calibrated time is its wall time times CAL_REF_S over the
    mean of the calibrations just before and just after it.  The machines
    this runs on change speed by up to 1.7x within seconds; calibrated
    times cancel that, raw wall times are kept beside them."""
    res = {"walls": [], "cpus": [], "scaled": [], "loops": [], "passed": 0}
    start = time.perf_counter()
    before = calibrate()
    for ops in rounds:
        if time.perf_counter() - start >= seconds and len(res["walls"]) >= min_ops:
            break
        for op in ops:
            if time.perf_counter() - start >= MAX_LOOP_S:
                return res
            t0 = time.perf_counter()
            wall, cpu, ok = run_op(op)
            loop = time.perf_counter() - t0
            after = calibrate()
            factor = CAL_REF_S * 2 / (before + after)
            before = after
            res["walls"].append(wall)
            res["cpus"].append(cpu)
            res["scaled"].append(wall * factor)
            res["loops"].append(loop * factor)
            res["passed"] += ok
    return res


# -- reporting -----------------------------------------------------------------------


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def finish(info: dict, attempted: int, failed: int, metrics: dict) -> int:
    info["fail_ratio"] = failed / attempted
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


def end_to_end(args) -> int:
    info = environment(args)
    setup_raw, setup_scaled = measure_setup(args.workload)
    state = wl.setup(args.workload, wl.read_inputs(args.workload))
    refs = wl.load_references()
    warm_attempted, warm_failed = warm_up(args.workload, args.seed, state, refs)
    res = measure(wl.rounds(args.workload, args.seed, state, refs), args.seconds, MIN_OPS)
    walls, scaled, n = res["walls"], res["scaled"], len(res["walls"])
    info.update({
        "ops": n, "p90_samples_beyond": n - int(0.9 * n),
        "raw": {"op_s.p50": statistics.median(walls),
                "op_s.p90": statistics.quantiles(walls, n=10)[8],
                "setup_s": statistics.median(setup_raw)},
    })
    metrics = {
        "op_s.p50": metric(statistics.median(scaled), "s"),
        "op_s.p90": metric(statistics.quantiles(scaled, n=10)[8], "s"),
        "ops_per_s": metric(res["passed"] / sum(res["loops"]), "1/s"),
        "setup_s": metric(statistics.median(setup_scaled), "s"),
        "pass_ratio": metric(res["passed"] / n, "1"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return finish(info, n + warm_attempted, n - res["passed"] + warm_failed, metrics)


def traced(args) -> int:
    import tracer as tr

    info = environment(args)
    tracer = tr.Tracer()
    texts = wl.read_inputs(args.workload)
    tracer.install()
    state = wl.setup(args.workload, texts)
    tracer.uninstall()
    setup_snap = tracer.snapshot()
    refs = wl.load_references()
    warm_attempted, warm_failed = warm_up(args.workload, args.seed, state, refs)

    fetched = []
    stream = wl.rounds(args.workload, args.seed, state, refs)
    base = measure((fetched.append(r) or r for r in stream), args.seconds / 5, MIN_TRACE_OPS)
    ops = [op for r in fetched for op in r][:len(base["walls"])]
    tracer.reset()
    tracer.install()

    def numbered():
        for tracer.op_id, op in enumerate(ops):
            yield op

    run = measure([numbered()], float("inf"), 0)
    tracer.uninstall()
    snap = tracer.snapshot()

    n = len(run["walls"])  # all of ops unless MAX_LOOP_S cut the traced pass
    metrics = layer_metrics(setup_snap, snap, n)
    metrics["trace.overhead"] = metric(sum(run["scaled"]) / sum(base["scaled"][:n]), "1")
    metrics["trace.wall_s"] = metric(statistics.median(base["walls"]), "s/op")
    metrics["trace.cpu_s"] = metric(statistics.median(base["cpus"]), "s/op")
    info["ops"] = n
    tr.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", {
        "info": info, "setup": setup_snap, "ops": snap, "metrics": metrics,
        "untraced": {"wall_s": base["walls"], "cpu_s": base["cpus"]},
        "traced": {"wall_s": run["walls"], "cpu_s": run["cpus"], "kinds": [op.kind for op in ops]},
        "spans": tracer.span_records(),
    })
    attempted = len(ops) + n + warm_attempted
    failed = (len(ops) - base["passed"]) + (n - run["passed"]) + warm_failed
    return finish(info, attempted, failed, metrics)


def layer_metrics(setup: dict, ops: dict, n: int) -> dict:
    """Set-up totals for the set-up layers, means per op for the rest."""
    calls, counts, incl = ops["calls"], ops["counts"], ops["incl_s"]
    own, layer_self = ops["self_s"], ops["layer_self_s"]

    def per_op(value: float, unit: str) -> dict:
        return metric(value / n, unit)

    def ratio(num: float, den: float) -> dict:
        return metric(num / den if den else 0.0, "1")

    return {
        "gf2k.mul.calls": per_op(counts.get("gf2k.mul.calls", 0), "count/op"),
        "gf2k.inv.calls": per_op(counts.get("gf2k.inv.calls", 0), "count/op"),
        "ringpoly.mul.calls": per_op(calls.get("ringpoly.mul", 0), "count/op"),
        "ringpoly.add.calls": per_op(calls.get("ringpoly.add", 0), "count/op"),
        "ringpoly.mul.term_pairs": per_op(counts.get("ringpoly.mul.term_pairs", 0), "count/op"),
        "ringpoly.arith_s": per_op(incl.get("ringpoly", 0.0), "s/op"),
        "ringmat.matmul.calls": per_op(calls.get("ringmat.matmul", 0), "count/op"),
        "ringmat.matmul.self_s": per_op(own.get("ringmat.matmul", 0.0), "s/op"),
        "ringmat.elim.calls": per_op(calls.get("ringmat.elim", 0), "count/op"),
        "ringmat.elim.s": per_op(incl.get("ringmat.elim", 0.0), "s/op"),
        "ringmat.elim.rows": per_op(counts.get("ringmat.elim.rows", 0), "count/op"),
        "ringmat.elim.cells": per_op(counts.get("ringmat.elim.cells", 0), "count/op"),
        "ringmat.elim.pivot_ratio": ratio(counts.get("ringmat.elim.rank", 0),
                                          counts.get("ringmat.elim.ranked_rows", 0)),
        "ringmat.self_s": per_op(layer_self.get("ringmat", 0.0), "s/op"),
        "cohomwin.self_s": per_op(layer_self.get("cohomwin", 0.0), "s/op"),
        "cohomwin.columns": per_op(counts.get("cohomwin.columns", 0), "count/op"),
        "cohomwin.out_width": per_op(counts.get("cohomwin.out_width", 0), "count/op"),
        "mfcore.verify_s": per_op(incl.get("mfcore.verify", 0.0), "s/op"),
        "mfcore.self_s": per_op(layer_self.get("mfcore", 0.0), "s/op"),
        "mfcore.search.self_s": per_op(own.get("mfcore.search", 0.0), "s/op"),
        "mfcore.search.candidates": per_op(counts.get("mfcore.search.candidates", 0), "count/op"),
        "mfcore.search.found": per_op(counts.get("mfcore.search.found", 0), "count/op"),
        "mfcore.search.yield": ratio(counts.get("mfcore.search.found", 0),
                                     counts.get("mfcore.search.candidates", 0)),
        "paperlab.reduce.self_s": per_op(own.get("paperlab.reduce", 0.0), "s/op"),
        "paperlab.self_s": per_op(layer_self.get("paperlab", 0.0), "s/op"),
        "paperlab.context_s": metric(setup["incl_s"].get("paperlab.context", 0.0), "s"),
        "groebner.s": metric(setup["incl_s"].get("groebner", 0.0), "s"),
        "groebner.buchberger.calls": metric(setup["calls"].get("groebner.buchberger", 0), "count"),
        "groebner.normal_form.calls": metric(setup["calls"].get("groebner.normal_form", 0), "count"),
        "cli.parse_s": metric(setup["incl_s"].get("cli.parse", 0.0), "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mf2" / "__init__.py").is_file():
        print(f"error: no mf2 sources under {SRC}; run from the root of an mf2 checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args.workload)
    return traced(args) if args.trace else end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
