#!/usr/bin/env python3
"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root (about two minutes).  It runs every workload
at minimal length, untraced and traced, and asserts that no op failed,
that the output carries exactly the metrics BENCHMARK.json names, and that
search candidates are counted on the search workload only.  It then checks
that conjugated and GF(4)-lifted inputs give the references recorded for
the base fixtures, which is what lets one reference table serve every seed.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import workloads as wl

ROOT = wl.HERE.parent
RUN = wl.HERE / "run.py"


def expect(ok: bool, what) -> None:
    """Fail the self-check (an assert would vanish under python -O)."""
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    expect(proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workload names")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            result = run(workload, trace)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            expect(result["correct"] and result["failed"] == 0, (workload, trace, result))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == names, (workload, trace, set(got) ^ set(names)))
            if trace:
                candidates = result["metrics"]["mfcore.search.candidates"]["value"]
                expect((candidates > 0) == (workload == "search"), (workload, candidates))
            print(f"ok {workload} trace={trace}: {result['attempted']} ops checked")


def check_invariance() -> None:
    """Conjugates and GF(4) lifts reproduce the base-fixture references."""
    from mf2 import cohomwin

    refs = wl.load_references()
    rng = random.Random(2024)
    for workload, field, units, radius in (("window_gf2", "gf2", False, 3),
                                           ("window_gf4", "gf4", True, 1)):
        mfs = wl.setup(workload, wl.read_inputs(workload))["mfs"]
        for name, mf in mfs.items():
            dmax = min(radius, len(refs["h"][name]))
            for candidate in (mf, wl._conjugate(mf, rng, units)):
                dims = cohomwin.cohomology_dims(candidate, candidate, dmax)
                expect(dims == {d: refs["h"][name][str(d)] for d in dims}, (workload, name, dims))
        for d in wl.SOLVE_RADII[field]:
            for target in ("dwdx", "id"):
                op = wl._solve_op("check", field, wl._conjugate(mfs["rp2"], rng, units), d, target, refs)
                expect(op.check(op.call()), op.label)
    rp2 = wl.setup("window_gf4", wl.read_inputs("window_gf4"))["mfs"]["rp2"]
    for point in refs["points"]:
        a, b = map(int, point.split(","))
        op = wl._point_op("check", wl._conjugate(rp2, rng, True), a, b, refs)
        expect(op.check(op.call()), op.label)
    print("ok conjugated and lifted inputs match the base references")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    check_invariance()
    check_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
