#!/usr/bin/env python3
"""Record the exact output references the benchmark checks against.

    python3 perfbench/record_references.py

Run from the repository root; it overwrites perfbench/references.json.
References are computed on the unconjugated GF(2) fixtures (h_d tables,
exactness at each radius), on rp2 lifted to GF(4) (exactness at radius 1,
local dimensions at the nine torus points), and for every triple of the
search pool.  The benchmark's inputs are conjugates and lifts of these, so
the tables apply to every seed.
"""

from __future__ import annotations

import json
import sys

import workloads as wl

sys.path.insert(0, str(wl.HERE.parent / "src"))

from mf2 import cohomwin  # noqa: E402
from mf2.mfcore import Morphism, search_factorizations  # noqa: E402
from mf2.ringmat import RingMatrix  # noqa: E402


def solve_exists(mf, d: int, target: str) -> bool:
    ident = RingMatrix.identity(mf.ring, mf.size)
    f = ident.scale(mf.w.partial("x")) if target == "dwdx" else ident
    window = cohomwin.Window.symmetric(mf.ring, d)
    return cohomwin.solve_exactness(Morphism(mf, mf, f), window) is not None


def main() -> None:
    gf2 = wl.setup("window_gf2", wl.read_inputs("window_gf2"))["mfs"]
    gf4 = wl.setup("window_gf4", wl.read_inputs("window_gf4"))["mfs"]
    refs: dict = {"h": {}, "solve": {}, "points": {}, "search": {}}
    for name, mf in gf2.items():
        dmax = wl.MAX_RADIUS.get(name, wl.AN_MAX_RADIUS)
        dims = cohomwin.cohomology_dims(mf, mf, dmax)
        refs["h"][name] = {str(d): h for d, h in dims.items()}
    for field, mfs in (("gf2", gf2), ("gf4", gf4)):
        for d in wl.SOLVE_RADII[field]:
            for target in ("dwdx", "id"):
                refs["solve"][f"{field}:{d}:{target}"] = solve_exists(mfs["rp2"], d, target)
    rp2 = gf4["rp2"]
    spec = rp2.ring.field
    for a in range(1, spec.order):
        for b in range(1, spec.order):
            report = cohomwin.certify_at_point(
                rp2, rp2, [spec.element(a), spec.element(b)],
                [RingMatrix.identity(rp2.ring, rp2.size)],
            )
            refs["points"][f"{a},{b}"] = {
                "local_dim": report.local_dim, "identity_exact": report.is_exact(0),
            }
    triples = wl.setup("search", {})["triples"]
    for key, (w, size, mons) in triples.items():
        refs["search"][key] = wl.results_digest(search_factorizations(w, size, mons))
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCES}")


if __name__ == "__main__":
    main()
