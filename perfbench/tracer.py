"""Layer tracing from outside the library.

`Tracer.install()` rebinds the calls into each mf2 layer with timing or
counting wrappers and `uninstall()` puts the originals back.  A function
imported with `from .x import f` is rebound in every module that copied
the binding; methods are patched on their class.  Nothing under src/
changes.

Every timed wrapper belongs to a group named `<layer>.<what>`.  Timed
calls keep a stack, so a group's self time is its duration minus the part
its timed children cover; inclusive time is taken at the outermost call of
a group and of a layer, so recursion is not counted twice.  `gf2k` calls
are only counted (a timer around 10^6 field multiplications would swamp
the measurement), so their time stays in the caller's self time; the same
holds for the inline elimination loops inside cohomwin, groebner and the
point certificate, which have no function boundary to wrap.  Spans (id,
group, name, start, end, parent, op id) are kept in memory for the coarse
groups and written once by `dump`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

# Groups called too often to keep one span per call; they keep totals only.
NO_SPANS = ("ringpoly.", "ringmat.matmul")
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.op_id: int | None = None
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # frames: [child seconds, span id]
        self.depth: dict[str, int] = defaultdict(int)  # by group and by layer
        self.calls: dict[str, int] = defaultdict(int)  # by group
        self.counts: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)  # by group and by layer
        self.self_s: dict[str, float] = defaultdict(float)  # by group
        self.spans: list[tuple] = []
        self.next_span = 0

    # -- wrappers -------------------------------------------------------------

    def _timed(self, group: str, fn, before=None, after=None):
        tracer = self
        layer = group.split(".")[0]
        keep = not group.startswith(NO_SPANS)
        perf = time.perf_counter
        depth, incl = self.depth, self.incl

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack = tracer.stack
            parent = stack[-1][1] if stack else None
            if keep:
                span_id = tracer.next_span
                tracer.next_span += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            depth[group] += 1
            depth[layer] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                depth[group] -= 1
                depth[layer] -= 1
                dur = end - start
                tracer.calls[group] += 1
                tracer.self_s[group] += dur - frame[0]
                if not depth[group]:
                    incl[group] += dur
                if not depth[layer]:
                    incl[layer] += dur
                if stack:
                    stack[-1][0] += dur
                if keep and len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (span_id, group, fn.__qualname__, start, end, parent, tracer.op_id))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, modules, attr: str, group: str, after=None) -> None:
        """Rebind `attr` in every module that holds the defining module's function."""
        original = getattr(modules[0], attr)
        wrapper = self._timed(group, original, after=after)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patch(mod, attr, wrapper)

    # -- counters read at the boundary ------------------------------------------

    def _count_poly_mul(self, args) -> None:
        a, b = args
        self.counts["ringpoly.mul.term_pairs"] += len(a.terms) * len(b.terms)

    def _count_matmul(self, args) -> None:
        if self.depth["mfcore.search"]:
            self.counts["mfcore.search.candidates"] += 1

    def _count_elim(self, rows, width: int, rank=None) -> None:
        self.counts["ringmat.elim.rows"] += len(rows)
        self.counts["ringmat.elim.cells"] += len(rows) * width
        if rank is not None:
            self.counts["ringmat.elim.ranked_rows"] += len(rows)
            self.counts["ringmat.elim.rank"] += rank

    def _after_gf2_rank(self, args, rank) -> None:
        rows = args[0]
        self._count_elim(rows, max((r.bit_length() for r in rows), default=0), rank)

    def _after_gf2_solve(self, args, result) -> None:
        rows, target, _ = args
        width = max((r.bit_length() for r in rows), default=0)
        self._count_elim(rows, max(width, target.bit_length()))

    def _after_generic(self, args, result) -> None:
        rows = args[0]
        self._count_elim(rows, len(rows[0]) if rows else 0, len(result[1]))

    def _after_delta_columns(self, args, cols) -> None:
        _, _, basis_in, out_index = args
        self.counts["cohomwin.columns"] += len(basis_in)
        self.counts["cohomwin.out_width"] += len(out_index)

    def _after_search(self, args, result) -> None:
        self.counts["mfcore.search.found"] += len(result)

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        from mf2 import cli, cohomwin, gf2k, groebner, mfcore, paperlab, ringmat, ringpoly

        spec = gf2k.FieldSpec
        self._patch(spec, "mul", self._counted("gf2k.mul.calls", spec.mul))
        self._patch(spec, "inv", self._counted("gf2k.inv.calls", spec.inv))

        poly = ringpoly.RingPoly
        add = self._timed("ringpoly.add", poly.__add__)
        self._patch(poly, "__mul__", self._timed("ringpoly.mul", poly.__mul__, self._count_poly_mul))
        self._patch(poly, "__add__", add)
        self._patch(poly, "__sub__", add)  # the same function in characteristic 2
        matrix = ringmat.RingMatrix
        self._patch(matrix, "__mul__", self._timed("ringmat.matmul", matrix.__mul__, self._count_matmul))
        for attr, after in (
            ("gf2_rank", self._after_gf2_rank),
            ("gf2_solve_combination", self._after_gf2_solve),
            ("_generic_echelon", self._after_generic),
        ):
            self._patch_everywhere((ringmat, cohomwin), attr, "ringmat.elim", after)

        users = (mfcore, cohomwin, groebner, paperlab, cli)  # in import order
        for attr in ("cohomology_dims", "solve_exactness", "certify_at_point"):
            self._patch_everywhere(users[1:], attr, "cohomwin.op")
        self._patch_everywhere(users[1:], "_delta_columns", "cohomwin.columns", self._after_delta_columns)
        self._patch_everywhere(users, "verify_mf", "mfcore.verify")
        for cls in (mfcore.UngradedMF, mfcore.HomotopyWitness):
            self._patch(cls, "__init__", self._timed("mfcore.verify", cls.__init__))
        self._patch_everywhere(users, "search_factorizations", "mfcore.search", self._after_search)

        ctx = paperlab.Rp2Context
        self._patch(ctx, "__init__", self._timed("paperlab.context", ctx.__init__))
        self._patch(ctx, "reduce_endomorphism", self._timed("paperlab.reduce", ctx.reduce_endomorphism))

        for attr in ("laurent_jacobian_ideal", "quotient_ring", "minimal_polynomial"):
            self._patch_everywhere(users[2:], attr, "groebner.quotient")
        self._patch_everywhere(users[2:], "buchberger", "groebner.buchberger")
        self._patch_everywhere(users[2:], "normal_form", "groebner.normal_form")
        self._patch_everywhere(users[4:], "parse_mf_text", "cli.parse")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals since the last reset; layer self time sums its groups."""
        layer_self: dict[str, float] = defaultdict(float)
        for group, s in self.self_s.items():
            layer_self[group.split(".")[0]] += s
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_s),
            "layer_self_s": dict(layer_self),
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "group": g, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, g, n, s, e, p, o in self.spans
        ]


def dump(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
