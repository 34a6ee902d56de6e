"""Seeded inputs, set-up and ops for the four benchmark workloads.

Nothing here imports mf2 at module level: `setup` does the imports, so a
fresh process can time them.  An op is one public mf2 call plus a check of
its output against `references.json` (or, for `reduce`, against the scalar
the input was built from).  Every call goes through a module attribute at
call time, so the tracer's rebound names are the ones used.

Each workload produces its ops in rounds.  A round holds a fixed number of
ops of each class, in seeded order, so the median and the 90th percentile
of op time fall inside one class whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE.parent / "src" / "mf2" / "fixtures"
REFERENCES = HERE / "references.json"

WORKLOADS = ("window_gf2", "window_gf4", "reduce", "search")

FIXTURES = (
    "rp2", "double_rp2",
    "an_q_1", "an_q_2", "an_q_3", "an_q_4",
    "an_r_1", "an_r_2", "an_r_3", "an_r_4",
)
GF2_HEADER = "field: 2^1 modulus 11"
GF4_HEADER = "field: 2^2 modulus 111"
# double_rp2 is left out over GF(4): one radius-1 window takes about 12 s.
GF4_FIXTURES = tuple(name for name in FIXTURES if name != "double_rp2")

# Largest radius each fixture is run at; references cover these radii.
MAX_RADIUS = {"rp2": 6, "double_rp2": 2}
AN_MAX_RADIUS = 8
SOLVE_RADII = {"gf2": (1, 2, 3), "gf4": (1,)}

# (potential, size, comma-separated support, class).  Class "a" is 8 bits
# of assignment space, "b" 9 bits and "c" 12 bits.
SEARCH_POOL = (
    ("x^2 + y^2", 2, "x,y", "a"),
    ("x^4 + y^2", 2, "x^2,y", "a"),
    ("x^2*y^2 + x^2 + y^2", 2, "x*y,x", "a"),
    ("x^2*y^2 + x^2 + y^2", 2, "x,y", "a"),
    ("x^2 + x*y + y^2", 2, "x,y", "a"),
    ("x + y + x^-1*y^-1", 2, "1,x^-1*y^-1", "a"),
    ("x + y + x^-1*y^-1", 2, "x,y", "a"),
    ("x^2 + y^2", 3, "x", "b"),
    ("x^2 + y^2", 3, "y", "b"),
    ("x^4 + y^2", 3, "y", "b"),
    ("x^4 + y^2", 3, "x^2", "b"),
    ("x^2*y^2 + x^2 + y^2", 3, "x*y", "b"),
    ("x^2 + x*y + y^2", 3, "x", "b"),
    ("x + y + x^-1*y^-1", 3, "1", "b"),
    ("x^2 + y^2", 2, "x,y,1", "c"),
    ("x^2 + y^2", 2, "x,y,x*y", "c"),
    ("x^4 + y^2", 2, "x^2,y,x", "c"),
    ("x^2*y^2 + x^2 + y^2", 2, "x*y,x,y", "c"),
    ("x^2 + x*y + y^2", 2, "x,y,1", "c"),
    ("x + y + x^-1*y^-1", 2, "1,x,y", "c"),
)
# Among the slowest triples of classes a and b, so the other triples of
# their class mostly sort below them.
MID_TRIPLE = ("x + y + x^-1*y^-1", 2, "1,x^-1*y^-1")
TOP_TRIPLE = ("x^4 + y^2", 3, "x^2")


def search_key(potential: str, size: int, support: str) -> str:
    return f"{potential}|{size}|{support}"


def results_digest(results) -> dict:
    """Count and sha256 of the ordered, printed result list."""
    text = "\n".join(str(q) for q in results)
    return {"count": len(results), "sha256": hashlib.sha256(text.encode()).hexdigest()}


@dataclass
class Op:
    kind: str  # the op class; rounds fix how many of each class run
    label: str  # the input, for failure messages
    call: Callable[[], Any]
    check: Callable[[Any], bool]


# -- set-up -------------------------------------------------------------------


def read_inputs(workload: str) -> dict[str, str]:
    """Fixture texts the set-up parses; reading files is not timed."""
    if workload == "window_gf2":
        return {n: (FIXTURE_DIR / f"{n}.mf").read_text() for n in FIXTURES}
    if workload == "window_gf4":
        return {
            n: (FIXTURE_DIR / f"{n}.mf").read_text().replace(GF2_HEADER, GF4_HEADER, 1)
            for n in GF4_FIXTURES
        }
    return {}


def setup(workload: str, texts: dict[str, str]) -> dict:
    """Program-side set-up: imports, fixture parsing and UngradedMF
    verification, Rp2Context builds, potential parsing."""
    from mf2 import cli, cohomwin, mfcore, paperlab  # noqa: F401  (timed imports)
    from mf2.gf2k import default_spec
    from mf2.ringpoly import RingDescriptor, parse_poly

    if workload in ("window_gf2", "window_gf4"):
        mfs = {}
        for name, text in texts.items():
            parsed = cli.parse_mf_text(text)
            mfs[name] = mfcore.UngradedMF(parsed.w, parsed.q)
        return {"mfs": mfs}
    if workload == "reduce":
        return {"contexts": [paperlab.Rp2Context(default_spec(k)) for k in (1, 2)]}
    if workload == "search":
        parsed = {}
        for potential, size, support, _ in SEARCH_POOL:
            ring = RingDescriptor(default_spec(1), *_ring_of(potential))
            w = parse_poly(potential, ring)
            mons = [next(iter(parse_poly(m, ring).terms)) for m in support.split(",")]
            parsed[search_key(potential, size, support)] = (w, size, mons)
        return {"triples": parsed}
    raise ValueError(f"unknown workload {workload!r}")


def _ring_of(potential: str) -> tuple[tuple[str, ...], tuple[bool, ...]]:
    """Variables in order of first appearance; Laurent when any exponent is negative."""
    names = []
    for ch in potential:
        if ch.isalpha() and ch not in names:
            names.append(ch)
    laurent = "^-" in potential
    return tuple(names), (laurent,) * len(names)


# -- op streams ---------------------------------------------------------------


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def rounds(workload: str, seed, state: dict, refs: dict) -> Iterator[list[Op]]:
    """Endless seeded stream of rounds of ops."""
    rng = random.Random(f"{workload}:{seed}")
    make = {
        "window_gf2": _window_gf2_round,
        "window_gf4": _window_gf4_round,
        "reduce": _reduce_round,
        "search": _search_round,
    }[workload]
    while True:
        yield make(rng, state, refs)


def _round(rng: random.Random, counts: dict[str, int]) -> list[str]:
    kinds = [k for k, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def _conjugate(mf, rng: random.Random, units: bool):
    """P*Q*P^T for a seeded permutation P, then D*Q*D^-1 for a seeded
    diagonal D of field units when `units` is set.  h_d, exactness and
    local dimensions are invariant under both."""
    from mf2.mfcore import UngradedMF
    from mf2.ringmat import RingMatrix

    q = mf.q
    n = q.rows
    perm = list(range(n))
    rng.shuffle(perm)
    spec = mf.ring.field
    diag = [rng.randrange(1, spec.order) if units else 1 for _ in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            c = spec.mul(diag[i], spec.inv(diag[j]))
            entries.append(q.at(perm[i], perm[j]).scale(c))
    return UngradedMF(mf.w, RingMatrix(mf.ring, n, n, entries))


def _cohomology_op(kind: str, name: str, mf, d: int, refs: dict) -> Op:
    from mf2 import cohomwin

    want = {k: refs["h"][name][str(k)] for k in range(1, d + 1)}
    return Op(
        kind, f"cohomology {name} dmax={d}",
        lambda: cohomwin.cohomology_dims(mf, mf, d),
        lambda got: got == want,
    )


def _solve_op(kind: str, field: str, mf, d: int, target: str, refs: dict) -> Op:
    from mf2 import cohomwin
    from mf2.mfcore import Morphism
    from mf2.ringmat import RingMatrix

    ident = RingMatrix.identity(mf.ring, mf.size)
    f = ident.scale(mf.w.partial("x")) if target == "dwdx" else ident
    morphism = Morphism(mf, mf, f)
    window = cohomwin.Window.symmetric(mf.ring, d)
    want = refs["solve"][f"{field}:{d}:{target}"]
    return Op(
        kind, f"solve_exactness rp2 {target} d={d} over {field}",
        lambda: cohomwin.solve_exactness(morphism, window),
        lambda got: (got is not None) == want,
    )


def _point_op(kind: str, mf, a: int, b: int, refs: dict) -> Op:
    from mf2 import cohomwin
    from mf2.ringmat import RingMatrix

    spec = mf.ring.field
    point = [spec.element(a), spec.element(b)]
    classes = [RingMatrix.identity(mf.ring, mf.size)]
    want = refs["points"][f"{a},{b}"]
    return Op(
        kind, f"certify_at_point rp2 ({a},{b})",
        lambda: cohomwin.certify_at_point(mf, mf, point, classes),
        lambda got: [got.local_dim, got.is_exact(0)] == [want["local_dim"], want["identity_exact"]],
    )


def _window_gf2_round(rng: random.Random, state: dict, refs: dict) -> list[Op]:
    """light: dmax drawn per op, all under ~45 ms; mid: rp2 at dmax 4
    (holds the median); upper: double_rp2 at dmax 2; top: rp2 at dmax 6
    (holds the 90th percentile)."""
    mfs = state["mfs"]
    ops = []
    for kind in _round(rng, {"light": 7, "mid": 7, "upper": 2, "top": 4}):
        if kind == "light":
            family = rng.choice(("an_r", "an_q", "rp2", "solve"))
            if family == "solve":
                d, target = rng.randint(1, 3), rng.choice(("dwdx", "id"))
                mf = _conjugate(mfs["rp2"], rng, False)
                ops.append(_solve_op(kind, "gf2", mf, d, target, refs))
                continue
            if family == "rp2":
                name, d = "rp2", rng.randint(1, 2)
            else:
                name = f"{family}_{rng.randint(1, 4)}"
                d = rng.randint(2, AN_MAX_RADIUS) if family == "an_r" else rng.randint(1, 4)
        else:
            name, d = {"mid": ("rp2", 4), "upper": ("double_rp2", 2), "top": ("rp2", 6)}[kind]
        ops.append(_cohomology_op(kind, name, _conjugate(mfs[name], rng, False), d, refs))
    return ops


def _window_gf4_round(rng: random.Random, state: dict, refs: dict) -> list[Op]:
    """light: an_r (dmax 1..5), an_q (dmax 1) and point certificates;
    mid: solve_exactness on rp2 at radius 1 (holds the median); upper:
    an_q at dmax 3; top: rp2 at dmax 1 (holds the 90th percentile)."""
    mfs = state["mfs"]
    ops = []
    for kind in _round(rng, {"light": 7, "mid": 7, "upper": 2, "top": 4}):
        if kind == "mid":
            mf = _conjugate(mfs["rp2"], rng, True)
            ops.append(_solve_op(kind, "gf4", mf, 1, rng.choice(("dwdx", "id")), refs))
            continue
        if kind == "light":
            family = rng.choice(("an_r", "an_q", "point"))
            if family == "point":
                mf = _conjugate(mfs["rp2"], rng, True)
                ops.append(_point_op(kind, mf, rng.randint(1, 3), rng.randint(1, 3), refs))
                continue
            name = f"{family}_{rng.randint(1, 4)}"
            d = rng.randint(1, 5) if family == "an_r" else 1
        else:
            name, d = ("an_q_" + str(rng.randint(1, 4)), 3) if kind == "upper" else ("rp2", 1)
        ops.append(_cohomology_op(kind, name, _conjugate(mfs[name], rng, True), d, refs))
    return ops


# -- reduce -----------------------------------------------------------------------


def _gf_mul(a: int, b: int, k: int, modulus: int) -> int:
    """Carry-less product reduced by the modulus; an oracle independent of mf2."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    for shift in range(p.bit_length() - 1 - k, -1, -1):
        if p >> (shift + k) & 1:
            p ^= modulus << shift
    return p


def _fold(terms: dict) -> dict:
    """Expected alpha: x^a*y^b collapses to x^((a+b) mod 3)."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in terms.items():
        key = ((a + b) % 3, 0)
        out[key] = out.get(key, 0) ^ c
    return {e: c for e, c in out.items() if c}


def _poly_product(p: dict, q: dict, k: int, modulus: int) -> dict:
    out: dict[tuple[int, int], int] = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) ^ _gf_mul(c1, c2, k, modulus)
    return {e: c for e, c in out.items() if c}


def _random_terms(rng: random.Random, order: int, span: int, nterms: int) -> dict:
    return {
        (rng.randint(-span, span), rng.randint(-span, span)): rng.randrange(1, order)
        for _ in range(nterms)
    }


def _closed_endomorphism(ctx, rng: random.Random, span_hi: int, terms_hi: int):
    """(alpha terms, f = alpha*Id + delta(g)) for seeded alpha and 4x4 g with
    span 1..span_hi and 2..terms_hi terms per entry."""
    from mf2.ringmat import RingMatrix
    from mf2.ringpoly import RingPoly

    ring, order = ctx.ring, ctx.spec.order
    alpha = _random_terms(rng, order, 3, rng.randint(1, 3))
    span = rng.randint(1, span_hi)
    g = RingMatrix(ring, 4, 4, [
        RingPoly(ring, _random_terms(rng, order, span, rng.randint(2, terms_hi)))
        for _ in range(16)
    ])
    f = RingMatrix.identity(ring, 4).scale(RingPoly(ring, alpha)) + ctx.q * g + g * ctx.q
    return alpha, f


def _reduce_op(kind: str, ctx, f, want: dict) -> Op:
    return Op(
        kind, f"reduce_endomorphism over GF(2^{ctx.spec.k}): {f}",
        lambda: ctx.reduce_endomorphism(f),
        lambda got: got.alpha.terms == want,
    )


def _reduce_round(rng: random.Random, state: dict, refs: dict) -> list[Op]:
    """GF(2) and GF(4) contexts in equal numbers; one op in five reduces a
    product f*h, whose scalar is the folded product of the two scalars."""
    gf2, gf4 = state["contexts"]
    ops = []
    for kind in _round(rng, {"gf2": 4, "gf4": 4, "product_gf2": 1, "product_gf4": 1}):
        ctx = gf2 if kind.endswith("gf2") else gf4
        k, modulus = ctx.spec.k, ctx.spec.modulus
        if kind.startswith("product"):
            alpha_f, f = _closed_endomorphism(ctx, rng, 1, 3)
            alpha_h, h = _closed_endomorphism(ctx, rng, 1, 3)
            want = _fold(_poly_product(alpha_f, alpha_h, k, modulus))
            ops.append(_reduce_op(kind, ctx, f * h, want))
        else:
            alpha, f = _closed_endomorphism(ctx, rng, 3, 5)
            ops.append(_reduce_op(kind, ctx, f, _fold(alpha)))
    return ops


# -- search -----------------------------------------------------------------------


def _search_round(rng: random.Random, state: dict, refs: dict) -> list[Op]:
    """light: other class-a triples; mid: MID_TRIPLE (holds the median);
    upper: other class-b triples; top: TOP_TRIPLE (holds the 90th
    percentile); slow: one class-c triple.  Each quantile sits inside the
    ops of a single triple, since triples of one class differ in time."""
    from mf2 import mfcore

    light = [t[:3] for t in SEARCH_POOL if t[3] == "a" and t[:3] != MID_TRIPLE]
    upper = [t[:3] for t in SEARCH_POOL if t[3] == "b" and t[:3] != TOP_TRIPLE]
    slow = [t[:3] for t in SEARCH_POOL if t[3] == "c"]
    choose = {"light": lambda: rng.choice(light), "mid": lambda: MID_TRIPLE,
              "upper": lambda: rng.choice(upper), "top": lambda: TOP_TRIPLE,
              "slow": lambda: rng.choice(slow)}
    ops = []
    for kind in _round(rng, {"light": 6, "mid": 8, "upper": 1, "top": 4, "slow": 1}):
        key = search_key(*choose[kind]())
        w, n, mons = state["triples"][key]
        want = refs["search"][key]
        ops.append(Op(
            kind, f"search {key}",
            lambda w=w, n=n, mons=mons: mfcore.search_factorizations(w, n, mons),
            lambda got, want=want: results_digest(got) == want,
        ))
    return ops
