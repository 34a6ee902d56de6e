"""Command-line front end for the factorization toolkit.

Commands: verify, double, cohomology, jacobian, reduce, evaluate, search,
suite, parse-check.  Input factorizations travel as MF files:

    field: 2^k modulus <bits>
    ring: <vars> laurent:<flags>
    potential: <poly>
    size: n
    <n comma-separated matrix rows>

Exit codes: 0 on success (all checks pass), 1 when a verification fails,
2 on usage or parse errors.  Output is deterministic; the only randomized
command is `suite`, whose seed is printed in its report.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from .gf2k import FieldSpec, default_spec
from .ringpoly import ParseError, RingDescriptor, RingPoly, parse_poly
from .ringmat import RingMatrix, parse_matrix
from .mfcore import (
    UngradedMF,
    double,
    forget,
    search_factorizations,
    verify_mf,
)
from .cohomwin import certify_at_point, cohomology_dims
from .groebner import laurent_jacobian_ideal, minimal_polynomial, quotient_ring
from .paperlab import Rp2Context, run_suite

__all__ = ["main", "parse_mf_text", "emit_mf_text", "MFFile"]


class CliError(ValueError):
    """Usage-level problem: wrong flags, bad points, exceeded budgets."""


# -- the MF file format ------------------------------------------------------------


class MFFile:
    """Parsed MF file: a coefficient ring, a potential, and a square matrix."""

    __slots__ = ("ring", "w", "q")

    def __init__(self, ring: RingDescriptor, w: RingPoly, q: RingMatrix):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("MFFile is immutable")


def parse_mf_text(text: str) -> MFFile:
    """Parse the five-part MF file format; raises ParseError with position."""
    lines = text.split("\n")

    def line_at(i: int) -> str:
        if i >= len(lines):
            raise ParseError("unexpected end of file", i + 1, 1)
        return lines[i].strip()

    m = re.fullmatch(r"field:\s*2\^(\d+)\s+modulus\s+([01]+)", line_at(0))
    if not m:
        raise ParseError("expected 'field: 2^k modulus <bits>'", 1, 1)
    try:
        spec = FieldSpec(int(m.group(1)), int(m.group(2), 2))
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from None

    m = re.fullmatch(r"ring:\s*(.+?)\s+laurent:([01]+)", line_at(1))
    if not m:
        raise ParseError("expected 'ring: <vars> laurent:<flags>'", 2, 1)
    names = tuple(m.group(1).split())
    flags = tuple(c == "1" for c in m.group(2))
    if len(flags) != len(names):
        raise ParseError("laurent flags do not match the variable count", 2, 1)
    try:
        ring = RingDescriptor(spec, names, flags)
    except ValueError as exc:
        raise ParseError(str(exc), 2, 1) from None

    potential_line = line_at(2)
    if not potential_line.startswith("potential:"):
        raise ParseError("expected 'potential: <poly>'", 3, 1)
    w = parse_poly(potential_line[len("potential:"):], ring, line_offset=2)

    m = re.fullmatch(r"size:\s*(\d+)", line_at(3))
    if not m:
        raise ParseError("expected 'size: n'", 4, 1)
    size = int(m.group(1))
    if size < 1:
        raise ParseError("size must be positive", 4, 1)

    row_lines = [(i, lines[i]) for i in range(4, len(lines)) if lines[i].strip()]
    if len(row_lines) != size:
        raise ParseError(
            f"expected {size} matrix rows, found {len(row_lines)}", 5, 1
        )
    entries: list[RingPoly] = []
    for i, row_text in row_lines:
        row = parse_matrix(row_text, ring, rows=1, cols=size, line_offset=i)
        entries.extend(row.row(0))
    return MFFile(ring, w, RingMatrix(ring, size, size, entries))


def emit_mf_text(w: RingPoly, q: RingMatrix) -> str:
    """Canonical MF file text; parse_mf_text(emit_mf_text(...)) round-trips."""
    ring = q.ring
    spec = ring.field
    lines = [
        f"field: 2^{spec.k} modulus {spec.modulus:b}",
        "ring: " + " ".join(ring.vars)
        + " laurent:" + "".join("1" if f else "0" for f in ring.laurent),
        f"potential: {w}",
        f"size: {q.rows}",
    ]
    for i in range(q.rows):
        lines.append(", ".join(str(q.at(i, j)) for j in range(q.cols)))
    return "\n".join(lines) + "\n"


def _load_mf(path: str) -> MFFile:
    return parse_mf_text(Path(path).read_text())


# -- shared flag handling -------------------------------------------------------------


def _field_flag(text: str) -> FieldSpec:
    m = re.fullmatch(r"2\^(\d+)(?::([01]+))?", text)
    if not m:
        raise argparse.ArgumentTypeError(
            "field must look like 2^k or 2^k:modulusbits"
        )
    try:
        if m.group(2):
            return FieldSpec(int(m.group(1)), int(m.group(2), 2))
        return default_spec(int(m.group(1)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _infer_ring(text: str, spec: FieldSpec, vars_flag: Optional[str],
                laurent_flag: Optional[str]) -> RingDescriptor:
    """Ring for a bare potential: variables in order of first appearance,
    Laurent wherever a negative exponent occurs, unless overridden."""
    if vars_flag:
        names = tuple(vars_flag.replace(",", " ").split())
    else:
        names = []
        for m in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*", text):
            if m.group(0) not in names:
                names.append(m.group(0))
        names = tuple(names)
        if not names:
            raise CliError("no variables found in the potential; pass --vars")
    if laurent_flag is not None:
        if len(laurent_flag) != len(names) or set(laurent_flag) - {"0", "1"}:
            raise CliError("--laurent must be a 0/1 string, one flag per variable")
        return RingDescriptor(spec, names, tuple(c == "1" for c in laurent_flag))
    probe = parse_poly(text, RingDescriptor(spec, names, (True,) * len(names)))
    flags = tuple(
        any(exps[i] < 0 for exps in probe.terms) for i in range(len(names))
    )
    return RingDescriptor(spec, names, flags)


def _emit(args, text_lines: Sequence[str], records: Sequence[tuple[str, str]]) -> None:
    if getattr(args, "format", "text") == "records":
        for key, value in records:
            print(f"{key}={value}")
    else:
        for line in text_lines:
            print(line)


# -- commands ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    mff = _load_mf(args.file)
    report = verify_mf(mff.q, mff.w)
    if report.ok:
        _emit(args, ["Q^2 = W*Id: OK"], [("ok", "true"), ("residual_terms", "0")])
        return 0
    _emit(
        args,
        [f"Q^2 = W*Id: FAIL ({report.residual_terms} residual terms)"],
        [("ok", "false"), ("residual_terms", str(report.residual_terms))],
    )
    return 1


def cmd_double(args) -> int:
    mff = _load_mf(args.file)
    folded = forget(double(UngradedMF(mff.w, mff.q)))
    sys.stdout.write(emit_mf_text(folded.w, folded.q))
    return 0


def cmd_cohomology(args) -> int:
    if args.dmax < 1:
        raise CliError("--dmax must be at least 1")
    mff = _load_mf(args.file)
    mf = UngradedMF(mff.w, mff.q)
    dims = cohomology_dims(mf, mf, args.dmax)
    text = [f"h[{d}] = {dims[d]}" for d in sorted(dims)]
    records = [(f"h[{d}]", str(dims[d])) for d in sorted(dims)]
    _emit(args, text, records)
    return 0


def cmd_jacobian(args) -> int:
    if (args.file is None) == (args.potential is None):
        raise CliError("pass exactly one of an MF file or --potential")
    if args.file is not None:
        mff = _load_mf(args.file)
        ring, w = mff.ring, mff.w
    else:
        spec = args.field if args.field is not None else default_spec(1)
        ring = _infer_ring(args.potential, spec, args.vars, args.laurent)
        w = parse_poly(args.potential, ring)
    quotient = quotient_ring(laurent_jacobian_ideal(w))
    dim = quotient.dimension
    if dim is None:
        _emit(args, ["dimension infinite"], [("dimension", "infinite")])
        return 0
    text = [f"dimension {dim}"]
    records = [("dimension", str(dim))]
    if dim > 0:
        minpoly = minimal_polynomial(quotient.mult_matrices[0], var=ring.vars[0])
        text.append(f"minimal polynomial of {ring.vars[0]}: {minpoly}")
        records.append(("minpoly", str(minpoly)))
    _emit(args, text, records)
    return 0


def cmd_reduce(args) -> int:
    if (args.file is None) == (args.matrix is None):
        raise CliError("pass exactly one of a matrix file or --matrix")
    spec = args.field if args.field is not None else default_spec(1)
    ctx = Rp2Context(spec)
    text = args.matrix if args.matrix is not None else Path(args.file).read_text()
    mat = parse_matrix(text, ctx.ring, rows=4, cols=4)
    result = ctx.reduce_endomorphism(mat)
    _emit(
        args,
        [f"alpha = {result.alpha}", "witness verified: delta(g) = f + alpha*Id"],
        [("alpha", str(result.alpha)), ("witness_verified", "true")],
    )
    return 0


def cmd_evaluate(args) -> int:
    mff = _load_mf(args.file)
    mf = UngradedMF(mff.w, mff.q)
    ring = mff.ring
    spec = ring.field
    tokens = args.point.split(",")
    if len(tokens) != ring.nvars:
        raise CliError(
            f"point needs {ring.nvars} coordinates, got {len(tokens)}"
        )
    values = []
    for token, name, laurent in zip(tokens, ring.vars, ring.laurent):
        try:
            value = spec.validate(int(token.strip()))
        except ValueError as exc:
            raise CliError(str(exc)) from None
        if laurent and value == 0:
            raise CliError(
                f"coordinate for Laurent variable '{name}' must be nonzero"
            )
        values.append(value)
    point = [spec.element(v) for v in values]
    critical = all(not mff.w.partial(i).evaluate(point) for i in range(ring.nvars))
    identity = RingMatrix.identity(ring, mf.size)
    report = certify_at_point(mf, mf, point, [identity])
    exact = report.is_exact(0)
    text = [
        f"point ({args.point}): {'critical' if critical else 'non-critical'}",
        f"local kernel {report.kernel_dim}, image {report.image_dim},"
        f" cohomology {report.local_dim}",
        f"identity class exact: {'true' if exact else 'false'}",
    ]
    records = [
        ("critical", "true" if critical else "false"),
        ("kernel", str(report.kernel_dim)),
        ("image", str(report.image_dim)),
        ("local_dim", str(report.local_dim)),
        ("identity_exact", "true" if exact else "false"),
    ]
    _emit(args, text, records)
    return 0


def cmd_search(args) -> int:
    spec = args.field if args.field is not None else default_spec(1)
    ring = _infer_ring(args.potential, spec, args.vars, args.laurent)
    w = parse_poly(args.potential, ring)
    support = []
    for token in args.support.split(","):
        p = parse_poly(token.strip(), ring)
        if len(p.terms) != 1:
            raise CliError(f"support entry '{token.strip()}' is not a monomial")
        support.append(next(iter(p.terms)))
    try:
        results = search_factorizations(w, args.size, support, args.budget_bits)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    bad = [q for q in results if not verify_mf(q, w).ok]
    if bad:
        print("error: a search result failed re-verification", file=sys.stderr)
        return 1
    one_liners = [
        "; ".join(", ".join(str(q.at(i, j)) for j in range(q.cols))
                  for i in range(q.rows))
        for q in results
    ]
    text = [f"found {len(results)} factorization(s)"]
    text.extend(f"q[{i}]: {line}" for i, line in enumerate(one_liners))
    records = [("count", str(len(results)))]
    records.extend((f"q[{i}]", line) for i, line in enumerate(one_liners))
    _emit(args, text, records)
    return 0


def cmd_suite(args) -> int:
    report = run_suite(seed=args.seed, spec=args.field)
    records = [(f"check[{c.check_id}]", "PASS" if c.passed else "FAIL")
               for c in report.checks]
    records.extend([
        ("passed", str(report.passed_count)),
        ("total", str(len(report.checks))),
        ("seed", str(report.seed)),
    ])
    _emit(args, report.lines(), records)
    return 0 if report.ok else 1


def cmd_parse_check(args) -> int:
    mff = _load_mf(args.file)
    sys.stdout.write(emit_mf_text(mff.w, mff.q))
    return 0


# -- wiring --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mf2",
        description="Exact certification toolkit for matrix factorizations over GF(2^k).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "records"), default="text",
                       help="output style: human text or key=value records")

    def add_field(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", type=_field_flag, default=None,
                       metavar="2^k[:bits]",
                       help="coefficient field, e.g. 2^2 or 2^3:1011")

    def add_ring_overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument("--vars", default=None,
                       help="variable names for --potential, e.g. 'x y z'")
        p.add_argument("--laurent", default=None,
                       help="0/1 Laurent flags matching --vars, e.g. '110'")

    p = sub.add_parser("verify", help="check Q^2 = W*Id for an MF file")
    p.add_argument("file")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("double", help="emit the doubled factorization as MF text")
    p.add_argument("file")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("cohomology", help="window dimensions of End(Q)")
    p.add_argument("file")
    p.add_argument("--dmax", type=int, default=4, help="largest window radius")
    add_format(p)
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("jacobian", help="dimension and minimal polynomial of Jac(W)")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--potential", default=None, help="potential as an expression")
    add_field(p)
    add_ring_overrides(p)
    add_format(p)
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser(
        "reduce",
        help="normalize a closed endomorphism of the projective-plane factorization",
    )
    p.add_argument("file", nargs="?", default=None,
                   help="file with 4 comma-separated matrix rows")
    p.add_argument("--matrix", default=None,
                   help="matrix text, rows separated by ';'")
    add_field(p)
    add_format(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("evaluate", help="specialize End(Q) at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, metavar="a,b[,c]",
                   help="field elements as serialized integers")
    add_format(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="brute-force factorizations over a support")
    p.add_argument("--potential", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--support", required=True,
                   help="comma-separated monomials, e.g. 'x,y'")
    p.add_argument("--budget-bits", type=int, default=24)
    add_field(p)
    add_ring_overrides(p)
    add_format(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("suite", help="run the full certification battery")
    p.add_argument("--seed", type=int, default=2024)
    add_field(p)
    add_format(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("parse-check", help="parse an MF file and emit canonical text")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, CliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # verification-level failure: not a factorization, not closed, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
