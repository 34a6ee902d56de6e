"""Command-line front end for the factorization toolkit.

Commands: verify, double, cohomology, jacobian, reduce, evaluate, search,
suite, parse-check.  Input factorizations travel as MF files, whose
format mfcore reads and writes.

Exit codes: 0 on success (all checks pass), 1 when a verification fails,
2 on usage or parse errors, 3 on an internal error (a bug in mf2, reported
with its traceback; in `suite` the check that hit it reports ERROR and the
rest still run).  Output is deterministic; the only randomized
command is `suite`, whose seed is printed in its report.
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

from .gf2k import FieldSpec, default_spec
from .ringpoly import ParseError, RingDescriptor, _parse_span, parse_poly
from .ringmat import RingMatrix, parse_matrix
from .mfcore import (
    MFFile,
    UngradedMF,
    VerificationError,
    double,
    emit_mf_text,
    forget,
    parse_mf_text,
    search_factorizations,
    verify_mf,
)
from .cohomwin import certify_at_point, cohomology_dims
from .groebner import laurent_jacobian_ideal, quotient_ring
from .paperlab import Rp2Context, run_suite

__all__ = ["main"]


class CliError(ValueError):
    """Usage-level problem: wrong flags, bad points, exceeded budgets."""


def _load_mf(path: str) -> MFFile:
    return parse_mf_text(Path(path).read_text())


# -- shared flag handling -------------------------------------------------------------


def _field_flag(text: str) -> FieldSpec:
    m = re.fullmatch(r"2\^([0-9]+)(?::([01]+))?", text)
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
        ring = _infer_ring(args.potential, args.field, args.vars, args.laurent)
        w = parse_poly(args.potential, ring)
    quotient = quotient_ring(laurent_jacobian_ideal(w))
    dim = quotient.dimension
    if dim is None:
        _emit(args, ["dimension infinite"], [("dimension", "infinite")])
        return 0
    text = [f"dimension {dim}"]
    records = [("dimension", str(dim))]
    if dim > 0:
        minpoly = quotient.minimal_polynomial()
        text.append(f"minimal polynomial of {ring.vars[0]}: {minpoly}")
        records.append(("minpoly", str(minpoly)))
    _emit(args, text, records)
    return 0


def cmd_reduce(args) -> int:
    if (args.file is None) == (args.matrix is None):
        raise CliError("pass exactly one of a matrix file or --matrix")
    ctx = Rp2Context(args.field)
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
    ring = _infer_ring(args.potential, args.field, args.vars, args.laurent)
    w = parse_poly(args.potential, ring)
    support = []
    start = 0
    for token in args.support.split(","):
        p = _parse_span(args.support, start, start + len(token), ring)
        terms = p.terms
        if list(terms.values()) != [1]:
            raise CliError(f"support entry '{token.strip()}' is not a monomial")
        support.append(next(iter(terms)))
        start += len(token) + 1
    try:
        results = search_factorizations(w, args.size, support, args.budget_bits)
    except VerificationError:
        raise  # a failed verification exits 1, not as a usage error
    except ValueError as exc:
        raise CliError(str(exc)) from None
    one_liners = [str(q) for q in results]
    text = [f"found {len(results)} factorization(s)"]
    text.extend(f"q[{i}]: {line}" for i, line in enumerate(one_liners))
    records = [("count", str(len(results)))]
    records.extend((f"q[{i}]", line) for i, line in enumerate(one_liners))
    _emit(args, text, records)
    return 0


def cmd_suite(args) -> int:
    report = run_suite(seed=args.seed, spec=args.field)
    records = [(f"check[{c.check_id}]", c.verdict) for c in report.checks]
    records.extend([
        ("passed", str(report.passed_count)),
        ("total", str(len(report.checks))),
        ("seed", str(report.seed)),
    ])
    _emit(args, report.lines(), records)
    for check in report.errors:
        print(f"error: internal: {check.detail}\n{check.trace}", end="", file=sys.stderr)
    return 3 if report.errors else 0 if report.ok else 1


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
        p.add_argument("--field", type=_field_flag, default=default_spec(1),
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

    p = sub.add_parser("search",
                       help="all factorizations over a support, by row/column backtracking")
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
    except (ParseError, CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # verification-level failure: not a factorization, not closed, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a bug in mf2 itself: neither bad input nor a failed verification
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
