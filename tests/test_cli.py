"""Command-line interface tests.

Exit-code contract: 0 when every check passes, 1 when a verification fails
(bad factorization, non-closed endomorphism, failed suite check, a
search result failing its re-verification) or a window, a Jacobian
quotient or a reduction's cofactors exceed their size limit, 2 for usage and parse errors (malformed
files, missing files, bad points, exceeded search budgets), 3 for an
internal error, i.e. a bug in mf2.
parse-check must be byte-stable: emitting a parsed canonical file reproduces
it exactly.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import FIXTURES

import mf2
from mf2 import paperlab
from mf2.cli import main
from mf2.mfcore import emit_mf_text, parse_mf_text
from mf2.paperlab import Check, Report
from mf2.ringmat import RingMatrix
from mf2.ringpoly import ParseError, RingPoly

RP2 = str(FIXTURES / "rp2.mf")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, ["verify", RP2])
    assert code == 0
    assert out == "Q^2 = W*Id: OK\n"
    code, out, _ = run(capsys, ["verify", RP2, "--format", "records"])
    assert code == 0
    assert out == "ok=true\nresidual_terms=0\n"


def test_verify_all_fixtures(capsys):
    for path in sorted(FIXTURES.glob("*.mf")):
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0, path.name
        assert out == "Q^2 = W*Id: OK\n"


def test_verify_perturbed_entry_fails(tmp_path, capsys):
    lines = (FIXTURES / "rp2.mf").read_text().split("\n")
    assert lines[4].startswith("0")
    lines[4] = "1" + lines[4][1:]
    bad = tmp_path / "bad.mf"
    bad.write_text("\n".join(lines))
    code, out, _ = run(capsys, ["verify", str(bad)])
    assert code == 1
    assert out.startswith("Q^2 = W*Id: FAIL (")
    code, out, _ = run(capsys, ["verify", str(bad), "--format", "records"])
    assert code == 1
    assert out.splitlines()[0] == "ok=false"
    # commands that need an actual factorization refuse the file outright
    code, _, err = run(capsys, ["cohomology", str(bad)])
    assert code == 1
    assert "not a factorization" in err


def test_parse_check_byte_stable(capsys):
    original = (FIXTURES / "rp2.mf").read_text()
    code, out, _ = run(capsys, ["parse-check", RP2])
    assert code == 0
    assert out == original
    mff = parse_mf_text(out)
    assert emit_mf_text(mff.w, mff.q) == out


def test_parse_errors_exit_2(tmp_path, capsys):
    mal = tmp_path / "mal.mf"
    mal.write_text("hello\n")
    code, _, err = run(capsys, ["verify", str(mal)])
    assert code == 2
    assert "line 1" in err
    mal.write_text(
        "field: 2^1 modulus 11\nring: x y laurent:11\n"
        "potential: x + @\nsize: 1\nx\n"
    )
    code, _, err = run(capsys, ["parse-check", str(mal)])
    assert code == 2
    assert "line 3" in err
    mal.write_text(
        "field: 2^1 modulus 11\nring: x y laurent:11\n"
        "potential: x\nsize: 2\nx, y\n"
    )
    code, _, err = run(capsys, ["verify", str(mal)])
    assert code == 2
    assert "expected 2 matrix rows" in err
    code, _, err = run(capsys, ["verify", str(tmp_path / "missing.mf")])
    assert code == 2


MF_HEAD = "field: 2^1 modulus 11\nring: x y laurent:11\n"


def test_parse_error_positions_are_in_the_original_text(tmp_path, capsys):
    # an error inside a matrix entry or the potential is reported at its
    # line and column in the file, not in the entry or the line body
    for text, where in (
        (MF_HEAD + "potential: x\nsize: 2\nx, y\ny, x + $\n", (6, 8)),
        (MF_HEAD + "potential: x + y + $\nsize: 1\nx\n", (3, 20)),
        (MF_HEAD + "  potential:x+$\nsize: 1\nx\n", (3, 15)),
    ):
        with pytest.raises(ParseError) as ei:
            parse_mf_text(text)
        assert (ei.value.line, ei.value.col) == where
        assert ei.value.message == "expected a variable name"
    mat = tmp_path / "z.mat"
    mat.write_text("1, 0, 0, 0\n0, 1, 0, 0\nx^-1, 0, 1, z\n0, 0, 0, 1\n")
    code, _, err = run(capsys, ["reduce", str(mat)])
    assert code == 2
    assert err == "error: line 3, col 13: unknown variable 'z'\n"
    code, _, err = run(capsys, ["search", "--potential", "x^2 + y^2", "--size", "1",
                                "--support", "x, y*$"])
    assert code == 2
    assert err == "error: line 1, col 6: expected a variable name\n"


def test_huge_field_degree_is_a_parse_error(tmp_path, capsys):
    huge = tmp_path / "huge.mf"
    huge.write_text(
        f"field: 2^100000 modulus 1{'1' * 100_000}\nring: x laurent:1\n"
        "potential: x\nsize: 1\nx\n"
    )
    start = time.perf_counter()
    code, _, err = run(capsys, ["verify", str(huge)])
    assert time.perf_counter() - start < 0.1
    assert code == 2
    assert "line 1" in err and "exceeds the maximum" in err


def test_exponent_above_the_bound_is_a_parse_error(tmp_path, capsys):
    huge = tmp_path / "huge.mf"
    huge.write_text(MF_HEAD + "potential: x^1073741824\nsize: 1\nx^1073741824\n")
    code, out, err = run(capsys, ["verify", str(huge)])
    assert code == 2
    assert out == ""
    assert err == "error: line 3, col 12: exponent 1073741824 of 'x' outside [-2^30, 2^30)\n"


def test_malformed_and_over_long_numbers_are_parse_errors(tmp_path, capsys):
    long = "9" * 5000
    for potential, where in (("x^\u00b2 + y", "line 1, col 3: expected a number"),
                             (f"y + x^{long}", f"line 1, col 5: exponent {long} of 'x'")):
        code, out, err = run(capsys, ["jacobian", "--potential", potential])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {where}")
    mf = tmp_path / "size.mf"
    for size, message in ((long, "size is too large"), ("\u0663", "expected 'size: n'")):
        mf.write_text(MF_HEAD + f"potential: x\nsize: {size}\nx\n")
        code, out, err = run(capsys, ["verify", str(mf)])
        assert (code, out, err) == (2, "", f"error: line 4, col 1: {message}\n")
    mf.write_text(f"field: 2^{long} modulus 11\nring: x laurent:1\npotential: x\nsize: 1\nx\n")
    code, _, err = run(capsys, ["verify", str(mf)])
    assert (code, err) == (2, "error: line 1, col 1: extension degree is too large\n")


def test_field_flag_reads_its_degree_as_the_mf_header_does(capsys):
    for degree in ("9" * 5000, str(2**64)):
        with pytest.raises(SystemExit) as exc:
            main(["jacobian", "--potential", "x + y", "--field", f"2^{degree}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --field: extension degree is too large\n")
    code, out, _ = run(capsys, ["jacobian", "--potential", "x^3 + y^3", "--field", "2^02"])
    assert (code, out) == (0, "dimension 4\nminimal polynomial of x: x^2\n")


def test_potential_names_are_inferred_by_the_readers_rule(capsys):
    # names start with a str.isalpha character or '_', then str.isalnum or '_'
    for potential, names in (("\u00e9^2 + x", ("\u00e9", "x")), ("x_1*y2 + _z", ("x_1", "y2", "_z"))):
        code, out, err = run(capsys, ["jacobian", "--potential", potential])
        assert code == 0, err
        explicit = run(capsys, ["jacobian", "--potential", potential, "--vars", " ".join(names)])
        assert explicit == (0, out, "")
    code, _, err = run(capsys, ["jacobian", "--potential", "2x"])  # the number 2, then x
    assert (code, err) == (2, "error: line 1, col 1: bare coefficients must be 0 or 1; "
                              "use {n} in extension fields\n")


def test_window_above_the_limit_fails_fast(tmp_path, capsys):
    huge = tmp_path / "huge.mf"
    huge.write_text(
        "field: 2^1 modulus 11\nring: x y laurent:00\npotential: x^1000000*y\n"
        "size: 2\n0, x^1000000\ny, 0\n"
    )
    start = time.perf_counter()
    code, out, err = run(capsys, ["cohomology", str(huge), "--dmax", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == "error: window has 4000012 monomials, above the limit of 1048576\n"


def test_jacobian_above_the_dimension_limit_fails_fast(capsys):
    # dimension 300^2: refused while the staircase is listed
    start = time.perf_counter()
    code, out, err = run(capsys, ["jacobian", "--potential", "x^301 + y^301"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == "error: quotient dimension above the limit of 2048\n"


def test_jacobian_just_below_the_dimension_limit_is_fast(capsys):
    # dimension 44^2 of 2048: the minimal polynomial is the first relation
    # among the classes of 1, x, ..., x^44, with no multiplication matrix
    start = time.perf_counter()
    code, out, _ = run(capsys, ["jacobian", "--potential", "x^45 + y^45"])
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out.splitlines() == ["dimension 1936", "minimal polynomial of x: x^44"]


def test_jacobian_with_a_dense_minimal_polynomial_is_fast(capsys):
    # dimension 46*44 - 1 = 2023 of 2048, and the quotient is K[x]/(x^2023 + 1):
    # 2024 powers enter the echelon, each a normal form packed into its slots
    start = time.perf_counter()
    code, out, _ = run(capsys, ["jacobian", "--potential", "x^45 + y^43 + x^-1*y^-1"])
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out.splitlines() == ["dimension 2023", "minimal polynomial of x: x^2023 + 1"]


def test_double_output_is_consumable(tmp_path, capsys):
    code, out, _ = run(capsys, ["double", RP2])
    assert code == 0
    mff = parse_mf_text(out)
    assert mff.q.rows == 8
    assert out == (FIXTURES / "double_rp2.mf").read_text()
    doubled = tmp_path / "doubled.mf"
    doubled.write_text(out)
    code, out, _ = run(capsys, ["verify", str(doubled)])
    assert code == 0
    assert out == "Q^2 = W*Id: OK\n"


# sha256 of `mf2 double FIXTURE` for every shipped fixture: doubling and
# folding must keep the emitted text byte for byte.
DOUBLE_SHA256 = {
    "an_q_1.mf": "b283e5d4b418deab08dbb1c23f4288f50301499c2b018fe9f3568b24d75d29e2",
    "an_q_2.mf": "86d75d6a390144b49b2a5e19beaf219a1360d91b869f6991bfcaea52a6e2073b",
    "an_q_3.mf": "1170f1f04859a58a1c5e7bc72d004ddd32e847464d3f8991eb39f11192aecaec",
    "an_q_4.mf": "1eab23968bc3ed399f309acd92a3271033549f497b16bbb335edb0f6e5b5dfa4",
    "an_r_1.mf": "c4695cd23ae04683ee62bd96f74988b1a0b5dfda713de932bd00f2ebfa8fc090",
    "an_r_2.mf": "918efa2e71db52247e9969fccb2ad055c3c6bf6b9c9e715faac255654adfa902",
    "an_r_3.mf": "92acb7f95a548db089edcf6147bc7ffacf40fe220b7afb574033c2445adf713b",
    "an_r_4.mf": "42acf572a3554e6556f8a5feb43333e3ff58d36d53cf511546a86c243a6fa960",
    "double_rp2.mf": "577b39281d6e1599e38826a5ca5c76d0041590e6e40fd76fe3746f98bab775c0",
    "rp2.mf": "48adcea15b4ab56aedd38bcbdf25d6281915fb764e57c47a5f23830ad18c73ee",
}


def test_double_output_is_pinned_for_every_fixture(capsys):
    assert sorted(p.name for p in FIXTURES.glob("*.mf")) == sorted(DOUBLE_SHA256)
    for name, digest in DOUBLE_SHA256.items():
        code, out, _ = run(capsys, ["double", str(FIXTURES / name)])
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_cohomology_records(capsys):
    code, out, _ = run(capsys, ["cohomology", RP2, "--dmax", "3",
                                "--format", "records"])
    assert code == 0
    assert out == "h[1]=3\nh[2]=3\nh[3]=3\n"


def test_cohomology_nonpositive_dmax_is_usage_error(tmp_path, capsys):
    lines = (FIXTURES / "rp2.mf").read_text().split("\n")
    lines[4] = "1" + lines[4][1:]
    bad = tmp_path / "bad.mf"
    bad.write_text("\n".join(lines))
    # rejected before the file is loaded or any window is built
    for path, dmax in ((RP2, "0"), (RP2, "-3"), (str(bad), "0")):
        code, out, err = run(capsys, ["cohomology", path, "--dmax", dmax])
        assert code == 2
        assert out == ""
        assert "--dmax must be at least 1" in err


def test_jacobian_from_file_and_potential(capsys):
    code, out, _ = run(capsys, ["jacobian", RP2])
    assert code == 0
    assert out.splitlines() == [
        "dimension 3",
        "minimal polynomial of x: x^3 + 1",
    ]
    code, out, _ = run(capsys, ["jacobian", "--potential", "x + y + x^-1*y^-1",
                                "--format", "records"])
    assert code == 0
    assert out == "dimension=3\nminpoly=x^3 + 1\n"


def test_jacobian_infinite_dimension(capsys):
    code, out, _ = run(capsys, ["jacobian", str(FIXTURES / "an_q_1.mf")])
    assert code == 0
    assert out == "dimension infinite\n"


def test_jacobian_ring_overrides(capsys):
    # without the override x^2*y + x*y^2 would be read over a Laurent-free ring
    # anyway; force it explicitly and check the inferred ring agrees
    code, out, _ = run(capsys, ["jacobian", "--potential", "x^2*y + x*y^2",
                                "--vars", "x y", "--laurent", "00"])
    assert code == 0
    code2, out2, _ = run(capsys, ["jacobian", "--potential", "x^2*y + x*y^2"])
    assert code2 == 0
    assert out2 == out
    code, _, err = run(capsys, ["jacobian"])
    assert code == 2
    assert "exactly one" in err


def test_reduce_matrix_flag(capsys):
    f_alpha = "0, 0, 0, x^-1*y^-1; 0, 0, x^-1, 0; 0, y^-1, 0, 0; 1, 0, 0, 0"
    code, out, _ = run(capsys, ["reduce", "--matrix", f_alpha,
                                "--format", "records"])
    assert code == 0
    assert out == "alpha=x^2\nwitness_verified=true\n"


def test_reduce_file_and_non_closed(tmp_path, capsys):
    mat = tmp_path / "id.mat"
    mat.write_text("1, 0, 0, 0\n0, 1, 0, 0\n0, 0, 1, 0\n0, 0, 0, 1\n")
    code, out, _ = run(capsys, ["reduce", str(mat)])
    assert code == 0
    assert out.splitlines()[0] == "alpha = 1"
    mat.write_text("x, 0, 0, 0\n0, 0, 0, 0\n0, 0, 0, 0\n0, 0, 0, 0\n")
    code, _, err = run(capsys, ["reduce", str(mat)])
    assert code == 1
    assert "closed" in err


def test_reduce_above_the_fold_limit_fails_fast(capsys):
    # x^(2^29)*Id folds to x^2 along 2^29 // 3 telescoping steps of three
    # cofactor terms each: refused before any term is built
    n = 1 << 29
    matrix = "; ".join(", ".join(f"x^{n}" if i == j else "0" for j in range(4)) for i in range(4))
    start = time.perf_counter()
    code, out, err = run(capsys, ["reduce", "--matrix", matrix])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == f"error: the fold's cofactors have {3 * (n // 3)} terms, above the limit of 65536\n"


def test_evaluate_critical_and_noncritical(capsys):
    an_q = str(FIXTURES / "an_q_1.mf")
    code, out, _ = run(capsys, ["evaluate", an_q, "--point", "0,0,0",
                                "--format", "records"])
    assert code == 0
    records = dict(line.split("=", 1) for line in out.splitlines())
    assert records["critical"] == "true"
    assert records["local_dim"] != "0"
    assert records["identity_exact"] == "false"
    code, out, _ = run(capsys, ["evaluate", an_q, "--point", "1,1,1",
                                "--format", "records"])
    assert code == 0
    records = dict(line.split("=", 1) for line in out.splitlines())
    assert records["critical"] == "false"
    assert records["local_dim"] == "0"
    assert records["identity_exact"] == "true"


def test_evaluate_rejects_bad_points(capsys):
    code, _, err = run(capsys, ["evaluate", RP2, "--point", "1"])
    assert code == 2
    assert "2 coordinates" in err
    code, _, err = run(capsys, ["evaluate", RP2, "--point", "0,1"])
    assert code == 2
    assert "nonzero" in err
    code, _, err = run(capsys, ["evaluate", RP2, "--point", "1,7"])
    assert code == 2


def test_evaluate_reads_each_coordinate_in_ascii_digits(capsys):
    long = "9" * 5000
    for point, err in (
        ("\u0661,\u0661", "error: coordinate for 'x' must be ASCII digits 0-9, got '\u0661'\n"),
        ("0_1,+1", "error: coordinate for 'x' must be ASCII digits 0-9, got '0_1'\n"),
        ("1,+1", "error: coordinate for 'y' must be ASCII digits 0-9, got '+1'\n"),
        ("1,", "error: coordinate for 'y' must be ASCII digits 0-9, got ''\n"),
        ("1,7", "error: value 7 outside GF(2^1)\n"),
        (f"1,00{long}", f"error: value {long} outside GF(2^1)\n"),
        ("0,1", "error: coordinate for Laurent variable 'x' must be nonzero\n"),
    ):
        assert run(capsys, ["evaluate", RP2, "--point", point]) == (2, "", err), point
    code, out, _ = run(capsys, ["evaluate", RP2, "--point", " 01,1 ", "--format", "records"])
    assert code == 0
    assert run(capsys, ["evaluate", RP2, "--point", "1,1", "--format", "records"]) == (0, out, "")


def test_variable_names_are_names_the_reader_can_read_back(tmp_path, capsys):
    mf = tmp_path / "one.mf"
    mf.write_text("field: 2^1 modulus 11\nring: 1 y laurent:00\npotential: y^2 + 1\nsize: 1\ny + 1\n")
    with pytest.raises(ParseError) as ei:
        parse_mf_text(mf.read_text())
    assert (ei.value.line, ei.value.col) == (2, 1)
    message = "variable name '1' is not a str.isalpha character or '_' followed by " \
              "str.isalnum characters or '_'"
    assert run(capsys, ["jacobian", str(mf)]) == (2, "", f"error: line 2, col 1: {message}\n")
    for names, err in (("x x", "duplicate variable names"), ("1 y", message)):
        assert run(capsys, ["jacobian", "--potential", "x^2 + y^2", "--vars", names]) == (
            2, "", f"error: --vars: {err}\n")


def test_search_exact_output(capsys):
    code, out, _ = run(capsys, ["search", "--potential", "x^2 + y^2",
                                "--size", "1", "--support", "x,y",
                                "--vars", "x y", "--laurent", "00",
                                "--format", "records"])
    assert code == 0
    assert out == "count=1\nq[0]=x + y\n"


def test_search_budget_and_support_errors(capsys):
    code, _, err = run(capsys, ["search", "--potential", "x^2 + y^2",
                                "--size", "2", "--support", "x,y,1",
                                "--vars", "x y", "--laurent", "00",
                                "--budget-bits", "8"])
    assert code == 2
    assert "budget" in err
    code, _, err = run(capsys, ["search", "--potential", "x^2 + y^2",
                                "--size", "1", "--support", "x+y",
                                "--vars", "x y", "--laurent", "00"])
    assert code == 2
    assert "monomial" in err
    code, out, err = run(capsys, ["search", "--potential", "x^2 + y^2",
                                  "--size", "1", "--support", "{3}*x,y", "--field", "2^2"])
    assert code == 2
    assert out == ""
    assert "support entry '{3}*x' is not a monomial" in err


def test_search_outside_the_span_still_checks_the_budget(capsys):
    argv = ["search", "--potential", "x^3", "--size", "3", "--support", "x,y",
            "--vars", "x y", "--laurent", "00", "--format", "records", "--budget-bits"]
    code, out, err = run(capsys, argv + ["4"])
    assert code == 2
    assert out == ""
    assert "search budget exceeded" in err
    code, out, _ = run(capsys, argv + ["18"])
    assert code == 0
    assert out == "count=0\n"


def test_search_result_failing_reverification_exits_1(monkeypatch, capsys):
    # The re-verification reads the products of entries that RingMatrix
    # products form; one extra term in each makes Q^2 differ from W*Id.
    product = RingMatrix.__mul__

    def faulty(self, other):
        out = product(self, other)
        one = RingPoly.one(out.ring)
        return RingMatrix(out.ring, out.rows, out.cols, [e + one for e in out.entries])

    monkeypatch.setattr(RingMatrix, "__mul__", faulty)
    code, out, err = run(capsys, ["search", "--potential", "x^2 + y^2",
                                  "--size", "1", "--support", "x, y"])
    assert code == 1
    assert out == ""
    assert "search result failed re-verification" in err


def test_search_nonpositive_size_is_usage_error(capsys):
    for size in ("0", "-1"):
        code, out, err = run(capsys, ["search", "--potential", "x^2 + y^2",
                                      "--size", size, "--support", "x,y"])
        assert code == 2
        assert out == ""
        assert "search size must be positive" in err


def test_suite_records(capsys):
    code, out, _ = run(capsys, ["suite", "--seed", "9", "--format", "records"])
    assert code == 0
    lines = out.splitlines()
    assert all("=" in line for line in lines)
    checks = [line for line in lines if line.startswith("check[")]
    assert checks and all(line.endswith("=PASS") for line in checks)
    assert "seed=9" in lines
    tail = dict(line.split("=", 1) for line in lines[-3:])
    assert tail["passed"] == tail["total"] == str(len(checks))


SUITE_SEED_9 = """\
PASS factorization Q^2 = (x + y + 1/(xy))*Id, 4x4
PASS block_identities U^2, V^2, UV = VU, and the block assembly all verified
PASS delta_formula [U, f] = [[at, tr], [y*tr, at]] on 50 random matrices
PASS delta_preimage 50 random round trips, plus rejection outside the image
PASS v_twist tr/at twist identities on 100 random matrices
PASS central_commutant tr(Vf) = at(Vf) = 0 forces [U, f] = 0 on 100 samples
PASS alpha_rule x^a*y^b -> x^((a+b) mod 3) for all a, b: y = x and x^3 = 1 in the quotient
PASS alpha_matrix_homotopy [Q, M] = F + x^-1*Id
PASS reduce_identity Id reduces to 1 with zero witness
PASS reduce_alpha_matrix the alpha matrix reduces to x^2
PASS reduce_alpha_cubed the cubed alpha matrix reduces to 1
PASS reduce_retraction canonical scalars are fixed with zero witnesses, 10 samples
PASS reduce_random alpha*Id + delta(g) reduces back to alpha, 100 samples
PASS reduce_ring_map reduce(f*h) = fold(reduce(f)*reduce(h)) on 10 random pairs
PASS obstruction_partials dQ/dx -> (1, 0), dQ/dy -> (0, 1), 0 -> (0, 0)
PASS jacobian_quotient dimension 3, basis {1, x, x^2}, minimal polynomial x^3 + 1
PASS an_q_factorization Q(n=1)^2 = (x^2 + y^2 + x*y*z)*Id
PASS an_r_factorization R(n=1)^2 = (x^2 + y^2)*Id
PASS an_j_involution J closed with J^2 = Id
PASS an_scalars_closed x*Id and z*Id closed
PASS an_xz_exact xz*Id = delta(dQ/dy), verified
PASS an_jacobian_q ideal (xy, xz, yz), infinite quotient
PASS an_jacobian_r zero ideal, infinite quotient
PASS an_window_growth End(Q) windows [3, 5, 7], End(R) windows [4, 6, 8]
PASS co_dimension jacobian dimension 3, minimal polynomial x^3 + 1
PASS co_well_defined dW/dx*Id and dW/dy*Id exact with verified witnesses
PASS co_surjective 10 random closed endomorphisms reduced to their scalars
PASS co_injective_points Id, x*Id, x^2*Id independent across the three critical points
PASS co_injective_ideal 10 exact scalars decomposed into Jacobian cofactors
PASS co_window_dims h_2..h_6 = [3, 3, 3, 3, 3]
PASS co_alpha_matrix [Q, M] = F + x^-1*Id and F reduces to x^2
31/31 checks passed (seed 9)
"""


def test_suite_text_report(capsys):
    code, out, _ = run(capsys, ["suite", "--seed", "9"])
    assert code == 0
    assert out == SUITE_SEED_9


def test_bug_in_lab_code_is_an_internal_error(monkeypatch, capsys):
    """A bug inside a check reports ERROR in that check's place: the rest
    of the battery still runs and prints, the tracebacks go to stderr and
    the exit code is 3.  Two checks share the broken method."""
    def broken(self):
        raise TypeError("broken lab code")

    monkeypatch.setattr(paperlab.Rp2Context, "check_alpha_reduction", broken)
    code, out, err = run(capsys, ["suite", "--seed", "9"])
    assert code == 3
    error = "TypeError: broken lab code"
    assert out == (SUITE_SEED_9
                   .replace("PASS reduce_alpha_matrix the alpha matrix reduces to x^2",
                            f"ERROR reduce_alpha_matrix {error}")
                   .replace("PASS co_alpha_matrix [Q, M] = F + x^-1*Id and F reduces to x^2",
                            f"ERROR co_alpha_matrix {error}")
                   .replace("31/31 checks passed", "29/31 checks passed"))
    blocks = err.split("error: internal: ")
    assert blocks[0] == "" and len(blocks) == 3
    for block in blocks[1:]:
        assert block.startswith(f"{error}\nTraceback")
        assert block.rstrip().endswith(error)
    code, out, _ = run(capsys, ["suite", "--seed", "9", "--format", "records"])
    assert code == 3
    assert "check[co_alpha_matrix]=ERROR" in out.splitlines()
    assert "passed=29" in out.splitlines()


def test_bug_in_a_battery_set_up_is_one_error_check(monkeypatch, capsys):
    """A bug in an_corpus's set-up, outside any of its checks, reports one
    ERROR check named after the battery; the other batteries still run."""
    real = paperlab.UngradedMF

    def broken(w, q):
        if w.ring.nvars == 3:  # only the A-series corpus has three variables
            raise TypeError("broken set-up")
        return real(w, q)

    monkeypatch.setattr(paperlab, "UngradedMF", broken)
    code, out, err = run(capsys, ["suite", "--seed", "9"])
    assert code == 3
    lines = SUITE_SEED_9.splitlines()
    corpus = [i for i, line in enumerate(lines) if line.startswith("PASS an_")]
    assert len(corpus) == 8 and corpus == list(range(corpus[0], corpus[0] + 8))
    lines[corpus[0]:corpus[-1] + 1] = ["ERROR an_corpus TypeError: broken set-up"]
    lines[-1] = "23/24 checks passed (seed 9)"
    assert out == "\n".join(lines) + "\n"
    blocks = err.split("error: internal: ")
    assert blocks[0] == "" and len(blocks) == 2
    assert blocks[1].startswith("TypeError: broken set-up\nTraceback")
    assert "in an_corpus" in blocks[1]
    assert blocks[1].rstrip().endswith("TypeError: broken set-up")


def test_value_error_in_a_battery_set_up_is_one_fail_check(monkeypatch, capsys):
    """A ValueError in an_corpus's set-up, outside any of its checks, reports
    one FAIL check named after the battery; the other batteries still run."""
    real = paperlab.UngradedMF

    def broken(w, q):
        if w.ring.nvars == 3:  # only the A-series corpus has three variables
            raise ValueError("broken set-up")
        return real(w, q)

    monkeypatch.setattr(paperlab, "UngradedMF", broken)
    code, out, err = run(capsys, ["suite", "--seed", "9"])
    assert (code, err) == (1, "")
    lines = SUITE_SEED_9.splitlines()
    corpus = [i for i, line in enumerate(lines) if line.startswith("PASS an_")]
    assert len(corpus) == 8 and corpus == list(range(corpus[0], corpus[0] + 8))
    lines[corpus[0]:corpus[-1] + 1] = ["FAIL an_corpus broken set-up"]
    lines[-1] = "23/24 checks passed (seed 9)"
    assert out == "\n".join(lines) + "\n"


def test_bug_in_the_suite_context_is_one_error_check(monkeypatch, capsys):
    """A bug in run_suite's own Rp2Context build over GF(2) reports one
    ERROR check, rp2_context, in place of the 16 checks that need it; the
    A-series corpus and the GF(4) certification build their own contexts
    and still run and print."""
    real = paperlab.Rp2Context

    def broken(spec=None):
        if spec is None or spec.k == 1:
            raise TypeError("broken context")
        return real(spec)

    monkeypatch.setattr(paperlab, "Rp2Context", broken)
    code, out, err = run(capsys, ["suite", "--seed", "9"])
    assert code == 3
    lines = SUITE_SEED_9.splitlines()
    assert lines[16].startswith("PASS an_q_factorization")
    lines[:16] = ["ERROR rp2_context TypeError: broken context"]
    lines[-1] = "15/16 checks passed (seed 9)"
    assert out == "\n".join(lines) + "\n"
    blocks = err.split("error: internal: ")
    assert blocks[0] == "" and len(blocks) == 2
    assert blocks[1].startswith("TypeError: broken context\nTraceback")
    assert "in _rp2_battery" in blocks[1]
    assert blocks[1].rstrip().endswith("TypeError: broken context")


def test_failed_suite_check_exits_1(monkeypatch, capsys):
    failed = Report((Check("an_forced", False, "forced failure"),))
    monkeypatch.setattr(paperlab, "an_corpus", lambda n: failed)
    code, out, err = run(capsys, ["suite"])
    assert code == 1
    assert "FAIL an_forced forced failure" in out.splitlines()
    assert err == ""


def test_module_entry_point():
    # The child imports mf2 from wherever this process did, installed or not.
    path = [str(Path(mf2.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "mf2.cli", "verify", RP2],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0
    assert proc.stdout == "Q^2 = W*Id: OK\n"
