"""Command-line interface tests.

Exit-code contract: 0 when every check passes, 1 when a verification fails
(bad factorization, non-closed endomorphism), 2 for usage and parse errors
(malformed files, missing files, bad points, exceeded search budgets).
parse-check must be byte-stable: emitting a parsed canonical file reproduces
it exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest

import mf2
from mf2.cli import emit_mf_text, main, parse_mf_text

FIXTURES = files("mf2") / "fixtures"
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


def test_suite_text_report(capsys):
    code, out, _ = run(capsys, ["suite", "--seed", "9"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])
    assert lines[-1].endswith("(seed 9)")


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
