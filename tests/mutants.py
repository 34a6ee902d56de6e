#!/usr/bin/env python3
"""Mutation gate: each seeded fault must make its named test fail.

    python3 tests/mutants.py

Run from the repository root (about three minutes, most of it hypothesis
shrinking the failing examples).  Each mutant is (file, old text, new
text, test id).  The script copies `src/`, `tests/` and `pyproject.toml`
into a temporary directory, replaces the old text (which must occur
exactly once) by the new one there, runs only the named test with pytest
and expects it to fail.  Tests run under the hypothesis profile
"mf2-no-explain" of tests/conftest.py: explaining a failing example
decides nothing and can outlast the per-test time limit.  First it runs
every named test on an unmutated copy, where each must pass, so a kill
is the mutant's doing.
It exits 0 when every mutant is killed and 1 otherwise.  The script
itself uses only the standard library and is not collected by pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A mutant whose test runs this long is reported as a hang, not a kill.
TIMEOUT_S = 300

ECHELON = "tests/test_echelon_properties.py"
SEARCH = "tests/test_search_properties.py"
# FieldSpec.mul with one wrong product, 3 * 3 = 1
WRONG_PRODUCT = ("            return a & b\n        p = 0\n",
                 "            return a & b\n        if a == b == 3:\n"
                 "            return 1\n        p = 0\n")
MUTANTS = (
    # OR instead of XOR: qs terms that meet a qt term at one (cell, shift)
    # no longer cancel
    ("src/mf2/cohomwin.py",
     "acc[s] = acc.get(s, 0) ^ c << (k * (i * n + col))",
     "acc[s] = acc.get(s, 0) | c << (k * (i * n + col))",
     f"{ECHELON}::test_packed_columns_match_dense_products"),
    # a cell's slot ignores the field degree: cells overlap when k > 1
    ("src/mf2/cohomwin.py",
     "c << (k * (i * n + col))",
     "c << (i * n + col)",
     f"{ECHELON}::test_packed_columns_match_dense_products"),
    # a swallowed window overflow: a block missing from the output window
    # reads as block 0, and the tables are returned unchecked
    ("src/mf2/cohomwin.py",
     "[out_block[e + s] * width for s in shifts]",
     "[out_block.get(e + s, 0) * width for s in shifts]",
     f"{ECHELON}::test_delta_columns_reject_a_window_one_step_too_small"),
    # an offset table not scaled by the block width: every shifted image
    # lands in slot block instead of block * cells
    ("src/mf2/cohomwin.py",
     "[out_block[e + s] * width for s in shifts]",
     "[out_block[e + s] * k for s in shifts]",
     f"{ECHELON}::test_packed_columns_match_dense_products"),
    # GF(4) rows with leading coefficient t are no longer made monic
    ("src/mf2/ringmat.py",
     "if c != 1:  # the new row is made monic",
     "if c > 2:",
     f"{ECHELON}::test_insert_all_scales_a_new_row_to_be_monic"),
    # the GF(2) bitset loop stores v at an occupied pivot in place of
    # adding the pivot row: the earlier row is lost and the rank drops
    ("src/mf2/ringmat.py",
     "                    v ^= row\n                else:\n                    relations.append(0)\n",
     "                    rows[p] = v\n                    break\n"
     "                else:\n                    relations.append(0)\n",
     f"{ECHELON}::test_insert_all_reads_lazily_and_appends_pivots_in_insertion_order"),
    # box keys list the lanes in the wrong nesting: the last variable
    # varies slowest, not fastest as in itertools.product
    ("src/mf2/ringpoly.py",
     "keys = [key + term for key in keys for term in lane]",
     "keys = [key + term for term in lane for key in keys]",
     "tests/test_ring_kernel_properties.py::test_box_keys_equal_one_pack_per_monomial"),
    # the unit-shift path of the product kernel forgets the exponent guard
    ("src/mf2/ringpoly.py",
     "                if e & guard:\n                    raise _overflow()\n",
     "",
     "tests/test_ringpoly.py::test_products_that_leave_the_bound_raise_instead_of_wrapping"),
    # the general path of the product kernel forgets the exponent guard
    ("src/mf2/ringpoly.py",
     "            if e & guard:\n                raise _overflow()\n",
     "",
     "tests/test_ring_kernel_properties.py::test_packed_product_at_the_bound_equals_oracle_or_raises"),
    # BIAS off by one in every lane: each product exponent drifts by one
    ("src/mf2/ringpoly.py",
     "bias = sum(EXP_BOUND << (LANE_BITS * i) for i in range(nvars))",
     "bias = sum((EXP_BOUND + 1) << (LANE_BITS * i) for i in range(nvars))",
     "tests/test_ring_kernel_properties.py::test_poly_product_equals_oracle"),
    # the reader checks each atom's exponent only as part of its term's
    # product: an atom out of range is reported at the term's first character
    ("src/mf2/ringpoly.py",
     "                ring.pack(atom)\n",
     "                pass\n",
     "tests/test_ringpoly.py::test_parser_rejects_exponents_outside_the_bound_with_a_position"),
    # an exponent's digits match \d, not only ASCII 0-9: x^ followed by an
    # Arabic-Indic three reads as x^3
    ("src/mf2/ringpoly.py",
     "(?P<power>[0-9]*)",
     "(?P<power>\\d*)",
     "tests/test_ringpoly.py::test_reader_returns_a_polynomial_or_raises_a_parse_error"),
    # a transposed Q_Y: qt[i, r] lands on E_rj in place of qt[r, i]
    ("src/mf2/cohomwin.py",
     "qt[r * m + i].items()",
     "qt[i * m + r].items()",
     f"{ECHELON}::test_packed_columns_match_dense_products"),
    # block2 no longer checks that the four blocks share one ring
    ("src/mf2/ringmat.py",
     "    for m in (b, c, d):\n        a._check_ring(m.ring)\n",
     "",
     "tests/test_ringmat.py::test_block2_rejects_misaligned_blocks_and_mixed_rings"),
    # the fold's canonical exponent shifted by one: alpha leaves span{1, x, x^2}
    ("src/mf2/paperlab.py",
     "_xor_keys(alpha, (low,), coeff)",
     "_xor_keys(alpha, (low + ux,), coeff)",
     "tests/test_reduce_properties.py::test_fold_splits_a_target_into_alpha_and_cofactors"),
    # the fold drops the dW/dy part of each telescoping step
    ("src/mf2/paperlab.py",
     "            _xor_keys(c2, both, coeff)\n",
     "",
     "tests/test_reduce_properties.py::test_fold_splits_a_target_into_alpha_and_cofactors"),
    # stage two of the reduction reads the diagonal entry for off
    ("src/mf2/paperlab.py",
     "for j in (0, 1))",
     "for j in (0, 0))",
     "tests/test_paperlab.py::test_reduce_random_round_trips"),
    # the packed witness check drops the g*Q_source half of d(g), so a
    # correct reduction's witness is refused
    ("src/mf2/mfcore.py",
     "            for m in range(cols):\n"
     "                v = packed[i * cols + m]\n"
     "                for offset, c in right[m * cols + j]:\n"
     "                    acc ^= (v if c == 1 else scale(v, c)) << offset\n",
     "",
     "tests/test_paperlab.py::test_reduce_witness_rejects_stage_faults"),
    # the witness box's rows are one monomial short along x, so adjacent
    # rows overlap and packing no longer keeps the terms apart
    ("src/mf2/mfcore.py",
     "step *= hi - lo + 1",
     "step *= hi - lo",
     "tests/test_witness_properties.py::test_packed_check_accepts_d_of_g_and_rejects_one_extra_term"),
    # _split hands back t as the preimage s: the reduction witness must reject it
    ("src/mf2/paperlab.py",
     "        return a, b, s, t\n",
     "        return a, b, t, t\n",
     "tests/test_paperlab.py::test_reduce_random_round_trips"),
    # the folding check no longer tests y = x: a quotient where y != x
    # fails at x^3 = 1 instead, with the other message
    ("src/mf2/paperlab.py",
     "if cls(0, 1) != cls(1, 0):",
     "if cls(0, 1) != cls(0, 1):",
     "tests/test_paperlab.py::test_check_folding_rejects_a_quotient_that_folds_otherwise"),
    # the folding check no longer tests x^3 = 1: a nilpotent x passes
    ("src/mf2/paperlab.py",
     "if cls(3, 0) != cls(0, 0):",
     "if cls(0, 0) != cls(0, 0):",
     "tests/test_paperlab.py::test_check_folding_requires_x_and_y_to_act_invertibly"),
    # exact division no longer checks the shifted keys against the guard at entry
    ("src/mf2/ringpoly.py",
     "    for key in (*rem, *dd):\n"
     "        if key & guard:  # a shifted exponent is 2^30 or more; pack names it\n"
     "            ring.pack(ring.unpack(key))\n",
     "",
     "tests/test_ringpoly.py::test_exact_divide_raises_when_a_shifted_exponent_leaves_the_range"),
    # exact division restores the unit shift with the wrong sign
    ("src/mf2/ringpoly.py",
     "{shift_d - shift_p + one: 1}",
     "{shift_p - shift_d + one: 1}",
     "tests/test_kernel_oracle.py::test_exact_divide_matches_sympy_division"),
    # Groebner division drops the divisibility mask: only an equal key divides.
    # (Masking with the bias instead of the guard is an equivalent mutant:
    # for exponents in [0, 2^30) both bits flag exactly the same borrows.)
    ("src/mf2/groebner.py",
     "if not (lt - head) & guard:",
     "if not (lt - head):",
     "tests/test_groebner_oracle.py::test_normal_forms_match_sympy_reduction"),
    # the saturation's order no longer eliminates its auxiliary variable u,
    # so the u-free part of the basis need not generate the saturation
    ("src/mf2/groebner.py",
     "return exps[-1], quotient_order(exps[:-1])",
     "return quotient_order(exps)",
     "tests/test_groebner.py::test_saturated_presentations_are_pinned"),
    # the staircase is listed without the dimension limit
    ("src/mf2/groebner.py",
     "if len(found) > MAX_QUOTIENT_DIMENSION:",
     "if len(found) < 0:",
     "tests/test_groebner.py::test_quotient_dimension_limit"),
    # the power sequence starts at x instead of 1: a nilpotent x loses a degree
    ("src/mf2/groebner.py",
     "power = _reduce(RingPoly.one(ring), self.heads, quotient_order)",
     "power = _reduce(x, self.heads, quotient_order)",
     "tests/test_groebner.py::test_quotient_minimal_polynomial_matches_the_matrix_route"),
    # multiplication matrices written transposed: same minimal polynomial,
    # but row j is the class of x_v times the j-th standard monomial
    ("src/mf2/groebner.py",
     "[c[i] for i in range(n) for c in xc]",
     "[c[i] for c in xc for i in range(n)]",
     "tests/test_groebner.py::test_multiplication_matrices_act_on_classes"),
    # the columns of a vectorized power overlap: column j starts at slot j
    # instead of slot j * n
    ("src/mf2/groebner.py",
     "sum(ech.pack(c) << (stride * j)",
     "sum(ech.pack(c) << (spec.k * j)",
     f"{ECHELON}::test_minimal_polynomial_annihilates_and_has_the_rank_of_the_powers"),
    # a column shift adds two biased keys without subtracting the key of 1
    ("src/mf2/cohomwin.py",
     "shifts = [s - one for s in shift_index]",
     "shifts = [s for s in shift_index]",
     f"{ECHELON}::test_packed_columns_match_dense_products"),
    # within a radius the domain keys enter in output order, so a pivot's
    # coordinate is no longer the latest inserted one in its row
    ("src/mf2/cohomwin.py",
     "dom_keys = out[len(out) - dom.size:][::-1]",
     "dom_keys = sorted(out[len(out) - dom.size:], key=lambda e: _radius(ring.unpack(e)))",
     "tests/test_cohomwin.py::test_cleared_columns_are_never_inserted"),
    # clearing skips the column next to the dependent one
    ("src/mf2/cohomwin.py",
     "if coord not in pivots:",
     "if coord - 1 not in pivots:",
     "tests/test_cohomwin.py::test_cohomology_rp2_stabilizes_at_three"),
    # the same clearing fault against the per-radius oracle, which must
    # report a counterexample well inside the time limit
    ("src/mf2/cohomwin.py",
     "if coord not in pivots:",
     "if coord - 1 not in pivots:",
     f"{ECHELON}::test_one_pass_dims_match_per_radius_definition"),
    # a cleared column does not advance the coordinate: every later column
    # is tested against, and recorded at, the coordinate of an earlier one
    ("src/mf2/cohomwin.py",
     "                yield col\n            coord -= 1\n",
     "                yield col\n                coord -= 1\n",
     f"{ECHELON}::test_cleared_solve_matches_cell_major_elimination"),
    # the witness reads a combination slot's cell in the reversed order the
    # images are entered in: d(g) misses f and HomotopyWitness refuses g
    ("src/mf2/cohomwin.py",
     "gterms[cell][out[b]] = c",
     "gterms[cells - 1 - cell][out[b]] = c",
     f"{ECHELON}::test_cleared_solve_matches_cell_major_elimination"),
    # one wrong field product: only an oracle that does not call
    # FieldSpec.mul sees it
    ("src/mf2/gf2k.py", *WRONG_PRODUCT,
     f"{ECHELON}::test_field_matrix_product_matches_the_inner_index_sum"),
    ("src/mf2/gf2k.py", *WRONG_PRODUCT,
     "tests/test_ring_kernel_properties.py::test_poly_product_equals_oracle"),
    # the inverse table is built one element off: entry a holds 1/(a + 1)
    ("src/mf2/gf2k.py",
     "for a in range(1, order)",
     "for a in range(2, order + 1)",
     "tests/test_gf2k.py::test_table_inverse_matches_fermat_for_every_irreducible_modulus"),
    # the cell images lay E_rc out column-major: the point certificate's
    # ranks survive the permutation, but a coboundary no longer reduces to zero
    ("src/mf2/cohomwin.py",
     "acc[s] = acc.get(s, 0) ^ c << (k * (r * n + j))\n"
     "            for col in range(n):\n"
     "                for s, c in qs[j * n + col].items():\n"
     "                    acc[s] = acc.get(s, 0) ^ c << (k * (i * n + col))",
     "acc[s] = acc.get(s, 0) ^ c << (k * (j * m + r))\n"
     "            for col in range(n):\n"
     "                for s, c in qs[j * n + col].items():\n"
     "                    acc[s] = acc.get(s, 0) ^ c << (k * (col * m + i))",
     f"{ECHELON}::test_point_certificate_matches_dense_echelon"),
    # the cell images' row stride is tgt.size where it is src.size: only a
    # hom space between different sizes shows it
    ("src/mf2/cohomwin.py",
     "c << (k * (r * n + j))",
     "c << (k * (r * m + j))",
     f"{ECHELON}::test_point_certificate_matches_dense_echelon"),
    # the entry kernel drops every pair after the first, so ab + cd becomes ab
    ("src/mf2/ringmat.py",
     "    for left, right in pairs:\n        for a, b in zip(",
     "    for left, right in pairs[:1]:\n        for a, b in zip(",
     "tests/test_ring_kernel_properties.py::test_sum_of_products_equals_sympy_products_summed"),
    # a failed reduction re-raises the pipeline's error without checking
    # whether its input was closed
    ("src/mf2/paperlab.py",
     "            if not commutator(self.q, mat).is_zero():\n"
     "                raise ValueError(\"reduction needs a closed endomorphism\") from None\n",
     "",
     "tests/test_paperlab.py::test_reduce_rejects_non_closed"),
    # the field product loop reads column j of a non-square matrix with the
    # row count as stride
    ("src/mf2/ringmat.py",
     "self.entries[j::self.cols]",
     "self.entries[j::self.rows]",
     f"{ECHELON}::test_field_matrix_product_matches_the_inner_index_sum"),
    # the tracked combination starts one slot short, inside the vector's last slot
    ("src/mf2/ringmat.py",
     "else spec.k * width",
     "else spec.k * (width - 1)",
     f"{ECHELON}::test_tracked_reduce_solves_exactly_when_sympy_finds_b_in_the_span"),
    # an entry of Q^2 is checked at the first slot of its row and column,
    # on factors left over from other branches
    ("src/mf2/mfcore.py",
     "max(when[x]",
     "min(when[x]",
     f"{SEARCH}::test_search_matches_brute_force"),
    # every entry of Q^2 is checked at the last slot only: no pruning is lost
    # from the results, so only the schedule test sees it
    ("src/mf2/mfcore.py",
     "n = max(when[x] for pair in pairs for x in pair)",
     "n = len(flat) - 1",
     f"{SEARCH}::test_fill_order_checks_each_entry_of_the_square_once_when_final"),
    # a term of W outside the span is dropped instead of emptying the
    # search: leaves square to the rest of W and fail re-verification
    ("src/mf2/mfcore.py",
     "            return []\n",
     "            continue\n",
     f"{SEARCH}::test_search_matches_brute_force"),
    # the products summed once on entering a slot are dropped: each check
    # sees only the products that hold the slot's own entry
    ("src/mf2/mfcore.py",
     "for left, right in others:",
     "for left, right in ():",
     f"{SEARCH}::test_search_matches_brute_force"),
    # the slot's own entry is summed with the others on entering the slot,
    # so the check reads the value a sibling branch left there
    ("src/mf2/mfcore.py",
     "tuple(p for p in pairs if f in p), tuple(p for p in pairs if f not in p)",
     "(), tuple(pairs)",
     f"{SEARCH}::test_search_matches_brute_force"),
    # the re-verification reads its right factor transposed: it checks
    # Q Q^T, which differs from Q^2 for most results
    ("src/mf2/mfcore.py",
     "(a == b, [(a * size + m, m * size + b)",
     "(a == b, [(a * size + m, b * size + m)",
     f"{SEARCH}::test_search_matches_brute_force"),
    # the re-verification compares only the diagonal of Q^2 with W
    ("src/mf2/mfcore.py",
     "if s != (want if diagonal else 0):",
     "if diagonal and s != want:",
     f"{SEARCH}::test_reverification_catches_faults_only_an_off_diagonal_entry_sees"),
)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, test_ids: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile", "mf2-no-explain", *test_ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="mf2-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        proc = run_tests(base, sorted({test for *_, test in MUTANTS}))
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print("mutants: the named tests do not all pass on the unmutated tree")
            return 1
        for i, (path, old, new, test) in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            target = tree / path
            text = target.read_text()
            if text.count(old) != 1:
                failures.append(f"mutant {i}: {old!r} occurs {text.count(old)} times in {path}")
                continue
            target.write_text(text.replace(old, new))
            start = time.perf_counter()
            try:
                code = run_tests(tree, [test]).returncode
            except subprocess.TimeoutExpired:
                code = None
            shutil.rmtree(tree)
            # pytest exits 1 when a test failed; 0 is a survivor, anything
            # else (no such test, a usage error) is a broken mutant entry
            status = {0: "SURVIVED", 1: "killed", None: "hung"}.get(code, f"error (pytest exit {code})")
            print(f"mutant {i}: {status} in {time.perf_counter() - start:.1f} s: {path}: "
                  f"{old.strip()!r} -> {new.strip()!r} [{test}]", flush=True)
            if code != 1:
                failures.append(f"mutant {i}: {status}")
    for line in failures:
        print(line)
    print(f"mutants: {len(MUTANTS) - len(failures)} of {len(MUTANTS)} killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
