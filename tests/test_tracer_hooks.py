"""The benchmark tracer's hooks still find their targets.

`perfbench/tracer.py` rebinds library functions by name and reads their
arguments, so a renamed target (`_delta_columns`, `gf2_rank`, ...) or a
changed argument list would otherwise only show when the benchmark runs
traced.  The tracer is loaded from its file and left unchanged.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from conftest import FIXTURES, fixture

from mf2 import cli, cohomwin, mfcore
from mf2.mfcore import Morphism
from mf2.ringmat import RingMatrix

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_one_column_build_per_cohomology_call():
    rp2 = fixture("rp2")
    original = cohomwin._delta_columns
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        dims = cohomwin.cohomology_dims(rp2, rp2, 2)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert dims[2] == 3
    assert snap["calls"]["cohomwin.op"] == 1
    assert snap["calls"]["cohomwin.columns"] == 1
    # 4x4 matrix entries times the 7x7 monomials of the radius-3 domain
    assert snap["counts"]["cohomwin.columns"] == 16 * 49
    # the output window grows by the unit hull of Q: 9x9 monomials
    assert snap["counts"]["cohomwin.out_width"] == 81
    assert cohomwin._delta_columns is original


def test_tracer_counts_the_exactness_window():
    rp2 = fixture("rp2")
    ident = RingMatrix.identity(rp2.ring, 4)
    window = cohomwin.Window.symmetric(rp2.ring, 1)
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        witness = cohomwin.solve_exactness(Morphism(rp2, rp2, ident), window)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert witness is None  # the identity is not exact
    assert snap["calls"]["cohomwin.op"] == 1
    assert snap["calls"]["cohomwin.columns"] == 1
    # one column per matrix entry and monomial of the 3x3 window
    assert snap["counts"]["cohomwin.columns"] == 16 * window.size == 16 * 9
    # the window grows by the unit hull of Q (the identity adds nothing): 5x5
    assert snap["counts"]["cohomwin.out_width"] == 25


def test_tracer_times_the_parser_the_cli_reexports():
    # the benchmark calls cli.parse_mf_text and times it as cli.parse
    assert cli.parse_mf_text is mfcore.parse_mf_text
    text = (FIXTURES / "rp2.mf").read_text()
    tracer = load_tracer_module().Tracer()
    tracer.install()
    try:
        cli.parse_mf_text(text)
    finally:
        tracer.uninstall()
    assert tracer.snapshot()["calls"]["cli.parse"] == 1
    assert cli.parse_mf_text is mfcore.parse_mf_text
