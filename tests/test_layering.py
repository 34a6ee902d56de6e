"""The package imports only downward, and the factorization core loads alone.

Layers, bottom up: gf2k < ringpoly < ringmat < mfcore < {cohomwin,
groebner} < paperlab < cli.  A module imports from layers below its own
and from none at or above it, so reading an MF file and verifying a
factorization load neither the command line, nor the lab, nor the window
and Groebner machinery.  Every name in a module's __all__ exists.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import mf2

SRC = Path(mf2.__file__).parent
LAYER = {
    "gf2k": 0, "ringpoly": 1, "ringmat": 2, "mfcore": 3,
    "cohomwin": 4, "groebner": 4, "paperlab": 5, "cli": 6,
}


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__") == sorted(LAYER)


def test_every_import_points_down():
    for module, layer in LAYER.items():
        text = (SRC / f"{module}.py").read_text()
        for target in re.findall(r"^\s*from \.(\w*) import", text, re.MULTILINE):
            assert LAYER.get(target, layer) < layer, f"{module} imports .{target}"


def test_every_exported_name_exists():
    """A name deleted from a module must leave its __all__ too."""
    for module in LAYER:
        mod = importlib.import_module(f"mf2.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"mf2.{module}.__all__ names {missing}"


def test_core_reads_and_verifies_a_fixture_alone():
    script = (
        "import sys\n"
        "from pathlib import Path\n"
        "import mf2.mfcore as core\n"
        "mff = core.parse_mf_text((Path(core.__file__).parent / 'fixtures' / 'rp2.mf').read_text())\n"
        "assert core.UngradedMF(mff.w, mff.q).size == 4\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mf2.mfcore" in loaded
    for name in ("mf2.cli", "mf2.paperlab", "mf2.groebner", "mf2.cohomwin", "argparse"):
        assert name not in loaded, name
