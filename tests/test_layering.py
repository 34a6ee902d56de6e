"""The package imports only downward, and the factorization core loads alone.

Layers, bottom up: gf2k < ringpoly < ringmat < mfcore < {cohomwin,
groebner} < paperlab < cli.  A module imports from layers below its own
and from none at or above it, so reading an MF file and verifying a
factorization load neither the command line, nor the lab, nor the window
and Groebner machinery.  Every name in a module's __all__ exists, and
every name a module imports is used there or listed in its __all__.
Every value class builds through gf2k.Immutable.
The test oracles in tests/oracles.py import no mf2 module at all.
"""

from __future__ import annotations

import ast
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


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_no_unused_imports():
    """An import that nothing in its module reads, and that the module
    does not re-export through __all__, is dead."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exported = {
            name
            for node in tree.body if isinstance(node, ast.Assign)
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead = sorted(_imported_names(tree) - used - exported)
        assert not dead, f"mf2/{path.name} imports {dead} and never uses them"


def test_value_classes_build_through_immutable():
    """One immutability idiom: only Immutable and RingPoly, whose terms are
    a dict, define __eq__ or __hash__, and a slot descriptor's __set__ is
    called only inside a `_raw` constructor, the one way around __init__."""
    own, stray = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name not in ("Immutable", "RingPoly"):
                own += [f"{cls.name}.{node.name}" for node in cls.body
                        if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")]
        # the names bound to descriptor setters, e.g. _set_ring = RingPoly.ring.__set__
        setters = {target.id
                   for node in tree.body if isinstance(node, ast.Assign)
                   if any(isinstance(n, ast.Attribute) and n.attr == "__set__" for n in ast.walk(node.value))
                   for t in node.targets for target in ast.walk(t) if isinstance(target, ast.Name)}
        allowed = {id(call) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_raw"
                   for call in ast.walk(fn)}
        stray += [f"{path.name}:{call.lineno}" for call in ast.walk(tree)
                  if isinstance(call, ast.Call) and id(call) not in allowed
                  and (isinstance(call.func, ast.Name) and call.func.id in setters
                       or isinstance(call.func, ast.Attribute) and call.func.attr == "__set__")]
    assert not own, f"{own} define their own equality or hash"
    assert not stray, f"slot setters called outside _raw at {stray}"


def test_the_oracles_import_no_mf2_module():
    """A reference that called mf2 would reproduce mf2's faults, not catch
    them.  The oracles import from an allowlist, so mf2 cannot reach them
    through conftest or a test module either."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    modules += ["." * node.level + (node.module or "")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    allowed = {"__future__", "functools", "itertools", "operator", "sympy"}
    assert modules and not [m for m in modules if m.split(".")[0] not in allowed]


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
