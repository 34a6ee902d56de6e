"""Every entry of the mutation table in tests/mutants.py can run.

The mutation script takes minutes, so a mutant whose old text no longer
matches the source, or whose test was renamed, would otherwise show only
when it runs.  Each entry's old text must occur exactly once in its file,
its new text must differ, and the test it names must be a function of the
named test file.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mf2_mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("index", range(len(MUTANTS)))
def test_mutant_applies_once_and_names_an_existing_test(index):
    path, old, new, test = MUTANTS[index]
    assert (ROOT / path).read_text().count(old) == 1
    assert new != old
    test_file, name = test.split("::")
    tree = ast.parse((ROOT / test_file).read_text())
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
