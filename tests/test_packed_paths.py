"""The hot paths run on packed keys and never build the tuple view.

`RingPoly.terms` unpacks every key of a polynomial into a new dict.  Exact
division, the rp2 reduction, Groebner bases and normal forms, window
cohomology, exactness witnesses and the factorization search work on
`RingPoly.packed` alone; a counting property in place of `terms` pins
that.  A source scan pins where `src/` still reads the view: the printer,
the command line and the maps between rings in the Groebner pipeline.
Key arithmetic stays in ringpoly: no other module imports the lane
constants.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

from conftest import fixture

from mf2 import ringpoly
from mf2.cohomwin import Window, cohomology_dims, solve_exactness
from mf2.gf2k import GF2, default_spec
from mf2.groebner import (
    _clear_monomial_content,
    buchberger,
    normal_form,
    quotient_order,
)
from mf2.mfcore import Morphism, search_factorizations
from mf2.paperlab import Rp2Context
from mf2.ringmat import RingMatrix
from mf2.ringpoly import RingDescriptor, RingPoly, exact_divide, parse_poly

SRC = Path(ringpoly.__file__).resolve().parent

CONTEXTS = {k: Rp2Context(default_spec(k)) for k in (1, 2)}


@pytest.fixture
def terms_reads(monkeypatch):
    """A list that grows by one on every read of RingPoly.terms."""
    reads = []
    view = RingPoly.terms

    def counted(self):
        reads.append(self)
        return view.fget(self)

    monkeypatch.setattr(RingPoly, "terms", property(counted))
    return reads


def test_exact_divide_reads_no_tuple_view(terms_reads):
    ring = RingDescriptor(GF2, ("x", "y"), (True, True))
    d = parse_poly("1 + x^-2*y^-1", ring)
    assert exact_divide(parse_poly("x^-1 + x^-3*y^-1", ring), d) == parse_poly("x^-1", ring)
    assert exact_divide(parse_poly("x^-1 + y", ring), d) is None
    assert terms_reads == []


@pytest.mark.parametrize("k", [1, 2])
def test_reduce_endomorphism_reads_no_tuple_view(k, terms_reads):
    ctx = CONTEXTS[k]
    rng = random.Random(11 + k)
    for _ in range(5):
        alpha, f = ctx.random_closed(rng)
        assert ctx.reduce_endomorphism(f).alpha == alpha
    assert terms_reads == []


def test_groebner_reads_no_tuple_view(terms_reads):
    w = fixture("rp2").w
    ring = w.ring
    poly_ring = ring.polynomialized()
    cleared = [_clear_monomial_content(w.partial(i), poly_ring) for i in range(ring.nvars)]
    quotient = CONTEXTS[1].jacobian
    terms_reads.clear()  # content clearing is a map between rings
    basis = buchberger(cleared, quotient_order)
    assert len(basis) == 2
    assert normal_form(parse_poly("y^4", poly_ring), basis, quotient_order) == parse_poly("x", poly_ring)
    assert quotient.class_vector(parse_poly("x^4*y", quotient.ring)) == [0, 0, 1]
    CONTEXTS[1].check_folding()
    assert terms_reads == []


def test_windows_and_search_read_no_tuple_view(terms_reads):
    x = fixture("rp2")
    ring = x.ring
    assert cohomology_dims(x, x, 3)[3] == 3
    f = Morphism(x, x, RingMatrix.identity(ring, 4).scale(x.w.partial("x")))
    assert solve_exactness(f, Window.symmetric(ring, 2)) is not None
    p2 = RingDescriptor(GF2, ("x", "y"), (False, False))
    found = search_factorizations(parse_poly("x^2 + y^2", p2), 2, [(1, 0), (0, 1)], 8)
    assert len(found) > 0
    assert terms_reads == []


# (module, function) pairs that may read the tuple view
TERMS_READERS = {
    ("ringpoly", "RingPoly.__str__"),
    ("cli", "_infer_ring"),
    ("cli", "cmd_search"),
    ("groebner", "_clear_monomial_content"),
    ("groebner", "laurent_jacobian_ideal"),
    ("groebner", "laurent_jacobian_ideal.lift"),
}


def attribute_reads(tree: ast.AST, attr: str) -> set[str]:
    """Qualified names of the functions and classes around each `.attr` read."""
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope += (node.name,)
        if isinstance(node, ast.Attribute) and node.attr == attr:
            found.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_edges_read_the_tuple_view():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        readers |= {(path.stem, name) for name in attribute_reads(tree, "terms")}
    assert readers == TERMS_READERS


def test_no_module_but_ringpoly_knows_the_lane_layout():
    private = {"LANE_BITS", "EXP_BOUND", "_lanes", "_LANE_MASK"}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "ringpoly":
            continue
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & private, path.name
