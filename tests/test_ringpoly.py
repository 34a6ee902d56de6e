"""Polynomial ring tests.

Hand-derived expectations frozen here: the formal partial of
x+y+x^-1*y^-1 with respect to x is 1 + x^-2*y^-1 (termwise rule, the
x^-1*y^-1 term has odd x-exponent -1), W(1,1) = 1 over GF(2), and
W(t,t) = t over GF(4) since t^-2 = t when t^3 = 1.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mf2
from mf2.cohomwin import LocalCohomologyReport, Window
from mf2.gf2k import GF2, FieldSpec, Immutable, default_spec
from mf2.groebner import laurent_jacobian_ideal, quotient_ring
from mf2.mfcore import (
    FieldHomotopy,
    GradedMF,
    GradedMorphism,
    HomotopyWitness,
    MFFile,
    Morphism,
    UngradedMF,
    verify_mf,
)
from mf2.paperlab import Check, ReductionResult, Report, Rp2Context
from mf2.ringmat import FieldMatrix, RingMatrix, parse_matrix
from mf2.ringpoly import (
    ParseError,
    RingDescriptor,
    RingPoly,
    exact_divide,
    parse_poly,
)

LAURENT2 = RingDescriptor(GF2, ("x", "y"), (True, True))
POLY2 = RingDescriptor(GF2, ("x", "y"), (False, False))
LAURENT4 = RingDescriptor(default_spec(2), ("x", "y"), (True, True))


def P(text, ring=LAURENT2):
    return parse_poly(text, ring)


def test_char2_addition_cancels():
    x = RingPoly.variable(LAURENT2, "x")
    assert (x + x).is_zero()
    assert x + RingPoly.zero(LAURENT2) == x


def test_mul_and_frobenius():
    x = RingPoly.variable(LAURENT2, "x")
    y = RingPoly.variable(LAURENT2, "y")
    s = x + y
    assert s * s == x * x + y * y
    assert str(s * s) == "x^2 + y^2"


def test_laurent_flags_enforced():
    with pytest.raises(ValueError, match="non-Laurent"):
        RingPoly.monomial(POLY2, (-1, 0))
    RingPoly.monomial(LAURENT2, (-1, -5))


def test_parse_print_round_trip_canonical():
    w = P("x + y + x^-1*y^-1")
    assert str(w) == "x + y + x^-1*y^-1"
    assert parse_poly(str(w), LAURENT2) == w
    assert str(P("y + x")) == "x + y"
    assert str(P("1 + x*y*x^-1")) == "y + 1"
    assert str(RingPoly.zero(LAURENT2)) == "0"
    assert str(P("0")) == "0"
    assert str(P("x + x")) == "0"


def test_parse_extension_coefficients():
    gf4 = RingDescriptor(default_spec(2), ("x", "y"), (True, True))
    p = parse_poly("{3}*x^-2*y + 1", gf4)
    assert p.terms == {(-2, 1): 3, (0, 0): 1}
    # canonical order is by total degree first: the constant outranks the degree -1 term
    assert str(p) == "1 + {3}*x^-2*y"
    assert parse_poly(str(p), gf4) == p
    # {2}*{2} = t*t = t+1
    q = parse_poly("{2}*{2}*x", gf4)
    assert q.terms == {(1, 0): 3}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        P("x + $")
    assert ei.value.line == 1 and ei.value.col == 5
    with pytest.raises(ParseError, match="unknown variable"):
        P("x + z")
    with pytest.raises(ParseError, match="non-Laurent"):
        parse_poly("x^-1", POLY2)
    with pytest.raises(ParseError, match="0 or 1"):
        P("2*x")
    with pytest.raises(ParseError, match="GF"):
        P("{1}*x")  # braced form rejected over GF(2)
    with pytest.raises(ParseError) as ei:
        parse_poly("x +\n y^", POLY2)
    assert ei.value.line == 2


def test_formal_partial_of_projective_plane_potential():
    w = P("x + y + x^-1*y^-1")
    assert str(w.partial("x")) == "1 + x^-2*y^-1"
    assert str(w.partial("y")) == "1 + x^-1*y^-2"


def test_formal_partial_square_rule():
    # d/dx of x^2 is 0 in characteristic 2; of x^3 is x^2
    assert P("x^2").partial("x").is_zero()
    assert P("x^3").partial("x") == P("x^2")
    rng = random.Random(7)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            terms[(rng.randrange(-4, 5), rng.randrange(-4, 5))] = 1
        p = RingPoly(LAURENT2, terms)
        # derivative of p^2 vanishes
        assert (p * p).partial("x").is_zero()
        # Leibniz rule
        q = RingPoly(LAURENT2, {(rng.randrange(-3, 4), rng.randrange(-3, 4)): 1})
        lhs = (p * q).partial("y")
        rhs = p.partial("y") * q + p * q.partial("y")
        assert lhs == rhs


def test_evaluate_gf2_and_gf4():
    w = P("x + y + x^-1*y^-1")
    one = GF2.element(1)
    assert w.evaluate((one, one)).value == 1
    gf4 = default_spec(2)
    t = gf4.element(2)
    assert w.evaluate((t, t)).value == 2  # t + t + t^-2 = t^-2 = t
    with pytest.raises(ValueError, match="pole"):
        w.evaluate((GF2.element(0), one))


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(99)
    gf4 = default_spec(2)
    pts = [(gf4.element(a), gf4.element(b)) for a in (1, 2, 3) for b in (1, 2, 3)]
    for _ in range(40):
        p = RingPoly(
            LAURENT2,
            {(rng.randrange(-3, 4), rng.randrange(-3, 4)): 1 for _ in range(rng.randrange(1, 5))},
        )
        q = RingPoly(
            LAURENT2,
            {(rng.randrange(-3, 4), rng.randrange(-3, 4)): 1 for _ in range(rng.randrange(1, 5))},
        )
        pt = pts[rng.randrange(len(pts))]
        a, b = p.evaluate(pt).value, q.evaluate(pt).value
        assert (p * q).evaluate(pt) == gf4.element(gf4.mul(a, b))
        assert (p + q).evaluate(pt) == gf4.element(a ^ b)


def test_exact_divide_basic():
    # (x^2+y^2) / (x+y) = x+y
    q = exact_divide(P("x^2 + y^2"), P("x + y"))
    assert q == P("x + y")
    # in the polynomial ring x+1 is not a multiple of y
    assert exact_divide(parse_poly("x + 1", POLY2), parse_poly("y", POLY2)) is None
    # in the Laurent ring y is a unit
    q = exact_divide(P("x + 1"), P("y"))
    assert q == P("x*y^-1 + y^-1")
    with pytest.raises(ZeroDivisionError):
        exact_divide(P("x"), RingPoly.zero(LAURENT2))
    assert exact_divide(RingPoly.zero(LAURENT2), P("x")).is_zero()


def test_exact_divide_laurent_normalization():
    # 1 + x^-2*y^-1 divides the numerator used by the reduction pipeline
    d = P("1 + x^-2*y^-1")
    p = P("x^-1 + x^-3*y^-1")
    q = exact_divide(p, d)
    assert q == P("x^-1")
    assert q * d == p
    # non-multiple is rejected
    assert exact_divide(P("x^-1 + y"), d) is None


@pytest.mark.parametrize("p, d, exponent", [
    ("x^1073741823 + x^-5", "x^-5", 1073741828),
    ("x^1073741000*y + x^-1000", "x + 1", 1073742000),
    # without the entry check this one would return None, not raise
    ("x^-5*y + x^1073741823", "y + 1", 1073741828),
])
def test_exact_divide_raises_when_a_shifted_exponent_leaves_the_range(p, d, exponent):
    # shifting p by its monomial content moves an exponent past 2^30 - 1
    with pytest.raises(ValueError, match=rf"exponent {exponent} of 'x' outside \[-2\^30, 2\^30\)"):
        exact_divide(P(p), P(d))


def test_exact_divide_randomized_round_trip():
    rng = random.Random(12345)
    for _ in range(60):
        def rand_poly():
            return RingPoly(
                LAURENT2,
                {
                    (rng.randrange(-3, 4), rng.randrange(-3, 4)): 1
                    for _ in range(rng.randrange(1, 5))
                },
            )
        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        q = exact_divide(a * b, b)
        assert q is not None
        assert q * b == a * b
        assert q == a


def test_gf4_divide_uses_coefficient_inverse():
    gf4 = RingDescriptor(default_spec(2), ("x",), (False,))
    p = parse_poly("{3}*x^2 + {3}*x", gf4)
    d = parse_poly("{2}*x", gf4)
    q = exact_divide(p, d)
    # {3}/{2} = (t+1)*t^-1 = (t+1)(t+1) = t^2+1... t^2 = t+1, so t^2+1 = t = {2}
    assert q == parse_poly("{2}*x + {2}", gf4)


def test_support_bounds():
    assert P("x^-2*y + x").support_bounds() == [(-2, 1), (0, 1)]


def test_evaluate_inverts_each_laurent_coordinate_once(monkeypatch):
    gf4 = default_spec(2)
    ring = RingDescriptor(gf4, ("x",), (True,))
    calls = []
    inv = FieldSpec.inv
    monkeypatch.setattr(FieldSpec, "inv", lambda spec, a: calls.append(a) or inv(spec, a))
    t = gf4.element(2)
    # t^-1 + t^-2 + t^-3 = t^2 + t + 1 = 0, the minimal polynomial of t
    assert parse_poly("x^-1 + x^-2 + x^-3", ring).evaluate((t,)).value == 0
    assert calls == [2]
    calls.clear()
    assert parse_poly("x^-1 + x^-2", ring).evaluate((t,)).value == 1
    assert parse_poly("x^2 + x", ring).evaluate((t,)).value == 1
    assert calls == [2]


# Exponents lie in [-2^30, 2^30): one 32-bit lane per variable, less a
# guard bit and a sign bias.
BOUND = 2 ** 30


@pytest.mark.parametrize("exps", [(BOUND, 0), (0, BOUND), (-BOUND - 1, 0), (0, 2 ** 40)])
def test_exponents_outside_the_bound_are_rejected(exps):
    with pytest.raises(ValueError, match="outside"):
        LAURENT2.check_exponents(exps)
    with pytest.raises(ValueError, match="outside"):
        RingPoly(LAURENT2, {exps: 1})
    with pytest.raises(ValueError, match="outside"):
        RingPoly.monomial(LAURENT2, exps)
    inside = tuple(max(-BOUND, min(e, BOUND - 1)) for e in exps)
    assert RingPoly.monomial(LAURENT2, inside).terms == {inside: 1}


def test_parser_rejects_exponents_outside_the_bound_with_a_position():
    for text, col in (("x^1073741824", 1), ("x + y*x^1073741824", 7),
                      ("x^-1073741825", 1), ("y + x^1073741823*x", 5),
                      ("x^99999999999999999999", 1), ("x^1073741824*x^-1", 1)):
        with pytest.raises(ParseError, match="outside") as ei:
            P(text)
        assert (ei.value.line, ei.value.col) == (1, col), text
    assert P("x^1073741823 + x^-1073741824").terms == {(BOUND - 1, 0): 1, (-BOUND, 0): 1}
    assert P("x^1073741823*x*x^-1").terms == {(BOUND - 1, 0): 1}


# One input per error message of the reader, each with its message, line
# and column pinned.
READER_ERRORS = [
    ("  \n\t", LAURENT2, "empty polynomial", 2, 2),
    ("x + {", LAURENT4, "expected a number", 1, 6),
    ("x*y^- 1", LAURENT2, "expected a number", 1, 6),
    ("x^\n", LAURENT2, "expected a number", 2, 1),
    ("{3 }*x", LAURENT4, "expected '}'", 1, 3),
    ("x +\n {1}*y", LAURENT2, "braced coefficients are for extension fields; GF(2) uses 0/1", 2, 2),
    ("y + {4}*x", LAURENT4, "coefficient 4 outside GF(2^2)", 1, 5),
    ("x +\n  2*y", LAURENT2, "bare coefficients must be 0 or 1; use {n} in extension fields", 2, 3),
    ("x + * y", LAURENT2, "expected a variable name", 1, 5),
    ("x*\nz^", LAURENT2, "unknown variable 'z'", 2, 1),
    ("1 + x^-1", POLY2, "negative exponent on non-Laurent variable 'x'", 1, 5),
    ("x + y*x^1073741824", LAURENT2, "exponent 1073741824 of 'x' outside [-2^30, 2^30)", 1, 7),
    ("y +\nx^1073741823*x", LAURENT2, "exponent 1073741824 of 'x' outside [-2^30, 2^30)", 2, 1),
    ("x y", LAURENT2, "unexpected character 'y'", 1, 3),
]


@pytest.mark.parametrize("text, ring, message, line, col", READER_ERRORS)
def test_each_reader_error_has_its_message_and_position(text, ring, message, line, col):
    with pytest.raises(ParseError) as ei:
        parse_poly(text, ring)
    assert (ei.value.message, ei.value.line, ei.value.col) == (message, line, col)


def test_numbers_of_any_length_are_values_or_parse_errors():
    long = "9" * 5000
    for text, ring, message, col in (
        ("x^\u00b2 + y", LAURENT2, "expected a number", 3),  # superscript two
        ("x^\u0663", LAURENT2, "expected a number", 3),  # Arabic-Indic three
        ("y + \u00b2", LAURENT2, "expected a variable name", 5),
        ("{\u0663}*x", LAURENT4, "expected a number", 2),
        (f"y + x^{long}", LAURENT2, f"exponent {long} of 'x' outside [-2^30, 2^30)", 5),
        (f"x^-00{long}", LAURENT2, f"exponent -{long} of 'x' outside [-2^30, 2^30)", 1),
        (f"x^-{long}", POLY2, "negative exponent on non-Laurent variable 'x'", 1),
        (f"x + {{{long}}}", LAURENT4, f"coefficient {long} outside GF(2^2)", 5),
        (f"x + {long}", LAURENT2, "bare coefficients must be 0 or 1; use {n} in extension fields", 5),
    ):
        with pytest.raises(ParseError) as ei:
            parse_poly(text, ring)
        assert (ei.value.message, ei.value.line, ei.value.col) == (message, 1, col), text[:20]
    zeros = "0" * 5000
    assert P(f"x^{zeros}3*y^-{zeros}1 + {zeros}1") == P("x^3*y^-1 + 1")
    assert parse_poly(f"{{{zeros}3}}*x", LAURENT4) == parse_poly("{3}*x", LAURENT4)


# The reader's characters, and text it must refuse: digits that are not
# ASCII (a superscript two, an Arabic-Indic three), and digit runs too long
# for int() to read.
READER_TOKENS = ("x", "y", "z", "_", "^", "-", "*", "+", "{", "}", " ", "\n", "$", "x^", "y^-",
                 "0", "1", "3", "\u00b2", "\u0663", "7" * 4301, "0" * 4400 + "1")


@settings(max_examples=300)
@example("\u00b2", LAURENT2)
@example("x^\u00b2 + y", LAURENT2)
@example("x^\u0663", LAURENT2)
@given(st.lists(st.sampled_from(READER_TOKENS), max_size=12).map("".join),
       st.sampled_from((LAURENT2, POLY2, LAURENT4)))
def test_reader_returns_a_polynomial_or_raises_a_parse_error(text, ring):
    """Nothing but a RingPoly or a ParseError comes out, and since the rings'
    names are ASCII, only ASCII text reads as a polynomial."""
    try:
        p = parse_poly(text, ring)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
    else:
        assert isinstance(p, RingPoly) and p.ring == ring and text.isascii()


@pytest.mark.parametrize("var", ["x", "y"])  # y owns the top lane, x a lower one
def test_products_that_leave_the_bound_raise_instead_of_wrapping(var):
    one = RingPoly.variable(LAURENT2, var)
    inverse = RingPoly.variable(LAURENT2, var, -1)
    top = RingPoly.variable(LAURENT2, var, BOUND - 1)
    bottom = RingPoly.variable(LAURENT2, var, -BOUND)
    assert str(top * inverse) == f"{var}^{BOUND - 2}"
    assert str(bottom * one) == f"{var}^{-BOUND + 1}"
    for a, b in ((top, one), (bottom, inverse), (top, top), (bottom, bottom),
                 (top + one, P("x*y")), (RingMatrix.identity(LAURENT2, 2).scale(top), one)):
        with pytest.raises(ValueError, match="exponent overflow"):
            a.scale(b) if isinstance(a, RingMatrix) else a * b


def _xy_mf():
    return UngradedMF(P("x*y"), parse_matrix("0, x; y, 0", LAURENT2))


def _graded_mf():
    return GradedMF(P("x*y"), parse_matrix("x", LAURENT2), parse_matrix("y", LAURENT2))


def _zero_witness():
    zero = RingMatrix.zeros(LAURENT2, 2, 2)
    return HomotopyWitness(Morphism(_xy_mf(), _xy_mf(), zero), zero)


IMMUTABLE_INSTANCES = {
    "FieldSpec": lambda: default_spec(2),
    "FieldElem": lambda: default_spec(2).element(3),
    "RingDescriptor": lambda: RingDescriptor(GF2, ("x", "y"), (True, False)),
    "RingPoly": lambda: P("x + 1"),
    "RingMatrix": lambda: RingMatrix.identity(LAURENT2, 2),
    "FieldMatrix": lambda: FieldMatrix.identity(GF2, 2),
    "UngradedMF": _xy_mf,
    "GradedMF": _graded_mf,
    "Morphism": lambda: Morphism(_xy_mf(), _xy_mf(), RingMatrix.identity(LAURENT2, 2)),
    "GradedMorphism": lambda: GradedMorphism(
        _graded_mf(), _graded_mf(), RingMatrix.identity(LAURENT2, 2)
    ),
    "HomotopyWitness": _zero_witness,
    "FieldHomotopy": lambda: FieldHomotopy(
        FieldMatrix(GF2, 2, 2, [0, 1, 0, 0]), FieldMatrix(GF2, 2, 2, [0, 0, 1, 0])
    ),
    "Rp2Context": Rp2Context,
    "MFFile": lambda: MFFile(LAURENT2, P("x"), RingMatrix.identity(LAURENT2, 1)),
    "VerifyReport": lambda: verify_mf(RingMatrix.identity(LAURENT2, 1), P("x")),
    "Window": lambda: Window.symmetric(LAURENT2, 2),
    "LocalCohomologyReport": lambda: LocalCohomologyReport((GF2.element(1), GF2.element(1)), 2, 1, ((1, 0),)),
    "JacobianPresentation": lambda: laurent_jacobian_ideal(P("x + y + x^-1*y^-1")),
    "QuotientRing": lambda: quotient_ring(laurent_jacobian_ideal(P("x + y + x^-1*y^-1"))),
    "Check": lambda: Check("an_forced", False, "forced failure"),
    "Report": lambda: Report((Check("ok", True),), 2024),
    "ReductionResult": lambda: ReductionResult(P("x^2"), _zero_witness()),
}


@pytest.mark.parametrize("name", sorted(IMMUTABLE_INSTANCES))
def test_value_classes_reject_assignment_and_deletion(name):
    obj = IMMUTABLE_INSTANCES[name]()
    assert type(obj).__name__ == name
    field = type(obj).__slots__[0]
    value = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        delattr(obj, field)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        obj.extra = 1
    assert getattr(obj, field) is value


def test_products_built_through_slot_descriptors_stay_immutable():
    """Products are built by _raw, which writes each slot through its
    descriptor; every slot of the result still rejects assignment."""
    one = RingMatrix.identity(LAURENT2, 2)
    for obj in (P("x + 1") * P("y"), one * one, one + one):
        name = type(obj).__name__
        for field in type(obj).__slots__:
            value = getattr(obj, field)
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(obj, field, value)
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                delattr(obj, field)
            assert getattr(obj, field) is value


def _with_field(obj, name, value):
    """A copy of obj with one field replaced, built by the base constructor."""
    copy = object.__new__(type(obj))
    fields = (value if n == name else getattr(obj, n) for n in type(obj).__slots__)
    Immutable.__init__(copy, *fields)
    return copy


@pytest.mark.parametrize("name", sorted(IMMUTABLE_INSTANCES))
def test_value_classes_compare_and_hash_by_fields(name):
    a, b = IMMUTABLE_INSTANCES[name](), IMMUTABLE_INSTANCES[name]()
    assert isinstance(a, Immutable)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    for field in type(a).__slots__:
        changed = _with_field(a, field, object())
        assert changed != a and a != changed, field
        assert _with_field(a, field, getattr(a, field)) == a


def test_value_class_equality_needs_the_same_type_and_repr_names_fields():
    w, q = P("x*y"), parse_matrix("0, x; y, 0", LAURENT2)
    mff, mf = MFFile(LAURENT2, w, q), UngradedMF(w, q)
    assert mff._fields() == mf._fields()
    assert mff != mf and mf != mff
    assert repr(FieldSpec(2, 7)) == "FieldSpec(k=2, modulus=7)"
    assert repr(LAURENT2) == (
        "RingDescriptor(field=FieldSpec(k=1, modulus=3), vars=('x', 'y'), laurent=(True, True))"
    )
    assert repr(Check("a", True)) == "Check(check_id='a', passed=True, detail='', trace='')"
    assert len({IMMUTABLE_INSTANCES["GradedMorphism"]() for _ in range(2)}) == 1
    with pytest.raises(TypeError, match="MFFile takes 3 values, got 2"):
        MFFile(LAURENT2, w)


def test_cli_import_loads_no_dataclasses():
    """Value classes use Immutable alone; the dataclasses module (and the
    inspect module it imports) would add to every command's start-up."""
    path = [str(Path(mf2.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mf2.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
