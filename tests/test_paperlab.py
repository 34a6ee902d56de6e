"""Trace calculus, constructive reduction, and certification reports.

Frozen oracles: the alpha matrix reduces to x^2 and its cube to 1; the
partial-derivative matrices decompose with cofactors (1, 0) and (0, 1);
explicit cofactor pairs for x + y and x^3 + 1 follow from
x*dW/dx + y*dW/dy = x + y and (x^2*y + x^3)*dW/dx + x^2*y*dW/dy = x^3 + 1,
both checked by hand in characteristic two."""

import random

import pytest

from mf2.gf2k import Immutable, default_spec
from mf2.groebner import QuotientRing, laurent_jacobian_ideal, quotient_ring
from mf2.ringpoly import RingPoly, parse_poly
from mf2.ringmat import RingMatrix, blocks_of, commutator
from mf2 import paperlab
from mf2.paperlab import (
    Check,
    Report,
    Rp2Context,
    _run_check,
    an_corpus,
    at,
    closed_open_certify,
    delta_u,
    delta_u_preimage,
    random_matrix,
    random_poly,
    run_suite,
    tr,
    v_twist_check,
)


CTX = Rp2Context()
CONTEXTS = {1: CTX, 2: Rp2Context(default_spec(2))}


def canonical_alpha(rng):
    return CTX.random_scalar(rng)


def closed_sample(rng, alpha):
    g = random_matrix(CTX.ring, rng, 4, 4)
    return CTX._identity4().scale(alpha) + commutator(CTX.q, g)


def test_tr_at_basics():
    id2 = RingMatrix.identity(CTX.ring, 2)
    zero = RingPoly.zero(CTX.ring)
    assert tr(id2) == zero
    assert at(id2) == zero
    assert tr(CTX.u) == zero
    assert at(CTX.u) == zero
    with pytest.raises(ValueError, match="2x2"):
        tr(RingMatrix.identity(CTX.ring, 3))


def test_delta_u_matches_commutator():
    rng = random.Random(41)
    for _ in range(50):
        f = random_matrix(CTX.ring, rng, 2, 2)
        assert delta_u(f) == commutator(CTX.u, f)


def test_delta_u_preimage_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        image = delta_u(random_matrix(CTX.ring, rng, 2, 2))
        f = delta_u_preimage(image)
        assert f is not None
        assert delta_u(f) == image
    assert delta_u_preimage(RingMatrix.zeros(CTX.ring, 2, 2)).is_zero()


def test_delta_u_preimage_rejects_outside_image():
    one = RingPoly.one(CTX.ring)
    zero = RingPoly.zero(CTX.ring)
    bad = RingMatrix.from_rows(CTX.ring, [[one, zero], [one, zero]])
    assert delta_u_preimage(bad) is None


def test_v_twist_identities():
    rng = random.Random(43)
    assert v_twist_check(RingMatrix.identity(CTX.ring, 2)).ok
    assert v_twist_check(CTX.u).ok
    for _ in range(100):
        assert v_twist_check(random_matrix(CTX.ring, rng, 2, 2)).ok


def test_decompose_identity_and_scalar():
    id2 = RingMatrix.identity(CTX.ring, 2)
    x = RingPoly.variable(CTX.ring, "x")
    for scalar in (RingPoly.one(CTX.ring), x):
        a, b, s, t = CTX._split(CTX._identity4().scale(scalar))
        assert a == id2.scale(scalar) and b.is_zero()
        assert s.is_zero() and t.is_zero()


def test_decompose_random_closed():
    """_split returns the blocks a, b of f = [[a, b], [c, d]] and preimages
    with c = x*b + [U, s] and d = a + [U, t]."""
    x = RingPoly.variable(CTX.ring, "x")
    rng = random.Random(44)
    for _ in range(20):
        f = closed_sample(rng, canonical_alpha(rng))
        a, b, s, t = CTX._split(f)
        assert blocks_of(f) == (a, b, b.scale(x) + delta_u(s), a + delta_u(t))


def test_reduce_identity_and_canonical_scalars():
    one = RingPoly.one(CTX.ring)
    result = CTX.reduce_endomorphism(CTX._identity4())
    assert result.alpha == one
    assert result.witness.g.is_zero()
    rng = random.Random(45)
    for _ in range(10):
        alpha = canonical_alpha(rng)
        result = CTX.reduce_endomorphism(CTX._identity4().scale(alpha))
        assert result.alpha == alpha
        assert result.witness.g.is_zero()


def test_reduce_alpha_matrix():
    x = RingPoly.variable(CTX.ring, "x")
    assert CTX.reduce_endomorphism(CTX.f_alpha).alpha == x * x
    cubed = CTX.f_alpha * CTX.f_alpha * CTX.f_alpha
    assert CTX.reduce_endomorphism(cubed).alpha == RingPoly.one(CTX.ring)


def test_alpha_matrix_homotopy_identity():
    xinv = RingPoly.variable(CTX.ring, "x", -1)
    rhs = CTX.f_alpha + CTX._identity4().scale(xinv)
    assert commutator(CTX.q, CTX.alpha_homotopy) == rhs


def test_reduce_random_round_trips():
    rng = random.Random(46)
    for _ in range(30):
        alpha = canonical_alpha(rng)
        f = closed_sample(rng, alpha)
        result = CTX.reduce_endomorphism(f)
        assert result.alpha == alpha
        assert result.witness.claim.f == f + CTX._identity4().scale(alpha)


def test_reduce_rejects_non_closed():
    x = RingPoly.variable(CTX.ring, "x")
    open_map = RingMatrix.zeros(CTX.ring, 4, 4) + CTX.dqdx.scale(x)
    with pytest.raises(ValueError, match="closed"):
        CTX.reduce_endomorphism(open_map)


def test_reduce_makes_one_commutator_call(monkeypatch):
    """A closed input is reduced with no commutator call (its witness proves
    it closed); a non-closed one is rejected after exactly one."""
    calls = []

    def counted(a, b):
        calls.append(1)
        return commutator(a, b)

    monkeypatch.setattr(paperlab, "commutator", counted)
    for k in (1, 2):
        ctx = CONTEXTS[k]
        _, f = ctx.random_closed(random.Random(53))
        calls.clear()
        ctx.reduce_endomorphism(f)
        assert len(calls) == 0
        x = RingPoly.variable(ctx.ring, "x")
        calls.clear()
        with pytest.raises(ValueError, match="closed"):
            ctx.reduce_endomorphism(ctx.dqdx.scale(x))
        assert len(calls) == 1


# Each fault breaks one identity the reduction used to re-check at its own
# stage; the final HomotopyWitness must reject all of them.


def _shift_p_by_x(monkeypatch):
    """Stage one: a wrong quotient p breaks delta(g1)'s off-diagonal blocks."""
    divide = paperlab.exact_divide

    def wrong(a, b):
        return divide(a, b) + RingPoly.variable(a.ring, "x")

    monkeypatch.setattr(paperlab, "exact_divide", wrong)


def _perturb_s(monkeypatch):
    """Stage one: a wrong preimage s leaves [U, s] in the lower-left block
    (s + Id would not be a fault: Id is in the kernel of [U, -])."""
    preimage = paperlab.delta_u_preimage
    calls = []

    def wrong(x):
        calls.append(1)
        out = preimage(x)
        if len(calls) == 2:  # _split asks for t, then s
            one, zero = RingPoly.one(x.ring), RingPoly.zero(x.ring)
            out = out + RingMatrix.from_rows(x.ring, [[one, zero], [zero, zero]])
        return out

    monkeypatch.setattr(paperlab, "delta_u_preimage", wrong)


def _swap_cofactors(monkeypatch):
    """Stage three: swapped cofactors miss alpha0 + alpha."""
    fold = Rp2Context._fold

    def wrong(self, target):
        alpha, c1, c2 = fold(self, target)
        return alpha, c2, c1

    monkeypatch.setattr(Rp2Context, "_fold", wrong)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("fault", [_shift_p_by_x, _perturb_s, _swap_cofactors])
def test_reduce_witness_rejects_stage_faults(monkeypatch, fault, k):
    ctx = CONTEXTS[k]
    _, f = ctx.random_closed(random.Random(54))
    ctx.reduce_endomorphism(f)
    fault(monkeypatch)
    with pytest.raises(ValueError, match="homotopy witness does not satisfy"):
        ctx.reduce_endomorphism(f)


def test_reduce_composition_ring_map():
    rng = random.Random(47)
    for _ in range(10):
        alpha_f, alpha_h = canonical_alpha(rng), canonical_alpha(rng)
        f = closed_sample(rng, alpha_f)
        h = closed_sample(rng, alpha_h)
        product = CTX.reduce_endomorphism(f * h)
        assert product.alpha == CTX._fold(alpha_f * alpha_h)[0]


def test_normal_form_alpha_rule():
    ring = CTX.ring
    assert CTX._fold(parse_poly("x^3", ring))[0] == RingPoly.one(ring)
    assert CTX._fold(parse_poly("x^-1", ring))[0] == parse_poly("x^2", ring)
    assert CTX._fold(parse_poly("y", ring))[0] == parse_poly("x", ring)
    assert CTX._fold(parse_poly("x^2*y^-1", ring))[0] == parse_poly("x", ring)
    rng = random.Random(48)
    for _ in range(20):
        p = random_poly(ring, rng, span=4, max_terms=5)
        folded = CTX._fold(p)[0]
        assert CTX._fold(folded)[0] == folded
        assert CTX._fold(p + folded)[0].is_zero()


def test_jacobian_cofactors_frozen_pairs():
    """_fold(target) = (alpha, c1, c2) with target = alpha + c1*dW/dx + c2*dW/dy."""
    ring = CTX.ring
    zero, one = RingPoly.zero(ring), RingPoly.one(ring)
    x = RingPoly.variable(ring, "x")
    y = RingPoly.variable(ring, "y")
    assert CTX._fold(x + y) == (zero, x, y)
    assert CTX._fold(parse_poly("x^3 + 1", ring)) == (
        zero,
        parse_poly("x^2*y + x^3", ring),
        parse_poly("x^2*y", ring),
    )
    assert CTX._fold(one) == (one, zero, zero)


def test_jacobian_cofactors_random():
    """A member of the Jacobian ideal folds to alpha = 0 and cofactors."""
    rng = random.Random(49)
    for _ in range(20):
        c1 = random_poly(CTX.ring, rng)
        c2 = random_poly(CTX.ring, rng)
        target = c1 * CTX.dwdx + c2 * CTX.dwdy
        alpha, d1, d2 = CTX._fold(target)
        assert alpha.is_zero()
        assert d1 * CTX.dwdx + d2 * CTX.dwdy == target


def test_obstruction_partial_matrices():
    one = RingPoly.one(CTX.ring)
    zero = RingPoly.zero(CTX.ring)
    assert CTX.obstruction_decomposition(CTX.dqdx, CTX.dwdx) == (one, zero)
    assert CTX.obstruction_decomposition(CTX.dqdy, CTX.dwdy) == (zero, one)
    zero4 = RingMatrix.zeros(CTX.ring, 4, 4)
    assert CTX.obstruction_decomposition(zero4, zero) == (zero, zero)


def test_obstruction_random_ideal_elements():
    rng = random.Random(50)
    for _ in range(20):
        c1 = random_poly(CTX.ring, rng, span=1, max_terms=2)
        c2 = random_poly(CTX.ring, rng, span=1, max_terms=2)
        f = CTX.dqdx.scale(c1) + CTX.dqdy.scale(c2)
        alpha = c1 * CTX.dwdx + c2 * CTX.dwdy
        d1, d2 = CTX.obstruction_decomposition(f, alpha)
        assert d1 * CTX.dwdx + d2 * CTX.dwdy == alpha


def test_obstruction_rejects_bad_precondition():
    one = RingPoly.one(CTX.ring)
    with pytest.raises(ValueError, match="alpha"):
        CTX.obstruction_decomposition(CTX.dqdx, one)


def test_context_over_gf4():
    spec = default_spec(2)
    ctx = Rp2Context(spec)
    rng = random.Random(51)
    alpha = RingPoly(ctx.ring, {(1, 0): 2, (0, 0): 1})
    g = random_matrix(ctx.ring, rng, 4, 4)
    f = RingMatrix.identity(ctx.ring, 4).scale(alpha) + commutator(ctx.q, g)
    assert ctx.reduce_endomorphism(f).alpha == alpha


def _with_jacobian(jacobian):
    """A copy of CTX with another Jacobian quotient, built by the base
    constructor, so the construction checks do not run."""
    copy = object.__new__(Rp2Context)
    Immutable.__init__(copy, *(jacobian if name == "jacobian" else getattr(CTX, name)
                               for name in Rp2Context.__slots__))
    return copy


def _potential_quotient(text):
    return quotient_ring(laurent_jacobian_ideal(parse_poly(text, CTX.ring)))


def test_check_folding_rejects_a_quotient_that_folds_otherwise():
    """x and y are units of this 15-dimensional quotient, but y != x."""
    ctx = _with_jacobian(_potential_quotient("x^3 + y^3 + x^-1*y^-1"))
    assert ctx.jacobian.dimension == 15
    with pytest.raises(ValueError, match=r"^y = x fails in the quotient$"):
        ctx.check_folding()


def test_check_folding_requires_x_and_y_to_act_invertibly():
    """y = x holds in K[x, y]/(y + x, x^2), but x is nilpotent: x^3 = 0, not 1."""
    ring = CTX.jacobian.ring
    ctx = _with_jacobian(QuotientRing(ring, [parse_poly("y + x", ring), parse_poly("x^2", ring)]))
    assert ctx.jacobian.dimension == 2
    with pytest.raises(ValueError, match=r"^x\^3 = 1 fails in the quotient$"):
        ctx.check_folding()


def test_check_folding_rejects_an_infinite_quotient():
    ctx = _with_jacobian(_potential_quotient("x^3*y + x^-1*y^-1"))
    assert ctx.jacobian.dimension is None
    with pytest.raises(ValueError, match="^quotient is infinite dimensional$"):
        ctx.check_folding()


def test_closed_open_certify_report():
    report = closed_open_certify(seed=7)
    assert report.ok, str(report)
    ids = [c.check_id for c in report.checks]
    assert "co_surjective" in ids and "co_injective_points" in ids
    for line in report.lines()[:-1]:
        assert line.startswith("PASS ") or line.startswith("FAIL ")


def test_an_corpus_small_indices():
    for n in (1, 2):
        report = an_corpus(n)
        assert report.ok, str(report)
    with pytest.raises(ValueError, match="at least 1"):
        an_corpus(0)


def test_run_suite_green():
    report = run_suite(seed=11)
    assert report.ok, "\n".join(c.line() for c in report.checks if not c.passed)
    assert report.summary().endswith("(seed 11)")


def test_run_check_reports_value_errors_and_records_bugs():
    def failed_identity():
        raise ValueError("identity failed")

    def buggy():
        return None + 1

    assert _run_check("ok", lambda: "fine") == Check("ok", True, "fine")
    assert _run_check("math", failed_identity) == Check("math", False, "identity failed")
    bug = _run_check("bug", buggy)
    assert (bug.check_id, bug.passed, bug.verdict) == ("bug", False, "ERROR")
    assert bug.detail == "TypeError: unsupported operand type(s) for +: 'NoneType' and 'int'"
    assert bug.trace.startswith("Traceback") and "return None + 1" in bug.trace
    assert bug.line() == f"ERROR bug {bug.detail}"
    report = Report((bug, Check("ok", True)))
    assert report.errors == (bug,) and not report.ok and report.passed_count == 1
