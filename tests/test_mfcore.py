"""Factorization core tests.

Frozen oracles: the A-series pair Q(n) = [[x^n, y],[y+x*z, x^n]] squares to
x^2n + y^2 + x*y*z; dW/dy = x*z there and the witness matrix for x*z*Id is
[[0,1],[1,0]].  At the GF(4) point (1,t) the x-partial of the
projective-plane potential is 1 + t^2 = t, which is invertible, so the
specialized complex contracts.  Parsing emitted MF text gives back the
same ring, potential and matrix.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture

from mf2.cohomwin import certify_at_point, cohomology_dims
from mf2.gf2k import GF2, default_spec
from mf2.mfcore import (
    GradedMF,
    GradedMorphism,
    HomotopyWitness,
    MFFile,
    Morphism,
    UngradedMF,
    contract_at_noncritical,
    double,
    emit_mf_text,
    forget,
    from_graded,
    jacobian_action_witness,
    parse_mf_text,
    search_factorizations,
    to_graded,
    verify_mf,
)
from mf2.ringmat import RingMatrix, block2, matrix_partial, parse_matrix
from mf2.ringpoly import RingDescriptor, RingPoly, parse_poly

L2 = RingDescriptor(GF2, ("x", "y"), (True, True))
P3 = RingDescriptor(GF2, ("x", "y", "z"), (False, False, False))
P2 = RingDescriptor(GF2, ("x", "y"), (False, False))

RP2_TEXT = "0, 1, 1, x^-1*y^-1; y, 0, x^-1, 1; x, y^-1, 0, 1; 1, x, y, 0"


def an_q(n):
    w = parse_poly(f"x^{2 * n} + y^2 + x*y*z", P3)
    q = parse_matrix(f"x^{n}, y; y + x*z, x^{n}", P3)
    return UngradedMF(w, q)


def an_r(n):
    w = parse_poly(f"x^{2 * n} + y^2", P2)
    q = parse_matrix(f"x^{n}, y; y, x^{n}", P2)
    return UngradedMF(w, q)


def test_verified_construction_and_rejection():
    x = fixture("rp2")
    assert x.size == 4
    bad = parse_matrix(RP2_TEXT.replace("x^-1*y^-1", "x^-1"), L2)
    report = verify_mf(bad, x.w)
    assert not report.ok
    assert report.residual_terms > 0
    with pytest.raises(ValueError, match="not a factorization"):
        UngradedMF(x.w, bad)


def test_a_series_families_verify():
    for n in range(1, 5):
        assert an_q(n).size == 2
        assert an_r(n).size == 2


def test_differential_squares_to_zero():
    x = fixture("rp2")
    rng = random.Random(41)
    for _ in range(20):
        f = Morphism(
            x, x,
            RingMatrix(
                L2, 4, 4,
                [
                    RingPoly(L2, {(rng.randrange(-2, 3), rng.randrange(-2, 3)): 1})
                    for _ in range(16)
                ],
            ),
        )
        assert f.differential().differential().f.is_zero()


def test_potential_mismatch_rejected():
    with pytest.raises(ValueError, match="potential mismatch"):
        Morphism(an_r(1), an_r(2), RingMatrix.identity(P2, 2))


# Every user of a hom complex Hom(X, an_r(1)) over the polynomial ring P2.
HOM_USERS = {
    "Morphism": lambda x, y: Morphism(x, y, RingMatrix.identity(y.ring, 2)),
    "GradedMorphism": lambda x, y: GradedMorphism(
        double(x), double(y), RingMatrix.identity(y.ring, 4)),
    "cohomology_dims": lambda x, y: cohomology_dims(x, y, 1),
    "certify_at_point": lambda x, y: certify_at_point(x, y, (GF2.element(1), GF2.element(1))),
}


@pytest.mark.parametrize("user", sorted(HOM_USERS))
@pytest.mark.parametrize("source, message", [
    # the same matrix and potential over the Laurent ring L2
    (lambda: UngradedMF(parse_poly("x^2 + y^2", L2), parse_matrix("x, y; y, x", L2)),
     "ring mismatch between source and target"),
    (lambda: an_r(2), "potential mismatch: hom-sets need a common potential"),
], ids=["ring", "potential"])
def test_hom_users_state_one_contract(user, source, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HOM_USERS[user](source(), an_r(1))


def test_euler_identity_both_variables():
    """dQ*Q + Q*dQ = dW*Id, the derivative of Q^2 = W*Id: the Jacobian
    action on the identity is exact with witness dQ."""
    for mf, variables in ((fixture("rp2"), ("x", "y")), (an_q(2), ("x", "y", "z"))):
        ident = RingMatrix.identity(mf.ring, mf.size)
        for v in variables:
            wit = jacobian_action_witness(Morphism(mf, mf, ident), v)
            assert wit.g == matrix_partial(mf.q, v)
            assert wit.claim.f == ident.scale(mf.w.partial(v))


def test_jacobian_action_on_identity():
    q = an_q(1)
    ident = Morphism(q, q, RingMatrix.identity(P3, 2))
    wit = jacobian_action_witness(ident, "y")
    # dW/dy = x*z and the witness is dQ/dy = [[0,1],[1,0]]
    assert wit.claim.f == RingMatrix.identity(P3, 2).scale(parse_poly("x*z", P3))
    assert wit.g == parse_matrix("0, 1; 1, 0", P3)


def test_homotopy_witness_rejects_wrong_certificate():
    q = an_q(1)
    ident = Morphism(q, q, RingMatrix.identity(P3, 2))
    claim = Morphism(q, q, RingMatrix.identity(P3, 2).scale(parse_poly("x*z", P3)))
    with pytest.raises(ValueError, match="does not satisfy"):
        HomotopyWitness(claim, RingMatrix.identity(P3, 2))
    with pytest.raises(ValueError, match="morphism shape does not match"):
        HomotopyWitness(claim, RingMatrix.identity(P3, 3))


def test_double_and_forget_shapes():
    x = an_r(1)
    d = double(x)
    assert d.q0 == d.q1 == x.q
    f = forget(d)
    assert f.size == 4
    assert f.w == x.w
    # folding a doubled projective-plane factorization also verifies
    assert forget(double(fixture("rp2"))).size == 8


def test_graded_mf_keeps_its_verified_fold():
    x = an_r(1)
    d = double(x)
    assert forget(d) is d.folded
    z = RingMatrix.zeros(P2, 2, 2)
    assert d.folded == UngradedMF(x.w, block2(z, x.q, x.q, z))
    # (Q, Q) with Q^2 = W*Id for another W is not a factorization of W
    with pytest.raises(ValueError, match="not a graded factorization"):
        GradedMF(parse_poly("x^2", P2), x.q, x.q)
    # Q0 = Id, Q1 = W*Id passes; swapping in Q1 = x*Id breaks Q0*Q1 = W*Id
    ident = RingMatrix.identity(P2, 2)
    assert GradedMF(x.w, ident, ident.scale(x.w)).folded.size == 4
    with pytest.raises(ValueError, match="not a graded factorization"):
        GradedMF(x.w, ident, ident.scale(parse_poly("x", P2)))


def _random_morphism(rng, src, tgt, window=2, maxterms=3):
    n = src.ring.nvars
    def rnd_poly():
        terms = {}
        for _ in range(rng.randrange(0, maxterms + 1)):
            exps = tuple(
                rng.randrange(-window, window + 1) if src.ring.laurent[i] else rng.randrange(0, window + 1)
                for i in range(n)
            )
            terms[exps] = terms.get(exps, 0) ^ 1
        return RingPoly(src.ring, {e: c for e, c in terms.items() if c})
    return Morphism(
        src, tgt,
        RingMatrix(src.ring, tgt.size, src.size,
                   [rnd_poly() for _ in range(tgt.size * src.size)]),
    )


def test_adjunction_round_trip_and_intertwining():
    y = an_r(1)
    x = double(y)
    fx = forget(x)
    rng = random.Random(271828)
    for _ in range(20):
        phi = _random_morphism(rng, fx, y)
        psi = to_graded(phi, x)
        assert from_graded(psi, "target") == phi
        # the fold intertwines differentials on the nose
        assert from_graded(psi.differential(), "target") == phi.differential()
    for _ in range(20):
        phi = _random_morphism(rng, y, fx)
        psi = to_graded(phi, x)
        assert from_graded(psi, "source") == phi
        assert from_graded(psi.differential(), "source") == phi.differential()
    # the doubled end to fold onto is always named
    with pytest.raises(ValueError, match="folded must be"):
        from_graded(psi, "auto")


def test_adjunction_preserves_closedness():
    y = an_r(1)
    x = double(y)
    fx = forget(x)
    # the fold morphism (Id, Id) is closed: check via a closed unfold
    ident = Morphism(y, y, RingMatrix.identity(P2, 2))
    rng = random.Random(5)
    for _ in range(10):
        g = _random_morphism(rng, fx, y)
        closed = g.differential()  # exact, hence closed
        psi = to_graded(closed, x)
        folded = from_graded(psi, "target")
        assert folded.is_closed()
    assert ident.is_closed()


def test_contract_at_noncritical_point():
    x = fixture("rp2")
    gf4 = default_spec(2)
    pt = (gf4.element(1), gf4.element(2))
    dw = x.w.partial("x").evaluate(pt)
    assert dw.value == 2  # 1 + t^2 = t
    contraction = contract_at_noncritical(x, pt, "x")
    assert contraction.q.rows == 4
    with pytest.raises(ValueError, match="critical direction"):
        # (t, t) is a critical point: both partials vanish
        contract_at_noncritical(x, (gf4.element(2), gf4.element(2)), "x")


def test_search_size_one_exact():
    w = parse_poly("x^2 + y^2", P2)
    found = search_factorizations(w, 1, [(1, 0), (0, 1)])
    assert len(found) == 1
    assert found[0] == parse_matrix("x + y", P2)


def test_search_size_two_contains_swap():
    w = parse_poly("x^2 + y^2", P2)
    found = search_factorizations(w, 2, [(1, 0), (0, 1)])
    assert parse_matrix("x, y; y, x", P2) in found
    wid = RingMatrix.identity(P2, 2).scale(w)
    for q in found:
        assert q * q == wid
    # deterministic order on a rerun
    assert found == search_factorizations(w, 2, [(1, 0), (0, 1)])


def test_search_budget_guard():
    w = parse_poly("x^2 + y^2", P2)
    with pytest.raises(ValueError, match="needs 8 bits"):
        search_factorizations(w, 2, [(1, 0), (0, 1)], budget_bits=4)


def test_search_rejects_support_outside_the_exponent_bound():
    w = parse_poly("x^2 + y^2", P2)
    for support in ([(2 ** 30, 0)], [(1, 0), (0, 2 ** 31)]):
        with pytest.raises(ValueError, match="outside"):
            search_factorizations(w, 1, support)


@st.composite
def mf_contents(draw):
    """A ring over GF(2^k), k <= 4, with 1-3 variables and random Laurent
    flags, a potential and a square matrix of up to 3x3 (not necessarily a
    factorization: the file format does not require one)."""
    spec = default_spec(draw(st.integers(1, 4)))
    n = draw(st.integers(1, 3))
    laurent = tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ring = RingDescriptor(spec, ("x", "y", "z")[:n], laurent)
    exps = st.tuples(*(st.integers(-3 if flag else 0, 3) for flag in laurent))
    polys = st.dictionaries(exps, st.integers(1, spec.order - 1), max_size=4).map(
        lambda terms: RingPoly(ring, terms)
    )
    size = draw(st.integers(1, 3))
    entries = draw(st.lists(polys, min_size=size * size, max_size=size * size))
    return draw(polys), RingMatrix(ring, size, size, entries)


@settings(max_examples=60)
@given(mf_contents())
def test_mf_text_parse_inverts_emit(content):
    w, q = content
    text = emit_mf_text(w, q)
    parsed = parse_mf_text(text)
    assert parsed == MFFile(q.ring, w, q)
    assert emit_mf_text(parsed.w, parsed.q) == text
