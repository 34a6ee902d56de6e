"""Property test of the rp2 reduction against window linear algebra, and
the reduction's printed output pinned byte for byte.

reduce_endomorphism rewrites a closed f as alpha*Id + delta(g) by explicit
block formulas; solve_exactness decides exactness by elimination over a
monomial window.  On the window spanned by the returned witness g, the
elimination must find a witness for f + alpha*Id, and when alpha is nonzero
it must find none for f itself: a nonzero canonical alpha is nonzero in the
Jacobian ring, so alpha*Id is not exact on any window.

The reduction no longer re-checks the Jacobian fold it uses; the fold's
identity target = alpha + c1*dW/dx + c2*dW/dy is a property test here.
Nor does it check its input's closedness unless it fails, since its witness
implies it: a property test pins that the "closed" error is raised exactly
for the inputs with a nonzero commutator.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mf2.cohomwin import Window, solve_exactness
from mf2.gf2k import default_spec
from mf2.mfcore import HomotopyWitness, Morphism
from mf2.paperlab import Rp2Context, random_matrix
from mf2.ringmat import RingMatrix, commutator
from mf2.ringpoly import RingPoly

CONTEXTS = {k: Rp2Context(default_spec(k)) for k in (1, 2)}
PROPERTY = settings(max_examples=20)


@st.composite
def closed_endomorphisms(draw):
    """(context, canonical alpha, f = alpha*Id + delta(g)) with a small random g."""
    ctx = CONTEXTS[draw(st.sampled_from((1, 2)))]
    coeffs = draw(st.lists(st.integers(0, ctx.spec.order - 1), min_size=3, max_size=3))
    alpha = RingPoly(ctx.ring, {(e, 0): c for e, c in enumerate(coeffs)})
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = random_matrix(ctx.ring, rng, 4, 4, span=draw(st.integers(1, 2)), max_terms=2)
    return ctx, alpha, ctx._identity4().scale(alpha) + commutator(ctx.q, g)


@PROPERTY
@given(closed_endomorphisms())
def test_reduction_witness_agrees_with_window_elimination(sample):
    ctx, alpha, f = sample
    result = ctx.reduce_endomorphism(f)
    assert result.alpha == alpha
    window = Window(ctx.ring, tuple(result.witness.g.support_hull()))
    shifted = Morphism(ctx.mf, ctx.mf, f + ctx._identity4().scale(result.alpha))
    witness = solve_exactness(shifted, window)
    assert witness is not None
    assert witness.claim.f == shifted.f
    if not result.alpha.is_zero():
        assert solve_exactness(Morphism(ctx.mf, ctx.mf, f), window) is None


@settings(max_examples=60)
@given(st.sampled_from((1, 2)), st.integers(0, 2**32 - 1))
def test_reduction_rejects_exactly_the_non_closed_inputs(k, seed):
    """random_closed plus m*E_ij for a random monomial m whose coefficient
    may be 0: reduce_endomorphism raises "closed" exactly when [Q, f] is
    nonzero, and otherwise returns a closed claim whose witness re-verifies."""
    ctx = CONTEXTS[k]
    rng = random.Random(seed)
    _, f = ctx.random_closed(rng)
    i, j = rng.randrange(4), rng.randrange(4)
    exps = (rng.randint(-2, 2), rng.randint(-2, 2))
    m = RingPoly(ctx.ring, {exps: rng.randrange(ctx.spec.order)})
    zero = RingPoly.zero(ctx.ring)
    f = f + RingMatrix.from_rows(
        ctx.ring, [[m if (r, c) == (i, j) else zero for c in range(4)] for r in range(4)])
    if not commutator(ctx.q, f).is_zero():
        with pytest.raises(ValueError, match="closed"):
            ctx.reduce_endomorphism(f)
        return
    result = ctx.reduce_endomorphism(f)
    claim = result.witness.claim
    assert claim.f == f + ctx._identity4().scale(result.alpha)
    assert claim.is_closed()
    assert HomotopyWitness(claim, result.witness.g) == result.witness


@st.composite
def laurent_targets(draw):
    """(context, a random Laurent polynomial with exponents in [-6, 6])."""
    ctx = CONTEXTS[draw(st.sampled_from((1, 2)))]
    exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    terms = draw(st.dictionaries(exps, st.integers(1, ctx.spec.order - 1), max_size=6))
    return ctx, RingPoly(ctx.ring, terms)


@settings(max_examples=100)
@given(laurent_targets())
def test_fold_splits_a_target_into_alpha_and_cofactors(sample):
    ctx, target = sample
    alpha, c1, c2 = ctx._fold(target)
    assert target == alpha + c1 * ctx.dwdx + c2 * ctx.dwdy
    assert set(alpha.terms) <= {(0, 0), (1, 0), (2, 0)}
    again, d1, d2 = ctx._fold(alpha)
    assert again == alpha
    assert d1.is_zero() and d2.is_zero()


# sha256 of the printed alpha and witness g of 20 random_closed reductions,
# recorded before exponent vectors were packed into ints; any change to the
# term order, the witnesses or the printer changes them.
WITNESS_DIGESTS = {
    1: "01068bcafc20abcf3acfa9062df1c4404a5692959e4c9120728c9523e06d59fd",
    2: "5df31aae71a45bf82af91a1be35e483da9f94ed3257b8b82e6c2e9564a886215",
}


def test_reduction_witnesses_are_byte_identical():
    for k, want in WITNESS_DIGESTS.items():
        ctx = CONTEXTS[k]
        rng = random.Random(1000 + k)
        lines = []
        for _ in range(20):
            alpha, f = ctx.random_closed(rng)
            result = ctx.reduce_endomorphism(f)
            assert result.alpha == alpha
            lines += [str(result.alpha), str(result.witness.g)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == want, k
