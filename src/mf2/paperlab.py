"""Certification lab for the projective-plane and A-series factorizations.

The central object is the 4x4 factorization Q of w = x + y + 1/(xy) over a
GF(2^k) coefficient field, assembled from 2x2 blocks U and V.  A small
trace calculus (tr/at) makes the commutator differential [U, -] explicitly
acyclic, and that drives two constructive pipelines:

  * reduce_endomorphism: any closed endomorphism f is rewritten as
    alpha*Id + delta(g) with alpha canonical in span{1, x, x^2} and g an
    explicit, re-verified homotopy witness;
  * obstruction_decomposition: whenever delta(f) = alpha*Id, the scalar
    alpha is split into Jacobian cofactors c1*dW/dx + c2*dW/dy.

Together with the Groebner quotient (dimension 3, minimal polynomial
x^3 + 1) these certify that alpha -> alpha*Id is an isomorphism from the
Jacobian ring onto the cohomology endomorphism ring.  Every intermediate
identity is re-checked symbolically; a returned result is a certificate,
and any drift raises instead of propagating.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .gf2k import FieldSpec, default_spec
from .ringpoly import RingDescriptor, RingPoly, exact_divide, parse_poly
from .ringmat import (
    FieldMatrix,
    RingMatrix,
    block2,
    blocks_of,
    commutator,
    matrix_partial,
    parse_matrix,
    rank,
)
from .mfcore import (
    HomotopyWitness,
    Morphism,
    UngradedMF,
    jacobian_action_witness,
    verify_mf,
)
from .groebner import laurent_jacobian_ideal, minimal_polynomial, quotient_ring
from .cohomwin import certify_at_point, cohomology_dims, find_critical_points

__all__ = [
    "RP2_MATRIX_TEXT",
    "ALPHA_MATRIX_TEXT",
    "ALPHA_HOMOTOPY_TEXT",
    "Check",
    "Report",
    "ClosedDecomposition",
    "ReductionResult",
    "Rp2Context",
    "tr",
    "at",
    "delta_u",
    "delta_u_preimage",
    "v_twist_check",
    "random_poly",
    "random_matrix",
    "closed_open_certify",
    "an_corpus",
    "run_suite",
]


RP2_MATRIX_TEXT = "0, 1, 1, x^-1*y^-1; y, 0, x^-1, 1; x, y^-1, 0, 1; 1, x, y, 0"
ALPHA_MATRIX_TEXT = "0, 0, 0, x^-1*y^-1; 0, 0, x^-1, 0; 0, y^-1, 0, 0; 1, 0, 0, 0"
ALPHA_HOMOTOPY_TEXT = "0, 0, 0, 0; x^-1, 0, 0, 0; 0, 0, 0, x^-1*y^-1; 0, 0, 0, 0"


# -- check/report plumbing ---------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One certified fact: an id, a verdict, and a short detail string."""

    check_id: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} {self.check_id} {self.detail}".rstrip()


@dataclass(frozen=True)
class Report:
    """A batch of checks plus the seed that drove any randomized ones."""

    checks: tuple[Check, ...]
    seed: Optional[int] = None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    def summary(self) -> str:
        text = f"{self.passed_count}/{len(self.checks)} checks passed"
        if self.seed is not None:
            text += f" (seed {self.seed})"
        return text

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks] + [self.summary()]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _run_check(check_id: str, fn: Callable[[], str]) -> Check:
    """Run fn; it returns a detail string or raises with the failed identity."""
    try:
        detail = fn()
    except Exception as exc:
        return Check(check_id, False, str(exc))
    return Check(check_id, True, detail)


# -- the 2x2 trace calculus --------------------------------------------------


def _require_2x2(f: RingMatrix) -> None:
    if f.rows != 2 or f.cols != 2:
        raise ValueError("trace calculus needs a 2x2 matrix")


def tr(f: RingMatrix) -> RingPoly:
    """Diagonal sum f11 + f22."""
    _require_2x2(f)
    return f.at(0, 0) + f.at(1, 1)


def at(f: RingMatrix) -> RingPoly:
    """Antidiagonal combination y*f12 + f21."""
    _require_2x2(f)
    y = RingPoly.variable(f.ring, "y")
    return y * f.at(0, 1) + f.at(1, 0)


def delta_u(f: RingMatrix) -> RingMatrix:
    """[U, f] in closed form: [[at, tr], [y*tr, at]]."""
    _require_2x2(f)
    a, t = at(f), tr(f)
    y = RingPoly.variable(f.ring, "y")
    return RingMatrix.from_rows(f.ring, [[a, t], [y * t, a]])


def delta_u_preimage(x: RingMatrix) -> Optional[RingMatrix]:
    """A matrix f with [U, f] = x, or None when x lacks the image shape.

    The image of [U, -] is exactly the set [[s, t], [y*t, s]], and
    [[0, 0], [s, t]] is one preimage (at = s, tr = t)."""
    _require_2x2(x)
    ring = x.ring
    y = RingPoly.variable(ring, "y")
    s, t = x.at(0, 0), x.at(0, 1)
    if x.at(1, 1) != s or x.at(1, 0) != y * t:
        return None
    zero = RingPoly.zero(ring)
    return RingMatrix.from_rows(ring, [[zero, zero], [s, t]])


def _u_matrix(ring: RingDescriptor) -> RingMatrix:
    return parse_matrix("0, 1; y, 0", ring)


def _v_matrix(ring: RingDescriptor) -> RingMatrix:
    xyinv = RingPoly.monomial(ring, (-1, -1))
    return RingMatrix.identity(ring, 2) + _u_matrix(ring).scale(xyinv)


def v_twist_check(f: RingMatrix) -> Report:
    """tr and at of V*f and f*V against their tr(f), at(f) expressions."""
    _require_2x2(f)
    ring = f.ring
    v = _v_matrix(ring)
    xinv = RingPoly.variable(ring, "x", -1)
    xyinv = RingPoly.monomial(ring, (-1, -1))
    want_tr = tr(f) + xyinv * at(f)
    want_at = at(f) + xinv * tr(f)
    facts = (
        ("tr_left", tr(v * f) == want_tr),
        ("tr_right", tr(f * v) == want_tr),
        ("at_left", at(v * f) == want_at),
        ("at_right", at(f * v) == want_at),
    )
    return Report(tuple(Check(cid, ok) for cid, ok in facts))


# -- randomized inputs ---------------------------------------------------------


def random_poly(ring: RingDescriptor, rng: random.Random, span: int = 2,
                max_terms: int = 3) -> RingPoly:
    """Sparse random polynomial with exponents in [-span, span] per Laurent
    variable ([0, span] otherwise) and nonzero random coefficients."""
    terms: dict[tuple[int, ...], int] = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(
            rng.randint(-span if flag else 0, span) for flag in ring.laurent
        )
        terms[exps] = rng.randrange(1, ring.field.order)
    return RingPoly(ring, terms)


def random_matrix(ring: RingDescriptor, rng: random.Random, rows: int, cols: int,
                  span: int = 2, max_terms: int = 3) -> RingMatrix:
    """Matrix of random_poly entries."""
    return RingMatrix(
        ring, rows, cols,
        [random_poly(ring, rng, span, max_terms) for _ in range(rows * cols)],
    )


# -- decomposition and reduction results ----------------------------------------


@dataclass(frozen=True)
class ClosedDecomposition:
    """Blocks of a closed endomorphism f = [[a, b], [c, d]] together with the
    commutator preimages: d = a + [U, t] and c = x*b + [U, s]."""

    a: RingMatrix
    b: RingMatrix
    s: RingMatrix
    t: RingMatrix

    @property
    def c(self) -> RingMatrix:
        x = RingPoly.variable(self.a.ring, "x")
        return self.b.scale(x) + delta_u(self.s)

    @property
    def d(self) -> RingMatrix:
        return self.a + delta_u(self.t)

    def reassembled(self) -> RingMatrix:
        return block2(self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ReductionResult:
    """Canonical scalar alpha in span{1, x, x^2} plus the verified witness g
    with delta(g) = f + alpha*Id."""

    alpha: RingPoly
    witness: HomotopyWitness


# -- the projective-plane context ------------------------------------------------


class Rp2Context:
    """The 4x4 factorization of w = x + y + 1/(xy) over GF(2^k), its block
    calculus, and a verified Jacobian quotient.

    Construction assembles Q = [[U, V], [x*V, U]], re-checks the block
    identities (U^2 = y*Id, V^2 = dW/dx*Id, UV = VU = x^-1*Id + U), checks
    the alpha-matrix homotopy [Q, M] = F + x^-1*Id, builds the Jacobian
    quotient (dimension 3), and validates the exponent-folding rule
    x^a*y^b -> x^((a+b) mod 3) against the quotient on random monomials.
    Instances are immutable after construction and all methods are pure."""

    __slots__ = (
        "spec", "ring", "w", "u", "v", "mf", "q",
        "dwdx", "dwdy", "dqdx", "dqdy",
        "f_alpha", "alpha_homotopy", "jacobian",
    )

    def __init__(self, spec: Optional[FieldSpec] = None,
                 validate_samples: int = 50, seed: int = 1905):
        spec = spec if spec is not None else default_spec(1)
        ring = RingDescriptor(spec, ("x", "y"), (True, True))
        x = RingPoly.variable(ring, "x")
        y = RingPoly.variable(ring, "y")
        xinv = RingPoly.variable(ring, "x", -1)
        w = parse_poly("x + y + x^-1*y^-1", ring)
        u = _u_matrix(ring)
        v = _v_matrix(ring)
        q = block2(u, v, v.scale(x), u)
        if q != parse_matrix(RP2_MATRIX_TEXT, ring):
            raise ValueError("block assembly does not match the canonical matrix")
        mf = UngradedMF(w, q)
        dwdx = w.partial("x")
        dwdy = w.partial("y")
        id2 = RingMatrix.identity(ring, 2)
        identities = (
            ("U^2 = y*Id", u * u == id2.scale(y)),
            ("V^2 = dW/dx*Id", v * v == id2.scale(dwdx)),
            ("UV = x^-1*Id + U", u * v == id2.scale(xinv) + u),
            ("VU = x^-1*Id + U", v * u == id2.scale(xinv) + u),
        )
        for label, ok in identities:
            if not ok:
                raise ValueError(f"block identity failed: {label}")
        f_alpha = parse_matrix(ALPHA_MATRIX_TEXT, ring)
        alpha_homotopy = parse_matrix(ALPHA_HOMOTOPY_TEXT, ring)
        id4 = RingMatrix.identity(ring, 4)
        if commutator(q, alpha_homotopy) != f_alpha + id4.scale(xinv):
            raise ValueError("alpha-matrix homotopy identity failed")
        jacobian = quotient_ring(laurent_jacobian_ideal(w))
        if jacobian.dimension != 3:
            raise ValueError("jacobian quotient dimension is not 3")
        rng = random.Random(seed)
        for _ in range(validate_samples):
            exps = (rng.randint(-6, 6), rng.randint(-6, 6))
            folded = RingPoly.monomial(jacobian.ring, ((exps[0] + exps[1]) % 3, 0))
            if jacobian.laurent_monomial_class(exps) != jacobian.class_vector(folded):
                raise ValueError(
                    f"exponent folding disagrees with the quotient at x^{exps[0]}*y^{exps[1]}"
                )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "mf", mf)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dwdx", dwdx)
        object.__setattr__(self, "dwdy", dwdy)
        object.__setattr__(self, "dqdx", matrix_partial(q, "x"))
        object.__setattr__(self, "dqdy", matrix_partial(q, "y"))
        object.__setattr__(self, "f_alpha", f_alpha)
        object.__setattr__(self, "alpha_homotopy", alpha_homotopy)
        object.__setattr__(self, "jacobian", jacobian)

    def __setattr__(self, name, value):
        raise AttributeError("Rp2Context is immutable")

    # -- small helpers ------------------------------------------------------

    def _coerce(self, f: Union[Morphism, RingMatrix]) -> RingMatrix:
        if isinstance(f, Morphism):
            if f.source != self.mf or f.target != self.mf:
                raise ValueError("morphism is not an endomorphism of this factorization")
            f = f.f
        if not isinstance(f, RingMatrix):
            raise TypeError("expected a RingMatrix or Morphism")
        if f.ring != self.ring or f.rows != 4 or f.cols != 4:
            raise ValueError("endomorphisms here are 4x4 over the context ring")
        return f

    def _delta(self, g: RingMatrix) -> RingMatrix:
        return self.q * g + g * self.q

    def _identity4(self) -> RingMatrix:
        return RingMatrix.identity(self.ring, 4)

    # -- canonical scalars ---------------------------------------------------

    def normal_form_alpha(self, alpha: RingPoly) -> RingPoly:
        """Canonical representative of alpha in span{1, x, x^2}: each
        monomial x^a*y^b collapses to x^((a+b) mod 3).  The rule is the
        quotient map for the relations y = x and x^3 = 1, validated against
        the Groebner quotient at construction time."""
        if alpha.ring != self.ring:
            raise ValueError("alpha is not in the context ring")
        out = RingPoly.zero(self.ring)
        for (a, b), coeff in alpha.terms.items():
            out = out + RingPoly.monomial(self.ring, ((a + b) % 3, 0), coeff)
        return out

    def jacobian_cofactors(self, target: RingPoly) -> tuple[RingPoly, RingPoly]:
        """Explicit c1, c2 with target = c1*dW/dx + c2*dW/dy.

        Stage one rewrites x^a*y^b to x^(a+b) along multiples of
        x + y = x*dW/dx + y*dW/dy; stage two folds exponents mod 3 along
        x^3 + 1 = (x^2*y + x^3)*dW/dx + x^2*y*dW/dy.  The remainder is the
        canonical form of target, which must vanish."""
        if target.ring != self.ring:
            raise ValueError("target is not in the context ring")
        ring = self.ring
        spec = ring.field
        x = RingPoly.variable(ring, "x")
        y = RingPoly.variable(ring, "y")
        c1 = RingPoly.zero(ring)
        c2 = RingPoly.zero(ring)
        powers: dict[int, int] = {}
        for (a, b), coeff in target.terms.items():
            if b:
                # y^b + x^b = (x + y) * h with h explicit for either sign of b
                if b > 0:
                    h_terms = {(b - 1 - i, i): coeff for i in range(b)}
                else:
                    h_terms = {(-1 - i, b + i): coeff for i in range(-b)}
                k = RingPoly.monomial(ring, (a, 0)) * RingPoly(ring, h_terms)
                c1 = c1 + x * k
                c2 = c2 + y * k
            n = a + b
            powers[n] = spec.add(powers.get(n, 0), coeff)
        remainder: dict[int, int] = {}
        cof1 = parse_poly("x^2*y + x^3", ring)
        cof2 = parse_poly("x^2*y", ring)
        for n, coeff in powers.items():
            if not coeff:
                continue
            r = n % 3
            steps = (n - r) // 3
            if steps:
                # x^n + x^r = (x^3 + 1) * l, telescoping in steps of three
                if steps > 0:
                    l_terms = {(r + 3 * i, 0): coeff for i in range(steps)}
                else:
                    l_terms = {(n + 3 * i, 0): coeff for i in range(-steps)}
                l = RingPoly(ring, l_terms)
                c1 = c1 + cof1 * l
                c2 = c2 + cof2 * l
            remainder[r] = spec.add(remainder.get(r, 0), coeff)
        if any(remainder.values()):
            raise ValueError("target is not in the Jacobian ideal")
        if c1 * self.dwdx + c2 * self.dwdy != target:
            raise ValueError("cofactor identity failed")
        return c1, c2

    # -- decomposition --------------------------------------------------------

    def decompose_closed(self, f: Union[Morphism, RingMatrix]) -> ClosedDecomposition:
        """Split a closed endomorphism into blocks [[a, b], [c, d]] with
        d = a + [U, t] and c = x*b + [U, s], re-verifying the four tr/at
        constraints that closedness imposes on (a, b, s, t)."""
        mat = self._coerce(f)
        if not self._delta(mat).is_zero():
            raise ValueError("decomposition needs a closed endomorphism")
        a, b, c, d = blocks_of(mat)
        x = RingPoly.variable(self.ring, "x")
        xinv = RingPoly.variable(self.ring, "x", -1)
        yinv = RingPoly.variable(self.ring, "y", -1)
        xyinv = RingPoly.monomial(self.ring, (-1, -1))
        t = delta_u_preimage(d + a)
        s = delta_u_preimage(c + b.scale(x))
        if t is None or s is None:
            raise ValueError("internal consistency: commutator blocks have no preimage")
        lhs_s = a + b.scale(yinv)
        lhs_t = b + a.scale(xyinv)
        constraints = (
            at(lhs_s) == at(s) + xinv * tr(s),
            tr(lhs_s) == tr(s) + xyinv * at(s),
            at(lhs_t) == at(t) + xinv * tr(t),
            tr(lhs_t) == tr(t) + xyinv * at(t),
        )
        if not all(constraints):
            raise ValueError("internal consistency: closure constraints failed")
        dec = ClosedDecomposition(a, b, s, t)
        if dec.reassembled() != mat:
            raise ValueError("internal consistency: reassembly mismatch")
        return dec

    # -- reduction to a canonical scalar ---------------------------------------

    def reduce_endomorphism(self, f: Union[Morphism, RingMatrix]) -> ReductionResult:
        """Rewrite a closed endomorphism as alpha*Id + delta(g) with alpha
        canonical in span{1, x, x^2}.

        The pipeline subtracts three explicit coboundaries (clearing the
        off-diagonal blocks, then the off-diagonal entries of the diagonal
        blocks), reads off the scalar, and absorbs its non-canonical part
        into the Jacobian cofactors.  Every stage is re-verified; the
        returned witness satisfies delta(g) = f + alpha*Id by construction
        of HomotopyWitness."""
        mat = self._coerce(f)
        dec = self.decompose_closed(mat)
        ring = self.ring
        x = RingPoly.variable(ring, "x")
        y = RingPoly.variable(ring, "y")
        xinv = RingPoly.variable(ring, "x", -1)
        yinv = RingPoly.variable(ring, "y", -1)
        xyinv = RingPoly.monomial(ring, (-1, -1))
        xyyinv = RingPoly.monomial(ring, (-1, -2))
        zero = RingPoly.zero(ring)
        zeros2 = RingMatrix.zeros(ring, 2, 2)

        # stage one: a coboundary whose off-diagonal blocks are exactly (b, x*b)
        b = dec.b
        b1, b2 = b.at(0, 0), b.at(0, 1)
        b4 = b.at(1, 1)
        p = exact_divide(at(b) + xinv * tr(b), self.dwdx)
        if p is None:
            raise ValueError("internal consistency: off-diagonal divisibility failed")
        a_fix = RingMatrix.from_rows(ring, [[zero, zero], [y * b2, b4 + xyinv * p]])
        b_fix = RingMatrix.from_rows(ring, [[zero, zero], [xyinv * p, zero]])
        c_fix = RingMatrix.from_rows(
            ring, [[yinv * b1 + yinv * b4 + xyyinv * p, zero], [zero, zero]]
        )
        d_fix = RingMatrix.from_rows(ring, [[b1, b2], [p, zero]])
        g1 = block2(a_fix, b_fix, c_fix, d_fix)
        d1 = self._delta(g1)
        _, d1b, d1c, _ = blocks_of(d1)
        if d1b != b or d1c != b.scale(x):
            raise ValueError("internal consistency: correction stage missed the off-diagonal blocks")

        # stage two: clear the remaining [U, s] in the lower-left block
        g2 = block2(zeros2, zeros2, dec.s, zeros2)
        f2 = mat + d1 + self._delta(g2)
        a2, b2blk, c2blk, d2 = blocks_of(f2)
        if not b2blk.is_zero() or not c2blk.is_zero():
            raise ValueError("internal consistency: off-diagonal blocks survive")
        if a2 != d2:
            raise ValueError("internal consistency: diagonal blocks differ")
        if tr(a2) != zero or at(a2) != zero:
            raise ValueError("internal consistency: diagonal block does not commute with U")

        # stage three: kill the off-diagonal entries of the diagonal block
        top = a2.at(0, 0)
        off = a2.at(0, 1)
        c3 = RingMatrix.from_rows(ring, [[zero, off], [y * off, zero]])
        g3 = block2(zeros2, zeros2, c3, zeros2)
        f3 = f2 + self._delta(g3)
        alpha0 = top + xinv * off
        if f3 != self._identity4().scale(alpha0):
            raise ValueError("internal consistency: scalar stage failed")

        # stage four: canonicalize the scalar through the Jacobian cofactors
        alpha = self.normal_form_alpha(alpha0)
        cof1, cof2 = self.jacobian_cofactors(alpha0 + alpha)
        g4 = self.dqdx.scale(cof1) + self.dqdy.scale(cof2)
        g = g1 + g2 + g3 + g4
        claim = Morphism(self.mf, self.mf, mat + self._identity4().scale(alpha))
        return ReductionResult(alpha, HomotopyWitness(claim, g))

    # -- the exactness obstruction ----------------------------------------------

    def obstruction_decomposition(self, f: Union[Morphism, RingMatrix],
                                  alpha: RingPoly) -> tuple[RingPoly, RingPoly]:
        """Given delta(f) = alpha*Id, return c1, c2 with
        alpha = c1*dW/dx + c2*dW/dy, read off the tr/at data of f's blocks.

        This is the constructive converse of exactness for scalars: the
        scalar of any coboundary lies in the Jacobian ideal, with explicit
        cofactors."""
        mat = self._coerce(f)
        if alpha.ring != self.ring:
            raise ValueError("alpha is not in the context ring")
        if self._delta(mat) != self._identity4().scale(alpha):
            raise ValueError("obstruction needs delta(f) = alpha*Id")
        a, b, c, d = blocks_of(mat)
        x = RingPoly.variable(self.ring, "x")
        xinv = RingPoly.variable(self.ring, "x", -1)
        xy = RingPoly.monomial(self.ring, (1, 1))
        xyinv = RingPoly.monomial(self.ring, (-1, -1))
        t = delta_u_preimage(d + a)
        s = delta_u_preimage(c + b.scale(x))
        if t is None or s is None:
            raise ValueError("internal consistency: commutator blocks have no preimage")
        c1 = xy * (at(t) + xyinv * at(s))
        c2 = xy * (at(b) + xinv * tr(b))
        if c1 * self.dwdx + c2 * self.dwdy != alpha:
            raise ValueError("cofactor identity failed")
        return c1, c2


# -- aggregate certification ---------------------------------------------------------


def closed_open_certify(spec: Optional[FieldSpec] = None, seed: int = 2718,
                        samples: int = 10) -> Report:
    """Certify that alpha -> alpha*Id is an isomorphism from the Jacobian
    quotient onto the cohomology endomorphism ring.

    Checks: the map is well defined (Jacobian multiples of Id are exact with
    explicit witnesses), surjective (random closed endomorphisms reduce to
    canonical scalars), injective (the classes Id, x*Id, x^2*Id separate at
    the three critical points, and exact scalars decompose into the ideal),
    of the right dimension, and consistent with the stable window
    dimensions.  Defaults to GF(4), where all critical points are rational."""
    spec = spec if spec is not None else default_spec(2)
    ctx = Rp2Context(spec)
    rng = random.Random(seed)
    identity = ctx._identity4()
    x = RingPoly.variable(ctx.ring, "x")
    checks: list[Check] = []

    def run(check_id: str, fn: Callable[[], str]) -> None:
        checks.append(_run_check(check_id, fn))

    def co_dimension() -> str:
        dim = ctx.jacobian.dimension
        if dim != 3:
            raise ValueError(f"jacobian dimension {dim}")
        minpoly = minimal_polynomial(ctx.jacobian.mult_matrices[0])
        if str(minpoly) != "x^3 + 1":
            raise ValueError(f"multiplication minimal polynomial {minpoly}")
        return "jacobian dimension 3, minimal polynomial x^3 + 1"

    def co_well_defined() -> str:
        for var in ("x", "y"):
            jacobian_action_witness(Morphism(ctx.mf, ctx.mf, identity), var)
        return "dW/dx*Id and dW/dy*Id exact with verified witnesses"

    def co_surjective() -> str:
        for _ in range(samples):
            alpha = RingPoly(
                ctx.ring,
                {(e, 0): rng.randrange(0, spec.order) for e in range(3)},
            )
            g = random_matrix(ctx.ring, rng, 4, 4)
            f = identity.scale(alpha) + ctx._delta(g)
            result = ctx.reduce_endomorphism(f)
            if result.alpha != alpha:
                raise ValueError(f"reduced {result.alpha}, expected {alpha}")
        return f"{samples} random closed endomorphisms reduced to their scalars"

    def co_injective_points() -> str:
        points = find_critical_points(ctx.w, spec)
        if len(points) != 3:
            raise ValueError(f"{len(points)} critical points, expected 3")
        classes = [
            identity.scale(RingPoly.variable(ctx.ring, "x", e)) for e in range(3)
        ]
        rows: list[list[int]] = [[], [], []]
        for point in points:
            report = certify_at_point(ctx.mf, ctx.mf, point, classes)
            if report.is_exact(0):
                raise ValueError("identity class is exact at a critical point")
            for i in range(3):
                rows[i].extend(report.class_coordinates[i])
        mat = FieldMatrix(spec, 3, len(rows[0]), [v for row in rows for v in row])
        r = rank(mat)
        if r != 3:
            raise ValueError(f"evaluation matrix rank {r}, expected 3")
        return "Id, x*Id, x^2*Id independent across the three critical points"

    def co_injective_ideal() -> str:
        for _ in range(samples):
            c1 = random_poly(ctx.ring, rng, span=1, max_terms=2)
            c2 = random_poly(ctx.ring, rng, span=1, max_terms=2)
            f = ctx.dqdx.scale(c1) + ctx.dqdy.scale(c2)
            alpha = c1 * ctx.dwdx + c2 * ctx.dwdy
            ctx.obstruction_decomposition(f, alpha)
        return f"{samples} exact scalars decomposed into Jacobian cofactors"

    def co_window_dims() -> str:
        dims = cohomology_dims(ctx.mf, ctx.mf, 6)
        bad = [d for d in range(2, 7) if dims[d] != 3]
        if bad:
            raise ValueError(f"window dimensions off at {bad}: {dims}")
        return f"h_2..h_6 = {[dims[d] for d in range(2, 7)]}"

    def co_alpha_matrix() -> str:
        xinv = RingPoly.variable(ctx.ring, "x", -1)
        if commutator(ctx.q, ctx.alpha_homotopy) != ctx.f_alpha + identity.scale(xinv):
            raise ValueError("homotopy identity failed")
        result = ctx.reduce_endomorphism(ctx.f_alpha)
        if result.alpha != x * x:
            raise ValueError(f"alpha matrix reduced to {result.alpha}")
        return "[Q, M] = F + x^-1*Id and F reduces to x^2"

    run("co_dimension", co_dimension)
    run("co_well_defined", co_well_defined)
    run("co_surjective", co_surjective)
    run("co_injective_points", co_injective_points)
    run("co_injective_ideal", co_injective_ideal)
    run("co_window_dims", co_window_dims)
    run("co_alpha_matrix", co_alpha_matrix)
    return Report(tuple(checks), seed)


# -- the A-series corpus -------------------------------------------------------------


def an_corpus(n: int, d_max: int = 3, spec: Optional[FieldSpec] = None) -> Report:
    """Verified facts for the A-series pair at index n: the factorization
    Q = [[x^n, y], [y + x*z, x^n]] of x^2n + y^2 + xyz and its scalar-curve
    companion R = [[x^n, y], [y, x^n]] of x^2n + y^2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    spec = spec if spec is not None else default_spec(1)
    ring3 = RingDescriptor(spec, ("x", "y", "z"), (False, False, False))
    ring2 = RingDescriptor(spec, ("x", "y"), (False, False))
    w3 = parse_poly(f"x^{2 * n} + y^2 + x*y*z", ring3)
    w2 = parse_poly(f"x^{2 * n} + y^2", ring2)
    q_mat = parse_matrix(f"x^{n}, y; y + x*z, x^{n}", ring3)
    r_mat = parse_matrix(f"x^{n}, y; y, x^{n}", ring2)
    checks: list[Check] = []

    def run(check_id: str, fn: Callable[[], str]) -> None:
        checks.append(_run_check(check_id, fn))

    def an_q_factorization() -> str:
        report = verify_mf(q_mat, w3)
        if not report.ok:
            raise ValueError(f"{report.residual_terms} residual terms")
        return f"Q(n={n})^2 = (x^{2 * n} + y^2 + x*y*z)*Id"

    def an_r_factorization() -> str:
        report = verify_mf(r_mat, w2)
        if not report.ok:
            raise ValueError(f"{report.residual_terms} residual terms")
        return f"R(n={n})^2 = (x^{2 * n} + y^2)*Id"

    mfq = UngradedMF(w3, q_mat)
    mfr = UngradedMF(w2, r_mat)

    def an_j_involution() -> str:
        j = parse_matrix("0, 1; 1, 0", ring2)
        if not Morphism(mfr, mfr, j).is_closed():
            raise ValueError("J is not closed")
        if j * j != RingMatrix.identity(ring2, 2):
            raise ValueError("J^2 is not the identity")
        return "J closed with J^2 = Id"

    def an_scalars_closed() -> str:
        id2 = RingMatrix.identity(ring3, 2)
        for name in ("x", "z"):
            scalar = RingPoly.variable(ring3, name)
            if not Morphism(mfq, mfq, id2.scale(scalar)).is_closed():
                raise ValueError(f"{name}*Id is not closed")
        return "x*Id and z*Id closed"

    def an_xz_exact() -> str:
        id2 = RingMatrix.identity(ring3, 2)
        witness = jacobian_action_witness(Morphism(mfq, mfq, id2), "y")
        xz = parse_poly("x*z", ring3)
        if witness.claim.f != id2.scale(xz):
            raise ValueError("claim is not xz*Id")
        if witness.g != matrix_partial(q_mat, "y"):
            raise ValueError("witness is not dQ/dy")
        return "xz*Id = delta(dQ/dy), verified"

    def an_jacobian_q() -> str:
        quotient = quotient_ring(laurent_jacobian_ideal(w3))
        names = {str(g) for g in quotient.basis}
        if names != {"x*y", "x*z", "y*z"}:
            raise ValueError(f"ideal generators {sorted(names)}")
        if quotient.dimension is not None:
            raise ValueError(f"dimension {quotient.dimension}, expected infinite")
        return "ideal (xy, xz, yz), infinite quotient"

    def an_jacobian_r() -> str:
        quotient = quotient_ring(laurent_jacobian_ideal(w2))
        if quotient.basis:
            raise ValueError(f"ideal generators {[str(g) for g in quotient.basis]}")
        if quotient.dimension is not None:
            raise ValueError(f"dimension {quotient.dimension}, expected infinite")
        return "zero ideal, infinite quotient"

    def an_window_growth() -> str:
        dims_q = cohomology_dims(mfq, mfq, d_max)
        dims_r = cohomology_dims(mfr, mfr, d_max)
        for dims, label in ((dims_q, "End(Q)"), (dims_r, "End(R)")):
            seq = [dims[d] for d in range(1, d_max + 1)]
            if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError(f"{label} window dimensions not increasing: {seq}")
        return (
            f"End(Q) windows {[dims_q[d] for d in range(1, d_max + 1)]}, "
            f"End(R) windows {[dims_r[d] for d in range(1, d_max + 1)]}"
        )

    run("an_q_factorization", an_q_factorization)
    run("an_r_factorization", an_r_factorization)
    run("an_j_involution", an_j_involution)
    run("an_scalars_closed", an_scalars_closed)
    run("an_xz_exact", an_xz_exact)
    run("an_jacobian_q", an_jacobian_q)
    run("an_jacobian_r", an_jacobian_r)
    run("an_window_growth", an_window_growth)
    return Report(tuple(checks))


# -- the full battery -------------------------------------------------------------------


def run_suite(seed: int = 2024, spec: Optional[FieldSpec] = None,
              samples: int = 100) -> Report:
    """Run the whole certification battery and return one flat report.

    Covers the block identities and trace calculus (randomized), the
    constructive reduction and its ring-map property, the exactness
    obstruction, the Jacobian quotient, the A-series corpus at n = 1, and
    the full isomorphism certification over GF(4)."""
    spec = spec if spec is not None else default_spec(1)
    ctx = Rp2Context(spec)
    rng = random.Random(seed)
    ring = ctx.ring
    identity = ctx._identity4()
    x = RingPoly.variable(ring, "x")
    y = RingPoly.variable(ring, "y")
    xinv = RingPoly.variable(ring, "x", -1)
    yinv = RingPoly.variable(ring, "y", -1)
    one = RingPoly.one(ring)
    zero = RingPoly.zero(ring)
    checks: list[Check] = []

    def run(check_id: str, fn: Callable[[], str]) -> None:
        checks.append(_run_check(check_id, fn))

    def factorization() -> str:
        report = verify_mf(ctx.q, ctx.w)
        if not report.ok:
            raise ValueError(f"{report.residual_terms} residual terms")
        return "Q^2 = (x + y + 1/(xy))*Id, 4x4"

    def block_identities() -> str:
        id2 = RingMatrix.identity(ring, 2)
        facts = (
            ctx.u * ctx.u == id2.scale(y),
            ctx.v * ctx.v == id2.scale(ctx.dwdx),
            ctx.u * ctx.v == id2.scale(xinv) + ctx.u,
            ctx.v * ctx.u == id2.scale(xinv) + ctx.u,
            ctx.q == block2(ctx.u, ctx.v, ctx.v.scale(x), ctx.u),
        )
        if not all(facts):
            raise ValueError("a block identity failed")
        return "U^2, V^2, UV = VU, and the block assembly all verified"

    def delta_formula() -> str:
        for _ in range(50):
            f = random_matrix(ring, rng, 2, 2)
            if commutator(ctx.u, f) != delta_u(f):
                raise ValueError(f"formula fails on {f!r}")
        return "[U, f] = [[at, tr], [y*tr, at]] on 50 random matrices"

    def delta_preimage() -> str:
        for _ in range(50):
            g = random_matrix(ring, rng, 2, 2)
            image = delta_u(g)
            f = delta_u_preimage(image)
            if f is None or delta_u(f) != image:
                raise ValueError("round trip failed")
        bad = RingMatrix.from_rows(ring, [[one, zero], [one, zero]])
        if delta_u_preimage(bad) is not None:
            raise ValueError("preimage accepted a matrix outside the image")
        return "50 random round trips, plus rejection outside the image"

    def v_twist() -> str:
        for _ in range(samples):
            f = random_matrix(ring, rng, 2, 2)
            report = v_twist_check(f)
            if not report.ok:
                raise ValueError(f"twist identities fail on {f!r}")
        return f"tr/at twist identities on {samples} random matrices"

    def central_commutant() -> str:
        for _ in range(samples):
            a = random_poly(ring, rng)
            c = random_poly(ring, rng)
            f = RingMatrix.from_rows(ring, [[a, yinv * c], [c, a]])
            if tr(ctx.v * f) != zero or at(ctx.v * f) != zero:
                raise ValueError("constructed matrix misses the vanishing conditions")
            if not commutator(ctx.u, f).is_zero():
                raise ValueError("vanishing tr/at does not force [U, f] = 0")
        return f"tr(Vf) = at(Vf) = 0 forces [U, f] = 0 on {samples} samples"

    def alpha_rule() -> str:
        for _ in range(50):
            exps = (rng.randint(-6, 6), rng.randint(-6, 6))
            folded = RingPoly.monomial(
                ctx.jacobian.ring, ((exps[0] + exps[1]) % 3, 0)
            )
            if ctx.jacobian.laurent_monomial_class(exps) != ctx.jacobian.class_vector(folded):
                raise ValueError(f"folding disagrees at {exps}")
        return "x^a*y^b -> x^((a+b) mod 3) matches the quotient on 50 monomials"

    def alpha_matrix_homotopy() -> str:
        if commutator(ctx.q, ctx.alpha_homotopy) != ctx.f_alpha + identity.scale(xinv):
            raise ValueError("homotopy identity failed")
        return "[Q, M] = F + x^-1*Id"

    def reduce_identity() -> str:
        result = ctx.reduce_endomorphism(identity)
        if result.alpha != one:
            raise ValueError(f"identity reduced to {result.alpha}")
        if not result.witness.g.is_zero():
            raise ValueError("identity needed a nonzero witness")
        return "Id reduces to 1 with zero witness"

    def reduce_alpha_matrix() -> str:
        result = ctx.reduce_endomorphism(ctx.f_alpha)
        if result.alpha != x * x:
            raise ValueError(f"alpha matrix reduced to {result.alpha}")
        return "the alpha matrix reduces to x^2"

    def reduce_alpha_cubed() -> str:
        cubed = ctx.f_alpha * ctx.f_alpha * ctx.f_alpha
        result = ctx.reduce_endomorphism(cubed)
        if result.alpha != one:
            raise ValueError(f"cube reduced to {result.alpha}")
        return "the cubed alpha matrix reduces to 1"

    def reduce_retraction() -> str:
        for _ in range(10):
            alpha = RingPoly(
                ring, {(e, 0): rng.randrange(0, spec.order) for e in range(3)}
            )
            result = ctx.reduce_endomorphism(identity.scale(alpha))
            if result.alpha != alpha:
                raise ValueError(f"canonical {alpha} reduced to {result.alpha}")
            if not result.witness.g.is_zero():
                raise ValueError("canonical scalar needed a nonzero witness")
        return "canonical scalars are fixed with zero witnesses, 10 samples"

    def reduce_random() -> str:
        for _ in range(samples):
            alpha = RingPoly(
                ring, {(e, 0): rng.randrange(0, spec.order) for e in range(3)}
            )
            g = random_matrix(ring, rng, 4, 4)
            f = identity.scale(alpha) + ctx._delta(g)
            result = ctx.reduce_endomorphism(f)
            if result.alpha != alpha:
                raise ValueError(f"reduced {result.alpha}, expected {alpha}")
        return f"alpha*Id + delta(g) reduces back to alpha, {samples} samples"

    def reduce_ring_map() -> str:
        for _ in range(10):
            parts = []
            for _ in range(2):
                alpha = RingPoly(
                    ring, {(e, 0): rng.randrange(0, spec.order) for e in range(3)}
                )
                g = random_matrix(ring, rng, 4, 4, span=1, max_terms=2)
                parts.append((alpha, identity.scale(alpha) + ctx._delta(g)))
            (alpha_f, f), (alpha_h, h) = parts
            product = ctx.reduce_endomorphism(f * h)
            if product.alpha != ctx.normal_form_alpha(alpha_f * alpha_h):
                raise ValueError("composition does not reduce to the product")
        return "reduce(f*h) = fold(reduce(f)*reduce(h)) on 10 random pairs"

    def obstruction_partials() -> str:
        c1, c2 = ctx.obstruction_decomposition(ctx.dqdx, ctx.dwdx)
        if (c1, c2) != (one, zero):
            raise ValueError(f"dQ/dx decomposed as ({c1}, {c2})")
        c1, c2 = ctx.obstruction_decomposition(ctx.dqdy, ctx.dwdy)
        if (c1, c2) != (zero, one):
            raise ValueError(f"dQ/dy decomposed as ({c1}, {c2})")
        zero4 = RingMatrix.zeros(ring, 4, 4)
        if ctx.obstruction_decomposition(zero4, zero) != (zero, zero):
            raise ValueError("zero map decomposed nontrivially")
        return "dQ/dx -> (1, 0), dQ/dy -> (0, 1), 0 -> (0, 0)"

    def jacobian_quotient() -> str:
        if ctx.jacobian.dimension != 3:
            raise ValueError(f"dimension {ctx.jacobian.dimension}")
        if ctx.jacobian.staircase != ((0, 0), (1, 0), (2, 0)):
            raise ValueError(f"staircase {ctx.jacobian.staircase}")
        minpoly = minimal_polynomial(ctx.jacobian.mult_matrices[0])
        if str(minpoly) != "x^3 + 1":
            raise ValueError(f"minimal polynomial {minpoly}")
        return "dimension 3, basis {1, x, x^2}, minimal polynomial x^3 + 1"

    run("factorization", factorization)
    run("block_identities", block_identities)
    run("delta_formula", delta_formula)
    run("delta_preimage", delta_preimage)
    run("v_twist", v_twist)
    run("central_commutant", central_commutant)
    run("alpha_rule", alpha_rule)
    run("alpha_matrix_homotopy", alpha_matrix_homotopy)
    run("reduce_identity", reduce_identity)
    run("reduce_alpha_matrix", reduce_alpha_matrix)
    run("reduce_alpha_cubed", reduce_alpha_cubed)
    run("reduce_retraction", reduce_retraction)
    run("reduce_random", reduce_random)
    run("reduce_ring_map", reduce_ring_map)
    run("obstruction_partials", obstruction_partials)
    run("jacobian_quotient", jacobian_quotient)
    checks.extend(an_corpus(1).checks)
    checks.extend(closed_open_certify(default_spec(2), seed=seed, samples=10).checks)
    return Report(tuple(checks), seed)
