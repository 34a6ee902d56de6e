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
Jacobian ring onto the cohomology endomorphism ring.  Each returned
result carries one certificate, its defining identity re-checked
symbolically before it is returned (for a reduction, the HomotopyWitness
delta(g) = f + alpha*Id; for an obstruction, the cofactor identity);
intermediate stages are not re-checked, since a wrong stage breaks that
identity and raises instead of propagating.  A reduction's witness also
proves f closed, because delta squares to zero, so f's closedness is
checked only when its reduction fails.

Each identity has one implementation: an Rp2Context.check_* method (run
at construction and again by the batteries) or a module helper; the
Jacobian fold into span{1, x, x^2} and its cofactors is Rp2Context._fold.
The fold works on packed keys, adding multiples of the unit keys of x and
y to each target key, and refuses cofactors of more than MAX_FOLD_TERMS
terms.  A reduction builds each entry of g and of the claim f + alpha*Id
in one term accumulator, and its HomotopyWitness checks delta(g) in place.
The batteries -- run_suite, an_corpus and closed_open_certify -- are lists
of check functions, each named by its check id and run in order; a check
signals a mathematical failure with ValueError.  Any other exception is a
bug: its check reports ERROR with the traceback, and the battery runs on.
In run_suite, a failure in the set-up of a battery (its own Rp2Context
build, an_corpus's parses, closed_open_certify's GF(4) context) reports
one check named after that battery, rp2_context for the first: FAIL for a
ValueError, ERROR for a bug.  The rest run on.
"""

from __future__ import annotations

import random
import traceback
from typing import Callable, Optional

from .gf2k import FieldSpec, Immutable, default_spec
from .ringpoly import RingDescriptor, RingPoly, _mul_into, _overflow, exact_divide, parse_poly
from .ringmat import (
    FieldMatrix,
    RingMatrix,
    _entry_into,
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
)
from .groebner import laurent_jacobian_ideal, quotient_ring
from .cohomwin import certify_at_point, cohomology_dims, find_critical_points

__all__ = [
    "RP2_MATRIX_TEXT",
    "ALPHA_MATRIX_TEXT",
    "ALPHA_HOMOTOPY_TEXT",
    "Check",
    "Report",
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


# A fold whose cofactors would hold more terms than this is refused:
# reducing x^n*Id telescopes x^n in steps of three, in time and memory
# linear in n.
MAX_FOLD_TERMS = 1 << 16


def _xor_keys(terms: dict[int, int], keys, coeff: int) -> None:
    """Add coeff*m into terms for the monomial m of each key in keys,
    deleting the keys that cancel."""
    for key in keys:
        c = terms.get(key, 0) ^ coeff
        if c:
            terms[key] = c
        else:
            del terms[key]


# -- check/report plumbing ---------------------------------------------------


class Check(Immutable):
    """One certified fact: an id, a verdict, and a short detail string.
    A check that hit a bug (not a ValueError) has its traceback in `trace`."""

    __slots__ = ("check_id", "passed", "detail", "trace")

    def __init__(self, check_id: str, passed: bool, detail: str = "", trace: str = ""):
        super().__init__(check_id, passed, detail, trace)

    @property
    def verdict(self) -> str:
        return "ERROR" if self.trace else "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"{self.verdict} {self.check_id} {self.detail}".rstrip()


class Report(Immutable):
    """A batch of checks plus the seed that drove any randomized ones."""

    __slots__ = ("checks", "seed")

    def __init__(self, checks: tuple[Check, ...], seed: Optional[int] = None):
        super().__init__(checks, seed)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def passed_count(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def errors(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if c.trace)

    def summary(self) -> str:
        text = f"{self.passed_count}/{len(self.checks)} checks passed"
        if self.seed is not None:
            text += f" (seed {self.seed})"
        return text

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks] + [self.summary()]

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _error(check_id: str, exc: Exception) -> Check:
    """The ERROR check for a bug (not a ValueError) caught while handling exc."""
    return Check(check_id, False, f"{type(exc).__name__}: {exc}", traceback.format_exc())


def _run_check(check_id: str, fn: Callable[[], str]) -> Check:
    """Run fn; it returns a detail string or raises ValueError with the
    failed identity.  Any other exception is a bug, recorded as an ERROR."""
    try:
        detail = fn()
    except ValueError as exc:
        return Check(check_id, False, str(exc))
    except Exception as exc:
        return _error(check_id, exc)
    return Check(check_id, True, detail)


def _run_battery(name: str, battery: Callable[[], Report]) -> tuple[Check, ...]:
    """The checks of a battery.  Its set-up runs outside any check: a
    ValueError there is one FAIL check named after the battery, and a bug
    one ERROR check."""
    try:
        return battery().checks
    except ValueError as exc:
        return (Check(name, False, str(exc)),)
    except Exception as exc:
        return (_error(name, exc),)


def _run_checks(*fns: Callable[[], str]) -> tuple[Check, ...]:
    """Run a battery in order; each function's name is its check id."""
    return tuple(_run_check(fn.__name__, fn) for fn in fns)


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


def _twist(f: RingMatrix) -> tuple[RingPoly, RingPoly]:
    """tr(V*f) = tr(f) + x^-1*y^-1*at(f) and at(V*f) = at(f) + x^-1*tr(f);
    the same holds for f*V."""
    t, a = tr(f), at(f)
    xinv = RingPoly.variable(f.ring, "x", -1)
    xyinv = RingPoly.monomial(f.ring, (-1, -1))
    return t + xyinv * a, a + xinv * t


def v_twist_check(f: RingMatrix) -> Report:
    """tr and at of V*f and f*V against their tr(f), at(f) expressions."""
    v = _v_matrix(f.ring)
    want_tr, want_at = _twist(f)
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


# -- reduction results ----------------------------------------------------------


class ReductionResult(Immutable):
    """Canonical scalar alpha in span{1, x, x^2} plus the verified witness g
    with delta(g) = f + alpha*Id."""

    __slots__ = ("alpha", "witness")


# -- the projective-plane context ------------------------------------------------


class Rp2Context(Immutable):
    """The 4x4 factorization of w = x + y + 1/(xy) over GF(2^k), its block
    calculus, and a verified Jacobian quotient.

    Construction parses Q, verifies Q^2 = w*Id, builds the Jacobian
    quotient, and runs the check_* methods: the block identities, the
    alpha-matrix homotopy, the quotient's dimension and minimal polynomial,
    and the exponent-folding rule's relations y = x and x^3 = 1.  Instances
    are immutable after construction and all methods are pure."""

    __slots__ = (
        "spec", "ring", "w", "u", "v", "mf", "q",
        "dwdx", "dwdy", "dqdx", "dqdy",
        "f_alpha", "alpha_homotopy", "jacobian",
    )

    def __init__(self, spec: Optional[FieldSpec] = None):
        spec = spec if spec is not None else default_spec(1)
        ring = RingDescriptor(spec, ("x", "y"), (True, True))
        w = parse_poly("x + y + x^-1*y^-1", ring)
        q = parse_matrix(RP2_MATRIX_TEXT, ring)
        super().__init__(
            spec, ring, w, _u_matrix(ring), _v_matrix(ring), UngradedMF(w, q), q,
            w.partial("x"), w.partial("y"), matrix_partial(q, "x"), matrix_partial(q, "y"),
            parse_matrix(ALPHA_MATRIX_TEXT, ring), parse_matrix(ALPHA_HOMOTOPY_TEXT, ring),
            quotient_ring(laurent_jacobian_ideal(w)),
        )
        self.check_blocks()
        self.check_alpha_homotopy()
        self.check_quotient()
        self.check_folding()

    # -- identities re-checked at construction --------------------------------

    def check_blocks(self) -> None:
        """U^2 = y*Id, V^2 = dW/dx*Id, UV = VU = x^-1*Id + U, and
        Q = [[U, V], [x*V, U]]."""
        u, v = self.u, self.v
        x = RingPoly.variable(self.ring, "x")
        y = RingPoly.variable(self.ring, "y")
        xinv = RingPoly.variable(self.ring, "x", -1)
        id2 = RingMatrix.identity(self.ring, 2)
        identities = (
            ("U^2 = y*Id", u * u == id2.scale(y)),
            ("V^2 = dW/dx*Id", v * v == id2.scale(self.dwdx)),
            ("UV = x^-1*Id + U", u * v == id2.scale(xinv) + u),
            ("VU = x^-1*Id + U", v * u == id2.scale(xinv) + u),
            ("Q = [[U, V], [x*V, U]]", self.q == block2(u, v, v.scale(x), u)),
        )
        for label, ok in identities:
            if not ok:
                raise ValueError(f"block identity failed: {label}")

    def check_alpha_homotopy(self) -> None:
        """[Q, M] = F + x^-1*Id for the alpha matrix F and its homotopy M."""
        xinv = RingPoly.variable(self.ring, "x", -1)
        rhs = self.f_alpha + self._identity4().scale(xinv)
        if commutator(self.q, self.alpha_homotopy) != rhs:
            raise ValueError("alpha-matrix homotopy identity failed")

    def check_quotient(self) -> None:
        """The Jacobian quotient has dimension 3 and multiplication by x has
        minimal polynomial x^3 + 1."""
        dim = self.jacobian.dimension
        if dim != 3:
            raise ValueError(f"jacobian dimension {dim}")
        minpoly = self.jacobian.minimal_polynomial()
        if str(minpoly) != "x^3 + 1":
            raise ValueError(f"multiplication minimal polynomial {minpoly}")

    def check_folding(self) -> None:
        """x^a*y^b -> x^((a+b) mod 3) holds in the quotient for all integers
        a, b: there y = x and x^3 = 1 (checked), so x is a unit with inverse
        x^2 and x^a*y^b = x^(a+b) = x^((a+b) mod 3)."""
        jac = self.jacobian

        def cls(a: int, b: int) -> list[int]:
            return jac.class_vector(RingPoly.monomial(jac.ring, (a, b)))

        if cls(0, 1) != cls(1, 0):  # first: raises when infinite
            raise ValueError("y = x fails in the quotient")
        if cls(3, 0) != cls(0, 0):
            raise ValueError("x^3 = 1 fails in the quotient")

    # -- identities the batteries check ----------------------------------------

    def check_alpha_reduction(self) -> None:
        """The alpha matrix F reduces to x^2."""
        result = self.reduce_endomorphism(self.f_alpha)
        if result.alpha != RingPoly.variable(self.ring, "x", 2):
            raise ValueError(f"alpha matrix reduced to {result.alpha}")

    def check_random_reductions(self, rng: random.Random, samples: int) -> None:
        """alpha*Id + delta(g) reduces back to alpha on random_closed samples."""
        for _ in range(samples):
            alpha, f = self.random_closed(rng)
            result = self.reduce_endomorphism(f)
            if result.alpha != alpha:
                raise ValueError(f"reduced {result.alpha}, expected {alpha}")

    # -- small helpers ------------------------------------------------------

    def _coerce(self, f: RingMatrix) -> RingMatrix:
        if not isinstance(f, RingMatrix):
            raise TypeError("expected a RingMatrix")
        if f.ring != self.ring or f.rows != 4 or f.cols != 4:
            raise ValueError("endomorphisms here are 4x4 over the context ring")
        return f

    def _identity4(self) -> RingMatrix:
        return RingMatrix.identity(self.ring, 4)

    def _split(self, mat: RingMatrix) -> tuple[RingMatrix, RingMatrix, RingMatrix, RingMatrix]:
        """Blocks a, b of mat = [[a, b], [c, d]] and the commutator
        preimages s, t with c = x*b + [U, s] and d = a + [U, t]."""
        a, b, c, d = blocks_of(mat)
        x = RingPoly.variable(self.ring, "x")
        t = delta_u_preimage(d + a)
        s = delta_u_preimage(c + b.scale(x))
        if t is None or s is None:
            raise ValueError("internal consistency: commutator blocks have no preimage")
        return a, b, s, t

    # -- random samples ---------------------------------------------------------

    def random_scalar(self, rng: random.Random) -> RingPoly:
        """A canonical scalar with uniform coefficients on 1, x, x^2."""
        return RingPoly(
            self.ring, {(e, 0): rng.randrange(0, self.spec.order) for e in range(3)}
        )

    def random_closed(self, rng: random.Random, span: int = 2,
                      max_terms: int = 3) -> tuple[RingPoly, RingMatrix]:
        """A random canonical scalar alpha and the closed endomorphism
        alpha*Id + delta(g) for a random_matrix g."""
        alpha = self.random_scalar(rng)
        g = random_matrix(self.ring, rng, 4, 4, span, max_terms)
        return alpha, self._identity4().scale(alpha) + commutator(self.q, g)

    # -- canonical scalars ---------------------------------------------------

    def _fold(self, target: RingPoly) -> tuple[RingPoly, RingPoly, RingPoly]:
        """alpha in span{1, x, x^2} and cofactors c1, c2 with
        target = alpha + c1*dW/dx + c2*dW/dy: the one implementation of the
        quotient map x^a*y^b -> x^((a+b) mod 3) and of its cofactors.

        Stage one rewrites x^a*y^b to x^(a+b) along multiples of
        x + y = x*dW/dx + y*dW/dy; stage two folds exponents mod 3 along
        x^3 + 1 = (x^2*y + x^3)*dW/dx + x^2*y*dW/dy.  Both work on keys:
        each cofactor key is its target key plus multiples of the unit keys
        of x and y, and only x^(a+b) is range-checked, once per target term.
        The cofactor terms are counted first: more than MAX_FOLD_TERMS
        raise ValueError before any is built."""
        ring = self.ring
        one, unpack = ring.one_key, ring.unpack
        ux, uy = ring.pack((1, 0)) - one, ring.pack((0, 1)) - one
        d = ux - uy  # from x^a*y^b to x^(a+1)*y^(b-1)
        chains = []
        powers: dict[int, int] = {}  # the key of x^(a+b) -> its coefficient
        count = 0
        for key, coeff in target.packed.items():
            b = unpack(key)[1]
            end = key + b * d
            if end & ring.guard:
                raise _overflow()
            if b:
                # y^b + x^b = (x + y) * h for either sign of b; the keys from
                # x^a*y^b to x^(a+b), x ascending, are x^a*h*x but the first
                # and x^a*h*y but the last
                lo = min(b, 0)
                chains.append((range(key + lo * d, key + (lo + abs(b) + 1) * d, d), coeff))
                count += 2 * abs(b)
            powers[end] = powers.get(end, 0) ^ coeff
        count += sum(3 * abs(unpack(end)[0] // 3) for end, coeff in powers.items() if coeff)
        if count > MAX_FOLD_TERMS:
            raise ValueError(f"the fold's cofactors have {count} terms, "
                             f"above the limit of {MAX_FOLD_TERMS}")
        alpha: dict[int, int] = {}
        c1: dict[int, int] = {}
        c2: dict[int, int] = {}
        for chain, coeff in chains:
            _xor_keys(c1, chain[1:], coeff)
            _xor_keys(c2, chain[:-1], coeff)
        for end, coeff in powers.items():
            if not coeff:
                continue
            steps = unpack(end)[0] // 3
            low = end - 3 * steps * ux  # x^r with r = (a+b) mod 3
            _xor_keys(alpha, (low,), coeff)
            # x^n + x^r = (x^3 + 1) * l, l = x^min(n, r) * (1 + x^3 + ...) in |steps| terms
            base, stop = min(end, low), 3 * abs(steps) * ux
            both = range(base + 2 * ux + uy, base + 2 * ux + uy + stop, 3 * ux)  # x^2*y * l
            _xor_keys(c1, range(base + 3 * ux, base + 3 * ux + stop, 3 * ux), coeff)
            _xor_keys(c1, both, coeff)
            _xor_keys(c2, both, coeff)
        return RingPoly._raw(ring, alpha), RingPoly._raw(ring, c1), RingPoly._raw(ring, c2)

    # -- reduction to a canonical scalar ---------------------------------------

    def reduce_endomorphism(self, f: RingMatrix) -> ReductionResult:
        """Rewrite a closed endomorphism as alpha*Id + delta(g) with alpha
        canonical in span{1, x, x^2}.

        The pipeline subtracts two explicit coboundaries (the first clears
        the off-diagonal blocks, the second the off-diagonal entries of the
        diagonal blocks), reads off the scalar, and absorbs its
        non-canonical part into the Jacobian cofactors of _fold.  The stages
        are not checked one by one: the answer's one certificate is the
        returned HomotopyWitness, delta(g) = f + alpha*Id, which a wrong
        stage would break.  It also proves f closed, since
        delta(delta(g)) = Q^2*g + g*Q^2 = 2W*g = 0 (Q^2 = W*Id was verified
        when the factorization was built) and delta(alpha*Id) = 2*alpha*Q = 0,
        so closedness is checked only to name the error of a failed one."""
        mat = self._coerce(f)
        try:
            return self._reduce_closed(mat)
        except ValueError:
            if not commutator(self.q, mat).is_zero():
                raise ValueError("reduction needs a closed endomorphism") from None
            raise

    def _reduce_closed(self, mat: RingMatrix) -> ReductionResult:
        """The stages of reduce_endomorphism.  g = g1 + g3 + c1*dQ/dx + c2*dQ/dy
        and the claim f + alpha*Id are built one entry at a time, each in one
        accumulator, and HomotopyWitness checks delta(g) in place."""
        _, b, s, _ = self._split(mat)
        ring = self.ring
        y = RingPoly.variable(ring, "y")
        xinv = RingPoly.variable(ring, "x", -1)
        yinv = RingPoly.variable(ring, "y", -1)
        xyinv = RingPoly.monomial(ring, (-1, -1))
        xyyinv = RingPoly.monomial(ring, (-1, -2))
        zero = RingPoly.zero(ring)

        # stage one: a coboundary whose off-diagonal blocks are exactly
        # (b, c) = (b, x*b + [U, s]), so f + delta(g1) is block diagonal;
        # g1 = [[a_fix, b_fix], [c_fix + s, d_fix]], listed row by row
        b1, b2 = b.at(0, 0), b.at(0, 1)
        b4 = b.at(1, 1)
        p = exact_divide(_twist(b)[1], self.dwdx)
        if p is None:
            raise ValueError("internal consistency: off-diagonal divisibility failed")
        xyp = xyinv * p
        g = [zero] * 4 + [
            y * b2, b4 + xyp, xyp, zero,
            yinv * b1 + yinv * b4 + xyyinv * p + s.at(0, 0), s.at(0, 1), b1, b2,
            s.at(1, 0), s.at(1, 1), p, zero,
        ]
        g1 = RingMatrix._raw(ring, 4, 4, g)

        # stage two: f + delta(g1) = [[a2, 0], [0, a2]] with
        # a2 = top*Id + off*U, so only its row 0, columns 0-1 are formed;
        # the coboundary of g3 = [[0, 0], [c3, 0]], c3 = [[0, off], [y*off, 0]],
        # trades off*U for x^-1*off*Id
        pairs = ((self.q, g1), (g1, self.q))
        top, off = (RingPoly._raw(ring, _entry_into(dict(mat.at(0, j).packed), pairs, 0, j))
                    for j in (0, 1))
        g[9] += off  # g1 + g3: c3's entries are (2, 1) and (3, 0) of g3
        g[12] += y * off

        # stage three: alpha0 = alpha + c1*dW/dx + c2*dW/dy, and
        # delta(c1*dQ/dx + c2*dQ/dy) = (c1*dW/dx + c2*dW/dy)*Id
        alpha, c1, c2 = self._fold(top + xinv * off)
        for i, (dx, dy) in enumerate(zip(self.dqdx.entries, self.dqdy.entries)):
            acc = _mul_into(dict(g[i].packed), c1.packed, dx.packed, ring)
            g[i] = RingPoly._raw(ring, _mul_into(acc, c2.packed, dy.packed, ring))
        shifted = [e + alpha if i in (0, 5, 10, 15) else e for i, e in enumerate(mat.entries)]
        claim = Morphism(self.mf, self.mf, RingMatrix._raw(ring, 4, 4, shifted))
        return ReductionResult(alpha, HomotopyWitness(claim, RingMatrix._raw(ring, 4, 4, g)))

    # -- the exactness obstruction ----------------------------------------------

    def obstruction_decomposition(self, f: RingMatrix, alpha: RingPoly) -> tuple[RingPoly, RingPoly]:
        """Given delta(f) = alpha*Id, return c1, c2 with
        alpha = c1*dW/dx + c2*dW/dy, read off the tr/at data of f's blocks.

        This is the constructive converse of exactness for scalars: the
        scalar of any coboundary lies in the Jacobian ideal, with explicit
        cofactors."""
        mat = self._coerce(f)
        if alpha.ring != self.ring:
            raise ValueError("alpha is not in the context ring")
        if commutator(self.q, mat) != self._identity4().scale(alpha):
            raise ValueError("obstruction needs delta(f) = alpha*Id")
        _, b, s, t = self._split(mat)
        xy = RingPoly.monomial(self.ring, (1, 1))
        xyinv = RingPoly.monomial(self.ring, (-1, -1))
        c1 = xy * (at(t) + xyinv * at(s))
        c2 = xy * _twist(b)[1]
        if c1 * self.dwdx + c2 * self.dwdy != alpha:
            raise ValueError("cofactor identity failed")
        return c1, c2


# -- aggregate certification ---------------------------------------------------------


def closed_open_certify(seed: int = 2718) -> Report:
    """Certify over GF(4), where all critical points are rational, that
    alpha -> alpha*Id is an isomorphism from the Jacobian quotient onto the
    cohomology endomorphism ring.

    Checks: the map is well defined (Jacobian multiples of Id are exact with
    explicit witnesses), surjective (random closed endomorphisms reduce to
    canonical scalars), injective (the classes Id, x*Id, x^2*Id separate at
    the three critical points, and exact scalars decompose into the ideal),
    of the right dimension, and consistent with the stable window
    dimensions."""
    ctx = Rp2Context(default_spec(2))
    rng = random.Random(seed)
    identity = ctx._identity4()
    samples = 10

    def co_dimension() -> str:
        ctx.check_quotient()
        return "jacobian dimension 3, minimal polynomial x^3 + 1"

    def co_well_defined() -> str:
        for var in ("x", "y"):
            jacobian_action_witness(Morphism(ctx.mf, ctx.mf, identity), var)
        return "dW/dx*Id and dW/dy*Id exact with verified witnesses"

    def co_surjective() -> str:
        ctx.check_random_reductions(rng, samples)
        return f"{samples} random closed endomorphisms reduced to their scalars"

    def co_injective_points() -> str:
        points = find_critical_points(ctx.w, ctx.spec)
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
        mat = FieldMatrix(ctx.spec, 3, len(rows[0]), [v for row in rows for v in row])
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
        ctx.check_alpha_homotopy()
        ctx.check_alpha_reduction()
        return "[Q, M] = F + x^-1*Id and F reduces to x^2"

    return Report(_run_checks(
        co_dimension, co_well_defined, co_surjective, co_injective_points,
        co_injective_ideal, co_window_dims, co_alpha_matrix,
    ), seed)


# -- the A-series corpus -------------------------------------------------------------


def an_corpus(n: int) -> Report:
    """Verified facts over GF(2) for the A-series pair at index n: the
    factorization Q = [[x^n, y], [y + x*z, x^n]] of x^2n + y^2 + xyz and its
    scalar-curve companion R = [[x^n, y], [y, x^n]] of x^2n + y^2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    spec = default_spec(1)
    ring3 = RingDescriptor(spec, ("x", "y", "z"), (False, False, False))
    ring2 = RingDescriptor(spec, ("x", "y"), (False, False))
    w3 = parse_poly(f"x^{2 * n} + y^2 + x*y*z", ring3)
    w2 = parse_poly(f"x^{2 * n} + y^2", ring2)
    q_mat = parse_matrix(f"x^{n}, y; y + x*z, x^{n}", ring3)
    r_mat = parse_matrix(f"x^{n}, y; y, x^{n}", ring2)
    mfq = UngradedMF(w3, q_mat)
    mfr = UngradedMF(w2, r_mat)
    id2 = RingMatrix.identity(ring3, 2)

    def an_q_factorization() -> str:
        UngradedMF(w3, q_mat)
        return f"Q(n={n})^2 = (x^{2 * n} + y^2 + x*y*z)*Id"

    def an_r_factorization() -> str:
        UngradedMF(w2, r_mat)
        return f"R(n={n})^2 = (x^{2 * n} + y^2)*Id"

    def an_j_involution() -> str:
        j = parse_matrix("0, 1; 1, 0", ring2)
        if not Morphism(mfr, mfr, j).is_closed():
            raise ValueError("J is not closed")
        if j * j != RingMatrix.identity(ring2, 2):
            raise ValueError("J^2 is not the identity")
        return "J closed with J^2 = Id"

    def an_scalars_closed() -> str:
        for name in ("x", "z"):
            scalar = RingPoly.variable(ring3, name)
            if not Morphism(mfq, mfq, id2.scale(scalar)).is_closed():
                raise ValueError(f"{name}*Id is not closed")
        return "x*Id and z*Id closed"

    def an_xz_exact() -> str:
        witness = jacobian_action_witness(Morphism(mfq, mfq, id2), "y")
        xz = parse_poly("x*z", ring3)
        if witness.claim.f != id2.scale(xz):
            raise ValueError("claim is not xz*Id")
        if witness.g != matrix_partial(q_mat, "y"):
            raise ValueError("witness is not dQ/dy")
        return "xz*Id = delta(dQ/dy), verified"

    def infinite_quotient(w: RingPoly, generators: list[str]) -> None:
        quotient = quotient_ring(laurent_jacobian_ideal(w))
        names = sorted(str(g) for g in quotient.basis)
        if names != generators:
            raise ValueError(f"ideal generators {names}")
        if quotient.dimension is not None:
            raise ValueError(f"dimension {quotient.dimension}, expected infinite")

    def an_jacobian_q() -> str:
        infinite_quotient(w3, ["x*y", "x*z", "y*z"])
        return "ideal (xy, xz, yz), infinite quotient"

    def an_jacobian_r() -> str:
        infinite_quotient(w2, [])
        return "zero ideal, infinite quotient"

    def an_window_growth() -> str:
        found = []
        for label, mf in (("End(Q)", mfq), ("End(R)", mfr)):
            dims = cohomology_dims(mf, mf, 3)
            seq = [dims[d] for d in range(1, 4)]
            if any(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)):
                raise ValueError(f"{label} window dimensions not increasing: {seq}")
            found.append(f"{label} windows {seq}")
        return ", ".join(found)

    return Report(_run_checks(
        an_q_factorization, an_r_factorization, an_j_involution, an_scalars_closed,
        an_xz_exact, an_jacobian_q, an_jacobian_r, an_window_growth,
    ))


# -- the full battery -------------------------------------------------------------------

# Random cases per randomized check of run_suite.
SUITE_SAMPLES = 100


def run_suite(seed: int = 2024, spec: Optional[FieldSpec] = None) -> Report:
    """Run the whole certification battery and return one flat report.

    Covers the block identities and trace calculus (randomized), the
    constructive reduction and its ring-map property, the exactness
    obstruction, the Jacobian quotient, the A-series corpus at n = 1, and
    the full isomorphism certification over GF(4).  A bug in the set-up of
    one of the three batteries, the Rp2Context over spec of the first one
    included, is one ERROR check named after it, and the others still run."""
    return Report(_run_battery("rp2_context", lambda: _rp2_battery(seed, spec))
                  + _run_battery("an_corpus", lambda: an_corpus(1))
                  + _run_battery("closed_open_certify", lambda: closed_open_certify(seed)), seed)


def _rp2_battery(seed: int, spec: Optional[FieldSpec]) -> Report:
    """The checks of run_suite on the projective-plane context over spec."""
    ctx = Rp2Context(spec)
    rng = random.Random(seed)
    ring = ctx.ring
    identity = ctx._identity4()
    yinv = RingPoly.variable(ring, "y", -1)
    one = RingPoly.one(ring)
    zero = RingPoly.zero(ring)

    def factorization() -> str:
        UngradedMF(ctx.w, ctx.q)
        return "Q^2 = (x + y + 1/(xy))*Id, 4x4"

    def block_identities() -> str:
        ctx.check_blocks()
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
        for _ in range(SUITE_SAMPLES):
            f = random_matrix(ring, rng, 2, 2)
            report = v_twist_check(f)
            if not report.ok:
                raise ValueError(f"twist identities fail on {f!r}")
        return f"tr/at twist identities on {SUITE_SAMPLES} random matrices"

    def central_commutant() -> str:
        for _ in range(SUITE_SAMPLES):
            a = random_poly(ring, rng)
            c = random_poly(ring, rng)
            f = RingMatrix.from_rows(ring, [[a, yinv * c], [c, a]])
            if tr(ctx.v * f) != zero or at(ctx.v * f) != zero:
                raise ValueError("constructed matrix misses the vanishing conditions")
            if not commutator(ctx.u, f).is_zero():
                raise ValueError("vanishing tr/at does not force [U, f] = 0")
        return f"tr(Vf) = at(Vf) = 0 forces [U, f] = 0 on {SUITE_SAMPLES} samples"

    def alpha_rule() -> str:
        ctx.check_folding()
        return "x^a*y^b -> x^((a+b) mod 3) for all a, b: y = x and x^3 = 1 in the quotient"

    def alpha_matrix_homotopy() -> str:
        ctx.check_alpha_homotopy()
        return "[Q, M] = F + x^-1*Id"

    def fixed_scalar(alpha: RingPoly) -> None:
        result = ctx.reduce_endomorphism(identity.scale(alpha))
        if result.alpha != alpha:
            raise ValueError(f"canonical {alpha} reduced to {result.alpha}")
        if not result.witness.g.is_zero():
            raise ValueError(f"canonical {alpha} needed a nonzero witness")

    def reduce_identity() -> str:
        fixed_scalar(one)
        return "Id reduces to 1 with zero witness"

    def reduce_alpha_matrix() -> str:
        ctx.check_alpha_reduction()
        return "the alpha matrix reduces to x^2"

    def reduce_alpha_cubed() -> str:
        cubed = ctx.f_alpha * ctx.f_alpha * ctx.f_alpha
        result = ctx.reduce_endomorphism(cubed)
        if result.alpha != one:
            raise ValueError(f"cube reduced to {result.alpha}")
        return "the cubed alpha matrix reduces to 1"

    def reduce_retraction() -> str:
        for _ in range(10):
            fixed_scalar(ctx.random_scalar(rng))
        return "canonical scalars are fixed with zero witnesses, 10 samples"

    def reduce_random() -> str:
        ctx.check_random_reductions(rng, SUITE_SAMPLES)
        return f"alpha*Id + delta(g) reduces back to alpha, {SUITE_SAMPLES} samples"

    def reduce_ring_map() -> str:
        for _ in range(10):
            alpha_f, f = ctx.random_closed(rng, span=1, max_terms=2)
            alpha_h, h = ctx.random_closed(rng, span=1, max_terms=2)
            product = ctx.reduce_endomorphism(f * h)
            if product.alpha != ctx._fold(alpha_f * alpha_h)[0]:
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
        ctx.check_quotient()
        if ctx.jacobian.staircase != ((0, 0), (1, 0), (2, 0)):
            raise ValueError(f"staircase {ctx.jacobian.staircase}")
        return "dimension 3, basis {1, x, x^2}, minimal polynomial x^3 + 1"

    return Report(_run_checks(
        factorization, block_identities, delta_formula, delta_preimage, v_twist,
        central_commutant, alpha_rule, alpha_matrix_homotopy, reduce_identity,
        reduce_alpha_matrix, reduce_alpha_cubed, reduce_retraction, reduce_random,
        reduce_ring_map, obstruction_partials, jacobian_quotient,
    ), seed)
