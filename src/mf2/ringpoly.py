"""Sparse (Laurent) polynomials over GF(2^k).

A ring is described by its coefficient field, an ordered tuple of
variable names, and a per-variable Laurent flag (negative exponents
allowed or not).  A polynomial is a map from exponent vectors to
nonzero serialized field values; addition is coefficient-wise XOR in
every characteristic-2 field.

Exponents are Python ints, so they are arbitrary precision and cannot
silently wrap.

Text form (whitespace insignificant):

    poly   := term ('+' term)*
    term   := atom ('*' atom)*
    atom   := '{' uint '}' | '0' | '1' | var ('^' int)?

Coefficients in GF(2) are implicit; extension-field coefficients are
written {n} with n the serialized value, e.g. "{3}*x^-2*y + 1" over
GF(4).  The canonical printed order is graded reverse lexicographic,
largest term first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .gf2k import FieldElem, FieldSpec, embed

__all__ = [
    "RingDescriptor",
    "RingPoly",
    "ParseError",
    "grevlex_key",
    "exact_divide",
    "parse_poly",
]


@dataclass(frozen=True)
class RingDescriptor:
    """A (partially) Laurent polynomial ring over GF(2^k)."""

    field: FieldSpec
    vars: tuple[str, ...]
    laurent: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not self.vars:
            raise ValueError("ring needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        if len(self.laurent) != len(self.vars):
            raise ValueError("laurent flags do not match variables")

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise ValueError(f"unknown variable '{name}'") from None

    def check_exponents(self, exps: Sequence[int]) -> tuple[int, ...]:
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        for e, flag, name in zip(exps, self.laurent, self.vars):
            if e < 0 and not flag:
                raise ValueError(f"negative exponent on non-Laurent variable '{name}'")
        return tuple(exps)

    def polynomialized(self) -> "RingDescriptor":
        """Same variables with all Laurent flags cleared."""
        return RingDescriptor(self.field, self.vars, (False,) * self.nvars)


def grevlex_key(exps: Sequence[int]):
    """Sort key realizing graded reverse lexicographic order (larger key = larger term)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


class RingPoly:
    """Immutable sparse polynomial; terms maps exponent tuples to nonzero values."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: dict[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            ring.field.validate(coeff)
            if coeff:
                clean[ring.check_exponents(exps)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("RingPoly is immutable")

    @classmethod
    def _raw(cls, ring: RingDescriptor, terms: dict[tuple[int, ...], int]) -> "RingPoly":
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "RingPoly":
        return cls._raw(ring, {})

    @classmethod
    def one(cls, ring: RingDescriptor) -> "RingPoly":
        return cls._raw(ring, {(0,) * ring.nvars: 1})

    @classmethod
    def constant(cls, ring: RingDescriptor, coeff: int) -> "RingPoly":
        ring.field.validate(coeff)
        if coeff == 0:
            return cls.zero(ring)
        return cls._raw(ring, {(0,) * ring.nvars: coeff})

    @classmethod
    def monomial(cls, ring: RingDescriptor, exps: Sequence[int], coeff: int = 1) -> "RingPoly":
        ring.field.validate(coeff)
        if coeff == 0:
            return cls.zero(ring)
        return cls._raw(ring, {ring.check_exponents(exps): coeff})

    @classmethod
    def variable(cls, ring: RingDescriptor, name: str, power: int = 1) -> "RingPoly":
        exps = [0] * ring.nvars
        exps[ring.var_index(name)] = power
        return cls.monomial(ring, exps)

    # -- structure -----------------------------------------------------------

    def _check_ring(self, other: "RingPoly") -> None:
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Optional[int]:
        """Serialized value if the polynomial is a constant, else None."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            (exps, coeff), = self.terms.items()
            if all(e == 0 for e in exps):
                return coeff
        return None

    def support_bounds(self) -> Optional[list[tuple[int, int]]]:
        """Per-variable (min, max) exponent over all terms; None for the zero polynomial."""
        if not self.terms:
            return None
        n = self.ring.nvars
        lo = [min(e[i] for e in self.terms) for i in range(n)]
        hi = [max(e[i] for e in self.terms) for i in range(n)]
        return list(zip(lo, hi))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check_ring(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for exps, coeff in b.items():
            c = out.get(exps, 0) ^ coeff
            if c:
                out[exps] = c
            else:
                del out[exps]
        return RingPoly._raw(self.ring, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        self._check_ring(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return RingPoly.zero(self.ring)
        if len(a) < len(b):
            a, b = b, a
        field = self.ring.field
        if len(b) == 1:
            (shift, scale), = b.items()
            if scale == 1:
                out = {tuple(x + y for x, y in zip(exps, shift)): c for exps, c in a.items()}
            else:
                out = {}
                for exps, c in a.items():
                    cc = field.mul(c, scale)
                    if cc:
                        out[tuple(x + y for x, y in zip(exps, shift))] = cc
            return RingPoly._raw(self.ring, out)
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                c = field.mul(c1, c2)
                if not c:
                    continue
                e = tuple(x + y for x, y in zip(e1, e2))
                prev = out.get(e, 0) ^ c
                if prev:
                    out[e] = prev
                else:
                    del out[e]
        return RingPoly._raw(self.ring, out)

    def scale(self, coeff: int) -> "RingPoly":
        field = self.ring.field
        field.validate(coeff)
        if coeff == 0:
            return RingPoly.zero(self.ring)
        if coeff == 1:
            return self
        return RingPoly._raw(
            self.ring,
            {e: field.mul(c, coeff) for e, c in self.terms.items()},
        )

    def __pow__(self, e: int) -> "RingPoly":
        if e < 0:
            raise ValueError("negative power of a general polynomial")
        result = RingPoly.one(self.ring)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and evaluation ----------------------------------------------

    def partial(self, var: int | str) -> "RingPoly":
        """Formal partial derivative: termwise a*x^e -> (e mod 2)*a*x^(e-1)."""
        i = self.ring.var_index(var) if isinstance(var, str) else var
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] & 1:
                e = exps[:i] + (exps[i] - 1,) + exps[i + 1:]
                out[e] = coeff
        return RingPoly._raw(self.ring, out)

    def evaluate(self, point: Sequence[FieldElem]) -> FieldElem:
        """Evaluate at a point over this field or an extension of it."""
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong number of coordinates")
        specs = {p.spec for p in point}
        if len(specs) != 1:
            raise ValueError("field mismatch: point coordinates from different specs")
        spec = specs.pop()
        for p, flag, name in zip(point, self.ring.laurent, self.ring.vars):
            if flag and p.value == 0:
                raise ValueError(f"pole: zero coordinate for Laurent variable '{name}'")
        acc = 0
        for exps, coeff in self.terms.items():
            v = embed(coeff, self.ring.field, spec)
            for p, e in zip(point, exps):
                if e:
                    v = spec.mul(v, spec.pow(p.value, e))
            acc ^= v
        return FieldElem(spec, acc)

    # -- printing ------------------------------------------------------------

    def _term_text(self, exps: tuple[int, ...], coeff: int) -> str:
        factors = []
        if coeff != 1:
            factors.append("{%d}" % coeff)
        for name, e in zip(self.ring.vars, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        if not factors:
            return "1"
        return "*".join(factors)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=grevlex_key, reverse=True)
        return " + ".join(self._term_text(e, self.terms[e]) for e in ordered)

    def __repr__(self) -> str:
        return f"RingPoly({self})"


# -- exact division -----------------------------------------------------------


def _monomial_content(terms: dict[tuple[int, ...], int], n: int) -> tuple[int, ...]:
    return tuple(min(e[i] for e in terms) for i in range(n))


def exact_divide(p: RingPoly, d: RingPoly) -> Optional[RingPoly]:
    """Quotient p/d when d divides p in the ring, else None.

    Both operands are normalized by their monomial content first, so in a
    Laurent ring divisibility is tested up to units, and the unit shift is
    restored (and checked against the Laurent flags) at the end.
    """
    p._check_ring(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    ring = p.ring
    if p.is_zero():
        return p
    n = ring.nvars
    shift_p = _monomial_content(p.terms, n)
    shift_d = _monomial_content(d.terms, n)
    rem = {tuple(x - s for x, s in zip(e, shift_p)): c for e, c in p.terms.items()}
    dd = {tuple(x - s for x, s in zip(e, shift_d)): c for e, c in d.terms.items()}
    lt_d = max(dd, key=grevlex_key)
    lc_d = dd[lt_d]
    field = ring.field
    lc_d_inv = field.inv(lc_d)
    quo: dict[tuple[int, ...], int] = {}
    while rem:
        lt = max(rem, key=grevlex_key)
        step = tuple(a - b for a, b in zip(lt, lt_d))
        if any(e < 0 for e in step):
            return None
        c = field.mul(rem[lt], lc_d_inv)
        quo[step] = c
        for e2, c2 in dd.items():
            e = tuple(x + y for x, y in zip(step, e2))
            prev = rem.get(e, 0) ^ field.mul(c, c2)
            if prev:
                rem[e] = prev
            else:
                del rem[e]
    unit = tuple(a - b for a, b in zip(shift_p, shift_d))
    out = {tuple(x + y for x, y in zip(e, unit)): c for e, c in quo.items()}
    for exps in out:
        for e, flag in zip(exps, ring.laurent):
            if e < 0 and not flag:
                return None
    return RingPoly._raw(ring, out)


# -- parsing -------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or semantic error in polynomial / file text, with position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class _Scanner:
    def __init__(self, text: str, line_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line_offset = line_offset

    def _where(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1 + self.line_offset
        last_nl = self.text.rfind("\n", 0, pos)
        return line, pos - last_nl

    def error(self, message: str, pos: Optional[int] = None):
        line, col = self._where(self.pos if pos is None else pos)
        raise ParseError(message, line, col)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_uint(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start:self.pos])

    def take_int(self) -> int:
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        v = self.take_uint()
        return -v if neg else v

    def take_name(self) -> str:
        start = self.pos
        if not (self.peek().isalpha() or self.peek() == "_"):
            self.error("expected a variable name")
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        return self.text[start:self.pos]


def _parse_atom(sc: _Scanner, ring: RingDescriptor) -> tuple[int, list[int]]:
    """One atom as (coefficient, exponent increments)."""
    exps = [0] * ring.nvars
    ch = sc.peek()
    if ch == "{":
        start = sc.pos
        sc.take()
        v = sc.take_uint()
        if sc.peek() != "}":
            sc.error("expected '}'")
        sc.take()
        if ring.field.k == 1:
            sc.error("braced coefficients are for extension fields; GF(2) uses 0/1", start)
        if v >= ring.field.order:
            sc.error(f"coefficient {v} outside GF(2^{ring.field.k})", start)
        return v, exps
    if ch.isdigit():
        start = sc.pos
        v = sc.take_uint()
        if v > 1:
            sc.error("bare coefficients must be 0 or 1; use {n} in extension fields", start)
        return v, exps
    start = sc.pos
    name = sc.take_name()
    try:
        i = ring.var_index(name)
    except ValueError:
        sc.error(f"unknown variable '{name}'", start)
    power = 1
    if sc.peek() == "^":
        sc.take()
        sc.skip_ws()
        power = sc.take_int()
    if power < 0 and not ring.laurent[i]:
        sc.error(f"negative exponent on non-Laurent variable '{name}'", start)
    exps[i] = power
    return 1, exps


def _parse_term(sc: _Scanner, ring: RingDescriptor) -> tuple[tuple[int, ...], int]:
    coeff, exps = _parse_atom(sc, ring)
    sc.skip_ws()
    while sc.peek() == "*":
        sc.take()
        sc.skip_ws()
        c2, e2 = _parse_atom(sc, ring)
        coeff = ring.field.mul(coeff, c2)
        exps = [a + b for a, b in zip(exps, e2)]
        sc.skip_ws()
    return tuple(exps), coeff


def parse_poly(text: str, ring: RingDescriptor, line_offset: int = 0) -> RingPoly:
    """Parse the text grammar above into a polynomial of the given ring."""
    sc = _Scanner(text, line_offset)
    sc.skip_ws()
    if not sc.peek():
        sc.error("empty polynomial")
    terms: dict[tuple[int, ...], int] = {}
    while True:
        exps, coeff = _parse_term(sc, ring)
        if coeff:
            prev = terms.get(exps, 0) ^ coeff
            if prev:
                terms[exps] = prev
            else:
                del terms[exps]
        sc.skip_ws()
        if sc.peek() == "+":
            sc.take()
            sc.skip_ws()
            continue
        break
    if sc.pos != len(sc.text):
        sc.error(f"unexpected character '{sc.peek()}'")
    for exps in terms:
        ring.check_exponents(exps)
    return RingPoly._raw(ring, terms)
