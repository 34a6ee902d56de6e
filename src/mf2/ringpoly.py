"""Sparse (Laurent) polynomials over GF(2^k).

A ring is described by its coefficient field, an ordered tuple of
variable names, and a per-variable Laurent flag (negative exponents
allowed or not).  A polynomial is a map from exponent vectors to
nonzero serialized field values; addition is coefficient-wise XOR in
every characteristic-2 field.

Exponent vectors are stored packed, one int per vector (the packed
exponent vectors of Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  Variable i owns
lane i, bits [LANE_BITS*i, LANE_BITS*(i+1)), which holds e + EXP_BOUND.
So every exponent lies in [-EXP_BOUND, EXP_BOUND) = [-2^30, 2^30): the
ring, the parser and the factorization search reject any other.  The key
of a product is k1 + k2 - BIAS, BIAS holding EXP_BOUND in every lane.
The top bit of each lane is a guard: a lane sum that over- or underflows
sets its own guard bit (a borrow out of the top lane makes the key
negative, which sets the guard too), and the kernel tests every product
key against the guard mask, so an exponent that leaves the range raises
ValueError instead of wrapping into a wrong term.  The same mask tests
divisibility: (a - b) & GUARD is 0 exactly when key b's monomial divides
key a's.  RingDescriptor.box_keys lists the keys of a box of exponent
bounds as sums of one term per lane.  RingPoly.packed holds the packed
dict; RingPoly.terms is a read-only view keyed by exponent tuples, for
the printer, the command line and the maps between rings.

Every sparse product runs through one multiply-accumulate kernel,
`_mul_into`, which XORs the product of two term dicts into an accumulator
dict and deletes the keys that cancel (the accumulator of Monagan &
Pearce, "Sparse polynomial division using a heap", 2011, without the
heap).  RingPoly products, RingMatrix products and scaling (one
accumulator per matrix entry), exact division and Groebner normal forms
all call it, so no product builds a temporary polynomial to add.

RingDescriptor and RingPoly are gf2k.Immutable values (import Immutable
from gf2k).  RingPoly writes its two slots itself and defines its own
equality and hash, because it is built once per product entry and its
packed terms are a dict.

Text form; space, tab, CR and LF may stand around each atom and after '^':

    poly   := term ('+' term)*
    term   := atom ('*' atom)*
    atom   := '{' uint '}' | uint | var ('^' '-'? uint)?
    uint   := [0-9]+
    var    := a str.isalpha char or '_', then str.isalnum chars or '_'

A bare uint is 0 or 1.  Only ASCII 0-9 are digits, and a number too large
for its place, of any length, is a ParseError with its position.
Coefficients in GF(2) are implicit; extension-field coefficients are
written {n} with n the serialized value, e.g. "{3}*x^-2*y + 1" over
GF(4).  The canonical printed order is graded reverse lexicographic,
largest term first.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Optional, Sequence

from .gf2k import FieldElem, FieldSpec, Immutable, embed

__all__ = [
    "RingDescriptor",
    "RingPoly",
    "ParseError",
    "LANE_BITS",
    "EXP_BOUND",
    "grevlex_key",
    "exact_divide",
    "parse_poly",
]

LANE_BITS = 32
EXP_BOUND = 1 << (LANE_BITS - 2)  # exponents lie in [-EXP_BOUND, EXP_BOUND)
_LANE_MASK = (1 << LANE_BITS) - 1


@cache
def _lanes(nvars: int) -> tuple[int, int]:
    """(BIAS, GUARD) for nvars lanes: EXP_BOUND, and the guard bit, in every lane."""
    bias = sum(EXP_BOUND << (LANE_BITS * i) for i in range(nvars))
    return bias, bias << 1


def _outside(e, name: str) -> str:
    """The message for exponent e (an int, or digits too long for int()) of name."""
    return f"exponent {e} of '{name}' outside [-2^{LANE_BITS - 2}, 2^{LANE_BITS - 2})"


def _overflow() -> ValueError:
    return ValueError(f"exponent overflow: a product exponent leaves [-2^{LANE_BITS - 2}, "
                      f"2^{LANE_BITS - 2})")


class RingDescriptor(Immutable):
    """A (partially) Laurent polynomial ring over GF(2^k)."""

    __slots__ = ("field", "vars", "laurent")

    def __init__(self, field: FieldSpec, vars: tuple[str, ...], laurent: tuple[bool, ...]) -> None:
        super().__init__(field, vars, laurent)
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
        self.pack(exps)
        return tuple(exps)

    def pack(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent vector.  Raises ValueError for a
        wrong length, a negative exponent on a non-Laurent variable, or an
        exponent outside [-EXP_BOUND, EXP_BOUND)."""
        if len(exps) != len(self.vars):
            raise ValueError("exponent vector has wrong length")
        key = shift = 0
        for e, flag, name in zip(exps, self.laurent, self.vars):
            if e < 0 and not flag:
                raise ValueError(f"negative exponent on non-Laurent variable '{name}'")
            if not -EXP_BOUND <= e < EXP_BOUND:
                raise ValueError(_outside(e, name))
            key |= (e + EXP_BOUND) << shift
            shift += LANE_BITS
        return key

    def box_keys(self, bounds: Sequence[tuple[int, int]]) -> list[int]:
        """The packed keys of every exponent vector with lo <= e_i <= hi for
        each (lo, hi) in bounds, in itertools.product order.  Each key is a
        sum of one precomputed term per lane.  An empty box (some lo > hi)
        has no keys; otherwise pack checks the box's two corners, so every
        lane's range is validated once, with pack's messages."""
        if any(lo > hi for lo, hi in bounds):
            return []
        keys = [self.pack([lo for lo, _ in bounds])]
        self.pack([hi for _, hi in bounds])
        for i, (lo, hi) in enumerate(bounds):
            lane = [j << (LANE_BITS * i) for j in range(hi - lo + 1)]
            keys = [key + term for key in keys for term in lane]
        return keys

    @property
    def one_key(self) -> int:
        """The key of 1: a monomial product's key is a + b - one_key."""
        return _lanes(len(self.vars))[0]

    @property
    def guard(self) -> int:
        """No in-range key has a guard bit; (a - b) & guard == 0 iff b divides a."""
        return _lanes(len(self.vars))[1]

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent vector of a packed key."""
        exps = []
        for _ in self.vars:
            exps.append((key & _LANE_MASK) - EXP_BOUND)
            key >>= LANE_BITS
        return tuple(exps)

    def polynomialized(self) -> "RingDescriptor":
        """Same variables with all Laurent flags cleared."""
        return RingDescriptor(self.field, self.vars, (False,) * self.nvars)


def grevlex_key(exps: Sequence[int]):
    """Sort key realizing graded reverse lexicographic order (larger key = larger term)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _mul_into(acc: dict, a: dict, b: dict, ring: RingDescriptor) -> dict:
    """Add the product of the packed term dicts a and b into acc and return acc.

    acc holds only nonzero coefficients before and after: a sum that
    cancels to 0 deletes its key.  Terms of a and b must be nonzero, so no
    single product is 0.  An empty side returns acc at once; a side that is
    one monomial with coefficient 1 only shifts the other side's keys, with
    no field multiplication.
    Every product key is tested against the guard bits; an exponent out of
    range raises ValueError."""
    bias, guard = _lanes(len(ring.vars))
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return acc
    if len(b) == 1:
        (shift, scale), = b.items()
        if scale == 1:
            shift -= bias
            for e, c in a.items():
                e += shift
                if e & guard:
                    raise _overflow()
                c ^= acc.get(e, 0)
                if c:
                    acc[e] = c
                else:
                    del acc[e]
            return acc
    mul = ring.field.mul
    for e1, c1 in a.items():
        e1 -= bias
        for e2, c2 in b.items():
            e = e1 + e2
            if e & guard:
                raise _overflow()
            c = acc.get(e, 0) ^ mul(c1, c2)
            if c:
                acc[e] = c
            else:
                del acc[e]
    return acc


class RingPoly(Immutable):
    """Immutable sparse polynomial; packed maps packed exponent keys to
    nonzero values, and terms is the same map keyed by exponent tuples."""

    __slots__ = ("ring", "packed")

    # __init__ and _raw write the slots through their descriptors: a
    # polynomial is built per product entry, too often to go through the
    # generic Immutable.__init__ or object.__setattr__.
    def __init__(self, ring: RingDescriptor, terms: dict[tuple[int, ...], int]):
        clean: dict[int, int] = {}
        for exps, coeff in terms.items():
            ring.field.validate(coeff)
            if coeff:
                clean[ring.pack(exps)] = coeff
        _set_ring(self, ring)
        _set_packed(self, clean)

    @classmethod
    def _raw(cls, ring: RingDescriptor, packed: dict[int, int]) -> "RingPoly":
        p = object.__new__(cls)
        _set_ring(p, ring)
        _set_packed(p, packed)
        return p

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        """A new dict of the terms keyed by exponent tuples, in the order of packed."""
        unpack = self.ring.unpack
        return {unpack(key): c for key, c in self.packed.items()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "RingPoly":
        return cls._raw(ring, {})

    @classmethod
    def one(cls, ring: RingDescriptor) -> "RingPoly":
        return cls._raw(ring, {ring.one_key: 1})

    @classmethod
    def monomial(cls, ring: RingDescriptor, exps: Sequence[int], coeff: int = 1) -> "RingPoly":
        ring.field.validate(coeff)
        if coeff == 0:
            return cls.zero(ring)
        return cls._raw(ring, {ring.pack(exps): coeff})

    @classmethod
    def variable(cls, ring: RingDescriptor, name: str, power: int = 1) -> "RingPoly":
        exps = [0] * ring.nvars
        exps[ring.var_index(name)] = power
        return cls.monomial(ring, exps)

    # -- structure -----------------------------------------------------------

    def _check_ring(self, other: "RingPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def is_zero(self) -> bool:
        return not self.packed

    def support_bounds(self) -> Optional[list[tuple[int, int]]]:
        """Per-variable (min, max) exponent over all terms; None for the zero polynomial."""
        if not self.packed:
            return None
        return [(min(column), max(column)) for column in zip(*map(self.ring.unpack, self.packed))]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check_ring(other)
        a, b = self.packed, other.packed
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for key, coeff in b.items():
            c = out.get(key, 0) ^ coeff
            if c:
                out[key] = c
            else:
                del out[key]
        return RingPoly._raw(self.ring, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "RingPoly") -> "RingPoly":
        self._check_ring(other)
        return RingPoly._raw(self.ring, _mul_into({}, self.packed, other.packed, self.ring))

    def scale(self, coeff: int) -> "RingPoly":
        field = self.ring.field
        field.validate(coeff)
        if coeff == 0:
            return RingPoly.zero(self.ring)
        if coeff == 1:
            return self
        return RingPoly._raw(
            self.ring,
            {key: field.mul(c, coeff) for key, c in self.packed.items()},
        )

    # Own equality and hash: packed is a dict, which cannot be hashed as a field.
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingPoly)
            and (self.ring is other.ring or self.ring == other.ring)
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.packed.items())))

    # -- calculus and evaluation ----------------------------------------------

    def partial(self, var: int | str) -> "RingPoly":
        """Formal partial derivative: termwise a*x^e -> (e mod 2)*a*x^(e-1).

        The lane of x holds e + EXP_BOUND with EXP_BOUND even, so its low
        bit is e mod 2, and an odd e > -EXP_BOUND leaves e - 1 in range."""
        i = self.ring.var_index(var) if isinstance(var, str) else var
        shift = LANE_BITS * i
        one = 1 << shift
        return RingPoly._raw(
            self.ring, {key - one: c for key, c in self.packed.items() if key >> shift & 1}
        )

    def evaluate(self, point: Sequence[FieldElem]) -> FieldElem:
        """Evaluate at a point over this field or an extension of it; a
        negative exponent uses the coordinate's inverse, computed once."""
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong number of coordinates")
        specs = {p.spec for p in point}
        if len(specs) != 1:
            raise ValueError("field mismatch: point coordinates from different specs")
        spec = specs.pop()
        for p, flag, name in zip(point, self.ring.laurent, self.ring.vars):
            if flag and p.value == 0:
                raise ValueError(f"pole: zero coordinate for Laurent variable '{name}'")
        inverses: dict[int, int] = {}
        acc = 0
        for key, coeff in self.packed.items():
            v = embed(coeff, self.ring.field, spec)
            for i, (p, e) in enumerate(zip(point, self.ring.unpack(key))):
                if e > 0:
                    v = spec.mul(v, spec.pow(p.value, e))
                elif e < 0:
                    if i not in inverses:
                        inverses[i] = spec.inv(p.value)
                    v = spec.mul(v, spec.pow(inverses[i], -e))
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
        terms = self.terms
        if not terms:
            return "0"
        ordered = sorted(terms, key=grevlex_key, reverse=True)
        return " + ".join(self._term_text(e, terms[e]) for e in ordered)

    def __repr__(self) -> str:
        return f"RingPoly({self})"


_set_ring, _set_packed = RingPoly.ring.__set__, RingPoly.packed.__set__


# -- exact division -----------------------------------------------------------


def exact_divide(p: RingPoly, d: RingPoly) -> Optional[RingPoly]:
    """Quotient p/d when d divides p in the ring, else None.

    Both operands are shifted by their monomial content first, so in a
    Laurent ring divisibility is tested up to units, and the unit shift is
    restored (and checked against the Laurent flags) at the end.  The
    division runs in the packed keys' own order, lex with the last
    variable most significant.  With one divisor no order changes the
    answer: every nonzero multiple h*d leads with lt(h)*lt(d), so d divides
    p exactly when each remainder's leading term is a multiple of lt(d),
    and an exact quotient is unique.
    """
    p._check_ring(d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    ring = p.ring
    if p.is_zero():
        return p
    one, guard = ring.one_key, ring.guard
    low_p = [lo for lo, _ in p.support_bounds()]
    low_d = [lo for lo, _ in d.support_bounds()]
    shift_p, shift_d = one - ring.pack(low_p), one - ring.pack(low_d)
    rem = {key + shift_p: c for key, c in p.packed.items()}
    dd = {key + shift_d: c for key, c in d.packed.items()}
    for key in (*rem, *dd):
        if key & guard:  # a shifted exponent is 2^30 or more; pack names it
            ring.pack(ring.unpack(key))
    if any(a < b and not flag for a, b, flag in zip(low_p, low_d, ring.laurent)):
        return None  # the quotient would hold a negative power of a polynomial variable
    lt_d = max(dd)
    field = ring.field
    lc_d_inv = field.inv(dd[lt_d])
    quo: dict[int, int] = {}
    while rem:
        lt = max(rem)
        step = lt - lt_d
        if step & guard:
            return None
        key = step + one
        quo[key] = c = field.mul(rem[lt], lc_d_inv)
        _mul_into(rem, dd, {key: c}, ring)  # cancels lt
    # quo has low corner 0, so the quotient's low corner is the unit shift
    return RingPoly._raw(ring, _mul_into({}, quo, {shift_d - shift_p + one: 1}, ring))


# -- parsing -------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or semantic error in polynomial / file text, with position."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        self.message, self.line, self.col = message, line, col
        super().__init__(f"line {line}, col {col}: {message}")


def _error_at(text: str, pos: int, message: str) -> ParseError:
    """A ParseError at offset pos of text, as a 1-based line and column."""
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _uint(digits: str, most: int) -> Optional[int]:
    """The value of an ASCII digit string, or None above most.  int() never
    reads more digits than most has, however long the string."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(most)) and int(digits) <= most else None


# One atom and the operator after it.  A missing number or '}' matches as an
# empty group, which marks the error's position.  \w is str.isalnum or '_';
# no class is str.isalpha or '_', so _parse_span checks a name's first character.
_ATOM = re.compile(r"""
    (?: \{ (?P<brace>[0-9]*) (?P<close>\}?)
      | (?P<bare>[0-9]+)
      | (?P<name>\w+) (?: \^ [ \t\r\n]* (?P<sign>-?) (?P<power>[0-9]*) )? )
    [ \t\r\n]* (?P<op>[*+]?) [ \t\r\n]*
""", re.VERBOSE)


def parse_poly(text: str, ring: RingDescriptor) -> RingPoly:
    """Parse the text grammar above into a polynomial of the given ring."""
    return _parse_span(text, 0, len(text), ring)


def _parse_span(text: str, start: int, end: int, ring: RingDescriptor) -> RingPoly:
    """parse_poly of text[start:end], with error positions in the whole text.

    An atom's own exponent is checked at the atom's first character, and a
    term's product of atoms at the term's first character."""
    pos = end - len(text[start:end].lstrip(" \t\r\n"))
    if pos == end:
        raise _error_at(text, pos, "empty polynomial")
    field = ring.field
    terms: dict[int, int] = {}
    first, coeff, exps = pos, 1, [0] * ring.nvars
    while True:
        m = _ATOM.match(text, pos, end)
        name = m and m["name"]
        if not m or name and not (name[0].isalpha() or name[0] == "_"):
            raise _error_at(text, pos, "expected a variable name")
        if name:
            if name not in ring.vars:
                raise _error_at(text, pos, f"unknown variable '{name}'")
            i, power = ring.vars.index(name), m["power"]
            if power == "":
                raise _error_at(text, m.start("power"), "expected a number")
            e = 1 if power is None else _uint(power, EXP_BOUND)
            if e is None:  # above 2^30: outside the range whatever the sign
                if ring.laurent[i] or not m["sign"]:
                    raise _error_at(text, pos, _outside(m["sign"] + power.lstrip("0"), name))
                e = 1  # pack names the negative power of a polynomial variable
            atom = [0] * ring.nvars
            atom[i] = e = -e if m["sign"] else e
            try:
                ring.pack(atom)
            except ValueError as exc:
                raise _error_at(text, pos, str(exc)) from None
            exps[i] += e
        elif m["bare"]:
            v = _uint(m["bare"], 1)
            if v is None:
                raise _error_at(text, pos, "bare coefficients must be 0 or 1; use {n} in extension fields")
            coeff = field.mul(coeff, v)
        else:
            if not m["brace"]:
                raise _error_at(text, m.start("brace"), "expected a number")
            if not m["close"]:
                raise _error_at(text, m.start("close"), "expected '}'")
            if field.k == 1:
                raise _error_at(text, pos, "braced coefficients are for extension fields; GF(2) uses 0/1")
            v = _uint(m["brace"], field.order - 1)
            if v is None:
                raise _error_at(text, pos, f"coefficient {m['brace'].lstrip('0')} outside GF(2^{field.k})")
            coeff = field.mul(coeff, v)
        pos = m.end()
        if m["op"] == "*":
            continue
        try:
            key = ring.pack(exps)
        except ValueError as exc:
            raise _error_at(text, first, str(exc)) from None
        c = terms.get(key, 0) ^ coeff
        if c:
            terms[key] = c
        elif key in terms:
            del terms[key]
        if m["op"] != "+":
            break
        first, coeff, exps = pos, 1, [0] * ring.nvars
    if pos != end:
        raise _error_at(text, pos, f"unexpected character '{text[pos]}'")
    return RingPoly._raw(ring, terms)
