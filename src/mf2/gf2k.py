"""Exact arithmetic in the finite fields GF(2^k).

Elements live in the power basis of GF(2)[t]/(m(t)) for an irreducible
modulus m of degree k.  An element is serialized as the integer whose
binary expansion lists its coordinates, constant term in the least
significant bit, so GF(4) with modulus t^2+t+1 (integer 7) consists of
0, 1, t = 2 and t+1 = 3.  Addition is XOR in every GF(2^k); that fact
is relied on throughout the package, which writes it as ^ on the
serialized values and multiplies with FieldSpec.mul.  FieldElem pairs a
value with its spec: it is the coordinate type of points and carries
no operators.

Default moduli:

    k = 1   t + 1        (3)
    k = 2   t^2 + t + 1  (7)
    k = 3   t^3 + t + 1  (11)
    k = 4   t^4 + t + 1  (19)

Larger fields, up to degree MAX_DEGREE, are available by passing an
explicit irreducible modulus.

Inverses: for k <= INV_TABLE_MAX_DEGREE, FieldSpec.inv reads a table of
all 2^k inverses, built on first use per modulus (which fixes k) and kept
in a module-level cache; a larger field inverts by the extended Euclidean
algorithm over GF(2)[t] (Hankerson, Menezes & Vanstone, "Guide to
Elliptic Curve Cryptography", 2004, Algorithm 2.48): at most 2k
shift-and-XOR steps, where Fermat's a^(2^k - 2) takes about 2k field
multiplications.

This module also holds Immutable, the base of every value class in the
package, because it is the bottom of the import graph: the names in a
subclass's __slots__ are its fields, and the base builds, compares,
hashes and prints an instance from them.
"""

from __future__ import annotations

from typing import Iterator

__all__ = [
    "Immutable",
    "FieldSpec",
    "FieldElem",
    "GF2",
    "default_spec",
    "embed",
]

DEFAULT_MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}

# Largest accepted extension degree.  Rabin's test below costs about k
# squarings of k-bit polynomials: about 0.05 s at k = 1024, 1.4 s at 4096.
MAX_DEGREE = 1024

# Largest degree whose inverses are read from a table (2^8 entries).
INV_TABLE_MAX_DEGREE = 8


def _gf2_poly_mod(a: int, m: int) -> int:
    """Remainder of the GF(2)[t] division of a by m (ints as bit vectors)."""
    deg_m = m.bit_length() - 1
    while a.bit_length() - 1 >= deg_m and a:
        a ^= m << (a.bit_length() - 1 - deg_m)
    return a


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_poly_mod(a, b)
    return a


def _gf2_poly_inverse(a: int, m: int) -> int:
    """Inverse of a modulo the irreducible m by the extended Euclidean
    algorithm: u = g1 * a and v = g2 * a (mod m) hold throughout, and each
    step cancels the top bit of u against a shift of v."""
    u, v = _gf2_poly_mod(a, m), m
    if not u:
        raise ZeroDivisionError("inverse of zero in GF(2^k)")
    g1, g2 = 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


# modulus -> tuple of the inverses of 0 .. 2^k - 1 (0 at index 0)
_INV_TABLES: dict[int, tuple[int, ...]] = {}


def _inverse_table(m: int) -> tuple[int, ...]:
    """Build and cache the inverses of every element modulo m."""
    order = 1 << (m.bit_length() - 1)
    table = _INV_TABLES[m] = (0, *(_gf2_poly_inverse(a, m) for a in range(1, order)))
    return table


def _is_irreducible(m: int) -> bool:
    """Rabin's test in its deterministic gcd form (Rabin, "Probabilistic
    algorithms in finite fields", 1980): m of degree k is irreducible iff
    t^(2^k) = t mod m and gcd(t^(2^(k/p)) - t, m) = 1 for every prime p | k.
    It costs about k squarings mod m, where trial division costs 2^(k/2)."""
    k = m.bit_length() - 1
    if k < 1:
        return False
    t = _gf2_poly_mod(0b10, m)

    def frobenius(n: int) -> int:
        """t^(2^n) mod m.  Squaring in GF(2)[t] spreads the bits of a apart,
        which reading its binary digits in base 4 does in one step."""
        a = t
        for _ in range(n):
            a = _gf2_poly_mod(int(format(a, "b"), 4), m)
        return a

    primes = [p for p in range(2, k + 1) if k % p == 0 and all(p % d for d in range(2, p))]
    if any(_gf2_poly_gcd(frobenius(k // p) ^ t, m) != 1 for p in primes):
        return False
    return frobenius(k) == t


class Immutable:
    """Base of the package's value classes.

    The names in a subclass's __slots__ are its fields.  __init__ fills
    them in order; a subclass that checks or derives values does so in its
    own __init__ and then calls super().__init__ with every field.  The
    only way around __init__ is a `_raw` classmethod, which the hot paths
    of RingPoly and RingMatrix use for values they built themselves; it
    writes the slots through their descriptors.  After construction no
    attribute can be assigned or deleted.  Two instances are equal when
    they have the same type and equal fields, the hash is the hash of the
    fields, and the repr is Name(field=value, ...).  Only RingPoly has its
    own equality and hash, because its field of terms is a dict."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} values, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return self is other or (type(self) is type(other) and self._fields() == other._fields())

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FieldSpec(Immutable):
    """GF(2^k) presented by an irreducible degree-k modulus over GF(2)."""

    __slots__ = ("k", "modulus")

    def __init__(self, k: int, modulus: int) -> None:
        super().__init__(k, modulus)
        if self.k < 1:
            raise ValueError("extension degree must be positive")
        if self.k > MAX_DEGREE:
            raise ValueError(f"extension degree {self.k} exceeds the maximum {MAX_DEGREE}")
        if self.modulus.bit_length() - 1 != self.k:
            raise ValueError(
                f"modulus degree {self.modulus.bit_length() - 1} does not match k={self.k}"
            )
        if not _is_irreducible(self.modulus):
            raise ValueError(f"modulus {self.modulus:#b} is reducible")

    @property
    def order(self) -> int:
        return 1 << self.k

    # -- arithmetic on serialized values ------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a & b
        p = 0
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            b >>= 1
        return _gf2_poly_mod(p, self.modulus)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^k)")
        if self.k > INV_TABLE_MAX_DEGREE:
            return _gf2_poly_inverse(a, self.modulus)
        return (_INV_TABLES.get(self.modulus) or _inverse_table(self.modulus))[a]

    def validate(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"value {a} outside GF(2^{self.k})")
        return a

    # -- element constructors ------------------------------------------------

    def element(self, value: int) -> "FieldElem":
        return FieldElem(self, self.validate(value))

    def elements(self) -> Iterator["FieldElem"]:
        """All field elements, ascending in the serialized integer."""
        for v in range(self.order):
            yield FieldElem(self, v)


class FieldElem(Immutable):
    """A field element tied to its FieldSpec: a coordinate of a point.
    Arithmetic runs on the serialized values, through the spec."""

    __slots__ = ("spec", "value")

    def inverse(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0


GF2 = FieldSpec(1, DEFAULT_MODULI[1])


def default_spec(k: int) -> FieldSpec:
    if k not in DEFAULT_MODULI:
        raise ValueError(f"no default modulus for k={k}; pass one explicitly")
    return FieldSpec(k, DEFAULT_MODULI[k])


_EMBED_CACHE: dict[tuple[FieldSpec, FieldSpec], int] = {}


def _evaluate_bits(bits: int, x: int, dst: FieldSpec) -> int:
    """The GF(2)[t] polynomial whose coefficients are the bits of `bits`,
    evaluated at the element x of dst."""
    acc, p = 0, 1
    while bits:
        if bits & 1:
            acc ^= p
        bits >>= 1
        p = dst.mul(p, x)
    return acc


def _embedding_root(src: FieldSpec, dst: FieldSpec) -> int:
    """Smallest root of src's modulus inside dst; defines the embedding."""
    key = (src, dst)
    if key not in _EMBED_CACHE:
        for r in range(dst.order):
            if not _evaluate_bits(src.modulus, r, dst):
                _EMBED_CACHE[key] = r
                break
        else:
            raise ValueError("field mismatch: target is not an extension")
    return _EMBED_CACHE[key]


def embed(value: int, src: FieldSpec, dst: FieldSpec) -> int:
    """Carry a serialized element of src into dst along the power-basis embedding."""
    if src == dst:
        return src.validate(value)
    src.validate(value)
    if src.k == 1:
        return value
    return _evaluate_bits(value, _embedding_root(src, dst), dst)
