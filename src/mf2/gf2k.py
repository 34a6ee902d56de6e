"""Exact arithmetic in the finite fields GF(2^k).

Elements live in the power basis of GF(2)[t]/(m(t)) for an irreducible
modulus m of degree k.  An element is serialized as the integer whose
binary expansion lists its coordinates, constant term in the least
significant bit, so GF(4) with modulus t^2+t+1 (integer 7) consists of
0, 1, t = 2 and t+1 = 3.  Addition is XOR in every GF(2^k); that fact
is relied on throughout the package.

Default moduli:

    k = 1   t + 1        (3)
    k = 2   t^2 + t + 1  (7)
    k = 3   t^3 + t + 1  (11)
    k = 4   t^4 + t + 1  (19)

Larger fields are available by passing an explicit irreducible modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FieldSpec",
    "FieldElem",
    "GF2",
    "default_spec",
    "embed",
]

DEFAULT_MODULI = {1: 0b11, 2: 0b111, 3: 0b1011, 4: 0b10011}


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


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^k) presented by an irreducible degree-k modulus over GF(2)."""

    k: int
    modulus: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("extension degree must be positive")
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

    def add(self, a: int, b: int) -> int:
        return a ^ b

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
        # Fermat: a^(2^k - 2)
        return self.pow(a, self.order - 2)

    def validate(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"value {a} outside GF(2^{self.k})")
        return a

    # -- element constructors ------------------------------------------------

    def element(self, value: int) -> "FieldElem":
        return FieldElem(self, self.validate(value))

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self) -> Iterator["FieldElem"]:
        """All field elements, ascending in the serialized integer."""
        for v in range(self.order):
            yield FieldElem(self, v)


@dataclass(frozen=True)
class FieldElem:
    """A field element tied to its FieldSpec; operators stay inside one spec."""

    spec: FieldSpec
    value: int

    def _check(self, other: "FieldElem") -> None:
        if self.spec != other.spec:
            raise ValueError("field mismatch: operands from different field specs")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Power-basis coordinates, constant term first."""
        return tuple((self.value >> i) & 1 for i in range(self.spec.k))

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.spec, self.value ^ other.value)

    __sub__ = __add__

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(self.spec, self.spec.mul(self.value, other.value))

    def __pow__(self, e: int) -> "FieldElem":
        return FieldElem(self.spec, self.spec.pow(self.value, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.spec, self.spec.inv(self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        if self.spec.k == 1:
            return str(self.value)
        return "{%d}" % self.value


GF2 = FieldSpec(1, DEFAULT_MODULI[1])


def default_spec(k: int) -> FieldSpec:
    if k not in DEFAULT_MODULI:
        raise ValueError(f"no default modulus for k={k}; pass one explicitly")
    return FieldSpec(k, DEFAULT_MODULI[k])


_EMBED_CACHE: dict[tuple[FieldSpec, FieldSpec], int] = {}


def _embedding_root(src: FieldSpec, dst: FieldSpec) -> int:
    """Smallest root of src's modulus inside dst; defines the embedding."""
    key = (src, dst)
    if key not in _EMBED_CACHE:
        mod_coeffs = [(src.modulus >> i) & 1 for i in range(src.k + 1)]
        for r in range(dst.order):
            acc, p = 0, 1
            for c in mod_coeffs:
                if c:
                    acc ^= p
                p = dst.mul(p, r)
            if acc == 0:
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
    root = _embedding_root(src, dst)
    acc, p = 0, 1
    for i in range(src.k):
        if (value >> i) & 1:
            acc ^= p
        p = dst.mul(p, root)
    return acc
