"""Field arithmetic tests.

Expected values for GF(4) were derived by hand from the modulus
t^2 + t + 1: t*t = t+1 (3), t*(t+1) = t^2+t = 1, so inv(t) = t+1.
"""

from __future__ import annotations

import random
import time

import pytest

from mf2.gf2k import GF2, FieldSpec, _gf2_poly_mod, _is_irreducible, default_spec, embed


def test_default_moduli():
    assert default_spec(1).modulus == 0b11
    assert default_spec(2).modulus == 0b111
    assert default_spec(3).modulus == 0b1011
    assert default_spec(4).modulus == 0b10011
    with pytest.raises(ValueError):
        default_spec(5)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 0b101)  # t^2 + 1 = (t+1)^2
    with pytest.raises(ValueError):
        FieldSpec(4, 0b10101)  # t^4+t^2+1 = (t^2+t+1)^2
    with pytest.raises(ValueError):
        FieldSpec(3, 0b1111)  # t^3+t^2+t+1 has root 1


def trial_division_irreducible(m: int) -> bool:
    """The trial-division test Rabin's test replaced; oracle for small degrees."""
    k = m.bit_length() - 1
    if k < 1:
        return False
    if k == 1:
        return True
    if not m & 1:  # divisible by t
        return False
    for deg in range(1, k // 2 + 1):
        for d in range(1 << deg, 1 << (deg + 1)):
            if _gf2_poly_mod(m, d) == 0:
                return False
    return True


def clmul(a: int, b: int) -> int:
    """Product in GF(2)[t]."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def test_rabin_matches_trial_division_up_to_degree_12():
    for m in range(2, 1 << 13):
        assert _is_irreducible(m) == trial_division_irreducible(m), bin(m)


def test_large_degree_modulus_is_decided_quickly():
    gcm = (1 << 128) | 0b10000111  # t^128 + t^7 + t^2 + t + 1
    reducible = clmul(0b11, (1 << 64) | 0b11011)  # (t+1)(t^64 + t^4 + t^3 + t + 1)
    start = time.perf_counter()
    spec = FieldSpec(128, gcm)
    assert time.perf_counter() - start < 0.5
    assert spec.mul(spec.inv(2), 2) == 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(65, reducible)
    assert time.perf_counter() - start < 0.5


def test_non_default_irreducible_modulus_accepted():
    # t^4+t^3+t^2+t+1 has no factor of degree <= 2; arithmetic must work
    spec = FieldSpec(4, 0b11111)
    assert spec.mul(2, 2) == 4


def test_gf4_multiplication_table():
    gf4 = default_spec(2)
    t = 2
    assert gf4.mul(t, t) == 3  # t^2 = t + 1
    assert gf4.mul(t, 3) == 1  # t * (t+1) = 1
    assert gf4.inv(t) == 3
    assert gf4.inv(3) == t
    assert gf4.mul(0, t) == 0
    assert gf4.add(t, 3) == 1


def test_gf2_is_plain_boolean_arithmetic():
    assert GF2.mul(1, 1) == 1
    assert GF2.add(1, 1) == 0
    assert GF2.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)


def test_enumeration_order_is_serialized_integer_order():
    gf4 = default_spec(2)
    assert [e.value for e in gf4.elements()] == [0, 1, 2, 3]
    assert [str(e) for e in gf4.elements()] == ["{0}", "{1}", "{2}", "{3}"]


def test_field_axioms_randomized():
    rng = random.Random(1009)
    for k in (1, 2, 3, 4):
        spec = default_spec(k)
        for _ in range(200):
            a = rng.randrange(spec.order)
            b = rng.randrange(spec.order)
            c = rng.randrange(spec.order)
            assert spec.mul(a, spec.mul(b, c)) == spec.mul(spec.mul(a, b), c)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b), spec.mul(a, c))
            assert spec.add(a, a) == 0
            if a:
                assert spec.mul(a, spec.inv(a)) == 1
        # Frobenius: squaring is additive in characteristic 2
        for _ in range(50):
            a = rng.randrange(spec.order)
            b = rng.randrange(spec.order)
            assert spec.pow(spec.add(a, b), 2) == spec.add(spec.pow(a, 2), spec.pow(b, 2))


def test_element_operators():
    gf4 = default_spec(2)
    t = gf4.element(2)
    one = gf4.one()
    assert (t * t).value == 3
    assert (t + one).value == 3
    assert (t ** -1).value == 3
    assert t.inverse() * t == one
    assert t.coeffs == (0, 1)
    with pytest.raises(ValueError):
        gf4.element(4)
    with pytest.raises(ValueError):
        t + GF2.one()


def test_embedding_gf2_into_extensions():
    for k in (2, 3, 4):
        spec = default_spec(k)
        assert embed(0, GF2, spec) == 0
        assert embed(1, GF2, spec) == 1


def test_embedding_gf4_into_gf16():
    gf4 = default_spec(2)
    gf16 = default_spec(4)
    img = {a: embed(a, gf4, gf16) for a in range(4)}
    assert img[0] == 0 and img[1] == 1
    # ring homomorphism on all pairs
    for a in range(4):
        for b in range(4):
            assert embed(gf4.mul(a, b), gf4, gf16) == gf16.mul(img[a], img[b])
            assert embed(gf4.add(a, b), gf4, gf16) == gf16.add(img[a], img[b])
    # image of t satisfies t^2+t+1 = 0 in GF(16)
    r = img[2]
    assert gf16.add(gf16.add(gf16.mul(r, r), r), 1) == 0


def test_embedding_rejects_non_extension():
    gf4 = default_spec(2)
    gf8 = default_spec(3)
    with pytest.raises(ValueError, match="field mismatch"):
        embed(2, gf4, gf8)
