"""Field arithmetic tests.

Expected values for GF(4) were derived by hand from the modulus
t^2 + t + 1: t*t = t+1 (3), t*(t+1) = t^2+t = 1, so inv(t) = t+1.  The
other references (the product in GF(2)[t], the Fermat inverse and the
trial-division irreducibility test) are the ones in tests/oracles.py,
which share no code with mf2.gf2k.
"""

from __future__ import annotations

import random
import time

import pytest

from oracles import gf_inv, gf_mul, trial_division_irreducible

from mf2.gf2k import (
    GF2,
    INV_TABLE_MAX_DEGREE,
    MAX_DEGREE,
    FieldSpec,
    _INV_TABLES,
    _is_irreducible,
    default_spec,
    embed,
)


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


def test_rabin_matches_trial_division_up_to_degree_12():
    for m in range(2, 1 << 13):
        assert _is_irreducible(m) == trial_division_irreducible(m), bin(m)


def test_large_degree_modulus_is_decided_quickly():
    gcm = (1 << 128) | 0b10000111  # t^128 + t^7 + t^2 + t + 1
    reducible = gf_mul(0b11, (1 << 64) | 0b11011)  # (t+1)(t^64 + t^4 + t^3 + t + 1)
    start = time.perf_counter()
    spec = FieldSpec(128, gcm)
    assert time.perf_counter() - start < 0.5
    assert spec.mul(spec.inv(2), 2) == 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(65, reducible)
    assert time.perf_counter() - start < 0.5


def test_degree_above_the_bound_is_rejected_before_the_irreducibility_test():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the maximum 1024"):
        FieldSpec(100_000, (1 << 100_001) - 1)
    with pytest.raises(ValueError, match="exceeds"):
        FieldSpec(MAX_DEGREE + 1, (1 << MAX_DEGREE + 1) | 1)
    assert time.perf_counter() - start < 0.1
    # the bound is inclusive: degree MAX_DEGREE reaches the irreducibility test
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(MAX_DEGREE, (1 << MAX_DEGREE) | 1)  # (t + 1)^1024


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
    assert t ^ 3 == 1


def test_gf2_is_plain_boolean_arithmetic():
    assert GF2.mul(1, 1) == 1
    assert 1 ^ 1 == 0
    assert GF2.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)


@pytest.mark.parametrize("k", range(1, INV_TABLE_MAX_DEGREE + 1))
def test_table_inverse_matches_fermat_for_every_irreducible_modulus(k):
    moduli = [m for m in range(1 << k, 2 << k) if _is_irreducible(m)]
    assert moduli
    for m in moduli:
        spec = FieldSpec(k, m)
        for a in range(1, spec.order):
            inv = spec.inv(a)
            assert inv == gf_inv(a, m) == spec.pow(a, spec.order - 2)  # Fermat: a^(2^k - 2)
            assert spec.mul(a, inv) == 1
        with pytest.raises(ZeroDivisionError):
            spec.inv(0)


def test_euclid_inverse_at_degree_64():
    spec = FieldSpec(64, 0x1000000000000001B)
    rng = random.Random(6401)
    for _ in range(500):
        a = rng.randrange(1, spec.order)
        inv = spec.inv(a)
        assert 0 < inv < spec.order  # reduced, so mul's own reduction hides nothing
        assert spec.mul(a, inv) == gf_mul(a, inv, spec.modulus) == 1
    assert spec.inv(1) == 1
    assert spec.modulus not in _INV_TABLES  # no 2^64-entry table
    with pytest.raises(ZeroDivisionError):
        spec.inv(0)


def test_enumeration_order_is_serialized_integer_order():
    gf4 = default_spec(2)
    assert [e.value for e in gf4.elements()] == [0, 1, 2, 3]


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
            assert spec.mul(a, b ^ c) == spec.mul(a, b) ^ spec.mul(a, c)
            assert a ^ a == 0
            if a:
                assert spec.mul(a, spec.inv(a)) == 1
        # Frobenius: squaring is additive in characteristic 2
        for _ in range(50):
            a = rng.randrange(spec.order)
            b = rng.randrange(spec.order)
            assert spec.pow(a ^ b, 2) == spec.pow(a, 2) ^ spec.pow(b, 2)


def test_element_inverse_truth_and_range():
    gf4 = default_spec(2)
    t = gf4.element(2)
    one = gf4.element(1)
    assert gf4.mul(t.value, t.value) == 3
    assert t.value ^ one.value == 3
    assert t.inverse() == gf4.element(3)
    assert gf4.mul(t.inverse().value, t.value) == one.value
    assert t and one and not gf4.element(0)
    with pytest.raises(ValueError):
        gf4.element(4)
    with pytest.raises(ZeroDivisionError):
        gf4.element(0).inverse()


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
            assert embed(a ^ b, gf4, gf16) == img[a] ^ img[b]
    # image of t satisfies t^2+t+1 = 0 in GF(16)
    r = img[2]
    assert gf16.mul(r, r) ^ r ^ 1 == 0


def test_embedding_rejects_non_extension():
    gf4 = default_spec(2)
    gf8 = default_spec(3)
    with pytest.raises(ValueError, match="field mismatch"):
        embed(2, gf4, gf8)
