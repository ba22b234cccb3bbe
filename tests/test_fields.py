from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from bmwparam.fields import (QQ, BinaryField, FieldCoercionError, FieldElement,
                             PrimeField, _is_prime, field_from_descriptor)

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(13),
          BinaryField(2), BinaryField(3), BinaryField(4), BinaryField(8)]


def sample(field, seed):
    if field == QQ:
        return field(Fraction(seed % 19 - 9, seed % 5 + 1))
    return FieldElement(field, seed % field.order)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from(range(len(FIELDS))))
def test_ring_axioms(i, j, k, fidx):
    field = FIELDS[fidx]
    a, b, c = sample(field, i), sample(field, j), sample(field, k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + field.zero == a
    assert a * field.one == a
    assert a - a == field.zero


@given(st.integers(0, 10 ** 6), st.sampled_from(range(len(FIELDS))))
def test_inverses(i, fidx):
    field = FIELDS[fidx]
    a = sample(field, i)
    if a:
        assert a * a.inverse() == field.one
        assert a / a == field.one
        assert (a ** -3) * (a ** 3) == field.one


def test_every_nonzero_invertible_exhaustive():
    for field in (PrimeField(5), BinaryField(2), BinaryField(3), BinaryField(4)):
        seen = set()
        for x in field.elements():
            if x:
                inv = x.inverse()
                assert x * inv == field.one
                seen.add(inv.raw)
        assert len(seen) == field.order - 1  # inversion is a bijection


def test_gf4_structure():
    F4 = BinaryField(2)
    x = F4.gen()
    assert x * x == x + F4.one          # x^2 = x + 1
    assert x ** 3 == F4.one             # multiplicative order 3
    assert len(list(F4.elements())) == 4


def test_binary_field_no_zero_divisors():
    for k in (2, 3, 4):
        F = BinaryField(k)
        for a in F.elements():
            for b in F.elements():
                if a and b:
                    assert a * b


def test_frobenius_additive_char2():
    F8 = BinaryField(3)
    for a in F8.elements():
        for b in F8.elements():
            assert (a + b) ** 2 == a ** 2 + b ** 2


def test_int_coercion_hits_prime_subfield():
    F4 = BinaryField(2)
    assert F4(2) == F4.zero
    assert F4(3) == F4.one
    assert F4([0, 1]) == F4.gen()
    F7 = PrimeField(7)
    assert F7(9) == F7(2)
    assert F7(Fraction(1, 2)) == F7(4)  # 2 * 4 = 8 = 1


def test_bad_coercions():
    with pytest.raises(FieldCoercionError):
        PrimeField(5)(Fraction(1, 5))
    with pytest.raises(FieldCoercionError):
        BinaryField(3)(Fraction(1, 2))
    with pytest.raises(FieldCoercionError):
        BinaryField(2)([0, 1, 1])  # too long
    with pytest.raises(FieldCoercionError):
        QQ(1) + PrimeField(5)(1)
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        BinaryField(9)


def test_char_and_rationals():
    assert QQ.char == 0
    assert PrimeField(5).char == 5
    assert BinaryField(4).char == 2
    assert QQ(Fraction(2, 4)) == QQ(Fraction(1, 2))
    assert QQ("3/4") + QQ("1/4") == QQ.one


@pytest.mark.parametrize("text", ["1.5", "1e3", "1e30000000", " 3", "1_0",
                                  "3/-4", "+", "", "\u0663"])
def test_rational_strings_are_n_or_n_over_d(text):
    with pytest.raises(FieldCoercionError, match="n/d"):
        QQ(text)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        QQ.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        BinaryField(2).zero.inverse()


def test_is_prime_agrees_with_trial_division_below_1e5():
    for n in range(100000):
        trial = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert _is_prime(n) == trial, n


def test_is_prime_rejects_pseudoprimes_and_accepts_large_primes():
    # Carmichael numbers, and the least strong pseudoprime to bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        assert not _is_prime(n)
    for p in (2**61 - 1, 1000000000000000003, 2**64 - 59):
        assert _is_prime(p)
    assert not _is_prime((2**31 - 1) * (2**61 - 1))


def test_prime_field_refuses_p_from_2_to_the_64():
    assert PrimeField(2**64 - 59).p == 2**64 - 59
    with pytest.raises(ValueError, match="2\\^64"):
        PrimeField(2**64 + 13)


def test_field_descriptor_roundtrip():
    assert field_from_descriptor({"type": "rational"}) == QQ
    assert field_from_descriptor({"type": "prime", "p": 13}) == PrimeField(13)
    assert field_from_descriptor({"type": "binary", "k": 4}) == BinaryField(4)
    with pytest.raises(ValueError):
        field_from_descriptor({"type": "real"})


def test_element_hash_and_eq_across_instances():
    assert PrimeField(5)(3) == PrimeField(5)(3)
    assert hash(PrimeField(5)(3)) == hash(PrimeField(5)(3))
    assert PrimeField(5)(3) != PrimeField(7)(3)
    assert QQ(2) != 2 and 2 not in {QQ(2)}
    assert PrimeField(7)(9) == PrimeField(7)(2) != 2
    assert PrimeField(7)(9) != 9


def test_binary_moduli_define_fields_exhaustively():
    # a residue ring mod a reducible polynomial has zero divisors; ruling
    # them out for every k certifies the whole irreducible table
    for k in range(1, 9):
        F = BinaryField(k)
        nonzero = [x for x in F.elements() if x]
        for a in nonzero:
            assert a * a.inverse() == F.one
        one = F.one
        for a in nonzero:
            assert a ** (F.order - 1) == one


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(-50, 50),
       st.sampled_from(range(len(FIELDS))))
def test_equality_respects_hash(i, j, n, fidx):
    # equal elements hash alike, so sets and dicts agree with ==; an element
    # never equals an int or a Fraction, whatever value it was made from
    field = FIELDS[fidx]
    a, b = sample(field, i), sample(field, j)
    if a == b:
        assert hash(a) == hash(b)
    twin = FieldElement(field, a.raw)
    assert twin == a and hash(twin) == hash(a) and twin in {a}
    assert field(n) != n and n != field(n)
    assert a != n and a != Fraction(n, 3) and a != a.raw
    assert n not in {field(n)} and field(n) not in {n}

