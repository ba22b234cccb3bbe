import random
from fractions import Fraction

import pytest

from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.mpoly import MPoly
from bmwparam import symfun


def random_mpoly(rng, nvars, deg=3, terms=4):
    out = MPoly.zero(nvars)
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = rng.randint(-5, 5)
        out = out + MPoly(nvars, {e: c})
    return out


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(60):
        nvars = rng.randint(1, 3)
        a, b, c = (random_mpoly(rng, nvars) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == MPoly.zero(nvars)


def test_no_stored_zeros():
    p = MPoly(2, {(1, 0): 1}) - MPoly(2, {(1, 0): 1})
    assert p.terms == {}
    q = MPoly(2, {(0, 0): Fraction(2, 2)})
    assert q.terms == {(0, 0): 1}  # normalized to int


def test_eval_examples():
    u1, u2 = MPoly.variables(2)
    assert (u1 + u2).evaluate(QQ, [2, 3]) == QQ(5)
    # eta_0^+ for r=1 is 2u+1, so it evaluates to 5 at u=2
    assert symfun.eta_poly(+1, 0, 1).evaluate(QQ, [QQ(2)]) == QQ(5)
    # q_2 for r=1 at u=1 over a characteristic-2 field vanishes
    F2 = PrimeField(2)
    assert symfun.schur_q_poly(2, 1).evaluate(F2, [F2(1)]) == F2.zero
    F4 = BinaryField(2)
    assert symfun.schur_q_poly(2, 1).evaluate(F4, [F4.gen()]) == F4.zero


def test_eval_rational_coefficients():
    p = MPoly(1, {(1,): Fraction(1, 2)})
    assert p.evaluate(QQ, [4]) == QQ(2)
    F5 = PrimeField(5)
    assert p.evaluate(F5, [F5(4)]) == F5(2)  # 1/2 = 3 in GF(5), 3*4 = 12 = 2


def test_eval_wrong_arity():
    u1, _ = MPoly.variables(2)
    with pytest.raises(ValueError):
        u1.evaluate(QQ, [1])


def test_permuted():
    u1, u2, u3 = MPoly.variables(3)
    p = u1 * u2 ** 2 + u3
    assert p.permuted((1, 0, 2)) == u2 * u1 ** 2 + u3
    assert p.permuted((0, 1, 2)) == p


def test_exact_div_and_integrality():
    u1 = MPoly.var(0, 1)
    p = 2 * u1 + 4
    assert p.exact_div(2) == u1 + 2
    assert p.is_integral()
    with pytest.raises(ValueError):
        (2 * u1 + 1).exact_div(2)
    assert not MPoly(1, {(0,): Fraction(1, 2)}).is_integral()


def test_pow_and_degree():
    u1, u2 = MPoly.variables(2)
    p = (u1 + u2) ** 3
    assert p.total_degree == 3
    assert p.terms[(2, 1)] == 3
    assert (u1 * 0) == MPoly.zero(2)
    assert u1 ** 0 == MPoly.const(2, 1)
