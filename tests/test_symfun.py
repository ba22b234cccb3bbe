import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import eta_generating_series

from bmwparam import symfun
from bmwparam.fields import QQ, BinaryField, FieldElement, PrimeField
from bmwparam.mpoly import MPoly
from bmwparam.univar import Series


# ------------------------------------------------------------------ oracle
def oracle_q_list(us, order):
    """Schur q coefficients by dict-based series multiplication over
    Fraction scalars; independent of MPoly and of symfun internals."""
    acc = [Fraction(1)] + [Fraction(0)] * order
    for u in us:
        fac = [Fraction(1)] + [2 * Fraction(u) ** k for k in range(1, order + 1)]
        acc = [sum(acc[i] * fac[k - i] for i in range(k + 1))
               for k in range(order + 1)]
    return acc


def oracle_eta_list(us, order, sign):
    r = len(us)
    qs = oracle_q_list(us, order + 1)
    out = []
    for a in range(order + 1):
        v = qs[a + 1] + sign * Fraction((-1) ** (r - 1), 2) * qs[a]
        if a == 0:
            v += Fraction(1, 2)
        out.append(v)
    return out


# ------------------------------------------------------------- elem sym
def test_elem_sym_values():
    u = MPoly.variables(2)
    assert symfun.elem_sym(0, u) == MPoly.const(2, 1)
    assert symfun.elem_sym(2, u) == u[0] * u[1]
    assert symfun.elem_sym(1, u) == u[0] + u[1]
    with pytest.raises(IndexError):
        symfun.elem_sym(3, u)


def test_char_poly_coeffs_signed_elementary():
    # a_j = (-1)^(r-j) eps_{r-j}; a_0 for r=1, u=(2) is -2, so p(y) = y - 2
    a = symfun.char_poly_coeffs([QQ(2)])
    assert [c.raw for c in a] == [-2, 1]
    u = MPoly.variables(3)
    a = symfun.char_poly_coeffs(u)
    for j in range(4):
        expect = symfun.elem_sym(3 - j, u) * ((-1) ** (3 - j))
        assert a[j] == expect


# ------------------------------------------------------------- schur q
def test_schur_q_base_cases():
    u = MPoly.variables(2)
    assert symfun.schur_q(0, u) == MPoly.const(2, 1)  # q_0 = 1
    # r = 1: q_a = 2 u^a for a >= 1
    v = MPoly.variables(1)
    for a in range(1, 6):
        assert symfun.schur_q(a, v) == 2 * v[0] ** a


def test_schur_q_two_variables_frozen():
    u = MPoly.variables(2)
    assert symfun.schur_q(2, u) == 2 * u[0] ** 2 + 2 * u[1] ** 2 + 4 * u[0] * u[1]


def test_schur_q_matches_oracle_numeric():
    us = [Fraction(2), Fraction(-3), Fraction(1, 2)]
    want = oracle_q_list(us, 7)
    got = symfun.schur_q_series([QQ(x) for x in us], 7)
    assert [c.raw for c in got.coeffs] == want


def test_schur_q_symmetry():
    for r in (2, 3, 4):
        u = MPoly.variables(r)
        q3 = symfun.schur_q(3, u)
        for perm in itertools.permutations(range(r)):
            assert q3.permuted(perm) == q3


# ------------------------------------------------------------- half q
def test_half_q():
    v = MPoly.variables(1)
    for a in range(1, 5):
        assert symfun.half_q(a, v) == v[0] ** a
    u = MPoly.variables(2)
    assert symfun.half_q(1, u) == u[0] + u[1]
    with pytest.raises(IndexError):
        symfun.half_q(0, u)


def test_half_q_char2_is_power_sum():
    # over GF(2): (1/2) q_3 at (1, 1) = 1^3 + 1^3 = 0
    F2 = PrimeField(2)
    assert symfun.half_q(3, [F2(1), F2(1)]) == F2.zero
    F4 = BinaryField(2)
    x = F4.gen()
    for a in range(1, 6):
        assert symfun.half_q(a, [x, F4.one]) == x ** a + F4.one


# ------------------------------------------------------------- eta
def test_eta_rank_one_closed_form():
    v = MPoly.variables(1)
    assert symfun.eta(+1, 0, v) == 2 * v[0] + 1
    for a in range(1, 8):
        assert symfun.eta(+1, a, v) == 2 * v[0] ** (a + 1) + v[0] ** a


def test_eta_rank_two_value():
    u = MPoly.variables(2)
    assert symfun.eta(+1, 0, u) == 2 * (u[0] + u[1])


def test_eta_char2_evaluation():
    # eta_0^+ = [r odd], eta_a^+ = p_a for a >= 1 in characteristic 2
    F4 = BinaryField(2)
    x = F4.gen()
    for us in ([x], [x, F4.one], [x, x + F4.one, F4.one]):
        r = len(us)
        vals = symfun.eta_values(+1, us, 6)
        assert vals[0] == (F4.one if r % 2 == 1 else F4.zero)
        for a in range(1, 7):
            assert vals[a] == symfun.power_sum(a, us)


def test_eta_numeric_matches_oracle():
    us = [Fraction(2), Fraction(5)]
    for sign in (+1, -1):
        want = oracle_eta_list(us, 8, sign)
        got = symfun.eta_values(sign, [QQ(x) for x in us], 8)
        assert [c.raw for c in got] == want


def test_eta_integrality():
    for r in range(1, 5):
        for a in range(13):
            for sign in (+1, -1):
                assert symfun.eta_poly(sign, a, r).is_integral()


def test_evaluators_on_variables_match_cached_builders():
    for r in range(1, 5):
        u = MPoly.variables(r)
        for a in range(10):
            for sign in (+1, -1):
                assert symfun.eta(sign, a, u) == symfun.eta_poly(sign, a, r)
            if a:
                assert symfun.half_q(a, u) == symfun.half_q_poly(a, r)
                assert symfun.schur_q(a, u) == symfun.schur_q_poly(a, r)
    with pytest.raises(IndexError):
        symfun.eta(+1, -1, MPoly.variables(2))


def test_eta_symmetry():
    for r in (2, 3, 4):
        p = symfun.eta_poly(+1, 4, r)
        for perm in itertools.permutations(range(r)):
            assert p.permuted(perm) == p


def test_eta_generating_series_matches_definition():
    for r in (1, 2, 3):
        u = MPoly.variables(r)
        for sign in (+1, -1):
            gen = eta_generating_series(sign, u, 8)
            for a in range(9):
                assert gen[a] == symfun.eta_poly(sign, a, r), (r, sign, a)


def test_eta_generating_series_numeric():
    us = [QQ(3), QQ(Fraction(-1, 2))]
    assert eta_generating_series(+1, us, 10) == symfun.eta_values(+1, us, 10)
    with pytest.raises(ValueError):
        eta_generating_series(+1, [PrimeField(2)(1)], 4)


# ------------------------------------------------------------- mod 4
def test_q_congruent_2p_mod4():
    for r in (1, 2, 3):
        u = MPoly.variables(r)
        for a in range(1, 9):
            diff = symfun.schur_q_poly(a, r) - 2 * symfun.power_sum(a, u)
            assert all(isinstance(c, int) and c % 4 == 0
                       for c in diff.terms.values()), (r, a)


# ------------------------------------------------------------- H_a
def test_universal_H_small_cases():
    v = MPoly.variables(1)
    assert symfun.universal_H(0, 1) == 2 * v[0] + 1
    u = MPoly.variables(2)
    s = u[0] + u[1]
    assert symfun.universal_H(0, 2) == 2 * s
    assert symfun.universal_H(1, 2) == 2 * s * s - s


def test_universal_H_equals_eta():
    for r in (1, 2, 3):
        for a in range(9):
            assert symfun.universal_H(a, r) == symfun.eta_poly(+1, a, r), (r, a)


def test_universal_H_symmetry():
    for r in (2, 3):
        p = symfun.universal_H(5, r)
        for perm in itertools.permutations(range(r)):
            assert p.permuted(perm) == p


def test_symbolic_caps():
    with pytest.raises(ValueError):
        symfun.eta_poly(+1, 25, 2)
    with pytest.raises(ValueError):
        symfun.universal_H(2, 7)


def test_eta_value_paths_agree_odd_characteristic():
    # the direct series route (needs 1/2) and the integer-polynomial route
    # are the same universal polynomials; compare them over GF(7)
    F7 = PrimeField(7)
    for us in ([F7(3)], [F7(2), F7(5)], [F7(1), F7(4), F7(6)]):
        series_route = symfun.eta_values(+1, us, 8)
        poly_route = [symfun.eta_poly(+1, a, len(us)).evaluate(F7, us)
                      for a in range(9)]
        assert series_route == poly_route


# ------------------------------------------- long division against oracles
# symfun evaluates h_a = q_a / 2 by one long division in the field of the
# roots.  Two other routes: the product of r truncated factors
# (1 + x t)/(1 - x t), run on a lift of the roots in characteristic 2, and
# the evaluation of the integer polynomials q_a / 2 and eta_a (the latter
# built from its definition over Q).

def product_q_series(xs, order, one):
    """q_0..q_order as r truncated products of
    (1 + x t)/(1 - x t) = 1 + 2xt + 2x^2 t^2 + ...; O(r N^2)."""
    acc = Series([one] + [one - one] * order)
    for x in xs:
        factor = [one]
        pw = one
        for _ in range(order):
            pw = pw * x
            factor.append(pw + pw)
        acc = acc * Series(factor)
    return acc


class Z4Lift:
    """An element of Z/4[x]/(M), M the integer lift of the modulus of a
    characteristic-2 field F = GF(2)[x]/(m); GF(2) itself is the case k = 1.

    Integer polynomials commute with the lift, and 2 P mod 4 determines
    P mod 2, so the definitions, which need 1/2, can be run doubled on the
    lifted roots here and read off in F.
    """

    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field = field
        self.c = tuple(v % 4 for v in c)

    @classmethod
    def lift(cls, x):
        k = getattr(x.field, "k", 1)
        return cls(x.field, [(x.raw >> i) & 1 for i in range(k)])

    def __add__(self, other):
        return Z4Lift(self.field, [a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return Z4Lift(self.field, [a - b for a, b in zip(self.c, other.c)])

    def __mul__(self, other):
        k = len(self.c)
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                prod[i + j] += a * b
        m = getattr(self.field, "modulus", 0)
        for d in range(2 * k - 2, k - 1, -1):  # x^k = -(M - x^k)
            top, prod[d] = prod[d], 0
            for i in range(k):
                if (m >> i) & 1:
                    prod[d - k + i] -= top
        return Z4Lift(self.field, prod[:k])

    def halved(self):
        """P in F, for this element 2 P."""
        assert all(v % 2 == 0 for v in self.c), self.c
        return FieldElement(self.field,
                            sum((v // 2) << i for i, v in enumerate(self.c)))


def product_route(us, order):
    """h_1..h_{order+1} (index 0 unused) and eta_0^{+-}..eta_order^{+-} from
    the product route and the definitions of q_a / 2 and eta_a."""
    field = us[0].field
    r = len(us)
    if field.char == 2:
        one = Z4Lift.lift(field.one)
        qs = product_q_series([Z4Lift.lift(u) for u in us], order + 1, one)
        halves = [None] + [qs[a].halved() for a in range(1, order + 2)]
        etas = {}
        for sign in (+1, -1):
            c = sign * (-1) ** (r - 1)
            # 2 eta_a = 2 q_{a+1} + c q_a + [a = 0]
            twice = [qs[a + 1] + qs[a + 1] + (qs[a] if c > 0 else one - one - qs[a])
                     for a in range(order + 1)]
            twice[0] = twice[0] + one
            etas[sign] = [v.halved() for v in twice]
        return halves, etas
    qs = product_q_series(us, order + 1, field.one)
    half = field(Fraction(1, 2))
    halves = [None] + [qs[a] * half for a in range(1, order + 2)]
    etas = {}
    for sign in (+1, -1):
        c = half * (sign * (-1) ** (r - 1))
        etas[sign] = [qs[a + 1] + c * qs[a] + (half if a == 0 else field.zero)
                      for a in range(order + 1)]
    return halves, etas


ORACLE_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(10007),
                 BinaryField(8)]
# the integer polynomials grow fast with r, and so does evaluating them:
# check all a <= 24 for r <= 3, and fewer indices above
POLY_ROUTE_A = {1: 24, 2: 24, 3: 24, 4: 12, 5: 8, 6: 6}


def _roots(field, r, seed):
    rng = random.Random(seed)
    if field == QQ:
        return [QQ(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(r)]
    return [FieldElement(field, rng.randrange(field.order)) for _ in range(r)]


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_long_division_matches_product_route(field, r):
    order = 60
    us = _roots(field, r, seed=1000 * r + 7)
    halves, etas = product_route(us, order)
    for sign in (+1, -1):
        assert symfun.eta_values(sign, us, order) == etas[sign], sign
    for a in range(1, order + 2):
        assert symfun.half_q(a, us) == halves[a], a
    assert symfun.schur_q_series(us, order) \
        == product_q_series(us, order, field.one)


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_long_division_matches_integer_polynomials(field, r):
    top = POLY_ROUTE_A[r]
    us = _roots(field, r, seed=1000 * r + 11)
    for sign in (+1, -1):
        want = [symfun.eta_poly(sign, a, r).evaluate(field, us)
                for a in range(top + 1)]
        assert symfun.eta_values(sign, us, top) == want, sign
    for a in range(1, top + 1):
        assert symfun.half_q(a, us) == symfun.half_q_poly(a, r).evaluate(field, us)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_FIELDS), st.integers(1, 6),
       st.sampled_from((+1, -1)), st.integers(0, 40), st.data())
def test_long_division_random_roots(field, r, sign, order, data):
    if field == QQ:
        draw = st.fractions(-20, 20, max_denominator=9).map(QQ)
    else:
        draw = st.integers(0, field.order - 1).map(
            lambda v: FieldElement(field, v))
    us = data.draw(st.lists(draw, min_size=r, max_size=r))
    halves, etas = product_route(us, order)
    assert symfun.eta_values(sign, us, order) == etas[sign]
    assert symfun.half_q(order + 1, us) == halves[order + 1]

