import functools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from bmwparam.fields import QQ, BinaryField, FieldElement, PrimeField
from bmwparam.univar import (PoleAtInfinityError, Poly, RatFunc, Series,
                             SplitError, poly_gcd)


# ---------------------------------------------------------------- oracle
def oracle_series_at_infinity(num, den, order):
    """Independent long division over Fraction lists (ascending coeffs)."""
    b = len(den) - 1
    a = len(num) - 1
    assert a <= b and den[b] != 0
    num_s = [Fraction(0)] * (b - a) + list(reversed(num))
    den_s = list(reversed(den))
    rem = list(num_s) + [Fraction(0)] * (order + 1)
    out = []
    for k in range(order + 1):
        c = rem[k] / den_s[0]
        out.append(c)
        for j, d in enumerate(den_s):
            if k + j < len(rem):
                rem[k + j] -= c * d
    return out


def _scan_roots(f):
    """Roots of f by scanning every field element, O(|F|) per root: the
    reference for the finite-field splitter."""
    field = f.field
    p = f.monic()
    roots = []
    while p.degree > 0:
        r = next((x for x in field.elements() if not p(x)), None)
        if r is None:
            raise SplitError(
                f"{f!r} does not split into linear factors over {field}")
        roots.append(r)
        p = p // Poly(field, (-r, field.one))
    return roots


# element-wise polynomial arithmetic on tuples of field elements (lowest
# degree first, no trailing zeros): the reference for the raw kernels
def _ew_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _ew_mul(field, a, b):
    if not a or not b:
        return ()
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ew_trim(out)


def _ew_divmod(field, a, b):
    if len(a) < len(b):
        return (), tuple(a)
    rem = list(a)
    dd = len(b) - 1
    inv_lead = b[-1].inverse()
    quot = [field.zero] * (len(a) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[dd + k] * inv_lead
        quot[k] = c
        for j in range(dd + 1):
            rem[j + k] = rem[j + k] - c * b[j]
    return _ew_trim(quot), _ew_trim(rem[:dd])


def _ew_eval(field, a, x):
    acc = field.zero
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _ew_normalized(field, num, den):
    """(num, den) / gcd with den monic, by Euclid on field elements."""
    if not num:
        return (), (field.one,)
    a, b = num, den
    while b:
        a, b = b, _ew_divmod(field, a, b)[1]
    num, den = _ew_divmod(field, num, a)[0], _ew_divmod(field, den, a)[0]
    inv = den[-1].inverse()
    return tuple(c * inv for c in num), tuple(c * inv for c in den)


def _divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _rational_root(coeffs):
    """The first root of a Fraction coefficient list among 0, then
    +- (divisor of a_0) / (divisor of lead) by the rational root theorem,
    scanned by numerator, then denominator, then sign."""
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    content = gcd(*ints)
    ints = [c // content for c in ints]
    lead, const = ints[-1], ints[0]
    if const == 0:
        return Fraction(0)
    for num in _divisors(const):
        for den in _divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * cand + c
                if not acc:
                    return cand
    return None


def _trial_division_roots(f):
    """Roots of f over QQ by trial division, one root at a time, with plain
    Fractions: the reference for the Hensel-lifting root finder."""
    coeffs = [c.raw / f.coeffs[-1].raw for c in f.coeffs]
    roots = []
    while len(coeffs) > 1 and (r := _rational_root(coeffs)) is not None:
        roots.append(QQ(r))
        quot = [Fraction(0)] * (len(coeffs) - 1)
        carry = Fraction(0)
        for k in range(len(coeffs) - 1, 0, -1):
            carry = carry * r + coeffs[k]
            quot[k - 1] = carry
        coeffs = quot
    if len(coeffs) > 1:
        raise SplitError(f"{f!r} does not split into linear factors over QQ")
    return roots


def ratfunc(num, den, field=QQ):
    return RatFunc(Poly(field, num), Poly(field, den))


# ---------------------------------------------------------------- series
def test_series_geometric():
    # t/(t-u) = 1 + u/t + u^2/t^2 + ...
    f = ratfunc([0, 1], [-2, 1])
    assert f.series_at_infinity(3).coeffs == (QQ(1), QQ(2), QQ(4), QQ(8))


def test_series_even_denominator():
    # frozen from the long-division oracle: t^2/(t^2-1) -> 1 + t^-2 + t^-4
    f = ratfunc([0, 0, 1], [-1, 0, 1])
    expected = oracle_series_at_infinity([Fraction(0), Fraction(0), Fraction(1)],
                                         [Fraction(-1), Fraction(0), Fraction(1)], 4)
    assert expected == [1, 0, 1, 0, 1]
    assert [c.raw for c in f.series_at_infinity(4).coeffs] == expected


def test_series_b_function_leading_coefficient():
    # B(t) = (t+q)(t-q^{-1}) / ((q-q^{-1})(t^2-1)) at q=2: value at
    # infinity is (q-q^{-1})^{-1} = 2/3
    q = Fraction(2)
    num = [Fraction(-1), q - 1 / q, Fraction(1)]       # (t+q)(t-1/q)
    den = [-(q - 1 / q), Fraction(0), q - 1 / q]       # (q-1/q)(t^2-1)
    f = ratfunc(num, den)
    assert f.series_at_infinity(0)[0] == QQ(Fraction(2, 3))
    assert oracle_series_at_infinity(num, den, 0)[0] == Fraction(2, 3)


def test_series_pole_at_infinity_rejected():
    f = ratfunc([0, 0, 1], [1, 1])
    with pytest.raises(PoleAtInfinityError):
        f.series_at_infinity(3)


def test_series_against_oracle_random():
    rng = random.Random(7)
    for _ in range(40):
        db = rng.randint(1, 4)
        da = rng.randint(0, db)
        num = [Fraction(rng.randint(-4, 4)) for _ in range(da)] + [Fraction(rng.randint(1, 4))]
        den = [Fraction(rng.randint(-4, 4)) for _ in range(db)] + [Fraction(rng.randint(1, 4))]
        f = ratfunc(num, den)
        got = f.series_at_infinity(6)
        want = oracle_series_at_infinity(num, den, 6)
        assert [c.raw for c in got.coeffs] == want


def test_series_multiplicativity():
    rng = random.Random(11)
    for _ in range(25):
        def rand_ratfunc():
            db = rng.randint(1, 3)
            num = [QQ(rng.randint(-3, 3)) for _ in range(db)] + [QQ(rng.randint(1, 3))]
            den = [QQ(rng.randint(-3, 3)) for _ in range(db)] + [QQ(rng.randint(1, 3))]
            return ratfunc(num, den)
        f, g = rand_ratfunc(), rand_ratfunc()
        assert (f * g).series_at_infinity(5) == \
            f.series_at_infinity(5) * g.series_at_infinity(5)


def test_series_round_trips_finite_field():
    F5 = PrimeField(5)
    f = RatFunc(Poly(F5, (0, 1)), Poly(F5, (-2, 1)))
    assert [c.raw for c in f.series_at_infinity(4).coeffs] == [1, 2, 4, 3, 1]


# ------------------------------------------------------- t -> 1/t
def test_substitute_inverse_basic():
    t = RatFunc.t(QQ)
    assert t.substitute_inverse_t() == 1 / t
    f = ratfunc([0, 0, 1], [-1, 0, 1])  # t^2/(t^2-1)
    g = f.substitute_inverse_t()
    assert g == ratfunc([1], [1, 0, -1])  # 1/(1-t^2)


@settings(max_examples=60)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_substitute_inverse_involution(nums, dens):
    num = Poly(QQ, nums)
    den = Poly(QQ, dens)
    if num.is_zero() or den.is_zero():
        return
    f = RatFunc(num, den)
    assert f.substitute_inverse_t().substitute_inverse_t() == f


def test_substitute_inverse_respects_products():
    rng = random.Random(5)
    for _ in range(20):
        f = ratfunc([rng.randint(1, 5), rng.randint(1, 5)], [rng.randint(1, 5), 0, 1])
        g = ratfunc([0, rng.randint(1, 5)], [1, rng.randint(1, 5)])
        assert (f * g).substitute_inverse_t() == \
            f.substitute_inverse_t() * g.substitute_inverse_t()


# ------------------------------------------------------- ratfunc algebra
def test_ratfunc_normalization_unique():
    f = ratfunc([2, 2], [0, 4, 4])        # (2t+2)/(4t^2+4t) = 1/(2t)
    assert f.num == Poly(QQ, (QQ(Fraction(1, 2)),))
    assert f.den == Poly(QQ, (0, 1))
    assert f == ratfunc([1], [0, 2])


def test_ratfunc_field_axioms_random():
    rng = random.Random(13)
    for _ in range(20):
        def rnd():
            return ratfunc([rng.randint(-3, 3), rng.randint(1, 3)],
                           [rng.randint(-3, 3), rng.randint(1, 3)])
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == RatFunc.constant(QQ, 0)
        if not b.is_zero():
            assert (a / b) * b == a


def test_poly_divmod_and_gcd():
    rng = random.Random(17)
    for _ in range(30):
        a = Poly(QQ, [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        b = Poly(QQ, [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree
        g = poly_gcd(a, b)
        if not g.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()


def test_roots_rational():
    p = Poly.from_roots(QQ, [QQ(2), QQ(Fraction(-1, 3)), QQ(2)])
    roots = p.roots_with_multiplicity()
    assert sorted(r.raw for r in roots) == [Fraction(-1, 3), 2, 2]
    with pytest.raises(SplitError):
        Poly(QQ, (1, 0, 1)).roots_with_multiplicity()  # t^2 + 1


def test_roots_finite_fields():
    F5 = PrimeField(5)
    assert sorted(r.raw for r in Poly(F5, (1, 0, 1)).roots_with_multiplicity()) == [2, 3]
    F4 = BinaryField(2)
    x = F4.gen()
    p = Poly.from_roots(F4, [x, x + F4.one])
    assert set(p.roots_with_multiplicity()) == {x, x + F4.one}
    with pytest.raises(SplitError):
        # x^2 + x + 1 is the defining irreducible of GF(4), so it has no
        # roots over GF(2)
        Poly(PrimeField(2), (1, 1, 1)).roots_with_multiplicity()


SMALL_PRIMES = [p for p in range(2, 102) if all(p % d for d in range(2, p))]


@functools.lru_cache(maxsize=None)
def _irreducible_quadratic(field):
    """The first monic t^2 + a t + b, in scan order, with no root in field."""
    for a in field.elements():
        for b in field.elements():
            f = Poly(field, (b, a, field.one))
            if all(f(x) for x in field.elements()):
                return f
    raise AssertionError(f"no irreducible quadratic over {field}")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_PRIMES).map(PrimeField),
                 st.integers(1, 8).map(BinaryField)),
       st.lists(st.one_of(st.just(0), st.integers(0, 255)), max_size=8),
       st.integers(1, 255), st.booleans())
def test_roots_match_element_scan(field, picks, scale, irreducible):
    elements = list(field.elements())
    roots = [elements[i % field.order] for i in picks]
    f = Poly.from_roots(field, roots) * elements[1 + scale % (field.order - 1)]
    if irreducible:
        f = f * _irreducible_quadratic(field)
    try:
        expected = _scan_roots(f)
    except SplitError as ex:
        with pytest.raises(SplitError) as got:
            f.roots_with_multiplicity()
        assert str(got.value) == str(ex)
    else:
        assert f.roots_with_multiplicity() == expected
        assert sorted(r.raw for r in expected) == sorted(r.raw for r in roots)


def test_roots_large_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    p = 2**61 - 1
    F = PrimeField(p)
    rng = random.Random(61)
    raws = [rng.randrange(p) for _ in range(4)]
    raws += [raws[1], 0]                         # a repeated root and zero
    f = Poly.from_roots(F, [F(r) for r in raws]) * F(7)
    assert f.degree == 6
    got = f.roots_with_multiplicity()
    t = sympy.symbols("t")
    ref = sympy.Poly([c.raw for c in reversed(f.coeffs)], t, modulus=p)
    expected = []
    for factor, mult in ref.factor_list()[1]:
        assert factor.degree() == 1
        expected += [(-factor.all_coeffs()[1]) % p] * mult
    assert [r.raw for r in got] == sorted(expected) == sorted(raws)


QQ_IRREDUCIBLE = [(1, 0, 1), (-2, 0, 1), (3, 1, 2), (-1, -1, 1),
                  (Fraction(1, 3), 0, 5)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-9, 9),
                                    st.integers(1, 4))), max_size=8),
       st.integers(0, 3),
       st.builds(Fraction, st.integers(1, 30), st.integers(1, 6)),
       st.booleans(),
       st.sampled_from([None] + QQ_IRREDUCIBLE))
def test_rational_roots_match_trial_division(picks, repeats, scale, negate,
                                            quadratic):
    roots = picks + picks[:repeats]
    f = Poly.from_roots(QQ, roots) * QQ(-scale if negate else scale)
    if quadratic is not None:
        f = f * Poly(QQ, quadratic)
    try:
        expected = _trial_division_roots(f)
    except SplitError as ex:
        with pytest.raises(SplitError) as got:
            f.roots_with_multiplicity()
        assert str(got.value) == str(ex)
    else:
        assert f.roots_with_multiplicity() == expected
        assert sorted(r.raw for r in expected) == sorted(roots)


def test_rational_roots_large_against_sympy():
    sympy = pytest.importorskip("sympy")
    roots = [Fraction(997), Fraction(-991, 7), Fraction(1009), Fraction(1009),
             Fraction(2**40 + 15, 3), Fraction(-1), Fraction(0)]
    f = Poly.from_roots(QQ, [QQ(r) for r in roots]) * QQ(Fraction(-7, 9)) \
        * Poly(QQ, (5, 0, 1))
    t = sympy.symbols("t")
    ref = sympy.Poly([sympy.Rational(c.raw.numerator, c.raw.denominator)
                      for c in reversed(f.coeffs)], t, domain="QQ")
    expected = []
    for factor, mult in ref.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            expected += [Fraction(int(-b.p * a.q), int(b.q * a.p))] * mult
    with pytest.raises(SplitError):
        f.roots_with_multiplicity()
    got = (f // Poly(QQ, (5, 0, 1))).roots_with_multiplicity()
    assert sorted(r.raw for r in got) == sorted(expected) == sorted(roots)
    assert [r.raw for r in got] == sorted(
        roots, key=lambda x: (abs(x.numerator), x.denominator, x < 0))


def _poly_strategy(field, max_size):
    if field == QQ:
        coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    else:
        coeff = st.integers(0, field.order - 1).map(
            lambda raw: FieldElement(field, raw))
    return st.lists(coeff, max_size=max_size).map(lambda cs: Poly(field, cs))


KERNEL_FIELDS = st.one_of(st.just(QQ), st.sampled_from(SMALL_PRIMES).map(PrimeField),
                          st.just(PrimeField(2**61 - 1)),
                          st.integers(1, 8).map(BinaryField))


@settings(max_examples=300, deadline=None)
@given(KERNEL_FIELDS.flatmap(lambda F: st.tuples(
    st.just(F), _poly_strategy(F, 7), _poly_strategy(F, 5),
    _poly_strategy(F, 1))))
def test_raw_kernels_match_elementwise(args):
    field, a, b, x = args
    x = x.coeff(0)
    assert (a * b).coeffs == _ew_mul(field, a.coeffs, b.coeffs)
    assert a(x) == _ew_eval(field, a.coeffs, x)
    assert (a + b) - b == a and -(a - b) == b - a
    if not a.is_zero():
        inv = a.lead().inverse()
        assert a.monic().coeffs == tuple(c * inv for c in a.coeffs)
    if not b.is_zero():
        quot, rem = divmod(a, b)
        assert (quot.coeffs, rem.coeffs) == _ew_divmod(field, a.coeffs, b.coeffs)
        # a RatFunc with a common factor b (t - x), normalized by Euclid
        num = a * b * Poly.from_roots(field, [x])
        den = b * b
        f = RatFunc(num, den)
        assert (f.num.coeffs, f.den.coeffs) == \
            _ew_normalized(field, num.coeffs, den.coeffs)


@settings(max_examples=200, deadline=None)
@given(KERNEL_FIELDS.flatmap(lambda F: st.tuples(
    st.just(F), *(_poly_strategy(F, 4) for _ in range(5)))))
def test_ratfunc_eq_matches_cross_multiplication(args):
    field, a, b, c, d, e = args
    b, c, e = (p if not p.is_zero() else Poly.one(field) for p in (b, c, e))
    f = RatFunc(a, b)
    g = RatFunc(d, e)
    same = [RatFunc(a * c, b * c),                    # a common factor
            RatFunc.from_poly(a) / RatFunc.from_poly(b),
            (f + g) - g,
            f.substitute_inverse_t().substitute_inverse_t()]
    for h in same + [g, g * f, f + 1]:
        assert (f == h) == (f.num * h.den == h.num * f.den)
        assert (h == f) == (f == h)
    for h in same:
        assert f == h and hash(f) == hash(h)


def test_poly_eval_and_shift():
    p = Poly(QQ, (1, 2, 1))
    assert p(QQ(3)) == QQ(16)
    assert p.shift(2).degree == 4
    assert p.reversed() == Poly(QQ, (1, 2, 1))
    q = Poly(QQ, (0, 0, 3, 5))
    assert q.reversed() == Poly(QQ, (5, 3))
