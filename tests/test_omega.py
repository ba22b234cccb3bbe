import random
from fractions import Fraction

import pytest

from bmwparam import symfun
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.omega import (OmegaSeq, ParamSet, ParameterError,
                            degenerate_params, nondegenerate_params,
                            omega_negative, rx_functions, verify_pm_identity,
                            wminus_ratfunc, wplus_ratfunc)
from bmwparam.univar import Poly, RatFunc


# ---------------------------------------------------------------- oracle
def oracle_rx_omega(us, rho, q, order):
    """Z(t)/(q - q^{-1}) expanded at infinity with plain Fractions: assemble
    Z as one numerator/denominator pair and long-divide.  Independent of the
    RatFunc layer."""
    us = [Fraction(x) for x in us]
    rho, q = Fraction(rho), Fraction(q)
    delta = q - 1 / q
    r = len(us)

    def pmul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def padd(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)]

    # G(1/t) = prod (t u - 1)/(t - u)
    gnum, gden = [Fraction(1)], [Fraction(1)]
    for u in us:
        gnum = pmul(gnum, [-Fraction(1), u])
        gden = pmul(gden, [-u, Fraction(1)])
    t2m1 = [Fraction(-1), Fraction(0), Fraction(1)]
    if r % 2 == 1:
        anum = padd(pmul([us_prod(us) / rho], t2m1), [Fraction(0), delta])
    else:
        anum = padd(pmul([us_prod(us) / rho], t2m1),
                    [Fraction(0), Fraction(0), -delta])
    # Z = -1/rho + delta t^2/(t^2-1) + A * G(1/t), over common den (t^2-1) gden
    den = pmul(t2m1, gden)
    num = padd(padd(pmul([-1 / rho], den),
                    pmul([Fraction(0), Fraction(0), delta], gden)),
               pmul(anum, gnum))
    num = pmul(num, [1 / delta])
    # long division at infinity
    while num and num[-1] == 0:
        num.pop()
    b, a = len(den) - 1, len(num) - 1
    assert a <= b
    num_s = [Fraction(0)] * (b - a) + list(reversed(num))
    den_s = list(reversed(den))
    rem = num_s + [Fraction(0)] * (order + 1)
    out = []
    for k in range(order + 1):
        c = rem[k] / den_s[0]
        out.append(c)
        for j, dcf in enumerate(den_s):
            if k + j < len(rem):
                rem[k + j] -= c * dcf
    return out


def us_prod(us):
    out = Fraction(1)
    for u in us:
        out *= u
    return out


# ------------------------------------------------------------ generation
def test_degenerate_generation_rank_one():
    ps = degenerate_params(QQ, [2], order=6)
    assert [c.raw for c in ps.omega.prefix] == [5, 10, 20, 40, 80, 160, 320]
    assert [c.raw for c in ps.omega.closure] == [-2]


def test_degenerate_generation_matches_eta():
    ps = degenerate_params(QQ, [2, -3], order=9)
    etas = symfun.eta_values(+1, [QQ(2), QQ(-3)], 9)
    assert list(ps.omega.prefix) == etas


def test_degenerate_char2():
    F2 = PrimeField(2)
    ps = degenerate_params(F2, [1], order=5)
    assert all(c == F2.one for c in ps.omega.prefix)  # omega_0 = [r odd] = 1
    F4 = BinaryField(2)
    x = F4.gen()
    ps = degenerate_params(F4, [x, F4.one], order=6)
    assert ps.omega.prefix[0] == F4.zero               # r even
    for a in range(1, 7):
        assert ps.omega.prefix[a] == x ** a + F4.one


def test_nondegenerate_generation_dual_path():
    # frozen by the independent long-division oracle
    want = oracle_rx_omega([3], 3, 2, 5)
    assert want == [Fraction(25, 9), Fraction(25, 3), 25, 75, 225, 675]
    ps = nondegenerate_params(QQ, [3], 3, 2, order=5)
    assert [c.raw for c in ps.omega.prefix] == want


def test_nondegenerate_generation_dual_path_even():
    for rho_factory in (lambda p, q: p / q, lambda p, q: -p * q):
        us = [Fraction(2), Fraction(5)]
        q = Fraction(3)
        rho = rho_factory(us_prod(us), q)
        ps = nondegenerate_params(QQ, us, rho, q, order=8)
        assert [c.raw for c in ps.omega.prefix] == oracle_rx_omega(us, rho, q, 8)


def test_nondegenerate_ground_relation_forced():
    ps = nondegenerate_params(QQ, [5, 2, 3], 30, 2, order=8)
    lhs = ps.rho.inverse() - ps.rho
    rhs = (ps.q.inverse() - ps.q) * (ps.omega.prefix[0] - QQ.one)
    assert lhs == rhs


def test_nondegenerate_omega0_is_w_plus_at_infinity():
    ps = nondegenerate_params(QQ, [2, 3, 7], -42, 5, order=10)
    wp = wplus_ratfunc(ps.omega)
    assert wp.series_at_infinity(0)[0] == ps.omega.prefix[0]


def test_nondegenerate_rejections():
    with pytest.raises(ParameterError):
        nondegenerate_params(QQ, [3], 5, 2)       # rho not +-p for odd r
    with pytest.raises(ParameterError):
        nondegenerate_params(QQ, [2, 5], 10, 2)   # rho not in the even branch
    with pytest.raises(ParameterError):
        nondegenerate_params(QQ, [3], 3, 1)       # q - q^{-1} = 0
    with pytest.raises(ParameterError):
        nondegenerate_params(QQ, [0, 2], 0, 2)    # roots must be invertible


def test_paramset_validates_ground_relation():
    with pytest.raises(ParameterError):
        ParamSet("nondegenerate", QQ, (QQ(3),),
                 OmegaSeq(QQ, (QQ(7), QQ(1))), rho=QQ(3), q=QQ(2))


def test_omegaseq_closure_validated():
    with pytest.raises(ParameterError):
        OmegaSeq(QQ, (QQ(5), QQ(10), QQ(21)), closure=(QQ(-2),))


# ------------------------------------------------------------- extension
def test_extend_by_recursion():
    ext = OmegaSeq(QQ, (QQ(5),), (QQ(-2),)).extended(6)
    assert [c.raw for c in ext.prefix] == [5, 10, 20, 40, 80, 160, 320]
    zero = OmegaSeq(QQ, (QQ(0), QQ(0)), (QQ(1), QQ(1))).extended(8)
    assert all(not c for c in zero.prefix)


def test_extend_consistent_with_longer_recursion():
    # a sequence satisfying an order-1 recursion also satisfies the order-2
    # recursion with characteristic polynomial (y-2)(y-9); extending by the
    # minimal one must agree with the stored longer prefix
    ps = degenerate_params(QQ, [2], order=10)
    long_coeffs = symfun.char_poly_coeffs([QQ(2), QQ(9)])[:2]
    ext = OmegaSeq(QQ, ps.omega.prefix[:4], long_coeffs).extended(10)
    assert ext.prefix == ps.omega.prefix


def test_extend_needs_enough_prefix():
    with pytest.raises(ParameterError):
        OmegaSeq(QQ, (QQ(1),), (QQ(1), QQ(1))).extended(5)


def test_backward_extension():
    ps = degenerate_params(QQ, [2], order=6)
    assert ps.omega.omega(-1).raw == Fraction(5, 2)   # closure run backwards
    assert ps.omega.omega(8).raw == 5 * 2 ** 8


def test_negative_index_without_backward_closure():
    # an empty closure (a file's "closure": []) has no a_0 to divide by
    for closure in (None, (), (QQ(0), QQ(1))):
        seq = OmegaSeq(QQ, (QQ(0),) * 3, closure)
        with pytest.raises(IndexError) as ex:
            seq.omega(-1)
        assert str(ex.value) == \
            "omega_-1 not stored; closure absent or a_0 = 0"


# ------------------------------------------------------ negative indices
def test_omega_negative_first_value():
    ps = nondegenerate_params(QQ, [3], 3, 2, order=8)
    seq = omega_negative(ps, 4)
    rho2 = ps.rho * ps.rho
    assert seq.negative[0] == ps.omega.prefix[1] * rho2.inverse()


def test_omega_negative_matches_w_minus():
    for us, rho, q in (([3], 3, 2), ([2, 5], 5, 2),
                       ([2, 3, 5], -30, Fraction(7, 3))):
        ps = nondegenerate_params(QQ, list(us), rho, q, order=12)
        seq = omega_negative(ps, 5)
        wm = wminus_ratfunc(ps.omega)
        ser = wm.series_at_infinity(5)
        assert ser[0] == QQ.zero
        assert tuple(ser.coeffs[1:]) == seq.negative


def test_omega_negative_constant_sequence_symmetric():
    # rho = 1 forces omega_0 = 1; the constant sequence gives
    # omega_{-a} = omega_a, verified against the defining relation directly
    prefix = tuple(QQ(1) for _ in range(10))
    ps = ParamSet("nondegenerate", QQ, (QQ(1),),
                  OmegaSeq(QQ, prefix, closure=(QQ(-1),)), rho=QQ(1), q=QQ(2))
    seq = omega_negative(ps, 6)
    assert all(c == QQ.one for c in seq.negative)
    # residual of the defining relation, brute force
    om = {a: QQ(1) for a in range(-6, 10)}
    factor = ps.rho * (ps.q - ps.q.inverse())
    for a in range(1, 7):
        res = -om[a] + om[-a]
        for i in range(1, a + 1):
            res = res + factor * (om[a - i] * om[-i] - om[a - 2 * i])
        assert not res


def test_omega_negative_needs_nondegenerate():
    ps = degenerate_params(QQ, [2], order=6)
    with pytest.raises(ParameterError):
        omega_negative(ps, 2)


# ------------------------------------------------------------- w^{+-}
def test_wplus_rank_one():
    ps = degenerate_params(QQ, [2], order=6)
    wp = wplus_ratfunc(ps.omega)
    assert wp == RatFunc(Poly(QQ, (0, 5)), Poly(QQ, (-2, 1)))  # 5t/(t-2)


def test_wplus_vanishes_at_zero():
    for us in ([2], [2, 3], [2, -5, Fraction(1, 3)]):
        ps = degenerate_params(QQ, us, order=2 * len(us) + 6)
        wp = wplus_ratfunc(ps.omega)
        assert wp(QQ.zero) == QQ.zero


def test_wplus_series_round_trip():
    ps = degenerate_params(QQ, [2, 7], order=9)
    wp = wplus_ratfunc(ps.omega)
    assert wp.series_at_infinity(9).coeffs == ps.omega.prefix


def test_wminus_is_inverse_substitution_of_wplus():
    ps = nondegenerate_params(QQ, [2, 3, 5], 30, 2, order=12)
    wm = wminus_ratfunc(ps.omega)
    assert wm == (-wplus_ratfunc(ps.omega)).substitute_inverse_t()


def test_wplus_needs_closure():
    seq = OmegaSeq(QQ, (QQ(1), QQ(2)))
    with pytest.raises(ParameterError):
        wplus_ratfunc(seq)


# ------------------------------------------------------------ identity
def test_pm_identity_generated_parameters():
    for us, rho, q in (([3], 3, 2), ([2, 5], 5, 2), ([2, 5], -20, 2),
                       ([2, 3, 5], -30, Fraction(7, 3))):
        ps = nondegenerate_params(QQ, list(us), rho, q, order=12)
        assert verify_pm_identity(ps).passed


def test_pm_identity_prefix_only_path():
    ps = nondegenerate_params(QQ, [3], 3, 2, order=10)
    bare = ParamSet("nondegenerate", QQ, ps.u,
                    OmegaSeq(QQ, ps.omega.prefix), rho=ps.rho, q=ps.q)
    assert verify_pm_identity(bare, bound=8).passed


def test_pm_identity_perturbed_negative_prefix():
    ps = nondegenerate_params(QQ, [3], 3, 2, order=10)
    seq = omega_negative(ps, 8)
    tampered = list(seq.negative)
    tampered[1] = tampered[1] + QQ.one      # omega_{-2}
    bad = ParamSet("nondegenerate", QQ, ps.u,
                   OmegaSeq(QQ, ps.omega.prefix, negative=tuple(tampered)),
                   rho=ps.rho, q=ps.q)
    rep = verify_pm_identity(bad, bound=8)
    assert not rep.passed
    assert rep.witness.index == 2


def test_pm_identity_checks_stored_negatives_below_bound():
    # three stored negatives, omega_{-2} tampered; the rest up to the bound
    # are solved, and the stored ones are still the ones compared
    ps = nondegenerate_params(QQ, [3], 3, 2, order=10)
    tampered = list(omega_negative(ps, 3).negative)
    tampered[1] = tampered[1] + QQ.one
    bad = ParamSet("nondegenerate", QQ, ps.u,
                   OmegaSeq(QQ, ps.omega.prefix, negative=tuple(tampered)),
                   rho=ps.rho, q=ps.q)
    rep = verify_pm_identity(bad, bound=8)
    assert rep.checks == (("recursion", True), ("wplus-wminus-identity", False))
    assert rep.witness.index == 2


def test_pm_identity_perturbed_positive_with_stored_negative():
    ps = nondegenerate_params(QQ, [2, 5], 5, 2, order=12)
    seq = omega_negative(ps, 10)
    prefix = list(ps.omega.prefix)
    prefix[3] = prefix[3] + QQ.one
    bad = ParamSet("nondegenerate", QQ, ps.u,
                   OmegaSeq(QQ, tuple(prefix), negative=seq.negative),
                   rho=ps.rho, q=ps.q)
    rep = verify_pm_identity(bad, bound=10)
    assert not rep.passed
    assert rep.witness.index == 3


def test_pm_identity_rejects_degenerate():
    ps = degenerate_params(QQ, [2])
    with pytest.raises(ParameterError):
        verify_pm_identity(ps)


def test_rx_functions_shape():
    rx = rx_functions(QQ, [QQ(2)], QQ(2), QQ(3))
    # G(t) = (t-2)/(2t-1), normalized monic denominator
    assert rx.G == RatFunc(Poly(QQ, (-1, Fraction(1, 2))),
                           Poly(QQ, (Fraction(-1, 2), 1)))
    # Z agrees with the generated sequence
    ps = nondegenerate_params(QQ, [2], 2, 3, order=6)
    delta = ps.q_minus_qinv()
    assert rx.Z == wplus_ratfunc(ps.omega) * delta


def test_omega_negative_three_routes_agree():
    # iterative solve, series of w^- = -w^+(1/t), and the closure run
    # backwards must produce the same negative-index values
    ps = nondegenerate_params(QQ, [2, 3, 5], 30, 2, order=14)
    iterative = omega_negative(ps, 5).negative
    ser = wminus_ratfunc(ps.omega).series_at_infinity(5)
    backward = tuple(ps.omega.omega(-a) for a in range(1, 6))
    assert iterative == tuple(ser.coeffs[1:])
    assert iterative == backward


def test_pm_identity_fails_for_off_identity_rho():
    # same closed sequence, rho swapped to the other root of the ground-ring
    # relation: the exact rational-function identity must fail
    good = nondegenerate_params(QQ, [3], 3, 2, order=10)
    other = -(good.rho.inverse())
    bad = ParamSet("nondegenerate", QQ, good.u, good.omega,
                   rho=other, q=good.q)
    rep = verify_pm_identity(bad)
    assert not rep.passed
    assert rep.witness is not None
