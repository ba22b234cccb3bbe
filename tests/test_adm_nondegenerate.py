import random
from fractions import Fraction

import pytest
from oracles import (draw_nondegenerate, equivalence_disagreements, rui_xu,
                     wilcox_yu)

from bmwparam import symfun
from bmwparam.adm_nondegenerate import (rui_xu_check, wilcox_yu_check,
                                        wy_bracket_sums)
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.omega import (OmegaSeq, ParamSet, ParameterError,
                            nondegenerate_params)


def test_bracket_sums_frozen_index_sets():
    # encode a_j as the j-th prime so the sums identify which indices entered
    primes = [2, 3, 5, 7, 11]

    def sums(r, ell):
        return wy_bracket_sums(primes[:r + 1], ell, r)

    # r = 4: l = 1 -> ({a_3}, {a_1}); l = 2 -> ({a_4}, {a_0}); l = 3 -> empty
    assert sums(4, 1) == (primes[3], primes[1])
    assert sums(4, 2) == (primes[4], primes[0])
    assert sums(4, 3) == (0, 0)
    # r = 3: l = 1 -> ({a_3}, {a_1}); l = 2 -> (empty, {a_0})
    assert sums(3, 1) == (primes[3], primes[1])
    assert sums(3, 2) == (0, primes[0])
    # r = 2: the single relation l = 1 has no bracket contribution
    assert sums(2, 1) == (0, 0)


def test_bracket_index_bounds_stay_in_range():
    for r in range(1, 9):
        marks = list(range(r + 1))
        for ell in range(1, r):
            wy_bracket_sums(marks, ell, r)  # would IndexError if out of range


def test_wilcox_yu_on_generated_parameters():
    cases = [
        ([3], 3, 2), ([3], -3, 2),                       # r odd, both signs
        ([2, 5], 5, 2), ([2, 5], -20, 2),                # r even, both branches
        ([2, 3, 5], 30, Fraction(7, 3)),
        ([Fraction(1, 2), 3, 7, 5], Fraction(35, 2), 3),  # r = 4, q^{-1} p
    ]
    for us, rho, q in cases:
        ps = nondegenerate_params(QQ, us, rho, q, order=2 * len(us) + 6)
        rep = wilcox_yu_check(ps)
        assert rep.passed, (us, rho, rep.summary())


def test_wilcox_yu_wrong_rho_branch():
    # rho = 2 a_0 with r odd: adjust omega_0 so the ground-ring relation
    # still holds, then the rho constraint must be the flag that fails
    ps = nondegenerate_params(QQ, [2, 3, 5], 30, 2, order=12)
    a0 = symfun.char_poly_coeffs(list(ps.u))[0]
    rho = 2 * a0
    q = ps.q
    om0 = QQ.one + (rho.inverse() - rho) / (q.inverse() - q)
    prefix = (om0,) + ps.omega.prefix[1:]
    bad = ParamSet("nondegenerate", QQ, ps.u, OmegaSeq(QQ, prefix),
                   rho=rho, q=q)
    rep = wilcox_yu_check(bad)
    assert not rep.flag("rho-constraint")
    assert not rui_xu_check(bad).flag("rho-constraint")


def test_wilcox_yu_even_branch_passes_constraint():
    ps = nondegenerate_params(QQ, [2, 5], 5, 2, order=10)  # rho = q^{-1} a_0
    rep = wilcox_yu_check(ps)
    assert rep.flag("rho-constraint")


def test_rui_xu_on_generated_and_perturbed():
    ps = nondegenerate_params(QQ, [2, 3], Fraction(3), 2, order=10)
    assert rui_xu_check(ps).passed
    # omega_0 consistency: the expansion of Z/(q-q^{-1}) at infinity matches
    # the omega_0 forced by the ground-ring relation
    om0 = ps.omega.prefix[0]
    assert (ps.q.inverse() - ps.q) * (om0 - 1) == ps.rho.inverse() - ps.rho
    prefix = list(ps.omega.prefix)
    prefix[2] = prefix[2] + 1
    bad = ParamSet("nondegenerate", QQ, ps.u, OmegaSeq(QQ, tuple(prefix)),
                   rho=ps.rho, q=ps.q)
    rep = rui_xu_check(bad)
    assert not rep.passed
    assert rep.witness.index == 2


def test_rui_xu_exact_vs_series_agree():
    ps = nondegenerate_params(QQ, [2, 3, 7], -42, 2, order=12)
    exact = rui_xu_check(ps)
    series = rui_xu_check(
        ParamSet("nondegenerate", QQ, ps.u, OmegaSeq(QQ, ps.omega.prefix),
                 rho=ps.rho, q=ps.q), bound=12)
    assert exact.passed and series.passed


def test_q_equals_one_rejected():
    ps = ParamSet("nondegenerate", QQ, (QQ(2),),
                  OmegaSeq(QQ, (QQ(7), QQ(1))), rho=QQ(1), q=QQ(1))
    with pytest.raises(ParameterError):
        wilcox_yu_check(ps)
    with pytest.raises(ParameterError):
        rui_xu_check(ps)


def test_hand_built_rank_one_equivalence():
    # r = 1, u = (u1), rho = u1: omega is the two-sided geometric sequence
    u1, q = QQ(4), QQ(3)
    ps = nondegenerate_params(QQ, [u1], u1, q, order=8)
    wy = wilcox_yu_check(ps)
    rx = rui_xu_check(ps)
    assert wy.passed and rx.passed
    # and a tampered variant fails both
    prefix = list(ps.omega.prefix)
    prefix[1] = prefix[1] + 1
    bad = ParamSet("nondegenerate", QQ, ps.u, OmegaSeq(QQ, tuple(prefix)),
                   rho=ps.rho, q=ps.q)
    assert not wilcox_yu_check(bad).passed
    assert not rui_xu_check(bad).passed


def _disagreements(fields, samples, seed):
    return equivalence_disagreements(draw_nondegenerate, wilcox_yu, rui_xu,
                                     fields, samples, seed)


def test_harness_rationals_and_gf13():
    bad = _disagreements([QQ], 60, 21)
    assert not bad, bad[:3]
    bad = _disagreements([PrimeField(13)], 50, 22)
    assert not bad, bad[:3]


def test_harness_deterministic():
    a, b = random.Random(3), random.Random(3)
    for _ in range(20):
        assert draw_nondegenerate(PrimeField(13), a) == \
            draw_nondegenerate(PrimeField(13), b)


def test_harness_binary_fields():
    # characteristic 2 is fine on the non-degenerate side as long as
    # q - q^{-1} != 0; the criteria still have to agree
    for k in (2, 3):
        bad = _disagreements([BinaryField(k)], 40, k)
        assert not bad, (k, bad[:3])


def test_harness_rejects_fields_without_valid_q():
    with pytest.raises(ValueError, match="no q"):
        draw_nondegenerate(PrimeField(3), random.Random(0))
