import random
from fractions import Fraction

import pytest
from oracles import (draw_degenerate, equivalence_disagreements,
                     recursion_and_relations, u_admissible)

from bmwparam import symfun
from bmwparam.adm_degenerate import (check_recursion, check_relations,
                                     check_u_admissible, full_check)
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.omega import OmegaSeq, ParamSet, ParameterError, degenerate_params


def bare(field, u, prefix):
    return ParamSet("degenerate", field, tuple(field(x) for x in u),
                    OmegaSeq(field, tuple(field(c) for c in prefix)))


def test_recursion_examples():
    ps = degenerate_params(QQ, [2], order=8)
    assert check_recursion(ps).passed
    assert check_recursion(bare(QQ, [2], [5, 10, 20])).passed
    rep = check_recursion(bare(QQ, [2], [5, 10, 21]))
    assert not rep.passed and rep.witness.index == 1
    assert check_recursion(bare(QQ, [2, 3], [0] * 10)).passed


def test_recursion_insufficient_prefix():
    with pytest.raises(ParameterError):
        check_recursion(bare(QQ, [2], [5, 10]), bound=5)


def test_relations_examples():
    # r = 1: the single relation reads omega_0 = -2 a_0 + 1
    assert check_relations(bare(QQ, [2], [5])).passed
    rep = check_relations(bare(QQ, [2], [6]))
    assert not rep.passed and rep.witness.index == 0
    # r = 2 with the solved values 2s and 2s^2 - s, s = u_1 + u_2
    u = [Fraction(2), Fraction(-7)]
    s = sum(u)
    assert check_relations(bare(QQ, u, [2 * s, 2 * s * s - s])).passed
    rep = check_relations(bare(QQ, u, [2 * s + 1, 2 * s * s - s]))
    assert not rep.passed and rep.witness.index == 1  # j = r-1 sees omega_0


def test_u_admissible_examples():
    ps = degenerate_params(QQ, [2, 3], order=10)
    assert check_u_admissible(ps).passed
    prefix = list(ps.omega.prefix)
    prefix[4] = prefix[4] + 1
    rep = check_u_admissible(bare(QQ, [2, 3], prefix))
    assert not rep.passed and rep.witness.index == 4


def test_u_admissible_char2_power_sums():
    # omega_0 = [r odd], omega_a = p_a(u): the characteristic-2 evaluation
    F4 = BinaryField(2)
    x = F4.gen()
    u = [x, x + F4.one, F4.one]
    prefix = [F4.one] + [symfun.power_sum(a, u) for a in range(1, 10)]
    assert check_u_admissible(bare(F4, u, prefix)).passed
    bad = list(prefix)
    bad[2] = bad[2] + F4.one
    rep = check_u_admissible(bare(F4, u, bad))
    assert not rep.passed and rep.witness.index == 2


def test_full_check_combines():
    ps = degenerate_params(QQ, [2, 3], order=12)
    rep = full_check(ps)
    assert rep.passed
    assert {name for name, _ in rep.checks} == \
        {"recursion", "relations", "u-admissible"}


def test_kind_guard():
    from bmwparam.omega import nondegenerate_params
    ps = nondegenerate_params(QQ, [3], 3, 2)
    with pytest.raises(ParameterError):
        check_relations(ps)


def _disagreements(fields, samples, seed):
    return equivalence_disagreements(draw_degenerate, recursion_and_relations,
                                     u_admissible, fields, samples, seed)


def test_harness_three_characteristics():
    bad = _disagreements([QQ, PrimeField(5), PrimeField(2)], 60, 123)
    assert not bad, bad[:3]


def test_harness_deterministic():
    a, b = random.Random(9), random.Random(9)
    for _ in range(25):
        assert draw_degenerate(PrimeField(5), a) == \
            draw_degenerate(PrimeField(5), b)


def test_harness_binary_field():
    bad = _disagreements([BinaryField(3)], 30, 5)
    assert not bad, bad[:3]


def test_generated_sequences_satisfy_recursion_to_twenty():
    for field, u in ((QQ, [2, -3]), (PrimeField(5), [1, 2, 3]),
                     (PrimeField(2), [1, 0, 1, 1])):
        ps = degenerate_params(field, u, order=len(u) + 20)
        assert check_recursion(ps, bound=20).passed
        assert check_relations(ps).passed


def test_honest_samples_pass_both_sides():
    rng = random.Random(99)
    for field in (QQ, PrimeField(5), PrimeField(2)):
        for _ in range(15):
            r = rng.randint(1, 4)
            u = [field(rng.randint(0, 20)) for _ in range(r)]
            ps = degenerate_params(field, u, order=r + 8)
            assert check_recursion(ps, 6).passed and check_relations(ps).passed
            assert check_u_admissible(ps, r + 6).passed


def test_tampered_samples_fail_both_sides():
    rng = random.Random(100)
    for field in (QQ, PrimeField(5), PrimeField(2)):
        for _ in range(15):
            r = rng.randint(1, 4)
            u = [field(rng.randint(0, 20)) for _ in range(r)]
            honest = degenerate_params(field, u, order=r + 8)
            prefix = list(honest.omega.prefix)
            idx = rng.randrange(r + 7)  # stay inside both check windows
            prefix[idx] = prefix[idx] + field.one
            ps = bare(field, u, prefix)
            lhs = check_recursion(ps, 6).passed and check_relations(ps).passed
            rhs = check_u_admissible(ps, r + 6).passed
            assert not lhs and not rhs


def test_short_prefix_raises_not_vacuous():
    short = bare(QQ, [2, 3], [4])   # fewer than r+1 values
    with pytest.raises(ParameterError):
        check_recursion(short)
    with pytest.raises(ParameterError):
        check_u_admissible(bare(QQ, [2], []))
