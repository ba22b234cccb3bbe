import random
from fractions import Fraction
from itertools import combinations

import pytest

from bmwparam import symfun
from bmwparam.diagrams import b_prime, double_factorial_odd
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.omega import OmegaSeq, ParamSet, degenerate_params, nondegenerate_params
from bmwparam.semiadm import (ADMISSIBLE, HECKE_COLLAPSE, SEMI_ADMISSIBLE,
                              ConstraintError, construct_example, detect,
                              rank_formula)


# ---------------------------------------------------------------- oracle
def oracle_passing_subsets(params, d, bound):
    """Exhaustive subset check against eta values, independent of detect."""
    hits = []
    for idxs in combinations(range(len(params.u)), d):
        roots = [params.u[i] for i in idxs]
        etas = symfun.eta_values(+1, roots, bound)
        if all(params.omega.prefix[a] == etas[a] for a in range(bound + 1)):
            hits.append(idxs)
    return hits


# ---------------------------------------------------------------- detect
def test_detect_admissible():
    ps = degenerate_params(QQ, [2, 3], order=12)
    assert detect(ps).status == ADMISSIBLE


def test_detect_semi_basic():
    ps = construct_example(QQ, 1, [2], [3])
    det = detect(ps)
    assert det.status == SEMI_ADMISSIBLE
    assert det.d == 1
    assert det.subsets == ((0,),)
    # p_0(y) = y - 2: monic coefficients (-2, 1)
    assert [c.raw for c in det.p0_coeffs[0]] == [-2, 1]


def test_detect_hecke_collapse():
    field = QQ
    u = (field(2), field(3))
    zero_prefix = tuple(field(0) for _ in range(12))
    ps = ParamSet("degenerate", field, u, OmegaSeq(field, zero_prefix))
    assert not oracle_passing_subsets(ps, 1, 11)
    assert detect(ps).status == HECKE_COLLAPSE


def test_detect_agrees_with_oracle():
    rng = random.Random(77)
    for _ in range(20):
        r = rng.randint(2, 4)
        d = rng.randint(1, r - 1)
        pool = [x for x in range(1, 30)]
        roots = []
        while len(roots) < r:
            x = rng.choice(pool)
            if all(x != y and x != -y for y in roots):
                roots.append(x)
        ps = construct_example(QQ, d, roots[:d], roots[d:], order=2 * r + 8)
        det = detect(ps)
        assert det.status == SEMI_ADMISSIBLE and det.d == d
        assert list(det.subsets) == oracle_passing_subsets(ps, d, len(ps.omega) - 1)


def test_detect_b_coefficient_recursion():
    # every returned subset satisfies its own degree-d recursion
    ps = construct_example(QQ, 2, [2, 5], [9, 11], order=26)
    det = detect(ps)
    assert det.d == 2
    (coeffs,) = det.p0_coeffs
    om = ps.omega.prefix
    for ell in range(20):
        acc = QQ.zero
        for j, b in enumerate(coeffs):
            acc = acc + b * om[j + ell]
        assert not acc


def test_detect_returns_ties():
    # omega built from root 2, root list containing 2 twice: both index
    # subsets name the same multiset, deduplicated to one entry
    ps_base = degenerate_params(QQ, [2], order=12)
    u = (QQ(2), QQ(2), QQ(7))
    ps = ParamSet("degenerate", QQ, u, ps_base.omega)
    det = detect(ps)
    assert det.status == SEMI_ADMISSIBLE and det.d == 1
    assert det.subsets == ((0,),)


def test_detect_nondegenerate_subset():
    full = nondegenerate_params(QQ, [2], 2, 3, order=12)
    ps = ParamSet("nondegenerate", QQ, (QQ(2), QQ(5)), full.omega,
                  rho=full.rho, q=full.q)
    det = detect(ps)
    assert det.status == SEMI_ADMISSIBLE
    assert det.d == 1 and det.subsets == ((0,),)
    # and the honestly admissible full set reports admissible
    assert detect(full).status == ADMISSIBLE


# ------------------------------------------------------------ construct
def test_construct_rejects_negated_pair():
    with pytest.raises(ConstraintError) as exc:
        construct_example(QQ, 1, [2], [-2])
    assert any("u_1 = -u_2" in v for v in exc.value.violations)


def test_construct_rejects_half():
    with pytest.raises(ConstraintError) as exc:
        construct_example(QQ, 1, [Fraction(1, 2)], [3])
    assert any("1/2" in v for v in exc.value.violations)
    with pytest.raises(ConstraintError):
        construct_example(QQ, 1, [Fraction(-1, 2)], [3])


def test_construct_rejects_char2():
    with pytest.raises(ConstraintError):
        construct_example(BinaryField(2), 1, [[0, 1]], [[1]])


def test_construct_rejects_zero_root():
    with pytest.raises(ConstraintError) as exc:
        construct_example(QQ, 1, [0], [3])
    assert any("u_1 = 0" in v for v in exc.value.violations)


def test_construct_collects_multiple_violations():
    with pytest.raises(ConstraintError) as exc:
        construct_example(QQ, 2, [2], [2, Fraction(1, 2)])
    assert len(exc.value.violations) >= 2


def test_construct_round_trip_over_prime_field():
    # odd prime well above every root difference
    F = PrimeField(101)
    rng = random.Random(5)
    for d, r in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
        roots = []
        while len(roots) < r:
            x = F(rng.randint(1, 45))
            if x and all(x != y and x != -y for y in roots):
                roots.append(x)
        ps = construct_example(F, d, roots[:d], roots[d:], order=2 * r + 8)
        det = detect(ps)
        assert det.status == SEMI_ADMISSIBLE
        assert det.d == d and det.subsets == (tuple(range(d)),)


# ---------------------------------------------------------------- counts
def test_double_factorial_oracle():
    import math
    for n in range(7):
        # independent route: (2n)! / (2^n n!)
        assert double_factorial_odd(n) == math.factorial(2 * n) // (2 ** n * math.factorial(n))


def test_rank_formula_examples():
    assert rank_formula(2, 3, 1) == 19       # 1*1 + 9*2
    assert rank_formula(0, 5, 2) == 1
    assert b_prime(2) == 1
    for n in range(6):
        for r in range(1, 4):
            assert rank_formula(n, r, r) == r ** n * double_factorial_odd(n)
    with pytest.raises(ValueError):
        rank_formula(2, 3, 0)
    with pytest.raises(ValueError):
        rank_formula(2, 3, 4)
