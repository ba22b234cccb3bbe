"""Golden reports: the exact witness (index, lhs, rhs) and message text of
each check whose logic is shared between modules, pinned so that moving
that logic cannot change what a user reads."""

import json
import math
from fractions import Fraction

import pytest

from bmwparam import symfun
from bmwparam.adm_degenerate import (check_recursion, check_relations,
                                     check_u_admissible)
from bmwparam.adm_nondegenerate import rui_xu_check, wilcox_yu_check
from bmwparam.semiadm import detect
from bmwparam.cli import main
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.omega import (OmegaSeq, ParamSet, ParameterError,
                            check_rho_constraint, degenerate_params,
                            nondegenerate_params, omega_negative,
                            verify_pm_identity)
from bmwparam.rationality import (ClassifyError, affine_classify,
                                  weak_admissibility_check)
from bmwparam.univar import Poly, RatFunc


def witness(report):
    w = report.witness
    return None if w is None else (w.check, str(w.index), str(w.lhs), str(w.rhs))


def _honest_r2():
    return nondegenerate_params(QQ, [2, 3], Fraction(3), 2, order=10)


def _wrong_closure():
    """The first two omegas of u = (2, 3), closed by a wrong recursion: the
    series agree through index 1 and differ from index 2 on."""
    h = _honest_r2()
    seq = OmegaSeq(QQ, h.omega.prefix[:2], (QQ(1), QQ(1)))
    return ParamSet("nondegenerate", QQ, h.u, seq, rho=h.rho, q=h.q)


def _wrong_rho(us, rho):
    """Honest prefix (no closure) with the other root rho' = -1/rho of the
    ground-ring relation, which is off the admissible branch."""
    h = nondegenerate_params(QQ, us, rho, 2, order=8)
    return ParamSet("nondegenerate", QQ, h.u, OmegaSeq(QQ, h.omega.prefix),
                    rho=-(h.rho.inverse()), q=h.q)


# ---------------------------------------------------------------- Rui-Xu

def test_rui_xu_closure_failure():
    rep = rui_xu_check(_wrong_closure(), 6)
    assert rep.checks == (("generating-function", False), ("rho-constraint", True))
    assert witness(rep) == ("generating-function", "2", "-50/3", "75/2")


def test_rui_xu_beyond_order():
    beyond = ("generating-function", "beyond order 1",
              "((25/6)*t^2 + (50/3)*t) / (t^2 + t + 1)",
              "((25/6)*t) / (t + -3)")
    for bound in (1, None):     # the default order is len(prefix) - 1 = 1
        rep = rui_xu_check(_wrong_closure(), bound)
        assert witness(rep) == beyond
    assert rep.summary() == (
        "generating-function: FAIL, rho-constraint: pass  "
        "[generating-function at beyond order 1: "
        "lhs = ((25/6)*t^2 + (50/3)*t) / (t^2 + t + 1) "
        "!= rhs = ((25/6)*t) / (t + -3)]")


def test_rui_xu_prefix_failure():
    h = _honest_r2()
    prefix = list(h.omega.prefix)
    prefix[4] = prefix[4] + 1
    params = ParamSet("nondegenerate", QQ, h.u, OmegaSeq(QQ, prefix),
                      rho=h.rho, q=h.q)
    rep = rui_xu_check(params)
    assert rep.checks == (("generating-function", False), ("rho-constraint", True))
    assert witness(rep) == ("generating-function", "4", "339", "675/2")


def test_rho_witnesses_odd_r():
    params = _wrong_rho([3], 3)
    rep = wilcox_yu_check(params)
    assert rep.checks == (("recursion", True), ("wy-relations", True),
                          ("rho-constraint", False))
    assert witness(rep) == ("rho-constraint", "rho", "-1/3", "+-a_0 = +-(-3)")
    rep = rui_xu_check(params)
    assert rep.checks == (("generating-function", False), ("rho-constraint", False))
    assert witness(rep) == ("generating-function", "0", "25/6", "-45/2")
    assert check_rho_constraint(QQ, params.u, params.rho, params.q) == (
        "r = 1 odd needs rho = +-(u_1...u_r); got rho = -1/3, product = 3")


def test_rho_witnesses_even_r():
    # u = (2, -2) has a_1 = 0, so the bracket relation holds for any rho
    # and the rho constraint is the first failure
    params = _wrong_rho([2, -2], -2)
    rep = wilcox_yu_check(params)
    assert rep.checks == (("recursion", True), ("wy-relations", True),
                          ("rho-constraint", False))
    assert witness(rep) == ("rho-constraint", "rho", "1/2",
                            "q^-1 a_0 = -2 or -q a_0 = 8")
    rep = rui_xu_check(params)
    assert rep.checks == (("generating-function", False), ("rho-constraint", False))
    assert witness(rep) == ("generating-function", "0", "0", "75/2")
    assert check_rho_constraint(QQ, params.u, params.rho, params.q) == (
        "r = 2 even needs rho in {q^-1 p, -q p}; "
        "got rho = 1/2, q^-1 p = -2, -q p = 8")


def _rerun_head(us, rho, bumps):
    """Honest QQ data with q = 2 whose omega_i, i < r, are raised by
    bumps[i] and whose later terms are rerun by the recursion, so that the
    recursion check passes and the bracket relations see the change."""
    h = nondegenerate_params(QQ, us, rho, 2, order=2 * len(us) + 3)
    head = list(h.omega.prefix[:h.r])
    for i, x in bumps.items():
        head[i] = head[i] + x
    closed = OmegaSeq(QQ, head, symfun.closure_coeffs(h.u))
    prefix = closed.extended(len(h.omega) - 1).prefix
    return ParamSet("nondegenerate", QQ, h.u, OmegaSeq(QQ, prefix),
                    rho=h.rho, q=h.q)


def test_wy_relations_witness():
    rep = wilcox_yu_check(_rerun_head([2, 3, 5], 30, {1: 1}))
    assert rep.summary() == (
        "recursion: pass, wy-relations: FAIL, rho-constraint: pass  "
        "[wy-relations at 1: lhs = -980 != rhs = -965]")
    # relation l reads omega_1..omega_{r-l}: with a_2 = 101, raising
    # omega_1 by 1 and omega_3 by -101 leaves l = 1 intact, so l = 2 fails
    rep = wilcox_yu_check(_rerun_head([2, 3, 5, 7], 105, {1: 1, 3: -101}))
    assert rep.summary() == (
        "recursion: pass, wy-relations: FAIL, rho-constraint: pass  "
        "[wy-relations at 2: lhs = -21787/2 != rhs = -10868]")


# ------------------------------------------------------ w^+/w^- identity

def test_pm_identity_closure_failure():
    rep = verify_pm_identity(_wrong_closure())
    assert witness(rep) == ("wplus-wminus-identity", "1", "-650/27", "0")
    rep = verify_pm_identity(_wrong_closure(), 0)
    assert witness(rep) == (
        "wplus-wminus-identity", "beyond order 0",
        "((-4/9)*t^8 + (-674/27)*t^7 + (-10030/81)*t^6 + (728/27)*t^5 "
        "+ (20537/81)*t^4 + (728/27)*t^3 + (-10030/81)*t^2 + (-674/27)*t "
        "+ -4/9) / (t^8 + (2)*t^7 + t^6 + (-2)*t^5 + (-4)*t^4 + (-2)*t^3 "
        "+ t^2 + (2)*t + 1)",
        "((-4/9)*t^4 + (17/9)*t^2 + -4/9) / (t^4 + (-2)*t^2 + 1)")


def test_pm_identity_prefix_failure():
    h = _honest_r2()
    negative = list(omega_negative(h, 6).negative)
    negative[2] = negative[2] + 1
    params = ParamSet("nondegenerate", QQ, h.u,
                      OmegaSeq(QQ, h.omega.prefix, None, tuple(negative)),
                      rho=h.rho, q=h.q)
    rep = verify_pm_identity(params, 5)
    assert rep.summary() == ("wplus-wminus-identity: FAIL  "
                             "[wplus-wminus-identity at 3: lhs = 2 != rhs = 0]")
    honest = ParamSet("nondegenerate", QQ, h.u, OmegaSeq(QQ, h.omega.prefix),
                      rho=h.rho, q=h.q)
    assert verify_pm_identity(honest).passed


def test_pm_identity_bare_prefix_certified_by_recursion():
    # with no negatives stored they are solved from the two-sided relation,
    # which alone would pass any prefix; the recursion catches omega_4 + 1
    h = _honest_r2()
    prefix = list(h.omega.prefix)
    prefix[4] = prefix[4] + 1
    params = ParamSet("nondegenerate", QQ, h.u, OmegaSeq(QQ, prefix),
                      rho=h.rho, q=h.q)
    rep = verify_pm_identity(params)
    assert rep.summary() == ("recursion: FAIL, wplus-wminus-identity: pass  "
                             "[recursion at 2: lhs = 1 != rhs = 0]")
    honest = ParamSet("nondegenerate", QQ, h.u, OmegaSeq(QQ, h.omega.prefix),
                      rho=h.rho, q=h.q)
    assert verify_pm_identity(honest).summary() == (
        "recursion: pass, wplus-wminus-identity: pass")
    with pytest.raises(ParameterError) as ex:
        verify_pm_identity(honest, 1)
    assert str(ex.value) == (
        "insufficient prefix: without stored negative indices the identity "
        "is certified by the recursion, which needs omega_0..omega_2")


def test_omega_negative_values_finite_fields():
    field = PrimeField(10007)
    h = nondegenerate_params(field, [2, 3], -30, 5, order=8)
    assert [x.raw for x in omega_negative(h, 6).negative] == [
        3880, 9477, 5583, 3073, 4966, 5294]
    field = BinaryField(4)
    u = [field([0, 1]), field([1, 1]), field([0, 0, 1])]
    h = nondegenerate_params(field, u, math.prod(u, start=field.one),
                             field([1, 0, 1]), order=8)
    assert [str(x) for x in omega_negative(h, 6).negative] == [
        "1+x+x^2+x^3", "1+x+x^2+x^3", "1", "1", "x+x^2+x^3", "1"]


# ------------------------------------------------------- preconditions

def test_q_minus_qinv_zero_one_message():
    message = "q - q^{-1} = 0 is outside the scope of these criteria"
    qone = ParamSet("nondegenerate", QQ, (QQ(2),), OmegaSeq(QQ, (7, 1)),
                    rho=QQ(1), q=QQ(1))
    calls = [lambda: nondegenerate_params(QQ, [3], 3, 1),
             lambda: verify_pm_identity(qone),
             lambda: wilcox_yu_check(qone),
             lambda: rui_xu_check(qone),
             lambda: detect(qone),
             lambda: affine_classify(qone)]
    for call in calls:
        with pytest.raises(ParameterError) as ex:
            call()
        assert str(ex.value) == message


# ------------------------------------------------------------ recursions

def test_closure_violation_message():
    for field in (QQ, PrimeField(7)):
        with pytest.raises(ParameterError) as ex:
            OmegaSeq(field, (1, 1, 2, 3, 5, 9, 14), (field(-1), field(-1)))
        assert str(ex.value) == "closure violated at l=3: residue 1"


def test_check_recursion_witness():
    d = degenerate_params(QQ, [2, 3], order=10)
    prefix = list(d.omega.prefix)
    prefix[5] = prefix[5] + 1
    params = ParamSet("degenerate", QQ, d.u, OmegaSeq(QQ, prefix))
    assert witness(check_recursion(params)) == ("recursion", "3", "1", "0")
    assert check_recursion(params, 2).passed


def _bumped_degenerate(u, index, order):
    """Degenerate data over QQ with omega_index raised by one, no closure."""
    d = degenerate_params(QQ, u, order=order)
    prefix = list(d.omega.prefix)
    prefix[index] = prefix[index] + 1
    return ParamSet("degenerate", QQ, d.u, OmegaSeq(QQ, prefix))


def test_check_relations_witness():
    # relations are listed j = r-1, ..., 0: omega_0 first appears in j = r-1,
    # omega_{r-1} only in j = 0
    rep = check_relations(_bumped_degenerate([2, 3], 0, 6))
    assert rep.summary() == "relations: FAIL  [relations at 1: lhs = 11 != rhs = 10]"
    rep = check_relations(_bumped_degenerate([2, 3, 5], 2, 8))
    assert rep.checks == (("relations", False),)
    assert witness(rep) == ("relations", "0", "92", "91")


def test_check_u_admissible_witness():
    rep = check_u_admissible(_bumped_degenerate([2, 3, 5], 2, 8))
    assert rep.checks == (("u-admissible", False),)
    assert witness(rep) == ("u-admissible", "2", "1541", "1540")
    assert check_u_admissible(_bumped_degenerate([2, 3, 5], 2, 8), 1).passed


def test_convolution_witness():
    d = degenerate_params(QQ, [2, 3], order=6)
    prefix = list(d.omega.prefix)
    assert weak_admissibility_check(QQ, prefix).summary() == "convolution: pass"
    prefix[3] = prefix[3] + 1
    rep = weak_admissibility_check(QQ, prefix)
    assert rep.summary() == (
        "convolution: FAIL  [convolution at 1: lhs = 1112 != rhs = 1110]")
    field = PrimeField(7)
    prefix = list(degenerate_params(field, [2, 3], order=6).omega.prefix)
    prefix[5] = prefix[5] + 1
    assert witness(weak_admissibility_check(field, prefix)) == (
        "convolution", "2", "6", "4")


def test_frobenius_witness():
    # in characteristic 2 the convolution at a reads omega_{2a} = omega_a^2,
    # so only an odd-length prefix's last entry fails frobenius alone
    field = BinaryField(4)
    u = [field([0, 1]), field([1, 1]), field([0, 0, 1])]
    prefix = list(degenerate_params(field, u, order=4).omega.prefix)
    prefix[4] = prefix[4] + field.one
    rep = weak_admissibility_check(field, prefix)
    assert rep.checks == (("convolution", True), ("frobenius", False))
    assert witness(rep) == ("frobenius", "2", "1+x^2", "x^2")


# -------------------------------------------------------- classification

def test_classify_two_sided_failure_text():
    good = nondegenerate_params(QQ, [3], 3, 2)
    bad = ParamSet("nondegenerate", QQ, good.u, good.omega,
                   rho=-(good.rho.inverse()), q=good.q)
    with pytest.raises(ClassifyError) as ex:
        affine_classify(bad)
    assert str(ex.value) == (
        "the two-sided product identity fails; the negative-index "
        "sequence does not match -w^+(1/t)")


@pytest.mark.parametrize("rho, expected", [
    (-1, "t^3 + (-1/2)*t^2 + (-2)*t + 1"),
    (4, "t^3 + (2)*t^2 + (-2)*t + -4"),
])
def test_classify_no_split_text(rho, expected):
    # omega from the roots +-sqrt(2), which are not in QQ: Z(t) built by
    # hand with G(t) = (t^2 - 2)/(1 - 2 t^2) and prod u = -2
    rho, q = QQ(rho), QQ(2)
    t = RatFunc.t(QQ)
    one = RatFunc.constant(QQ, 1)
    tt = t * t
    delta = q - q.inverse()
    G = RatFunc(Poly(QQ, (-2, 0, 1)), Poly(QQ, (1, 0, -2)))
    A = RatFunc.constant(QQ, rho.inverse() * QQ(-2)) - tt * delta / (tt - one)
    Z = RatFunc.constant(QQ, -rho.inverse()) + tt * delta / (tt - one) \
        + A * G.substitute_inverse_t()
    prefix = tuple(c * delta.inverse() for c in Z.series_at_infinity(8).coeffs)
    params = ParamSet("nondegenerate", QQ, (QQ(1),),
                      OmegaSeq(QQ, prefix, (QQ(-2), QQ(0))), rho=rho, q=q)
    with pytest.raises(ClassifyError) as ex:
        affine_classify(params)
    assert str(ex.value) == (f"recovered denominator does not split: {expected} "
                             "does not split into linear factors over QQ")


# ---------------------------------------------------------------- counts

@pytest.mark.parametrize("argv, expected", [
    (["--n", "2", "--r", "3", "--d", "1"],
     {"d": 1, "diagrams": 3, "diagrams_with_horizontal": 1,
      "ideal_spanning": 1, "n": 2, "r": 3, "rank": 19,
      "regular_monomials": 27}),
    (["--n", "4", "--r", "3", "--d", "2"],
     {"d": 2, "diagrams": 105, "diagrams_with_horizontal": 81,
      "ideal_spanning": 1296, "n": 4, "r": 3, "rank": 3240,
      "regular_monomials": 8505}),
    (["--n", "0", "--r", "5"],
     {"d": 5, "diagrams": 1, "diagrams_with_horizontal": 0,
      "ideal_spanning": 0, "n": 0, "r": 5, "rank": 1,
      "regular_monomials": 1}),
    (["--n", "5", "--r", "2", "--d", "2"],
     {"d": 2, "diagrams": 945, "diagrams_with_horizontal": 825,
      "ideal_spanning": 26400, "n": 5, "r": 2, "rank": 30240,
      "regular_monomials": 30240}),
])
def test_counts_json(capsys, argv, expected):
    assert main(["counts", *argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(expected, sort_keys=True) + "\n"


def test_counts_text_and_bad_d(capsys):
    assert main(["counts", "--n", "3", "--r", "2"]) == 0
    assert capsys.readouterr().out == (
        "(2n-1)!! diagrams: 15\n"
        "with a horizontal strand b'(n): 9\n"
        "regular monomials r^n (2n-1)!!: 120\n"
        "ideal spanning d^n b'(n): 72\n"
        "rank d^n b'(n) + r^n n!: 120\n")
    assert main(["counts", "--n", "3", "--r", "4", "--d", "0"]) == 2
    assert capsys.readouterr().err == "need 0 < d <= r, got d=0, r=4\n"
