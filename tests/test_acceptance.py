"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with -s or in the captured
output); the stated time budgets are asserted as hard ceilings.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

from oracles import (draw_degenerate, draw_nondegenerate,
                     equivalence_disagreements, eta_generating_series,
                     recursion_and_relations, rui_xu, u_admissible, wilcox_yu)

from bmwparam import symfun
from bmwparam.adm_nondegenerate import rui_xu_check, wilcox_yu_check
from bmwparam.cli import COUNTS_N_MAX, main
from bmwparam.diagrams import (count_ideal_spanning, double_factorial_odd,
                               enumerate_diagrams, enumerate_ideal_spanning,
                               enumerate_regular, factorize, compose,
                               BrauerDiagram)
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.mpoly import MPoly
from bmwparam.omega import (degenerate_params, nondegenerate_params,
                            omega_negative, verify_pm_identity, wminus_ratfunc,
                            wplus_ratfunc)
from bmwparam.rationality import affine_classify, char2_recover
from bmwparam.semiadm import construct_example, detect, rank_formula
from bmwparam.univar import Poly, RatFunc


def _finish(tag, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{tag} exceeded its {budget}s budget: {elapsed:.2f}s"
    print(f"ACCEPTANCE {tag}: PASS ({elapsed:.2f}s, budget {budget:g}s)")


def test_criterion_1_symmetric_function_identities():
    started = time.monotonic()
    for r in range(1, 5):
        for a in range(13):
            assert symfun.universal_H(a, r) == symfun.eta_poly(+1, a, r), (r, a)
    for r in range(1, 4):
        u = MPoly.variables(r)
        for a in range(1, 9):
            diff = symfun.schur_q_poly(a, r) - 2 * symfun.power_sum(a, u)
            assert all(isinstance(c, int) and c % 4 == 0
                       for c in diff.terms.values()), (r, a)
    for r in range(1, 5):
        u = MPoly.variables(r)
        for sign in (+1, -1):
            gen = eta_generating_series(sign, u, 12)
            for a in range(13):
                assert gen[a] == symfun.eta_poly(sign, a, r), (r, sign, a)
    _finish("1 (symmetric-function identities)", started, 10)


def _counted(draw, drawn):
    def counting_draw(*args):
        drawn.append(args[0])
        return draw(*args)
    return counting_draw


def test_criterion_2_degenerate_equivalence():
    started = time.monotonic()
    drawn = []
    bad = equivalence_disagreements(
        _counted(draw_degenerate, drawn), recursion_and_relations,
        u_admissible, [QQ, PrimeField(5), PrimeField(2)], samples=100,
        seed=7451, r_max=4)
    assert not bad, bad[:3]
    assert len(drawn) == 300
    _finish("2 (degenerate equivalence over Q, GF(5), GF(2))", started, 10)


def test_criterion_3_nondegenerate_equivalence():
    started = time.monotonic()
    drawn = []
    bad = equivalence_disagreements(
        _counted(draw_nondegenerate, drawn), wilcox_yu, rui_xu,
        [QQ, PrimeField(13)], samples=100, seed=41210, r_max=4)
    assert not bad, bad[:3]
    assert len(drawn) == 200
    # every rho branch exercised explicitly
    branch_cases = [
        ([3, 5, 7], Fraction(105), 2),            # r odd, rho = +p
        ([3, 5, 7], Fraction(-105), 2),           # r odd, rho = -p
        ([3, 5], Fraction(15, 2), 2),             # r even, rho = q^{-1} p
        ([3, 5], Fraction(-30), 2),               # r even, rho = -q p
    ]
    for us, rho, q in branch_cases:
        ps = nondegenerate_params(QQ, us, rho, q, order=2 * len(us) + 7)
        assert wilcox_yu_check(ps).passed, (us, rho)
        assert rui_xu_check(ps).passed, (us, rho)
    _finish("3 (Wilcox-Yu <=> Rui-Xu over Q and GF(13))", started, 20)


def test_criterion_4_generating_function_identities():
    started = time.monotonic()
    generated = [
        ([3], 3, 2), ([3], -3, 2), ([2, 5], 5, 2), ([2, 5], -20, 2),
        ([2, 3, 5], 30, Fraction(7, 3)), ([2, 3, 5], -30, 2),
        ([2, 3, 5, 7], Fraction(105), 2),          # r = 4, rho = q^{-1} p
    ]
    rng = random.Random(99)
    for _ in range(6):
        r = rng.randint(1, 4)
        roots = []
        while len(roots) < r:
            x = Fraction(rng.randint(2, 25))
            if all(x != y for y in roots):
                roots.append(x)
        q = Fraction(rng.randint(2, 9))
        p = math.prod(roots)
        rho = (p if rng.random() < 0.5 else -p) if r % 2 else \
            (p / q if rng.random() < 0.5 else -p * q)
        generated.append((roots, rho, q))
    for us, rho, q in generated:
        ps = nondegenerate_params(QQ, list(us), rho, q,
                                  order=2 * len(us) + 8)
        assert verify_pm_identity(ps).passed, (us, rho, q)
        wm = wminus_ratfunc(ps.omega)
        assert wm == (-wplus_ratfunc(ps.omega)).substitute_inverse_t()
        seq = omega_negative(ps, 4)
        assert seq.negative[0] == ps.omega.prefix[1] * (ps.rho * ps.rho).inverse()
    # B identity for 20 random q
    rng = random.Random(2024)
    checked = 0
    t = RatFunc.t(QQ)
    one = RatFunc.constant(QQ, 1)
    while checked < 20:
        q = QQ(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
        if not q or not (q - q.inverse()):
            continue
        delta = q - q.inverse()
        B = RatFunc.constant(QQ, delta.inverse()) + t / (t * t - one)
        lhs = -(B * B.substitute_inverse_t())
        rhs = (t * t) / ((t * t - one) * (t * t - one)) \
            - RatFunc.constant(QQ, delta.inverse() * delta.inverse())
        assert lhs == rhs
        checked += 1
    _finish("4 (generating-function identities)", started, 5)


def test_criterion_5_counts():
    started = time.monotonic()
    expected_diagrams = {1: 1, 2: 3, 3: 15, 4: 105}
    for n, want in expected_diagrams.items():
        assert sum(1 for _ in enumerate_diagrams(n)) == want
    for n in range(1, 5):
        for r in range(1, 4):
            got = sum(1 for _ in enumerate_regular(n, r))
            assert got == r ** n * expected_diagrams[n], (n, r)
    assert 3 ** 4 * 105 == 8505  # the stated maximum really is hit above
    for n in range(1, 5):
        for d in (1, 2):
            got = sum(1 for _ in enumerate_ideal_spanning(n, d))
            want = d ** n * (expected_diagrams[n] - math.factorial(n))
            assert got == want == count_ideal_spanning(n, d)
    assert rank_formula(2, 3, 1) == 19
    _finish("5 (diagram and spanning counts)", started, 30)


def test_criterion_6_semi_admissibility_round_trip():
    started = time.monotonic()
    rng = random.Random(60914)
    for r in range(2, 5):
        for d in range(1, r):
            for _ in range(10):
                roots = []
                while len(roots) < r:
                    x = Fraction(rng.randint(1, 60))
                    if x != Fraction(1, 2) and \
                            all(x != y and x != -y for y in roots):
                        roots.append(x)
                ps = construct_example(QQ, d, roots[:d], roots[d:],
                                       order=2 * r + 9)
                det = detect(ps)
                assert det.status == "semi-admissible", (d, roots)
                assert det.d == d, (d, roots, det)
                assert det.subsets == (tuple(range(d)),), (d, roots, det)
    _finish("6 (semi-admissibility round trip, 1 <= d < r <= 4)", started, 30)


def test_criterion_7_rationality_round_trip():
    started = time.monotonic()
    q = Fraction(2)
    cases = [
        ([2, 3, 5], Fraction(30), 1, ()),
        ([2, 3, 5, -1, 1], Fraction(-30), 2, (-1, 1)),
        ([2, 3, 1], Fraction(6), 3, (1,)),
        ([2, 3, -1], Fraction(-6), 4, (-1,)),
    ]
    for us, rho, want_case, want_ext in cases:
        ps = nondegenerate_params(QQ, us, rho, q, order=2 * len(us) + 8)
        res = affine_classify(ps)
        assert res.case == want_case, (us, res.case)
        assert tuple(x.raw for x in res.extension) == want_ext
        assert res.certificate.passed
        prod = QQ.one
        for x in res.roots:
            prod = prod * x
        assert ps.rho == (prod if res.alpha == 0 else -prod)
    _finish("7 (affine rationality classification, 4 cases)", started, 20)


def test_criterion_8_char2_recovery():
    started = time.monotonic()
    for k in (2, 3, 4):
        field = BinaryField(k)
        nonzero = [x for x in field.elements() if x]
        for size in (1, 2, 3):
            for roots in combinations(nonzero, size):
                prefix = []
                for a in range(12):
                    acc = field.zero
                    for x in roots:
                        acc = acc + x ** a
                    prefix.append(acc)
                # Frobenius holds on the built sequence
                for a in range(6):
                    assert prefix[2 * a] == prefix[a] * prefix[a]
                rec = char2_recover(field, prefix)
                assert set(rec.roots) == set(roots), (k, roots)
                assert not rec.zero_adjoined
    _finish("8 (characteristic-2 recovery over GF(4), GF(8), GF(16))",
            started, 10)


def test_criterion_9_diagram_relations():
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            e = BrauerDiagram.cap(i, n)
            d, loops = compose(e, e)
            assert d == e and loops == 1
        for i in range(1, n - 1):
            ei, ej = BrauerDiagram.cap(i, n), BrauerDiagram.cap(i + 1, n)
            for first, second in ((ei, ej), (ej, ei)):
                d, l1 = compose(first, second)
                d, l2 = compose(d, first)
                assert d == first and l1 + l2 == 0
    for n in range(1, 6):
        for gamma in enumerate_diagrams(n):
            fac = factorize(gamma)
            rebuilt, loops = fac.recompose()
            assert rebuilt == gamma and loops == 0
    _finish("9 (diagram relations and factorization round trip)", started, 20)


def test_budget_degenerate_params_gf256_r6_order200():
    started = time.monotonic()
    field = BinaryField(8)
    us = [field.gen() ** e for e in (1, 17, 40, 99, 150, 254)]
    ps = degenerate_params(field, us, order=200)
    assert len(ps.omega) == 201 and ps.omega.order == 6
    _finish("degenerate_params(GF(2^8), r=6, order=200)", started, 1)


def test_budget_degenerate_params_qq_r6_order200():
    started = time.monotonic()
    us = [QQ(2), QQ(-3), QQ(Fraction(1, 2)), QQ(5), QQ(Fraction(-7, 3)), QQ(4)]
    ps = degenerate_params(QQ, us, order=200)
    assert len(ps.omega) == 201 and ps.omega.order == 6
    _finish("degenerate_params(QQ, r=6, order=200)", started, 1)


def test_budget_roots_gf1000003_degree2():
    started = time.monotonic()
    field = PrimeField(1000003)
    roots = [field(999983), field(1000001)]
    assert Poly.from_roots(field, roots).roots_with_multiplicity() == roots
    _finish("roots_with_multiplicity over GF(1000003), degree 2", started, 1)


def test_budget_roots_gf_mersenne61_degree6():
    started = time.monotonic()
    p = 2**61 - 1
    field = PrimeField(p)
    raws = [0, 3, 3, 2**40 + 15, 2**60 + 1, p - 2]
    roots = [field(x) for x in raws]
    assert Poly.from_roots(field, roots).roots_with_multiplicity() == roots
    _finish("roots_with_multiplicity over GF(2^61 - 1), degree 6", started, 1)


def test_budget_roots_qq_degree6_roots_near_1000():
    # trial division over the divisors of the constant term took 131 s here
    started = time.monotonic()
    roots = [QQ(x) for x in (997, Fraction(1001, 3), -1009, 1013, 1013,
                             Fraction(-1019, 2))]
    f = Poly.from_roots(QQ, roots) * QQ(Fraction(7, 5))
    assert f.roots_with_multiplicity() == roots
    _finish("roots_with_multiplicity over QQ, degree 6, roots near 1000",
            started, 1)


def test_budget_classify_gf1000003_r3(tmp_path, capsys):
    p = 1000003
    u = [999979, 999983, 1000001]
    doc = {"kind": "nondegenerate", "field": {"type": "prime", "p": p},
           "u": [str(x) for x in u], "rho": str(math.prod(u) % p), "q": "2",
           "omega": {"from_u": True, "order": 12}}
    path = tmp_path / "classify.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    started = time.monotonic()
    code = main(["classify", "--file", str(path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == 1
    assert sorted(payload["roots"]) == u
    _finish("bmwparam classify, GF(1000003), r=3", started, 1)


def test_budget_exponent_scalar_refused(tmp_path, capsys):
    # Fraction("1e30000000") would build a 30-million-digit integer; the
    # 12-byte scalar is refused as an undocumented form instead
    doc = {"kind": "degenerate", "field": {"type": "rational"},
           "u": ["1e30000000"]}
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    started = time.monotonic()
    assert main(["gen-omega", "--file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: u[0]:")
    _finish("bmwparam gen-omega refuses an exponent-notation rational",
            started, 1)


def test_budget_counts_at_the_n_limit(capsys):
    # the largest accepted --n; with r = d = 1 every count prints, and the
    # rank d^n b'(n) + r^n n! is (2n-1)!! itself
    started = time.monotonic()
    assert main(["counts", "--n", str(COUNTS_N_MAX), "--r", "1",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == payload["diagrams"] \
        == double_factorial_odd(COUNTS_N_MAX)
    assert main(["counts", "--n", str(COUNTS_N_MAX + 1), "--r", "1"]) == 2
    _finish(f"bmwparam counts --n {COUNTS_N_MAX}", started, 1)


def test_budget_factorize_round_trip_all_n6():
    diagrams = list(enumerate_diagrams(6))
    assert len(diagrams) == 10395
    started = time.monotonic()
    for gamma in diagrams:
        rebuilt, loops = factorize(gamma).recompose()
        assert rebuilt == gamma and loops == 0
    _finish("factorize + recompose, all 10395 diagrams at n=6", started, 2)


def test_budget_compose_20000_random_n6():
    rng = random.Random(6)
    vertices = list(range(12))

    def random_diagram():
        rng.shuffle(vertices)
        return BrauerDiagram.from_pairs(6, zip(vertices[::2], vertices[1::2]))

    pairs = [(random_diagram(), random_diagram()) for _ in range(20000)]
    started = time.monotonic()
    loops = sum(compose(d1, d2)[1] for d1, d2 in pairs)
    assert loops > 0
    _finish("20000 random compositions at n=6", started, 0.5)
