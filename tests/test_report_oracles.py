"""Every first-failure comparison against the loop it replaced
(``tests/oracles.py``): the same checks and the same witness (name, index,
lhs, rhs), on seeded honest and tampered data over QQ, GF(p) and GF(2^k)."""

import math
import random

import pytest

from bmwparam import symfun
from bmwparam.adm_degenerate import check_relations, check_u_admissible
from bmwparam.adm_nondegenerate import (check_recursion, rui_xu_check,
                                        wilcox_yu_check)
from bmwparam.fields import QQ, BinaryField, PrimeField
from bmwparam.omega import (OmegaSeq, ParamSet, degenerate_params,
                            nondegenerate_params, rx_functions)
from bmwparam.rationality import weak_admissibility_check
from bmwparam.univar import Series
from oracles import (_random_q, convolution_loop, extended_loop,
                     frobenius_loop, random_element, relations_loop,
                     series_report_loop, u_admissible_loop, wy_relations_loop)

FIELDS = [QQ, PrimeField(10007), BinaryField(4)]
SAMPLES = 25


def outcome(report):
    w = report.witness
    return report.checks, None if w is None else (w.check, w.index, w.lhs, w.rhs)


def bumped(prefix, index):
    out = list(prefix)
    out[index] = out[index] + out[index].field.one
    return tuple(out)


def degenerate_samples(field, rng):
    """Honest prefixes of either parity, each followed by a copy with one
    omega bumped and one with the last bumped (in characteristic 2, on an
    odd-length prefix, only frobenius sees that one)."""
    for _ in range(SAMPLES):
        r = rng.randint(1, 4)
        u = [random_element(field, rng) for _ in range(r)]
        order = 2 * r + rng.randint(3, 4)
        prefix = degenerate_params(field, u, order=order).omega.prefix
        for pre in (prefix, bumped(prefix, rng.randrange(order + 1)),
                    bumped(prefix, order)):
            yield ParamSet("degenerate", field, u, OmegaSeq(field, pre))


def nondegenerate_samples(field, rng):
    """Honest prefixes on either rho branch, then one omega past omega_0
    bumped (omega_0 is tied to rho and q), then one of omega_1..omega_{r-1}
    bumped and the rest rerun by the recursion, which the Wilcox-Yu
    recursion check passes so that its relations give the witness."""
    for _ in range(SAMPLES):
        r = rng.randint(1, 4)
        u = [random_element(field, rng, nonzero=True) for _ in range(r)]
        q = _random_q(field, rng)
        p = math.prod(u, start=field.one)
        rho = rng.choice([p, -p] if r % 2 else [q.inverse() * p, -(q * p)])
        prefix = nondegenerate_params(field, u, rho, q,
                                      order=2 * r + 3).omega.prefix
        variants = [prefix, bumped(prefix, rng.randrange(1, len(prefix)))]
        if r > 1:
            head = bumped(prefix[:r], rng.randrange(1, r))
            closed = OmegaSeq(field, head, symfun.closure_coeffs(u))
            variants.append(extended_loop(closed, len(prefix) - 1))
        for pre in variants:
            yield ParamSet("nondegenerate", field, u, OmegaSeq(field, pre),
                           rho=rho, q=q)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_degenerate_reports_match_loops(field):
    rng = random.Random(13)
    witnessed = set()
    for params in degenerate_samples(field, rng):
        prefix = params.omega.prefix
        weak = convolution_loop(field, prefix)
        if field.char == 2:
            weak = weak.combined_with(frobenius_loop(field, prefix))
        bound = rng.randrange(len(prefix))
        pairs = [(check_relations(params), relations_loop(params)),
                 (check_u_admissible(params), u_admissible_loop(params)),
                 (check_u_admissible(params, bound),
                  u_admissible_loop(params, bound)),
                 (weak_admissibility_check(field, prefix), weak)]
        for report, oracle in pairs:
            assert outcome(report) == outcome(oracle)
            witnessed.add(report.witness and report.witness.check)
    assert witnessed >= {None, "relations", "u-admissible", "convolution"}
    assert ("frobenius" in witnessed) == (field.char == 2)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_nondegenerate_reports_match_loops(field):
    rng = random.Random(14)
    rho_pass = (("rho-constraint", True),)
    witnessed = set()
    for params in nondegenerate_samples(field, rng):
        checks, witness = outcome(check_recursion(params).combined_with(
            wy_relations_loop(params)))
        assert outcome(wilcox_yu_check(params)) == (checks + rho_pass, witness)
        witnessed.add(witness and witness[0])

        delta = params.q_minus_qinv()
        Z = rx_functions(field, params.u, params.rho, params.q).Z
        last = len(params.omega) - 1
        lhs = Series(params.omega.prefix).scaled(delta)
        rhs = Z.series_at_infinity(last)
        checks, witness = outcome(
            series_report_loop("generating-function", lhs, rhs))
        assert outcome(rui_xu_check(params)) == (checks + rho_pass, witness)
        assert lhs.first_disagreement(rhs) == (
            None if witness is None else witness[1])
        witnessed.add(witness and witness[0])
    assert witnessed >= {None, "recursion", "wy-relations",
                         "generating-function"}
