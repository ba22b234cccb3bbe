"""Admissibility checks for (non-degenerate) cyclotomic BMW parameter data.

Two criteria, equivalent over an integral domain when q - q^{-1} != 0:

* the Wilcox-Yu relations: the recursion sum_j a_j omega_{j+l} = 0, the
  bracket relations below for 1 <= l <= r-1, and the constraint
  rho = +-a_0 (r odd) or rho in {q^{-1} a_0, -q a_0} (r even);
* the Rui-Xu generating-function identity
  (q - q^{-1}) sum_a omega_a t^{-a} = Z(t; u, rho, q).

The bracket relation for 1 <= l <= r-1 reads

    (q - q^{-1}) sum_{j=1}^{r-l} a_{j+l} omega_j
        = -rho (a_l - a_{r-l}/a_0)
          + (q - q^{-1}) [ sum_{j=max(l+1, ceil(r/2))}^{floor((l+r)/2)} a_{2j-l}
                         - sum_{j=ceil(l/2)}^{min(l, ceil(r/2)-1)} a_{2j-l} ],

with empty sums when a lower bound exceeds its upper bound.  The index
bounds are the most transcription-prone part of the criterion, so they are
isolated in :func:`wy_bracket_sums` and unit-tested on their own.
"""

from __future__ import annotations

import math
import random
from typing import List

from . import symfun
from .omega import (OmegaSeq, ParamSet, ParameterError, RXFunctions,
                    _ratfunc_report, _series_report, check_rho_constraint,
                    checked_delta, nondegenerate_params, rx_functions,
                    wplus_ratfunc)
from .report import AdmissibilityReport, Witness, single
from .sampling import random_element
from .adm_degenerate import HarnessReport, _recursion_report
from .univar import Series

__all__ = ["RXFunctions", "rx_functions", "wy_bracket_sums", "check_recursion",
           "wilcox_yu_check", "rui_xu_check", "equivalence_harness_nondegenerate"]


def _require_nondegenerate(params: ParamSet):
    if params.kind != "nondegenerate":
        raise ParameterError("non-degenerate-kind parameters required")
    checked_delta(params.q)


def wy_bracket_sums(acoeffs, ell, r):
    """The two bracketed coefficient sums of the l-th Wilcox-Yu relation.

    Returns (positive_sum, negative_sum); callers subtract them.  Empty
    ranges contribute zero.
    """
    zero = acoeffs[0] * 0
    lo1 = max(ell + 1, (r + 1) // 2)       # ceil(r/2)
    hi1 = (ell + r) // 2                   # floor((l+r)/2)
    pos = zero
    for j in range(lo1, hi1 + 1):
        pos = pos + acoeffs[2 * j - ell]
    lo2 = (ell + 1) // 2                   # ceil(l/2)
    hi2 = min(ell, (r + 1) // 2 - 1)
    neg = zero
    for j in range(lo2, hi2 + 1):
        neg = neg + acoeffs[2 * j - ell]
    return pos, neg


def check_recursion(params: ParamSet, bound=None) -> AdmissibilityReport:
    """Verify sum_j a_j omega_{j+l} = 0 for 0 <= l <= bound."""
    return _recursion_report(params, bound)


def wilcox_yu_check(params: ParamSet, bound=None) -> AdmissibilityReport:
    """The Wilcox-Yu criterion: recursion, bracket relations, rho constraint."""
    _require_nondegenerate(params)
    r = params.r
    if len(params.omega) < r:
        raise ParameterError(f"insufficient prefix: need omega_0..omega_{r - 1}")
    field = params.field
    acoeffs = symfun.char_poly_coeffs(list(params.u))
    delta = params.q_minus_qinv()
    om = params.omega.prefix
    a0_inv = acoeffs[0].inverse()

    report = check_recursion(params, bound)

    relations_witness = None
    for ell in range(1, r):
        lhs = field.zero
        for j in range(1, r - ell + 1):
            lhs = lhs + acoeffs[j + ell] * om[j]
        lhs = delta * lhs
        pos, neg = wy_bracket_sums(acoeffs, ell, r)
        rhs = -(params.rho * (acoeffs[ell] - acoeffs[r - ell] * a0_inv)) \
            + delta * (pos - neg)
        if lhs != rhs:
            relations_witness = Witness("wy-relations", ell, lhs, rhs)
            break
    report = report.combined_with(
        single("wy-relations", relations_witness is None, relations_witness))

    rho_witness = None
    if check_rho_constraint(field, params.u, params.rho, params.q) is not None:
        a0, q = acoeffs[0], params.q
        expect = f"+-a_0 = +-({a0})" if r % 2 == 1 else \
            f"q^-1 a_0 = {q.inverse() * a0} or -q a_0 = {-(q * a0)}"
        rho_witness = Witness("rho-constraint", "rho", params.rho, expect)
    return report.combined_with(
        single("rho-constraint", rho_witness is None, rho_witness))


def rui_xu_check(params: ParamSet, bound=None) -> AdmissibilityReport:
    """The generating-function criterion: (q - q^{-1}) w^+(t) = Z(t).

    Exact rational-function comparison when the sequence carries a closure,
    coefficientwise to the given order otherwise.  The constraint on rho
    (which follows from the identity and the ground-ring relation) is
    reported as a separate flag.
    """
    _require_nondegenerate(params)
    field = params.field
    diag = check_rho_constraint(field, params.u, params.rho, params.q)
    rho_report = single("rho-constraint", diag is None,
                        None if diag is None
                        else Witness("rho-constraint", "rho", params.rho, diag))

    delta = params.q_minus_qinv()
    Z = rx_functions(field, params.u, params.rho, params.q).Z
    name = "generating-function"
    last = len(params.omega) - 1
    if params.omega.closure is not None:
        report = _ratfunc_report(name, wplus_ratfunc(params.omega) * delta, Z,
                                 bound if bound is not None else last)
    else:
        bound = last if bound is None else min(bound, last)
        report = _series_report(
            name, Series(params.omega.prefix[:bound + 1]).scaled(delta),
            Z.series_at_infinity(bound))
    return report.combined_with(rho_report)


def equivalence_harness_nondegenerate(fields, samples=100, seed=0, r_max=4,
                                      bound=6) -> HarnessReport:
    """Drive Wilcox-Yu <=> Rui-Xu agreement on seeded samples.

    Samples mix honestly generated parameters (both rho branches), tampered
    coefficients, wrong-rho variants, and noise sequences; the two criteria
    must pass or fail together on every sample.
    """
    rng = random.Random(seed)
    disagreements: List[str] = []
    total = 0
    for field in fields:
        for i in range(samples):
            total += 1
            r = rng.randint(1, r_max)
            u = [random_element(field, rng, nonzero=True) for _ in range(r)]
            q = _random_q(field, rng)
            rho = _branch_rho(rng, r, math.prod(u, start=field.one), q)
            honest = nondegenerate_params(field, u, rho, q,
                                          order=r + bound + 1)
            mode = rng.choice(("honest", "tampered", "wrong-rho", "noise"))
            params = honest
            if mode == "tampered":
                prefix = list(honest.omega.prefix)
                idx = rng.randrange(1, len(prefix))
                prefix[idx] = prefix[idx] + field.one
                params = ParamSet("nondegenerate", field, tuple(u),
                                  OmegaSeq(field, tuple(prefix)),
                                  rho=rho, q=q)
            elif mode == "wrong-rho":
                # keep the sequence, swap in a rho consistent with the
                # ground-ring relation for the same omega_0 but off-branch
                params = _wrong_rho_variant(field, honest, rng)
                if params is None:
                    params = honest
            elif mode == "noise":
                prefix = [honest.omega.prefix[0]] + [
                    random_element(field, rng)
                    for _ in range(len(honest.omega.prefix) - 1)]
                params = ParamSet("nondegenerate", field, tuple(u),
                                  OmegaSeq(field, tuple(prefix)),
                                  rho=rho, q=q)
            wy = wilcox_yu_check(params, bound).passed
            rx = rui_xu_check(params, r + bound).passed
            if wy != rx:
                disagreements.append(
                    f"{field} sample {i} ({mode}): wilcox-yu={wy} rui-xu={rx}")
    return HarnessReport(total, total - len(disagreements),
                         tuple(disagreements))


def _random_q(field, rng):
    # every unit of GF(2) and GF(3) squares to 1, so no valid q exists there
    for _ in range(10000):
        q = random_element(field, rng, nonzero=True)
        if q - q.inverse():
            return q
    raise ValueError(f"no q with q - q^{{-1}} != 0 in {field}")


def _branch_rho(rng, r, prod_u, q):
    if r % 2 == 1:
        return prod_u if rng.random() < 0.5 else -prod_u
    return q.inverse() * prod_u if rng.random() < 0.5 else -(q * prod_u)


def _wrong_rho_variant(field, honest, rng):
    """A rho off the admissible branch but still satisfying the ground-ring
    relation with omega_0; returns None when no such rho exists."""
    # the ground-ring relation makes rho a root of x^2 + c x - 1 with
    # c = (q^{-1} - q)(omega_0 - 1); the roots multiply to -1, and the
    # honest rho is one of them
    other = -(honest.rho.inverse())
    if other == honest.rho:
        return None
    seq = OmegaSeq(field, honest.omega.prefix)  # drop closure: exactness moot
    try:
        return ParamSet("nondegenerate", field, honest.u, seq,
                        rho=other, q=honest.q)
    except ParameterError:
        return None
