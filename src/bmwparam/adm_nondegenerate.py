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

from . import symfun
from .omega import (ParamSet, ParameterError, check_rho_constraint,
                    checked_delta, recursion_report, rx_functions,
                    wplus_ratfunc)
from .report import (AdmissibilityReport, Witness, first_difference,
                     ratfunc_report, series_report, single)
from .univar import Series, recurrence_apply


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
    return recursion_report(params, bound)


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

    # sum_{j=1}^{r-l} a_{j+l} omega_j is the residue that check_relations
    # reads at omega_{r-1-l}, taken on the prefix shifted by one: listed
    # l = r-1, ..., 1, so it is read backwards
    lhs = [delta * acc for acc in reversed(
        recurrence_apply(acoeffs[-2::-1], om[1:r], 0, r - 1))]
    rhs = []
    for ell in range(1, r):
        pos, neg = wy_bracket_sums(acoeffs, ell, r)
        rhs.append(-(params.rho * (acoeffs[ell] - acoeffs[r - ell] * a0_inv))
                   + delta * (pos - neg))
    report = report.combined_with(
        first_difference("wy-relations", lhs, rhs, range(1, r)))

    rho_witness = None
    if check_rho_constraint(field, params.u, params.rho, params.q) is not None:
        a0, q = acoeffs[0], params.q
        expect = f"+-a_0 = +-({a0})" if r % 2 == 1 else \
            f"q^-1 a_0 = {q.inverse() * a0} or -q a_0 = {-(q * a0)}"
        rho_witness = Witness("rho-constraint", "rho", params.rho, expect)
    return report.combined_with(single("rho-constraint", rho_witness))


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
    rho_report = single("rho-constraint", None if diag is None
                        else Witness("rho-constraint", "rho", params.rho, diag))

    delta = params.q_minus_qinv()
    Z = rx_functions(field, params.u, params.rho, params.q).Z
    name = "generating-function"
    last = len(params.omega) - 1
    if params.omega.closure is not None:
        report = ratfunc_report(name, wplus_ratfunc(params.omega) * delta, Z,
                                bound if bound is not None else last)
    else:
        bound = last if bound is None else min(bound, last)
        report = series_report(
            name, Series(params.omega.prefix[:bound + 1]).scaled(delta),
            Z.series_at_infinity(bound))
    return report.combined_with(rho_report)
