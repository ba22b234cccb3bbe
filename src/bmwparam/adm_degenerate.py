"""Admissibility checks for degenerate cyclotomic BMW parameter data.

Three criteria, provably equivalent when applied over matching index windows:

* recursion: sum_{j=0}^r a_j omega_{j+l} = 0 for all l >= 0, where the a_j
  are the coefficients of p(y) = prod (y - u_j);
* relations: sum_{mu=0}^{r-j-1} omega_mu a_{mu+j+1}
  = -2 [r-j odd] a_j + [j even] a_{j+1} for 0 <= j <= r-1;
* u-admissibility: omega_a = eta_a^+(u_1, ..., u_r) for all a >= 0.

The first two together hold iff the third does.  The suite drives that
equivalence over seeded random samples in several characteristics,
including 2 (``tests/oracles.py``).
"""

from __future__ import annotations

from . import symfun
from .omega import (DEFAULT_RECURSION_BOUND, ParamSet, ParameterError,
                    recursion_report)
from .report import AdmissibilityReport, first_difference
from .univar import recurrence_apply


def _require_degenerate(params: ParamSet):
    if params.kind != "degenerate":
        raise ParameterError("degenerate-kind parameters required")


def check_recursion(params: ParamSet, bound=None) -> AdmissibilityReport:
    """Verify sum_j a_j omega_{j+l} = 0 for 0 <= l <= bound."""
    _require_degenerate(params)
    return recursion_report(params, bound)


def check_relations(params: ParamSet) -> AdmissibilityReport:
    """Verify the r admissibility relations on omega_0..omega_{r-1}."""
    _require_degenerate(params)
    r = params.r
    if len(params.omega) < r:
        raise ParameterError(
            f"insufficient prefix: need omega_0..omega_{r - 1}")
    acoeffs = symfun.char_poly_coeffs(list(params.u))
    # the left side of relation j is the recursion's residue at omega_{r-1-j};
    # both sides run in the unitriangular solve order j = r-1, ..., 0, so a
    # failure is reported at the relation where the offending omega first
    # appears alone
    return first_difference(
        "relations", recurrence_apply(acoeffs[-2::-1], params.omega.prefix, 0, r),
        symfun.relations_rhs(acoeffs), range(r - 1, -1, -1))


def check_u_admissible(params: ParamSet, bound=None) -> AdmissibilityReport:
    """Compare omega_a against eta_a^+(u) in the parameter field, a <= bound."""
    _require_degenerate(params)
    if len(params.omega) == 0:
        raise ParameterError("insufficient prefix: no omega values stored")
    if bound is None:
        bound = len(params.omega) - 1
    bound = min(bound, len(params.omega) - 1)
    # zip stops at the end of the etas: no slice of the prefix is copied
    return first_difference("u-admissible", params.omega.prefix,
                            symfun.eta_values(+1, list(params.u), bound))


def full_check(params: ParamSet, bound=None) -> AdmissibilityReport:
    """All three criteria over matched windows, in one report: the
    recursion for l <= bound, u-admissibility for a <= r + bound.  Past a
    short prefix both windows end where the prefix does."""
    rep = check_recursion(params, bound) \
        .combined_with(check_relations(params))
    ell_bound = DEFAULT_RECURSION_BOUND if bound is None else bound
    return rep.combined_with(check_u_admissible(params, params.r + ell_bound))
