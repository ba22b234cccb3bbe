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
from .omega import ParamSet, ParameterError, first_residue
from .report import AdmissibilityReport, Witness, single
from .univar import recurrence_apply

DEFAULT_RECURSION_BOUND = 20


def _require_degenerate(params: ParamSet):
    if params.kind != "degenerate":
        raise ParameterError("degenerate-kind parameters required")


def _acoeffs(params: ParamSet):
    return symfun.char_poly_coeffs(list(params.u))


def _recursion_window(params: ParamSet, bound):
    r = params.r
    available = len(params.omega) - r - 1
    if available < 0 or (bound is not None and available < bound):
        need = r + (bound if bound is not None else 0) + 1
        raise ParameterError(
            f"insufficient prefix: need at least {need} coefficients, "
            f"have {len(params.omega)}")
    if bound is None:
        return min(DEFAULT_RECURSION_BOUND, available)
    return bound


def check_recursion(params: ParamSet, bound=None) -> AdmissibilityReport:
    """Verify sum_j a_j omega_{j+l} = 0 for 0 <= l <= bound."""
    _require_degenerate(params)
    return _recursion_report(params, bound)


def _recursion_report(params: ParamSet, bound) -> AdmissibilityReport:
    """The recursion check itself; the same for both kinds of data."""
    bound = _recursion_window(params, bound)
    bad = first_residue(_acoeffs(params)[:-1], params.omega.prefix, bound + 1)
    if bad is None:
        return single("recursion", True)
    return single("recursion", False,
                  Witness("recursion", *bad, params.field.zero))


def check_relations(params: ParamSet) -> AdmissibilityReport:
    """Verify the r admissibility relations on omega_0..omega_{r-1}."""
    _require_degenerate(params)
    r = params.r
    if len(params.omega) < r:
        raise ParameterError(
            f"insufficient prefix: need omega_0..omega_{r - 1}")
    acoeffs = _acoeffs(params)
    zero = params.field.zero
    two = params.field.one + params.field.one
    # the left side of relation j is the recursion's residue at omega_{r-1-j};
    # scan in the unitriangular solve order j = r-1, ..., 0, so a failure is
    # reported at the relation where the offending omega first appears alone
    residues = recurrence_apply(acoeffs[-2::-1], params.omega.prefix, 0, r)
    for j, lhs in zip(range(r - 1, -1, -1), residues):
        rhs = zero
        if (r - j) % 2 == 1:
            rhs = rhs - two * acoeffs[j]
        if j % 2 == 0:
            rhs = rhs + acoeffs[j + 1]
        if lhs != rhs:
            return single("relations", False,
                          Witness("relations", j, lhs, rhs))
    return single("relations", True)


def check_u_admissible(params: ParamSet, bound=None) -> AdmissibilityReport:
    """Compare omega_a against eta_a^+(u) in the parameter field, a <= bound."""
    _require_degenerate(params)
    if len(params.omega) == 0:
        raise ParameterError("insufficient prefix: no omega values stored")
    if bound is None:
        bound = len(params.omega) - 1
    bound = min(bound, len(params.omega) - 1)
    etas = symfun.eta_values(+1, list(params.u), bound)
    for a in range(bound + 1):
        if params.omega.prefix[a] != etas[a]:
            return single("u-admissible", False,
                          Witness("u-admissible", a,
                                  params.omega.prefix[a], etas[a]))
    return single("u-admissible", True)


def full_check(params: ParamSet, bound=None) -> AdmissibilityReport:
    """All three criteria over matched windows, in one report."""
    ell_bound = _recursion_window(params, bound)
    rep = check_recursion(params, ell_bound) \
        .combined_with(check_relations(params))
    return rep.combined_with(check_u_admissible(params, params.r + ell_bound))
