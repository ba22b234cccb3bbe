"""Admissibility checks for degenerate cyclotomic BMW parameter data.

Three criteria, provably equivalent when applied over matching index windows:

* recursion: sum_{j=0}^r a_j omega_{j+l} = 0 for all l >= 0, where the a_j
  are the coefficients of p(y) = prod (y - u_j);
* relations: sum_{mu=0}^{r-j-1} omega_mu a_{mu+j+1}
  = -2 [r-j odd] a_j + [j even] a_{j+1} for 0 <= j <= r-1;
* u-admissibility: omega_a = eta_a^+(u_1, ..., u_r) for all a >= 0.

The first two together hold iff the third does; the harness at the bottom
drives that equivalence over randomized samples in several characteristics,
including 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from . import symfun
from .omega import (OmegaSeq, ParamSet, ParameterError, degenerate_params,
                    first_residue)
from .report import AdmissibilityReport, Witness, single
from .sampling import random_element

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
    om = params.omega.prefix
    zero = params.field.zero
    two = params.field.one + params.field.one
    # scan in the unitriangular solve order j = r-1, ..., 0, so a failure is
    # reported at the relation where the offending omega first appears alone
    for j in range(r - 1, -1, -1):
        lhs = zero
        for mu in range(r - j):
            lhs = lhs + om[mu] * acoeffs[mu + j + 1]
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


@dataclass(frozen=True)
class HarnessReport:
    """Result of a randomized two-sided equivalence drive."""

    samples: int
    agreements: int
    disagreements: Tuple[str, ...]

    @property
    def passed(self):
        return not self.disagreements and self.samples == self.agreements

    def summary(self):
        if self.passed:
            return f"{self.samples} samples, all agree"
        return (f"{self.samples} samples, {len(self.disagreements)} disagreements: "
                + "; ".join(self.disagreements[:3]))


def _tamper(field, prefix, rng):
    idx = rng.randrange(len(prefix))
    bumped = list(prefix)
    bumped[idx] = bumped[idx] + field.one
    return tuple(bumped)


def equivalence_harness_degenerate(fields, samples=100, seed=0, r_max=4,
                                   bound=6) -> HarnessReport:
    """Drive (recursion and relations) <=> u-admissibility on seeded samples.

    Each sample draws roots, then either keeps the honest sequence, tampers
    with one coefficient, or replaces the tail with noise.  Both sides of the
    equivalence are evaluated over matching windows and must agree.
    """
    rng = random.Random(seed)
    disagreements: List[str] = []
    total = 0
    for field in fields:
        for i in range(samples):
            total += 1
            r = rng.randint(1, r_max)
            u = [random_element(field, rng) for _ in range(r)]
            honest = degenerate_params(field, u, order=r + bound + 1)
            mode = rng.choice(("honest", "tampered", "noise"))
            if mode == "honest":
                params = honest
            else:
                if mode == "tampered":
                    prefix = _tamper(field, honest.omega.prefix, rng)
                else:
                    prefix = tuple(random_element(field, rng)
                                   for _ in honest.omega.prefix)
                seq = OmegaSeq(field, prefix)
                params = ParamSet("degenerate", field, u, seq)
            lhs = check_recursion(params, bound).passed \
                and check_relations(params).passed
            rhs = check_u_admissible(params, r + bound).passed
            if lhs != rhs:
                disagreements.append(
                    f"{field} sample {i} ({mode}): recursion+relations={lhs} "
                    f"but u-admissible={rhs}")
    return HarnessReport(total, total - len(disagreements),
                         tuple(disagreements))
