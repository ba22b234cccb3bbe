"""Semi-admissibility: detection, guaranteed examples, and rank bookkeeping.

Over a field, parameter data falls into exactly one of three regimes:
admissible, d-semi-admissible for some 0 < d < r (the contraction ideal is
governed by a proper sub-collection of the cyclotomic roots), or the
collapse to the (degenerate) cyclotomic Hecke algebra.  Detection searches
sub-multisets of the roots by increasing size; the minimal polynomial
p_0(y) = prod (y - v_j) of a passing sub-collection divides prod (y - u_j),
which is why subsets of the given roots suffice.

The free-module rank in the d-semi-admissible regime is

    d^n b'(n) + r^n n!,    b'(n) = (2n-1)!! - n!,

the first summand counting the spanning elements of the contraction ideal
and the second the regular monomials of the Hecke quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Tuple

from . import symfun
from .adm_degenerate import check_u_admissible
from .adm_nondegenerate import rui_xu_check
from .diagrams import count_ideal_spanning
from .omega import (OmegaSeq, ParamSet, ParameterError, checked_delta,
                    default_order, degenerate_params)

SUBSET_SEARCH_R_CAP = 8

ADMISSIBLE = "admissible"
SEMI_ADMISSIBLE = "semi-admissible"
HECKE_COLLAPSE = "hecke-collapse"


class ConstraintError(ValueError):
    """Example-construction constraints violated; lists every violation."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Detection:
    """Outcome of the three-way regime detection.

    For the semi-admissible regime, ``subsets`` holds every minimal-size
    passing index subset (0-based, into the root list) and ``p0_coeffs`` the
    matching monic coefficient vectors b_0..b_d of prod (y - v_j).  Generic
    inputs have exactly one subset; ties are all returned.
    """

    status: str
    d: Optional[int] = None
    subsets: Tuple[Tuple[int, ...], ...] = ()
    p0_coeffs: Tuple[Tuple[object, ...], ...] = ()


def _subset_passes(params: ParamSet, roots, bound) -> bool:
    """Whether the omegas pass the admissibility criterion of their kind
    with the root list replaced by ``roots``."""
    field = params.field
    if params.kind == "degenerate":
        sub = ParamSet("degenerate", field, tuple(roots), params.omega)
        return check_u_admissible(sub, bound).passed
    sub = ParamSet("nondegenerate", field, tuple(roots),
                   OmegaSeq(field, params.omega.prefix),
                   rho=params.rho, q=params.q)
    return rui_xu_check(sub, bound).passed


def detect(params: ParamSet, bound=None) -> Detection:
    """Classify the parameters as admissible, d-semi-admissible (with all
    minimal passing sub-collections), or Hecke collapse."""
    r = params.r
    if r > SUBSET_SEARCH_R_CAP:
        raise ParameterError(f"subset search capped at r <= {SUBSET_SEARCH_R_CAP}")
    if params.kind == "nondegenerate":
        checked_delta(params.q)
    if bound is None:
        bound = len(params.omega) - 1
    if _subset_passes(params, params.u, bound):
        return Detection(ADMISSIBLE)
    for d in range(1, r):
        hits = []
        seen_multisets = set()
        for idxs in combinations(range(r), d):
            roots = tuple(params.u[i] for i in idxs)
            key = tuple(sorted(repr(x.raw) for x in roots))
            if key in seen_multisets:
                continue
            seen_multisets.add(key)
            if _subset_passes(params, roots, bound):
                coeffs = tuple(symfun.char_poly_coeffs(list(roots)))
                hits.append((idxs, coeffs))
        if hits:
            return Detection(SEMI_ADMISSIBLE, d,
                             tuple(h[0] for h in hits),
                             tuple(h[1] for h in hits))
    return Detection(HECKE_COLLAPSE)


def construct_example(field, d, base, extra, order=None) -> ParamSet:
    """Degenerate parameters guaranteed to be d-semi-admissible.

    Takes omega_a = eta_a^+(base) with the root list base + extra.  Requires
    characteristic != 2, all roots pairwise u_i != +-u_j (hence nonzero), and
    every root different from +-1/2; each violated constraint is reported.
    """
    violations = []
    if field.char == 2:
        violations.append("characteristic 2 rings are excluded")
        raise ConstraintError(violations)
    base = [field(x) for x in base]
    extra = [field(x) for x in extra]
    if len(base) != d:
        violations.append(f"base roots count {len(base)} != d = {d}")
    if not extra:
        violations.append("need at least one extra root (else parameters are admissible)")
    roots = base + extra
    half = field(1) / field(2)
    for i, x in enumerate(roots):
        if not x:
            violations.append(f"root u_{i + 1} = 0 (violates u_i != -u_i)")
        if x == half or x == -half:
            violations.append(f"root u_{i + 1} = {x} is +-1/2")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if roots[i] == roots[j]:
                violations.append(f"u_{i + 1} = u_{j + 1} = {roots[i]}")
            if roots[i] == -roots[j]:
                violations.append(f"u_{i + 1} = -u_{j + 1} = {roots[i]}")
    if violations:
        raise ConstraintError(violations)
    if order is None:
        order = default_order(len(roots))
    seq = degenerate_params(field, base, order).omega
    return ParamSet("degenerate", field, tuple(roots), seq)


def rank_formula(n: int, r: int, d: int) -> int:
    """Free rank d^n b'(n) + r^n n! of the degree-n algebra in the
    d-semi-admissible regime (d = r gives the admissible rank r^n (2n-1)!!)."""
    if not 0 < d <= r:
        raise ValueError(f"need 0 < d <= r, got d={d}, r={r}")
    return count_ideal_spanning(n, d) + r ** n * math.factorial(n)
