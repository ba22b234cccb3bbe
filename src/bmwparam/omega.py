"""Omega-sequences and parameter bundles.

An omega-sequence is the two-sided family (omega_a) of contraction scalars of
a (degenerate) cyclotomic BMW algebra: a finite nonnegative prefix, an
optional monic linear recursion closing it for all integer indices, and an
optional negative-index prefix.  A :class:`ParamSet` bundles the sequence with
the cyclotomic roots u_1..u_r and, in the non-degenerate case, the invertible
scalars rho and q, which must satisfy

    rho^{-1} - rho = (q^{-1} - q)(omega_0 - 1).

Generation routes:

* degenerate: omega_a = eta_a^+(u_1, ..., u_r),
* non-degenerate: (q - q^{-1}) sum omega_a t^{-a} = Z(t; u, rho, q), with
  Z built from G(t) = prod (t - u_l)/(t u_l - 1) and the odd/even branch A(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from . import symfun
from .fields import Field, FieldElement
from .report import (AdmissibilityReport, Witness, ratfunc_report,
                     series_report, single)
from .univar import (Poly, RatFunc, Series, recurrence_apply,
                     recurrence_solve)


class ParameterError(ValueError):
    """Parameter data violating a structural precondition."""


@dataclass(frozen=True)
class OmegaSeq:
    """Prefix omega_0..omega_N, optional recursion closure, negative prefix.

    The closure records monic recursion coefficients (a_0, ..., a_{r-1}): the
    sequence satisfies omega_{r+l} + sum_j a_j omega_{j+l} = 0.  On
    construction the recursion is verified across the stored prefix, so a
    sequence carrying a closure really is closed.
    """

    field: Field
    prefix: Tuple[FieldElement, ...]
    closure: Optional[Tuple[FieldElement, ...]] = None
    negative: Tuple[FieldElement, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "prefix",
                           tuple(self.field(c) for c in self.prefix))
        if self.closure is not None:
            object.__setattr__(self, "closure",
                               tuple(self.field(c) for c in self.closure))
        object.__setattr__(self, "negative",
                           tuple(self.field(c) for c in self.negative))
        if self.closure is not None:
            bad = first_residue(self.closure, self.prefix,
                                len(self.prefix) - len(self.closure))
            if bad is not None:
                raise ParameterError(
                    f"closure violated at l={bad[0]}: residue {bad[1]}")

    @property
    def order(self) -> Optional[int]:
        """Order of the recursion closure, if any."""
        return None if self.closure is None else len(self.closure)

    def __len__(self):
        return len(self.prefix)

    def omega(self, a: int) -> FieldElement:
        """omega_a for any stored or closure-reachable index."""
        if a >= 0:
            if a < len(self.prefix):
                return self.prefix[a]
            if self.closure is not None:
                return self._forward(a)[-1]
            raise IndexError(f"omega_{a} not stored and no closure")
        if -a <= len(self.negative):
            return self.negative[-a - 1]
        if self.closure and self.closure[0]:
            return self._backward(-a)[-a - 1]
        raise IndexError(f"omega_{a} not stored; closure absent or a_0 = 0")

    def extended(self, upto: int) -> "OmegaSeq":
        """Extend the prefix through index upto using the closure."""
        if self.closure is None:
            raise ParameterError("cannot extend a sequence without closure")
        return OmegaSeq(self.field, self.prefix + tuple(self._forward(upto)),
                        self.closure, self.negative)

    def _forward(self, upto: int):
        """omega_n..omega_upto past the n stored terms, by rerunning the
        closure from the last r of them; an order-0 closure makes omega
        vanish."""
        r, n = len(self.closure), len(self.prefix)
        if n < r:
            raise ParameterError(
                f"prefix of length {n} cannot seed an order-{r} recursion")
        conn = self.closure[::-1]
        head = recurrence_apply(conn, self.prefix[n - r:], 0, r) \
            or [self.field.zero]
        return recurrence_solve(conn, head, upto + 1 - n + r)[r:]

    def _backward(self, upto: int):
        """omega_{-1}..omega_{-upto} by running the closure backwards:
        b_m = omega_{r-1-m} satisfies the reversed recursion, divided
        through by a_0."""
        r = len(self.closure)
        a0inv = self.closure[0].inverse()
        conn = [aj * a0inv for aj in self.closure[1:]] + [a0inv]
        head = recurrence_apply(conn, self.prefix[r - 1::-1], 0, r)
        return tuple(recurrence_solve(conn, head, r + upto)[r:])

    def with_negative(self, negative) -> "OmegaSeq":
        return OmegaSeq(self.field, self.prefix, self.closure, tuple(negative))


def first_residue(coeffs, values, count):
    """First (l, residue) with l < count where the monic recursion
    values[r+l] + sum_j coeffs[j] values[j+l] = 0 (r = len(coeffs)) leaves a
    nonzero residue; None when it holds for every such l."""
    r = len(coeffs)
    residues = recurrence_apply(coeffs[::-1], values, r, r + count)
    return next(((ell, res) for ell, res in enumerate(residues) if res), None)


DEFAULT_RECURSION_BOUND = 20


def recursion_report(params: ParamSet, bound=None) -> AdmissibilityReport:
    """The recursion check sum_j a_j omega_{j+l} = 0 for 0 <= l <= bound,
    with a_j the coefficients of prod (y - u_j), for either kind of data.
    Without a bound it runs as far as the prefix allows, up to
    ``DEFAULT_RECURSION_BOUND``; a prefix too short for the window is
    refused."""
    available = len(params.omega) - params.r - 1
    if available < 0 or (bound is not None and available < bound):
        need = params.r + (bound if bound is not None else 0) + 1
        raise ParameterError(
            f"insufficient prefix: need at least {need} coefficients, "
            f"have {len(params.omega)}")
    if bound is None:
        bound = min(DEFAULT_RECURSION_BOUND, available)
    bad = first_residue(symfun.closure_coeffs(params.u), params.omega.prefix,
                        bound + 1)
    return single("recursion", None if bad is None
                  else Witness("recursion", *bad, params.field.zero))


@dataclass(frozen=True)
class ParamSet:
    """Parameter bundle for a cyclotomic or degenerate cyclotomic algebra."""

    kind: str
    field: Field
    u: Tuple[FieldElement, ...]
    omega: OmegaSeq
    rho: Optional[FieldElement] = None
    q: Optional[FieldElement] = None

    def __post_init__(self):
        if self.kind not in ("degenerate", "nondegenerate"):
            raise ParameterError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "u", tuple(self.field(x) for x in self.u))
        if self.kind == "degenerate":
            if self.rho is not None or self.q is not None:
                raise ParameterError("degenerate parameters carry no rho, q")
            return
        if self.rho is None or self.q is None:
            raise ParameterError("non-degenerate parameters need rho and q")
        object.__setattr__(self, "rho", self.field(self.rho))
        object.__setattr__(self, "q", self.field(self.q))
        if not self.rho or not self.q:
            raise ParameterError("rho and q must be invertible")
        for x in self.u:
            if not x:
                raise ParameterError("cyclotomic roots must be invertible")
        if len(self.omega.prefix) > 0:
            om0 = self.omega.prefix[0]
            lhs = self.rho.inverse() - self.rho
            rhs = (self.q.inverse() - self.q) * (om0 - self.field.one)
            if lhs != rhs:
                raise ParameterError(
                    "ground-ring relation rho^-1 - rho = (q^-1 - q)(omega_0 - 1) "
                    f"violated: {lhs} != {rhs}")

    @property
    def r(self) -> int:
        return len(self.u)

    def q_minus_qinv(self) -> FieldElement:
        return self.q - self.q.inverse()


def checked_delta(q) -> FieldElement:
    """q - q^{-1}, which every non-degenerate criterion here divides by;
    q = +-1, where it vanishes, is refused."""
    delta = q - q.inverse()
    if not delta:
        raise ParameterError(
            "q - q^{-1} = 0 is outside the scope of these criteria")
    return delta


DEFAULT_ORDER_MARGIN = 8


def default_order(r: int) -> int:
    return 2 * r + DEFAULT_ORDER_MARGIN


def degenerate_params(field, u, order=None) -> ParamSet:
    """Parameters with omega_a = eta_a^+(u) for a <= order, closed by
    the coefficients of prod (y - u_j)."""
    u = tuple(field(x) for x in u)
    if not u:
        raise ParameterError("need at least one root")
    if order is None:
        order = default_order(len(u))
    prefix = symfun.eta_values(+1, u, order)
    closure = symfun.closure_coeffs(u)
    seq = OmegaSeq(field, tuple(prefix), closure)
    return ParamSet("degenerate", field, u, seq)


class RXFunctions(NamedTuple):
    """The generating-function data (G, A, Z) of the u-admissibility criterion."""

    G: RatFunc
    A: RatFunc
    Z: RatFunc


def rx_functions(field, u, rho, q) -> RXFunctions:
    """G(t) = prod (t - u_l)/(t u_l - 1); Z(t) = -rho^{-1}
    + (q - q^{-1}) t^2/(t^2-1) + A(t) G(t^{-1}), with the odd/even branch

        A(t) = rho^{-1} p + (q - q^{-1}) t/(t^2-1)      (r odd)
        A(t) = rho^{-1} p - (q - q^{-1}) t^2/(t^2-1)    (r even)

    where p = prod u_j.  Each is one fraction in P(t) = prod (t - u_l) and
    rev P(t) = t^r P(1/t) = prod (1 - u_l t), with p = (-1)^r P(0),
    delta = q - q^{-1} and A = a(t)/(t^2 - 1):

        G = (-1)^r P / rev P,    G(1/t) = rev P / ((-1)^r P),
        Z = [(delta t^2 - rho^{-1}(t^2 - 1)) (-1)^r P + a(t) rev P]
            / ((t^2 - 1) (-1)^r P)."""
    u = [field(x) for x in u]
    rho, q = field(rho), field(q)
    P = Poly.from_roots(field, u)
    rev = P.reversed()
    signed = P if len(u) % 2 == 0 else -P          # (-1)^r P
    delta, rinv = q - q.inverse(), rho.inverse()
    tt1 = Poly(field, (-1, 0, 1))                   # t^2 - 1
    a = tt1 * (rinv * signed.coeff(0)) \
        + Poly(field, (0, delta) if len(u) % 2 == 1 else (0, 0, -delta))
    Z = RatFunc(Poly(field, (rinv, 0, delta - rinv)) * signed + a * rev,
                tt1 * signed)
    return RXFunctions(RatFunc(signed, rev), RatFunc(a, tt1), Z)


def check_rho_constraint(field, u, rho, q) -> Optional[str]:
    """The constraint forced on rho by u-admissibility: rho = +-p for odd r,
    rho in {q^{-1} p, -q p} for even r, with p = prod u_j.  Returns a
    diagnostic string if violated, else None."""
    u = [field(x) for x in u]
    rho, q = field(rho), field(q)
    p = math.prod(u, start=field.one)
    if len(u) % 2 == 1:
        if rho != p and rho != -p:
            return (f"r = {len(u)} odd needs rho = +-(u_1...u_r); "
                    f"got rho = {rho}, product = {p}")
    else:
        if rho != q.inverse() * p and rho != -(q * p):
            return (f"r = {len(u)} even needs rho in {{q^-1 p, -q p}}; "
                    f"got rho = {rho}, q^-1 p = {q.inverse() * p}, -q p = {-(q * p)}")
    return None


def nondegenerate_params(field, u, rho, q, order=None) -> ParamSet:
    """Parameters with (q - q^{-1}) sum omega_a t^{-a} = Z(t; u, rho, q).

    Rejects q = +-1 (so q - q^{-1} = 0) and any rho violating the constraint
    forced by the ground-ring relation.
    """
    u = tuple(field(x) for x in u)
    if not u:
        raise ParameterError("need at least one root")
    rho, q = field(rho), field(q)
    if not q or not rho:
        raise ParameterError("rho and q must be invertible")
    delta_inv = checked_delta(q).inverse()
    diag = check_rho_constraint(field, u, rho, q)
    if diag is not None:
        raise ParameterError(diag)
    if order is None:
        order = default_order(len(u))
    Z = rx_functions(field, u, rho, q).Z
    series = Z.series_at_infinity(order)
    prefix = tuple(c * delta_inv for c in series.coeffs)
    closure = symfun.closure_coeffs(u)
    seq = OmegaSeq(field, prefix, closure)
    return ParamSet("nondegenerate", field, u, seq, rho=rho, q=q)


def omega_negative(params: ParamSet, count: int) -> OmegaSeq:
    """Solve for omega_{-1}..omega_{-count} from the two-sided relation

        -omega_a + omega_{-a}
            + rho (q - q^{-1}) sum_{i=1}^a (omega_{a-i} omega_{-i} - omega_{a-2i}) = 0.

    With W = sum_{a>=0} omega_a s^a, X = sum_{a>=1} omega_{-a} s^a and
    F = rho (q - q^{-1}), the relations for a >= 1 are one series identity

        X (1 + F (W - 1/(1-s^2))) = W + F W s^2/(1-s^2)   (from s^1 on),

    the sum over omega_{a-2i} split at a - 2i = 0.  The divisor's constant
    term 1 + F (omega_0 - 1) is rho^2 by the ground-ring relation, so X is
    one series division, whatever the prefix.
    """
    if params.kind != "nondegenerate":
        raise ParameterError("negative indices need non-degenerate parameters")
    if len(params.omega) <= count:
        raise ParameterError(f"prefix too short for {count} negative terms")
    field = params.field
    rho = params.rho
    om = params.omega.prefix[:count + 1]
    factor = rho * params.q_minus_qinv()
    rho2_inv = (rho * rho).inverse()
    # parity sums sum_{i>=1} omega_{a-2i}: the coefficients of W s^2/(1-s^2)
    parity = recurrence_solve((field.zero, -field.one),
                              (field.zero, field.zero) + om, count + 1)
    # both sides over rho^2, so that the divisor is monic
    conn = [factor * ((w - field.one) if a % 2 == 0 else w) * rho2_inv
            for a, w in enumerate(om[1:], 1)]
    head = [field.zero] + [(w + factor * p) * rho2_inv
                           for w, p in zip(om[1:], parity[1:])]
    return params.omega.with_negative(
        tuple(recurrence_solve(conn, head, count + 1)[1:]))


def wplus_ratfunc(seq: OmegaSeq) -> RatFunc:
    """w^+(t) = sum_{a>=0} omega_a t^{-a} as an exact rational function.

    With p(t) the monic closure polynomial, p(t) w^+(t) is the polynomial
    whose t^k coefficient is sum_{j=k}^r a_j omega_{j-k}, the residue of
    the recursion at omega_{r-k} (k = 1..r); the constant term vanishes by
    the recursion, so w^+(0) = 0 and w^+(infinity) = omega_0.
    """
    if seq.closure is None:
        raise ParameterError("w^+ needs a recursion closure")
    field = seq.field
    r = len(seq.closure)
    if len(seq.prefix) < r:
        raise ParameterError("prefix shorter than closure order")
    head = recurrence_apply(seq.closure[::-1], seq.prefix, 0, r)
    return RatFunc(Poly(field, [field.zero] + head[::-1]),
                   Poly(field, seq.closure + (field.one,)))


def wminus_ratfunc(seq: OmegaSeq) -> RatFunc:
    """w^-(t) = -w^+(1/t), the generating function of the negative indices."""
    return (-wplus_ratfunc(seq)).substitute_inverse_t()


def _pm_factors_rat(params: ParamSet):
    """h(t), -h(1/t) and the right-hand side of the w^+/w^- identity, each
    one fraction: with c = rho^{-1}/(q - q^{-1}),

        h = (c (t^2 - 1) - t^2)/(t^2 - 1),
        -h(1/t) = (-1 - c (t^2 - 1))/(t^2 - 1),
        rhs = (t^2 - (q - q^{-1})^{-2} (t^2 - 1)^2)/(t^2 - 1)^2."""
    field = params.field
    delta_inv = (params.q - params.q.inverse()).inverse()
    c = params.rho.inverse() * delta_inv
    tt1 = Poly(field, (-1, 0, 1))                   # t^2 - 1
    square = tt1 * tt1
    return (RatFunc(Poly(field, (-c, 0, c - 1)), tt1),
            RatFunc(Poly(field, (c - 1, 0, -c)), tt1),
            RatFunc(Poly(field, (0, 0, 1)) - square * (delta_inv * delta_inv),
                    square))


def verify_pm_identity(params: ParamSet, bound: int = None) -> AdmissibilityReport:
    """Check the two-factor identity

        [w^+ - t^2/(t^2-1) + rho^{-1}/(q-q^{-1})]
        [w^- - 1/(t^2-1) - rho^{-1}/(q-q^{-1})]
            = t^2/(t^2-1)^2 - 1/(q-q^{-1})^2,

    exactly as rational functions when the closure is present, otherwise
    coefficientwise to the given truncation order.

    Negative indices missing from the sequence are solved from the
    two-sided relation, after the stored ones.  Solved values make the
    identity hold for any prefix, so in that case the prefix is certified
    instead by the recursion of prod (y - u_j), reported as a separate
    "recursion" check.
    """
    if params.kind != "nondegenerate":
        raise ParameterError("the identity concerns non-degenerate parameters")
    checked_delta(params.q)
    name = "wplus-wminus-identity"
    left_shift, right_shift, rhs = _pm_factors_rat(params)
    if params.omega.closure is not None:
        wp = wplus_ratfunc(params.omega)
        wm = wminus_ratfunc(params.omega)
        order = bound if bound is not None else default_order(params.r)
        return ratfunc_report(name, (wp + left_shift) * (wm + right_shift),
                              rhs, order)
    if bound is None:
        bound = len(params.omega) - 1
    negative = params.omega.negative
    recursion = None
    if len(negative) < bound:
        if bound < params.r:
            raise ParameterError(
                f"insufficient prefix: without stored negative indices the "
                f"identity is certified by the recursion, which needs "
                f"omega_0..omega_{params.r}")
        solved = omega_negative(params, bound).negative
        negative = negative + solved[len(negative):]
        recursion = recursion_report(params, bound - params.r)
    wp_series = Series(params.omega.prefix[:bound + 1])
    wm_series = Series((params.field.zero,) + negative[:bound])
    lhs = (wp_series + left_shift.series_at_infinity(bound)) \
        * (wm_series + right_shift.series_at_infinity(bound))
    report = series_report(name, lhs, rhs.series_at_infinity(bound))
    return report if recursion is None else recursion.combined_with(report)
