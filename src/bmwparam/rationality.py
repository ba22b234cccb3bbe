"""Rationality of parameter sequences: recursion fitting, the affine
classification, and characteristic-2 root recovery.

A sequence with rational generating function satisfies a linear homogeneous
recursion; :func:`fit_recurrence` finds the minimal monic one from a prefix.
For non-degenerate affine parameters over a field with q - q^{-1} != 0, a
closed sequence whose w^- matches -w^+(1/t) comes from an admissible root
multiset, recovered here explicitly: writing

    h(t) = -t^2/(t^2-1) + rho^{-1}/(q-q^{-1}),
    B(t) = (t+q)(t-q^{-1}) / ((q-q^{-1})(t^2-1)),

one has w^+(t) = -h(t) + (-1)^alpha B(t) prod_j (t u_j - 1)/(t - u_j) and
rho = (-1)^alpha prod_j u_j.  The four sign/parity cases determine which of
(), (-1, 1), (1), (-1) must be appended to reach an admissible root list.

In characteristic 2 the feasibility conditions collapse to the Frobenius
constraint omega_{2a} = omega_a^2, and the roots are recovered from the
minimal recursion's characteristic polynomial, which must split with
distinct roots over the supplied field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .adm_nondegenerate import rui_xu_check
from .omega import (ParamSet, ParameterError, _pm_factors_rat, checked_delta,
                    first_residue, wminus_ratfunc, wplus_ratfunc)
from .report import AdmissibilityReport, first_difference
from .univar import (Poly, RatFunc, SplitError, recurrence_apply,
                     recurrence_solve)


class FitError(ValueError):
    """No linear recursion certified by the prefix."""


class RecoveryError(ValueError):
    """Characteristic-2 root recovery failed a stated precondition."""


class ClassifyError(ValueError):
    """Affine classification precondition or form requirement failed."""


@dataclass(frozen=True)
class RecurrenceFit:
    """Minimal monic recursion omega_{r+l} + sum_j coeffs[j] omega_{j+l} = 0,
    consistent with the entire fitted prefix (indices 0..checked_upto)."""

    order: int
    coeffs: Tuple[object, ...]
    checked_upto: int

    def characteristic_poly(self, field) -> Poly:
        return Poly(field, tuple(self.coeffs) + (field.one,))


def berlekamp_massey(field, seq):
    """Connection coefficients c_1..c_L of the minimal LFSR generating seq:
    s_n = -(c_1 s_{n-1} + ... + c_L s_{n-L}) for L <= n < len(seq)."""
    seq = [field(s) for s in seq]
    c = [field.one]
    b = [field.one]
    L, m = 0, 1
    delta_b = field.one
    for n in range(len(seq)):
        # the discrepancy: the residue of the current recurrence at n
        d = recurrence_apply(c[1:L + 1], seq, n, n + 1)[0]
        if not d:
            m += 1
            continue
        coef = d * delta_b.inverse()
        old_c, c = c, c + [field.zero] * (len(b) + m - len(c))
        for i, bi in enumerate(b):
            c[i + m] = c[i + m] - coef * bi
        if 2 * L <= n:
            L, b, delta_b, m = n + 1 - L, old_c, d, 1
        else:
            m += 1
    return c[1:L + 1], L


def fit_recurrence(field, prefix) -> RecurrenceFit:
    """Minimal monic recursion fitting the whole prefix.

    Succeeds only when the recursion is certified by strictly more data than
    it has coefficients (2L < prefix length); a generic prefix admits an
    exact but uncertified fit of half its length and is rejected.
    """
    prefix = [field(x) for x in prefix]
    n = len(prefix)
    if n == 0:
        raise FitError("empty prefix")
    conn, L = berlekamp_massey(field, prefix)
    if 2 * L >= n:
        raise FitError(
            f"no recursion within half the prefix length (minimal order {L}, "
            f"prefix {n})")
    coeffs = tuple(reversed(conn))  # a_j = c_{L-j}
    bad = first_residue(coeffs, prefix, n - L)
    if bad is not None:
        raise FitError(f"fitted recursion breaks at l={bad[0]}")
    return RecurrenceFit(L, coeffs, n - 1)


def weak_admissibility_check(field, prefix) -> AdmissibilityReport:
    """Constraints every contraction sequence of a degenerate affine algebra
    obeys: the convolution identity

        2 omega_{2a+1} = -omega_{2a}
                         + sum_{b=1}^{2a+1} (-1)^(b-1) omega_{b-1} omega_{2a+1-b}

    in any characteristic, and omega_{2a} = omega_a^2 when char = 2."""
    om = [field(x) for x in prefix]

    def convolution(a):
        acc = -om[2 * a]
        for b in range(1, 2 * a + 2):
            term = om[b - 1] * om[2 * a + 1 - b]
            acc = acc + (term if b % 2 == 1 else -term)
        return acc

    report = first_difference("convolution", [x + x for x in om[1::2]],
                              [convolution(a) for a in range(len(om) // 2)])
    if field.char == 2:
        report = report.combined_with(first_difference(
            "frobenius", om[::2], [x * x for x in om[:(len(om) + 1) // 2]]))
    return report


@dataclass(frozen=True)
class Char2Recovery:
    """Distinct roots with omega_a = sum u_i^a for a >= 1 and omega_0 in {0,1};
    admissible_roots appends 0 when omega_0 does not match the parity of the
    recovered root count."""

    roots: Tuple[object, ...]
    omega0: object
    zero_adjoined: bool
    admissible_roots: Tuple[object, ...]


def char2_recover(field, prefix) -> Char2Recovery:
    """Recover the root multiset of a characteristic-2 sequence.

    Preconditions checked in order: characteristic 2; the weak admissibility
    constraints; a certified minimal recursion on the a >= 1 tail whose
    characteristic polynomial splits over the field with distinct nonzero
    roots; and the power-sum identity across the whole prefix.  The power
    sums p_a = sum x^a come from the characteristic polynomial c by Newton's
    identities: with rev c(s) = s^L c(1/s) = prod (1 - x s) = 1 + c_1 s +
    ... + c_L s^L, sum_{a>=1} p_a s^a = -s (rev c)'(s) / rev c(s), one
    series division with head -k c_k (k = 1..L).
    """
    if field.char != 2:
        raise RecoveryError("recovery applies to characteristic 2 only")
    om = [field(x) for x in prefix]
    weak = weak_admissibility_check(field, om)
    if not weak.passed:
        raise RecoveryError(
            f"weak admissibility fails: {weak.witness.equation()}")
    try:
        fit = fit_recurrence(field, om[1:])
    except FitError as ex:
        raise RecoveryError(f"no certified recursion on the tail: {ex}") from ex
    charpoly = fit.characteristic_poly(field)
    try:
        roots = charpoly.roots_with_multiplicity()
    except SplitError as ex:
        raise RecoveryError(str(ex)) from ex
    if len(set(roots)) != len(roots):
        raise RecoveryError(
            f"repeated recursion roots {roots}; recovery needs a square-free "
            "characteristic polynomial")
    if any(not x for x in roots):
        raise RecoveryError("recursion root 0 cannot carry a power sum")
    conn = fit.coeffs[::-1]
    head = [field.zero] + [-k * c for k, c in enumerate(conn, 1)]
    power_sums = recurrence_solve(conn, head, len(om))[1:]
    bad = first_difference("power-sum", om[1:], power_sums,
                           range(1, len(om))).witness
    if bad is not None:
        raise RecoveryError(f"power-sum verification fails at a={bad.index}: "
                            f"{bad.lhs} != {bad.rhs}")
    zero_adjoined = om[0] != field(len(roots) % 2)
    roots = tuple(sorted(roots, key=lambda x: x.raw))
    admissible = roots + ((field.zero,) if zero_adjoined else ())
    return Char2Recovery(roots, om[0], zero_adjoined, admissible)


_CASES = {
    (0, 1): (1, ()),
    (1, 1): (2, (-1, 1)),
    (0, 0): (3, (1,)),
    (1, 0): (4, (-1,)),
}


@dataclass(frozen=True)
class RationalityClassification:
    """Outcome of the affine classification.

    case/extension pairing: (alpha=0, s odd) -> case 1, extension ();
    (alpha=1, s odd) -> case 2, (-1, 1); (alpha=0, s even) -> case 3, (1,);
    (alpha=1, s even) -> case 4, (-1,).  admissible_roots = roots + extension
    is certified by the generating-function criterion.
    """

    case: int
    alpha: int
    roots: Tuple[object, ...]
    extension: Tuple[object, ...]
    admissible_roots: Tuple[object, ...]
    certificate: AdmissibilityReport


def affine_classify(params: ParamSet) -> RationalityClassification:
    """Recover the admissible root multiset of closed non-degenerate
    parameters and name the sign/parity case.

    Preconditions (ParameterError, separately diagnosed): non-degenerate
    kind, q - q^{-1} != 0, a recursion closure (so w^+ is rational), and no
    pole of w^+ at 0 or infinity.  Verdict failures (ClassifyError): the
    two-sided product identity encoding w^-(t) = -w^+(t^{-1}) fails, the
    recovered function is not of the required product form, its roots do not
    lie in the field, or certification fails.
    """
    if params.kind != "nondegenerate":
        raise ParameterError("classification needs non-degenerate parameters")
    field = params.field
    delta = checked_delta(params.q)
    if params.omega.closure is None:
        raise ParameterError("classification needs a recursion closure "
                             "(w^+ must be rational)")
    wp = wplus_ratfunc(params.omega)
    if wp.num.degree > wp.den.degree:
        raise ParameterError("w^+ has a pole at infinity")
    if not wp.den(field.zero):
        raise ParameterError("w^+ has a pole at 0")

    h, right_shift, rhs = _pm_factors_rat(params)
    shifted = wp + h
    if shifted * (wminus_ratfunc(params.omega) + right_shift) != rhs:
        raise ClassifyError(
            "the two-sided product identity fails; the negative-index "
            "sequence does not match -w^+(1/t)")

    # B = (t + q)(t - 1/q) / (delta (t^2 - 1))
    R = shifted / RatFunc(Poly(field, (-1, delta, 1)),
                          Poly(field, (-delta, 0, delta)))
    D = R.den
    try:
        roots = D.roots_with_multiplicity()
    except SplitError as ex:
        raise ClassifyError(
            f"recovered denominator does not split: {ex}") from ex
    # with D = prod (t - u): 1/G = (-1)^r rev D / D and prod u = (-1)^r D(0)
    inv_g = D.reversed() if D.degree % 2 == 0 else -D.reversed()
    if R.num == inv_g:
        alpha = 0
    elif R.num == -inv_g:
        alpha = 1
    else:
        raise ClassifyError(
            f"(w^+ + h)/B = {R!r} is not +- a product of factors "
            "(t u - 1)/(t - u)")
    expected_rho = D.coeff(0) if (D.degree + alpha) % 2 == 0 else -D.coeff(0)
    if params.rho != expected_rho:
        raise ClassifyError(
            f"rho = {params.rho} differs from (-1)^alpha prod u = {expected_rho}")
    case, ext = _CASES[(alpha, len(roots) % 2)]
    extension = tuple(field(e) for e in ext)
    roots = tuple(sorted(roots, key=_root_key))
    admissible = roots + extension
    cert_params = ParamSet("nondegenerate", field, admissible, params.omega,
                           rho=params.rho, q=params.q)
    certificate = rui_xu_check(cert_params)
    if not certificate.passed:
        raise ClassifyError(
            f"certification failed: {certificate.witness.equation()}")
    return RationalityClassification(case, alpha, roots, extension,
                                     admissible, certificate)


def _root_key(x):
    return repr(x.raw)
