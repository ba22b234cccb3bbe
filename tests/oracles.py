"""Test-side drivers and second routes to library values.

* ``equivalence_disagreements`` drives a pair of admissibility criteria
  that the theory proves equivalent over seeded random samples and lists
  every sample on which they disagree.  ``draw_degenerate`` and
  ``draw_nondegenerate`` make the samples; the criteria come in pairs:
  ``recursion_and_relations`` / ``u_admissible`` and ``wilcox_yu`` /
  ``rui_xu``.
* ``eta_generating_series`` expands the closed generating form of the
  eta's, independent of the q_a route that ``symfun.eta_values`` takes.
* ``first_residue_loop``, ``half_q_series_loop``, ``extended_loop``,
  ``backward_loop`` and ``series_at_infinity_push`` run a recurrence or a
  series division one element at a time, as the library did before
  ``univar.recurrence_apply`` / ``recurrence_solve`` took them over; so do
  ``omega_negative_loop`` (the two-sided relation as a triangular solve),
  ``elem_sym_loop`` (eps_k by its own product expansion, not read off
  ``char_poly_coeffs``) and ``berlekamp_massey_loop`` (the discrepancy
  summed by hand, a connection update in each branch).
* ``relations_loop``, ``u_admissible_loop``, ``wy_relations_loop``,
  ``convolution_loop``, ``frobenius_loop`` and ``series_report_loop`` each
  compute one criterion's two sides equation by equation and stop at the
  first that fails, as the library did before ``report.first_difference``
  took the comparison over.
* ``g_ratfunc``, ``rx_functions_chain``, ``pm_factors_chain``,
  ``affine_classify_by_roots`` and ``power_sums_pow`` build the generating
  functions as chains of normalized ``RatFunc``s, take 1/G and rho from the
  recovered roots, and take power sums by exponentiation, as the library
  did before it built each function from prod (t - u) and read 1/G and rho
  off the recovered denominator.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from bmwparam import symfun
from bmwparam.adm_degenerate import (check_recursion, check_relations,
                                     check_u_admissible)
from bmwparam.adm_nondegenerate import rui_xu_check, wilcox_yu_check
from bmwparam.fields import QQ, FieldElement
from bmwparam.mpoly import MPoly
from bmwparam.omega import (OmegaSeq, ParamSet, ParameterError,
                            checked_delta, degenerate_params,
                            nondegenerate_params, wminus_ratfunc,
                            wplus_ratfunc)
from bmwparam.rationality import (_CASES, ClassifyError,
                                  RationalityClassification, _root_key)
from bmwparam.report import AdmissibilityReport, Witness
from bmwparam.univar import Poly, RatFunc, SplitError


# ------------------------------------------------------------ sampling
def random_element(field, rng, nonzero=False):
    """A random element; over Q a small fraction, over finite fields uniform."""
    while True:
        if field == QQ:
            x = field(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        else:
            # raw representations of both finite field kinds enumerate as 0..order-1
            x = FieldElement(field, rng.randrange(field.order))
        if x or not nonzero:
            return x


def draw_degenerate(field, rng, r_max=4, bound=6):
    """(mode, params): roots, then the honest sequence, one coefficient
    bumped by one, or a noise sequence."""
    r = rng.randint(1, r_max)
    u = [random_element(field, rng) for _ in range(r)]
    honest = degenerate_params(field, u, order=r + bound + 1)
    mode = rng.choice(("honest", "tampered", "noise"))
    if mode == "honest":
        return mode, honest
    prefix = list(honest.omega.prefix)
    if mode == "tampered":
        idx = rng.randrange(len(prefix))
        prefix[idx] = prefix[idx] + field.one
    else:
        prefix = [random_element(field, rng) for _ in prefix]
    return mode, ParamSet("degenerate", field, u,
                          OmegaSeq(field, tuple(prefix)))


def draw_nondegenerate(field, rng, r_max=4, bound=6):
    """(mode, params): honest parameters on either rho branch, one
    coefficient past omega_0 bumped, a wrong-branch rho, or noise past
    omega_0 (which the ground-ring relation ties to rho and q)."""
    r = rng.randint(1, r_max)
    u = [random_element(field, rng, nonzero=True) for _ in range(r)]
    q = _random_q(field, rng)
    prod_u = math.prod(u, start=field.one)
    if r % 2 == 1:
        rho = prod_u if rng.random() < 0.5 else -prod_u
    else:
        rho = q.inverse() * prod_u if rng.random() < 0.5 else -(q * prod_u)
    honest = nondegenerate_params(field, u, rho, q, order=r + bound + 1)
    mode = rng.choice(("honest", "tampered", "wrong-rho", "noise"))
    prefix = list(honest.omega.prefix)
    if mode == "honest":
        return mode, honest
    if mode == "tampered":
        idx = rng.randrange(1, len(prefix))
        prefix[idx] = prefix[idx] + field.one
    elif mode == "noise":
        prefix[1:] = [random_element(field, rng) for _ in prefix[1:]]
    else:
        # the ground-ring relation makes rho a root of x^2 + c x - 1 with
        # c = (q^{-1} - q)(omega_0 - 1); the roots multiply to -1, and the
        # honest rho is one of them.  The closure is dropped.
        other = -(rho.inverse())
        if other == rho:
            return mode, honest
        rho = other
    return mode, ParamSet("nondegenerate", field, u,
                          OmegaSeq(field, tuple(prefix)), rho=rho, q=q)


def _random_q(field, rng):
    # every unit of GF(2) and GF(3) squares to 1, so no valid q exists there
    for _ in range(10000):
        q = random_element(field, rng, nonzero=True)
        if q - q.inverse():
            return q
    raise ValueError(f"no q with q - q^{{-1}} != 0 in {field}")


# ------------------------------------------------------------ criteria
# each takes (params, bound) over matched windows: l <= bound on the
# recursion side, a <= r + bound on the series side
def recursion_and_relations(params, bound):
    return check_recursion(params, bound).passed \
        and check_relations(params).passed


def u_admissible(params, bound):
    return check_u_admissible(params, params.r + bound).passed


def wilcox_yu(params, bound):
    return wilcox_yu_check(params, bound).passed


def rui_xu(params, bound):
    return rui_xu_check(params, params.r + bound).passed


def equivalence_disagreements(draw, lhs, rhs, fields, samples, seed,
                              r_max=4, bound=6):
    """Every drawn sample on which the criteria lhs and rhs disagree.

    One ``random.Random(seed)`` feeds ``draw(field, rng, r_max, bound)``
    for ``samples`` samples per field, in order.
    """
    rng = random.Random(seed)
    out = []
    for field in fields:
        for i in range(samples):
            mode, params = draw(field, rng, r_max, bound)
            left, right = lhs(params, bound), rhs(params, bound)
            if left != right:
                out.append(f"{field} sample {i} ({mode}): {lhs.__name__}="
                           f"{left} but {rhs.__name__}={right}")
    return out


# ------------------------------------------------------------ eta
def eta_generating_series(sign, xs, order):
    """eta_0^{+-} .. eta_order^{+-} from the closed generating form

        sum_a eta_a^{+-} t^{-a}
            = (1/2 - t) + (t +- (-1)^(r-1)/2) prod_i (t + u_i)/(t - u_i),

    the product expanded by long division of prod (t + u_i) by the monic
    prod (t - u_i) in descending powers of t.  Needs 1/2 in the ring:
    MPoly variables or a field of characteristic != 2.
    """
    r = len(xs)
    if isinstance(xs[0], MPoly):
        half = Fraction(1, 2)
    else:
        if xs[0].field.char == 2:
            raise ValueError("closed generating form needs 1/2 in the ring")
        half = xs[0].field(Fraction(1, 2))
    num = symfun.char_poly_coeffs([-x for x in xs])
    den = symfun.char_poly_coeffs(xs)
    g = _descending_division(num, den, order + 1)
    c = half * ((-1) ** (r - 1) * sign)
    out = [g[a + 1] + g[a] * c for a in range(order + 1)]
    out[0] = out[0] + half
    return out


def _descending_division(num, den, order):
    """Coefficients of t^{-k}, k = 0..order, of num/den at t = infinity.

    num and den are ascending coefficient lists with den monic of degree
    >= deg num, so no coefficient division occurs and the computation is
    exact over any coefficient ring.
    """
    deg = len(den) - 1
    zero = den[-1] * 0
    rem = {i: c for i, c in enumerate(num)}
    out = []
    for k in range(order + 1):
        c = rem.pop(deg - k, zero)
        out.append(c)
        if c != zero:
            for j in range(deg):
                idx = j - k
                rem[idx] = rem.get(idx, zero) - c * den[j]
    return out


# ------------------------------------------------------------ recurrences
def first_residue_loop(coeffs, values, count):
    """``omega.first_residue``, one residue values[r+l] + sum_j coeffs[j]
    values[j+l] at a time."""
    r = len(coeffs)
    for ell in range(count):
        acc = values[r + ell]
        for j, aj in enumerate(coeffs):
            acc = acc + aj * values[j + ell]
        if acc:
            return ell, acc
    return None


def half_q_series_loop(xs, order):
    """``symfun._half_q_series`` written out: h_0 = 0 and

        h_n = [n odd, n <= r] (-a_{r-n}) - sum_{k=1}^{min(n-1, r)} a_{r-k} h_{n-k}.
    """
    r = len(xs)
    rev = symfun.char_poly_coeffs(xs)[::-1]  # rev[k] = a_{r-k}
    zero = rev[0] * 0
    h = [zero] * (order + 1)
    for n in range(1, order + 1):
        acc = -rev[n] if n <= r and n % 2 == 1 else zero
        for k in range(1, min(n - 1, r) + 1):
            acc = acc - rev[k] * h[n - k]
        h[n] = acc
    return h


def extended_loop(seq, upto):
    """``seq.extended(upto).prefix``, one omega_{r+l} = -sum_j a_j omega_{j+l}
    at a time."""
    r = len(seq.closure)
    vals = list(seq.prefix)
    while len(vals) <= upto:
        acc = seq.field.zero
        ell = len(vals) - r
        for j, aj in enumerate(seq.closure):
            acc = acc - aj * vals[j + ell]
        vals.append(acc)
    return vals


def backward_loop(seq, upto):
    """omega_{-1}..omega_{-upto}, one
    omega_a = -a_0^{-1} (omega_{a+r} + sum_{j>=1} a_j omega_{a+j}) at a time."""
    a0inv = seq.closure[0].inverse()
    r = len(seq.closure)
    vals = dict(enumerate(seq.prefix))
    for a in range(-1, -upto - 1, -1):
        acc = vals[a + r]
        for j in range(1, r):
            acc = acc + seq.closure[j] * vals[a + j]
        vals[a] = -(a0inv * acc)
    return [vals[-k] for k in range(1, upto + 1)]


def series_at_infinity_push(f, order):
    """``f.series_at_infinity(order).coeffs`` by push-form long division in
    s = 1/t: each quotient digit, divided by the constant term of rev(den),
    is subtracted from the remainder ahead of it."""
    fld = f.field
    if f.num.is_zero():
        return [fld.zero] * (order + 1)
    a, b = f.num.degree, f.den.degree
    num_s = [fld.zero] * (b - a) + list(reversed(f.num.coeffs))
    den_s = list(reversed(f.den.coeffs))
    inv0 = den_s[0].inverse()
    rem = num_s + [fld.zero] * (order + 1)
    out = []
    for k in range(order + 1):
        c = rem[k] * inv0
        out.append(c)
        if c:
            for j, d in enumerate(den_s):
                if k + j <= order:
                    rem[k + j] = rem[k + j] - c * d
    return out


def omega_negative_loop(params, count):
    """``omega.omega_negative(params, count).negative``, solving

        -omega_a + omega_{-a}
            + rho (q - q^{-1}) sum_{i=1}^a (omega_{a-i} omega_{-i} - omega_{a-2i}) = 0

    for omega_{-a}, a = 1..count, whose coefficient is rho^2."""
    rho, q = params.rho, params.q
    om = params.omega.prefix
    factor = rho * (q - q.inverse())
    rho2_inv = (rho * rho).inverse()
    neg = {}
    for a in range(1, count + 1):
        # gather every term not involving the unknown omega_{-a}
        known = -om[a]
        for i in range(1, a + 1):
            if i != a:
                known = known + factor * om[a - i] * neg[i]
            if a - 2 * i >= 0:
                known = known - factor * om[a - 2 * i]
            elif 2 * i - a != a:
                known = known - factor * neg[2 * i - a]
        neg[a] = -(known * rho2_inv)
    return tuple(neg[k] for k in range(1, count + 1))


def elem_sym_loop(k, xs):
    """``symfun.elem_sym``: eps_k by expanding prod (1 + x s) through s^k."""
    one = xs[0] ** 0
    zero = one * 0
    dp = [one] + [zero] * k
    for x in xs:
        for j in range(k, 0, -1):
            dp[j] = dp[j] + dp[j - 1] * x
    return dp[k]


def berlekamp_massey_loop(field, seq):
    """``rationality.berlekamp_massey``, the discrepancy summed term by term
    and the connection update written out in each branch."""
    seq = [field(s) for s in seq]
    c = [field.one]
    b = [field.one]
    L, m = 0, 1
    delta_b = field.one
    for n in range(len(seq)):
        d = seq[n]
        for i in range(1, L + 1):
            d = d + c[i] * seq[n - i]
        if not d:
            m += 1
            continue
        coef = d * delta_b.inverse()
        if 2 * L <= n:
            old_c = list(c)
            if len(c) < len(b) + m:
                c = c + [field.zero] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] = c[i + m] - coef * bi
            L = n + 1 - L
            b = old_c
            delta_b = d
            m = 1
        else:
            if len(c) < len(b) + m:
                c = c + [field.zero] * (len(b) + m - len(c))
            for i, bi in enumerate(b):
                c[i + m] = c[i + m] - coef * bi
            m += 1
    return c[1:L + 1], L


# ------------------------------------------------------------ first failures
def _report(name, witness):
    return AdmissibilityReport(((name, witness is None),), witness)


def relations_loop(params):
    """``adm_degenerate.check_relations``: relation j, in the order
    j = r-1, ..., 0, as the sum over mu of omega_mu a_{mu+j+1}."""
    r = params.r
    acoeffs = symfun.char_poly_coeffs(list(params.u))
    zero = params.field.zero
    two = params.field.one + params.field.one
    om = params.omega.prefix
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
            return _report("relations", Witness("relations", j, lhs, rhs))
    return _report("relations", None)


def u_admissible_loop(params, bound=None):
    """``adm_degenerate.check_u_admissible``: omega_a against eta_a^+(u)."""
    last = len(params.omega) - 1
    bound = last if bound is None else min(bound, last)
    etas = symfun.eta_values(+1, list(params.u), bound)
    for a in range(bound + 1):
        if params.omega.prefix[a] != etas[a]:
            return _report("u-admissible",
                           Witness("u-admissible", a,
                                   params.omega.prefix[a], etas[a]))
    return _report("u-admissible", None)


def wy_relations_loop(params):
    """The bracket relations of ``adm_nondegenerate.wilcox_yu_check``,
    l = 1, ..., r-1."""
    from bmwparam.adm_nondegenerate import wy_bracket_sums
    field, r = params.field, params.r
    acoeffs = symfun.char_poly_coeffs(list(params.u))
    delta = params.q_minus_qinv()
    om = params.omega.prefix
    a0_inv = acoeffs[0].inverse()
    for ell in range(1, r):
        lhs = field.zero
        for j in range(1, r - ell + 1):
            lhs = lhs + acoeffs[j + ell] * om[j]
        lhs = delta * lhs
        pos, neg = wy_bracket_sums(acoeffs, ell, r)
        rhs = -(params.rho * (acoeffs[ell] - acoeffs[r - ell] * a0_inv)) \
            + delta * (pos - neg)
        if lhs != rhs:
            return _report("wy-relations",
                           Witness("wy-relations", ell, lhs, rhs))
    return _report("wy-relations", None)


def convolution_loop(field, prefix):
    """The convolution identity of ``rationality.weak_admissibility_check``."""
    om = [field(x) for x in prefix]
    n = len(om)
    for a in range((n - 2) // 2 + 1):
        lhs = om[2 * a + 1] + om[2 * a + 1]
        rhs = -om[2 * a]
        for b in range(1, 2 * a + 2):
            term = om[b - 1] * om[2 * a + 1 - b]
            rhs = rhs + (term if b % 2 == 1 else -term)
        if lhs != rhs:
            return _report("convolution", Witness("convolution", a, lhs, rhs))
    return _report("convolution", None)


def frobenius_loop(field, prefix):
    """omega_{2a} = omega_a^2, the characteristic-2 constraint of
    ``rationality.weak_admissibility_check``."""
    om = [field(x) for x in prefix]
    n = len(om)
    for a in range(n):
        if 2 * a >= n:
            break
        if om[2 * a] != om[a] * om[a]:
            return _report("frobenius",
                           Witness("frobenius", a, om[2 * a], om[a] * om[a]))
    return _report("frobenius", None)


def series_report_loop(name, lhs, rhs):
    """``report.series_report``: the first index where two series differ
    on their shared range."""
    for i in range(min(len(lhs), len(rhs))):
        if lhs[i] != rhs[i]:
            return _report(name, Witness(name, i, lhs[i], rhs[i]))
    return _report(name, None)


# ------------------------------------------- generating functions by chains
def g_ratfunc(field, u):
    """G(t) = prod (t - u_l)/(t u_l - 1), the denominator multiplied out
    factor by factor."""
    den = math.prod((Poly(field, (-field.one, ul)) for ul in u),
                    start=Poly.one(field))
    return RatFunc(Poly.from_roots(field, u), den)


def rx_functions_chain(field, u, rho, q):
    """``omega.rx_functions`` as sums and products of normalized RatFuncs."""
    u = [field(x) for x in u]
    rho, q = field(rho), field(q)
    t = RatFunc.t(field)
    one = RatFunc.constant(field, 1)
    G = g_ratfunc(field, u)
    ginv = G.substitute_inverse_t()
    delta = q - q.inverse()
    tt = t * t
    base = RatFunc.constant(field, rho.inverse() * math.prod(u, start=field.one))
    if len(u) % 2 == 1:
        A = base + t * delta / (tt - one)
    else:
        A = base - tt * delta / (tt - one)
    Z = RatFunc.constant(field, -rho.inverse()) + tt * delta / (tt - one) \
        + A * ginv
    return G, A, Z


def pm_factors_chain(params):
    """``omega._pm_factors_rat`` as sums and quotients of RatFuncs."""
    field = params.field
    delta_inv = (params.q - params.q.inverse()).inverse()
    rinv = params.rho.inverse()
    t = RatFunc.t(field)
    one = RatFunc.constant(field, 1)
    tt = t * t
    denom = tt - one
    left_shift = -(tt / denom) + RatFunc.constant(field, rinv * delta_inv)
    right_shift = -(one / denom) - RatFunc.constant(field, rinv * delta_inv)
    rhs = tt / (denom * denom) - RatFunc.constant(field, delta_inv * delta_inv)
    return left_shift, right_shift, rhs


def affine_classify_by_roots(params):
    """``rationality.affine_classify`` with the chain factors, B from its
    roots -q and 1/q, and 1/G and rho rebuilt from the recovered roots."""
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
    h, right_shift, rhs = pm_factors_chain(params)
    if (wp + h) * (wminus_ratfunc(params.omega) + right_shift) != rhs:
        raise ClassifyError(
            "the two-sided product identity fails; the negative-index "
            "sequence does not match -w^+(1/t)")
    q = params.q
    B = RatFunc(Poly.from_roots(field, (-q, q.inverse())),
                Poly.from_roots(field, (field.one, -field.one)) * delta)
    R = (wp + h) / B
    try:
        roots = R.den.roots_with_multiplicity()
    except SplitError as ex:
        raise ClassifyError(
            f"recovered denominator does not split: {ex}") from ex
    inv_g = 1 / g_ratfunc(field, roots)
    if R == inv_g:
        alpha = 0
    elif R == -inv_g:
        alpha = 1
    else:
        raise ClassifyError(
            f"(w^+ + h)/B = {R!r} is not +- a product of factors "
            "(t u - 1)/(t - u)")
    expected_rho = math.prod(roots, start=field.one)
    if alpha:
        expected_rho = -expected_rho
    if params.rho != expected_rho:
        raise ClassifyError(
            f"rho = {params.rho} differs from (-1)^alpha prod u = {expected_rho}")
    case, ext = _CASES[(alpha, len(roots) % 2)]
    extension = tuple(field(e) for e in ext)
    roots = tuple(sorted(roots, key=_root_key))
    admissible = roots + extension
    certificate = rui_xu_check(ParamSet(
        "nondegenerate", field, admissible, params.omega, rho=params.rho,
        q=params.q))
    if not certificate.passed:
        raise ClassifyError(
            f"certification failed: {certificate.witness.equation()}")
    return RationalityClassification(case, alpha, roots, extension,
                                     admissible, certificate)


def power_sums_pow(field, roots, count):
    """p_1..p_count, p_a = sum x^a, one exponentiation per root and index."""
    return [sum((x ** a for x in roots), field.zero)
            for a in range(1, count + 1)]
