"""Symmetric-function layer.

Provides the elementary symmetric functions eps_k, power sums p_a, the
symmetric polynomials q_a defined by

    prod_i (1 + u_i t)/(1 - u_i t) = sum_{a>=0} q_a(u) t^a

(the Schur q-functions), the integer combinations

    eta_a^{+-}(u) = q_{a+1}(u) +- (-1)^(r-1)/2 q_a(u) + 1/2 delta_{a,0},

and the universal polynomials H_a obtained by solving the admissibility
relations as a unitriangular linear system.  Everything is computed exactly;
eta and H have integer coefficients, which is asserted rather than assumed.

The functions taking a list xs (``elem_sym`` through ``eta_values``) run
on any commutative ring elements, field elements or MPoly variables alike.
The cached builders (``schur_q_poly``, ``half_q_poly``, ``eta_poly``,
``universal_H``) take (a, r) and return MPoly results that must not be
mutated.

Every q_a, q_a / 2 and eta_a, evaluated in any characteristic or symbolic,
comes from the integer polynomials h_a = q_a / 2 (a >= 1), computed by one
integral long division in O(r N) ring operations (``_half_q_series``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .mpoly import MPoly
from .univar import Series, recurrence_solve

# size guards of the cached symbolic builders (the polynomials grow fast)
SYMBOLIC_R_CAP = 6
SYMBOLIC_A_CAP = 24


class IntegralityError(ArithmeticError):
    """A value certified integral by theory came out non-integral."""


def _one_like(x):
    if isinstance(x, MPoly):
        return MPoly.const(x.nvars, 1)
    return x.field.one


def elem_sym(k, xs):
    """Elementary symmetric function eps_k of the given ring elements."""
    r = len(xs)
    if not 0 <= k <= r:
        raise IndexError(f"eps_{k} undefined for {r} variables")
    if r == 0:
        raise ValueError("need at least one variable")
    coeff = char_poly_coeffs(xs)[r - k]     # (-1)^k eps_k
    return -coeff if k % 2 else coeff


def power_sum(a, xs):
    """Power sum p_a = sum x^a; p_0 = r."""
    if a == 0:
        return _one_like(xs[0]) * len(xs)
    acc = xs[0] ** a
    for x in xs[1:]:
        acc = acc + x ** a
    return acc


def char_poly_coeffs(xs):
    """Coefficients a_0..a_r of prod (y - x_j), ascending, with a_r = 1.

    a_j = (-1)^(r-j) eps_{r-j}(x), the signed elementary symmetric functions.
    """
    one = _one_like(xs[0])
    coeffs = [one]
    for x in xs:
        nxt = [-(coeffs[0] * x)]
        for j in range(1, len(coeffs)):
            nxt.append(coeffs[j - 1] - coeffs[j] * x)
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs


def closure_coeffs(xs):
    """(a_0, ..., a_{r-1}) of prod (y - x_j): the monic recursion that
    closes an omega sequence whose roots are xs."""
    return tuple(char_poly_coeffs(xs)[:len(xs)])


def _half_q_series(xs, order):
    """Coefficients [0, h_1, ..., h_order] of sum_{a>=1} h_a s^a, h_a = q_a / 2.

    prod (1 + x s) - prod (1 - x s) = 2 sum_{k odd} eps_k s^k, hence

        sum_{a>=1} h_a s^a = (sum_{k odd} eps_k s^k) / prod (1 - x s).

    The denominator has constant term 1, so this long division is integral:
    it runs over any ring, MPoly or field of any characteristic, with
    O(r * order) multiplications.  prod (1 - x s) is the reversal of
    prod (y - x) = sum a_j y^j, and eps_k = (-1)^k a_{r-k}, so the division
    is ``recurrence_solve`` by rev[1:] of the head -a_{r-k}, k odd.
    """
    rev = char_poly_coeffs(xs)[::-1]  # rev[k] = a_{r-k}
    head = [-c if k % 2 else c * 0 for k, c in enumerate(rev)]
    return recurrence_solve(rev[1:], head, order + 1)


def schur_q_series(xs, order) -> Series:
    """Truncated series sum_{a<=order} q_a(x) t^a, with q_0 = 1, q_a = 2 h_a."""
    h = _half_q_series(xs, order)
    return Series([_one_like(xs[0])] + [v + v for v in h[1:]])


def schur_q(a, xs):
    """q_a; q_0 = 1."""
    if a < 0:
        raise IndexError("q_a needs a >= 0")
    return schur_q_series(xs, a)[a]


@lru_cache(maxsize=None)
def schur_q_poly(a: int, r: int) -> MPoly:
    _check_caps(max(a - 1, 0), r)  # eta at the cap needs q one index above
    if a == 0:
        return MPoly.const(r, 1)
    return _half_q_symbolic(a, r).scaled(2)


@lru_cache(maxsize=None)
def half_q_poly(a: int, r: int) -> MPoly:
    """The integer polynomial q_a / 2, defined for a >= 1."""
    if a < 1:
        raise IndexError("q_0 / 2 = 1/2 is not an integer polynomial")
    _check_caps(a, r)
    return _half_q_symbolic(a, r)


def _half_q_symbolic(a, r):
    # divide to the next power of two (at least 8, at most the cap), so that
    # asking for a = 1, 2, ... in turn costs about one division, not one each
    order = min(max(8, 1 << (a - 1).bit_length()), SYMBOLIC_A_CAP + 1)
    return _half_q_polys(order, r)[a]


@lru_cache(maxsize=None)
def _half_q_polys(order: int, r: int):
    return tuple(_half_q_series(MPoly.variables(r), order))


def half_q(a, xs):
    """q_a / 2 as an integer polynomial, evaluated at xs.

    The value is that of the integer polynomial, so it is meaningful even in
    characteristic 2 where q_a itself vanishes for a >= 1.
    """
    if a < 1:
        raise IndexError("q_0 / 2 = 1/2 is not an integer polynomial")
    return _half_q_series(xs, a)[a]


@lru_cache(maxsize=None)
def eta_poly(sign: int, a: int, r: int) -> MPoly:
    """eta_a^{+-} as an integer polynomial in r variables.

    Computed over Q[u] from the definition and certified integral.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a < 0:
        raise IndexError("eta_a needs a >= 0")
    _check_caps(a, r)
    half = Fraction(1, 2)
    val = schur_q_poly(a + 1, r) \
        + schur_q_poly(a, r).scaled(sign * (-1) ** (r - 1) * half)
    if a == 0:
        val = val + half
    if not val.is_integral():
        raise IntegralityError(f"eta_{a}^{'+' if sign > 0 else '-'} "
                               f"for r={r} is not integral: {val!r}")
    return val


def _check_caps(a, r):
    if r > SYMBOLIC_R_CAP or a > SYMBOLIC_A_CAP:
        raise ValueError(
            f"symbolic mode capped at r <= {SYMBOLIC_R_CAP}, a <= {SYMBOLIC_A_CAP}")


def eta(sign, a, xs):
    """eta_a^{+-} evaluated at xs (field elements or MPoly variables)."""
    if a < 0:
        raise IndexError("eta_a needs a >= 0")
    return eta_values(sign, xs, a)[a]


def eta_values(sign, us, order):
    """The list eta_0^{+-}(u) .. eta_order^{+-}(u) in the ring of the u's.

    With c = +-(-1)^(r-1) and h_a = q_a / 2 (h_0 = 0), the definition reads
    eta_a = 2 h_{a+1} + c h_a + [a = 0, c = +1]: integral, so it holds in
    every characteristic, 2 included, and costs O(r * order).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    h = _half_q_series(us, order + 1)
    c = sign * (-1) ** (len(us) - 1)
    out = []
    for a in range(order + 1):
        twice = h[a + 1] + h[a + 1]
        out.append(twice + h[a] if c > 0 else twice - h[a])
    if c > 0:
        out[0] = out[0] + _one_like(us[0])
    return out


def relations_rhs(acoeffs):
    """The right-hand sides -2 [r-j odd] a_j + [j even] a_{j+1} of the
    admissibility relations, listed j = r-1, ..., 0, for the coefficients
    a_0..a_r of prod (y - u_j) in any ring."""
    r = len(acoeffs) - 1
    out = []
    for j in range(r - 1, -1, -1):
        rhs = acoeffs[j] * 0
        if (r - j) % 2 == 1:
            rhs = rhs - (acoeffs[j] + acoeffs[j])
        if j % 2 == 0:
            rhs = rhs + acoeffs[j + 1]
        out.append(rhs)
    return out


@lru_cache(maxsize=None)
def universal_H(a: int, r: int) -> MPoly:
    """The universal polynomial H_a with omega_a = H_a(u) for admissible data.

    For a < r these come from solving the admissibility relations

        sum_{mu=0}^{r-j-1} omega_mu a_{mu+j+1}
            = -2 [r-j odd] a_j + [j even] a_{j+1},   0 <= j <= r-1,

    in reverse order j = r-1, ..., 0; listed that way the system is
    unitriangular in omega_0, ..., omega_{r-1}.  For a >= r the recursion
    sum_j a_j omega_{j+m} = 0 extends the solution.
    """
    _check_caps(a, r)
    return _universal_H_list(a, r)[a]


@lru_cache(maxsize=None)
def _universal_H_list(upto: int, r: int):
    acoeffs = char_poly_coeffs(MPoly.variables(r))  # a_0..a_r, a_r = 1
    # relation j is the recursion's residue at omega_{r-1-j}, so the system
    # and the recursion past it are one division by the reversed a's
    return tuple(recurrence_solve(acoeffs[-2::-1], relations_rhs(acoeffs),
                                  max(upto + 1, r)))

