"""The linear-recurrence kernel ``univar.recurrence_apply`` /
``recurrence_solve``, and each library route built on it (or on
``symfun.char_poly_coeffs``) against the element-wise loop it replaced
(``tests/oracles.py``), over QQ, GF(p), GF(2^k) and MPoly values."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bmwparam import symfun
from bmwparam.fields import QQ, BinaryField, FieldElement, PrimeField
from bmwparam.mpoly import MPoly
from bmwparam.omega import OmegaSeq, ParamSet, first_residue, omega_negative
from bmwparam.rationality import berlekamp_massey
from bmwparam.univar import (Poly, RatFunc, Series, recurrence_apply,
                             recurrence_solve)
from oracles import (backward_loop, berlekamp_massey_loop, elem_sym_loop,
                     extended_loop, first_residue_loop, half_q_series_loop,
                     omega_negative_loop, series_at_infinity_push)

FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(10007),
          BinaryField(1), BinaryField(4)]
MPOLY = "MPoly"
RINGS = FIELDS + [MPOLY]
MVARS = 2


def elements(ring):
    """Small elements of a field, or integer-linear forms in two MPoly
    variables."""
    if ring == MPOLY:
        x, y = MPoly.variables(MVARS)
        small = st.integers(-3, 3)
        return st.tuples(small, small, small).map(
            lambda c: x * c[0] + y * c[1] + c[2])
    if ring == QQ:
        return st.builds(Fraction, st.integers(-20, 20),
                         st.integers(1, 6)).map(QQ)
    return st.integers(0, ring.order - 1).map(
        lambda v: FieldElement(ring, v))


def _one(ring):
    return MPoly.const(MVARS, 1) if ring == MPOLY else ring.one


@st.composite
def recurrences(draw, rings=RINGS, max_order=5, max_len=16):
    """(ring, conn, values) with 0 <= len(conn) <= max_order."""
    ring = draw(st.sampled_from(rings))
    el = elements(ring)
    conn = draw(st.lists(el, max_size=max_order))
    values = draw(st.lists(el, min_size=1, max_size=max_len))
    return ring, conn, values


@given(recurrences())
def test_solve_inverts_apply(case):
    ring, conn, values = case
    n = len(values)
    assert recurrence_solve(conn, recurrence_apply(conn, values, 0, n), n) \
        == values
    assert recurrence_apply(conn, recurrence_solve(conn, values, n), 0, n) \
        == values


@given(recurrences(), st.integers(0, 8))
def test_solve_pads_the_head_with_zeros(case, extra):
    ring, conn, head = case
    n = len(head) + extra
    zero = head[0] * 0
    assert recurrence_apply(conn, recurrence_solve(conn, head, n), 0, n) \
        == head + [zero] * extra


@given(recurrences(), st.data())
def test_apply_is_the_series_product(case, data):
    ring, conn, values = case
    n = len(values)
    start = data.draw(st.integers(0, n))
    zero = values[0] * 0
    factor = Series(([_one(ring)] + conn + [zero] * n)[:n])
    assert recurrence_apply(conn, values, start, n) \
        == list((factor * Series(values)).coeffs[start:])


@given(recurrences(max_len=6), st.integers(1, 12), st.data())
def test_first_residue_matches_loop(case, length, data):
    # closed values (the head, then the recursion), with one entry bumped
    # on some draws, so that both outcomes occur
    ring, coeffs, head = case
    r = len(coeffs)
    values = recurrence_solve(coeffs[::-1], head, r + length)
    if data.draw(st.booleans()):
        idx = data.draw(st.integers(0, len(values) - 1))
        values[idx] = values[idx] + _one(ring)
    count = data.draw(st.integers(-1, length))
    assert first_residue(coeffs, values, count) \
        == first_residue_loop(coeffs, values, count)


@given(st.sampled_from(FIELDS), st.data())
def test_half_q_series_matches_loop(field, data):
    xs = data.draw(st.lists(elements(field), min_size=1, max_size=6))
    order = data.draw(st.integers(0, 30))
    assert symfun._half_q_series(xs, order) == half_q_series_loop(xs, order)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10))
def test_half_q_series_matches_loop_on_variables(r, order):
    xs = MPoly.variables(r)
    assert symfun._half_q_series(xs, order) == half_q_series_loop(xs, order)


@given(st.sampled_from(FIELDS), st.data())
def test_extended_and_backward_match_loops(field, data):
    el = elements(field)
    closure = tuple(data.draw(st.lists(el, min_size=1, max_size=5)))
    r = len(closure)
    seed = data.draw(st.lists(el, min_size=r, max_size=r))
    stored = extended_loop(OmegaSeq(field, tuple(seed), closure),
                           r - 1 + data.draw(st.integers(0, 6)))
    seq = OmegaSeq(field, tuple(stored), closure)
    upto = data.draw(st.integers(0, 25))
    assert list(seq.extended(upto).prefix) == extended_loop(seq, upto)
    assert seq.omega(upto) == extended_loop(seq, upto)[upto]
    if closure[0]:
        count = data.draw(st.integers(1, 12))
        assert list(seq._backward(count)) == backward_loop(seq, count)
        assert seq.omega(-count) == backward_loop(seq, count)[-1]


# every unit of GF(2) squares to 1, so q - q^{-1} vanishes there
NONDEGENERATE_FIELDS = [QQ, PrimeField(7), PrimeField(10007), BinaryField(4)]


@given(st.sampled_from(NONDEGENERATE_FIELDS), st.data())
def test_omega_negative_matches_loop(field, data):
    # any prefix whose omega_0 meets the ground-ring relation
    el = elements(field)
    nonzero = el.filter(bool)
    q = data.draw(nonzero.filter(lambda x: x - x.inverse()))
    rho = data.draw(nonzero)
    omega0 = field.one + (rho.inverse() - rho) / (q.inverse() - q)
    rest = data.draw(st.lists(el, max_size=12))
    params = ParamSet("nondegenerate", field, (data.draw(nonzero),),
                      OmegaSeq(field, (omega0, *rest)), rho=rho, q=q)
    for count in range(len(params.omega)):
        assert omega_negative(params, count).negative \
            == omega_negative_loop(params, count)


@given(st.sampled_from(FIELDS), st.data())
def test_berlekamp_massey_matches_loop(field, data):
    # a random sequence, or the run of a random recurrence from a random head
    el = elements(field)
    if data.draw(st.booleans()):
        seq = data.draw(st.lists(el, max_size=16))
    else:
        conn = data.draw(st.lists(el, max_size=5))
        head = data.draw(st.lists(el, min_size=1, max_size=len(conn) + 1))
        seq = recurrence_solve(conn, head, data.draw(st.integers(1, 16)))
    assert berlekamp_massey(field, seq) == berlekamp_massey_loop(field, seq)


@given(st.sampled_from(RINGS), st.data())
def test_elem_sym_matches_loop(ring, data):
    xs = data.draw(st.lists(elements(ring), min_size=1, max_size=6))
    for k in range(len(xs) + 1):
        assert symfun.elem_sym(k, xs) == elem_sym_loop(k, xs)


@st.composite
def ratfuncs(draw):
    """A rational function over one of FIELDS, without a pole at infinity."""
    field = draw(st.sampled_from(FIELDS))
    el = elements(field)
    den = Poly(field, draw(st.lists(el, min_size=1, max_size=6)))
    if den.is_zero():
        den = Poly.one(field)
    num = Poly(field, draw(st.lists(el, max_size=den.degree + 1)))
    return RatFunc(num, den)


@given(ratfuncs(), st.integers(0, 20))
def test_series_at_infinity_matches_push_form(f, order):
    assert list(f.series_at_infinity(order).coeffs) \
        == series_at_infinity_push(f, order)
