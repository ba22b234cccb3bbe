"""The generating functions built from P(t) = prod (t - u), the affine
classification that reads 1/G and rho off its recovered denominator, and
the characteristic-2 power sums by Newton's identities, each against the
route it replaced (``tests/oracles.py``): chains of normalized RatFuncs,
1/G and rho rebuilt from the roots, and power sums by exponentiation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bmwparam.fields import QQ, BinaryField, FieldElement, PrimeField
from bmwparam.omega import (OmegaSeq, ParamSet, ParameterError,
                            _pm_factors_rat, nondegenerate_params,
                            rx_functions)
from bmwparam.rationality import (ClassifyError, affine_classify,
                                  char2_recover)
from oracles import (affine_classify_by_roots, pm_factors_chain,
                     power_sums_pow, rx_functions_chain)

FIELDS = [QQ, PrimeField(7), PrimeField(10007), BinaryField(1),
          BinaryField(4), BinaryField(8)]


def elements(field):
    """Over QQ, fractions with numerators and denominators up to 10^6."""
    if field == QQ:
        return st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.integers(1, 10 ** 6)).map(QQ)
    return st.integers(0, field.order - 1).map(
        lambda v: FieldElement(field, v))


@st.composite
def root_lists(draw, field):
    """Roots, and some of their reciprocals: pairs u, 1/u."""
    u = draw(st.lists(elements(field), min_size=1, max_size=4))
    reciprocals = draw(st.lists(st.sampled_from(u), max_size=2))
    return u + [x.inverse() for x in reciprocals if x]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_rx_functions_match_the_ratfunc_chain(field, data):
    u = data.draw(root_lists(field))
    if data.draw(st.booleans()):
        u.insert(data.draw(st.integers(0, len(u))), field.zero)
    rho = data.draw(elements(field).filter(bool))
    q = data.draw(elements(field).filter(bool))
    assert tuple(rx_functions(field, u, rho, q)) \
        == rx_functions_chain(field, u, rho, q)


def _nondegenerate_q(field):
    return elements(field).filter(lambda x: x and x - x.inverse())


# q - q^{-1} vanishes for every q in GF(2)
CLASSIFY_FIELDS = [QQ, PrimeField(10007), BinaryField(4), BinaryField(8)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CLASSIFY_FIELDS), st.data())
def test_pm_factors_match_the_ratfunc_chain(field, data):
    # the factors read only rho and q; an empty prefix puts no relation on them
    params = ParamSet("nondegenerate", field, (field.one,),
                      OmegaSeq(field, ()),
                      rho=data.draw(elements(field).filter(bool)),
                      q=data.draw(_nondegenerate_q(field)))
    assert _pm_factors_rat(params) == pm_factors_chain(params)


def _outcome(classify, params):
    try:
        return classify(params)
    except (ClassifyError, ParameterError) as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("base_size", [1, 2])
@pytest.mark.parametrize("ext", [(), (1,), (-1,), (-1, 1)])
@settings(max_examples=12, deadline=None)
@given(st.sampled_from(CLASSIFY_FIELDS), st.data())
def test_affine_classify_matches_the_root_verdict(base_size, ext, field,
                                                  data):
    # an extension holding -1 gives alpha = 1 on generic roots; the base
    # sizes give both parities of r
    base = data.draw(st.lists(elements(field).filter(bool),
                              min_size=base_size, max_size=base_size))
    u = base + [field(e) for e in ext]
    q = data.draw(_nondegenerate_q(field))
    p = math.prod(u, start=field.one)
    choices = (p, -p) if len(u) % 2 == 1 else (q.inverse() * p, -(q * p))
    params = nondegenerate_params(field, u, data.draw(st.sampled_from(choices)),
                                  q)
    assert _outcome(affine_classify, params) \
        == _outcome(affine_classify_by_roots, params)


@pytest.mark.parametrize("base", [[Fraction(2, 5)], [Fraction(2, 5), 11],
                                  [Fraction(2, 5), 11, Fraction(-13, 2)]])
@pytest.mark.parametrize("ext", [(), (1,), (-1,), (-1, 1)])
def test_affine_classify_reaches_both_alphas_and_parities(base, ext):
    q = Fraction(7, 3)
    u = base + list(ext)
    p = math.prod(u)
    for rho in ((p, -p) if len(u) % 2 == 1 else (p / q, -p * q)):
        params = nondegenerate_params(QQ, u, rho, q)
        result = affine_classify(params)
        assert result.alpha == (-1 in ext)
        assert result == affine_classify_by_roots(params)


@pytest.mark.parametrize("k", range(1, 9))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_char2_newton_power_sums_match_exponentiation(k, data):
    # recovery passes exactly when the Newton power sums of the fitted
    # polynomial equal the given sums x^a over the whole prefix
    field = BinaryField(k)
    raws = data.draw(st.sets(st.integers(1, field.order - 1), min_size=1,
                             max_size=min(4, field.order - 1)))
    roots = [FieldElement(field, v) for v in sorted(raws)]
    count = 2 * len(roots) + 1 + data.draw(st.integers(0, 6))
    omega0 = field(data.draw(st.integers(0, 1)))
    prefix = [omega0] + power_sums_pow(field, roots, count)
    rec = char2_recover(field, prefix)
    assert rec.roots == tuple(roots)
