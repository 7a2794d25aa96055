"""scalars.combination: one sum over one common denominator, and the power
series that sum through it."""

import copy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilbch import assoc, scalars, series
from nilbch.assoc import AssocPoly, poly_exp, poly_inv, poly_log, poly_mul
from nilbch.errors import AlgebraMismatch, AlphabetMismatch, GeneratorCountMismatch
from nilbch.freelie import LieElement
from nilbch.matrix import NilMatrix, gen_nilmatrix
from nilbch.scalars import WeilElement, combination
from nilbch.series import AD

XY = ("X", "Y")
RING = (1, 1)  # the Weil ring of the scalars below

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
weils = st.dictionaries(st.integers(0, (1 << len(RING)) - 1), fractions, max_size=4).map(
    lambda coeffs: WeilElement(RING, coeffs)
)
words = st.lists(st.integers(0, 1), max_size=2).map(tuple)
lie_monos = st.sampled_from([0, 1, (0, 1), (0, (0, 1)), ((0, 1), 1)])

# one strategy of values per algebra
ALGEBRAS = {
    "weil": weils,
    "poly": st.dictionaries(words, fractions, max_size=5).map(
        lambda terms: AssocPoly(XY, 2, None, terms)
    ),
    "weil-poly": st.dictionaries(words, weils, max_size=4).map(
        lambda terms: AssocPoly(XY, 2, RING, terms)
    ),
    "matrix": st.lists(st.lists(fractions, min_size=3, max_size=3), min_size=3, max_size=3).map(
        lambda rows: NilMatrix(3, None, rows)
    ),
    "weil-matrix": st.lists(st.lists(weils, min_size=2, max_size=2), min_size=2, max_size=2).map(
        lambda rows: NilMatrix(2, RING, rows)
    ),
    "lie": st.dictionaries(lie_monos, fractions, max_size=4).map(
        lambda terms: LieElement(XY, 3, terms)
    ),
}

coefficients = st.one_of(st.integers(-4, 4), fractions)


def _reference(value) -> dict:
    """A value as {(row, key): Fraction}, read from its numerators."""
    return {(i, key): Fraction(n, value._den)
            for i, row in enumerate(value._rows) for key, n in row.items()}


def _reference_sum(terms) -> dict:
    out = {}
    for c, p in terms:
        for key, v in _reference(p).items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _assert_canonical(value):
    nums = [n for row in value._rows for n in row.values()]
    assert value._den > 0 and 0 not in nums
    assert gcd(value._den, *nums) == 1  # also makes a zero's denominator 1


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_combination_matches_a_fraction_sum(algebra, data):
    values = ALGEBRAS[algebra]
    terms = data.draw(st.lists(st.tuples(coefficients, values), min_size=1, max_size=5))
    if data.draw(st.booleans()):  # a sum that cancels completely
        terms += [(-c, p) for c, p in terms]
    before = [copy.deepcopy(p._rows) for _, p in terms]
    out = combination(terms)
    assert type(out) is type(terms[0][1])
    assert _reference(out) == _reference_sum(terms)
    _assert_canonical(out)
    assert len(out._rows) == len(terms[0][1]._rows)
    if not _reference_sum(terms):
        assert not out and out._den == 1 and not any(out._rows)
    # values share rows, so no input may change
    assert [p._rows for _, p in terms] == before


@pytest.mark.parametrize("algebra", sorted(ALGEBRAS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_two_term_combination_is_the_sum(algebra, data):
    a, b = data.draw(ALGEBRAS[algebra]), data.draw(ALGEBRAS[algebra])
    assert combination([(1, a), (1, b)]) == a + b
    assert combination([(1, a), (-1, b)]) == a - b


MIXED = [
    (AssocPoly.generator(XY, 0, 2), AssocPoly.generator(XY, 0, 3).scale(Fraction(1, 2)),
     AlgebraMismatch),
    (AssocPoly.generator(XY, 0, 2), AssocPoly.generator(XY, 0, 2, RING), AlgebraMismatch),
    (WeilElement.generator((1, 1), 1), WeilElement.generator((1, 1, 1), 1) * Fraction(3, 2),
     GeneratorCountMismatch),
    (NilMatrix.identity(3), NilMatrix.identity(4).scale(Fraction(1, 3)), AlgebraMismatch),
    (LieElement.generator(XY, 0, 3), LieElement.generator(("A", "B"), 0, 3), AlphabetMismatch),
    (LieElement.generator(XY, 0, 3), AssocPoly.generator(XY, 0, 3), TypeError),
]


@pytest.mark.parametrize("a, b, error", MIXED)
def test_mixed_algebras_raise_what_plus_raises(a, b, error):
    with pytest.raises(error) as plus:
        a + b
    with pytest.raises(error) as combined:
        combination([(1, a), (2, b)])
    assert str(combined.value) == str(plus.value)


# -- power series against the term-by-term sum they replace ------------------


def _term_by_term(out, first, step, coeffs):
    """The power series as one sum per term: out + p or out + p.scale(c)."""
    power = first
    for i, coeff in enumerate(coeffs):
        if i:
            power = step(power)
        if not power:
            break
        out = out + (power if coeff == 1 else power.scale(coeff))
    return out


def _series_values(n: int) -> dict:
    """exp, log, geometric, ad and conjugation series at order n, each
    through power_series."""
    x, y = (AssocPoly.generator(XY, i, n) for i in (0, 1))
    ring = (1,) * min(n, 3)
    sd = WeilElement((len(ring),), {1: 1}).weil_image()  # the image of t, d1 + ... + dk
    wx, wy = (AssocPoly.generator(XY, i, n, ring) for i in (0, 1))
    m = gen_nilmatrix(n + 1, 7 + n, 1)[0]
    table = series._lie_context(n)
    weil = WeilElement((1,) * n, {0: 3, 1: Fraction(-1, 2), (1 << n) - 1: Fraction(5, 7)})
    return {
        "exp": poly_exp(x + y.scale(Fraction(2, 3))),
        "exp-weil": poly_exp((wx + wy).scale(sd)),
        "exp-matrix": m.lift(ring).scale(sd).exp(),
        "log": poly_log(poly_mul(poly_exp(x), poly_exp(y))),
        "log-weil": poly_log(poly_mul(poly_exp(wx.scale(sd)), poly_exp(wy.scale(sd)))),
        "geometric": poly_inv(x.scale(3) - y + AssocPoly._unit_term(x._alg, 0, 0).scale(Fraction(1, 2))),
        "geometric-matrix": m.exp().inv(),
        "geometric-weil": weil.inverse(),
        "ad-left": series.evaluate(table, (AD, "left", 0, 1), {}),
        "ad-right": series.evaluate(table, (AD, "right", series._lin((1, 0), (1, 1)), 1), {}),
        "conj": series.evaluate(table, (AD, "exp", 0, 1), {}),
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_power_series_equals_the_term_by_term_sum(n, monkeypatch):
    summed_once = _series_values(n)
    for module in (scalars, assoc, series):
        monkeypatch.setattr(module, "power_series", _term_by_term)
    term_by_term = _series_values(n)
    for name, value in summed_once.items():
        old = term_by_term[name]
        assert value == old, (name, n)
        assert (value._den, value._rows) == (old._den, old._rows), (name, n)
