"""Truncated associative algebra: products, exp, log, inversion."""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from nilbch.assoc import (
    AssocPoly,
    poly_exp,
    poly_inv,
    poly_log,
    poly_mul,
)
from nilbch.errors import (
    AlgebraMismatch,
    GeneratorCountMismatch,
    NotInvertible,
    NotNilpotent,
    NotUnipotent,
)
from nilbch.freelie import LieElement, dynkin_project, lie_bracket, lie_embed
from nilbch.scalars import WeilElement
from graded import degree_part
from test_weilcheck import _keys, ring_id

XY = ("X", "Y")


def rational_gen(i, trunc=4):
    return AssocPoly.generator(XY, i, trunc)


def weil(k):
    """The Weil ring Q[d1..dk]/(di^2), of k orders 1."""
    return (1,) * k


def weil_gen(i, ring=(1, 1), trunc=4):
    return AssocPoly.generator(XY, i, trunc, ring)


def random_poly(rng, trunc=4, ring=None):
    poly = AssocPoly(XY, trunc, ring)
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(0, trunc)
        word = tuple(rng.randint(0, 1) for _ in range(length))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        poly = poly + AssocPoly(XY, trunc, ring, {word: coeff})
    return poly


def augmentation(rng, trunc=4):
    poly = random_poly(rng, trunc)
    return poly - degree_part(poly, 0)


def test_infinitesimal_product_expansion():
    d1 = WeilElement.generator(weil(2), 1)
    d2 = WeilElement.generator(weil(2), 2)
    x, y = weil_gen(0), weil_gen(1)
    one = AssocPoly.one(XY, 4, (1, 1))
    lhs = poly_mul(one + x.scale(d1), one + y.scale(d2))
    xy = AssocPoly(XY, 4, (1, 1), {(0, 1): d1 * d2})
    assert lhs == one + x.scale(d1) + y.scale(d2) + xy


def test_commutator_matches_lie_embedding():
    x, y = rational_gen(0), rational_gen(1)
    bracket = lie_bracket(
        LieElement.generator(XY, 0, 4), LieElement.generator(XY, 1, 4)
    )
    assert poly_mul(x, y) - poly_mul(y, x) == lie_embed(bracket)


def test_geometric_series_inverse_at_trunc_four():
    x = rational_gen(0)
    one = AssocPoly.one(XY, 4)
    series = one - x + poly_mul(x, x) - poly_mul(x, poly_mul(x, x)) + poly_mul(
        poly_mul(x, x), poly_mul(x, x)
    )
    assert poly_mul(one + x, series) == one


def test_exp_of_zero():
    assert poly_exp(AssocPoly(XY, 4)) == AssocPoly.one(XY, 4)


def test_exp_of_single_infinitesimal():
    d1 = WeilElement.generator(weil(1), 1)
    x = weil_gen(0, ring=(1,))
    assert poly_exp(x.scale(d1)) == AssocPoly.one(XY, 4, (1,)) + x.scale(d1)


def test_exp_truncated_series():
    x = rational_gen(0, trunc=3)
    xx = poly_mul(x, x)
    expected = (
        AssocPoly.one(XY, 3)
        + x
        + xx.scale(Fraction(1, 2))
        + poly_mul(x, xx).scale(Fraction(1, 6))
    )
    assert poly_exp(x) == expected


def test_exp_rejects_constant_term():
    with pytest.raises(NotNilpotent):
        poly_exp(AssocPoly.one(XY, 4))


def test_log_of_one():
    assert not poly_log(AssocPoly.one(XY, 4))


def test_log_of_infinitesimal_product():
    # log((1+d1 X)(1+d2 Y)) = d1 X + d2 Y + 1/2 d1 d2 (XY - YX)
    d1 = WeilElement.generator(weil(2), 1)
    d2 = WeilElement.generator(weil(2), 2)
    x, y = weil_gen(0), weil_gen(1)
    one = AssocPoly.one(XY, 4, (1, 1))
    product = poly_mul(one + x.scale(d1), one + y.scale(d2))
    expected = (
        x.scale(d1)
        + y.scale(d2)
        + (x * y - y * x).scale(d1 * d2 * Fraction(1, 2))
    )
    assert poly_log(product) == expected


def test_log_exp_round_trip():
    x, y = rational_gen(0), rational_gen(1)
    assert poly_log(poly_exp(x + y)) == x + y


def test_exp_log_round_trips_seeded():
    rng = random.Random(11)
    one = AssocPoly.one(XY, 4)
    for _ in range(150):
        a = augmentation(rng)
        assert poly_log(poly_exp(a)) == a
        u = one + augmentation(rng)
        assert poly_exp(poly_log(u)) == u


def test_log_rejects_wrong_constant():
    with pytest.raises(NotUnipotent):
        poly_log(rational_gen(0))


def test_inv_of_tangent_element():
    d1 = WeilElement.generator(weil(1), 1)
    x = weil_gen(0, ring=(1,))
    one = AssocPoly.one(XY, 4, (1,))
    assert poly_inv(one + x.scale(d1)) == one - x.scale(d1)


def test_inv_of_exponential():
    x = rational_gen(0)
    assert poly_inv(poly_exp(x)) == poly_exp(-x)


def test_inv_of_one():
    one = AssocPoly.one(XY, 4)
    assert poly_inv(one) == one


def test_inv_of_general_unit():
    rng = random.Random(3)
    one = AssocPoly.one(XY, 4)
    for _ in range(50):
        a = augmentation(rng) + one.scale(Fraction(rng.randint(1, 4)))
        assert poly_mul(a, poly_inv(a)) == one
        assert poly_mul(poly_inv(a), a) == one


def test_inv_rejects_zero_constant():
    with pytest.raises(NotInvertible, match="constant term is not a unit"):
        poly_inv(rational_gen(0))
    d1 = WeilElement.generator(weil(2), 1)
    with pytest.raises(NotInvertible, match="constant term is not a unit"):
        poly_inv(AssocPoly.one(XY, 4, (1, 1)).scale(d1) + weil_gen(0))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_inv_of_a_unit_with_an_infinitesimal_constant(k):
    # A constant with nilpotent Weil terms lengthens the series past trunc:
    # (2 + d1 + X)^-1 has a nonzero d1 X^trunc term, which only the
    # (trunc+1)-th power of the series gives.
    ring = weil(k)
    d = [WeilElement.generator(ring, i) for i in range(1, k + 1)]
    constants = [
        2 + d[0] - d[0] * d[-1] * Fraction(1, 3),
        -3 + sum(d[1:], d[0]),
        d[0] * d[-1] - 2 * d[-1] + Fraction(5, 7),
    ]
    for trunc in range(1, 5):
        one = AssocPoly.one(XY, trunc, ring)
        x, y = (AssocPoly.generator(XY, i, trunc, ring) for i in (0, 1))
        tail = x - poly_mul(y, x).scale(Fraction(1, 2)) + y.scale(d[-1])
        for c in constants:
            a = one.scale(c) + tail
            inverse = poly_inv(a)
            assert poly_mul(a, inverse) == one
            assert poly_mul(inverse, a) == one


def random_weil_poly(rng, trunc=4, k=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, trunc)))
        terms[word] = WeilElement(weil(k), {
            rng.randrange(1 << k): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(2)
        })
    return AssocPoly(XY, trunc, weil(k), terms)


def test_operation_results_are_clean():
    # +, -, negation, scale and poly_mul build
    # their results without revalidation; each must be exactly what the
    # validating constructor makes of it.
    rng = random.Random(1979)
    d1, d2 = WeilElement.generator(weil(2), 1), WeilElement.generator(weil(2), 2)
    # d1 * d1 = 0: the (0,) term must leave, not stay as a zero coefficient
    killed = AssocPoly(XY, 4, (1, 1), {(0,): d1, (1,): d1 + d2}).scale(d1)
    assert killed.terms == {(1,): d1 * d2}
    for _ in range(150):
        a, b = random_poly(rng), random_poly(rng)
        wa, wb = random_weil_poly(rng), random_weil_poly(rng)
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        w = WeilElement(weil(2), {rng.randrange(4): rng.randint(-2, 2) for _ in range(2)})
        results = [
            killed, a + b, a - b, a - a, -a, a * rng.randint(-3, 3), 2 * a, a * q,
            a.scale(0), a.scale(Fraction(0)), poly_mul(a, b), a * b,
            wa + wb, wa - wb, wa - wa, -wa, wa * rng.randint(-3, 3), wa * q, wa.scale(0),
            wa.scale(d1), wa.scale(d1 * d2), wa * w, w * wa, poly_mul(wa, wb),
        ]
        for r in results:
            assert r == AssocPoly(r.alphabet, r.trunc, r.ring, dict(r.terms))
            ring = Fraction if r.ring is None else WeilElement
            assert all(
                type(c) is ring and c and len(word) <= r.trunc
                for word, c in r.terms.items()
            )


def test_public_constructor_rejects_letters_outside_the_alphabet():
    with pytest.raises(AlgebraMismatch):
        AssocPoly(XY, 3, None, {(5,): 1})
    with pytest.raises(AlgebraMismatch):
        AssocPoly(XY, 3, (1, 1), {(0, -1): 1})


def test_weil_scalar_acts_on_extended_poly():
    d1 = WeilElement.generator(weil(2), 1)
    assert weil_gen(0).scale(d1) == AssocPoly(
        XY, 4, (1, 1), {(0,): d1}
    )


@pytest.mark.parametrize("scalar", [0, 1, -3, Fraction(-2, 7)])
def test_rational_scale_equals_scaling_by_the_lifted_rational(scalar):
    # scale applies a rational to each coefficient directly; lifting it into
    # the coefficient ring first must give the same polynomial
    d1, d2 = WeilElement.generator(weil(2), 1), WeilElement.generator(weil(2), 2)
    x, y = weil_gen(0), weil_gen(1)
    p = x.scale(d1 + Fraction(1, 3)) + poly_mul(x, y).scale(d1 * d2) + y.scale(6)
    assert p.scale(scalar) == p.scale(WeilElement.from_rational(weil(2), scalar))
    rational = rational_gen(0).scale(Fraction(1, 3)) + poly_mul(rational_gen(0), rational_gen(1))
    assert rational.scale(scalar) == rational.scale(Fraction(scalar))
    assert all(type(c) is Fraction for c in rational.scale(scalar).terms.values())


def test_associativity_seeded():
    rng = random.Random(23)
    for _ in range(150):
        a, b, c = (random_poly(rng, trunc=5) for _ in range(3))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))


def test_exp_inverse_property_seeded():
    rng = random.Random(29)
    one = AssocPoly.one(XY, 4)
    for _ in range(150):
        a = augmentation(rng)
        assert poly_mul(poly_exp(a), poly_exp(-a)) == one


def test_exp_additive_on_commuting_elements():
    x = rational_gen(0)
    xx = poly_mul(x, x)
    assert poly_mul(poly_exp(x), poly_exp(xx)) == poly_exp(x + xx)
    two_x = x.scale(Fraction(2))
    assert poly_mul(poly_exp(x), poly_exp(two_x)) == poly_exp(x + two_x)


def test_bch_exponent_is_primitive():
    # log(exp X exp Y) projects to itself, i.e. it is a Lie element
    from nilbch.series import bch_classical

    for n in (2, 3, 4):
        z = sum(bch_classical(n).degrees.values(), LieElement.zero(XY, n))
        assert dynkin_project(lie_embed(z)) == z


def test_truncation_mismatch_is_an_error():
    with pytest.raises(AlgebraMismatch):
        poly_mul(rational_gen(0, trunc=4), rational_gen(1, trunc=5))
    with pytest.raises(AlgebraMismatch):
        poly_mul(rational_gen(0), weil_gen(1))


def test_scaling_by_a_weil_scalar_of_another_ring_is_an_error():
    with pytest.raises(AlgebraMismatch):
        rational_gen(0).scale(WeilElement.generator(weil(2), 1))
    with pytest.raises(GeneratorCountMismatch):
        weil_gen(0, ring=(1, 1)).scale(WeilElement.generator(weil(3), 1))


def test_assoc_and_lie_elements_neither_add_nor_subtract():
    poly, lie = rational_gen(0), LieElement.generator(XY, 0, 4)
    for a, b in ((poly, lie), (lie, poly)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b


# A word-by-word reference for the numerator kernel: one WeilElement or
# Fraction coefficient per word, every product of two terms summed with the
# scalar ring's own arithmetic, written out here on plain dicts.


def _ref_add(a, b):
    out = dict(a)
    for word, c in b.items():
        total = out[word] + c if word in out else c
        if total:
            out[word] = total
        else:
            out.pop(word, None)
    return out


def _ref_scale(a, c):
    return {w: v * c for w, v in a.items() if v * c}


def _ref_mul(a, b, trunc):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= trunc:
                out = _ref_add(out, {w1 + w2: c1 * c2})
    return out


def _ref_series(out, first, coeffs, trunc):
    """out + sum_i c_i first^i, for i from 1."""
    power = first
    for i, c in enumerate(coeffs):
        if i:
            power = _ref_mul(power, first, trunc)
        out = _ref_add(out, _ref_scale(power, c))
    return out


def _ref_ring(ring):
    if ring is None:
        return lambda q: Fraction(q)
    return lambda q: WeilElement.from_rational(ring, q)


def _random_coeff(rng, ring):
    def q():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6, 8, 12]))

    if ring is None:
        return q()
    keys = _keys(ring)
    return WeilElement(ring, {rng.choice(keys): q() for _ in range(rng.randint(1, 3))})


def _random_word_poly(rng, alphabet, trunc, ring, terms=None, constant=None):
    """A polynomial of ``terms`` random terms (1 to 5 if None), with a constant
    term of ``constant`` if given."""
    coeffs = {}
    for _ in range(terms or rng.randint(1, 5)):
        word = tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(1, trunc)))
        coeffs[word] = _random_coeff(rng, ring)
    if constant is not None:
        coeffs[()] = constant
    return AssocPoly(alphabet, trunc, ring, coeffs)


def _assert_canonical(p):
    """trunc + 1 rows of nonzero int numerators over a positive den coprime to them."""
    nums = [n for row in p._rows for n in row.values()]
    assert len(p._rows) == p.trunc + 1
    assert p._den > 0 and all(type(n) is int and n for n in nums)
    assert gcd(p._den, *nums) == 1


@pytest.mark.parametrize("alphabet, ring", [
    (XY, None), (XY, (1, 1)), (("X", "Y", "Z"), None), (("X", "Y", "Z"), (1, 1, 1)),
    (("X",), (1, 1)), (XY, (3,)), (("X",), (1,)), (XY, (2, 1)),
], ids=ring_id)
def test_numerator_kernel_matches_the_word_by_word_reference(alphabet, ring):
    rng = random.Random(f"poly-kernel-{len(alphabet)}-{ring_id(ring)}")
    lift = _ref_ring(ring)
    for _ in range(40):
        trunc = rng.randint(2, 4)
        a, b = (_random_word_poly(rng, alphabet, trunc, ring) for _ in range(2))
        # one term by one term, with unrelated denominators
        a1, b1 = (_random_word_poly(rng, alphabet, trunc, ring, terms=1) for _ in range(2))
        c = rng.randint(1, 5)
        unit = _random_word_poly(rng, alphabet, trunc, ring, constant=lift(c))
        unipotent = _random_word_poly(rng, alphabet, trunc, ring, constant=lift(1))
        ra, rb, one = a.terms, b.terms, {(): lift(1)}
        n, q = rng.randint(-4, 4), Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        cases = [
            (poly_mul(a, b), _ref_mul(ra, rb, trunc)),
            (poly_mul(a1, b1), _ref_mul(a1.terms, b1.terms, trunc)),
            (poly_mul(a1, b), _ref_mul(a1.terms, rb, trunc)),
            (a + b, _ref_add(ra, rb)),
            (a - b, _ref_add(ra, _ref_scale(rb, -1))),
            (-a, _ref_scale(ra, -1)),
            (a.scale(n), _ref_scale(ra, n)),
            (a.scale(q), _ref_scale(ra, q)),
            (poly_exp(a), _ref_series(
                one, ra, [Fraction(1, factorial(i)) for i in range(1, trunc + 1)], trunc)),
            (poly_log(unipotent), _ref_series(
                {}, _ref_add(unipotent.terms, {(): lift(-1)}),
                [Fraction((-1) ** (i + 1), i) for i in range(1, trunc + 1)], trunc)),
        ]
        c_inv = lift(Fraction(1, c))
        nil = _ref_add(one, _ref_scale(unit.terms, -c_inv))
        cases.append(
            (poly_inv(unit), _ref_scale(_ref_series(one, nil, [1] * trunc, trunc), c_inv))
        )
        if ring is not None:
            w = _random_coeff(rng, ring)
            d1 = WeilElement.generator(ring, 1)
            cases += [(a.scale(w), _ref_scale(ra, w)), (a.scale(d1), _ref_scale(ra, d1))]
        for result, expected in cases:
            assert result.terms == expected
            _assert_canonical(result)
            assert result == AssocPoly(alphabet, trunc, ring, expected)


def test_equal_values_have_equal_numerators_and_denominator():
    rng = random.Random(1981)
    for ring in (None, (1, 1)):
        for _ in range(60):
            a, b, c = (_random_word_poly(rng, XY, 4, ring) for _ in range(3))
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            routes = [
                (poly_mul(a + b, c), poly_mul(a, c) + poly_mul(b, c)),
                (a.scale(q).scale(1 / q), a),
                ((a - b) + b, a),
                (a.scale(2), a + a),
                (poly_mul(a, poly_mul(b, c)), poly_mul(poly_mul(a, b), c)),
                (AssocPoly(XY, 4, ring, a.terms), a),
                (degree_part(a, 2) + (a - degree_part(a, 2)), a),
            ]
            for x, y in routes:
                _assert_canonical(x)
                assert (x._rows, x._den) == (y._rows, y._den)
