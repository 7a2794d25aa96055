"""Exact scalar rings: rationals and the Weil algebras of tuples of orders."""

import random
from fractions import Fraction
from itertools import count
from math import comb, factorial, gcd, prod

import pytest

from nilbch.assoc import AssocPoly, poly_mul
from nilbch.errors import DivisionByZero, GeneratorCountMismatch
from nilbch.freelie import LieElement, lie_bracket
from nilbch.matrix import NilMatrix, gen_nilmatrix
from nilbch.scalars import (
    MAX_KEY_BITS,
    MAX_ORDER,
    WeilElement,
    exponents,
    key_shift,
    pair_factors,
    power_series,
)


def weil(k):
    """The Weil ring Q[d1..dk]/(di^2), of k orders 1."""
    return (1,) * k


def d(k, i):
    return WeilElement.generator(weil(k), i)


def em(n, m):
    """em(m) in the Weil ring (1,)*n, the image of t^[m] of the ring (n,)
    under t -> sd; em(n, 1) is sd = d1 + ... + dn."""
    return WeilElement((n,), {m: 1}).weil_image()


def random_weil(rng, k, max_terms=4, coeff_range=6):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        mask = rng.randrange(1 << k)
        num = rng.randint(-coeff_range, coeff_range)
        den = rng.randint(1, coeff_range)
        coeffs[mask] = Fraction(num, den)
    return WeilElement(weil(k), coeffs)


# -- Weil elements -----------------------------------------------------------


def test_generator_squares_to_zero():
    assert d(2, 1) * d(2, 1) == WeilElement.zero(weil(2))


def test_square_of_sum_of_two():
    d1, d2 = d(2, 1), d(2, 2)
    expected = (d1 * d2) * 2
    assert (d1 + d2) * (d1 + d2) == expected


def test_unit_plus_minus_infinitesimal():
    one = WeilElement.one(weil(1))
    d1 = d(1, 1)
    assert (one + d1) * (one - d1) == one


def test_mismatched_generator_counts():
    with pytest.raises(GeneratorCountMismatch):
        d(2, 1) * d(3, 1)


def test_generator_count_bounds():
    with pytest.raises(GeneratorCountMismatch):
        WeilElement.zero(weil(0))
    with pytest.raises(GeneratorCountMismatch):
        WeilElement.zero(weil(9))
    with pytest.raises(GeneratorCountMismatch):
        WeilElement.generator(weil(2), 3)
    with pytest.raises(GeneratorCountMismatch):
        WeilElement.generator((2, 1), 0)


# no order, an order outside 1..MAX_ORDER, keys wider than MAX_KEY_BITS (a
# table of 4^40 or 4^10 entries), or an int in place of the tuple of orders
BAD_RINGS = ((), weil(9), weil(40), (0,), (17,), (40,), (2, 0), (16, 16), 2, -2)


@pytest.mark.parametrize("make", [
    lambda w: AssocPoly(("X",), 2, w),
    lambda w: AssocPoly(("X",), 2, w, {(0,): 1}),
    lambda w: AssocPoly.one(("X",), 2, w),
    lambda w: AssocPoly.generator(("X",), 0, 2, w),
    lambda w: NilMatrix(2, w, [[0, 1], [0, 0]]),
    lambda w: NilMatrix.identity(2, w),
    lambda w: gen_nilmatrix(2, 0, 1)[0].lift(w),
    lambda w: pair_factors(w),
])
def test_every_constructor_checks_its_ring_before_building_a_table(make):
    # a ring of 40 generators would ask for a 4^40-entry table: the check comes first
    before = pair_factors.cache_info()
    for ring in BAD_RINGS:
        with pytest.raises(GeneratorCountMismatch):
            make(ring)
    assert pair_factors.cache_info().currsize == before.currsize
    for ring in (None, (1,), weil(MAX_KEY_BITS), (MAX_ORDER,), (2, 1)):
        make(ring)


def test_weil_and_t_scalars_check_their_ring():
    for ring in (*BAD_RINGS, None):
        for make in (WeilElement, WeilElement.one, WeilElement.zero,
                     lambda ring: WeilElement.generator(ring, 1)):
            with pytest.raises(GeneratorCountMismatch):
                make(ring)
        with pytest.raises(GeneratorCountMismatch):
            WeilElement.from_rational(ring, 1)
    t16 = WeilElement.one((16,))  # Q[t]/(t^17): a 32-by-32 table, 17 of its keys valid
    assert t16 * WeilElement((16,), {1: 1}) == WeilElement((16,), {1: 1})
    p = AssocPoly.generator(("X",), 0, 2, (16,)).scale(WeilElement((16,), {16: 1}))
    assert poly_mul(p, p) == AssocPoly(("X",), 2, (16,))  # t^[16] t^[16] = 0
    for ring, key in (((2,), 3), ((1,), 2), ((2, 1), 3), ((2, 1), 8), ((1, 2), 6)):
        with pytest.raises(GeneratorCountMismatch):  # an exponent past its order
            WeilElement(ring, {key: 1})


def _monomials(ring):
    """Each monomial of the ring as (key, exponents), the key packed here
    field by field, x1 lowest, each field bit_length(n_i) bits wide."""
    out = [(0, ())]
    shift = 0
    for n in ring:
        out = [(key | (e << shift), (*exps, e)) for e in range(n + 1) for key, exps in out]
        shift += n.bit_length()
    return out


def _ref_divided_mul(ring, a, b):
    """x^[a] x^[b] in the divided-power basis, by way of the ordinary powers:
    x^[a] = x^a / a!, x^a x^b = x^(a+b), zero past an order, and
    x^(a+b) = (a+b)! x^[a+b]; a Fraction-dict from exponents to coefficient."""
    value = Fraction(1)
    for n, e1, e2 in zip(ring, a, b):
        if e1 + e2 > n:
            return {}
        value *= Fraction(factorial(e1 + e2), factorial(e1) * factorial(e2))
    return {tuple([e1 + e2 for e1, e2 in zip(a, b)]): value}


def test_pair_factors_agree_with_independent_routes():
    assert pair_factors(None) == ((1,),)
    assert pair_factors((1,)) == ((1, 1), (1, 0))
    # the Weil table: 1 for disjoint masks, else 0, and the Fraction-dict
    # reference product of masks agrees
    for k in range(1, MAX_KEY_BITS + 1):
        table, size = pair_factors(weil(k)), 1 << k
        assert table == tuple([tuple([0 if m1 & m2 else 1 for m2 in range(size)])
                               for m1 in range(size)])
        for m1 in range(size if k <= 5 else 0):
            for m2 in range(size):
                ref = _ref_mul({m1: Fraction(1)}, {m2: Fraction(1)})
                assert ref == ({m1 + m2: table[m1][m2]} if table[m1][m2] else {})
    # t^[a] t^[b] = C(a+b, a) t^[a+b] over (n,), and t -> sd maps it onto em(a+b)
    for n in range(1, MAX_ORDER + 1):
        table = pair_factors((n,))
        for a in range(n + 1):
            for b in range(n + 1):
                assert table[a][b] == (comb(a + b, a) if a + b <= n else 0)
                if n > 10:
                    continue
                product = WeilElement((n,), {a: 1}) * WeilElement((n,), {b: 1})
                if a + b > n:
                    assert product == 0
                elif a + b:
                    assert product.weil_image() == em(n, a + b) * comb(a + b, a)
                else:
                    assert product == 1
    # mixed orders, against divided powers multiplied through ordinary powers;
    # a product key that is no monomial's (a carry between fields) is a KeyError
    for ring in ((2, 1), (1, 3)):
        table, monomials = pair_factors(ring), _monomials(ring)
        exps_of = dict(monomials)
        assert len(exps_of) == len(monomials) == prod([n + 1 for n in ring])
        for key1, a in monomials:
            for key2, b in monomials:
                f = table[key1][key2]
                assert ({exps_of[key1 + key2]: f} if f else {}) == _ref_divided_mul(ring, a, b)


def test_power_sum_two_of_two():
    assert em(2, 2) == d(2, 1) * d(2, 2)


def test_power_sum_three_of_three():
    assert em(3, 3) == d(3, 1) * d(3, 2) * d(3, 3)


def test_divided_power_rule_exact():
    # (d1+...+dn)^m equals m! times the elementary symmetric sum, n <= 6,
    # and em(m) = 0 past n: sd^(n+1) = 0
    for n in range(1, 7):
        power = WeilElement.one(weil(n))
        sd = em(n, 1)
        for m in range(1, n + 1):
            power = power * sd
            assert power == em(n, m) * factorial(m)
        assert power * sd == WeilElement.zero(weil(n))


def test_ring_axioms_seeded():
    rng = random.Random(20240811)
    k = 3
    for _ in range(1000):
        a = random_weil(rng, k)
        b = random_weil(rng, k)
        c = random_weil(rng, k)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + WeilElement.zero(weil(k)) == a
        assert a * WeilElement.one(weil(k)) == a
        assert a - a == WeilElement.zero(weil(k))


def test_unit_inverse_exact():
    rng = random.Random(7)
    for _ in range(100):
        a = random_weil(rng, 4) + Fraction(rng.randint(1, 5))
        assert 0 in a.coeffs
        assert a * a.inverse() == WeilElement.one(weil(4))


def test_nonunit_has_no_inverse():
    with pytest.raises(DivisionByZero):
        d(2, 1).inverse()


def test_scalar_part_and_coercion():
    a = WeilElement.from_rational(weil(2), Fraction(3, 4)) + d(2, 1)
    assert a - Fraction(3, 4) == d(2, 1)
    assert 2 * d(2, 1) == d(2, 1) + d(2, 1)
    assert 3 - d(2, 1) == WeilElement.from_rational(weil(2), 3) - d(2, 1)
    assert Fraction(5, 7) - 2 * d(2, 1) == -2 * d(2, 1) + Fraction(5, 7)
    for other in ("1/3", None):
        with pytest.raises(TypeError):
            other - d(2, 1)


@pytest.mark.parametrize("scalar", [0.5, "1/3"])
def test_only_ints_and_fractions_scale(scalar):
    # A float or a string is never coerced: no scalar outside Q reaches the
    # exact arithmetic, whichever class it scales or constructor it enters.
    x = gen_nilmatrix(3, 1, count=1)[0]
    scalings = [
        lambda: d(2, 1) * scalar,
        lambda: AssocPoly.generator(("X",), 0, 2).scale(scalar),
        lambda: LieElement.generator(("X",), 0, 2).scale(scalar),
        lambda: x.scale(scalar),
        lambda: WeilElement(weil(2), {0: scalar}),
        lambda: WeilElement.from_rational(weil(2), scalar),
        lambda: AssocPoly(("X",), 2, terms={(0,): scalar}),
        lambda: LieElement(("X",), 2, {0: scalar}),
        lambda: NilMatrix(2, None, [[0, scalar], [0, 0]]),
        lambda: NilMatrix(2, (1, 1), [[0, scalar], [0, 0]]),
    ]
    for scale in scalings:
        with pytest.raises(TypeError):
            scale()


def test_text_format():
    d1, d2 = d(2, 1), d(2, 2)
    assert str(WeilElement.zero(weil(2))) == "0"
    assert str(d1) == "d1"
    assert str(WeilElement.one(weil(2)) - d1 * d2 * Fraction(1, 2)) == "1 - 1/2*d1d2"
    assert str(d1 * 3 + d2 * Fraction(-2, 5)) == "3*d1 - 2/5*d2"


def test_zero_results_not_stored():
    d1 = d(2, 1)
    assert (d1 - d1).coeffs == {}
    assert (d1 * d1).coeffs == {}


def test_operation_results_are_clean():
    # +, -, negation, * and inverse build their results without revalidation;
    # each must be exactly what the validating constructor makes of it.
    rng = random.Random(1978)
    k = 3
    for _ in range(300):
        a, b = random_weil(rng, k), random_weil(rng, k)
        unit = a + Fraction(rng.randint(1, 5), rng.randint(1, 5))
        results = [
            a + b, a - b, -a, a * b, a * 0, a * rng.randint(-3, 3), rng.randint(-3, 3) * a,
            a * Fraction(rng.randint(-3, 3), rng.randint(1, 3)), a * Fraction(0),
            unit.inverse(),
        ]
        for r in results:
            assert r == WeilElement(r.ring, dict(r.coeffs))
            assert all(
                type(v) is Fraction and v and 0 <= m < 1 << k for m, v in r.coeffs.items()
            )


def test_public_constructor_validates():
    with pytest.raises(GeneratorCountMismatch):
        WeilElement(weil(2), {4: Fraction(1)})
    a = WeilElement(weil(2), {0: 0, 1: Fraction(0), 3: 2})
    assert a.coeffs == {3: Fraction(2)}
    assert type(a.coeffs[3]) is Fraction


# A reference for the int-numerator kernel: the Fraction-dict algorithm, one
# reduced Fraction per mask, written out here on plain dicts.


def _ref_add(a, b):
    out = dict(a)
    for m, v in b.items():
        total = out.get(m, 0) + v
        if total:
            out[m] = total
        else:
            out.pop(m, None)
    return out


def _ref_mul(a, b):
    out = {}
    for m1, v1 in a.items():
        for m2, v2 in b.items():
            if not m1 & m2:
                out = _ref_add(out, {m1 | m2: v1 * v2})
    return out


def _ref_scale(a, c):
    return {m: v * c for m, v in a.items()} if c else {}


def _ref_inverse(a, k):
    c = a[0]
    nil = {m: -v / c for m, v in a.items() if m}
    out, power = _ref_add({0: Fraction(1)}, nil), nil
    for _ in range(1, k):
        power = _ref_mul(power, nil)
        out = _ref_add(out, power)
    return _ref_scale(out, 1 / c)


def _assert_canonical(x):
    (nums,) = x._rows  # a Weil element is one row of numerators by mask
    assert x._den > 0
    assert all(type(n) is int and n for n in nums.values())
    assert gcd(x._den, *nums.values()) == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_int_numerator_kernel_matches_fraction_reference(k):
    sums = [em(k, m) for m in range(1, k + 1)]
    ring = weil(k)
    for x in (WeilElement.zero(ring), WeilElement.one(ring), WeilElement.generator(ring, k), *sums):
        _assert_canonical(x)
    rng = random.Random(f"weil-kernel-{k}")
    for _ in range(200):
        a, b, c = (random_weil(rng, k, max_terms=6, coeff_range=12) for _ in range(3))
        unit = a - a.coeffs.get(0, 0) + Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        n = rng.randint(-6, 6)
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 12))
        ra, rb = a.coeffs, b.coeffs
        cases = [
            (a + b, _ref_add(ra, rb)),
            (a - b, _ref_add(ra, _ref_scale(rb, -1))),
            (-a, _ref_scale(ra, -1)),
            (a * b, _ref_mul(ra, rb)),
            (a * n, _ref_scale(ra, n)),
            (n * a, _ref_scale(ra, n)),
            (a * q, _ref_scale(ra, q)),
            (a * 0, {}),
            (a * Fraction(0), {}),
            (unit.inverse(), _ref_inverse(unit.coeffs, k)),
        ]
        for result, expected in cases:
            assert result.coeffs == expected
            assert len(result) == len(expected)
            assert (result == a) is (expected == ra)
            _assert_canonical(result)
        # equal values reached by different routes are equal and hash alike
        routes = [
            (a * (b + c), a * b + a * c),
            ((a - b) + b, a),
            (a * 2, a + a),
            (unit * unit.inverse(), WeilElement.one(weil(k))),
            (a * q, WeilElement(weil(k), _ref_scale(ra, q))),
        ]
        for x, y in routes:
            assert x == y
            assert hash(x) == hash(y)


def test_rational_weil_elements_hash_as_their_rationals():
    # equal objects must hash equal, across types too
    for value, rational in (
        (WeilElement.one(weil(2)), 1),
        (WeilElement.from_rational(weil(3), Fraction(1, 2)), Fraction(1, 2)),
        (WeilElement.zero(weil(2)), 0),
        (WeilElement(weil(1), {0: -4}), -4),
    ):
        assert value == rational
        assert hash(value) == hash(rational)
    assert {1: "x"}.get(WeilElement.one(weil(2))) == "x"
    assert {Fraction(1, 2): "half"}[WeilElement.from_rational(weil(3), Fraction(1, 2))] == "half"


def test_equality_is_transitive_across_generator_counts():
    # With no infinitesimal term a value is a rational, whatever k; an
    # infinitesimal term ties it to its k.
    one2, one3 = WeilElement.one(weil(2)), WeilElement.one(weil(3))
    assert one2 == 1 and 1 == one3 and one2 == one3
    assert len({one2, one3}) == 1
    assert len({1, one2, one3}) == 1
    halves = [WeilElement.from_rational(weil(k), Fraction(1, 2)) for k in (1, 2, 5)]
    assert len(set(halves)) == 1 and all(h == Fraction(1, 2) for h in halves)
    assert WeilElement.zero(weil(1)) == WeilElement.zero(weil(4)) == 0
    d1s = [WeilElement.generator(weil(k), 1) for k in (1, 2)]
    assert d1s[0] != d1s[1] and len(set(d1s)) == 2
    assert one2 + d1s[1] != one2 and one2 + d1s[1] != WeilElement.one(weil(1)) + d1s[0]


def test_t_elements_multiply_in_the_divided_power_basis():
    # key e holds t^[e] = t^e / e!, the preimage of em(e) under t -> sd
    t = WeilElement.generator((3,), 1)
    assert t * t == WeilElement((3,), {2: 2}) and t * t * t == WeilElement((3,), {3: 6})
    assert t * t * t * t == WeilElement.zero((3,)) == 0
    assert str(1 - t * t * Fraction(1, 4)) == "1 - 1/2*d1^[2]"
    power, sd_power = WeilElement.one((3,)), WeilElement.one(weil(3))
    for _ in range(4):  # t^m -> sd^m
        assert power.weil_image() == sd_power
        power, sd_power = power * t, sd_power * em(3, 1)
    d1, d2, d3 = (d(3, i) for i in (1, 2, 3))
    assert WeilElement((3,), {2: 1}).weil_image() == d1 * d2 + d1 * d3 + d2 * d3
    # rational values equal across rings, and Q[t]/(t^2) is the Weil ring (1,)
    assert WeilElement.one((3,)) == WeilElement.one(weil(2)) == 1
    assert WeilElement((1,), {1: 1}) == WeilElement.generator(weil(1), 1)
    # mixed orders: x1 of order 2 beside x2 of order 1, x1 -> d1 + d2 and x2 -> d3
    x1, x2 = (WeilElement.generator((2, 1), i) for i in (1, 2))
    d1, d2, d3 = (WeilElement.generator(weil(3), i) for i in (1, 2, 3))
    assert str(x1 * x1 * x2 * Fraction(1, 4) - x2) == "-d2 + 1/2*d1^[2]d2"
    assert (x1 * x2).weil_image() == (d1 + d2) * d3
    assert (x1 * x1 * x2).weil_image() == 2 * d1 * d2 * d3
    assert not x1 * x1 * x1 and x1 * x1 * x2
    with pytest.raises(GeneratorCountMismatch):
        WeilElement((3,), {4: 1})
    for other in (WeilElement.generator((2,), 1), WeilElement.generator(weil(3), 1)):
        with pytest.raises(GeneratorCountMismatch):
            t * other


# -- power series --------------------------------------------------------------


def _class_three(kind):
    """(first, step) whose powers first, step(first), step^2(first) are nonzero
    and step^3(first) is zero."""
    if kind == "poly":
        x = AssocPoly.generator(("X", "Y"), 0, 3)
        return x, lambda p: p * x
    if kind == "matrix":
        m = gen_nilmatrix(4, 7, 1)[0]
        return m, lambda p: p * m
    x, y = (LieElement.generator(("X", "Y"), i, 3) for i in (0, 1))
    return y, lambda p: lie_bracket(x, p)


@pytest.mark.parametrize("kind", ["poly", "matrix", "lie"])
def test_power_series_stops_stepping_at_the_first_zero_power(kind):
    first, step = _class_three(kind)
    steps = []

    def counted(p):
        steps.append(p)
        return step(p)

    endless = (Fraction(1, i) for i in count(1))
    out = power_series(first - first, first, counted, endless)
    p1 = step(first)
    p2 = step(p1)
    assert p1 and p2 and not step(p2)
    assert len(steps) == 3
    assert out == first + p1.scale(Fraction(1, 2)) + p2.scale(Fraction(1, 3))


@pytest.mark.parametrize("kind", ["poly", "matrix", "lie"])
def test_power_series_of_a_zero_first_returns_out_unchanged(kind):
    first, _ = _class_three(kind)

    def never(p):
        raise AssertionError("a zero first power has no successor to compute")

    assert power_series(first, first - first, never, count(1)) is first
