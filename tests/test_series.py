"""Series sources: classical oracles, tabulated formulas, operator series."""

from fractions import Fraction
from itertools import combinations, islice
from math import factorial

import pytest

from nilbch import series
from nilbch.assoc import AssocPoly, poly_exp, poly_inv, poly_log, poly_mul
from nilbch.errors import DegreeOutOfRange, KindMismatch, NotTabulated
from nilbch.freelie import (
    HARD_DEGREE_CAP,
    LieElement,
    dynkin_project,
    lie_bracket,
    lie_embed,
    mono_word,
)
from nilbch.scalars import power_series
from nilbch.series import (
    ad_coeffs,
    bch_classical,
    bch_paper,
    evaluate,
    series_compare,
    zassenhaus_classical,
    zassenhaus_paper,
)
from graded import degree_part

XY = ("X", "Y")


def gen(i, max_degree):
    return LieElement.generator(XY, i, max_degree)


def bracket_xy(max_degree):
    return lie_bracket(gen(0, max_degree), gen(1, max_degree))


def _sum(s):
    """All components of a series in one truncated Lie element."""
    return sum(s.degrees.values(), LieElement.zero(XY, s.order))


def coeffs(family, n):
    """c_0..c_n of an ad-series family; "exp" gives Ad(exp X) = exp(ad X)."""
    return list(islice(ad_coeffs(family), n + 1))


def ad_sum(weights, x, v):
    """sum_p weights[p] (ad x)^p v through power_series, as the AD node sums it."""
    return power_series(LieElement.zero(XY, x.max_degree), v, lambda p: lie_bracket(x, p), weights)


# -- classical oracle ----------------------------------------------------------


def test_classical_degree_two():
    z = bch_classical(2)
    assert z.component(1) == gen(0, 2) + gen(1, 2)
    assert z.component(2) == Fraction(1, 2) * bracket_xy(2)


def test_classical_degree_three():
    z = bch_classical(3)
    x, y = gen(0, 3), gen(1, 3)
    xy = bracket_xy(3)
    expected = Fraction(1, 12) * (lie_bracket(x, xy) - lie_bracket(y, xy))
    assert z.component(3) == expected


def test_classical_degree_four_frozen():
    # computed by this oracle once and pinned; equals -1/24 [Y,[X,[X,Y]]]
    z = bch_classical(4)
    x, y = gen(0, 4), gen(1, 4)
    nested = lie_bracket(y, lie_bracket(x, lie_bracket(x, y)))
    assert z.component(4) == Fraction(-1, 24) * nested


def test_classical_reconstruction_contract():
    for n in range(1, 5):
        z = bch_classical(n)
        x = AssocPoly.generator(XY, 0, n)
        y = AssocPoly.generator(XY, 1, n)
        assert poly_exp(lie_embed(_sum(z))) == poly_mul(poly_exp(x), poly_exp(y))


def test_classical_degree_bounds():
    with pytest.raises(DegreeOutOfRange):
        bch_classical(0)
    with pytest.raises(DegreeOutOfRange):
        bch_classical(7)


def test_zassenhaus_factor_two():
    factors = zassenhaus_classical(2)
    assert factors.component(2) == Fraction(-1, 2) * bracket_xy(2)


def test_zassenhaus_factor_three():
    factors = zassenhaus_classical(3)
    x, y = gen(0, 3), gen(1, 3)
    expected = Fraction(1, 6) * lie_bracket(x + 2 * y, bracket_xy(3))
    assert factors.component(3) == expected


def test_zassenhaus_factor_four_frozen():
    # pinned from the peeling oracle
    factors = zassenhaus_classical(4)
    x, y = gen(0, 4), gen(1, 4)
    xy = bracket_xy(4)
    expected = (
        Fraction(-1, 24) * lie_bracket(x, lie_bracket(x, xy))
        - Fraction(1, 8) * lie_bracket(x, lie_bracket(y, xy))
        - Fraction(1, 8) * lie_bracket(y, lie_bracket(y, xy))
    )
    assert factors.component(4) == expected


def test_zassenhaus_reconstruction_contract(monkeypatch):
    monkeypatch.setattr(series, "ORACLE_DEGREE_CAP", HARD_DEGREE_CAP)
    for n in range(2, HARD_DEGREE_CAP + 1):
        factors = zassenhaus_classical(n)
        x = AssocPoly.generator(XY, 0, n)
        y = AssocPoly.generator(XY, 1, n)
        product = poly_mul(poly_exp(x), poly_exp(y))
        for m in range(2, n + 1):
            product = poly_mul(product, poly_exp(lie_embed(factors.component(m))))
        assert product == poly_exp(x + y)


def bch_by_log(N):
    """log(exp X . exp Y) through degree N, computed in the truncated algebra."""
    x = AssocPoly.generator(XY, 0, N)
    y = AssocPoly.generator(XY, 1, N)
    z = dynkin_project(poly_log(poly_mul(poly_exp(x), poly_exp(y))))
    return series.GradedSeries(
        "bch", N, "classical", {n: degree_part(z, n) for n in range(1, N + 1)}
    )


def zassenhaus_by_peel(N):
    """Factors C[2..N] by peeling exp(-C[n-1])...exp(-Y)exp(-X)exp(X+Y).

    At step n the remainder is exp(C[n]) exp(C[n+1]) ... = 1 + u, where u has
    lowest degree n.  Then log(remainder) = u - u^2/2 + ... agrees with u
    modulo degree 2n > n, and the Dynkin projection preserves degree, so
    projecting the degree-n part of the remainder gives the same C[n] as
    projecting the degree-n part of its logarithm, without computing the log.
    The peel stops at C[N]: nothing reads the remainder after it.
    """
    x = AssocPoly.generator(XY, 0, N)
    y = AssocPoly.generator(XY, 1, N)
    remainder = poly_mul(poly_mul(poly_exp(-y), poly_exp(-x)), poly_exp(x + y))
    factors = {2: dynkin_project(degree_part(remainder, 2))}
    for n in range(3, N + 1):
        remainder = poly_mul(poly_exp(-lie_embed(factors[n - 1])), remainder)
        factors[n] = dynkin_project(degree_part(remainder, n))
    return series.GradedSeries("zassenhaus", N, "classical", factors)


def test_lie_recursions_match_the_associative_route_through_degree_ten(monkeypatch):
    # the production series are built among Lie elements alone, the
    # references through logarithms and exponentials in the truncated
    # associative algebra
    monkeypatch.setattr(series, "ORACLE_DEGREE_CAP", HARD_DEGREE_CAP)
    for native, reference, first in (
        (bch_classical, bch_by_log, 1),
        (zassenhaus_classical, zassenhaus_by_peel, 2),
    ):
        for N in range(first, HARD_DEGREE_CAP + 1):
            got, want = native(N), reference(N)
            assert (got.kind, got.order, got.source) == (want.kind, want.order, want.source)
            assert sorted(got.degrees) == sorted(want.degrees) == list(range(first, N + 1))
            for n in range(first, N + 1):
                assert got.component(n) == want.component(n), (got.kind, N, n)
                assert got.component(n).max_degree == want.component(n).max_degree == N
                assert got.component(n).to_json_terms() == want.component(n).to_json_terms()


def zassenhaus_by_log(N):
    """The peel with a full logarithm at every step: C[n] is the degree-n
    part of the Dynkin projection of log(remainder)."""
    x = AssocPoly.generator(XY, 0, N)
    y = AssocPoly.generator(XY, 1, N)
    remainder = poly_mul(poly_mul(poly_exp(-y), poly_exp(-x)), poly_exp(x + y))
    factors = {}
    for n in range(2, N + 1):
        factors[n] = degree_part(dynkin_project(poly_log(remainder)), n)
        remainder = poly_mul(poly_exp(-lie_embed(factors[n])), remainder)
    return factors


def test_log_free_peel_matches_log_reference():
    for N in range(2, 8):
        factors = zassenhaus_by_peel(N)
        reference = zassenhaus_by_log(N)
        assert sorted(factors.degrees) == sorted(reference)
        for n, c_n in reference.items():
            assert c_n, f"C[{n}] of the reference is zero"
            assert factors.component(n) == c_n
            assert factors.component(n).max_degree == c_n.max_degree == N


def test_inverse_companion_duality():
    # substituting the Zassenhaus factors into the BCH reconstruction and back
    for n in range(2, 7):
        z = bch_classical(n)
        factors = zassenhaus_classical(n)
        x = AssocPoly.generator(XY, 0, n)
        y = AssocPoly.generator(XY, 1, n)
        ez = poly_exp(lie_embed(_sum(z)))
        tail = AssocPoly.one(XY, n)
        for m in range(2, n + 1):
            tail = poly_mul(tail, poly_exp(lie_embed(factors.component(m))))
        assert poly_mul(ez, tail) == poly_exp(x + y)
        assert ez == poly_mul(poly_exp(x + y), poly_inv(tail))


class _Substitution:
    """The ``evaluate`` context of a Lie monomial in X, Y at two Lie elements."""

    bracket = staticmethod(lie_bracket)

    def __init__(self, x, y):
        self.gens = (x, y)


def bch_at(z, a, b):
    """Z(a, b): the Lie terms of the classical series z with X and Y replaced
    by a and b through lie_bracket, with one memo for the whole substitution."""
    ctx, memo = _Substitution(a, b), {}
    total = LieElement.zero(a.alphabet, a.max_degree)
    for n in range(1, z.order + 1):
        for mono, coeff in z.component(n).sorted_terms():
            total = total + evaluate(ctx, mono, memo).scale(coeff)
    return total


def test_bch_is_antisymmetric_under_swapping_and_negating_through_degree_ten(monkeypatch):
    # exp Z(X,Y) exp Z(-Y,-X) = exp X exp Y exp -Y exp -X = 1, so
    # Z(X,Y) = -Z(-Y,-X) at every degree; no copied coefficient is used
    monkeypatch.setattr(series, "ORACLE_DEGREE_CAP", HARD_DEGREE_CAP)
    N = HARD_DEGREE_CAP
    z = bch_classical(N)
    x, y = gen(0, N), gen(1, N)
    swapped = -bch_at(z, -y, -x)
    for n in range(1, N + 1):
        assert z.component(n), f"Z has no degree-{n} part"
        assert degree_part(swapped, n) == z.component(n), f"degree {n}"


def bernoulli_plus_over_factorial(n):
    """b_k = B_k^+ / k!, k = 0..n, with B_1 = +1/2: the coefficients of
    x / (1 - e^-x), inverted term by term from (1 - e^-x) / x = sum_k (-x)^k / (k+1)!."""
    a = [Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)]
    b = []
    for k in range(n + 1):
        b.append(int(k == 0) - sum(a[i] * b[k - i] for i in range(1, k + 1)))
    return b


def part_linear_in(element, letter):
    """The terms of a Lie element in X, Y whose word holds ``letter`` once; the
    bracket is bigraded, so this is its part of degree one in that letter."""
    terms = {m: c for m, c in element.sorted_terms() if mono_word(m).count(letter) == 1}
    return LieElement(XY, element.max_degree, terms)


def test_bch_part_linear_in_y_is_the_bernoulli_ad_series_through_degree_ten(monkeypatch):
    # the part of Z(X,Y) linear in Y is sum_k b_k (ad X)^k Y; in degree n it is
    # the Lyndon word X...XY alone, whose monomial is (ad X)^(n-1) Y
    monkeypatch.setattr(series, "ORACLE_DEGREE_CAP", HARD_DEGREE_CAP)
    N = HARD_DEGREE_CAP
    z = bch_classical(N)
    linear = ad_sum(bernoulli_plus_over_factorial(N - 1), gen(0, N), gen(1, N))
    for n in range(1, N + 1):
        assert part_linear_in(z.component(n), 1) == degree_part(linear, n), f"degree {n}"


def test_zassenhaus_parts_linear_in_y_and_in_x_through_degree_ten(monkeypatch):
    # Modulo Y^2 the factors' parts linear in Y commute, and
    # exp(X+Y) = exp X exp(sum_k (-1)^k/(k+1)! (ad X)^k Y), so the part of C[n]
    # linear in Y is (-1)^(n-1)/n! (ad X)^(n-1) Y.  Modulo X^2,
    # exp X exp Y = exp Y exp(e^(-ad Y) X) and
    # exp(X+Y) = exp Y exp(sum_k (-1)^k/(k+1)! (ad Y)^k X), so the part linear
    # in X is ((-1)^(n-1)/n! - (-1)^(n-1)/(n-1)!) (ad Y)^(n-1) X
    # = (-1)^n (n-1)/n! (ad Y)^(n-1) X.  No copied coefficient is used.
    monkeypatch.setattr(series, "ORACLE_DEGREE_CAP", HARD_DEGREE_CAP)
    N = HARD_DEGREE_CAP
    factors = zassenhaus_classical(N)
    x, y = gen(0, N), gen(1, N)
    ad_x_y, ad_y_x = y, x
    for n in range(2, N + 1):
        ad_x_y, ad_y_x = lie_bracket(x, ad_x_y), lie_bracket(y, ad_y_x)
        c = factors.component(n)
        assert part_linear_in(c, 1) == Fraction((-1) ** (n - 1), factorial(n)) * ad_x_y, n
        assert part_linear_in(c, 0) == Fraction((-1) ** n * (n - 1), factorial(n)) * ad_y_x, n


@pytest.mark.parametrize("oracle, first", [(bch_classical, 1), (zassenhaus_classical, 2)])
def test_classical_components_are_homogeneous_prefixes_of_order_ten(oracle, first, monkeypatch):
    # component n of the order-N series has only degree-n terms and writes the
    # JSON of component n at order 10, so a statement of order N built from
    # them is the order-10 statement reduced mod t^(N+1)
    monkeypatch.setattr(series, "ORACLE_DEGREE_CAP", HARD_DEGREE_CAP)
    top = oracle(HARD_DEGREE_CAP)
    for N in range(first, HARD_DEGREE_CAP + 1):
        s = oracle(N)
        for n in range(first, N + 1):
            c = s.component(n)
            assert [d for d, row in enumerate(c._rows) if row] == [n], (N, n)
            assert c.to_json_terms() == top.component(n).to_json_terms(), (N, n)


def test_bch_is_associative_through_the_oracle_cap():
    # Z(Z(X,Y),W) = Z(X,Z(Y,W)) in three generators, as exp Z is a group law;
    # it holds at every degree and uses no copied coefficient
    N = series.ORACLE_DEGREE_CAP
    z = bch_classical(N)
    x, y, w = (LieElement.generator(("X", "Y", "W"), i, N) for i in range(3))
    left, right = bch_at(z, bch_at(z, x, y), w), bch_at(z, x, bch_at(z, y, w))
    for n in range(1, N + 1):
        assert degree_part(left, n), f"Z(Z(X,Y),W) has no degree-{n} part"
        assert degree_part(left, n) == degree_part(right, n), f"degree {n}"


# -- tabulated formulas ----------------------------------------------------------


def test_paper_order_one():
    for variant in ("sec7", "sec8"):
        series = bch_paper(1, variant)
        assert series.component(1) == gen(0, 1) + gen(1, 1)


def test_paper_degree_three_component():
    series = bch_paper(3, "sec7")
    x, y = gen(0, 3), gen(1, 3)
    xy = bracket_xy(3)
    assert series.component(3) == Fraction(1, 12) * (
        lie_bracket(x, xy) - lie_bracket(y, xy)
    )


def test_paper_order_four_degree_four_component():
    # -(1/24)(1/2 [X,[X,[X,Y]]] + 1/2 [Y,[Y,[X,Y]]] + 2 [X,[Y,[X,Y]]])
    series = bch_paper(4, "sec7")
    x, y = gen(0, 4), gen(1, 4)
    xy = bracket_xy(4)
    expected = Fraction(-1, 24) * (
        Fraction(1, 2) * lie_bracket(x, lie_bracket(x, xy))
        + Fraction(1, 2) * lie_bracket(y, lie_bracket(y, xy))
        + 2 * lie_bracket(x, lie_bracket(y, xy))
    )
    assert series.component(4) == expected


def test_table_entries_are_homogeneous_of_their_weight_degree():
    # expanded with room to spare, each entry's bracket degree is its weight's m
    ctx = series._lie_context(HARD_DEGREE_CAP)
    for entries in series.PAPER_TABLES.values():
        for entry in entries:
            m = entry[1][1]
            value = series.evaluate(ctx, entry, {})
            assert value and value == degree_part(value, m), entry


def test_each_form_lists_its_entries_by_degree_from_the_first():
    # the lookup reads order n as a prefix, so entry i has degree first + i
    for (kind, section, form), entries in series.PAPER_TABLES.items():
        first = series._FIRST_DEGREE[kind]
        degrees = [entry[1][1] for entry in entries]
        assert degrees == list(range(first, first + len(entries))), (kind, section, form)


def test_every_form_is_tabulated_exactly_from_its_first_to_its_last_degree():
    for (kind, section, form), entries in series.PAPER_TABLES.items():
        first = series._FIRST_DEGREE[kind]
        last = first + len(entries) - 1
        for order in (first - 1, last + 1):
            with pytest.raises(NotTabulated) as raised:
                series.paper_table(kind, section, form, order)
            assert str(raised.value).endswith(f" cover orders {first}..{last}, got {order}")
        assert series.paper_table(kind, section, form, last) is entries
        assert len(series.paper_table(kind, section, form, first)) == 1


def test_form_b_of_section_seven_starts_as_form_a():
    assert series.paper_table("bch", "sec7", "b", 1) == series.paper_table("bch", "sec7", "a", 1)


def test_paper_tables_stop_at_order_four():
    with pytest.raises(NotTabulated):
        bch_paper(5, "sec7")
    with pytest.raises(NotTabulated):
        zassenhaus_paper(5, "a")


def test_paper_zassenhaus_order_two_forms_agree():
    for form in ("a", "b"):
        factors = zassenhaus_paper(2, form)
        assert factors.component(2) == Fraction(-1, 2) * bracket_xy(2)


def test_paper_zassenhaus_order_three_forms_differ():
    x, y = gen(0, 3), gen(1, 3)
    bracket = lie_bracket(x + 2 * y, bracket_xy(3))
    assert zassenhaus_paper(3, "a").component(3) == Fraction(1, 6) * bracket
    assert zassenhaus_paper(3, "b").component(3) == Fraction(1, 12) * bracket


# -- comparisons ----------------------------------------------------------------


def test_agreement_through_order_three():
    for variant in ("sec7", "sec8"):
        for n in (1, 2, 3):
            diff = series_compare(bch_paper(n, variant), bch_classical(n), n)
            assert not diff


def test_order_four_divergence_value():
    # the oracle-confirmed difference: -1/48 [X+Y,[X+Y,[X,Y]]]
    diff = series_compare(bch_paper(4, "sec7"), bch_classical(4), 4)
    x, y = gen(0, 4), gen(1, 4)
    s = x + y
    expected = Fraction(-1, 48) * lie_bracket(s, lie_bracket(s, bracket_xy(4)))
    assert diff == expected
    assert diff


def test_both_variants_share_the_divergence():
    d7 = series_compare(bch_paper(4, "sec7"), bch_classical(4), 4)
    d8 = series_compare(bch_paper(4, "sec8"), bch_classical(4), 4)
    assert d7 == d8
    assert not series_compare(bch_paper(4, "sec7"), bch_paper(4, "sec8"), 4)


def test_zassenhaus_form_a_matches_classical():
    classical = zassenhaus_classical(4)
    table = zassenhaus_paper(4, "a")
    for n in (2, 3, 4):
        assert not series_compare(table, classical, n)


def test_zassenhaus_form_b_third_factor_differs():
    classical = zassenhaus_classical(4)
    table = zassenhaus_paper(4, "b")
    assert not series_compare(table, classical, 2)
    diff = series_compare(table, classical, 3)
    x, y = gen(0, 4), gen(1, 4)
    assert diff == Fraction(-1, 12) * lie_bracket(x + 2 * y, bracket_xy(4))
    assert not series_compare(table, classical, 4)


def test_compare_rejects_kind_mixing():
    with pytest.raises(KindMismatch):
        series_compare(bch_classical(2), zassenhaus_classical(2), 2)


def test_compare_rejects_order_mixing():
    for a, b in (
        (bch_paper(3, "sec7"), bch_classical(4)),
        (zassenhaus_paper(3, "a"), zassenhaus_classical(4)),
    ):
        with pytest.raises(KindMismatch):
            series_compare(a, b, 2)


def test_degrees_outside_the_series_raise():
    # a degree where neither series has a term must not read as agreement
    for first, s in ((1, bch_paper(3, "sec7")), (2, zassenhaus_classical(3))):
        for n in (first - 1, 4):
            with pytest.raises(DegreeOutOfRange):
                s.component(n)
    with pytest.raises(DegreeOutOfRange):
        series_compare(bch_paper(3, "sec7"), bch_classical(3), 5)
    with pytest.raises(DegreeOutOfRange):
        series_compare(zassenhaus_paper(3, "a"), zassenhaus_classical(3), 1)


def _every_series():
    yield from (bch_classical(n) for n in range(1, 7))
    yield from (zassenhaus_classical(n) for n in range(2, 7))
    for (kind, section, form), entries in series.PAPER_TABLES.items():
        first = series._FIRST_DEGREE[kind]
        for order in range(first, first + len(entries)):
            if kind == "zassenhaus":
                yield zassenhaus_paper(order, form)
            elif form == "a":  # bch_paper grades the first form of a section
                yield bch_paper(order, section)


def test_every_component_lives_at_the_series_order():
    for s in _every_series():
        for n in range(s.first_degree, s.order + 1):
            assert s.component(n).max_degree == s.order, (s.source, s.order, n)


def test_equal_components_compare_equal_across_sources():
    assert bch_classical(2).component(1) == bch_paper(2, "sec7").component(1)
    assert zassenhaus_classical(4).component(2) == zassenhaus_paper(4, "a").component(2)


# -- operator series ---------------------------------------------------------------


def test_left_coefficients_through_p_five():
    assert coeffs("left", 5) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(-1, 24),
        Fraction(1, 120),
        Fraction(-1, 720),
    ]


def test_right_coefficients_through_p_five():
    assert coeffs("right", 5) == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
        Fraction(1, 120),
        Fraction(1, 720),
    ]


def test_left_derivative_at_zero_is_identity():
    zero = LieElement.zero(XY, 4)
    y = gen(1, 4)
    assert ad_sum(coeffs("left", 3), zero, y) == y


def test_left_derivative_first_order():
    # the p <= 1 truncation: Y - 1/2 [X,Y]
    x, y = gen(0, 4), gen(1, 4)
    expected = y - Fraction(1, 2) * bracket_xy(4)
    assert ad_sum(coeffs("left", 1), x, y) == expected


def test_right_derivative_second_order():
    x, y = gen(0, 4), gen(1, 4)
    xy = bracket_xy(4)
    expected = y + Fraction(1, 2) * xy + Fraction(1, 6) * lie_bracket(x, xy)
    assert ad_sum(coeffs("right", 2), x, y) == expected


def test_ad_exp_basics():
    x, y = gen(0, 4), gen(1, 4)
    zero = LieElement.zero(XY, 4)
    assert ad_sum(coeffs("exp", 3), zero, y) == y
    assert ad_sum(coeffs("exp", 1), x, y) == y + bracket_xy(4)


def test_ad_exp_matches_associative_conjugation():
    # sum_p (ad X)^p(Y)/p! against exp(x) y exp(-x), truncation 5 so p <= 4
    trunc = 5
    x = AssocPoly.generator(XY, 0, trunc)
    y = AssocPoly.generator(XY, 1, trunc)
    conjugated = poly_mul(poly_mul(poly_exp(x), y), poly_exp(-x))
    lie_side = ad_sum(coeffs("exp", 4), gen(0, trunc), gen(1, trunc))
    assert lie_embed(lie_side) == conjugated


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_right_derivative_is_ad_exp_of_left(n):
    # delta_right = Ad(exp X) o delta_left, degree by degree
    x, y = gen(0, n + 1), gen(1, n + 1)
    left = ad_sum(coeffs("left", n), x, y)
    right = ad_sum(coeffs("right", n), x, y)
    assert ad_sum(coeffs("exp", n), x, left) == right


# -- multi-factor order two ----------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_multi_reconstruction_at_order_two(k):
    # exp X1 ... exp Xk = exp(sum Xi + 1/2 sum_{i<j} [Xi, Xj]) modulo degree 3
    names = tuple(f"X{i + 1}" for i in range(k))
    gens = [LieElement.generator(names, i, 2) for i in range(k)]
    zero = LieElement.zero(names, 2)
    brackets = sum((lie_bracket(a, b) for a, b in combinations(gens, 2)), zero)
    exponent = sum(gens, zero) + Fraction(1, 2) * brackets
    product = AssocPoly.one(names, 2)
    for i in range(k):
        product = poly_mul(product, poly_exp(AssocPoly.generator(names, i, 2)))
    assert poly_exp(lie_embed(exponent)) == product


# -- serialization ----------------------------------------------------------------


def test_series_json_matches_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from nilbch.series import SERIES_SCHEMA

    for obj in (
        bch_classical(3).to_json_obj(),
        bch_paper(4, "sec8").to_json_obj(),
        zassenhaus_classical(3).to_json_obj(),
        zassenhaus_paper(3, "b").to_json_obj(),
    ):
        jsonschema.validate(obj, SERIES_SCHEMA)


def test_series_json_shape():
    obj = bch_classical(2).to_json_obj()
    assert obj == {
        "kind": "bch",
        "source": "classical",
        "degrees": [
            {
                "n": 1,
                "terms": [
                    {"monomial": "X", "coeff": "1"},
                    {"monomial": "Y", "coeff": "1"},
                ],
            },
            {"n": 2, "terms": [{"monomial": "[X,Y]", "coeff": "1/2"}]},
        ],
    }
