"""Acceptance criteria, one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion.  Every expected value here is either recomputed by an independent
oracle inside the test or pinned after being computed by one.
"""

import json
import random
import time
from fractions import Fraction
from itertools import islice
from math import factorial

from nilbch.assoc import AssocPoly, poly_exp, poly_log, poly_mul
from nilbch.freelie import (
    LieElement,
    dynkin_project,
    hall_basis,
    lie_bracket,
    lie_embed,
)
from nilbch.scalars import WeilElement, power_series
from nilbch.series import (
    ad_coeffs,
    bch_classical,
    bch_paper,
    series_compare,
    zassenhaus_classical,
    zassenhaus_paper,
)
from nilbch.weilcheck import check_identity, run_suite

from catalog_verdicts import EXPECTED_PASS_IDS

XY = ("X", "Y")


def gen(i, max_degree):
    return LieElement.generator(XY, i, max_degree)


def em(n, m):
    """em(m) in the Weil ring (1,)*n, the image of t^[m] of the ring (n,)
    under t -> sd; em(n, 1) is sd = d1 + ... + dn."""
    return WeilElement((n,), {m: 1}).weil_image()


def _ok(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_classical_oracle_self_consistency():
    start = time.perf_counter()
    for n in range(1, 7):
        z = bch_classical(n)
        x = AssocPoly.generator(XY, 0, n)
        y = AssocPoly.generator(XY, 1, n)
        lhs = poly_exp(lie_embed(sum(z.degrees.values(), LieElement.zero(XY, n))))
        assert lhs == poly_mul(poly_exp(x), poly_exp(y)), n
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle reconstruction took {elapsed:.2f}s"
    _ok(1, f"exp(BCH) = exp X . exp Y for N=1..6 in {elapsed:.2f}s")


def test_criterion_2_paper_agreement_through_order_3():
    for variant in ("sec7", "sec8"):
        for n in (1, 2, 3):
            assert not series_compare(bch_paper(n, variant), bch_classical(n), n)
    _ok(2, "sections 7 and 8 match the classical BCH at orders 1..3")


def test_criterion_3_order_4_divergence_detected():
    diff = series_compare(bch_paper(4, "sec7"), bch_classical(4), 4)
    assert diff, "expected a nonzero degree-4 difference"
    x, y = gen(0, 4), gen(1, 4)
    s = x + y
    pinned = Fraction(-1, 48) * lie_bracket(s, lie_bracket(s, lie_bracket(x, y)))
    assert diff == pinned
    again = series_compare(bch_paper(4, "sec7"), bch_classical(4), 4)
    assert json.dumps(diff.to_json_terms()) == json.dumps(again.to_json_terms())
    _ok(3, f"order-4 difference (paper - classical) = {diff}")


def test_criterion_4_internal_consistency_of_the_two_approaches():
    assert check_identity("consistency-7v8", "free").verdict == "PASS"
    assert not series_compare(bch_paper(4, "sec7"), bch_paper(4, "sec8"), 4)
    _ok(4, "section 7 and section 8 order-4 exponents agree after normalization")


def test_criterion_5_zassenhaus_reconstruction():
    for n in range(2, 7):
        factors = zassenhaus_classical(n)
        x = AssocPoly.generator(XY, 0, n)
        y = AssocPoly.generator(XY, 1, n)
        product = poly_mul(poly_exp(x), poly_exp(y))
        for m in range(2, n + 1):
            product = poly_mul(product, poly_exp(lie_embed(factors.component(m))))
        assert product == poly_exp(x + y), n
    c2 = zassenhaus_classical(2).component(2)
    assert c2 == Fraction(-1, 2) * lie_bracket(gen(0, 2), gen(1, 2))
    assert c2 == zassenhaus_paper(2, "a").component(2)
    assert c2 == zassenhaus_paper(2, "b").component(2)
    _ok(5, "classical factors reconstruct exp(X+Y) for N<=6; C2 = -1/2[X,Y]")


def test_criterion_6_form_discrepancy_detected():
    report_a = check_identity("thm-6.3a", "free")
    report_b = check_identity("thm-6.3b", "free")
    assert (report_a.verdict == "PASS") != (report_b.verdict == "PASS")
    failing = report_a if report_a.verdict == "FAIL" else report_b
    assert failing.witness is not None and failing.witness["lead"]
    _ok(
        6,
        f"{report_a.id} {report_a.verdict}, {report_b.id} {report_b.verdict}; "
        f"witness lead {failing.witness['lead']}",
    )


def test_criterion_7_identity_suite():
    start = time.perf_counter()
    free_reports, errors = run_suite("*", "free")
    assert not errors
    free = {r.id: r.verdict for r in free_reports}
    for identity_id in EXPECTED_PASS_IDS:
        assert free[identity_id] == "PASS", identity_id
    matrix_reports, errors = run_suite("*", "matrix")
    assert not errors
    matrix = {r.id: r.verdict for r in matrix_reports}
    for identity_id in EXPECTED_PASS_IDS:
        assert matrix[identity_id] == "PASS", identity_id

    # verdict coherence: checker verdicts against the series-module comparison
    tabulated = {
        "thm-6.2a": ("zassenhaus", 2, "a"), "thm-6.2b": ("zassenhaus", 2, "b"),
        "thm-6.3a": ("zassenhaus", 3, "a"), "thm-6.3b": ("zassenhaus", 3, "b"),
        "thm-6.4a": ("zassenhaus", 4, "a"), "thm-6.4b": ("zassenhaus", 4, "b"),
        "thm-7.1": ("bch", 1, "sec7"), "thm-7.2a": ("bch", 2, "sec7"),
        "thm-7.2b": ("bch", 2, "sec7"), "thm-7.3a": ("bch", 3, "sec7"),
        "thm-7.3b": ("bch", 3, "sec7"), "thm-7.4a": ("bch", 4, "sec7"),
        "thm-7.4b": ("bch", 4, "sec7"), "thm-8.1": ("bch", 1, "sec8"),
        "thm-8.2": ("bch", 2, "sec8"), "thm-8.3": ("bch", 3, "sec8"),
        "thm-8.4": ("bch", 4, "sec8"),
    }
    for identity_id, (kind, order, selector) in tabulated.items():
        if kind == "bch":
            table, reference = bch_paper(order, selector), bch_classical(order)
            degrees = range(1, order + 1)
        else:
            table, reference = zassenhaus_paper(order, selector), zassenhaus_classical(order)
            degrees = range(2, order + 1)
        agrees = all(not series_compare(table, reference, n) for n in degrees)
        assert free[identity_id] == ("PASS" if agrees else "FAIL"), identity_id

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"identity suite took {elapsed:.2f}s"
    fails = sorted(i for i, v in free.items() if v == "FAIL")
    _ok(7, f"suite coherent in both models in {elapsed:.2f}s; FAIL set = {fails}")


def test_criterion_8_property_suites():
    # bracket antisymmetry and Jacobi, 1000 seeded cases
    rng = random.Random(20250811)
    pool = [m for n in range(1, 4) for m in hall_basis(2, n)]

    def random_lie():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(pool)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return LieElement(XY, 5, terms)

    zero = LieElement.zero(XY, 5)
    for _ in range(1000):
        a, b, c = random_lie(), random_lie(), random_lie()
        assert lie_bracket(a, b) + lie_bracket(b, a) == zero
        assert (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        ) == zero

    # exp/log round trips, 1000 seeded cases
    def random_augmentation():
        poly = AssocPoly(XY, 4)
        for _ in range(rng.randint(1, 4)):
            length = rng.randint(1, 4)
            word = tuple(rng.randint(0, 1) for _ in range(length))
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            poly = poly + AssocPoly(XY, 4, None, {word: coeff})
        return poly

    one = AssocPoly.one(XY, 4)
    for _ in range(1000):
        a = random_augmentation()
        assert poly_log(poly_exp(a)) == a
        assert poly_exp(poly_log(one + a)) == one + a

    # the projection fixes every basis monomial of degree <= 6
    for n in range(1, 7):
        for mono in hall_basis(2, n):
            element = LieElement(XY, 6, {mono: Fraction(1)})
            assert dynkin_project(lie_embed(element)) == element

    # divided powers for n <= 6, via repeated multiplication
    for n in range(1, 7):
        power = WeilElement.one((1,) * n)
        for m in range(1, n + 1):
            power = power * em(n, 1)
            assert power == em(n, m) * factorial(m)

    # Witt dimensions at k=2
    assert [len(hall_basis(2, n)) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    _ok(8, "1000-case bracket and exp/log suites; projection, divided powers, Witt")


def test_criterion_9_logarithmic_derivative_operators():
    left = list(islice(ad_coeffs("left"), 6))
    right = list(islice(ad_coeffs("right"), 6))
    for p in range(6):
        assert left[p] == Fraction((-1) ** p, factorial(p + 1))
        assert right[p] == Fraction(1, factorial(p + 1))

    # Ad(exp X) = e^(ad X) against associative conjugation at truncation 4
    trunc = 4
    x = AssocPoly.generator(XY, 0, trunc)
    y = AssocPoly.generator(XY, 1, trunc)
    from nilbch.assoc import poly_inv

    conjugated = poly_mul(poly_mul(poly_exp(x), y), poly_inv(poly_exp(x)))
    exp_coeffs = islice(ad_coeffs("exp"), trunc)
    zero = LieElement.zero(XY, trunc)
    x_lie = gen(0, trunc)
    lie_side = power_series(zero, gen(1, trunc), lambda p: lie_bracket(x_lie, p), exp_coeffs)
    assert lie_embed(lie_side) == conjugated
    _ok(9, "left/right coefficients through p=5; Ad(exp X) = e^(ad X) at trunc 4")
