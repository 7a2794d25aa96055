"""Free Lie algebra: Lyndon basis, bracket normalization, embedding, projection."""

import random
from fractions import Fraction

import pytest

from nilbch.assoc import AssocPoly
from nilbch.errors import AlphabetMismatch, NotAugmentation
from nilbch.freelie import (
    LieElement,
    dynkin_project,
    hall_basis,
    is_lyndon,
    lie_bracket,
    lie_embed,
    lyndon_count,
    lyndon_words,
    mono_str,
    mono_word,
)
from nilbch.scalars import bracket_sum, combination, power_series

XY = ("X", "Y")


def gen(i, max_degree=6, alphabet=XY):
    return LieElement.generator(alphabet, i, max_degree)


def random_lie(rng, max_degree=5, max_terms=3):
    pool = [m for n in range(1, 4) for m in hall_basis(2, n)]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = rng.choice(pool)
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return LieElement(XY, max_degree, terms)


# -- basis -------------------------------------------------------------------


def brute_force_lyndon_count(k, n):
    # every word, tested for strict minimality among its rotations
    count = 0
    for value in range(k**n):
        word = []
        v = value
        for _ in range(n):
            word.append(v % k)
            v //= k
        word = tuple(word)
        if all(word < word[i:] + word[:i] for i in range(1, n)):
            count += 1
    return count


def mobius(n):
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_number(k, n):
    total = 0
    for divisor in range(1, n + 1):
        if n % divisor == 0:
            total += mobius(divisor) * k ** (n // divisor)
    return total // n


def test_basis_degree_one_is_generators():
    assert [mono_str(m, XY) for m in hall_basis(2, 1)] == ["X", "Y"]


def test_basis_degree_two_single_bracket():
    assert [mono_str(m, XY) for m in hall_basis(2, 2)] == ["[X,Y]"]


def test_basis_degree_four_has_three_elements():
    assert len(hall_basis(2, 4)) == 3


def test_witt_dimensions_two_generators():
    assert [len(hall_basis(2, n)) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]


@pytest.mark.parametrize("k", [2, 3])
def test_basis_sizes_match_brute_force_and_witt(k):
    for n in range(1, 6):
        size = len(hall_basis(k, n))
        assert size == brute_force_lyndon_count(k, n)
        assert size == witt_number(k, n)


def test_lyndon_count_is_witt_formula():
    for k in range(1, 4):
        for n in range(1, 7):
            assert lyndon_count(k, n) == brute_force_lyndon_count(k, n)
            assert lyndon_count(k, n) == len(lyndon_words(k, n))
    assert lyndon_count(2, 21) == 99858
    assert lyndon_count(16, 10) == (16**10 - 16**5 - 16**2 + 16) // 10
    with pytest.raises(ValueError):
        lyndon_count(0, 1)


def test_lyndon_word_enumeration_sorted():
    words = lyndon_words(2, 5)
    assert words == sorted(words)
    assert all(is_lyndon(w) for w in words)


def test_basis_rejects_bad_args():
    with pytest.raises(ValueError):
        hall_basis(0, 1)
    with pytest.raises(ValueError):
        hall_basis(2, 0)


# -- bracket -----------------------------------------------------------------


def test_bracket_alternating():
    x = gen(0)
    assert not lie_bracket(x, x)


def test_bracket_antisymmetry_normal_form():
    x, y = gen(0), gen(1)
    assert lie_bracket(y, x) == -lie_bracket(x, y)


def test_nested_bracket_identity():
    # [X,[Y,[X,Y]]] = [Y,[X,[X,Y]]]
    x, y = gen(0), gen(1)
    xy = lie_bracket(x, y)
    left = lie_bracket(x, lie_bracket(y, xy))
    right = lie_bracket(y, lie_bracket(x, xy))
    assert not (left - right)


def test_bracket_truncates_by_degree():
    x, y = gen(0, 2), gen(1, 2)
    xy = lie_bracket(x, y)
    assert not lie_bracket(x, xy)


def test_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        lie_bracket(gen(0), LieElement.generator(("A", "B"), 0, 6))
    with pytest.raises(AlphabetMismatch):
        lie_bracket(gen(0, 6), gen(1, 5))


def test_equality_compares_max_degree():
    # elements of different truncations are not comparable, so never equal
    x3, x4 = LieElement(XY, 3, {0: 1}), LieElement(XY, 4, {0: 1})
    assert x3 != x4
    assert x3 == LieElement(XY, 3, {0: Fraction(1)})
    with pytest.raises(AlphabetMismatch):
        x3 - x4


def test_antisymmetry_and_jacobi_seeded():
    rng = random.Random(99)
    zero = LieElement.zero(XY, 5)
    for _ in range(200):
        a, b, c = (random_lie(rng) for _ in range(3))
        assert lie_bracket(a, b) + lie_bracket(b, a) == zero
        jacobi = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert jacobi == zero


def ad_sum(weights, x, v):
    """sum_p weights[p] (ad x)^p v through power_series, as the AD node sums it."""
    return power_series(LieElement.zero(XY, x.max_degree), v, lambda p: lie_bracket(x, p), weights)


@pytest.mark.parametrize("max_degree", range(1, 7))
def test_bracket_sum_is_the_combination_of_its_brackets(max_degree):
    # and, through lie_embed, the sum of the associative commutators
    rng = random.Random(f"bracket-sum-{max_degree}")
    for _ in range(20):
        values = [random_lie(rng, max_degree) for _ in range(4)]
        triples = [(rng.choice([0, 1, -2, Fraction(3, 4), Fraction(-5, 6)]), *rng.sample(values, 2))
                   for _ in range(rng.randint(1, 4))]
        got = bracket_sum(triples)
        assert got == combination([(c, lie_bracket(a, b)) for c, a, b in triples])
        embedded = [(c, lie_embed(a), lie_embed(b)) for c, a, b in triples]
        assert lie_embed(got) == bracket_sum(embedded)
        assert lie_embed(got) == combination([(c, a * b - b * a) for c, a, b in embedded])


def test_ad_series_identity_term():
    assert ad_sum([Fraction(1)], gen(0), gen(1)) == gen(1)


def test_ad_series_single_bracket():
    x, y = gen(0), gen(1)
    assert ad_sum([0, 1], x, y) == lie_bracket(x, y)


def test_ad_series_truncated_conjugation():
    x, y = gen(0), gen(1)
    expected = y + lie_bracket(x, y) + Fraction(1, 2) * lie_bracket(x, lie_bracket(x, y))
    assert ad_sum([1, 1, Fraction(1, 2)], x, y) == expected


# -- embedding and projection --------------------------------------------------


def word_poly(word, trunc=6):
    return AssocPoly(XY, trunc, None, {tuple(word): Fraction(1)})


def test_embed_generator():
    assert lie_embed(gen(0)) == word_poly((0,))


def test_embed_bracket_is_commutator():
    x, y = gen(0), gen(1)
    assert lie_embed(lie_bracket(x, y)) == word_poly((0, 1)) - word_poly((1, 0))


def test_embed_degree_three_by_hand():
    # 1/2 [X,[X,Y]] = 1/2 (XXY - 2 XYX + YXX)
    x, y = gen(0), gen(1)
    element = Fraction(1, 2) * lie_bracket(x, lie_bracket(x, y))
    expected = (
        word_poly((0, 0, 1)).scale(Fraction(1, 2))
        + word_poly((0, 1, 0)).scale(Fraction(-1))
        + word_poly((1, 0, 0)).scale(Fraction(1, 2))
    )
    assert lie_embed(element) == expected


def test_embed_is_bracket_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        a, b = random_lie(rng), random_lie(rng)
        ea, eb = lie_embed(a), lie_embed(b)
        assert lie_embed(lie_bracket(a, b)) == ea * eb - eb * ea


def test_projection_of_single_word():
    x, y = gen(0), gen(1)
    assert dynkin_project(word_poly((0, 1))) == Fraction(1, 2) * lie_bracket(x, y)


def test_projection_fixes_lie_elements():
    x, y = gen(0), gen(1)
    element = lie_bracket(x, lie_bracket(x, y))
    assert dynkin_project(lie_embed(element)) == element


def test_projection_kills_squares():
    assert not dynkin_project(word_poly((0, 0)))


def test_projection_fixes_every_basis_monomial_up_to_degree_six():
    for n in range(1, 7):
        for mono in hall_basis(2, n):
            element = LieElement(XY, 6, {mono: Fraction(1)})
            assert dynkin_project(lie_embed(element)) == element


def random_word_poly(rng, trunc=5):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        word = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, trunc)))
        terms[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return AssocPoly(XY, trunc, None, terms)


def test_operation_results_are_clean():
    # +, -, negation, *, lie_bracket, dynkin_project and lie_embed
    # build their results without revalidation; each must be exactly what the
    # validating constructor makes of it.
    rng = random.Random(1980)
    for _ in range(150):
        a, b = random_lie(rng), random_lie(rng)
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        projected = dynkin_project(random_word_poly(rng))
        lie_results = [
            a + b, a - b, a - a, -a, a * rng.randint(-3, 3), 2 * b, a * q, a * 0,
            a * Fraction(0), lie_bracket(a, b),
            lie_bracket(a, lie_bracket(a, b)), projected,
        ]
        for r in lie_results:
            terms = r.sorted_terms()
            assert r == LieElement(r.alphabet, r.max_degree, dict(terms))
            assert all(
                type(c) is Fraction and c and len(mono_word(m)) <= r.max_degree
                for m, c in terms
            )
        for r in (lie_embed(a), lie_embed(lie_bracket(a, b)), lie_embed(projected)):
            assert r == AssocPoly(r.alphabet, r.trunc, r.ring, dict(r.terms))
            assert all(
                type(c) is Fraction and c and len(word) <= r.trunc
                for word, c in r.terms.items()
            )
    # the degree bound the public constructor used to enforce, checked per call
    with pytest.raises(ValueError):
        dynkin_project(AssocPoly(XY, 11, None, {(0, 1): 1}))


def test_public_constructor_rejects_leaves_outside_the_alphabet():
    with pytest.raises(AlphabetMismatch):
        LieElement(XY, 2, {5: 1})
    with pytest.raises(AlphabetMismatch):
        LieElement(XY, 2, {(0, 2): 1})


def test_public_constructor_rejects_nonstandard_monomials():
    # [Y,X] is -[X,Y] in the basis; accepting it as a key of its own would
    # make two equal elements compare unequal
    with pytest.raises(ValueError):
        LieElement(XY, 2, {(1, 0): 1})
    # [[X,[X,Y]],Y] has the Lyndon word XXYY but not its standard bracketing
    with pytest.raises(ValueError):
        LieElement(XY, 4, {((0, (0, 1)), 1): 1})
    assert lie_bracket(gen(1, 2), gen(0, 2)) == -LieElement(XY, 2, {(0, 1): 1})


def test_projection_rejects_constant_term():
    with pytest.raises(NotAugmentation):
        dynkin_project(AssocPoly.one(XY, 4))


# -- serialization -------------------------------------------------------------


def test_element_text_and_terms_sorted():
    x, y = gen(0), gen(1)
    element = lie_bracket(x, lie_bracket(x, y)) * Fraction(1, 12) + x
    assert str(element) == "X + 1/12*[X,[X,Y]]"
    terms = element.to_json_terms()
    assert terms == [
        {"monomial": "X", "coeff": "1"},
        {"monomial": "[X,[X,Y]]", "coeff": "1/12"},
    ]
    assert str(LieElement.zero(XY)) == "0"


def test_mono_word_flattening():
    assert mono_word((0, (0, 1))) == (0, 0, 1)
