"""Identity checker: catalog, models, witnesses, reports."""

import contextlib
import gc
import io
import itertools
import json
import operator
import random
from fractions import Fraction
from functools import cache, reduce
from math import factorial, gcd

import pytest

from nilbch import assoc, freelie, scalars, series, weilcheck
from nilbch.assoc import AssocPoly
from nilbch.cli import dispatch
from nilbch.errors import AlgebraMismatch, InsufficientModel, UnknownIdentity
from nilbch.freelie import LieElement, lie_bracket, lie_embed
from nilbch.matrix import NilMatrix, gen_nilmatrix
from nilbch.scalars import (MAX_KEY_BITS, Numerators, WeilElement, bracket_sum, combination,
                            exponents, key_shift)
from nilbch.series import (
    AD,
    EM,
    EXP,
    INV,
    LIN,
    MUL,
    ONE,
    POW,
    D,
    ad_coeffs,
    bch_classical,
    bch_paper,
    series_compare,
    zassenhaus_classical,
    zassenhaus_paper,
)
from nilbch.weilcheck import (
    CATALOG,
    REPORT_SCHEMA,
    CheckParams,
    _free_context,
    check_identity,
    run_suite,
)

from catalog_verdicts import EXPECTED_PASS_IDS

SPEC_CATALOG = (
    "prop-2.1", "prop-2.2", "thm-2.3", "lemma-2.5", "prop-4.4", "prop-4.5",
    "prop-5.3", "prop-5.4", "lemma-6.0", "thm-6.1", "thm-6.2a", "thm-6.2b",
    "thm-6.3a", "thm-6.3b", "thm-6.4a", "thm-6.4b", "thm-7.1", "thm-7.2a",
    "thm-7.2b", "cor-7.2.1", "thm-7.3a", "thm-7.3b", "thm-7.4a", "thm-7.4b",
    "thm-8.1", "thm-8.2", "thm-8.3", "thm-8.4", "consistency-7v8",
)


def test_catalog_complete_and_ordered():
    assert tuple(e.id for e in CATALOG) == SPEC_CATALOG


# -- tangent elements ---------------------------------------------------------


def free_ctx(ring=(1, 1), trunc=4):
    return _free_context(("X", "Y"), ring, trunc)


def tangent(index, d_index):
    """The tangent vector of generator ``index`` at d_index, 1 + d*x, as an expression."""
    return (LIN, ((Fraction(1), (ONE,)), (Fraction(1), (Fraction(1), (D, (d_index,)), index))))


def em(n, m):
    """em(m) in the Weil ring (1,)*n, the image of t^[m] of the ring (n,)
    under t -> sd; em(n, 1) is sd = d1 + ... + dn."""
    return WeilElement((n,), {m: 1}).weil_image()


def evaluate(ctx, expr):
    return series.evaluate(ctx, expr, {})


def test_tangent_is_affine():
    ctx = free_ctx()
    d1 = WeilElement.generator((1, 1), 1)
    x = ctx.gens[0]
    assert evaluate(ctx, tangent(0, 1)) == ctx.one + x.scale(d1)


def test_tangent_product_models_sum_of_infinitesimals():
    # X_{d1} . X_{d2} = 1 + (d1+d2) X + d1d2 X^2 = exp((d1+d2) X)
    ctx = free_ctx()
    product = evaluate(ctx, (MUL, tangent(0, 1), tangent(0, 2)))
    assert product == ctx.exp(ctx.gens[0].scale(em(2, 1)))


def test_tangent_inverse():
    # (1 + d1 X)^-1 = 1 - d1 X, since d1^2 = 0
    ctx = free_ctx(ring=(1,))
    forward = tangent(0, 1)
    backward = ctx.one - ctx.gens[0].scale(WeilElement.generator((1,), 1))
    assert evaluate(ctx, forward) * backward == ctx.one
    assert evaluate(ctx, (INV, forward)) == backward


# -- catalog expressions ------------------------------------------------------

# operand count of each tag; MUL takes two or more, and AD takes two after
# its family, which is data
TAG_ARITY = {EXP: 1, INV: 1, ONE: 0, AD: 2, MUL: None}
AD_FAMILIES = ("exp", "left", "right")


def assert_well_formed(expr, n_d, gens):
    """Each node is a generator below gens, a LIN, a known tag with its
    arity (an AD node's family first, one of AD_FAMILIES), a weight of a
    known shape whose d indices are at most n_d, or a bracket pair.
    Returns the generator indices the expression uses."""
    if isinstance(expr, int):
        assert 0 <= expr < gens, expr
        return {expr}
    assert isinstance(expr, tuple) and expr, expr
    head = expr[0]
    if head == LIN:
        assert len(expr) == 2 and expr[1], expr
        assert all(isinstance(coeff, Fraction) and coeff for coeff, _ in expr[1]), expr
        operands = [sub for _, sub in expr[1]]
    elif isinstance(head, str):
        assert head in TAG_ARITY, f"unknown tag {head!r}"
        operands = expr[1:]
        if head == AD:
            family, *operands = operands
            assert family in AD_FAMILIES, expr
        arity = TAG_ARITY[head]
        assert len(operands) >= 2 if arity is None else len(operands) == arity, expr
    elif len(expr) == 3:
        coeff, (shape, m), sub = expr
        assert isinstance(coeff, Fraction) and coeff, expr
        if shape == D:
            assert m and all(1 <= i <= n_d for i in m), expr
        else:
            assert shape in (EM, POW) and 1 <= m <= n_d, expr
        operands = [sub]
    else:
        assert len(expr) == 2, expr
        operands = expr
    return set().union(*[assert_well_formed(sub, n_d, gens) for sub in operands])


def test_catalog_expressions_are_well_formed():
    for entry in CATALOG:
        assert not any(callable(field) for field in entry), entry.id  # plain data, no code
        assert entry.pairs, entry.id
        _, _, n_d, gens = weilcheck._plan(entry.id)
        used = set()
        for pair in entry.pairs:
            assert len(pair) == 2, entry.id
            for side in pair:
                used |= assert_well_formed(side, n_d, gens)
        # the model builds exactly the generators the entry uses
        assert gens == max(used, default=-1) + 1, entry.id


_ONE_F = Fraction(1)
MALFORMED = {
    "mistyped tag": (MUL, (EXP, 0), ("expo", 1)),
    "wrong arity": (EXP, 0, 1),
    "one-factor product": (MUL, (EXP, 0)),
    "generator outside gens": (EXP, 2),
    "unknown weight shape": (_ONE_F, ("pow2", 1), 0),
    "d index above n_d": (_ONE_F, (D, (3,)), 0),
    "em above n_d": (_ONE_F, (EM, 3), 0),
    "three-operand bracket": (0, 1, (0, 1), 1),
    "unknown ad-series family": (AD, "sin", 0, 1),
    "ad-series without a family": (AD, 0, 1),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_well_formedness_check_catches_malformed_data(name):
    with pytest.raises(AssertionError):  # as prop-5.4: two infinitesimals, two generators
        assert_well_formed(MALFORMED[name], 2, 2)


@pytest.mark.parametrize("expr, message", [
    (("expo", 0), "unknown expression tag 'expo'"),
    ((_ONE_F, ("pow2", 1), 0), "unknown weight shape 'pow2'"),
    ((AD, "sin", 0, 1), "ad-series family must be 'exp', 'left' or 'right', got 'sin'"),
])
def test_evaluator_raises_on_unknown_tags_and_shapes(expr, message):
    with pytest.raises(ValueError, match=message):
        evaluate(free_ctx(), expr)


# -- matrices -------------------------------------------------------------------


def test_fixture_matrices_frozen():
    with open("tests/fixtures_nilmatrix_dim5_seed42.json", encoding="utf-8") as fh:
        fixture = json.load(fh)
    matrices = gen_nilmatrix(fixture["dim"], fixture["seed"], count=2)
    got = [[[str(e) for e in row] for row in m.rows] for m in matrices]
    assert got == fixture["matrices"]


def _reference_draw(dim, seed, count):
    """The rows gen_nilmatrix draws, by random.choice and random.randint."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        rows = []
        for i in range(dim):
            row = {}
            for j in range(i + 1, dim):
                value = rng.choice([-3, -2, -1, 1, 2, 3]) if j == i + 1 else rng.randint(-3, 3)
                if value:
                    row[j] = value
            rows.append(row)
        out.append(rows)
    return out


def test_generated_matrices_are_the_choice_and_randint_draws():
    for dim in range(2, 12):
        for seed in range(100):
            drawn = [m._rows for m in gen_nilmatrix(dim, seed, 3)]
            assert drawn == _reference_draw(dim, seed, 3), (dim, seed)


def test_generated_matrices_are_strict_and_class_full():
    x, y = gen_nilmatrix(5, 42)
    assert x.is_strictly_upper() and y.is_strictly_upper()
    p = x * x * x * x
    assert p  # nilpotency class 4
    assert not p * x
    assert x * y - y * x  # the bracket is the matrix commutator, nonzero here


def test_dim_two_is_abelian():
    x, y = gen_nilmatrix(2, 1)
    assert not x * y - y * x
    assert x.exp() * y.exp() == (x + y).exp()


def test_matrix_exp_inv_round_trip():
    x, _ = gen_nilmatrix(5, 9)
    g = x.exp()
    assert g * g.inv() == NilMatrix.identity(5, None)
    assert g.inv() == (-x).exp()


def test_matrix_guards():
    x, _ = gen_nilmatrix(3, 2)
    with pytest.raises(Exception):
        x.inv()  # not unitriangular
    with pytest.raises(Exception):
        NilMatrix.identity(3, None).exp()  # not strictly upper


MATRIX_OPERATORS = (operator.add, operator.sub, operator.mul)


def test_operands_of_different_dims_raise():
    x5, x6 = gen_nilmatrix(5, 1, 1)[0], gen_nilmatrix(6, 1, 1)[0]
    for combine in MATRIX_OPERATORS:
        with pytest.raises(AlgebraMismatch):
            combine(x5, x6)
        with pytest.raises(AlgebraMismatch):
            combine(x6, x5)


def test_operands_over_different_scalar_rings_raise():
    x, y = gen_nilmatrix(4, 1)
    pairs = ((x, y.lift((1, 1))), (x.lift((1, 1)), y), (x.lift((1, 1)), y.lift((1, 1, 1))),
             (x.lift((2,)), y.lift((1, 1))), (x.lift((2, 1)), y.lift((1, 2))))
    for a, b in pairs:
        for combine in MATRIX_OPERATORS:
            with pytest.raises(AlgebraMismatch):
                combine(a, b)
    with pytest.raises(AlgebraMismatch):
        x.scale(WeilElement.generator((1, 1), 1))
    with pytest.raises(AlgebraMismatch):
        x.lift((1, 1)).scale(WeilElement.generator((1, 1, 1), 1))


def test_rows_must_match_dim():
    for rows in ([[1, 2, 3]], [[0, 1], [0, 0], [0, 0]], [[0, 1], [0]]):
        with pytest.raises(AlgebraMismatch):
            NilMatrix(2, None, rows)


def test_entries_must_lie_in_the_scalar_ring():
    d1 = WeilElement.generator((1, 1), 1)
    for ring, entry in ((None, d1), ((1, 1, 1), d1), ((2,), d1)):
        with pytest.raises(AlgebraMismatch):
            NilMatrix(2, ring, [[0, entry], [0, 0]])
    # Q lies in every Weil ring, so a Weil matrix takes rational entries
    zero, half = WeilElement.zero((1, 1)), WeilElement.from_rational((1, 1), Fraction(1, 2))
    expected = NilMatrix(2, (1, 1), [[zero, half], [zero, zero]])
    assert NilMatrix(2, (1, 1), [[0, Fraction(1, 2)], [0, 0]]) == expected


def test_equality_compares_scalar_rings():
    x = gen_nilmatrix(3, 1, 1)[0]
    assert x != x.lift((1, 1))
    assert x.lift((1, 1)) == x.lift((1, 1))
    assert x.lift((1, 1)) != x.lift((2,))


# An entry-by-entry reference for the matrix kernels, on Fraction and
# WeilElement arithmetic: every entry product, summed from 0, and every entry
# of a sum, negation, scaling, power series or base change computed.


def _dense_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _entrywise(fn, *matrices):
    return [[fn(*xs) for xs in zip(*rows)] for rows in zip(*(m.rows for m in matrices))]


def _dense_series(x, one, coeffs):
    """sum_i c_i x^i for dense rows x, from the dense unit ``one``."""
    out, power = one, one
    for coeff in coeffs:
        power = _dense_mul(power, x)
        out = [[o + p * coeff for o, p in zip(r1, r2)] for r1, r2 in zip(out, power)]
    return out


def _keys(ring):
    """The keys of the ring's monomials, in increasing order."""
    return [key for key in range(1 << key_shift(ring))
            if all([e <= n for n, e in zip(ring, exponents(ring, key))])]


def _random_scalar(rng, ring):
    def value():
        return Fraction(rng.choice([0, rng.randint(-3, 3)]), rng.choice([1, 2, 3, 4, 6]))

    if ring is None:
        return value()
    keys = _keys(ring)
    return WeilElement(ring, {rng.choice(keys): value() for _ in range(rng.randint(0, 3))})


def _random_matrix(rng, dim, ring, shape):
    if ring is None:
        zero, one = Fraction(0), Fraction(1)
    else:
        zero, one = WeilElement.zero(ring), WeilElement.one(ring)
    rows = [[_random_scalar(rng, ring) for _ in range(dim)] for _ in range(dim)]
    if shape != "dense":
        for i in range(dim):
            for j in range(i + 1):
                rows[i][j] = one if shape == "unitriangular" and i == j else zero
    return NilMatrix(dim, ring, rows)


def _assert_canonical(m):
    """One positive denominator, coprime to the nonzero numerators."""
    nums = [n for row in m._rows for n in row.values()]
    assert m._den > 0 and all(nums) and gcd(m._den, *nums) == 1


def _assert_matches(result, dense):
    kind = Fraction if result.ring is None else WeilElement
    assert all(type(e) is kind for row in result.rows for e in row)
    assert result.rows == tuple(tuple(row) for row in dense)
    _assert_canonical(result)
    assert result == NilMatrix(result.dim, result.ring, dense)


def _scalars(rng, ring):
    """Rational scalars, zero among them, and for a matrix over a ring the
    ring's scalars: its generator x1 (d1 of the Weil ring, t of (n,)), which
    kills the terms that already carry x1 to its order, x1*x1 (zero when
    the order is 1), 1 + x1 and a random one."""
    out = [3, -2, 0, Fraction(2, 3), Fraction(-5, 4), Fraction(0)]
    if ring is not None:
        d1 = WeilElement.generator(ring, 1)
        out += [d1, d1 * d1, d1 + 1, _random_scalar(rng, ring)]
    return out


def _phi_scalar(c):
    """phi: x_i^e -> sd_i^e, by Weil arithmetic on sd_i, the sum of the n_i
    generators of x_i in the Weil ring of sum(ring) generators; the coeffs of
    a ring scalar are those of the divided powers x_i^[e] = x_i^e / e!.  A
    rational is its own image."""
    if not isinstance(c, WeilElement):
        return c
    n, start, sds = sum(c.ring), 0, []
    for order in c.ring:
        sds.append(sum([WeilElement.generator((1,) * n, start + i) for i in range(1, order + 1)],
                       WeilElement.zero((1,) * n)))
        start += order
    out = WeilElement.zero((1,) * n)
    for key, value in c.coeffs.items():
        term = WeilElement.from_rational((1,) * n, value)
        for sd, e in zip(sds, exponents(c.ring, key)):
            term = term * Fraction(1, factorial(e)) * reduce(operator.mul, [sd] * e, 1)
        out = out + term
    return out


def _phi(value, n):
    """phi entry by entry or coefficient by coefficient, into the n-generator Weil ring."""
    if isinstance(value, NilMatrix):
        return NilMatrix(value.dim, (1,) * n, [[_phi_scalar(e) for e in row] for row in value.rows])
    terms = {w: _phi_scalar(c) for w, c in value.terms.items()}
    return AssocPoly(value.alphabet, value.trunc, (1,) * n, terms)


def _assert_phi_commutes(a, b, scalars, n):
    """phi of each result over a ring of sum(ring) = n is the Weil result on
    the images, and phi is ``WeilElement.weil_image`` on every scalar."""
    pa, pb = _phi(a, n), _phi(b, n)
    assert _phi(a * b, n) == pa * pb
    assert _phi(a + b, n) == pa + pb
    assert _phi(a - b, n) == pa - pb
    for scalar in scalars:
        assert _phi(a.scale(scalar), n) == pa.scale(_phi_scalar(scalar))
        if isinstance(scalar, WeilElement):
            assert scalar.weil_image() == _phi_scalar(scalar)


def ring_id(ring):
    """The test id of a ring parameter: k for the Weil ring (1,)*k and -n for
    (n,) with n > 1, the ids these tests had when one signed int named the
    ring, and any other ring its tuple; None for a value that is no ring."""
    if not isinstance(ring, tuple) or not all([type(n) is int for n in ring]):
        return None
    if max(ring) == 1:
        return str(len(ring))
    return f"-{ring[0]}" if len(ring) == 1 else str(ring)


RINGS = [None, (1,), (1, 1), (1, 1, 1), (1,) * 4, (1,) * 5, (2,), (3,), (4,), (5,), (10,), (2, 1)]


@pytest.mark.parametrize("ring", RINGS, ids=ring_id)
@pytest.mark.parametrize("shape", ["dense", "strictly_upper", "unitriangular"])
def test_sparse_kernels_match_dense_reference(shape, ring):
    # over a ring with orders above 1, every result is also mapped by phi
    # into the Weil ring of sum(ring) generators and compared with the Weil
    # result, where that ring has keys of at most MAX_KEY_BITS bits
    rng = random.Random(f"{shape}-{ring_id(ring) or ring}")
    weil = ring is None or max(ring) == 1
    unit = Fraction(1) if ring is None else WeilElement.one(ring)
    for dim in range(2, 7):
        for rep in range(6 if weil else 3):
            a, b, c = (_random_matrix(rng, dim, ring, shape) for _ in range(3))
            _assert_matches(a * b, _dense_mul(a.rows, b.rows))
            _assert_matches(a + b, _entrywise(operator.add, a, b))
            _assert_matches(a - b, _entrywise(operator.sub, a, b))
            _assert_matches(-a, _entrywise(operator.neg, a))
            for scalar in _scalars(rng, ring):
                _assert_matches(a.scale(scalar), _entrywise(lambda x: x * scalar, a))
                if ring is not None:  # the product with the diagonal matrix scalar * 1
                    diagonal = [[scalar if i == j else 0 for j in range(dim)] for i in range(dim)]
                    assert a.scale(scalar) == a * NilMatrix(dim, ring, diagonal)
            # one commutator, and one sum of brackets, against the composed products
            assert bracket_sum([(1, a, b)]) == a * b - b * a
            coeffs = [0, -2, Fraction(-3, 4), Fraction(5, 6)]
            triples = [(q, x, y) for q, (x, y) in zip(coeffs, [(a, b), (b, c), (c, a), (a, a)])]
            separate = [(q, bracket_sum([(1, x, y)])) for q, x, y in triples]
            _assert_canonical(bracket_sum(triples))
            assert bracket_sum(triples) == combination(separate)
            assert not bracket_sum([(0, a, b)])
            one = NilMatrix.identity(dim, ring)
            dense_one = [[unit if i == j else unit * 0 for j in range(dim)] for i in range(dim)]
            _assert_matches(one, dense_one)
            if shape == "strictly_upper":
                coeffs = [Fraction(1, factorial(i)) for i in range(1, dim)]
                _assert_matches(a.exp(), _dense_series(a.rows, dense_one, coeffs))
            if shape == "unitriangular":
                nil = [[o - e for o, e in zip(r1, r2)] for r1, r2 in zip(dense_one, a.rows)]
                _assert_matches(a.inv(), _dense_series(nil, dense_one, [1] * (dim - 1)))
                assert a * a.inv() == one
            if ring is None:
                for r in ((1,), (1,) * 4, (3,), (2, 1)):
                    _assert_matches(a.lift(r), _entrywise(lambda x: WeilElement.from_rational(r, x), a))
            if not weil and rep < 2 and sum(ring) <= MAX_KEY_BITS:
                n, t = sum(ring), WeilElement.generator(ring, 1)
                assert _phi(one, n) == NilMatrix.identity(dim, (1,) * n)
                _assert_phi_commutes(a, b, _scalars(rng, ring), n)
                if shape == "strictly_upper":
                    assert _phi(a.exp(), n) == _phi(a, n).exp()
                    u = one + a.scale(t)  # 1 + t*a
                    assert _phi(u.inv(), n) == _phi(u, n).inv()
            # equal values reached by different routes
            assert (a + b) - b == a
            assert a * (b + c) == a * b + a * c
            assert a.scale(2) == a + a
            assert a.scale(Fraction(1, 3)).scale(3) == a
            if a:
                assert a != a.scale(2) and a != a.scale(Fraction(1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_t_ring_polynomials_map_onto_the_weil_ring(n):
    # AssocPoly over Q[t]/(t^(n+1)), the ring (n,), against the Weil ring through phi
    rng = random.Random(f"poly-{n}")
    names, trunc, ring = ("X", "Y"), 3, (n,)
    words = [w for length in range(trunc + 1) for w in itertools.product(range(2), repeat=length)]
    one, t = AssocPoly.one(names, trunc, ring), WeilElement.generator(ring, 1)

    def poly(constant=True):
        chosen = [w for w in rng.sample(words, 6) if constant or w]
        return AssocPoly(names, trunc, ring, {w: _random_scalar(rng, ring) for w in chosen})

    for _ in range(6):
        a, b = poly(), poly()
        _assert_phi_commutes(a, b, _scalars(rng, ring), n)
        x = poly(constant=False)
        assert _phi(assoc.poly_exp(x), n) == assoc.poly_exp(_phi(x, n))
        u = one + a.scale(t)  # 1 + t*a: its constant 1 + t*c(t) needs up to n factors
        inv = assoc.poly_inv(u)
        assert inv * u == one == u * inv
        assert _phi(inv, n) == assoc.poly_inv(_phi(u, n))
    # at trunc 1, 1 + t needs n factors, within poly_inv's bound trunc + sum(ring)
    one = AssocPoly.one(names, 1, ring)
    u = one + one.scale(t)
    assert assoc.poly_inv(u) * u == one


def _counted(calls, name, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _count_kernel_ops(monkeypatch):
    """Count Weil products, sums and inverses by every name the operators
    have, and polynomial and matrix products and bracket sums by every name
    that calls reach them through.  The weights are counted from a cold
    cache, which holds those of the Weil ring and those of Q[t]/(t^(n+1))
    alike."""
    weilcheck._weight.cache_clear()
    calls = {"mul": 0, "add": 0, "inverse": 0, "poly_mul": 0, "nilmatrix_mul": 0,
             "bracket_sum": 0}

    def counted(name, fn):
        return _counted(calls, name, fn)

    mul, add = WeilElement.__mul__, WeilElement.__add__
    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(WeilElement, attr, counted("mul", mul))
    for attr in ("__add__", "__radd__"):
        monkeypatch.setattr(WeilElement, attr, counted("add", add))
    monkeypatch.setattr(WeilElement, "inverse", counted("inverse", WeilElement.inverse))
    monkeypatch.setattr(assoc, "poly_mul", counted("poly_mul", assoc.poly_mul))
    monkeypatch.setattr(NilMatrix, "__mul__", counted("nilmatrix_mul", NilMatrix.__mul__))
    wrapper = counted("bracket_sum", scalars.bracket_sum)
    for module in (scalars, weilcheck, freelie, series):
        if hasattr(module, "bracket_sum"):
            monkeypatch.setattr(module, "bracket_sum", wrapper)
    return calls


# Weil products, sums and inverses, polynomial products (assoc.poly_mul), matrix
# products (NilMatrix.__mul__) and bracket sums (scalars.bracket_sum, which
# builds each commutator) of one default-params run_suite per model.  A
# change to the kernels moves these pins on purpose and records the old and
# new numbers in CHANGES.md.
WEIL_OP_PINS = {
    "free": {"mul": 51, "add": 0, "inverse": 0, "poly_mul": 183, "nilmatrix_mul": 0,
             "bracket_sum": 84},
    "matrix": {"mul": 51, "add": 0, "inverse": 0, "poly_mul": 0, "nilmatrix_mul": 223,
               "bracket_sum": 82},
}


@pytest.mark.parametrize("model", sorted(WEIL_OP_PINS))
def test_weil_op_counts_of_the_suite_are_pinned(model, monkeypatch):
    calls = _count_kernel_ops(monkeypatch)
    reports, errors = run_suite(model=model)
    assert len(reports) == len(CATALOG) and not errors
    assert calls == WEIL_OP_PINS[model]


def _count_oracle_ops(monkeypatch):
    """Count the kernels the classical oracles could reach, by every name in
    their home module, ``freelie`` and ``series``."""
    calls = {}
    for name, home in (
        ("lie_bracket", freelie),
        ("bracket_sum", scalars),
        ("poly_mul", assoc),
        ("poly_log", assoc),
        ("poly_exp", assoc),
        ("dynkin_project", freelie),
    ):
        calls[name] = 0
        wrapper = _counted(calls, name, getattr(home, name))
        for module in (home, freelie, series):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    return calls


# Kernel calls of one oracle-classical benchmark pass: bch_classical(1..6)
# and zassenhaus_classical(2..6).  Both recursions work among Lie elements,
# so the associative kernels stay at zero.  Each lie_bracket is a one-term
# bracket_sum, and each T sum of bch_classical one more.  Pinned like
# WEIL_OP_PINS.
ORACLE_OP_PINS = {
    "lie_bracket": 53, "bracket_sum": 67, "poly_mul": 0, "poly_log": 0, "poly_exp": 0,
    "dynkin_project": 0,
}


def _oracle_pass():
    for n in range(1, series.ORACLE_DEGREE_CAP + 1):
        bch_classical(n)
    for n in range(2, series.ORACLE_DEGREE_CAP + 1):
        zassenhaus_classical(n)


def test_oracle_op_counts_are_pinned(monkeypatch):
    calls = _count_oracle_ops(monkeypatch)
    _oracle_pass()
    assert calls == ORACLE_OP_PINS


def _count_sums(monkeypatch):
    """Count the shared ``Numerators`` reductions, sums and scalings; every
    subclass reaches them through the base class."""
    calls = {}
    for name in ("_with", "__add__", "_scaled"):
        calls[name] = 0
        monkeypatch.setattr(Numerators, name, _counted(calls, name, getattr(Numerators, name)))
    return calls


# Numerators._with, __add__ and _scaled calls of one oracle pass (as for
# ORACLE_OP_PINS) and of one default-params run_suite per model.  Each power
# series and each LIN node sums once through scalars.combination, so these
# count the sums themselves, not the terms; pinned like WEIL_OP_PINS.
SUM_PINS = {
    "oracle": {"_with": 122, "__add__": 12, "_scaled": 0},
    "free": {"_with": 618, "__add__": 70, "_scaled": 29},
    "matrix": {"_with": 650, "__add__": 70, "_scaled": 23},
}


@pytest.mark.parametrize("run", sorted(SUM_PINS))
def test_sum_counts_are_pinned(run, monkeypatch):
    weilcheck._weight.cache_clear()
    calls = _count_sums(monkeypatch)
    if run == "oracle":
        _oracle_pass()
    else:
        reports, errors = run_suite(model=run)
        assert len(reports) == len(CATALOG) and not errors
    assert calls == SUM_PINS[run]


# series.lie_bracket calls that expand every paper table: bch_paper at
# orders 1-4 in both variants and zassenhaus_paper at orders 2-4 in both
# forms.  Each table is expanded with one memo, so a node shared between its
# entries is bracketed once.
TABLE_BRACKET_PIN = 44


def test_table_bracket_count_is_pinned(monkeypatch):
    calls = {"lie_bracket": 0}
    monkeypatch.setattr(series, "lie_bracket", _counted(calls, "lie_bracket", lie_bracket))
    expanded = []
    for (kind, section, form), entries in series.PAPER_TABLES.items():
        first = series._FIRST_DEGREE[kind]
        for order in range(first, first + len(entries)):
            if kind == "zassenhaus":
                expanded.append(zassenhaus_paper(order, form))
            elif form == "a":  # bch_paper grades the first form of a section
                expanded.append(bch_paper(order, section))
    assert len(expanded) == 14
    assert calls["lie_bracket"] == TABLE_BRACKET_PIN


@pytest.mark.parametrize("model", ["free", "matrix"])
@pytest.mark.parametrize("ident", ["thm-2.3", "thm-6.4a"])
def test_every_model_brackets_through_series_lie_bracket(ident, model, monkeypatch):
    # the checker's models bracket by the binding the tables use, so each
    # bracket that bracket_sum sees is one series.lie_bracket call
    calls = _count_kernel_ops(monkeypatch)
    calls["lie_bracket"] = 0
    monkeypatch.setattr(series, "lie_bracket", _counted(calls, "lie_bracket", lie_bracket))
    check_identity(ident, model)
    assert calls["lie_bracket"] == calls["bracket_sum"] > 0


def _free_suite():
    return run_suite(model="free")


def _free_suite_at_the_minimum_truncation():
    return run_suite(model="free", params=CheckParams(trunc=None))


def _matrix_suite():
    return run_suite(model="matrix")


def _classical_oracles():
    return bch_classical(6), zassenhaus_classical(6)


def _dispatch_json(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return dispatch([*argv, "--format", "json"])


def _bch_json():
    return _dispatch_json("bch", "--order", "6", "--source", "classical")


def _zassenhaus_json():
    return _dispatch_json("zassenhaus", "--order", "6", "--source", "classical")


def _failing_check_json():
    """A FAIL report, so that a witness is written too."""
    assert _dispatch_json("check", "--id", "thm-6.3b") == 1


def _bracket_sums():
    """One sum of brackets in each algebra that brackets: matrices over the
    three rings, polynomials over Q and Lie elements."""
    x, y = gen_nilmatrix(5, 3)
    for ring in (None, (1, 1, 1), (3,)):
        a, b = (x, y) if ring is None else (x.lift(ring), y.lift(ring))
        bracket_sum([(1, a, b), (Fraction(-1, 2), b, a * b)])
    a, b = (lie_embed(LieElement.generator(("X", "Y"), i, 4)) for i in (0, 1))
    bracket_sum([(2, a, b), (Fraction(1, 3), a, a * b)])
    a, b = (LieElement.generator(("X", "Y"), i, 4) for i in (0, 1))
    bracket_sum([(1, a, b), (-3, b, lie_bracket(a, b))])


@pytest.mark.parametrize("run", [
    _free_suite, _free_suite_at_the_minimum_truncation, _matrix_suite, _classical_oracles,
    _bch_json, _zassenhaus_json, _failing_check_json, _bracket_sums,
])
def test_runs_leave_no_reference_cycles(run):
    """A run frees its values by reference counting alone.

    Cyclic garbage waits for a full collection, and the kernels allocate too
    few tracked objects to trigger one often, so it would pile up across ops.
    """
    run()  # fills the caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- single checks ----------------------------------------------------------------


def test_group_commutator_check_at_minimal_truncation():
    report = check_identity("thm-2.3", "free", CheckParams(trunc=2))
    assert report.verdict == "PASS"


def test_vanishing_bracket_additivity():
    report = check_identity("prop-5.3", "free", CheckParams(trunc=4))
    assert report.verdict == "PASS"


def test_form_b_third_order_fails_with_exact_witness():
    report = check_identity("thm-6.3b", "free", CheckParams(trunc=3))
    assert report.verdict == "FAIL"
    # the witness is (1/2) e3 [X+2Y,[X,Y]] realized in the algebra
    names = ("X", "Y")
    x = LieElement.generator(names, 0, 3)
    y = LieElement.generator(names, 1, 3)
    bracket = lie_bracket(x + 2 * y, lie_bracket(x, y))
    rational = lie_embed(Fraction(1, 2) * bracket)
    expected_poly = AssocPoly(names, 3, (1, 1, 1), rational.terms).scale(em(3, 3))
    ctx = _free_context(names, (1, 1, 1), 3)
    assert report.witness == ctx.witness(expected_poly)


def test_fail_witness_carries_lead_coefficient():
    report = check_identity("thm-7.4a", "free")
    assert report.verdict == "FAIL"
    assert report.witness is not None
    assert "lead" in report.witness and report.witness["terms"]


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check_identity("thm-9.9")


def test_insufficient_truncation():
    with pytest.raises(InsufficientModel):
        check_identity("thm-7.4a", "free", CheckParams(trunc=3))


def test_insufficient_dimension():
    with pytest.raises(InsufficientModel):
        check_identity("thm-8.4", "matrix", CheckParams(dim=4))


def test_consistency_check_passes():
    report = check_identity("consistency-7v8", "free")
    assert report.verdict == "PASS"


# -- perturbed statements ---------------------------------------------------------


@pytest.mark.parametrize("model", ["free", "matrix"])
def test_perturbed_lemma_6_0_fails_with_witness(model, monkeypatch):
    # sd^3 / 12 = em(3) / 2, so the pair m = 3 differs by -em(3)/2 times the unit
    entry = weilcheck._BY_ID["lemma-6.0"]
    pairs = list(entry.pairs)
    pairs[2] = (series._entry(Fraction(1, 12), POW, 3, (ONE,)), pairs[2][1])
    monkeypatch.setitem(weilcheck._BY_ID, "lemma-6.0", entry._replace(pairs=tuple(pairs)))
    report = check_identity("lemma-6.0", model)
    assert report.verdict == "FAIL"
    ctx = weilcheck._context_for(entry, model, report.params)
    assert report.witness == ctx.witness(ctx.one.scale(em(5, 3) * Fraction(-1, 2)))


@pytest.mark.parametrize("model", ["free", "matrix"])
def test_perturbed_consistency_7v8_fails_with_lie_witness(model, monkeypatch):
    sec7 = series.PAPER_TABLES["bch", "sec7", "a"]
    sec8 = series.PAPER_TABLES["bch", "sec8", "a"]
    coeff, weight, bracket = sec8[3]
    perturbed = (*sec8[:3], (2 * coeff, weight, bracket))
    entry = weilcheck._BY_ID["consistency-7v8"]
    monkeypatch.setitem(
        weilcheck._BY_ID, "consistency-7v8", entry._replace(pairs=((sec7[3], perturbed[3]),))
    )
    report = check_identity("consistency-7v8", model)
    monkeypatch.setitem(series.PAPER_TABLES, ("bch", "sec8", "a"), perturbed)
    diff = series_compare(bch_paper(4, "sec7"), bch_paper(4, "sec8"), 4)
    assert diff
    assert report.verdict == "FAIL"
    assert report.witness == {"kind": "lie", "terms": diff.to_json_terms()}


# -- the logarithmic derivative of exp, from exp itself ---------------------------


def logderiv_statement(side):
    """exp(X + d1 Y) = exp(X) (1 + d1 sum_p c_p (ad X)^p Y) with the left
    family, and (1 + d1 sum_p c_p (ad X)^p Y) exp(X) with the right one: the
    derivative of exp along Y in Kock's one-infinitesimal form.  Kept out of
    the catalog, as nothing in the paper's abstract states it."""
    tangent = series._lin((1, (ONE,)), (1, series._entry(1, D, (1,), (AD, side, 0, 1))))
    factors = ((EXP, 0), tangent) if side == "left" else (tangent, (EXP, 0))
    return (EXP, series._lin((1, 0), (1, series._entry(1, D, (1,), 1)))), (MUL, *factors)


@pytest.mark.parametrize("side", ["left", "right"])
def test_logarithmic_derivative_of_exp_holds_at_every_truncation(side):
    left, right = logderiv_statement(side)
    for trunc in range(1, freelie.HARD_DEGREE_CAP + 1):
        ctx = _free_context(("X", "Y"), (1,), trunc)
        assert evaluate(ctx, left) == evaluate(ctx, right), trunc


@pytest.mark.parametrize("side", ["left", "right"])
def test_logarithmic_derivative_of_exp_fails_with_a_doubled_coefficient(side, monkeypatch):
    # doubling c_(T-1) changes only the degree-T term, the last one truncation T keeps
    left, right = logderiv_statement(side)
    for trunc in range(2, freelie.HARD_DEGREE_CAP + 1):
        def doubled(family, p=trunc - 1):
            return (2 * c if i == p else c for i, c in enumerate(ad_coeffs(family)))

        monkeypatch.setattr(series, "ad_coeffs", doubled)
        ctx = _free_context(("X", "Y"), (1,), trunc)
        assert evaluate(ctx, left) != evaluate(ctx, right), trunc


# -- suite ------------------------------------------------------------------------


def test_suite_filter_enumerates_section_seven():
    reports, errors = run_suite("thm-7.*", "free")
    assert not errors
    assert [r.id for r in reports] == [
        "thm-7.1", "thm-7.2a", "thm-7.2b", "thm-7.3a", "thm-7.3b",
        "thm-7.4a", "thm-7.4b",
    ]


def test_suite_aggregates_errors_without_aborting():
    reports, errors = run_suite("thm-6.*", "free", CheckParams(trunc=3))
    assert [r.id for r in reports] == ["thm-6.1", "thm-6.2a", "thm-6.2b",
                                       "thm-6.3a", "thm-6.3b"]
    assert [e[0] for e in errors] == ["thm-6.4a", "thm-6.4b"]


def test_suite_lets_programming_errors_propagate(monkeypatch):
    def broken_evaluate(ctx, expr, memo):
        raise TypeError("a bug in the evaluator")

    monkeypatch.setattr(weilcheck, "evaluate", broken_evaluate)
    with pytest.raises(TypeError):
        run_suite("thm-7.*", "free")
    with pytest.raises(TypeError):  # a crash, not exit code 2
        dispatch(["check", "--id", "thm-7.1"])
    reports, errors = run_suite("thm-7.4*", "free", CheckParams(trunc=3))
    assert not reports
    assert [e[0] for e in errors] == ["thm-7.4a", "thm-7.4b"]
    assert errors[0][1].startswith("InsufficientModel")


SD_ONLY_IDS = (
    "thm-6.2a", "thm-6.2b", "thm-6.3a", "thm-6.3b", "thm-6.4a", "thm-6.4b", "thm-7.1",
    "thm-7.2a", "thm-7.2b", "thm-7.3a", "thm-7.3b", "thm-7.4a", "thm-7.4b", "thm-8.1",
    "thm-8.2", "thm-8.3", "thm-8.4",
)


def test_ring_choice_selects_exactly_the_sd_only_statements():
    # at n_d = 1 (thm-7.1 and thm-8.1) Q[t]/(t^2) and the Weil ring are one ring, (1,)
    not_weil = [e.id for e in CATALOG if max(weilcheck._plan(e.id)[0]) > 1]
    assert not_weil == [i for i in SD_ONLY_IDS if i not in ("thm-7.1", "thm-8.1")]
    for entry in CATALOG:
        ring, _, n_d, _ = weilcheck._plan(entry.id)
        if entry.id in SD_ONLY_IDS:
            assert ring == (n_d,)
            ctx = weilcheck._context_for(entry, "free", CheckParams(trunc=entry.order))
            assert ctx.gens[0].ring == (n_d,)
        else:  # lemma-6.0, thm-6.1, cor-7.2.1 and the rest
            assert ring == (1,) * max(n_d, 1)


def _sd_only_reports() -> list[dict]:
    """The drift fixture's range for each sd-only statement: free at trunc
    min..min+2, matrix at dim min..min+1 with seeds 0-5."""
    out = []
    for ident in SD_ONLY_IDS:
        order = weilcheck._BY_ID[ident].order
        for trunc in range(order, order + 3):
            out.append(check_identity(ident, "free", CheckParams(trunc=trunc)))
        for dim in range(order + 1, order + 3):
            for seed in range(6):
                out.append(check_identity(ident, "matrix", CheckParams(dim=dim, seed=seed)))
    return [report.to_json_obj() for report in out]


def test_both_rings_give_the_same_verdicts_and_witnesses(monkeypatch):
    small = _sd_only_reports()
    plan = weilcheck._plan  # the Weil ring of n_d generators, at the same reach
    monkeypatch.setattr(weilcheck, "_plan",
                        lambda ident: ((1,) * plan(ident)[2], *plan(ident)[1:]))
    weil = _sd_only_reports()
    assert len(small) == 17 * 15
    assert {r["verdict"] for r in small} == {"PASS", "FAIL"}
    for a, b in zip(small, weil):
        assert a == b, (a["id"], a["model"], a["params"])


@pytest.mark.parametrize("n", range(1, 7))
def test_one_weight_route_builds_em_and_sd_powers_in_both_rings(n):
    # each weight over Q[t]/(t^(n+1)) maps onto its build over the Weil ring,
    # and sd^m, a product of m copies of sd, is m! em(m) in both rings
    for m in range(1, n + 1):
        for coeff in (Fraction(1), Fraction(-3, 7)):
            key = (coeff.numerator, coeff.denominator)
            for shape in (EM, POW):
                t_weight = weilcheck._weight((n,), *key, shape, m)
                assert t_weight.weil_image() == weilcheck._weight((1,) * n, *key, shape, m)
            for ring in ((n,), (1,) * n):
                em_m, pow_m = (weilcheck._weight(ring, *key, shape, m) for shape in (EM, POW))
                assert pow_m == em_m * factorial(m), (ring, m, coeff)


UNBOUNDED_IDS = ("lemma-2.5", "prop-4.4", "prop-5.3")


def test_plan_walk_finds_exactly_the_statements_without_infinitesimals():
    assert [e.id for e in CATALOG if weilcheck._plan(e.id)[1] is None] == list(UNBOUNDED_IDS)


# (ring, reach, n_d, gens) of each entry, as the catalog stated n_d and gens
# by hand before they were derived; a changed gens would change the matrix draws
PLANS = {
    "prop-2.1": ((1, 1), 2, 2, 1), "prop-2.2": ((1,), 1, 1, 2), "thm-2.3": ((1, 1), 2, 2, 2),
    "lemma-2.5": ((1,), None, 0, 2), "prop-4.4": ((1,), None, 0, 2),
    "prop-4.5": ((1,), 1, 1, 1), "prop-5.3": ((1,), None, 0, 1), "prop-5.4": ((1, 1), 2, 2, 2),
    "lemma-6.0": ((1,) * 5, 5, 5, 0), "thm-6.1": ((1,), 1, 1, 2), "thm-6.2a": ((2,), 2, 2, 2),
    "thm-6.2b": ((2,), 2, 2, 2), "thm-6.3a": ((3,), 3, 3, 2), "thm-6.3b": ((3,), 3, 3, 2),
    "thm-6.4a": ((4,), 4, 4, 2), "thm-6.4b": ((4,), 4, 4, 2), "thm-7.1": ((1,), 1, 1, 2),
    "thm-7.2a": ((2,), 2, 2, 2), "thm-7.2b": ((2,), 2, 2, 2), "cor-7.2.1": ((1, 1), 2, 2, 3),
    "thm-7.3a": ((3,), 3, 3, 2), "thm-7.3b": ((3,), 3, 3, 2), "thm-7.4a": ((4,), 4, 4, 2),
    "thm-7.4b": ((4,), 4, 4, 2), "thm-8.1": ((1,), 1, 1, 2), "thm-8.2": ((2,), 2, 2, 2),
    "thm-8.3": ((3,), 3, 3, 2), "thm-8.4": ((4,), 4, 4, 2), "consistency-7v8": ((1,) * 4, 4, 4, 2),
}


def test_plan_derives_ring_reach_infinitesimals_and_generators():
    assert {e.id: weilcheck._plan(e.id) for e in CATALOG} == PLANS
    assert "n_d" not in weilcheck._Identity._fields and "gens" not in weilcheck._Identity._fields


def _planned(monkeypatch, entry):
    """_plan of an entry put into the catalog for the test."""
    monkeypatch.setitem(weilcheck._BY_ID, entry.id, entry)
    monkeypatch.setattr(weilcheck, "_plan", cache(weilcheck._plan.__wrapped__))
    return weilcheck._plan(entry.id)


def test_a_third_infinitesimal_selects_the_three_generator_weil_ring(monkeypatch):
    # prop-5.4 with d3 in place of d2: still true, now over Q[d1, d2, d3]
    d3_y, d13_xy = series._entry(1, D, (3,), 1), series._entry(1, D, (1, 3), (0, 1))
    exp_d1_x = (EXP, series._entry(1, D, (1,), 0))
    entry = weilcheck._BY_ID["prop-5.4"]._replace(id="prop-5.4-d3", pairs=(
        ((MUL, exp_d1_x, (EXP, d3_y)), (MUL, (EXP, d3_y), exp_d1_x, (EXP, d13_xy))),
    ))
    assert _planned(monkeypatch, entry) == ((1, 1, 1), 3, 3, 2)
    ctx = weilcheck._context_for(entry, "matrix", CheckParams())
    assert ctx.gens[0].ring == (1, 1, 1) and len(ctx.gens) == 2
    for model in ("free", "matrix"):
        assert check_identity(entry.id, model).verdict == "PASS"


def test_an_unweighted_exponent_keeps_the_full_truncation(monkeypatch):
    # exp(X) = exp(sd Y): every weight a power of sd, so the ring is Q[t]/(t^2),
    # but exp(X) has words of every length, so nothing may be cut
    sd_y = series._entry(1, POW, 1, 1)
    entry = weilcheck._BY_ID["thm-6.2a"]._replace(id="unweighted", pairs=(
        ((EXP, 0), (EXP, sd_y)),
    ))
    assert _planned(monkeypatch, entry) == ((1,), None, 1, 2)
    assert weilcheck._context_for(entry, "free", CheckParams(trunc=5)).one.trunc == 5


def _free_reports(entries) -> list[dict]:
    """The free reports of each entry at trunc order..order+2."""
    return [
        check_identity(entry.id, "free", CheckParams(trunc=trunc)).to_json_obj()
        for entry in entries
        for trunc in range(entry.order, entry.order + 3)
    ]


def test_a_bounded_statement_is_decided_at_its_reach_as_at_any_truncation(monkeypatch):
    prop_2_2 = weilcheck._BY_ID["prop-2.2"]  # one infinitesimal: no word of two letters
    assert weilcheck._context_for(prop_2_2, "free", CheckParams(trunc=4)).one.trunc == 1
    bounded = [entry for entry in CATALOG if weilcheck._plan(entry.id)[1] is not None]
    clamped = _free_reports(bounded)
    plan = weilcheck._plan
    monkeypatch.setattr(weilcheck, "_plan", lambda ident: (plan(ident)[0], None, *plan(ident)[2:]))
    assert weilcheck._context_for(prop_2_2, "free", CheckParams(trunc=4)).one.trunc == 4
    full = _free_reports(bounded)
    assert len(clamped) == len(full) == 26 * 3
    assert {r["verdict"] for r in clamped} == {"PASS", "FAIL"}
    for a, b in zip(clamped, full):
        assert a == b, (a["id"], a["params"])


def test_expected_pass_set_in_both_models():
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


def test_model_soundness_free_pass_implies_matrix_pass():
    free = {r.id: r.verdict for r in run_suite("*", "free")[0]}
    matrix = {r.id: r.verdict for r in run_suite("*", "matrix")[0]}
    for identity_id, verdict in free.items():
        if verdict == "PASS":
            assert matrix[identity_id] == "PASS", identity_id


TABULATED = {
    "thm-6.2a": ("zassenhaus", 2, "a"),
    "thm-6.2b": ("zassenhaus", 2, "b"),
    "thm-6.3a": ("zassenhaus", 3, "a"),
    "thm-6.3b": ("zassenhaus", 3, "b"),
    "thm-6.4a": ("zassenhaus", 4, "a"),
    "thm-6.4b": ("zassenhaus", 4, "b"),
    "thm-7.1": ("bch", 1, "sec7"),
    "thm-7.2a": ("bch", 2, "sec7"),
    "thm-7.2b": ("bch", 2, "sec7"),
    "thm-7.3a": ("bch", 3, "sec7"),
    "thm-7.3b": ("bch", 3, "sec7"),
    "thm-7.4a": ("bch", 4, "sec7"),
    "thm-7.4b": ("bch", 4, "sec7"),
    "thm-8.1": ("bch", 1, "sec8"),
    "thm-8.2": ("bch", 2, "sec8"),
    "thm-8.3": ("bch", 3, "sec8"),
    "thm-8.4": ("bch", 4, "sec8"),
}


def test_verdict_coherence_checker_vs_series():
    for identity_id, (kind, order, selector) in TABULATED.items():
        verdict = check_identity(identity_id, "free").verdict
        if kind == "bch":
            table = bch_paper(order, selector)
            reference = bch_classical(order)
            degrees = range(1, order + 1)
        else:
            table = zassenhaus_paper(order, selector)
            reference = zassenhaus_classical(order)
            degrees = range(2, order + 1)
        agrees = all(not series_compare(table, reference, n) for n in degrees)
        assert verdict == ("PASS" if agrees else "FAIL"), identity_id


# -- reports ----------------------------------------------------------------------


def test_reports_are_deterministic():
    def snapshot(model):
        reports, _ = run_suite("*", model)
        return json.dumps([r.to_json_obj() for r in reports], sort_keys=True)

    assert snapshot("free") == snapshot("free")
    assert snapshot("matrix") == snapshot("matrix")


def test_report_schema():
    jsonschema = pytest.importorskip("jsonschema")
    reports, _ = run_suite("*", "free")
    for report in reports:
        jsonschema.validate(report.to_json_obj(), REPORT_SCHEMA)
        jsonschema.validate(report.to_json_obj(include_elapsed=True), REPORT_SCHEMA)


def test_report_shape():
    obj = check_identity("thm-7.1", "free").to_json_obj()
    assert obj == {
        "id": "thm-7.1",
        "model": "free",
        "params": {"trunc": 6, "dim": 5, "seed": 42},
        "verdict": "PASS",
    }
