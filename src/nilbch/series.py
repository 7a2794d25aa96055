"""BCH and Zassenhaus series from two sources.

The *classical* series are computed from first principles among Lie
elements, with brackets, sums and rational scalings alone.  BCH follows
Varadarajan's homogeneous recursion, the one Casas and Murua build on
(J. Math. Phys. 50, 033513, 2009), with Bernoulli numbers computed from
their own recursion; the Zassenhaus factors follow the graded recursion of
Casas, Murua and Nadinic (Comput. Phys. Commun. 183, 2386, 2012), one
homogeneous part at a time.  No classical coefficient is ever hard-coded.
The tests keep the route through the truncated associative algebra as
their cross-check: the Dynkin projection of log(exp X . exp Y), and a peel
of the Zassenhaus factors through products of exponentials.

The *tabulated* series come from formulas stated over sums d1+...+dn of
square-zero infinitesimals, written in the expression language that the
identity catalog of ``weilcheck`` shares; ``evaluate`` is its one evaluator
and sums each ``AD`` node through ``scalars.power_series``.  Each table
entry keeps the displayed scalar prefactor in its raw shape, ``em(m)`` or a
rational multiple of (d1+...+dn)^m, identified with each other once, by the
divided-power rule (d1+...+dn)^m / m! = em(m), when a table becomes a
t-graded Lie series.  Where a theorem displays two forms whose prefactors
disagree under that rule, both are kept so the discrepancy stays observable.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, reduce
from itertools import count, islice
from math import comb, factorial
from typing import Callable, NamedTuple

from .errors import DegreeOutOfRange, KindMismatch, NotTabulated
from .freelie import LieElement, lie_bracket
from .scalars import bracket_sum, combination, inverse_factorial, power_series

ORACLE_DEGREE_CAP = 6

BCH_ALPHABET = ("X", "Y")


# ---------------------------------------------------------------------------
# the graded container

_FIRST_DEGREE = {"bch": 1, "zassenhaus": 2}


class GradedSeries:
    """Homogeneous Lie components in X, Y by degree, first_degree..order, each
    at max_degree order: the BCH exponent (kind "bch", from degree 1) or the
    Zassenhaus factor exponents C[2..order] of exp(X+Y) = exp X . exp Y .
    prod exp C[n] (kind "zassenhaus")."""

    def __init__(self, kind: str, order: int, source: str, degrees: dict[int, LieElement]):
        self.kind = kind
        self.first_degree = _FIRST_DEGREE[kind]
        self.order = order
        self.source = source
        self.degrees = degrees

    def component(self, n: int) -> LieElement:
        if not self.first_degree <= n <= self.order:
            raise DegreeOutOfRange(
                f"{self.kind} series of order {self.order} has no degree {n}"
            )
        return self.degrees[n]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "source": self.source,
            "degrees": [
                {"n": n, "terms": self.component(n).to_json_terms()}
                for n in range(self.first_degree, self.order + 1)
            ],
        }


SERIES_SCHEMA = {
    "type": "object",
    "required": ["kind", "source", "degrees"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["bch", "zassenhaus"]},
        "source": {"type": "string"},
        "degrees": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "terms"],
                "additionalProperties": False,
                "properties": {
                    "n": {"type": "integer", "minimum": 1},
                    "terms": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["monomial", "coeff"],
                            "additionalProperties": False,
                            "properties": {
                                "monomial": {"type": "string"},
                                "coeff": {"type": "string"},
                            },
                        },
                    },
                },
            },
        },
    },
}


# ---------------------------------------------------------------------------
# classical oracles


@cache
def _bernoulli_even(n: int) -> tuple[Fraction, ...]:
    """B_2p / (2p)! for p = 1..n // 2, from the recursion
    sum_(k<=m) C(m+1, k) B_k = 0, m >= 1, with B_0 = 1."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum([comb(m + 1, k) * b[k] for k in range(m)]) / (m + 1))
    return tuple([b[2 * p] / factorial(2 * p) for p in range(1, n // 2 + 1)])


def bch_classical(N: int) -> GradedSeries:
    """log(exp X . exp Y) through degree N by Varadarajan's recursion:
    Z_1 = X + Y and, with T[p][m] the sum over k_1 + ... + k_p = m of
    [Z_k1, [..., [Z_kp, X + Y]...]],

        (n+1) Z_(n+1) = 1/2 [X - Y, Z_n] + sum_(1<=p<=n/2) B_2p / (2p)! T[2p][n].

    T is filled degree by degree, T[0][0] = X + Y and
    T[p][m] = sum_k [Z_k, T[p-1][m-k]], one ``bracket_sum``, so no
    composition is enumerated.
    """
    if not 1 <= N <= ORACLE_DEGREE_CAP:
        raise DegreeOutOfRange(f"classical BCH degree {N} outside 1..{ORACLE_DEGREE_CAP}")
    x, y = (LieElement.generator(BCH_ALPHABET, i, N) for i in (0, 1))
    x_minus_y, z = x - y, {1: x + y}
    weights = _bernoulli_even(N - 1)
    # t[p][m] = T[p][m], kept where it can be nonzero: [Z_1, X + Y] = 0, so
    # T[p][m] = 0 for 1 <= m <= p; an odd p at m = N - 1 is never read
    t = [{0: z[1]}] + [{} for _ in range(N - 2)]
    for n in range(1, N):
        for p in range(1, n):
            if p % 2 and n == N - 1:
                continue
            t[p][n] = bracket_sum([
                (1, z[k], t[p - 1][n - k]) for k in range(1, n + 1) if n - k in t[p - 1]
            ])
        terms = [(Fraction(1, 2 * (n + 1)), lie_bracket(x_minus_y, z[n]))]
        terms += [(w / (n + 1), t[2 * p][n]) for p, w in enumerate(weights[: (n - 1) // 2], 1)]
        z[n + 1] = combination(terms)
    return GradedSeries("bch", N, "classical", z)


def zassenhaus_classical(N: int) -> GradedSeries:
    """Factors C[2..N] by the graded recursion of Casas, Murua and Nadinic,
    to degree N: the t^k coefficient f[n, k] of F_n, the logarithmic derivative
    of exp(-t^n C[n]) ... exp(-tY) exp(-tX) exp(t(X+Y)), has degree k + 1, and

        f[1, k] = sum_(j=1..k) (-1)^k / (j! (k-j)!) (ad Y)^(k-j) (ad X)^j Y,
        C[n+1] = f[n, n] / (n+1),
        f[n, k] = sum_(j>=0) (-1)^j / j! (ad C[n])^j f[n-1, k-nj],

    leaving out f[n-1, n-1] = n C[n]: F_n subtracts it, and [C[n], C[n]] = 0.
    """
    if not 2 <= N <= ORACLE_DEGREE_CAP:
        raise DegreeOutOfRange(
            f"classical Zassenhaus degree {N} outside 2..{ORACLE_DEGREE_CAP}"
        )
    x, y = (LieElement.generator(BCH_ALPHABET, i, N) for i in (0, 1))
    # terms[k] lists the summands (c, part) of f[1, k], later of f[n-1, k]
    terms, ad_x = {k: [] for k in range(1, N)}, y
    for j in range(1, N):
        part = ad_x = lie_bracket(x, ad_x)
        for k in range(j, N):
            part = part if k == j else lie_bracket(y, part)
            terms[k].append((Fraction((-1) ** k, factorial(j) * factorial(k - j)), part))
    factors = {}
    for n in range(2, N + 1):
        factors[n] = c = combination([(Fraction(q, n), p) for q, p in terms.pop(n - 1)])
        # a lone summand of coefficient 1 is f[n-1, k] itself and needs no sum
        f = {k: t[0][1] if len(t) == 1 == t[0][0] else combination(t) for k, t in terms.items()}
        terms = {k: [(1, part)] for k, part in f.items()}
        for m, part in f.items():  # (ad C[n])^j f[n-1, m] lands at k = m + nj
            for j in range(1, (N - 1 - m) // n + 1):
                part = lie_bracket(c, part)
                terms[m + n * j].append((Fraction((-1) ** j, factorial(j)), part))
    return GradedSeries("zassenhaus", N, "classical", factors)


# ---------------------------------------------------------------------------
# the expression language of the tables and of the identity catalog

# An int i is generator i, a pair (a, b) the bracket [a, b] and
# (LIN, ((c, a), ...)) the linear combination of the a's with rational c's,
# so every Lie monomial of freelie is an expression.  The other nodes are
#   (c, (shape, m), a)  a times c and the weight (shape, m); each table
#                       entry is one
#   (EXP, a)            exp a
#   (INV, a)            the group inverse of a, computed, not exp(-...)
#   (MUL, a, b, ...)    the product a b ..., from the left
#   (ONE,)              the unit
#   (AD, family, a, b)  sum_p c_p (ad a)^p b with the c_p of ad_coeffs(family):
#                       e^a b e^-a ("exp"), or a logarithmic derivative of exp
LIN, EXP, INV, MUL, ONE, AD = "lin", "exp", "inv", "mul", "one", "ad"

# weight shapes
EM = "em"    # sum of all products of m distinct infinitesimals
POW = "pow"  # (d1+...+dn)^m
D = "d"      # the product of the infinitesimals d_i listed in m


def evaluate(ctx, expr, memo: dict):
    """Image of an expression in the model ``ctx``, a ``Context``; ``memo``
    maps id(node) to its image.

    Every model brackets through this module's ``lie_bracket``, the
    one-term ``scalars.bracket_sum``, which serves every ``Numerators``
    algebra; it is read at each call, so a wrapper installed on it sees
    every bracket.  Keying by identity hashes no coefficient, and shared
    subexpressions are shared objects, so a node that occurs twice is
    evaluated once.  The caller keeps every node alive while ``memo`` lives.
    """
    if isinstance(expr, int):
        return ctx.gens[expr]
    value = memo.get(id(expr))
    if value is not None:
        return value
    head = expr[0]
    if isinstance(head, str):
        if head == EXP:
            value = ctx.exp(evaluate(ctx, expr[1], memo))
        elif head == INV:
            value = ctx.inv(evaluate(ctx, expr[1], memo))
        elif head == MUL:
            value = reduce(operator.mul, [evaluate(ctx, a, memo) for a in expr[1:]])
        elif head == ONE:
            value = ctx.one
        elif head == AD:
            x, y = evaluate(ctx, expr[2], memo), evaluate(ctx, expr[3], memo)
            coeffs = islice(ad_coeffs(expr[1]), 1, None)  # c_0 = 1: y seeds the sum
            value = power_series(y, lie_bracket(x, y), lambda p: lie_bracket(x, p), coeffs)
        elif head == LIN:
            value = combination([(c, evaluate(ctx, a, memo)) for c, a in expr[1]])
        else:
            raise ValueError(f"unknown expression tag {head!r}")
    elif len(expr) == 3:
        coeff, (shape, m), sub = expr
        value = evaluate(ctx, sub, memo).scale(ctx.weight(coeff, shape, m))
    else:
        left, right = expr
        value = lie_bracket(evaluate(ctx, left, memo), evaluate(ctx, right, memo))
    memo[id(expr)] = value
    return value


class Context(NamedTuple):
    """One model of the expression language, as ``evaluate`` reads it: the
    generator images ``gens``, the scalar ``weight(coeff, shape, m)`` of a
    weight node, the FAIL ``witness`` of a nonzero difference and, for the
    group nodes, the unit ``one``, ``exp`` and the group inverse ``inv``."""

    gens: list
    weight: Callable
    witness: Callable
    one: object = None
    exp: Callable | None = None
    inv: Callable | None = None


def _lie_context(max_degree: int) -> Context:
    """Table entries as Lie elements of one max_degree, with no group nodes:
    each weight is its lemma-6.0 t-coefficient, em(m) = sd^m / m!, and a
    FAIL witness lists the difference's terms."""
    return Context(
        [LieElement.generator(BCH_ALPHABET, i, max_degree) for i in (0, 1)],
        lambda coeff, shape, m: coeff / factorial(m) if shape == EM else coeff,
        lambda diff: {"kind": "lie", "terms": diff.to_json_terms()},
    )


def _lin(*pairs):
    return (LIN, tuple((Fraction(c), t) for c, t in pairs))


def _entry(coeff, shape, m, expr):
    """The weight node: expr times coeff and the (shape, m) weight."""
    return (Fraction(coeff), (shape, m), expr)


# ---------------------------------------------------------------------------
# the tabulated formulas, stored in displayed shape

_X, _Y = 0, 1
_XpY = _lin((1, _X), (1, _Y))
_XmY = _lin((1, _X), (-1, _Y))
_Xp2Y = _lin((1, _X), (2, _Y))
_XY = (_X, _Y)
_XmY_XY = (_XmY, _XY)
_Xp2Y_XY = (_Xp2Y, _XY)

# order-4 bracket combinations as displayed
_Q_SEC7 = _lin(
    (Fraction(1, 2), (_X, (_X, _XY))),
    (Fraction(1, 2), (_Y, (_Y, _XY))),
    (2, (_X, (_Y, _XY))),
)
_R_SEC8 = _lin(
    (1, (_X, (_Y, _XY))),
    (1, (_Y, (_X, _XY))),
    (1, (_XpY, (_XpY, _XY))),
)
_C4_SEC6 = _lin(
    (-1, (_X, (_X, _XY))),
    (-3, (_X, (_Y, _XY))),
    (-3, (_Y, (_Y, _XY))),
)


# Each displayed form once, keyed by (kind, section, form), its entries in
# degree order from the kind's first degree.  The paper states order n of a
# form as its entries through degree n, so every order is a prefix.  A BCH
# form is the exponent of exp(sd*X).exp(sd*Y); a Zassenhaus form lists the
# factor exponents, in order, after exp(sd*X).exp(sd*Y).
PAPER_TABLES = {
    ("bch", "sec7", "a"): (
        _entry(1, POW, 1, _XpY),
        _entry(1, EM, 2, _XY),
        _entry(Fraction(1, 2), EM, 3, _XmY_XY),
        _entry(-1, EM, 4, _Q_SEC7),
    ),
    ("bch", "sec7", "b"): (
        _entry(1, POW, 1, _XpY),
        _entry(Fraction(1, 2), POW, 2, _XY),
        _entry(Fraction(1, 12), POW, 3, _XmY_XY),
        _entry(Fraction(-1, 24), POW, 4, _Q_SEC7),
    ),
    ("bch", "sec8", "a"): (
        _entry(1, POW, 1, _XpY),
        _entry(Fraction(1, 2), POW, 2, _XY),
        _entry(Fraction(1, 12), POW, 3, _XmY_XY),
        _entry(Fraction(-1, 48), POW, 4, _R_SEC8),
    ),
    ("zassenhaus", "sec6", "a"): (
        _entry(-1, EM, 2, _XY),
        _entry(1, EM, 3, _Xp2Y_XY),
        _entry(1, EM, 4, _C4_SEC6),
    ),
    ("zassenhaus", "sec6", "b"): (
        _entry(Fraction(-1, 2), POW, 2, _XY),
        _entry(Fraction(1, 12), POW, 3, _Xp2Y_XY),
        _entry(Fraction(1, 24), POW, 4, _C4_SEC6),
    ),
}


def paper_table(kind: str, section: str, form: str, order: int) -> tuple:
    """The entries of degree at most ``order`` of one displayed form."""
    entries = PAPER_TABLES[kind, section, form]
    first = _FIRST_DEGREE[kind]
    last = first + len(entries) - 1
    if not first <= order <= last:
        name = "BCH" if kind == "bch" else "Zassenhaus"
        raise NotTabulated(f"{name} tables cover orders {first}..{last}, got {order}")
    return entries[: order - first + 1]


def _table_series(kind: str, order: int, source: str, entries) -> GradedSeries:
    """The t-graded series of a table: each entry is expanded at max_degree
    ``order`` and summed into the component of its weight's m.  One context
    and one memo serve the whole table, so a node shared between entries,
    such as [X,Y], is bracketed once."""
    ctx, memo = _lie_context(order), {}
    zero = LieElement.zero(BCH_ALPHABET, order)
    degrees = {n: zero for n in range(_FIRST_DEGREE[kind], order + 1)}
    for entry in entries:
        m = entry[1][1]
        degrees[m] = degrees[m] + evaluate(ctx, entry, memo)
    return GradedSeries(kind, order, source, degrees)


def bch_paper(order: int, variant: str) -> GradedSeries:
    """The tabulated BCH exponent, t-graded and normalized.

    Both displayed forms of an order grade to the same series, so the first
    one is used; the form distinction matters only to the identity checker.
    """
    entries = paper_table("bch", variant, "a", order)
    return _table_series("bch", order, f"paper-{variant}", entries)


def zassenhaus_paper(order: int, form: str) -> GradedSeries:
    """The tabulated Zassenhaus factors, t-graded, forms kept distinct."""
    entries = paper_table("zassenhaus", "sec6", form, order)
    return _table_series("zassenhaus", order, f"paper-sec6-{form}", entries)


# ---------------------------------------------------------------------------
# operator series and comparisons


def ad_coeffs(family: str):
    """c_0, c_1, ... without end, the coefficients of (ad a)^p in e^(ad a), 1/p!
    (family "exp"), and in the left and right logarithmic derivatives of exp,
    (-1)^p/(p+1)! ("left") and 1/(p+1)! ("right").  Every family has c_0 = 1."""
    if family == "exp":
        return map(inverse_factorial, count())
    if family == "left":
        return (Fraction((-1) ** p, factorial(p + 1)) for p in count())
    if family == "right":
        return map(inverse_factorial, count(1))
    raise ValueError(f"ad-series family must be 'exp', 'left' or 'right', got {family!r}")


def series_compare(a: GradedSeries, b: GradedSeries, degree: int) -> LieElement:
    """Normalized difference of the degree-n components; zero means agreement."""
    if a.kind != b.kind or a.order != b.order:
        raise KindMismatch(
            f"cannot compare {a.kind} of order {a.order} with {b.kind} of order {b.order}"
        )
    return a.component(degree) - b.component(degree)
