"""Exact commutative scalar rings.

Two kinds of ring live here: arbitrary-precision rationals (the standard
library ``fractions.Fraction``, which already keeps gcd-reduced canonical
form with a positive denominator) and the Weil algebras
Q[x1..xk]/(x1^(n1+1), ..., xk^(nk+1)) of nilpotent infinitesimals, each
named by its tuple of orders (n1, ..., nk): the Weil ring Q[d1..dk]/(di^2)
of square-zero infinitesimals is (1,)*k, and Q[t]/(t^(n+1)) is (n,).  A
coefficient ring is None for Q or such a tuple, and ``check_ring`` decides,
once, which rings every algebra accepts.  A ``WeilElement`` is stored
sparsely as a map from keys, which pack the exponents of a monomial of
divided powers (``key_shift``), to nonzero integer numerators over one
common denominator; key 0 holds the scalar part.  Every product over these
rings reads the one table ``pair_factors``, and ``WeilElement.weil_image``
is the one map t -> sd (lemma 6.0).  ``bracket_sum`` builds every bracket
and sum of brackets of the algebras over them, ``scale_terms`` every scaling
by a ring scalar, and ``rational`` and ``Numerators._check_operand`` decide
which scalars and operands every algebra accepts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, repeat
from math import comb, factorial, gcd, lcm

from .errors import AlgebraMismatch, DivisionByZero, GeneratorCountMismatch

MAX_ORDER = 16
MAX_KEY_BITS = 8  # a table has 4^bits entries: 0.5 MiB at 8 bits, 8 MiB at 10


@cache  # every constructor checks its ring: once per ring and process
def check_ring(ring) -> None:
    """Raise ``GeneratorCountMismatch`` unless ring names a coefficient ring:
    None for Q, or a tuple of orders (n1, ..., nk), each in 1..MAX_ORDER,
    whose key (``key_shift``) is at most MAX_KEY_BITS bits wide."""
    if ring is not None and not (
        type(ring) is tuple and ring and all([type(n) is int and 0 < n <= MAX_ORDER for n in ring])
        and key_shift(ring) <= MAX_KEY_BITS
    ):
        raise GeneratorCountMismatch(f"ring {ring!r} is neither None nor a tuple of orders in "
                                     f"1..{MAX_ORDER} with keys of at most {MAX_KEY_BITS} bits")


@cache
def key_shift(ring) -> int:
    """The width of a key of the ring: field i, from the low end, holds the
    exponent of x_i in bit_length(n_i) bits, so a key of the Weil ring
    (1,)*k is a k-bit mask and one of (n,) an exponent 0..n.  The key sits
    at the low end of an ``AssocPoly`` or ``NilMatrix`` row key; Q (None)
    has none."""
    return sum([n.bit_length() for n in ring]) if ring else 0


def exponents(ring: tuple, key: int) -> list[int]:
    """The exponent of each x_i in the monomial that key names."""
    out = []
    for n in ring:
        width = n.bit_length()
        out.append(key & ((1 << width) - 1))
        key >>= width
    return out


@cache
def pair_factors(ring) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of the ring: entry [a][b] is the int f with
    (term a)(term b) = f * (term a + b), the terms keyed as in ``key_shift``
    and each a product of divided powers x_i^[e] = x_i^e / e!.

    f is the product over the fields of C(a_i + b_i, a_i), and 0 once some
    a_i + b_i > n_i.  Over Q (None) the one key is 0 and f is 1; over the
    Weil ring (1,)*k f is 1 for disjoint masks, where a | b = a + b, and 0
    otherwise.  A field never carries into the next, since a_i + b_i <= n_i
    fits its bits.
    """
    check_ring(ring)
    table = [[1]]
    for n in ring or ():  # each field sits above the ones before it
        size = 1 << n.bit_length()
        field = [[comb(a + b, a) if a + b <= n else 0 for b in range(size)] for a in range(size)]
        table = [[f * g for f in frow for g in row] for frow in field for row in table]
    return tuple([tuple(row) for row in table])


def accumulate(out: dict, pairs) -> dict:
    """Add each (key, value) pair into ``out``, dropping a key once its sum is zero.

    A zero sum leaves at once rather than in a final sweep, so later pairs
    never add onto a stored zero.
    """
    for key, value in pairs:
        total = out.get(key)
        total = value if total is None else total + value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def rational(value) -> Fraction:
    """An int or a Fraction as a Fraction; anything else, a float or a string
    among them, is inexact or not a number, so it is a TypeError."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"a scalar must be an int or a Fraction, not {type(value).__name__}")
    return Fraction(value)


def reduced(rows: list[dict], den: int) -> tuple[list[dict], int]:
    """Numerator rows over a positive den, divided by their one gcd with den.

    The gcd is taken row by row and stops at 1, so no list of every
    numerator is built.
    """
    if den != 1:
        g = den
        for row in rows:
            if row:
                g = gcd(g, *row.values())
                if g == 1:
                    return rows, den
        rows = [{key: n // g for key, n in row.items()} if row else row for row in rows]
        den //= g
    return rows, den


def over_lcm(rows) -> tuple[list[dict], int]:
    """Rows of (key, nonzero Fraction) pairs as int numerator rows over the lcm
    of the reduced denominators, which is already the canonical denominator."""
    den = lcm(*[v.denominator for row in rows for _, v in row])
    return [{key: v.numerator * (den // v.denominator) for key, v in row} for row in rows], den


class Numerators:
    """The numerator half of ``WeilElement``, ``assoc.AssocPoly``, ``matrix.NilMatrix``
    and ``freelie.LieElement``: construction from rows, sums, negation,
    scaling, truth value, equality.

    ``_rows`` is a list of maps from keys (ints, or Lyndon words for a Lie
    element) to nonzero int numerators over one positive ``_den``, with
    gcd(_den, every numerator) == 1, so equal values have equal fields and
    the arithmetic runs on machine ints with one gcd per result.  ``_alg``
    is the tuple of the fields that fix a value's algebra, which a subclass
    names in ``_algebra`` and reads as read-only properties; values of one
    algebra share the tuple, and the operand check and ``==`` compare it
    whole.  ``_wrap`` and ``_make`` build every value from rows, so a
    subclass lays out its own rows and keys, keeps its own product loop and
    names the error an operand of another algebra raises in ``_mismatch``.
    An associative one supplies ``_add_product(out, left, right, factor)``,
    which adds factor * left * right into the rows ``out``, and so gets the
    bracket ``bracket_sum`` reads; a Lie algebra overrides ``_add_bracket``
    itself.  No method mutates a row after construction, so values share
    rows.
    """

    __slots__ = ("_alg", "_rows", "_den")
    _algebra: tuple[str, ...] = ()
    _mismatch: type = AlgebraMismatch

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(vars(cls).get("_algebra", ())):
            setattr(cls, name, property(lambda self, i=i: self._alg[i]))

    def _check_operand(self, other) -> None:
        """Raise ``_mismatch`` unless other agrees on every ``_algebra`` field."""
        if self._alg != other._alg:
            raise self._mismatch(f"{type(self).__name__} operands differ in "
                                 f"{self._algebra}: {list(self._alg)} vs {list(other._alg)}")

    @classmethod
    def _make(cls, alg: tuple, rows: list[dict], den: int):
        """A value of the algebra ``alg`` from rows of nonzero int numerators
        over a positive den, reduced by one gcd; outside input goes through
        the public constructor."""
        out = object.__new__(cls)
        out._alg = alg
        out._rows, out._den = reduced(rows, den)
        return out

    def _wrap(self, rows: list[dict], den: int):
        """A value of self's algebra from rows over a den that is already reduced."""
        out = object.__new__(type(self))
        out._alg, out._rows, out._den = self._alg, rows, den
        return out

    def _with(self, rows: list[dict], den: int):
        """A value of self's algebra from rows an operation built, reduced by one
        gcd; not through ``_make``, since a classmethod call costs a bound method."""
        if den != 1:  # most results are over 1, which needs no reduction: skip the call
            rows, den = reduced(rows, den)
        return self._wrap(rows, den)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._den != other._den:
            return combination([(1, self), (1, other)])
        # most sums in the checks: skip the rescaling, share an unmatched row
        self._check_operand(other)
        rows = [accumulate(dict(r1), r2.items()) if r1 and r2 else r1 or r2
                for r1, r2 in zip(self._rows, other._rows)]
        return self._with(rows, self._den)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, type(self)) else NotImplemented

    def __neg__(self):
        return self._wrap([{key: -n for key, n in row.items()} for row in self._rows], self._den)

    def _scaled(self, q):
        """self times an int or a Fraction; any other scalar is a TypeError,
        as in ``rational``, whose test is inline on this hot path."""
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"a scalar must be an int or a Fraction, not {type(q).__name__}")
        num = q.numerator
        if not num:
            return self._wrap([{} for _ in self._rows], 1)
        rows = [{key: n * num for key, n in row.items()} for row in self._rows]
        return self._with(rows, self._den * q.denominator)

    def _add_bracket(self, out: list[dict], left: list[dict], right: list[dict], factor: int):
        """Add factor * [left, right] = factor * (left right - right left) into
        the rows ``out``, both products by the algebra's one loop."""
        self._add_product(out, left, right, factor)
        self._add_product(out, right, left, -factor)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._alg == other._alg and (self._den, self._rows) == (other._den, other._rows)

    def __bool__(self) -> bool:
        return any(self._rows)


def combination(terms):
    """sum_i c_i p_i over a nonempty list of (c_i, p_i) pairs, each c_i an int
    or a Fraction and each p_i a value of one ``Numerators`` algebra.

    The sum is taken once over one common denominator, the lcm of the
    c_i.denominator * p_i._den: each term's rows are added into fresh rows
    with one int factor, and ``_with`` reduces the result by one gcd.
    """
    first = terms[0][1]
    kind, check = type(first), first._check_operand
    live = []
    for c, p in terms:
        if type(p) is not kind:
            raise TypeError(f"unsupported operand type(s) for +: "
                            f"'{kind.__name__}' and '{type(p).__name__}'")
        check(p)
        if c:  # a zero p is over 1 and adds nothing, so only c is tested
            live.append((c.numerator, c.denominator * p._den, p._rows))
    den = lcm(*[d for _, d, _ in live])
    rows = None
    for a, d, p_rows in live:
        f = a * (den // d)
        if rows is None:  # fresh rows, copied as they are when the factor is 1
            rows = [dict(row) for row in p_rows] if f == 1 else [
                {key: n * f for key, n in row.items()} for row in p_rows]
            continue
        for acc, row in zip(rows, p_rows):
            for key, n in row.items():  # inline, as in the product loops: no pair list per row
                total = acc.get(key, 0) + n * f
                if total:
                    acc[key] = total
                else:
                    del acc[key]
    if rows is None:
        rows = [{} for _ in first._rows]
    return first._with(rows, den)


def bracket_sum(terms):
    """sum_k c_k [a_k, b_k] over a nonempty list of (c_k, a_k, b_k) triples,
    each c_k an int or a Fraction and each a_k, b_k a value of one
    ``Numerators`` algebra.

    As in ``combination``, the sum is taken once over one common
    denominator, the lcm of the c_k.denominator * a_k._den * b_k._den: each
    bracket is added into one set of fresh rows by the algebra's
    ``_add_bracket`` with one int factor, and ``_with`` reduces the result
    by one gcd.  No product, negation or partial sum is built.
    """
    first = terms[0][1]
    kind, check = type(first), first._check_operand
    live = []
    for c, a, b in terms:
        for p in (a, b):
            if type(p) is not kind:
                raise TypeError(f"cannot bracket '{kind.__name__}' with '{type(p).__name__}'")
            check(p)
        if c:  # a zero a or b adds nothing to the rows, so only c is tested
            live.append((c.numerator, c.denominator * a._den * b._den, a._rows, b._rows))
    den = lcm(*[d for _, d, _, _ in live])
    rows = [{} for _ in first._rows]
    for n, d, left, right in live:
        first._add_bracket(rows, left, right, n * (den // d))
    return first._with(rows, den)


def scale_terms(p, ring: tuple, nums: dict[int, int], den: int):
    """p times a scalar of the ring, given as its numerators by key over
    den, for a value p of a ``Numerators`` algebra over that ring whose row
    keys hold the ring's key in their low ``key_shift(ring)`` bits: an
    ``AssocPoly``, a ``NilMatrix`` or a ring scalar itself.

    Each row term meets each of the scalar's few terms, and the ring's
    ``pair_factors`` gives the int factor of their product, keyed by the
    sum of the two keys; no scalar, diagonal matrix or one-row operand is
    built.
    """
    factors, low, terms = pair_factors(ring), (1 << key_shift(ring)) - 1, list(nums.items())
    out = []
    for row in p._rows:
        acc = {}
        for key1, n1 in row.items():
            factor = factors[key1 & low]
            for key2, n2 in terms:
                f = factor[key2]
                if f:
                    key = key1 + key2
                    total = acc.get(key, 0) + n1 * n2 * f
                    if total:
                        acc[key] = total
                    else:
                        del acc[key]
        out.append(acc)
    return p._with(out, p._den * den)


def power_series(out, first, step, coeffs):
    """out + sum_i c_i p_i, where p_0 = first and p_(i+1) = step(p_i).

    The powers are values of one ``Numerators`` algebra and the c_i ints or
    Fractions.  The sum stops at the first zero power or when ``coeffs`` runs
    out, and ``step`` is never called past either; ``coeffs`` is read one
    term at a time, so it may be an endless generator.  The terms are summed
    once by ``combination``, except that a lone power of coefficient 1 is
    added to ``out`` with ``+``, which shares rows.
    """
    terms = [(1, out)]
    power = first
    for i, coeff in enumerate(coeffs):
        if i:
            power = step(power)
        if not power:
            break
        terms.append((coeff, power))
    if len(terms) == 1:
        return out
    if len(terms) == 2 and terms[1][0] == 1:
        return out + terms[1][1]
    return combination(terms)


@cache
def inverse_factorial(i: int) -> Fraction:
    return Fraction(1, factorial(i))


def exp_series(x, one, bound: int):
    """sum_i x^i / i! for an x with x^(bound+1) = 0; ``one`` is the unit."""
    coeffs = map(inverse_factorial, range(1, bound + 1))
    return power_series(one, x, lambda p: p * x, coeffs)


def geometric_series(x, one, bound: int):
    """sum_i x^i = (one - x)^-1 for an x with x^(bound+1) = 0."""
    return power_series(one, x, lambda p: p * x, repeat(1, bound))


def unit_inverse(a, one, bound: int):
    """a^-1 for a value a of a ``Numerators`` algebra whose rational part n0,
    the key-0 numerator of row 0, is nonzero; ``one`` is the unit.

    With c = _den / n0, x = one - c*a has rational part 0, so it is
    nilpotent, and a^-1 = c * sum_i x^i; x^(bound+1) must be 0.
    """
    c = Fraction(a._den, a._rows[0][0])
    return geometric_series(one - a._scaled(c), one, bound)._scaled(c)


def signed_join(terms) -> str:
    """Render (body, value) pairs as "a - b + c", each body showing |value|."""
    text = " ".join(f"{'+' if value > 0 else '-'} {body}" for body, value in terms)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else f"-{text[2:]}"


def _check_orders(ring) -> None:
    """``check_ring`` for a scalar's ring, which is never Q."""
    if ring is None:
        raise GeneratorCountMismatch("a Weil element's ring is a tuple of orders, not None")
    check_ring(ring)


class WeilElement(Numerators):
    """Element of the Weil algebra Q[x1..xk]/(x1^(n1+1), ..., xk^(nk+1)) that
    the ring (n1, ..., nk) names: the Weil ring Q[d1..dk]/(di^2) when every
    order is 1, and Q[t]/(t^(n+1)) when the ring is (n,).

    Stored as one row of integer numerators by key over a common
    denominator, built from rows by ``Numerators``; a key names a product of
    divided powers x_i^[e] = x_i^e / e! (``key_shift``), key 0 the scalar
    part, and ``coeffs`` is the read-only view key -> reduced Fraction.
    ``__mul__`` reads the ring's ``pair_factors``.
    """

    __slots__ = ()
    _algebra = ("ring",)
    _mismatch = GeneratorCountMismatch

    def __init__(self, ring: tuple, coeffs: dict[int, Fraction] | None = None):
        _check_orders(ring)
        terms = []
        for key, value in (coeffs or {}).items():
            if not 0 <= key < 1 << key_shift(ring) or any(
                    [e > n for n, e in zip(ring, exponents(ring, key))]):
                raise GeneratorCountMismatch(f"key {key} names no monomial of the ring {ring}")
            value = rational(value)
            if value:
                terms.append((key, value))
        self._alg = (ring,)
        self._rows, self._den = over_lcm([terms])

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """A fresh map from key to nonzero reduced Fraction."""
        den = self._den
        return {key: Fraction(n, den) for key, n in self._rows[0].items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    @cache  # values are immutable, so each ring shares one zero
    def zero(cls, ring: tuple):
        return cls(ring)

    @classmethod
    def one(cls, ring: tuple):
        return cls(ring, {0: 1})

    @classmethod
    def from_rational(cls, ring: tuple, value):
        _check_orders(ring)
        value = rational(value)
        nums = {0: value.numerator} if value else {}
        return cls._make((ring,), [nums], value.denominator)

    @classmethod
    def generator(cls, ring: tuple, index: int) -> "WeilElement":
        """The generator x_index (d_index of the Weil ring), 1-based."""
        _check_orders(ring)
        if not 1 <= index <= len(ring):
            raise GeneratorCountMismatch(f"generator index {index} outside 1..{len(ring)}")
        return cls(ring, {1 << key_shift(ring[:index - 1]): 1})

    # -- ring structure ----------------------------------------------------

    def _lift(self, other):
        """A rational as an element of this ring; any other operand as it is."""
        if isinstance(other, (int, Fraction)):
            return self.from_rational(self.ring, other)
        return other

    # bench/tracer.py wraps __mul__, __rmul__, __add__, __radd__ and inverse
    # by this class's own names
    def __add__(self, other):
        return super().__add__(self._lift(other))

    __radd__ = __add__

    def __sub__(self, other):
        return super().__sub__(self._lift(other))

    def __rsub__(self, other):
        # other - self as -self + other; a non-number gives NotImplemented,
        # so Python raises TypeError without calling back here
        return (-self).__add__(other)

    def __mul__(self, other):
        """self times other: a rational scales, and two terms of this ring
        multiply by the ring's ``pair_factors``, in ``scale_terms``."""
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        if type(other) is not WeilElement:
            return NotImplemented
        self._check_operand(other)
        return scale_terms(self, self.ring, other._rows[0], other._den)

    __rmul__ = __mul__

    def inverse(self) -> "WeilElement":
        """Exact inverse via the finite geometric series: a product of more
        than sum(ring) nilpotent terms vanishes."""
        if 0 not in self._rows[0]:
            raise DivisionByZero("Weil element with zero scalar part has no inverse")
        return unit_inverse(self, WeilElement.one(self.ring), sum(self.ring))

    def weil_image(self) -> "WeilElement":
        """The image in the Weil ring of sum(ring) generators under the
        injective ring map that sends each x_i to the sum of n_i generators
        of its own (``_image_masks``), so every numerator is kept; over the
        Weil ring the map is the identity."""
        ring, nums = self.ring, {}
        for key, n in self._rows[0].items():
            nums.update(dict.fromkeys(_image_masks(ring, key), n))
        return WeilElement._make(((1,) * sum(ring),), [nums], self._den)

    def _value(self) -> tuple:
        """What equality compares: with no nilpotent term the value is a
        rational, whatever the ring, as for the hash; otherwise the ring
        counts too."""
        nums = self._rows[0]
        return (self._alg if any(nums) else None, self._den, nums)

    def __eq__(self, other):
        other = self._lift(other)
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self._value() == other._value()

    def __len__(self) -> int:  # the number of nonzero terms
        return len(self._rows[0])

    def __hash__(self):
        # A rational value equals its Fraction, so it must hash as one.
        nums = self._rows[0]
        if not any(nums):
            return hash(Fraction(nums.get(0, 0), self._den))
        return hash((self._alg, self._den, frozenset(nums.items())))

    # -- text format -------------------------------------------------------

    def _term_str(self, key: int, value: Fraction) -> str:
        monomial = _monomial(self.ring, key)
        if not monomial:
            return str(value)
        return monomial if value == 1 else f"{value}*{monomial}"

    def __str__(self) -> str:
        return signed_join(
            (self._term_str(key, Fraction(abs(n), self._den)), n)
            for key, n in sorted(self._rows[0].items())
        )

    def __repr__(self) -> str:
        return f"WeilElement({self.ring}, {self})"


@cache
def _monomial(ring: tuple, key: int) -> str:
    """The text of the monomial that key names, x_i written d_i and a
    divided power x_i^[e] as d_i^[e]: d1d2 over the Weil ring, d1^[2]d2 over
    (2, 1); empty for key 0."""
    return "".join([f"d{i}" if e == 1 else f"d{i}^[{e}]"
                    for i, e in enumerate(exponents(ring, key), 1) if e])


@cache
def _image_masks(ring: tuple, key: int) -> tuple[int, ...]:
    """The terms, in the Weil ring of sum(ring) generators, of the image of
    the monomial that key names: x_i^[e] becomes the e-th elementary
    symmetric polynomial of n_i generators of its own, as t^[e] becomes
    em(e) under t -> sd (lemma 6.0)."""
    masks, start = [0], 0
    for n, e in zip(ring, exponents(ring, key)):
        field = [sum([1 << (start + i) for i in subset]) for subset in combinations(range(n), e)]
        masks = [mask | term for mask in masks for term in field]
        start += n
    return tuple(masks)

