"""Degree-truncated free associative algebra over an exact scalar ring.

Words are tuples of generator indices; coefficients are rationals, or
elements of the Weil algebra that the tuple of orders ``ring`` names.
Multiplication concatenates words and drops anything longer than the
truncation bound, which makes every element of the augmentation ideal
nilpotent and exp/log exact finite sums.  Truncation is
a property of the algebra: operands must agree on it, mixing is an error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, NotInvertible, NotNilpotent, NotUnipotent
from .rings import decode_row, encode_scalar, ring_scale
from .scalars import (Numerators, check_ring, exp_series, key_shift, over_lcm, pair_factors,
                      power_series, unit_inverse)

Word = tuple[int, ...]


def _letter_bits(alphabet: tuple[str, ...]) -> int:
    """The width of one letter's bit field in a word code."""
    return (len(alphabet) - 1).bit_length()


def _checked_alg(alphabet, trunc: int, ring: tuple | None) -> tuple:
    """The ``_alg`` tuple of a polynomial algebra, trunc and ring checked."""
    if trunc < 1:
        raise ValueError(f"truncation must be positive, got {trunc}")
    check_ring(ring)
    return tuple(alphabet), trunc, ring


class AssocPoly(Numerators):
    """Noncommutative polynomial, truncated at word length ``trunc``.

    Stored like a ``NilMatrix`` (see ``scalars.Numerators``): ``_rows[l]``
    maps ``(code << s) | key`` to the nonzero numerator of the ``key`` term
    of the coefficient of a word of length l, where s is
    ``scalars.key_shift(ring)`` (0 for a rational polynomial, whose keys
    are all 0), ``key`` a key of the ring, and ``code`` packs the word's
    letters into bit fields of ``_letter_bits`` each, first letter highest;
    ``rings.encode_scalar`` and ``decode_row`` translate coefficients, and
    ``scalars.check_ring`` bounds the ring.
    Codes order as their words do, concatenation shifts and ors them, and
    ``freelie.lie_embed`` and ``dynkin_project`` read and write them too.
    ``terms`` is the read-only view word -> coefficient, built on each read.
    """

    __slots__ = ()
    _algebra = ("alphabet", "trunc", "ring")

    def __init__(
        self,
        alphabet: tuple[str, ...],
        trunc: int,
        ring: tuple | None = None,
        terms: dict | None = None,
    ):
        self._alg = _checked_alg(alphabet, trunc, ring)
        letters, bits = len(self.alphabet), _letter_bits(self.alphabet)
        rows = [[] for _ in range(trunc + 1)]
        for word, coeff in (terms or {}).items():
            if not all(0 <= i < letters for i in word):
                raise AlgebraMismatch(f"word {word} has a letter outside the alphabet")
            code = 0
            for letter in word:
                code = (code << bits) | letter
            coeff_terms = encode_scalar(ring, code, coeff)  # checks words past trunc too
            if len(word) <= trunc:
                rows[len(word)].extend(coeff_terms)
        self._rows, self._den = over_lcm(rows)

    @property
    def terms(self) -> dict:
        """A fresh map from each word, shortest first and then in
        lexicographic order, to its nonzero coefficient: a Fraction over Q,
        else a ``WeilElement`` of the ring."""
        bits = _letter_bits(self.alphabet)
        letter = (1 << bits) - 1
        return {
            tuple([(code >> (bits * i)) & letter for i in range(length - 1, -1, -1)]): c
            for length, row in enumerate(self._rows)
            for code, c in decode_row(self.ring, row, self._den).items()
        }

    # -- constructors -------------------------------------------------------

    @classmethod
    def _unit_term(cls, alg: tuple, length: int, key: int) -> "AssocPoly":
        """The term of numerator 1 at ``key`` in row ``length`` of the algebra alg."""
        rows = [{} for _ in range(alg[1] + 1)]
        rows[length] = {key: 1}
        return cls._make(alg, rows, 1)

    @classmethod
    def one(cls, alphabet, trunc, ring=None) -> "AssocPoly":
        return cls._unit_term(_checked_alg(alphabet, trunc, ring), 0, 0)

    @classmethod
    def generator(cls, alphabet, index, trunc, ring=None) -> "AssocPoly":
        if not 0 <= index < len(alphabet):
            raise AlgebraMismatch(f"generator index {index} outside alphabet")
        return cls._unit_term(_checked_alg(alphabet, trunc, ring), 1, index << key_shift(ring))

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, AssocPoly):
            return poly_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__  # only ever reached with a central scalar on the left

    def _add_product(self, out: list[dict], left: list[dict], right: list[dict], factor: int):
        """Add factor * left * right into the rows ``out``, all three laid out
        as self's rows.

        Row l1 meets only the rows l2 <= trunc - l1.  Two terms multiply by
        the ring's ``scalars.pair_factors``, so a pair whose factor is 0 (an
        exponent of some x_i past its order) adds nothing; no scalar is
        built per term.
        """
        alphabet, trunc, ring = self._alg
        bits, s, factors = _letter_bits(alphabet), key_shift(ring), pair_factors(ring)
        low = (1 << s) - 1
        for l1, row1 in enumerate(left):
            if not row1:
                continue
            for l2, row2 in enumerate(right[: trunc + 1 - l1]):
                if not row2:
                    continue
                acc, shift = out[l1 + l2], bits * l2 + s
                for key1, n1 in row1.items():
                    e1 = key1 & low
                    base, row, m1 = ((key1 >> s) << shift) + e1, factors[e1], n1 * factor
                    for key2, n2 in row2.items():
                        f = row[key2 & low]
                        if f:
                            key = base + key2
                            total = acc.get(key, 0) + m1 * n2 * f
                            if total:
                                acc[key] = total
                            else:
                                del acc[key]

    scale = ring_scale  # shared with NilMatrix

    # -- queries ------------------------------------------------------------

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        return "·".join(self.alphabet[i] for i in word)

    def __str__(self) -> str:
        parts = []
        for word, coeff in self.terms.items():
            coeff_str = str(coeff)
            if self.ring is not None and len(coeff) > 1:
                coeff_str = f"({coeff_str})"
            if word:
                parts.append(f"{coeff_str}*{self.word_str(word)}")
            else:
                parts.append(coeff_str)
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"AssocPoly({self})"


def poly_mul(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Concatenation product, truncated at the common bound."""
    a._check_operand(b)
    out = [{} for _ in a._rows]
    a._add_product(out, a._rows, b._rows, 1)
    return a._with(out, a._den * b._den)


def poly_exp(a: AssocPoly) -> AssocPoly:
    """sum_i a^i / i! for a in the augmentation ideal (no constant term)."""
    if a._rows[0]:
        raise NotNilpotent("exp needs a zero constant term")
    return exp_series(a, AssocPoly._unit_term(a._alg, 0, 0), a.trunc)


def poly_log(a: AssocPoly) -> AssocPoly:
    """sum_i (-1)^(i+1) (a-1)^i / i for a with constant term 1."""
    if a._rows[0] != {0: a._den}:
        raise NotUnipotent("log needs constant term exactly 1")
    u = a - AssocPoly._unit_term(a._alg, 0, 0)
    coeffs = (Fraction((-1) ** (i + 1), i) for i in range(1, a.trunc + 1))
    return power_series(a._scaled(0), u, lambda p: poly_mul(p, u), coeffs)


def poly_inv(a: AssocPoly) -> AssocPoly:
    """Two-sided inverse of an element whose constant term is a unit, that is,
    has a nonzero rational part.  A nonzero power of the nilpotent x of
    ``unit_inverse`` has at most trunc letters and, when the constant has a
    nilpotent part, at most sum(ring) factors from it, since a product of
    more nilpotents vanishes."""
    row = a._rows[0]
    if 0 not in row:
        raise NotInvertible("constant term is not a unit")
    nilpotent = sum(a.ring) if len(row) > 1 else 0
    return unit_inverse(a, AssocPoly._unit_term(a._alg, 0, 0), a.trunc + nilpotent)
