"""Degree-truncated free associative algebra over an exact scalar ring.

Words are tuples of generator indices; coefficients are rationals or Weil
elements (``weil_k`` records which).  Multiplication concatenates words and
drops anything longer than the truncation bound, which makes every element of
the augmentation ideal nilpotent and exp/log exact finite sums.  Truncation is
a property of the algebra: operands must agree on it, mixing is an error.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AlgebraMismatch,
    GeneratorCountMismatch,
    NotInvertible,
    NotNilpotent,
    NotUnipotent,
)
from .scalars import (
    TermMap,
    WeilElement,
    accumulate,
    exp_series,
    geometric_series,
    power_series,
)

Word = tuple[int, ...]


class AssocPoly(TermMap):
    """Noncommutative polynomial, truncated at word length ``trunc``."""

    __slots__ = ("alphabet", "trunc", "weil_k", "terms")
    _key_degree = staticmethod(len)

    def __init__(
        self,
        alphabet: tuple[str, ...],
        trunc: int,
        weil_k: int | None = None,
        terms: dict | None = None,
    ):
        if trunc < 1:
            raise ValueError(f"truncation must be positive, got {trunc}")
        self.alphabet = tuple(alphabet)
        self.trunc = trunc
        self.weil_k = weil_k
        clean: dict[Word, object] = {}
        if terms:
            letters = len(self.alphabet)
            for word, coeff in terms.items():
                if not all(0 <= i < letters for i in word):
                    raise AlgebraMismatch(f"word {word} has a letter outside the alphabet")
                if len(word) > trunc:
                    continue
                coeff = self._coerce(coeff)
                if coeff:
                    clean[word] = coeff
        self.terms = clean

    def _with(self, terms: dict) -> "AssocPoly":
        """Wrap terms a ring operation built itself (words of length <= trunc,
        nonzero ring coefficients); outside input goes through the constructor."""
        out = object.__new__(AssocPoly)
        out.alphabet, out.trunc, out.weil_k = self.alphabet, self.trunc, self.weil_k
        out.terms = terms
        return out

    # -- scalar plumbing ----------------------------------------------------

    def _coerce(self, value):
        """Lift ints and rationals into the coefficient ring."""
        if self.weil_k is None:
            if isinstance(value, WeilElement):
                raise AlgebraMismatch("Weil coefficient in a rational algebra")
            return Fraction(value)
        if isinstance(value, WeilElement):
            if value.k != self.weil_k:
                raise GeneratorCountMismatch(
                    f"coefficient has {value.k} generators, algebra has {self.weil_k}"
                )
            return value
        return WeilElement.from_rational(self.weil_k, value)

    def _one(self):
        if self.weil_k is None:
            return Fraction(1)
        return WeilElement.one(self.weil_k)

    def _check_operand(self, other: "AssocPoly") -> None:
        if (
            self.alphabet != other.alphabet
            or self.trunc != other.trunc
            or self.weil_k != other.weil_k
        ):
            raise AlgebraMismatch(
                f"algebras differ: ({self.alphabet}, trunc {self.trunc}, "
                f"weil {self.weil_k}) vs ({other.alphabet}, trunc {other.trunc}, "
                f"weil {other.weil_k})"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, alphabet, trunc, weil_k=None) -> "AssocPoly":
        out = cls(alphabet, trunc, weil_k)
        out.terms[()] = out._one()
        return out

    @classmethod
    def generator(cls, alphabet, index, trunc, weil_k=None) -> "AssocPoly":
        if not 0 <= index < len(alphabet):
            raise AlgebraMismatch(f"generator index {index} outside alphabet")
        out = cls(alphabet, trunc, weil_k)
        out.terms[(index,)] = out._one()
        return out

    # -- ring operations ----------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, AssocPoly):
            return poly_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, AssocPoly):
            return NotImplemented
        return self.scale(other)

    def scale(self, scalar) -> "AssocPoly":
        """Multiply every coefficient by a central scalar; a rational is not
        lifted into the Weil ring, so Weil coefficients take their int path."""
        if not isinstance(scalar, (int, Fraction)):
            scalar = self._coerce(scalar)
        if not scalar:
            return self._with({})
        # Weil scalars have zero divisors (d1 * d1 = 0), so products can vanish.
        return self._with({w: p for w, c in self.terms.items() if (p := c * scalar)})

    def __eq__(self, other):
        if not isinstance(other, AssocPoly):
            return NotImplemented
        return (
            self.alphabet == other.alphabet
            and self.trunc == other.trunc
            and self.weil_k == other.weil_k
            and self.terms == other.terms
        )

    # -- queries ------------------------------------------------------------

    def constant_term(self):
        value = self.terms.get(())
        if value is None:
            return self._coerce(0)
        return value

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        return "·".join(self.alphabet[i] for i in word)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            coeff_str = str(coeff)
            if self.weil_k is not None and len(coeff) > 1:
                coeff_str = f"({coeff_str})"
            if word:
                parts.append(f"{coeff_str}*{self.word_str(word)}")
            else:
                parts.append(coeff_str)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AssocPoly({self})"


def poly_mul(a: AssocPoly, b: AssocPoly) -> AssocPoly:
    """Concatenation product, truncated at the common bound.

    ``b``'s terms are grouped by word length once, so each term of ``a``
    visits only the groups that fit beside it.
    """
    a._check_operand(b)
    by_length: dict[int, list] = {}
    for w2, c2 in b.terms.items():
        by_length.setdefault(len(w2), []).append((w2, c2))
    out: dict[Word, object] = {}
    for w1, c1 in a.terms.items():
        room = a.trunc - len(w1)
        for length, group in by_length.items():
            if length <= room:
                accumulate(out, ((w1 + w2, c1 * c2) for w2, c2 in group))
    return a._with(out)


def poly_exp(a: AssocPoly) -> AssocPoly:
    """sum_i a^i / i! for a in the augmentation ideal (no constant term)."""
    if a.constant_term():
        raise NotNilpotent("exp needs a zero constant term")
    return exp_series(a, AssocPoly.one(a.alphabet, a.trunc, a.weil_k), a.trunc)


def poly_log(a: AssocPoly) -> AssocPoly:
    """sum_i (-1)^(i+1) (a-1)^i / i for a with constant term 1."""
    if a.constant_term() != a._one():
        raise NotUnipotent("log needs constant term exactly 1")
    u = a - AssocPoly.one(a.alphabet, a.trunc, a.weil_k)
    coeffs = (Fraction((-1) ** (i + 1), i) for i in range(1, a.trunc + 1))
    return power_series(a._with({}), u, lambda p: poly_mul(p, u), coeffs)


def poly_inv(a: AssocPoly) -> AssocPoly:
    """Two-sided inverse of an element whose constant term is a unit."""
    c = a.constant_term()
    if isinstance(c, WeilElement):
        if not c.is_unit():
            raise NotInvertible("constant term is not a unit")
        c_inv = c.inverse()
    else:
        if not c:
            raise NotInvertible("constant term is zero")
        c_inv = Fraction(1) / c
    one = AssocPoly.one(a.alphabet, a.trunc, a.weil_k)
    return geometric_series(one - a.scale(c_inv), one, a.trunc).scale(c_inv)

