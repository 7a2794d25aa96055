"""Free Lie algebra on named generators with a Lyndon (Hall) basis.

Basis monomials are nested tuples: a bare ``int`` is a generator index and a
pair ``(left, right)`` is the bracket [left, right].  A monomial is *standard*
when its word of leaves is a Lyndon word and the tree is the standard
right-factorization bracketing of that word.  Standard monomials form a basis,
and a Lie element keys each coefficient by the Lyndon word that fixes its monomial.

Brackets of two standard monomials are normalized by the classical rewriting:
antisymmetry reorders the arguments, and when the pair [u, v] is not itself
standard the Jacobi identity [[u1,u2],v] = [[u1,v],u2] + [u1,[u2,v]] is applied
recursively.  Termination follows from the usual Lyndon-order argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Union

from . import assoc
from .errors import AlphabetMismatch, NotAugmentation
from .scalars import Numerators, accumulate, bracket_sum, over_lcm, rational, signed_join

Mono = Union[int, tuple]
Word = tuple[int, ...]

DEFAULT_MAX_DEGREE = 6
HARD_DEGREE_CAP = 10


def default_names(k: int) -> tuple[str, ...]:
    """X, Y for two generators; X1..Xk otherwise."""
    if k == 1:
        return ("X",)
    if k == 2:
        return ("X", "Y")
    return tuple([f"X{i + 1}" for i in range(k)])


# ---------------------------------------------------------------------------
# monomials


@lru_cache(maxsize=None)
def mono_word(m: Mono) -> Word:
    """The word of generator leaves, read left to right."""
    if isinstance(m, int):
        return (m,)
    return mono_word(m[0]) + mono_word(m[1])


def mono_str(m: Mono, names: tuple[str, ...]) -> str:
    if isinstance(m, int):
        return names[m]
    return f"[{mono_str(m[0], names)},{mono_str(m[1], names)}]"


# The text and JSON views of Lie elements render each monomial once per process.
_mono_text = lru_cache(maxsize=None)(mono_str)


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) writes it, for d > 0."""
    g = gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def is_lyndon(word: Word) -> bool:
    """A nonempty word strictly smaller than all of its proper suffixes."""
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(k: int, n: int) -> list[Word]:
    """All Lyndon words of length exactly n over 0..k-1, in lexicographic order.

    Duval's generation of the words of length at most n, filtered to length n.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 generators and degree n >= 1")
    out = []
    w = [0]
    while w:
        if len(w) == n:
            out.append(tuple(w))
        w = [w[i % len(w)] for i in range(n)]
        while w and w[-1] == k - 1:
            w.pop()
        if w:
            w[-1] += 1
    return out


def _mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def lyndon_count(k: int, n: int) -> int:
    """Witt's formula for the number of Lyndon words of length n over k letters.

    (1/n) sum over d | n of mu(d) k^(n/d): the size of a Hall basis layer,
    known without generating a single word.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 generators and degree n >= 1")
    return sum(_mobius(d) * k ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def _standard_factors(word: Word) -> tuple[Word, Word]:
    """The standard factorization (u, v) of a Lyndon word of length >= 2: v is its
    least proper suffix, and both are Lyndon.  Each caller caches its results."""
    split = min(range(1, len(word)), key=lambda i: word[i:])
    return word[:split], word[split:]


@lru_cache(maxsize=None)
def standard_bracketing(word: Word) -> Mono:
    """Right standard factorization bracketing of a Lyndon word.

    The word is not checked: every caller passes a Lyndon word.
    """
    if len(word) == 1:
        return word[0]
    u, v = _standard_factors(word)
    return (standard_bracketing(u), standard_bracketing(v))


def hall_basis(k: int, n: int) -> list[Mono]:
    """Standard basis monomials of exact degree n, sorted by canonical word."""
    return [standard_bracketing(w) for w in lyndon_words(k, n)]


@lru_cache(maxsize=None)
def _bracket_basis(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    """[u, v] for the standard monomials of Lyndon words u, v, expanded over
    Lyndon words with int coefficients, as the Lyndon basis is a basis over Z."""
    if u == v:
        return ()
    if u > v:
        return tuple([(w, -c) for w, c in _bracket_basis(v, u)])
    # u < v, so uv is Lyndon; [u, v] is its standard bracketing exactly when
    # u is a letter or the right factor of u is >= v.
    if len(u) == 1 or _standard_factors(u)[1] >= v:
        return ((u + v, 1),)
    u1, u2 = _standard_factors(u)
    out: dict[Word, int] = {}
    accumulate(out, (
        (w2, c * c2) for w, c in _bracket_basis(u1, v) for w2, c2 in _bracket_basis(w, u2)
    ))
    accumulate(out, (
        (w2, c * c2) for w, c in _bracket_basis(u2, v) for w2, c2 in _bracket_basis(u1, w)
    ))
    return tuple(sorted(out.items()))


# ---------------------------------------------------------------------------
# Lie elements


def _checked_alg(alphabet, max_degree: int) -> tuple:
    """The ``_alg`` tuple of a Lie algebra, max_degree checked."""
    if not 1 <= max_degree <= HARD_DEGREE_CAP:
        raise ValueError(f"max_degree {max_degree} outside 1..{HARD_DEGREE_CAP}")
    return tuple(alphabet), max_degree


class LieElement(Numerators):
    """Exact linear combination of standard bracket monomials, truncated.

    Stored like an ``assoc.AssocPoly`` (see ``scalars.Numerators``): ``_rows[d]``
    maps each Lyndon word of length d to a nonzero int numerator over ``_den``.
    Bracket trees appear only at the public constructor and in the text and
    JSON views, ``sorted_terms`` (which ``__str__`` reads) and ``to_json_terms``.
    """

    __slots__ = ()
    _algebra = ("alphabet", "max_degree")
    _mismatch = AlphabetMismatch

    def __init__(
        self,
        alphabet: tuple[str, ...],
        max_degree: int = DEFAULT_MAX_DEGREE,
        terms: dict[Mono, Fraction] | None = None,
    ):
        self._alg = _checked_alg(alphabet, max_degree)
        letters = len(self.alphabet)
        rows = [[] for _ in range(max_degree + 1)]
        for mono, coeff in (terms or {}).items():
            word = mono_word(mono)
            if not all(0 <= i < letters for i in word):
                raise AlphabetMismatch(f"{mono} has a leaf outside the alphabet")
            if not (is_lyndon(word) and standard_bracketing(word) == mono):
                raise ValueError(f"{mono} is not a standard (Lyndon) monomial")
            coeff = rational(coeff)
            if coeff and len(word) <= max_degree:
                rows[len(word)].append((word, coeff))
        self._rows, self._den = over_lcm(rows)

    @classmethod
    def zero(cls, alphabet, max_degree: int = DEFAULT_MAX_DEGREE) -> "LieElement":
        alg = _checked_alg(alphabet, max_degree)
        return cls._make(alg, [{} for _ in range(max_degree + 1)], 1)

    @classmethod
    def generator(
        cls, alphabet, index: int, max_degree: int = DEFAULT_MAX_DEGREE
    ) -> "LieElement":
        out = cls.zero(alphabet, max_degree)
        if not 0 <= index < len(out.alphabet):
            raise AlphabetMismatch(f"{index} has a leaf outside the alphabet")
        out._rows[1] = {(index,): 1}
        return out

    def scale(self, scalar) -> "LieElement":
        return self._scaled(scalar)

    __mul__ = __rmul__ = scale

    def _add_bracket(self, out: list[dict], left: list[dict], right: list[dict], factor: int):
        """Add factor * [left, right] into the rows ``out``, each pair of
        Lyndon words rewritten to the standard basis: row d1 meets only the
        rows d2 <= max_degree - d1, so no degree is computed."""
        top = self.max_degree
        for d1, row1 in enumerate(left):
            if not row1:
                continue
            for d2, row2 in enumerate(right[: top + 1 - d1]):
                if not row2:
                    continue
                acc = out[d1 + d2]
                for w1, n1 in row1.items():
                    m1 = n1 * factor
                    for w2, n2 in row2.items():
                        n = m1 * n2
                        for w, c in _bracket_basis(w1, w2):
                            total = acc.get(w, 0) + n * c
                            if total:
                                acc[w] = total
                            else:
                                del acc[w]

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        """(standard monomial, nonzero Fraction) pairs by degree, then by word."""
        den = self._den
        return [
            (standard_bracketing(word), Fraction(row[word], den))
            for row in self._rows for word in sorted(row)
        ]

    def __str__(self) -> str:
        def body(mono, coeff):
            text = _mono_text(mono, self.alphabet)
            return text if abs(coeff) == 1 else f"{abs(coeff)}*{text}"

        return signed_join((body(m, c), c) for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"LieElement({self})"

    def to_json_terms(self) -> list[dict[str, str]]:
        """``sorted_terms`` as JSON, each coefficient written from the ints."""
        den, names = self._den, self.alphabet
        return [
            {"monomial": _mono_text(standard_bracketing(word), names),
             "coeff": _ratio_str(row[word], den)}
            for row in self._rows for word in sorted(row)
        ]


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bilinear bracket, rewritten to the standard basis and truncated: the
    one-term ``scalars.bracket_sum``.  ``series.evaluate`` brackets the
    values of every other ``Numerators`` algebra through it too, where it is
    the commutator ab - ba."""
    return bracket_sum([(1, a, b)])


# ---------------------------------------------------------------------------
# embedding into, and projection from, the associative algebra


@lru_cache(maxsize=None)
def _embed_mono(word: Word, bits: int) -> tuple[tuple[int, int], ...]:
    """Expansion of the standard monomial of a Lyndon word as words, via
    [a,b] = ab - ba: pairs of a word's code (see ``assoc.AssocPoly``) and an
    int coefficient."""
    if len(word) == 1:
        return ((word[0], 1),)
    u, v = _standard_factors(word)
    left, right = _embed_mono(u, bits), _embed_mono(v, bits)
    lshift, rshift = bits * len(u), bits * len(v)
    out: dict[int, int] = {}
    for w1, c1 in left:
        for w2, c2 in right:
            c = c1 * c2
            accumulate(out, (((w1 << rshift) | w2, c), ((w2 << lshift) | w1, -c)))
    return tuple(sorted(out.items()))


def lie_embed(a: LieElement) -> "assoc.AssocPoly":
    """Realize brackets as associative commutators; generators become words."""
    alphabet, max_degree = a._alg
    bits, rows = assoc._letter_bits(alphabet), [{} for _ in a._rows]
    for d, row in enumerate(a._rows):
        for word, n in row.items():
            accumulate(rows[d], [(code, n * c) for code, c in _embed_mono(word, bits)])
    return assoc.AssocPoly._make((alphabet, max_degree, None), rows, a._den)


@lru_cache(maxsize=None)
def _left_nested(length: int, code: int, bits: int) -> tuple[tuple[Word, int], ...]:
    """[g1,[g2,[...,gn]]] for the word of this length and code, expanded over
    Lyndon words."""
    if length == 1:
        return (((code,), 1),)
    rest = bits * (length - 1)
    first = (code >> rest,)
    out: dict[Word, int] = {}
    for word, coeff in _left_nested(length - 1, code & ((1 << rest) - 1), bits):
        accumulate(out, ((w2, coeff * c2) for w2, c2 in _bracket_basis(first, word)))
    return tuple(sorted(out.items()))


def dynkin_project(p: "assoc.AssocPoly") -> LieElement:
    """Dynkin-Specht-Wever projection onto the free Lie algebra.

    Each word g1..gn maps to (1/n)[g1,[g2,[...,gn]]]; Lie elements of
    homogeneous degree are fixed, so this is a left inverse of lie_embed.
    The sum runs on ints, over p's denominator times lcm(1..trunc).
    """
    if p.ring is not None:
        raise NotAugmentation("projection is defined over rational coefficients")
    if p._rows[0]:
        raise NotAugmentation("polynomial has a nonzero constant term")
    zero = LieElement.zero(p.alphabet, p.trunc)  # rejects trunc outside 1..HARD_DEGREE_CAP
    bits, span = assoc._letter_bits(p.alphabet), lcm(*range(1, p.trunc + 1))
    rows = [{} for _ in p._rows]
    for length, row in enumerate(p._rows[1:], 1):
        f, acc = span // length, rows[length]
        for code, n in row.items():
            accumulate(acc, [(word, n * f * c) for word, c in _left_nested(length, code, bits)])
    return zero._with(rows, p._den * span)
