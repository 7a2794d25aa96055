"""Free Lie algebra on named generators with a Lyndon (Hall) basis.

Basis monomials are nested tuples: a bare ``int`` is a generator index and a
pair ``(left, right)`` is the bracket [left, right].  A monomial is *standard*
when its word of leaves is a Lyndon word and the tree is the standard
right-factorization bracketing of that word.  Standard monomials form a basis,
so equality of Lie elements reduces to comparing coefficient maps.

Brackets of two standard monomials are normalized by the classical rewriting:
antisymmetry reorders the arguments, and when the pair [u, v] is not itself
standard the Jacobi identity [[u1,u2],v] = [[u1,v],u2] + [u1,[u2,v]] is applied
recursively.  Termination follows from the usual Lyndon-order argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Union

from . import assoc
from .errors import AlphabetMismatch, NotAugmentation
from .scalars import accumulate, power_series, signed_join

Mono = Union[int, tuple]

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


def mono_degree(m: Mono) -> int:
    if isinstance(m, int):
        return 1
    return mono_degree(m[0]) + mono_degree(m[1])


@lru_cache(maxsize=None)
def mono_word(m: Mono) -> tuple[int, ...]:
    """The word of generator leaves, read left to right."""
    if isinstance(m, int):
        return (m,)
    return mono_word(m[0]) + mono_word(m[1])


def mono_str(m: Mono, names: tuple[str, ...]) -> str:
    if isinstance(m, int):
        return names[m]
    return f"[{mono_str(m[0], names)},{mono_str(m[1], names)}]"


def is_lyndon(word: tuple[int, ...]) -> bool:
    """A nonempty word strictly smaller than all of its proper suffixes."""
    if not word:
        return False
    return all(word < word[i:] for i in range(1, len(word)))


def lyndon_words(k: int, n: int) -> list[tuple[int, ...]]:
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


@lru_cache(maxsize=None)
def standard_bracketing(word: tuple[int, ...]) -> Mono:
    """Right standard factorization bracketing of a Lyndon word.

    The word is not checked: every caller passes a Lyndon word, and the
    factors of a standard factorization are Lyndon again.
    """
    if len(word) == 1:
        return word[0]
    split = min(range(1, len(word)), key=lambda i: word[i:])
    return (standard_bracketing(word[:split]), standard_bracketing(word[split:]))


def hall_basis(k: int, n: int) -> list[Mono]:
    """Standard basis monomials of exact degree n, sorted by canonical word."""
    return [standard_bracketing(w) for w in lyndon_words(k, n)]


def is_standard(m: Mono) -> bool:
    word = mono_word(m)
    return is_lyndon(word) and standard_bracketing(word) == m


@lru_cache(maxsize=None)
def _bracket_basis(u: Mono, v: Mono) -> tuple[tuple[Mono, int], ...]:
    """[u, v] for standard monomials u, v, expanded over standard monomials;
    the coefficients are ints, as the Lyndon basis is a basis over Z."""
    wu, wv = mono_word(u), mono_word(v)
    if wu == wv:
        return ()
    if wu > wv:
        return tuple((m, -c) for m, c in _bracket_basis(v, u))
    # wu < wv, so the concatenation is Lyndon; [u, v] is standard exactly when
    # u is a letter or the right factor of u is >= v.
    if isinstance(u, int) or mono_word(u[1]) >= wv:
        return (((u, v), 1),)
    u1, u2 = u
    out: dict[Mono, int] = {}
    accumulate(out, (
        (m2, c * c2) for m, c in _bracket_basis(u1, v) for m2, c2 in _bracket_basis(m, u2)
    ))
    accumulate(out, (
        (m2, c * c2) for m, c in _bracket_basis(u2, v) for m2, c2 in _bracket_basis(u1, m)
    ))
    return tuple(sorted(out.items(), key=lambda item: mono_word(item[0])))


# ---------------------------------------------------------------------------
# Lie elements


class LieElement:
    """Exact linear combination of standard bracket monomials, truncated."""

    __slots__ = ("alphabet", "max_degree", "terms")

    def __init__(
        self,
        alphabet: tuple[str, ...],
        max_degree: int = DEFAULT_MAX_DEGREE,
        terms: dict[Mono, Fraction] | None = None,
    ):
        if not 1 <= max_degree <= HARD_DEGREE_CAP:
            raise ValueError(f"max_degree {max_degree} outside 1..{HARD_DEGREE_CAP}")
        self.alphabet = tuple(alphabet)
        self.max_degree = max_degree
        clean: dict[Mono, Fraction] = {}
        if terms:
            letters = len(self.alphabet)
            for mono, coeff in terms.items():
                if not all(0 <= i < letters for i in mono_word(mono)):
                    raise AlphabetMismatch(f"{mono} has a leaf outside the alphabet")
                if not is_standard(mono):
                    raise ValueError(f"{mono} is not a standard (Lyndon) monomial")
                coeff = Fraction(coeff)
                if coeff and mono_degree(mono) <= max_degree:
                    clean[mono] = coeff
        self.terms = clean

    def _with(self, terms: dict) -> "LieElement":
        """Wrap terms a Lie operation built itself (standard monomials of degree
        <= max_degree, nonzero Fractions); outside input goes through the constructor."""
        out = object.__new__(LieElement)
        out.alphabet, out.max_degree, out.terms = self.alphabet, self.max_degree, terms
        return out

    @classmethod
    def zero(cls, alphabet, max_degree: int = DEFAULT_MAX_DEGREE) -> "LieElement":
        return cls(alphabet, max_degree)

    @classmethod
    def generator(
        cls, alphabet, index: int, max_degree: int = DEFAULT_MAX_DEGREE
    ) -> "LieElement":
        if not 0 <= index < len(alphabet):
            raise AlphabetMismatch(f"generator index {index} outside alphabet")
        return cls(alphabet, max_degree, {index: Fraction(1)})

    def _check_operand(self, other: "LieElement") -> None:
        if self.alphabet != other.alphabet or self.max_degree != other.max_degree:
            raise AlphabetMismatch(
                "Lie elements live in different algebras "
                f"({self.alphabet} deg {self.max_degree} vs "
                f"{other.alphabet} deg {other.max_degree})"
            )

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check_operand(other)
        return self._with(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other) if isinstance(other, LieElement) else NotImplemented

    def __neg__(self):
        return self._with({m: -c for m, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree_part(self, n: int) -> "LieElement":
        return self._with({m: c for m, c in self.terms.items() if mono_degree(m) == n})

    def scale(self, scalar) -> "LieElement":
        scalar = Fraction(scalar)
        return self._with({m: c * scalar for m, c in self.terms.items()} if scalar else {})

    def __mul__(self, scalar) -> "LieElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self.scale(scalar)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        mine = (self.alphabet, self.max_degree, self.terms)
        return mine == (other.alphabet, other.max_degree, other.terms)

    def sorted_terms(self) -> list[tuple[Mono, Fraction]]:
        return sorted(
            self.terms.items(), key=lambda item: (mono_degree(item[0]), mono_word(item[0]))
        )

    def __str__(self) -> str:
        def body(mono, coeff):
            text = mono_str(mono, self.alphabet)
            return text if abs(coeff) == 1 else f"{abs(coeff)}*{text}"

        return signed_join((body(m, c), c) for m, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"LieElement({self})"

    def to_json_terms(self) -> list[dict[str, str]]:
        return [
            {"monomial": mono_str(m, self.alphabet), "coeff": str(c)}
            for m, c in self.sorted_terms()
        ]


def lie_bracket(a: LieElement, b: LieElement) -> LieElement:
    """Bilinear bracket, rewritten to the standard basis and truncated."""
    a._check_operand(b)
    out: dict[Mono, Fraction] = {}
    for m1, c1 in a.terms.items():
        d1 = mono_degree(m1)
        for m2, c2 in b.terms.items():
            if d1 + mono_degree(m2) > a.max_degree:
                continue
            factor = c1 * c2
            accumulate(out, ((mono, factor * c) for mono, c in _bracket_basis(m1, m2)))
    return a._with(out)


def apply_ad_series(coeffs, X: LieElement, V: LieElement) -> LieElement:
    """sum_p coeffs[p] * (ad X)^p (V), truncated; (ad X)^0 is the identity."""
    X._check_operand(V)
    coeffs = (Fraction(c) for c in coeffs)
    return power_series(X._with({}), V, lambda p: lie_bracket(X, p), coeffs)


# ---------------------------------------------------------------------------
# embedding into, and projection from, the associative algebra


@lru_cache(maxsize=None)
def _embed_mono(m: Mono, bits: int) -> tuple[tuple[int, int], ...]:
    """Expansion of a bracket monomial as words, via [a,b] = ab - ba: pairs of
    the word's code (see ``assoc.AssocPoly``) and an int coefficient."""
    if isinstance(m, int):
        return ((m, 1),)
    left, right = _embed_mono(m[0], bits), _embed_mono(m[1], bits)
    lshift, rshift = bits * mono_degree(m[0]), bits * mono_degree(m[1])
    out: dict[int, int] = {}
    for w1, c1 in left:
        for w2, c2 in right:
            c = c1 * c2
            accumulate(out, (((w1 << rshift) | w2, c), ((w2 << lshift) | w1, -c)))
    return tuple(sorted(out.items()))


def lie_embed(a: LieElement) -> "assoc.AssocPoly":
    """Realize brackets as associative commutators; generators become words."""
    poly, bits = assoc.AssocPoly(a.alphabet, a.max_degree), assoc._letter_bits(a.alphabet)
    den = lcm(*[c.denominator for c in a.terms.values()])
    rows: list[dict] = [{} for _ in range(a.max_degree + 1)]
    for mono, coeff in a.terms.items():
        factor = coeff.numerator * (den // coeff.denominator)
        accumulate(rows[mono_degree(mono)], [(w, factor * c) for w, c in _embed_mono(mono, bits)])
    return poly._with(rows, den)


@lru_cache(maxsize=None)
def _left_nested(length: int, code: int, bits: int) -> tuple[tuple[Mono, int], ...]:
    """[g1,[g2,[...,gn]]] for the word of this length and code, expanded over
    standard monomials."""
    if length == 1:
        return ((code, 1),)
    rest = bits * (length - 1)
    out: dict[Mono, int] = {}
    for mono, coeff in _left_nested(length - 1, code & ((1 << rest) - 1), bits):
        accumulate(out, ((m2, coeff * c2) for m2, c2 in _bracket_basis(code >> rest, mono)))
    return tuple(sorted(out.items(), key=lambda item: mono_word(item[0])))


def dynkin_project(p: "assoc.AssocPoly") -> LieElement:
    """Dynkin-Specht-Wever projection onto the free Lie algebra.

    Each word g1..gn maps to (1/n)[g1,[g2,[...,gn]]]; Lie elements of
    homogeneous degree are fixed, so this is a left inverse of lie_embed.
    The sum runs on ints, over p's denominator times lcm(1..trunc).
    """
    if p.weil_k is not None:
        raise NotAugmentation("projection is defined over rational coefficients")
    if p._rows[0]:
        raise NotAugmentation("polynomial has a nonzero constant term")
    zero = LieElement(p.alphabet, p.trunc)  # rejects trunc outside 1..HARD_DEGREE_CAP
    bits, span = assoc._letter_bits(p.alphabet), lcm(*range(1, p.trunc + 1))
    out: dict[Mono, int] = {}
    for length, row in enumerate(p._rows[1:], 1):
        f = span // length
        for code, n in row.items():
            accumulate(out, [(mono, n * f * c) for mono, c in _left_nested(length, code, bits)])
    den = p._den * span
    return zero._with({mono: Fraction(n, den) for mono, n in out.items()})
