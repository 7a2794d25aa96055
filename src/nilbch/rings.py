"""The coefficient rings of ``AssocPoly`` and ``NilMatrix``.

``weil_k`` selects one: Q when it is None, the Weil ring of k generators
when it is k > 0, and Q[t]/(t^(n+1)) when it is -n.  A row key of either
algebra holds an index (a word code or a column) above the term's key in
the ring, a Weil mask or a t-exponent (``scalars.key_shift``);
``encode_scalar`` and ``decode_row`` translate coefficients,
``scalar_numerators`` checks a scalar against the ring, and ``ring_scale``
scales either algebra.  Every product over a ring reads its one
multiplication table, ``scalars.pair_factors``.

Q[t]/(t^(n+1)) is ``TElement``.  t -> sd = d1 + ... + dn embeds it in the
n-generator Weil ring, since sd^m = m! em(m) (lemma 6.0) and em(1..n) are
linearly independent, so an identity whose weights are all powers of sd is
decided alike in both rings, with coefficients of at most n + 1 terms
instead of 2^n.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, GeneratorCountMismatch
from .scalars import WeilElement, _LocalScalar, _subset_masks, key_shift, rational, scale_terms


class TElement(_LocalScalar):
    """Element of Q[t]/(t^(k+1)) in its divided-power basis t^[e] = t^e / e!,
    keyed by e: t^[a] t^[b] = C(a+b, a) t^[a+b], and a sum above k drops,
    as ``scalars.pair_factors(-k)`` tabulates.

    t -> sd = d1 + ... + dk maps t^[e] to em(e) (lemma 6.0), so the map
    into the k-generator Weil ring (``weil_image``) keeps every numerator.
    """

    __slots__ = ()
    _sign = -1

    @staticmethod
    def _check_key(k: int, e: int) -> None:
        if not 0 <= e <= k:
            raise GeneratorCountMismatch(f"t-exponent {e} outside 0..{k}")

    def weil_image(self) -> WeilElement:
        """The image under t -> sd: each t^[e] becomes em(e)."""
        nums = {}
        for e, n in self._rows[0].items():
            nums.update(dict.fromkeys(_subset_masks(self.k, e), n))
        return WeilElement._make(self._alg, [nums], self._den)

    @staticmethod
    def _monomial(e: int) -> str:
        return "" if not e else "t" if e == 1 else f"t^[{e}]"


def scalar_type(weil_k: int) -> tuple[type, int]:
    """The scalar class and its k of the ring that a weil_k other than None selects."""
    return (WeilElement, weil_k) if weil_k > 0 else (TElement, -weil_k)


def scalar_numerators(weil_k: int | None, scalar: _LocalScalar) -> tuple[dict[int, int], int]:
    """The numerators by key and the denominator of a scalar of the ring
    weil_k selects, or of none (weil_k None: the rationals)."""
    if weil_k != scalar._sign * scalar.k:
        if weil_k is None:
            raise AlgebraMismatch(f"scalar {scalar!r} in a rational algebra")
        raise GeneratorCountMismatch(f"scalar {scalar!r} in the ring of weil_k {weil_k}")
    return scalar._rows[0], scalar._den


def ring_scale(p, scalar):
    """p times a central scalar, for an ``AssocPoly`` or ``NilMatrix`` p, the
    ``scale`` of both: a rational scales the numerators, and a scalar of p's
    ring multiplies them term by term (``scalars.scale_terms``)."""
    if isinstance(scalar, _LocalScalar):
        weil_k = p.weil_k
        return scale_terms(p, weil_k, *scalar_numerators(weil_k, scalar))
    return p._scaled(scalar)


def encode_scalar(weil_k: int | None, index: int, value) -> list[tuple[int, Fraction]]:
    """The (key, nonzero Fraction) terms of a coefficient at ``index`` of an
    ``AssocPoly`` or ``NilMatrix`` row, keyed (index << key_shift(weil_k)) |
    key.  The ring is Q when weil_k is None, else the ring weil_k selects,
    which contains Q."""
    s = key_shift(weil_k)
    if isinstance(value, _LocalScalar):
        nums, den = scalar_numerators(weil_k, value)
        return [((index << s) | key, Fraction(n, den)) for key, n in nums.items()]
    value = rational(value)
    return [(index << s, value)] if value else []


def decode_row(weil_k: int | None, row: dict[int, int], den: int) -> dict:
    """A numerator row over ``den`` as a map from each index, in increasing
    order, to its nonzero coefficient: a Fraction, or a scalar of the ring
    weil_k selects when it is set."""
    if weil_k is None:
        return {key: Fraction(row[key], den) for key in sorted(row)}
    (kind, k), s = scalar_type(weil_k), key_shift(weil_k)
    low, by_index = (1 << s) - 1, {}
    for key in sorted(row):
        by_index.setdefault(key >> s, {})[key & low] = row[key]
    alg = (k,)
    return {i: kind._make(alg, [nums], den) for i, nums in by_index.items()}
