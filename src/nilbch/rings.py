"""The coefficient rings of ``AssocPoly`` and ``NilMatrix``.

The ring is None for Q or a tuple of orders (n1, ..., nk) for the Weil
algebra Q[x1..xk]/(x1^(n1+1), ..., xk^(nk+1)) of ``scalars.WeilElement``.
A row key of either algebra holds an index (a word code or a column) above
the term's key in the ring (``scalars.key_shift``); ``encode_scalar`` and
``decode_row`` translate coefficients, ``scalar_numerators`` checks a
scalar against the ring, and ``ring_scale`` scales either algebra.  Every
product over a ring reads its one multiplication table,
``scalars.pair_factors``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, GeneratorCountMismatch
from .scalars import WeilElement, key_shift, rational, scale_terms


def scalar_numerators(ring, scalar: WeilElement) -> tuple[dict[int, int], int]:
    """The numerators by key and the denominator of a scalar of the ring,
    which is not None (the rationals)."""
    if ring != scalar.ring:
        if ring is None:
            raise AlgebraMismatch(f"scalar {scalar!r} in a rational algebra")
        raise GeneratorCountMismatch(f"scalar {scalar!r} in the ring {ring}")
    return scalar._rows[0], scalar._den


def ring_scale(p, scalar):
    """p times a central scalar, for an ``AssocPoly`` or ``NilMatrix`` p, the
    ``scale`` of both: a rational scales the numerators, and a scalar of p's
    ring multiplies them term by term (``scalars.scale_terms``)."""
    if isinstance(scalar, WeilElement):
        ring = p.ring
        return scale_terms(p, ring, *scalar_numerators(ring, scalar))
    return p._scaled(scalar)


def encode_scalar(ring, index: int, value) -> list[tuple[int, Fraction]]:
    """The (key, nonzero Fraction) terms of a coefficient at ``index`` of an
    ``AssocPoly`` or ``NilMatrix`` row, keyed (index << key_shift(ring)) |
    key.  Every ring contains Q."""
    s = key_shift(ring)
    if isinstance(value, WeilElement):
        nums, den = scalar_numerators(ring, value)
        return [((index << s) | key, Fraction(n, den)) for key, n in nums.items()]
    value = rational(value)
    return [(index << s, value)] if value else []


def decode_row(ring, row: dict[int, int], den: int) -> dict:
    """A numerator row over ``den`` as a map from each index, in increasing
    order, to its nonzero coefficient: a Fraction over Q (ring None), else a
    ``WeilElement`` of the ring."""
    if ring is None:
        return {key: Fraction(row[key], den) for key in sorted(row)}
    s = key_shift(ring)
    low, by_index = (1 << s) - 1, {}
    for key in sorted(row):
        by_index.setdefault(key >> s, {})[key & low] = row[key]
    alg = (ring,)
    return {i: WeilElement._make(alg, [nums], den) for i, nums in by_index.items()}
