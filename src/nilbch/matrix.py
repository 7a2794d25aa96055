"""Exact square matrices over the rationals or a Weil algebra.

The matrix model of ``weilcheck`` evaluates each catalog identity in seeded
strictly upper triangular matrices and the unitriangular group they
exponentiate to, over a Weil algebra of ``scalars`` named by its tuple of
orders: the Weil ring (1,)*k or Q[t]/(t^(n+1)), which is (n,).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import AlgebraMismatch, NotInvertible, NotNilpotent
from .rings import decode_row, encode_scalar, ring_scale
from .scalars import (Numerators, WeilElement, check_ring, exp_series, geometric_series, key_shift,
                      over_lcm, pair_factors)


class NilMatrix(Numerators):
    """Square matrix over exact scalars: rationals when ``ring`` is None,
    else ``WeilElement``s of the ring.

    The Lie-algebra side uses strictly upper triangular matrices, the group
    side unitriangular ones; both make exp, log and inversion finite sums.
    Operands must share dim and scalar ring.

    Stored like a ``WeilElement`` (see ``scalars.Numerators``), as integer
    numerators over one common denominator for the whole matrix: ``_rows[i]``
    maps ``(j << s) | key`` to the nonzero numerator of the ``key`` term of
    entry (i, j), where s is ``scalars.key_shift(ring)`` (0 for a rational
    matrix, whose keys are all 0) and ``key`` a key of the ring, as
    ``rings.encode_scalar`` and ``decode_row`` translate.  Products
    visit only pairs of nonzero terms, multiply them by the ring's
    ``scalars.pair_factors`` and build no scalar per entry; ``rows`` is a
    read-only entry view, built on first read and kept in ``_view``.
    """

    __slots__ = ("_view",)
    _algebra = ("dim", "ring")

    def __init__(self, dim: int, ring: tuple | None, rows):
        check_ring(ring)
        rows = [list(row) for row in rows]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise AlgebraMismatch(
                f"dim {dim} matrix given rows of widths {[len(r) for r in rows]}"
            )
        self._alg = (dim, ring)
        self._rows, self._den = over_lcm([
            [term for j, e in enumerate(row) for term in encode_scalar(ring, j, e)]
            for row in rows
        ])

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The entries as Fractions or ring scalars, zeros included."""
        try:
            return self._view
        except AttributeError:
            pass
        dim, ring = self._alg
        zero = Fraction(0) if ring is None else WeilElement.zero(ring)
        entries = [decode_row(ring, row, self._den) for row in self._rows]
        self._view = tuple([tuple([e.get(j, zero) for j in range(dim)]) for e in entries])
        return self._view

    @classmethod
    def identity(cls, dim: int, ring: tuple | None = None) -> "NilMatrix":
        check_ring(ring)
        s = key_shift(ring)
        return cls._make((dim, ring), [{i << s: 1} for i in range(dim)], 1)

    def lift(self, ring: tuple) -> "NilMatrix":
        """Base change of a rational matrix into the ring."""
        if self.ring is not None:
            raise ValueError("matrix already has entries in a ring other than Q")
        check_ring(ring)
        s = key_shift(ring)
        rows = [{j << s: n for j, n in row.items()} for row in self._rows]
        return NilMatrix._make((self.dim, ring), rows, self._den)

    def _add_product(self, out: list[dict], left: list[dict], right: list[dict], factor: int):
        """out[i] += factor * left[i][l] * right[l], two terms multiplied by
        the ring's ``scalars.pair_factors``: a key (l << s) | e1 meets the keys
        (j << s) | e2 of row l, and their product is keyed (j << s) + e1 + e2."""
        ring = self.ring
        s, factors = key_shift(ring), pair_factors(ring)
        low = (1 << s) - 1
        for row, acc in zip(left, out):
            for key1, n1 in row.items():
                e1 = key1 & low
                factor1, m1 = factors[e1], n1 * factor
                for key2, n2 in right[key1 >> s].items():
                    f = factor1[key2 & low]
                    if f:
                        key = key2 + e1
                        total = acc.get(key, 0) + m1 * n2 * f
                        if total:
                            acc[key] = total
                        else:
                            del acc[key]

    def __mul__(self, other: "NilMatrix") -> "NilMatrix":
        if not isinstance(other, NilMatrix):
            return NotImplemented
        self._check_operand(other)
        out = [{} for _ in self._rows]
        self._add_product(out, self._rows, other._rows, 1)
        return self._with(out, self._den * other._den)

    scale = ring_scale  # shared with AssocPoly

    def is_strictly_upper(self) -> bool:
        s = key_shift(self.ring)
        return all(key >> s > i for i, row in enumerate(self._rows) for key in row)

    def exp(self) -> "NilMatrix":
        """exp of a strictly upper triangular (hence nilpotent) matrix."""
        if not self.is_strictly_upper():
            raise NotNilpotent("matrix exp needs a strictly upper triangular argument")
        dim, ring = self._alg
        return exp_series(self, NilMatrix.identity(dim, ring), dim - 1)

    def inv(self) -> "NilMatrix":
        """Inverse of a unitriangular matrix by the finite geometric series."""
        dim, ring = self._alg
        one = NilMatrix.identity(dim, ring)
        nil = one - self
        if not nil.is_strictly_upper():
            raise NotInvertible("matrix inverse needs a unitriangular argument")
        return geometric_series(nil, one, dim - 1)

    def __repr__(self) -> str:
        return f"NilMatrix({self.rows})"


_SUPERDIAGONAL = (-3, -2, -1, 1, 2, 3)


def gen_nilmatrix(dim: int, seed: int, count: int = 2) -> tuple[NilMatrix, ...]:
    """Seeded strictly upper triangular rational matrices with small entries.

    The superdiagonal is kept nonzero so a single matrix already realizes the
    full nilpotency class dim - 1.  Each entry is drawn from three random
    bits by rejection, as CPython's ``choice`` of the six superdiagonal
    values and ``randint(-3, 3)`` draw it, so the matrices are theirs.
    """
    if dim < 2:
        raise ValueError(f"matrix dimension must be at least 2, got {dim}")
    bits, alg = random.Random(seed).getrandbits, (dim, None)
    out = []
    for _ in range(count):
        rows = []
        for i in range(1, dim):
            r = bits(3)
            while r >= 6:
                r = bits(3)
            row = {i: _SUPERDIAGONAL[r]}
            for j in range(i + 1, dim):
                r = bits(3)
                while r == 7:
                    r = bits(3)
                if r != 3:
                    row[j] = r - 3
            rows.append(row)
        rows.append({})
        out.append(NilMatrix._make(alg, rows, 1))
    return tuple(out)
