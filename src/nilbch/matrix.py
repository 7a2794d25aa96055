"""Exact square matrices over the rationals or a Weil algebra.

The matrix model of ``weilcheck`` evaluates each catalog identity in seeded
strictly upper triangular matrices and the unitriangular group they
exponentiate to, over the k-generator Weil algebra of ``scalars``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .errors import AlgebraMismatch, NotInvertible, NotNilpotent
from .scalars import WeilElement, _check_k, accumulate, exp_series, geometric_series


class NilMatrix:
    """Square matrix over exact scalars (rationals or Weil elements).

    The Lie-algebra side uses strictly upper triangular matrices, the group
    side unitriangular ones; both make exp, log and inversion finite sums.
    Operands must share dim and scalar ring.

    Stored like a ``WeilElement``, as integer numerators over one common
    denominator for the whole matrix: ``_rows[i]`` maps ``(j << s) | mask``
    to the nonzero numerator of the ``mask`` term of entry (i, j), where s is
    ``weil_k`` (0 for a rational matrix, whose masks are all 0), and
    ``_den`` is positive with gcd(_den, every numerator) == 1.  Equal values
    thus have equal fields.  Products visit only pairs of nonzero terms whose
    masks are disjoint, and build no scalar per entry; ``rows`` is a
    read-only entry view, built on first read.
    """

    __slots__ = ("dim", "weil_k", "_rows", "_den", "_view")

    def __init__(self, dim: int, weil_k: int | None, rows):
        rows = [list(row) for row in rows]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise AlgebraMismatch(
                f"dim {dim} matrix given rows of widths {[len(r) for r in rows]}"
            )
        s = weil_k or 0
        terms = [[_entry_terms(weil_k, e) for e in row] for row in rows]
        # Over the lcm of reduced denominators the form is already canonical.
        den = lcm(*[d for row in terms for _, d in row])
        self._init(dim, weil_k, [
            {(j << s) | m: n * (den // d) for j, (nums, d) in enumerate(row)
             for m, n in nums.items()}
            for row in terms
        ], den)

    def _init(self, dim, weil_k, rows, den):
        self.dim = dim
        self.weil_k = weil_k
        self._rows = rows
        self._den = den
        self._view = None

    @classmethod
    def _trusted(cls, dim, weil_k, rows: list[dict], den: int) -> "NilMatrix":
        """Wrap rows of nonzero int numerators over a positive den, reducing by
        one gcd; the operations build such rows themselves."""
        if den != 1:
            g = gcd(den, *[n for row in rows for n in row.values()])
            if g != 1:
                rows = [{key: n // g for key, n in row.items()} for row in rows]
                den //= g
        self = object.__new__(cls)
        self._init(dim, weil_k, rows, den)
        return self

    def _with(self, rows: list[dict], den: int) -> "NilMatrix":
        return NilMatrix._trusted(self.dim, self.weil_k, rows, den)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The entries as Fractions or WeilElements, zeros included."""
        if self._view is None:
            k, s = self.weil_k, self.weil_k or 0
            low, den = (1 << s) - 1, self._den
            view = []
            for row in self._rows:
                entries = [{} for _ in range(self.dim)]
                for key, n in row.items():
                    entries[key >> s][key & low] = n
                if k is None:
                    view.append(tuple([Fraction(e.get(0, 0), den) for e in entries]))
                else:
                    view.append(tuple([WeilElement._trusted(k, e, den) for e in entries]))
            self._view = tuple(view)
        return self._view

    @classmethod
    def identity(cls, dim: int, weil_k: int | None = None) -> "NilMatrix":
        s = weil_k or 0
        return cls._trusted(dim, weil_k, [{i << s: 1} for i in range(dim)], 1)

    def lift(self, k: int) -> "NilMatrix":
        """Base change of a rational matrix into the k-generator Weil ring."""
        if self.weil_k is not None:
            raise ValueError("matrix already has Weil entries")
        _check_k(k)
        rows = [{j << k: n for j, n in row.items()} for row in self._rows]
        return NilMatrix._trusted(self.dim, k, rows, self._den)

    def _check_operand(self, other: "NilMatrix") -> None:
        if other.dim != self.dim or other.weil_k != self.weil_k:
            raise AlgebraMismatch(
                f"matrices of dim {self.dim}, weil_k {self.weil_k} and "
                f"dim {other.dim}, weil_k {other.weil_k}"
            )

    def __add__(self, other: "NilMatrix") -> "NilMatrix":
        if not isinstance(other, NilMatrix):
            return NotImplemented
        self._check_operand(other)
        d1, d2 = self._den, other._den
        if d1 == d2:  # nearly all sums in the checks: skip the rescaling
            return self._with(
                [accumulate(dict(r1), r2.items()) for r1, r2 in zip(self._rows, other._rows)],
                d1,
            )
        den = lcm(d1, d2)
        f1, f2 = den // d1, den // d2
        return self._with([
            accumulate({key: n * f1 for key, n in r1.items()},
                       [(key, n * f2) for key, n in r2.items()])
            for r1, r2 in zip(self._rows, other._rows)
        ], den)

    def __sub__(self, other: "NilMatrix") -> "NilMatrix":
        return self + (-other)

    def __neg__(self) -> "NilMatrix":
        rows = [{key: -n for key, n in row.items()} for row in self._rows]
        return NilMatrix._trusted(self.dim, self.weil_k, rows, self._den)

    def _product(self, right: list[dict], den: int) -> "NilMatrix":
        """out[i] += a[i][l] * right[l], over term pairs with disjoint masks."""
        s = self.weil_k or 0
        low = (1 << s) - 1
        out = []
        for row in self._rows:
            acc = {}
            for key1, n1 in row.items():
                m1 = key1 & low
                for key2, n2 in right[key1 >> s].items():
                    if not key2 & m1:  # a repeated generator gives d_i^2 = 0
                        key = key2 | m1
                        total = acc.get(key, 0) + n1 * n2
                        if total:
                            acc[key] = total
                        else:
                            del acc[key]
            out.append(acc)
        return self._with(out, self._den * den)

    def __mul__(self, other: "NilMatrix") -> "NilMatrix":
        if not isinstance(other, NilMatrix):
            return NotImplemented
        self._check_operand(other)
        return self._product(other._rows, other._den)

    def scale(self, scalar) -> "NilMatrix":
        if isinstance(scalar, WeilElement):
            if scalar.k != self.weil_k:
                raise AlgebraMismatch(
                    f"Weil scalar with k {scalar.k} on a matrix with weil_k {self.weil_k}"
                )
            # The product with the diagonal matrix scalar * 1.
            nums, s = scalar._nums, self.weil_k
            diagonal = [{(j << s) | m: n for m, n in nums.items()} for j in range(self.dim)]
            return self._product(diagonal, scalar._den)
        num, den = scalar.numerator, scalar.denominator
        if not num:
            return self._with([{} for _ in range(self.dim)], 1)
        rows = [{key: n * num for key, n in row.items()} for row in self._rows]
        return self._with(rows, self._den * den)

    def __eq__(self, other):
        if not isinstance(other, NilMatrix):
            return NotImplemented
        return (self.dim, self.weil_k, self._den, self._rows) == (
            other.dim, other.weil_k, other._den, other._rows
        )

    def __bool__(self) -> bool:
        return any(self._rows)

    def is_strictly_upper(self) -> bool:
        s = self.weil_k or 0
        return all(key >> s > i for i, row in enumerate(self._rows) for key in row)

    def exp(self) -> "NilMatrix":
        """exp of a strictly upper triangular (hence nilpotent) matrix."""
        if not self.is_strictly_upper():
            raise NotNilpotent("matrix exp needs a strictly upper triangular argument")
        return exp_series(self, NilMatrix.identity(self.dim, self.weil_k), self.dim - 1)

    def inv(self) -> "NilMatrix":
        """Inverse of a unitriangular matrix by the finite geometric series."""
        one = NilMatrix.identity(self.dim, self.weil_k)
        nil = one - self
        if not nil.is_strictly_upper():
            raise NotInvertible("matrix inverse needs a unitriangular argument")
        return geometric_series(nil, one, self.dim - 1)

    def entries_str(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.rows]

    def __repr__(self) -> str:
        return f"NilMatrix({self.rows})"


def _entry_terms(weil_k: int | None, entry) -> tuple[dict[int, int], int]:
    """The numerators by mask and the denominator of one constructor entry."""
    if weil_k is None and isinstance(entry, (int, Fraction)):
        return ({0: entry.numerator} if entry else {}), entry.denominator
    if isinstance(entry, WeilElement) and entry.k == weil_k:
        return entry._nums, entry._den
    raise AlgebraMismatch(f"entry {entry!r} outside the scalar ring of weil_k {weil_k}")


def gen_nilmatrix(dim: int, seed: int, count: int = 2) -> tuple[NilMatrix, ...]:
    """Seeded strictly upper triangular rational matrices with small entries.

    The superdiagonal is kept nonzero so a single matrix already realizes the
    full nilpotency class dim - 1.
    """
    if dim < 2:
        raise ValueError(f"matrix dimension must be at least 2, got {dim}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows = []
        for i in range(dim):
            row = {}
            for j in range(i + 1, dim):
                if j == i + 1:
                    value = rng.choice([-3, -2, -1, 1, 2, 3])
                else:
                    value = rng.randint(-3, 3)
                if value:
                    row[j] = value
            rows.append(row)
        out.append(NilMatrix._trusted(dim, None, rows, 1))
    return tuple(out)
