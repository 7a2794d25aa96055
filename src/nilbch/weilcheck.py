"""Mechanical verification of the catalog identities in two exact models.

Every catalog entry writes one numbered statement as pairs of sides, in the
expression language of ``series``, and ``series.evaluate`` rebuilds them
exactly as written: each exp of an infinitesimally weighted Lie expression
becomes a truncated exponential of its associative (or matrix) image, group
inverses are computed by actual inversion rather than by negating exponents,
and the check subtracts the sides of each pair.  PASS means every difference
is exactly zero.

Two models are available.  The *free* model works in the truncated free
associative algebra over the Weil ring.  Where every exponent carries an
infinitesimal the truncation cuts nothing, so a PASS there holds in every
instance; ``prop-4.4`` and ``prop-5.3`` exponentiate plain generators and
are checked only through degree ``trunc``.  The *matrix* model evaluates in
a seeded unitriangular rational matrix group; it is a quotient, so a PASS is
necessary but not sufficient for free-model validity, and the suite checks
that implication rather than assuming it.  ``consistency-7v8`` compares two
tables' degree-4 entries as Lie elements of degree at most 4, whichever
model is asked for.
"""

from __future__ import annotations

import operator
import time
from fnmatch import fnmatchcase
from fractions import Fraction
from functools import cache, reduce
from math import factorial
from typing import NamedTuple

from .assoc import AssocPoly, poly_exp, poly_inv
from .errors import (
    DegreeOutOfRange,
    InsufficientModel,
    NilbchError,
    UnknownIdentity,
)
from .freelie import HARD_DEGREE_CAP, default_names
from .matrix import NilMatrix, gen_nilmatrix
from .scalars import WeilElement, weil_power_sum, weil_sum
from .series import (
    AD,
    EM,
    EXP,
    INV,
    MUL,
    ONE,
    PAPER_TABLES,
    POW,
    D,
    _TableContext,
    _X,
    _XY,
    _Y,
    _entry,
    _lin,
    _XpY,
    evaluate,
    paper_table,
)

DEFAULT_TRUNC = 6
DEFAULT_DIM = 5
DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# evaluation contexts


@cache
def _weight(k: int, coeff, shape, m) -> WeilElement:
    """coeff times em(m) (EM), sd^m with sd = d1 + ... + dk (POW), or the
    product of the d_i listed in m (D), in the k-generator Weil algebra.

    Computed once per process: the keys come only from the catalog, and
    the values are immutable.
    """
    if shape == EM:
        weight = weil_power_sum(k, m)
    elif shape == POW:
        weight = reduce(operator.mul, [weil_sum(k)] * m)
    elif shape == D:
        weight = reduce(operator.mul, [WeilElement.generator(k, i) for i in m])
    else:
        raise ValueError(f"unknown weight shape {shape!r}")
    return weight if coeff == 1 else weight * coeff


class _Context:
    """One model: generator images, the unit, exp, inverse and the FAIL witness;
    the bracket is the commutator.

    The Weil weights live in the k-generator Weil algebra, whichever model
    the context is.
    """

    def __init__(self, k: int, gens: list, one, exp, inv, witness):
        self.k = k
        self._gens = gens
        self._one = one
        self.exp = exp
        self.inv = inv
        self.witness = witness

    def gen_img(self, i: int):
        return self._gens[i]

    def one(self):
        return self._one

    @staticmethod
    def bracket(a, b):
        return a * b - b * a

    def weight(self, coeff, shape, m) -> WeilElement:
        return _weight(self.k, coeff, shape, m)


def _poly_witness(diff: AssocPoly) -> dict:
    terms = list(diff.terms.items())
    lead_word, lead_coeff = terms[0]
    return {
        "kind": "polynomial",
        "lead": {"word": diff.word_str(lead_word), "coeff": str(lead_coeff)},
        "terms": [{"word": diff.word_str(w), "coeff": str(c)} for w, c in terms],
    }


def _matrix_witness(diff: NilMatrix) -> dict:
    lead = next(
        {"row": i, "col": j, "coeff": str(e)}
        for i, row in enumerate(diff.rows)
        for j, e in enumerate(row)
        if e
    )
    return {"kind": "matrix", "lead": lead, "entries": diff.entries_str()}


def _free_context(names: tuple[str, ...], k: int, trunc: int) -> _Context:
    """The free model: the truncated free algebra over the k-generator Weil ring."""
    gens = [AssocPoly.generator(names, i, trunc, k) for i in range(len(names))]
    return _Context(k, gens, AssocPoly.one(names, trunc, k), poly_exp, poly_inv, _poly_witness)


def _matrix_context(k: int, dim: int, seed: int, count: int) -> _Context:
    """The matrix model: seeded dim x dim nilpotent matrices over the Weil ring."""
    gens = [m.lift(k) for m in gen_nilmatrix(dim, seed, count)]
    one = NilMatrix.identity(dim, k)
    return _Context(k, gens, one, NilMatrix.exp, NilMatrix.inv, _matrix_witness)


# ---------------------------------------------------------------------------
# catalog expressions, in the language of ``series``

_EXP_X = (EXP, _X)
_D1_X = _entry(1, D, (1,), _X)
_EXP_D1_X, _EXP_D1_Y = (EXP, _D1_X), (EXP, _entry(1, D, (1,), _Y))
_EXP_D2_Y = (EXP, _entry(1, D, (2,), _Y))
_EXP_D1_XpY = (EXP, _entry(1, D, (1,), _XpY))
_EXP_D1_X_EXP_D1_Y = (MUL, _EXP_D1_X, _EXP_D1_Y)
_EXP_SD_X, _EXP_SD_Y = (EXP, _entry(1, POW, 1, _X)), (EXP, _entry(1, POW, 1, _Y))


def _zassenhaus(order: int, form: str):
    """The pair exp(sd(X+Y)) = exp(sd X) exp(sd Y) and one exp per table entry."""
    factors = [(EXP, entry) for entry in paper_table("zassenhaus", "sec6", form, order)]
    return (EXP, _entry(1, POW, 1, _XpY)), (MUL, _EXP_SD_X, _EXP_SD_Y, *factors)


def _bch(order: int, variant: str, form: str = "a"):
    """The pair exp(sd X) exp(sd Y) = exp of the sum of the table entries."""
    terms = [(1, entry) for entry in paper_table("bch", variant, form, order)]
    return (MUL, _EXP_SD_X, _EXP_SD_Y), (EXP, _lin(*terms))


# ---------------------------------------------------------------------------
# the catalog


class _Identity(NamedTuple):
    id: str
    n_d: int          # infinitesimals used
    order: int        # bracket order reached; bounds trunc and dim below
    pairs: tuple      # (left, right) side expressions; PASS when every pair is equal
    gens: int = 2     # model generators: one more than the largest index used
    lie_degree: int = 0  # if set, decided among Lie elements of this degree in any model


CATALOG: tuple[_Identity, ...] = (
    _Identity("prop-2.1", 2, 2, (
        (_EXP_SD_X, (MUL, _EXP_D1_X, (EXP, _entry(1, D, (2,), _X)))),
    ), gens=1),
    # a chain of three sides: the middle one is shared, so it is evaluated once
    _Identity("prop-2.2", 1, 2, (
        (_EXP_D1_XpY, _EXP_D1_X_EXP_D1_Y),
        (_EXP_D1_X_EXP_D1_Y, (MUL, _EXP_D1_Y, _EXP_D1_X)),
    )),
    _Identity("thm-2.3", 2, 2, (
        ((MUL, _EXP_D1_X, _EXP_D2_Y, (INV, _EXP_D1_X), (INV, _EXP_D2_Y)),
         (EXP, _entry(1, D, (1, 2), _XY))),
    )),
    _Identity("lemma-2.5", 0, 4, (((_X, (_Y, _XY)), (_Y, (_X, _XY))),)),
    _Identity("prop-4.4", 0, 2, (((MUL, _EXP_X, _Y, (INV, _EXP_X)), (AD, "exp", _X, _Y)),)),
    _Identity("prop-4.5", 1, 1, ((_EXP_D1_X, _lin((1, (ONE,)), (1, _D1_X))),), gens=1),
    # the commuting pair X and X
    _Identity("prop-5.3", 0, 2, (((MUL, _EXP_X, _EXP_X), (EXP, _lin((1, _X), (1, _X)))),),
              gens=1),
    _Identity("prop-5.4", 2, 2, (
        ((MUL, _EXP_D1_X, _EXP_D2_Y),
         (MUL, _EXP_D2_Y, _EXP_D1_X, (EXP, _entry(1, D, (1, 2), _XY)))),
    )),
    # sd^m / m! = em(m), as multiples of the unit
    _Identity("lemma-6.0", 5, 1, tuple(
        (_entry(Fraction(1, factorial(m)), POW, m, (ONE,)), _entry(1, EM, m, (ONE,)))
        for m in range(1, 6)
    ), gens=0),
    _Identity("thm-6.1", 1, 1, ((_EXP_D1_XpY, _EXP_D1_X_EXP_D1_Y),)),
    _Identity("thm-6.2a", 2, 2, (_zassenhaus(2, "a"),)),
    _Identity("thm-6.2b", 2, 2, (_zassenhaus(2, "b"),)),
    _Identity("thm-6.3a", 3, 3, (_zassenhaus(3, "a"),)),
    _Identity("thm-6.3b", 3, 3, (_zassenhaus(3, "b"),)),
    _Identity("thm-6.4a", 4, 4, (_zassenhaus(4, "a"),)),
    _Identity("thm-6.4b", 4, 4, (_zassenhaus(4, "b"),)),
    _Identity("thm-7.1", 1, 1, (_bch(1, "sec7"),)),
    _Identity("thm-7.2a", 2, 2, (_bch(2, "sec7"),)),
    _Identity("thm-7.2b", 2, 2, (_bch(2, "sec7", "b"),)),
    _Identity("cor-7.2.1", 2, 2, (
        ((MUL, _EXP_SD_X, _EXP_SD_Y, (EXP, _entry(1, POW, 1, 2))),
         (EXP, _lin(
             (1, _entry(1, POW, 1, _lin((1, 0), (1, 1), (1, 2)))),
             (1, _entry(1, D, (1, 2), _lin((1, (0, 1)), (1, (0, 2)), (1, (1, 2))))),
         ))),
    ), gens=3),
    _Identity("thm-7.3a", 3, 3, (_bch(3, "sec7"),)),
    _Identity("thm-7.3b", 3, 3, (_bch(3, "sec7", "b"),)),
    _Identity("thm-7.4a", 4, 4, (_bch(4, "sec7"),)),
    _Identity("thm-7.4b", 4, 4, (_bch(4, "sec7", "b"),)),
    _Identity("thm-8.1", 1, 1, (_bch(1, "sec8"),)),
    _Identity("thm-8.2", 2, 2, (_bch(2, "sec8"),)),
    _Identity("thm-8.3", 3, 3, (_bch(3, "sec8"),)),
    _Identity("thm-8.4", 4, 4, (_bch(4, "sec8"),)),
    # the degree-4 entries of the two BCH tables, as Lie elements
    _Identity("consistency-7v8", 4, 1, (
        (PAPER_TABLES["bch", "sec7", "a"][3], PAPER_TABLES["bch", "sec8", "a"][3]),
    ), lie_degree=4),
)

_BY_ID = {entry.id: entry for entry in CATALOG}


# ---------------------------------------------------------------------------
# reports


class CheckParams(NamedTuple("_Params", [("trunc", "int | None"), ("dim", int), ("seed", int)])):
    """Model parameters; trunc=None means the minimum each identity needs."""

    def __new__(cls, trunc=DEFAULT_TRUNC, dim=DEFAULT_DIM, seed=DEFAULT_SEED):
        # Rejected before any identity runs.  Only trunc bounds the words of
        # an identity without infinitesimals (prop-4.4 costs about trunc^3),
        # and dim - 1 is the matrix model's nilpotency class.
        if trunc is not None and trunc > HARD_DEGREE_CAP:
            raise DegreeOutOfRange(
                f"check truncation {trunc} above the limit of {HARD_DEGREE_CAP}"
            )
        if dim > HARD_DEGREE_CAP + 1:
            raise DegreeOutOfRange(
                f"check matrix dimension {dim} above the limit of "
                f"{HARD_DEGREE_CAP + 1} (nilpotency class {HARD_DEGREE_CAP})"
            )
        return super().__new__(cls, trunc, dim, seed)

    def to_json_obj(self) -> dict:
        return {"trunc": self.trunc, "dim": self.dim, "seed": self.seed}


class CheckReport(NamedTuple):
    id: str
    model: str
    params: CheckParams
    verdict: str
    witness: dict | None
    elapsed_ms: float

    def to_json_obj(self, include_elapsed: bool = False) -> dict:
        obj = {
            "id": self.id,
            "model": self.model,
            "params": self.params.to_json_obj(),
            "verdict": self.verdict,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if include_elapsed:
            obj["elapsed_ms"] = self.elapsed_ms
        return obj


REPORT_SCHEMA = {
    "type": "object",
    "required": ["id", "model", "params", "verdict"],
    "additionalProperties": False,
    "properties": {
        "id": {"type": "string"},
        "model": {"enum": ["free", "matrix"]},
        "params": {
            "type": "object",
            "required": ["trunc", "dim", "seed"],
            "additionalProperties": False,
            "properties": {
                "trunc": {"type": "integer"},
                "dim": {"type": "integer"},
                "seed": {"type": "integer"},
            },
        },
        "verdict": {"enum": ["PASS", "FAIL"]},
        "witness": {"type": "object"},
        "elapsed_ms": {"type": "number"},
    },
}


def _context_for(entry: _Identity, model: str, params: CheckParams):
    if model == "free":
        what, need, got = "truncation", entry.order, params.trunc
    elif model == "matrix":
        what, need, got = "matrix dimension", entry.order + 1, params.dim
    else:
        raise ValueError(f"unknown model {model!r}")
    if got < need:
        raise InsufficientModel(f"{entry.id} needs {what} >= {need}, got {got}")
    if entry.lie_degree:
        return _TableContext(entry.lie_degree)
    k = max(entry.n_d, 1)
    if model == "free":
        return _free_context(default_names(entry.gens), k, params.trunc)
    return _matrix_context(k, params.dim, params.seed, entry.gens)


def check_identity(
    identity_id: str, model: str = "free", params: CheckParams | None = None
) -> CheckReport:
    """Evaluate one catalog identity literally and report PASS or FAIL: the
    witness is the first nonzero difference of a side pair."""
    entry = _BY_ID.get(identity_id)
    if entry is None:
        raise UnknownIdentity(identity_id)
    if params is None:
        params = CheckParams()
    if params.trunc is None:
        params = CheckParams(entry.order, params.dim, params.seed)
    start = time.perf_counter()
    ctx, memo, witness = _context_for(entry, model, params), {}, None
    for left, right in entry.pairs:
        diff = evaluate(ctx, left, memo) - evaluate(ctx, right, memo)
        if diff:
            witness = ctx.witness(diff)
            break
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        id=identity_id,
        model=model,
        params=params,
        verdict="PASS" if witness is None else "FAIL",
        witness=witness,
        elapsed_ms=elapsed_ms,
    )


def run_suite(
    pattern: str = "*", model: str = "free", params: CheckParams | None = None
) -> tuple[list[CheckReport], list[tuple[str, str]]]:
    """Run all catalog identities matching the pattern, in catalog order.

    Per-check input errors (any NilbchError, such as InsufficientModel) are
    collected rather than aborting the rest; they come back as (id, message)
    pairs alongside the reports.  Any other exception is a programming error
    and propagates.
    """
    reports: list[CheckReport] = []
    errors: list[tuple[str, str]] = []
    for entry in CATALOG:
        if not fnmatchcase(entry.id, pattern):
            continue
        try:
            reports.append(check_identity(entry.id, model, params))
        except NilbchError as exc:
            errors.append((entry.id, f"{type(exc).__name__}: {exc}"))
    return reports, errors
