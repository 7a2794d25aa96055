"""Mechanical verification of the catalog identities in two exact models.

Every entry of ``catalog`` writes one numbered statement as pairs of sides,
in the expression language of ``series``, and ``series.evaluate`` rebuilds
them exactly as written: each exp of an infinitesimally weighted Lie
expression becomes a truncated exponential of its associative (or matrix)
image, group inverses are computed by actual inversion rather than by
negating exponents, and the check subtracts the sides of each pair.  PASS
means every difference is exactly zero.

Two models are available, each over the coefficient ring ``_plan`` picks
from the statement's weights.  A statement with a generator whose weights
are all sd^m or em(m), sd = d1 + ... + dn (the 17 built from the tables of
sections 6-8), is decided over Q[t]/(t^(n+1)), the ring of orders (n,):
t -> sd (``WeilElement.weil_image``) is an injective ring map into the Weil
ring (1,)*n by lemma 6.0, sd^m = m! em(m), so a difference vanishes there
exactly when its image does, and a FAIL witness writes every coefficient as
that image.  Every other statement, ``lemma-6.0`` itself among them, is
decided over the Weil ring.  In both rings sd^m is a product of m copies of
sd (``_weight``), so sd^m = m! em(m) is computed, never assumed.

The *free* model works in the truncated free associative algebra over the
ring, and stops at the statement's reach.  Where every generator occurrence
carries an infinitesimal (``_plan``), each term has at least as many
infinitesimals as letters, and in a ring of n infinitesimals a product of
more than n vanishes, so no word longer than n survives: the model is built
at truncation min(trunc, n), the truncation cuts nothing, and a PASS holds
in every instance.  Three statements are not bounded so.  ``prop-4.4`` and
``prop-5.3`` exponentiate plain generators and are checked only through
degree ``trunc``; ``lemma-2.5`` brackets plain generators, and its PASS is
still exact because both its sides are homogeneous of degree 4.

The *matrix* model evaluates in a seeded unitriangular rational matrix
group, its entries base-changed to the ring; it is a quotient, so a PASS is
necessary but not sufficient for free-model validity, and the suite checks
that implication rather than assuming it.
``consistency-7v8`` compares two tables' degree-4 entries as Lie elements of
degree at most 4, whichever model is asked for.
"""

from __future__ import annotations

import operator
import time
from fnmatch import fnmatchcase
from fractions import Fraction
from functools import cache, reduce
from math import inf
from typing import NamedTuple

from .assoc import AssocPoly, poly_exp, poly_inv
from .errors import (
    DegreeOutOfRange,
    InsufficientModel,
    NilbchError,
    UnknownIdentity,
)
from .catalog import _BY_ID, CATALOG, _Identity
from .freelie import HARD_DEGREE_CAP, default_names
from .matrix import NilMatrix, gen_nilmatrix
from .scalars import WeilElement
from .series import AD, EM, EXP, INV, LIN, MUL, ONE, POW, Context, D, _lie_context, evaluate

DEFAULT_TRUNC = 6
DEFAULT_DIM = 5
DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# evaluation contexts


@cache
def _weight(ring: tuple, num: int, den: int, shape, m) -> WeilElement:
    """coeff = num/den times em(m) (EM), sd^m with sd = d1 + ... + dk (POW),
    or the product of the d_i listed in m (D).  In every ring em(m) and sd
    are t^[m] and t of the ring (k,), k = sum(ring), taken into the Weil ring
    (1,)*k by ``weil_image`` when that is the ring, and sd^m is a product of
    m copies of sd, so sd^m = m! em(m) comes from ``pair_factors``, and
    ``lemma-6.0`` checks, rather than assumes, it.

    Computed once per process: the keys come only from the catalog, and
    the values are immutable.  The coefficient is keyed by its two ints,
    since hashing a Fraction costs a modular inverse on every lookup.
    """
    coeff = Fraction(num, den)
    if shape in (EM, POW):
        t_ring = (sum(ring),)
        weight = WeilElement(t_ring, {m if shape == EM else 1: 1})
        if ring != t_ring:
            weight = weight.weil_image()
        if shape == POW:
            weight = reduce(operator.mul, [weight] * m)
    elif shape == D:
        weight = reduce(operator.mul, [WeilElement.generator(ring, i) for i in m])
    else:
        raise ValueError(f"unknown weight shape {shape!r}")
    return weight if coeff == 1 else weight * coeff


def _weigher(ring: tuple):
    """The ``weight(coeff, shape, m)`` of a model over the ring (``_plan``)."""
    return lambda coeff, shape, m: _weight(ring, coeff.numerator, coeff.denominator, shape, m)


def _weil_text(scalar: WeilElement) -> str:
    return str(scalar.weil_image())


def _poly_witness(diff: AssocPoly) -> dict:
    terms = [{"word": diff.word_str(w), "coeff": _weil_text(c)} for w, c in diff.terms.items()]
    return {"kind": "polynomial", "lead": terms[0], "terms": terms}


def _matrix_witness(diff: NilMatrix) -> dict:
    entries = [[_weil_text(e) if e else "0" for e in row] for row in diff.rows]
    lead = next(
        {"row": i, "col": j, "coeff": entries[i][j]}
        for i, row in enumerate(diff.rows)
        for j, e in enumerate(row)
        if e
    )
    return {"kind": "matrix", "lead": lead, "entries": entries}


def _free_context(names: tuple[str, ...], ring: tuple, trunc: int) -> Context:
    """The free model: the truncated free algebra over the ring.  A FAIL
    witness, here and in the matrix model, writes each coefficient as its
    ``WeilElement.weil_image``."""
    gens = [AssocPoly.generator(names, i, trunc, ring) for i in range(len(names))]
    one = AssocPoly.one(names, trunc, ring)
    return Context(gens, _weigher(ring), _poly_witness, one, poly_exp, poly_inv)


def _matrix_context(ring: tuple, dim: int, seed: int, count: int) -> Context:
    """The matrix model: seeded dim x dim nilpotent matrices over the ring."""
    gens = [m.lift(ring) for m in gen_nilmatrix(dim, seed, count)]
    one = NilMatrix.identity(dim, ring)
    return Context(gens, _weigher(ring), _matrix_witness, one, NilMatrix.exp, NilMatrix.inv)


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
            "params": self.params._asdict(),
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


def _deficit(expr, found: set) -> float:
    """The largest word length less weight degree over the terms of an
    expression's image, inf where no bound holds.  Each generator index goes
    into ``found``, and each weight node as its shape and highest
    infinitesimal index: m for em(m) and sd^m, the largest d_i for a D weight.

    A generator counts 1 and the unit 0, a weight node subtracts its degree
    (the infinitesimals in every term of its scalar), products and brackets
    add, and sums take the largest.  exp, the group inverse and an ad-series
    sum powers of their argument (of a, for an ad-series), which keep a
    deficit <= 0, so they are bounded only where that argument's is.
    """
    if isinstance(expr, int):
        found.add(expr)
        return 1
    head = expr[0]
    if head == ONE:
        return 0
    if head == LIN:
        return max([_deficit(a, found) for _, a in expr[1]])
    if head == MUL:
        return sum([_deficit(a, found) for a in expr[1:]])
    if head in (EXP, INV):
        return 0 if _deficit(expr[1], found) <= 0 else inf
    if head == AD:
        b = _deficit(expr[3], found)
        return b if _deficit(expr[2], found) <= 0 else inf
    if len(expr) == 3:  # (coeff, (shape, m), sub)
        shape, m = expr[1]
        found.add((shape, max(m)) if shape == D else expr[1])
        return _deficit(expr[2], found) - (len(m) if shape == D else m)
    return _deficit(expr[0], found) + _deficit(expr[1], found)


@cache
def _plan(identity_id: str) -> tuple[tuple, int | None, int, int]:
    """(ring, reach, n_d, gens) of an identity, from one ``_deficit`` walk,
    cached by id since the catalog is fixed once imported: n_d is the
    highest infinitesimal index of any weight (0 without one), gens one more
    than the largest generator index.

    The ring is (n_d,), Q[t]/(t^(n_d+1)) with t standing for sd = d1 + ...
    + d_n_d, when every weight is sd^m or em(m) and a generator occurs; else
    (1,)*n_d (n_d at least 1), the Weil ring, as also among Lie elements;
    at n_d = 1 the two are one ring.  t -> sd is an injective ring map
    (sd^m = m! em(m), lemma 6.0, and em(1..n_d) are linearly independent),
    so both rings decide alike; ``lemma-6.0`` has no generator: it is that
    lemma, and stays in the Weil ring.  The reach is sum(ring) when every
    side has deficit <= 0, else None: a term of such a side has at least as
    many infinitesimals as letters, and a product of more than sum(ring) of
    them vanishes, so the free model truncated at the reach decides the
    identity as at any truncation above.
    """
    entry, found = _BY_ID[identity_id], set()
    bounded = max([_deficit(side, found) for pair in entry.pairs for side in pair]) <= 0
    weights = [w for w in found if type(w) is tuple]
    n_d = max([top for _, top in weights], default=0)
    gens = max([i for i in found if type(i) is int], default=-1) + 1
    sd_only = gens and not entry.lie_degree and weights and all(w[0] in (EM, POW) for w in weights)
    ring = (n_d,) if sd_only else (1,) * max(n_d, 1)
    return ring, sum(ring) if bounded else None, n_d, gens


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
        return _lie_context(entry.lie_degree)
    ring, reach, _, gens = _plan(entry.id)
    if model == "free":
        trunc = params.trunc if reach is None else min(params.trunc, reach)
        return _free_context(default_names(gens), ring, trunc)
    return _matrix_context(ring, params.dim, params.seed, gens)


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
    exact = _BY_ID.get(pattern)  # an exact id needs no pattern match
    if exact is not None:
        matched = [exact]
    else:
        matched = [entry for entry in CATALOG if fnmatchcase(entry.id, pattern)]
    for entry in matched:
        try:
            reports.append(check_identity(entry.id, model, params))
        except NilbchError as exc:
            errors.append((entry.id, f"{type(exc).__name__}: {exc}"))
    return reports, errors
