"""Mechanical verification of the catalog identities in two exact models.

Every catalog entry rebuilds the two sides of one numbered statement exactly
as written: each exp of an infinitesimally weighted Lie expression becomes a
truncated exponential of its associative (or matrix) image, group inverses are
computed by actual inversion rather than by negating exponents, and the check
subtracts the sides.  PASS means the difference is exactly zero.

Two models are available.  The *free* model works in the truncated free
associative algebra over the Weil ring and is the universal one: a PASS there
holds in every instance.  The *matrix* model evaluates in a seeded
unitriangular rational matrix group; it is a quotient, so a PASS is necessary
but not sufficient for free-model validity, and the suite checks that
implication rather than assuming it.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from math import factorial

from .assoc import AssocPoly, poly_exp, poly_inv, scalar_extend
from .errors import (
    DegreeOutOfRange,
    InsufficientModel,
    NilbchError,
    UnknownIdentity,
)
from .freelie import HARD_DEGREE_CAP, default_names
from .matrix import NilMatrix, gen_nilmatrix
from .scalars import WeilElement, power_series, weil_power_sum, weil_sum
from .series import (
    EM,
    bch_paper,
    fold_tree,
    paper_bch_table,
    paper_zassenhaus_table,
    series_compare,
)

DEFAULT_TRUNC = 6
DEFAULT_DIM = 5
DEFAULT_SEED = 42
MULTI_FACTOR_COUNT = 3  # generators used by the multi-factor corollary check


# ---------------------------------------------------------------------------
# evaluation contexts


class _Context:
    """One model: generator images, the unit, exp, inverse and the FAIL witness.

    The Weil scalars d_i, their sum and its divided powers live in the
    k-generator Weil algebra, whichever model the context is.
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

    def d(self, i: int) -> WeilElement:
        return WeilElement.generator(self.k, i)

    def sd(self) -> WeilElement:
        return weil_sum(self.k)

    def em(self, m: int) -> WeilElement:
        return weil_power_sum(self.k, m)


def _poly_witness(diff: AssocPoly) -> dict:
    terms = diff.sorted_terms()
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
    gens = [scalar_extend(AssocPoly.generator(names, i, trunc), k) for i in range(len(names))]
    return _Context(k, gens, AssocPoly.one(names, trunc, k), poly_exp, poly_inv, _poly_witness)


def _matrix_context(k: int, dim: int, seed: int, count: int) -> _Context:
    """The matrix model: seeded dim x dim nilpotent matrices over the Weil ring."""
    gens = [m.lift(k) for m in gen_nilmatrix(dim, seed, count)]
    one = NilMatrix.identity(dim, k)
    return _Context(k, gens, one, NilMatrix.exp, NilMatrix.inv, _matrix_witness)


def _commutator(a, b):
    return a * b - b * a


def _linear_image(pairs):
    return reduce(operator.add, [part.scale(coeff) for coeff, part in pairs])


def _lie_image(ctx, tree):
    """Model image of a bracket-expression tree, brackets as commutators."""
    return fold_tree(tree, ctx.gen_img, _commutator, _linear_image)


def _entry_image(ctx, entry):
    """Model image of one table entry: Weil prefactor times bracket image."""
    coeff, (shape, m), tree = entry
    if shape == EM:
        weight = ctx.em(m) * coeff
    else:
        weight = ctx.sd() ** m * coeff
    return _lie_image(ctx, tree).scale(weight)


def tangent_of(index: int, d_index: int, ctx):
    """Model of the tangent vector of generator ``index`` at d_index: 1 + d*x."""
    return ctx.one() + ctx.gen_img(index).scale(ctx.d(d_index))


# ---------------------------------------------------------------------------
# the catalog


def _pair_runner(build):
    """PASS when each consecutive pair of the built elements is equal."""

    def run(ctx):
        elements = build(ctx)
        for left, right in zip(elements, elements[1:]):
            diff = left - right
            if diff:
                return False, ctx.witness(diff)
        return True, None

    return run


def _b_prop_2_1(ctx):
    x = ctx.gen_img(0)
    lhs = ctx.exp(x.scale(ctx.sd()))
    rhs = ctx.exp(x.scale(ctx.d(1))) * ctx.exp(x.scale(ctx.d(2)))
    return lhs, rhs


def _b_prop_2_2(ctx):
    x, y = ctx.gen_img(0), ctx.gen_img(1)
    d1 = ctx.d(1)
    return (
        ctx.exp((x + y).scale(d1)),
        ctx.exp(x.scale(d1)) * ctx.exp(y.scale(d1)),
        ctx.exp(y.scale(d1)) * ctx.exp(x.scale(d1)),
    )


def _b_thm_2_3(ctx):
    x, y = ctx.gen_img(0), ctx.gen_img(1)
    xd = ctx.exp(x.scale(ctx.d(1)))
    yd = ctx.exp(y.scale(ctx.d(2)))
    lhs = xd * yd * ctx.inv(xd) * ctx.inv(yd)
    rhs = ctx.exp(_commutator(x, y).scale(ctx.d(1) * ctx.d(2)))
    return lhs, rhs


def _b_lemma_2_5(ctx):
    x, y = ctx.gen_img(0), ctx.gen_img(1)
    xy = _commutator(x, y)
    lhs = _commutator(x, _commutator(y, xy))
    rhs = _commutator(y, _commutator(x, xy))
    return lhs, rhs


def _b_prop_4_4(ctx):
    x, y = ctx.gen_img(0), ctx.gen_img(1)
    ex = ctx.exp(x)
    lhs = ex * y * ctx.inv(ex)
    coeffs = (Fraction(1, factorial(p)) for p in count(1))
    rhs = power_series(y, _commutator(x, y), lambda t: _commutator(x, t), coeffs)
    return lhs, rhs


def _b_prop_4_5(ctx):
    x = ctx.gen_img(0)
    lhs = ctx.exp(x.scale(ctx.d(1)))
    rhs = tangent_of(0, 1, ctx)
    return lhs, rhs


def _b_prop_5_3(ctx):
    # commuting pair X and X: exp X . exp X = exp(X + X)
    x = ctx.gen_img(0)
    lhs = ctx.exp(x) * ctx.exp(x)
    rhs = ctx.exp(x + x)
    return lhs, rhs


def _b_prop_5_4(ctx):
    x, y = ctx.gen_img(0), ctx.gen_img(1)
    d1, d2 = ctx.d(1), ctx.d(2)
    lhs = ctx.exp(x.scale(d1)) * ctx.exp(y.scale(d2))
    rhs = (
        ctx.exp(y.scale(d2))
        * ctx.exp(x.scale(d1))
        * ctx.exp(_commutator(x, y).scale(d1 * d2))
    )
    return lhs, rhs


def _run_lemma_6_0(ctx):
    n = ctx.k
    for m in range(1, n + 2):
        lhs = (ctx.sd() ** m) * Fraction(1, factorial(m))
        rhs = weil_power_sum(n, m)
        diff = lhs - rhs
        if diff:
            return False, {"kind": "scalar", "m": m, "value": str(diff)}
    return True, None


def _b_thm_6_1(ctx):
    x, y = ctx.gen_img(0), ctx.gen_img(1)
    d1 = ctx.d(1)
    lhs = ctx.exp((x + y).scale(d1))
    rhs = ctx.exp(x.scale(d1)) * ctx.exp(y.scale(d1))
    return lhs, rhs


def _zassenhaus_build(order: int, form: str):
    def build(ctx):
        x, y = ctx.gen_img(0), ctx.gen_img(1)
        sd = ctx.sd()
        lhs = ctx.exp((x + y).scale(sd))
        rhs = ctx.exp(x.scale(sd)) * ctx.exp(y.scale(sd))
        for entry in paper_zassenhaus_table(order, form):
            rhs = rhs * ctx.exp(_entry_image(ctx, entry))
        return lhs, rhs

    return build


def _bch_build(order: int, variant: str, form: str):
    def build(ctx):
        x, y = ctx.gen_img(0), ctx.gen_img(1)
        sd = ctx.sd()
        lhs = ctx.exp(x.scale(sd)) * ctx.exp(y.scale(sd))
        entries = paper_bch_table(order, variant, form)
        exponent = reduce(operator.add, [_entry_image(ctx, entry) for entry in entries])
        return lhs, ctx.exp(exponent)

    return build


def _b_cor_7_2_1(ctx):
    gens = [ctx.gen_img(i) for i in range(MULTI_FACTOR_COUNT)]
    sd = ctx.sd()
    lhs = reduce(operator.mul, [ctx.exp(x.scale(sd)) for x in gens])
    brackets = reduce(operator.add, [_commutator(a, b) for a, b in combinations(gens, 2)])
    rhs = ctx.exp(reduce(operator.add, gens).scale(sd) + brackets.scale(ctx.d(1) * ctx.d(2)))
    return lhs, rhs


def _run_consistency_7v8(_ctx):
    diff = series_compare(bch_paper(4, "sec7"), bch_paper(4, "sec8"), 4)
    if not diff:
        return True, None
    return False, {"kind": "lie", "terms": diff.to_json_terms()}


@dataclass(frozen=True)
class _Identity:
    id: str
    n_d: int          # infinitesimals used
    order: int        # bracket order reached; bounds trunc and dim below
    run: object = field(repr=False)
    gens: int = 2     # model generators required

    def min_trunc(self) -> int:
        return self.order

    def min_dim(self) -> int:
        return self.order + 1


CATALOG: tuple[_Identity, ...] = (
    _Identity("prop-2.1", 2, 2, _pair_runner(_b_prop_2_1)),
    _Identity("prop-2.2", 1, 2, _pair_runner(_b_prop_2_2)),
    _Identity("thm-2.3", 2, 2, _pair_runner(_b_thm_2_3)),
    _Identity("lemma-2.5", 0, 4, _pair_runner(_b_lemma_2_5)),
    _Identity("prop-4.4", 0, 2, _pair_runner(_b_prop_4_4)),
    _Identity("prop-4.5", 1, 1, _pair_runner(_b_prop_4_5)),
    _Identity("prop-5.3", 0, 2, _pair_runner(_b_prop_5_3)),
    _Identity("prop-5.4", 2, 2, _pair_runner(_b_prop_5_4)),
    _Identity("lemma-6.0", 4, 1, _run_lemma_6_0),
    _Identity("thm-6.1", 1, 1, _pair_runner(_b_thm_6_1)),
    _Identity("thm-6.2a", 2, 2, _pair_runner(_zassenhaus_build(2, "a"))),
    _Identity("thm-6.2b", 2, 2, _pair_runner(_zassenhaus_build(2, "b"))),
    _Identity("thm-6.3a", 3, 3, _pair_runner(_zassenhaus_build(3, "a"))),
    _Identity("thm-6.3b", 3, 3, _pair_runner(_zassenhaus_build(3, "b"))),
    _Identity("thm-6.4a", 4, 4, _pair_runner(_zassenhaus_build(4, "a"))),
    _Identity("thm-6.4b", 4, 4, _pair_runner(_zassenhaus_build(4, "b"))),
    _Identity("thm-7.1", 1, 1, _pair_runner(_bch_build(1, "sec7", "a"))),
    _Identity("thm-7.2a", 2, 2, _pair_runner(_bch_build(2, "sec7", "a"))),
    _Identity("thm-7.2b", 2, 2, _pair_runner(_bch_build(2, "sec7", "b"))),
    _Identity("cor-7.2.1", 2, 2, _pair_runner(_b_cor_7_2_1), gens=MULTI_FACTOR_COUNT),
    _Identity("thm-7.3a", 3, 3, _pair_runner(_bch_build(3, "sec7", "a"))),
    _Identity("thm-7.3b", 3, 3, _pair_runner(_bch_build(3, "sec7", "b"))),
    _Identity("thm-7.4a", 4, 4, _pair_runner(_bch_build(4, "sec7", "a"))),
    _Identity("thm-7.4b", 4, 4, _pair_runner(_bch_build(4, "sec7", "b"))),
    _Identity("thm-8.1", 1, 1, _pair_runner(_bch_build(1, "sec8", "a"))),
    _Identity("thm-8.2", 2, 2, _pair_runner(_bch_build(2, "sec8", "a"))),
    _Identity("thm-8.3", 3, 3, _pair_runner(_bch_build(3, "sec8", "a"))),
    _Identity("thm-8.4", 4, 4, _pair_runner(_bch_build(4, "sec8", "a"))),
    _Identity("consistency-7v8", 0, 1, _run_consistency_7v8),
)

CATALOG_IDS: tuple[str, ...] = tuple(entry.id for entry in CATALOG)

_BY_ID = {entry.id: entry for entry in CATALOG}

# Ids asserted to PASS by the test suite; the remaining entries' verdicts are
# produced by the checker and published, not assumed in advance.
EXPECTED_PASS_IDS: tuple[str, ...] = (
    "prop-2.1", "prop-2.2", "thm-2.3", "lemma-2.5", "prop-4.4", "prop-4.5",
    "prop-5.3", "prop-5.4", "lemma-6.0", "thm-6.1", "thm-6.2a", "thm-6.2b",
    "thm-7.1", "thm-7.2a", "thm-7.2b", "cor-7.2.1", "thm-7.3a", "thm-7.3b",
    "thm-8.1", "thm-8.2", "thm-8.3", "consistency-7v8",
)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckParams:
    """Model parameters; trunc=None means the minimum each identity needs."""

    trunc: int | None = DEFAULT_TRUNC
    dim: int = DEFAULT_DIM
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        # Rejected before any identity runs.  Only trunc bounds the words of
        # an identity without infinitesimals (prop-4.4 costs about trunc^3),
        # and dim - 1 is the matrix model's nilpotency class.
        if self.trunc is not None and self.trunc > HARD_DEGREE_CAP:
            raise DegreeOutOfRange(
                f"check truncation {self.trunc} above the limit of {HARD_DEGREE_CAP}"
            )
        if self.dim > HARD_DEGREE_CAP + 1:
            raise DegreeOutOfRange(
                f"check matrix dimension {self.dim} above the limit of "
                f"{HARD_DEGREE_CAP + 1} (nilpotency class {HARD_DEGREE_CAP})"
            )

    def to_json_obj(self) -> dict:
        return {"trunc": self.trunc, "dim": self.dim, "seed": self.seed}


@dataclass(frozen=True)
class CheckReport:
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
    k = max(entry.n_d, 1)
    if model == "free":
        if params.trunc < entry.min_trunc():
            raise InsufficientModel(
                f"{entry.id} needs truncation >= {entry.min_trunc()}, got {params.trunc}"
            )
        return _free_context(default_names(entry.gens), k, params.trunc)
    if model == "matrix":
        if params.dim < entry.min_dim():
            raise InsufficientModel(
                f"{entry.id} needs matrix dimension >= {entry.min_dim()}, got {params.dim}"
            )
        return _matrix_context(k, params.dim, params.seed, entry.gens)
    raise ValueError(f"unknown model {model!r}")


def check_identity(
    identity_id: str, model: str = "free", params: CheckParams | None = None
) -> CheckReport:
    """Evaluate one catalog identity literally and report PASS or FAIL."""
    entry = _BY_ID.get(identity_id)
    if entry is None:
        raise UnknownIdentity(identity_id)
    if params is None:
        params = CheckParams()
    if params.trunc is None:
        params = CheckParams(entry.min_trunc(), params.dim, params.seed)
    start = time.perf_counter()
    ctx = _context_for(entry, model, params)
    ok, witness = entry.run(ctx)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        id=identity_id,
        model=model,
        params=params,
        verdict="PASS" if ok else "FAIL",
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
