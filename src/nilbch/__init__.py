"""Exact BCH and Zassenhaus expansions over nilpotent infinitesimals."""

from .assoc import AssocPoly, poly_exp, poly_inv, poly_log, poly_mul
from .freelie import (
    LieElement,
    dynkin_project,
    hall_basis,
    lie_bracket,
    lie_embed,
)
from .matrix import NilMatrix, gen_nilmatrix
from .scalars import WeilElement
from .series import (
    GradedSeries,
    bch_classical,
    bch_paper,
    series_compare,
    zassenhaus_classical,
    zassenhaus_paper,
)
from .weilcheck import (
    CheckParams,
    CheckReport,
    check_identity,
    run_suite,
)

__all__ = [
    "AssocPoly",
    "CheckParams",
    "CheckReport",
    "GradedSeries",
    "LieElement",
    "NilMatrix",
    "WeilElement",
    "bch_classical",
    "bch_paper",
    "check_identity",
    "dynkin_project",
    "gen_nilmatrix",
    "hall_basis",
    "lie_bracket",
    "lie_embed",
    "poly_exp",
    "poly_inv",
    "poly_log",
    "poly_mul",
    "run_suite",
    "series_compare",
    "zassenhaus_classical",
    "zassenhaus_paper",
]

__version__ = "0.1.0"
