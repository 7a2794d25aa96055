"""Exact BCH and Zassenhaus expansions over nilpotent infinitesimals."""

from .assoc import AssocPoly, poly_exp, poly_inv, poly_log, poly_mul, scalar_extend
from .freelie import (
    LieElement,
    apply_ad_series,
    dynkin_project,
    hall_basis,
    lie_bracket,
    lie_embed,
    parse_monomial,
)
from .scalars import (
    Rational,
    WeilElement,
    parse_rational,
    weil_power_sum,
)
from .series import (
    GradedLieSeries,
    ZassenhausFactors,
    ad_exp,
    bch_classical,
    bch_multi_order2,
    bch_paper,
    log_derivative,
    series_compare,
    zassenhaus_classical,
    zassenhaus_paper,
)
from .weilcheck import (
    CheckParams,
    CheckReport,
    NilMatrix,
    check_identity,
    gen_nilmatrix,
    run_suite,
    tangent_of,
)

__all__ = [
    "AssocPoly",
    "CheckParams",
    "CheckReport",
    "GradedLieSeries",
    "LieElement",
    "NilMatrix",
    "Rational",
    "WeilElement",
    "ZassenhausFactors",
    "ad_exp",
    "apply_ad_series",
    "bch_classical",
    "bch_multi_order2",
    "bch_paper",
    "check_identity",
    "dynkin_project",
    "gen_nilmatrix",
    "hall_basis",
    "lie_bracket",
    "lie_embed",
    "log_derivative",
    "parse_monomial",
    "parse_rational",
    "poly_exp",
    "poly_inv",
    "poly_log",
    "poly_mul",
    "run_suite",
    "scalar_extend",
    "series_compare",
    "tangent_of",
    "weil_power_sum",
    "zassenhaus_classical",
    "zassenhaus_paper",
]

__version__ = "0.1.0"
