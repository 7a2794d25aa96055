"""The identity catalog as data: each numbered statement of the paper that
``weilcheck`` decides, written as pairs of sides in the expression language
of ``series``; ``weilcheck._plan`` reads its infinitesimals and generators
from those expressions."""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .series import (
    AD,
    D,
    EM,
    EXP,
    INV,
    MUL,
    ONE,
    PAPER_TABLES,
    POW,
    _X,
    _XY,
    _Y,
    _entry,
    _lin,
    _XpY,
    paper_table,
)

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
    order: int        # bracket order reached; bounds trunc and dim below
    pairs: tuple      # (left, right) side expressions; PASS when every pair is equal
    lie_degree: int = 0  # if set, decided among Lie elements of this degree in any model


CATALOG: tuple[_Identity, ...] = (
    _Identity("prop-2.1", 2, (
        (_EXP_SD_X, (MUL, _EXP_D1_X, (EXP, _entry(1, D, (2,), _X)))),
    )),
    # a chain of three sides: the middle one is shared, so it is evaluated once
    _Identity("prop-2.2", 2, (
        (_EXP_D1_XpY, _EXP_D1_X_EXP_D1_Y),
        (_EXP_D1_X_EXP_D1_Y, (MUL, _EXP_D1_Y, _EXP_D1_X)),
    )),
    _Identity("thm-2.3", 2, (
        ((MUL, _EXP_D1_X, _EXP_D2_Y, (INV, _EXP_D1_X), (INV, _EXP_D2_Y)),
         (EXP, _entry(1, D, (1, 2), _XY))),
    )),
    _Identity("lemma-2.5", 4, (((_X, (_Y, _XY)), (_Y, (_X, _XY))),)),
    _Identity("prop-4.4", 2, (((MUL, _EXP_X, _Y, (INV, _EXP_X)), (AD, "exp", _X, _Y)),)),
    _Identity("prop-4.5", 1, ((_EXP_D1_X, _lin((1, (ONE,)), (1, _D1_X))),)),
    # the commuting pair X and X
    _Identity("prop-5.3", 2, (((MUL, _EXP_X, _EXP_X), (EXP, _lin((1, _X), (1, _X)))),)),
    _Identity("prop-5.4", 2, (
        ((MUL, _EXP_D1_X, _EXP_D2_Y),
         (MUL, _EXP_D2_Y, _EXP_D1_X, (EXP, _entry(1, D, (1, 2), _XY)))),
    )),
    # sd^m / m! = em(m), as multiples of the unit
    _Identity("lemma-6.0", 1, tuple(
        (_entry(Fraction(1, factorial(m)), POW, m, (ONE,)), _entry(1, EM, m, (ONE,)))
        for m in range(1, 6)
    )),
    _Identity("thm-6.1", 1, ((_EXP_D1_XpY, _EXP_D1_X_EXP_D1_Y),)),
    _Identity("thm-6.2a", 2, (_zassenhaus(2, "a"),)),
    _Identity("thm-6.2b", 2, (_zassenhaus(2, "b"),)),
    _Identity("thm-6.3a", 3, (_zassenhaus(3, "a"),)),
    _Identity("thm-6.3b", 3, (_zassenhaus(3, "b"),)),
    _Identity("thm-6.4a", 4, (_zassenhaus(4, "a"),)),
    _Identity("thm-6.4b", 4, (_zassenhaus(4, "b"),)),
    _Identity("thm-7.1", 1, (_bch(1, "sec7"),)),
    _Identity("thm-7.2a", 2, (_bch(2, "sec7"),)),
    _Identity("thm-7.2b", 2, (_bch(2, "sec7", "b"),)),
    _Identity("cor-7.2.1", 2, (
        ((MUL, _EXP_SD_X, _EXP_SD_Y, (EXP, _entry(1, POW, 1, 2))),
         (EXP, _lin(
             (1, _entry(1, POW, 1, _lin((1, 0), (1, 1), (1, 2)))),
             (1, _entry(1, D, (1, 2), _lin((1, (0, 1)), (1, (0, 2)), (1, (1, 2))))),
         ))),
    )),
    _Identity("thm-7.3a", 3, (_bch(3, "sec7"),)),
    _Identity("thm-7.3b", 3, (_bch(3, "sec7", "b"),)),
    _Identity("thm-7.4a", 4, (_bch(4, "sec7"),)),
    _Identity("thm-7.4b", 4, (_bch(4, "sec7", "b"),)),
    _Identity("thm-8.1", 1, (_bch(1, "sec8"),)),
    _Identity("thm-8.2", 2, (_bch(2, "sec8"),)),
    _Identity("thm-8.3", 3, (_bch(3, "sec8"),)),
    _Identity("thm-8.4", 4, (_bch(4, "sec8"),)),
    # the degree-4 entries of the two BCH tables, as Lie elements
    _Identity("consistency-7v8", 1, (
        (PAPER_TABLES["bch", "sec7", "a"][3], PAPER_TABLES["bch", "sec8", "a"][3]),
    ), lie_degree=4),
)

_BY_ID = {entry.id: entry for entry in CATALOG}
