"""Exception hierarchy shared by all nilbch modules."""


class NilbchError(Exception):
    """Base class for every error raised by this package."""


class DivisionByZero(NilbchError, ZeroDivisionError):
    """Exact division by a zero rational or non-unit scalar."""


class AlphabetMismatch(NilbchError, ValueError):
    """Lie elements over different generator alphabets or truncations."""


class AlgebraMismatch(NilbchError, ValueError):
    """Operands from incompatible algebras (alphabet, truncation, dim or scalar ring)."""


class GeneratorCountMismatch(AlgebraMismatch):
    """Weil elements with different generator counts, or a count out of range;
    an ``AlgebraMismatch``, since another Weil ring is another algebra."""


class NotNilpotent(NilbchError, ValueError):
    """exp argument has a nonzero constant term."""


class NotUnipotent(NilbchError, ValueError):
    """log argument does not have constant term 1."""


class NotInvertible(NilbchError, ValueError):
    """Inverse of an element whose constant term is not a unit."""


class NotAugmentation(NilbchError, ValueError):
    """Lie projection of a polynomial with a nonzero constant term."""


class DegreeOutOfRange(NilbchError, ValueError):
    """Requested series degree outside the supported range."""


class NotTabulated(NilbchError, ValueError):
    """Requested order outside the tabulated formulas (orders 1..4, Zassenhaus 2..4)."""


class KindMismatch(NilbchError, ValueError):
    """Comparison of series of different kinds or orders."""


class InsufficientModel(NilbchError, ValueError):
    """Model parameters too small for the requested identity."""


class UnknownIdentity(NilbchError, KeyError):
    """Identity id not present in the catalog."""
