"""Homogeneous parts of truncated graded values, read from their rows."""


def degree_part(value, n: int):
    """The degree-n part of an ``AssocPoly`` or a ``LieElement``: row n alone."""
    rows = [row if d == n else {} for d, row in enumerate(value._rows)]
    return value._with(rows, value._den)
