"""Guard against public API that only the tests call."""

import tokenize
from collections import Counter
from pathlib import Path

import nilbch

SRC = Path(nilbch.__file__).parent

# Public although no module uses it: the generic sum_p c_p (ad X)^p (V), which
# the tests apply with the exp and logarithmic-derivative coefficients.
USED_ONLY_OUTSIDE_SRC = {"apply_ad_series"}


def _name_counts() -> Counter:
    counts = Counter()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        with path.open("rb") as handle:
            for token in tokenize.tokenize(handle.readline):
                if token.type == tokenize.NAME:
                    counts[token.string] += 1
    return counts


def test_every_exported_name_is_used_inside_the_package():
    counts = _name_counts()
    unused = sorted(
        name for name in nilbch.__all__
        if counts[name] < 2 and name not in USED_ONLY_OUTSIDE_SRC
    )
    assert unused == [], f"exported but never used beyond its definition: {unused}"
