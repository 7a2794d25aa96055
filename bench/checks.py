"""Correctness checks of one op's output, independent of the code under test.

Catalog ops are checked against the hand-written verdict list in
``workloads.PUBLISHED``.  Classical series are checked with a small
truncated free associative algebra written here from scratch: the printed
BCH exponent Z must satisfy exp(Z) = exp(X) exp(Y), the printed Zassenhaus
factors must multiply back to exp(X+Y), and the terms through degree 3 must
equal the hand-written textbook ones.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial, inf

from workloads import PUBLISHED

LETTERS = {"X": (0,), "Y": (1,)}

# Textbook terms: (coefficient, bracket monomial) per degree.
BCH_LOW_DEGREES = {
    1: ((1, "X"), (1, "Y")),
    2: ((Fraction(1, 2), "[X,Y]"),),
    3: ((Fraction(1, 12), "[X,[X,Y]]"), (Fraction(-1, 12), "[Y,[X,Y]]")),
}
ZASSENHAUS_LOW_DEGREES = {
    2: ((Fraction(-1, 2), "[X,Y]"),),
    3: ((Fraction(1, 3), "[Y,[X,Y]]"), (Fraction(1, 6), "[X,[X,Y]]")),
}


class BadOutput(Exception):
    """The op's output is wrong; the message says how."""


def check_output(argv: tuple[str, ...], code, text: str | None) -> bool:
    """Raise BadOutput unless the output is right; return True for a quotient PASS.

    A quotient PASS is a matrix-model PASS of an identity whose published
    free-model verdict is FAIL.  It is allowed, because the matrix model is
    a quotient of the free one.
    """
    if not isinstance(code, int):
        raise BadOutput(f"op raised {code}")
    flags = dict(zip(argv[1::2], argv[2::2]))
    try:
        if argv[0] == "check":
            return _check_catalog(flags, code, text)
        _check_classical(argv[0], int(flags["--order"]), code, text)
        return False
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise BadOutput(f"malformed output: {exc!r}") from exc


def _check_catalog(flags: dict[str, str], code: int, text: str) -> bool:
    if code not in (0, 1):
        raise BadOutput(f"exit code {code}")
    reports = json.loads(text)
    if not isinstance(reports, list) or len(reports) != 1:
        raise BadOutput("expected exactly one report")
    report = reports[0]
    ident, model = flags["--id"], flags["--model"]
    if report.get("id") != ident or report.get("model") != model:
        raise BadOutput(f"report is for {report.get('id')}/{report.get('model')}")
    params = report.get("params", {})
    for flag, key in (("--trunc", "trunc"), ("--dim", "dim"), ("--seed", "seed")):
        if flag in flags and params.get(key) != int(flags[flag]):
            raise BadOutput(f"params.{key} is {params.get(key)}, asked {flags[flag]}")
    verdict = report.get("verdict")
    if (verdict, code) not in (("PASS", 0), ("FAIL", 1)):
        raise BadOutput(f"verdict {verdict} with exit code {code}")
    if (verdict == "FAIL") != ("lead" in (report.get("witness") or {})):
        raise BadOutput(f"{verdict} with witness {report.get('witness')}")
    published = PUBLISHED[ident][1]
    if model == "free":
        if verdict != published:
            raise BadOutput(f"free verdict {verdict}, published {published}")
        return False
    if published == "PASS" and verdict != "PASS":
        raise BadOutput("matrix FAIL of an identity that PASSes in the free model")
    return published == "FAIL" and verdict == "PASS"


def _check_classical(command: str, order: int, code: int, text: str) -> None:
    if code != 0:
        raise BadOutput(f"exit code {code}")
    obj = json.loads(text)
    kind = "bch" if command == "bch" else "zassenhaus"
    if obj.get("kind") != kind or obj.get("source") != "classical":
        raise BadOutput(f"kind/source {obj.get('kind')}/{obj.get('source')}")
    first = 1 if kind == "bch" else 2
    if [d["n"] for d in obj["degrees"]] != list(range(first, order + 1)):
        raise BadOutput("degrees do not run from the first degree to the order")
    parts = {}
    for entry in obj["degrees"]:
        n = entry["n"]
        part = {}
        for term in entry["terms"]:
            image = embed(term["monomial"])
            if any(len(word) != n for word in image):
                raise BadOutput(f"{term['monomial']} is not of degree {n}")
            part = add(part, image, Fraction(term["coeff"]))
        parts[n] = part
    textbook = BCH_LOW_DEGREES if kind == "bch" else ZASSENHAUS_LOW_DEGREES
    for n, terms in textbook.items():
        if n <= order:
            expected = {}
            for coeff, mono in terms:
                expected = add(expected, embed(mono), Fraction(coeff))
            if parts[n] != expected:
                raise BadOutput(f"degree {n} differs from the textbook terms")
    x, y = embed("X"), embed("Y")
    if kind == "bch":
        z = {}
        for part in parts.values():
            z = add(z, part)
        lhs, rhs = exp(z, order), mul(exp(x, order), exp(y, order), order)
    else:
        lhs = exp(add(x, y), order)
        rhs = mul(exp(x, order), exp(y, order), order)
        for n in range(2, order + 1):
            rhs = mul(rhs, exp(parts[n], order), order)
    if lhs != rhs:
        raise BadOutput("series does not reproduce the group product")


# -- a truncated free associative algebra on X, Y: {word: Fraction} ----------


def add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for word, coeff in b.items():
        total = out.get(word, 0) + scale * coeff
        if total:
            out[word] = total
        else:
            out.pop(word, None)
    return out


def mul(a: dict, b: dict, trunc: int) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= trunc:
                word = w1 + w2
                total = out.get(word, 0) + c1 * c2
                if total:
                    out[word] = total
                else:
                    del out[word]
    return out


def exp(a: dict, trunc: int) -> dict:
    """exp of an element without constant term, truncated at word length trunc."""
    out, power = {(): Fraction(1)}, {(): Fraction(1)}
    for i in range(1, trunc + 1):
        power = mul(power, a, trunc)
        if not power:
            break
        out = add(out, power, Fraction(1, factorial(i)))
    return out


def embed(monomial: str) -> dict:
    """Words of a bracket monomial such as ``[X,[X,Y]]``, with [a,b] = ab - ba."""
    image, end = _embed_from(monomial, 0)
    if end != len(monomial):
        raise BadOutput(f"trailing text in monomial {monomial!r}")
    return image


def _embed_from(text: str, pos: int) -> tuple[dict, int]:
    if text.startswith("[", pos):
        left, pos = _embed_from(text, pos + 1)
        if not text.startswith(",", pos):
            raise BadOutput(f"expected ',' in monomial {text!r}")
        right, pos = _embed_from(text, pos + 1)
        if not text.startswith("]", pos):
            raise BadOutput(f"expected ']' in monomial {text!r}")
        return add(mul(left, right, inf), mul(right, left, inf), -1), pos + 1
    if text[pos:pos + 1] not in LETTERS:
        raise BadOutput(f"unknown generator in monomial {text!r}")
    return {LETTERS[text[pos]]: Fraction(1)}, pos + 1
