"""Command-line front end.

Subcommands compute and print series, compare sources, run the identity
suite and emit machine-readable artifacts.  All regular output goes to
stdout, diagnostics to stderr.  Exit codes: 0 success (all PASS for check),
1 at least one FAIL verdict, 2 usage or input error.

The command line is one table, ``_COMMANDS``.  A plain argv, exact
``--flag value`` pairs and ``store_true`` flags of one command, is read
straight from it; every other argv (help, no command, a usage error) goes to
the argparse parser built from the same table, so help, usage and error
output are argparse's, and a plain command never imports argparse.
"""

from __future__ import annotations

import functools
import json
import sys
from itertools import islice
from types import SimpleNamespace
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import DegreeOutOfRange, NilbchError
from .freelie import HARD_DEGREE_CAP, default_names, hall_basis, lyndon_count, mono_str
from .series import (
    ad_coeffs,
    bch_classical,
    bch_paper,
    series_compare,
    zassenhaus_classical,
    zassenhaus_paper,
)
from .weilcheck import CheckParams, run_suite

# Largest Hall layer ``hall`` generates: 10^5 monomials take 1-4 s.
HALL_LAYER_CAP = 100_000


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for string-keyed values.

    Any ``indent`` sends ``json`` to its pure-Python encoder, which is about
    twice as slow and leaves a reference cycle per call.  This joins the
    containers by hand, writes a plain int as its repr, as ``json`` does,
    and sends strings and the other scalars through the C encoder.
    ``indent`` is the newline and indentation of ``value``'s own line.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is int:  # not a bool, whose repr is not its JSON
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [_encode_str(key) + ": " + _json_text(item, inner)
                 for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def _emit(args, obj, lines) -> None:
    """Write ``obj`` as JSON or the text ``lines`` to stdout or ``--output``.

    ``lines`` is only read for text output, so pass it as a generator.
    """
    if args.format == "json":
        text = _json_text(obj) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _bch_series(source: str, order: int):
    if source == "classical":
        return bch_classical(order)
    if source == "paper7":
        return bch_paper(order, "sec7")
    if source == "paper8":
        return bch_paper(order, "sec8")
    raise NilbchError(f"unknown BCH source {source!r}")


def _zassenhaus_series(source: str, order: int, form: str):
    if source == "classical":
        return zassenhaus_classical(order)
    if source == "paper":
        return zassenhaus_paper(order, form)
    if source in ("paper-a", "paper-b"):
        return zassenhaus_paper(order, source[-1])
    raise NilbchError(f"unknown Zassenhaus source {source!r}")


def _print_series(series, label: str, args) -> int:
    lines = (
        f"{label}{n}: {series.component(n)}"
        for n in range(series.first_degree, series.order + 1)
    )
    _emit(args, series.to_json_obj(), lines)
    return 0


def _cmd_bch(args) -> int:
    return _print_series(_bch_series(args.source, args.order), "deg", args)


def _cmd_zassenhaus(args) -> int:
    series = _zassenhaus_series(args.source, args.order, args.form)
    return _print_series(series, "C", args)


def _cmd_compare(args) -> int:
    if args.what == "bch":
        left = _bch_series(args.a, args.order)
        right = _bch_series(args.b, args.order)
    else:
        left = _zassenhaus_series(args.a, args.order, "a")
        right = _zassenhaus_series(args.b, args.order, "a")
    diff = series_compare(left, right, args.order)
    obj = {
        "what": args.what,
        "order": args.order,
        "a": args.a,
        "b": args.b,
        "difference": diff.to_json_terms(),
    }
    _emit(args, obj, map(str, [diff]))
    return 0


def _check_lines(reports):
    for report in reports:
        line = f"{report.id:<16} {report.model:<6} {report.verdict}"
        if report.witness is not None and "lead" in report.witness:
            line += f"  lead: {report.witness['lead']}"
        yield line
    passed = sum(1 for r in reports if r.verdict == "PASS")
    yield f"passed {passed}/{len(reports)}"


def _cmd_check(args) -> int:
    if args.all and args.id is not None:
        sys.stderr.write("check: provide --id PATTERN or --all, not both\n")
        return 2
    pattern = "*" if args.all else args.id
    if pattern is None:
        sys.stderr.write("check: provide --id PATTERN or --all\n")
        return 2
    params = CheckParams(trunc=args.trunc, dim=args.dim, seed=args.seed)
    reports, errors = run_suite(pattern, args.model, params)
    for identity_id, message in errors:
        sys.stderr.write(f"{identity_id}: {message}\n")
    if not reports and not errors:
        sys.stderr.write(f"check: no identity matches {pattern!r}\n")
        return 2
    if reports:  # a run whose every identity was an input error reports nothing
        payload = [r.to_json_obj(include_elapsed=args.timings) for r in reports]
        _emit(args, payload, _check_lines(reports))
    if errors:
        return 2
    return 0 if all(r.verdict == "PASS" for r in reports) else 1


def _cmd_hall(args) -> int:
    # Refuse before generating.  A generator count or degree above the cap
    # already means a layer above it whenever there are two generators or
    # more; with one, the layer is empty, but Duval's generation would still
    # build a word that long.  The exact count is only computed below both.
    k, n = args.gens, args.degree
    if min(k, n) < 1:
        raise NilbchError(f"hall --gens {k} --degree {n}: both must be at least 1")
    if max(k, n) > HALL_LAYER_CAP or lyndon_count(k, n) > HALL_LAYER_CAP:
        raise NilbchError(
            f"hall --gens {k} --degree {n} exceeds the limit of "
            f"{HALL_LAYER_CAP} monomials per layer"
        )
    names = default_names(k)
    monomials = [mono_str(m, names) for m in hall_basis(k, n)]
    _emit(args, {"gens": k, "degree": n, "monomials": monomials}, monomials)
    return 0


def _cmd_logderiv(args) -> int:
    if not 0 <= args.order <= HARD_DEGREE_CAP:
        raise DegreeOutOfRange(
            f"logarithmic derivative order {args.order} outside 0..{HARD_DEGREE_CAP}"
        )
    coeffs = list(islice(ad_coeffs(args.side), args.order + 1))
    obj = {"side": args.side, "order": args.order, "coeffs": [str(c) for c in coeffs]}
    _emit(args, obj, (f"p={p}: {c}" for p, c in enumerate(coeffs)))
    return 0


_OUTPUT_OPTIONS = {
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--output": {"default": None, "help": "write output to a file"},
}

# The command line as data: each command's help, handler and options, each
# option's flag mapped to the keywords ``add_argument`` takes.  ``_plain``
# reads a plain argv from it and ``build_parser`` builds argparse from it.
_COMMANDS = {
    "bch": ("print a BCH exponent, per degree", _cmd_bch, {
        "--order": {"type": int, "required": True},
        "--source": {"choices": ("classical", "paper7", "paper8"), "required": True},
        **_OUTPUT_OPTIONS,
    }),
    "zassenhaus": ("print Zassenhaus factor exponents", _cmd_zassenhaus, {
        "--order": {"type": int, "required": True},
        "--source": {"choices": ("classical", "paper"), "required": True},
        "--form": {"choices": ("a", "b"), "default": "a"},
        **_OUTPUT_OPTIONS,
    }),
    "compare": ("difference of two sources at one degree", _cmd_compare, {
        "--what": {"choices": ("bch", "zassenhaus"), "required": True},
        "--order": {"type": int, "required": True},
        "--a": {"required": True, "metavar": "SRC"},
        "--b": {"required": True, "metavar": "SRC"},
        **_OUTPUT_OPTIONS,
    }),
    "check": ("run identity checks", _cmd_check, {
        "--id": {"default": None, "help": "identity id or fnmatch pattern"},
        "--all": {"action": "store_true", "help": "run the whole catalog"},
        "--model": {"choices": ("free", "matrix"), "default": "free"},
        "--trunc": {
            "type": int, "default": None,
            "help": f"free-model truncation, at most {HARD_DEGREE_CAP}; "
            "defaults to the minimum each identity needs",
        },
        "--dim": {
            "type": int, "default": CheckParams().dim,
            "help": f"matrix dimension, at most {HARD_DEGREE_CAP + 1}",
        },
        "--seed": {"type": int, "default": CheckParams().seed},
        "--timings": {"action": "store_true", "help": "include elapsed_ms in JSON reports"},
        **_OUTPUT_OPTIONS,
    }),
    "hall": ("print a Hall (Lyndon) basis layer", _cmd_hall, {
        "--gens": {"type": int, "required": True},
        "--degree": {"type": int, "required": True},
        **_OUTPUT_OPTIONS,
    }),
    "logderiv": ("coefficients of the exp logarithmic derivative", _cmd_logderiv, {
        "--side": {"choices": ("left", "right"), "required": True},
        "--order": {"type": int, "required": True},
        **_OUTPUT_OPTIONS,
    }),
}


@functools.cache
def build_parser():
    """The argparse parser of ``_COMMANDS``, built on the first call and then
    shared; ``argparse`` is imported here, so a plain command never loads it.

    ``parse_args`` returns a fresh namespace each call and every default is
    immutable, so nothing carries over from one ``dispatch`` to the next.
    Callers must not modify it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="nilbch",
        description="Exact BCH and Zassenhaus series, with a mechanical identity checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            command.add_argument(flag, **keywords)
        command.set_defaults(func=handler)
    return parser


def _plain(argv: list[str]):
    """The namespace of a plain ``argv``, read straight from ``_COMMANDS``,
    or None when ``argv`` is not plain.

    Plain means a command name followed by exact flags of that command, none
    twice, each ``store_true`` flag alone and each other flag with one value
    that does not start with ``-`` and passes the flag's type and choices,
    every required flag among them.  argparse parses such an argv to the same
    values.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    _, handler, options = command
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in values:
            return None
        if "action" in keywords:  # store_true
            values[flag] = True
            continue
        text = next(tokens, "-")  # a missing value falls back as a "-" one does
        if text[:1] == "-":
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[flag] = value
    args = SimpleNamespace(func=handler)
    for flag, keywords in options.items():
        if flag in values:
            value = values[flag]
        elif keywords.get("required"):
            return None
        else:
            value = keywords.get("default", False if "action" in keywords else None)
        setattr(args, flag[2:], value)  # argparse's dest: no flag has an inner "-"
    return args


def _parse(argv: list[str]):
    """The namespace of ``argv``: ``_plain``'s, else argparse's, so that
    help, usage and error output stay argparse's own."""
    return _plain(argv) or build_parser().parse_args(argv)


def dispatch(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NilbchError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
