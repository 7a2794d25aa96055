"""Command-line front end.

Subcommands compute and print series, compare sources, run the identity
suite and emit machine-readable artifacts.  All regular output goes to
stdout, diagnostics to stderr.  Exit codes: 0 success (all PASS for check),
1 at least one FAIL verdict, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice
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


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None, help="write output to a file")


# The parser of each command, by name; filled by ``build_parser``.
_COMMANDS: dict[str, argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call and then shared.

    ``parse_args`` returns a fresh namespace each call and every default is
    immutable, so nothing carries over from one ``dispatch`` to the next.
    The ``_cmd_*`` handlers are bound here; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="nilbch",
        description="Exact BCH and Zassenhaus series, with a mechanical identity checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bch = sub.add_parser("bch", help="print a BCH exponent, per degree")
    p_bch.add_argument("--order", type=int, required=True)
    p_bch.add_argument(
        "--source", choices=("classical", "paper7", "paper8"), required=True
    )
    _add_output_flags(p_bch)
    p_bch.set_defaults(func=_cmd_bch)

    p_zass = sub.add_parser("zassenhaus", help="print Zassenhaus factor exponents")
    p_zass.add_argument("--order", type=int, required=True)
    p_zass.add_argument("--source", choices=("classical", "paper"), required=True)
    p_zass.add_argument("--form", choices=("a", "b"), default="a")
    _add_output_flags(p_zass)
    p_zass.set_defaults(func=_cmd_zassenhaus)

    p_cmp = sub.add_parser("compare", help="difference of two sources at one degree")
    p_cmp.add_argument("--what", choices=("bch", "zassenhaus"), required=True)
    p_cmp.add_argument("--order", type=int, required=True)
    p_cmp.add_argument("--a", required=True, metavar="SRC")
    p_cmp.add_argument("--b", required=True, metavar="SRC")
    _add_output_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_check = sub.add_parser("check", help="run identity checks")
    p_check.add_argument("--id", default=None, help="identity id or fnmatch pattern")
    p_check.add_argument("--all", action="store_true", help="run the whole catalog")
    p_check.add_argument("--model", choices=("free", "matrix"), default="free")
    p_check.add_argument(
        "--trunc", type=int, default=None,
        help=f"free-model truncation, at most {HARD_DEGREE_CAP}; "
        "defaults to the minimum each identity needs",
    )
    p_check.add_argument(
        "--dim", type=int, default=CheckParams().dim,
        help=f"matrix dimension, at most {HARD_DEGREE_CAP + 1}",
    )
    p_check.add_argument("--seed", type=int, default=CheckParams().seed)
    p_check.add_argument(
        "--timings", action="store_true", help="include elapsed_ms in JSON reports"
    )
    _add_output_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_hall = sub.add_parser("hall", help="print a Hall (Lyndon) basis layer")
    p_hall.add_argument("--gens", type=int, required=True)
    p_hall.add_argument("--degree", type=int, required=True)
    _add_output_flags(p_hall)
    p_hall.set_defaults(func=_cmd_hall)

    p_ld = sub.add_parser(
        "logderiv", help="coefficients of the exp logarithmic derivative"
    )
    p_ld.add_argument("--side", choices=("left", "right"), required=True)
    p_ld.add_argument("--order", type=int, required=True)
    _add_output_flags(p_ld)
    p_ld.set_defaults(func=_cmd_logderiv)

    _COMMANDS.update(sub.choices)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with its command's parser, as the top-level one would.

    The top-level parser would classify every string and hand the tail to
    the command's parser to classify again; it parses only an ``argv`` that
    names no command, so that help and usage errors stay its own.
    """
    parser = build_parser()
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


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
