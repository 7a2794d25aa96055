"""Command-line contract: golden outputs, exit codes, determinism."""

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilbch import cli, freelie, weilcheck
from nilbch.cli import dispatch
from nilbch.errors import NilbchError
from nilbch.series import SERIES_SCHEMA
from nilbch.weilcheck import REPORT_SCHEMA
from test_golden import GOLDEN


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bch_text_golden(capsys):
    code, out, err = run(capsys, "bch", "--order", "2", "--source", "classical")
    assert code == 0
    assert out == "deg1: X + Y\ndeg2: 1/2*[X,Y]\n"
    assert err == ""


def test_logderiv_text_golden(capsys):
    code, out, _ = run(capsys, "logderiv", "--side", "left", "--order", "3")
    assert code == 0
    assert out == "p=0: 1\np=1: -1/2\np=2: 1/6\np=3: -1/24\n"


def test_compare_third_order_agrees(capsys):
    code, out, _ = run(
        capsys, "compare", "--what", "bch", "--order", "3",
        "--a", "paper7", "--b", "classical",
    )
    assert code == 0
    assert out == "0\n"


def test_compare_fourth_order_diverges(capsys):
    code, out, _ = run(
        capsys, "compare", "--what", "bch", "--order", "4",
        "--a", "paper7", "--b", "classical",
    )
    assert code == 0
    assert out == (
        "-1/48*[X,[X,[X,Y]]] + 1/24*[X,[[X,Y],Y]] - 1/48*[[[X,Y],Y],Y]\n"
    )


def test_zassenhaus_text(capsys):
    code, out, _ = run(
        capsys, "zassenhaus", "--order", "3", "--source", "paper", "--form", "a"
    )
    assert code == 0
    assert out == "C2: -1/2*[X,Y]\nC3: 1/6*[X,[X,Y]] - 1/3*[[X,Y],Y]\n"


def test_hall_text(capsys):
    code, out, _ = run(capsys, "hall", "--gens", "2", "--degree", "4")
    assert code == 0
    assert out == "[X,[X,[X,Y]]]\n[X,[[X,Y],Y]]\n[[[X,Y],Y],Y]\n"


def test_hall_rejects_large_layers_before_generating(capsys, monkeypatch):
    def never(k, n):
        raise AssertionError("a rejected layer must not be generated")

    monkeypatch.setattr(freelie, "lyndon_words", never)
    for gens, degree in (("16", "10"), ("6", "9"), ("1", "1000001"), ("100001", "1")):
        code, out, err = run(capsys, "hall", "--gens", gens, "--degree", degree)
        assert code == 2 and out == ""
        assert "limit of 100000 monomials" in err


def test_hall_limit_is_the_layer_size(capsys, monkeypatch):
    monkeypatch.setattr(cli, "HALL_LAYER_CAP", 6)
    assert run(capsys, "hall", "--gens", "2", "--degree", "5")[0] == 0  # 6 monomials
    assert run(capsys, "hall", "--gens", "2", "--degree", "6")[0] == 2  # 9 monomials


@pytest.mark.parametrize("gens, degree", [("0", "3"), ("2", "0"), ("-1", "4"), ("2", "-5")])
def test_hall_rejects_counts_below_one(capsys, gens, degree):
    code, out, err = run(capsys, "hall", "--gens", gens, "--degree", degree)
    assert code == 2 and out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("order", ["-1", "11", "2000"])
def test_logderiv_order_outside_range_is_an_input_error(capsys, order):
    code, out, err = run(capsys, "logderiv", "--side", "right", "--order", order)
    assert code == 2 and out == ""
    assert "outside 0..10" in err


def test_programming_error_propagates_out_of_dispatch(capsys, monkeypatch):
    def broken(family):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(cli, "ad_coeffs", broken)
    with pytest.raises(ValueError, match="a bug"):
        dispatch(["logderiv", "--side", "left", "--order", "3"])


def test_check_single_identity_passes(capsys):
    code, out, _ = run(capsys, "check", "--id", "thm-7.1")
    assert code == 0
    assert "thm-7.1" in out and "PASS" in out
    assert out.endswith("passed 1/1\n")


def test_check_all_reports_failures(capsys):
    code, out, _ = run(capsys, "check", "--all")
    assert code == 1
    assert "thm-6.3b" in out and "FAIL" in out
    assert out.rstrip().endswith("passed 24/29")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_by_exact_id_prints_what_the_matching_glob_prints(capsys, fmt):
    exact = run(capsys, "check", "--id", "thm-6.1", "--format", fmt)
    glob = run(capsys, "check", "--id", "thm-6.[1]", "--format", fmt)
    assert exact == glob and exact[0] == 0 and exact[1]

    code, out, err = run(capsys, "check", "--id", "thm-9.9", "--format", fmt)
    assert (code, out) == (2, "") and "no identity matches 'thm-9.9'" in err


def test_check_exit_codes_for_input_errors(capsys):
    code, _, err = run(capsys, "check", "--id", "no-such-*")
    assert code == 2 and "no identity matches" in err

    code, _, err = run(capsys, "check", "--id", "thm-7.4a", "--trunc", "3")
    assert code == 2 and "InsufficientModel" in err

    # consistency-7v8 is decided among Lie elements, after the model's checks
    for params in (("--trunc", "0"), ("--model", "matrix", "--dim", "1")):
        code, out, err = run(capsys, "check", "--id", "consistency-7v8", *params)
        assert (code, out) == (2, "") and "InsufficientModel" in err

    # Every matched identity an input error: no report, not an empty one.
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "check", "--id", "thm-7.4*", "--trunc", "3", "--format", fmt)
        assert (code, out) == (2, "") and err.count("InsufficientModel") == 2

    code, _, err = run(capsys, "check")
    assert code == 2 and "--id" in err


@pytest.mark.parametrize(
    "command, source, cover",
    [("bch", "paper7", "BCH tables cover orders 1..4"),
     ("zassenhaus", "paper", "Zassenhaus tables cover orders 2..4")],
)
@pytest.mark.parametrize("order", ["0", "5"])
def test_table_orders_outside_the_tables_exit_2(capsys, command, source, cover, order):
    code, out, err = run(capsys, command, "--order", order, "--source", source)
    assert (code, out) == (2, "")
    assert err == f"error: {cover}, got {order}\n"


def test_check_accepts_trunc_and_dim_at_their_caps(capsys):
    code, out, err = run(capsys, "check", "--all", "--model", "free", "--trunc", "10")
    assert code == 1 and err == "" and out.endswith("passed 24/29\n")
    code, out, err = run(capsys, "check", "--all", "--model", "matrix", "--dim", "11")
    assert code == 1 and err == "" and "passed" in out


@pytest.mark.parametrize(
    "flag, value, limit",
    [
        ("--trunc", "11", "10"),
        ("--trunc", "1000", "10"),
        ("--dim", "12", "11"),
        ("--dim", "1000", "11"),
    ],
)
def test_check_rejects_trunc_and_dim_above_their_caps(capsys, monkeypatch, flag, value, limit):
    def never(*args):
        raise AssertionError("a rejected input must not reach any identity")

    monkeypatch.setattr(weilcheck, "check_identity", never)
    code, out, err = run(capsys, "check", "--all", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"above the limit of {limit}" in err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bch", "--order", "2", "--source", "wrong")[0] == 2
    assert run(capsys, "unknown-command")[0] == 2
    assert run(capsys, "bch", "--order", "nope", "--source", "classical")[0] == 2


def test_oracle_degree_cap_is_an_input_error(capsys):
    code, _, err = run(capsys, "bch", "--order", "9", "--source", "classical")
    assert code == 2
    assert "outside" in err


def test_paper_order_cap_is_an_input_error(capsys):
    code, _, err = run(capsys, "bch", "--order", "5", "--source", "paper7")
    assert code == 2


def test_json_outputs_validate(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run(
        capsys, "bch", "--order", "3", "--source", "paper8", "--format", "json"
    )
    assert code == 0
    jsonschema.validate(json.loads(out), SERIES_SCHEMA)

    code, out, _ = run(
        capsys, "zassenhaus", "--order", "4", "--source", "classical",
        "--format", "json",
    )
    assert code == 0
    jsonschema.validate(json.loads(out), SERIES_SCHEMA)

    code, out, _ = run(capsys, "check", "--all", "--format", "json")
    assert code == 1
    for report in json.loads(out):
        jsonschema.validate(report, REPORT_SCHEMA)


def test_json_reports_omit_elapsed_unless_asked(capsys):
    _, out, _ = run(capsys, "check", "--id", "thm-7.1", "--format", "json")
    assert "elapsed_ms" not in out
    _, out, _ = run(
        capsys, "check", "--id", "thm-7.1", "--format", "json", "--timings"
    )
    assert "elapsed_ms" in out


def test_output_determinism(capsys):
    argv = ("check", "--all", "--model", "matrix", "--format", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out, _ = run(
        capsys, "bch", "--order", "2", "--source", "classical",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["kind"] == "bch"


def test_compare_zassenhaus_sources(capsys):
    code, out, _ = run(
        capsys, "compare", "--what", "zassenhaus", "--order", "3",
        "--a", "paper-b", "--b", "classical",
    )
    assert code == 0
    assert out == "-1/12*[X,[X,Y]] + 1/6*[[X,Y],Y]\n"


# One parser serves every dispatch of a process; these calls must not leak
# state from one to the next.

def test_dispatch_builds_the_parser_once(capsys):
    run(capsys, "bch", "--order", "1", "--source", "classical")
    built = cli.build_parser.cache_info().misses
    run(capsys, "logderiv", "--side", "left", "--order", "1")
    run(capsys, "check", "--id", "thm-7.1")
    assert cli.build_parser.cache_info().misses == built
    assert cli.build_parser.cache_info().currsize == 1


def test_check_all_does_not_carry_over_to_a_bare_check(capsys):
    assert run(capsys, "check", "--all")[0] == 1
    code, out, err = run(capsys, "check")
    assert code == 2 and out == ""
    assert err == "check: provide --id PATTERN or --all\n"


def test_usage_error_does_not_disturb_the_next_call(capsys):
    code, out, err = run(capsys, "bch", "--order", "2", "--source", "wrong")
    assert code == 2 and out == "" and "invalid choice" in err
    code, out, err = run(capsys, "bch", "--order", "2", "--source", "classical")
    assert code == 0 and err == ""
    assert out == "deg1: X + Y\ndeg2: 1/2*[X,Y]\n"


def test_json_format_does_not_carry_over(capsys):
    assert run(capsys, "bch", "--order", "2", "--source", "classical",
               "--format", "json")[1].startswith("{")
    assert run(capsys, "bch", "--order", "2", "--source", "classical")[1] == (
        "deg1: X + Y\ndeg2: 1/2*[X,Y]\n"
    )


def test_help_is_the_same_every_time(capsys):
    first = run(capsys, "--help")
    second = run(capsys, "--help")
    assert first[0] == 0 and first[1].startswith("usage: nilbch")
    assert first == second


# Each command is parsed by its own parser; the top-level parser sees only an
# argv that names no command.  The reference is the whole argv through the
# top-level parser, which then hands the tail to the command's parser.

def reference_dispatch(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NilbchError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


PARITY_ARGVS = [
    (),
    ("-h",),
    ("--help",),
    ("nope",),
    ("check", "-h"),
    ("check", "--bogus"),
    ("zassenhaus",),
    ("bch", "--order", "x", "--source", "classical"),
    ("bch", "--order", "2", "--source", "wrong"),
    ("bch", "--order", "2", "--source", "classical", "extra"),
    *((*argv, "--format", "json") for _, argv in GOLDEN.values()),
]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_per_command_parse_matches_the_top_level_parse(capsys, argv):
    expected = reference_dispatch(list(argv)), *capsys.readouterr()
    assert run(capsys, *argv) == expected


# The JSON writer against json.dumps(indent=2): strings with quotes,
# backslashes, control characters, non-ASCII, non-BMP characters and lone
# surrogates, every scalar type, and empty and nested containers.

_json_chars = '"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001d54f'
_json_strings = st.text(st.one_of(st.sampled_from(_json_chars), st.characters()))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _json_strings),
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(_json_strings, inner)),
    max_leaves=20,
)


@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_writes_timings_as_json_dumps_does(capsys):
    code, out, _ = run(capsys, "check", "--id", "thm-7.1", "--format", "json", "--timings")
    reports = json.loads(out)
    assert code == 0 and isinstance(reports[0]["elapsed_ms"], float)
    assert out == json.dumps(reports, indent=2) + "\n"
