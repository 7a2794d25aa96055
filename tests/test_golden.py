"""Byte-for-byte golden outputs of the JSON command line.

Each file under ``tests/golden/`` is the exact stdout of one ``nilbch``
command with ``--format json``.  A refactor must leave every verdict,
witness and series unchanged, so any difference here is a regression unless
the change of output is deliberate.  To regenerate after such a change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from nilbch.cli import dispatch

GOLDEN_DIR = Path(__file__).with_name("golden")

# file stem -> (exit code, argv without --format json)
GOLDEN = {
    "check-all-free": (1, ("check", "--all", "--model", "free")),
    "check-all-free-trunc6": (1, ("check", "--all", "--model", "free", "--trunc", "6")),
    "check-all-matrix": (1, ("check", "--all", "--model", "matrix")),
    "check-all-matrix-dim6": (1, ("check", "--all", "--model", "matrix", "--dim", "6")),
    "check-all-matrix-seed34": (1, ("check", "--all", "--model", "matrix", "--seed", "34")),
    **{
        f"bch-classical-{n}": (0, ("bch", "--order", str(n), "--source", "classical"))
        for n in range(1, 7)
    },
    **{
        f"zassenhaus-classical-{n}": (
            0, ("zassenhaus", "--order", str(n), "--source", "classical"))
        for n in range(2, 7)
    },
    **{
        f"bch-{source}-{n}": (0, ("bch", "--order", str(n), "--source", source))
        for source in ("paper7", "paper8")
        for n in range(1, 5)
    },
    **{
        f"zassenhaus-paper-{form}-{n}": (
            0, ("zassenhaus", "--order", str(n), "--source", "paper", "--form", form))
        for form in ("a", "b")
        for n in range(2, 5)
    },
    "compare-bch-4-paper7-classical": (
        0, ("compare", "--what", "bch", "--order", "4", "--a", "paper7", "--b", "classical")),
    **{
        f"compare-zassenhaus-{n}-{a}-classical": (
            0, ("compare", "--what", "zassenhaus", "--order", str(n), "--a", a, "--b", "classical"))
        for n, a in ((3, "paper-b"), (4, "paper"))
    },
    "hall-2-6": (0, ("hall", "--gens", "2", "--degree", "6")),
    "hall-3-4": (0, ("hall", "--gens", "3", "--degree", "4")),
    **{
        f"logderiv-{side}-5": (0, ("logderiv", "--side", side, "--order", "5"))
        for side in ("left", "right")
    },
}


def _run(argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dispatch(list(argv) + ["--format", "json"])
    return code, out.getvalue()


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_json_output_matches_golden(stem):
    expected_code, argv = GOLDEN[stem]
    code, text = _run(argv)
    assert code == expected_code
    assert text == (GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, (expected_code, argv) in sorted(GOLDEN.items()):
        code, text = _run(argv)
        assert code == expected_code, (stem, code)
        (GOLDEN_DIR / f"{stem}.json").write_text(text, encoding="utf-8")
