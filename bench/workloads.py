"""Op lists of the three benchmark workloads, built from the workload seed.

An op is one ``nilbch`` command line.  The published verdicts below are
written out by hand, not read from the package, so that a checker change
which flips a verdict is caught as a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

WORKLOADS = ("catalog-free", "catalog-matrix", "oracle-classical")

# id -> (bracket order, which is the minimum free-model truncation; published
# free-model verdict).  24 PASS and 5 FAIL.
PUBLISHED = {
    "prop-2.1": (2, "PASS"),
    "prop-2.2": (2, "PASS"),
    "thm-2.3": (2, "PASS"),
    "lemma-2.5": (4, "PASS"),
    "prop-4.4": (2, "PASS"),
    "prop-4.5": (1, "PASS"),
    "prop-5.3": (2, "PASS"),
    "prop-5.4": (2, "PASS"),
    "lemma-6.0": (1, "PASS"),
    "thm-6.1": (1, "PASS"),
    "thm-6.2a": (2, "PASS"),
    "thm-6.2b": (2, "PASS"),
    "thm-6.3a": (3, "PASS"),
    "thm-6.3b": (3, "FAIL"),
    "thm-6.4a": (4, "PASS"),
    "thm-6.4b": (4, "FAIL"),
    "thm-7.1": (1, "PASS"),
    "thm-7.2a": (2, "PASS"),
    "thm-7.2b": (2, "PASS"),
    "cor-7.2.1": (2, "PASS"),
    "thm-7.3a": (3, "PASS"),
    "thm-7.3b": (3, "PASS"),
    "thm-7.4a": (4, "FAIL"),
    "thm-7.4b": (4, "FAIL"),
    "thm-8.1": (1, "PASS"),
    "thm-8.2": (2, "PASS"),
    "thm-8.3": (3, "PASS"),
    "thm-8.4": (4, "FAIL"),
    "consistency-7v8": (1, "PASS"),
}

MATRIX_DIMS = (5, 6)
MATRIX_SEEDS = range(100)
# Matrix seeds per (id, dim).  Op cost depends on the seeded matrices, and one
# seed each leaves the run's median op at the mercy of a few draws; four make
# the median of a run vary by about 3% between workload seeds.
MATRIX_SEEDS_PER_OP = 4
CLASSICAL_BCH_ORDERS = range(1, 7)
CLASSICAL_ZASSENHAUS_ORDERS = range(2, 7)


def build_ops(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The op list of one pass, shuffled by the seed; every pass repeats it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog-free":
        ops = [
            ("check", "--id", ident, "--model", "free", "--trunc", str(trunc))
            for ident, (order, _) in PUBLISHED.items()
            for trunc in range(order, order + 3)
        ]
    elif workload == "catalog-matrix":
        ops = [
            ("check", "--id", ident, "--model", "matrix", "--dim", str(dim),
             "--seed", str(matrix_seed))
            for ident in PUBLISHED
            for dim in MATRIX_DIMS
            for matrix_seed in rng.sample(MATRIX_SEEDS, MATRIX_SEEDS_PER_OP)
        ]
    elif workload == "oracle-classical":
        ops = [("bch", "--order", str(n), "--source", "classical")
               for n in CLASSICAL_BCH_ORDERS]
        ops += [("zassenhaus", "--order", str(n), "--source", "classical")
                for n in CLASSICAL_ZASSENHAUS_ORDERS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ops = [op + ("--format", "json") for op in ops]
    rng.shuffle(ops)
    return ops


def run_op(cli, argv: tuple[str, ...]):
    """Run one op in-process with stdout captured: (code, stdout, seconds).

    ``cli`` is the ``nilbch.cli`` module; ``dispatch`` is looked up on each
    call so that a tracer's wrapper is used.  An op that raises yields the
    exception text in place of an exit code.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.dispatch(list(argv))
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds
