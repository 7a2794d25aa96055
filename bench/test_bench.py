"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import nilbch.cli  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import BadOutput, check_output  # noqa: E402
from workloads import WORKLOADS, build_ops, run_op  # noqa: E402

COUNT_SUFFIXES = (".calls", ".term_pairs", ".entry_products")


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload, seed, trace):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_declared_metrics(workload):
    result = _result(workload, 3, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = _result(workload, 5, 1), _result(workload, 5, 1)
    assert first["correct"] and second["correct"]
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == _declared("per_layer")
    counts = [
        {n: m["value"] for n, m in r["metrics"].items() if n.endswith(COUNT_SUFFIXES)}
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.dispatch.calls"] == len(build_ops(workload, 5))


def test_tracer_wraps_every_binding_and_sees_every_call():
    """Every call of a wrapped function, by any name, reaches its wrapper.

    A profiler counts calls of the original code objects; each one must
    have come through the tracer.
    """
    tracer = tracing.Tracer()
    codes = {}
    for prefix, module, cls, attr, *_ in tracing.TARGETS:
        owner = sys.modules[module]
        fn = vars(getattr(owner, cls))[attr] if cls else getattr(owner, attr)
        codes[fn.__code__] = prefix
    seen = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    ops = [op for w in WORKLOADS for op in build_ops(w, 7)[:4]]
    tracer.install()
    sys.setprofile(profile)
    try:
        for argv in ops:
            run_op(nilbch.cli, argv)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    calls = {prefix: stat[tracing.CALLS] for prefix, stat in tracer.stats.items()}
    assert seen == Counter({k: v for k, v in calls.items() if v})
    assert {
        "nilbch.series.poly_mul", "nilbch.weilcheck.poly_exp", "nilbch.cli.bch_classical",
        "nilbch.poly_mul", "nilbch.scalars.WeilElement.__rmul__",
        "nilbch.scalars.WeilElement.__radd__",
    } <= set(tracer.bindings)
    assert not hasattr(nilbch.series.poly_mul, "__wrapped__")
    assert nilbch.series.poly_mul is nilbch.assoc.poly_mul


def _output(argv):
    code, stdout, _ = run_op(nilbch.cli, argv + ("--format", "json"))
    return code, stdout


def test_checks_accept_right_and_reject_wrong_outputs():
    bch = ("bch", "--order", "4", "--source", "classical")
    code, stdout = _output(bch)
    assert check_output(bch + ("--format", "json"), code, stdout) is False
    wrong = stdout.replace('"1/12"', '"1/11"', 1)
    with pytest.raises(BadOutput):
        check_output(bch, code, wrong)

    zass = ("zassenhaus", "--order", "5", "--source", "classical")
    code, stdout = _output(zass)
    check_output(zass, code, stdout)
    with pytest.raises(BadOutput):
        check_output(zass, code, stdout.replace('"-1/2"', '"1/2"', 1))

    free = ("check", "--id", "thm-8.4", "--model", "free", "--trunc", "4")
    code, stdout = _output(free)
    check_output(free, code, stdout)
    with pytest.raises(BadOutput):
        check_output(free, 0, stdout.replace('"FAIL"', '"PASS"'))


def test_matrix_quotient_pass_is_allowed_but_lost_pass_is_not():
    def matrix(ident):
        return ("check", "--id", ident, "--model", "matrix", "--dim", "5", "--seed", "34")

    code, stdout = _output(matrix("thm-7.4a"))  # published FAIL
    assert code == 0 and check_output(matrix("thm-7.4a"), code, stdout) is True
    code, stdout = _output(matrix("prop-2.1"))  # published PASS
    assert check_output(matrix("prop-2.1"), code, stdout) is False
    lost = stdout.replace('"verdict": "PASS"', '"verdict": "FAIL", "witness": {"lead": 1}')
    with pytest.raises(BadOutput):
        check_output(matrix("prop-2.1"), 1, lost)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "oracle-classical", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
