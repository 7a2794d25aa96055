"""nilbch benchmark: one closed-loop client running CLI commands in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog-free --seed 1 --seconds 30 --trace 0

Each op is one ``nilbch`` command, run through ``nilbch.cli.dispatch`` with
``--format json`` and stdout captured; exit code 1 is a FAIL verdict, not a
failed op.  Whole passes over the seeded, shuffled op list repeat until
``--seconds`` have passed and at least ten latencies lie above the 90th
percentile.  Every op's output is checked after the clock stops.  Latencies
are reported in refs: each op's time over that of a fixed reference
computation timed next to it, which cancels the shared host's speed swings.

``--trace 0`` reports the end-to-end metrics; set-up is timed in fresh
interpreters (``cold.py``) started between ops throughout the run.
``--trace 1`` spends half the time untraced and half traced, and reports
per-layer counts and self times per pass, the tracing overhead and the
number of matrix quotient PASSes.  Spans of the first traced pass are
written to ``.bench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

from checks import BadOutput, check_output
from workloads import WORKLOADS, build_ops, run_op
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 15
MIN_ABOVE_P90 = 10

# Layers each workload must bypass: every traced metric prefix starting with
# one of these strings has zero calls.  An optimisation of such a layer is
# predicted to leave that workload unchanged.
BYPASSED = {
    "catalog-free": ("weilcheck.nilmatrix_", "series."),
    "catalog-matrix": ("assoc.", "freelie.dynkin_project", "freelie.lie_embed", "series."),
    "oracle-classical": ("scalars.", "weilcheck."),
}


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_per_s", "1/s"), ("_s", "s"), ("_mb", "MiB"),
                         ("_pct", "%"), ("_ratio", "ratio"), ("_per_kref", "1/kref"),
                         ("_ref", "ref")):
        if name.endswith(suffix):
            return unit
    return "count"


# The reference computation: a fixed 40 x 40-term product of mask-keyed
# Fraction polynomials, the same kind of work as the package's Weil and
# word algebra, written here so that no change to the package moves it.
_REF_RNG = random.Random(0)
REF_A, REF_B = (
    {_REF_RNG.getrandbits(10): Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
     for _ in range(40)}
    for _ in range(2)
)


def reference_seconds() -> float:
    """Time one run of the reference computation."""
    start = time.perf_counter()
    out = {}
    for m1, v1 in REF_A.items():
        for m2, v2 in REF_B.items():
            if not m1 & m2:
                out[m1 | m2] = out.get(m1 | m2, 0) + v1 * v2
    return time.perf_counter() - start


def band_median(values) -> float:
    """Median as the mean of the 40th-60th percentile band.

    Op costs form a few dozen groups.  Where the 50th percentile falls in a
    gap between two groups, the plain median jumps from one group to the
    other between runs; the band average moves only by the share of
    samples that change sides.
    """
    ordered = sorted(values)
    cut = len(ordered) * 2 // 5
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def run_phase(cli, ops, seconds, results, after_pass=None, between=None):
    """Closed loop of whole passes; returns (latencies in s, latencies in
    refs, elapsed s).

    The reference computation runs after each op, outside its clock.  An
    op's latency in refs is its time divided by the mean of the reference
    times just before and just after it, so that the host's speed at that
    moment cancels out.  ``between(elapsed)``, if given, runs before each op,
    outside its clock and before its reference time.
    """
    latencies, relative = [], []
    start = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        for argv in ops:
            if between is not None and between(time.perf_counter() - start):
                ref_before = reference_seconds()
            code, stdout, seconds_op = run_op(cli, argv)
            ref_after = reference_seconds()
            latencies.append(seconds_op)
            relative.append(2 * seconds_op / (ref_before + ref_after))
            ref_before = ref_after
            results[argv, code, stdout] += 1
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(relative) >= 10 * MIN_ABOVE_P90:
            p90 = statistics.quantiles(relative, n=10)[-1]
            if sum(r > p90 for r in relative) >= MIN_ABOVE_P90:
                return latencies, relative, elapsed


class SetupProbes:
    """Set-up times of fresh interpreters, each running the cold op.

    The probes are spread evenly over the timed run, so that their median
    samples the host over the whole run rather than over one second of it.
    """

    def __init__(self, workload, seed, results, seconds):
        self.command = [sys.executable, os.path.join(HERE, "cold.py"), workload, str(seed)]
        self.results, self.seconds = results, seconds
        self.times, self.spent = [], 0.0  # set-up times; wall time in probes
        self.probe()  # fills the bytecode and file caches; not counted
        self.times.clear()
        self.spent = 0.0

    def probe(self):
        start = time.perf_counter()
        proc = subprocess.run(self.command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        cold = json.loads(proc.stdout.splitlines()[-1])
        self.results[tuple(cold["argv"]), cold["code"], cold["stdout"]] += 1
        self.times.append(cold["setup_s"])
        self.spent += time.perf_counter() - start

    def __call__(self, elapsed) -> bool:
        """Probe if one is due at ``elapsed`` seconds into the run."""
        due = len(self.times) < SETUP_PROBES * min(1.0, elapsed / self.seconds)
        if due:
            self.probe()
        return due

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:  # a run shorter than its ops
            self.probe()
        return statistics.median(self.times)


def validate(results):
    """Check each distinct output once; returns (failed ops, problems, quotient argvs)."""
    outputs = defaultdict(set)
    for argv, code, stdout in results:
        outputs[argv].add((code, stdout))
    failed, problems, quotient = 0, [], set()
    for (argv, code, stdout), count in results.items():
        try:
            if len(outputs[argv]) > 1:
                raise BadOutput("output differs between runs of the same op")
            if check_output(argv, code, stdout):
                quotient.add(argv)
        except BadOutput as exc:
            failed += count
            problems.append(f"{' '.join(argv)}: {exc}")
    return failed, problems, quotient


def run_untraced(cli, ops, args, results):
    setup = SetupProbes(args.workload, args.seed, results, args.seconds)
    ref_ms = statistics.median(reference_seconds() for _ in range(200)) * 1e3
    latencies, relative, elapsed = run_phase(cli, ops, args.seconds, results,
                                             between=setup)
    p90 = statistics.quantiles(relative, n=10)[-1]
    metrics = {
        "op_p50_ref": band_median(relative),
        "op_p90_ref": p90,
        "ops_per_kref": 1000 * len(relative) / sum(relative),
        "setup_s": setup.median(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Printed, not reported: the same latencies in host time, which on a
    # shared two-vCPU host swing by a third between minutes (see README.md).
    notes = [
        f"{len(latencies)} timed ops in {elapsed:.2f} s "
        f"({setup.spent:.2f} s of them in set-up probes), "
        f"{sum(r > p90 for r in relative)} above op_p90_ref",
        f"1 ref = {ref_ms:.4g} ms (median of 200 reference runs before timing)",
        f"op_p50_ms {band_median(latencies) * 1e3:.6g} ms",
        f"op_p90_ms {statistics.quantiles(latencies, n=10)[-1] * 1e3:.6g} ms",
        f"ops_per_s {len(latencies) / (elapsed - setup.spent):.6g} 1/s",
    ]
    return metrics, notes, []


def run_traced(cli, ops, args, results):
    """Untraced half, then traced half; outputs of both go into ``results``,
    so ``validate`` also requires traced and untraced outputs to be identical."""
    untraced_s, untraced, _ = run_phase(cli, ops, args.seconds / 2, results)
    tracer = tracing.Tracer()
    marks, deltas, spans = [tracer.snapshot()], [], []

    def after_pass():
        marks.append(tracer.snapshot())
        deltas.append(tracing.diff(marks[-1], marks[-2]))
        if tracer.spans is not None:  # keep the spans of the first pass only
            spans.extend(tracer.spans)
            tracer.spans = None

    tracer.spans = []
    tracer.install()
    try:
        traced_s, traced, _ = run_phase(cli, ops, args.seconds / 2, results, after_pass)
    finally:
        tracer.uninstall()

    problems = []
    if any(tracing.counts(d) != tracing.counts(deltas[0]) for d in deltas[1:]):
        problems.append("per-layer counts differ between identical passes")
    metrics = tracing.metrics(deltas)
    for prefix in BYPASSED[args.workload]:
        for name, value in metrics.items():
            if name.startswith(prefix) and name.endswith(".calls") and value:
                problems.append(f"{name} is {value} on {args.workload}, predicted 0")
    traced_p50, untraced_p50 = band_median(traced), band_median(untraced)
    metrics["trace_overhead_ref"] = traced_p50 - untraced_p50
    metrics["trace_overhead_pct"] = 100 * (traced_p50 - untraced_p50) / untraced_p50
    notes = [
        f"{len(untraced)} untraced and {len(traced)} traced ops, {len(deltas)} traced passes",
        f"trace_overhead_ms {(band_median(traced_s) - band_median(untraced_s)) * 1e3:.6g} ms",
        f"{len(tracer.bindings)} bindings wrapped; spans of one pass in "
        + _write_spans(args, spans),
    ]
    return metrics, notes, problems


def _write_spans(args, spans):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    origin = spans[0][3] if spans else 0.0
    op_of = {}
    rows = []
    for span_id, parent, name, start, end in spans:
        op_of[span_id] = span_id if parent is None else op_of[parent]
        rows.append([span_id, parent, op_of[span_id], name,
                     round((start - origin) * 1e3, 4), round((end - origin) * 1e3, 4)])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["id", "parent", "op", "name", "start_ms", "end_ms"],
                   "spans": rows}, handle)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nilbch", "__init__.py")):
        print(f"error: no nilbch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nilbch.cli

    ops = build_ops(args.workload, args.seed)
    results = Counter()
    runner = run_traced if args.trace else run_untraced
    metrics, notes, problems = runner(nilbch.cli, ops, args, results)
    failed, bad_outputs, quotient = validate(results)
    problems = bad_outputs + problems
    attempted = sum(results.values())
    quotient_pass_ops = sum(argv in quotient for argv in ops)
    if args.trace:
        metrics["quotient_pass_ops"] = quotient_pass_ops
    else:
        metrics["ok_op_ratio"] = (attempted - failed) / attempted

    print(f"nilbch benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(ops)} ops per pass")
    for note in notes:
        print(f"  {note}")
    print(f"  failed_op_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(f"  quotient_pass_ops {quotient_pass_ops} (matrix PASS where the free model FAILs)")
    for name, value in metrics.items():
        print(f"  {name:36} {value:>14.6g} {_unit(name)}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": _unit(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
