"""Per-layer tracing of nilbch from outside the package.

``Tracer.install`` wraps the public functions and operators of each layer.
Every name that refers to a wrapped function is rebound: the defining
module's attribute, each copy another module imported with ``from ... import``
(``series.poly_mul``, ``weilcheck.poly_exp``, the package's re-exports) and
each class alias (``WeilElement.__rmul__``, ``__radd__``).  ``install``
then scans again and fails if any binding still holds an original.

Each wrapper counts calls and self time: its own duration minus the full
duration of the wrapped calls it makes, where a child's full duration
includes the child's bookkeeping.  Bookkeeping is thus charged to no layer.
Module-level functions also record spans while ``spans`` is a list; the hot
operators are aggregated as counters only, so memory stays bounded.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from fractions import Fraction

CALLS, SELF_S, WORK, USEFUL = range(4)


def _weil_term_pairs(stat, args):
    """Term pairs of a Weil product; useful when the two masks are disjoint."""
    a, b = args
    masks = getattr(b, "coeffs", None)
    if masks is None:
        if not isinstance(b, (int, Fraction)):
            return
        masks = (0,) if b else ()  # a rational is one term on the empty mask
    pairs = len(a.coeffs) * len(masks)
    if pairs:
        stat[WORK] += pairs
        stat[USEFUL] += sum(1 for m1 in a.coeffs for m2 in masks if not m1 & m2)


def _matrix_entry_products(stat, args):
    """Entry products of a matrix product; useful when both factors are nonzero."""
    a, b = args
    if not hasattr(b, "rows"):
        return
    n = a.dim
    stat[WORK] += n**3
    stat[USEFUL] += sum(
        sum(1 for i in range(n) if a.rows[i][k]) * sum(1 for e in b.rows[k] if e)
        for k in range(n)
    )


def _poly_term_pairs(stat, args):
    a, b = args
    stat[WORK] += len(a.terms) * len(b.terms)


# (metric prefix, module, class or None, attribute, work counter, work names)
TARGETS = (
    ("cli.dispatch", "nilbch.cli", None, "dispatch", None, ()),
    ("weilcheck.check_identity", "nilbch.weilcheck", None, "check_identity", None, ()),
    ("weilcheck.nilmatrix_mul", "nilbch.weilcheck", "NilMatrix", "__mul__",
     _matrix_entry_products, ("entry_products", "useful_ratio")),
    ("weilcheck.nilmatrix_exp", "nilbch.weilcheck", "NilMatrix", "exp", None, ()),
    ("weilcheck.nilmatrix_inv", "nilbch.weilcheck", "NilMatrix", "inv", None, ()),
    ("scalars.weil_mul", "nilbch.scalars", "WeilElement", "__mul__",
     _weil_term_pairs, ("term_pairs", "useful_ratio")),
    ("scalars.weil_add", "nilbch.scalars", "WeilElement", "__add__", None, ()),
    ("scalars.weil_inverse", "nilbch.scalars", "WeilElement", "inverse", None, ()),
    ("assoc.poly_mul", "nilbch.assoc", None, "poly_mul", _poly_term_pairs, ("term_pairs",)),
    ("assoc.poly_exp", "nilbch.assoc", None, "poly_exp", None, ()),
    ("assoc.poly_log", "nilbch.assoc", None, "poly_log", None, ()),
    ("assoc.poly_inv", "nilbch.assoc", None, "poly_inv", None, ()),
    ("freelie.lie_bracket", "nilbch.freelie", None, "lie_bracket", None, ()),
    ("freelie.dynkin_project", "nilbch.freelie", None, "dynkin_project", None, ()),
    ("freelie.lie_embed", "nilbch.freelie", None, "lie_embed", None, ()),
    ("series.bch_classical", "nilbch.series", None, "bch_classical", None, ()),
    ("series.zassenhaus_classical", "nilbch.series", None, "zassenhaus_classical", None, ()),
)


def _namespaces():
    """Every module namespace and class namespace of the nilbch package."""
    for name, module in list(sys.modules.items()):
        if name != "nilbch" and not name.startswith("nilbch."):
            continue
        yield module, vars(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value, vars(value)


def _label(owner) -> str:
    if isinstance(owner, types.ModuleType):
        return owner.__name__
    return f"{owner.__module__}.{owner.__qualname__}"


class Tracer:
    def __init__(self):
        self.stats = {prefix: [0, 0.0, 0, 0] for prefix, *_ in TARGETS}
        self.spans: list | None = None
        self.bindings: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stack = [0.0]
        self._span_stack = [None]

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        originals = {}
        for prefix, module, cls, attr, work, _ in TARGETS:
            owner = sys.modules[module]
            if cls is not None:
                fn = vars(getattr(owner, cls))[attr]
            else:
                fn = getattr(owner, attr)
            originals[id(fn)] = (fn, self._wrap(fn, prefix, work, span=cls is None))
        for owner, namespace in _namespaces():
            for name, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, name, hit[1])
                    self._restore.append((owner, name, value))
                    self.bindings.append(f"{_label(owner)}.{name}")
        for owner, namespace in _namespaces():
            for name, value in namespace.items():
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self.uninstall()
                    raise RuntimeError(f"{_label(owner)}.{name} escaped the tracer")

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, prefix, work, span):
        stat = self.stats[prefix]
        stack = self._stack
        clock = time.perf_counter

        if not span:  # methods and operators: positional arguments only
            @functools.wraps(fn)
            def counter(*args):
                enter = clock()
                if work is not None:
                    work(stat, args)
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args)
                finally:
                    end = clock()
                    stat[CALLS] += 1
                    stat[SELF_S] += end - start - stack.pop()
                    stack[-1] += clock() - enter

            return counter

        span_stack = self._span_stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            enter = clock()
            if work is not None:
                work(stat, args)
            spans = self.spans
            if spans is not None:
                span_id = len(spans)
                spans.append(None)
                span_stack.append(span_id)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stat[CALLS] += 1
                stat[SELF_S] += end - start - stack.pop()
                if spans is not None:
                    span_stack.pop()
                    spans[span_id] = (span_id, span_stack[-1], prefix, start, end)
                stack[-1] += clock() - enter

        return spanned

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict[str, tuple]:
        return {prefix: tuple(stat) for prefix, stat in self.stats.items()}


def diff(after: dict, before: dict) -> dict[str, tuple]:
    return {k: tuple(a - b for a, b in zip(after[k], before[k])) for k in after}


def metrics(delta_per_pass: list[dict]) -> dict[str, float]:
    """Per-pass metrics: counts from one pass, self time as the median pass."""
    first = delta_per_pass[0]
    out = {}
    for prefix, *_, work_names in TARGETS:
        stat = first[prefix]
        out[f"{prefix}.calls"] = stat[CALLS]
        self_s = statistics.median(d[prefix][SELF_S] for d in delta_per_pass)
        out[f"{prefix}.self_ms"] = self_s * 1e3
        if work_names:
            out[f"{prefix}.{work_names[0]}"] = stat[WORK]
        if len(work_names) > 1:
            ratio = stat[USEFUL] / stat[WORK] if stat[WORK] else 0.0
            out[f"{prefix}.{work_names[1]}"] = ratio
    return out


def counts(delta: dict) -> dict[str, tuple]:
    """The deterministic part of a pass: calls and work counts, not times."""
    return {k: (v[CALLS], v[WORK], v[USEFUL]) for k, v in delta.items()}
