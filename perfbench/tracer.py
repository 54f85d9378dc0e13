"""Outside-in tracer for brmult's public functions.

The tracer changes nothing under ``src/``. It wraps a public function and
rebinds every attribute, in every given module, that is the same object.
The brmult modules import each other with ``from .x import f``, so a
function has one alias per importing module; rebinding them all makes
calls between modules go through the wrapper too.

Each call records a span (name, start, end, parent, attr) in memory. The
spans are written out when the traced process ends. A span's self time
is its duration minus the durations of its direct children. ``attr`` is
a tuple of counts taken from the call's arguments and result. Cache
counts come from ``cache_info()`` of the original cached functions.

The ``fields`` layer is not wrapped: it is called millions of times, and
its cost already shows as ``linalg.subspace_dim`` time.
"""

from __future__ import annotations

import json
import math
import time

# (module, function, span name). Several functions may share a span name.
LAYERS = (
    ("brmult.linalg", "subspace_dim", "linalg.subspace_dim"),
    ("brmult.modules", "span_dim", "modules.span_dim"),
    ("brmult.modules", "graded_slice_length", "modules.graded_slice_length"),
    ("brmult.modules", "krull_dimension", "modules.krull_dimension"),
    ("brmult.multiplicity", "pure_table", "multiplicity.table"),
    ("brmult.multiplicity", "mixed_table", "multiplicity.table"),
    ("brmult.multiplicity", "local_table", "multiplicity.table"),
    ("brmult.multiplicity", "br_multiplicities", "multiplicity.fit"),
    ("brmult.multiplicity", "mixed_br_multiplicities", "multiplicity.fit"),
    ("brmult.multiplicity", "generalized_samuel_report", "multiplicity.fit"),
    ("brmult.multiplicity", "resolve_r", "multiplicity.resolve_r"),
    ("brmult.polyfit", "leading_form", "polyfit.leading_form"),
    ("brmult.polyfit", "total_degree_estimate", "polyfit.total_degree_estimate"),
    ("brmult.rings", "power_generators", "rings.generators"),
    ("brmult.rings", "product_generators", "rings.generators"),
    ("brmult.filtration", "mixed_level", "filtration"),
    ("brmult.filtration", "check_filtration_inclusions", "filtration"),
    ("brmult.filtration", "assoc_graded_piece_dims", "filtration"),
    ("brmult.filtration", "filtration_factor_lengths", "filtration"),
    ("brmult.filtration", "mixed_factor_lengths", "filtration"),
    ("brmult.verify", "check_mixed_operator_formula", "verify"),
    ("brmult.verify", "check_telescoping", "verify"),
    ("brmult.verify", "check_mixed_factor_sum", "verify"),
    ("brmult.verify", "check_degree_bound", "verify"),
    ("brmult.verify", "check_symmetry", "verify"),
    ("brmult.cli", "parse_instance", "cli.parse_instance"),
    ("brmult.cli", "run", "cli.run"),
)

# Public lru_cache'd functions behind rings.cache_hit_ratio.
CACHED = (
    ("brmult.rings", "monomial_basis"),
    ("brmult.rings", "power_generators"),
    ("brmult.rings", "product_generators"),
)


def _cells(table) -> int:
    return math.prod(table.extents)


# Counts recorded per span name, from (positional args, result).
MEASURES = {
    "linalg.subspace_dim": lambda args, rank: (len(args[0]), rank),
    "modules.graded_slice_length": lambda args, res: (len(res.per_degree),),
    # pure_table and mixed_table return (table, stops); local_table a table.
    "multiplicity.table": lambda args, res: (
        _cells(res[0] if isinstance(res, tuple) else res),
    ),
    "multiplicity.fit": lambda args, report: (_cells(report.table),),
}


class Tracer:
    """Collects spans of wrapped calls in one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._cached = []

    def wrap(self, fn, name, measure=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if measure is not None:
                spans[index] = (name, start, end, parent, measure(args, result))
            return result

        return traced

    def install(self, modules: dict, layers=LAYERS, cached=CACHED) -> None:
        """Wrap each layer function and rebind all its aliases in ``modules``.

        ``modules`` maps module names to module objects.
        """
        self._cached = [getattr(modules[m], f) for m, f in cached]
        wrappers = {}
        for mod_name, fn_name, span in layers:
            fn = getattr(modules[mod_name], fn_name)
            wrappers[id(fn)] = (fn, self.wrap(fn, span, MEASURES.get(span)))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def cache_counts(self) -> tuple:
        hits = misses = 0
        for fn in self._cached:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def dump(self, path) -> None:
        hits, misses = self.cache_counts()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "cache": [hits, misses]}, handle)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed attrs.

    Inclusive seconds count only the outermost span of a name, so a
    function reached again below itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, attr) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attr": ()})
        duration = end - start
        agg["calls"] += 1
        agg["self_s"] += duration - child[i]
        if not has_ancestor(spans, i, name):
            agg["s"] += duration
        if attr is not None:
            old = agg["attr"] or (0,) * len(attr)
            agg["attr"] = tuple(a + b for a, b in zip(old, attr))
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_totals(spans, cache) -> dict:
    """Additive per-layer totals of one traced process."""
    s = summarize(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "attr": ()}

    def get(name):
        return s.get(name, zero)

    def attr(name, k):
        values = get(name)["attr"]
        return values[k] if values else 0

    # A table built outside any fit (the lambda command) is kept whole.
    loose_cells = sum(
        span[4][0]
        for i, span in enumerate(spans)
        if span[0] == "multiplicity.table"
        and span[4] is not None
        and not has_ancestor(spans, i, "multiplicity.fit")
    )
    return {
        "linalg.subspace_dim.calls": get("linalg.subspace_dim")["calls"],
        "linalg.subspace_dim.s": get("linalg.subspace_dim")["s"],
        "linalg.rows_in": attr("linalg.subspace_dim", 0),
        "linalg.rank_out": attr("linalg.subspace_dim", 1),
        "modules.span_dim.calls": get("modules.span_dim")["calls"],
        "modules.span_dim.self_s": get("modules.span_dim")["self_s"],
        "modules.graded_slice_length.calls": get("modules.graded_slice_length")["calls"],
        "modules.graded_slice_length.self_s": get("modules.graded_slice_length")["self_s"],
        "modules.degrees_walked": attr("modules.graded_slice_length", 0),
        "modules.krull_dimension.s": get("modules.krull_dimension")["s"],
        "multiplicity.table.cells": attr("multiplicity.table", 0),
        "multiplicity.table.self_s": get("multiplicity.table")["self_s"],
        "multiplicity.cells_kept": attr("multiplicity.fit", 0) + loose_cells,
        "multiplicity.fit.self_s": get("multiplicity.fit")["self_s"],
        "multiplicity.resolve_r.s": get("multiplicity.resolve_r")["s"],
        "polyfit.leading_form.s": get("polyfit.leading_form")["s"],
        "polyfit.total_degree_estimate.s": get("polyfit.total_degree_estimate")["s"],
        "rings.generators.s": get("rings.generators")["s"],
        "rings.cache_hits": cache[0],
        "rings.cache_misses": cache[1],
        "filtration.calls": get("filtration")["calls"],
        "filtration.self_s": get("filtration")["self_s"],
        "verify.self_s": get("verify")["self_s"],
        "cli.parse_instance.s": get("cli.parse_instance")["s"],
        "cli.run.self_s": get("cli.run")["self_s"],
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics from totals summed over one pass of queries."""
    out = dict(totals)
    out["linalg.rank_per_row"] = _ratio(totals["linalg.rank_out"], totals["linalg.rows_in"])
    out["multiplicity.cells_kept_ratio"] = _ratio(
        out.pop("multiplicity.cells_kept"), totals["multiplicity.table.cells"]
    )
    hits, misses = out.pop("rings.cache_hits"), out.pop("rings.cache_misses")
    out["rings.cache_hit_ratio"] = _ratio(hits, hits + misses)
    return out


def add_totals(a: dict, b: dict) -> dict:
    return {key: a.get(key, 0) + value for key, value in b.items()}
