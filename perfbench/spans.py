"""In-memory spans around the public functions of each dcdesign layer.

The tracer rebinds each wrapped function's name in every ``dcdesign.*``
module namespace that holds it (``from .arrays import x`` copies the name,
so rebinding only the defining module would miss most calls), plus
``GaloisField.__init__`` for field construction.  ``restore`` puts every
original object back, so untraced runs carry no wrapper cost.  Names that a
later version of the program no longer has are skipped.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 for none), ``value`` holds what a hook chose to keep
from the call's result.  Spans are appended in call order.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter

# Wrapped public functions, by layer (the dcdesign module of the same name).
TARGETS = {
    "oabuild": (
        "full_factorial",
        "linear_column",
        "bush_oa",
        "is_block_form",
        "normalize_block_form",
        "load_oa",
        "save_oa",
        "load_matrix",
    ),
    "arrays": (
        "is_orthogonal_array",
        "is_latin_hypercube",
        "level_collapse",
        "level_expand",
        "to_continuous",
        "is_croa",
        "croa_partition_exists",
        "grid_stratification",
        "make_oa",
    ),
    "construct": (
        "check_feasible",
        "_family_inputs",
        "sample_family_plan",
        "sample_plan_stacked",
        "sample_plan_replicated",
        "sample_plan_selected",
        "construct_c1",
        "construct_c2",
        "construct_c3",
        "split_strength3_inputs",
        "regular_inputs",
        "construct_from_plan",
        "build_design",
    ),
    "verify": (
        "check_coupling",
        "check_mcd",
        "check_projections",
        "witness_decomposition",
        "croa_partition",
        "stratification_report",
        "full_report",
    ),
    "criteria": ("maximin_distance", "centered_l2_discrepancy", "score", "optimize_d2"),
    "bundle": ("plan_digest", "report_summary", "design_to_bundle", "save_bundle", "parse_bundle", "load_bundle"),
    "cli": ("main", "cmd_generate", "cmd_optimize", "cmd_verify", "cmd_export"),
}

FIELD_SPAN = "gf.GaloisField"
CONSTRUCTIONS = ("construct.construct_c1", "construct.construct_c2", "construct.construct_c3")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _keep_score(tracer, record, args, kwargs, result):
    record[4] = (result.value, result.sense)


def _count_written(tracer, record, args, kwargs, result):
    tracer.counters["bundle.bytes_written"] += _file_size(args[1] if len(args) > 1 else kwargs.get("path"))


def _count_read(tracer, record, args, kwargs, result):
    tracer.counters["bundle.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))


HOOKS = {
    "criteria.score": _keep_score,
    "bundle.save_bundle": _count_written,
    "bundle.load_bundle": _count_read,
}


class Tracer:
    """Collects spans while installed; use as ``with Tracer() as t: ...``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, record, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        homes = {layer: importlib.import_module(f"dcdesign.{layer}") for layer in (*TARGETS, "gf")}
        modules = [m for key, m in sys.modules.items() if key == "dcdesign" or key.startswith("dcdesign.")]
        for layer, names in TARGETS.items():
            home = homes[layer]
            for attr in names:
                original = getattr(home, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._saved.append((module, key, original))
        field = homes["gf"].GaloisField
        original_init = field.__dict__["__init__"]
        field.__init__ = self._wrap(FIELD_SPAN, original_init)
        self._saved.append((field, "__init__", original_init))

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def _outermost(spans, index: int) -> bool:
    name = spans[index][0]
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True


def name_stats(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive time (outermost spans of that name
    only, so recursion is not counted twice) and self time."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        if _outermost(spans, i):
            entry["inclusive_s"] += end - start
    return stats


def swap_acceptance(spans) -> tuple[int, int]:
    """(proposed, accepted) swap moves, replayed from the scores recorded
    inside the search.  Each restart samples one plan; its first score is
    the starting point and every later one scores a proposed swap, accepted
    when it beats the running best by more than the library's tie
    tolerance."""
    from dcdesign.criteria import TIE_TOLERANCE

    inside = {i for i, span in enumerate(spans) if span[0] == "criteria.optimize_d2"}
    proposed = accepted = 0
    best = None
    for i, (name, _, _, parent, value) in enumerate(spans):
        if parent in inside:
            inside.add(i)
        if i not in inside:
            continue
        if name == "construct.sample_family_plan":
            best = None
        elif name == "criteria.score" and value is not None:
            current, sense = value
            if best is None:
                best = current
                continue
            proposed += 1
            better = current > best + TIE_TOLERANCE if sense == "maximize" else current < best - TIE_TOLERANCE
            if better:
                accepted += 1
                best = current
    return proposed, accepted


def _layer_self(stats, layer: str) -> float:
    return sum(entry["self_s"] for name, entry in stats.items() if name.split(".", 1)[0] == layer)


def op_layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced op (times in seconds, counts)."""
    stats = name_stats(spans)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def inclusive(name):
        return stats.get(name, {}).get("inclusive_s", 0.0)

    return {
        "gf.fields_built": calls(FIELD_SPAN),
        "gf.self_s": _layer_self(stats, "gf"),
        "oabuild.arrays_built": calls("oabuild.bush_oa") + calls("oabuild.full_factorial"),
        "oabuild.self_s": _layer_self(stats, "oabuild"),
        "construct.inputs_s": inclusive("construct._family_inputs"),
        "construct.constructions": sum(calls(name) for name in CONSTRUCTIONS),
        "construct.self_s": _layer_self(stats, "construct"),
        "arrays.level_expand_s": inclusive("arrays.level_expand"),
        "arrays.oa_checks": calls("arrays.is_orthogonal_array"),
        "arrays.oa_check_s": inclusive("arrays.is_orthogonal_array"),
        "arrays.grid_checks": calls("arrays.grid_stratification"),
        "arrays.grid_s": inclusive("arrays.grid_stratification"),
        "verify.coupling_s": inclusive("verify.check_coupling"),
        "verify.projections_s": inclusive("verify.check_projections"),
        "verify.projection_checks": calls("verify.check_projections"),
        "verify.witness_s": inclusive("verify.witness_decomposition"),
        "verify.stratification_s": inclusive("verify.stratification_report"),
        "verify.croa_s": inclusive("verify.croa_partition"),
        "verify.full_reports": calls("verify.full_report"),
        "criteria.evaluations": calls("criteria.score"),
        "criteria.maximin_s": inclusive("criteria.maximin_distance"),
        "criteria.cl2_s": inclusive("criteria.centered_l2_discrepancy"),
        "criteria.search_self_s": stats.get("criteria.optimize_d2", {}).get("self_s", 0.0),
        "bundle.write_s": inclusive("bundle.save_bundle"),
        "bundle.bytes_written": counters.get("bundle.bytes_written", 0),
        "bundle.read_s": inclusive("bundle.load_bundle"),
        "bundle.bytes_read": counters.get("bundle.bytes_read", 0),
        "cli.self_s": _layer_self(stats, "cli"),
    }


def merge_ops(per_op: list[dict]) -> dict[str, float]:
    """Median over ops of every per-op metric."""
    return {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
