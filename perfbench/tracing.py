"""Spans around the package's public entry points, recorded from outside the package.

`Tracer.install()` replaces each entry point in `ENTRY_POINTS` with a wrapper,
in the module that defines it and in every `heilbronn` module that imported
it at load time (`incidence`, `tubes`, `cli`, the package `__init__`, ...).
Calls between modules therefore go through the wrappers too and appear as
child spans.  Each span records name, start, end, parent span and the id of
the benchmark operation running; spans stay in memory until `write()`.

A layer metric `<layer>.<what>_s` is the self time of its entry points: span
time minus the time covered by child spans.  The private helpers
`concentration._box_candidates`, `geometry._chords_from_local` and
`concentration._segment_rect_counts` are left unwrapped, so their time counts
in the self time of the entry point that called them (`m_lines_sweep`,
`tube_box_counts_3d`, `m_tubes_2d`, `generate_katz_tao_tubes`, ...).

`*_peak_mb` metrics come from `tracemalloc` around `ConfigMetrics` and
`two_ends_decompose`, in the traced run only.  `tracemalloc` slows those
calls several-fold, so the spans are timed without it and the operations
that reached them are run once more, untimed, with `measuring_memory` set.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _n(items) -> int:
    return len(items[0]) if isinstance(items, tuple) else len(items)


def _count_cover(c, args, kw, result):
    c["geometry.cover_items"] += _n(args[0])
    c["geometry.cover_kept"] += result


def _count_pairs_input(c, args, kw, result):
    c["triangles.close_pairs_points"] += len(args[0])


def _count_anneal(c, args, kw, result):
    sched = kw.get("schedule", args[2] if len(args) > 2 else None)
    c["search.anneal_moves"] += sched.epochs * sched.moves_per_epoch


def _count_incidence(c, args, kw, result):
    ws, P, lines = args[:3]
    c["incidence.pairs"] += len(P) * len(lines) * len(ws)


def _count_box_cells(c, args, kw, result):
    c["concentration.box_cells"] += _n(args[0]) * len(args[1])


def _count_uniformize(c, args, kw, result):
    cert = result[1]
    key = "concentration.uniformize_kept_frac"  # the worst call's share
    c[key] = min(c.get(key, 1.0), cert.retained / cert.original)


def _count_generate(c, args, kw, result):
    c["tubes.generate_accepted"] += len(result[0])


def _count_union(c, args, kw, result):
    tubes, resolution = args[0], args[2]
    c["tubes.union_cells"] += round(result / resolution ** tubes[0].center.shape[0])


def _count_two_ends(c, args, kw, result):
    c["tubes.two_ends_rounds"] += result.rounds_run
    c["tubes.two_ends_excisions"] += len(result.tubes_out)


def _count_bytes(c, args, kw, result):
    c["formats.bytes"] += os.path.getsize(args[0])


# (module, attribute, layer metric, counter, peak metric).  An attribute
# "Class.__init__" wraps construction of that class.
ENTRY_POINTS = [
    ("kernels", "bump_profile", "kernels.table_build_s", None, None),
    ("geometry", "covering_number", "geometry.cover_s", _count_cover, None),
    ("geometry", "direction_covering_number", "geometry.cover_s", _count_cover, None),
    ("geometry", "line_covering_number", "geometry.cover_s", _count_cover, None),
    ("configurations", "min_config_distance", "configurations.min_distance_s", None, None),
    ("configurations", "rescale_config", "configurations.rescale_s", None, None),
    ("triangles", "min_triangle_fast", "triangles.min_fast_s", None, None),
    ("triangles", "min_triangle_brute", "triangles.min_brute_s", None, None),
    ("triangles", "greedy_close_pairs", "triangles.close_pairs_s", _count_pairs_input, None),
    ("triangles", "triangle_via_pointline", "triangles.pipeline_s", None, None),
    ("search", "anneal_max_triangle", "search.anneal_s", _count_anneal, None),
    ("search", "anneal_max_distance", "search.anneal_s", _count_anneal, None),
    ("incidence", "incidence_count", "incidence.count_s", None, None),
    ("incidence", "incidence_many", "incidence.count_s", _count_incidence, None),
    ("incidence", "normalized_incidence", "incidence.count_s", None, None),
    ("incidence", "normalized_incidence_many", "incidence.count_s", None, None),
    ("incidence", "rhs_basic", "incidence.rhs_s", None, None),
    ("incidence", "rhs_refined", "incidence.rhs_s", None, None),
    ("incidence", "rhs_direction_capped", "incidence.rhs_s", None, None),
    ("incidence", "rhs_wellspaced", "incidence.rhs_s", None, None),
    ("incidence", "dyadic_scan", "incidence.rhs_s", None, None),
    ("incidence", "initial_estimate_check", "incidence.checks_s", None, None),
    ("incidence", "double_count_check", "incidence.checks_s", None, None),
    ("concentration", "m_lines_sweep", "concentration.box_sweep_s", _count_box_cells, None),
    ("concentration", "m_lines", "concentration.box_sweep_s", None, None),
    ("concentration", "m_tubes_2d", "concentration.box2d_s", None, None),
    ("concentration", "m_lines_2d", "concentration.box2d_s", None, None),
    ("concentration", "m_points", "concentration.points_s", None, None),
    ("concentration", "katz_tao_fit", "concentration.fit_s", None, None),
    ("concentration", "plane_reduction_check", "concentration.fit_s", None, None),
    ("concentration", "ConfigMetrics.__init__", "concentration.config_metrics_s", None,
     "concentration.config_metrics_peak_mb"),
    ("concentration", "uniformize", "concentration.uniformize_s", _count_uniformize, None),
    ("tubes", "generate_katz_tao_tubes", "tubes.generate_s", _count_generate, None),
    ("tubes", "tube_box_counts_3d", "tubes.box_counts_s", None, None),
    ("tubes", "measure_kt_constant", "tubes.box_counts_s", None, None),
    ("tubes", "shading_union_volume", "tubes.union_volume_s", _count_union, None),
    ("tubes", "check_planar_brush", "tubes.brush_s", None, None),
    ("tubes", "check_space_brush", "tubes.brush_s", None, None),
    ("tubes", "two_ends_decompose", "tubes.two_ends_s", _count_two_ends,
     "tubes.two_ends_peak_mb"),
    ("cli", "main", "cli.command_s", None, None),
    ("formats", "read_points", "formats.io_s", _count_bytes, None),
    ("formats", "write_points", "formats.io_s", _count_bytes, None),
    ("formats", "read_config", "formats.io_s", _count_bytes, None),
    ("formats", "write_config", "formats.io_s", _count_bytes, None),
    ("formats", "read_tubes", "formats.io_s", _count_bytes, None),
    ("formats", "write_tubes", "formats.io_s", _count_bytes, None),
]

# Every per-layer metric the traced run reports, with its unit and direction.
LAYER_METRICS = {m: ("s", "lower") for m in dict.fromkeys(e[2] for e in ENTRY_POINTS)}
LAYER_METRICS.update({
    "geometry.cover_items": ("count", "lower"),
    "geometry.cover_kept": ("count", "lower"),
    "triangles.close_pairs_points": ("count", "lower"),
    "search.anneal_moves": ("count", "lower"),
    "incidence.pairs": ("count", "lower"),
    "concentration.box_cells": ("count", "lower"),
    "concentration.config_metrics_peak_mb": ("MB", "lower"),
    "concentration.uniformize_kept_frac": ("ratio", "higher"),
    "tubes.generate_accepted_frac": ("ratio", "higher"),
    "tubes.union_cells": ("count", "lower"),
    "tubes.two_ends_rounds": ("count", "higher"),
    "tubes.two_ends_excisions": ("count", "higher"),
    "tubes.two_ends_peak_mb": ("MB", "lower"),
    "formats.bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


class Tracer:
    """In-memory span recorder; `install()` patches the entry points."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent, op_id)
        self.stack: list[int] = []
        self.open_names: list[str] = []
        self.op_id = "setup"
        self.counters: defaultdict = defaultdict(float)
        self.peaks: defaultdict = defaultdict(float)
        self.metric_of: dict[str, str] = {}
        self.measuring_memory = False
        self.memory_ops: set[str] = set()   # operations that reached a *_peak_mb entry point

    def _wrap(self, name, fn, counter, peak_metric):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if self.measuring_memory:
                return fn(*args, **kw) if peak_metric is None \
                    else self._peak(peak_metric, fn, args, kw)
            if peak_metric is not None:
                self.memory_ops.add(self.op_id)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            self.open_names.append(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kw)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.open_names.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)
            if counter is not None:
                counter(self.counters, args, kw, result)
            return result
        return wrapper

    def _peak(self, metric, fn, args, kw):
        tracemalloc.start()
        try:
            return fn(*args, **kw)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.peaks[metric] = max(self.peaks[metric], peak)

    def install(self) -> None:
        for mod_name, attr, metric, counter, peak in ENTRY_POINTS:
            module = importlib.import_module(f"heilbronn.{mod_name}")
            name = f"{mod_name}.{attr}"
            self.metric_of[name] = metric
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), counter, peak))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter, peak)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "heilbronn":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        self._count_generate_attempts()

    def _count_generate_attempts(self) -> None:
        """Count tube constructions made inside generate_katz_tao_tubes (its attempts)."""
        tubes = importlib.import_module("heilbronn.tubes")
        for cls in (tubes.Tube2D, tubes.Tube3D):
            def counted(obj, *args, _init=cls.__init__, **kw):
                if "tubes.generate_katz_tao_tubes" in self.open_names:
                    self.counters["tubes.generate_attempts"] += 1
                _init(obj, *args, **kw)
            cls.__init__ = counted

    def self_times(self) -> dict[str, float]:
        """Self time per layer metric over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[self.metric_of[name]] += end - start - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac (0 where a layer is bypassed)."""
        c = self.counters
        values = {m: 0.0 for m in LAYER_METRICS if m != "trace.overhead_frac"}
        values.update(self.self_times())
        values.update((k, v) for k, v in c.items() if k in LAYER_METRICS)
        values.update(self.peaks)
        if c["tubes.generate_attempts"]:
            values["tubes.generate_accepted_frac"] = (
                c["tubes.generate_accepted"] / c["tubes.generate_attempts"])
        return values

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")
