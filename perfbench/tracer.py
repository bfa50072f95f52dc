"""Span tracing of hqfusion's public functions, from outside the package.

`Tracer.installed()` replaces each listed function, in every hqfusion
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent, decoder layer) and, for some functions, counts taken
from the call's arguments and result.  Leaving the block restores the
original functions.  Byte and FLOP counts are computed from tensor shapes:
a CPU run cannot measure memory traffic.
"""
from __future__ import annotations

import contextlib
import importlib
import os
import time

import numpy as np

MODULES = ("cli", "decoder", "metrics", "numkernel", "qinit", "qmix", "qswap",
           "scene", "weights_io")

MB = 1e6


def _count_neighbors(tr, args, kwargs, out):
    tr.add("qswap.neighbor_calls", 1)
    tr.add("qswap.with_neighbor", int(len(out) > 0))


def _count_swap(tr, args, kwargs, out):
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    shared = [s.shared_count() for s in out]
    tr.add("qswap.sets", len(out))
    tr.add("qswap.shared_points", sum(shared))
    tr.add("qswap.total_cap_hits",
           sum(1 for m in shared if cfg.k_extra > 0 and m >= cfg.k_extra))


def _count_tokens(tr, args, kwargs, out):
    tok, _, valid = out
    tr.peak("decoder.tokens.mb", tok.size * 8 / MB)
    tr.add("decoder.tokens.slots", valid.size)
    tr.add("decoder.tokens.valid", int(valid.sum()))


def _count_bilinear(tr, args, kwargs, out):
    data, fy = args[0], args[1]
    points = int(np.size(fy))
    tr.add("numkernel.bilinear_points", points)
    # four corner rows of d float64 values gathered per point
    tr.add("numkernel.bilinear_mb", 4 * points * data.shape[2] * 8 / MB)


def _count_mha(tr, args, kwargs, out):
    n_q, d = args[0].shape
    n_k = args[1].shape[0]
    # q/k/v/out projections, logits and context, 2 flops per multiply-add
    flops = 2 * d * d * (2 * n_q + 2 * n_k) + 4 * n_q * n_k * d
    tr.add("numkernel.mha_calls", 1)
    tr.add("numkernel.mha_gflop", flops / 1e9)


def _count_padded(tr, args, kwargs, out):
    tr.add("qinit.padded_image_queries", int(out[1]))


def _count_grid(tr, args, kwargs, out):
    grid = out[0] if isinstance(out, tuple) else out
    tr.add("scene.grid_mb", grid.data.nbytes / MB)


def _count_pv(tr, args, kwargs, out):
    tr.add("scene.grid_mb", sum(pv.data.nbytes for pv in out) / MB)


def _count_report(tr, args, kwargs, out):
    tr.add("cli.report_mb", os.path.getsize(args[0]) / MB)


def _enter_decode(tr):
    tr.layer = -1


def _exit_decode(tr, args, kwargs, out):
    tr.layer = None


def _enter_layer(tr):
    if tr.layer is not None:
        tr.layer += 1


# (module, function, count hook, entry hook)
TRACED = [
    ("cli", "build_config", None, None),
    ("cli", "run_pipeline", None, None),
    ("cli", "build_report", None, None),
    ("cli", "write_json", _count_report, None),
    ("scene", "generate_scene", None, None),
    ("scene", "render_pv_features", _count_pv, None),
    ("scene", "render_image_bev", _count_grid, None),
    ("scene", "simulate_radar_points", None, None),
    ("scene", "encode_radar_bev", _count_grid, None),
    ("qinit", "init_world_queries", None, None),
    ("qinit", "generate_2d_proposals", None, None),
    ("qinit", "init_image_queries", _count_padded, None),
    ("qinit", "init_radar_queries", None, None),
    ("qinit", "concat_query_sets", None, None),
    ("weights_io", "init_weights", None, None),
    ("decoder", "decode", _exit_decode, _enter_decode),
    ("decoder", "apply_type_adapter", None, _enter_layer),
    ("decoder", "shared_self_attention", None, None),
    ("decoder", "predict_base_sets", None, None),
    ("decoder", "build_tokens", _count_tokens, None),
    ("decoder", "aggregate_features_batch", None, None),
    ("decoder", "detection_head", None, None),
    ("qswap", "select_neighbors", _count_neighbors, None),
    ("qswap", "swap_samples", _count_swap, None),
    ("qswap", "normalize_sample_scores", None, None),
    ("qmix", "qmix_attention", None, None),
    ("qmix", "attention_block", None, None),
    ("qmix", "attention_type_stats", None, None),
    ("qmix", "extract_top_links", None, None),
    ("numkernel", "multi_head_attention", _count_mha, None),
    ("numkernel", "bilinear_at", _count_bilinear, None),
    ("metrics", "evaluate_layer", None, None),
]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, decoder layer]
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.layer: int | None = None
        self._stack: list[int] = []

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, value), value)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        # the decode span itself carries layer -1; report it as no layer
        layer = self.layer if self.layer is not None and self.layer >= 0 else None
        rec = [name, time.perf_counter(), None, parent, layer]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count, enter):
        tracer = self

        def traced(*args, **kwargs):
            if enter is not None:
                enter(tracer)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function wherever hqfusion binds it."""
        modules = [importlib.import_module(f"hqfusion.{m}") for m in MODULES]
        patched = []
        try:
            for mod_name, fn_name, count, enter in TRACED:
                home = importlib.import_module(f"hqfusion.{mod_name}")
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original, count,
                                     enter)
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        patched.append((mod, fn_name, original))
            yield self
        finally:
            for mod, fn_name, original in reversed(patched):
                setattr(mod, fn_name, original)

    def span_table(self) -> list[dict]:
        """Every span with its self time (duration minus its children's)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        origin = self.spans[0][1] if self.spans else 0.0
        return [{"name": name, "start": start - origin, "end": end - origin,
                 "parent": parent, "layer": layer,
                 "self": (end - start) - child_time[i]}
                for i, (name, start, end, parent, layer) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and per layer."""
        out: dict[str, dict] = {}
        for rec in self.span_table():
            row = out.setdefault(rec["name"], {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0, "by_layer": {}})
            dur = rec["end"] - rec["start"]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += rec["self"]
            if rec["layer"] is not None:
                lay = row["by_layer"].setdefault(str(rec["layer"]),
                                                 {"total_s": 0.0, "self_s": 0.0})
                lay["total_s"] += dur
                lay["self_s"] += rec["self"]
        return out


# per-layer metric -> span names whose total time it sums
TIME_METRICS = {
    "decoder.tokens_s": ["decoder.build_tokens"],
    "decoder.aggregate_s": ["decoder.aggregate_features_batch"],
    "decoder.self_attn_s": ["decoder.shared_self_attention"],
    "decoder.adapter_s": ["decoder.apply_type_adapter"],
    "decoder.base_sets_s": ["decoder.predict_base_sets"],
    "decoder.head_s": ["decoder.detection_head"],
    "numkernel.bilinear_s": ["numkernel.bilinear_at"],
    "numkernel.mha_s": ["numkernel.multi_head_attention"],
    "qswap.neighbors_s": ["qswap.select_neighbors"],
    "qswap.swap_s": ["qswap.swap_samples"],
    "qswap.normalize_s": ["qswap.normalize_sample_scores"],
    "qmix.attn_s": ["qmix.qmix_attention"],
    "qmix.stats_s": ["qmix.attention_type_stats"],
    "qmix.links_s": ["qmix.extract_top_links"],
    "cli.build_report_s": ["cli.build_report"],
    "cli.write_json_s": ["cli.write_json"],
    "scene.generate_s": ["scene.generate_scene"],
    "scene.render_s": ["scene.render_pv_features", "scene.render_image_bev"],
    "scene.radar_s": ["scene.simulate_radar_points", "scene.encode_radar_bev"],
    "qinit.queries_s": ["qinit.init_world_queries", "qinit.generate_2d_proposals",
                        "qinit.init_image_queries", "qinit.init_radar_queries",
                        "qinit.concat_query_sets"],
    "weights_io.init_s": ["weights_io.init_weights"],
    "metrics.evaluate_s": ["metrics.evaluate_layer"],
}

COUNT_METRICS = ["decoder.tokens.mb", "numkernel.bilinear_points",
                 "numkernel.bilinear_mb", "numkernel.mha_calls",
                 "numkernel.mha_gflop", "qswap.neighbor_calls",
                 "qswap.shared_points", "qswap.total_cap_hits",
                 "qinit.padded_image_queries", "scene.grid_mb", "cli.report_mb"]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values of one traced run."""
    summary = tracer.summary()
    values = {key: sum(summary.get(n, {}).get("total_s", 0.0) for n in names)
              for key, names in TIME_METRICS.items()}
    c = tracer.counts
    values.update({key: float(c.get(key, 0)) for key in COUNT_METRICS})
    values["decoder.tokens.valid_frac"] = (
        c.get("decoder.tokens.valid", 0) / max(c.get("decoder.tokens.slots", 0), 1))
    values["qswap.with_neighbor_frac"] = (
        c.get("qswap.with_neighbor", 0) / max(c.get("qswap.neighbor_calls", 0), 1))
    return values
