"""Experiment driver.

Subcommands: gen-scene, run, analyze-attn, links, ablate, init-weights.
Configuration is a single JSON document (all keys defaulted, unknown keys
rejected) with dotted --set overrides and named presets; apply_override sets
and type-checks every value, whichever route it comes by.  Reports are
self-describing JSON and byte-identical across runs with the same config
and seeds; stage timings go to stderr and enter the report only when
explicitly requested, so they never break report determinism.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import decoder as dec
from . import metrics as met
from . import jsontext, qinit, qswap, scene as sc, weights_io
from .errors import (MAX_FLOAT, MIN_POSITIVE, ConfigError, GenerationError,
                     NonFiniteError, WeightFormatError, bounded,
                     require_finite)
from .qmix import extract_top_links

REPORT_SCHEMA_VERSION = 1
REPORT_NOTE = ("Random-weight desk-scale run on synthetic scenes; metric values "
               "are not comparable to any trained benchmark result.")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RenderConfig:
    # in units of the unit-norm object signatures: 1e3 already buries every
    # signature, and the features stay far from overflow
    pv_noise: float = bounded(0.05, 0.0, 1e3)
    bev_noise: float = bounded(0.05, 0.0, 1e3)
    miss_rate: float = bounded(0.2, 0.0, 1.0)
    # a downsample past the image size gives one-cell maps; the bound keeps
    # pixel / downsample a float division
    pv_downsample: int = bounded(16, 1, 1 << 20)
    voxel: float = bounded(0.8, MIN_POSITIVE, MAX_FLOAT)


@dataclass
class QueryConfig:
    n_world: int = bounded(450, 1, math.inf)
    n_img: int = bounded(225, 0, math.inf)
    n_rad: int = bounded(225, 0, math.inf)
    rings: int = bounded(15, 1, math.inf)
    per_view: int = bounded(50, 0, math.inf)
    center_noise_px: float = bounded(2.0, 0.0, MAX_FLOAT)
    depth_noise: float = bounded(1.0, 0.0, MAX_FLOAT)

    def validate(self):
        if self.n_world < self.rings:
            raise ConfigError(f"queries.n_world ({self.n_world}) must be >= "
                              f"queries.rings ({self.rings})")


@dataclass
class Seeds:
    scene: int = bounded(7, 0, math.inf)
    weights: int = bounded(0, 0, math.inf)


@dataclass
class EmitConfig:
    links: bool = False
    query_snapshots: bool = False
    sample_dumps: bool = False
    include_timing: bool = False


# The bounds of RunConfig.limits.  MAX_VALUES float64 values (1 GiB) bound
# the decoder weights, one N x N attention matrix, each of a layer's sampling
# arrays, all PV maps, one BEV grid and the proposals' d-vectors.
MAX_VALUES = 1 << 27
MAX_GRID_SIDE = 4096  # cells per side of a BEV grid
# each layer selects swap neighbours per query in Python and keeps its outputs
MAX_QUERY_LAYERS = 1 << 16
MAX_PROPOSALS = 1 << 18  # drawn, ranked and lifted in 0.16-0.20 s
MAX_RADAR_POINTS = 1 << 18  # simulated at 10-20 us each, in 3-5 s
# the PV renderer and the proposal draws (15 us each) loop over each object
# a camera sees: a toy run with 13 cameras x 10,000 objects takes 4.5-6 s
MAX_CAMERA_OBJECTS = 1 << 17


@dataclass
class RunConfig:
    scene: sc.SceneConfig = field(default_factory=sc.SceneConfig)
    radar: sc.RadarSimConfig = field(default_factory=sc.RadarSimConfig)
    render: RenderConfig = field(default_factory=RenderConfig)
    queries: QueryConfig = field(default_factory=QueryConfig)
    decoder: dec.DecoderConfig = field(default_factory=dec.DecoderConfig)
    seeds: Seeds = field(default_factory=Seeds)
    emit: EmitConfig = field(default_factory=EmitConfig)

    def validate(self):
        """Cross-field rules only; apply_override checks each field's range."""
        if self.decoder.d != self.scene.feature_dim:
            raise ConfigError(f"decoder.d ({self.decoder.d}) must equal "
                              f"scene.feature_dim ({self.scene.feature_dim})")
        if not abs(self.decoder.extent - self.scene.extent) <= 1e-9:
            raise ConfigError("decoder.extent must equal scene.extent")
        if self.decoder.num_classes != self.scene.num_classes:
            raise ConfigError("decoder.num_classes must equal scene.num_classes")
        for section in (self.scene, self.queries, self.decoder):
            section.validate()
        for what, size, limit, fields in self.limits():
            if not size <= limit:
                shown = f"{size:.4g}" if isinstance(size, float) else size
                raise ConfigError(f"{what} of {shown} exceeds {limit}: "
                                  f"lower {fields}")

    def limits(self):
        """Rows (what, size, limit, fields) of the bounds on more than one
        field, in checking order: a row may rely on the rows before it."""
        scene, q, dc, r = self.scene, self.queries, self.decoder, self.radar
        qs, d = dc.qswap, scene.feature_dim
        n = q.n_world + q.n_img + q.n_rad
        queries = "queries.n_world, queries.n_img or queries.n_rad"
        weights = sum(map(math.prod, weights_io.expected_shapes(dc).values()))
        yield ("decoder weights", weights, MAX_VALUES, "decoder.d, "
               "decoder.num_classes, decoder.k_pv or decoder.qswap.k_base")
        # a layer's (N, N) attention matrices do not outlive the next layer
        yield "attention matrix", n * n, MAX_VALUES, queries
        # a layer's sampling arrays: the base head's (N, 3 k_base) output, the
        # token plan's (N, T) and one query's (T, d), swap's candidates
        t = 2 * (qs.k_base + qs.k_extra) + scene.num_cameras * dc.k_pv
        nbrs = min(qs.n_neighbors, n - 1) if dc.enable_qswap else 0
        yield ("sampling arrays", 3 * n * qs.k_base, MAX_VALUES,
               "decoder.qswap.k_base")
        yield ("sampling arrays", max(n, d) * t, MAX_VALUES, "decoder.k_pv, "
               "decoder.qswap.k_base or decoder.qswap.k_extra")
        yield ("sampling arrays", n * nbrs * qs.k_base, MAX_VALUES,
               "decoder.qswap.n_neighbors or decoder.qswap.k_base")
        yield ("query-layers", dc.layers * n, MAX_QUERY_LAYERS,
               f"decoder.layers, {queries}")
        # the shapes render_pv_features and FeatureGrid.square would give
        down = self.render.pv_downsample
        pv = (scene.num_cameras * max(1, scene.image_height // down)
              * max(1, scene.image_width // down) * d)
        yield ("PV maps", pv, MAX_VALUES, "scene.image_width, scene.image_height,"
               " scene.num_cameras or scene.feature_dim, or raise "
               "render.pv_downsample")
        side = 2.0 * scene.extent / self.render.voxel
        yield ("BEV grid cells per side", side, MAX_GRID_SIDE,
               "scene.extent, or raise render.voxel")
        yield ("BEV grid", side * side * d, MAX_VALUES,
               "scene.feature_dim, or raise render.voxel")
        props = scene.num_cameras * q.per_view
        yield ("proposals", props, MAX_PROPOSALS,
               "scene.num_cameras or queries.per_view")
        yield ("proposals' d-vectors", props * d, MAX_VALUES,
               "scene.num_cameras, queries.per_view or scene.feature_dim")
        points = scene.num_objects * r.points_per_object + r.clutter_count
        yield ("radar points", points, MAX_RADAR_POINTS, "scene.num_objects, "
               "radar.points_per_object or radar.clutter_count")
        yield ("camera-object pairs", scene.num_cameras * scene.num_objects,
               MAX_CAMERA_OBJECTS, "scene.num_cameras or scene.num_objects")
        # the radar heatmap's cells, counted once the grid side is bounded
        yield ("radar queries (one per heatmap cell)", q.n_rad,
               round(side) ** 2, "queries.n_rad or render.voxel")


PRESETS: dict[str, dict[str, object]] = {
    # full-size defaults: 900 queries, 6 shared layers, mixing + append swap
    "default": {},
    "toy": {
        "scene.extent": 25.6, "scene.num_objects": 6, "scene.num_clutter": 8,
        "scene.feature_dim": 32, "scene.num_cameras": 4,
        "decoder.d": 32, "decoder.heads": 4, "decoder.layers": 2,
        "decoder.extent": 25.6,
        "queries.n_world": 60, "queries.n_img": 30, "queries.n_rad": 30,
        "queries.per_view": 10,
    },
}


def config_from_dict(doc: dict) -> RunConfig:
    """Defaults overlaid with a config document; unknown keys raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config document is an object, got {doc!r:.60}")
    cfg = RunConfig()
    for key, value in doc.items():
        apply_override(cfg, key, value)
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def _json_int(text: str) -> int:
    """A JSON integer literal; ConfigError past Python's digit limit.

    Every JSON reader here parses integers with it, so a literal too long
    for int() ends in the one-line JSON error like any other bad input.
    """
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"an integer literal of {len(text)} characters "
                          f"exceeds the {sys.get_int_max_str_digits()}-digit "
                          "limit") from None


def _json_loads(text: str, **hooks):
    """json.loads with every integer through _json_int; every JSON reader
    here parses with it, so a document nested past the parser's recursion
    limit ends in the one-line JSON error too."""
    try:
        return json.loads(text, parse_int=_json_int, **hooks)
    except RecursionError:
        raise ConfigError("a JSON document nested too deeply to parse") from None


def _parse_value(text: str):
    try:
        return _json_loads(text)
    except json.JSONDecodeError:
        return text


_ACCEPTS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


def apply_override(cfg, path: str, value):
    """Set the config value at a dotted path: the only config setter.

    A value must have a type its field's default accepts: a bool only for a
    bool field, an int (not a bool) for an int field, an int or a float for
    a float field, a str for a str field.  It must then lie in the field's
    declared range or choices (errors.bounded, errors.one_of).  A dict for a
    section sets each of its keys below that section.
    """
    node = cfg
    for name in path.split("."):
        known = {f.name: f for f in fields(node)} if is_dataclass(node) else {}
        if name not in known:
            raise ConfigError(f"unknown config path {path!r:.60}")
        parent, node = node, getattr(node, name)
    if is_dataclass(node):
        if not isinstance(value, dict):
            raise ConfigError(f"config path {path!r} is a section, not a value")
        for key, item in value.items():
            apply_override(cfg, f"{path}.{key}", item)
        return
    leaf = known[name]
    kind = type(leaf.default)
    if type(value) not in _ACCEPTS[kind]:
        raise ConfigError(f"{path} must be of type {kind.__name__}, got {value!r:.60}")
    if "range" in leaf.metadata:
        lo, hi = leaf.metadata["range"]
        if not lo <= value <= hi:
            raise ConfigError(f"{path} must lie in [{lo}, {hi}], got {value!r:.60}")
    choices = leaf.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path} must be one of {choices}, got {value!r:.60}")
    setattr(parent, name, value)


_EMIT_FLAGS = {"emit_links": "emit.links", "emit_snapshots": "emit.query_snapshots",
               "emit_samples": "emit.sample_dumps",
               "include_timing": "emit.include_timing"}


def build_config(args) -> RunConfig:
    """--config file, then --preset, each --set and the emit flags."""
    doc = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            doc = _json_loads(fh.read())
    cfg = config_from_dict(doc)
    preset = getattr(args, "preset", None)
    if preset and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r:.60}; available: {sorted(PRESETS)}")
    pairs = list(PRESETS[preset].items()) if preset else []
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r:.60}")
        path, _, raw = item.partition("=")
        pairs.append((path.strip(), _parse_value(raw.strip())))
    pairs += [(path, True) for flag, path in _EMIT_FLAGS.items()
              if getattr(args, flag, False)]
    for path, value in pairs:
        apply_override(cfg, path, value)
    cfg.validate()
    return cfg


def load_scene(cfg: RunConfig, path) -> sc.Scene:
    """The scene of a gen-scene file.

    The file's config block replaces cfg.scene and its seed replaces
    cfg.seeds.scene, so features, radar and query noise are drawn as they
    were for the run that generated the scene.
    """
    with open(path, encoding="utf-8") as fh:
        doc = _json_loads(fh.read())
    if not isinstance(doc, dict) or "config" not in doc:
        raise ConfigError(f"scene file {path} is not an object with a 'config' key")
    # defaults first, so a key the file omits does not keep a preset's value
    apply_override(cfg, "scene", asdict(sc.SceneConfig()))
    apply_override(cfg, "scene", doc["config"])
    scn = sc.scene_from_dict(doc, cfg.scene)
    apply_override(cfg, "seeds.scene", doc["seed"])
    return scn


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

def write_json(path, obj):
    """Write obj as sorted, 2-space indented JSON and a newline.

    The text is `jsontext.dumps(obj)`: the standard library's encoder
    (`sort_keys=True, indent=2, allow_nan=False`) with each Fragment spliced
    in, so each sample dump is rendered from its bank's arrays as the dicts
    of the plain tree would be written.  It is serialized in full before
    the file is opened; a NaN or an infinity raises NonFiniteError.
    """
    jsontext.write(path, obj)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def prepare_inputs(cfg: RunConfig, scene_path=None, weights_path=None):
    """Scene -> features -> queries -> weights: everything decode reads.

    Returns (inputs, features): inputs holds the scene, queries, image pad
    count, weights and the stage timings so far.
    """
    timing = {}
    t0 = time.perf_counter()
    if scene_path:
        scn = load_scene(cfg, scene_path)
        cfg.validate()
    # gen-scene takes any extent, but a grid needs whole voxels: refuse a
    # partial one before a scene is generated
    sc.bev_cells(cfg.scene.extent, cfg.render.voxel)
    if not scene_path:
        scn = sc.generate_scene(cfg.seeds.scene, cfg.scene)
    timing["scene"] = time.perf_counter() - t0

    d = cfg.scene.feature_dim
    t0 = time.perf_counter()
    pv_maps = sc.render_pv_features(scn, d, cfg.render.pv_noise,
                                    seed=cfg.seeds.scene,
                                    downsample=cfg.render.pv_downsample)
    img_bev = sc.render_image_bev(scn, cfg.render.voxel, d, cfg.render.bev_noise,
                                  miss_rate=cfg.render.miss_rate,
                                  seed=cfg.seeds.scene)
    cloud = sc.simulate_radar_points(scn, cfg.seeds.scene, cfg.radar)
    rad_bev, heatmap = sc.encode_radar_bev(cloud, cfg.scene.extent,
                                           cfg.render.voxel, d,
                                           seed=cfg.seeds.scene)
    for name, data in [("image BEV grid", img_bev.data),
                       ("radar BEV channels", rad_bev.data),
                       ("radar BEV basis", rad_bev.basis),
                       *((f"PV map {c}", pv.data) for c, pv in enumerate(pv_maps))]:
        require_finite(f"features stage: {name}", data)
    timing["features"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    world = qinit.init_world_queries(cfg.queries.n_world, cfg.scene.extent, d,
                                     cfg.seeds.scene, rings=cfg.queries.rings)
    proposals = qinit.generate_2d_proposals(
        scn, pv_maps, per_view=cfg.queries.per_view,
        center_noise_px=cfg.queries.center_noise_px,
        depth_noise=cfg.queries.depth_noise, seed=cfg.seeds.scene)
    image, padded = qinit.init_image_queries(proposals, scn.rig, cfg.queries.n_img,
                                             cfg.scene.extent, d)
    radar = qinit.init_radar_queries(heatmap, rad_bev, cfg.queries.n_rad)
    queries = qinit.concat_query_sets(world, image, radar)
    queries.validate(extent=cfg.scene.extent)
    require_finite("queries stage: query embeddings", queries.embeddings)
    timing["queries"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if weights_path:
        weights = weights_io.load_weights(weights_path, cfg.decoder)
    else:
        weights = weights_io.init_weights(cfg.seeds.weights, cfg.decoder)
    timing["weights"] = time.perf_counter() - t0

    inputs = {"scene": scn, "queries": queries, "padded": padded,
              "weights": weights, "timing": timing}
    return inputs, dec.SceneFeatures(img_bev, rad_bev, pv_maps, scn.rig)


def evaluate_outputs(outputs, objects) -> list[dict]:
    """Per-layer detection metrics against the scene's ground truth."""
    gt = (np.array([o.center[:2] for o in objects]).reshape(-1, 2),
          np.array([o.yaw for o in objects], dtype=np.float64),
          np.array([o.class_id for o in objects], dtype=np.int64))
    return [met.evaluate_layer(out.class_scores, out.centers, out.yaws, *gt)
            for out in outputs]


def run_pipeline(cfg: RunConfig, scene_path=None, weights_path=None):
    """Scene -> features -> queries -> decode -> per-layer metrics."""
    inputs, features = prepare_inputs(cfg, scene_path, weights_path)
    timing = inputs["timing"]
    t0 = time.perf_counter()
    outputs = dec.decode(features, inputs["queries"], inputs["weights"],
                         cfg.decoder)
    timing["decode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    layer_metrics = evaluate_outputs(outputs, inputs["scene"].objects)
    timing["metrics"] = time.perf_counter() - t0
    return {**inputs, "outputs": outputs, "layer_metrics": layer_metrics}


def _set_size_summary(bank: qswap.SampleBank) -> dict:
    return {"min": int(bank.sizes.min()), "max": int(bank.sizes.max()),
            "mean": float(np.mean(bank.sizes))}


def _sample_dump(bank: qswap.SampleBank) -> jsontext.Fragment:
    """Every query's points on one grid, with absolute BEV positions.

    The text is `jsontext.dumps` of the list that holds, for each query i,
    {"owner": i, "points": [{"origin", "position", "score", "source",
    "weight"} for each of its points]}; it is rendered from the bank's arrays
    without building those dicts.
    """
    return jsontext.Fragment(lambda level: _render_sample_dump(bank, level))


def _render_sample_dump(bank: qswap.SampleBank, level: int) -> str:
    valid = bank.valid
    floats = np.concatenate([bank.points, bank.scores[..., None],
                             bank.weights[..., None]], axis=2)
    bad = ~np.isfinite(floats) & valid[..., None]
    if bad.any():   # the first one in text order, as the encoder would
        jsontext.float_text(floats[bad][0].item())
    ind = ["\n" + "  " * (level + j) for j in range(6)]

    def point(prefix: str, origin: str) -> str:
        return (prefix + ind[3] + "{" + ind[4] + f'"origin": "{origin}",'
                + ind[4] + '"position": [' + ind[5] + "%r," + ind[5] + "%r"
                + ind[4] + "]," + ind[4] + '"score": %r,' + ind[4]
                + '"source": %d,' + ind[4] + '"weight": %r' + ind[3] + "}")

    # templates[first or later point of its query][origin]
    templates = np.empty((2, 2), dtype=object)
    for row, prefix in enumerate("[,"):
        templates[row, qswap.ORIGIN_BASE] = point(prefix, "base")
        templates[row, qswap.ORIGIN_SHARED] = point(prefix, "shared")
    closes = np.array(["[]" + ind[1] + "}", ind[2] + "]" + ind[1] + "}"],
                      dtype=object)
    owner = ind[1] + "{" + ind[2] + '"owner": %d,' + ind[2] + '"points": '

    # row i: query i's opening with its owner, its point templates, its close
    n, k = bank.scores.shape
    pieces = np.empty((n, k + 2), dtype=object)
    pieces[:, 0] = [("," if i else "[") + owner % i for i in range(n)]
    pieces[:, 1:-1] = templates[(np.arange(k) > 0).astype(np.intp),
                                bank.origins]
    pieces[:, -1] = closes[(bank.sizes > 0).astype(np.intp)]
    keep = np.ones((n, k + 2), dtype=bool)
    keep[:, 1:-1] = valid

    # the values of each point's template, as Python floats and ints
    values = np.empty((n, k, 5), dtype=object)
    values[..., :2] = bank.points
    values[..., 2] = bank.scores
    values[..., 3] = bank.sources
    values[..., 4] = bank.weights
    fmt = "".join(pieces[keep].tolist())
    return fmt % tuple(values[valid].ravel().tolist()) + ind[0] + "]"


def build_report(cfg: RunConfig, result) -> dict:
    outputs = result["outputs"]
    queries = result["queries"]
    layers = []
    # ate/aoe are undefined (NaN) without matches; any other NaN is an error
    layer_metrics = [
        {k: None if k in ("ate", "aoe") and math.isnan(v) else v
         for k, v in lm.items()}
        for lm in result["layer_metrics"]
    ]
    for out, lm in zip(outputs, layer_metrics):
        rec = {
            "layer": out.layer,
            "metrics": lm,
            "mean_speed": float(np.linalg.norm(out.velocities, axis=1).mean()),
            "self_attn_stats": out.self_stats.to_dict(),
            "qmix_stats": out.qmix_stats.to_dict() if out.qmix_stats else None,
            "sample_set_sizes": {
                kind: _set_size_summary(out.sample_sets[kind])
                for kind in qswap.BEV_KINDS
            },
        }
        if cfg.emit.links:
            rows = out.qmix_attn if out.qmix_attn is not None else out.self_attn
            conf = out.class_scores.max(axis=1)
            rec["links"] = extract_top_links(rows, queries.types, conf)
        if cfg.emit.query_snapshots:
            rec["query_snapshot"] = {
                "positions": out.centers.tolist(),
                "types": [qinit.TYPE_NAMES[t] for t in queries.types],
                "confidence": out.class_scores.max(axis=1).tolist(),
            }
        if cfg.emit.sample_dumps:
            rec["sample_dump"] = {kind: _sample_dump(out.sample_sets[kind])
                                  for kind in qswap.BEV_KINDS}
        layers.append(rec)

    attn_mean = {}
    for key, stats in (("self", [out.self_stats for out in outputs]),
                       ("qmix", [out.qmix_stats for out in outputs
                                 if out.qmix_stats is not None])):
        attn_mean[key] = {
            stat: np.mean([getattr(s, stat) for s in stats], axis=0).tolist()
            for stat in ("mass", "mean_per_key")} if stats else None

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "note": REPORT_NOTE,
        "config": config_to_dict(cfg),
        "scene": {
            "seed": result["scene"].seed,
            "num_objects": len(result["scene"].objects),
            "extent": result["scene"].config.extent,
        },
        "queries": {
            "n_world": cfg.queries.n_world,
            "n_img": cfg.queries.n_img,
            "n_rad": cfg.queries.n_rad,
            "n_total": queries.n,
            "padded_image_queries": result["padded"],
        },
        "layers": layers,
        "final": layer_metrics[-1],
        "attn_stats_mean": attn_mean,
    }
    if cfg.emit.include_timing:
        report["timing"] = result["timing"]
    return report


def _log_timing(timing: dict):
    parts = ", ".join(f"{k} {v:.2f}s" for k, v in timing.items())
    print(f"[hqfusion] stages: {parts}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_scene(args) -> int:
    cfg = build_config(args)
    scn = sc.generate_scene(cfg.seeds.scene, cfg.scene)
    sc.save_scene(scn, args.out)
    print(f"[hqfusion] wrote scene with {len(scn.objects)} objects to {args.out}",
          file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    cfg = build_config(args)
    result = run_pipeline(cfg, scene_path=getattr(args, "scene", None),
                          weights_path=getattr(args, "weights", None))
    # a copy: --include-timing puts result["timing"] itself in the report
    timing = dict(result["timing"])
    t0 = time.perf_counter()
    report = build_report(cfg, result)
    timing["report"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    write_json(args.out, report)
    timing["write"] = time.perf_counter() - t0
    _log_timing(timing)
    print(f"[hqfusion] report written to {args.out}", file=sys.stderr)
    return 0


def cmd_init_weights(args) -> int:
    cfg = build_config(args)
    weights = weights_io.init_weights(cfg.seeds.weights, cfg.decoder)
    weights_io.save_weights(weights, cfg.decoder, args.out)
    print(f"[hqfusion] wrote {len(weights)} tensors to {args.out}",
          file=sys.stderr)
    return 0


def load_report(path, read):
    """read(report) for the `run` report at path.

    The report must be an object of this REPORT_SCHEMA_VERSION whose
    `layers` is a list of objects, and may hold no NaN, Infinity or number
    that overflows to infinity (`run` never writes one).  A KeyError,
    TypeError, IndexError or AttributeError raised while `read` walks it
    becomes a ConfigError, as for a malformed scene file.
    """
    def refuse(constant):
        raise ConfigError(f"{path} holds the non-finite JSON value {constant}")

    def finite(text):
        value = float(text)
        return value if math.isfinite(value) else refuse(text)

    with open(path, encoding="utf-8") as fh:
        report = _json_loads(fh.read(), parse_constant=refuse,
                             parse_float=finite)
    if not (isinstance(report, dict)
            and report.get("schema_version") == REPORT_SCHEMA_VERSION
            and isinstance(report.get("layers"), list)
            and all(isinstance(rec, dict) for rec in report["layers"])):
        raise ConfigError(f"{path} is not a schema-{REPORT_SCHEMA_VERSION} report "
                          f"with a list of layer objects")
    try:
        return read(report)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ConfigError(f"malformed report {path}: {exc!r}") from exc


def _attn_rows(report) -> list[list]:
    rows = []
    type_names = list(qinit.TYPE_NAMES)

    def emit(layer_label, kind, stats):
        for stat in ("mass", "mean_per_key"):
            matrix = stats[stat]
            for a, src in enumerate(type_names):
                for b, dst in enumerate(type_names):
                    rows.append([layer_label, kind, stat, src, dst,
                                 repr(matrix[a][b])])

    for rec in report["layers"]:
        emit(rec["layer"], "self", rec["self_attn_stats"])
        if rec.get("qmix_stats"):
            emit(rec["layer"], "qmix", rec["qmix_stats"])
    for kind in ("self", "qmix"):
        mean = report.get("attn_stats_mean", {}).get(kind)
        if mean:
            emit("mean", kind, mean)
    return rows


def cmd_analyze_attn(args) -> int:
    rows = load_report(args.report, _attn_rows)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "attn", "stat", "src_type", "dst_type", "value"])
        writer.writerows(rows)
    print(f"[hqfusion] wrote {len(rows)} stat rows to {args.out}", file=sys.stderr)
    return 0


def _link_layers(report) -> list[dict]:
    layers = []
    for rec in report["layers"]:
        if "links" not in rec:
            raise ConfigError(
                "report has no link records; re-run `run` with --emit-links")
        layers.append({"layer": rec["layer"], "links": rec["links"]})
    return layers


def cmd_links(args) -> int:
    layers = load_report(args.report, _link_layers)
    write_json(args.out, {"schema_version": REPORT_SCHEMA_VERSION,
                          "layers": layers})
    print(f"[hqfusion] wrote links for {len(layers)} layers to {args.out}",
          file=sys.stderr)
    return 0


ABLATION_VARIANTS = [
    ("qinit", {"enable_qmix": False, "enable_qswap": False,
               "qmix_placement": "post_agg"}),
    ("qmix", {"enable_qmix": True, "enable_qswap": False,
              "qmix_placement": "post_agg"}),
    ("qmix_qswap", {"enable_qmix": True, "enable_qswap": True,
                    "qmix_placement": "post_agg"}),
    ("placement_pre_agg", {"enable_qmix": True, "enable_qswap": False,
                           "qmix_placement": "pre_agg"}),
    ("placement_post_self", {"enable_qmix": True, "enable_qswap": False,
                             "qmix_placement": "post_self"}),
    ("placement_post_self_cross", {"enable_qmix": True, "enable_qswap": False,
                                   "qmix_placement": "post_self_cross"}),
    ("placement_post_agg", {"enable_qmix": True, "enable_qswap": False,
                            "qmix_placement": "post_agg"}),
]


def cmd_ablate(args) -> int:
    """Decode every variant on one set of inputs; equal variants decode once."""
    cfg = build_config(args)
    rows = []
    finals = {}  # decoder overrides -> final-layer metrics
    total0 = time.perf_counter()
    inputs, features = prepare_inputs(cfg)
    for name, overrides in ABLATION_VARIANTS:
        variant = config_from_dict(config_to_dict(cfg))
        apply_override(variant, "decoder", overrides)
        vdec = variant.decoder
        key = tuple(sorted(overrides.items()))
        t0 = time.perf_counter()
        if key not in finals:
            # no name holds the outputs: one variant's layers live at a time
            finals[key] = evaluate_outputs(
                dec.decode(features, inputs["queries"], inputs["weights"],
                           vdec)[-1:],
                inputs["scene"].objects)[0]
        elapsed = time.perf_counter() - t0
        final = finals[key]
        fmt = lambda v: "" if math.isnan(v) else repr(v)
        rows.append([name, vdec.enable_qmix, vdec.enable_qswap,
                     vdec.qmix_placement, vdec.qswap.mode,
                     fmt(final["map_center"]), fmt(final["ate"]),
                     fmt(final["aoe"]), final["num_matches"]])
        print(f"[hqfusion] ablation {name}: map_center={final['map_center']:.4f} "
              f"({elapsed:.1f}s)", file=sys.stderr)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write("# Random-weight desk-scale ablation on synthetic scenes; "
                 "metric values are not comparable to trained benchmark numbers.\n")
        writer = csv.writer(fh)
        writer.writerow(["variant", "qmix", "qswap", "placement", "swap_mode",
                         "map_center", "ate", "aoe", "num_matches"])
        writer.writerows(rows)
    print(f"[hqfusion] ablation finished in {time.perf_counter() - total0:.1f}s, "
          f"table at {args.out}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_config_args(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted config override, repeatable")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqfusion",
        description="Heterogeneous-query camera-radar fusion decoder on synthetic scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="generate and save a synthetic scene")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser("run", help="run one decode and write the report JSON")
    _add_config_args(p)
    p.add_argument("--scene", help="scene JSON produced by gen-scene")
    p.add_argument("--weights", help=".cfw file from init-weights "
                                     "(default: seeded random init)")
    p.add_argument("--out", required=True)
    p.add_argument("--emit-links", action="store_true")
    p.add_argument("--emit-snapshots", action="store_true")
    p.add_argument("--emit-samples", action="store_true")
    p.add_argument("--include-timing", action="store_true",
                   help="embed wall-clock timings in the report "
                        "(breaks byte-identity across runs)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("init-weights", help="write a seeded .cfw weight file")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_weights)

    p = sub.add_parser("analyze-attn", help="attention stats report -> CSV")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_attn)

    p = sub.add_parser("links", help="extract cross-type link records")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_links)

    p = sub.add_parser("ablate", help="run the component/placement ladder")
    _add_config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WeightFormatError, GenerationError, NonFiniteError,
            OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
