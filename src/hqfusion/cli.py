"""Experiment driver.

Subcommands: gen-scene, run, analyze-attn, links, ablate, init-weights.
Configuration is a single JSON document (all keys defaulted, unknown keys
rejected) with dotted --set overrides and named presets.  Reports are
self-describing JSON and byte-identical across runs with the same config
and seeds; stage timings go to stderr and enter the report only when
explicitly requested, so they never break report determinism.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import decoder as dec
from . import metrics as met
from . import qinit, qswap, scene as sc, weights_io
from .errors import ConfigError, GenerationError, WeightFormatError
from .qmix import extract_top_links

REPORT_SCHEMA_VERSION = 1
REPORT_NOTE = ("Random-weight desk-scale run on synthetic scenes; metric values "
               "are not comparable to any trained benchmark result.")


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass
class RenderConfig:
    pv_noise: float = 0.05
    bev_noise: float = 0.05
    miss_rate: float = 0.2
    pv_downsample: int = 16
    voxel: float = 0.8


@dataclass
class QueryConfig:
    n_world: int = 450
    n_img: int = 225
    n_rad: int = 225
    rings: int = 15
    per_view: int = 50
    center_noise_px: float = 2.0
    depth_noise: float = 1.0


@dataclass
class Seeds:
    scene: int = 7
    weights: int = 0


@dataclass
class EmitConfig:
    links: bool = False
    query_snapshots: bool = False
    sample_dumps: bool = False
    include_timing: bool = False


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
        if self.decoder.d != self.scene.feature_dim:
            raise ConfigError(
                f"decoder.d ({self.decoder.d}) must equal scene.feature_dim "
                f"({self.scene.feature_dim})")
        if abs(self.decoder.extent - self.scene.extent) > 1e-9:
            raise ConfigError("decoder.extent must equal scene.extent")
        self.decoder.validate()


PRESETS: dict[str, dict[str, object]] = {
    # full-size defaults: 900 queries, 6 shared layers, mixing + append swap
    "default": {},
    "qinit": {"decoder.enable_qmix": False, "decoder.enable_qswap": False},
    "qmix": {"decoder.enable_qswap": False},
    "qmix-qswap": {},
    "qswap-replace": {"decoder.qswap.mode": "replace"},
    "toy": {
        "scene.extent": 25.6, "scene.num_objects": 6, "scene.num_clutter": 8,
        "scene.feature_dim": 32, "scene.num_cameras": 4,
        "decoder.d": 32, "decoder.heads": 4, "decoder.layers": 2,
        "decoder.extent": 25.6,
        "queries.n_world": 60, "queries.n_img": 30, "queries.n_rad": 30,
        "queries.per_view": 10,
    },
}


def _nested_type(f: dataclasses.Field):
    """Dataclass type of a field, or None for plain values."""
    if f.default_factory is not dataclasses.MISSING:
        default = f.default_factory()
        if is_dataclass(default):
            return type(default)
    return None


def _from_dict(cls, doc: dict):
    """Strict dataclass hydration: unknown keys raise ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(
            f"expected an object for {cls.__name__}, got {type(doc).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys for {cls.__name__}: {sorted(unknown)}")
    kwargs = {}
    for name, value in doc.items():
        nested = _nested_type(known[name])
        kwargs[name] = _from_dict(nested, value) if nested is not None else value
    return cls(**kwargs)


def config_from_dict(doc: dict) -> RunConfig:
    return _from_dict(RunConfig, doc)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_override(cfg, path: str, value):
    parts = path.split(".")
    node = cfg
    for p in parts[:-1]:
        if not hasattr(node, p):
            raise ConfigError(f"unknown config path {path!r}")
        node = getattr(node, p)
    leaf = parts[-1]
    if not hasattr(node, leaf):
        raise ConfigError(f"unknown config path {path!r}")
    current = getattr(node, leaf)
    if is_dataclass(current):
        raise ConfigError(f"config path {path!r} is a section, not a value")
    setattr(node, leaf, value)


def build_config(args) -> RunConfig:
    doc = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    cfg = config_from_dict(doc)
    preset = getattr(args, "preset", None)
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {sorted(PRESETS)}")
        for path, value in PRESETS[preset].items():
            apply_override(cfg, path, value)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, _, raw = item.partition("=")
        apply_override(cfg, path.strip(), _parse_value(raw.strip()))
    if getattr(args, "qswap_mode", None):
        cfg.decoder.qswap.mode = args.qswap_mode
    for flag, path in (("emit_links", "links"),
                       ("emit_snapshots", "query_snapshots"),
                       ("emit_samples", "sample_dumps"),
                       ("include_timing", "include_timing")):
        if getattr(args, flag, False):
            setattr(cfg.emit, path, True)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# JSON plumbing
# ---------------------------------------------------------------------------

def _plain(obj):
    """Recursively convert to JSON-safe python values; NaN becomes null."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def write_json(path, obj):
    text = json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def run_pipeline(cfg: RunConfig, scene_path=None, weights_path=None):
    """Scene -> features -> queries -> decode -> per-layer metrics."""
    timing = {}
    t0 = time.perf_counter()
    if scene_path:
        scn, rig = sc.load_scene(scene_path)
        cfg.scene = scn.config
        cfg.validate()
    else:
        scn, rig = sc.generate_scene(cfg.seeds.scene, cfg.scene)
    timing["scene"] = time.perf_counter() - t0

    d = cfg.scene.feature_dim
    grid_cfg = sc.GridConfig(extent=cfg.scene.extent, voxel=cfg.render.voxel)
    t0 = time.perf_counter()
    pv_maps = sc.render_pv_features(scn, rig, d, cfg.render.pv_noise,
                                    seed=cfg.seeds.scene,
                                    downsample=cfg.render.pv_downsample)
    img_bev = sc.render_image_bev(scn, grid_cfg, d, cfg.render.bev_noise,
                                  miss_rate=cfg.render.miss_rate,
                                  seed=cfg.seeds.scene)
    cloud = sc.simulate_radar_points(scn, cfg.seeds.scene, cfg.radar)
    rad_bev, heatmap = sc.encode_radar_bev(cloud, grid_cfg, d,
                                           seed=cfg.seeds.scene)
    timing["features"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    world = qinit.init_world_queries(cfg.queries.n_world, cfg.scene.extent, d,
                                     cfg.seeds.scene, rings=cfg.queries.rings)
    proposals = qinit.generate_2d_proposals(
        scn, rig, pv_maps, per_view=cfg.queries.per_view,
        center_noise_px=cfg.queries.center_noise_px,
        depth_noise=cfg.queries.depth_noise, seed=cfg.seeds.scene)
    image, padded = qinit.init_image_queries(proposals, rig, cfg.queries.n_img,
                                             cfg.scene.extent)
    radar = qinit.init_radar_queries(heatmap, rad_bev, cfg.queries.n_rad)
    queries = qinit.concat_query_sets(world, image, radar)
    queries.validate(extent=cfg.scene.extent)
    timing["queries"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if weights_path:
        weights = weights_io.load_weights(weights_path, cfg.decoder)
    else:
        weights = weights_io.init_weights(cfg.seeds.weights, cfg.decoder)
    timing["weights"] = time.perf_counter() - t0

    features = dec.SceneFeatures(img_bev, rad_bev, pv_maps, rig)
    t0 = time.perf_counter()
    outputs = dec.decode(features, queries, weights, cfg.decoder)
    timing["decode"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    gts = met.gt_detections(scn.objects)
    layer_metrics = []
    for out in outputs:
        preds = met.detections_from_arrays(out.class_scores, out.centers,
                                           out.sizes, out.yaws)
        layer_metrics.append(met.evaluate_layer(preds, gts))
    timing["metrics"] = time.perf_counter() - t0

    return {
        "scene": scn, "rig": rig, "queries": queries, "padded": padded,
        "outputs": outputs, "layer_metrics": layer_metrics, "timing": timing,
        "weights": weights,
    }


def _set_size_summary(bank: qswap.SampleBank) -> dict:
    return {"min": int(bank.sizes.min()), "max": int(bank.sizes.max()),
            "mean": float(np.mean(bank.sizes))}


def _sample_dump(bank: qswap.SampleBank, positions: np.ndarray) -> list[dict]:
    """Every query's points on one grid, with absolute BEV positions."""
    names = {qswap.ORIGIN_BASE: "base", qswap.ORIGIN_SHARED: "shared"}
    xy = (positions[:, None, :2] + bank.offsets).tolist()
    origins = bank.origins.tolist()
    sources = bank.sources.tolist()
    scores = bank.scores.tolist()
    weights = bank.weights.tolist()
    return [
        {"owner": i,
         "points": [{"origin": names[origins[i][k]], "source": sources[i][k],
                     "position": xy[i][k], "score": scores[i][k],
                     "weight": weights[i][k]}
                    for k in range(size)]}
        for i, size in enumerate(bank.sizes.tolist())
    ]


def build_report(cfg: RunConfig, result) -> dict:
    outputs = result["outputs"]
    queries = result["queries"]
    layers = []
    mass_acc = {"self": [], "qmix": []}
    mpk_acc = {"self": [], "qmix": []}
    for out, lm in zip(outputs, result["layer_metrics"]):
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
        mass_acc["self"].append(out.self_stats.mass)
        mpk_acc["self"].append(out.self_stats.mean_per_key)
        if out.qmix_stats is not None:
            mass_acc["qmix"].append(out.qmix_stats.mass)
            mpk_acc["qmix"].append(out.qmix_stats.mean_per_key)
        if cfg.emit.links:
            attn = out.qmix_attn if out.qmix_attn is not None else out.self_attn
            conf = out.class_scores.max(axis=1)
            rec["links"] = [lk.to_dict() for lk in
                            extract_top_links(attn, queries.types, conf)]
        if cfg.emit.query_snapshots:
            rec["query_snapshot"] = {
                "positions": out.positions.tolist(),
                "types": [qinit.TYPE_NAMES[t] for t in queries.types],
                "confidence": out.class_scores.max(axis=1).tolist(),
            }
        if cfg.emit.sample_dumps:
            rec["sample_dump"] = {
                kind: _sample_dump(out.sample_sets[kind], out.sampling_positions)
                for kind in qswap.BEV_KINDS
            }
        layers.append(rec)

    attn_mean = {}
    for key in ("self", "qmix"):
        if mass_acc[key]:
            attn_mean[key] = {
                "mass": np.mean(mass_acc[key], axis=0).tolist(),
                "mean_per_key": np.mean(mpk_acc[key], axis=0).tolist(),
            }
        else:
            attn_mean[key] = None

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
        "final": result["layer_metrics"][-1],
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
    scn, rig = sc.generate_scene(cfg.seeds.scene, cfg.scene)
    sc.save_scene(scn, rig, args.out)
    print(f"[hqfusion] wrote scene with {len(scn.objects)} objects to {args.out}",
          file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    cfg = build_config(args)
    result = run_pipeline(cfg, scene_path=getattr(args, "scene", None),
                          weights_path=getattr(args, "weights", None))
    report = build_report(cfg, result)
    write_json(args.out, report)
    _log_timing(result["timing"])
    print(f"[hqfusion] report written to {args.out}", file=sys.stderr)
    return 0


def cmd_init_weights(args) -> int:
    cfg = build_config(args)
    weights = weights_io.init_weights(cfg.seeds.weights, cfg.decoder)
    weights_io.save_weights(weights, args.out)
    print(f"[hqfusion] wrote {len(weights.tensors)} tensors to {args.out}",
          file=sys.stderr)
    return 0


def cmd_analyze_attn(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
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

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "attn", "stat", "src_type", "dst_type", "value"])
        writer.writerows(rows)
    print(f"[hqfusion] wrote {len(rows)} stat rows to {args.out}", file=sys.stderr)
    return 0


def cmd_links(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    layers = []
    for rec in report["layers"]:
        if "links" not in rec:
            raise ConfigError(
                "report has no link records; re-run `run` with --emit-links")
        layers.append({"layer": rec["layer"], "links": rec["links"]})
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
    cfg = build_config(args)
    rows = []
    total0 = time.perf_counter()
    for name, overrides in ABLATION_VARIANTS:
        vcfg = config_from_dict(config_to_dict(cfg))
        for key, value in overrides.items():
            setattr(vcfg.decoder, key, value)
        vcfg.validate()
        t0 = time.perf_counter()
        result = run_pipeline(vcfg)
        elapsed = time.perf_counter() - t0
        final = result["layer_metrics"][-1]
        fmt = lambda v: "" if math.isnan(v) else repr(v)
        rows.append([name, vcfg.decoder.enable_qmix, vcfg.decoder.enable_qswap,
                     vcfg.decoder.qmix_placement, vcfg.decoder.qswap.mode,
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
    p.add_argument("--qswap-mode", choices=["append", "replace"])
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
    except (ConfigError, WeightFormatError, GenerationError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
