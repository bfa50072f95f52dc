import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hqfusion import cli, jsontext, qswap
from hqfusion import scene as sc
from hqfusion.errors import ConfigError, NonFiniteError
from hqfusion.weights_io import init_weights, save_weights

from reference import sample_dump_dicts


TOY = ["--preset", "toy"]


def run_cli(args):
    return cli.main(args)


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal alone costs most of a run's setup time; a fresh
    # interpreter that imports the CLI must not load it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
               "PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hqfusion.cli; print('scipy.signal' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def assert_error_exit(args, out, capsys, error="ConfigError"):
    """The run ends in exit 2 with the one-line JSON error and no report."""
    assert run_cli([*args, "--out", str(out)]) == 2, args
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == error, doc
    assert not out.exists()
    return doc["message"]


def _leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


LEAVES = sorted(_leaves(cli.config_to_dict(cli.RunConfig())))
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _declared(path):
    """The dataclass field that a dotted config path names."""
    node = cli.RunConfig()
    for name in path.split("."):
        leaf = {f.name: f for f in dataclasses.fields(node)}[name]
        node = getattr(node, name)
    return leaf


def _edges(path, default):
    """Each declared bound of a leaf and the nearest value beyond it."""
    meta = _declared(path).metadata
    if "choices" in meta:
        return [*meta["choices"], "sideways"]
    if "range" not in meta:
        return []
    lo, hi = meta["range"]
    if type(default) is int:
        return [lo - 1, lo] + ([hi, hi + 1] if hi < math.inf else [10 ** 30])
    return [math.nextafter(lo, -math.inf), lo, hi, math.nextafter(hi, math.inf)]


def _legal(path, default, value):
    """Whether the setter must take value: the default's type, then the
    declared range or choices."""
    meta = _declared(path).metadata
    if type(default) is float:
        typed = type(value) in (int, float)
    else:
        typed = type(value) is type(default)
    if not typed:
        return False
    if "range" in meta:
        lo, hi = meta["range"]
        return lo <= value <= hi
    return value in meta.get("choices", [value])


# leaves that declare no values of their own, and why
UNDECLARED = {
    "scene.feature_dim": "tied to decoder.d, which declares the range",
    "scene.num_clutter": "read by nothing but the report's config block",
    "decoder.qswap.prior_strength":
        "bounded by the finite prior_strength * log(affinity_floor) rule",
}
LEAF_VALUES = st.sampled_from(LEAVES).flatmap(
    lambda leaf: st.tuples(st.just(leaf), ANY_VALUE | st.sampled_from(
        _edges(*leaf) or [None])))

# the limits of RunConfig.limits, and the leaves that must be set in pairs
TABLE_LIMITS = (cli.MAX_VALUES, cli.MAX_GRID_SIDE, cli.MAX_QUERY_LAYERS,
                cli.MAX_PROPOSALS, cli.MAX_RADAR_POINTS, cli.MAX_CAMERA_OBJECTS)
TIED = {"decoder.d": "scene.feature_dim", "decoder.extent": "scene.extent",
        "decoder.num_classes": "scene.num_classes"}
TIED.update({b: a for a, b in TIED.items()})
RANGED_LEAVES = [(path, default) for path, default in LEAVES
                 if type(default) in (int, float)
                 and "range" in _declared(path).metadata]


def _near_limits(path, default):
    """A numeric leaf's finite range ends, 0 and 1, and values within 2x of
    a table limit, all inside its declared range."""
    lo, hi = _declared(path).metadata["range"]
    kind = type(default)
    ends = [kind(v) for v in (lo, hi, 0, 1) if lo <= v <= hi and v < math.inf]
    near = []
    for limit in TABLE_LIMITS:
        a, b = max(lo, limit / 2), min(hi, 2 * limit)
        if kind is int and math.ceil(a) <= b:
            near.append(st.integers(math.ceil(a), math.floor(b)))
        elif kind is float and a <= b:
            near.append(st.floats(a, b))
    return st.one_of(st.sampled_from(ends), *near)


# 2-4 distinct leaves, each with a value from _near_limits
LEAF_COMBINATIONS = st.tuples(
    st.integers(2, 4), st.permutations(RANGED_LEAVES)).flatmap(
        lambda drawn: st.tuples(*(
            st.tuples(st.just(path), _near_limits(path, default))
            for path, default in drawn[1][:drawn[0]])))


def _bank(sizes, k, seed=0):
    """A bank of random points; row i holds sizes[i] of them."""
    rng = np.random.default_rng(seed)
    n = len(sizes)
    return qswap.SampleBank(rng.normal(0.0, 20.0, (n, k, 2)),
                            rng.normal(size=(n, k)),
                            rng.integers(0, 2, (n, k)).astype(np.uint8),
                            rng.integers(0, n, (n, k)),
                            np.array(sizes, dtype=np.int64), rng.random((n, k)))


# a sample dump at several depths of a report-like tree
SAMPLE_DUMP_NESTINGS = [
    lambda dump: dump,
    lambda dump: [dump],
    lambda dump: {"a": 0.5, "dump": dump, "z": [1, dump]},
    lambda dump: {"layers": [{"layer": 0, "sample_dump": {"img_bev": dump}}]},
]


def toy_config():
    cfg = cli.RunConfig()
    for key, value in cli.PRESETS["toy"].items():
        cli.apply_override(cfg, key, value)
    return cfg


# what `gen-scene --preset toy` writes
TOY_SCENE = json.loads(json.dumps(sc.scene_to_dict(
    sc.generate_scene(7, toy_config().scene))))


def _scene_paths(node, prefix=()):
    """Paths below dicts and lists of dicts: every field of a scene file."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list)
             and all(isinstance(v, dict) for v in node) else ())
    for key, value in items:
        yield (*prefix, key)
        yield from _scene_paths(value, (*prefix, key))


SCENE_PATHS = list(_scene_paths(TOY_SCENE))


def _toy_weight_file() -> bytes:
    """What `init-weights --preset toy` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.cfw"
        decoder = toy_config().decoder
        save_weights(init_weights(0, decoder), decoder, path)
        return path.read_bytes()


TOY_WEIGHTS = _toy_weight_file()
WEIGHT_BLOB_START = TOY_WEIGHTS.index(b"\n\n") + 2
_MANIFEST = json.loads(TOY_WEIGHTS[:WEIGHT_BLOB_START - 2])
WEIGHT_PATHS = [(key,) for key in sorted(_MANIFEST)] + [
    ("tensors", i, key) for i, entry in enumerate(_MANIFEST["tensors"])
    for key in sorted(entry)]


def _float_index(name, k=0):
    """Index, among the blob's float32 values, of value k of a toy tensor."""
    entry = next(e for e in _MANIFEST["tensors"] if e["name"] == name)
    return entry["offset"] // 4 + k


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = cli.config_from_dict({})
        doc = cli.config_to_dict(cfg)
        again = cli.config_from_dict(doc)
        assert cli.config_to_dict(again) == doc

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cli.config_from_dict({"scnee": {}})
        with pytest.raises(ConfigError):
            cli.config_from_dict({"decoder": {"layrs": 3}})

    def test_override_parsing(self):
        cfg = cli.config_from_dict({})
        cli.apply_override(cfg, "decoder.enable_qswap", False)
        cli.apply_override(cfg, "queries.n_world", 45)
        assert cfg.decoder.enable_qswap is False
        assert cfg.queries.n_world == 45
        with pytest.raises(ConfigError):
            cli.apply_override(cfg, "decoder.nonexistent", 1)
        with pytest.raises(ConfigError):
            cli.apply_override(cfg, "decoder", 1)

    def test_setter_types(self):
        cfg = cli.RunConfig()
        cli.apply_override(cfg, "scene.extent", 25)
        assert type(cfg.scene.extent) is int
        cli.apply_override(cfg, "decoder", {"qswap": {"mode": "replace"}})
        assert cfg.decoder.qswap.mode == "replace"
        for path, value in [("decoder.enable_qmix", 1), ("decoder.layers", True),
                            ("decoder.layers", 2.0), ("scene.extent", "25"),
                            ("decoder.qswap.mode", None), ("decoder.validate", 1)]:
            with pytest.raises(ConfigError, match=path):
                cli.apply_override(cfg, path, value)

    @settings(max_examples=300, deadline=None)
    @given(case=LEAF_VALUES)
    def test_setter_keeps_the_default_type(self, case):
        (path, default), value = case
        doc = value
        for key in reversed(path.split(".")):
            doc = {key: doc}

        def by_override():
            cfg = cli.RunConfig()
            cli.apply_override(cfg, path, value)
            return cfg

        for build in (by_override, lambda: cli.config_from_dict(doc)):
            try:
                cfg = build()
            except ConfigError:
                assert not _legal(path, default, value), (path, value)
                continue
            assert _legal(path, default, value), (path, value)
            got = cfg
            for key in path.split("."):
                got = getattr(got, key)
            assert got is value
            assert type(got) is type(default) or (
                type(default) is float and type(got) is int)

    def test_every_leaf_declares_its_values(self):
        assert len(LEAVES) == 50
        for path, default in LEAVES:
            meta = _declared(path).metadata
            if type(default) is bool or path in UNDECLARED:
                assert not meta, path
            else:
                assert "range" in meta or "choices" in meta, path
        assert set(UNDECLARED) <= {path for path, _ in LEAVES}
        defaults = dict(LEAVES)
        values = [*LEAVES, *((path, value) for preset in cli.PRESETS.values()
                             for path, value in preset.items())]
        for path, value in values:
            assert _legal(path, defaults[path], value), (path, value)
        # every edge, on top of the ones the property test draws
        for path, default in LEAVES:
            for value in _edges(path, default):
                try:
                    cli.apply_override(cli.RunConfig(), path, value)
                except ConfigError as exc:
                    assert path in str(exc)
                    assert not _legal(path, default, value), (path, value)
                else:
                    assert _legal(path, default, value), (path, value)

    def test_dimension_mismatch_rejected(self):
        cfg = cli.config_from_dict({"scene": {"feature_dim": 64}})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_default_preset_is_full_size(self):
        cfg = cli.config_from_dict({})
        for path, value in cli.PRESETS["default"].items():
            cli.apply_override(cfg, path, value)
        cfg.validate()
        total = cfg.queries.n_world + cfg.queries.n_img + cfg.queries.n_rad
        assert total == 900
        assert (cfg.queries.n_world, cfg.queries.n_img, cfg.queries.n_rad) == \
            (450, 225, 225)
        assert cfg.decoder.layers == 6
        assert cfg.decoder.enable_qmix and cfg.decoder.enable_qswap
        assert cfg.decoder.qswap.mode == "append"
        assert (cfg.decoder.qswap.k_base, cfg.decoder.qswap.k_per,
                cfg.decoder.qswap.k_extra) == (20, 2, 4)
        assert cfg.decoder.qswap.radius_factor == 1.5
        assert cfg.decoder.qswap.prior_strength == 1.0
        assert cfg.render.voxel == 0.8
        assert sc.bev_cells(cfg.scene.extent, cfg.render.voxel) == 128


class TestCliCommands:
    def test_gen_scene_and_run_from_file(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        assert run_cli(["gen-scene", *TOY, "--out", str(scene_path)]) == 0
        doc = json.loads(scene_path.read_text())
        assert len(doc["objects"]) == 6

        report_path = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--scene", str(scene_path),
                        "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["scene"]["num_objects"] == 6

    def test_run_report_schema(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert "not comparable" in report["note"]
        assert report["queries"]["n_total"] == 120
        assert len(report["layers"]) == 2
        layer = report["layers"][0]
        assert 0.0 <= layer["metrics"]["map_center"] <= 1.0
        mass = np.array(layer["self_attn_stats"]["mass"])
        assert np.allclose(mass.sum(axis=1), 1.0, atol=1e-9)
        assert layer["qmix_stats"] is not None
        sizes = layer["sample_set_sizes"]["img_bev"]
        assert 20 <= sizes["min"] <= sizes["max"] <= 24
        assert "timing" not in report

    def test_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["run", *TOY, "--out", str(a)]) == 0
        assert run_cli(["run", *TOY, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_qswap_replace_mode_sizes(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--set", 'decoder.qswap.mode="replace"',
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for layer in report["layers"]:
            for kind in ("img_bev", "rad_bev"):
                sizes = layer["sample_set_sizes"][kind]
                assert sizes["min"] == sizes["max"] == 20

    def test_include_timing_flag(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--include-timing", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "decode" in report["timing"]

    def test_set_override_changes_run(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--set", "decoder.enable_qswap=false",
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["decoder"]["enable_qswap"] is False
        sizes = report["layers"][0]["sample_set_sizes"]["img_bev"]
        assert sizes["min"] == sizes["max"] == 20

    def test_analyze_attn_csv(self, tmp_path):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "stats.csv"
        assert run_cli(["run", *TOY, "--out", str(report_path)]) == 0
        assert run_cli(["analyze-attn", "--report", str(report_path),
                        "--out", str(csv_path)]) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "attn", "stat", "src_type", "dst_type", "value"]
        # 2 layers * 2 kinds * 2 stats * 9 + mean rows (2 kinds * 2 stats * 9)
        assert len(rows) - 1 == 2 * 2 * 2 * 9 + 2 * 2 * 9
        values = [float(r[5]) for r in rows[1:]]
        assert all(np.isfinite(values))

    def test_links_requires_emission(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        links_path = tmp_path / "links.json"
        assert run_cli(["run", *TOY, "--out", str(report_path)]) == 0
        assert run_cli(["links", "--report", str(report_path),
                        "--out", str(links_path)]) == 2
        err = capsys.readouterr().err
        assert "emit-links" in err

    def test_links_output(self, tmp_path):
        report_path = tmp_path / "report.json"
        links_path = tmp_path / "links.json"
        assert run_cli(["run", *TOY, "--emit-links",
                        "--out", str(report_path)]) == 0
        assert run_cli(["links", "--report", str(report_path),
                        "--out", str(links_path)]) == 0
        doc = json.loads(links_path.read_text())
        assert len(doc["layers"]) == 2
        links = doc["layers"][0]["links"]
        assert links, "expected at least one cross-type link"
        for link in links[:20]:
            assert link["source_type"] != link["target_type"]
            assert link["source_confidence"] > 0.1

    def test_snapshot_emission(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--emit-snapshots",
                        "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        snap = report["layers"][0]["query_snapshot"]
        assert len(snap["positions"]) == 120
        assert set(snap["types"]) == {"img", "rad", "w"}

    def test_sample_dump_emission(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--emit-samples",
                        "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        dump = report["layers"][0]["sample_dump"]["img_bev"]
        assert len(dump) == 120
        first = dump[0]["points"][0]
        assert set(first) == {"origin", "source", "position", "score", "weight"}
        assert first["origin"] in ("base", "shared")
        weights = [p["weight"] for p in dump[0]["points"]]
        assert abs(sum(weights) - 1.0) < 1e-9

    @pytest.mark.parametrize("source", ["append", "replace", "synthetic"])
    def test_sample_dump_text_equals_the_dicts(self, source):
        if source == "synthetic":
            banks = [_bank([3, 0, 5, 1], 5), _bank([2], 4), _bank([0], 3)]
        else:
            cfg = toy_config()
            cli.apply_override(cfg, "decoder.qswap.mode", source)
            banks = [out.sample_sets[kind]
                     for out in cli.run_pipeline(cfg)["outputs"]
                     for kind in qswap.BEV_KINDS]
            assert any((b.origins[b.valid] == qswap.ORIGIN_SHARED).any()
                       for b in banks)
        if source != "replace":
            assert any(len(set(b.sizes.tolist())) > 1 for b in banks)
        for bank in banks:
            for nest in SAMPLE_DUMP_NESTINGS:
                assert (jsontext.dumps(nest(cli._sample_dump(bank)))
                        == json.dumps(nest(sample_dump_dicts(bank)),
                                      sort_keys=True, indent=2))

    @pytest.mark.parametrize("changes", [
        [("points", (2, 2, 1), math.nan)], [("points", (0, 1, 0), math.inf)],
        [("scores", (0, 0), -math.inf)], [("weights", (2, 4), math.nan)],
        [("weights", (3, 0), math.inf), ("scores", (2, 1), math.nan)],
        [("points", (2, 3, 1), -math.inf), ("weights", (2, 3), math.nan)]])
    def test_non_finite_sample_refused(self, tmp_path, changes):
        bank = _bank([3, 0, 5, 1], 6)
        for column, index, value in changes:
            getattr(bank, column)[index] = value
        path = tmp_path / "r.json"
        with pytest.raises(NonFiniteError, match="not JSON compliant") as ours:
            cli.write_json(path, {"sample_dump": {"img_bev": cli._sample_dump(bank)}})
        assert not path.exists()
        # the same first value in text order as the encoder of the dicts
        with pytest.raises(ValueError) as theirs:
            json.dumps(sample_dump_dicts(bank), sort_keys=True, indent=2,
                       allow_nan=False)
        assert str(ours.value).endswith(str(theirs.value))

    def test_non_finite_padding_is_not_written(self, tmp_path):
        bank = _bank([3, 0, 5, 1], 6)
        for i, size in enumerate(bank.sizes):
            bank.points[i, size:] = math.nan
            bank.scores[i, size:] = math.inf
            bank.weights[i, size:] = -math.inf
        report = {"layers": [{"sample_dump": {"img_bev": cli._sample_dump(bank)}}]}
        path = tmp_path / "r.json"
        cli.write_json(path, report)
        report["layers"][0]["sample_dump"]["img_bev"] = sample_dump_dicts(bank)
        assert path.read_text() == json.dumps(report, sort_keys=True, indent=2,
                                              allow_nan=False) + "\n"

    def test_written_files_equal_the_stdlib_text(self, tmp_path):
        # a float's repr reads back to the same float, so re-dumping the
        # parsed file with the standard library must give the same bytes
        report, links, scene = (tmp_path / name for name in
                                ("report.json", "links.json", "scene.json"))
        assert run_cli(["run", *TOY, "--emit-links", "--emit-samples",
                        "--emit-snapshots", "--out", str(report)]) == 0
        assert run_cli(["links", "--report", str(report),
                        "--out", str(links)]) == 0
        assert run_cli(["gen-scene", *TOY, "--out", str(scene)]) == 0
        for path in (report, links):
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      indent=2, allow_nan=False) + "\n"
        # a scene file has no trailing newline
        text = scene.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)

    def test_non_finite_scene_refused(self, tmp_path, capsys, monkeypatch):
        generate = sc.generate_scene

        def with_nan_yaw(seed, config):
            scn = generate(seed, config)
            scn.objects[0].yaw = float("nan")
            return scn

        monkeypatch.setattr(sc, "generate_scene", with_nan_yaw)
        assert "not JSON compliant" in assert_error_exit(
            ["gen-scene", *TOY], tmp_path / "scene.json", capsys,
            error="NonFiniteError")

    def test_partial_voxel_extent_refused_before_generation(
            self, tmp_path, capsys, monkeypatch):
        # 2 * 25 m is 62.5 voxels of 0.8 m: a scene file may hold it, but no
        # grid can be rendered from it
        extent = ["--set", "scene.extent=25", "--set", "decoder.extent=25"]
        scene = tmp_path / "scene.json"
        assert run_cli(["gen-scene", *TOY, *extent, "--out", str(scene)]) == 0

        def no_generation(*args, **kwargs):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(sc, "generate_scene", no_generation)
        for route in (["run", *TOY, *extent], ["ablate", *TOY, *extent],
                      ["run", *TOY, *extent, "--scene", str(scene)]):
            assert "voxels" in assert_error_exit(route, tmp_path / "out",
                                                 capsys), route

    def test_stage_line_times_report_and_write(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--include-timing", "--out", str(out)]) == 0
        line = next(line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("[hqfusion] stages:"))
        stages = [part.split()[0] for part in line.split(":", 1)[1].split(",")]
        assert stages == ["scene", "features", "queries", "weights", "decode",
                          "metrics", "report", "write"]
        # the report's own timing block keeps the pipeline stages only
        assert set(json.loads(out.read_text())["timing"]) == set(stages[:6])

    def test_invalid_config_error_json(self, tmp_path, capsys, monkeypatch):
        def no_generation(*args, **kwargs):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(sc, "generate_scene", no_generation)
        for override, word in [("decoder.qswap.mode=sideways", "sideways"),
                               ("decoder.heads=0", "head"),
                               ("decoder.qswap.k_base=0", "k_base"),
                               ("decoder.num_classes=0", "num_classes"),
                               ("render.voxel=0", "voxel"),
                               ("render.voxel=-0.8", "voxel"),
                               ("render.pv_downsample=0", "pv_downsample"),
                               ("queries.rings=0", "rings"),
                               ("queries.n_img=-1", "n_img"),
                               ("queries.per_view=-1", "per_view"),
                               ("scene.num_cameras=-1", "num_cameras"),
                               ("render.pv_downsample=1.5", "pv_downsample"),
                               ("scene.num_objects=1.5", "scene.num_objects"),
                               ("decoder.enable_qmix=1", "decoder.enable_qmix"),
                               ('decoder.layers="abc"', "decoder.layers"),
                               ("decoder.layers=2.5", "decoder.layers"),
                               ("seeds.scene=1.5", "seeds.scene"),
                               ("seeds.scene=-1", "seeds.scene"),
                               ("seeds.weights=-1", "seeds.weights"),
                               ("scene.image_width=0", "image_width"),
                               ("scene.image_height=0", "image_height"),
                               ("scene.focal=0", "focal"),
                               ("scene.focal=-500", "focal"),
                               ("scene.num_classes=0", "num_classes"),
                               ("radar.clutter_count=-1", "clutter_count"),
                               ("radar.points_per_object=-1", "points_per_object"),
                               ("radar.pos_noise=-1", "pos_noise"),
                               ("queries.depth_noise=-1", "depth_noise"),
                               ("render.miss_rate=2", "miss_rate"),
                               ("render.pv_noise=-1", "pv_noise"),
                               ("render.bev_noise=-1", "bev_noise"),
                               ("scene.camera_height=-1", "camera_height"),
                               ("decoder.qswap.radius_factor=-1", "radius_factor"),
                               ("decoder.qswap.radius_factor=NaN", "radius_factor"),
                               ("decoder.qswap.prior_strength=NaN", "prior_strength"),
                               ("decoder.qswap.prior_strength=1e308", "prior_strength"),
                               ("decoder.qswap.affinity_floor=NaN", "affinity_floor"),
                               ("queries.depth_noise=NaN", "depth_noise"),
                               ("decoder.extent=NaN", "decoder.extent"),
                               (f"scene.extent=1{'0' * 400}", "scene.extent"),
                               ("queries.n_world=0", "n_world"),
                               ("queries.n_world=14", "n_world"),
                               ("queries.n_world=200000", "attention matrix"),
                               ("queries.n_img=20000", "attention matrix"),
                               ("queries.n_rad=4097", "n_rad"),
                               ("decoder.layers=100000000", "decoder.layers"),
                               ("queries.per_view=100000000", "queries.per_view"),
                               ("radar.clutter_count=100000000", "radar.clutter_count"),
                               ("radar.points_per_object=100000000",
                                "radar.points_per_object"),
                               ("scene.num_objects=100000000", "scene.num_objects"),
                               ("render.pv_noise=NaN", "render.pv_noise"),
                               ("render.bev_noise=Infinity", "render.bev_noise"),
                               ("radar.pos_noise=NaN", "radar.pos_noise"),
                               ("radar.vel_noise=NaN", "radar.vel_noise"),
                               ("decoder.k_pv=100000000", "decoder.k_pv"),
                               ("decoder.k_pv=400000", "decoder.k_pv"),
                               ("decoder.qswap.k_base=600000", "decoder.qswap.k_base"),
                               ("render.pv_downsample=1048577", "render.pv_downsample"),
                               (f"scene.num_classes={2 ** 63 + 1}", "scene.num_classes"),
                               ("radar.pos_noise=1e308", "radar.pos_noise"),
                               ("radar.vel_noise=1e308", "radar.vel_noise"),
                               ("render.bev_noise=1e308", "render.bev_noise"),
                               ("render.pv_noise=1e308", "render.pv_noise")]:
            for command in ("run", "ablate"):
                message = assert_error_exit([command, *TOY, "--set", override],
                                            tmp_path / "out", capsys)
                assert word in message, (command, override)
        # a refused value of 5,000 characters is echoed cut short
        long, doc = "x" * 5000, tmp_path / "config.json"
        doc.write_text(json.dumps([0] * 2500))
        for probe in (["--set", f"decoder.layers={long}"],
                      ["--set", f"scene.extent=1{'0' * 4000}"],
                      ["--set", f"decoder.qswap.mode={long}"],
                      ["--set", f"{long}=1"], ["--set", long],
                      ["--preset", long], ["--config", str(doc)]):
            for command in ("run", "ablate"):
                out = tmp_path / "out"
                assert run_cli([command, *TOY, *probe, "--out", str(out)]) == 2
                [line] = capsys.readouterr().err.strip().splitlines()
                assert len(line.encode()) <= 300, (command, probe[0], line[:80])
                assert json.loads(line)["error"] == "ConfigError"
                assert not out.exists()

    @pytest.mark.parametrize("path", ["radar.pos_noise", "radar.vel_noise",
                                      "render.bev_noise", "render.pv_noise"])
    def test_noise_at_its_bound_runs_clean(self, tmp_path, path):
        # every RuntimeWarning is an error here: no renderer overflows
        bound = _declared(path).metadata["range"][1]
        assert run_cli(["run", *TOY, "--set", f"{path}={bound!r}",
                        "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("pair, word", [
        (("scene.extent=1e308", "decoder.extent=1e308"), "extent"),
        (("scene.feature_dim=0", "decoder.d=0"), "decoder.d"),
        (("scene.extent=NaN", "decoder.extent=NaN"), "scene.extent"),
        (("decoder.qswap.n_neighbors=119", "decoder.qswap.radius_factor=1e6",
          "decoder.qswap.k_base=20000"), "decoder.qswap.n_neighbors"),
        (("scene.num_classes=1000",), "decoder.num_classes")])
    def test_paired_overrides_refused(self, tmp_path, capsys, pair, word):
        args = ["run", *TOY]
        for override in pair:
            args += ["--set", override]
        assert word in assert_error_exit(args, tmp_path / "r.json", capsys)

    def test_bad_scene_file_refused(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        assert run_cli(["gen-scene", *TOY, "--out", str(scene_path)]) == 0
        good = json.loads(scene_path.read_text())
        bad_docs = [[good], {k: v for k, v in good.items() if k != "config"},
                    {**good, "config": {**good["config"], "bogus": 1}},
                    {**good, "config": {**good["config"], "focal": "wide"}}]
        bad_docs += [{k: v for k, v in good.items() if k != key}
                     for key in ("seed", "objects", "rig")]
        bad_docs += [{**good, "seed": seed} for seed in (1.5, -1, "3", True)]
        bad_docs += [{**good, "objects": good["objects"][:-1]}]
        bad_fields = [
            (("objects", 0, "center"), [1, 2]), (("objects", 0, "size"), "abc"),
            (("rig", 0, "r_wc"), [[1, 0], [0, 1]]), (("rig", 0, "fx"), "x"),
            (("rig", 0, "width"), -5), (("objects", 0, "signature"), [1.0]),
            (("objects", 0, "class_id"), 99),
            (("objects", 0, "center"), [float("nan"), 0.0, 0.5]),
            (("rig",), []), (("objects", 0, "center"), [100.0, 0.0, 0.5]),
            (("objects", 0, "size"), [-1.0, 4.0, 1.5]),
            (("objects", 0, "velocity"), [1e300, 0.0]),
            (("objects", 0, "signature"), [0.0] * 32),
            (("objects", 0, "id"), 10 ** 30), (("objects", 0, "bogus"), 1),
            (("rig", 0, "fx"), 0), (("rig", 0, "cy"), -1e308),
            (("rig", 0, "r_wc"), [[2.0, 0, 0], [0, 1, 0], [0, 0, 1]]),
            (("rig", 0, "position"), [0.0, 0.0, 1e308]),
            (("rig", 0, "height"), 2 ** 40), (("objects",), {})]
        bad_docs += [mutated(good, path, value) for path, value in bad_fields]
        for doc in bad_docs:
            scene_path.write_text(json.dumps(doc))
            assert_error_exit(["run", *TOY, "--scene", str(scene_path)],
                              tmp_path / "r.json", capsys)

    @settings(max_examples=100, deadline=None)
    @given(path=st.sampled_from(SCENE_PATHS), value=ANY_VALUE)
    def test_mutated_scene_file(self, tmp_path_factory, path, value):
        # any one field replaced: a finite report, or exit 2 with the JSON line
        where = tmp_path_factory.mktemp("scene")
        scene_path, out = where / "scene.json", where / "r.json"
        scene_path.write_text(json.dumps(mutated(TOY_SCENE, path, value)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["run", *TOY, "--set", "decoder.layers=1",
                            "--scene", str(scene_path), "--out", str(out)])
        event(f"exit {code}")
        if code == 0:
            def refuse(constant):
                raise AssertionError(f"{constant} in the report")
            json.loads(out.read_text(), parse_constant=refuse)
        else:
            assert code == 2, (path, value)
            doc = json.loads(err.getvalue().strip().splitlines()[-1])
            assert set(doc) == {"error", "message"} and not out.exists()

    def test_impossible_object_count_refused_fast(self, tmp_path, capsys):
        t0 = time.perf_counter()
        message = assert_error_exit(
            ["gen-scene", *TOY, "--set", "scene.num_objects=3000"],
            tmp_path / "scene.json", capsys)
        assert "num_objects" in message
        assert time.perf_counter() - t0 < 5.0
        for override in ("scene.min_separation=-1", "scene.min_separation=NaN",
                         "scene.num_objects=-1"):
            assert "scene." in assert_error_exit(
                ["gen-scene", *TOY, "--set", override], tmp_path / "s.json",
                capsys)

    def test_jammed_object_count_gives_up_fast(self, tmp_path, capsys):
        # 700 objects pass the area bound, but random placement jams near
        # 400 in the toy square; the placement budget does not grow with the
        # requested count, so the refusal comes quickly
        t0 = time.perf_counter()
        message = assert_error_exit(
            ["gen-scene", *TOY, "--set", "scene.num_objects=700"],
            tmp_path / "scene.json", capsys, error="GenerationError")
        assert time.perf_counter() - t0 < 10.0
        assert f"{sc.MAX_REJECTED_DRAWS} draws in a row" in message

    @pytest.mark.parametrize("overrides, word", [
        (("scene.image_width=1000000000",), "scene.image_width"),
        (("scene.image_height=100000", "render.pv_downsample=1"),
         "render.pv_downsample"),
        (("render.voxel=0.0001",), "render.voxel"),
        (("render.voxel=5e-324",), "render.voxel"),
        (("scene.feature_dim=4", "decoder.d=4", "render.voxel=0.01"),
         "render.voxel"),
        (("render.voxel=0.02",), "scene.feature_dim")])
    def test_feature_map_size_bounded(self, tmp_path, capsys, overrides, word):
        # refused by the config check, before any scene or map exists
        cfg = toy_config()
        for override in overrides:
            key, value = override.split("=")
            cli.apply_override(cfg, key, json.loads(value))
        with pytest.raises(ConfigError, match=word):
            cfg.validate()
        args = ["run", *TOY]
        for override in overrides:
            args += ["--set", override]
        assert word in assert_error_exit(args, tmp_path / "r.json", capsys)

    def test_feature_maps_at_the_bounds_pass(self):
        cfg = toy_config()
        # toy PV maps: 4 cameras x (450 // 16) x (image_width // 16) x 32 values
        per_column = 4 * (450 // 16) * 32
        cli.apply_override(cfg, "scene.image_width",
                           cli.MAX_VALUES // per_column * 16)
        cfg.validate()
        cli.apply_override(cfg, "scene.image_width", cfg.scene.image_width + 16)
        with pytest.raises(ConfigError, match="PV maps"):
            cfg.validate()
        # a power-of-two span keeps 2 * extent / voxel exact
        cfg = toy_config()
        for path, value in [("scene.extent", 32.0), ("decoder.extent", 32.0),
                            ("scene.feature_dim", 1), ("decoder.d", 1),
                            ("decoder.heads", 1),
                            ("render.voxel", 64.0 / cli.MAX_GRID_SIDE)]:
            cli.apply_override(cfg, path, value)
        cfg.validate()
        cli.apply_override(cfg, "render.voxel", 64.0 / (2 * cli.MAX_GRID_SIDE))
        with pytest.raises(ConfigError, match="cells per side"):
            cfg.validate()
        for path in ("scene.feature_dim", "decoder.d"):
            cli.apply_override(cfg, path, cli.MAX_VALUES // (2048 * 2048))
        cli.apply_override(cfg, "render.voxel", 64.0 / 2048)
        cfg.validate()
        cli.apply_override(cfg, "render.voxel", 64.0 / 2049)
        with pytest.raises(ConfigError, match="BEV grid"):
            cfg.validate()

    def test_weight_size_bounded(self, tmp_path, capsys):
        # the weight tensors grow as d^2; with no PV map and an 8x8 grid,
        # only the weight bound stands before a 5 TB allocation
        args = ["run", *TOY, "--set", "scene.num_cameras=0",
                "--set", "render.voxel=6.4", "--set", "scene.feature_dim=131072",
                "--set", "decoder.d=131072"]
        assert "decoder.d" in assert_error_exit(args, tmp_path / "r.json", capsys)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({
            **TOY_SCENE, "objects": [], "rig": [],
            "config": {**TOY_SCENE["config"], "num_objects": 0,
                       "num_cameras": 0, "feature_dim": 131072}}))
        assert "decoder.d" in assert_error_exit(
            [*args, "--scene", str(scene_path)], tmp_path / "r.json", capsys)
        # the bound is on the tensor table's total: the largest d whose
        # tensors fit passes, the next one is refused
        from hqfusion.weights_io import expected_shapes
        cfg = toy_config()
        for path, value in [("scene.num_cameras", 0), ("render.voxel", 6.4),
                            ("decoder.heads", 1)]:
            cli.apply_override(cfg, path, value)

        def weights_at(d):
            for path in ("scene.feature_dim", "decoder.d"):
                cli.apply_override(cfg, path, d)
            total = sum(math.prod(s) for s in expected_shapes(cfg.decoder).values())
            assert next(cfg.limits())[:3] == ("decoder weights", total,
                                              cli.MAX_VALUES)
            return total

        fits, too_big = 1, 131072
        while too_big - fits > 1:
            mid = (fits + too_big) // 2
            if weights_at(mid) <= cli.MAX_VALUES:
                fits = mid
            else:
                too_big = mid
        weights_at(fits)
        cfg.validate()
        weights_at(too_big)
        with pytest.raises(ConfigError, match="decoder weights"):
            cfg.validate()

    @pytest.mark.parametrize("overrides, word", [
        (("scene.num_cameras=100", "queries.per_view=1000000"),
         "scene.num_cameras"),
        (("scene.feature_dim=1024", "decoder.d=1024", "queries.per_view=50000"),
         "queries.per_view"),
        (("scene.min_separation=0", "scene.num_objects=100000000"),
         "scene.num_objects"),
        (("scene.min_separation=0", "scene.num_objects=10000",
          "radar.points_per_object=27"), "radar.points_per_object"),
        ((f"scene.num_cameras={sc.MAX_CAMERAS + 1}",), "scene.num_cameras"),
        (("scene.num_cameras=128", "scene.num_objects=10000",
          "scene.min_separation=0", "scene.focal=1e-3",
          "render.pv_downsample=1048576"), "scene.num_cameras")])
    def test_generator_work_bounded(self, tmp_path, capsys, monkeypatch,
                                    overrides, word):
        # cameras, proposals, radar points and the objects each camera sees
        # are looped over in Python
        def no_generation(*args, **kwargs):
            raise AssertionError("a scene was generated")

        monkeypatch.setattr(sc, "generate_scene", no_generation)
        args = ["run", *TOY]
        for override in overrides:
            args += ["--set", override]
        assert word in assert_error_exit(args, tmp_path / "r.json", capsys)

    def test_generator_work_at_the_bounds_passes(self):
        cfg = toy_config()
        # toy: 4 cameras of 32-value proposals, 6 objects of 8 radar points
        for path, value in [("queries.per_view", cli.MAX_PROPOSALS // 4),
                            ("radar.clutter_count", cli.MAX_RADAR_POINTS - 48)]:
            cli.apply_override(cfg, path, value)
            cfg.validate()
            cli.apply_override(cfg, path, value + 1)
            with pytest.raises(ConfigError, match=path):
                cfg.validate()
            cli.apply_override(cfg, path, value)
        for path, value in [("scene.feature_dim", 1024), ("decoder.d", 1024),
                            ("queries.per_view", cli.MAX_VALUES // 4096)]:
            cli.apply_override(cfg, path, value)
        cfg.validate()
        cli.apply_override(cfg, "queries.per_view", cli.MAX_VALUES // 4096 + 1)
        with pytest.raises(ConfigError, match="proposals"):
            cfg.validate()
        cfg = toy_config()
        cli.apply_override(cfg, "scene.min_separation", 0)
        cli.apply_override(cfg, "scene.num_objects", sc.MAX_OBJECTS)
        cfg.validate()
        with pytest.raises(ConfigError, match="scene.num_objects"):
            cli.apply_override(cfg, "scene.num_objects", sc.MAX_OBJECTS + 1)
        # camera-object pairs: 13 x 10,000 of them, and 128 cameras at the bound
        cli.apply_override(cfg, "scene.num_cameras", 13)
        cfg.validate()
        cli.apply_override(cfg, "scene.num_cameras", sc.MAX_CAMERAS)
        cli.apply_override(cfg, "scene.num_objects",
                           cli.MAX_CAMERA_OBJECTS // sc.MAX_CAMERAS)
        cfg.validate()
        cli.apply_override(cfg, "scene.num_objects",
                           cli.MAX_CAMERA_OBJECTS // sc.MAX_CAMERAS + 1)
        with pytest.raises(ConfigError, match="camera-object pairs"):
            cfg.validate()

    def test_query_bounds_at_one_matrix_and_the_query_layers(self):
        # no layer's N x N attention matrix outlives the next layer, so N^2
        # is bounded whatever decoder.layers is
        cfg = cli.config_from_dict({})  # 6 layers, 225 image + 225 radar queries
        cli.apply_override(cfg, "queries.n_world", 4800)
        cfg.validate()
        cli.apply_override(cfg, "decoder.layers", 1)
        n_world = math.isqrt(cli.MAX_VALUES) - 450
        cli.apply_override(cfg, "queries.n_world", n_world)  # N = 11,585
        cfg.validate()
        cli.apply_override(cfg, "queries.n_world", n_world + 1)
        with pytest.raises(ConfigError, match="attention matrix"):
            cfg.validate()
        # the layer loop's per-query work and outputs have their own budget
        cli.apply_override(cfg, "queries.n_world", 450)  # N = 900
        cli.apply_override(cfg, "decoder.layers", cli.MAX_QUERY_LAYERS // 900)
        cfg.validate()
        cli.apply_override(cfg, "decoder.layers", cli.MAX_QUERY_LAYERS // 900 + 1)
        with pytest.raises(ConfigError, match="decoder.layers"):
            cfg.validate()

    def test_sampling_arrays_at_the_bounds_pass(self):
        # toy: 120 queries of 32 values, 4 cameras, k_base 20, k_extra 4
        n, top = 120, cli.MAX_VALUES
        cfg = toy_config()
        cli.apply_override(cfg, "decoder.qswap.n_neighbors", 0)
        # the base head's (N, 3 k_base) output, the token plan's (N, T)
        for path, value, default in [
                ("decoder.qswap.k_base", top // (3 * n), 20),
                ("decoder.k_pv", (top // n - 2 * (20 + 4)) // 4, 4)]:
            cli.apply_override(cfg, path, value)
            cfg.validate()
            cli.apply_override(cfg, path, value + 1)
            with pytest.raises(ConfigError, match=path):
                cfg.validate()
            cli.apply_override(cfg, path, default)
        # swap's (N, min(n_neighbors, N - 1), k_base) candidates
        cli.apply_override(cfg, "decoder.qswap.k_base", 20000)
        cli.apply_override(cfg, "decoder.qswap.n_neighbors", top // (n * 20000))
        cfg.validate()
        cli.apply_override(cfg, "decoder.qswap.n_neighbors", top // (n * 20000) + 1)
        with pytest.raises(ConfigError, match="decoder.qswap.n_neighbors"):
            cfg.validate()
        cli.apply_override(cfg, "decoder.enable_qswap", False)
        cfg.validate()

    @pytest.mark.parametrize("route", ["toy", "default", "scene"])
    def test_bev_grids_have_the_limits_geometry(self, route, tmp_path,
                                                monkeypatch):
        # the radar-query row of limits() counts round(2 extent / voxel) ** 2
        # heatmap cells: both grids and the heatmap must have that side
        args = [] if route == "default" else [*TOY]
        if route == "scene":
            args += ["--set", "scene.extent=12.8", "--set", "decoder.extent=12.8"]
            scene = tmp_path / "scene.json"
            assert run_cli(["gen-scene", *args, "--out", str(scene)]) == 0
            args += ["--scene", str(scene)]
        args = cli.make_parser().parse_args(["run", *args, "--out", "r.json"])
        cfg = cli.build_config(args)
        heatmaps = []
        encode = sc.encode_radar_bev

        def keep(*a, **kw):
            out = encode(*a, **kw)
            heatmaps.append(out[1])
            return out

        monkeypatch.setattr(sc, "encode_radar_bev", keep)
        _, features = cli.prepare_inputs(cfg, getattr(args, "scene", None))
        side = sc.bev_cells(cfg.scene.extent, cfg.render.voxel)
        assert side == {"toy": 64, "default": 128, "scene": 32}[route]
        img, rad = features.img_bev, features.rad_bev
        for grid in (img, rad):
            assert grid.data.shape[:2] == (side, side)
            assert ((grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.voxel)
                    == (img.x_min, img.x_max, img.y_min, img.y_max, img.voxel))
        [limit] = [limit for what, _, limit, _ in cfg.limits()
                   if what.startswith("radar queries")]
        [heatmap] = heatmaps
        assert heatmap.shape == (side, side) and heatmap.size == limit

    def test_limit_fields_are_config_leaves(self):
        # a renamed leaf cannot leave a stale name in a refusal message
        leaves = {path for path, _ in LEAVES}
        for what, size, limit, fields in cli.RunConfig().limits():
            named = re.findall(r"[a-z_]+(?:\.[a-z_]+)+", fields)
            assert named and set(named) <= leaves, (what, fields)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(leaves=LEAF_COMBINATIONS)
    def test_leaf_combinations_refused_or_within_limits(self, leaves):
        # every accepted config holds every row of the table, and nothing
        # but a ConfigError (an OverflowError, say) ever escapes the check
        sets = [f"{path}={json.dumps(value)}" for path, value in leaves]
        sets += [f"{TIED[path]}={json.dumps(value)}" for path, value in leaves
                 if path in TIED]
        try:
            cfg = cli.build_config(argparse.Namespace(preset="toy", set=sets))
        except ConfigError:
            event("refused")
            return
        event("accepted")
        for what, size, limit, _ in cfg.limits():
            assert size <= limit, (what, sets)

    @pytest.mark.parametrize("sets", [
        ("scene.num_cameras=128", "render.pv_downsample=1048576",
         "queries.per_view=1"),
        ("queries.n_img=0", "decoder.k_pv=0", "decoder.qswap.n_neighbors=0",
         "decoder.qswap.k_base=1"),
        ("queries.n_world=15", "queries.n_rad=0", "scene.num_objects=0")])
    def test_leaf_combinations_run_end_to_end(self, tmp_path, sets):
        out = tmp_path / "r.json"
        args = ["run", *TOY, "--set", "decoder.layers=1", "--out", str(out)]
        for item in sets:
            args += ["--set", item]
        assert run_cli(args) == 0

        def refuse(constant):
            raise AssertionError(f"{constant} in the report")
        json.loads(out.read_text(), parse_constant=refuse)

    def test_feasible_object_counts_pass_validation(self):
        # the densest packing of 2 m disks in the toy square holds far more
        # than 100 objects; the bound must not refuse such a count
        cfg = toy_config()
        cli.apply_override(cfg, "scene.num_objects", 100)
        cfg.validate()
        scene = sc.generate_scene(7, cfg.scene)
        assert len(scene.objects) == 100

    def test_unreadable_inputs_refused(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run_cli(["run", *TOY, "--emit-links", "--out", str(report)]) == 0
        good = json.loads(report.read_text())
        layer = good["layers"][0]
        not_reports = [[good], {}, {**good, "schema_version": 2},
                       {**good, "layers": {}}, {**good, "layers": [1]},
                       {**good, "layers": [{"links": []}]}]
        # json.load reads NaN and Infinity, which `run` never writes
        not_reports += [mutated(good, ("layers", 0, "self_attn_stats", "mass", 0, 0),
                                value)
                        for value in (float("nan"), float("inf"), float("-inf"))]
        # nor a number literal that overflows to infinity
        marker = 1.2345678e-300
        text = json.dumps(mutated(good, ("layers", 0, "self_attn_stats", "mass",
                                         0, 0), marker))
        assert text.count(repr(marker)) == 1
        not_reports.append(text.replace(repr(marker), "1e400"))
        bad_stats = [{**good, "layers": [{**layer, "self_attn_stats": [[0.1]]}]},
                     {**good, "layers": [{**layer, "self_attn_stats": {
                         "mass": "ab", "mean_per_key": []}}]},
                     {**good, "attn_stats_mean": [1]}]
        path = tmp_path / "bad.json"
        for doc, commands in ([(d, ("links", "analyze-attn")) for d in not_reports]
                              + [(d, ("analyze-attn",)) for d in bad_stats]):
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            for command in commands:
                assert_error_exit([command, "--report", str(path)],
                                  tmp_path / "out", capsys)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        for args, error in (
                (["run", *TOY, "--config", str(tmp_path)], "IsADirectoryError"),
                (["run", *TOY, "--scene", str(tmp_path)], "IsADirectoryError"),
                (["run", *TOY, "--weights", str(tmp_path)], "IsADirectoryError"),
                (["links", "--report", str(tmp_path)], "IsADirectoryError"),
                (["run", *TOY, "--config", str(binary)], "UnicodeDecodeError")):
            assert_error_exit(args, tmp_path / "out", capsys, error=error)

    @pytest.mark.parametrize("reader", ["set", "config", "scene",
                                        "analyze-attn", "links"])
    def test_huge_integer_literal_refused(self, tmp_path, capsys, reader):
        # int() refuses a literal past its digit limit with a bare ValueError,
        # and the parser a value nested past its recursion limit with a
        # RecursionError
        huge = "1" + "0" * 5000
        nested = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "in.json"
        for value, word in ((huge, "digit"), (nested, "nested")):
            if reader == "set":
                args = ["run", *TOY, "--set", f"decoder.k_pv={value}"]
            elif reader == "config":
                path.write_text(f'{{"decoder": {{"k_pv": {value}}}}}')
                args = ["run", *TOY, "--config", str(path)]
            elif reader == "scene":
                assert run_cli(["gen-scene", *TOY, "--out", str(path)]) == 0
                text = path.read_text()
                assert text.count('"seed": 7') == 1
                path.write_text(text.replace('"seed": 7', f'"seed": {value}'))
                args = ["run", *TOY, "--scene", str(path)]
            else:
                assert run_cli(["run", *TOY, "--out", str(path)]) == 0
                text = path.read_text()
                assert text.count('"n_total": 120') == 1
                path.write_text(text.replace('"n_total": 120',
                                             f'"n_total": {value}'))
                args = [reader, "--report", str(path)]
            assert word in assert_error_exit(args, tmp_path / "out", capsys)

    def test_scene_file_config_replaces_preset(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        assert run_cli(["gen-scene", *TOY, "--out", str(scene_path)]) == 0
        doc = json.loads(scene_path.read_text())
        del doc["config"]["num_clutter"]
        scene_path.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        assert run_cli(["run", *TOY, "--set", "scene.num_clutter=3",
                        "--scene", str(scene_path), "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]["scene"]
        assert config["num_clutter"] == 20
        assert config["num_objects"] == 6

    def test_scene_file_seed_is_used(self, tmp_path):
        # the file's seed draws features, radar and query noise, and wins
        # over --set seeds.scene
        scene_path = tmp_path / "s3.json"
        assert run_cli(["gen-scene", *TOY, "--set", "seeds.scene=3",
                        "--out", str(scene_path)]) == 0
        a, b, c = (tmp_path / f"{name}.json" for name in "abc")
        assert run_cli(["run", *TOY, "--scene", str(scene_path),
                        "--out", str(a)]) == 0
        assert run_cli(["run", *TOY, "--set", "seeds.scene=3",
                        "--out", str(b)]) == 0
        assert run_cli(["run", *TOY, "--set", "seeds.scene=5", "--scene",
                        str(scene_path), "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
        assert json.loads(a.read_text())["scene"]["seed"] == 3

    def test_no_image_proposals(self, tmp_path):
        # no image query at all, and image queries that are all padding
        # because no camera makes a proposal
        for override, n_total, padded in [("queries.n_img=0", 90, 0),
                                          ("scene.num_cameras=0", 120, 30)]:
            out = tmp_path / "report.json"
            assert run_cli(["run", *TOY, "--set", override,
                            "--out", str(out)]) == 0, override
            report = json.loads(out.read_text())
            assert report["queries"]["n_total"] == n_total
            assert report["queries"]["padded_image_queries"] == padded
            assert len(report["layers"]) == 2

    def test_unknown_preset(self, tmp_path, capsys):
        # qinit, qmix and qswap-replace were presets; --set gives their values
        for name in ("nope", "qinit", "qmix", "qswap-replace"):
            code = run_cli(["run", "--preset", name, "--out",
                            str(tmp_path / "r.json")])
            assert code == 2, name
            assert not (tmp_path / "r.json").exists()

    def test_init_weights_roundtrip(self, tmp_path):
        from hqfusion.weights_io import load_weights
        path = tmp_path / "w.cfw"
        assert run_cli(["init-weights", *TOY, "--out", str(path)]) == 0
        cfg = toy_config()
        weights = load_weights(path, cfg.decoder)
        assert "qmix.wq" in weights

    def test_run_with_weight_file_matches_seeded_init(self, tmp_path):
        w_path = tmp_path / "w.cfw"
        assert run_cli(["init-weights", *TOY, "--out", str(w_path)]) == 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["run", *TOY, "--out", str(a)]) == 0
        assert run_cli(["run", *TOY, "--weights", str(w_path),
                        "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_run_rejects_mismatched_weights(self, tmp_path, capsys):
        w_path = tmp_path / "w.cfw"
        assert run_cli(["init-weights", *TOY, "--out", str(w_path)]) == 0
        code = run_cli(["run", "--weights", str(w_path),
                        "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"] == "WeightFormatError"

    @settings(max_examples=100, deadline=None)
    @example(mutation=("value", _float_index("head.cls.w"), float("nan")))
    @example(mutation=("value", _float_index("head.box.b", 3), 1e30))
    @example(mutation=("value", _float_index("head.cls.b"), -3e3))
    @given(mutation=st.one_of(
        st.tuples(st.just("field"), st.sampled_from(WEIGHT_PATHS),
                  ANY_VALUE | st.integers(-2, 2)),
        st.tuples(st.just("truncate"), st.integers(0, len(TOY_WEIGHTS) - 1)),
        st.tuples(st.just("flip"), st.lists(
            st.tuples(st.integers(WEIGHT_BLOB_START, len(TOY_WEIGHTS) - 1),
                      st.integers(1, 255)), min_size=1, max_size=8)),
        st.tuples(st.just("value"),
                  st.integers(0, (len(TOY_WEIGHTS) - WEIGHT_BLOB_START) // 4 - 1),
                  st.floats(width=32))))
    def test_mutated_weight_file(self, tmp_path_factory, mutation):
        # one manifest field replaced (or shifted, for an integer), the file
        # truncated, blob bytes flipped, or one stored float replaced: a
        # finite report, or exit 2 with the JSON line of a refused weight
        # file or config
        kind, where = mutation[:2]
        raw = bytearray(TOY_WEIGHTS)
        if kind == "field":
            value = mutation[2]
            manifest = json.loads(raw[:WEIGHT_BLOB_START - 2])
            if type(value) is int and type(_get(manifest, where)) is int:
                value += _get(manifest, where)
            raw = (json.dumps(mutated(manifest, where, value)).encode("utf-8")
                   + b"\n\n" + raw[WEIGHT_BLOB_START:])
        elif kind == "truncate":
            raw = raw[:where]
        elif kind == "flip":
            for pos, mask in where:
                raw[pos] ^= mask
        else:
            at = WEIGHT_BLOB_START + 4 * where
            raw[at:at + 4] = struct.pack("<f", mutation[2])
        event(kind)
        tmp = tmp_path_factory.mktemp("weights")
        path, out = tmp / "w.cfw", tmp / "r.json"
        path.write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(["run", *TOY, "--set", "decoder.layers=1",
                            "--weights", str(path), "--out", str(out)])
        event(f"exit {code}")
        if code == 0:
            def refuse(constant):
                raise AssertionError(f"{constant} in the report")
            json.loads(out.read_text(), parse_constant=refuse)
        else:
            assert code == 2, mutation
            doc = json.loads(err.getvalue().strip().splitlines()[-1])
            assert doc["error"] in ("WeightFormatError", "ConfigError"), doc
            assert not out.exists()

    @staticmethod
    def _nan_in_first_pv_map(monkeypatch):
        # the config refuses non-finite noise, so plant the NaN in a map
        render = sc.render_pv_features

        def with_nan(*args, **kwargs):
            maps = render(*args, **kwargs)
            maps[0].data[0, 0, 0] = float("nan")
            return maps

        monkeypatch.setattr(sc, "render_pv_features", with_nan)

    def test_non_finite_value_refused(self, tmp_path, capsys, monkeypatch):
        self._nan_in_first_pv_map(monkeypatch)
        out = tmp_path / "r.json"
        code = run_cli(["run", *TOY, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(err)["error"] == "NonFiniteError"
        assert not out.exists()

    def test_non_finite_features_named(self, tmp_path, capsys, monkeypatch):
        self._nan_in_first_pv_map(monkeypatch)
        message = assert_error_exit(["run", *TOY], tmp_path / "r.json", capsys,
                                    error="NonFiniteError")
        assert "features stage" in message and "PV map" in message

    def test_layer_without_matches_writes_null(self, tmp_path):
        cfg = toy_config()
        result = cli.run_pipeline(cfg)
        out = result["outputs"][0]
        # no ground truth, so layer 0 has no matches and undefined errors
        result["layer_metrics"][0] = cli.met.evaluate_layer(
            out.class_scores, out.centers, out.yaws, np.zeros((0, 2)),
            np.zeros(0), np.zeros(0, dtype=np.int64))
        path = tmp_path / "r.json"
        cli.write_json(path, cli.build_report(cfg, result))
        report = json.loads(path.read_text())
        first = report["layers"][0]["metrics"]
        assert first["num_matches"] == 0
        assert first["ate"] is None and first["aoe"] is None
        assert report["final"]["ate"] is not None


class TestAblate:
    def test_toy_ladder(self, tmp_path):
        out = tmp_path / "ablate.csv"
        assert run_cli(["ablate", *TOY, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("#")
        assert "not comparable" in text.splitlines()[0]
        with open(out, newline="") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        header, data = rows[0], rows[1:]
        assert header[0] == "variant"
        names = [r[0] for r in data]
        assert names == ["qinit", "qmix", "qmix_qswap", "placement_pre_agg",
                         "placement_post_self", "placement_post_self_cross",
                         "placement_post_agg"]
        for row in data:
            value = float(row[header.index("map_center")])
            assert 0.0 <= value <= 1.0
