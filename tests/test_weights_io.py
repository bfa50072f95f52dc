import json
import math

import numpy as np
import pytest

from hqfusion.decoder import DecoderConfig
from hqfusion.errors import WeightFormatError
from hqfusion.qswap import QSwapConfig
from hqfusion.weights_io import (MAX_WEIGHT, config_hash, expected_shapes,
                                 init_weights, load_weights, save_weights)


def small_config(**kw):
    base = dict(layers=2, d=16, heads=2, num_classes=4, k_pv=2,
                qswap=QSwapConfig(k_base=4))
    base.update(kw)
    return DecoderConfig(**base)


class TestInit:
    def test_deterministic(self):
        cfg = small_config()
        a = init_weights(3, cfg)
        b = init_weights(3, cfg)
        assert sorted(a) == sorted(b)
        for name in sorted(a):
            assert np.array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        cfg = small_config()
        a = init_weights(3, cfg)
        b = init_weights(4, cfg)
        assert any(not np.array_equal(a[n], b[n]) for n in sorted(a))

    def test_biases_zero_gamma_one(self):
        w = init_weights(0, small_config())
        assert (w["self_attn.bq"] == 0.0).all()
        assert (w["head.cls.b"] == 0.0).all()
        assert (w["qmix.mlp.lin1.b"] == 0.0).all()
        assert (w["qmix.ln.gamma"] == 1.0).all()
        assert (w["qmix.ln.beta"] == 0.0).all()
        assert (w["sample.img_bev.range"] == 4.0).all()

    def test_shapes_match_table(self):
        cfg = small_config()
        w = init_weights(0, cfg)
        want = expected_shapes(cfg)
        assert set(sorted(w)) == set(want)
        for name in sorted(w):
            assert w[name].shape == want[name]

    def test_empirical_stddev(self):
        # uniform(-a, a) with a = 1/sqrt(fan_in) has stddev a / sqrt(3)
        cfg = small_config(d=128, heads=4)
        w = init_weights(1, cfg)
        tensor = w["qmix.mlp.lin1.w"]  # (512, 128): 65536 samples
        a = 1.0 / math.sqrt(128)
        expected = a / math.sqrt(3.0)
        got = tensor.std()
        assert abs(got - expected) / expected < 0.05

    def test_values_survive_float32(self):
        w = init_weights(2, small_config())
        for name in sorted(w):
            t = w[name]
            assert np.array_equal(t, t.astype("<f4").astype(np.float64))


class TestFileFormat:
    def test_roundtrip_identity(self, tmp_path):
        cfg = small_config()
        w = init_weights(5, cfg)
        path = tmp_path / "w.cfw"
        save_weights(w, cfg, path)
        back = load_weights(path, cfg)
        assert sorted(back) == sorted(w)
        for name in sorted(w):
            assert np.array_equal(back[name], w[name])

    def test_double_save_bit_identical(self, tmp_path):
        cfg = small_config()
        w = init_weights(5, cfg)
        p1, p2 = tmp_path / "a.cfw", tmp_path / "b.cfw"
        save_weights(w, cfg, p1)
        save_weights(load_weights(p1, cfg), cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.cfw"
        save_weights(init_weights(0, cfg), cfg, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-17])
        with pytest.raises(WeightFormatError):
            load_weights(path, cfg)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "w.cfw"
        path.write_bytes(b"not a weight file at all")
        with pytest.raises(WeightFormatError):
            load_weights(path, small_config())

    def test_manifest_offsets_cover_blob(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.cfw"
        save_weights(init_weights(0, cfg), cfg, path)
        raw = path.read_bytes()
        sep = raw.find(b"\n\n")
        manifest = json.loads(raw[:sep].decode("utf-8"))
        blob_len = len(raw) - sep - 2
        entries = sorted(manifest["tensors"], key=lambda e: e["offset"])
        cursor = 0
        for e in entries:
            assert e["offset"] == cursor
            assert e["length"] == int(np.prod(e["shape"])) * 4
            cursor += e["length"]
        assert cursor == blob_len

    def test_cross_config_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "w.cfw"
        save_weights(init_weights(0, cfg), cfg, path)
        with pytest.raises(WeightFormatError):
            load_weights(path, small_config(d=32))
        with pytest.raises(WeightFormatError):
            load_weights(path, small_config(qswap=QSwapConfig(k_base=8)))
        # same shapes but different head count is still a different config
        with pytest.raises(WeightFormatError):
            load_weights(path, small_config(heads=4))

    @pytest.mark.parametrize("value, ok", [
        (MAX_WEIGHT, True), (-MAX_WEIGHT, True), (2 * MAX_WEIGHT, False),
        (np.inf, False), (np.nan, False)])
    def test_value_bound(self, tmp_path, value, ok):
        cfg = small_config()
        w = init_weights(0, cfg)
        w["head.box.w"][1, 2] = value
        path = tmp_path / "w.cfw"
        save_weights(w, cfg, path)
        if ok:
            assert load_weights(path, cfg)["head.box.w"][1, 2] == value
        else:
            with pytest.raises(WeightFormatError, match="head.box.w"):
                load_weights(path, cfg)

    def test_config_hash_sensitivity(self):
        assert config_hash(small_config()) != config_hash(small_config(heads=4))
        assert config_hash(small_config()) == config_hash(small_config(layers=5))


class TestMalformedManifest:
    """A malformed manifest ends `run --weights` in WeightFormatError, exit 2."""

    def rewrite(self, path, change):
        raw = path.read_bytes()
        sep = raw.find(b"\n\n")
        manifest = change(json.loads(raw[:sep].decode("utf-8")))
        path.write_bytes(json.dumps(manifest).encode("utf-8") + raw[sep:])

    def test_run_refuses(self, tmp_path, capsys):
        from hqfusion import cli

        def drop_keys(m):
            m["tensors"][0] = {"name": m["tensors"][0]["name"]}
            return m

        def float_shape(m):
            m["tensors"][0]["shape"] = [1.5]
            return m

        for change in (lambda m: [m], drop_keys, float_shape):
            w_path, out = tmp_path / "w.cfw", tmp_path / "r.json"
            assert cli.main(["init-weights", "--preset", "toy",
                             "--out", str(w_path)]) == 0
            self.rewrite(w_path, change)
            assert cli.main(["run", "--preset", "toy", "--weights", str(w_path),
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert json.loads(err)["error"] == "WeightFormatError"
            assert not out.exists()

        # a refused value of 5,000 characters is echoed cut short
        def long_value(*keys):
            def change(m):
                node = m
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = "x" * 5000
                return m
            return change

        for change in (long_value("format"), long_value("tensors", 0, "shape"),
                       long_value("tensors", 0, "dtype")):
            w_path, out = tmp_path / "w.cfw", tmp_path / "r.json"
            assert cli.main(["init-weights", "--preset", "toy",
                             "--out", str(w_path)]) == 0
            capsys.readouterr()
            self.rewrite(w_path, change)
            assert cli.main(["run", "--preset", "toy", "--weights", str(w_path),
                             "--out", str(out)]) == 2
            [err] = capsys.readouterr().err.strip().splitlines()
            assert len(err.encode()) <= 300, err[:80]
            assert json.loads(err)["error"] == "WeightFormatError"
            assert not out.exists()

    def test_long_tensor_names_cut(self, tmp_path, capsys):
        # each echoed name is cut at 60 characters, and a tensor set that
        # does not match lists two names of each side and their counts
        from hqfusion import cli

        def rename(m):
            m["tensors"][0]["name"] = "x" * 5000
            return m

        def add_extras(m):
            end = sum(e["length"] for e in m["tensors"])
            m["tensors"] += [{"name": f"extra.{i}", "shape": [0], "dtype": "<f4",
                              "offset": end, "length": 0} for i in range(2000)]
            return m

        def rename_and_grow(m):
            m["tensors"][0].update(name="x" * 5000, length=4 * 10 ** 6)
            return m

        def long_shape(m):
            m["tensors"][0]["shape"] = [1] * 5000 + m["tensors"][0]["shape"]
            return m

        for change, word in [(rename, "extra 1 ['xxx"),
                             (add_extras, "extra 2000 ['extra.0', 'extra.1', ...]"),
                             (rename_and_grow, "length mismatch"),
                             (long_shape, "has shape (1, 1,")]:
            w_path, out = tmp_path / "w.cfw", tmp_path / "r.json"
            assert cli.main(["init-weights", "--preset", "toy",
                             "--out", str(w_path)]) == 0
            capsys.readouterr()
            self.rewrite(w_path, change)
            assert cli.main(["run", "--preset", "toy", "--weights", str(w_path),
                             "--out", str(out)]) == 2
            [err] = capsys.readouterr().err.strip().splitlines()
            assert len(err.encode()) <= 300, err[:80]
            doc = json.loads(err)
            assert doc["error"] == "WeightFormatError" and word in doc["message"]
            assert not out.exists()

    def test_huge_integer_literal_refused(self, tmp_path, capsys):
        from hqfusion import cli
        w_path, out = tmp_path / "w.cfw", tmp_path / "r.json"
        assert cli.main(["init-weights", "--preset", "toy",
                         "--out", str(w_path)]) == 0
        self.rewrite(w_path, lambda m: {**m, "huge": 7})
        good = w_path.read_bytes()
        # a literal past int()'s digit limit, and a value nested past the
        # parser's recursion limit
        for value in (b"1" + b"0" * 5000, b"[" * 100_000 + b"]" * 100_000):
            w_path.write_bytes(good.replace(b'"huge": 7', b'"huge": ' + value, 1))
            assert cli.main(["run", "--preset", "toy", "--weights", str(w_path),
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert json.loads(err)["error"] == "WeightFormatError"
            assert not out.exists()
