"""The names perfbench wraps and calls must exist in the package.

perfbench/tracer.py patches the functions in its TRACED table by name, and
perfbench/worker.py calls cli.extract_top_links and cli.write_json(path,
obj); a rename would otherwise only surface in the benchmark's own smoke
test, which is outside this suite.  The tracer's count hooks unpack the
results they are given, so the token hook is also run on a real result,
and a traced toy run must reach every wrapped function: a refactor that
routes around one would make its per-layer metric read 0.  The traced
bilinear point count must equal the tokens planned for sampling plus the
image proposals sampled, so points interpolated outside bilinear_at, or
off-grid points interpolated at all, would show.
Every workload's arguments must build a valid config at every reference
seed, since a refused --set would fail every benchmark run.  The traced
swap counts, taken through the SampleSet rows of each bank, must equal the
counts read straight from the bank arrays.  Both attention calls of a layer
must reach the traced kernel, with the FLOP count of their shapes, so a
QMix that routed around it would make numkernel.mha_s read low.  The
links probe of a traced run must give, in every layer of a run that emits
no links, the links `--emit-links` writes for the same config, with QMix
off and at every placement.
"""
import importlib
import importlib.util
import inspect
import json
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


def test_traced_functions_resolve():
    tracer = _load_tracer()
    assert tracer.TRACED
    for mod_name, fn_name, *_ in tracer.TRACED:
        module = importlib.import_module(f"hqfusion.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    for mod_name in tracer.MODULES:
        importlib.import_module(f"hqfusion.{mod_name}")


def test_workload_arguments_build(tmp_path):
    # a --set the config setter refused would fail every benchmark run
    from hqfusion import cli
    run, worker = _load("run"), _load("worker")
    for args in run.WORKLOADS.values():
        for seed in range(run.REFERENCE_SEEDS):
            spec = {"args": args, "input_seed": seed}
            cfg = cli.build_config(worker._run_args(cli, spec, tmp_path / "r.json"))
            assert cfg.seeds.scene == cfg.seeds.weights == seed
    config = tmp_path / "replace.json"
    config.write_text(json.dumps({"decoder": {"qswap": {"mode": "replace"}}}))
    docs = [cli.config_to_dict(cli.build_config(cli.make_parser().parse_args(
                ["run", *args, "--out", str(tmp_path / "r.json")])))
            for args in (["--set", 'decoder.qswap.mode="replace"'],
                         ["--config", str(config)])]
    assert docs[0] == docs[1]
    assert docs[0]["decoder"]["qswap"]["mode"] == "replace"


def test_cli_hooks():
    from hqfusion import cli, qmix
    assert cli.extract_top_links is qmix.extract_top_links
    assert list(inspect.signature(cli.write_json).parameters) == ["path", "obj"]


def test_token_counts_on_a_toy_run(monkeypatch):
    from hqfusion import cli, decoder
    tracer = _load_tracer()
    results = []
    build_tokens = decoder.build_tokens

    def keep(*args, **kwargs):
        results.append(build_tokens(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(decoder, "build_tokens", keep)
    cfg = cli.config_from_dict({})
    for key, value in cli.PRESETS["toy"].items():
        cli.apply_override(cfg, key, value)
    cli.run_pipeline(cfg)
    assert len(results) == cfg.decoder.layers
    tok, _, valid = results[0]
    tr = tracer.Tracer()
    tracer._count_tokens(tr, (), {}, results[0])
    assert tr.counts["decoder.tokens.mb"] == tok.nbytes / tracer.MB > 0
    assert tr.counts["decoder.tokens.slots"] == valid.size
    assert 0 < tr.counts["decoder.tokens.valid"] == valid.sum()


def test_traced_toy_run_reaches_every_wrapped_function(tmp_path, monkeypatch):
    from hqfusion import cli, decoder
    tracer, worker = _load("tracer"), _load("worker")
    valid, planned = [], []
    build_tokens = decoder.build_tokens

    def keep(plan, rows):
        out = build_tokens(plan, rows)
        valid.append(int(out[2].sum()))
        planned.append(int(plan.sampled[rows].sum()))
        return out

    monkeypatch.setattr(decoder, "build_tokens", keep)
    args = cli.make_parser().parse_args(
        ["run", "--preset", "toy", "--emit-links",
         "--out", str(tmp_path / "r.json")])
    cfg = cli.build_config(args)
    tr = tracer.Tracer()
    with tr.installed():
        _, result = worker.one_run(cli, args)
    spans = {rec[0] for rec in tr.spans}
    missing = [f"{m}.{f}" for m, f, *_ in tracer.TRACED
               if f"{m}.{f}" not in spans]
    assert not missing
    n_layers = len(result["outputs"])
    assert n_layers == 2
    assert tr.counts["qswap.neighbor_calls"] == result["queries"].n * n_layers
    # every planned token and every image proposal is one bilinear_at
    # point; a BEV point off its grid is a valid token that is not planned
    assert len(valid) == n_layers
    proposals = cfg.scene.num_cameras * cfg.queries.per_view
    assert tr.counts["numkernel.bilinear_points"] == sum(planned) + proposals
    assert sum(planned) < sum(valid)
    # self-attention and QMix both go through the traced kernel in every
    # layer, so numkernel.mha_s covers both
    n, d = result["queries"].n, cfg.decoder.d
    assert tr.counts["numkernel.mha_calls"] == 2 * n_layers
    flops = 2 * d * d * 4 * n + 4 * n * n * d
    assert math.isclose(tr.counts["numkernel.mha_gflop"],
                        2 * n_layers * flops / 1e9, rel_tol=1e-12)


@pytest.mark.parametrize("placement", [None, "post_agg", "pre_agg",
                                       "post_self", "post_self_cross"])
def test_links_probe_reads_every_layer_without_emitted_links(placement,
                                                             monkeypatch):
    # a traced run of a workload that emits no links calls links_probe on
    # the decode outputs, which must still hold what links are read from
    from hqfusion import cli
    worker = _load("worker")
    cfg = cli.config_from_dict({})
    for key, value in cli.PRESETS["toy"].items():
        cli.apply_override(cfg, key, value)
    cli.apply_override(cfg, "decoder.enable_qmix", placement is not None)
    if placement:
        cli.apply_override(cfg, "decoder.qmix_placement", placement)
    assert not cfg.emit.links
    result = cli.run_pipeline(cfg)
    cli.apply_override(cfg, "emit.links", True)
    emitted = [rec["links"] for rec in cli.build_report(cfg, result)["layers"]]
    assert len(emitted) == cfg.decoder.layers and all(emitted)
    probed = []
    extract = cli.extract_top_links

    def keep(*args, **kwargs):
        probed.append(extract(*args, **kwargs))
        return probed[-1]

    monkeypatch.setattr(cli, "extract_top_links", keep)
    worker.links_probe(cli, result)
    assert probed == emitted


def test_swap_counts_match_the_banks():
    from hqfusion import cli, qswap
    tracer = _load_tracer()
    cfg = cli.config_from_dict({})
    for key, value in cli.PRESETS["toy"].items():
        cli.apply_override(cfg, key, value)
    cli.apply_override(cfg, "decoder.qswap.radius_factor", 30)
    swap_cfg = cfg.decoder.qswap
    tr = tracer.Tracer()
    shared, cap_hits = 0, 0
    for out in cli.run_pipeline(cfg)["outputs"]:
        for bank in out.sample_sets.values():
            tracer._count_swap(tr, (), {"cfg": swap_cfg}, bank)
            per_row = ((bank.origins == qswap.ORIGIN_SHARED) & bank.valid).sum(axis=1)
            shared += int(per_row.sum())
            cap_hits += int((per_row == swap_cfg.k_extra).sum())
    assert tr.counts["qswap.shared_points"] == shared > 0
    assert tr.counts["qswap.total_cap_hits"] == cap_hits > 0
