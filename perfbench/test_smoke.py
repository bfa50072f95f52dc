"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs with the `toy` preset in place of `default`, against a
reference written for it on the spot, in both modes.  The test checks that
every metric BENCHMARK.json names is present with its unit, that no run
fails, and that a wrong reference makes every run fail; it also checks the
reference comparison's 1e-9 float tolerance.
"""
from __future__ import annotations

import json

import pytest

import refcheck
from run import ROOT, WORKLOADS, run_benchmark, write_reference

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def tiny(name: str) -> list[str]:
    args = WORKLOADS[name]
    assert args[:2] == ["--preset", "default"]
    return ["--preset", "toy", *args[2:]]


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    refs = tmp_path_factory.mktemp("refs")
    for name in WORKLOADS:
        write_reference(tiny(name), SEED, refs / f"{name}.ref")
    return refs


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_present_and_no_failures(references, name, trace):
    line, details = run_benchmark(name, tiny(name), SEED, 1.0, trace,
                                  references / f"{name}.ref", setup_samples=1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in line["metrics"].items()}
    assert line["attempted"] >= 1
    assert line["failed"] == 0 and details["fail_frac"] == 0.0
    assert line["correct"] is True
    if trace:
        assert details["trace"]["summary"]["decoder.decode"]["calls"] == 1


def test_wrong_reference_fails_every_run(references):
    line, details = run_benchmark("default", tiny("default"), SEED, 1.0, False,
                                  references / "swap-dense.ref", setup_samples=1)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"]
    assert details["fail_frac"] == 1.0


def test_reference_tolerance():
    doc = {"a": [0.1, 2.5, -3.75, 51.2], "b": "x", "c": 3}
    ref = refcheck.encode(json.dumps(doc))

    def shifted(delta, **changes):
        return json.dumps({**doc, "a": [v + delta for v in doc["a"]], **changes})

    assert refcheck.compare(shifted(0.0), ref) == []
    assert refcheck.compare(shifted(9e-10), ref) == []
    assert refcheck.compare(shifted(-9e-10), ref) == []
    assert refcheck.compare(shifted(1e-6), ref)
    assert refcheck.compare(shifted(0.0, c=4), ref)
    assert refcheck.compare(shifted(0.0, c=3.0), ref)
