"""hqfusion benchmark: end-to-end run metrics and a traced per-module split.

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each invocation starts one child process
(`worker.py measure`) that warms up and then repeats `hqfusion run` for the
workload for --seconds, checking every report against the stored reference,
and then several fresh interpreters (`worker.py setup`) that time set-up.
The last line of stdout is the result object; the lines before it give the
environment and the details.  See README.md for workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_DIR = HERE / "refs"
OUT_DIR = ROOT / ".perfbench_out"

# The `hqfusion run` arguments of each workload (README.md says why each).
WORKLOADS = {
    "default": ["--preset", "default"],
    "swap-dense": ["--preset", "default",
                   "--set", "scene.feature_dim=64", "--set", "decoder.d=64",
                   "--set", "decoder.qswap.n_neighbors=16",
                   "--set", "decoder.qswap.radius_factor=30.0",
                   "--set", "decoder.qswap.k_extra=8",
                   "--set", 'decoder.qswap.mode="replace"'],
    "emit": ["--preset", "default",
             "--set", "scene.feature_dim=64", "--set", "decoder.d=64",
             "--set", "decoder.layers=2",
             "--emit-links", "--emit-samples", "--emit-snapshots"],
}

# --seed n runs input seed n % REFERENCE_SEEDS, the seeds refs/ covers.
REFERENCE_SEEDS = 5
SETUP_SAMPLES = 3
BLAS_THREADS = 2
TIME_LIMIT_S = 170.0

COMPUTED_NOTE = ("Byte (*_mb except peak_rss_mb, report_mb and cli.report_mb) "
                 "and FLOP (*_gflop) figures are computed from tensor shapes; "
                 "a CPU run cannot measure memory traffic.")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def ref_file(workload: str, input_seed: int) -> Path:
    return REF_DIR / f"{workload}-{input_seed}.ref"


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(mode: str, spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and launch time."""
    work = Path(spec["out_dir"])
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(spec)],
            cwd=ROOT, env=_child_env(), stdout=sys.stderr,
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    with open(work / "result.json", encoding="utf-8") as fh:
        return json.load(fh), launched


def _stats(values: list[float]) -> dict:
    return {"n": len(values), "min": min(values),
            "median": statistics.median(values), "max": max(values)}


def write_reference(run_args: list[str], input_seed: int, path: Path):
    """Run the workload once and store its reference report codes at path."""
    work = OUT_DIR / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _spawn("reference", {"root": str(ROOT), "args": run_args,
                             "input_seed": input_seed, "out_dir": str(work),
                             "ref_file": str(path)},
               time.monotonic() + 600)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_benchmark(name: str, run_args: list[str], input_seed: int,
                  seconds: float, trace: bool, reference: Path,
                  setup_samples: int = SETUP_SAMPLES) -> tuple[dict, dict]:
    """One benchmark invocation: (result line, details for stdout)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "hqfusion" / "cli.py").is_file():
        raise BenchError(f"no hqfusion sources under {ROOT / 'src'}")
    if not reference.is_file():
        raise BenchError(f"no stored reference {reference}")
    work = OUT_DIR / f"{name}-{input_seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spec = {"root": str(ROOT), "args": run_args, "input_seed": input_seed,
            "out_dir": str(work), "ref_file": str(reference),
            "seconds": seconds, "trace": trace}
    try:
        measured, _ = _spawn("measure", spec, deadline)
        setups = []
        for _ in range(setup_samples):
            probe, launched = _spawn("setup", spec, deadline)
            setups.append(probe["ready"] - launched)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = measured["runs"]
    failed = sum(1 for r in runs if r["problems"])
    done = [r for r in runs if "run_s" in r]
    plain = [r for r in done if not r["traced"]]
    if not plain:
        raise BenchError("no run completed")
    run_s = [r["run_s"] for r in plain]
    decode_s = [r["decode_s"] for r in plain]
    details = {
        "workload": name, "input_seed": input_seed,
        "run_args": ["hqfusion", "run", *run_args],
        "query_layers": measured["query_layers"],
        "run_s": _stats(run_s), "decode_s": _stats(decode_s),
        "setup_s": _stats(setups),
        "fail_frac": failed / len(runs),
        "problems": sorted({p for r in runs for p in r["problems"]}),
        "note": COMPUTED_NOTE,
    }
    if trace:
        traced = [r for r in done if r["traced"]]
        values = measured.get("layer_values")
        if not values:
            raise BenchError("no traced run completed")
        metrics = {key: statistics.median(v[key] for v in values)
                   for key in values[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced)
            - statistics.median(run_s))
        details["trace"] = {"summary": measured["trace_summary"],
                            "counts": measured["trace_counts"],
                            "overhead_s": metrics["trace.overhead_s"]}
        trace_file = OUT_DIR / f"trace-{name}-seed{input_seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"details": details, "spans": measured["spans"],
                       "environment": measured["environment"]}, fh)
        details["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "run_s": statistics.median(run_s),
            "decode_s": statistics.median(decode_s),
            "query_layers_per_s": (measured["query_layers"]
                                   / statistics.median(decode_s)),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_mb"],
            "report_mb": measured["report_bytes"] / 1e6,
        }
    details["environment"] = measured["environment"]
    listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "per_layer" if trace else "end_to_end"]
    line = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed}}
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    input_seed = args.seed % REFERENCE_SEEDS
    try:
        line, details = run_benchmark(
            args.workload, WORKLOADS[args.workload], input_seed, args.seconds,
            bool(args.trace), ref_file(args.workload, input_seed))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    environment = details.pop("environment")
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
