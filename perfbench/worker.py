"""Child process of the benchmark: one workload, one input seed.

    python3 perfbench/worker.py MODE SPEC_JSON

MODE is `setup`, `measure` or `reference`; SPEC_JSON carries the checkout
root, the `hqfusion run` arguments of the workload, the input seed and the
output directory.  The result goes to `<out_dir>/result.json`.  Only the
standard library is imported before `hqfusion.cli`, so `setup` times the
interpreter start, the package import and the first run's inputs.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


class _InputsReady(Exception):
    """Raised at the entry of decode to end a setup probe."""


def _import_cli(root: str):
    sys.path.insert(0, str(Path(root) / "src"))
    import hqfusion.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(root).resolve()):
        raise ImportError(f"hqfusion imported from {cli.__file__}, "
                          f"not from the checkout at {root}")
    return cli


def _run_args(cli, spec: dict, report: Path):
    seed = spec["input_seed"]
    return cli.make_parser().parse_args(
        ["run", *spec["args"], "--set", f"seeds.scene={seed}",
         "--set", f"seeds.weights={seed}", "--out", str(report)])


def one_run(cli, args) -> tuple[dict, dict]:
    """What `hqfusion run` does, timed: (timings, pipeline result)."""
    t0 = time.perf_counter()
    cfg = cli.build_config(args)
    result = cli.run_pipeline(cfg)
    report = cli.build_report(cfg, result)
    cli.write_json(args.out, report)
    run_s = time.perf_counter() - t0
    return {"run_s": run_s, "decode_s": result["timing"]["decode"],
            "query_layers": result["queries"].n * cfg.decoder.layers}, result


def links_probe(cli, result):
    """Extract links from every layer as `--emit-links` would.

    The traced run calls this after the report is written on workloads that
    do not emit links, so `qmix.links_s` is measured on every workload.
    """
    types = result["queries"].types
    for out in result["outputs"]:
        attn = out.qmix_attn if out.qmix_attn is not None else out.self_attn
        cli.extract_top_links(attn, types, out.class_scores.max(axis=1))


def setup(spec: dict) -> dict:
    """Monotonic time at which the first run's decode inputs are ready."""
    cli = _import_cli(spec["root"])

    def ready(*_args, **_kwargs):
        raise _InputsReady(time.clock_gettime(time.CLOCK_MONOTONIC))

    cli.dec.decode = ready
    args = _run_args(cli, spec, Path(spec["out_dir"]) / "setup.json")
    try:
        cli.run_pipeline(cli.build_config(args))
    except _InputsReady as done:
        return {"ready": done.args[0]}
    raise RuntimeError("run_pipeline returned without calling decode")


def environment() -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def measure(spec: dict) -> dict:
    """Warm up, then repeat full runs for spec["seconds"] and check each.

    With spec["trace"], untraced and traced runs alternate; the traced ones
    feed the per-layer metrics and must write the same bytes.
    """
    cli = _import_cli(spec["root"])
    import refcheck
    from tracer import Tracer, layer_metrics

    report = Path(spec["out_dir"]) / "report.json"
    args = _run_args(cli, spec, report)
    reference = Path(spec["ref_file"]).read_bytes()
    verdicts: dict[str, list[str]] = {}   # report digest -> problems
    first_digest = None

    warm, _ = one_run(cli, args)
    runs, layer_values, tracer = [], [], None
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        traced = spec["trace"] and len(runs) % 2 == 1
        rec = {"traced": traced}
        runs.append(rec)
        try:
            if traced:
                tracer = Tracer()
                with tracer.installed():
                    with tracer.span("bench.run"):
                        timings, result = one_run(cli, args)
                    if not args.emit_links:
                        with tracer.span("bench.links_probe"):
                            links_probe(cli, result)
                layer_values.append(layer_metrics(tracer))
            else:
                timings, result = one_run(cli, args)
            del result
            rec.update(timings)
        except Exception:
            traceback.print_exc()
            rec["problems"] = ["run raised an error"]
            break
        text = report.read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        if digest not in verdicts:
            verdicts[digest] = refcheck.compare(text.decode("utf-8"), reference)
        first_digest = first_digest or digest
        rec["problems"] = list(verdicts[digest])
        if digest != first_digest:
            rec["problems"].append("report bytes differ from this invocation's "
                                   "first run")
        estimate = statistics.median([warm["run_s"]] + [r["run_s"] for r in runs])
        if (len(runs) >= (2 if spec["trace"] else 1)
                and time.perf_counter() + estimate > deadline):
            break

    out = {
        "runs": runs,
        "query_layers": warm["query_layers"],
        "report_bytes": report.stat().st_size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": environment(),
    }
    if tracer is not None:
        out["layer_values"] = layer_values
        out["trace_summary"] = tracer.summary()
        out["trace_counts"] = tracer.counts
        out["spans"] = tracer.span_table()
    return out


def write_reference(spec: dict) -> dict:
    import refcheck
    cli = _import_cli(spec["root"])
    report = Path(spec["out_dir"]) / "report.json"
    one_run(cli, _run_args(cli, spec, report))
    Path(spec["ref_file"]).write_bytes(refcheck.encode(report.read_text("utf-8")))
    return {"ref_file": spec["ref_file"]}


MODES = {"setup": setup, "measure": measure, "reference": write_reference}


def main() -> int:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    result = MODES[mode](spec)
    with open(Path(spec["out_dir"]) / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
