"""SHA-256 of every output in the byte-identity list, one `sha256  name` line each.

    python3 tools/output_hashes.py OUTDIR

Run from any directory; it imports hqfusion from the `src/` of the checkout
it sits in and writes every output under OUTDIR.  Two checkouts' lines can
then be compared with `diff`.  The list covers the benchmark workloads
(`emit` at input seeds 0-4, `default` and `swap-dense` at input seed 1),
toy runs with every `--emit-*` flag at each QMix placement, with QMix off
and in replace mode, toy `gen-scene`, `run --scene`, `links`,
`analyze-attn` and `ablate`, and toy runs with empty or oversized query
sources.  BLAS threads are pinned before numpy is imported, as
`perfbench/run.py` pins them, so every checkout computes with the same
thread count.
"""
from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 2

TOY = ["--preset", "toy"]
EMIT_FLAGS = ["--emit-links", "--emit-samples", "--emit-snapshots"]
EDGE_RUNS = ["queries.per_view=0", "scene.num_cameras=0", "scene.num_objects=0",
             "queries.n_img=0", "queries.n_img=200"]


def commands(out: Path, workloads: dict, placements) -> list[tuple[str, list]]:
    """(output name, `hqfusion` arguments writing out/name), in run order."""
    runs = []

    def add(name, args):
        runs.append((name, [*args, "--out", str(out / name)]))

    for seed, workload in [*((s, "emit") for s in range(5)),
                           (1, "default"), (1, "swap-dense")]:
        add(f"{workload}-{seed}.json",
            ["run", *workloads[workload], "--set", f"seeds.scene={seed}",
             "--set", f"seeds.weights={seed}"])
    variants = [(p, [f'decoder.qmix_placement="{p}"']) for p in placements]
    variants += [("no-qmix", ["decoder.enable_qmix=false"]),
                 ("replace", ['decoder.qswap.mode="replace"'])]
    for name, sets in variants:
        add(f"toy-emit-{name}.json",
            ["run", *TOY, *EMIT_FLAGS, *(a for s in sets for a in ("--set", s))])
    add("toy-scene.json", ["gen-scene", *TOY])
    add("toy-run-scene.json", ["run", *TOY, "--scene", str(out / "toy-scene.json")])
    report = str(out / f"toy-emit-{placements[0]}.json")
    add("toy-links.json", ["links", "--report", report])
    add("toy-attn.csv", ["analyze-attn", "--report", report])
    add("toy-ablate.csv", ["ablate", *TOY])
    for setting in EDGE_RUNS:
        add(f"toy-{setting.replace('=', '-')}.json", ["run", *TOY, "--set", setting])
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/output_hashes.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS
    from hqfusion import cli
    from hqfusion.decoder import PLACEMENTS

    for name, args in commands(out, WORKLOADS, PLACEMENTS):
        if cli.main(args) != 0:
            print(f"hqfusion {' '.join(args)} failed", file=sys.stderr)
            return 1
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
