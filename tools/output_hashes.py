"""SHA-256 of every output in the byte-identity list, one `sha256  name` line each.

    python3 tools/output_hashes.py OUTDIR
    python3 tools/output_hashes.py OUTDIR --against DIR

Run from any directory; it imports hqfusion from the `src/` of the checkout
it sits in and writes every output under OUTDIR.  Two checkouts' lines can
then be compared with `diff`.  With `--against DIR`, the OUTDIR of another
checkout's run, each line also says how the output compares with DIR's:
"identical", or the largest relative (and absolute) difference of its
floats.  An output that differs in anything but its float literals (keys,
strings, ints, list lengths, whitespace, CSV text, the bytes of a weight
file), or is missing from DIR, is named as differing, and the exit code is
1.  The list covers the benchmark workloads (`emit` at input seeds 0-4,
`default` and `swap-dense` at input seed 1), toy runs with every `--emit-*`
flag at each QMix placement, with QMix off and in replace mode, toy
`gen-scene`, `run --scene`, `init-weights`, `run --weights`, `links`,
`analyze-attn` and `ablate`, toy runs with empty or oversized query
sources, and a toy run at PV downsample 7, which divides neither image side.  BLAS threads are pinned before numpy is imported, as
`perfbench/run.py` pins them, so every checkout computes with the same
thread count.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 2

TOY = ["--preset", "toy"]
EMIT_FLAGS = ["--emit-links", "--emit-samples", "--emit-snapshots"]
EDGE_RUNS = ["queries.per_view=0", "scene.num_cameras=0", "scene.num_objects=0",
             "queries.n_img=0", "queries.n_img=200", "render.pv_downsample=7"]


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
    add("toy-weights.cfw", ["init-weights", *TOY])
    add("toy-run-weights.json",
        ["run", *TOY, "--weights", str(out / "toy-weights.cfw")])
    report = str(out / f"toy-emit-{placements[0]}.json")
    add("toy-links.json", ["links", "--report", report])
    add("toy-attn.csv", ["analyze-attn", "--report", report])
    add("toy-ablate.csv", ["ablate", *TOY])
    for setting in EDGE_RUNS:
        add(f"toy-{setting.replace('=', '-')}.json", ["run", *TOY, "--set", setting])
    return runs


# a quoted string, kept as it is, or a number: one with a fraction or an
# exponent is a float
_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"'
                    r'|(?<![\w.])-?\d+(\.\d+)?([eE][+-]?\d+)?(?![\w.])')


def split_floats(text: str) -> tuple[str, list[float]]:
    """An output's text (JSON or CSV) with every float literal replaced by
    one placeholder, and its floats in order."""
    floats: list[float] = []

    def take(match):
        if match.group(1) is None and match.group(2) is None:
            return match.group(0)
        floats.append(float(match.group(0)))
        return "<float>"

    return _TOKEN.sub(take, text), floats


def compare_output(mine: bytes, theirs: bytes | None) -> str | None:
    """How an output compares with another checkout's: "identical", the
    largest float differences, or None when anything else differs or either
    side is not UTF-8 text."""
    if theirs is None:
        return None
    if mine == theirs:
        return "identical"
    try:
        skeleton, floats = split_floats(mine.decode("utf-8"))
        their_skeleton, their_floats = split_floats(theirs.decode("utf-8"))
    except UnicodeDecodeError:
        return None
    if skeleton != their_skeleton:
        return None
    rel = absolute = 0.0
    changed = 0
    for a, b in zip(floats, their_floats):
        if a != b:
            changed += 1
            absolute = max(absolute, abs(a - b))
            rel = max(rel, abs(a - b) / max(abs(a), abs(b)))
    return (f"floats differ: max relative {rel:.3g}, max absolute "
            f"{absolute:.3g} ({changed} of {len(floats)} floats)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 tools/output_hashes.py")
    parser.add_argument("outdir", metavar="OUTDIR", type=Path)
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="another checkout's OUTDIR to compare with")
    args = parser.parse_args(argv)
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import WORKLOADS
    from hqfusion import cli
    from hqfusion.decoder import PLACEMENTS

    status = 0
    for name, cli_args in commands(out, WORKLOADS, PLACEMENTS):
        if cli.main(cli_args) != 0:
            print(f"hqfusion {' '.join(cli_args)} failed", file=sys.stderr)
            return 1
        mine = (out / name).read_bytes()
        line = f"{hashlib.sha256(mine).hexdigest()}  {name}"
        if args.against is not None:
            other = args.against / name
            verdict = compare_output(
                mine, other.read_bytes() if other.exists() else None)
            if verdict is None:
                verdict = "DIFFERS beyond floats"
                status = 1
            line += f"  {verdict}"
        print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
