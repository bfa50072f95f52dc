"""Write the stored reference of every workload and input seed.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Run from the root of a checkout whose reports are known to be right.  A
change that alters report content on purpose regenerates the references
in the same change and says so.
"""
from __future__ import annotations

import sys

from run import REF_DIR, REFERENCE_SEEDS, WORKLOADS, ref_file, write_reference


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    REF_DIR.mkdir(exist_ok=True)
    for name in names:
        for seed in range(REFERENCE_SEEDS):
            path = ref_file(name, seed)
            write_reference(WORKLOADS[name], seed, path)
            print(f"wrote {path.relative_to(REF_DIR.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
