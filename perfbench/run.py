"""End-to-end benchmark of meshstab: track -> stabilize -> render -> evaluate.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--write-reference]

Run from the root of a source checkout; meshstab is imported from ./src.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    load_at_start = os.getloadavg()
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "meshstab" / "cli.py").is_file():
        print(f"run.py: no meshstab sources under {src}", file=sys.stderr)
        return 2
    # one BLAS thread and the numpy kernels: both are read when numpy and
    # meshstab are first imported, so they are fixed before either is
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["MESHSTAB_NUMBA"] = "0"
    sys.path.insert(0, str(src))
    import bench

    return bench.main(argv, load_at_start=load_at_start)


if __name__ == "__main__":
    sys.exit(main())
