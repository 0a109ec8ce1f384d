"""gepcirc benchmark entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload maxcut8 --seed 1 --seconds 35 --trace 0

Workloads are maxcut8, heisenberg3x3 and funcfit12 (see NOTES.md). The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The lines before it
name the machine, each instance's fingerprint and every metric with its
unit; a full record goes to perfbench/results/.
"""

import os
import sys
from pathlib import Path

# one thread for BLAS/OpenMP, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "gepcirc" / "__init__.py").is_file():
        print(f"error: no gepcirc sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from bench import main
    sys.exit(main())
