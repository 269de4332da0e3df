"""The DACE benchmark: one command, every metric, every output checked.

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 10 \\
        --trace 0

Workloads: serve-cold, serve-hot, train (see perfbench/README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` the per-layer
ones from a traced run.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, sample counts, span table) goes to
``perfbench/out/``.  Run from the repository root.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from dacebench.env import pin_blas  # noqa: E402  (stdlib-only import)

# BLAS reads its thread count once, when numpy loads it: pin first.
PINNED_BEFORE_NUMPY = pin_blas()


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-cold", "serve-hot", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from dacebench.runner import report, run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result, ROOT, PINNED_BEFORE_NUMPY, HERE / "out")
    sys.stdout.flush()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
