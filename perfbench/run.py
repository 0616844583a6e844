"""Host wall-clock benchmark of the pSyncPIM reproduction's pipeline.

    python3 perfbench/run.py --workload spmv-fig8 --seed 1 --seconds 10 \
        --trace 0

One process, one closed-loop client: ops run one at a time, in whole
passes over the workload's op list, until ``--seconds`` have passed and at
least ``MIN_OPS`` ops have been timed (so at least ten lie beyond p90).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics. The last
line of standard output is one JSON object; the lines before it are the
same numbers as a table. See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """One client thread, and no ``PSYNCPIM_*`` knob from the caller."""
    for name in [n for n in os.environ if n.startswith("PSYNCPIM_")]:
        del os.environ[name]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import run
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result, table = run(args.workload, args.seed, args.seconds,
                        bool(args.trace), ROOT, START)
    print(table)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
