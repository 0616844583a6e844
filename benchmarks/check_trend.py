#!/usr/bin/env python
"""Perf-trend gate: compare fresh BENCH_*.json against committed baselines.

The perf microbenchmarks (``test_perf_engine.py``, ``test_perf_plan.py``,
``test_perf_channels.py``,
``test_perf_partition.py``, ``test_perf_attrib.py``,
``test_perf_spmm.py``, ``test_perf_sweep.py``) each write a
``benchmarks/results/BENCH_*.json``
with a ``speedups`` section. Those speedups are *ratios* between two
implementations measured on the same machine in the same run, so they
transfer across hardware in a way absolute times never do — that is what
this gate pins.

Usage (CI perf-smoke runs the first form after the perf benches)::

    python benchmarks/check_trend.py            # gate: fail on regression
    python benchmarks/check_trend.py --update   # re-baseline from fresh

A pinned metric regresses when the fresh speedup drops more than
``TOLERANCE`` (30%) below its committed baseline. Scale-mismatched or
missing files skip with a warning instead of failing: gating a 0.02-scale
baseline against a 1.0-scale run would compare different workloads.

Re-baselining (after a deliberate perf change)::

    PSYNCPIM_SCALE=0.02 python -m pytest benchmarks/test_perf_engine.py \
        benchmarks/test_perf_plan.py benchmarks/test_perf_channels.py \
        benchmarks/test_perf_partition.py benchmarks/test_perf_attrib.py \
        benchmarks/test_perf_spmm.py benchmarks/test_perf_sweep.py
    python benchmarks/check_trend.py --update
    git add benchmarks/results/baselines/

Baselines are committed at scale 0.02 because that is what CI perf-smoke
runs; regenerate at the same scale or the gate will skip.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE_DIR = RESULTS_DIR / "baselines"

#: Fractional drop below baseline that counts as a regression.
TOLERANCE = 0.30

#: speedups.* keys gated per BENCH file. Only ratios that past PRs
#: established as stable wins are pinned; noisy or informational metrics
#: (e.g. the 2- and 8-channel ratios, per-strategy speedups) stay unpinned.
PINNED = {
    # lane engine over the reference interpreter, per-command pricing
    # over batched pricing
    "BENCH_engine.json": ("spmv_vs_reference", "sptrsv_vs_reference",
                          "pricing"),
    "BENCH_plan.json": ("partition_compressed", "partition_raw",
                        "distribute_paper", "distribute_balanced",
                        "level_schedule", "combined", "sptrsv_leaves"),
    "BENCH_channels.json": ("channels_16v1", "channels_4v1"),
    "BENCH_spmm.json": ("amortisation_16v1", "amortisation_4v1"),
    "BENCH_partition.json": ("auto_vs_paper",),
    # plain over attributed pricing (finalize included), on the SpMV
    # suite and the SpTRSV factors: a drop means attribution got costlier.
    "BENCH_attrib.json": ("pricing_vs_attrib", "pricing_vs_attrib_sptrsv"),
    # cold sweep over warm sweep: drops when a warm job starts loading or
    # recomputing more than its small per-stage records.
    "BENCH_sweep.json": ("warm_vs_cold",),
}


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None


def update_baselines() -> int:
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    copied = 0
    for name in PINNED:
        fresh = RESULTS_DIR / name
        if fresh.exists():
            shutil.copyfile(fresh, BASELINE_DIR / name)
            print(f"baseline updated: {name}")
            copied += 1
        else:
            print(f"warning: no fresh {name}; baseline left untouched")
    if not copied:
        print("error: nothing to baseline — run the perf benches first")
        return 1
    return 0


def check_trend() -> int:
    regressions, checked = [], 0
    for name, keys in PINNED.items():
        fresh = _load(RESULTS_DIR / name)
        base = _load(BASELINE_DIR / name)
        if fresh is None:
            print(f"skip {name}: no fresh results (bench not run)")
            continue
        if base is None:
            print(f"skip {name}: no committed baseline "
                  f"(run with --update to create one)")
            continue
        if fresh.get("scale") != base.get("scale"):
            print(f"skip {name}: scale mismatch (fresh "
                  f"{fresh.get('scale')} vs baseline {base.get('scale')})"
                  f" — different workloads, ratios not comparable")
            continue
        for key in keys:
            have = fresh.get("speedups", {}).get(key)
            want = base.get("speedups", {}).get(key)
            if have is None or want is None:
                print(f"skip {name}:{key}: metric missing")
                continue
            floor = want * (1.0 - TOLERANCE)
            checked += 1
            verdict = "ok" if have >= floor else "REGRESSION"
            print(f"{verdict:>10}  {name}:{key}  fresh {have:.2f}x  "
                  f"baseline {want:.2f}x  floor {floor:.2f}x")
            if have < floor:
                regressions.append(f"{name}:{key}")
    if regressions:
        print(f"\nperf trend gate FAILED: {len(regressions)} metric(s) "
              f"regressed >{TOLERANCE:.0%}: {', '.join(regressions)}")
        return 1
    print(f"\nperf trend gate passed: {checked} pinned metric(s) "
          f"within {TOLERANCE:.0%} of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="copy fresh BENCH files into baselines/")
    args = parser.parse_args(argv)
    return update_baselines() if args.update else check_trend()


if __name__ == "__main__":
    sys.exit(main())
