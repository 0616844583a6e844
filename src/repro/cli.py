"""Command-line interface: ``python -m repro <command>``.

Four subcommands cover the common workflows without writing Python:

* ``info``   — the modelled hardware (Tables VII/VIII, area, baselines).
* ``suite``  — the Table IX matrix registry.
* ``spmv``   — run one SpMV and print the plan, timing and energy.
* ``spmm``   — run one SpMM (k dense right-hand sides through one
  resident plan) and print the per-column amortisation.
* ``sptrsv`` — factorise a suite matrix with ILDU and time both solves.
* ``app``    — run one Table II application on the GPU and PIM backends.
* ``sweep``  — run a batch of jobs across worker processes with
  content-addressed artifact caching (see :mod:`repro.sweep`).
* ``tune``   — score every partitioning strategy per matrix and print
  the win/loss table vs the paper's row-cut scheme (see
  :mod:`repro.core.strategies`).
* ``profile`` — render an observability run (``PSYNCPIM_OBS=1``) as
  per-phase / per-bank / DRAM / energy tables (see :mod:`repro.obs`).
* ``attrib`` — cycle attribution: decompose every (channel, bank)
  lane's cycles into exclusive categories, with phase timeline and
  critical path (see :mod:`repro.obs.attrib`); writes bundles and a
  self-contained HTML report.
* ``diff``   — compare two attribution bundles and attribute the cycle
  delta per category and per matrix (regression triage).
* ``check``  — run the independent verification oracles: golden-trace
  comparison, JEDEC protocol checking, and the seeded ISA fuzzer (see
  :mod:`repro.check`); ``--update-golden`` re-baselines the snapshots.

Matrices come from the Table IX registry (``--matrix``) or a Matrix Market
file (``--mtx``). With ``PSYNCPIM_OBS=1`` in the environment every command
exports its trace and metrics on exit (``PSYNCPIM_OBS_DIR`` or
``./psyncpim-obs``), ready for ``psyncpim profile`` or chrome://tracing.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__, obs
from .analysis import format_table, table_x_model, unit_area
from .baselines import GPUModel, SpaceAModel
from .config import DEFAULT_STRATEGY, STRATEGY_CHOICES, default_system
from .core import PSyncPIM, as_spmm_execution, time_spmm, time_spmv
from .core.spmm import check_num_rhs
from .core.timing import alu_operations, price
from .dram import TimingParams
from .errors import ReproError
from .formats import (generate, matrix_spec, read_matrix_market,
                      suite_names)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        # Every verb checks the PSYNCPIM_OBS spelling.
        if obs.env_enabled() or getattr(args, "obs", False):
            obs.enable()
        code = args.handler(args)
        _maybe_export_obs(args)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); die quietly like a
        # well-behaved unix tool instead of dumping a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141


def _maybe_export_obs(args) -> None:
    """Export the observability run when ``PSYNCPIM_OBS`` was on."""
    if (args.command == "profile" or not obs.enabled()
            or not obs.recorder().update_count):
        return
    paths = obs.export()
    print(f"\nobs: wrote {', '.join(str(p) for p in paths.values())}",
          file=sys.stderr)
    print("obs: view with `psyncpim profile` or load trace.json in "
          "chrome://tracing", file=sys.stderr)


# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psyncpim",
        description="pSyncPIM (ISCA 2024) reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command")

    info = sub.add_parser("info", help="show the modelled hardware")
    info.set_defaults(handler=_cmd_info)

    suite = sub.add_parser("suite", help="list the Table IX matrix suite")
    suite.set_defaults(handler=_cmd_suite)

    spmv = sub.add_parser("spmv", help="run and price one SpMV")
    _matrix_args(spmv)
    _layout_args(spmv)
    _obs_args(spmv)
    spmv.set_defaults(handler=_cmd_spmv)

    spmm = sub.add_parser("spmm",
                          help="run and price one SpMM (k dense rhs)")
    _matrix_args(spmm)
    spmm.add_argument("--rhs", type=int, default=1,
                      help="dense right-hand-side columns (default: 1)")
    _layout_args(spmm)
    _obs_args(spmm)
    spmm.set_defaults(handler=_cmd_spmm)

    sptrsv = sub.add_parser("sptrsv",
                            help="ILDU-factorise and time both solves")
    _matrix_args(sptrsv)
    _layout_args(sptrsv, matrix_layout=False)
    _obs_args(sptrsv)
    sptrsv.set_defaults(handler=_cmd_sptrsv)

    app = sub.add_parser("app", help="run a Table II application")
    _matrix_args(app)
    app.add_argument("name", choices=["bfs", "cc", "pr", "sssp", "tc",
                                      "pcg", "pbicgstab"])
    app.set_defaults(handler=_cmd_app)

    sweep = sub.add_parser(
        "sweep", help="run a job batch in parallel with artifact caching")
    sweep.add_argument("--kernel", default="spmv",
                       choices=["spmv", "spmm", "sptrsv", "suite", "fuzz"])
    sweep.add_argument("--rhs", type=int, default=1,
                       help="SpMM right-hand-side columns (default: 1; "
                            "other kernels ignore it)")
    sweep.add_argument("--matrices", default=None,
                       help="comma-separated Table IX names (default: the "
                            "kernel's Table IX assignment)")
    sweep.add_argument("--scale", type=float, default=None,
                       help="dimension scale (default: PSYNCPIM_SCALE "
                            "or 0.05)")
    sweep.add_argument("--precision", default="fp64",
                       choices=["fp64", "fp32", "int32", "int16", "int8"])
    sweep.add_argument("--cubes", type=int, default=1)
    sweep.add_argument("--platform", default="hbm2",
                       choices=["hbm2", "gddr6"])
    sweep.add_argument("--mode", default="ab", choices=["ab", "pb"])
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: PSYNCPIM_WORKERS "
                            "or min(4, cores); 1 = serial)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="recompute everything, never touch the cache")
    sweep.add_argument("--cache-dir", default=None,
                       help="artifact cache root (default: "
                            "PSYNCPIM_CACHE_DIR or ~/.cache/psyncpim)")
    sweep.add_argument("--energy", action="store_true",
                       help="price energy alongside cycles")
    _sharding_args(sweep)
    _obs_args(sweep)
    sweep.add_argument("--attrib-out", default=None, metavar="PATH",
                       help="write the per-job attribution bundle "
                            "(.json or pickle; implies --attrib)")
    sweep.set_defaults(handler=_cmd_sweep)

    tune = sub.add_parser(
        "tune", help="per-matrix strategy win/loss table vs the paper")
    tune.add_argument("--matrices", default=None,
                      help="comma-separated Table IX names (default: the "
                           "SpMV Table IX assignment)")
    tune.add_argument("--scale", type=float, default=None,
                      help="dimension scale (default: PSYNCPIM_SCALE "
                           "or 0.05)")
    tune.add_argument("--precision", default="fp64",
                      choices=["fp64", "fp32", "int32", "int16", "int8"])
    tune.add_argument("--mode", default="ab", choices=["ab", "pb"])
    _sharding_args(tune, strategy=False)
    tune.set_defaults(handler=_cmd_tune)

    attrib = sub.add_parser(
        "attrib", help="cycle attribution: per-lane category breakdown, "
                       "phase timeline and critical path")
    attrib.add_argument("--kernel", default="spmv",
                        choices=["spmv", "sptrsv"])
    attrib.add_argument("--matrices", default=None,
                        help="comma-separated Table IX names (default: "
                             "the kernel's Table IX assignment)")
    attrib.add_argument("--mtx", default=None,
                        help="Matrix Market file (overrides --matrices)")
    attrib.add_argument("--scale", type=float, default=None,
                        help="dimension scale (default: PSYNCPIM_SCALE "
                             "or 0.05)")
    attrib.add_argument("--seed", type=int, default=0)
    attrib.add_argument("--precision", default="fp64",
                        choices=["fp64", "fp32", "int32", "int16", "int8"])
    attrib.add_argument("--mode", default="ab", choices=["ab", "pb"],
                        help="SpMV PIM mode (ignored for sptrsv)")
    _sharding_args(attrib)
    attrib.add_argument("--out", default=None, metavar="PATH",
                        help="write the RunReport bundle (.json for a "
                             "stable text artifact, else pickle)")
    attrib.add_argument("--html", default=None, metavar="PATH",
                        help="write a self-contained HTML report")
    attrib.add_argument("--quiet", action="store_true",
                        help="only print the bundle summary table")
    attrib.set_defaults(handler=_cmd_attrib)

    diff = sub.add_parser(
        "diff", help="compare two attribution bundles and attribute the "
                     "cycle delta per category and per matrix")
    diff.add_argument("base", help="baseline bundle (psyncpim attrib "
                                   "--out)")
    diff.add_argument("new", help="candidate bundle to compare")
    diff.add_argument("--top", type=int, default=5,
                      help="regressing/improving runs to list (default 5)")
    diff.add_argument("--fail-above", type=float, default=None,
                      metavar="PCT",
                      help="exit 1 when total cycles regress by more "
                           "than PCT percent (default: always exit 0)")
    diff.set_defaults(handler=_cmd_diff)

    profile = sub.add_parser(
        "profile", help="render a PSYNCPIM_OBS run as profile tables")
    profile.add_argument("path", nargs="?", default=None,
                         help="obs output dir or metrics.json (default: "
                              "PSYNCPIM_OBS_DIR or ./psyncpim-obs)")
    profile.set_defaults(handler=_cmd_profile)

    check = sub.add_parser(
        "check", help="run the independent verification oracles")
    check.add_argument("--fuzz", type=int, default=0, metavar="N",
                       help="also run N seeded fuzz programs through the "
                            "lane engine and the reference interpreter "
                            "(0 = skip)")
    check.add_argument("--seed", type=int, default=0,
                       help="first fuzz seed (default 0)")
    check.add_argument("--golden-dir", default=None,
                       help="golden snapshot directory (default: the "
                            "checkout's tests/golden)")
    check.add_argument("--update-golden", action="store_true",
                       help="re-baseline the golden snapshots instead of "
                            "comparing them")
    check.add_argument("--skip-golden", action="store_true",
                       help="skip the golden-trace comparison")
    check.add_argument("--skip-protocol", action="store_true",
                       help="skip the JEDEC protocol check")
    check.set_defaults(handler=_cmd_check)
    return parser


def _obs_args(parser: argparse.ArgumentParser) -> None:
    """``--obs`` / ``--attrib`` switches."""
    parser.add_argument("--obs", action="store_true",
                        help="record observability spans/counters for "
                             "this run (same as PSYNCPIM_OBS=1)")
    parser.add_argument("--attrib", action="store_true",
                        help="print the cycle-attribution breakdown")


def _sharding_args(parser: argparse.ArgumentParser,
                   strategy: bool = True) -> None:
    """``--channels`` and, unless *strategy* is off, ``--strategy``."""
    parser.add_argument("--channels", type=int, default=None,
                        help="shard across N explicitly modelled channels "
                             "(default: the representative-channel model)")
    if strategy:
        parser.add_argument("--strategy", default=DEFAULT_STRATEGY,
                            choices=list(STRATEGY_CHOICES),
                            help="partitioning strategy (default: "
                                 f"{DEFAULT_STRATEGY}; auto = tune per "
                                 "matrix)")


def _matrix_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--matrix", default="poisson3Da",
                        help="Table IX matrix name (see `suite`)")
    parser.add_argument("--mtx", default=None,
                        help="Matrix Market file (overrides --matrix)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="dimension scale for suite matrices")
    parser.add_argument("--seed", type=int, default=0)


def _layout_args(parser: argparse.ArgumentParser,
                 matrix_layout: bool = True) -> None:
    """How a kernel verb lays its matrix out: the device flags, plus
    precision, on-bank format and compression unless *matrix_layout* is
    off (sptrsv)."""
    if matrix_layout:
        parser.add_argument("--precision", default="fp64",
                            choices=["fp64", "fp32", "int32", "int16",
                                     "int8"])
        parser.add_argument("--format", dest="matrix_format",
                            default="coo", choices=["coo", "csr", "bitmap"])
    parser.add_argument("--cubes", type=int, default=1)
    _sharding_args(parser)
    if matrix_layout:
        parser.add_argument("--no-compress", action="store_true",
                            help="disable the Fig. 6 matrix compression")


def _load_matrix(args):
    if args.mtx:
        return read_matrix_market(args.mtx)
    return generate(args.matrix, scale=args.scale)


# ----------------------------------------------------------------------
def _cmd_info(args) -> int:
    cfg = default_system()
    mem, pu = cfg.memory, cfg.unit
    print(format_table(["field", "value"], [
        ["protocol", "HBM2"],
        ["bank groups x banks", f"{mem.num_bankgroups} x "
                                f"{mem.banks_per_group}"],
        ["pseudo channels", mem.num_pseudo_channels],
        ["rows x row bytes", f"{mem.num_rows} x {mem.row_bytes}"],
        ["capacity", f"{mem.capacity_bytes >> 30} GB"],
        ["ext / int bandwidth", f"{mem.external_bandwidth / 1e9:.0f} / "
                                f"{mem.internal_bandwidth / 1e9:.0f} GB/s"],
        ["processing units", cfg.total_units],
        ["PU clock / datapath", f"{pu.clock_hz / 1e6:.0f} MHz / "
                                f"{pu.datapath_bytes} B"],
        ["registers", f"{pu.num_dense_registers} x "
                      f"{pu.dense_register_bytes} B dense, "
                      f"{pu.scalar_register_bytes} B scalar"],
        ["sparse queues", f"{pu.num_sparse_queues} x "
                          f"{pu.sparse_queue_bytes} B"],
    ], title="pSyncPIM configuration (paper Tables VII / VIII)"))
    area = unit_area()
    model = table_x_model()
    print(f"\narea: {area.per_unit:.3f} mm^2/unit, "
          f"{model['total_area_mm2']:.2f} mm^2/die "
          f"(paper: {model['paper_total_area_mm2']} mm^2)")
    print(f"baselines: {GPUModel().config.name}, "
          f"{SpaceAModel().config.name}")
    return 0


def _cmd_suite(args) -> int:
    rows = []
    for name in suite_names():
        spec = matrix_spec(name)
        rows.append([name, spec.dimension, f"{spec.density:.2e}",
                     spec.kind, " ".join(spec.applications)])
    print(format_table(["matrix", "dimension", "density", "pattern",
                        "used by"], rows,
                       title="Table IX evaluation suite"))
    return 0


def _cmd_spmv(args) -> int:
    matrix = _load_matrix(args)
    pim = PSyncPIM(num_cubes=args.cubes, precision=args.precision,
                   channels=args.channels, strategy=args.strategy)
    x = np.random.default_rng(args.seed).random(matrix.shape[1])
    result = pim.spmv(matrix, x, compress=not args.no_compress,
                      precision=args.precision,
                      matrix_format=args.matrix_format)
    assert np.allclose(result.y, matrix.matvec(x))
    ex = result.execution
    ab, attribution = price(ex, pim.config, params=pim.trace_params,
                            with_energy=True, attrib=args.attrib)
    pb = time_spmv(ex, pim.config, mode="pb")
    gpu = GPUModel().spmv_seconds(*matrix.shape, matrix.nnz,
                                  args.precision)
    watts = ab.energy.average_power_watts(ab.cycles, TimingParams())
    print(format_table(["metric", "value"], [
        ["matrix", f"{matrix.shape[0]}x{matrix.shape[1]}, "
                   f"nnz={matrix.nnz}"],
        ["tiles / rounds", f"{len(result.plan.tiles)} / {ex.num_rounds}"],
        ["banks used / imbalance", f"{ex.banks_used}/{ex.num_banks} / "
                                   f"{ex.imbalance:.2f}"],
        ["staged input / output", f"{ex.input_bytes / 1024:.1f} / "
                                  f"{ex.output_bytes / 1024:.1f} KB"],
        ["all-bank time", f"{ab.seconds * 1e6:.2f} us "
                          f"({ab.commands} commands)"],
        ["per-bank time", f"{pb.seconds * 1e6:.2f} us "
                          f"({pb.seconds / ab.seconds:.2f}x slower)"],
        ["RTX 3080 estimate", f"{gpu * 1e6:.2f} us "
                              f"(speedup {gpu / ab.seconds:.2f}x)"],
        ["energy / power", f"{ab.energy.total_joules * 1e6:.1f} uJ / "
                           f"{watts:.2f} W"],
    ], title=f"SpMV on pSyncPIM ({args.precision}, "
             f"{args.matrix_format})"))
    if args.attrib:
        report = obs.build_run_report(
            attribution, ab, label=f"spmv/{args.matrix}", kind="spmv",
            matrix=args.matrix, mode="ab", channels=ex.num_channels,
            strategy=args.strategy, precision=args.precision,
            config=pim.config, alu_operations=alu_operations(ex))
        print()
        print(obs.render_report(report))
    return 0


def _cmd_spmm(args) -> int:
    num_rhs = check_num_rhs(args.rhs)
    matrix = _load_matrix(args)
    pim = PSyncPIM(num_cubes=args.cubes, precision=args.precision,
                   channels=args.channels, strategy=args.strategy)
    x = np.random.default_rng(args.seed).random((matrix.shape[1],
                                                 num_rhs))
    result = pim.spmm(matrix, x, compress=not args.no_compress,
                      precision=args.precision,
                      matrix_format=args.matrix_format)
    for j in range(num_rhs):
        assert np.allclose(result.y[:, j], matrix.matvec(x[:, j]))
    ex = result.execution
    ab, attribution = price(ex, pim.config, params=pim.trace_params,
                            with_energy=True, attrib=args.attrib)
    pb = time_spmm(ex, pim.config, mode="pb")
    # the SpMV baseline is the same plan priced at width 1
    spmv_cycles = time_spmm(as_spmm_execution(ex, 1), pim.config,
                            mode="ab").cycles
    print(format_table(["metric", "value"], [
        ["matrix", f"{matrix.shape[0]}x{matrix.shape[1]}, "
                   f"nnz={matrix.nnz}"],
        ["rhs columns", num_rhs],
        ["tiles / rounds", f"{len(result.plan.tiles)} / {ex.num_rounds}"],
        ["banks used / imbalance", f"{ex.banks_used}/{ex.num_banks} / "
                                   f"{ex.imbalance:.2f}"],
        ["all-bank time", f"{ab.seconds * 1e6:.2f} us "
                          f"({ab.commands} commands)"],
        ["per-bank time", f"{pb.seconds * 1e6:.2f} us "
                          f"({pb.seconds / ab.seconds:.2f}x slower)"],
        ["cycles per rhs", f"{ab.cycles / num_rhs:.1f} "
                           f"(SpMV: {spmv_cycles}, amortisation "
                           f"{spmv_cycles * num_rhs / ab.cycles:.2f}x)"],
        ["energy", f"{ab.energy.total_joules * 1e6:.1f} uJ"],
    ], title=f"SpMM on pSyncPIM ({args.precision}, k={num_rhs})"))
    if args.attrib:
        report = obs.build_run_report(
            attribution, ab, label=f"spmm/{args.matrix}", kind="spmm",
            matrix=args.matrix, mode="ab", channels=ex.num_channels,
            strategy=args.strategy, precision=args.precision,
            config=pim.config, alu_operations=alu_operations(ex))
        print()
        print(obs.render_report(report))
    return 0


def _cmd_sptrsv(args) -> int:
    matrix = _load_matrix(args)
    pim = PSyncPIM(num_cubes=args.cubes, channels=args.channels,
                   strategy=args.strategy)
    factors = pim.factorize(matrix)
    b = np.random.default_rng(args.seed).random(matrix.shape[0])
    rows = []
    attrib_reports = []
    for label, tri, lower in (("lower", factors.lower, True),
                              ("upper", factors.upper, False)):
        solve = pim.sptrsv(tri, b, lower=lower)
        ex = solve.execution
        report, attribution = price(ex, pim.config,
                                    params=pim.trace_params,
                                    attrib=args.attrib)
        residual = float(np.abs(tri.matvec(solve.x) - b).max())
        rows.append([label, tri.nnz, ex.num_levels,
                     report.seconds * 1e6, f"{residual:.2e}"])
        if args.attrib:
            attrib_reports.append(obs.build_run_report(
                attribution, report,
                label=f"sptrsv/{args.matrix}/{label}", kind="sptrsv",
                matrix=args.matrix, channels=ex.num_channels,
                strategy=args.strategy, config=pim.config,
                alu_operations=alu_operations(ex)))
    print(format_table(["factor", "nnz", "levels", "time (us)",
                        "residual"], rows,
                       title="SpTRSV via ILDU on pSyncPIM"))
    for report in attrib_reports:
        print()
        print(obs.render_report(report))
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import run_sweep, suite_jobs
    want_attrib = args.attrib or bool(args.attrib_out)
    matrices = (None if args.matrices is None
                else [name.strip() for name in args.matrices.split(",")
                      if name.strip()])
    jobs = suite_jobs(kernel=args.kernel, matrices=matrices,
                      scale=args.scale, precision=args.precision,
                      num_cubes=args.cubes, platform=args.platform,
                      mode=args.mode, with_energy=args.energy,
                      channels=args.channels, strategy=args.strategy,
                      rhs=args.rhs, attrib=want_attrib)
    result = run_sweep(jobs, workers=args.workers,
                       cache_dir=args.cache_dir,
                       use_cache=not args.no_cache)
    kernel = args.kernel
    print(result.summary_table(
        title=f"sweep: {len(jobs)} {kernel} jobs over "
              f"{len(set(job.matrix for job in jobs))} matrices"))
    if want_attrib:
        reports = result.attrib_reports()
        if reports:
            print()
            print(obs.render_bundle_summary(reports))
        if args.attrib_out:
            path = obs.save_reports(args.attrib_out, reports)
            print(f"\nattrib: wrote {len(reports)} report(s) to {path}")
    return 0


def _cmd_tune(args) -> int:
    from .core import (make_strategy, plan_spmv, strategy_names,
                       time_spmv, tune_strategy)
    from .formats import matrices_for
    from .sweep import resolve_bench_scale
    scale = resolve_bench_scale() if args.scale is None else args.scale
    names = (matrices_for("spmv") if args.matrices is None
             else [n.strip() for n in args.matrices.split(",")
                   if n.strip()])
    config = default_system()
    strategies = list(strategy_names())
    totals = {name: 0.0 for name in strategies + ["auto"]}
    wins = {name: [0, 0, 0] for name in strategies[1:] + ["auto"]}
    rows = []
    start = time.perf_counter()
    for mat_name in names:
        matrix = generate(mat_name, scale=scale)
        cycles = {}
        for strat in strategies:
            plan = make_strategy(strat).partition(
                matrix, config, precision=args.precision, validate=False)
            _, _, execution = plan_spmv(
                matrix, config, precision=args.precision, plan=plan,
                validate=False, channels=args.channels)
            cycles[strat] = float(time_spmv(execution, config,
                                            mode=args.mode).cycles)
        tuned = tune_strategy(matrix, config, precision=args.precision,
                              channels=args.channels, mode=args.mode)
        cycles["auto"] = cycles[tuned.chosen]
        for strat, tally in wins.items():
            if cycles[strat] < cycles["paper"]:
                tally[0] += 1
            elif cycles[strat] == cycles["paper"]:
                tally[1] += 1
            else:
                tally[2] += 1
        for strat, value in cycles.items():
            totals[strat] += value
        rows.append([mat_name, matrix.nnz]
                    + [f"{cycles[s]:.3g}" for s in strategies]
                    + [tuned.chosen])
    wall = time.perf_counter() - start
    print(format_table(["matrix", "nnz"] + strategies + ["auto pick"],
                       rows,
                       title=f"modelled cycles per strategy "
                             f"(scale {scale}, {args.mode} mode)"))
    summary = [[strat, f"{tally[0]}/{tally[1]}/{tally[2]}",
                f"{totals['paper'] / totals[strat]:.3f}x"]
               for strat, tally in wins.items()]
    print()
    print(format_table(["strategy", "win/tie/loss vs paper",
                        "aggregate speedup"], summary,
                       title=f"suite aggregate over {len(names)} "
                             f"matrices ({wall:.1f} s)"))
    return 0


def _build_attrib_reports(args) -> dict:
    """Run the requested workloads and build their RunReport bundle."""
    from .core import plan_spmv
    from .core.sptrsv import ildu, run_sptrsv
    from .formats import matrices_for
    from .sweep import resolve_bench_scale
    config = default_system()
    channels, strategy = args.channels, args.strategy
    scale = resolve_bench_scale() if args.scale is None else args.scale
    if args.mtx:
        sources = [(args.mtx, read_matrix_market(args.mtx))]
    else:
        names = (matrices_for(args.kernel) if args.matrices is None
                 else [n.strip() for n in args.matrices.split(",")
                       if n.strip()])
        sources = [(name, generate(name, scale=scale)) for name in names]
    reports = {}
    kind = args.kernel
    mode = args.mode if kind == "spmv" else "ab"
    for name, matrix in sources:
        if kind == "spmv":
            _, _, execution = plan_spmv(
                matrix, config, precision=args.precision,
                validate=False, channels=channels, strategy=strategy)
        else:
            tri = ildu(matrix).lower
            b = np.random.default_rng(args.seed).random(tri.shape[0])
            execution = run_sptrsv(tri, b, config,
                                   precision=args.precision,
                                   channels=channels,
                                   strategy=strategy).execution
        perf, attribution = price(execution, config, mode=mode, attrib=True)
        label = f"{kind}/{name}"
        reports[label] = obs.build_run_report(
            attribution, perf, label=label, kind=kind, matrix=name,
            mode=mode, channels=channels, strategy=strategy,
            precision=args.precision, config=config,
            alu_operations=alu_operations(execution))
    return reports


def _cmd_attrib(args) -> int:
    reports = _build_attrib_reports(args)
    if args.quiet or len(reports) > 1:
        print(obs.render_bundle_summary(reports))
    if not args.quiet:
        for label in sorted(reports):
            print()
            print(obs.render_report(reports[label]))
    if args.out:
        path = obs.save_reports(args.out, reports)
        print(f"\nattrib: wrote {len(reports)} report(s) to {path}")
    if args.html:
        from pathlib import Path
        html_path = Path(args.html)
        html_path.parent.mkdir(parents=True, exist_ok=True)
        html_path.write_text(obs.render_html(reports))
        print(f"attrib: wrote HTML report to {html_path}")
    return 0


def _cmd_diff(args) -> int:
    base = obs.load_reports(args.base)
    new = obs.load_reports(args.new)
    diff = obs.diff_reports(base, new)
    print(obs.render_diff(diff, top=args.top))
    if args.fail_above is not None and diff.total_base > 0:
        pct = 100.0 * diff.total_delta / diff.total_base
        if pct > args.fail_above:
            print(f"\ndiff: FAIL total cycles regressed {pct:+.2f}% "
                  f"(> {args.fail_above}%)", file=sys.stderr)
            return 1
    return 0


def _cmd_profile(args) -> int:
    path = args.path if args.path is not None else obs.default_dir()
    try:
        metrics = obs.load_metrics(path)
    except FileNotFoundError:
        print(f"error: no metrics at {path}; run a command with "
              f"PSYNCPIM_OBS=1 first", file=sys.stderr)
        return 1
    print(obs.render_profile(metrics))
    return 0


def _cmd_check(args) -> int:
    from .check import (check_trace, compare_golden, fuzz_range,
                        golden_traces, update_golden)
    failed = False

    if args.update_golden:
        written = update_golden(args.golden_dir)
        for path in written:
            print(f"golden: wrote {path}")
    elif not args.skip_golden:
        problems = compare_golden(args.golden_dir)
        if problems:
            failed = True
            for problem in problems:
                print(f"golden: FAIL {problem}")
        else:
            print("golden: ok (all snapshots match exactly)")

    if not args.skip_protocol:
        for name, trace in golden_traces().items():
            violations = check_trace(trace)
            if violations:
                failed = True
                for v in violations[:5]:
                    print(f"protocol: FAIL {name}: {v}")
            else:
                print(f"protocol: ok {name} ({len(trace)} entries)")

    if args.fuzz > 0:
        start = time.perf_counter()
        failures = fuzz_range(args.seed, args.fuzz)
        wall = time.perf_counter() - start
        rate = args.fuzz / wall if wall > 0 else float("inf")
        if failures:
            failed = True
            for seed, message in failures:
                print(f"fuzz: FAIL seed {seed}: {message}")
        else:
            print(f"fuzz: ok ({args.fuzz} programs, seeds "
                  f"{args.seed}..{args.seed + args.fuzz - 1}, "
                  f"{wall:.2f} s, {rate:.1f} seeds/s)")

    print("check: FAILED" if failed else "check: all oracles passed")
    return 1 if failed else 0


def _cmd_app(args) -> int:
    from .apps import (GPUBackend, PIMBackend, bfs, connected_components,
                       pagerank, pbicgstab, pcg, sssp, triangle_count)
    matrix = _load_matrix(args)
    rng = np.random.default_rng(args.seed)

    def run(backend):
        if args.name == "bfs":
            return bfs(matrix, 0, backend)
        if args.name == "cc":
            return connected_components(matrix, backend)
        if args.name == "pr":
            return pagerank(matrix, backend)
        if args.name == "sssp":
            return sssp(matrix, 0, backend)
        if args.name == "tc":
            return triangle_count(matrix, backend)
        b = matrix.matvec(rng.random(matrix.shape[0]))
        solver = pcg if args.name == "pcg" else pbicgstab
        return solver(matrix, b, backend, tol=1e-9)

    gpu_run = run(GPUBackend(graphblast=args.name in
                             ("bfs", "cc", "pr", "sssp", "tc")))
    pim_run = run(PIMBackend())
    rows = [[cls, gpu_run.breakdown.get(cls, 0.0) * 1e6,
             pim_run.breakdown.get(cls, 0.0) * 1e6]
            for cls in ("spmv", "sptrsv", "vector", "spgemm")]
    rows.append(["total", gpu_run.total_seconds * 1e6,
                 pim_run.total_seconds * 1e6])
    print(format_table(["kernel class", "GPU (us)", "pSyncPIM (us)"],
                       rows,
                       title=f"{gpu_run.name}: {gpu_run.iterations} "
                             f"iterations, speedup "
                             f"{gpu_run.total_seconds / pim_run.total_seconds:.2f}x"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
