"""Cycle-attribution engine: sum-to-total invariants, critical path,
RunReport artifacts and `psyncpim diff` regression triage."""

import json
import pickle

import numpy as np
import pytest

from repro.analysis.report import JobRecord, SweepResult
from repro.check import oracles
from repro.config import default_system
from repro.core import plan_spmv, run_spmv
from repro.core.sptrsv import ildu, run_sptrsv
from repro.core.timing import price_trace
from repro.core.trace import spmm_ab_segments, spmm_ab_trace, synthesize
from repro.core.trace import TraceSegment
from repro.dram import (BankSweep, Command, CommandType, RowVisit,
                        TimingParams, expand_trace)
from repro.errors import ConfigError, ExecutionError
from repro.formats import generate, matrices_for
from repro.obs.attrib import (ATTRIB_VERSION, CATEGORIES,
                              AttributionCollector, attribute_spmm,
                              attribute_spmv, attribute_sptrsv,
                              attribute_trace, category_of,
                              critical_path, phase_cycles)
from repro.obs.report import (RunReport, build_run_report, diff_reports,
                              load_reports, render_diff, render_html,
                              render_report, save_reports)
from repro.sweep import SweepJob, execute_job
from tests.test_dram_lockstep import (LEVEL_SEEDS, SWEEP_SEEDS, random_trace,
                                      sptrsv_trace)
from tests.test_no_selection_knobs import ATTRIB_VAR

SCALE = 0.02
SPMV_SUITE = list(matrices_for("spmv"))
SPTRSV_SUITE = list(matrices_for("sptrsv"))
STRATEGIES = ("paper", "nnz-rows", "2d-grid", "nnz-2d")


@pytest.fixture(scope="module")
def config():
    return default_system()


def _assert_exact(attribution, perf):
    """Every lane's categories sum bitwise to the modelled cycles."""
    assert attribution.total_cycles == perf.cycles
    for vec in attribution.lane_cycles.values():
        assert sum(vec) == perf.cycles
        assert all(v >= 0 for v in vec)
    device = attribution.device_cycles()
    assert sum(device.values()) == perf.cycles * attribution.num_lanes
    attribution.check()


def _spmv_attr(matrix, config, channels=None, strategy="paper",
               mode="ab"):
    _, _, execution = plan_spmv(matrix, config, validate=False,
                                channels=channels, strategy=strategy)
    return attribute_spmv(execution, config, mode=mode)


def _sptrsv_attr(name, config, channels=None):
    matrix = generate(name, scale=SCALE)
    tri = ildu(matrix).lower
    b = np.ones(tri.shape[0])
    execution = run_sptrsv(tri, b, config, channels=channels).execution
    return attribute_sptrsv(execution, config)


# ----------------------------------------------------------------------
# acceptance: 100% of modelled cycles, across the full sweep space
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", SPMV_SUITE)
@pytest.mark.parametrize("channels", [1, 4, 16])
def test_spmv_suite_sum_to_total_across_channels(name, channels, config):
    matrix = generate(name, scale=SCALE)
    attribution, perf = _spmv_attr(matrix, config, channels=channels)
    _assert_exact(attribution, perf)
    assert attribution.num_lanes == channels * 16


@pytest.mark.parametrize("name", SPMV_SUITE)
def test_spmv_suite_sum_to_total_representative(name, config):
    matrix = generate(name, scale=SCALE)
    for mode in ("ab", "pb"):
        attribution, perf = _spmv_attr(matrix, config, mode=mode)
        _assert_exact(attribution, perf)


@pytest.mark.slow
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", SPMV_SUITE)
def test_spmv_all_strategies_sum_to_total(name, strategy, config):
    matrix = generate(name, scale=SCALE)
    for channels in (None, 4):
        attribution, perf = _spmv_attr(matrix, config, channels=channels,
                                       strategy=strategy)
        _assert_exact(attribution, perf)


def test_spmv_auto_strategy_sum_to_total(config):
    matrix = generate("wiki-Vote", scale=SCALE)
    attribution, perf = _spmv_attr(matrix, config, strategy="auto")
    _assert_exact(attribution, perf)


@pytest.mark.parametrize("name", SPTRSV_SUITE)
def test_sptrsv_suite_sum_to_total(name, config):
    attribution, perf = _sptrsv_attr(name, config)
    _assert_exact(attribution, perf)


@pytest.mark.slow
@pytest.mark.parametrize("name", SPTRSV_SUITE)
@pytest.mark.parametrize("channels", [1, 4, 16])
def test_sptrsv_suite_sum_to_total_sharded(name, channels, config):
    attribution, perf = _sptrsv_attr(name, config, channels=channels)
    _assert_exact(attribution, perf)
    assert attribution.num_lanes == channels * 16


def _spmm_attr(matrix, config, num_rhs, channels=None, mode="ab"):
    from repro.core.spmm import plan_spmm
    _, _, execution = plan_spmm(matrix, config, num_rhs=num_rhs,
                                channels=channels)
    return attribute_spmm(execution, config, mode=mode)


@pytest.mark.parametrize("num_rhs", [1, 4, 16])
@pytest.mark.parametrize("mode", ["ab", "pb"])
def test_spmm_sum_to_total(num_rhs, mode, config):
    matrix = generate("wiki-Vote", scale=SCALE)
    attribution, perf = _spmm_attr(matrix, config, num_rhs, mode=mode)
    _assert_exact(attribution, perf)


@pytest.mark.parametrize("channels", [1, 4, 16])
def test_spmm_sharded_sum_to_total(channels, config):
    matrix = generate("poisson3Da", scale=SCALE)
    attribution, perf = _spmm_attr(matrix, config, num_rhs=4,
                                   channels=channels)
    _assert_exact(attribution, perf)
    assert attribution.num_lanes == channels * 16


def test_spmm_phases_include_rhs_blocks(config):
    matrix = generate("wiki-Vote", scale=SCALE)
    attribution, _ = _spmm_attr(matrix, config, num_rhs=8)
    phases = phase_cycles(attribution)
    assert {"stage", "seam", "kernel", "merge"} <= set(phases)
    assert all(v >= 0 for v in phases.values())


@pytest.mark.parametrize("channels", [1, 4, 16])
def test_spmm_traces_pass_protocol_checker(channels, config):
    """Every widened trace still obeys the JEDEC rules the protocol
    checker re-derives from TimingParams."""
    from repro.check import check_trace, summarize
    from repro.core import spmm_channels_trace
    matrix = generate("poisson3Da", scale=SCALE)
    from repro.core.spmm import plan_spmm
    _, _, execution = plan_spmm(matrix, config, num_rhs=4,
                                channels=channels)
    violations = check_trace(spmm_channels_trace(execution, config))
    assert not violations, summarize(violations)


@pytest.mark.parametrize("mode", ["ab", "pb"])
def test_spmm_single_channel_trace_passes_protocol(mode, config):
    from repro.check import check_trace, summarize
    from repro.core import spmm_ab_trace, spmm_pb_trace
    from repro.core.spmm import plan_spmm
    matrix = generate("wiki-Vote", scale=SCALE)
    _, _, execution = plan_spmm(matrix, config, num_rhs=6)
    synth = spmm_ab_trace if mode == "ab" else spmm_pb_trace
    violations = check_trace(synth(execution, config))
    assert not violations, summarize(violations)


def test_both_engines_attribute_identically(config):
    """The lane and reference engines produce one execution record, so
    the attribution must be identical command for command."""
    matrix = generate("wiki-Vote", scale=SCALE)
    x = np.random.default_rng(3).random(matrix.shape[1])
    results = {}
    for engine in ("lane", "reference"):
        with pytest.MonkeyPatch.context() as mp:
            if engine == "reference":
                oracles.use_reference_engine(mp.setattr)
            execution = run_spmv(matrix, x, config, fidelity="functional",
                                 engine_banks=4, validate=False).execution
        results[engine] = attribute_spmv(execution, config)
    lane_att, lane_perf = results["lane"]
    ref_att, ref_perf = results["reference"]
    assert lane_perf.cycles == ref_perf.cycles
    assert lane_att.lane_cycles == ref_att.lane_cycles
    _assert_exact(lane_att, lane_perf)


def test_categories_are_exclusive_per_command():
    """Every command kind/tag maps to exactly one category index."""
    for kind in CommandType:
        for tag in (None, "stage_x", "merge_y", "read_b", "broadcast",
                    "program", "kernel"):
            cat = category_of(Command(kind, tag=tag))
            assert 0 <= cat < len(CATEGORIES)


# ----------------------------------------------------------------------
# property tests: randomized traces, expanded vs visits and sweeps
# ----------------------------------------------------------------------
def _random_trace(seed, num_channels=3, banks=16, sweeps=False):
    """A structured random command stream over several channels
    (``sweeps=True`` adds host ``BankSweep``s to the mix)."""
    rng = np.random.default_rng(seed)
    trace = []
    tags = [None, "stage_x", "merge_y", "read_b", "program", "kernel"]
    for _ in range(rng.integers(10, 40)):
        ch = int(rng.integers(0, num_channels))
        burst = rng.integers(0, 5 if sweeps else 4)
        if burst == 0:        # single-bank open/stream/close
            bank = int(rng.integers(0, banks))
            row = int(rng.integers(0, 64))
            tag = tags[int(rng.integers(0, len(tags)))]
            kind = CommandType.RD if rng.integers(0, 2) else CommandType.WR
            trace.append(RowVisit(False, ch, bank, row, (
                (kind, int(rng.integers(1, 20)), 0, tag),)))
        elif burst == 1:      # all-bank broadcast burst
            row = int(rng.integers(0, 64))
            stretches = tuple(
                (CommandType.RD_AB if rng.integers(0, 3) else
                 CommandType.WR_AB, int(rng.integers(1, 30)), 0,
                 tags[int(rng.integers(0, len(tags)))])
                for _ in range(int(rng.integers(0, 4))))
            trace.append(Command(CommandType.MODE, ch))
            trace.append(RowVisit(True, ch, 0, row, stretches))
        elif burst == 2:      # explicit refresh
            trace.append(Command(CommandType.REF, ch))
        elif burst == 3:      # bare mode switch
            trace.append(Command(CommandType.MODE, ch))
        else:                 # host sweep over the channel's banks
            column = Command(CommandType.RD if rng.integers(0, 2) else
                             CommandType.WR, ch,
                             row=int(rng.integers(0, 64)),
                             tag=tags[int(rng.integers(0, len(tags)))])
            trace.append(BankSweep(column, int(rng.integers(1, 40)),
                                   int(rng.integers(1, banks + 1))))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_random_traces_sum_to_total(seed, config):
    trace = _random_trace(seed)
    attribution, perf = attribute_trace(trace, config)
    _assert_exact(attribution, perf)


@pytest.mark.parametrize("seed", range(12))
def test_run_length_and_expanded_attribute_identically(seed, config):
    trace = _random_trace(seed)
    expanded = list(expand_trace(trace))
    att_runs, perf_runs = attribute_trace(trace, config)
    att_flat, perf_flat = attribute_trace(expanded, config)
    assert perf_runs.cycles == perf_flat.cycles
    assert att_runs.lane_cycles == att_flat.lane_cycles
    assert att_runs.channel_clock == att_flat.channel_clock


@pytest.mark.parametrize("seed", range(12))
def test_sweeps_and_expanded_attribute_identically(seed, config):
    """A sweep attributes like its expansion, segment timelines too:
    one segment per entry, remapped onto the expanded indices."""
    trace = _random_trace(seed, sweeps=True)
    assert any(isinstance(entry, BankSweep) for entry in trace)
    expanded, starts = [], []
    for entry in trace:
        starts.append(len(expanded))
        expanded.extend(expand_trace([entry]))
    starts.append(len(expanded))
    segments = [TraceSegment(f"e{i}", entry.channel, i, i + 1)
                for i, entry in enumerate(trace)]
    flat_segments = [TraceSegment(s.label, s.channel, starts[s.start],
                                  starts[s.end]) for s in segments]
    att_sweeps, perf_sweeps = attribute_trace(trace, config,
                                              segments=segments,
                                              with_energy=True)
    att_flat, perf_flat = attribute_trace(expanded, config,
                                          segments=flat_segments,
                                          with_energy=True)
    _assert_exact(att_sweeps, perf_sweeps)
    assert perf_sweeps == perf_flat
    assert att_sweeps.lane_cycles == att_flat.lane_cycles
    assert att_sweeps.channel_clock == att_flat.channel_clock
    assert att_sweeps.segment_cycles == att_flat.segment_cycles


def _collect(trace, segments, config):
    """Attribute *trace*; return the attribution and its entry cycles."""
    timing = TimingParams()
    collector = AttributionCollector(
        trfc=timing.trfc, mode_switch_cycles=timing.mode_switch_cycles,
        capture_entries=True)
    perf = price_trace(trace, config, collector=collector)
    attribution = collector.finalize(
        banks_per_channel=config.memory.banks_per_channel,
        segments=segments, total_cycles=perf.cycles)
    return attribution, collector.entry_cycles


def _assert_collects_as_expansion(trace, segments, config):
    """The O(anchors) sweep and O(stretches) visit bucketing equal a
    collector fed each entry's per-command expansion: lanes, clocks,
    entry and segment cycles."""
    expanded, starts = [], []
    for entry in trace:
        starts.append(len(expanded))
        expanded.extend(expand_trace([entry]))
    starts.append(len(expanded))
    flat_segments = [TraceSegment(s.label, s.channel, starts[s.start],
                                  starts[s.end]) for s in segments]
    got, got_entries = _collect(trace, segments, config)
    want, want_entries = _collect(expanded, flat_segments, config)
    assert got.lane_cycles == want.lane_cycles
    assert got.channel_clock == want.channel_clock
    # One entry cycle per visit or sweep entry: its expansion's last PRE.
    assert got_entries == [want_entries[end - 1] for end in starts[1:]]
    assert got.segment_cycles == want.segment_cycles


@pytest.mark.parametrize("seed", [*SWEEP_SEEDS, *LEVEL_SEEDS])
def test_sweep_bucketing_matches_expansion(seed, config):
    trace, _ = (random_trace(seed) if seed in SWEEP_SEEDS
                else sptrsv_trace(seed))
    segments = [TraceSegment(f"e{i}", entry.channel, i, i + 1)
                for i, entry in enumerate(trace)]
    _assert_collects_as_expansion(trace, segments, config)


@pytest.mark.parametrize("lockstep", [False, True])
def test_sweep_followers_pay_leftover_debt(lockstep, config):
    """An explicit refresh's tRFC debt outlives the mode switches after
    it (each pays the previous switch's debt first) and more of it is
    left than the anchor bank absorbs, so closed-form followers split
    it off as the expansion."""
    head = ([Command(CommandType.MODE), Command(CommandType.ACT_AB, row=1),
             Command(CommandType.PRE_AB)] if lockstep else [])
    trace = head + [Command(CommandType.REF),
                    *[Command(CommandType.MODE)] * 12,
                    BankSweep(Command(CommandType.RD, row=2, tag="read_b"),
                              beats=1, banks=16)]
    segments = [TraceSegment(f"e{i}", 0, i, i + 1)
                for i in range(len(trace))]
    _assert_collects_as_expansion(trace, segments, config)


@pytest.mark.parametrize("all_bank", [False, True])
def test_visit_stretches_pay_leftover_debt(all_bank, config):
    """Stall debt left after a visit's ACT is split off stretch by
    stretch, as the expansion's column commands would."""
    rd, wr = ((CommandType.RD_AB, CommandType.WR_AB) if all_bank
              else (CommandType.RD, CommandType.WR))
    visit = RowVisit(all_bank, 0, 3, 2, ((rd, 2, 0, "matrix"),
                                         (wr, 1, 0, "stage_x"),
                                         (rd, 4, 0, None)))
    trace = [Command(CommandType.REF), *[Command(CommandType.MODE)] * 12,
             visit, visit]
    segments = [TraceSegment(f"e{i}", 0, i, i + 1)
                for i in range(len(trace))]
    _assert_collects_as_expansion(trace, segments, config)


@pytest.fixture(scope="module")
def fig9_traces(config):
    """Both ILDU factors of every Fig. 9 matrix, at scale 0.005, on the
    representative channel and sharded over 4 channels."""
    traces = {}
    for name in SPTRSV_SUITE:
        factors = ildu(generate(name, scale=0.005))
        for lower in (True, False):
            tri = factors.lower if lower else factors.upper
            b = np.random.default_rng(0).random(tri.shape[0])
            for channels in (None, 4):
                execution = run_sptrsv(tri, b, config, lower=lower,
                                       channels=channels).execution
                traces[name, lower, channels] = synthesize(execution, config)
    return traces


def test_fig9_sweep_bucketing_matches_expansion(fig9_traces, config):
    assert len(fig9_traces) == 20
    for segmented in fig9_traces.values():
        _assert_collects_as_expansion(segmented.trace, segmented.segments,
                                      config)


def test_real_trace_run_length_equivalence(config):
    matrix = generate("wiki-Vote", scale=SCALE)
    _, _, execution = plan_spmv(matrix, config, validate=False)
    trace = spmm_ab_trace(execution, config)
    att_runs, _ = attribute_trace(trace, config)
    att_flat, _ = attribute_trace(list(expand_trace(trace)), config)
    assert att_runs.lane_cycles == att_flat.lane_cycles


def test_collector_total_cross_check(config):
    trace = _random_trace(0)
    timing = TimingParams()
    collector = AttributionCollector(
        trfc=timing.trfc, mode_switch_cycles=timing.mode_switch_cycles)
    from repro.core.timing import price_trace
    perf = price_trace(trace, config, collector=collector)
    with pytest.raises(ExecutionError):
        collector.finalize(banks_per_channel=16,
                           total_cycles=perf.cycles + 1)


def test_collector_does_not_change_pricing(config):
    trace = _random_trace(1)
    from repro.core.timing import price_trace
    timing = TimingParams()
    plain = price_trace(trace, config)
    collector = AttributionCollector(
        trfc=timing.trfc, mode_switch_cycles=timing.mode_switch_cycles)
    observed = price_trace(trace, config, collector=collector)
    assert plain.cycles == observed.cycles
    assert plain.counts == observed.counts
    assert plain.tag_cycles == observed.tag_cycles


def _footprint(value):
    """Items held in the containers reachable from *value*, through this
    module's records (the collector's charges), not through its other
    objects."""
    if isinstance(value, dict):
        return sum(1 + _footprint(k) + _footprint(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(1 + _footprint(v) for v in value)
    if type(value).__module__ == AttributionCollector.__module__:
        slots = getattr(type(value), "__slots__", ())
        fields = dict(getattr(value, "__dict__", {}))
        fields.update((name, getattr(value, name)) for name in slots)
        return _footprint(fields)
    return 0


def test_collector_state_does_not_grow_with_the_trace(config):
    """After pricing, the collector holds O(channels x banks) numbers
    whatever the trace length; only captured entry cycles grow."""
    trace, channels = sptrsv_trace(LEVEL_SEEDS[1])
    assert channels == 2
    banks = config.memory.banks_per_channel
    sizes = []
    for reps in (1, 6):
        timing = TimingParams()
        collector = AttributionCollector(
            trfc=timing.trfc, mode_switch_cycles=timing.mode_switch_cycles,
            capture_entries=True)
        price_trace(trace * reps, config, collector=collector)
        entries, collector.entry_cycles = collector.entry_cycles, None
        sizes.append(_footprint(collector))
        collector.entry_cycles = entries
        collector.finalize(banks_per_channel=banks)
        assert len(collector.entry_cycles) == len(trace) * reps
    assert sizes[0] == sizes[1]
    assert sizes[0] <= channels * (2 * banks + 4) * (len(CATEGORIES) + 2)


# ----------------------------------------------------------------------
# segments, critical path, phases
# ----------------------------------------------------------------------
def test_segments_tile_the_trace(config):
    matrix = generate("cant", scale=SCALE)
    _, _, execution = plan_spmv(matrix, config, validate=False)
    seg = spmm_ab_segments(execution, config)
    assert seg.trace == spmm_ab_trace(execution, config)
    covered = sorted((s.start, s.end) for s in seg.segments)
    assert covered[0][0] == 0
    assert covered[-1][1] == len(seg.trace)
    for (_, end), (start, _) in zip(covered, covered[1:]):
        assert end == start


def test_representative_critical_path_is_exact(config):
    """One channel, serialized: the barrier makespan IS the schedule."""
    matrix = generate("cant", scale=SCALE)
    attribution, perf = _spmv_attr(matrix, config)
    path = critical_path(attribution)
    assert path is not None
    assert path.makespan == perf.cycles
    assert path.modelled_cycles == perf.cycles
    assert path.total_slack == 0
    for node in path.nodes:
        assert node.critical_channel == 0
        assert node.duration == node.durations[0]


def test_sharded_critical_path_bounds_modelled_cycles(config):
    attribution, perf = _sptrsv_attr("2cubes_sphere", config, channels=4)
    path = critical_path(attribution)
    assert path is not None
    assert path.makespan >= perf.cycles
    assert path.total_slack >= 0
    for node in path.nodes:
        assert node.slack[node.critical_channel] == 0
        assert all(s >= 0 for s in node.slack.values())


def test_phase_cycles_cover_known_phases(config):
    attribution, _ = _sptrsv_attr("2cubes_sphere", config)
    phases = phase_cycles(attribution)
    assert {"merge", "broadcast", "kernel"} <= set(phases)
    assert all(v >= 0 for v in phases.values())
    matrix = generate("cant", scale=SCALE)
    spmv_att, _ = _spmv_attr(matrix, config)
    spmv_phases = phase_cycles(spmv_att)
    assert {"stage", "seam", "kernel", "merge"} <= set(spmv_phases)


def test_padding_only_in_ab_mode(config):
    matrix = generate("webbase-1M", scale=SCALE)
    ab, _ = _spmv_attr(matrix, config, mode="ab")
    pb, _ = _spmv_attr(matrix, config, mode="pb")
    assert ab.device_cycles()["padding"] > 0   # skewed matrix: real waste
    assert pb.device_cycles()["padding"] == 0  # per-bank mode never pads


# ----------------------------------------------------------------------
# RunReport artifact
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sample_report(config):
    matrix = generate("cant", scale=SCALE)
    _, _, execution = plan_spmv(matrix, config, validate=False)
    attribution, perf = attribute_spmv(execution, config)
    return build_run_report(
        attribution, perf, label="spmv/cant", kind="spmv", matrix="cant",
        strategy="paper", config=config,
        alu_operations=2 * execution.total_elements)


def test_run_report_invariants(sample_report):
    sample_report.check()
    fractions = sample_report.fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-12
    assert sample_report.attrib_version == ATTRIB_VERSION
    util = sample_report.utilization
    assert 0.0 < util["bus_utilisation"] <= 1.0
    assert util["compute_efficiency"] > 0
    assert sample_report.critical_path["makespan"] == \
        sample_report.total_cycles


def test_run_report_json_roundtrip(sample_report, tmp_path):
    path = save_reports(tmp_path / "bundle.json", {"a": sample_report})
    loaded = load_reports(path)["a"]
    assert loaded.to_dict() == sample_report.to_dict()
    loaded.check()
    # the on-disk form is stable, sorted JSON
    payload = json.loads(path.read_text())
    assert payload["reports"]["a"]["total_cycles"] == \
        sample_report.total_cycles


def test_run_report_pickle_roundtrip(sample_report, tmp_path):
    path = save_reports(tmp_path / "bundle.pkl", {"a": sample_report})
    loaded = load_reports(path)["a"]
    assert loaded.to_dict() == sample_report.to_dict()
    clone = pickle.loads(pickle.dumps(sample_report))
    assert clone.to_dict() == sample_report.to_dict()


def test_render_report_and_html(sample_report):
    text = render_report(sample_report)
    assert "cycle attribution" in text
    assert "critical path" in text
    html = render_html({"spmv/cant": sample_report})
    assert html.startswith("<!DOCTYPE html>")
    assert "spmv/cant" in html and "</html>" in html


def test_load_reports_rejects_missing_and_malformed(tmp_path):
    with pytest.raises(ExecutionError, match="no report bundle"):
        load_reports(tmp_path / "missing.json")
    junk = tmp_path / "junk.json"
    junk.write_text('{"not": "a bundle"}')
    with pytest.raises(ExecutionError, match="not a report bundle"):
        load_reports(junk)


def test_run_report_check_rejects_corruption(sample_report):
    bad = RunReport.from_dict(sample_report.to_dict())
    bad.lane_cycles[0][0] += 1
    with pytest.raises(ExecutionError):
        bad.check()


# ----------------------------------------------------------------------
# acceptance: diff names the dominant category and top regressors
# ----------------------------------------------------------------------
def _bundle(config, strategy, names):
    reports = {}
    for name in names:
        matrix = generate(name, scale=SCALE)
        attribution, perf = _spmv_attr(matrix, config, strategy=strategy)
        reports[f"spmv/{name}"] = build_run_report(
            attribution, perf, label=f"spmv/{name}", kind="spmv",
            matrix=name, strategy=strategy, config=config)
    return reports


def test_diff_names_dominant_category_and_regressors(config):
    names = ["webbase-1M", "Stanford", "rma10"]
    base = _bundle(config, "paper", names)
    new = _bundle(config, "2d-grid", names)   # the injected regression
    diff = diff_reports(base, new)
    assert diff.total_delta > 0
    assert diff.dominant_category in CATEGORIES
    regressions = diff.regressions(top=5)
    assert regressions, "2d-grid must regress webbase-1M/Stanford"
    assert regressions[0].label == "spmv/webbase-1M"
    assert {e.label for e in regressions} >= {"spmv/webbase-1M",
                                              "spmv/Stanford"}
    for entry in regressions:
        assert entry.dominant_category in CATEGORIES
        assert entry.delta > 0 and entry.ratio > 1.0
    text = render_diff(diff)
    assert "dominant changed category:" in text
    assert "webbase-1M" in text and "top regressions" in text


def test_diff_tracks_missing_labels(sample_report):
    diff = diff_reports({"only-base": sample_report},
                        {"only-new": sample_report})
    assert diff.entries == []
    assert diff.only_base == ["only-base"]
    assert diff.only_new == ["only-new"]
    assert "no common labels" in render_diff(diff)


# ----------------------------------------------------------------------
# satellite: merged metrics keep failed jobs' payloads, tagged
# ----------------------------------------------------------------------
def _record(label, failed=False, metrics=None):
    return JobRecord(label=label, kernel="spmv", matrix="m",
                     error="ValueError: boom" if failed else "",
                     metrics=metrics)


def test_merged_counters_tags_failed_jobs():
    result = SweepResult(records=[
        _record("good", metrics={"counters": {"dram.cycles": 100.0}}),
        _record("bad", failed=True,
                metrics={"counters": {"dram.cycles": 7.0}}),
    ], wall_seconds=1.0)
    merged = result.merged_counters()
    assert merged["dram.cycles"] == 100.0
    assert merged["failed[bad].dram.cycles"] == 7.0


def test_merged_gauges_survive_failures():
    result = SweepResult(records=[
        _record("good", metrics={"gauges": {"imbalance": 1.5}}),
        _record("bad", failed=True, metrics={"gauges": {"imbalance": 9.0}}),
        _record("good2", metrics={"counters": {"dram.cycles": 1.0}}),
    ], wall_seconds=1.0)
    gauges = result.merged_gauges()
    assert gauges == {"imbalance": 1.5, "failed[bad].imbalance": 9.0}


def test_merged_counters_empty_without_metrics():
    result = SweepResult(records=[_record("a"), _record("b", failed=True)],
                         wall_seconds=1.0)
    assert result.merged_counters() == {}
    assert result.merged_gauges() == {}


# ----------------------------------------------------------------------
# satellite: sweep integration ships RunReports in JobRecords
# ----------------------------------------------------------------------
def test_sweep_job_attrib_flows_into_record(tmp_path):
    from repro.sweep.runner import SweepJob, execute_job
    job = SweepJob(kernel="spmv", matrix="wiki-Vote", scale=SCALE,
                   attrib=True)
    record = execute_job(job, cache_dir=tmp_path)
    assert not record.failed, record.error
    assert isinstance(record.attrib, RunReport)
    record.attrib.check()
    assert record.attrib.total_cycles == record.report.cycles
    assert "_attrib" not in record.extras
    # cached rerun returns the identical artifact
    again = execute_job(job, cache_dir=tmp_path)
    assert again.cache_misses == 0
    assert again.attrib.to_dict() == record.attrib.to_dict()


def test_sweep_without_attrib_has_no_report(tmp_path):
    from repro.sweep.runner import SweepJob, execute_job
    record = execute_job(SweepJob(kernel="spmv", matrix="wiki-Vote",
                                  scale=SCALE), cache_dir=tmp_path)
    assert record.attrib is None


def test_sweep_result_attrib_reports(tmp_path):
    from repro.sweep import run_sweep, suite_jobs
    jobs = suite_jobs(kernel="sptrsv", matrices=["poisson3Da"],
                      scale=SCALE, attrib=True, lower=True)
    result = run_sweep(jobs, workers=1, cache_dir=tmp_path)
    result.raise_failures()
    reports = result.attrib_reports()
    assert set(reports) == {"sptrsv:poisson3Da/lower"}
    reports["sptrsv:poisson3Da/lower"].check()


# ----------------------------------------------------------------------
# switches: attribution is an argument, the obs variable is checked
# ----------------------------------------------------------------------
def test_attrib_is_an_argument(monkeypatch):
    monkeypatch.setenv(ATTRIB_VAR, "1")
    assert SweepJob().attrib is False
    job = SweepJob(kernel="spmv", matrix="wiki-Vote", scale=SCALE)
    assert execute_job(job, use_cache=False).attrib is None
    on = execute_job(SweepJob(kernel="spmv", matrix="wiki-Vote",
                              scale=SCALE, attrib=True), use_cache=False)
    assert isinstance(on.attrib, RunReport)
    on.attrib.check()


def test_obs_env_spelling_is_checked(monkeypatch, capsys):
    from repro.cli import main
    monkeypatch.setenv("PSYNCPIM_OBS", "maybe")
    assert main(["info"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PSYNCPIM_OBS must be one of")


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_cli_attrib_writes_bundle_and_html(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "bundle.json"
    html = tmp_path / "report.html"
    code = main(["attrib", "--kernel", "spmv", "--matrices", "wiki-Vote",
                 "--scale", str(SCALE), "--out", str(out),
                 "--html", str(html)])
    assert code == 0
    text = capsys.readouterr().out
    assert "cycle attribution" in text
    assert out.exists() and html.exists()
    assert "</html>" in html.read_text()
    loaded = load_reports(out)
    assert set(loaded) == {"spmv/wiki-Vote"}
    loaded["spmv/wiki-Vote"].check()


def test_cli_diff_reports_regression(tmp_path, capsys):
    from repro.cli import main
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    for strategy, path in (("paper", base), ("2d-grid", new)):
        assert main(["attrib", "--matrices", "webbase-1M", "--scale",
                     str(SCALE), "--strategy", strategy, "--quiet",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["diff", str(base), str(new)]) == 0
    text = capsys.readouterr().out
    assert "dominant changed category:" in text
    assert "webbase-1M" in text
    # the gate flips the exit code on a big regression
    assert main(["diff", str(base), str(new),
                 "--fail-above", "1.0"]) == 1
    assert main(["diff", str(new), str(base),
                 "--fail-above", "1.0"]) == 0


def test_cli_spmv_attrib_flag(capsys):
    from repro.cli import main
    assert main(["spmv", "--matrix", "wiki-Vote", "--scale", str(SCALE),
                 "--attrib"]) == 0
    text = capsys.readouterr().out
    assert "cycle attribution" in text
    assert "critical path" in text


def test_cli_sweep_attrib_out(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--kernel", "spmv", "--matrices", "wiki-Vote",
                 "--scale", str(SCALE), "--workers", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--attrib-out", str(out)]) == 0
    assert "attribution summary" in capsys.readouterr().out
    loaded = load_reports(out)
    assert set(loaded) == {"spmv:wiki-Vote"}
