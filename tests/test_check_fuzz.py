"""The ISA program fuzzer: lane-vs-reference agreement and self-tests.

The headline test runs 200+ seeded random programs through the lane
engine and the independent reference interpreter and requires
bitwise-identical architectural state and beat counts. The rest pins the
fuzzer's own machinery: determinism, block coverage, the shrinker, and
that an injected semantic bug is actually detected and reported with a
reproducer seed.
"""

import warnings

import numpy as np
import pytest

from repro.check import fuzz
from repro.check.fuzz import (build_case, fuzz_range, generate_case,
                              generate_spmm_case, run_case, shrink_case)
from repro.check.reference import ReferenceEngine
from repro.errors import CheckError
from repro.isa import CInstruction, Opcode

#: Tier-1 seed range (the CI fuzz-smoke job runs a disjoint range).
SEED_COUNT = 220


class TestThreeOracleAgreement:
    """The lane engine and the reference agree on every seed."""

    def test_seed_range_agrees(self):
        failures = fuzz_range(0, SEED_COUNT, shrink=False)
        assert failures == [], \
            f"{len(failures)} divergent seeds: {failures[:3]}"

    def test_overflowing_fold_agrees_without_warnings(self):
        """Seed 1172's MUL Reduce overflows to inf in both interpreters;
        the fold yields the IEEE result quietly, so numpy warns nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fuzz_range(1172, 1) == []

    @pytest.mark.parametrize("seed", [0, 7, 31, 101])
    def test_single_seed_runs_to_exit(self, seed):
        built = run_case(generate_case(seed))
        assert len(built.beats) > 0
        assert len(built.program) <= 32


class TestCaseGeneration:
    def test_generation_is_deterministic(self):
        assert generate_case(42) == generate_case(42)

    def test_build_is_deterministic(self):
        case = generate_case(42)
        a, b = build_case(case), build_case(case)
        assert a.beats == b.beats
        assert list(a.program) == list(b.program)
        for name in a.dense_data:
            for x, y in zip(a.dense_data[name], b.dense_data[name]):
                assert np.array_equal(x, y)

    def test_distinct_seeds_differ(self):
        assert generate_case(1) != generate_case(2)

    def test_block_kinds_all_covered(self):
        kinds = {block.kind
                 for seed in range(60)
                 for block in generate_case(seed).blocks}
        assert kinds == {"dense", "spmv", "gather", "merge"}

    def test_streaming_blocks_carry_cexit(self):
        """Every looped block must be exitable (paper §IV-D)."""
        for seed in range(40):
            program = build_case(generate_case(seed)).program
            jumps = [i for i in program
                     if isinstance(i, CInstruction)
                     and i.opcode is Opcode.JUMP]
            cexits = [i for i in program
                      if isinstance(i, CInstruction)
                      and i.opcode is Opcode.CEXIT]
            streaming = [j for j in jumps if j.imm1 > 4]
            if streaming:
                assert cexits, f"seed {seed}: unbounded loop, no CEXIT"

    def test_reproducer_names_seed(self):
        case = generate_case(77)
        assert "generate_case(77)" in case.reproducer()


class TestShrinker:
    def test_shrinks_to_single_block(self):
        case = generate_case(62)   # historically 3 blocks
        assert len(case.blocks) > 1

        def failed(c):
            return any(b.kind == "merge" for b in c.blocks)

        small = shrink_case(case, failed)
        assert failed(small)
        assert len(small.blocks) == 1
        assert small.stream_len <= case.stream_len
        assert small.num_banks == 1

    def test_shrink_keeps_failing_predicate(self):
        case = generate_case(5)

        def failed(c):
            return c.stream_len >= 6   # always true

        small = shrink_case(case, failed)
        assert failed(small)
        assert len(small.blocks) == 1


class TestBugDetection:
    """An injected semantic bug must surface as a CheckError + seed."""

    def _seed_with(self, kind):
        for seed in range(200):
            case = generate_case(seed)
            if any(b.kind == kind for b in case.blocks):
                return seed, case
        raise AssertionError(f"no {kind} block in 200 seeds")

    def test_broken_reference_reduce_is_caught(self, monkeypatch):
        seed, case = self._seed_with("dense")
        real = fuzz.ReferenceEngine

        class Broken(ReferenceEngine):
            def _reduce(self, bank, ins):
                super()._reduce(bank, ins)
                bank.srf += 1.0

        monkeypatch.setattr(fuzz, "ReferenceEngine", Broken)
        with pytest.raises(CheckError, match=f"generate_case\\({seed}\\)"):
            run_case(case)
        monkeypatch.setattr(fuzz, "ReferenceEngine", real)
        run_case(case)   # sanity: the unbroken oracle passes

    def test_broken_exit_state_is_caught(self, monkeypatch):
        seed, case = self._seed_with("spmv")

        class Broken(ReferenceEngine):
            def run(self, beats):
                consumed = super().run(beats)
                self.banks[0].exhausted_mask = 0x7
                return consumed

        monkeypatch.setattr(fuzz, "ReferenceEngine", Broken)
        with pytest.raises(CheckError, match="exhausted_mask"):
            run_case(case)

    def test_fuzz_range_reports_and_shrinks(self, monkeypatch):
        class Broken(ReferenceEngine):
            def _reduce(self, bank, ins):
                super()._reduce(bank, ins)
                bank.srf += 1.0

        monkeypatch.setattr(fuzz, "ReferenceEngine", Broken)
        seed, _ = self._seed_with("dense")
        failures = fuzz_range(seed, 1, shrink=True)
        assert len(failures) == 1
        assert failures[0][0] == seed
        assert "reproduce" in failures[0][1]

    def test_fuzz_range_draws_from_the_given_generator(self, monkeypatch):
        seen = []
        real = fuzz.run_case

        def spy(case, *args, **kwargs):
            seen.append((case.seed, case.generator))
            return real(case, *args, **kwargs)

        monkeypatch.setattr(fuzz, "run_case", spy)
        assert fuzz_range(2000, 12, shrink=False,
                          generator=generate_spmm_case) == []
        assert seen == [(seed, "generate_spmm_case")
                        for seed in range(2000, 2012)]


class TestStaticExpansion:
    def test_beat_stream_is_bounded(self):
        for seed in range(40):
            assert len(build_case(generate_case(seed)).beats) \
                <= fuzz.MAX_BEATS

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_truncated_stream_agreement(self, seed):
        """Agreement must hold even when the stream is cut short —
        mid-kernel state is architectural state too."""
        from repro.pim import LaneEngine

        case = generate_case(seed)
        built = build_case(case)
        built.beats = built.beats[:max(1, len(built.beats) // 2)]
        lane = LaneEngine(case.num_banks, precision=case.precision)
        ref = ReferenceEngine(case.num_banks, precision=case.precision)
        assert fuzz.drive(lane, built) == fuzz.drive(ref, built)
        assert fuzz.engine_diff(lane, ref) is None

    def test_predicated_beat_count_is_compared(self, monkeypatch):
        """A reference that miscounts predicated beats fails the case."""
        seed, case = TestBugDetection()._seed_with("spmv")

        class Broken(ReferenceEngine):
            def run(self, beats):
                consumed = super().run(beats)
                self.stats.predicated_beats += 1
                return consumed

        monkeypatch.setattr(fuzz, "ReferenceEngine", Broken)
        with pytest.raises(CheckError, match="predicated_beats"):
            run_case(case)
