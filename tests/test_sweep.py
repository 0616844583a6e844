"""Tests for repro.sweep — parallel sweeps with artifact caching."""

import pickle

import numpy as np
import pytest

from repro import PSyncPIM
from repro.analysis import SweepResult
from repro.config import default_system
from repro.core import plan_spmv, run_spmv, time_spmv
from repro.errors import ExecutionError
from repro.formats import generate
from repro.sweep import (CACHE_DIR_ENV, LEGACY_SCALE_ENV, SCALE_ENV,
                         WORKERS_ENV, ArtifactCache, SweepJob,
                         default_cache_dir, execute_job, matrix_digest,
                         resolve_bench_scale, resolve_workers, run_sweep,
                         stable_digest, suite_jobs)

MATRIX = "facebook"
SCALE = 0.05


def spmv_job(matrix=MATRIX, **kwargs):
    kwargs.setdefault("scale", SCALE)
    return SweepJob(kernel="spmv", matrix=matrix, **kwargs)


# ----------------------------------------------------------------------
# stable digests
# ----------------------------------------------------------------------
class TestStableDigest:
    def test_deterministic_across_calls(self):
        cfg = default_system()
        assert stable_digest(cfg, 1.5, "x") == stable_digest(cfg, 1.5, "x")

    def test_distinguishes_values_and_types(self):
        assert stable_digest(1) != stable_digest(1.0)
        assert stable_digest("ab", "c") != stable_digest("a", "bc")
        assert stable_digest(None) != stable_digest(0)

    def test_matrix_digest_tracks_content(self):
        a = generate(MATRIX, scale=SCALE)
        b = generate(MATRIX, scale=SCALE)
        assert matrix_digest(a) == matrix_digest(b)
        changed = a.copy()
        changed.vals[0] += 1.0
        assert matrix_digest(changed) != matrix_digest(a)

    def test_array_digest_covers_dtype_and_shape(self):
        data = np.arange(6, dtype=np.int64)
        assert stable_digest(data) != stable_digest(data.astype(np.float64))
        assert stable_digest(data) != stable_digest(data.reshape(2, 3))

    def test_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            stable_digest(object())


class TestCacheVersion:
    """One pricing pass per job: ``schedule`` artifacts carry the
    RunReport and the ``attrib`` kind is gone, so the layout is v8."""

    def test_version_is_eight(self):
        from repro.sweep.cache import CACHE_VERSION
        assert CACHE_VERSION == 8

    def test_version_participates_in_every_digest(self, monkeypatch):
        # Pre-v8 artifacts (keyed under CACHE_VERSION=7, whose schedule
        # entries hold a bare PerfReport) must never be served: the
        # version is folded into stable_digest, so bumping it rotates
        # every key.
        from repro.sweep import cache as cache_mod
        current = cache_mod.stable_digest("spmv-plan", MATRIX)
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", 7)
        previous = cache_mod.stable_digest("spmv-plan", MATRIX)
        assert current != previous

    def test_stale_version_artifact_is_not_served(self, tmp_path,
                                                  monkeypatch):
        from repro.sweep import cache as cache_mod
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", 7)
        old_key = cache.key("kernel", MATRIX)
        cache.store("plan", old_key, {"stale": True})
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", 8)
        new_key = cache.key("kernel", MATRIX)
        assert new_key != old_key
        computed = cache.get_or_compute("plan", new_key,
                                        lambda: {"stale": False})
        assert computed == {"stale": False}
        assert cache.misses["plan"] == 1


# ----------------------------------------------------------------------
# the artifact cache
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []
        key = cache.key("k")
        for _ in range(2):
            value = cache.get_or_compute("plan", key,
                                         lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert cache.hits == {"plan": 1}
        assert cache.misses == {"plan": 1}
        assert cache.counters() == {"plan": (1, 1)}

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path, enabled=False)
        key = cache.key("k")
        assert cache.get_or_compute("plan", key, lambda: 1) == 1
        assert cache.get_or_compute("plan", key, lambda: 2) == 2
        assert cache.hit_count == 0 and cache.miss_count == 2
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_is_recomputed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key("k")
        cache.get_or_compute("plan", key, lambda: 7)
        cache.path("plan", key).write_bytes(b"not a pickle")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get_or_compute("plan", key, lambda: 7) == 7
        assert fresh.miss_count == 1
        # and the entry healed: a third cache now hits
        assert ArtifactCache(tmp_path).load("plan", key) == 7

    def test_fuzz_results_ride_the_cache(self, tmp_path):
        job = SweepJob(kernel="fuzz", matrix="isa-programs", seed=0)
        first = execute_job(job, cache_dir=tmp_path)
        assert first.error == ""
        assert first.extras["seed_count"] > 0
        again = execute_job(job, cache_dir=tmp_path)
        assert again.cache_hits == 1 and again.cache_misses == 0
        assert again.extras == first.extras

    def test_env_var_resolves_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        assert ArtifactCache().root == tmp_path / "custom"

    def test_clear_removes_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("plan", cache.key("a"), 1)
        cache.store("trace", cache.key("b"), 2)
        assert cache.clear() == 2
        assert not cache.path("plan", cache.key("a")).exists()
        assert not cache.path("trace", cache.key("b")).exists()


# ----------------------------------------------------------------------
# cache integrity (content-hash verification on load)
# ----------------------------------------------------------------------
class TestCacheIntegrity:
    """A cached artifact must load byte-identical or not at all."""

    def _stored(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = {"trace": np.arange(64, dtype=np.float64),
                 "cycles": 12345}
        key = cache.key("integrity")
        cache.store("trace", key, value)
        return cache, key, value, cache.path("trace", key)

    def test_random_bit_flips_always_detected(self, tmp_path):
        """Property: any single bit flip anywhere in the file is a miss
        that recomputation heals — never a silently corrupt artifact."""
        cache, key, value, path = self._stored(tmp_path)
        pristine = path.read_bytes()
        rng = np.random.default_rng(2024)
        for _ in range(40):
            offset = int(rng.integers(len(pristine)))
            bit = 1 << int(rng.integers(8))
            tampered = bytearray(pristine)
            tampered[offset] ^= bit
            path.write_bytes(bytes(tampered))
            fresh = ArtifactCache(tmp_path)
            loaded = fresh.get_or_compute("trace", key, lambda: value)
            assert fresh.miss_count == 1, \
                f"bit flip at byte {offset} went undetected"
            assert np.array_equal(loaded["trace"], value["trace"])
        # the last recompute healed the file
        assert ArtifactCache(tmp_path).load("trace", key)["cycles"] == 12345

    def test_truncation_detected(self, tmp_path):
        cache, key, value, path = self._stored(tmp_path)
        data = path.read_bytes()
        for cut in (0, 4, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            fresh = ArtifactCache(tmp_path)
            assert fresh.get_or_compute("trace", key, lambda: "fresh") \
                == "fresh", f"truncation to {cut} bytes went undetected"

    def test_headerless_legacy_file_is_a_miss(self, tmp_path):
        cache, key, value, path = self._stored(tmp_path)
        # a pre-v4 file: bare pickle, no magic/hash header
        path.write_bytes(pickle.dumps(value))
        fresh = ArtifactCache(tmp_path)
        assert fresh.get_or_compute("trace", key, lambda: 99) == 99
        assert fresh.miss_count == 1

    def test_intact_roundtrip_preserves_arrays_bitwise(self, tmp_path):
        cache, key, value, path = self._stored(tmp_path)
        loaded = ArtifactCache(tmp_path).load("trace", key)
        assert loaded["trace"].tobytes() == value["trace"].tobytes()


# ----------------------------------------------------------------------
# environment knobs (the CI escape hatches)
# ----------------------------------------------------------------------
class TestEnvironmentKnobs:
    def test_scale_default(self):
        assert resolve_bench_scale(environ={}) == pytest.approx(0.05)

    def test_psyncpim_scale_overrides(self):
        env = {SCALE_ENV: "0.02", LEGACY_SCALE_ENV: "0.5"}
        assert resolve_bench_scale(environ=env) == pytest.approx(0.02)

    def test_legacy_scale_still_honoured(self):
        env = {LEGACY_SCALE_ENV: "0.25"}
        assert resolve_bench_scale(environ=env) == pytest.approx(0.25)

    def test_scale_override_via_process_env(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV, "0.125")
        assert resolve_bench_scale() == pytest.approx(0.125)

    def test_bad_scale_raises(self):
        with pytest.raises(ExecutionError):
            resolve_bench_scale(environ={SCALE_ENV: "tiny"})
        with pytest.raises(ExecutionError):
            resolve_bench_scale(environ={SCALE_ENV: "-1"})

    def test_workers_env_and_floor(self):
        assert resolve_workers(environ={WORKERS_ENV: "7"}) == 7
        assert resolve_workers(environ={WORKERS_ENV: "0"}) == 1
        assert resolve_workers(environ={}, default=3) == 3
        assert resolve_workers(environ={}) >= 1
        with pytest.raises(ExecutionError):
            resolve_workers(environ={WORKERS_ENV: "many"})


# ----------------------------------------------------------------------
# job execution
# ----------------------------------------------------------------------
class TestExecuteJob:
    def test_spmv_matches_direct_pipeline(self, tmp_path):
        record = execute_job(spmv_job(), cache_dir=tmp_path)
        matrix = generate(MATRIX, scale=SCALE)
        cfg = default_system()
        _, _, execution = plan_spmv(matrix, cfg)
        expected = time_spmv(execution, cfg)
        assert record.report == expected
        assert record.seconds == expected.seconds
        assert record.extras["nnz"] == matrix.nnz
        assert record.extras["rows"] == matrix.shape[0]

    def test_pb_mode_costs_more(self, tmp_path):
        ab = execute_job(spmv_job(), cache_dir=tmp_path)
        pb = execute_job(spmv_job(mode="pb"), cache_dir=tmp_path)
        assert pb.report.seconds > ab.report.seconds

    def test_sptrsv_solves_and_prices(self, tmp_path):
        record = execute_job(SweepJob(kernel="sptrsv", matrix="poisson3Da",
                                      scale=SCALE), cache_dir=tmp_path)
        assert record.report.seconds > 0
        assert record.extras["residual"] < 1e-8
        assert record.extras["levels"] >= 1
        assert record.label == "sptrsv:poisson3Da/lower"

    def test_suite_kernel_materialises_matrix(self, tmp_path):
        record = execute_job(SweepJob(kernel="suite", matrix=MATRIX,
                                      scale=SCALE), cache_dir=tmp_path)
        assert record.report is None
        assert record.extras["matrix"] == generate(MATRIX, scale=SCALE)
        assert record.extras["kind"]

    def test_unknown_kernel_raises(self, tmp_path):
        with pytest.raises(ExecutionError):
            execute_job(SweepJob(kernel="spgemm"), cache_dir=tmp_path)

    def test_energy_rides_on_cached_trace(self, tmp_path):
        plain = execute_job(spmv_job(), cache_dir=tmp_path)
        assert plain.report.energy is None
        energetic = execute_job(spmv_job(with_energy=True),
                                cache_dir=tmp_path)
        assert energetic.report.energy is not None
        # same schedule, differently priced: the trace stage was reused
        assert energetic.report.cycles == plain.report.cycles


# ----------------------------------------------------------------------
# sweeps: caching semantics and aggregation
# ----------------------------------------------------------------------
class TestRunSweep:
    def test_cached_rerun_hits_everywhere_and_is_bitwise_identical(
            self, tmp_path):
        jobs = [spmv_job(), spmv_job(num_cubes=3), spmv_job(mode="pb")]
        cold = run_sweep(jobs, workers=1, cache_dir=tmp_path)
        warm = run_sweep(jobs, workers=1, cache_dir=tmp_path)
        uncached = run_sweep(jobs, workers=1, cache_dir=tmp_path,
                             use_cache=False)
        # first job is fully cold; the pb job then reuses the shared plan
        assert cold.records[0].cache_hits == 0
        assert cold.cache_misses > 0 and not cold.all_cached
        assert warm.all_cached and warm.cache_misses == 0
        assert not uncached.cache_enabled
        for label in cold.labels:
            # PerfReport dataclasses compare field-by-field, energy and
            # command counts included: cached == recomputed, bit for bit.
            assert warm.report(label) == cold.report(label)
            assert uncached.report(label) == cold.report(label)

    def test_order_and_labels_preserved(self, tmp_path):
        jobs = [spmv_job(), spmv_job(matrix="wiki-Vote")]
        result = run_sweep(jobs, workers=1, cache_dir=tmp_path)
        assert result.labels == [f"spmv:{MATRIX}", "spmv:wiki-Vote"]
        assert [record.matrix for record in result] == [MATRIX, "wiki-Vote"]
        with pytest.raises(KeyError):
            result.record("spmv:nonesuch")

    def test_process_pool_matches_serial(self, tmp_path):
        jobs = [spmv_job(), spmv_job(matrix="wiki-Vote"),
                spmv_job(matrix="ca-CondMat")]
        serial = run_sweep(jobs, workers=1, cache_dir=tmp_path / "serial")
        pooled = run_sweep(jobs, workers=2, cache_dir=tmp_path / "pooled")
        assert pooled.workers == 2
        for label in serial.labels:
            assert pooled.report(label) == serial.report(label)

    def test_aggregation_metrics(self, tmp_path):
        result = run_sweep([spmv_job(), spmv_job(matrix="wiki-Vote")],
                           workers=1, cache_dir=tmp_path)
        assert len(result) == 2
        assert result.busy_seconds > 0
        assert result.wall_seconds >= result.busy_seconds * 0.5
        assert 0.0 < result.worker_utilisation <= 1.0
        assert 0.0 <= result.hit_rate <= 1.0
        text = result.summary_table()
        assert f"spmv:{MATRIX}" in text
        assert "utilisation" in text and "hit rate" in text

    def test_records_pickle_roundtrip(self, tmp_path):
        record = execute_job(spmv_job(), cache_dir=tmp_path)
        clone = pickle.loads(pickle.dumps(record))
        assert clone.report == record.report
        assert clone.label == record.label

    def test_suite_jobs_expands_sptrsv_factors(self):
        jobs = suite_jobs(kernel="sptrsv", matrices=["poisson3Da"],
                          scale=SCALE)
        assert [job.lower for job in jobs] == [True, False]
        jobs = suite_jobs(kernel="spmv", matrices=["cant"], scale=SCALE)
        assert len(jobs) == 1
        assert suite_jobs(kernel="suite", scale=SCALE)[0].kernel == "suite"
        with pytest.raises(ExecutionError):
            suite_jobs(kernel="bogus")


# ----------------------------------------------------------------------
# runtime and CLI surfaces
# ----------------------------------------------------------------------
class TestRuntimeSweep:
    def test_psyncpim_sweep_inherits_runtime_settings(self, tmp_path):
        pim = PSyncPIM(num_cubes=3, precision="fp32")
        result = pim.sweep([MATRIX], scale=SCALE, workers=1,
                           cache_dir=tmp_path)
        assert isinstance(result, SweepResult)
        record = result.records[0]
        assert record.job.num_cubes == 3
        assert record.job.precision == "fp32"
        # 3 cubes triple the banks: same matrix spreads further
        solo = run_spmv(generate(MATRIX, scale=SCALE),
                        np.ones(generate(MATRIX, scale=SCALE).shape[1]),
                        default_system(3), precision="fp32")
        assert record.extras["rounds"] == solo.execution.num_rounds

    def test_prebuilt_jobs_pass_through(self, tmp_path):
        job = SweepJob(kernel="suite", matrix=MATRIX, scale=SCALE)
        result = PSyncPIM().sweep([job], workers=1, cache_dir=tmp_path)
        assert result.labels == [f"suite:{MATRIX}"]


class TestSweepCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    def test_sweep_verb_prints_summary(self, capsys, tmp_path):
        code, out = self.run_cli(
            capsys, "sweep", "--matrices", f"{MATRIX},wiki-Vote",
            "--scale", str(SCALE), "--workers", "1",
            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "2 spmv jobs over 2 matrices" in out
        assert f"spmv:{MATRIX}" in out
        assert "misses" in out

    def test_second_sweep_reports_cache_hits(self, capsys, tmp_path):
        args = ("sweep", "--matrices", MATRIX, "--scale", str(SCALE),
                "--workers", "1", "--cache-dir", str(tmp_path))
        self.run_cli(capsys, *args)
        code, out = self.run_cli(capsys, *args)
        assert code == 0
        assert "hit rate 100%" in out

    def test_no_cache_flag(self, capsys, tmp_path):
        code, out = self.run_cli(
            capsys, "sweep", "--matrices", MATRIX, "--scale", str(SCALE),
            "--workers", "1", "--cache-dir", str(tmp_path), "--no-cache")
        assert code == 0
        assert "disabled (--no-cache)" in out
        assert not any(tmp_path.iterdir())

    def test_sptrsv_sweep_covers_both_factors(self, capsys, tmp_path):
        code, out = self.run_cli(
            capsys, "sweep", "--kernel", "sptrsv", "--matrices",
            "poisson3Da", "--scale", str(SCALE), "--workers", "1",
            "--cache-dir", str(tmp_path))
        assert code == 0
        assert "sptrsv:poisson3Da/lower" in out
        assert "sptrsv:poisson3Da/upper" in out

    def test_batch_flag_reaches_summary(self, capsys, tmp_path):
        code, out = self.run_cli(
            capsys, "sweep", "--matrices", MATRIX, "--scale", str(SCALE),
            "--workers", "1", "--cache-dir", str(tmp_path),
            "--batch", "jobs")
        assert code == 0
        assert "batch: jobs" in out
        assert "jobs/s" in out


# ----------------------------------------------------------------------
# batched execution: jobs x banks rounds must be invisible in the output
# ----------------------------------------------------------------------
def _listing(root):
    import os
    files = []
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            files.append(os.path.relpath(path, root))
    return sorted(files)


def _assert_results_match(off, batched):
    assert batched.labels == off.labels
    for a, b in zip(off.records, batched.records):
        assert b.error == a.error
        assert b.report == a.report
        assert b.extras == a.extras
        assert (b.cache_hits, b.cache_misses) \
            == (a.cache_hits, a.cache_misses)


class TestBatchSweep:
    def test_spmv_batch_matches_per_job(self, tmp_path):
        jobs = [spmv_job(), spmv_job(matrix="wiki-Vote"),
                spmv_job(num_cubes=3)]
        off = run_sweep(jobs, workers=1, cache_dir=tmp_path / "off",
                        batch="off")
        batched = run_sweep(jobs, workers=1, cache_dir=tmp_path / "jobs",
                            batch="jobs")
        assert off.batch == "off" and batched.batch == "jobs"
        _assert_results_match(off, batched)
        # identical pipelines populate identical cache entries
        assert _listing(tmp_path / "jobs") == _listing(tmp_path / "off")

    def test_batch_mode_with_worker_pool(self, tmp_path):
        jobs = [spmv_job(), spmv_job(matrix="wiki-Vote"),
                spmv_job(matrix="ca-CondMat")]
        off = run_sweep(jobs, workers=1, cache_dir=tmp_path / "off")
        batched = run_sweep(jobs, workers=2, cache_dir=tmp_path / "jobs",
                            batch="jobs")
        _assert_results_match(off, batched)

    def test_fuzz_kernel_batch_parity(self, tmp_path):
        jobs = suite_jobs(kernel="fuzz", scale=SCALE)[:2]
        off = run_sweep(jobs, workers=1, cache_dir=tmp_path / "off",
                        batch="off")
        batched = run_sweep(jobs, workers=1, cache_dir=tmp_path / "jobs",
                            batch="jobs")
        _assert_results_match(off, batched)
        assert _listing(tmp_path / "jobs") == _listing(tmp_path / "off")
        assert all(record.extras["divergences"] == 0 for record in batched)

    def test_env_knob_selects_batch_mode(self, tmp_path, monkeypatch):
        from repro.config import BATCH_ENV
        monkeypatch.setenv(BATCH_ENV, "jobs")
        result = run_sweep([spmv_job()], workers=1, cache_dir=tmp_path)
        assert result.batch == "jobs"
        monkeypatch.setenv(BATCH_ENV, "nonsense")
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown batch mode"):
            run_sweep([spmv_job()], workers=1, cache_dir=tmp_path)

    def test_execute_batch_groups_one_engine_round(self, tmp_path):
        from repro.sweep import execute_batch
        jobs = [spmv_job(), spmv_job(matrix="wiki-Vote")]
        records = execute_batch(jobs, cache_dir=tmp_path)
        assert [record.label for record in records] \
            == [f"spmv:{MATRIX}", "spmv:wiki-Vote"]
        solo = execute_job(spmv_job(), cache_dir=tmp_path / "solo")
        assert records[0].report == solo.report


# ----------------------------------------------------------------------
# one SpMV/SpMM pipeline: spmv jobs are the k = 1 case
# ----------------------------------------------------------------------
class TestSpmvThroughSpmmPipeline:
    def test_spmv_job_ignores_rhs_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("PSYNCPIM_RHS", raising=False)
        plain = execute_job(spmv_job(attrib=True),
                            cache_dir=tmp_path / "plain")
        monkeypatch.setenv("PSYNCPIM_RHS", "4")
        widened = execute_job(spmv_job(attrib=True),
                              cache_dir=tmp_path / "env")
        for record in (plain, widened):
            assert not record.failed, record.error
            assert record.kernel == "spmv"
            assert record.attrib.kind == "spmv"
            assert "rhs" not in record.extras
            assert "cycles_per_rhs" not in record.extras
        assert widened.label == plain.label == f"spmv:{MATRIX}"
        assert widened.report == plain.report
        assert widened.extras == plain.extras
        assert widened.attrib.to_dict() == plain.attrib.to_dict()

    def test_spmm_at_one_rhs_prices_like_spmv(self, tmp_path):
        spmv = execute_job(spmv_job(), cache_dir=tmp_path)
        spmm = execute_job(SweepJob(kernel="spmm", matrix=MATRIX,
                                    scale=SCALE, rhs=1),
                           cache_dir=tmp_path)
        assert spmm.report.cycles == spmv.report.cycles
        assert spmm.report == spmv.report
        assert spmm.extras["rhs"] == 1
        assert spmm.extras["cycles_per_rhs"] == spmv.report.cycles


class TestAttribCacheIdentity:
    """A cached RunReport carries the identity of the job that asked."""

    def test_label_is_not_shared_through_the_cache(self, tmp_path):
        first, second = (execute_job(
            SweepJob(kernel="spmv", matrix="cant", scale=0.01,
                     attrib=True, label=label), cache_dir=tmp_path)
            for label in ("first", "second"))
        assert first.attrib.label == "first"
        assert second.attrib.label == "second"
        assert second.attrib.total_cycles == first.attrib.total_cycles

    def test_kind_is_not_shared_through_the_cache(self, tmp_path):
        spmv = execute_job(spmv_job(attrib=True), cache_dir=tmp_path)
        spmm = execute_job(SweepJob(kernel="spmm", matrix=MATRIX,
                                    scale=SCALE, rhs=1, attrib=True),
                           cache_dir=tmp_path)
        assert (spmv.attrib.kind, spmm.attrib.kind) == ("spmv", "spmm")
        assert spmm.attrib.label == f"spmm:{MATRIX}/k1"

    def test_sptrsv_label_is_not_shared_through_the_cache(self, tmp_path):
        reports = [execute_job(
            SweepJob(kernel="sptrsv", matrix="poisson3Da", scale=0.05,
                     attrib=True, label=label), cache_dir=tmp_path).attrib
            for label in ("a", "b")]
        assert [r.label for r in reports] == ["a", "b"]
