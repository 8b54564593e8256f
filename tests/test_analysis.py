import dataclasses
import os
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from genneg import analysis, gmn, sdp, states
from genneg.analysis import (GeneratorKind, SweepSeries, default_grid,
                             ensemble_from_densities, ensemble_study,
                             log_derivative, robustness_report, series_csv_rows,
                             summary_csv_rows, sweep, write_csv)
from genneg.channels import ChannelKind


def blas_thread_counts() -> list:
    return [lib.get_threads() for lib in sdp._loaded_openblas()]


class TestLogDerivative:
    def test_exponential_is_exact(self):
        grid = np.linspace(0.1, 2.0, 20)
        eta = log_derivative(grid, np.exp(-2 * grid))
        assert np.max(np.abs(eta + 2)) < 1e-10

    def test_constant_gives_zero(self):
        grid = np.linspace(0, 1, 11)
        eta = log_derivative(grid, np.full(11, 0.37))
        assert np.max(np.abs(eta)) < 1e-12

    def test_requires_three_points(self):
        with pytest.raises(ValueError, match="3 points"):
            log_derivative(np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    def test_requires_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            log_derivative(np.array([0.0, 0.1, 0.3]), np.ones(3))

    def test_floor_marks_undefined(self):
        grid = np.linspace(0, 1, 5)
        values = np.array([1.0, 0.5, 1e-9, 0.5, 1.0])
        eta = log_derivative(grid, values)
        assert np.isnan(eta[1])  # central difference touches the bad point
        assert np.isnan(eta[2])
        assert np.isnan(eta[3])
        assert np.isfinite(eta[0])

    def test_second_order_convergence(self):
        # family with curvature in ln v: halving h shrinks the interior error
        # by at least 3x
        def worst_error(steps):
            grid = np.linspace(0.2, 1.2, steps)
            eta = log_derivative(grid, np.exp(np.sin(grid)))
            return np.max(np.abs(eta[1:-1] - np.cos(grid[1:-1])))

        assert worst_error(11) / worst_error(21) >= 3


class TestDefaultGrid:
    def test_channel_ranges(self):
        ad = default_grid(ChannelKind.AMPLITUDE_DAMPING)
        dp = default_grid(ChannelKind.DEPOLARIZING)
        assert len(ad) == 50 and ad[0] == 0.02 and ad[-1] == 1.0
        assert len(dp) == 50 and dp[-1] == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="smin < smax"):
            default_grid(ChannelKind.PHASE_DAMPING, smin=1.0, smax=0.5)
        with pytest.raises(ValueError, match="3 grid points"):
            default_grid(ChannelKind.PHASE_DAMPING, steps=2)
        with pytest.raises(ValueError, match="nonnegative"):
            default_grid(ChannelKind.PHASE_DAMPING, smin=-0.1)

    @pytest.mark.parametrize("smin, smax", [(0.02, np.inf), (0.02, np.nan), (np.nan, 1.0),
                                            (-np.inf, 1.0), (np.nan, None)])
    def test_non_finite_ends_are_refused(self, smin, smax):
        # np.linspace would warn (an error under the suite's filters) or
        # return a grid of NaN and inf
        with pytest.raises(ValueError, match="grid ends must be finite"):
            default_grid(ChannelKind.PHASE_DAMPING, smin=smin, smax=smax, steps=3)

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 0.2], [np.nan] * 3, [0.0, 0.1, np.inf],
                                      [-np.inf, 0.0, np.inf]])
    def test_non_finite_grid_is_refused_before_any_solve(self, monkeypatch, grid):
        monkeypatch.setattr(analysis, "genuine_negativity", lambda *args: pytest.fail("solved"))
        rho = states.to_density(states.named_state("ghz2"))
        with pytest.raises(ValueError, match="grid values must be finite"):
            sweep(rho, ChannelKind.PHASE_DAMPING, np.array(grid), 2, workers=1)
        with pytest.raises(ValueError, match="grid values must be finite"):
            log_derivative(np.array(grid), np.ones(3))


def test_generator_kind_has_one_home():
    assert analysis.GeneratorKind is states.GeneratorKind
    assert GeneratorKind.parse("WGS") is GeneratorKind.WEIGHTED_GRAPH
    assert GeneratorKind.parse(GeneratorKind.HAAR_RANDOM) is GeneratorKind.HAAR_RANDOM


@pytest.mark.parametrize("generator", ["haar", "wgs"])
def test_ensemble_members_are_random_states(monkeypatch, generator):
    built = []
    monkeypatch.setattr(analysis, "ensemble_from_densities",
                        lambda rhos, *args, **kwargs: built.extend(rhos))
    ensemble_study(generator, 3, ChannelKind.PHASE_DAMPING, np.linspace(0.1, 0.3, 3), 9, 3)
    expected = [states.to_density(states.random_state(generator, 3, states.derive_seed(9, i)))
                for i in range(3)]
    assert all(np.array_equal(a, b) for a, b in zip(built, expected, strict=True))


class TestSweep:
    def test_ghz3_dephasing_law_short_grid(self):
        rho = states.to_density(states.named_state("ghz3"))
        grid = np.linspace(0.02, 0.3, 8)
        series = sweep(rho, ChannelKind.PHASE_DAMPING, grid, 3, label="ghz3")
        assert series.ok
        law = 0.5 * np.exp(-1.5 * grid)
        assert np.max(np.abs(series.values - law)) < 1e-4
        assert np.max(np.abs(series.eta + 1.5)) < 2e-3
        assert series.kinks == []

    def test_ghz4_dephasing_law(self):
        rho = states.to_density(states.named_state("ghz4"))
        grid = np.linspace(0.1, 0.4, 4)
        series = sweep(rho, ChannelKind.PHASE_DAMPING, grid, 4, label="ghz4")
        assert series.ok
        assert np.max(np.abs(series.values - 0.5 * np.exp(-2 * grid))) <= 1e-6
        assert np.max(np.abs(series.eta + 2)) <= 2e-3

    def test_values_do_not_depend_on_worker_count(self):
        # in-process and pooled solves run on one BLAS thread each, so their
        # rounding is the same
        rho = states.to_density(states.named_state("w4"))
        grid = np.array([0.1, 0.2, 0.3])
        one = sweep(rho, ChannelKind.AMPLITUDE_DAMPING, grid, 4, workers=1)
        two = sweep(rho, ChannelKind.AMPLITUDE_DAMPING, grid, 4, workers=2)
        assert one.ok and two.ok
        assert one.values.tobytes() == two.values.tobytes()

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        # with the parent's OpenBLAS at 2 threads, a fresh pool's worker runs
        # every loaded OpenBLAS on 1 and the parent's counts stay at 2
        libs = sdp._loaded_openblas()
        if not libs:
            pytest.skip("no OpenBLAS library is loaded")
        saved = blas_thread_counts()
        monkeypatch.setattr(analysis, "_EXECUTORS", {})
        try:
            for lib in libs:
                lib.set_threads(2)
            pool = analysis._get_executor(2)
            try:
                worker = pool.submit(blas_thread_counts).result(timeout=60)
            finally:
                pool.shutdown()
            assert worker == [1] * len(libs)
            assert blas_thread_counts() == [2] * len(libs)
        finally:
            for lib, count in zip(libs, saved):
                lib.set_threads(count)

    def test_a_broken_pool_is_replaced(self):
        # a worker killed (or out of memory) breaks its pool for good: the
        # next call fails, and the one after it runs on a fresh pool
        rho = states.to_density(states.named_state("ghz2"))
        grid = np.array([0.1, 0.2, 0.3])
        assert sweep(rho, ChannelKind.PHASE_DAMPING, grid, 2, workers=2).ok
        pool = analysis._EXECUTORS[2]
        os.kill(pool.submit(os.getpid).result(timeout=60), signal.SIGKILL)
        # wait until the pool has seen the death, so the next sweep cannot
        # finish on the surviving worker first
        deadline = time.monotonic() + 60
        with pytest.raises(BrokenProcessPool):
            while time.monotonic() < deadline:
                pool.submit(int).result(timeout=60)
        with pytest.raises(BrokenProcessPool):
            sweep(rho, ChannelKind.PHASE_DAMPING, grid, 2, workers=2)
        assert 2 not in analysis._EXECUTORS
        series = sweep(rho, ChannelKind.PHASE_DAMPING, grid, 2, workers=2)
        assert series.ok
        assert analysis._EXECUTORS[2] is not pool

    @pytest.mark.parametrize("workers", [0, -3])
    def test_non_positive_worker_count_is_refused(self, workers):
        with pytest.raises(ValueError, match=f"^--workers/workers must be at least 1, got {workers}$"):
            analysis.resolve_workers(workers)
        rho = states.to_density(states.named_state("ghz2"))
        with pytest.raises(ValueError, match="--workers/workers must be at least 1"):
            sweep(rho, ChannelKind.PHASE_DAMPING, np.linspace(0.1, 0.3, 3), 2, workers=workers)

    def test_non_uniform_grid_is_refused_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "genuine_negativity", lambda *args: calls.append(args))
        rho = states.to_density(states.named_state("ghz2"))
        grid = np.array([0.1, 0.2, 0.4, 0.5])
        with pytest.raises(ValueError, match="requires a uniformly spaced grid"):
            sweep(rho, ChannelKind.PHASE_DAMPING, grid, 2, workers=1)
        with pytest.raises(ValueError, match="requires a uniformly spaced grid"):
            ensemble_from_densities([rho] * 3, GeneratorKind.HAAR_RANDOM,
                                    ChannelKind.PHASE_DAMPING, grid, 2, workers=1)
        assert calls == []

    def test_initial_value_at_zero(self):
        rho = states.to_density(states.named_state("ghz2"))
        grid = np.linspace(0.0, 0.2, 3)
        series = sweep(rho, ChannelKind.AMPLITUDE_DAMPING, grid, 2)
        assert abs(series.values[0] - 0.5) < 1e-6

    def test_product_state_all_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        grid = np.linspace(0.1, 0.5, 4)
        # E = 0 everywhere: ln E must be masked, not evaluated and then discarded
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            series = sweep(rho, ChannelKind.DEPOLARIZING, grid, 2)
        assert series.ok
        assert np.all(series.values == 0.0)
        assert np.all(np.isnan(series.eta))

    def test_failed_point_reports_its_bracket(self, monkeypatch):
        # one worker: the solves run in this process, where the patch holds
        monkeypatch.setattr(sdp, "MAX_ITERATIONS", 2)
        rho = states.to_density(states.named_state("ghz3"))
        grid = np.array([0.1, 0.2, 0.3])
        series = sweep(rho, ChannelKind.PHASE_DAMPING, grid, 3, workers=1)
        assert [s for s, _ in series.failures] == list(grid)
        assert np.all(np.isnan(series.values))
        for _, note in series.failures:
            assert note.startswith("solver status max_iterations (no convergence within 2 iterations); ")
            lo, hi = (float(v) for v in note.split("the bracket [")[1].split("]")[0].split(", "))
            width = float(note.split("did not close: width ")[1].split()[0])
            assert width == pytest.approx(hi - lo, rel=1e-2)
            assert width > gmn.BRACKET_TOL
            assert note.endswith(f"> {gmn.BRACKET_TOL:.0e}")

    def test_rejects_bad_grid(self):
        rho = states.to_density(states.named_state("ghz2"))
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(rho, ChannelKind.PHASE_DAMPING, np.array([0.2, 0.1, 0.3]), 2)


class TestEnsembles:
    def test_identical_members_collapse_ci(self):
        rho = states.to_density(states.named_state("ghz2"))
        grid = np.linspace(0.02, 0.3, 4)
        summary = ensemble_from_densities([rho, rho], GeneratorKind.HAAR_RANDOM,
                                          ChannelKind.AMPLITUDE_DAMPING, grid, 2)
        assert np.max(summary.variance_eta) < 1e-16
        assert np.allclose(summary.ci_low, summary.mean_eta)
        assert np.allclose(summary.ci_high, summary.mean_eta)

    def test_ci_ordering(self):
        grid = np.linspace(0.02, 0.4, 4)
        summary = ensemble_study(GeneratorKind.HAAR_RANDOM, 4,
                                 ChannelKind.AMPLITUDE_DAMPING, grid, seed=5, nqubits=2)
        assert np.all(summary.ci_low <= summary.mean_eta + 1e-15)
        assert np.all(summary.mean_eta <= summary.ci_high + 1e-15)
        assert summary.excluded == 0

    def test_determinism(self):
        grid = np.linspace(0.02, 0.4, 4)
        a = ensemble_study("haar", 3, ChannelKind.PHASE_DAMPING, grid, seed=9, nqubits=2)
        b = ensemble_study("haar", 3, ChannelKind.PHASE_DAMPING, grid, seed=9, nqubits=2)
        assert np.array_equal(a.mean_eta, b.mean_eta)
        assert np.array_equal(a.variance_eta, b.variance_eta)

    def test_exclusion_rule(self):
        # a product-state member has E = 0 < the lifetime floor everywhere
        rho_ent = states.to_density(states.named_state("ghz2"))
        product = np.zeros((4, 4), dtype=complex)
        product[0, 0] = 1.0
        grid = np.linspace(0.02, 0.3, 3)
        members = [rho_ent] * 20 + [product]
        summary = ensemble_from_densities(members, GeneratorKind.HAAR_RANDOM,
                                          ChannelKind.AMPLITUDE_DAMPING, grid, 2)
        assert summary.excluded == 1

    def test_excessive_exclusions_raise(self):
        rho_ent = states.to_density(states.named_state("ghz2"))
        product = np.zeros((4, 4), dtype=complex)
        product[0, 0] = 1.0
        grid = np.linspace(0.02, 0.3, 3)
        with pytest.raises(RuntimeError, match="fell below"):
            ensemble_from_densities([rho_ent, product], GeneratorKind.HAAR_RANDOM,
                                    ChannelKind.AMPLITUDE_DAMPING, grid, 2)

    def test_member_label_that_breaks_the_csv_is_refused(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(analysis, "genuine_negativity", no_solve)
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(ValueError, match="'m,1' cannot be a CSV field"):
            ensemble_from_densities([rho, rho], GeneratorKind.HAAR_RANDOM,
                                    ChannelKind.AMPLITUDE_DAMPING, np.linspace(0.02, 0.3, 3), 2,
                                    workers=1, member_labels=["m0", "m,1"])

    def test_count_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            ensemble_study("haar", 1, ChannelKind.AMPLITUDE_DAMPING,
                           np.linspace(0.02, 0.3, 3), seed=0, nqubits=2)

    def test_members_kept_on_request(self):
        grid = np.linspace(0.02, 0.3, 3)
        summary = ensemble_study("wgs", 3, ChannelKind.AMPLITUDE_DAMPING, grid,
                                 seed=3, nqubits=2, keep_members=True)
        assert summary.members is not None
        assert len(summary.members) == 3 - summary.excluded
        assert summary.members[0].label == "wgs2-r000"


def synthetic_series(label, channel, grid, eta):
    values = np.exp(np.cumsum(np.concatenate([[0.0], np.diff(grid) * eta[1:]])))
    return SweepSeries(label=label, channel=channel, grid=grid,
                       values=values, eta=np.asarray(eta, dtype=float))


class TestRobustnessReport:
    def test_ranking_and_winners(self):
        grid = np.linspace(0.0, 1.0, 5)
        a = synthetic_series("a", ChannelKind.PHASE_DAMPING, grid, np.full(5, -1.0))
        b = synthetic_series("b", ChannelKind.PHASE_DAMPING, grid, np.full(5, -2.0))
        c = synthetic_series("c", ChannelKind.PHASE_DAMPING, grid, np.full(5, -3.0))
        report = robustness_report([b, a, c])
        assert report.winners() == ["a"] * 5
        assert report.rankings()[0] == ["a", "b", "c"]
        assert report.always_leads("a")
        assert not report.always_leads("b")
        assert report.always_above("a", "b")
        assert not report.always_above("c", "b")

    def test_tolerant_leads_with_ties(self):
        grid = np.linspace(0.0, 1.0, 4)
        a = synthetic_series("a", ChannelKind.PHASE_DAMPING, grid, np.full(4, -1.0))
        b = synthetic_series("b", ChannelKind.PHASE_DAMPING, grid, np.full(4, -1.0 - 5e-7))
        report = robustness_report([a, b])
        assert report.always_leads("b", tol=1e-6)
        assert not report.always_leads("b", tol=1e-8)

    def test_grid_mismatch_rejected(self):
        g1 = np.linspace(0.0, 1.0, 4)
        g2 = np.linspace(0.0, 2.0, 4)
        a = synthetic_series("a", ChannelKind.PHASE_DAMPING, g1, np.full(4, -1.0))
        b = synthetic_series("b", ChannelKind.PHASE_DAMPING, g2, np.full(4, -2.0))
        with pytest.raises(ValueError, match="grid"):
            robustness_report([a, b])

    def test_channel_mismatch_rejected(self):
        grid = np.linspace(0.0, 1.0, 4)
        a = synthetic_series("a", ChannelKind.PHASE_DAMPING, grid, np.full(4, -1.0))
        b = synthetic_series("b", ChannelKind.DEPOLARIZING, grid, np.full(4, -2.0))
        with pytest.raises(ValueError, match="channel"):
            robustness_report([a, b])

    def test_to_text(self):
        grid = np.linspace(0.0, 1.0, 3)
        a = synthetic_series("a", ChannelKind.PHASE_DAMPING, grid, np.full(3, -1.0))
        text = robustness_report([a]).to_text()
        assert "s = 0.0000" in text and "a (" in text


class TestKinkDetection:
    def test_corner_is_reported(self):
        self.check_corner(0.5)

    @pytest.mark.parametrize("corner", [0.51, 0.525])
    def test_off_grid_corner_is_reported(self, corner):
        self.check_corner(corner)

    @staticmethod
    def check_corner(corner):
        # on the grid or between two grid points, the kink is named next to it
        grid = np.linspace(0.0, 1.0, 21)
        h = grid[1] - grid[0]
        values = np.where(grid < corner, np.exp(-grid),
                          np.exp(-corner) * np.exp(-9 * (grid - corner)))
        kinks = analysis._one_sided_kinks(grid, values)
        assert kinks
        assert all(abs(s_kink - corner) <= h + 1e-12 for s_kink, _, _ in kinks)
        s_kink, left, right = kinks[0]
        assert left == pytest.approx(-1, abs=0.5) and right < -5

    def test_smooth_curve_has_none(self):
        grid = np.linspace(0.0, 1.0, 21)
        values = np.exp(-2 * grid)
        assert analysis._one_sided_kinks(grid, values) == []

    def test_growing_curvature_has_none(self):
        # E = (1.05 - s)^2 dies just past the grid: (ln E)'' = 2/(1.05 - s)^2
        # rises to 200, so the slope jumps exceed KINK_FACTOR * h at the end,
        # but smoothly
        grid = np.linspace(0.0, 1.0, 21)
        h = grid[1] - grid[0]
        values = (1.05 - grid) ** 2
        jumps = np.abs(np.diff(np.log(values), 2)) / h
        assert jumps.max() > analysis.KINK_FACTOR * h
        assert analysis._one_sided_kinks(grid, values) == []


class TestCsv:
    def test_series_rows_format(self):
        grid = np.linspace(0.0, 1.0, 3)
        series = synthetic_series("ghz3", ChannelKind.PHASE_DAMPING, grid,
                                  np.array([-1.5, -1.5, np.nan]))
        rows = series_csv_rows(series)
        assert rows[0].startswith("ghz3,pd,0,")
        assert rows[0].endswith(",,")  # blank CI columns
        assert rows[2].split(",")[4] == ""  # undefined eta prints blank

    def test_twelve_significant_digits(self):
        grid = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])
        series = synthetic_series("x", ChannelKind.AMPLITUDE_DAMPING, grid,
                                  np.full(3, -1.234567890123456))
        rows = series_csv_rows(series)
        assert "-1.23456789012" in rows[0]

    def test_summary_rows_carry_ci(self):
        grid = np.linspace(0.02, 0.3, 3)
        summary = ensemble_study("haar", 2, ChannelKind.AMPLITUDE_DAMPING,
                                 grid, seed=1, nqubits=2, keep_members=True)
        rows = summary_csv_rows(dataclasses.replace(summary, members=None))
        first = rows[0].split(",")
        assert first[0] == "haar2-mean"
        assert first[5] != "" and first[6] != ""
        with_members = summary_csv_rows(summary)
        assert len(with_members) == len(rows) + len(summary.members) * len(grid)

    def test_write_csv_atomic_and_stable(self, tmp_path):
        rows = ["a,ad,0.1,0.5,-1,,"]
        p1 = tmp_path / "out.csv"
        write_csv(p1, rows)
        text = p1.read_text()
        assert text.splitlines()[0] == analysis.CSV_HEADER
        write_csv(p1, rows)
        assert p1.read_text() == text
        assert not list(tmp_path.glob("*.tmp"))
