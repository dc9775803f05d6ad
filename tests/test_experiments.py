"""Packets, ratio experiments, reporting, and the scaling-law check."""

import json

import numpy as np
import pytest

from gbolab.experiments import (
    ExperimentReport,
    RatioStatistics,
    check_wraparound,
    embed_field,
    estimate_ratio,
    free_evolution_spacetime,
    kato_smoothing_ratio,
    lowfreq_ratio,
    make_packet_ensemble,
    maximal_function_ratio,
    max_active_frequency,
    plane_wave,
    plane_wave_growth_exponent,
    scaling_invariance_check,
    write_report_csv,
    write_report_json,
    xst_group_ratio,
)
from gbolab.norms import sobolev_norm
from gbolab.spectral import field_from_values, free_evolve, make_grid

GRID = make_grid(512, 40.0)


# ---------------------------------------------------------------------------
# Packet ensembles.


class TestPackets:
    def test_fields_are_real_with_zero_mean(self):
        fields = make_packet_ensemble(GRID, 8, seed=3)
        for f in fields:
            assert f.real
            assert abs(f.values.sum() * GRID.dx) < 1e-12

    def test_seed_reproducibility(self):
        a = make_packet_ensemble(GRID, 4, seed=11)
        b = make_packet_ensemble(GRID, 4, seed=11)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_conjugate_symmetry_is_exact(self):
        dc = GRID.n // 2
        for f in make_packet_ensemble(GRID, 3, seed=5):
            c = f.coeffs
            assert c[0] == 0 and c[dc] == 0
            np.testing.assert_array_equal(c[dc - 1 : 0 : -1], np.conj(c[dc + 1 :]))

    def test_modulated_centers_in_range(self):
        fields = make_packet_ensemble(GRID, 16, seed=5, kind="modulated")
        for f in fields:
            peak = max_active_frequency(f, rel_tol=0.5)
            assert 4.0 < peak < GRID.xi_max / 2

    def test_broadband_concentrates_low(self):
        fields = make_packet_ensemble(GRID, 8, seed=7, kind="broadband")
        for f in fields:
            assert max_active_frequency(f) < 8.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_packet_ensemble(GRID, 2, seed=0, kind="chirp")

    def test_max_active_frequency_single_mode(self):
        f = plane_wave(GRID, 13)
        xi13 = 13 * GRID.dxi
        assert max_active_frequency(f) == pytest.approx(xi13)

    def test_wraparound_guard_trips(self):
        f = plane_wave(GRID, 200)
        with pytest.raises(ValueError, match="wrap-around"):
            check_wraparound([f], T=5.0)

    def test_wraparound_guard_passes_short_time(self):
        f = plane_wave(GRID, 10)
        check_wraparound([f], T=0.5)

    def test_embed_preserves_values_and_coeffs(self):
        fields = make_packet_ensemble(GRID, 1, seed=2)
        fine = embed_field(fields[0], 2)
        assert fine.grid.n == 2 * GRID.n
        assert fine.grid.length == GRID.length
        np.testing.assert_allclose(fine.values[::2], fields[0].values, atol=1e-12)
        # identical content means identical Sobolev norms
        for s in (0.0, 0.5):
            assert sobolev_norm(fine, s) == pytest.approx(
                sobolev_norm(fields[0], s), rel=1e-12
            )

    def test_embed_requires_power_of_two(self):
        fields = make_packet_ensemble(GRID, 1, seed=2)
        with pytest.raises(ValueError):
            embed_field(fields[0], 3)

    def test_plane_wave_is_unit_exponential(self):
        f = plane_wave(GRID, 4)
        expected = np.exp(2j * np.pi * 4 * GRID.x / GRID.length)
        np.testing.assert_allclose(f.values, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Free evolution in space-time and single ratios.


class TestEstimateRatios:
    def test_spacetime_slices_solve_linear_flow(self):
        f = plane_wave(GRID, 6)
        st = free_evolution_spacetime(f, T=0.25, n_time=16)
        assert st.n_times == 17
        # linear flow preserves every Sobolev norm slice by slice
        for idx in (0, 8, 16):
            assert sobolev_norm(st.slice_field(idx), 0.0) == pytest.approx(
                sobolev_norm(f, 0.0), rel=1e-12
            )

    @pytest.mark.parametrize("real", [True, False])
    def test_spacetime_rows_are_free_evolutions(self, real):
        f = make_packet_ensemble(GRID, 1, seed=2)[0] if real else plane_wave(GRID, 5)
        st = free_evolution_spacetime(f, T=0.1, n_time=8)
        for t, row in zip(st.times, st.slices):
            expected = free_evolve(f, t).values
            np.testing.assert_allclose(row, expected.real if real else expected,
                                       rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))

    def test_zero_data_rejected(self):
        zero = field_from_values(GRID, np.zeros(GRID.n))
        with pytest.raises(ValueError):
            estimate_ratio(zero, T=0.5, estimate="kato")

    def test_unknown_estimate_name(self):
        f = plane_wave(GRID, 4)
        with pytest.raises(ValueError, match="unknown estimate"):
            estimate_ratio(f, T=0.5, estimate="strichartz")

    def test_single_mode_kato_ratio_closed_form(self):
        # |e^{i t xi |xi|}| = 1, so the left side is xi^{1/2} sqrt(T) at
        # every x and the right side is sqrt(L); the ratio collapses to
        # sqrt(xi T / L).
        mode, T = 8, 0.25
        f = plane_wave(GRID, mode)
        xi = mode * GRID.dxi
        measured = estimate_ratio(f, T=T, estimate="kato", n_time=256)
        assert measured == pytest.approx(np.sqrt(xi * T / GRID.length), rel=1e-6)

    def test_ratios_positive_on_packets(self):
        fields = make_packet_ensemble(GRID, 3, seed=9)
        for name in ("kato", "maximal"):
            for f in fields:
                assert estimate_ratio(f, T=0.1, estimate=name) > 0


class TestEnsembleLadders:
    def test_kato_ladder_drift_small(self):
        stats = kato_smoothing_ratio(6, GRID, T=0.1, seed=21, rungs=3)
        assert stats.n_trials == 6
        assert stats.passes(drift_limit=2.0)
        assert stats.ladder_drift < 1.1

    def test_maximal_ladder_drift_small(self):
        stats = maximal_function_ratio(6, GRID, T=0.1, seed=22, rungs=3)
        assert stats.passes(drift_limit=2.0)

    def test_lowfreq_needs_fine_frequency_grid(self):
        coarse = make_grid(128, 8.0)  # dxi = 2 pi / 8 > 1/4
        with pytest.raises(ValueError):
            lowfreq_ratio(2, coarse, T=0.5, seed=1)

    def test_lowfreq_ladder(self):
        grid = make_grid(512, 32.0)
        stats = lowfreq_ratio(4, grid, T=0.5, seed=23, rungs=3)
        assert stats.passes(drift_limit=2.0)

    def test_lowfreq_requires_unit_time_window(self):
        grid = make_grid(512, 32.0)
        with pytest.raises(ValueError):
            lowfreq_ratio(2, grid, T=1.5, seed=1)

    def test_xst_group_ladder(self):
        fields = make_packet_ensemble(GRID, 4, seed=25)
        stats = xst_group_ratio(fields, s=0.45, T=0.1, rungs=3)
        assert stats.n_trials == 4
        assert stats.passes(drift_limit=2.0)

    def test_sup_ratio_stable_under_more_trials(self):
        small = kato_smoothing_ratio(4, GRID, T=0.1, seed=30, rungs=2)
        large = kato_smoothing_ratio(8, GRID, T=0.1, seed=30, rungs=2)
        # same seed: the first four draws coincide, so sup can only grow
        assert large.sup_ratio >= small.sup_ratio - 1e-12


class TestPlaneWaveGrowth:
    def test_exponent_half(self):
        slope, pts = plane_wave_growth_exponent(
            GRID, T=0.25, modes=[4, 8, 16, 32, 64]
        )
        assert slope == pytest.approx(0.5, abs=1e-6)
        assert len(pts) == 5

    def test_ratio_values_exact(self):
        slope, pts = plane_wave_growth_exponent(GRID, T=0.25, modes=[16, 32])
        for xi, ratio in pts:
            assert ratio == pytest.approx(
                np.sqrt(xi * 0.25 / GRID.length), rel=1e-6
            )


# ---------------------------------------------------------------------------
# Reports.


class TestReporting:
    def test_ratio_statistics_validation(self):
        with pytest.raises(ValueError):
            RatioStatistics(n_trials=2, ratios=[1.0, -1.0], sup_ratio=1.0,
                            resolution_ladder=[1.0])

    def test_ladder_drift_and_passes(self):
        stats = RatioStatistics(n_trials=1, ratios=[1.0], sup_ratio=1.0,
                                resolution_ladder=[(64, 1.0), (128, 1.4),
                                                   (256, 1.5)])
        assert stats.ladder_drift == pytest.approx(1.5)
        assert stats.passes()
        assert not stats.passes(drift_limit=1.2)

    def test_report_roundtrip_json(self, tmp_path):
        rep = ExperimentReport(
            experiment_id="demo",
            inputs={"n": 4},
            points=[{"value": np.float64(1.5)}],
            slope=0.5,
            ci=0.01,
            seed=7,
        )
        path = tmp_path / "report.json"
        write_report_json(rep, str(path))
        data = json.loads(path.read_text())
        assert data["id"] == "demo"
        assert data["params"] == {"n": 4}
        assert data["points"] == [{"value": 1.5}]
        assert data["slope"] == 0.5
        assert data["verdict"] == "PASS"
        assert "exp(" in data["sign_convention"]
        assert data["seed"] == 7
        assert data["code_version"]

    def test_report_csv_columns_sorted(self, tmp_path):
        rep = ExperimentReport(
            experiment_id="demo",
            inputs={},
            points=[{"b": 1.0, "a": 2.0}, {"a": 3.0}],
        )
        path = tmp_path / "series.csv"
        write_report_csv(rep, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("2.0,")
        assert lines[2].endswith(",")


# ---------------------------------------------------------------------------
# Scaling law.


@pytest.fixture(scope="module")
def small_bump():
    grid = make_grid(256, 40.0)
    return field_from_values(grid, 0.01 * np.exp(-grid.x ** 2))


class TestScalingCheck:

    def test_lambda_one_all_ratios_one(self, small_bump):
        rep = scaling_invariance_check(small_bump, [1.0], 12, [0.3, 0.49])
        assert rep.verdict == "PASS"
        for pt in rep.points:
            if "norm_ratio" in pt:
                assert pt["norm_ratio"] == 1.0

    def test_critical_index_invariant(self, small_bump):
        rep = scaling_invariance_check(small_bump, [2.0], 12, [5.0 / 12.0])
        (norm_pt,) = [pt for pt in rep.points if "norm_ratio" in pt]
        assert norm_pt["critical"]
        assert abs(norm_pt["norm_ratio"] - 1.0) <= 1e-10

    def test_norm_law_exponent(self, small_bump):
        rep = scaling_invariance_check(small_bump, [2.0], 12, [0.3])
        (norm_pt,) = [pt for pt in rep.points if "norm_ratio" in pt]
        assert norm_pt["norm_ratio"] == pytest.approx(
            2.0 ** (0.3 + 1.0 / 12.0 - 0.5), abs=1e-10
        )

    def test_flow_commutation_defect_tiny(self, small_bump):
        rep = scaling_invariance_check(small_bump, [2.0], 12, [0.3])
        (flow_pt,) = [pt for pt in rep.points if "flow_defect" in pt]
        assert flow_pt["flow_defect"] <= 1e-6

    def test_bad_k_rejected(self, small_bump):
        with pytest.raises(ValueError):
            scaling_invariance_check(small_bump, [2.0], 0, [0.3])
