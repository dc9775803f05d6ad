"""Packets, ratio experiments and reporting."""

import json
import tracemalloc

import numpy as np
import pytest

from gbolab import __version__
from gbolab.cli import _write_success
from gbolab.experiments import (
    ExperimentReport,
    embed_field,
    estimate_ladder,
    estimate_ratio,
    free_evolution_spacetime,
    ladder_drift,
    make_packet_ensemble,
    plane_wave,
    plane_wave_growth_exponent,
)
from gbolab.experiments import linear_ratios, packets
from gbolab.experiments.linear_ratios import ESTIMATES, _check_ladder
from gbolab.experiments.reporting import _DRIFT_LIMIT, _Check
from gbolab.norms import _BLOCK_BYTES, mixed_norm, sobolev_norm, xst_components
from gbolab.spectral import (_propagator, field_from_coeffs, field_from_values, free_evolve,
                             make_grid)

GRID = make_grid(512, 40.0)
SMALL = make_grid(64, 2 * np.pi)


# ---------------------------------------------------------------------------
# Packet ensembles.


def reference_ensemble(grid, n_trials, seed, kind="modulated"):
    """make_packet_ensemble drawing through numpy.random, the reference whose
    coefficients the package's own generator must reproduce exactly."""
    (lo, hi), widths = packets._limits(grid, kind)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(n_trials):
        center = np.exp(rng.uniform(np.log(lo), np.log(hi))) if kind == "modulated" else 0.0
        width = rng.uniform(*widths)
        x0 = rng.uniform(-grid.length / 8, grid.length / 8)
        amplitude = rng.uniform(0.5, 2.0)
        fields.append(packets._packet(grid, amplitude, center, width, x0))
    return fields


def max_active_frequency(f):
    """Reference scan of a drawn packet: the largest |xi| whose coefficient
    exceeds 1e-12 of the peak, the level below which it is rounding."""
    mags = np.abs(f.coeffs)
    return float(np.max(np.abs(f.grid.frequencies)[mags > 1e-12 * np.max(mags)]))


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
            peak = np.abs(GRID.frequencies[np.argmax(np.abs(f.coeffs))])
            assert 4.0 < peak < GRID.xi_max / 2

    def test_broadband_concentrates_low(self):
        fields = make_packet_ensemble(GRID, 8, seed=7, kind="broadband")
        for f in fields:
            assert max_active_frequency(f) < 8.0

    def test_empty_center_band_names_xi_max(self):
        # xi_max/4 = 5.03 < 8 on this grid, so no modulated center exists
        coarse = make_grid(256, 40.0)
        with pytest.raises(ValueError, match=r"\[8, xi_max/4\].*xi_max = 20\.1"):
            make_packet_ensemble(coarse, 2, seed=0)
        assert len(make_packet_ensemble(coarse, 2, seed=0, kind="broadband")) == 2

    def test_draws_are_numpy_default_rng_stream(self):
        # the draws of four modulated trials, in make_packet_ensemble's order,
        # from one-word, two-word, three-word and five-word seeds
        (lo, hi), widths = packets._limits(GRID, "modulated")
        limits = [(np.log(lo), np.log(hi)), widths,
                  (-GRID.length / 8, GRID.length / 8), (0.5, 2.0)] * 4
        for seed in [*range(64), 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 11]:
            ours, numpys = packets._Uniform(seed), np.random.default_rng(seed)
            assert [ours.uniform(a, b) for a, b in limits] == [
                numpys.uniform(a, b) for a, b in limits], seed

    @pytest.mark.parametrize("kind", ["modulated", "broadband"])
    def test_ensemble_equals_numpy_reference(self, kind):
        for seed in (0, 3, 7, 2**32, 2**64 + 3):
            ours = make_packet_ensemble(GRID, 3, seed, kind)
            reference = reference_ensemble(GRID, 3, seed, kind)
            assert len(ours) == len(reference) == 3
            for f, g in zip(ours, reference):
                assert np.array_equal(f.coeffs, g.coeffs)

    def test_generator_rejects_negative_and_float_seeds(self):
        # a negative seed's word split would never end, as -1 >> 32 == -1
        with pytest.raises(ValueError, match="non-negative"):
            packets._Uniform(-1)
        with pytest.raises(TypeError):
            packets._Uniform(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_packet_ensemble(GRID, 2, seed=0, kind="chirp")

    @pytest.mark.parametrize("mode", [0, -3, SMALL.n // 2, SMALL.n])
    def test_plane_wave_mode_inside_the_band(self, mode):
        with pytest.raises(ValueError, match="strictly inside the resolved band"):
            plane_wave(SMALL, mode)

    def test_max_active_frequency_single_mode(self):
        # the reference scan that test_reach_bounds_every_drawn_packet reads
        f = plane_wave(GRID, 13)
        xi13 = 13 * GRID.dxi
        assert max_active_frequency(f) == pytest.approx(xi13)

    @pytest.mark.parametrize("kind, grid, bound", [
        ("modulated", GRID, 24.92), ("broadband", make_grid(512, 32.0), 5.95)])
    def test_reach_bounds_every_drawn_packet(self, kind, grid, bound):
        # the guard reads the draw's limits plus one grid step; no draw may
        # exceed it, and without that step it is within 2 % of the worst draw
        reach = packets._reach(grid, kind)
        assert reach == pytest.approx(bound + grid.dxi, abs=5e-3)
        worst = max(max_active_frequency(f) for seed in range(100)
                    for f in make_packet_ensemble(grid, 8, seed, kind=kind))
        assert worst <= reach and reach - grid.dxi <= 1.02 * worst

    def test_wraparound_guard_trips(self, monkeypatch):
        # 2 * 25.08 * 0.2 >= L/4 = 10, whatever the seed, and before any draw
        def no_draw(*args, **kwargs):
            raise AssertionError("packets drawn before the guard ran")

        monkeypatch.setattr(linear_ratios, "make_packet_ensemble", no_draw)
        with pytest.raises(ValueError, match=r"^T must .* wrapping around"):
            estimate_ladder("kato", 2, GRID, T=0.2, seed=0)

    def test_wraparound_guard_passes_short_time(self):
        assert _check_ladder("kato", 2, GRID, 0.19, 0, 128, 2, 0.45) == "modulated"
        assert _check_ladder("lowfreq", 2, make_grid(512, 32.0), 0.65, 0, 128, 2,
                             0.45) == "broadband"

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

    @pytest.mark.parametrize("factor", [2, 4])
    def test_embed_keeps_nyquist_content_real(self, factor):
        # the coarse Nyquist coefficient c of real data is the mode c cos(pi n x / L)
        coarse = make_grid(16, 2 * np.pi)
        f = field_from_values(coarse, np.random.default_rng(0).normal(size=coarse.n))
        assert abs(f.coeffs[0]) > 0.1
        fine = embed_field(f, factor)
        assert fine.real
        x = fine.grid.x
        interpolant = (np.exp(1j * np.outer(x, coarse.frequencies[1:])) @ f.coeffs[1:]
                       + f.coeffs[0] * np.cos(np.pi * coarse.n * x / coarse.length))
        np.testing.assert_allclose(fine.values, interpolant / coarse.length, atol=1e-13)
        np.testing.assert_allclose(fine.values[::factor], f.values, atol=1e-13)

    def test_embed_requires_power_of_two(self):
        fields = make_packet_ensemble(GRID, 1, seed=2)
        with pytest.raises(ValueError):
            embed_field(fields[0], 3)

    @pytest.mark.parametrize("kind", ["float", "numpy-int"])
    @pytest.mark.parametrize("field, value, call", [
        ("n_trials", 3, lambda v: [f.coeffs for f in make_packet_ensemble(GRID, v, 4)]),
        ("seed", 4, lambda v: [f.coeffs for f in make_packet_ensemble(GRID, 3, v)]),
        ("factor", 2, lambda v: embed_field(plane_wave(SMALL, 3), v).coeffs),
        ("mode", 5, lambda v: plane_wave(SMALL, v).coeffs),
    ], ids=["ensemble-n_trials", "ensemble-seed", "embed-factor", "plane-wave-mode"])
    def test_integer_inputs_are_integers(self, field, value, call, kind):
        # a float is rejected by name; a numpy integer gives the int's result
        if kind == "float":
            with pytest.raises(ValueError, match=field):
                call(float(value))
        else:
            np.testing.assert_array_equal(call(np.int64(value)), call(value))

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
            row = field_from_values(st.grid, st.slices[idx])
            assert sobolev_norm(row, 0.0) == pytest.approx(
                sobolev_norm(f, 0.0), rel=1e-12
            )

    @pytest.mark.parametrize("real", [True, False])
    def test_spacetime_rows_are_free_evolutions(self, real):
        # White noise has Nyquist content, which both paths leave in place.
        rng = np.random.default_rng(3)
        # one real row a row block at n = 16384: the nine rows are nine blocks,
        # each stepped from the one before (two complex rows a block: five)
        wide = make_grid(16384, 40.0)
        packet = np.exp(-wide.x ** 2 + 30j * wide.x)
        if real:
            noise = field_from_values(SMALL, rng.normal(size=SMALL.n))
            fields = [make_packet_ensemble(GRID, 1, seed=2)[0], noise,
                      field_from_values(wide, packet.real)]
        else:
            coeffs = rng.normal(size=SMALL.n) + 1j * rng.normal(size=SMALL.n)
            fields = [plane_wave(GRID, 5), field_from_coeffs(SMALL, coeffs),
                      field_from_values(wide, packet)]
        for f in fields:
            st = free_evolution_spacetime(f, T=0.1, n_time=8)
            for t, row in zip(st.times, st.slices):
                expected = free_evolve(f, t).values
                np.testing.assert_allclose(row, expected.real if real else expected,
                                           rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))

    def test_spacetime_nyquist_mode_is_stationary(self):
        # the dispersion is odd, so it vanishes on the Nyquist mode: complex
        # content there stays put, as free_evolve leaves it
        f = field_from_values(SMALL, (1.0 + 2.0j) * SMALL.signs)
        st = free_evolution_spacetime(f, T=0.1, n_time=8)
        expected = np.broadcast_to(f.values, st.slices.shape)
        np.testing.assert_allclose(st.slices, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, T):
        f = plane_wave(GRID, 4)
        with pytest.raises(ValueError, match="finite"):
            free_evolution_spacetime(f, T, n_time=8)
        with pytest.raises(ValueError, match="finite"):
            estimate_ratio(f, T, estimate="kato")

    def test_kernels_hold_no_stack_sized_temporaries(self):
        # the top estimates rung: 513 slices of 2048 points, 8.4 MB a stack,
        # which the free evolution never builds unless .slices is read
        grid = make_grid(2048, 40.0)
        phi = make_packet_ensemble(grid, 1, seed=3)[0]
        stack = 513 * grid.n * 8

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        st = free_evolution_spacetime(phi, 0.1, n_time=512)
        assert peak(lambda: xst_components(st, 0.45)) < stack / 4
        assert peak(lambda: mixed_norm(st, np.inf, 2.0)) < stack / 4
        assert peak(lambda: mixed_norm(st, 4.0, np.inf)) < stack / 4
        assert peak(lambda: free_evolution_spacetime(phi, 0.1, 512)) < 2e6
        for name in ESTIMATES:
            assert peak(lambda: estimate_ratio(phi, 0.1, name, 512)) < stack / 4, name

    @pytest.mark.parametrize("factor, n_time", [(1, 128), (4, 512)])
    def test_sup_sobolev_is_the_data_norm(self, factor, n_time):
        # V(t) is unitary on H^s, so the sup over the streamed blocks of the
        # slices' H^s norms is the data's, at every rung's block layout
        for phi in make_packet_ensemble(GRID, 2, seed=5):
            phi = embed_field(phi, factor)
            st = free_evolution_spacetime(phi, 0.1, n_time)
            sup = xst_components(st, 0.45).sup_sobolev
            assert sup == pytest.approx(sobolev_norm(phi, 0.45), rel=1e-13, abs=0.0)

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

    def test_xst_ratio_is_solution_norm_over_data_norm(self):
        f = make_packet_ensemble(GRID, 1, seed=4)[0]
        expected = (xst_components(free_evolution_spacetime(f, 0.1, 64), 0.3).total
                    / sobolev_norm(f, 0.3))
        assert estimate_ratio(f, T=0.1, estimate="xst", n_time=64, s=0.3) == expected

    def test_xst_requires_unit_time_window(self):
        f = make_packet_ensemble(GRID, 1, seed=4)[0]
        with pytest.raises(ValueError, match="0 < T < 1"):
            estimate_ratio(f, T=1.5, estimate="xst")

    def test_ratios_positive_on_packets(self):
        fields = make_packet_ensemble(GRID, 3, seed=9)
        for name in ("kato", "maximal"):
            for f in fields:
                assert estimate_ratio(f, T=0.1, estimate=name) > 0


def kato_ladder(n_trials=2, seed=21, n_time=32, rungs=2):
    return estimate_ladder("kato", n_trials, GRID, 0.1, seed, n_time, rungs)


class TestEnsembleLadders:
    def test_kato_ladder_drift_small(self):
        ladder = estimate_ladder("kato", 6, GRID, T=0.1, seed=21, rungs=3)
        assert [n_points for n_points, _ in ladder] == [512, 1024, 2048]
        assert ladder_drift(ladder) < _DRIFT_LIMIT
        assert ladder_drift(ladder) < 1.1

    def test_maximal_ladder_drift_small(self):
        ladder = estimate_ladder("maximal", 6, GRID, T=0.1, seed=22, rungs=3)
        assert ladder_drift(ladder) < _DRIFT_LIMIT

    def test_ladder_drift(self):
        ladder = [(64, 1.0), (128, 1.4), (256, 1.5)]
        assert ladder_drift(ladder) == pytest.approx(1.5)
        assert ladder_drift(ladder[::-1]) == pytest.approx(1.5)
        assert ladder_drift(ladder) < _DRIFT_LIMIT
        # the drift limit 2 is a constant and the bound is strict
        for top in (2.0, 3.0):
            drifted = [(64, 1.0), (128, 1.4), (256, top)]
            assert ladder_drift(drifted) == top
            assert not ladder_drift(drifted) < _DRIFT_LIMIT

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_every_rung_checks_its_ratios(self, monkeypatch, bad):
        # the second of three trials on the coarse rung is bad: not the first
        # in its rung, so max() would skip a NaN, and the finest rung is sound
        real, calls = linear_ratios.estimate_ratio, []

        def second_bad(phi, T, estimate, n_time, s):
            calls.append(n_time)
            return bad if len(calls) == 2 else real(phi, T, estimate, n_time, s)

        monkeypatch.setattr(linear_ratios, "estimate_ratio", second_bad)
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_ladder("kato", 3, GRID, T=0.1, seed=21, n_time=32, rungs=2)
        assert calls == [32, 32, 32]  # raised before the finer rung

    def test_lowfreq_needs_fine_frequency_grid(self):
        coarse = make_grid(128, 8.0)  # dxi = 2 pi / 8 > 1/4
        with pytest.raises(ValueError):
            estimate_ladder("lowfreq", 2, coarse, T=0.5, seed=1)

    def test_lowfreq_ladder(self):
        grid = make_grid(512, 32.0)
        ladder = estimate_ladder("lowfreq", 4, grid, T=0.5, seed=23, rungs=3)
        assert ladder_drift(ladder) < _DRIFT_LIMIT

    def test_lowfreq_requires_unit_time_window(self):
        grid = make_grid(512, 32.0)
        with pytest.raises(ValueError):
            estimate_ladder("lowfreq", 2, grid, T=1.5, seed=1)

    @pytest.mark.parametrize("n, n_time, rows", [(2048, 512, 8), (512, 300, 32),
                                                 (2048, 700, 8)],
                             ids=["2048-512", "512-300", "2048-700"])
    def test_stepped_rows_match_the_propagator(self, n, n_time, rows):
        # a block holds R rows, R a real field's block (8 rows at n = 2048, 32
        # at n = 512): row j of the first is row j - 1 times V(t_1), and block
        # b + 1 is block b times V(t_R), stepped in place; no case has n_time + 1
        # a multiple of R
        grid = make_grid(n, 40.0)
        R = _BLOCK_BYTES // (8 * n)
        assert R == rows and (n_time + 1) % R != 0
        times = np.linspace(0.0, 0.1, n_time + 1)
        assert times[-1] == 0.1
        ones = np.ones((1, n // 2 + 1), complex)
        unit = linear_ratios._FreeEvolution(grid, times, ones)
        blocks = [(span, half[0].copy()) for span, half in unit._blocks()]
        assert [span.start for span, _ in blocks] == list(range(0, n_time + 1, R))
        assert all(len(half) == R for _, half in blocks[:-1])
        stepped = np.concatenate([h for _, h in blocks])
        assert len(stepped) == n_time + 1
        for j, t in enumerate(times):
            np.testing.assert_allclose(stepped[j], _propagator(grid, t), rtol=0.0, atol=1e-11)

    def test_yielded_blocks_are_read_only(self):
        # the next block is stepped in place from the one just yielded
        st = free_evolution_spacetime(make_packet_ensemble(GRID, 1, seed=2)[0], 0.1, 64)
        for _, half in st._blocks():
            with pytest.raises(ValueError, match="read-only"):
                half[0, 0, 0] = 0.0

    def test_estimates_run_memory_budget(self):
        # the four ladders of an estimates run at the benchmark's sizes (top
        # rung n = 2048, n_time = 512), run once first so that the peak counts
        # only the run's own buffers, whichever tests ran before: 0.85 MB, and
        # full propagator tables, 10.5 MB for the three rungs, would take it
        # past the budget (state held between calls is test_hygiene's rule)
        for name in ESTIMATES:
            estimate_ladder(name, 2, GRID, T=0.1, seed=21, rungs=3)
        tracemalloc.start()
        try:
            for name in ESTIMATES:
                estimate_ladder(name, 2, GRID, T=0.1, seed=21, rungs=3)
            assert tracemalloc.get_traced_memory()[1] < 1.2e6
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("rungs", [0, 1])
    def test_ladder_needs_two_rungs(self, rungs):
        with pytest.raises(ValueError, match="at least two rungs"):
            estimate_ladder("kato", 2, GRID, T=0.1, seed=21, rungs=rungs)

    @pytest.mark.parametrize("kind", ["float", "numpy-int"])
    @pytest.mark.parametrize("field, value, call", [
        ("n_trials", 2, lambda v: kato_ladder(n_trials=v)),
        ("rungs", 2, lambda v: kato_ladder(rungs=v)),
        ("n_time", 32, lambda v: kato_ladder(n_time=v)),
        ("seed", 21, lambda v: kato_ladder(seed=v)),
        ("n_time", 32, lambda v: estimate_ratio(plane_wave(GRID, 5), 0.1, "kato", v)),
        ("n_time", 32, lambda v: free_evolution_spacetime(plane_wave(GRID, 5), 0.1, v).slices),
    ], ids=["ladder-n_trials", "ladder-rungs", "ladder-n_time", "ladder-seed", "ratio-n_time",
            "spacetime-n_time"])
    def test_integer_inputs_are_integers(self, field, value, call, kind):
        # a float is rejected by name; a numpy integer gives the int's result
        if kind == "float":
            with pytest.raises(ValueError, match=field):
                call(float(value))
        else:
            np.testing.assert_array_equal(call(np.int64(value)), call(value))

    def test_kato_ratios_below_the_smoothing_constant(self):
        # int |D^{1/2} V(t)phi(x)|^2 dt over the line is ||phi||^2 / 2 at
        # every x, so no kato ratio over [0, T] exceeds 2^{-1/2}; the
        # benchmark-config ladder comes within 1e-2 of it (0.70162)
        sups = [sup for _, sup in estimate_ladder("kato", 8, GRID, T=0.1, seed=1, rungs=3)]
        assert all(0.69 < sup <= 2 ** -0.5 * (1 + 1e-12) for sup in sups), sups

    def test_xst_group_ladder(self):
        # the xst estimate is stated for 0 < s < 1/2: the default and one below it
        for s in (0.3, 0.45):
            ladder = estimate_ladder("xst", 4, GRID, T=0.1, seed=25, rungs=3, s=s)
            assert len(ladder) == 3
            assert ladder_drift(ladder) < _DRIFT_LIMIT, s

    def test_sup_ratio_stable_under_more_trials(self):
        small = estimate_ladder("kato", 4, GRID, T=0.1, seed=30, rungs=2)
        large = estimate_ladder("kato", 8, GRID, T=0.1, seed=30, rungs=2)
        # same seed: the first four draws coincide, so each rung's sup can only grow
        assert [n for n, _ in large] == [n for n, _ in small]
        assert all(big >= sup - 1e-12 for (_, big), (_, sup) in zip(large, small))


class TestPlaneWaveGrowth:
    def test_exponent_half(self):
        slope, pts = plane_wave_growth_exponent(
            GRID, T=0.25, modes=[4, 8, 16, 32, 64]
        )
        assert slope == pytest.approx(0.5, abs=1e-6)
        assert len(pts) == 5

    @pytest.mark.parametrize("modes", [[], [4]])
    def test_needs_two_modes(self, modes):
        with pytest.raises(ValueError, match="at least two modes"):
            plane_wave_growth_exponent(GRID, T=0.25, modes=modes)

    def test_ratio_values_exact(self):
        slope, pts = plane_wave_growth_exponent(GRID, T=0.25, modes=[16, 32])
        for xi, ratio in pts:
            assert ratio == pytest.approx(
                np.sqrt(xi * 0.25 / GRID.length), rel=1e-6
            )


# ---------------------------------------------------------------------------
# Reports.


class TestReporting:
    def test_report_roundtrip_json(self, tmp_path):
        # the CLI's record: the report's fields, the code version, the sign convention
        rep = ExperimentReport(
            inputs={"n": 4},
            points=[{"value": np.float64(1.5)}],
            checks=[_Check("demo drift", np.float64(0.5), "<=", 1.0)],
            slope=0.5,
            ci=0.01,
        )
        _write_success("demo", rep, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert set(data) == {"id", "params", "points", "slope", "ci", "verdict", "checks",
                             "notes", "sign_convention", "code_version", "schema_version",
                             "timestamp"}
        assert data["id"] == "demo"
        assert data["params"] == {"n": 4}
        assert data["points"] == [{"value": 1.5}]
        assert data["slope"] == 0.5
        assert data["ci"] == 0.01
        assert data["verdict"] == "PASS"
        assert data["checks"] == [{"name": "demo drift", "value": 0.5, "relation": "<=",
                                   "bound": 1.0, "passes": True}]
        assert data["notes"] == []
        assert data["sign_convention"] == "exp(-1i*t*xi*|xi|)"
        assert data["code_version"] == __version__
        summary = (tmp_path / "summary.txt").read_text()
        assert "check: demo drift = 0.5 <= 1.0: pass\n" in summary

    def test_report_requires_a_verdict(self):
        # a producer that states no check fails instead of passing silently
        with pytest.raises(TypeError, match="checks"):
            ExperimentReport(inputs={}, points=[])
        with pytest.raises(ValueError, match="at least one check"):
            ExperimentReport(inputs={}, points=[], checks=[])

    @pytest.mark.parametrize("value, relation, bound, passes", [
        (1.0, "<", 2.0, True), (2.0, "<", 2.0, False), (2.0, "<=", 2.0, True),
        (3.0, "<=", 2.0, False), (8.0, ">=", 8.0, True), (7.9, ">=", 8.0, False),
        (True, "==", True, True), (False, "==", True, False),
        (float("nan"), "<=", 2.0, False), (float("nan"), ">=", 8.0, False)])
    def test_check_applies_its_relation(self, value, relation, bound, passes):
        # a NaN value passes no relation, so a broken run cannot PASS
        assert _Check("demo", value, relation, bound).passes is passes

    def test_verdict_is_every_check(self):
        ok, bad = _Check("ok", 1.0, "<=", 2.0), _Check("bad", 3.0, "<=", 2.0)
        for checks, verdict in [([ok], "PASS"), ([ok, ok], "PASS"), ([ok, bad], "FAIL"),
                                ([bad, ok], "FAIL")]:
            assert ExperimentReport({}, [], checks).verdict == verdict

    @pytest.mark.parametrize("points, csv", [
        ([{"N": np.float64(8.0), "m": np.int64(3), "ok": np.bool_(True),
           "v": np.array([1.0, 2.5])}], "N,m,ok,v\n8.0,3,True,[1.  2.5]\n"),
        ([], "")], ids=["one-point", "no-points"])
    def test_report_plain_values_and_csv(self, tmp_path, points, csv):
        # numpy scalars and arrays anywhere in a report become plain JSON values
        # and CSV cells, an array one cell; no points, an empty CSV
        inputs = {"N_list": np.array([8.0, 16.0]), "x": np.float64(0.1), "n": np.int64(4),
                  "flag": np.bool_(False)}
        rep = ExperimentReport(inputs=inputs, points=points,
                               checks=[_Check("demo", 1.0, "<=", 2.0)])
        _write_success("demo", rep, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["params"] == {"N_list": [8.0, 16.0], "x": 0.1, "n": 4, "flag": False}
        assert data["points"] == [{"N": 8.0, "m": 3, "ok": True, "v": [1.0, 2.5]}][:len(points)]
        assert (tmp_path / "series.csv").read_text() == csv

    def test_report_csv_columns_sorted(self, tmp_path):
        # columns are the sorted union of the point keys; a missing cell is empty
        rep = ExperimentReport(
            inputs={},
            points=[{"b": 1.0, "a": 2.0}, {"a": 3.0}, {"b": None}],
            checks=[_Check("demo", 1.0, "<=", 2.0)],
        )
        _write_success("demo", rep, tmp_path)
        assert (tmp_path / "series.csv").read_text() == "a,b\n2.0,1.0\n3.0,\n,\n"

