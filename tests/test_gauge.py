"""Gauge transform, bilinear interaction operator, gauged-equation residual."""

import tracemalloc

import numpy as np
import pytest

from gbolab.gauge import (
    bilinear_G_direct,
    bilinear_G_projected,
    gauge_equation_residual,
    gauge_transform,
)
from gbolab.solver import SolverConfig, evolve
from gbolab.spectral import (
    antiderivative,
    boundary_taper,
    field_from_coeffs,
    field_from_values,
    hilbert,
    interior_window_mask,
    make_grid,
    project_half_line,
    spectral_derivative,
    windowed_l2,
)

from conftest import subsample


def band_limited(grid, seed, max_mode):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    dc = grid.n // 2
    for m in range(1, max_mode + 1):
        c = rng.normal() + 1j * rng.normal()
        coeffs[dc + m] = c
        coeffs[dc - m] = np.conj(c)
    return field_from_coeffs(grid, coeffs)


def gaussian(grid, amplitude, width=1.0):
    return field_from_values(
        grid, amplitude * np.exp(-grid.x ** 2 / (2 * width ** 2))
    )


# --- gauge transform -----------------------------------------------------------


def test_gauge_of_zero():
    grid = make_grid(256, 40.0)
    state = gauge_transform(field_from_values(grid, np.zeros(grid.n)), 12)
    assert state.w.l2_norm() == 0.0
    assert state.F.l2_norm() == 0.0


def test_gauge_requires_real_and_power():
    grid = make_grid(256, 40.0)
    u = gaussian(grid, 0.5)
    with pytest.raises(ValueError):
        gauge_transform(u, 1)
    cplx = field_from_values(grid, np.exp(1j * grid.x))
    with pytest.raises(ValueError):
        gauge_transform(cplx, 12)


def test_gauge_output_positive_frequencies_only():
    # modes -n/2+1..-1 vanish; the self-conjugate m = -n/2, like m = 0, is
    # split between P+ and P-, so w keeps half of it
    grid = make_grid(512, 60.0)
    u = gaussian(grid, 0.8)
    state = gauge_transform(u, 12)
    neg = state.w.coeffs[1 : grid.n // 2]
    assert np.max(np.abs(neg)) < 1e-12 * max(state.w.l2_norm(), 1e-30)
    gauged = boundary_taper(grid) * np.exp(-1j * state.F.values) * u.values
    nyquist = field_from_values(grid, gauged).coeffs[0]
    assert nyquist != 0.0 and state.w.coeffs[0] == 0.5 * nyquist


def test_gauge_norm_bounded_by_input():
    grid = make_grid(512, 60.0)
    u = gaussian(grid, 0.8)
    state = gauge_transform(u, 12)
    assert state.w.l2_norm() <= u.l2_norm() * (1 + 1e-12)


def test_gauge_phase_derivative_matches_power():
    grid = make_grid(512, 60.0)
    u = gaussian(grid, 0.9)
    k = 4
    state = gauge_transform(u, k)
    uk = u.values.real ** k
    slope = float(np.mean(uk))
    # F carries the mean of u^k as the ramp slope * (x + L/2); remove it
    # before differentiating, since spectral_derivative assumes periodicity
    ramp = slope * (grid.x + grid.length / 2)
    dF = spectral_derivative(field_from_values(grid, state.F.values - ramp))
    err = np.max(np.abs(dF.values.real + slope - uk))
    assert err < 1e-8 * max(np.max(np.abs(uk)), 1e-30)


def test_gauge_small_amplitude_expansion():
    # w - P_+(taper u) = P_+(taper (e^{-iF}-1) u) = O(a^{k+1})
    grid = make_grid(512, 60.0)
    k = 3
    taper = boundary_taper(grid)

    def defect(a):
        u = gaussian(grid, a)
        state = gauge_transform(u, k)
        from gbolab.spectral import project_half_line

        base = project_half_line(
            field_from_values(grid, taper * u.values.real), "plus"
        )
        return field_from_values(grid, state.w.values - base.values).l2_norm()

    d1, d2 = defect(0.1), defect(0.05)
    ratio = d1 / d2
    assert 12.0 < ratio < 20.0, ratio


# --- bilinear operator -----------------------------------------------------------


def test_G_zero_and_constant():
    grid = make_grid(256, 2 * np.pi)
    zero = field_from_values(grid, np.zeros(grid.n))
    f = band_limited(grid, 1, 20)
    assert bilinear_G_direct(zero, f).l2_norm() == 0.0
    const = field_from_values(grid, np.full(grid.n, 1.3))
    assert bilinear_G_direct(const, f).l2_norm() < 1e-12


def test_G_cosine_pair():
    grid = make_grid(256, 2 * np.pi)
    c = field_from_values(grid, np.cos(grid.x))
    out = bilinear_G_direct(c, c)
    expected = 0.25 * np.cos(2 * grid.x)
    assert np.max(np.abs(out.values.real - expected)) < 1e-12


def test_G_symmetric():
    grid = make_grid(512, 2 * np.pi)
    f = band_limited(grid, 2, 60)
    g = band_limited(grid, 3, 60)
    a = bilinear_G_direct(f, g)
    b = bilinear_G_direct(g, f)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10 * max(
        np.max(np.abs(a.coeffs)), 1e-30
    )


def test_G_bilinear():
    grid = make_grid(256, 2 * np.pi)
    f = band_limited(grid, 4, 30)
    g = band_limited(grid, 5, 30)
    h = band_limited(grid, 6, 30)
    lhs = bilinear_G_direct(
        field_from_values(grid, 2.0 * f.values + g.values), h
    )
    rhs = 2.0 * bilinear_G_direct(f, h).coeffs + bilinear_G_direct(g, h).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12 * max(np.max(np.abs(rhs)), 1e-30)


def test_G_direct_vs_projected():
    grid = make_grid(512, 2 * np.pi)
    for seed in range(10):
        f = band_limited(grid, 10 + seed, grid.n // 4 - 2)
        g = band_limited(grid, 50 + seed, grid.n // 4 - 2)
        a = bilinear_G_direct(f, g)
        b = bilinear_G_projected(f, g)
        scale = max(np.max(np.abs(a.coeffs)), 1e-30)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10 * scale


@pytest.mark.parametrize("G", [bilinear_G_direct, bilinear_G_projected])
def test_G_keeps_real_data_real(G):
    # white noise fills the self-conjugate Nyquist mode, on which the
    # kernel's xi, sgn(xi) and 1/xi all vanish
    grid = make_grid(64, 2 * np.pi)
    rng = np.random.default_rng(0)
    f = field_from_values(grid, rng.normal(size=grid.n))
    g = field_from_values(grid, rng.normal(size=grid.n))
    out = G(f, g)
    assert np.max(np.abs(out.values.imag)) <= 1e-13 * np.max(np.abs(out.values))


def test_G_physical_space_identity():
    # 2 G(f, g) = Dx^{-1}[ (Hf_x) g_x + f_x (Hg_x) ]
    grid = make_grid(512, 2 * np.pi)
    f = band_limited(grid, 21, grid.n // 4 - 2)
    g = band_limited(grid, 22, grid.n // 4 - 2)
    fx = spectral_derivative(f)
    gx = spectral_derivative(g)
    prod = hilbert(fx).values * gx.values + fx.values * hilbert(gx).values
    h = field_from_values(grid, np.real(prod))
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    nz = grid.frequencies != 0
    coeffs[nz] = h.coeffs[nz] / (1j * grid.frequencies[nz])
    expected = 0.5 * coeffs
    got = bilinear_G_direct(f, g).coeffs
    assert np.max(np.abs(got - expected)) < 1e-10 * max(np.max(np.abs(expected)), 1e-30)


# --- gauged evolution residual ---------------------------------------------------


def rescaled_trajectory(n=512, length=60.0, amplitude=0.75, k=12, dt=2e-4,
                        t_end=0.16, stride=100):
    grid = make_grid(n, length)
    u0 = gaussian(grid, amplitude)
    cfg = SolverConfig(k=k, flow="rescaled", dt=dt, t_end=t_end, slice_stride=stride)
    return evolve(u0, cfg)


def test_residual_requires_rescaled_flag():
    grid = make_grid(256, 40.0)
    for flow in ("minus", "plus"):
        traj = evolve(gaussian(grid, 0.3), SolverConfig(k=12, flow=flow, dt=2e-4, t_end=2e-3))
        with pytest.raises(ValueError, match=f"for the rescaled flow, not '{flow}'"):
            gauge_equation_residual(traj, [1])


def test_residual_requires_five_slices():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, flow="rescaled", dt=2e-4, t_end=6e-4)
    traj = evolve(gaussian(grid, 0.3), cfg)
    with pytest.raises(ValueError, match="thinning by 1 leaves 4 of 4 slices"):
        gauge_equation_residual(traj, [1])


def test_residual_rejects_nonuniform_times():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, flow="rescaled", dt=2e-4, t_end=2e-3)
    traj = evolve(gaussian(grid, 0.3), cfg)
    traj.times[5] += 0.25 * cfg.dt
    with pytest.raises(ValueError, match="uniformly spaced"):
        gauge_equation_residual(traj, [1])


def _thinned(every):
    """The gauge residual of a short rescaled trajectory, thinned by every."""
    return lambda f, g: gauge_equation_residual(
        evolve(f, SolverConfig(k=12, flow="rescaled", dt=2e-4, t_end=2e-3)), every)


@pytest.mark.parametrize("call, match", [
    (_thinned([1, 0]), r"every must list positive integer thinning factors, got \[1, 0\]"),
    (_thinned([]), r"every must list positive integer thinning factors, got \[\]"),
    (_thinned(np.array([], dtype=int)),
     r"every must list positive integer thinning factors, got \[\]"),
    (_thinned([1, 2.5]), r"every must list positive integer thinning factors, got \[1, 2\.5\]"),
    (bilinear_G_direct, "share a grid"),
    (bilinear_G_projected, "share a grid"),
    (lambda f, g: gauge_transform(f, 2.5),
     r"k must be an integer >= 2 for the gauge transform, got 2\.5"),
], ids=["thinning-below-one", "thinning-empty", "thinning-empty-array",
        "thinning-not-integer", "G-direct-grids", "G-projected-grids", "gauge-power-not-integer"])
def test_guards_reject_bad_input(call, match):
    f, g = gaussian(make_grid(256, 40.0), 0.3), gaussian(make_grid(256, 20.0), 0.3)
    with pytest.raises(ValueError, match=match):
        call(f, g)


def test_gauge_accepts_numpy_integer_power():
    u = gaussian(make_grid(256, 40.0), 0.3)
    assert np.array_equal(gauge_transform(u, np.int64(12)).w.coeffs,
                          gauge_transform(u, 12).w.coeffs)


def test_residual_accepts_an_array_of_thinning_factors():
    traj = evolve(gaussian(make_grid(256, 40.0), 0.3),
                  SolverConfig(k=12, flow="rescaled", dt=2e-4, t_end=2e-3))
    assert gauge_equation_residual(traj, np.array([2, 1])) == gauge_equation_residual(traj, [2, 1])


def test_residual_zero_trajectory():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, flow="rescaled", dt=2e-4, t_end=2e-3)
    traj = evolve(field_from_values(grid, np.zeros(grid.n)), cfg)
    assert gauge_equation_residual(traj, [1]) == [0.0]


def test_residual_refines_with_slice_spacing():
    norms = []
    for stride in (100, 50, 25):
        traj = rescaled_trajectory(stride=stride)
        norms.extend(gauge_equation_residual(traj, [1]))
    assert norms[0] / norms[1] >= 8.0, norms
    assert norms[1] / norms[2] >= 8.0, norms
    assert norms[2] < 1e-4, norms


def reference_residual(u_traj):
    """The residual term by term: H(d(d w)) and two P_+ projections per slice."""
    k = u_traj.config.k
    grid = u_traj.grid
    taper = boundary_taper(grid)
    mask = interior_window_mask(grid)
    w_slices = np.empty((u_traj.n_times, grid.n), dtype=np.complex128)
    hwxx_minus_rhs = np.empty_like(w_slices)
    hwxx_norms = np.empty(u_traj.n_times)
    for i in range(u_traj.n_times):
        u = field_from_values(grid, np.real(u_traj.slices[i]))
        state = gauge_transform(u, k)
        uvals = u.values.real
        phase = np.exp(-1j * state.F.values)
        w_slices[i] = state.w.values

        hwxx = hilbert(spectral_derivative(spectral_derivative(state.w)))
        hwxx_norms[i] = windowed_l2(hwxx.values, grid, mask)

        ux = spectral_derivative(u)
        uxx = spectral_derivative(ux)
        pm_ux = project_half_line(ux, "minus").values
        pm_uxx = project_half_line(uxx, "minus").values
        group1 = 2.0 * phase * (-k * uvals ** k * pm_ux - 1j * pm_uxx)
        g1 = project_half_line(field_from_values(grid, taper * group1), "plus")

        inner = field_from_values(
            grid, uvals ** (k - 2) * ux.values.real * hilbert(ux).values.real
        )
        group2 = phase * uvals * antiderivative(inner).values
        g2 = project_half_line(field_from_values(grid, taper * group2), "plus")

        hwxx_minus_rhs[i] = hwxx.values - (g1.values - 1j * k * (k - 1) * g2.values)

    dt = u_traj.uniform_step()
    w = w_slices
    dwdt = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * dt)
    interior = slice(2, u_traj.n_times - 2)
    residual = dwdt + hwxx_minus_rhs[interior]
    return float(np.max(windowed_l2(residual, grid, mask)) / np.max(hwxx_norms[interior]))


@pytest.mark.parametrize("n, amplitude, dt, strides", [
    (512, 0.75, 2e-4, (100, 50, 25)),  # the CLI tests' gauge-residual config
    (2048, 0.70, 4e-5, (500, 250, 125)),  # the flow benchmark's config
])
def test_residual_matches_term_by_term_reference(n, amplitude, dt, strides):
    traj = rescaled_trajectory(n=n, amplitude=amplitude, dt=dt, stride=strides[-1])
    every = [stride // strides[-1] for stride in strides]
    for e, got in zip(every, gauge_equation_residual(traj, every), strict=True):
        ref = reference_residual(subsample(traj, e))
        assert abs(got - ref) <= 1e-9 * ref


def test_ladder_matches_each_thinned_trajectory():
    # one call gauges each slice once; each entry must be the residual of
    # the matching thinned trajectory on its own
    traj = rescaled_trajectory(stride=25)
    ladder = gauge_equation_residual(traj, [4, 2, 1])
    for e, got in zip([4, 2, 1], ladder, strict=True):
        alone = gauge_equation_residual(subsample(traj, e), [1])[0]
        assert abs(got - alone) <= 1e-13 * alone


def test_ladder_keeps_only_the_window():
    # 33 slices at n = 2048: full-width stacks of w and H w_xx - rhs and
    # their stencil temporaries, one call per thinning, took about 4.6 MB
    traj = rescaled_trajectory(n=2048, amplitude=0.70, dt=4e-5, t_end=32 * 4e-5, stride=1)
    assert traj.n_times == 33
    tracemalloc.start()
    try:
        gauge_equation_residual(traj, [4, 2, 1])
        assert tracemalloc.get_traced_memory()[1] < 3e6
    finally:
        tracemalloc.stop()
