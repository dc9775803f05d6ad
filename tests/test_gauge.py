"""Gauge transform, bilinear interaction operator, gauged-equation residual."""

import json

import numpy as np
import pytest

from gbolab.gauge import (
    bilinear_G_direct,
    bilinear_G_projected,
    gauge_equation_residual,
    gauge_transform,
    residual_report,
    windowed_residual_norm,
)
from gbolab.solver import SolverConfig, evolve
from gbolab.spectral import (
    antiderivative,
    boundary_taper,
    field_from_coeffs,
    field_from_values,
    hilbert,
    make_grid,
    spectral_derivative,
)


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
    grid = make_grid(512, 60.0)
    state = gauge_transform(gaussian(grid, 0.8), 12)
    neg = state.w.coeffs[: grid.n // 2]
    assert np.max(np.abs(neg)) < 1e-12 * max(state.w.l2_norm(), 1e-30)


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
    dF = spectral_derivative(state.F, ramp_slope=slope)
    err = np.max(np.abs(dF.values.real - uk))
    assert err < 1e-8 * max(np.max(np.abs(uk)), 1e-30)


def test_gauge_half_variant():
    grid = make_grid(512, 60.0)
    u = gaussian(grid, 0.9)
    full = gauge_transform(u, 4)
    half = gauge_transform(u, 4, half=True)
    np.testing.assert_allclose(half.F.values, 0.5 * full.F.values, atol=1e-14)


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
    cfg = SolverConfig(k=k, rescaled=True, dt=dt, t_end=t_end, slice_stride=stride)
    return evolve(u0, cfg)


def test_residual_requires_rescaled_flag():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=2e-3)
    traj = evolve(gaussian(grid, 0.3), cfg)
    with pytest.raises(ValueError):
        gauge_equation_residual(traj, 12)


def test_residual_requires_five_slices():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, rescaled=True, dt=2e-4, t_end=6e-4)
    traj = evolve(gaussian(grid, 0.3), cfg)
    with pytest.raises(ValueError):
        gauge_equation_residual(traj, 12)


def test_residual_rejects_nonuniform_times():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, rescaled=True, dt=2e-4, t_end=2e-3)
    traj = evolve(gaussian(grid, 0.3), cfg)
    traj.times[5] += 0.25 * cfg.dt
    with pytest.raises(ValueError, match="uniformly spaced"):
        gauge_equation_residual(traj, 12)


def test_residual_zero_trajectory():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, rescaled=True, dt=2e-4, t_end=2e-3)
    traj = evolve(field_from_values(grid, np.zeros(grid.n)), cfg)
    norm, _ = gauge_equation_residual(traj, 12)
    assert norm == 0.0


def test_residual_refines_with_slice_spacing():
    norms = []
    for stride in (100, 50, 25):
        traj = rescaled_trajectory(stride=stride)
        norm, _ = gauge_equation_residual(traj, 12)
        norms.append(norm)
    assert norms[0] / norms[1] >= 8.0, norms
    assert norms[1] / norms[2] >= 8.0, norms
    assert norms[2] < 1e-4, norms


def test_windowed_residual_norm_scale():
    traj = rescaled_trajectory(stride=100)
    norm, resid = gauge_equation_residual(traj, 12)
    raw = windowed_residual_norm(resid, 1.0)
    assert raw > 0.0
    assert windowed_residual_norm(resid, 2.0) == pytest.approx(raw / 2.0)
    # the normalized figure differs from raw exactly by the reported scale
    assert norm == pytest.approx(raw / (raw / norm))


def test_residual_report(tmp_path):
    traj = rescaled_trajectory(stride=100)
    path = tmp_path / "report.json"
    report = residual_report(traj, 12, str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk == report
    assert report["k"] == 12
    assert report["grid"] == {"n": 512, "length": 60.0}
    assert "exp(" in report["sign_convention"]
    assert report["residual_norm"] == pytest.approx(
        gauge_equation_residual(traj, 12)[0]
    )
    assert len(report["per_slice_residuals"]) == traj.n_times - 4
