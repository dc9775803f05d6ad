"""Integrator exactness, conservation, Duhamel residual, scaling map."""

import numpy as np
import pytest

from gbolab.norms import sobolev_norm
from gbolab.solver import (
    BlowUpError,
    _cumulative_simpson,
    SolverConfig,
    duhamel_residual,
    evolve,
    load_trajectory,
    nonlinear_rhs,
    rescale,
    rescale_traj,
    save_trajectory,
    stability_bound,
    step,
    write_ledger_csv,
)
from gbolab.spectral import field_from_values, free_evolve, make_grid


def gaussian(grid, amplitude=0.1, width=2.0, center=0.0, mod=0.0):
    x = grid.x - center
    vals = amplitude * np.exp(-(x ** 2) / (2 * width ** 2))
    if mod:
        vals = vals * np.cos(mod * x)
    return field_from_values(grid, vals)


# --- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError):
        SolverConfig(k=2, sign="negative")
    with pytest.raises(ValueError):
        SolverConfig(k=2, dt=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(k=2, dealias="half")


def test_stability_bound_enforced():
    grid = make_grid(256, 2 * np.pi)
    cfg = SolverConfig(k=2, dt=1.0, t_end=2.0)
    assert cfg.dt > stability_bound(grid)
    with pytest.raises(ValueError):
        evolve(gaussian(grid), cfg)


def test_t_end_must_be_multiple_of_dt():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=2, dt=3e-4, t_end=1e-3)
    with pytest.raises(ValueError):
        evolve(gaussian(grid), cfg)


# --- nonlinearity ------------------------------------------------------------


def test_rhs_zero_and_constant():
    grid = make_grid(256, 2 * np.pi)
    cfg = SolverConfig(k=3, dt=1e-5, t_end=1e-4)
    zero = field_from_values(grid, np.zeros(grid.n))
    assert nonlinear_rhs(zero, cfg).l2_norm() == 0.0
    const = field_from_values(grid, np.full(grid.n, 0.7))
    assert nonlinear_rhs(const, cfg).l2_norm() < 1e-13


def test_rhs_conservative_vs_product():
    grid = make_grid(256, 2 * np.pi)
    cfg = SolverConfig(k=2, dt=1e-5, t_end=1e-4)
    rng = np.random.default_rng(0)
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    dc = grid.n // 2
    for m in range(1, 20):
        c = rng.normal() + 1j * rng.normal()
        coeffs[dc + m] = c
        coeffs[dc - m] = np.conj(c)
    u = field_from_values(grid, np.real(np.fft.ifft(np.fft.ifftshift(
        np.where(np.arange(-grid.n // 2, grid.n // 2) % 2 == 0, 1, -1) * coeffs
    )) * grid.n / grid.length))
    a = nonlinear_rhs(u, cfg, form="conservative")
    b = nonlinear_rhs(u, cfg, form="product")
    scale = max(a.l2_norm(), 1e-30)
    assert field_from_values(grid, a.values - b.values).l2_norm() < 1e-10 * scale


def test_rhs_sign_conventions():
    grid = make_grid(256, 2 * np.pi)
    u = gaussian(grid, amplitude=0.5)
    plus = nonlinear_rhs(u, SolverConfig(k=2, sign="plus", dt=1e-5, t_end=1e-4))
    minus = nonlinear_rhs(u, SolverConfig(k=2, sign="minus", dt=1e-5, t_end=1e-4))
    resc = nonlinear_rhs(u, SolverConfig(k=2, rescaled=True, dt=1e-5, t_end=1e-4))
    np.testing.assert_allclose(plus.values, -minus.values, atol=1e-14)
    np.testing.assert_allclose(resc.values, 2 * minus.values, atol=1e-14)


# --- stepping ----------------------------------------------------------------


def test_zero_initial_stays_zero():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=2e-3)
    traj = evolve(field_from_values(grid, np.zeros(grid.n)), cfg)
    assert np.max(np.abs(traj.slices)) == 0.0


def test_linear_hook_matches_free_evolution():
    grid = make_grid(512, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=4e-3, linear_only=True)
    u0 = gaussian(grid, amplitude=0.7, width=1.5, mod=3.0)
    traj = evolve(u0, cfg)
    for i, t in enumerate(traj.times):
        exact = free_evolve(u0, t)
        err = field_from_values(grid, traj.slices[i] - exact.values.real).l2_norm()
        assert err < 1e-12 * max(exact.l2_norm(), 1e-30)


def test_step_equals_evolve_single():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=3, dt=2e-4, t_end=2e-4)
    u0 = gaussian(grid, amplitude=0.4)
    via_step = step(u0, cfg)
    via_evolve = evolve(u0, cfg)
    np.testing.assert_allclose(via_evolve.slices[-1], via_step.values.real, atol=1e-14)


def test_conservation_small_amplitude():
    # mass is conserved to rounding; L2 drifts at the integrator order
    grid = make_grid(1024, 40.0)
    dt = 6.25e-5
    cfg = SolverConfig(k=12, dt=dt, t_end=0.1, slice_stride=200)
    u0 = gaussian(grid, amplitude=0.1, width=2.0)
    traj = evolve(u0, cfg)
    mass_drift = np.max(np.abs(traj.mass - traj.mass[0])) / abs(traj.mass[0])
    l2_drift = np.max(np.abs(traj.l2 - traj.l2[0])) / traj.l2[0]
    assert mass_drift < 1e-12
    assert l2_drift < 1e-8


def test_integrator_fourth_order():
    # Richardson against a fine-dt reference of the same semi-discrete system,
    # so dealiasing truncation cancels and only the time integrator remains.
    grid = make_grid(64, 2 * np.pi)
    rng = np.random.default_rng(7)
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    dc = grid.n // 2
    for m in range(1, grid.n // 3 + 1):
        c = rng.normal() + 1j * rng.normal()
        coeffs[dc + m] = c
        coeffs[dc - m] = np.conj(c)
    from gbolab.spectral import field_from_coeffs

    u0 = field_from_coeffs(grid, coeffs)
    dt0 = stability_bound(grid) / 1.05
    t_end = 64 * dt0

    def final(dt):
        cfg = SolverConfig(k=2, dt=dt, t_end=t_end, slice_stride=round(t_end / dt))
        return evolve(u0, cfg).slices[-1]

    ref = final(dt0 / 16)
    errs = [np.max(np.abs(final(dt0 / f) - ref)) for f in (1, 2, 4)]
    assert errs[0] / errs[1] >= 12.0, errs
    assert errs[1] / errs[2] >= 12.0, errs


def test_blowup_guard():
    grid = make_grid(64, 2 * np.pi)
    cfg = SolverConfig(k=3, dt=4e-4, t_end=4e-3)
    u0 = gaussian(grid, amplitude=1e4, width=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            evolve(u0, cfg)


def test_blowup_guard_names_first_nonfinite_step():
    # the data is all NaN after step 1, well before the first recorded slice
    grid = make_grid(64, 2 * np.pi)
    cfg = SolverConfig(k=3, dt=4e-4, t_end=4e-3, slice_stride=10)
    u0 = gaussian(grid, amplitude=1e4, width=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError, match=r"step 1, t = 0\.0004$"):
            evolve(u0, cfg)


# --- Duhamel residual ----------------------------------------------------------


def test_cumulative_simpson_exact_on_cubics():
    h = 0.1
    t = h * np.arange(9)
    values = np.stack([t ** 3 - 2 * t, np.ones_like(t)], axis=1)
    even = t[::2]
    expected = np.stack([even ** 4 / 4 - even ** 2, even], axis=1)
    np.testing.assert_allclose(_cumulative_simpson(values, h), expected, rtol=0, atol=1e-14)


def test_duhamel_zero_trajectory():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=3.2e-3, slice_stride=2)
    traj = evolve(field_from_values(grid, np.zeros(grid.n)), cfg)
    assert duhamel_residual(traj) == 0.0


def test_duhamel_linear_trajectory():
    grid = make_grid(512, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=3.2e-3, linear_only=True, slice_stride=2)
    traj = evolve(gaussian(grid, amplitude=0.8, mod=2.0), cfg)
    assert duhamel_residual(traj) < 1e-12


def test_duhamel_needs_nine_slices():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=2, dt=2e-4, t_end=8e-4)
    traj = evolve(gaussian(grid), cfg)
    with pytest.raises(ValueError):
        duhamel_residual(traj)


def test_duhamel_rejects_nonuniform_times():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=2, dt=2e-4, t_end=3.2e-3)
    traj = evolve(gaussian(grid), cfg)
    traj.times[5] += 0.25 * cfg.dt
    with pytest.raises(ValueError, match="uniformly spaced"):
        duhamel_residual(traj)


def test_duhamel_stride_refinement():
    grid = make_grid(512, 40.0)
    dt = 1e-4
    u0 = gaussian(grid, amplitude=1.1, width=1.0, mod=2.5)
    residuals = []
    for stride in (64, 32):
        cfg = SolverConfig(k=12, dt=dt, t_end=0.0512, slice_stride=stride)
        residuals.append(duhamel_residual(evolve(u0, cfg)))
    assert residuals[0] / residuals[1] >= 4.0, residuals


# --- scaling map ---------------------------------------------------------------


def test_rescale_identity():
    grid = make_grid(256, 40.0)
    u0 = gaussian(grid, amplitude=0.5)
    same = rescale(u0, 1.0, 12)
    assert same.grid == u0.grid
    np.testing.assert_allclose(same.values, u0.values, atol=0)


def test_rescale_rejects_bad_lambda():
    grid = make_grid(256, 40.0)
    u0 = gaussian(grid)
    with pytest.raises(ValueError):
        rescale(u0, -2.0, 12)


def test_rescale_critical_norm_invariant():
    grid = make_grid(512, 40.0)
    u0 = gaussian(grid, amplitude=0.5, width=1.5, mod=2.0)
    k = 12
    sk = 0.5 - 1.0 / k
    for lam in (2.0, 4.0):
        scaled = rescale(u0, lam, k)
        a = sobolev_norm(scaled, sk, homogeneous=True)
        b = sobolev_norm(u0, sk, homogeneous=True)
        assert abs(a - b) < 1e-10 * b


def test_rescale_norm_law():
    grid = make_grid(512, 40.0)
    u0 = gaussian(grid, amplitude=0.5, width=1.5, mod=2.0)
    k, lam = 12, 2.0
    for s in (0.3, 5.0 / 12, 0.49):
        scaled = rescale(u0, lam, k)
        ratio = sobolev_norm(scaled, s, homogeneous=True) / sobolev_norm(
            u0, s, homogeneous=True
        )
        assert abs(ratio - lam ** (s + 1.0 / k - 0.5)) < 1e-10


def test_flow_commutes_with_rescaling():
    grid = make_grid(256, 40.0)
    u0 = gaussian(grid, amplitude=0.15, width=2.0)
    k, lam = 12, 2.0
    cfg = SolverConfig(k=k, rescaled=False, sign="minus", dt=4e-4, t_end=6.4e-3)
    base = evolve(u0, cfg)
    lam_cfg = SolverConfig(
        k=k, rescaled=False, sign="minus", dt=cfg.dt / lam ** 2,
        t_end=cfg.t_end / lam ** 2, slice_stride=1,
    )
    lam_traj = evolve(rescale(u0, lam, k), lam_cfg)
    mapped = rescale_traj(base, lam)
    np.testing.assert_allclose(mapped.times, lam_traj.times, atol=1e-15)
    scale = np.max(np.abs(lam_traj.slices))
    assert np.max(np.abs(mapped.slices - lam_traj.slices)) < 1e-6 * scale


# --- serialization -------------------------------------------------------------


def test_trajectory_round_trip(tmp_path):
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=3, dt=2e-4, t_end=2e-3, slice_stride=2)
    traj = evolve(gaussian(grid, amplitude=0.4), cfg)
    path = tmp_path / "traj.json"
    save_trajectory(traj, str(path))
    back = load_trajectory(str(path))
    assert back.config == traj.config
    np.testing.assert_allclose(back.slices, traj.slices, atol=0)
    np.testing.assert_allclose(back.times, traj.times, atol=0)
    np.testing.assert_allclose(back.mass, traj.mass, atol=0)
    np.testing.assert_allclose(back.l2, traj.l2, atol=0)
    np.testing.assert_allclose(back.linf, traj.linf, atol=0)


def test_ledger_csv(tmp_path):
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=3, dt=2e-4, t_end=1e-3)
    traj = evolve(gaussian(grid, amplitude=0.4), cfg)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(traj, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mass,L2,Linf"
    assert len(lines) == traj.n_times + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[2] == pytest.approx(traj.l2[0])
