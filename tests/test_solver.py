"""Integrator exactness, conservation, Duhamel residual, scaling map."""

from dataclasses import replace

import numpy as np
import pytest

from gbolab import solver
from gbolab.experiments.illposed import IllposedParams
from gbolab.solver import (
    _COEFFICIENTS,
    BlowUpError,
    _cumulative_simpson,
    _flux,
    _power,
    SolverConfig,
    duhamel_residual,
    evolve,
    stability_bound,
)
from gbolab.spectral import (
    _forward,
    _half_grid,
    _inverse,
    _phases,
    field_from_values,
    free_evolve,
    hilbert,
    make_grid,
    spectral_derivative,
)

from conftest import commutation_defect, homogeneous_norm, rescale


def gaussian(grid, amplitude=0.1, width=2.0, center=0.0, mod=0.0):
    x = grid.x - center
    vals = amplitude * np.exp(-(x ** 2) / (2 * width ** 2))
    if mod:
        vals = vals * np.cos(mod * x)
    return field_from_values(grid, vals)


def noisy_gaussian(grid, amplitude, noise, seed=0):
    """A Gaussian plus white noise: generic real data, Nyquist mode included."""
    rng = np.random.default_rng(seed)
    vals = amplitude * np.exp(-(grid.x ** 2) / 8.0) + noise * rng.normal(size=grid.n)
    return field_from_values(grid, vals)


# --- test-only reference: the complex stepper the half-spectrum one replaced --


def _reference_flux(grid, cfg):
    # zero-centred continuum-calibrated coefficients, the power by numpy's **
    m = np.arange(-grid.n // 2, grid.n // 2)
    symbol = (np.abs(m) <= grid.n // 3) * (1j * grid.frequencies)
    coef = _COEFFICIENTS[cfg.flow] / (cfg.k + 1)
    return lambda values: symbol * _forward(grid, values ** (cfg.k + 1)) * coef


def _reference_evolve(u0, cfg):
    """Recorded slices of the complex IF-RK4 on full zero-centred spectra,
    keeping the real part of every inverse transform."""
    grid, dt = u0.grid, cfg.dt
    flux = _reference_flux(grid, cfg)
    nonlin = lambda c: flux(_inverse(grid, c).real)
    E = _phases(grid.sgn * grid.frequencies ** 2, dt / 2)
    E2 = E ** 2
    coeffs = u0.coeffs.copy()
    slices = [_inverse(grid, coeffs).real]
    for j in range(1, cfg.n_steps() + 1):
        k1 = nonlin(coeffs)
        k2 = nonlin(E * (coeffs + 0.5 * dt * k1))
        k3 = nonlin(E * coeffs + 0.5 * dt * k2)
        k4 = nonlin(E2 * coeffs + dt * E * k3)
        coeffs = E2 * coeffs + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)
        if j % cfg.slice_stride == 0:
            slices.append(_inverse(grid, coeffs).real)
    return np.array(slices)


def _reference_duhamel_residual(traj):
    """duhamel_residual on full zero-centred spectra, error norm complex."""
    grid, h = traj.grid, traj.uniform_step()
    times = traj.times[:, None]
    flux = _reference_flux(grid, traj.config)
    g = _phases(grid.sgn * grid.frequencies ** 2, -times) * flux(traj.slices)
    u0 = field_from_values(grid, traj.slices[0])
    predicted = _phases(grid.sgn * grid.frequencies ** 2, times[::2]) * (
        u0.coeffs + _cumulative_simpson(g, h)
    )
    err = traj.slices[::2] - _inverse(grid, predicted)
    worst = np.sqrt(np.sum(np.abs(err) ** 2, axis=-1) * grid.dx).max()
    return float(worst / u0.l2_norm())


# --- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(k=0)
    with pytest.raises(ValueError, match="flow must be one of"):
        SolverConfig(k=2, flow="negative")
    with pytest.raises(ValueError):
        SolverConfig(k=2, dt=-1e-3)
    # a fractional power or stride is no config: u^2.5 would integrate u^2's flux
    with pytest.raises(ValueError, match=r"k must be an integer >= 1, got 2\.5"):
        SolverConfig(k=2.5)
    with pytest.raises(ValueError, match=r"slice_stride must be an integer >= 1, got 2\.5"):
        SolverConfig(k=2, slice_stride=2.5)
    assert SolverConfig(k=np.int64(12), slice_stride=np.int64(2)) == SolverConfig(
        k=12, slice_stride=2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("make", [
    lambda v: make_grid(64, v),
    lambda v: IllposedParams(N=v, s=0.2, theta=0.2, T=1.0),
    lambda v: IllposedParams(N=16.0, s=v, theta=0.2, T=1.0),
    lambda v: IllposedParams(N=16.0, s=0.2, theta=v, T=1.0),
    lambda v: IllposedParams(N=16.0, s=0.2, theta=0.2, T=v),
    lambda v: SolverConfig(k=2, dt=v),
    lambda v: SolverConfig(k=2, t_end=v),
], ids=["grid-length", "illposed-N", "illposed-s", "illposed-theta",
        "illposed-T", "solver-dt", "solver-t_end"])
def test_range_checks_reject_non_finite(make, value):
    # nan fails no ordered comparison such as v <= 0, so each check tests finiteness
    with pytest.raises(ValueError, match="finite"):
        make(value)


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


def _rhs(u, cfg):
    """N(u) of d_t u = -H d_xx u + N(u), from the solver's conservative flux."""
    return np.fft.irfft(_flux(u.grid, cfg)(u.values.real), u.grid.n)


def _product_rhs(u, cfg):
    """Reference N(u) = c u^k u_x in product form, 2/3-dealiased, with a
    plain numpy power."""
    grid, v = u.grid, u.values.real
    xi, mask = _half_grid(grid)
    ux = np.fft.irfft(mask * 1j * xi * np.fft.rfft(v), grid.n)
    half = mask * np.fft.rfft(v ** cfg.k * ux) * _COEFFICIENTS[cfg.flow]
    return np.fft.irfft(half, grid.n)


def _l2(grid, values):
    return np.sqrt(np.sum(values ** 2) * grid.dx)


def test_rhs_zero_and_constant():
    grid = make_grid(256, 2 * np.pi)
    cfg = SolverConfig(k=3, dt=1e-5, t_end=1e-4)
    zero = field_from_values(grid, np.zeros(grid.n))
    assert _l2(grid, _rhs(zero, cfg)) == 0.0
    const = field_from_values(grid, np.full(grid.n, 0.7))
    assert _l2(grid, _rhs(const, cfg)) < 1e-13


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
    a = _rhs(u, cfg)
    b = _product_rhs(u, cfg)
    scale = max(_l2(grid, a), 1e-30)
    assert _l2(grid, a - b) < 1e-10 * scale


def test_rhs_sign_conventions():
    grid = make_grid(256, 2 * np.pi)
    u = gaussian(grid, amplitude=0.5)
    plus = _rhs(u, SolverConfig(k=2, flow="plus", dt=1e-5, t_end=1e-4))
    minus = _rhs(u, SolverConfig(k=2, flow="minus", dt=1e-5, t_end=1e-4))
    resc = _rhs(u, SolverConfig(k=2, flow="rescaled", dt=1e-5, t_end=1e-4))
    np.testing.assert_allclose(plus, -minus, atol=1e-14)
    np.testing.assert_allclose(resc, 2 * minus, atol=1e-14)


def test_power_by_squaring_matches_numpy():
    u = np.random.default_rng(3).normal(size=4096)
    for p in range(1, 14):
        exact = u ** p
        rel = np.abs(_power(u, p) - exact) / np.abs(exact)
        assert rel.max() <= 4e-15, (p, rel.max())


# --- stepping ----------------------------------------------------------------


def test_zero_initial_stays_zero():
    grid = make_grid(256, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=2e-3)
    traj = evolve(field_from_values(grid, np.zeros(grid.n)), cfg)
    assert np.max(np.abs(traj.slices)) == 0.0


def test_linear_hook_matches_free_evolution():
    # at amplitude 1e-3 the flux u^13 is 1e-36 of u, below rounding, so the
    # integrating factor alone moves the data: the solver is the free flow
    grid = make_grid(512, 40.0)
    cfg = SolverConfig(k=12, dt=2e-4, t_end=4e-3)
    u0 = gaussian(grid, amplitude=1e-3, width=1.5, mod=3.0)
    traj = evolve(u0, cfg)
    for i, t in enumerate(traj.times):
        exact = free_evolve(u0, t)
        err = field_from_values(grid, traj.slices[i] - exact.values.real).l2_norm()
        assert err < 1e-12 * max(exact.l2_norm(), 1e-30)


def test_step_on_nyquist_content_stays_real():
    # generic real data carries a Nyquist mode; the complex stepper left an
    # imaginary part at m = -n/2, so a second step refused the field as complex.
    # The propagator leaves that mode in place, so two one-step evolves are a
    # two-step evolve.
    grid = make_grid(64, 2 * np.pi)
    u0 = field_from_values(grid, np.random.default_rng(0).normal(size=grid.n))
    cfg = SolverConfig(k=3, dt=4e-4, t_end=4e-3)
    one = replace(cfg, t_end=cfg.dt)
    u1 = field_from_values(grid, evolve(u0, one).slices[-1])
    assert u1.real and np.all(u1.values.imag == 0.0)
    u2 = field_from_values(grid, evolve(u1, one).slices[-1])
    assert u2.real
    assert np.isfinite(evolve(u0, cfg).slices).all()
    two = evolve(u0, SolverConfig(k=3, dt=4e-4, t_end=8e-4)).slices[-1]
    assert np.max(np.abs(u2.values.real - two)) <= 1e-13 * np.max(np.abs(u0.values))


@pytest.mark.parametrize("n,length,k,dt,t_end", [
    (512, 40.0, 3, 2e-4, 2e-2),
    (2048, 60.0, 12, 4e-5, 2e-3),
])
def test_evolve_matches_complex_reference(n, length, k, dt, t_end):
    grid = make_grid(n, length)
    u0 = noisy_gaussian(grid, amplitude=0.75, noise=0.02)
    assert abs(u0.coeffs[0]) > 1e-4 * np.abs(u0.coeffs).max()  # Nyquist content
    cfg = SolverConfig(k=k, flow="rescaled", dt=dt, t_end=t_end, slice_stride=5)
    slices = evolve(u0, cfg).slices
    ref = _reference_evolve(u0, cfg)
    assert slices.shape == ref.shape
    assert np.max(np.abs(slices - ref)) <= 1e-13 * np.max(np.abs(ref))


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


# --- exact solution ------------------------------------------------------------


def benjamin_wave(x, t, gamma, c):
    """Benjamin's periodic travelling wave of u_t = -H u_xx + c u u_x and its
    speed v: a Poisson kernel plus v, scaled by 1/c from the c = 1 wave."""
    v = -0.5 / np.tanh(gamma)
    return (2.0 * np.sinh(gamma) / (np.cosh(gamma) - np.cos(x - v * t)) + v) / c, v


@pytest.mark.parametrize("flow,c", [("minus", 1.0), ("plus", -1.0), ("rescaled", 2.0)],
                         ids=["minus", "plus", "rescaled"])
def test_benjamin_wave_is_exact(flow, c):
    # An outside reference for the propagator's sign and the nonlinear
    # coefficient together: flipping either moves the wave by O(1).
    grid = make_grid(128, 2 * np.pi)
    gamma = 0.6
    values, v = benjamin_wave(grid.x, 0.0, gamma, c)
    u0 = field_from_values(grid, values)
    du = spectral_derivative(u0)
    hu_xx = hilbert(spectral_derivative(du)).values
    residual = -v * du.values + hu_xx - c * values * du.values
    assert np.max(np.abs(residual)) <= 1e-10 * np.max(np.abs(v * du.values))

    cfg = SolverConfig(k=1, dt=1e-4, t_end=0.1, slice_stride=1000, flow=flow)
    traj = evolve(u0, cfg)
    exact, _ = benjamin_wave(grid.x, traj.times[-1], gamma, c)
    assert np.max(np.abs(traj.slices[-1] - exact)) <= 1e-10 * np.max(np.abs(exact))


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


@pytest.mark.parametrize("values, k, error, match", [
    (1j * gaussian(make_grid(64, 2 * np.pi)).values, 12, ValueError, "real fields"),
    # k = 1 at amplitude 1e4 and dt at the bound: the second slice is finite,
    # but past 1e6 x the initial L-inf
    (gaussian(make_grid(64, 2 * np.pi), amplitude=1e4, width=1.0).values, 1,
     BlowUpError, r"L-inf .* exceeded 1e6 x initial at t = 0\.000976562$"),
], ids=["complex-field", "linf-guard"])
def test_evolve_guards(values, k, error, match):
    grid = make_grid(64, 2 * np.pi)
    dt = stability_bound(grid)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=match):
        evolve(field_from_values(grid, values), SolverConfig(k=k, dt=dt, t_end=8 * dt))


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
    cfg = SolverConfig(k=12, dt=2e-4, t_end=3.2e-3, slice_stride=2)
    traj = evolve(gaussian(grid, amplitude=1e-3, mod=2.0), cfg)  # flux below rounding
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


def test_duhamel_matches_complex_reference():
    # the residual is normalised by ||u0|| and is a difference of O(1)
    # quantities, so the two agree to 1e-12 relative or to rounding, 1e-16
    grid = make_grid(512, 40.0)
    u0 = gaussian(grid, amplitude=1.1, width=1.0, mod=2.5)
    for stride in (64, 32):
        cfg = SolverConfig(k=12, dt=1e-4, t_end=0.0512, slice_stride=stride)
        traj = evolve(u0, cfg)
        ref = _reference_duhamel_residual(traj)
        assert abs(duhamel_residual(traj) - ref) <= 1e-12 * ref + 1e-16, stride


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


def test_rescale_critical_norm_invariant():
    grid = make_grid(512, 40.0)
    u0 = gaussian(grid, amplitude=0.5, width=1.5, mod=2.0)
    k = 12
    sk = 0.5 - 1.0 / k
    for lam in (2.0, 4.0):
        a = homogeneous_norm(rescale(u0, lam, k), sk)
        b = homogeneous_norm(u0, sk)
        assert abs(a - b) < 1e-10 * b


def test_rescale_norm_law():
    grid = make_grid(512, 40.0)
    u0 = gaussian(grid, amplitude=0.5, width=1.5, mod=2.0)
    k, lam = 12, 2.0
    for s in (0.3, 5.0 / 12, 0.49):
        ratio = homogeneous_norm(rescale(u0, lam, k), s) / homogeneous_norm(u0, s)
        assert abs(ratio - lam ** (s + 1.0 / k - 0.5)) < 1e-10


@pytest.mark.parametrize("flow", ["minus", "plus", "rescaled"])
def test_flow_commutes_with_rescaling(flow):
    # at amplitude 0.7 the nonlinear term is far from negligible (it was 0.15)
    grid = make_grid(256, 40.0)
    u0 = gaussian(grid, amplitude=0.7, width=2.0)
    cfg = SolverConfig(k=12, dt=4e-4, t_end=6.4e-3, flow=flow)
    assert commutation_defect(u0, 2.0, cfg) < 1e-6


def test_commutation_sees_a_flux_of_the_wrong_degree(monkeypatch):
    # acceptance 4's flow with the flux power k in place of k + 1: the terms
    # of a step no longer scale alike, and the defect exceeds 1e-6 (1.9e-5);
    # at the former amplitude 0.01 the flow is linear and it stays 5e-16
    def flux_power_k(grid, cfg):
        xi, mask = _half_grid(grid)
        symbol = mask * (1j * xi) * (_COEFFICIENTS[cfg.flow] / (cfg.k + 1))
        return lambda values: symbol * np.fft.rfft(_power(values, cfg.k))

    monkeypatch.setattr(solver, "_flux", flux_power_k)
    u0 = gaussian(make_grid(256, 40.0), amplitude=0.7, width=1.0)
    cfg = SolverConfig(k=12, flow="rescaled", dt=5e-4, t_end=0.05)
    assert commutation_defect(u0, 2.0, cfg) > 1e-6
