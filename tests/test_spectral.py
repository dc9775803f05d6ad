"""Spectral core: transform calibration, multipliers, dyadic blocks, free flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbolab.spectral import (
    _forward,
    _inverse,
    _phases,
    _propagator,
    antiderivative,
    apply_multiplier,
    band_projections,
    boundary_taper,
    field_from_coeffs,
    field_from_values,
    fractional_derivative,
    free_evolve,
    hilbert,
    interior_window_mask,
    lowpass_P0,
    lp_block,
    make_grid,
    project_half_line,
    sign_convention_label,
    spectral_derivative,
    tilde_projection,
)

from conftest import field_mean

GRID = make_grid(256, 2 * np.pi)


def band_limited(grid, seed, max_mode=None):
    """Random real field with spectrum confined to |m| <= max_mode."""
    rng = np.random.default_rng(seed)
    n = grid.n
    if max_mode is None:
        max_mode = n // 4
    coeffs = np.zeros(n, dtype=np.complex128)
    dc = n // 2
    for m in range(1, max_mode + 1):
        c = rng.normal() + 1j * rng.normal()
        coeffs[dc + m] = c
        coeffs[dc - m] = np.conj(c)
    coeffs[dc] = rng.normal()
    return field_from_coeffs(grid, coeffs)


def white_noise():
    """Real n = 64 samples with generic content on the Nyquist mode m = -n/2."""
    grid = make_grid(64, 2 * np.pi)
    return field_from_values(grid, np.random.default_rng(0).normal(size=grid.n))


# --- grid identity ---------------------------------------------------------


def test_grid_identity_is_size_and_length():
    # equal (n, L) grids are equal and hash alike, so either finds the other's
    # cache entry; the sample arrays take no part
    grid, twin = make_grid(64, 2 * np.pi), make_grid(64, 2 * np.pi)
    assert grid == twin and hash(grid) == hash(twin)
    assert {grid: "cached"}[twin] == "cached"
    assert grid != make_grid(128, 2 * np.pi)
    assert grid != make_grid(64, 4 * np.pi)
    assert grid != (64, 2 * np.pi)


@pytest.mark.parametrize("n, length, match", [
    (0, 1.0, "power of two >= 8, got 0"),
    (4, 1.0, "power of two >= 8, got 4"),
    (12, 1.0, "power of two >= 8, got 12"),
    (8, 0.0, "positive and finite, got 0.0"),
    (8, -1.0, "positive and finite, got -1.0"),
    (8, np.inf, "positive and finite, got inf"),
    (8, np.nan, "positive and finite, got nan"),
], ids=["n-0", "n-4", "n-12", "length-0", "length-negative", "length-inf", "length-nan"])
def test_make_grid_rejects_out_of_range(n, length, match):
    with pytest.raises(ValueError, match=match):
        make_grid(n, length)


@pytest.mark.parametrize("n", [512.0, np.int64(512)], ids=["float", "numpy-int"])
def test_make_grid_takes_an_integer_n(n):
    if isinstance(n, float):
        with pytest.raises(ValueError, match="power of two >= 8, got 512.0"):
            make_grid(n, 40.0)
    else:
        grid = make_grid(n, 40.0)
        assert grid == make_grid(512, 40.0) and type(grid.n) is int


@pytest.mark.parametrize("call, match", [
    (lambda f: field_from_values(GRID, np.zeros(GRID.n + 1)), r"values must have shape \(256,\)"),
    (lambda f: field_from_coeffs(GRID, np.zeros(GRID.n - 1)), r"coeffs must have shape \(256,\)"),
    (lambda f: apply_multiplier(f, np.ones(GRID.n // 2)), "does not match grid"),
    (lambda f: fractional_derivative(f, -1.5), "alpha must be >= -1, got -1.5"),
    (lambda f: project_half_line(f, "leq"), "side must be 'plus' or 'minus'"),
    (lambda f: band_projections(f, 2, "plus"), "side must be 'leq' or 'geq'"),
], ids=["values-shape", "coeffs-shape", "symbol-shape", "alpha-below-minus-one",
        "half-line-side", "band-side"])
def test_guards_reject_bad_input(call, match):
    f = field_from_values(GRID, np.sin(GRID.x))
    with pytest.raises(ValueError, match=match):
        call(f)


# --- transform calibration -------------------------------------------------


def test_pure_mode_coefficient():
    # f = e^{ix} on L = 2pi must give fhat(1) = L and nothing else.
    f = field_from_values(GRID, np.exp(1j * GRID.x))
    dc = GRID.n // 2
    assert abs(f.coeffs[dc + 1] - 2 * np.pi) < 1e-10
    others = np.delete(f.coeffs, dc + 1)
    assert np.max(np.abs(others)) < 1e-10


def test_round_trip_values():
    f = band_limited(GRID, 0)
    g = field_from_coeffs(GRID, f.coeffs)
    np.testing.assert_allclose(g.values, f.values, atol=1e-12)


def test_parseval():
    f = band_limited(GRID, 1)
    phys = np.sum(np.abs(f.values) ** 2) * GRID.dx
    freq = np.sum(np.abs(f.coeffs) ** 2) * GRID.dxi / (2 * np.pi)
    assert abs(phys - freq) < 1e-10 * phys


def test_real_flag():
    f = field_from_values(GRID, np.cos(GRID.x))
    assert f.real
    g = field_from_values(GRID, np.exp(1j * GRID.x))
    assert not g.real


def test_mean():
    f = field_from_values(GRID, 3.0 + np.cos(2 * GRID.x))
    assert abs(field_mean(f) - 3.0) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=GRID.n)
    f = field_from_values(GRID, vals)
    g = field_from_coeffs(GRID, f.coeffs)
    np.testing.assert_allclose(g.values.real, vals, atol=1e-10)


def test_transforms_act_on_last_axis():
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(5, GRID.n)) + 1j * rng.normal(size=(5, GRID.n))
    for transform in (_forward, _inverse):
        whole = transform(GRID, stack)
        rows = np.stack([transform(GRID, row) for row in stack])
        assert np.max(np.abs(whole - rows)) <= 1e-14 * np.max(np.abs(rows))


# --- derivative and Hilbert ------------------------------------------------


def test_derivative_of_sin():
    f = field_from_values(GRID, np.sin(3 * GRID.x))
    df = spectral_derivative(f)
    np.testing.assert_allclose(df.values.real, 3 * np.cos(3 * GRID.x), atol=1e-10)


def test_hilbert_of_cos():
    # H cos = sin, H sin = -cos.
    f = field_from_values(GRID, np.cos(GRID.x))
    np.testing.assert_allclose(hilbert(f).values.real, np.sin(GRID.x), atol=1e-12)
    g = field_from_values(GRID, np.sin(GRID.x))
    np.testing.assert_allclose(hilbert(g).values.real, -np.cos(GRID.x), atol=1e-12)


@pytest.mark.parametrize("op", [spectral_derivative, hilbert, antiderivative])
def test_odd_symbols_keep_real_data_real(op):
    # each odd symbol vanishes on the self-conjugate Nyquist mode
    f = white_noise()
    out = op(f)
    assert out.real
    assert np.max(np.abs(out.values.imag)) <= 1e-13 * np.max(np.abs(f.values))


def test_hilbert_squared_is_minus_identity_off_mean():
    f = band_limited(GRID, 2)
    mean_free = field_from_values(GRID, f.values - field_mean(f))
    hh = hilbert(hilbert(mean_free))
    np.testing.assert_allclose(hh.values, -mean_free.values, atol=1e-10)


def test_fractional_half_derivative():
    # D^{1/2} e^{i4x} = 2 e^{i4x}.
    f = field_from_values(GRID, np.exp(4j * GRID.x))
    d = fractional_derivative(f, 0.5)
    np.testing.assert_allclose(d.values, 2.0 * np.exp(4j * GRID.x), atol=1e-10)


def test_fractional_negative_order():
    f = field_from_values(GRID, np.exp(4j * GRID.x))
    d = fractional_derivative(f, -0.5)
    np.testing.assert_allclose(d.values, 0.5 * np.exp(4j * GRID.x), atol=1e-10)


def test_fractional_negative_order_rejects_mean():
    f = field_from_values(GRID, 1.0 + np.cos(GRID.x))
    with pytest.raises(ValueError):
        fractional_derivative(f, -0.25)


def test_fractional_inverse_pair():
    f = band_limited(GRID, 3)
    mean_free = field_from_values(GRID, f.values - field_mean(f))
    back = fractional_derivative(fractional_derivative(mean_free, 0.3), -0.3)
    np.testing.assert_allclose(back.values, mean_free.values, atol=1e-9)


def test_unbounded_symbol_rejected():
    f = band_limited(GRID, 4)
    with np.errstate(divide="ignore"):
        bad = 1.0 / f.grid.frequencies
    with pytest.raises(ValueError, match="non-finite"):
        apply_multiplier(f, bad)


# --- half-line projections -------------------------------------------------


def test_projections_sum_to_identity():
    for f in (band_limited(GRID, 5), white_noise()):
        total = project_half_line(f, "plus").values + project_half_line(f, "minus").values
        np.testing.assert_allclose(total, f.values, atol=1e-11)


def test_ih_equals_plus_minus_difference():
    # i*H = P+ - P-, zero and Nyquist modes included (both sides kill them).
    for f in (band_limited(GRID, 6), white_noise()):
        lhs = 1j * hilbert(f).values
        rhs = project_half_line(f, "plus").values - project_half_line(f, "minus").values
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_projection_idempotent_off_zero_mode():
    f = band_limited(GRID, 7)
    mean_free = field_from_values(GRID, f.values - field_mean(f))
    p = project_half_line(mean_free, "plus")
    pp = project_half_line(p, "plus")
    np.testing.assert_allclose(pp.values, p.values, atol=1e-11)


def test_projection_of_real_field_conjugate_symmetry():
    for f in (band_limited(GRID, 8), white_noise()):
        p = project_half_line(f, "plus")
        m = project_half_line(f, "minus")
        np.testing.assert_allclose(p.values, np.conj(m.values), atol=1e-11)


# --- dyadic decomposition --------------------------------------------------


def test_block_support():
    f = band_limited(GRID, 9)
    q = lp_block(f, 3)
    xi = GRID.frequencies
    outside = (np.abs(xi) < 2.0 ** 2) | (np.abs(xi) > 2.0 ** 4)
    # strictly outside [2^{j-1}, 2^{j+1}] the symbol vanishes
    strictly = (np.abs(xi) < 2.0 ** 2 * (1 - 1e-9)) | (np.abs(xi) > 2.0 ** 4 * (1 + 1e-9))
    assert np.max(np.abs(q.coeffs[strictly])) == 0.0


def test_lowpass_support():
    f = band_limited(GRID, 10)
    p0 = lowpass_P0(f)
    xi = GRID.frequencies
    assert np.max(np.abs(p0.coeffs[np.abs(xi) > 0.25 + 1e-9])) == 0.0
    # passes the zero mode untouched
    assert abs(p0.coeffs[GRID.n // 2] - f.coeffs[GRID.n // 2]) < 1e-14


def test_dyadic_reconstruction():
    # P0 f + sum_{j >= -2} Q_j f = f exactly, zero mode included.
    f = band_limited(GRID, 11)
    jmax = int(np.ceil(np.log2(GRID.xi_max))) + 1
    total = lowpass_P0(f).values.copy()
    for j in range(-2, jmax + 1):
        total += lp_block(f, j).values
    np.testing.assert_allclose(total, f.values, atol=1e-10)


def test_tilde_complement():
    f = band_limited(GRID, 12)
    total = tilde_projection(f).values + lowpass_P0(f).values
    np.testing.assert_allclose(total, f.values, atol=1e-11)
    assert abs(tilde_projection(f).coeffs[GRID.n // 2]) == 0.0


def test_smooth_three_way_split():
    # f = P~ P- f + P0 f + P~ P+ f exactly (P~ commutes with P+/-).
    f = band_limited(GRID, 13)
    t = tilde_projection(f)
    total = (
        project_half_line(t, "minus").values
        + lowpass_P0(f).values
        + project_half_line(t, "plus").values
    )
    np.testing.assert_allclose(total, f.values, atol=1e-10)


def test_band_projection_split():
    f = band_limited(GRID, 14)
    mean_free = field_from_values(GRID, f.values - field_mean(f))
    for j in (0, 2, 5):
        lo = band_projections(mean_free, j, "leq")
        hi = band_projections(mean_free, j + 1, "geq")
        np.testing.assert_allclose(
            lo.values + hi.values, mean_free.values, atol=1e-10
        )


def test_distant_blocks_orthogonal():
    f = band_limited(GRID, 15)
    a = lp_block(f, 1)
    b = lp_block(f, 4)
    inner = np.sum(a.values * np.conj(b.values)) * GRID.dx
    assert abs(inner) < 1e-12


# --- free evolution ---------------------------------------------------------


def test_sign_convention_label():
    # H = -i sgn(xi) and d_x^2 = -xi^2 give uhat_t = -i xi |xi| uhat
    assert sign_convention_label() == "exp(-1i*t*xi*|xi|)"


def test_free_evolution_solves_linear_equation():
    # Centered difference of V(t)f in t matches -H d_x^2 V(t)f to O(dt^2).
    f = band_limited(GRID, 16, max_mode=8)
    t0, dt = 0.3, 1e-5
    u = free_evolve(f, t0)
    up = free_evolve(f, t0 + dt)
    um = free_evolve(f, t0 - dt)
    dudt = (up.values - um.values) / (2 * dt)
    hdxx = hilbert(spectral_derivative(spectral_derivative(u)))
    resid = np.max(np.abs(dudt + hdxx.values))
    assert resid < 1e-6 * max(1.0, np.max(np.abs(u.values)))


def test_free_evolution_group_law():
    f = band_limited(GRID, 17)
    one = free_evolve(free_evolve(f, 0.2), 0.5)
    two = free_evolve(f, 0.7)
    np.testing.assert_allclose(one.values, two.values, atol=1e-10)


def test_free_evolution_unitary():
    f = band_limited(GRID, 18)
    u = free_evolve(f, 1.37)
    assert abs(u.l2_norm() - f.l2_norm()) < 1e-12 * f.l2_norm()


def test_free_evolution_preserves_realness():
    # xi|xi| is odd, so the flow maps real data to real data; on the Nyquist
    # mode it vanishes, as every odd symbol does.
    f = band_limited(GRID, 19)
    u = free_evolve(f, 0.41)
    assert np.max(np.abs(u.values.imag)) < 1e-10
    f = white_noise()
    u = free_evolve(f, 0.01)
    assert u.real and np.max(np.abs(u.values.imag)) <= 1e-13 * np.max(np.abs(f.values))


# --- antiderivative ---------------------------------------------------------


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
def test_half_spectrum_propagator_matches_the_full_grid(n):
    grid = make_grid(n, 30.0)
    t = np.array([0.0, 1e-3, 0.37, -2.5])[:, None]
    full = _phases(grid.sgn * grid.frequencies ** 2, t)
    half = _propagator(grid, t)
    assert half.shape == (t.size, n // 2 + 1)
    assert np.array_equal(half[:, :-1], full[:, n // 2:])
    assert np.array_equal(half[:, -1], np.ones(t.size))


def test_antiderivative_of_cos():
    f = field_from_values(GRID, np.cos(GRID.x))
    F = antiderivative(f)
    # F = sin(x) - sin(-pi) = sin(x) with F(-L/2)=0 anchoring
    np.testing.assert_allclose(F.values.real, np.sin(GRID.x), atol=1e-10)
    assert abs(F.values[0]) < 1e-10


def test_antiderivative_of_constant_is_ramp():
    f = field_from_values(GRID, np.full(GRID.n, 2.0))
    F = antiderivative(f)
    np.testing.assert_allclose(F.values.real, 2.0 * (GRID.x + np.pi), atol=1e-10)


def test_antiderivative_round_trip():
    f = band_limited(GRID, 20)
    F = antiderivative(f)
    slope = float(np.real(field_mean(f)))
    periodic = field_from_values(GRID, F.values - slope * (GRID.x + GRID.length / 2))
    back = spectral_derivative(periodic).values + slope
    np.testing.assert_allclose(back, f.values, atol=1e-8)


def test_antiderivative_left_endpoint_vanishes():
    f = band_limited(GRID, 21)
    F = antiderivative(f)
    assert abs(F.values[0]) < 1e-10


# --- taper and window -------------------------------------------------------


def test_taper_flat_interior():
    w = boundary_taper(GRID)
    inner = np.abs(GRID.x) <= 0.45 * GRID.length / 2 * 0.999
    np.testing.assert_allclose(w[inner], 1.0, atol=0)
    assert w[np.argmax(np.abs(GRID.x))] < 1e-6


def test_interior_window():
    mask = interior_window_mask(GRID)
    assert mask.sum() == pytest.approx(GRID.n / 2, abs=2)
    assert np.all(np.abs(GRID.x[mask]) <= GRID.length / 4 + 1e-12)
