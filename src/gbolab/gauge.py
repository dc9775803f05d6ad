r"""Gauge transformation, the bilinear frequency-interaction operator, and
the residual of the gauged evolution equation.

The gauged variable is w = P_+(e^{-iF} u) with F the antiderivative of u^k
(mean part carried by a ramp; the product is tapered near the domain
boundary before projecting, since the phase is not periodic).

The bilinear operator G is defined on the frequency side by

    Ghat(xi) = (dxi / 4pi) * (1/xi) * sum_{xi1} xi1*(xi-xi1)
               * [sgn(xi1) + sgn(xi-xi1)] * fhat(xi1) * ghat(xi-xi1)

for xi != 0 and Ghat(0) = 0, with xi, sgn(xi) and 1/xi all 0 on the Nyquist
mode; the convolution is linear (out-of-band treated as zero).  The
constant is calibrated so that the two physical-space identities hold
exactly:

    G(f,f) = dx^{-1}(f_x * H f_x)
    G(f,g) = dx^{-1}(-i P_+f_x P_+g_x + i P_-f_x P_-g_x)

The kernel is evaluated through the separable split
xi1*(xi-xi1)*[sgn+sgn] = |xi1|*(xi-xi1) + xi1*|xi-xi1|, which reduces the
double sum to two linear convolutions.

The residual check targets the identity satisfied by w along solutions of
the rescaled flow u_t + H u_xx = 2 u^k u_x:

    w_t + H w_xx = P_+[2 e^{-iF} (-k u^k P_-u_x - i P_-u_xx)]
                   - i k(k-1) P_+(e^{-iF} u * int_{-L/2}^x u^{k-2} u_x H u_x)

The residual is linear in its terms, so each slice evaluates each term
once: H w_xx, P_-u_x and P_-u_xx are one multiplier each, and both
right-hand-side groups go through a single P_+ projection.  Residuals are
measured in L2 on the interior half-window and normalized by the largest
windowed ||H w_xx|| over the interior slices.  One call takes the residual
at several slice spacings (thinnings of one trajectory): it gauges each
slice once and keeps only the window's columns.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from gbolab.solver import Trajectory
from gbolab.spectral import (
    Field,
    antiderivative,
    apply_multiplier,
    boundary_taper,
    field_from_coeffs,
    field_from_values,
    interior_window_mask,
    project_half_line,
    spectral_derivative,
    windowed_l2,
)

__all__ = [
    "GaugeState",
    "gauge_transform",
    "bilinear_G_direct",
    "bilinear_G_projected",
    "gauge_equation_residual",
]


@dataclass(frozen=True)
class GaugeState:
    """The gauge phase F and the gauged variable w of a field."""

    F: Field
    w: Field


def _check_gauge(k: int, n_times: int = 5, every=(1,)) -> None:
    """The gauge transform needs k >= 2; the residual's time stencil 5 slices
    in the coarsest thinning of n_times slices by the factors ``every``."""
    if not isinstance(k, numbers.Integral) or k < 2:
        raise ValueError(f"k must be an integer >= 2 for the gauge transform, got {k}")
    if len(every) == 0 or not all(isinstance(e, numbers.Integral) and e >= 1 for e in every):
        raise ValueError(f"every must list positive integer thinning factors, got {list(every)}")
    n_slices = (n_times - 1) // max(every) + 1
    if n_slices < 5:
        raise ValueError(f"thinning by {max(every)} leaves {n_slices} of {n_times} slices; "
                         "the residual needs 5")


def gauge_transform(u: Field, k: int) -> GaugeState:
    """Gauge-transform a real field: w = P_+(taper * e^{-iF} * u).

    Parameters
    ----------
    u : Field
        Real field.
    k : int
        Nonlinearity power, at least 2.
    """
    if not u.real:
        raise ValueError("gauge transform requires a real field")
    _check_gauge(k)
    uk = field_from_values(u.grid, u.values.real ** k)
    F = antiderivative(uk)
    taper = boundary_taper(u.grid)
    phase = np.exp(-1j * F.values)
    w = project_half_line(field_from_values(u.grid, taper * phase * u.values), "plus")
    return GaugeState(F=F, w=w)


def _linear_convolution_band(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # full linear convolution of two coefficient arrays, restricted to the
    # original m-band; index algebra: out[m] = sum a[m1] b[m-m1]
    n = a.size
    full = np.convolve(a, b)
    return full[n // 2 : n // 2 + n]


def bilinear_G_direct(f: Field, g: Field) -> Field:
    """G by the explicit frequency-kernel sum (linear convolution)."""
    if f.grid != g.grid:
        raise ValueError("fields must share a grid")
    xi = f.grid.sgn * np.abs(f.grid.frequencies)
    abs_xi = f.grid.sgn * xi  # the kernel's sgn(xi)*xi, so 0 on the Nyquist mode too
    term = _linear_convolution_band(abs_xi * f.coeffs, xi * g.coeffs)
    term = term + _linear_convolution_band(xi * f.coeffs, abs_xi * g.coeffs)
    out = np.zeros(f.grid.n, dtype=np.complex128)
    nz = xi != 0
    out[nz] = term[nz] * f.grid.dxi / (4.0 * np.pi * xi[nz])
    return field_from_coeffs(f.grid, out)


def bilinear_G_projected(f: Field, g: Field) -> Field:
    """G assembled from half-line projections of the derivatives."""
    if f.grid != g.grid:
        raise ValueError("fields must share a grid")
    fx = spectral_derivative(f)
    gx = spectral_derivative(g)
    plus = project_half_line(fx, "plus").values * project_half_line(gx, "plus").values
    minus = project_half_line(fx, "minus").values * project_half_line(gx, "minus").values
    h = field_from_values(f.grid, -1j * plus + 1j * minus)
    xi = f.grid.sgn * np.abs(f.grid.frequencies)
    sym = np.zeros(f.grid.n, dtype=np.complex128)
    nz = xi != 0
    sym[nz] = 1.0 / (1j * xi[nz])
    return apply_multiplier(h, sym)


def gauge_equation_residual(u_traj: Trajectory, every: list[int]) -> list[float]:
    """Residuals of the gauged evolution identity along a computed trajectory,
    one for each thinning factor e in ``every``, of the slices u_traj.slices[::e].

    ``u_traj`` must be a solver trajectory of the rescaled flow
    u_t + H u_xx = 2 u^k u_x (``flow='rescaled'``, k read from its config)
    whose coarsest thinning keeps at least 5 uniformly spaced slices.  Each
    residual is the max over its thinning's interior slices of the windowed
    residual, relative to their largest windowed ||H w_xx||.

    Each slice is gauged once for all thinnings: one multiplier for H w_xx,
    one each for P_-u_x and P_-u_xx (u real, so u_x = 2 Re P_-u_x and
    H u_x = -2 Im P_-u_x), and one P_+ of both right-hand-side groups
    together.  Only the window's columns of w and of H w_xx - rhs are kept,
    and each thinning's time stencil runs one interior slice at a time.
    """
    if u_traj.config.flow != "rescaled":
        raise ValueError(f"the gauge identity holds for the rescaled flow, not "
                         f"{u_traj.config.flow!r}; run the solver with flow='rescaled'")
    k = u_traj.config.k
    _check_gauge(k, u_traj.n_times, every)
    u_traj.uniform_step()  # raises unless the slices are uniform in time

    grid = u_traj.grid
    taper = boundary_taper(grid)
    mask = interior_window_mask(grid)
    dx = 1j * grid.sgn * np.abs(grid.frequencies)
    minus_dx = (0.5 - 0.5 * grid.sgn) * dx
    minus_dxx = minus_dx * dx
    hilbert_dxx = 1j * grid.sgn * grid.frequencies ** 2

    w_window = np.empty((u_traj.n_times, np.count_nonzero(mask)), dtype=np.complex128)
    hwxx_minus_rhs = np.empty_like(w_window)
    hwxx_norms = np.empty(u_traj.n_times)

    for i in range(u_traj.n_times):
        u = field_from_values(grid, np.real(u_traj.slices[i]))
        state = gauge_transform(u, k)
        uvals = u.values.real
        w_window[i] = state.w.values[mask]

        hwxx = apply_multiplier(state.w, hilbert_dxx).values
        hwxx_norms[i] = windowed_l2(hwxx, grid, mask)

        pm_ux = apply_multiplier(u, minus_dx).values
        pm_uxx = apply_multiplier(u, minus_dxx).values
        inner = uvals ** (k - 2) * (2.0 * pm_ux.real) * (-2.0 * pm_ux.imag)
        I = antiderivative(field_from_values(grid, inner)).values
        rhs = np.exp(-1j * state.F.values) * (
            2.0 * (-k * uvals ** k * pm_ux - 1j * pm_uxx) - 1j * k * (k - 1) * uvals * I
        )
        rhs = project_half_line(field_from_values(grid, taper * rhs), "plus")
        hwxx_minus_rhs[i] = (hwxx - rhs.values)[mask]

    residuals = []
    for e in every:
        dt = u_traj.times[e] - u_traj.times[0]
        w, rest, scale = w_window[::e], hwxx_minus_rhs[::e], np.max(hwxx_norms[::e][2:-2])
        # centred 4th-order w_t, one interior slice at a time; the rows hold
        # only the window's columns, all of which windowed_l2 then sums
        worst = max(windowed_l2((-w[j + 2] + 8.0 * w[j + 1] - 8.0 * w[j - 1] + w[j - 2])
                                / (12.0 * dt) + rest[j], grid, slice(None))
                    for j in range(2, len(w) - 2))
        residuals.append(float(worst / (scale if scale > 0 else 1.0)))
    return residuals
