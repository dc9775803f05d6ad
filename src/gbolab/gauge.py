r"""Gauge transformation, the bilinear frequency-interaction operator, and
the residual of the gauged evolution equation.

The gauged variable is w = P_+(e^{-iF} u) with F the antiderivative of u^k
(mean part carried by a ramp; the product is tapered near the domain
boundary before projecting, since the phase is not periodic).

The bilinear operator G is defined on the frequency side by

    Ghat(xi) = (dxi / 4pi) * (1/xi) * sum_{xi1} xi1*(xi-xi1)
               * [sgn(xi1) + sgn(xi-xi1)] * fhat(xi1) * ghat(xi-xi1)

for xi != 0 and Ghat(0) = 0; the convolution is linear (out-of-band treated
as zero).  The constant is calibrated so that the two physical-space
identities hold exactly:

    G(f,f) = dx^{-1}(f_x * H f_x)
    G(f,g) = dx^{-1}(-i P_+f_x P_+g_x + i P_-f_x P_-g_x)

The kernel is evaluated through the separable split
xi1*(xi-xi1)*[sgn+sgn] = |xi1|*(xi-xi1) + xi1*|xi-xi1|, which reduces the
double sum to two linear convolutions.

The residual check targets the identity satisfied by w along solutions of
the rescaled flow u_t + H u_xx = 2 u^k u_x:

    w_t + H w_xx = P_+[2 e^{-iF} (-k u^k P_-u_x - i P_-u_xx)]
                   - i k(k-1) P_+(e^{-iF} u * int_{-L/2}^x u^{k-2} u_x H u_x)

Residuals are measured in L2 on the interior half-window and normalized by
the largest windowed ||H w_xx|| over the interior slices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from gbolab.norms import SpaceTimeField
from gbolab.spectral import (
    Field,
    antiderivative,
    apply_multiplier,
    boundary_taper,
    field_from_coeffs,
    field_from_values,
    hilbert,
    interior_window_mask,
    project_half_line,
    sign_convention_label,
    spectral_derivative,
    windowed_l2,
)

__all__ = [
    "GaugeState",
    "gauge_transform",
    "bilinear_G_direct",
    "bilinear_G_projected",
    "gauge_equation_residual",
    "windowed_residual_norm",
    "residual_report",
]


@dataclass(frozen=True)
class GaugeState:
    """A field together with its gauge phase and gauged variable."""

    u: Field
    F: Field
    w: Field
    k: int


def gauge_transform(u: Field, k: int, half: bool = False) -> GaugeState:
    """Gauge-transform a real field: w = P_+(taper * e^{-iF} * u).

    Parameters
    ----------
    u : Field
        Real field.
    k : int
        Nonlinearity power, at least 2.
    half : bool
        Use F = (1/2) * antiderivative(u^k), the variant appropriate for
        the non-rescaled flow; default is the full antiderivative.
    """
    if not u.real:
        raise ValueError("gauge transform requires a real field")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    uk = field_from_values(u.grid, u.values.real ** k)
    F = antiderivative(uk)
    if half:
        F = field_from_values(u.grid, 0.5 * F.values)
    taper = boundary_taper(u.grid)
    phase = np.exp(-1j * F.values)
    w = project_half_line(field_from_values(u.grid, taper * phase * u.values), "plus")
    return GaugeState(u=u, F=F, w=w, k=k)


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
    xi = f.grid.frequencies
    n = f.grid.n
    term = _linear_convolution_band(np.abs(xi) * f.coeffs, xi * g.coeffs)
    term = term + _linear_convolution_band(xi * f.coeffs, np.abs(xi) * g.coeffs)
    out = np.zeros(n, dtype=np.complex128)
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
    xi = f.grid.frequencies
    sym = np.zeros(f.grid.n, dtype=np.complex128)
    nz = xi != 0
    sym[nz] = 1.0 / (1j * xi[nz])
    return apply_multiplier(h, sym)


def _fourth_order_time_derivative(slices: np.ndarray, dt: float) -> np.ndarray:
    """Centered 4th-order d/dt of slices[i] for interior i (2..M-3)."""
    return (
        -slices[4:] + 8.0 * slices[3:-1] - 8.0 * slices[1:-3] + slices[:-4]
    ) / (12.0 * dt)


def _require_rescaled(u_traj) -> None:
    cfg = getattr(u_traj, "config", None)
    if cfg is None or not getattr(cfg, "rescaled", False):
        raise ValueError(
            "trajectory is not flagged as rescaled-equation output; "
            "run the solver with rescaled=True"
        )


def gauge_equation_residual(u_traj, k: int) -> tuple[float, SpaceTimeField]:
    """Residual of the gauged evolution identity along a computed trajectory.

    ``u_traj`` must be a solver trajectory of the rescaled flow
    u_t + H u_xx = 2 u^k u_x with at least 5 uniformly spaced slices.
    Returns (max windowed residual over interior slices, residual samples
    as a SpaceTimeField on the interior slice times).  The residual norm is
    relative to the largest windowed ||H w_xx||.
    """
    _require_rescaled(u_traj)
    if u_traj.n_times < 5:
        raise ValueError("need at least 5 time slices for the interior stencil")
    dt = u_traj.uniform_step()

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
        I = antiderivative(inner)
        group2 = phase * uvals * I.values
        g2 = project_half_line(field_from_values(grid, taper * group2), "plus")

        hwxx_minus_rhs[i] = hwxx.values - (g1.values - 1j * k * (k - 1) * g2.values)

    interior = slice(2, u_traj.n_times - 2)
    residual = _fourth_order_time_derivative(w_slices, dt) + hwxx_minus_rhs[interior]
    scale = np.max(hwxx_norms[interior])
    resid_traj = SpaceTimeField(grid, u_traj.times[interior], residual)
    norm = windowed_residual_norm(resid_traj, scale if scale > 0 else 1.0)
    return norm, resid_traj


def windowed_residual_norm(resid: SpaceTimeField, scale: float = 1.0) -> float:
    """Max over slices of the interior-window L2 norm, divided by ``scale``."""
    mask = interior_window_mask(resid.grid)
    return float(np.max(windowed_l2(resid.slices, resid.grid, mask)) / scale)


def residual_report(
    u_traj, k: int, out_path: str | None = None
) -> dict:
    """Run gauge_equation_residual and package the JSON report."""
    norm, resid = gauge_equation_residual(u_traj, k)
    mask = interior_window_mask(resid.grid)
    per_slice = windowed_l2(resid.slices, resid.grid, mask).tolist()
    dt = float(np.diff(np.asarray(u_traj.times))[0])
    report = {
        "k": k,
        "grid": {"n": resid.grid.n, "length": resid.grid.length},
        "dt": dt,
        "window": "interior |x| <= L/4",
        "residual_norm": norm,
        "per_slice_residuals": per_slice,
        "sign_convention": sign_convention_label(),
    }
    if out_path is not None:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
    return report
