"""Seeded wave-packet ensembles for the linear-estimate ratio studies.

Packets are drawn directly in frequency space: a Gaussian envelope around a
random center frequency, a random spatial offset as a linear phase, and an
exactly zero mean mode.  Building in frequency space makes the mean-zero
requirement of negative-order derivatives exact and lets a packet be
re-rendered on a finer grid without changing the underlying function.
"""

from __future__ import annotations

import numpy as np

from ..spectral import Field, SpectralGrid, field_from_coeffs, make_grid


def make_packet_ensemble(
    grid: SpectralGrid,
    n_trials: int,
    seed: int,
    kind: str = "modulated",
    center_range: tuple[float, float] | None = None,
) -> list[Field]:
    """Draw n_trials random real packets on ``grid``.

    kind='modulated' centers the envelope at a log-uniform frequency in
    center_range (default [8, xi_max/4]); kind='broadband' centers it at
    zero so low modes carry most of the mass, which is what the
    low-frequency estimate needs.  The zero mode is always exactly zero.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if kind not in ("modulated", "broadband"):
        raise ValueError(f"unknown packet kind {kind!r}")
    rng = np.random.default_rng(seed)
    packets = []
    for _ in range(n_trials):
        if kind == "modulated":
            lo, hi = center_range or (8.0, grid.xi_max / 4)
            if not 0 < lo < hi:
                raise ValueError("center_range must satisfy 0 < lo < hi")
            center = np.exp(rng.uniform(np.log(lo), np.log(hi)))
            width = rng.uniform(0.5, 2.0)
        else:
            center = 0.0
            width = rng.uniform(0.3, 0.8)
        x0 = rng.uniform(-grid.length / 8, grid.length / 8)
        amplitude = rng.uniform(0.5, 2.0)
        packets.append(_packet(grid, amplitude, center, width, x0))
    return packets


def _packet(grid: SpectralGrid, amplitude: float, center: float,
            width: float, x0: float) -> Field:
    xi = grid.frequencies
    envelope = np.exp(-((np.abs(xi) - center) ** 2) / (2 * width ** 2))
    coeffs = amplitude * envelope * np.exp(-1j * xi * x0)
    # conjugate symmetry makes the field real; the mean mode is exactly zero
    dc = grid.n // 2
    out = np.zeros(grid.n, dtype=np.complex128)
    out[dc + 1 :] = coeffs[dc + 1 :]
    out[dc - 1 : 0 : -1] = np.conj(out[dc + 1 :])
    return field_from_coeffs(grid, out)


def max_active_frequency(f: Field, rel_tol: float = 1e-12) -> float:
    """Largest |xi| carrying more than rel_tol of the peak coefficient."""
    mags = np.abs(f.coeffs)
    peak = np.max(mags)
    if peak == 0:
        return 0.0
    active = np.abs(f.grid.frequencies)[mags > rel_tol * peak]
    return float(np.max(active)) if active.size else 0.0


def check_wraparound(fields: list[Field], T: float) -> None:
    """Dispersive wrap-around guard: group speed 2 xi for time T must not
    carry the fastest packet content more than a quarter length."""
    if not fields:
        raise ValueError("empty ensemble")
    grid = fields[0].grid
    xi_data = max(max_active_frequency(f) for f in fields)
    if 2.0 * xi_data * T >= grid.length / 4:
        raise ValueError(
            f"wrap-around: 2 * {xi_data:.3g} * {T:.3g} >= L/4 = {grid.length / 4:.3g}; "
            "shorten T or enlarge the domain"
        )


def embed_field(f: Field, factor: int) -> Field:
    """Render the same function on a grid refined by an integer factor.

    Fourier coefficients are zero-padded, so values at common points and
    all norms are preserved to rounding.
    """
    if factor < 1 or factor & (factor - 1):
        raise ValueError("factor must be a positive power of two")
    if factor == 1:
        return f
    fine = make_grid(f.grid.n * factor, f.grid.length)
    coeffs = np.zeros(fine.n, dtype=np.complex128)
    lo = fine.n // 2 - f.grid.n // 2
    coeffs[lo : lo + f.grid.n] = f.coeffs
    return field_from_coeffs(fine, coeffs)


def plane_wave(grid: SpectralGrid, mode: int) -> Field:
    """Complex exponential e^{i mode (2 pi / L) x}, the torus-only control."""
    if not 0 < mode < grid.n // 2:
        raise ValueError("mode must lie strictly inside the resolved band")
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    coeffs[grid.n // 2 + mode] = grid.length
    return field_from_coeffs(grid, coeffs)
