r"""Periodic pseudospectral substrate: grids, transforms, multiplier operators.

Conventions
-----------
Physical domain is the torus [-L/2, L/2) sampled at n equispaced points,
frequency set xi_m = 2*pi*m/L for m in {-n/2, ..., n/2-1}.  The forward
transform is calibrated to the continuum convention

    fhat(xi) = int e^{-i x xi} f(x) dx,

so discrete coefficients carry a factor L/n relative to the raw DFT, and
Plancherel reads  int |f|^2 dx = (1/2pi) int |fhat|^2 dxi.

Multiplier operators act diagonally on coefficients:

    hilbert             -i*sgn(xi)
    fractional D^a      |xi|^a      (|0|^a := 0 for a < 0, mean-zero input)
    project_half_line   (1 +- sgn(xi))/2, zero and Nyquist modes weight 1/2
    free_evolve         e^{-i*t*sgn(xi)*xi^2}, the sign derived from H and d_x^2

Every odd symbol is sgn(xi) times an even one, with SpectralGrid.sgn = 0 on
the self-conjugate modes m = 0 and m = -n/2; so real data stay real, and
P+ + P- = Id and i*H = P+ - P- hold exactly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralGrid",
    "Field",
    "make_grid",
    "field_from_values",
    "field_from_coeffs",
    "apply_multiplier",
    "spectral_derivative",
    "hilbert",
    "fractional_derivative",
    "project_half_line",
    "lp_block",
    "lowpass_P0",
    "tilde_projection",
    "band_projections",
    "free_evolve",
    "sign_convention_label",
    "antiderivative",
    "boundary_taper",
    "interior_window_mask",
    "windowed_l2",
]

_REAL_TOL = 1e-12


@dataclass(frozen=True)
class SpectralGrid:
    """Equispaced periodic grid on [-L/2, L/2) with n a power of two."""

    n: int
    length: float
    x: np.ndarray = field(repr=False, compare=False)
    frequencies: np.ndarray = field(repr=False, compare=False)
    # (-1)^m, the phase of the grid origin at -L/2; read by every transform
    signs: np.ndarray = field(repr=False, compare=False)
    # sgn(xi_m), 0 at m = 0 and m = -n/2: every odd symbol is sgn times an even one
    sgn: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    @property
    def xi_max(self) -> float:
        return np.pi * self.n / self.length


def make_grid(n: int, length: float) -> SpectralGrid:
    """Build a SpectralGrid.

    Parameters
    ----------
    n : int
        Number of points, a power of two, at least 8.
    length : float
        Domain length L > 0; the grid covers [-L/2, L/2).
    """
    if not isinstance(n, numbers.Integral) or n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 8, got {n}")
    if not 0 < length < np.inf:
        raise ValueError(f"length must be positive and finite, got {length}")
    m = np.arange(-n // 2, n // 2)
    x = -length / 2 + np.arange(n) * (length / n)
    frequencies = 2.0 * np.pi * m / length
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    sgn = np.where(m == -n // 2, 0.0, np.sign(m))
    return SpectralGrid(n=int(n), length=float(length), x=x, frequencies=frequencies,
                        signs=signs, sgn=sgn)


# Each transform runs its FFT in place on one fresh buffer, so it costs at most
# one temporary beyond its result.  The (-1)^m signs are unchanged by the
# half-length shift, so _inverse applies them after it.


def _forward(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    buffer = np.array(values, dtype=np.complex128)
    coeffs = np.fft.fftshift(np.fft.fft(buffer, out=buffer), axes=-1)
    coeffs *= (grid.length / grid.n) * grid.signs
    return coeffs


def _inverse(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    values = np.fft.ifftshift(coeffs, axes=-1).astype(np.complex128, copy=False)
    values *= grid.signs
    np.fft.ifft(values, out=values)
    values *= grid.n / grid.length
    return values


@dataclass(frozen=True)
class Field:
    """A function on the grid, held in both physical and frequency form.

    ``values`` are physical samples, ``coeffs`` the continuum-calibrated
    Fourier coefficients in m-index order -n/2 .. n/2-1.  The two arrays are
    consistent by construction; ``real`` flags conjugate-symmetric content.
    """

    grid: SpectralGrid
    values: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    real: bool = False

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))


def _looks_real(values: np.ndarray) -> bool:
    scale = np.max(np.abs(values)) or 1.0
    return bool(np.max(np.abs(values.imag)) <= _REAL_TOL * scale)


def field_from_values(grid: SpectralGrid, values: np.ndarray) -> Field:
    """Wrap physical samples into a Field (transform computed here)."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (grid.n,):
        raise ValueError(f"values must have shape ({grid.n},), got {values.shape}")
    return Field(grid=grid, values=values, coeffs=_forward(grid, values),
                 real=_looks_real(values))


def field_from_coeffs(grid: SpectralGrid, coeffs: np.ndarray) -> Field:
    """Wrap frequency coefficients (m-index order) into a Field."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (grid.n,):
        raise ValueError(f"coeffs must have shape ({grid.n},), got {coeffs.shape}")
    values = _inverse(grid, coeffs)
    return Field(grid=grid, values=values, coeffs=coeffs, real=_looks_real(values))


def apply_multiplier(f: Field, m: np.ndarray) -> Field:
    """Apply a Fourier multiplier to a Field.

    ``m`` holds the symbol values on the grid in m-index order.  Physical
    values are regenerated from the new coefficients.
    """
    sym = np.asarray(m, dtype=np.complex128)
    if sym.shape != (f.grid.n,):
        raise ValueError("symbol array does not match grid")
    if not np.all(np.isfinite(sym)):
        raise ValueError("symbol array contains non-finite values")
    return field_from_coeffs(f.grid, sym * f.coeffs)


def spectral_derivative(f: Field) -> Field:
    """First derivative by the i*sgn(xi)*|xi| multiplier (periodic f)."""
    return apply_multiplier(f, 1j * f.grid.sgn * np.abs(f.grid.frequencies))


def hilbert(f: Field) -> Field:
    """Hilbert transform: multiplier -i*sgn(xi)."""
    return apply_multiplier(f, -1j * f.grid.sgn)


def fractional_derivative(f: Field, alpha: float) -> Field:
    """D^alpha with symbol |xi|^alpha.

    For alpha < 0 the symbol at xi = 0 is defined as 0, which is only
    meaningful on mean-zero input; a nonzero mean raises.
    """
    if alpha < -1:
        raise ValueError(f"alpha must be >= -1, got {alpha}")
    if alpha < 0:
        scale = np.max(np.abs(f.coeffs)) or 1.0
        if np.abs(f.coeffs[f.grid.n // 2]) > 1e-10 * scale:
            raise ValueError("D^alpha with alpha < 0 requires mean-zero input")
    return apply_multiplier(f, _fractional_symbol(f.grid.frequencies, alpha))


def _fractional_symbol(xi: np.ndarray, alpha: float) -> np.ndarray:
    """|xi|^alpha, with the value 0 at xi = 0 for alpha < 0 (and 1 for alpha = 0)."""
    if alpha >= 0:
        return np.abs(xi) ** alpha
    sym = np.zeros_like(xi)
    nz = xi != 0
    sym[nz] = np.abs(xi[nz]) ** alpha
    return sym


def project_half_line(f: Field, side: str) -> Field:
    """Frequency projection onto xi > 0 (side='plus') or xi < 0 ('minus').

    The symbol (1 +- sgn(xi))/2 gives the zero and Nyquist modes weight 1/2,
    so that plus + minus = Id and i*hilbert = plus - minus hold exactly.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    return apply_multiplier(f, 0.5 + (0.5 if side == "plus" else -0.5) * f.grid.sgn)


# ---------------------------------------------------------------------------
# Dyadic (Littlewood-Paley style) blocks.
#
# psi is a smooth cutoff: 1 on |xi| <= 1, 0 on |xi| >= 2, exp-based in
# between.  eta(xi) = psi(xi) - psi(2 xi) is supported on 1/2 <= |xi| <= 2
# and telescopes to a partition of unity off xi = 0.


def _smooth_step(t: np.ndarray) -> np.ndarray:
    # 0 for t <= 0, 1 for t >= 1, C-infinity in between.
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _psi(xi: np.ndarray) -> np.ndarray:
    return 1.0 - _smooth_step(np.abs(xi) - 1.0)


def _eta(xi: np.ndarray) -> np.ndarray:
    return _psi(xi) - _psi(2.0 * xi)


def lp_block(f: Field, j: int) -> Field:
    """Dyadic block Q_j: multiplier eta(2^{-j} xi), support 2^{j-1} <= |xi| <= 2^{j+1}."""
    return apply_multiplier(f, _eta(f.grid.frequencies * 2.0 ** (-j)))


def lowpass_P0(f: Field) -> Field:
    """Low-frequency piece P_0 with symbol p(xi) = psi(8 xi), support |xi| <= 1/4.

    p is the telescoped sum of the dyadic bumps over j <= -3.
    """
    return apply_multiplier(f, _lowpass_symbol(f.grid.frequencies))


def _lowpass_symbol(xi: np.ndarray) -> np.ndarray:
    return _psi(8.0 * xi)


def tilde_projection(f: Field) -> Field:
    """The complement Id - P_0 (telescoped sum of Q_j over j >= -2); kills xi = 0."""
    return apply_multiplier(f, 1.0 - _lowpass_symbol(f.grid.frequencies))


def band_projections(f: Field, j: int, side: str) -> Field:
    """P_{<=j} (side='leq') or P_{>=j} (side='geq'): telescoped dyadic sums.

    Both annihilate the zero mode, matching the convention that the dyadic
    family covers xi != 0 only.
    """
    xi = f.grid.frequencies
    if side == "leq":
        sym = _psi(xi * 2.0 ** (-j))
    elif side == "geq":
        sym = 1.0 - _psi(xi * 2.0 ** (-(j - 1)))
    else:
        raise ValueError(f"side must be 'leq' or 'geq', got {side!r}")
    sym[f.grid.n // 2] = 0.0
    return apply_multiplier(f, sym)


# ---------------------------------------------------------------------------
# Free evolution.
#
# The paper's linear flow u_t + H u_xx = 0 fixes the propagator's sign: H is
# -i*sgn(xi) and d_x^2 is -xi^2, so uhat_t = -i*sgn(xi)*xi^2*uhat and
# V(t) = e^{_SIGMA*i*t*sgn(xi)*xi^2}.  The multiplier is 1 on the Nyquist
# mode, where sgn vanishes.

_SIGMA = -1


def sign_convention_label() -> str:
    """Human-readable record of the propagator sign, embedded in every report."""
    return "exp(%+di*t*xi*|xi|)" % _SIGMA


def free_evolve(f: Field, t: float) -> Field:
    """Advance under the linear flow by time t (exact multiplier, unitary)."""
    return apply_multiplier(f, _phases(f.grid.sgn * f.grid.frequencies ** 2, t))


def _phases(sgn_xi2: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """e^{_SIGMA*i*t*sgn_xi2}: the propagator at the given values of sgn(xi)*xi^2.

    A column of times ``t[:, None]`` gives one row of phases per time.
    """
    phase = _SIGMA * 1j * t * sgn_xi2
    return np.exp(phase, out=phase)


def _half_grid(grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """The rfft bins xi_m = 2*pi*m/L, m = 0..n/2, and the 2/3 mask m <= n/3."""
    m = np.arange(grid.n // 2 + 1)
    return 2.0 * np.pi * m / grid.length, m <= grid.n // 3


def _propagator(grid: SpectralGrid, t: float | np.ndarray) -> np.ndarray:
    """The propagator on the rfft bins, _phases of xi_m^2; a column of times
    gives rows.  The Nyquist bin, where sgn vanishes, is 1."""
    xi2 = _half_grid(grid)[0] ** 2
    xi2[-1] = 0.0
    return _phases(xi2, t)


# ---------------------------------------------------------------------------
# Antiderivative and boundary handling.


def antiderivative(f: Field) -> Field:
    """Antiderivative F with F(-L/2) = 0, the vanishing-at-minus-infinity surrogate.

    The mean-zero part is integrated by the odd symbol 1/(i*xi), 0 on the
    Nyquist mode; the mean m contributes the non-periodic ramp m*(x + L/2).
    Callers that differentiate F spectrally must first subtract that ramp
    (spectral_derivative assumes a periodic field) and add back its slope m,
    and callers that exponentiate F should taper (see boundary_taper).
    """
    grid = f.grid
    xi = grid.sgn * np.abs(grid.frequencies)
    dc = grid.n // 2
    mean = f.coeffs[dc] / grid.length

    coeffs = np.zeros_like(f.coeffs)
    nz = xi != 0
    coeffs[nz] = f.coeffs[nz] / (1j * xi[nz])
    periodic = _inverse(grid, coeffs)
    # Anchor: subtract the periodic part's value at x = -L/2 so F(-L/2) = 0.
    left_value = np.sum(coeffs * grid.signs) / grid.length
    ramp = mean * (grid.x + grid.length / 2)
    return field_from_values(grid, periodic - left_value + ramp)


def boundary_taper(grid: SpectralGrid) -> np.ndarray:
    """Smooth window equal to 1 except in the outer tenth of the domain.

    The transition lives entirely inside the outer strips (each of width
    L/20), decaying smoothly to 0 at the domain edge; a tenth keeps it well
    clear of the central half that interior_window_mask measures.
    """
    half = grid.length / 2
    start = 0.9 * half
    t = (np.abs(grid.x) - start) / (half - start)
    return 1.0 - _smooth_step(t)


def interior_window_mask(grid: SpectralGrid) -> np.ndarray:
    """Boolean mask of the centered window covering half of the domain,
    where the tapered boundary strips cannot reach."""
    return np.abs(grid.x) <= grid.length / 4


def windowed_l2(values: np.ndarray, grid: SpectralGrid, mask: np.ndarray) -> np.ndarray:
    """L2 norm over the last axis of samples restricted to a boolean window."""
    return np.sqrt(np.sum(np.abs(values[..., mask]) ** 2, axis=-1) * grid.dx)
