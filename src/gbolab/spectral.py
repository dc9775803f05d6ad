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

    hilbert             -i*sgn(xi),  sgn(0) = 0
    fractional D^a      |xi|^a      (|0|^a := 0 for a < 0, mean-zero input)
    project_half_line   indicator of xi > 0 (or < 0), zero mode weight 1/2
    free_evolve         e^{sigma*i*t*xi*|xi|}, sigma fixed by residual test

The half-weight split of the zero mode is the unique convention satisfying
both P+ + P- = Id and i*H = P+ - P- with sgn(0) = 0.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

__all__ = [
    "SpectralGrid",
    "Field",
    "MultiplierSymbol",
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
    "evolution_sign",
    "sign_convention_label",
    "antiderivative",
    "boundary_taper",
    "interior_window_mask",
    "save_field",
    "load_field",
]

_REAL_TOL = 1e-12

SERIALIZATION_CONVENTION = "forward = int e^{-ix xi}, discrete coefficients scaled by L/n"


@dataclass(frozen=True)
class SpectralGrid:
    """Equispaced periodic grid on [-L/2, L/2) with n a power of two."""

    n: int
    length: float
    x: np.ndarray = field(repr=False, compare=False)
    frequencies: np.ndarray = field(repr=False, compare=False)
    # (-1)^m, the phase of the grid origin at -L/2; read by every transform
    signs: np.ndarray = field(repr=False, compare=False)

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def dxi(self) -> float:
        return 2.0 * np.pi / self.length

    @property
    def xi_max(self) -> float:
        return np.pi * self.n / self.length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectralGrid)
            and self.n == other.n
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash((self.n, self.length))


def make_grid(n: int, length: float) -> SpectralGrid:
    """Build a SpectralGrid.

    Parameters
    ----------
    n : int
        Number of points, a power of two, at least 8.
    length : float
        Domain length L > 0; the grid covers [-L/2, L/2).
    """
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a power of two >= 8, got {n}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    m = np.arange(-n // 2, n // 2)
    x = -length / 2 + np.arange(n) * (length / n)
    frequencies = 2.0 * np.pi * m / length
    signs = np.where(m % 2 == 0, 1.0, -1.0)
    return SpectralGrid(n=n, length=float(length), x=x, frequencies=frequencies,
                        signs=signs)


# Both transforms act on the last axis, so one call transforms a whole
# (n_times, n) slice stack.  Each works in place on one fresh buffer, so a
# stack costs one stack-sized temporary beyond its result.  The (-1)^m signs
# are unchanged by the half-length shift, so _inverse applies them after it.


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

    def mean(self) -> float | complex:
        m = self.coeffs[self.grid.n // 2] / self.grid.length
        return m.real if self.real else m

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.dx))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def real_values(self) -> np.ndarray:
        return self.values.real


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


@dataclass(frozen=True)
class MultiplierSymbol:
    """A Fourier multiplier xi -> complex, with a label for reports."""

    symbol: Callable[[np.ndarray], np.ndarray]
    name: str

    def on_grid(self, grid: SpectralGrid) -> np.ndarray:
        vals = np.asarray(self.symbol(grid.frequencies), dtype=np.complex128)
        if vals.shape != grid.frequencies.shape:
            vals = np.broadcast_to(vals, grid.frequencies.shape).astype(np.complex128)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"symbol {self.name!r} is unbounded on the grid")
        return vals


def apply_multiplier(f: Field, m: Union[MultiplierSymbol, np.ndarray]) -> Field:
    """Apply a Fourier multiplier to a Field.

    ``m`` may be a MultiplierSymbol or a precomputed array of symbol values
    in m-index order.  Physical values are regenerated from the new
    coefficients.
    """
    if isinstance(m, MultiplierSymbol):
        sym = m.on_grid(f.grid)
    else:
        sym = np.asarray(m, dtype=np.complex128)
        if sym.shape != (f.grid.n,):
            raise ValueError("symbol array does not match grid")
        if not np.all(np.isfinite(sym)):
            raise ValueError("symbol array contains non-finite values")
    return field_from_coeffs(f.grid, sym * f.coeffs)


def spectral_derivative(f: Field, ramp_slope: float = 0.0) -> Field:
    """First derivative by the i*xi multiplier.

    ``ramp_slope`` declares that f contains a known non-periodic linear part
    ramp_slope*(x + L/2) (as produced by antiderivative); that part is
    removed before transforming and contributes its exact constant slope.
    """
    if ramp_slope == 0.0:
        return apply_multiplier(f, 1j * f.grid.frequencies)
    ramp = ramp_slope * (f.grid.x + f.grid.length / 2)
    periodic = field_from_values(f.grid, f.values - ramp)
    deriv = apply_multiplier(periodic, 1j * periodic.grid.frequencies)
    return field_from_values(f.grid, deriv.values + ramp_slope)


def hilbert(f: Field) -> Field:
    """Hilbert transform: multiplier -i*sgn(xi) with sgn(0) = 0."""
    return apply_multiplier(f, -1j * np.sign(f.grid.frequencies))


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

    The zero mode is shared with weight 1/2 on each side, so that
    plus + minus = Id and i*hilbert = plus - minus hold exactly.
    """
    xi = f.grid.frequencies
    if side == "plus":
        sym = np.where(xi > 0, 1.0, 0.0)
    elif side == "minus":
        sym = np.where(xi < 0, 1.0, 0.0)
    else:
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    sym = sym.astype(np.complex128)
    sym[f.grid.n // 2] = 0.5
    return apply_multiplier(f, sym)


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
    sym = _eta(f.grid.frequencies * 2.0 ** (-j)).astype(np.complex128)
    return apply_multiplier(f, sym)


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
    sym = sym.astype(np.complex128)
    sym[f.grid.n // 2] = 0.0
    return apply_multiplier(f, sym)


# ---------------------------------------------------------------------------
# Free evolution.
#
# The linear flow d_t u + H d_x^2 u = 0 diagonalizes to
# d_t uhat = -i xi |xi| uhat, so the propagator multiplier is
# e^{-i t xi |xi|}.  evolution_sign() re-derives the sign at runtime from a
# centered-difference residual test instead of trusting the formula.

_SIGN_CACHE: dict[str, int] = {}


def _linear_residual(sign: int, grid: SpectralGrid, dt: float = 1e-5) -> float:
    rng = np.random.default_rng(7)
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    band = (np.abs(grid.frequencies) > 0) & (np.abs(grid.frequencies) <= 8)
    coeffs[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    f = field_from_coeffs(grid, coeffs)
    phase = lambda t: np.exp(sign * 1j * t * grid.frequencies * np.abs(grid.frequencies))
    u_plus = apply_multiplier(f, phase(dt))
    u_minus = apply_multiplier(f, phase(-dt))
    dudt = (u_plus.values - u_minus.values) / (2 * dt)
    hdxx = hilbert(apply_multiplier(f, (1j * grid.frequencies) ** 2))
    return float(np.max(np.abs(dudt + hdxx.values)) / max(f.linf_norm(), 1e-300))


def evolution_sign() -> int:
    """Sign sigma in the propagator e^{sigma * i t xi |xi|}.

    Determined once by a finite-difference residual test of
    d_t u + H d_x^2 u = 0; the winner is cached.
    """
    if "sigma" not in _SIGN_CACHE:
        grid = make_grid(64, 2 * np.pi)
        res = {s: _linear_residual(s, grid) for s in (+1, -1)}
        _SIGN_CACHE["sigma"] = min(res, key=res.get)
    return _SIGN_CACHE["sigma"]


def sign_convention_label() -> str:
    """Human-readable record of the propagator sign, embedded in every report."""
    s = evolution_sign()
    return "exp(%+di*t*xi*|xi|)" % s


def free_evolve(f: Field, t: float) -> Field:
    """Advance under the linear flow by time t (exact multiplier, unitary)."""
    return apply_multiplier(f, free_evolution_phases(f.grid, t))


def free_evolution_phases(grid: SpectralGrid, t: float | np.ndarray) -> np.ndarray:
    """The propagator multiplier values on the grid.

    A column of times ``t[:, None]`` gives one row of phases per time.
    """
    xi = grid.frequencies
    return np.exp(evolution_sign() * 1j * t * xi * np.abs(xi))


# ---------------------------------------------------------------------------
# Antiderivative and boundary handling.


def antiderivative(f: Field) -> Field:
    """Antiderivative F with F(-L/2) = 0, the vanishing-at-minus-infinity surrogate.

    The mean-zero part is integrated by division by i*xi; the mean m
    contributes the non-periodic ramp m*(x + L/2).  Callers that
    differentiate F spectrally must pass ramp_slope = mean(f) to
    spectral_derivative, and callers that exponentiate F should taper
    (see boundary_taper).
    """
    grid = f.grid
    xi = grid.frequencies
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


def boundary_taper(grid: SpectralGrid, fraction: float = 0.1) -> np.ndarray:
    """Smooth window equal to 1 except in the outer ``fraction`` of the domain.

    The transition lives entirely inside the outer strips (each of width
    fraction*L/2), decaying smoothly to 0 at the domain edge.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    half = grid.length / 2
    start = half * (1.0 - fraction)
    t = (np.abs(grid.x) - start) / (half - start)
    return 1.0 - _smooth_step(t)


def interior_window_mask(grid: SpectralGrid, fraction: float = 0.5) -> np.ndarray:
    """Boolean mask of the centered window covering ``fraction`` of the domain."""
    return np.abs(grid.x) <= fraction * grid.length / 2


def windowed_l2(values: np.ndarray, grid: SpectralGrid, mask: np.ndarray) -> np.ndarray:
    """L2 norm over the last axis of samples restricted to a boolean window."""
    return np.sqrt(np.sum(np.abs(values[..., mask]) ** 2, axis=-1) * grid.dx)


# ---------------------------------------------------------------------------
# Serialization (CSV, m-index order).


def save_field(f: Field, path: str) -> None:
    """Write a Field to CSV: header lines, then rows m, x, value, coeff."""
    with open(path, "w") as fh:
        fh.write(f"# n={f.grid.n} length={f.grid.length!r} real={int(f.real)}\n")
        fh.write(f"# convention: {SERIALIZATION_CONVENTION}\n")
        fh.write("m,x,value_re,value_im,coeff_re,coeff_im\n")
        ms = np.arange(-f.grid.n // 2, f.grid.n // 2)
        for i, m in enumerate(ms):
            row = (f.grid.x[i], f.values[i].real, f.values[i].imag,
                   f.coeffs[i].real, f.coeffs[i].imag)
            fh.write(f"{m}," + ",".join(repr(float(v)) for v in row) + "\n")


def load_field(path: str) -> Field:
    """Read a Field written by save_field; validates the convention tag."""
    with open(path) as fh:
        header = fh.readline().strip()
        convention = fh.readline().strip()
        if SERIALIZATION_CONVENTION not in convention:
            raise ValueError(f"unrecognized convention line: {convention!r}")
        parts = dict(item.split("=") for item in header.lstrip("# ").split())
        n = int(parts["n"])
        length = float(parts["length"])
        body = fh.read()
    data = np.genfromtxt(io.StringIO(body), delimiter=",", skip_header=1)
    if data.shape != (n, 6):
        raise ValueError(f"expected {n} rows, got {data.shape}")
    grid = make_grid(n, length)
    coeffs = data[:, 4] + 1j * data[:, 5]
    return field_from_coeffs(grid, coeffs)
