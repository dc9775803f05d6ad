r"""Time integration of the Benjamin-Ono-type flows and their Duhamel
residual.

Three flows are supported, selected by SolverConfig.flow:

    minus:     u_t + H u_xx - u^k u_x = 0
    plus:      u_t + H u_xx + u^k u_x = 0
    rescaled:  u_t + H u_xx = 2 u^k u_x

All are integrated by an integrating-factor classical RK4 in the frame of
the free group on the raw ``np.fft.rfft`` half spectrum m = 0..n/2 of the
samples: the linear part is advanced exactly by the free propagator (its
odd dispersion vanishes on the Nyquist mode, which stays put), so the scheme
is exact on linear flows and the dt restriction comes only from the
nonlinear term.  The nonlinearity is evaluated pseudospectrally in
conservative form c * d_x(u^{k+1})/(k+1) (which conserves the zero mode
exactly; the power by repeated squaring) with the 2/3 rule, which removes
aliasing from quadratic products only (k = 1): at k = 12 and amplitude 0.7
the flux's relative aliasing defect is 9.4e-15 at the flow benchmark
(n = 2048, L = 60) but 2.7e-3 at n = 128, L = 40.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from gbolab.norms import SpaceTimeField
from gbolab.spectral import Field, SpectralGrid, _half_grid, _propagator

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "evolve",
    "duhamel_residual",
    "stability_bound",
]


class BlowUpError(RuntimeError):
    """Raised when the blow-up guard trips: a step leaves non-finite
    coefficients, or a recorded slice's L-inf exceeds 1e6 x initial."""


# Each flow's c in the RHS convention d_t u = -H d_xx u + c u^k u_x.
_COEFFICIENTS = {"minus": 1.0, "plus": -1.0, "rescaled": 2.0}


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one run.

    ``flow`` names the equation, 'minus', 'plus' or 'rescaled' (see the
    module docstring).  The step size must satisfy dt <= 0.5/xi_max^2 on
    the grid it is used with (checked when a grid is available, see
    validate_for_grid).
    """

    k: int
    flow: str = "minus"
    dt: float = 1e-4
    t_end: float = 1e-2
    slice_stride: int = 1

    def __post_init__(self):
        if not isinstance(self.k, numbers.Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        if self.flow not in _COEFFICIENTS:
            raise ValueError(f"flow must be one of {', '.join(map(repr, _COEFFICIENTS))}, "
                             f"got {self.flow!r}")
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ValueError(
                f"dt and t_end must be positive and finite, got {self.dt}, {self.t_end}"
            )
        if not isinstance(self.slice_stride, numbers.Integral) or self.slice_stride < 1:
            raise ValueError(f"slice_stride must be an integer >= 1, got {self.slice_stride}")

    def validate_for_grid(self, grid: SpectralGrid) -> None:
        bound = stability_bound(grid)
        if self.dt > bound * (1 + 1e-12):
            raise ValueError(
                f"dt = {self.dt} exceeds the stability bound 0.5/xi_max^2 = {bound:.3e}"
            )

    def n_steps(self) -> int:
        steps = round(self.t_end / self.dt)
        if steps < 1 or abs(steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer multiple of dt")
        if steps % self.slice_stride:
            raise ValueError("t_end/dt must be a multiple of slice_stride")
        return steps


def stability_bound(grid: SpectralGrid) -> float:
    """The nonlinear-substep bound dt <= 0.5/xi_max^2."""
    return 0.5 / grid.xi_max ** 2


@dataclass
class Trajectory(SpaceTimeField):
    """Recorded slices plus the config that produced them.  The
    conservation ledger (per-slice mass, L2 and L-inf) is read off the
    slices."""

    config: SolverConfig

    @property
    def mass(self) -> np.ndarray:
        return self.slices.sum(axis=1) * self.grid.dx

    @property
    def l2(self) -> np.ndarray:
        return np.sqrt((self.slices ** 2).sum(axis=1) * self.grid.dx)

    @property
    def linf(self) -> np.ndarray:
        return np.abs(self.slices).max(axis=1)


# ---------------------------------------------------------------------------
# Nonlinearity.


def _power(values: np.ndarray, p: int) -> np.ndarray:
    """values ** p (p >= 1) by repeated squaring, several times faster than
    numpy's general power; equal to it to rounding, not bitwise."""
    if p == 1:
        return values
    even = _power(values * values, p // 2)
    return even * values if p % 2 else even


def _flux(grid: SpectralGrid, cfg: SolverConfig):
    """The map from real samples u (last axis) to the half spectrum of the
    conservative nonlinearity c/(k+1) * d_x(u^{k+1}), 2/3-dealiased."""
    xi, mask = _half_grid(grid)
    symbol = mask * (1j * xi) * (_COEFFICIENTS[cfg.flow] / (cfg.k + 1))
    return lambda values: symbol * np.fft.rfft(_power(values, cfg.k + 1))


# ---------------------------------------------------------------------------
# Integrating-factor RK4 on rfft half spectra.


def _stepper(grid: SpectralGrid, cfg: SolverConfig):
    """One IF-RK4 step of size cfg.dt on half spectra, phases precomputed."""
    dt, flux = cfg.dt, _flux(grid, cfg)
    E = _propagator(grid, dt / 2)
    E2 = E ** 2
    nonlin = lambda half: flux(np.fft.irfft(half, grid.n))

    def advance(half: np.ndarray) -> np.ndarray:
        k1 = nonlin(half)
        k2 = nonlin(E * (half + 0.5 * dt * k1))
        k3 = nonlin(E * half + 0.5 * dt * k2)
        k4 = nonlin(E2 * half + dt * E * k3)
        return E2 * half + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)

    return advance


def evolve(u0: Field, cfg: SolverConfig) -> Trajectory:
    """Integrate from u0 to t_end, recording every slice_stride-th step.

    The step count t_end/dt must be an integer and a multiple of
    slice_stride, so the final slice lands exactly on t_end.  Aborts with
    BlowUpError at the first step whose coefficients are not finite, or at
    the first recorded slice whose L-inf norm exceeds 1e6 times its initial
    value.
    """
    if not u0.real:
        raise ValueError("solver operates on real fields")
    cfg.validate_for_grid(u0.grid)
    n_steps = cfg.n_steps()

    grid = u0.grid
    advance = _stepper(grid, cfg)
    half = np.fft.rfft(u0.values.real)
    recorded = np.arange(0, n_steps + 1, cfg.slice_stride)
    slices = np.empty((recorded.size, grid.n))
    slices[0] = np.fft.irfft(half, grid.n)
    linf0 = float(np.max(np.abs(slices[0])))
    guard = 1e6 * linf0 if linf0 > 0 else np.inf

    for j in range(1, n_steps + 1):
        half = advance(half)
        if not np.isfinite(half).all():
            raise BlowUpError(
                f"non-finite coefficients at step {j}, t = {j * cfg.dt:.6g}"
            )
        if j % cfg.slice_stride == 0:
            vals = np.fft.irfft(half, grid.n)
            linf = float(np.max(np.abs(vals)))
            if linf > guard or not np.isfinite(linf):
                raise BlowUpError(
                    f"L-inf {linf:.3e} exceeded 1e6 x initial at t = {j * cfg.dt:.6g}"
                )
            slices[j // cfg.slice_stride] = vals

    return Trajectory(grid=grid, times=recorded * cfg.dt, slices=slices, config=cfg)


# ---------------------------------------------------------------------------
# Duhamel residual.


def _cumulative_simpson(values: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson antiderivative at the even sample indices.

    values has shape (M, ...) sampled uniformly with spacing h; entry j of
    the result is the Simpson integral over [0, 2j*h].
    """
    panels = (h / 3.0) * (values[:-2:2] + 4.0 * values[1:-1:2] + values[2::2])
    return np.concatenate([np.zeros_like(values[:1]), np.cumsum(panels, axis=0)])


def duhamel_residual(traj: Trajectory) -> float:
    """Deviation of the trajectory from its own integral formulation.

    Evaluates u(t_i) - V(t_i)u0 - int_0^{t_i} V(t_i - tau) N(u(tau)) dtau
    at the even slice indices (composite Simpson needs an even interval
    count), normalized by ||u0||_{L2}; returns the max over those times.
    """
    if traj.n_times < 9:
        raise ValueError("need at least 9 slices for the composite quadrature")
    h = traj.uniform_step()
    grid, u0 = traj.grid, traj.slices[0]
    times = traj.times[:, None]

    # integrand pulled back to t = 0:  g(tau) = V(-tau) N(u(tau))
    g = _propagator(grid, -times) * _flux(grid, traj.config)(traj.slices)
    predicted = _propagator(grid, times[::2]) * (
        np.fft.rfft(u0) + _cumulative_simpson(g, h)
    )
    err = traj.slices[::2] - np.fft.irfft(predicted, grid.n)
    worst = np.sqrt(np.sum(err ** 2, axis=-1) * grid.dx).max()
    return float(worst / (np.sqrt(np.sum(u0 ** 2) * grid.dx) or 1.0))
