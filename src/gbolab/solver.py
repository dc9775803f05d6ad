r"""Time integration of the Benjamin-Ono-type flows, Duhamel residual, and
the scaling map.

Two flavors of the evolution are supported, selected by SolverConfig:

    standard:  u_t + H u_xx + sign * u^k u_x = 0
    rescaled:  u_t + H u_xx = 2 u^k u_x

Both are integrated by an integrating-factor classical RK4 in the frame of
the free group: the linear part is advanced exactly by the e^{sigma*i*t*
xi*|xi|} multiplier, so the scheme is exact on linear flows and the dt
restriction comes only from the nonlinear term.  The nonlinearity is
evaluated pseudospectrally in conservative form c * d_x(u^{k+1})/(k+1)
(which conserves the zero mode exactly) with 2/3-rule dealiasing by
default.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from gbolab.norms import SpaceTimeField
from gbolab.spectral import (
    Field,
    SpectralGrid,
    _forward,
    _inverse,
    field_from_coeffs,
    field_from_values,
    free_evolution_phases,
    make_grid,
    sign_convention_label,
)

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "nonlinear_rhs",
    "step",
    "evolve",
    "duhamel_residual",
    "rescale",
    "rescale_traj",
    "stability_bound",
    "save_trajectory",
    "load_trajectory",
    "write_ledger_csv",
]


class BlowUpError(RuntimeError):
    """Raised when the blow-up guard trips: a step leaves non-finite
    coefficients, or a recorded slice's L-inf exceeds 1e6 x initial."""


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of one run.

    ``sign`` is the nonlinearity sign of the standard flow ('plus' or
    'minus'); it is ignored when ``rescaled`` is set.  ``linear_only`` is a
    test hook that disables the nonlinearity entirely by giving it a zero
    coefficient.  The step size must satisfy dt <= 0.5/xi_max^2 on the
    grid it is used with (checked when a grid is available, see
    validate_for_grid).
    """

    k: int
    sign: str = "minus"
    rescaled: bool = False
    dt: float = 1e-4
    t_end: float = 1e-2
    dealias: str = "two_thirds"
    slice_stride: int = 1
    linear_only: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be 'plus' or 'minus', got {self.sign!r}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.dealias not in ("two_thirds", "none"):
            raise ValueError(f"dealias must be 'two_thirds' or 'none', got {self.dealias!r}")
        if self.slice_stride < 1:
            raise ValueError("slice_stride must be >= 1")

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
        return steps


def stability_bound(grid: SpectralGrid) -> float:
    """The nonlinear-substep bound dt <= 0.5/xi_max^2."""
    return 0.5 / grid.xi_max ** 2


@dataclass
class Trajectory(SpaceTimeField):
    """Recorded slices plus the config that produced them.  The
    conservation ledger (per-slice mass, L2 and L-inf) is read off the
    slices."""

    config: SolverConfig = None

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


def _nonlinear_coefficient(cfg: SolverConfig) -> float:
    # RHS convention d_t u = -H d_xx u + N(u):
    # rescaled flow has N = 2 u^k u_x; the standard flow N = -sign*u^k*u_x.
    if cfg.linear_only:
        return 0.0
    if cfg.rescaled:
        return 2.0
    return -1.0 if cfg.sign == "plus" else 1.0


def _dealias_mask(grid: SpectralGrid, mode: str) -> np.ndarray:
    if mode == "none":
        return np.ones(grid.n)
    m = np.arange(-grid.n // 2, grid.n // 2)
    return (np.abs(m) <= grid.n // 3).astype(float)


def _flux(grid: SpectralGrid, cfg: SolverConfig):
    """The map from real samples u to the coefficients of the conservative
    nonlinearity c/(k+1) * d_x(u^{k+1}), dealiased as configured."""
    symbol = _dealias_mask(grid, cfg.dealias) * (1j * grid.frequencies)
    coef = _nonlinear_coefficient(cfg) / (cfg.k + 1)
    power = cfg.k + 1
    return lambda values: symbol * _forward(grid, values ** power) * coef


def nonlinear_rhs(u: Field, cfg: SolverConfig, form: str = "conservative") -> Field:
    """The nonlinear term N(u) of d_t u = -H d_xx u + N(u).

    form='conservative' evaluates c/(k+1) * d_x(u^{k+1}); form='product'
    evaluates c * u^k u_x directly.  Both use the configured dealiasing.
    """
    if not u.real:
        raise ValueError("nonlinear term is defined for real fields")
    if form == "conservative":
        coeffs = _flux(u.grid, cfg)(u.values.real)
    elif form == "product":
        mask = _dealias_mask(u.grid, cfg.dealias)
        ux = field_from_coeffs(u.grid, mask * 1j * u.grid.frequencies * u.coeffs)
        prod = field_from_values(u.grid, u.values.real ** cfg.k * ux.values.real)
        coeffs = mask * prod.coeffs * _nonlinear_coefficient(cfg)
    else:
        raise ValueError(f"unknown form {form!r}")
    return field_from_coeffs(u.grid, coeffs)


# ---------------------------------------------------------------------------
# Integrating-factor RK4 on raw coefficient arrays.


class _Stepper:
    """Precomputed machinery for repeated steps on one grid."""

    def __init__(self, grid: SpectralGrid, cfg: SolverConfig):
        self.grid = grid
        self.dt = cfg.dt
        self.half_phase = free_evolution_phases(grid, cfg.dt / 2)
        self.full_phase = self.half_phase ** 2
        self.flux = _flux(grid, cfg)

    def nonlin(self, coeffs: np.ndarray) -> np.ndarray:
        return self.flux(_inverse(self.grid, coeffs).real)

    def advance(self, coeffs: np.ndarray) -> np.ndarray:
        dt, E, E2 = self.dt, self.half_phase, self.full_phase
        k1 = self.nonlin(coeffs)
        k2 = self.nonlin(E * (coeffs + 0.5 * dt * k1))
        k3 = self.nonlin(E * coeffs + 0.5 * dt * k2)
        k4 = self.nonlin(E2 * coeffs + dt * E * k3)
        return E2 * coeffs + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4)


def step(u: Field, cfg: SolverConfig) -> Field:
    """One integrating-factor RK4 step of size cfg.dt."""
    if not u.real:
        raise ValueError("solver operates on real fields")
    cfg.validate_for_grid(u.grid)
    stepper = _Stepper(u.grid, cfg)
    return field_from_coeffs(u.grid, stepper.advance(u.coeffs.copy()))


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
    if n_steps % cfg.slice_stride != 0:
        raise ValueError("t_end/dt must be a multiple of slice_stride")

    grid = u0.grid
    stepper = _Stepper(grid, cfg)
    coeffs = u0.coeffs.copy()
    recorded = np.arange(0, n_steps + 1, cfg.slice_stride)
    slices = np.empty((recorded.size, grid.n))
    slices[0] = _inverse(grid, coeffs).real
    linf0 = float(np.max(np.abs(slices[0])))
    guard = 1e6 * linf0 if linf0 > 0 else np.inf

    for j in range(1, n_steps + 1):
        coeffs = stepper.advance(coeffs)
        if not np.isfinite(coeffs).all():
            raise BlowUpError(
                f"non-finite coefficients at step {j}, t = {j * cfg.dt:.6g}"
            )
        if j % cfg.slice_stride == 0:
            vals = _inverse(grid, coeffs).real
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
    grid = traj.grid
    times = traj.times[:, None]

    # integrand pulled back to t = 0:  g(tau) = V(-tau) N(u(tau))
    g = free_evolution_phases(grid, -times) * _flux(grid, traj.config)(traj.slices)
    u0 = field_from_values(grid, traj.slices[0])
    predicted = free_evolution_phases(grid, times[::2]) * (
        u0.coeffs + _cumulative_simpson(g, h)
    )
    err = traj.slices[::2] - _inverse(grid, predicted)
    worst = np.sqrt(np.sum(np.abs(err) ** 2, axis=-1) * grid.dx).max()
    return float(worst / (u0.l2_norm() or 1.0))


# ---------------------------------------------------------------------------
# Scaling map.


def rescale(u0: Field, lam: float, k: int) -> Field:
    """The scaling companion lam^{1/k} u(lam * x) on the grid of length L/lam.

    The rescaled grid shares the point count, so the samples are exactly
    the pointwise-scaled originals (lam * x'_j = x_j); no interpolation.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    new_grid = make_grid(u0.grid.n, u0.grid.length / lam)
    return field_from_values(new_grid, lam ** (1.0 / k) * u0.values)


def rescale_traj(traj: Trajectory, lam: float) -> Trajectory:
    """Apply the scaling map to every slice and map times t -> t/lam^2."""
    k = traj.config.k
    new_grid = make_grid(traj.grid.n, traj.grid.length / lam)
    cfg = replace(
        traj.config, dt=traj.config.dt / lam ** 2, t_end=traj.config.t_end / lam ** 2
    )
    return Trajectory(
        grid=new_grid,
        times=traj.times / lam ** 2,
        slices=lam ** (1.0 / k) * traj.slices,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Serialization.


def save_trajectory(traj: Trajectory, path: str) -> None:
    """Write a trajectory as JSON: config echo, grid, sign convention,
    times, slices, and the conservation ledger."""
    payload = {
        "config": asdict(traj.config),
        "grid": {"n": traj.grid.n, "length": traj.grid.length},
        "sign_convention": sign_convention_label(),
        "times": traj.times.tolist(),
        "slices": traj.slices.tolist(),
        "ledger": {
            "mass": traj.mass.tolist(),
            "l2": traj.l2.tolist(),
            "linf": traj.linf.tolist(),
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_trajectory(path: str) -> Trajectory:
    with open(path) as fh:
        payload = json.load(fh)
    cfg = SolverConfig(**payload["config"])
    grid = make_grid(payload["grid"]["n"], payload["grid"]["length"])
    return Trajectory(
        grid=grid,
        times=np.asarray(payload["times"]),
        slices=np.asarray(payload["slices"]),
        config=cfg,
    )


def write_ledger_csv(traj: Trajectory, path: str) -> None:
    """Conservation ledger as CSV rows (t, mass, L2, Linf)."""
    with open(path, "w") as fh:
        fh.write("t,mass,L2,Linf\n")
        for row in zip(traj.times, traj.mass, traj.l2, traj.linf):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
