"""Ratio statistics for the linear space-time estimates.

Each experiment evolves seeded wave packets under the free group, computes
the LHS/RHS ratio of one estimate, and reports how the supremum over the
ensemble behaves along a resolution ladder (space and time refined
together).  The evolution runs on rfft half spectra, each free evolution
stepping its own propagator rows.  The estimates hold on the line with
unknown constants, so the lab checks the ratios' stability, not their size;
a pure plane wave violates the localization the torus surrogate needs and is
the negative control.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from ..norms import (_PIECES, SpaceTimeField, _check_regularity, _row_blocks,
                     mixed_norm, sobolev_norm, xst_components)
from ..spectral import Field, SpectralGrid, _propagator, fractional_derivative, lowpass_P0
from .packets import _check_ensemble, _reach, embed_field, make_packet_ensemble, plane_wave
from .reporting import RatioStatistics

ESTIMATES = ("kato", "maximal", "lowfreq", "xst")

# the kato, maximal and lowfreq estimates are X^s_T's pieces at s = 0
_SPECS = dict(zip(("kato", "maximal", "lowfreq"), _PIECES))


class _FreeEvolution(SpaceTimeField):
    """V(t)phi kept as the half spectra of Re phi and Im phi: kernels read it
    a real field's row block at a time, and .slices is the irfft of the same
    blocks."""

    def __init__(self, grid, times, halves):
        self.grid, self.times, self._halves = grid, times, halves

    @functools.cached_property
    def slices(self) -> np.ndarray:
        parts = np.concatenate([np.fft.irfft(half, self.grid.n) for _, half in self._blocks()],
                               axis=1)
        return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]

    def _blocks(self):
        """Block b as halves * V(t_0 .. t_{R-1}) * V(t_R)**b, R the rows of a
        real field's block, as V(t + tau) = V(t) V(tau): row j of the first
        block is row j - 1 times V(t_1), and each next block is the one before
        times V(t_R), stepped in place in one buffer per call.  A yielded
        block is read-only and valid only until the next one is drawn."""
        n_rows, T = self.n_times, self.times[-1]
        R = _row_blocks(n_rows, self.grid.n * 8)[0].stop
        tick, step = (_propagator(self.grid, r * T / (n_rows - 1)) for r in (1, R))
        half = np.empty((len(self._halves), R, self._halves.shape[-1]), complex)
        half[:, 0] = self._halves
        for j in range(1, R):
            np.multiply(half[:, j - 1], tick, out=half[:, j])
        for start in range(0, n_rows, R):
            block = half[:, :min(R, n_rows - start)]
            block.flags.writeable = False
            yield slice(start, start + block.shape[1]), block
            half *= step


def free_evolution_spacetime(phi: Field, T: float, n_time: int) -> SpaceTimeField:
    """Sample V(t)phi on n_time+1 uniform times covering [0, T]: row i is
    free_evolve(phi, t_i), with Re phi and Im phi evolved on rfft half
    spectra, a block of rows at a time as the norms read them."""
    _check_time(T, n_time)
    parts = [phi.values.real] if phi.real else [phi.values.real, phi.values.imag]
    return _FreeEvolution(phi.grid, np.linspace(0.0, T, n_time + 1),
                          np.fft.rfft(np.stack(parts)))


def _check_time(T: float, n_time: int) -> None:
    if not 0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if not isinstance(n_time, numbers.Integral) or n_time < 2:
        raise ValueError(f"n_time must be an integer >= 2, got {n_time}")


def _check_estimate(estimate: str, grid: SpectralGrid, T: float, s: float, n_time: int) -> None:
    """The ranges an estimate is stated on, checked before any work: xst needs
    0 < s < 1/2, lowfreq and xst need T < 1, and lowfreq needs a nonzero
    mode below 1/4, so that its broadband packets put mass under P_0."""
    if estimate not in ESTIMATES:
        raise ValueError(f"unknown estimate {estimate!r}")
    _check_time(T, n_time)
    if estimate in ("lowfreq", "xst") and not T < 1:
        raise ValueError(f"T must satisfy 0 < T < 1 for the {estimate} estimate, got {T}")
    if estimate == "xst":
        _check_regularity(s)
    if estimate == "lowfreq" and grid.dxi > 0.25:
        raise ValueError(f"length must be at least 8 pi for the lowfreq estimate, "
                         f"got {grid.length}")


def _check_ladder(estimate: str, n_trials: int, grid: SpectralGrid, T: float,
                  seed: int, n_time: int, rungs: int, s: float) -> str:
    """Every range of estimate_ladder, before any work; returns its packet kind."""
    _check_estimate(estimate, grid, T, s, n_time)
    if not isinstance(rungs, numbers.Integral) or rungs < 2:
        raise ValueError(f"a ladder needs at least two rungs (an integer), got {rungs}")
    kind = "broadband" if estimate == "lowfreq" else "modulated"
    _check_ensemble(grid, n_trials, seed, kind)
    reach = _reach(grid, kind)  # from the draw's limits, so the seed cannot matter
    if not 2.0 * reach * T < grid.length / 4:
        raise ValueError(f"T must keep the {kind} packets from wrapping around: 2 * "
                         f"{reach:.4g} * {T:.4g} >= L/4 = {grid.length / 4:.4g}")
    return kind


def estimate_ratio(
    phi: Field, T: float, estimate: str, n_time: int = 128, s: float = 0.45
) -> float:
    """LHS/RHS of one linear estimate for a single field.

    kato:    || D^{1/2} V(t)phi ||_{L^inf_x L^2_T}  vs  ||phi||_{L^2}
    maximal: || D^{-1/4} V(t)phi ||_{L^4_x L^inf_T} vs  ||phi||_{L^2}
    lowfreq: || P_0 V(t)phi ||_{L^2_x L^inf_T}      vs  ||P_0 phi||_{L^2}
    xst:     || V(t)phi ||_{X^s_T}                   vs  ||phi||_{H^s}

    lowfreq and xst are stated for 0 < T < 1.
    """
    _check_estimate(estimate, phi.grid, T, s, n_time)
    if estimate == "xst":
        lhs = xst_components(free_evolution_spacetime(phi, T, n_time), s).total
        rhs = sobolev_norm(phi, s)
    else:
        order, p, q = _SPECS[estimate]
        if order is None:
            mapped = lowpass_P0(phi)
            rhs = mapped.l2_norm()
        else:
            mapped = fractional_derivative(phi, order)
            rhs = phi.l2_norm()
        lhs = mixed_norm(free_evolution_spacetime(mapped, T, n_time), p, q)
    if rhs == 0.0:
        raise ValueError("RHS norm vanishes; ratio undefined")
    return lhs / rhs


def estimate_ladder(
    estimate: str,
    n_trials: int,
    grid: SpectralGrid,
    T: float,
    seed: int,
    n_time: int = 128,
    rungs: int = 3,
    s: float = 0.45,
) -> RatioStatistics:
    """Ratios of one estimate over a seeded packet ensemble, on a ladder
    whose rung r refines space and time by 2**r; the drift between rungs
    needs at least two of them.

    lowfreq draws broadband packets so the lowpass block actually carries
    mass, and needs a domain long enough that modes below 1/4 exist.  s is
    the regularity of the xst norm; the other estimates ignore it.
    """
    kind = _check_ladder(estimate, n_trials, grid, T, seed, n_time, rungs, s)
    packets = make_packet_ensemble(grid, n_trials, seed, kind=kind)
    ladder = []
    for r in range(rungs):
        factor = 2 ** r
        ratios = [estimate_ratio(embed_field(f, factor), T, estimate, n_time * factor, s)
                  for f in packets]
        ladder.append((grid.n * factor, max(ratios)))
    return RatioStatistics(ratios=ratios, resolution_ladder=ladder)


def plane_wave_growth_exponent(
    grid: SpectralGrid, T: float, modes: list[int]
) -> tuple[float, list]:
    """Negative control: smoothing ratio of e^{i xi x} grows like xi^{1/2}.

    Plane waves are global, so the wrap-around guard deliberately does not
    apply; the measured exponent documents that the smoothing estimate is a
    line phenomenon that the torus only mimics for localized data.
    Returns (fitted exponent, [(frequency, ratio)] points).
    """
    if len(modes) < 2:
        raise ValueError("need at least two modes to fit an exponent")
    points = []
    for m in sorted(modes):
        phi = plane_wave(grid, m)
        ratio = estimate_ratio(phi, T, "kato")
        points.append((m * grid.dxi, ratio))
    logs = np.log([p[0] for p in points])
    vals = np.log([p[1] for p in points])
    slope = float(np.polyfit(logs, vals, 1)[0])
    return slope, points
