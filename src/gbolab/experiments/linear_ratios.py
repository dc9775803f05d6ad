"""Ratio statistics for the linear space-time estimates.

Each experiment evolves seeded wave packets under the free group, computes
the LHS/RHS ratio of one estimate, and reports how the supremum over the
ensemble behaves along a resolution ladder (space and time refined
together).  The evolution runs on rfft half spectra, one pair of propagator
factors per rung for all the ladders of a run.  The estimates hold on the line
with unknown constants, so the lab checks the ratios' stability, not their
size; a pure plane wave violates the localization the torus surrogate
needs and is the negative control.
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
    """V(t)phi kept as the half spectra of Re phi and Im phi and the rung's
    propagator factors (first, step): kernels read it a real field's row
    block at a time, and .slices is the irfft of the same blocks."""

    def __init__(self, grid, times, halves, factors):
        self.grid, self.times, self._halves, self._factors = grid, times, halves, factors

    @functools.cached_property
    def slices(self) -> np.ndarray:
        parts = np.concatenate([np.fft.irfft(half, self.grid.n) for _, half in self._blocks()],
                               axis=1)
        return parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]

    def _blocks(self):
        """Block b as (halves * first) * step**b, stepped in place in one
        buffer per call: a yielded block is read-only and valid only until
        the next one is drawn."""
        (first, step), n_rows = self._factors, self.n_times
        half = self._halves[:, None] * first
        for start in range(0, n_rows, len(first)):
            block = half[:, :min(len(first), n_rows - start)]
            block.flags.writeable = False
            yield slice(start, start + block.shape[1]), block
            half *= step


# The rungs of a ladder share the length, T and the time steps per grid point.
# The factors of one such family are held until another family's are asked
# for, so every ladder of a run reuses one pair per rung, for any number of rungs.
_tables: dict = {}


def _time_table(grid: SpectralGrid, T: float, n_time: int) -> tuple[np.ndarray, np.ndarray]:
    """_propagator at the sample times t_j as two read-only factors, first at
    t_0 .. t_{R-1}, with R the rows of a real field's block, and step at
    t_R: the rows of block b + 1 are those of block b times step, as
    V(t + tau) = V(t) V(tau)."""
    family = (grid.length, T, n_time / grid.n)
    if any(family != (g.length, t, m / g.n) for g, t, m in _tables):
        _tables.clear()
    if (grid, T, n_time) not in _tables:
        R = _row_blocks(n_time + 1, grid.n * 8)[0].stop
        _tables[grid, T, n_time] = factors = (
            _propagator(grid, np.linspace(0.0, T, n_time + 1)[:R, None]),
            _propagator(grid, R * T / n_time))
        factors[0].flags.writeable = factors[1].flags.writeable = False
    return _tables[grid, T, n_time]


def free_evolution_spacetime(phi: Field, T: float, n_time: int) -> SpaceTimeField:
    """Sample V(t)phi on n_time+1 uniform times covering [0, T]: row i is
    free_evolve(phi, t_i), with Re phi and Im phi evolved on rfft half
    spectra, a block of rows at a time as the norms read them."""
    _check_time(T, n_time)
    parts = [phi.values.real] if phi.real else [phi.values.real, phi.values.imag]
    return _FreeEvolution(phi.grid, np.linspace(0.0, T, n_time + 1),
                          np.fft.rfft(np.stack(parts)), _time_table(phi.grid, T, n_time))


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
