"""Ratio statistics for the linear space-time estimates.

Each experiment evolves seeded wave packets under the free group, computes
the LHS/RHS ratio of one estimate, and reports how the supremum over the
ensemble behaves along a resolution ladder (space and time refined
together).  The estimates hold on the line with unknown constants, so the
lab checks stability of the ratios, not their absolute size.  A pure plane
wave deliberately violates the localization the torus surrogate needs and
serves as the negative control.
"""

from __future__ import annotations

import numpy as np

from ..norms import MixedNormSpec, SpaceTimeField, mixed_norm, sobolev_norm, xst_norm
from ..spectral import (
    Field,
    SpectralGrid,
    _inverse,
    fractional_derivative,
    free_evolution_phases,
    lowpass_P0,
)
from .packets import check_wraparound, embed_field, make_packet_ensemble, plane_wave
from .reporting import RatioStatistics

_SPECS = {
    "kato": (0.5, MixedNormSpec(p=float("inf"), q=2.0, order="x_outer")),
    "maximal": (-0.25, MixedNormSpec(p=4.0, q=float("inf"), order="x_outer")),
    "lowfreq": (None, MixedNormSpec(p=2.0, q=float("inf"), order="x_outer")),
}


def free_evolution_spacetime(phi: Field, T: float, n_time: int) -> SpaceTimeField:
    """Sample V(t)phi on n_time+1 uniform times covering [0, T]."""
    if T <= 0:
        raise ValueError("T must be positive")
    if n_time < 2:
        raise ValueError("need at least two time intervals")
    grid = phi.grid
    times = np.linspace(0.0, T, n_time + 1)
    slices = _inverse(grid, phi.coeffs * free_evolution_phases(grid, times[:, None]))
    if phi.real:
        slices = slices.real.copy()
    return SpaceTimeField(grid, times, slices)


def estimate_sides(phi: Field, T: float, estimate: str, n_time: int = 128):
    """(LHS, RHS) of one linear estimate for a single field.

    kato:    || D^{1/2} V(t)phi ||_{L^inf_x L^2_T}  vs  ||phi||_{L^2}
    maximal: || D^{-1/4} V(t)phi ||_{L^4_x L^inf_T} vs  ||phi||_{L^2}
    lowfreq: || P_0 V(t)phi ||_{L^2_x L^inf_T}      vs  ||P_0 phi||_{L^2}
    """
    if estimate not in _SPECS:
        raise ValueError(f"unknown estimate {estimate!r}")
    order, spec = _SPECS[estimate]
    if estimate == "lowfreq":
        if not 0 < T < 1:
            raise ValueError("the low-frequency estimate is stated for 0 < T < 1")
        mapped = lowpass_P0(phi)
        rhs = mapped.l2_norm()
    else:
        mapped = fractional_derivative(phi, order)
        rhs = phi.l2_norm()
    lhs = mixed_norm(free_evolution_spacetime(mapped, T, n_time), spec)
    return lhs, rhs


def estimate_ratio(phi: Field, T: float, estimate: str, n_time: int = 128) -> float:
    lhs, rhs = estimate_sides(phi, T, estimate, n_time)
    if rhs == 0.0:
        raise ValueError("RHS norm vanishes; ratio undefined")
    return lhs / rhs


def _ladder(fields, T, estimate, n_time, rungs):
    ladder = []
    ratios = None
    for r in range(rungs):
        factor = 2 ** r
        fine = [embed_field(f, factor) for f in fields]
        ratios = [estimate_ratio(f, T, estimate, n_time * factor) for f in fine]
        ladder.append((fine[0].grid.n, max(ratios)))
    return RatioStatistics(
        n_trials=len(fields),
        ratios=ratios,
        sup_ratio=max(ratios),
        resolution_ladder=ladder,
    )


def _packet_ladder(estimate, s_trials, grid, T, seed, n_time, rungs):
    # the lowpass block only carries mass on broadband packets
    kind = "broadband" if estimate == "lowfreq" else "modulated"
    packets = make_packet_ensemble(grid, s_trials, seed, kind=kind)
    check_wraparound(packets, T)
    return _ladder(packets, T, estimate, n_time, rungs)


def kato_smoothing_ratio(
    s_trials: int,
    grid: SpectralGrid,
    T: float,
    seed: int,
    n_time: int = 128,
    rungs: int = 3,
) -> RatioStatistics:
    """Half-derivative smoothing ratios over a seeded packet ensemble."""
    return _packet_ladder("kato", s_trials, grid, T, seed, n_time, rungs)


def maximal_function_ratio(
    s_trials: int,
    grid: SpectralGrid,
    T: float,
    seed: int,
    n_time: int = 128,
    rungs: int = 3,
) -> RatioStatistics:
    """Quarter-derivative maximal-function ratios over a packet ensemble."""
    return _packet_ladder("maximal", s_trials, grid, T, seed, n_time, rungs)


def lowfreq_ratio(
    s_trials: int,
    grid: SpectralGrid,
    T: float,
    seed: int,
    n_time: int = 128,
    rungs: int = 3,
) -> RatioStatistics:
    """Low-frequency maximal ratios; packets are broadband so the lowpass
    block actually carries mass.  Requires 0 < T < 1 and a domain long
    enough that modes below 1/4 exist."""
    if grid.dxi > 0.25:
        raise ValueError("domain too short: no nonzero modes below 1/4")
    return _packet_ladder("lowfreq", s_trials, grid, T, seed, n_time, rungs)


def xst_group_ratio(
    ensemble: list[Field],
    s: float,
    T: float = 0.5,
    n_time: int = 128,
    rungs: int = 3,
) -> RatioStatistics:
    """Solution-space norm of the free evolution against the data norm."""
    if not ensemble:
        raise ValueError("empty ensemble")
    if not 0 < T < 1:
        raise ValueError("the solution-space norm is used with 0 < T < 1")
    check_wraparound(ensemble, T)
    ladder = []
    ratios = None
    for r in range(rungs):
        factor = 2 ** r
        ratios = []
        for phi in ensemble:
            fine = embed_field(phi, factor)
            u = free_evolution_spacetime(fine, T, n_time * factor)
            ratios.append(xst_norm(u, s) / sobolev_norm(fine, s))
        ladder.append((ensemble[0].grid.n * factor, max(ratios)))
    return RatioStatistics(
        n_trials=len(ensemble),
        ratios=ratios,
        sup_ratio=max(ratios),
        resolution_ladder=ladder,
    )


def plane_wave_growth_exponent(
    grid: SpectralGrid,
    T: float,
    modes: list[int],
    n_time: int = 128,
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
        ratio = estimate_ratio(phi, T, "kato", n_time)
        points.append((m * grid.dxi, ratio))
    logs = np.log([p[0] for p in points])
    vals = np.log([p[1] for p in points])
    slope = float(np.polyfit(logs, vals, 1)[0])
    return slope, points
