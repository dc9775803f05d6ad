r"""Norms on fields and space-time samples; admissibility bookkeeping.

Sobolev norms follow the transform calibration of :mod:`gbolab.spectral`:

    ||f||_{H^s}^2 = (1/2pi) * sum_m (1 + xi_m^2)^s |fhat_m|^2 * dxi

with the homogeneous variant using |xi|^{2s} and dropping the zero mode.

Mixed space-time norms L^p_x L^q_t / L^q_t L^p_x are computed from a slice
array: trapezoid rule in time, uniform Riemann sum in space, max for
infinite exponents.  The inner exponent is applied first, per the order
declared in MixedNormSpec.

The admissibility predicate decides whether a derivative budget alpha is
available at exponents (p, q): admissible means the endpoint (1/2, inf, 2),
or 4 <= p < inf, 2 < q <= inf, 2/p + 1/q <= 1/2, with
alpha = 1/p + 2/q - 1/2 exactly.  The twelve-entry audit table reduces each
member of the working family of space-time norms to such triplets plus
explicit side conditions; the N9 entry is the one that pins the regularity
threshold s > 5/12 and hence the minimal nonlinearity power 12.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from gbolab.spectral import (
    Field,
    SpectralGrid,
    _forward,
    _fractional_symbol,
    _inverse,
    _lowpass_symbol,
    field_from_values,
)

__all__ = [
    "SpaceTimeField",
    "MixedNormSpec",
    "AdmissibleTriplet",
    "NormFamilyEntry",
    "XstComponents",
    "sobolev_norm",
    "mixed_norm",
    "xst_norm",
    "xst_components",
    "is_one_admissible",
    "lemma_triplets",
    "norm_family_audit",
    "minimal_power",
    "write_audit_csv",
]

_TOL = 1e-12


# ---------------------------------------------------------------------------
# Containers.


@dataclass
class SpaceTimeField:
    """Samples u(t_i, x_j) on a common grid, one row per time slice."""

    grid: SpectralGrid
    times: np.ndarray
    slices: np.ndarray  # shape (n_times, n_points)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.slices = np.asarray(self.slices)
        if self.times.size == 0:
            raise ValueError("empty trajectory")
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.slices.shape != (self.times.size, self.grid.n):
            raise ValueError(
                f"slices shape {self.slices.shape} does not match "
                f"({self.times.size}, {self.grid.n})"
            )

    @property
    def n_times(self) -> int:
        return self.times.size

    def slice_field(self, i: int) -> Field:
        return field_from_values(self.grid, self.slices[i])

    def uniform_step(self) -> float:
        """The common spacing of the times; raises if they are not uniform."""
        steps = np.diff(self.times)
        if steps.size == 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("slices must be uniformly spaced in time")
        return float(steps[0])


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponents and nesting order for a mixed norm.

    order='x_outer' means L^p_x L^q_t (time norm inside), 't_outer' means
    L^q_t L^p_x.  Infinite exponents are float('inf').
    """

    p: float
    q: float
    order: str = "x_outer"

    def __post_init__(self):
        if self.order not in ("x_outer", "t_outer"):
            raise ValueError(f"order must be 'x_outer' or 't_outer', got {self.order!r}")
        if self.p < 1 or self.q < 1:
            raise ValueError("exponents must be >= 1")


@dataclass(frozen=True)
class AdmissibleTriplet:
    """A derivative budget alpha with exponents (p, q)."""

    alpha: float
    p: float
    q: float


@dataclass
class NormFamilyEntry:
    """One row of the norm-family audit: a space-time norm of the family
    N1..N12 together with the admissibility reduction(s) backing it.

    (p, q) are the exponents of the norm itself; ``triplets`` hold the
    (alpha, p, q) reductions actually fed to the predicate, which may carry
    delta/eps adjustments.  ``side_conditions`` are (description, bool)
    pairs that are required in addition to admissibility.
    """

    id: str
    derivative_order: float
    p: float
    q: float
    t_power_flag: bool
    triplets: list = field(default_factory=list)
    side_conditions: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Norms.


def sobolev_norm(f: Field, s: float, homogeneous: bool = False) -> float:
    """H^s norm with weight (1+xi^2)^s, or |xi|^{2s} when homogeneous.

    The homogeneous variant drops the zero mode; for s < 0 it requires
    mean-zero input (the weight would have to blow up at xi = 0).
    """
    if not homogeneous:
        return float(_hs_norms(f.grid, f.coeffs, s))
    if s < 0:
        scale = np.max(np.abs(f.coeffs)) or 1.0
        if np.abs(f.coeffs[f.grid.n // 2]) > 1e-10 * scale:
            raise ValueError("homogeneous norm with s < 0 requires mean-zero input")
    xi = f.grid.frequencies
    nz = xi != 0
    weighted = np.abs(xi[nz]) ** (2 * s) * np.abs(f.coeffs[nz]) ** 2
    return float(np.sqrt(np.sum(weighted) * f.grid.dxi / (2 * np.pi)))


def _hs_norms(grid: SpectralGrid, coeffs: np.ndarray, s: float) -> np.ndarray:
    """H^s norms, weight (1+xi^2)^s, of the coefficients along the last axis."""
    weighted = (1.0 + grid.frequencies ** 2) ** s * np.abs(coeffs) ** 2
    return np.sqrt(np.sum(weighted, axis=-1) * grid.dxi / (2 * np.pi))


def _lp_time(values: np.ndarray, times: np.ndarray, q: float) -> np.ndarray:
    """L^q norm along axis 0 (time) by trapezoid rule."""
    if np.isinf(q):
        return np.max(np.abs(values), axis=0)
    if times.size == 1:
        raise ValueError("finite time exponent needs at least two time samples")
    return np.trapezoid(np.abs(values) ** q, times, axis=0) ** (1.0 / q)


def _lp_space(values: np.ndarray, dx: float, p: float) -> np.ndarray:
    """L^p norm along the last axis (space) by uniform Riemann sum."""
    if np.isinf(p):
        return np.max(np.abs(values), axis=-1)
    return (np.sum(np.abs(values) ** p, axis=-1) * dx) ** (1.0 / p)


def mixed_norm(u: SpaceTimeField, spec: MixedNormSpec) -> float:
    """Mixed space-time norm of a slice array per ``spec``."""
    if spec.order == "x_outer":
        inner = _lp_time(u.slices, u.times, spec.q)        # shape (n,)
        return float(_lp_space(inner[None, :], u.grid.dx, spec.p)[0])
    inner = _lp_space(u.slices, u.grid.dx, spec.p)         # shape (nt,)
    return float(_lp_time(inner[:, None], u.times, spec.q)[0])


@dataclass(frozen=True)
class XstComponents:
    """The four pieces of the solution-space norm, reported separately."""

    sup_sobolev: float
    smoothing: float
    maximal: float
    low_frequency: float

    @property
    def total(self) -> float:
        return self.sup_sobolev + self.smoothing + self.maximal + self.low_frequency


def xst_components(u: SpaceTimeField, s: float) -> XstComponents:
    """Components of the solution-space norm at regularity s in (0, 1/2):

    sup_t H^s;  ||D^{s+1/2} u||_{L^inf_x L^2_t};
    ||D^{s-1/4} u||_{L^4_x L^inf_t};  ||P_0 u||_{L^2_x L^inf_t}.

    The slice stack is transformed once; each piece is one multiplier on
    it.  The negative-order maximal symbol vanishes at xi = 0, so that piece
    sees the mean-free part of each slice (the mean travels with the
    low-frequency component instead).
    """
    if not (0 < s < 0.5):
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    grid, xi = u.grid, u.grid.frequencies
    coeffs = _forward(grid, u.slices)

    def piece(symbol: np.ndarray, p: float, q: float) -> float:
        values = _inverse(grid, symbol * coeffs)
        return mixed_norm(SpaceTimeField(grid, u.times, values),
                          MixedNormSpec(p=p, q=q, order="x_outer"))

    return XstComponents(
        float(np.max(_hs_norms(grid, coeffs, s))),
        piece(_fractional_symbol(xi, s + 0.5), np.inf, 2.0),
        piece(_fractional_symbol(xi, s - 0.25), 4.0, np.inf),
        piece(_lowpass_symbol(xi), 2.0, np.inf),
    )


def xst_norm(u: SpaceTimeField, s: float) -> float:
    """Total solution-space norm (sum of the four components)."""
    return xst_components(u, s).total


# ---------------------------------------------------------------------------
# Admissibility.


def _inv(r: float) -> float:
    return 0.0 if np.isinf(r) else 1.0 / r


def is_one_admissible(t: AdmissibleTriplet) -> bool:
    """Whether (alpha, p, q) is an admissible derivative/exponent triplet.

    True iff (alpha, p, q) = (1/2, inf, 2), or 4 <= p < inf, 2 < q <= inf,
    2/p + 1/q <= 1/2 and alpha = 1/p + 2/q - 1/2 (tolerance 1e-12).
    """
    alpha, p, q = t.alpha, t.p, t.q
    if np.isinf(p) and q == 2.0 and abs(alpha - 0.5) <= _TOL:
        return True
    if np.isinf(p) or p < 4.0 - _TOL:
        return False
    if not q > 2.0:
        return False
    if 2 * _inv(p) + _inv(q) > 0.5 + _TOL:
        return False
    return abs(alpha - (_inv(p) + 2 * _inv(q) - 0.5)) <= _TOL


def lemma_triplets(s: float) -> list[AdmissibleTriplet]:
    """The four standing triplets used by the inhomogeneous linear estimates."""
    return [
        AdmissibleTriplet(s, 1.0 / (1.0 / 6 - s / 3), 1.0 / (1.0 / 6 + 2 * s / 3)),
        AdmissibleTriplet(0.0, 6.0, 6.0),
        AdmissibleTriplet(0.5, np.inf, 2.0),
        AdmissibleTriplet(-0.25, 4.0, np.inf),
    ]


# ---------------------------------------------------------------------------
# Norm-family audit.
#
# s_k = 1/2 - 1/k is the scaling-critical index at nonlinearity power k.
# Entries N2..N8 trade a positive power of the timespan (t_power_flag) for
# a small shift delta in the time exponent; N1 and N9..N12 do not.


def _s_crit(k: int) -> float:
    return 0.5 - 1.0 / k


def _verdict(e: NormFamilyEntry) -> bool:
    return all(ok for _, ok in e.side_conditions) and all(
        is_one_admissible(t) for t in e.triplets
    )


def norm_family_audit(
    s: float, k: int, eps: float, delta: float = 1e-3
) -> list[tuple[NormFamilyEntry, bool]]:
    """Audit the twelve-member norm family at regularity s, power k, slack eps.

    Returns (entry, verdict) pairs for N1..N12.  Each entry carries the
    norm's own exponents, the admissibility triplet(s) it reduces to
    (including the delta adjustments in the time exponent where a timespan
    power is traded), and its explicit side conditions.  ``delta`` is that
    small trade parameter; ``eps`` enters the fixed-exponent entries N9 and
    N11.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if not (0 < s < 0.5):
        raise ValueError(f"s must lie in (0, 1/2), got {s}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    sk = _s_crit(k)
    out: list[tuple[NormFamilyEntry, bool]] = []

    def emit(e: NormFamilyEntry) -> None:
        out.append((e, _verdict(e)))

    # N1: plain L^p_x L^inf_t for 4 <= p <= 1/(1/2 - s); reduction triplet
    # (1/p - 1/2, p, inf), audited at both endpoints of the p-range.
    p_hi = 1.0 / (0.5 - s)
    e = NormFamilyEntry("N1", 0.0, 4.0, np.inf, False)
    e.triplets = [
        AdmissibleTriplet(-0.25, 4.0, np.inf),
        AdmissibleTriplet(_inv(p_hi) - 0.5, p_hi, np.inf),
    ]
    e.side_conditions = [("exponent range nonempty: 1/(1/2-s) >= 4", p_hi >= 4.0 - _TOL)]
    emit(e)

    # N2..N7: norms L^p_x L^q_t with 1/p + 2/q = 1/k; reduction triplet
    # (alpha - s, p, 1/(1/q - delta)) with alpha = s - s_k - 2*delta.
    template = {
        "N2": (3.0 * k, 3.0 * k),
        "N3": (k / (1.0 - s), 2.0 * k / s),
        "N4": (k / (1.0 / 3 + s), k / (1.0 / 3 - s / 2)),
        "N5": (3.0 * k / (4.0 * s), k / (0.5 - 2.0 * s / 3)),
        "N6": (k / (1.0 - s / 3), 6.0 * k / s),
        "N7": (float(k + 1), 2.0 * k * (k + 1.0)),
    }
    gain = s - sk - 2 * delta
    for id_, (p, q) in template.items():
        e = NormFamilyEntry(id_, 0.0, p, q, True)
        slack_ok = _inv(q) - delta > _TOL
        q_adj = 1.0 / (_inv(q) - delta) if slack_ok else np.inf
        e.triplets = [AdmissibleTriplet(-sk - 2 * delta, p, q_adj)]
        e.side_conditions = [
            ("derivative gain positive: s > s_k + 2*delta", gain > _TOL),
            ("time slack fits: 1/q > delta", slack_ok),
        ]
        emit(e)

    # N8: the high-power entry with the k/(k-1) derivative trade.
    q8_den = 2 * s / 3 - 1.0 / 6
    p8 = (k - 1.0) / (5.0 / 6 - s / 3)
    e = NormFamilyEntry("N8", 0.0, p8, (k - 1.0) / q8_den if q8_den > 0 else np.inf, True)
    alpha8 = (k / (k - 1.0)) * (s - sk - 2 * delta / k) - s
    den_ok = q8_den - delta > _TOL
    q8_adj = (k - 1.0) / (q8_den - delta) if den_ok else np.inf
    e.triplets = [AdmissibleTriplet(alpha8, p8, q8_adj)]
    e.side_conditions = [
        ("time exponent positive: 2s/3 > 1/6 + delta", den_ok),
        ("derivative gain positive: s > s_k + 2*delta/k", s - sk - 2 * delta / k > _TOL),
    ]
    emit(e)

    # N9..N12: fixed-exponent entries.
    e = NormFamilyEntry("N9", 1.0 - 2 * s + 6 * eps, 1.0 / (1.5 - 3 * s), 1.0 / (3 * eps), False)
    e.triplets = [AdmissibleTriplet(1.0 - 3 * s + 6 * eps, e.p, e.q)]
    emit(e)

    e = NormFamilyEntry("N10", s, 6.0, 6.0, False)
    e.triplets = [AdmissibleTriplet(0.0, 6.0, 6.0)]
    emit(e)

    e = NormFamilyEntry("N11", s + 0.5 - 3 * eps, 1.0 / eps, 1.0 / (0.5 - 2 * eps), False)
    e.triplets = [AdmissibleTriplet(0.5 - 3 * eps, e.p, e.q)]
    e.side_conditions = [("eps below boundary: eps < 1/4", eps < 0.25)]
    emit(e)

    e = NormFamilyEntry("N12", 0.5, 3.0 / s, 1.0 / (0.5 - 2 * s / 3), False)
    e.triplets = [AdmissibleTriplet(0.5 - s, e.p, e.q)]
    emit(e)

    return out


def minimal_power(eps: float = 1e-9, k_max: int = 64) -> int:
    """Least nonlinearity power whose critical index clears the audit.

    The threshold is re-derived, not hard-coded: bisection locates the
    regularity where the N9 reduction triplet turns admissible (in the
    eps -> 0 limit), and the answer is the least k with
    s_k = 1/2 - 1/k at or above that threshold.
    """
    lo, hi = 0.25, 0.5 - 1e-12

    def n9_ok(s: float) -> bool:
        t = AdmissibleTriplet(1.0 - 3 * s + 6 * eps, 1.0 / (1.5 - 3 * s), 1.0 / (3 * eps))
        return is_one_admissible(t)

    if not n9_ok(hi) or n9_ok(lo):
        raise RuntimeError("threshold not bracketed")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if n9_ok(mid):
            hi = mid
        else:
            lo = mid
    threshold = hi
    for k in range(2, k_max + 1):
        if _s_crit(k) >= threshold - 10 * eps:
            return k
    raise RuntimeError(f"no power up to {k_max} clears the threshold {threshold}")


def write_audit_csv(
    audit: Sequence[tuple[NormFamilyEntry, bool]], path: str
) -> None:
    """Write the audit: id, alpha, p, q, 2/p+1/q condition, alpha match, verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "alpha", "p", "q", "condition_2p_1q", "alpha_matches", "verdict"])
        for e, verdict in audit:
            for t in e.triplets:
                cond = 2 * _inv(t.p) + _inv(t.q)
                boundary_ok = (np.isinf(t.p) and t.q == 2.0) or cond <= 0.5 + _TOL
                alpha_match = abs(t.alpha - (_inv(t.p) + 2 * _inv(t.q) - 0.5)) <= _TOL
                w.writerow([
                    e.id,
                    f"{t.alpha:.12g}",
                    "inf" if np.isinf(t.p) else f"{t.p:.12g}",
                    "inf" if np.isinf(t.q) else f"{t.q:.12g}",
                    "PASS" if boundary_ok else "FAIL",
                    "PASS" if alpha_match else "FAIL",
                    "PASS" if verdict else "FAIL",
                ])
