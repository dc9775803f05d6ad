r"""Norms on fields and space-time samples; admissibility bookkeeping.

Sobolev norms follow the transform calibration of :mod:`gbolab.spectral`:

    ||f||_{H^s}^2 = (1/2pi) * sum_m (1 + xi_m^2)^s |fhat_m|^2 * dxi.

The mixed space-time norm L^p_x L^q_t of a slice array takes the time norm
first, by the trapezoid rule as one weighted sum of |v|^q over the times
(exact on non-uniform times), then the space norm by a Riemann sum (max for
an infinite exponent).  It and the X^s_T pieces are one fold over a field's
rfft half spectra in row blocks of a fixed byte size, which a free evolution
makes from its own half spectra, so neither a stack nor a stack-sized
temporary is built.

The admissibility predicate reads a derivative budget alpha at exponents
(p, q) as exact fractions (alpha, a, b) with a = 1/p, b = 1/q, 1/inf = 0:
admissible means the endpoint (1/2, 0, 1/2), or a > 0, b >= 0, 2a + b <= 1/2
and alpha = a + 2b - 1/2.  The twelve-entry audit reduces each norm of the
family, at the exact values of its float inputs, to such triplets plus side
conditions, all decided with no tolerance.  N2..N8 share a time shift delta
derived from (s, k), so they pass iff s > s_k = 1/2 - 1/k for k >= 4; N9 pins
s > 5/12, whose closed form gives the minimal nonlinearity power 12.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gbolab.spectral import (
    Field,
    SpectralGrid,
    _fractional_symbol,
    _half_grid,
    _lowpass_symbol,
)

__all__ = [
    "SpaceTimeField",
    "AdmissibleTriplet",
    "NormFamilyEntry",
    "XstComponents",
    "sobolev_norm",
    "mixed_norm",
    "xst_components",
    "is_one_admissible",
    "lemma_triplets",
    "norm_family_audit",
    "minimal_power",
]

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

    def _blocks(self):
        """(rows, the rfft half spectra of the rows' real and imaginary parts,
        (parts, rows, n//2+1)) a block at a time, in one buffer per call."""
        v, blocks = self.slices, _row_blocks(self.n_times, self.slices[0].nbytes)
        parts = [v.real, v.imag] if np.iscomplexobj(v) else [v]
        half = np.empty((len(parts), blocks[0].stop, self.grid.n // 2 + 1), complex)
        for rows in blocks:  # written through out=
            for part, out in zip(parts, half):
                np.fft.rfft(part[rows], out=out[:rows.stop - rows.start])
            yield rows, half[:, :rows.stop - rows.start]

    def uniform_step(self) -> float:
        """The common spacing of the times; raises if they are not uniform."""
        steps = np.diff(self.times)
        if steps.size == 0 or np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0]:
            raise ValueError("slices must be uniformly spaced in time")
        return float(steps[0])


@dataclass(frozen=True)
class AdmissibleTriplet:
    """A derivative budget alpha at exponents p = 1/a, q = 1/b (1/0 = inf)."""

    alpha: Fraction
    a: Fraction
    b: Fraction


@dataclass(frozen=True)
class NormFamilyEntry:
    """One row of the norm-family audit: a space-time norm of the family
    N1..N12 together with the admissibility reduction(s) backing it.

    (a, b) = (1/p, 1/q) are the norm's own exponents; ``triplets`` hold the
    reductions actually fed to the predicate, which may carry delta/eps
    adjustments.  ``side_conditions`` are (description, bool) pairs required
    in addition to admissibility: the rules the predicate does not decide.
    """

    id: str
    derivative_order: Fraction
    a: Fraction
    b: Fraction
    triplets: tuple[AdmissibleTriplet, ...]
    side_conditions: tuple[tuple[str, bool], ...]


# ---------------------------------------------------------------------------
# Norms.


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm with weight (1+xi^2)^s."""
    weighted = (1.0 + f.grid.frequencies ** 2) ** s * np.abs(f.coeffs) ** 2
    return float(np.sqrt(np.sum(weighted) * f.grid.dxi / (2 * np.pi)))


# The space-time kernels read row blocks of about 128 kB into buffers allocated
# once per call and written through out= (no fresh temporary per block).  At
# the top estimates rung, 513 x 2048, 128-512 kB blocks take the same time and
# 2 MB is slower; 512 kB buffers were returned to the system after each of a
# run's 96 kernel calls and faulted in again by the next (30k minor faults
# inside an estimates run on a 2-CPU box, against 4.7k at 128 kB).
_BLOCK_BYTES = 128 * 1024


def _row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive rows, about _BLOCK_BYTES (and at least one row) a block."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(i, min(i + rows, n_rows)) for i in range(0, n_rows, rows)]


def _time_weights(times: np.ndarray, q: float) -> np.ndarray:
    """Trapezoid weights, so that the L^q time norm is one weighted sum:
    w_i = (t_{i+1} - t_{i-1})/2 inside, half a step at each end."""
    if times.size == 1 and not np.isinf(q):
        raise ValueError("finite time exponent needs at least two time samples")
    half = np.diff(times) / 2.0
    return np.append(half, 0.0) + np.insert(half, 0, 0.0)


def _fold(u: SpaceTimeField, pieces, weight=None) -> tuple[float, list[float]]:
    """One pass over u's half-spectrum blocks.  Each piece (symbol, p, q)
    gives the L^p_x L^q_t norm of the irfft of symbol * half (None: half),
    |.| over the real and imaginary parts, its time norm folded in block by
    block: the max for q = inf, else the weighted sum w @ |v|^q.  With an
    H^s weight on the half grid it also gives sup_t of the squared H^s norm
    of the slices (else 0)."""
    n, sup_hs = u.grid.n, 0.0
    # the smallest time exponent decides whether one time sample will do
    w = _time_weights(u.times, min(q for _, _, q in pieces))
    accs = [np.zeros(n) for _ in pieces]
    for rows, half in u._blocks():
        if rows.start == 0:  # the first block is the largest: one buffer each
            piece, parts = np.empty_like(half), np.empty(half.shape[:-1] + (n,))
        piece, parts = piece[:, :half.shape[1]], parts[:, :half.shape[1]]
        if weight is not None:
            # |half|^2 is weighted in piece.real, which the first piece then overwrites
            amp = np.square(np.abs(half, out=piece.real), out=piece.real)
            hs = np.sum(np.multiply(weight, amp, out=amp), axis=(0, -1))
            sup_hs = np.maximum(sup_hs, np.max(hs))
        for (symbol, _, q), acc in zip(pieces, accs):
            np.fft.irfft(half if symbol is None else np.multiply(symbol, half, out=piece),
                         n, out=parts)
            mag = np.abs(parts[0], out=parts[0]) if len(parts) == 1 else np.hypot(
                *parts, out=parts[0])
            if np.isinf(q):
                np.maximum(acc, np.max(mag, axis=0), out=acc)
            else:
                acc += w[rows] @ np.power(mag, q, out=mag)
    norms = []
    for (_, p, q), acc in zip(pieces, accs):
        inner = acc if np.isinf(q) else acc ** (1.0 / q)
        norms.append(float(np.max(inner)) if np.isinf(p)
                     else float((np.sum(inner ** p) * u.grid.dx) ** (1.0 / p)))
    return float(sup_hs), norms


def mixed_norm(u: SpaceTimeField, p: float, q: float) -> float:
    """The L^p_x L^q_t norm of a slice array (time norm inside); infinite
    exponents are float('inf')."""
    if not (p >= 1 and q >= 1):
        raise ValueError(f"exponents must be >= 1, got p = {p}, q = {q}")
    return _fold(u, [(None, p, q)])[1][0]


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


# X^s_T's pieces after sup_t H^s: the derivative order at s = 0 (None: the
# lowpass P_0) and the exponents (p, q) of L^p_x L^q_T.  At s = 0 they are the
# kato, maximal and lowfreq linear estimates.
_PIECES = ((0.5, np.inf, 2.0), (-0.25, 4.0, np.inf), (None, 2.0, np.inf))


def _check_regularity(s: float) -> None:
    """X^s_T and the norm family that builds it are stated for 0 < s < 1/2."""
    if not 0 < s < 0.5:
        raise ValueError(f"s must lie in (0, 1/2), got {s}")


def xst_components(u: SpaceTimeField, s: float) -> XstComponents:
    """Components of the solution-space norm at regularity s in (0, 1/2):

    sup_t H^s;  ||D^{s+1/2} u||_{L^inf_x L^2_t};
    ||D^{s-1/4} u||_{L^4_x L^inf_t};  ||P_0 u||_{L^2_x L^inf_t}.

    Each piece is one even multiplier on the rfft half spectra of the real
    and imaginary parts of the slices, all four in one pass.  The
    negative-order maximal symbol vanishes at xi = 0, so that piece sees the
    mean-free part of each slice (the mean travels with the low-frequency
    component).
    """
    _check_regularity(s)
    grid, xi = u.grid, _half_grid(u.grid)[0]
    # bins 0 < m < n/2 stand for m and -m; raw bins are n/L x calibrated ones
    weight = (1.0 + xi ** 2) ** s * (grid.dx ** 2 * grid.dxi / (2 * np.pi))
    weight[1:-1] *= 2.0
    sup_hs, norms = _fold(u, [
        (_lowpass_symbol(xi) if order is None else _fractional_symbol(xi, s + order), p, q)
        for order, p, q in _PIECES], weight)
    return XstComponents(float(np.sqrt(sup_hs)), *norms)


# ---------------------------------------------------------------------------
# Admissibility.


_HALF = Fraction(1, 2)


def is_one_admissible(t: AdmissibleTriplet) -> bool:
    """Whether (alpha, a, b) is an admissible derivative/exponent triplet.

    True iff (alpha, a, b) = (1/2, 0, 1/2), or a > 0, b >= 0, 2a + b <= 1/2
    and alpha = a + 2b - 1/2 exactly.
    """
    if (t.alpha, t.a, t.b) == (_HALF, 0, _HALF):
        return True
    return t.a > 0 and t.b >= 0 and 2 * t.a + t.b <= _HALF and t.alpha == t.a + 2 * t.b - _HALF


def lemma_triplets(s: float) -> list[AdmissibleTriplet]:
    """The four standing triplets used by the inhomogeneous linear estimates."""
    s = Fraction(s)
    return [
        AdmissibleTriplet(s, Fraction(1, 6) - s / 3, Fraction(1, 6) + 2 * s / 3),
        AdmissibleTriplet(Fraction(0), Fraction(1, 6), Fraction(1, 6)),
        AdmissibleTriplet(_HALF, Fraction(0), _HALF),
        AdmissibleTriplet(Fraction(-1, 4), Fraction(1, 4), Fraction(0)),
    ]


# ---------------------------------------------------------------------------
# Norm-family audit.
#
# s_k = 1/2 - 1/k is the scaling-critical index at nonlinearity power k.
# Entries N2..N8 trade a positive power of the timespan for a shift delta > 0
# in their triplet's time exponent, 1/q - delta, one delta derived from s and k
# (norm_family_audit); N1 and N9..N12 do not.


def _n9_triplet(s: Fraction, eps: Fraction) -> AdmissibleTriplet:
    """N9's reduction: 1/p = 3/2 - 3s, 1/q = 3 eps, alpha = 1 - 3s + 6 eps."""
    return AdmissibleTriplet(1 - 3 * s + 6 * eps, Fraction(3, 2) - 3 * s, 3 * eps)


def _fixed(id_: str, order: Fraction, t: AdmissibleTriplet, *side) -> NormFamilyEntry:
    """A fixed-exponent entry (N9..N12): one triplet at the norm's own exponents."""
    return NormFamilyEntry(id_, order, t.a, t.b, (t,), side)


def _delta_range(s: float | Fraction, k: int):
    """N2..N8's rows (id, 1/p, 1/q, w), of triplet time exponent (1/q - delta)/w, and
    their delta's range as (bound, rule): the largest of 0 and 2/p + 1/q <= 1/2's
    bounds (N8's (4 - k)/2 empties it at k <= 3), and the least 1/q - delta >= 0 cap."""
    s = Fraction(s)
    rows = (  # N2..N7: 1/p + 2/q = 1/k
        ("N2", Fraction(1, 3 * k), Fraction(1, 3 * k), 1),
        ("N3", (1 - s) / k, s / (2 * k), 1),
        ("N4", (Fraction(1, 3) + s) / k, (Fraction(1, 3) - s / 2) / k, 1),
        ("N5", 4 * s / (3 * k), (_HALF - 2 * s / 3) / k, 1),
        ("N6", (1 - s / 3) / k, s / (6 * k), 1),
        ("N7", Fraction(1, k + 1), Fraction(1, 2 * k * (k + 1)), 1),
        ("N8", (Fraction(5, 6) - s / 3) / (k - 1), 2 * s / 3 - Fraction(1, 6), k - 1))
    low = max([(Fraction(0), "the time shift")] + [
        (w * (2 * a - _HALF) + b, f"{id_}'s 2/p + 1/q <= 1/2") for id_, a, b, w in rows])
    return rows, low, min((b, f"{id_}'s 1/q - delta >= 0") for id_, _, b, _ in rows)


def norm_family_audit(s: float, k: int, eps: float) -> list[tuple[NormFamilyEntry, bool]]:
    """Audit the twelve-member norm family at regularity s, power k, slack eps.

    Returns (entry, verdict) pairs for N1..N12.  Each entry carries the
    norm's own reciprocal exponents, the admissibility triplet(s) it reduces
    to (including the delta shift of the time exponent where a timespan
    power is traded), and the side conditions the predicate does
    not decide; the verdict is all of them.  ``eps`` enters the
    fixed-exponent entries N9 and N11.  s and eps are taken at their exact
    values, so every verdict is an exact comparison.
    """
    if not isinstance(k, numbers.Integral) or k < 2:
        raise ValueError(f"k must be an integer >= 2 for the norm family, got {k}")
    _check_regularity(s)
    if not (eps > 0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    # a numpy k would hold Fraction's terms in int64, where s_k's arithmetic overflows
    s, eps, zero, k = Fraction(s), Fraction(eps), Fraction(0), int(k)
    sk = _HALF - Fraction(1, k)
    (*shifted, (_, a8, b8, _)), (low, _), (cap, _) = _delta_range(s, k)
    # delta halves that range, capped by the gain too: for k >= 4 N2..N8 pass iff s > s_k
    delta = (low + min(cap, (s - sk) / 2)) / 2
    gain = (("derivative gain positive: s > s_k + 2*delta", s - sk - 2 * delta > 0),)
    gain8 = s - sk - 2 * delta / k
    entries = [
        # N1: plain L^p_x L^inf_t for 4 <= p <= 1/(1/2 - s); reduction triplet
        # (1/p - 1/2, 1/p, 0), audited at both endpoints of the p-range.  The
        # rule 2a + b <= 1/2 at the upper end is the range's nonemptiness.
        NormFamilyEntry("N1", zero, Fraction(1, 4), zero, (
            AdmissibleTriplet(Fraction(-1, 4), Fraction(1, 4), zero),
            AdmissibleTriplet(-s, _HALF - s, zero)), ()),
        # N2..N7: norms L^p_x L^q_t with 1/p + 2/q = 1/k; reduction triplet
        # (alpha - s, 1/p, 1/q - delta) with alpha = s - s_k - 2*delta.
        *(NormFamilyEntry(id_, zero, a, b,
                          (AdmissibleTriplet(-sk - 2 * delta, a, b - delta),), gain)
          for id_, a, b, _ in shifted),
        # N8: the high-power entry with the k/(k-1) derivative trade; its time
        # exponent 2s/3 - 1/6 >= delta is the predicate's, as for N2..N7.
        NormFamilyEntry(
            "N8", zero, a8, max(b8, zero) / (k - 1),
            (AdmissibleTriplet(Fraction(k, k - 1) * gain8 - s, a8, (b8 - delta) / (k - 1)),),
            (("derivative gain positive: s > s_k + 2*delta/k", gain8 > 0),)),
        _fixed("N9", 1 - 2 * s + 6 * eps, _n9_triplet(s, eps)),
        _fixed("N10", s, AdmissibleTriplet(zero, Fraction(1, 6), Fraction(1, 6))),
        _fixed("N11", s + _HALF - 3 * eps,
               AdmissibleTriplet(_HALF - 3 * eps, eps, _HALF - 2 * eps),
               ("eps below boundary: eps < 1/4", eps < Fraction(1, 4))),
        _fixed("N12", _HALF, AdmissibleTriplet(_HALF - s, s / 3, _HALF - 2 * s / 3)),
    ]
    return [(e, all(ok for _, ok in e.side_conditions)
             and all(map(is_one_admissible, e.triplets))) for e in entries]


def minimal_power() -> int:
    """Least nonlinearity power whose critical index clears the audit.

    The threshold is re-derived, not hard-coded: N9's rule 2/p + 1/q <= 1/2
    is affine in s, and in the eps -> 0 limit two exact evaluations give its
    root, s = 5/12.  The answer is the least k with s_k = 1/2 - 1/k at or
    above that root.
    """
    def room(s: Fraction) -> Fraction:  # 1/2 - 2a - b of N9's triplet at eps = 0
        t = _n9_triplet(s, Fraction(0))
        return _HALF - 2 * t.a - t.b

    root = room(Fraction(0)) / (room(Fraction(0)) - room(Fraction(1)))
    return math.ceil(1 / (_HALF - root))
