r"""Norms on fields and space-time samples; admissibility bookkeeping.

Sobolev norms follow the transform calibration of :mod:`gbolab.spectral`:

    ||f||_{H^s}^2 = (1/2pi) * sum_m (1 + xi_m^2)^s |fhat_m|^2 * dxi

with the homogeneous variant using |xi|^{2s} and dropping the zero mode.
The mixed space-time norm L^p_x L^q_t of a slice array takes the time norm
first, by the trapezoid rule as one weighted sum of |v|^q over the times
(exact on non-uniform times), then the space norm by a Riemann sum (max for
an infinite exponent).  It and the X^s_T pieces read row blocks of a fixed
byte size (the pieces on half spectra), which a free evolution makes from its
own half spectra, so neither a stack nor a stack-sized temporary is built.

The admissibility predicate decides whether a derivative budget alpha is
available at exponents (p, q): admissible means the endpoint (1/2, inf, 2),
or 4 <= p < inf, 2 < q <= inf, 2/p + 1/q <= 1/2, with
alpha = 1/p + 2/q - 1/2 exactly.  The twelve-entry audit table reduces each
member of the working family of space-time norms to such triplets plus
explicit side conditions; the N9 entry is the one that pins the regularity
threshold s > 5/12 and hence the minimal nonlinearity power 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "xst_norm",
    "xst_components",
    "is_one_admissible",
    "lemma_triplets",
    "norm_family_audit",
    "minimal_power",
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

    def _blocks(self, spectral: bool):
        """(rows, the rows) a block at a time or, if spectral, (rows, the rfft
        half spectra of their real and imaginary parts, (parts, rows, n//2+1))."""
        v, blocks = self.slices, _row_blocks(self.n_times, self.slices[0].nbytes)
        if not spectral:
            yield from ((rows, v[rows]) for rows in blocks)
            return
        parts = [v.real, v.imag] if np.iscomplexobj(v) else [v]
        half = np.empty((len(parts), blocks[0].stop, self.grid.n // 2 + 1), complex)
        for rows in blocks:  # one buffer per call, written through out=
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
    xi, coeffs = f.grid.frequencies, f.coeffs
    if not homogeneous:
        weighted = (1.0 + xi ** 2) ** s * np.abs(coeffs) ** 2
    else:
        if s < 0 and np.abs(coeffs[f.grid.n // 2]) > 1e-10 * (np.max(np.abs(coeffs)) or 1.0):
            raise ValueError("homogeneous norm with s < 0 requires mean-zero input")
        weighted = np.abs(xi[xi != 0]) ** (2 * s) * np.abs(coeffs[xi != 0]) ** 2
    return float(np.sqrt(np.sum(weighted) * f.grid.dxi / (2 * np.pi)))


# The space-time kernels read row blocks of about 512 kB (128-512 kB measured
# the same at the top estimates rung, 513 x 2048; 2 MB was slower) into
# buffers allocated once per call and written through out=: with no large
# free to raise glibc's mmap threshold above 128 kB, a fresh 512 kB temporary
# per block is mapped and faulted in every time (70k against 42k minor faults
# per estimates run on a 2-CPU box).
_BLOCK_BYTES = 512 * 1024


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


def _add_block(acc: np.ndarray, mag: np.ndarray, w: np.ndarray, q: float) -> None:
    """Fold one row block of |v| (overwritten) into the running time norm:
    the max for q = inf, else the weighted sum w @ |v|^q."""
    if np.isinf(q):
        np.maximum(acc, np.max(mag, axis=0), out=acc)
    else:
        acc += w @ np.power(mag, q, out=mag)


def _space_norm(acc: np.ndarray, q: float, dx: float, p: float) -> float:
    """The L^p_x norm (Riemann sum) of the time norm held in acc."""
    inner = acc if np.isinf(q) else acc ** (1.0 / q)
    if np.isinf(p):
        return float(np.max(inner))
    return float((np.sum(inner ** p) * dx) ** (1.0 / p))


def mixed_norm(u: SpaceTimeField, p: float, q: float) -> float:
    """The L^p_x L^q_t norm of a slice array (time norm inside); infinite
    exponents are float('inf')."""
    if not (p >= 1 and q >= 1):
        raise ValueError(f"exponents must be >= 1, got p = {p}, q = {q}")
    w, acc, mag = _time_weights(u.times, q), np.zeros(u.grid.n), None
    for rows, block in u._blocks(spectral=False):
        mag = np.empty(block.shape) if mag is None else mag[:len(block)]
        _add_block(acc, np.abs(block, out=mag), w[rows], q)
    return _space_norm(acc, q, u.grid.dx, p)


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


def _check_regularity(s: float) -> None:
    """X^s_T and the norm family that builds it are stated for 0 < s < 1/2."""
    if not 0 < s < 0.5:
        raise ValueError(f"s must lie in (0, 1/2), got {s}")


def xst_components(u: SpaceTimeField, s: float) -> XstComponents:
    """Components of the solution-space norm at regularity s in (0, 1/2):

    sup_t H^s;  ||D^{s+1/2} u||_{L^inf_x L^2_t};
    ||D^{s-1/4} u||_{L^4_x L^inf_t};  ||P_0 u||_{L^2_x L^inf_t}.

    Each piece is one even multiplier on the rfft half spectra of the real
    and imaginary parts of the slices, a block of rows at a time.  The
    negative-order maximal symbol vanishes at xi = 0, so that piece sees the
    mean-free part of each slice (the mean travels with the low-frequency
    component).
    """
    _check_regularity(s)
    grid, xi = u.grid, _half_grid(u.grid)[0]
    # bins 0 < m < n/2 stand for m and -m; raw bins are n/L x calibrated ones
    weight = (1.0 + xi ** 2) ** s * (grid.dx ** 2 * grid.dxi / (2 * np.pi))
    weight[1:-1] *= 2.0
    pieces = [(_fractional_symbol(xi, s + 0.5), np.inf, 2.0),
              (_fractional_symbol(xi, s - 0.25), 4.0, np.inf),
              (_lowpass_symbol(xi), 2.0, np.inf)]
    w, sup_hs, piece = _time_weights(u.times, 2.0), 0.0, None
    accs = [np.zeros(grid.n) for _ in pieces]
    for rows, half in u._blocks(spectral=True):
        if piece is None:
            piece, parts = np.empty_like(half), np.empty(half.shape[:-1] + (grid.n,))
        piece, parts = piece[:, :half.shape[1]], parts[:, :half.shape[1]]
        # |half|^2 is weighted in piece.real, which the first piece then overwrites
        amp = np.square(np.abs(half, out=piece.real), out=piece.real)
        hs = np.sum(np.multiply(weight, amp, out=amp), axis=(0, -1))
        sup_hs = np.maximum(sup_hs, np.max(hs))
        for (symbol, _, q), acc in zip(pieces, accs):
            np.fft.irfft(np.multiply(symbol, half, out=piece), grid.n, out=parts)
            mag = np.abs(parts[0], out=parts[0]) if len(parts) == 1 else np.hypot(
                *parts, out=parts[0])
            _add_block(acc, mag, w[rows], q)
    return XstComponents(float(np.sqrt(sup_hs)), *(
        _space_norm(acc, q, grid.dx, p) for (_, p, q), acc in zip(pieces, accs)))


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
# a small shift delta in the time exponent; N1 and N9..N12 do not.  Any
# small delta > 0 serves; the audit fixes one.
_DELTA = 1e-3


def _s_crit(k: int) -> float:
    return 0.5 - 1.0 / k


def _verdict(e: NormFamilyEntry) -> bool:
    return all(ok for _, ok in e.side_conditions) and all(
        is_one_admissible(t) for t in e.triplets
    )


def norm_family_audit(s: float, k: int, eps: float) -> list[tuple[NormFamilyEntry, bool]]:
    """Audit the twelve-member norm family at regularity s, power k, slack eps.

    Returns (entry, verdict) pairs for N1..N12.  Each entry carries the
    norm's own exponents, the admissibility triplet(s) it reduces to
    (including the _DELTA adjustments in the time exponent where a timespan
    power is traded), and its explicit side conditions.  ``eps`` enters the
    fixed-exponent entries N9 and N11.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2 for the norm family, got {k}")
    _check_regularity(s)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    sk, delta = _s_crit(k), _DELTA
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


def minimal_power() -> int:
    """Least nonlinearity power whose critical index clears the audit.

    The threshold is re-derived, not hard-coded: bisection locates the
    regularity where the N9 reduction triplet turns admissible (in the
    eps -> 0 limit, here eps = 1e-9), and the answer is the least k up to
    64 with s_k = 1/2 - 1/k at or above that threshold.
    """
    eps, k_max = 1e-9, 64
    lo, hi = 0.25, 0.5 - 1e-12

    def n9_ok(s: float) -> bool:  # N9's verdict, read off the audit, is free of k
        return next(ok for e, ok in norm_family_audit(s, 2, eps) if e.id == "N9")

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
