"""Norm-growth construction for the data-to-solution map at low regularity.

The pipeline works in continuum frequency space: initial data concentrated
on two symmetric frequency bands of width alpha = N^{-theta}, the 4-linear
first Picard iterate of d_x(u^4) (k = 3) evaluated by an exact time
integral over the interaction set, and a growth fit of the norm against N.

The quadruple products of band frequencies land near 0, +-2N, +-4N only;
the interesting output is the band near 4N.  There the phase separates
into one term per factor frequency, and the band is evaluated by the 4-fold
convolution power of a one-dimensional chirp series, interpolated in the
output frequency (_band_4n).  The growth fit reads it on the band window, and
oracle_agreement at the frequencies of an independent oracle, which
evolves on a torus the positive band alone, whose 4-fold products are the
only ones to reach 4N, and integrates by brute-force Simpson.

Every propagator factor, of the band and of the oracle, is spectral._phases
at sgn(xi) xi^2 = xi^2: each frequency the module evaluates is positive.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..norms import _row_blocks
from ..spectral import _SIGMA, _phases
from .reporting import ExperimentReport, _Check

TWO_PI = 2.0 * np.pi


class QuadratureError(RuntimeError):
    """Raised when the refinement disagreement exceeds the tolerance."""


@dataclass(frozen=True)
class IllposedParams:
    """Inputs of one norm-growth run.

    alpha is tied to N and theta exactly; freq_resolution M is the number
    of quadrature points per interval of width alpha.  alpha and the amplitude
    are float64: an overflow reads as inf and fails one of the band's rules.
    """

    N: float
    s: float
    theta: float
    T: float
    freq_resolution: int = 32

    def __post_init__(self):
        for name in ("N", "theta", "T"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {getattr(self, name)}"
                )
        if not isinstance(self.freq_resolution, numbers.Integral) or self.freq_resolution < 16:
            raise ValueError(
                f"freq_resolution must be an integer >= 16, got {self.freq_resolution}")
        with np.errstate(all="ignore"):  # an inf or a nan fails the rules below
            c = _resonance(np.float64(self.N), np.array([0.0, 4.0 * self.alpha]))
            if not self.T * c[1] * 2.0 ** -53 <= 1e-3:
                raise ValueError(
                    f"N = {self.N:g}, theta = {self.theta:g} and T = {self.T:g} put the 4N "
                    f"band's phase T c(4 alpha) = {self.T * c[1]:.3g} rad beyond float64, "
                    f"which rounds it by more than 1e-3 rad; change N_list, theta or T")
            if 4.0 * self.alpha ** 2 >= c[0]:
                raise ValueError(
                    f"the series in S / c diverges at N = {self.N} (4 alpha^2 >= 12 N^2)")
            scale = kernel_bracket_4n(self)["model"]  # the band's H^s scale
        if not 0 < scale < np.inf:  # a non-finite s fails here too
            raise ValueError(
                f"N = {self.N:g}, s = {self.s:g} and theta = {self.theta:g} put the 4N "
                f"band's H^s scale at {scale:.3g}, not a positive finite float64; change s, "
                f"theta or N_list")

    @property
    def alpha(self) -> np.float64:
        with np.errstate(over="ignore"):
            return np.float64(self.N) ** -self.theta

    @property
    def amplitude(self) -> np.float64:
        """Band height of the data profile."""
        with np.errstate(all="ignore"):
            return self.alpha ** -0.5 * np.float64(self.N) ** -self.s


@dataclass(frozen=True)
class FrequencyProfile:
    """Samples of a frequency-space function on a uniform midpoint grid."""

    xi: np.ndarray
    values: np.ndarray
    spacing: float

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values))
        if self.xi.shape != self.values.shape:
            raise ValueError("xi and values must have the same shape")

    def hs_mass(self, s: float) -> float:
        """H^s mass of the band: (1/2pi) int (1+xi^2)^s |f|^2 dxi."""
        w = (1.0 + self.xi ** 2) ** s * np.abs(self.values) ** 2
        return float(np.sum(w) * self.spacing / TWO_PI)

    def hs_norm(self, s: float) -> float:
        return math.sqrt(self.hs_mass(s))


def hN_sobolev_norm(p: IllposedParams) -> float:
    """H^s norm of the data at s = p.s, by band quadrature: the transform is
    amplitude on [N, N+alpha] and on its mirror, of the same H^s mass."""
    h = p.alpha / p.freq_resolution
    xi = p.N + (np.arange(p.freq_resolution) + 0.5) * h
    return math.sqrt(2.0 * FrequencyProfile(xi, np.full(xi.size, p.amplitude), h).hs_mass(p.s))


# ---------------------------------------------------------------------------
# The Picard-term quadrature.


def _resonance(N, eta):
    """c(eta) = 12 N^2 + 6 N eta + eta^2: on the 4N band, at xi0 = 4N + eta,
    the phase is P = -c(eta) + sum y_i^2 (see kernel_bracket_4n)."""
    return 12.0 * N ** 2 + 6.0 * N * eta + eta ** 2


def _band_window(p: IllposedParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint xi0 grid of the 4N output window [4N, 4N + 4 alpha], with
    eta = xi0 - 4N and c(eta)."""
    h = p.alpha / p.freq_resolution
    xi0 = 4.0 * p.N + (np.arange(4 * p.freq_resolution) + 0.5) * h
    eta = xi0 - 4.0 * p.N
    return xi0, eta, _resonance(p.N, eta)


def _prefactor(p: IllposedParams, xi0: np.ndarray) -> np.ndarray:
    """6 i xi0 e^{i sigma T xi0^2} (2 pi)^-3 A^4, the Picard term's factor
    outside the fiber integral of the time kernel (xi0 > 0)."""
    return 6.0 * 1j * xi0 * _phases(xi0 ** 2, p.T) * (TWO_PI ** -3) * p.amplitude ** 4


# Fine-grid factor and series length of the separable 4N path.  The fine
# grid's error on the band falls like (r M)^-2 from r = 2 on; r = 4 holds it
# to 1.4e-5 of the band norm at M = 32 (6e-5 at M = 16), a quarter of what
# r = 1 or 2 leave.  Two terms leave a truncation of order (alpha / N)^4.
_FINE = 4
_SERIES_TERMS = 2


def _fiber_moments(f: np.ndarray, y2: np.ndarray, terms: int, h: float) -> list[np.ndarray]:
    """Fiber integrals of (sum_i y_i^2)^m prod_i f(y_i) at every node for each
    m < terms, as densities of discrete 4-fold convolutions of samples with
    spacing h.

    Moment m is m! times the lambda^m coefficient of the 4-fold convolution
    power of the series f e^{lambda y^2} = sum_j f y^{2j} lambda^j / j!,
    truncated after ``terms`` terms.  The series is squared twice; each
    squaring convolves every pair of orders a < m - a once and doubles it.
    """
    series = [f * y2 ** j / math.factorial(j) for j in range(terms)]
    for _ in range(2):
        series = [h * sum((2 * np.convolve(series[a], series[m - a]) for a in range((m + 1) // 2)),
                          np.convolve(series[m // 2], series[m // 2]) if m % 2 == 0 else 0)
                  for m in range(terms)]
    return [math.factorial(m) * moment for m, moment in enumerate(series)]


def _band_4n(
    p: IllposedParams, xi0: np.ndarray, refine: int = _FINE, terms: int = _SERIES_TERMS
) -> FrequencyProfile:
    """v-hat at the frequencies xi0 from the separable phase, without 3-fold quadrature.

    With z_i = N + y_i and eta = xi0 - 4N the phase is P = -c + S with
    c = 12 N^2 + 6 N eta + eta^2 and S = sum y_i^2 <= 4 alpha^2 (see
    kernel_bracket_4n), so with sigma = _SIGMA = -1, the propagator's sign,
    the time kernel expands as

        K(sigma P) = (i sigma / c) sum_m (S / c)^m (e^{-i sigma T c} e^{i sigma T S} - 1).

    Since e^{i sigma T S} = prod_i g(y_i), g(y) = 1_[0, alpha](y) e^{i sigma T y^2},
    the fiber integrals of S^m e^{i sigma T S} and of S^m are the moments of
    g and of the indicator (_fiber_moments): one 4-fold convolution power
    each, for all m at once.  The chirp is sampled at midpoints of spacing
    h_f = alpha / (refine M), so node k of a 4-fold sum lies at
    eta = (k + 2) h_f.  The moments are interpolated linearly in eta on
    these nodes and the support ends eta = 0 and 4 alpha, where the fiber
    measure vanishes, and are 0 outside them; c, the rotation and the
    prefactor are exact at each xi0.  The series keeps ``terms`` terms; it
    needs S / c < 1: IllposedParams secures 4 alpha^2 < 12 N^2.
    """
    M = p.freq_resolution
    R = refine * M
    hf = p.alpha / R
    y = (np.arange(R) + 0.5) * hf
    y2 = y ** 2
    chirp = _phases(y2, p.T)
    ones = np.ones_like(y)

    eta = xi0 - 4.0 * p.N
    c = _resonance(p.N, eta)
    nodes = np.r_[0.0, np.arange(2, 4 * R - 1), 4 * R]

    def at_eta(moments):
        return np.interp(eta / hf, nodes, np.r_[0.0, moments, 0.0])

    rotation = _phases(c, -p.T)
    out = np.zeros(xi0.size, dtype=np.complex128)
    moments = zip(_fiber_moments(chirp, y2, terms, hf), _fiber_moments(ones, y2, terms, hf))
    for m, (tilted, flat) in enumerate(moments):
        out += (rotation * at_eta(tilted) - at_eta(flat)) / c ** m
    out *= _SIGMA * 1j / c
    return FrequencyProfile(xi0, _prefactor(p, xi0) * out, p.alpha / M)


# Largest relative change of the band norm that the refinement check lets
# pass; the README and test ladders move it by 1e-5 (M = 32) to 4e-5 (M = 16).
_REFINEMENT_TOL = 0.05
# Largest |slope - (1 - 3s - 3 theta/2)| that the growth fit's check passes.
_EXPONENT_TOL = 0.1


def illposed_v_details(p: IllposedParams) -> dict:
    """The 4N output band, its H^s norm, and the refinement check.

    The band comes from the separable fast path (_band_4n).  The check
    recomputes the norm once with the fine grid twice as fine and once with
    one more series term; the larger relative change is the disagreement,
    which must stay within _REFINEMENT_TOL.
    """
    xi0 = _band_window(p)[0]
    band = _band_4n(p, xi0)
    norm_4n = band.hs_norm(p.s)
    disagreement = float(np.max([
        abs(other.hs_norm(p.s) - norm_4n) / norm_4n
        for other in (_band_4n(p, xi0, refine=2 * _FINE),
                      _band_4n(p, xi0, terms=_SERIES_TERMS + 1))
    ]))
    if not disagreement <= _REFINEMENT_TOL:  # a nan disagreement fails too
        raise QuadratureError(
            f"grid or series refinement moved the band norm by "
            f"{disagreement:.2%} (> {_REFINEMENT_TOL:.0%}) at N = {p.N}"
        )
    return {"band": band, "band_norm": norm_4n,
            "refinement_disagreement": disagreement}


# ---------------------------------------------------------------------------
# Torus oracle: brute-force Duhamel quadrature of the same Picard term.


def torus_duhamel_oracle(
    p: IllposedParams, modes_per_alpha: int = 16
) -> FrequencyProfile:
    """v-hat near 4N from a periodic evolution and Simpson time quadrature.

    Independent of the frequency-space path: the data lives on a frequency
    comb of spacing alpha/modes_per_alpha (band edges handled by
    cell-average weights), the quartic is formed pointwise in physical
    space, and the time integral is brute-force Simpson with ~8 samples
    per fastest phase oscillation, transformed in row blocks of norms._BLOCK_BYTES.

    Only the positive band is evolved: a product with a negative-band
    factor lies at or below 2N + 3 alpha < 4N.  Shifted down by its first
    mode, the J band modes have 4-fold sums 0 .. 4(J-1); a power-of-two
    transform of n >= 4(J-1) + 1 points, hence 4(J-1) + 4, holds them and
    the window, at most two modes beyond them, without wrap.  n depends on
    modes_per_alpha alone, so the cost grows like N^2, the sample count.
    """
    if not isinstance(modes_per_alpha, numbers.Integral) or modes_per_alpha < 8:
        raise ValueError(f"modes_per_alpha must be an integer >= 8, got {modes_per_alpha}")
    dxi = p.alpha / modes_per_alpha
    # comb modes whose cells meet the positive band, with cell-average weights
    m = np.arange(math.floor(p.N / dxi), math.ceil((p.N + p.alpha) / dxi) + 1)
    lo, hi = m * dxi - dxi / 2, m * dxi + dxi / 2
    overlap = np.clip(np.minimum(hi, p.N + p.alpha) - np.maximum(lo, p.N), 0.0, None)
    m = m[overlap > 0]
    coeffs = p.amplitude * overlap[overlap > 0] / dxi

    m_out = np.arange(4 * m[0] - 2, 4 * m[-1] + 3)
    xi_out = m_out * dxi
    window = (xi_out >= 4 * p.N - dxi / 2) & (xi_out <= 4 * (p.N + p.alpha) + dxi / 2)
    xi_out = xi_out[window]

    n = 1 << (4 * (m.size - 1)).bit_length()
    out_slots = (m_out[window] - 4 * m[0]) % n

    p_max = 12.5 * (p.N + p.alpha) ** 2
    n_t = int(np.ceil(1.3 * p_max * p.T / np.pi)) * 2
    ts = np.linspace(0.0, p.T, n_t + 1)
    weights = np.ones(n_t + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (ts[1] - ts[0]) / 3.0

    accum = np.zeros(xi_out.size, dtype=np.complex128)
    for rows in _row_blocks(ts.size, n * 16):  # complex rows
        t = ts[rows, None]
        # squared twice: numpy's complex power is several times slower
        values = np.fft.ifft(coeffs * _phases((m * dxi) ** 2, t), n)
        what = np.fft.fft(np.square(np.square(values)))[:, out_slots]
        accum += weights[rows] @ (_phases(xi_out ** 2, -t) * what)

    # raw transforms: the (-1)^m signs cancel in the product, the scale (n/L)^3 stays, L = 2 pi/dxi
    vhat = 6.0 * 1j * xi_out * _phases(xi_out ** 2, p.T) * accum * (n * dxi / TWO_PI) ** 3
    return FrequencyProfile(xi_out, vhat, dxi)


def oracle_agreement(p: IllposedParams) -> float:
    """Max relative gap between the torus oracle and the fit's band
    (_band_4n) on the middle half-band.

    Both are evaluated at the torus mode frequencies in
    [4N + alpha, 4N + 3 alpha], away from the window edges where the
    profile plunges through zero.
    """
    oracle = torus_duhamel_oracle(p)
    sel = (oracle.xi >= 4 * p.N + p.alpha) & (oracle.xi <= 4 * p.N + 3 * p.alpha)
    main = _band_4n(p, oracle.xi[sel])
    ref = np.abs(oracle.values[sel])
    gap = np.abs(np.abs(main.values) - ref)
    return float(np.max(gap / np.max(ref)))


# ---------------------------------------------------------------------------
# Analytic bracket of the 4N band.


def _cubic_bspline(t):
    """4-fold self-convolution of the indicator of [0, 1], in closed form."""
    t = np.asarray(t, dtype=float)
    powers = sum(
        w * np.clip(t - k, 0.0, None) ** 3
        for k, w in enumerate((1.0, -4.0, 6.0, -4.0, 1.0))
    )
    return np.where((t > 0.0) & (t < 4.0), powers / 6.0, 0.0)


def kernel_bracket_4n(p: IllposedParams) -> dict:
    """One-dimensional bracket of the 4N-band H^s norm, without quadrature.

    On the 4N band every factor frequency is z_i = N + y_i, 0 <= y_i <= alpha.
    With eta = xi0 - 4N = sum y_i the phase is

        P = -c(eta) + sum y_i^2,   c(eta) = 12 N^2 + 6 N eta + eta^2,

    and 0 <= sum y_i^2 <= alpha eta.  Freezing the kernel at P = -c leaves
    the fiber measure F(eta) = alpha^3 B(eta / alpha), B the cubic B-spline,
    so vhat = pref F K(-c) + r with |K(-c)| = 2 |sin(T c / 2)| / c and,
    since |K'(q)| <= T/|q| + 2/q^2,

        |r| <= pref F alpha eta (T / (c - alpha eta) + 2 / (c - alpha eta)^2).

    On the band window of illposed_v_details the returned ``model`` norm
    (kernel frozen) and ``remainder`` norm (the bound on r) therefore
    satisfy |band_norm - model| <= remainder.  ``resonant`` is the norm with
    the kernel replaced by its resonant size T; it grows like
    N^{1 - 3s - 3 theta/2}, while model / resonant is close to
    sqrt(2) / (12 N^2 T), so the band itself grows two powers of N slower.
    """
    xi0, eta, c = _band_window(p)
    h = p.alpha / p.freq_resolution
    gap = c - p.alpha * eta
    frozen = (
        6.0 * np.abs(xi0) * TWO_PI ** -3 * p.amplitude ** 4
        * p.alpha ** 3 * _cubic_bspline(eta / p.alpha)
    )

    def norm(values):
        return FrequencyProfile(xi0, values, h).hs_norm(p.s)

    return {
        "model": norm(frozen * 2.0 * np.abs(np.sin(p.T * c / 2.0)) / c),
        "remainder": norm(frozen * p.alpha * eta * (p.T / gap + 2.0 / gap ** 2)),
        "resonant": norm(frozen * p.T),
    }


# ---------------------------------------------------------------------------
# Growth fit.


def _fit_rungs(s, theta, T, N_list, freq_resolution) -> list[IllposedParams]:
    """The rungs of a growth fit, every range checked before any work."""
    N_arr = np.asarray(sorted(N_list), dtype=float)
    ratios = N_arr[1:] / N_arr[:-1] if N_arr.size >= 5 and N_arr[0] > 0 else [0.0]
    if ratios[0] <= 1 or np.any(np.abs(ratios - ratios[0]) > 1e-9 * ratios[0]):
        raise ValueError(f"N_list must be a geometric ladder of at least 5 positive "
                         f"values with a ratio above 1, got {list(N_list)}")
    return [IllposedParams(N=float(N), s=s, theta=theta, T=T,
                           freq_resolution=freq_resolution) for N in N_arr]


def illposed_growth_fit(
    s: float,
    theta: float,
    T: float,
    N_list,
    freq_resolution: int = 32,
):
    """Fit log ||v||_{H^s} against log N and compare to 1 - 3s - 3 theta/2.

    Every member run must pass its quadrature refinement check; a failure
    raises QuadratureError and no slope is reported.  Returns an
    ExperimentReport whose points carry, per rung, the band norm, its
    refinement disagreement and the H^s norm of the data.

    The report's one check passes a slope within _EXPONENT_TOL of the
    paper's exponent 1 - 3s - 3 theta/2, which assumes a time kernel of size
    T.  On the 4N band the exact kernel is of order N^-2 (see
    kernel_bracket_4n), so this band cannot show that exponent and the
    verdict stays FAIL.
    """
    rungs = _fit_rungs(s, theta, T, N_list, freq_resolution)
    points = []
    for p in rungs:
        details = illposed_v_details(p)
        points.append(
            {
                "N": p.N,
                "alpha": p.alpha,
                "band_norm": details["band_norm"],
                "refinement_disagreement": details["refinement_disagreement"],
                "data_norm": hN_sobolev_norm(p),
            }
        )

    logs = np.log([pt["N"] for pt in points])
    vals = np.log([pt["band_norm"] for pt in points])
    coef, cov = np.polyfit(logs, vals, 1, cov=True)
    slope = float(coef[0])
    ci = float(1.96 * np.sqrt(cov[0, 0]))
    predicted = 1.0 - 3.0 * s - 1.5 * theta
    return ExperimentReport(
        experiment_id="illposed_growth",
        inputs={
            "s": s,
            "theta": theta,
            "T": T,
            "N_list": [p.N for p in rungs],
            "freq_resolution": freq_resolution,
            "predicted_exponent": predicted,
        },
        points=points,
        slope=slope,
        ci=ci,
        checks=[_Check("|slope - predicted exponent|", abs(slope - predicted), "<=",
                       _EXPONENT_TOL)],
        notes=[
            "band norm is the 4N-band contribution to ||v||_{H^s}",
            "time kernel evaluated exactly; on the 4N band |P| is of order "
            "12 N^2, so the kernel magnitude carries an extra N^{-2} not "
            "present in the predicted exponent",
        ],
    )
