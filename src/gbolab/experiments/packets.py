"""Seeded wave-packet ensembles for the linear-estimate ratio studies.

Packets are drawn directly in frequency space: a Gaussian envelope around a
random center frequency, a random spatial offset as a linear phase, and an
exactly zero mean mode.  Building in frequency space makes the mean-zero
requirement of negative-order derivatives exact and lets a packet be
re-rendered on a finer grid without changing the underlying function.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from ..spectral import Field, SpectralGrid, field_from_coeffs, make_grid


# Below this fraction of its peak a packet coefficient is rounding, not data.
_ACTIVE = 1e-12

INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R, XSHIFT = 0xCA01F9DD, 0x4973F715, 16
PCG_DEFAULT_MULTIPLIER_128 = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class _Uniform:
    """numpy's ``default_rng(seed).uniform`` bit for bit, without numpy.random
    (6 MB of RSS), its constants named as in numpy: SeedSequence hashes the
    seed's 32-bit words into a pool of 4 (numpy/random/bit_generator.pyx); 8
    words drawn from it, paired little-endian, seed PCG64, XSL-RR on a 128-bit
    LCG (numpy/random/src/pcg64/pcg64.h; M. E. O'Neill, HMC-CS-2014-0905)."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:  # -1 >> 32 == -1, so its split into words would never end
            raise ValueError(f"seed must be non-negative, got {seed}")
        words = [seed >> b & _MASK32 for b in range(0, max(seed.bit_length(), 1), 32)]
        const, mult = INIT_A, MULT_A

        def hashmix(value: int) -> int:
            nonlocal const
            value, const = value ^ const, const * mult & _MASK32
            value = value * const & _MASK32
            return value ^ value >> XSHIFT
        pool = [hashmix(v) for v in (words + [0] * 3)[:4]] + words[4:]
        for src, dst in ((s, d) for s in range(len(pool)) for d in range(4) if s != d):
            x = (MIX_MULT_L * pool[dst] - MIX_MULT_R * hashmix(pool[src])) & _MASK32
            pool[dst] = x ^ x >> XSHIFT
        const, mult = INIT_B, MULT_B
        s0, s1, s2, s3 = (hashmix(pool[i]) | hashmix(pool[i + 1]) << 32 for i in (0, 2, 0, 2))
        self._inc = inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = ((inc + (s0 << 64 | s1)) * PCG_DEFAULT_MULTIPLIER_128 + inc) & _MASK128

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) u for the next double u in [0, 1), as Generator.uniform."""
        self._state = (self._state * PCG_DEFAULT_MULTIPLIER_128 + self._inc) & _MASK128
        x, rot = (self._state >> 64 ^ self._state) & _MASK64, self._state >> 122
        u = ((x >> rot | x << 64 - rot) & _MASK64) >> 11  # the top 53 bits
        return lo + (hi - lo) * (u * 2.0 ** -53)


def _limits(grid: SpectralGrid, kind: str) -> tuple[tuple, tuple]:
    """The draw's limits, (center range, width range): modulated centers are
    log-uniform in [8, xi_max/4], broadband ones sit at zero."""
    if kind == "modulated":
        return (8.0, grid.xi_max / 4), (0.5, 2.0)
    return (0.0, 0.0), (0.3, 0.8)


def _reach(grid: SpectralGrid, kind: str) -> float:
    """Largest |xi| where a packet of this kind can exceed _ACTIVE of its peak:
    the farthest center plus the widest envelope's sqrt(2 ln(1/_ACTIVE)) widths,
    at most xi_max, plus one grid step as the peak falls between modes."""
    (_, center), (_, width) = _limits(grid, kind)
    spread = width * np.sqrt(-2.0 * np.log(_ACTIVE))
    return float(min(grid.xi_max, center + spread) + grid.dxi)


def make_packet_ensemble(
    grid: SpectralGrid,
    n_trials: int,
    seed: int,
    kind: str = "modulated",
) -> list[Field]:
    """Draw n_trials random real packets on ``grid``.

    kind='modulated' centers the envelope at a log-uniform frequency in
    [8, xi_max/4], so it needs xi_max > 32; kind='broadband' centers it at
    zero so low modes carry most of the mass, which is what the
    low-frequency estimate needs.  The zero mode is always exactly zero.
    """
    _check_ensemble(grid, n_trials, seed, kind)
    (lo, hi), widths = _limits(grid, kind)
    rng = _Uniform(seed)
    packets = []
    for _ in range(n_trials):
        center = np.exp(rng.uniform(np.log(lo), np.log(hi))) if kind == "modulated" else 0.0
        width = rng.uniform(*widths)
        x0 = rng.uniform(-grid.length / 8, grid.length / 8)
        amplitude = rng.uniform(0.5, 2.0)
        packets.append(_packet(grid, amplitude, center, width, x0))
    return packets


def _check_ensemble(grid: SpectralGrid, n_trials: int, seed: int, kind: str) -> None:
    if not isinstance(n_trials, numbers.Integral) or n_trials < 1:
        raise ValueError(f"n_trials must be an integer >= 1, got {n_trials}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if kind not in ("modulated", "broadband"):
        raise ValueError(f"unknown packet kind {kind!r}")
    (lo, hi), _ = _limits(grid, kind)
    if kind == "modulated" and hi <= lo:
        raise ValueError(f"n must make xi_max/4 exceed 8, as modulated packets center in "
                         f"[8, xi_max/4]; got xi_max = {grid.xi_max:.4g}")


def _packet(grid: SpectralGrid, amplitude: float, center: float,
            width: float, x0: float) -> Field:
    xi = grid.frequencies
    envelope = np.exp(-((np.abs(xi) - center) ** 2) / (2 * width ** 2))
    coeffs = amplitude * envelope * np.exp(-1j * xi * x0)
    # conjugate symmetry makes the field real; the mean mode is exactly zero
    dc = grid.n // 2
    out = np.zeros(grid.n, dtype=np.complex128)
    out[dc + 1 :] = coeffs[dc + 1 :]
    out[dc - 1 : 0 : -1] = np.conj(out[dc + 1 :])
    return field_from_coeffs(grid, out)


def embed_field(f: Field, factor: int) -> Field:
    """Render the same function on a grid refined by an integer factor.

    Fourier coefficients are zero-padded, and the coarse Nyquist coefficient
    is split equally onto the fine modes +-n/2, the real interpolant that
    SpectralGrid.sgn = 0 implies; so real data stay real and values at common
    points are kept.  Norms are kept exactly only when the Nyquist coefficient
    is 0, as it is for every drawn packet, whose embedding is then plain zero
    padding.
    """
    if not isinstance(factor, numbers.Integral) or factor < 1 or factor & (factor - 1):
        raise ValueError(f"factor must be a positive power of two, got {factor}")
    if factor == 1:
        return f
    fine = make_grid(f.grid.n * factor, f.grid.length)
    coeffs = np.zeros(fine.n, dtype=np.complex128)
    lo = fine.n // 2 - f.grid.n // 2
    coeffs[lo : lo + f.grid.n] = f.coeffs
    coeffs[lo] = coeffs[lo + f.grid.n] = f.coeffs[0] / 2
    return field_from_coeffs(fine, coeffs)


def plane_wave(grid: SpectralGrid, mode: int) -> Field:
    """Complex exponential e^{i mode (2 pi / L) x}, the torus-only control."""
    if not isinstance(mode, numbers.Integral) or not 0 < mode < grid.n // 2:
        raise ValueError(f"mode must be an integer strictly inside the resolved band, got {mode}")
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    coeffs[grid.n // 2 + mode] = grid.length
    return field_from_coeffs(grid, coeffs)
