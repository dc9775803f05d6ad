"""High-frequency ill-posedness pipeline: data profiles, phase, kernel,
convolution geometry, the quadrature, its torus oracle, and the growth fit."""

import numpy as np
import pytest

from gbolab.experiments import illposed
from gbolab.experiments.illposed import (
    TWO_PI,
    FrequencyProfile,
    IllposedParams,
    QuadratureError,
    _band_4n,
    _band_window,
    _cubic_bspline,
    _fiber_moments,
    _prefactor,
    hN_sobolev_norm,
    illposed_growth_fit,
    illposed_v_details,
    kernel_bracket_4n,
    oracle_agreement,
    torus_duhamel_oracle,
)
from gbolab.spectral import _SIGMA, _forward, _inverse, make_grid

from conftest import fiber_measure

CHEAP = dict(s=0.2, theta=0.2, T=1.0, freq_resolution=16)


class TestParams:
    def test_derived_quantities(self):
        p = IllposedParams(N=256.0, s=0.2, theta=0.5, T=1.0)
        assert p.alpha == pytest.approx(256.0 ** -0.5)
        assert p.amplitude == pytest.approx(256.0 ** 0.25 * 256.0 ** -0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=0.0, s=0.2, theta=0.2, T=1.0),
            dict(N=16.0, s=0.2, theta=-0.1, T=1.0),
            dict(N=16.0, s=0.2, theta=0.2, T=0.0),
            dict(N=16.0, s=0.2, theta=0.2, T=1.0, freq_resolution=8),
            # float64 rounds the phase T c(4 alpha) by more than 1e-3 rad
            dict(N=8.7e5, s=0.2, theta=0.2, T=1.0),
            dict(N=1024.0, s=0.2, theta=0.2, T=1e7),
            dict(N=1e200, s=0.2, theta=0.2, T=1.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IllposedParams(**kwargs)

    def test_numpy_integer_resolution_accepted(self):
        kwargs = dict(N=16.0, s=0.2, theta=0.2, T=1.0)
        assert IllposedParams(**kwargs, freq_resolution=np.int64(16)) == IllposedParams(
            **kwargs, freq_resolution=16)


class TestDataProfile:
    @pytest.mark.parametrize("N", [64.0, 256.0, 1024.0])
    @pytest.mark.parametrize("theta", [0.1, 0.2, 0.3])
    def test_norm_at_s_zero_is_exact(self, N, theta):
        # two bands of width alpha and height amplitude, amplitude^2 alpha = 1
        # at s = 0: the L2 norm is (2 / 2pi)^(1/2) whatever N and theta
        p = IllposedParams(N=N, s=0.0, theta=theta, T=1.0)
        assert hN_sobolev_norm(p) == pytest.approx(np.pi ** -0.5, rel=1e-14)

    def test_norm_in_unit_window(self):
        p = IllposedParams(N=256.0, s=0.2, theta=0.2, T=1.0)
        assert 0.3 <= hN_sobolev_norm(p) <= 3.0

    def test_norm_stable_under_resolution_doubling(self):
        base = IllposedParams(N=256.0, s=0.2, theta=0.2, T=1.0,
                              freq_resolution=16)
        fine = IllposedParams(N=256.0, s=0.2, theta=0.2, T=1.0,
                              freq_resolution=32)
        a, b = hN_sobolev_norm(base), hN_sobolev_norm(fine)
        assert abs(a - b) / b < 0.05

    def test_norm_independent_of_N(self):
        norms = [
            hN_sobolev_norm(IllposedParams(N=N, s=0.2, theta=0.2, T=1.0))
            for N in (64.0, 256.0, 1024.0)
        ]
        assert max(norms) / min(norms) < 1.05


def _dispersion(xi):
    """sgn(xi) xi^2, the symbol the propagator phase multiplies by -t."""
    return xi * np.abs(xi)


def _phase_polynomial(xi0, xi1, xi2, xi3):
    """Resonance polynomial -2 sum_j xi_j (xi_{j-1} - xi_j), j = 1..3."""
    return -2.0 * (xi1 * (xi0 - xi1) + xi2 * (xi1 - xi2) + xi3 * (xi2 - xi3))


def _phase_from_dispersion(xi0, z1, z2, z3, z4):
    """The same phase from dispersion differences of the four factor
    frequencies z_i (z1 + z2 + z3 + z4 = xi0), the form _compute_on uses."""
    return (_dispersion(z1) + _dispersion(z2) + _dispersion(z3) + _dispersion(z4)
            - _dispersion(xi0))


class TestPhasePolynomial:
    def test_direct_arithmetic(self):
        assert _phase_polynomial(4.0, 3.0, 2.0, 1.0) == pytest.approx(-12.0)

    def test_coincident_frequencies_vanish(self):
        assert _phase_polynomial(7.0, 7.0, 7.0, 7.0) == 0.0

    def test_matches_dispersion_form_on_positive_region(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0 = rng.uniform(3.0, 9.0)
            x3 = rng.uniform(0.1, 1.0)
            x2 = x3 + rng.uniform(0.1, 1.0)
            x1 = x2 + rng.uniform(0.1, 1.0)
            # factor frequencies x0-x1, x1-x2, x2-x3, x3 all positive
            if x0 - x1 <= 0:
                continue
            poly = _phase_polynomial(x0, x1, x2, x3)
            disp = _phase_from_dispersion(x0, x0 - x1, x1 - x2, x2 - x3, x3)
            assert poly == pytest.approx(disp, abs=1e-10 * max(1.0, abs(poly)))

    def test_band_magnitude_of_order_N_squared(self):
        rng = np.random.default_rng(1)
        N, alpha = 128.0, 128.0 ** -0.2
        vals = []
        for _ in range(200):
            f = N + alpha * rng.random(4)  # the four factor frequencies
            x3 = f[3]
            x2 = x3 + f[2]
            x1 = x2 + f[1]
            x0 = x1 + f[0]
            vals.append(abs(_phase_polynomial(x0, x1, x2, x3)) / N ** 2)
        assert 4.0 < min(vals) and max(vals) < 30.0


# ---------------------------------------------------------------------------
# References: the time kernel, the direct 3-fold quadrature of the 4N band,
# and a full-line torus oracle.


def _time_kernel(q: np.ndarray, T: float) -> np.ndarray:
    """int_0^T e^{i s q} ds = (e^{iTq} - 1)/(iq), series below |Tq| = 1e-6."""
    tq = T * q
    small = np.abs(tq) < 1e-6
    safe = np.where(small, 1.0, q)
    exact = (np.exp(1j * tq) - 1.0) / (1j * safe)
    series = T * (1.0 + 1j * tq / 2.0 - tq ** 2 / 6.0)
    return np.where(small, series, exact)


def _compute_on(
    p: IllposedParams, xi0: np.ndarray, M_inner: int | None = None, kernel=_time_kernel
) -> FrequencyProfile:
    """3-fold midpoint quadrature of the 4N band on an explicit xi0 grid.

    The interaction set {z in [N, N + alpha]^4 : sum z = xi0} is
    parametrized by (z3, z4, z2) with z1 eliminated (unit Jacobian); the
    z2 interval is intersected exactly, so the set's boundary costs no
    smearing beyond the midpoint rule, and xi0 outside [4N, 4N + 4 alpha]
    gets exactly zero.  The time kernel is evaluated exactly (series
    fallback near P = 0), with no asymptotic shortcut for its size.

    Refining M_inner from M to 2M is no convergence test: both node sets
    line up with the output window, and at N = 64, M = 32 the 4N-band norm
    moves by only 6.5e-7 between them, while M_inner = 4M moves it by
    4.3e-5 (pointwise by 9.3e-5 of max |v-hat|) and 8M by another 1.1e-5.
    At M_inner = r M the 4N band agrees with _band_4n at refine r to 1e-8
    in norm.
    """
    if M_inner is None:
        M_inner = p.freq_resolution
    lo_z, hi_z = p.N, p.N + p.alpha
    h34 = p.alpha / M_inner
    z = lo_z + (np.arange(M_inner) + 0.5) * h34
    out = np.zeros(xi0.size, dtype=np.complex128)
    j = np.arange(M_inner)
    # chunk the z3 axis so the (z3, z4, z2) tensor stays near 64 MB
    chunk = max(1, (1 << 22) // (M_inner * M_inner))
    for start in range(0, M_inner, chunk):
        Z3 = z[start : start + chunk, None]
        Z4 = z[None, :]
        Z34 = Z3 + Z4
        p34 = _dispersion(Z3) + _dispersion(Z4)
        for idx, x0 in enumerate(xi0):
            S = x0 - Z34
            lo = np.maximum(lo_z, S - hi_z)
            mask = np.minimum(hi_z, S - lo_z) > lo
            # only the (z3, z4) whose z2 interval is nonempty
            S, lo = S[mask], lo[mask]
            dz2 = (np.minimum(hi_z, S - lo_z) - lo) / M_inner
            z2 = lo[:, None] + (j + 0.5) * dz2[:, None]
            z1 = S[:, None] - z2
            P = (
                _dispersion(z1) + _dispersion(z2) + p34[mask][:, None]
                - _dispersion(x0)
            )
            inner = np.sum(kernel(_SIGMA * P, p.T), axis=-1) * dz2
            out[idx] += np.sum(inner) * h34 ** 2
    return FrequencyProfile(xi0, _prefactor(p, xi0) * out, p.alpha / p.freq_resolution)


def _full_line_oracle(p: IllposedParams, modes_per_alpha: int) -> FrequencyProfile:
    """Reference torus oracle: both bands on a grid spanning the whole line,
    one full-length transform pair per Simpson sample."""
    dxi = p.alpha / modes_per_alpha
    reach = 4.2 * (p.N + p.alpha)
    n_fft = 1 << int(np.ceil(np.log2(2.0 * reach / dxi)))
    m = np.arange(n_fft) - n_fft // 2
    xi = m * dxi

    # cell-average weights of the band indicator, even in xi
    lo = np.abs(xi) - dxi / 2
    hi = np.abs(xi) + dxi / 2
    overlap = np.clip(np.minimum(hi, p.N + p.alpha) - np.maximum(lo, p.N), 0.0, None)
    coeffs = p.amplitude * overlap / dxi

    window = (xi >= 4 * p.N - dxi / 2) & (xi <= 4 * (p.N + p.alpha) + dxi / 2)
    xi_out = xi[window]

    omega = _SIGMA * _dispersion(xi)
    omega_out = _SIGMA * _dispersion(xi_out)
    grid = make_grid(n_fft, TWO_PI / dxi)

    p_max = 12.5 * (p.N + p.alpha) ** 2
    n_t = int(np.ceil(1.3 * p_max * p.T / np.pi)) * 2
    ts = np.linspace(0.0, p.T, n_t + 1)
    weights = np.ones(n_t + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (ts[1] - ts[0]) / 3.0

    accum = np.zeros(xi_out.size, dtype=np.complex128)
    for t, wgt in zip(ts, weights):
        evolved = coeffs * np.exp(1j * omega * t)
        what = _forward(grid, _inverse(grid, evolved) ** 4)
        accum += wgt * np.exp(-1j * omega_out * t) * what[window]

    vhat = 6.0 * 1j * xi_out * np.exp(1j * omega_out * p.T) * accum
    return FrequencyProfile(xi_out, vhat, dxi)


class TestTimeKernel:
    def test_zero_phase_gives_T(self):
        assert _time_kernel(np.array([0.0]), 2.5)[0] == pytest.approx(2.5)

    def test_series_matches_exact_at_crossover(self):
        T = 1.0
        for q in (0.9e-6, 1.1e-6):
            val = _time_kernel(np.array([q]), T)[0]
            exact = (np.exp(1j * T * q) - 1.0) / (1j * q)
            assert val == pytest.approx(exact, rel=1e-9)

    def test_exact_value_moderate_phase(self):
        q, T = 3.0, 0.7
        val = _time_kernel(np.array([q]), T)[0]
        # direct Riemann check of int_0^T e^{i s q} ds
        s = np.linspace(0.0, T, 20001)
        ref = np.trapezoid(np.exp(1j * s * q), s)
        assert val == pytest.approx(ref, rel=1e-8)

    def test_magnitude_bounded_by_two_over_q(self):
        q = np.array([50.0, 500.0, 5000.0])
        vals = np.abs(_time_kernel(q, 1.0))
        assert np.all(vals <= 2.0 / q + 1e-15)


class TestConvolutionPower:
    def test_support_and_positivity(self):
        alpha = 0.5
        prof = fiber_measure(alpha, 64)
        inside = (prof.xi > 0) & (prof.xi < 4 * alpha)
        assert np.all(prof.values[inside] > 0)
        assert np.all(np.abs(prof.values[~inside]) <= 1e-12 * alpha ** 3)

    def test_center_value(self):
        alpha = 0.5
        prof = fiber_measure(alpha, 128)
        center = prof.values[np.argmin(np.abs(prof.xi - 2 * alpha))]
        assert center == pytest.approx((2.0 / 3.0) * alpha ** 3, rel=0.02)

    def test_knot_values(self):
        alpha = 0.5
        prof = fiber_measure(alpha, 128)
        for knot in (alpha, 3 * alpha):
            v = prof.values[np.argmin(np.abs(prof.xi - knot))]
            assert v == pytest.approx(alpha ** 3 / 6.0, rel=0.02)

    def test_total_mass_exact(self):
        alpha = 0.37
        prof = fiber_measure(alpha, 64)
        mass = prof.values.sum() * (alpha / 64)
        assert mass == pytest.approx(alpha ** 4, rel=1e-10)

    @pytest.mark.parametrize("call, match", [
        (lambda: FrequencyProfile(np.zeros(3), np.zeros(4), 1.0), "same shape"),
        # 16.5 cells of width alpha/16.5 would sum 17 of them
        (lambda: IllposedParams(N=64.0, s=0.2, theta=0.2, T=1.0, freq_resolution=16.5),
         r"freq_resolution must be an integer >= 16, got 16\.5"),
    ], ids=["profile-shape", "freq-resolution-not-integer"])
    def test_guards_reject_bad_input(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    def test_matches_quadrature_oracle(self):
        # the closed form alpha^3 B(xi / alpha), B the cubic B-spline
        alpha = 0.5
        prof = fiber_measure(alpha, 128)
        targets = np.array([0.7, 1.0, 1.3]) * alpha
        closed = alpha ** 3 * _cubic_bspline(targets / alpha)
        for t, ref in zip(targets, closed):
            v = prof.values[np.argmin(np.abs(prof.xi - t))]
            assert v == pytest.approx(ref, rel=0.02)

    @pytest.mark.parametrize("R", [3, 5])
    @pytest.mark.parametrize("chirped", [False, True], ids=["ones", "chirp"])
    def test_moments_match_brute_force_sum(self, R, chirped):
        # node k: h^3 times the sum over every index 4-tuple i with sum k of
        # (sum_j y_{i_j}^2)^m prod_j f(y_{i_j})
        h = 0.3
        y = (np.arange(R) + 0.5) * h
        f = np.exp(-1.7j * y ** 2) if chirped else np.ones(R)
        idx = np.indices((R,) * 4).reshape(4, -1)
        S, weight = np.sum(y[idx] ** 2, axis=0), np.prod(f[idx], axis=0) * h ** 3
        moments = _fiber_moments(f, y ** 2, 4, h)
        assert len(moments) == 4
        for m, moment in enumerate(moments):
            brute = np.zeros(4 * R - 3, dtype=complex)
            np.add.at(brute, idx.sum(axis=0), S ** m * weight)
            np.testing.assert_allclose(moment, brute, rtol=1e-13, atol=0)


@pytest.fixture(scope="module")
def cheap_params():
    return IllposedParams(N=16.0, **CHEAP)


class TestComputeV:

    def test_profile_on_top_band(self, cheap_params):
        details = illposed_v_details(cheap_params)
        profile, band_norm = details["band"], details["band_norm"]
        p = cheap_params
        assert np.all(profile.xi >= 4 * p.N)
        assert np.all(profile.xi <= 4 * (p.N + p.alpha))
        assert band_norm > 0

    def test_midband_nonvanishing(self, cheap_params):
        # every window value, the edge ones too: the fiber measure is 0 only
        # at the support ends, half a window spacing outside the first and
        # last midpoints
        profile = illposed_v_details(cheap_params)["band"]
        assert np.all(np.abs(profile.values) > 0)

    def test_support_audit_mass_in_bands(self, cheap_params):
        # the interaction set is empty off [4N, 4N + 4 alpha], so on a window
        # widened by 2 alpha each side the reference quadrature and the fast
        # band must give exact zeros
        p = cheap_params
        M = p.freq_resolution
        h = p.alpha / M
        xi0 = _band_window(p)[0][0] + np.arange(-2 * M, 6 * M) * h
        inside = (xi0 >= 4 * p.N) & (xi0 <= 4 * (p.N + p.alpha))
        assert inside.sum() == 4 * M
        for band in (_compute_on, _band_4n):
            prof = band(p, xi0)
            mass = (1.0 + xi0 ** 2) ** p.s * np.abs(prof.values) ** 2 * h
            assert np.sum(mass[~inside]) == 0.0, band.__name__
            assert np.sum(mass[inside]) > 0.0, band.__name__

    def test_refinement_check_passes_default_tol(self, cheap_params):
        details = illposed_v_details(cheap_params)
        assert details["refinement_disagreement"] <= 0.05

    def test_refinement_check_can_fail(self, cheap_params, monkeypatch):
        monkeypatch.setattr(illposed, "_REFINEMENT_TOL", 1e-9)
        with pytest.raises(QuadratureError):
            illposed_v_details(cheap_params)


    @pytest.mark.parametrize("nan_at", [dict(refine=2 * illposed._FINE),
                                        dict(terms=illposed._SERIES_TERMS + 1)])
    def test_nan_disagreement_fails(self, cheap_params, monkeypatch, nan_at):
        # whichever refinement turns nan, the check must not read it as agreement
        band_4n = illposed._band_4n

        def nan_band(p, xi0, **kwargs):
            band = band_4n(p, xi0, **kwargs)
            if kwargs == nan_at:
                return FrequencyProfile(band.xi, band.values * np.nan, band.spacing)
            return band

        monkeypatch.setattr(illposed, "_band_4n", nan_band)
        with pytest.raises(QuadratureError, match="nan"):
            illposed_v_details(cheap_params)


@pytest.fixture(scope="module")
def direct_4m(cheap_params):
    """The fast band and the direct quadrature at M_inner = 4M, on the band
    window and at the frequencies oracle_agreement reads, from one
    reference call."""
    p = cheap_params
    read = []

    def spy(p, xi0, **kwargs):
        read.append(xi0)
        return _band_4n(p, xi0, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(illposed, "_band_4n", spy)
        oracle_agreement(p)
    sets = {"window": _band_window(p)[0], "oracle": read[0]}
    direct = _compute_on(p, np.concatenate(list(sets.values())), 4 * p.freq_resolution)
    parts = np.split(direct.values, [sets["window"].size])
    return {name: (_band_4n(p, xi0).values, ref)
            for (name, xi0), ref in zip(sets.items(), parts)}


class TestSeparableBand:
    """The fast 4N path against the direct 3-fold quadrature."""

    def test_matches_direct_quadrature_pointwise(self, direct_4m):
        fast, direct = direct_4m["window"]
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) <= 1e-5 * scale

    def test_matches_direct_quadrature_at_oracle_frequencies(self, direct_4m):
        # off the convolution nodes both quadratures err by about 1.3e-5 of
        # max: the reference moves as much from M_inner = 4M to 8M
        fast, direct = direct_4m["oracle"]
        assert fast.size == 32  # the comb's 16 modes per alpha across 2 alpha
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) <= 2e-5 * scale

    @pytest.mark.parametrize("N", [16.0, 64.0])
    def test_series_truncation_within_bound(self, N):
        # the dropped terms are of relative size (S / c)^2 <= (alpha^2 / 3 N^2)^2
        p = IllposedParams(N=N, **CHEAP)
        xi0 = _band_window(p)[0]
        two, three = (_band_4n(p, xi0, terms=k).hs_norm(p.s) for k in (2, 3))
        assert abs(two - three) <= (p.alpha ** 2 / (3.0 * p.N ** 2)) ** 2 * three

    def test_rejects_divergent_series(self):
        with pytest.raises(ValueError, match="diverges"):
            _band_4n(IllposedParams(N=0.25, **CHEAP), np.array([1.0]))


class TestKernelBracket:
    def test_fiber_measure_matches_oracle(self):
        # the discrete 4-fold convolution converges to the closed form like h^2
        alpha = 0.5
        prof = fiber_measure(alpha, 4096)
        targets = np.array([0.7, 1.0, 2.0, 3.3]) * alpha
        idx = [np.argmin(np.abs(prof.xi - t)) for t in targets]
        assert alpha ** 3 * _cubic_bspline(prof.xi[idx] / alpha) == pytest.approx(
            prof.values[idx], rel=1e-6
        )

    def test_band_norm_inside_bracket(self, cheap_params):
        band_norm = illposed_v_details(cheap_params)["band_norm"]
        bracket = kernel_bracket_4n(cheap_params)
        assert abs(band_norm - bracket["model"]) <= bracket["remainder"]

    def test_resonant_kernel_lands_outside(self, cheap_params):
        p = cheap_params
        resonant = _compute_on(p, _band_window(p)[0],
                               kernel=lambda q, T: np.full(q.shape, T, complex))
        band_norm = resonant.hs_norm(p.s)
        bracket = kernel_bracket_4n(cheap_params)
        assert band_norm == pytest.approx(bracket["resonant"], rel=1e-2)
        assert band_norm > bracket["model"] + bracket["remainder"]


class TestTorusOracle:
    @pytest.mark.parametrize(
        "N, modes_per_alpha",
        [
            # window starts one mode below the 4-fold sums
            (16.0, 16),
            # comb nearly aligned with N: window and sums coincide
            (8.0, 8),
            # tightest grid, n = 4(J - 1) + 4, window two modes past the sums
            (9.0, 15),
        ],
    )
    def test_matches_full_line_reference(self, N, modes_per_alpha):
        p = IllposedParams(N=N, s=0.2, theta=0.2, T=1.0)
        fast = torus_duhamel_oracle(p, modes_per_alpha)
        ref = _full_line_oracle(p, modes_per_alpha)
        np.testing.assert_array_equal(fast.xi, ref.xi)
        assert fast.spacing == ref.spacing
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(fast.values - ref.values)) <= 1e-12 * scale

    def test_agreement_small_instance(self):
        p = IllposedParams(N=16.0, s=0.2, theta=0.2, T=1.0,
                           freq_resolution=32)
        assert oracle_agreement(p) <= 0.05

    def test_requires_enough_modes(self):
        p = IllposedParams(N=16.0, **CHEAP)
        with pytest.raises(ValueError):
            torus_duhamel_oracle(p, modes_per_alpha=4)

    @pytest.mark.parametrize("modes", [16.5, np.int64(8)], ids=["float", "numpy-int"])
    def test_modes_per_alpha_is_an_integer(self, modes):
        p = IllposedParams(N=16.0, **CHEAP)
        if isinstance(modes, float):
            with pytest.raises(ValueError, match="modes_per_alpha must be an integer"):
                torus_duhamel_oracle(p, modes_per_alpha=modes)
        else:
            prof, ref = torus_duhamel_oracle(p, modes), torus_duhamel_oracle(p, 8)
            assert np.array_equal(prof.xi, ref.xi) and np.array_equal(prof.values, ref.values)

    def test_oracle_window_covers_top_band(self):
        p = IllposedParams(N=16.0, **CHEAP)
        prof = torus_duhamel_oracle(p, modes_per_alpha=8)
        assert prof.xi[0] <= 4 * p.N + prof.spacing
        assert prof.xi[-1] >= 4 * (p.N + p.alpha) - prof.spacing


class TestGrowthFit:
    LADDER = [8.0, 16.0, 32.0, 64.0, 128.0]

    def test_requires_geometric_ladder(self):
        with pytest.raises(ValueError, match="geometric"):
            illposed_growth_fit(0.2, 0.2, 1.0, [8.0, 16.0, 32.0, 64.0, 100.0],
                                freq_resolution=16)

    def test_equal_rungs_rejected_before_any_rung(self, monkeypatch):
        # ratio 1 is geometric too, but the fit on one log N is singular
        def no_rung(p):
            raise AssertionError("a rung ran before N_list was checked")

        monkeypatch.setattr(illposed, "illposed_v_details", no_rung)
        with pytest.raises(ValueError, match="N_list .* ratio above 1"):
            illposed_growth_fit(0.2, 0.2, 1.0, [64.0] * 5, freq_resolution=16)

    def test_requires_five_points(self):
        with pytest.raises(ValueError, match="5"):
            illposed_growth_fit(0.2, 0.2, 1.0, [8.0, 16.0, 32.0],
                                freq_resolution=16)

    def test_report_fields_and_determinism(self):
        rep = illposed_growth_fit(0.2, 0.2, 1.0, self.LADDER,
                                  freq_resolution=16)
        again = illposed_growth_fit(0.2, 0.2, 1.0, self.LADDER,
                                    freq_resolution=16)
        assert rep.slope == again.slope
        assert rep.ci > 0
        assert len(rep.points) == 5
        for pt in rep.points:
            assert pt["band_norm"] > 0
            assert pt["refinement_disagreement"] <= 0.05
        assert rep.inputs["predicted_exponent"] == pytest.approx(0.1)

    def test_theta_sensitivity_of_slope(self):
        lo = illposed_growth_fit(0.2, 0.1, 1.0, self.LADDER,
                                 freq_resolution=16)
        hi = illposed_growth_fit(0.2, 0.3, 1.0, self.LADDER,
                                 freq_resolution=16)
        # the -3 theta / 2 term in the exponent: slopes differ by 3 dtheta/2
        assert lo.slope - hi.slope == pytest.approx(0.3, abs=0.1)

    def test_band_norms_and_slope_pinned(self):
        # the window midpoints are convolution nodes, so the interpolation in
        # eta reads the node values up to eta's rounding
        rep = illposed_growth_fit(0.2, 0.2, 1.0, self.LADDER, freq_resolution=16)
        norms = [pt["band_norm"] for pt in rep.points]
        assert norms == pytest.approx([
            7.735269512126944e-05, 2.1108391077884976e-05, 5.2348838344295805e-06,
            1.5334864748429084e-06, 4.118051922071505e-07], rel=1e-12, abs=0.0)
        assert rep.slope == pytest.approx(-1.8889620727523864, rel=1e-12, abs=0.0)

    def test_slope_is_clean_power_law(self):
        rep = illposed_growth_fit(0.2, 0.2, 1.0, self.LADDER,
                                  freq_resolution=16)
        assert rep.ci < 0.05
