"""End-to-end acceptance checks.

Each test exercises one headline capability at production scale, prints a
single PASS/FAIL line (collected into the terminal scoreboard by the
conftest hook), and enforces a wall-clock budget.  Tolerances are asserted
exactly as stated in the line, so a red test here is a real defect, not a
flaky margin.

The frequency-growth slope checks (7a/7b) compare the fitted slope with
the exponent the 4N band can show: the fit's predicted exponent
1 - 3s - 3 theta/2 takes the time kernel to be of size T, but on this band
it is of order N^-2.  Each rung's band norm must also lie inside the
analytic bracket of kernel_bracket_4n, whose slope range excludes the
predicted exponent.  The paper's rate is therefore not reproduced by this
construction; the fit's own verdict, printed on the line, stays FAIL.
"""

import time

import numpy as np
import pytest

from gbolab.experiments import (
    IllposedParams,
    estimate_ladder,
    illposed_growth_fit,
    kernel_bracket_4n,
    ladder_drift,
    oracle_agreement,
    plane_wave_growth_exponent,
)
from gbolab.experiments.illposed import _cubic_bspline
from gbolab.gauge import bilinear_G_direct, bilinear_G_projected, gauge_equation_residual
from gbolab.norms import minimal_power, norm_family_audit
from gbolab.solver import SolverConfig, duhamel_residual, evolve
from gbolab.spectral import (
    field_from_coeffs,
    field_from_values,
    free_evolve,
    hilbert,
    lowpass_P0,
    lp_block,
    make_grid,
    project_half_line,
    spectral_derivative,
    tilde_projection,
)

from conftest import (commutation_defect, fiber_measure, field_mean, homogeneous_norm, rescale,
                      subsample)


def band_limited(grid, seed, max_mode=None):
    rng = np.random.default_rng(seed)
    n = grid.n
    if max_mode is None:
        max_mode = n // 4
    coeffs = np.zeros(n, dtype=np.complex128)
    dc = n // 2
    for m in range(1, max_mode + 1):
        c = rng.normal() + 1j * rng.normal()
        coeffs[dc + m] = c
        coeffs[dc - m] = np.conj(c)
    coeffs[dc] = rng.normal()
    return field_from_coeffs(grid, coeffs)


def gaussian(grid, amplitude, width=1.0):
    return field_from_values(
        grid, amplitude * np.exp(-(grid.x ** 2) / (2.0 * width ** 2))
    )


def stamp(log, tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    log(line)
    print(line)
    assert ok, line


# --- 1: linear operator identities ------------------------------------------------


def test_operator_identities(acceptance_log):
    t0 = time.monotonic()
    grid = make_grid(1024, 2 * np.pi)
    jmax = int(np.ceil(np.log2(grid.xi_max))) + 1
    worst = 0.0
    for seed in range(100):
        f = band_limited(grid, seed)
        scale = np.max(np.abs(f.values))

        # iH = P_plus - P_minus on every mode (both sides kill the mean).
        lhs = 1j * hilbert(f).coeffs
        rhs = (
            project_half_line(f, "plus").coeffs
            - project_half_line(f, "minus").coeffs
        )
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)

        # H o H = -Id away from the mean.
        g = field_from_values(grid, f.values - field_mean(f))
        hh = hilbert(hilbert(g))
        worst = max(worst, np.max(np.abs(hh.values + g.values)) / scale)

        # Dyadic blocks plus the lowpass piece resum to the identity.
        total = lowpass_P0(f).values.copy()
        for j in range(-2, jmax + 1):
            total += lp_block(f, j).values
        worst = max(worst, np.max(np.abs(total - f.values)) / scale)

        # Smooth three-way split.
        t = tilde_projection(f)
        split = (
            project_half_line(t, "minus").values
            + lowpass_P0(f).values
            + project_half_line(t, "plus").values
        )
        worst = max(worst, np.max(np.abs(split - f.values)) / scale)

        # Free propagator: isometry and the one-parameter group law.  Dyadic
        # times keep every phase argument m^2 * t exactly representable, so
        # the check measures the group property and not float addition.
        worst = max(
            worst, abs(free_evolve(f, 0.37).l2_norm() - f.l2_norm()) / f.l2_norm()
        )
        one = free_evolve(f, 0.375)
        two = free_evolve(free_evolve(f, 0.125), 0.25)
        worst = max(worst, np.max(np.abs(two.values - one.values)) / scale)

    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    stamp(
        acceptance_log,
        "1 operator identities",
        ok,
        f"worst relative error {worst:.2e} (tol 1e-12) over 100 fields at "
        f"n=1024; {elapsed:.1f}s (budget 10s)",
    )


# --- 2: bilinear gauge kernel ------------------------------------------------------


def test_bilinear_kernel_identities(acceptance_log):
    t0 = time.monotonic()
    grid = make_grid(1024, 2 * np.pi)
    worst_pair = 0.0
    worst_phys = 0.0
    nz = grid.frequencies != 0
    for seed in range(100):
        f = band_limited(grid, 1000 + seed, grid.n // 4 - 2)
        g = band_limited(grid, 2000 + seed, grid.n // 4 - 2)

        a = bilinear_G_direct(f, g)
        b = bilinear_G_projected(f, g)
        scale = max(np.max(np.abs(a.coeffs)), 1e-30)
        worst_pair = max(worst_pair, np.max(np.abs(a.coeffs - b.coeffs)) / scale)

        # G(f, f) = Dx^{-1}(f_x H f_x), dc excluded on both sides.
        fx = spectral_derivative(f)
        prod = field_from_values(grid, np.real(fx.values * hilbert(fx).values))
        expected = np.zeros(grid.n, dtype=np.complex128)
        expected[nz] = prod.coeffs[nz] / (1j * grid.frequencies[nz])
        got = bilinear_G_direct(f, f).coeffs
        scale = max(np.max(np.abs(expected)), 1e-30)
        worst_phys = max(worst_phys, np.max(np.abs(got - expected)) / scale)

    small = make_grid(256, 2 * np.pi)
    c = field_from_values(small, np.cos(small.x))
    cos_gap = np.max(
        np.abs(bilinear_G_direct(c, c).values.real - 0.25 * np.cos(2 * small.x))
    )

    elapsed = time.monotonic() - t0
    ok = (
        worst_pair <= 1e-10
        and worst_phys <= 1e-10
        and cos_gap <= 1e-12
        and elapsed < 30.0
    )
    stamp(
        acceptance_log,
        "2 bilinear kernel",
        ok,
        f"direct vs projected {worst_pair:.2e} (tol 1e-10), physical-space "
        f"identity {worst_phys:.2e} (tol 1e-10), cosine case {cos_gap:.2e} "
        f"(tol 1e-12); {elapsed:.1f}s (budget 30s)",
    )


# --- 3: norm family and the admissibility threshold --------------------------------


def test_norm_family_threshold(acceptance_log):
    t0 = time.monotonic()
    audit = norm_family_audit(0.45, 12, 1e-3)
    all_pass = all(ok for _, ok in audit)
    n_entries = len(audit)

    def n9(s):
        table = {entry.id: ok for entry, ok in norm_family_audit(s, 12, 1e-3)}
        return table["N9"]

    below = np.linspace(0.30, 5.0 / 12.0 - 1e-3, 12)
    above = np.linspace(5.0 / 12.0 + 1e-2, 0.49, 12)
    fails_below = not any(n9(s) for s in below)
    passes_above = all(n9(s) for s in above)
    k_min = minimal_power()

    elapsed = time.monotonic() - t0
    ok = (
        all_pass
        and n_entries == 12
        and fails_below
        and passes_above
        and k_min == 12
        and elapsed < 1.0
    )
    stamp(
        acceptance_log,
        "3 norm family",
        ok,
        f"{n_entries}/12 entries pass at (s=0.45, k=12); N9 fails below and "
        f"passes above the critical index; minimal admissible power "
        f"{k_min}; {elapsed:.2f}s (budget 1s)",
    )


# --- 4: scaling symmetry -----------------------------------------------------------


def test_scaling_symmetry(acceptance_log):
    # Amplitude 0.7 puts the flow far from linear, so the commutation defect
    # sees the flux's degree: with the power k in place of k + 1 it is 1.9e-5.
    t0 = time.monotonic()
    grid = make_grid(256, 40.0)
    u0 = gaussian(grid, 0.7)
    cfg = SolverConfig(k=12, flow="rescaled", dt=5e-4, t_end=0.05)
    lam, critical = 2.0, 0.5 - 1.0 / cfg.k
    scaled = rescale(u0, lam, cfg.k)
    ratios = {s: homogeneous_norm(scaled, s) / homogeneous_norm(u0, s)
              for s in (0.3, critical, 0.49)}
    worst_gap = max(abs(r - lam ** (s + 1.0 / cfg.k - 0.5)) for s, r in ratios.items())
    critical_exact = ratios[critical] == 1.0
    worst_flow = commutation_defect(u0, lam, cfg)

    elapsed = time.monotonic() - t0
    ok = (
        worst_gap <= 1e-10
        and critical_exact
        and worst_flow <= 1e-6
        and elapsed < 120.0
    )
    stamp(
        acceptance_log,
        "4 scaling symmetry",
        ok,
        f"norm-law gap {worst_gap:.2e} (tol 1e-10), critical ratio exactly 1: "
        f"{critical_exact}, flow commutation defect {worst_flow:.2e} "
        f"(tol 1e-6); {elapsed:.1f}s (budget 120s)",
    )


# --- 5: gauged evolution residual --------------------------------------------------


def test_gauge_residual_ladder(acceptance_log):
    t0 = time.monotonic()
    grid = make_grid(2048, 60.0)
    u0 = gaussian(grid, 0.75)
    cfg = SolverConfig(k=12, flow="rescaled", dt=4e-5, t_end=0.16, slice_stride=125)
    traj = evolve(u0, cfg)
    norms = gauge_equation_residual(traj, [4, 2, 1])
    r1 = norms[0] / norms[1]
    r2 = norms[1] / norms[2]

    elapsed = time.monotonic() - t0
    ok = r1 >= 8.0 and r2 >= 8.0 and norms[2] <= 1e-4 and elapsed < 60.0
    stamp(
        acceptance_log,
        "5 gauged residual",
        ok,
        f"residuals {norms[0]:.2e}/{norms[1]:.2e}/{norms[2]:.2e} under slice "
        f"halving, ratios {r1:.1f} and {r2:.1f} (need >= 8), finest "
        f"{norms[2]:.2e} (tol 1e-4); {elapsed:.1f}s (budget 60s)",
    )


# --- 6: integral-form residual -----------------------------------------------------


def test_duhamel_residual_order(acceptance_log):
    t0 = time.monotonic()
    grid = make_grid(512, 40.0)
    u0 = field_from_values(
        grid, 1.1 * np.exp(-(grid.x ** 2) / 2.0) * np.cos(2.5 * grid.x)
    )
    cfg = SolverConfig(k=12, flow="rescaled", dt=1e-4, t_end=0.0512, slice_stride=8)
    traj = evolve(u0, cfg)
    resid = [duhamel_residual(subsample(traj, every)) for every in (4, 2, 1)]
    orders = [float(np.log2(resid[i] / resid[i + 1])) for i in range(2)]

    elapsed = time.monotonic() - t0
    ok = all(o >= 2.0 for o in orders) and resid[-1] <= 1e-6 and elapsed < 120.0
    stamp(
        acceptance_log,
        "6 integral-form residual",
        ok,
        f"residuals {resid[0]:.2e}/{resid[1]:.2e}/{resid[2]:.2e}, observed "
        f"orders {orders[0]:.1f} and {orders[1]:.1f} (need >= 2), finest "
        f"{resid[2]:.2e} (tol 1e-6); {elapsed:.1f}s (budget 120s)",
    )


# --- 7: frequency-growth experiment ------------------------------------------------


LADDER = [64.0, 128.0, 256.0, 512.0, 1024.0]
GROWTH_BUDGET = 60.0

# Growth exponent the exact time kernel adds on the 4N band, where it is
# of order 1/(12 N^2) (derivation in kernel_bracket_4n).
KERNEL_EXPONENT_4N = -2.0


@pytest.fixture(scope="module")
def growth_data():
    """Four ladder fits plus the independent oracle, computed once."""
    t0 = time.monotonic()
    fits = {
        (0.2, 0.2): illposed_growth_fit(0.2, 0.2, 1.0, LADDER),
        (0.1, 0.2): illposed_growth_fit(0.1, 0.2, 1.0, LADDER),
        (0.2, 0.1): illposed_growth_fit(0.2, 0.1, 1.0, LADDER),
        (0.2, 0.3): illposed_growth_fit(0.2, 0.3, 1.0, LADDER),
    }
    oracle_gap = oracle_agreement(
        IllposedParams(N=64.0, s=0.2, theta=0.2, T=1.0, freq_resolution=32)
    )
    return {"fits": fits, "oracle": oracle_gap, "elapsed": time.monotonic() - t0}


def _ols_slope_range(N, lo, hi):
    """Least and greatest least-squares slope of log y on log N when each
    y_i may be anywhere in [lo_i, hi_i]."""
    x = np.log(N)
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    lo, hi = np.log(lo), np.log(hi)
    least = np.sum(np.where(w > 0, w * lo, w * hi))
    greatest = np.sum(np.where(w > 0, w * hi, w * lo))
    return least, greatest


def _slope_check(log, tag, report):
    inputs = report.inputs
    predicted = inputs["predicted_exponent"]
    derived = predicted + KERNEL_EXPONENT_4N
    N = np.array([pt["N"] for pt in report.points])
    norms = np.array([pt["band_norm"] for pt in report.points])
    brackets = [
        kernel_bracket_4n(
            IllposedParams(N=n, s=inputs["s"], theta=inputs["theta"], T=inputs["T"],
                           freq_resolution=inputs["freq_resolution"])
        )
        for n in N
    ]
    model = np.array([b["model"] for b in brackets])
    remainder = np.array([b["remainder"] for b in brackets])
    resonant = np.array([b["resonant"] for b in brackets])
    worst = np.max(np.abs(norms - model) / remainder)
    lo, hi = _ols_slope_range(N, model - remainder, model + remainder)
    resonant_slope = np.polyfit(np.log(N), np.log(resonant), 1)[0]
    gap = abs(report.slope - derived)
    ok = worst <= 1.0 and gap <= 0.1 and not lo - 0.1 <= predicted <= hi + 0.1
    stamp(
        log,
        tag,
        ok,
        f"measured slope {report.slope:.3f} vs derived {derived:.2f} "
        f"(tol 0.1, ci {report.ci:.3f}); band norms off the kernel model by "
        f"at most {worst:.1e} of the remainder bound (tol 1), so slopes in "
        f"[{lo:.2f}, {hi:.2f}], which must exclude the paper's exponent "
        f"{predicted:.2f} (resonant-kernel slope {resonant_slope:.2f}); fit "
        f"verdict against the paper's exponent {report.verdict}",
    )


def test_growth_slope_s02(acceptance_log, growth_data):
    _slope_check(acceptance_log, "7a growth slope s=0.2", growth_data["fits"][(0.2, 0.2)])


def test_growth_slope_s01(acceptance_log, growth_data):
    _slope_check(acceptance_log, "7b growth slope s=0.1", growth_data["fits"][(0.1, 0.2)])


def test_growth_theta_sensitivity(acceptance_log, growth_data):
    lo = growth_data["fits"][(0.2, 0.1)]
    hi = growth_data["fits"][(0.2, 0.3)]
    diff = lo.slope - hi.slope
    ok = abs(diff - 0.3) <= 0.1
    stamp(
        acceptance_log,
        "7c growth theta sensitivity",
        ok,
        f"slope(theta=0.1) - slope(theta=0.3) = {diff:.3f} vs 0.30 (tol 0.1)",
    )


def test_growth_torus_oracle(acceptance_log, growth_data):
    gap = growth_data["oracle"]
    ok = gap <= 0.05
    stamp(
        acceptance_log,
        "7d growth torus oracle",
        ok,
        f"worst mid-band disagreement of the fit's band with the independent "
        f"torus construction at N=64: {100 * gap:.2f}% (tol 5%)",
    )


def test_growth_data_norm_stability(acceptance_log, growth_data):
    norms = [p["data_norm"] for p in growth_data["fits"][(0.2, 0.2)].points]
    drift = max(norms) / min(norms) - 1.0
    elapsed = growth_data["elapsed"]
    ok = drift <= 0.05 and elapsed < GROWTH_BUDGET
    stamp(
        acceptance_log,
        "7e growth data-norm stability",
        ok,
        f"data-norm drift across the N ladder {100 * drift:.2f}% (tol 5%); "
        f"whole growth suite {elapsed:.0f}s (budget {GROWTH_BUDGET:.0f}s)",
    )


# --- 8: linear estimate ratios -----------------------------------------------------


def test_smoothing_ratio_ladders(acceptance_log):
    t0 = time.monotonic()
    grid = make_grid(512, 40.0)
    drifts = {
        "kato": ladder_drift(estimate_ladder("kato", 8, grid, 0.1, seed=0, rungs=3)),
        "maximal": ladder_drift(estimate_ladder("maximal", 8, grid, 0.1, seed=1, rungs=3)),
        "lowfreq": ladder_drift(estimate_ladder("lowfreq", 8, make_grid(512, 32.0), 0.5,
                                                seed=2, rungs=3)),
    }
    worst = max(drifts.values())

    exponent, _ = plane_wave_growth_exponent(grid, 0.25, [8, 16, 32, 64])

    elapsed = time.monotonic() - t0
    ok = worst < 2.0 and abs(exponent - 0.5) <= 0.05 and elapsed < 10.0
    stamp(
        acceptance_log,
        "8 estimate ratios",
        ok,
        f"sup-ratio drift across a 4x resolution ladder: "
        + ", ".join(f"{k} {v:.3f}" for k, v in drifts.items())
        + f" (need < 2); plane-wave exponent {exponent:.3f} (0.5 +- 0.05); "
        f"{elapsed:.1f}s (budget 10s)",
    )


# --- 9: quartic self-convolution ---------------------------------------------------


def test_convolution_profile(acceptance_log):
    t0 = time.monotonic()
    alpha = 0.5
    prof = fiber_measure(alpha, 256)
    targets = np.array([alpha, 2 * alpha, 3 * alpha])
    closed = alpha ** 3 * _cubic_bspline(targets / alpha)
    gaps = []
    for target, ref in zip(targets, closed):
        v = prof.values[np.argmin(np.abs(prof.xi - target))]
        gaps.append(abs(v - ref) / ref)
    mass = prof.values.sum() * (alpha / 256)
    mass_gap = abs(mass - alpha ** 4) / alpha ** 4

    elapsed = time.monotonic() - t0
    ok = max(gaps) <= 0.02 and mass_gap <= 1e-10 and elapsed < 5.0
    stamp(
        acceptance_log,
        "9 quartic convolution",
        ok,
        f"knot/center/knot gaps vs the closed form "
        + "/".join(f"{100 * g:.2f}%" for g in gaps)
        + f" (tol 2%), total mass off by {mass_gap:.1e} (tol 1e-10); "
        f"{elapsed:.1f}s (budget 5s)",
    )
