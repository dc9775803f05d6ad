"""Norm quadratures, admissibility predicate, and the twelve-entry audit."""

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbolab.experiments import free_evolution_spacetime, plane_wave
from gbolab.norms import (
    _BLOCK_BYTES,
    _PIECES,
    AdmissibleTriplet,
    SpaceTimeField,
    is_one_admissible,
    lemma_triplets,
    minimal_power,
    mixed_norm,
    norm_family_audit,
    sobolev_norm,
    xst_components,
)
from gbolab.spectral import (
    field_from_values,
    fractional_derivative,
    free_evolve,
    lowpass_P0,
    make_grid,
)

from conftest import field_mean, homogeneous_norm

GRID = make_grid(256, 2 * np.pi)
# 4 real or 2 complex rows a block: 17 rows span five or nine row blocks,
# the last one partial
WIDE = make_grid(4096, 2 * np.pi)
WIDE_ROWS = 3 * (_BLOCK_BYTES // (8 * WIDE.n)) + 5


def constant_field(value, n_times=9, T=1.0, grid=GRID):
    times = np.linspace(0.0, T, n_times)
    slices = np.full((n_times, grid.n), value, dtype=float)
    return SpaceTimeField(grid, times, slices)


# --- mixed norms -------------------------------------------------------------


def test_constant_l2x_l4t():
    u = constant_field(1.0)
    got = mixed_norm(u, 2.0, 4.0)
    assert abs(got - np.sqrt(2 * np.pi)) < 1e-12


def test_separable_factorization():
    times = np.linspace(0.0, 1.0, 2001)
    g = np.cos(GRID.x) + 0.3
    h = 1.0 + 0.5 * np.sin(2 * np.pi * times)
    u = SpaceTimeField(GRID, times, np.outer(h, g))
    for p, q in [(2.0, 4.0), (3.0, 2.0)]:
        got = mixed_norm(u, p, q)
        gp = (np.sum(np.abs(g) ** p) * GRID.dx) ** (1 / p)
        hq = np.trapezoid(np.abs(h) ** q, times) ** (1 / q)
        assert abs(got - gp * hq) < 1e-6 * gp * hq


def test_cos_l2x_linf_t():
    times = np.linspace(0.0, 1.0, 9)
    slices = np.tile(np.cos(GRID.x), (9, 1))
    u = SpaceTimeField(GRID, times, slices)
    got = mixed_norm(u, 2.0, np.inf)
    assert abs(got - np.sqrt(np.pi)) < 1e-12


def test_orderings_agree_for_equal_exponents():
    # with p = q the nesting is immaterial: L^p_x L^p_t = L^p_t L^p_x
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 33)
    u = SpaceTimeField(GRID, times, rng.normal(size=(33, GRID.n)))
    for p in (2.0, 4.0):
        space = np.sum(np.abs(u.slices) ** p, axis=-1) * GRID.dx
        t_outer = np.trapezoid(space, times) ** (1 / p)
        assert abs(mixed_norm(u, p, p) - t_outer) < 1e-10 * t_outer


# the id names the nesting: L^p_x L^q_t, space outermost; a "blocks" stack
# spans four row blocks, the last one partial, and its time step grows
# tenfold across the first block edge
@pytest.mark.parametrize("q, blocks", [
    pytest.param(2.0, False, id="x_outer-2.0"),
    pytest.param(3.0, False, id="x_outer-3.0"),
    pytest.param(4.0, False, id="x_outer-4.0"),
    pytest.param(3.0, True, id="x_outer-3.0-blocks"),
    pytest.param(np.inf, True, id="x_outer-inf-blocks"),
])
def test_weighted_time_sum_matches_trapezoid_on_nonuniform_times(q, blocks):
    rng = np.random.default_rng(13)
    per_block = _BLOCK_BYTES // (16 * GRID.n)  # complex rows
    n_times = 3 * per_block + 5 if blocks else 41
    steps = rng.uniform(0.01, 0.2, size=n_times)
    if blocks:
        steps[per_block:] *= 10.0
    times = np.cumsum(steps)
    slices = rng.normal(size=(n_times, GRID.n)) + 1j * rng.normal(size=(n_times, GRID.n))
    got = mixed_norm(SpaceTimeField(GRID, times, slices), 3.0, q)
    if np.isinf(q):
        lp_time = np.max(np.abs(slices), axis=0)
    else:
        lp_time = np.trapezoid(np.abs(slices) ** q, times, axis=0) ** (1 / q)
    want = (np.sum(lp_time ** 3.0) * GRID.dx) ** (1 / 3.0)
    assert got == pytest.approx(want, rel=1e-13)


@given(st.floats(min_value=-5, max_value=5))
@settings(max_examples=20, deadline=None)
def test_mixed_norm_homogeneity(c):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 17)
    base = rng.normal(size=(17, GRID.n))
    u = SpaceTimeField(GRID, times, base)
    cu = SpaceTimeField(GRID, times, c * base)
    assert mixed_norm(cu, 4.0, 2.0) == pytest.approx(abs(c) * mixed_norm(u, 4.0, 2.0),
                                                     abs=1e-12)


def test_mixed_norm_monotone():
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 1.0, 17)
    small = rng.normal(size=(17, GRID.n))
    big = small * (1.0 + rng.uniform(size=small.shape))
    assert mixed_norm(SpaceTimeField(GRID, times, big), 3.0, 5.0) >= mixed_norm(
        SpaceTimeField(GRID, times, small), 3.0, 5.0
    )


def test_spacetime_field_validation():
    with pytest.raises(ValueError):
        SpaceTimeField(GRID, np.array([]), np.zeros((0, GRID.n)))
    with pytest.raises(ValueError):
        SpaceTimeField(GRID, np.array([0.0, 0.0]), np.zeros((2, GRID.n)))
    u = constant_field(1.0)
    with pytest.raises(ValueError):
        mixed_norm(u, 0.5, 2.0)
    with pytest.raises(ValueError):
        mixed_norm(u, 2.0, np.nan)


@pytest.mark.parametrize("call, match", [
    (lambda: SpaceTimeField(GRID, np.array([0.0, 1.0]), np.zeros((3, GRID.n))),
     r"slices shape \(3, 256\) does not match \(2, 256\)"),
    (lambda: mixed_norm(constant_field(1.0, n_times=1), 2.0, 4.0),
     "finite time exponent needs at least two time samples"),
    (lambda: norm_family_audit(0.45, 12.5, 1e-3),
     r"k must be an integer >= 2 for the norm family, got 12\.5"),
], ids=["slices-shape", "one-sample-finite-q", "audit-power-not-integer"])
def test_spacetime_guards(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# --- Sobolev norms -----------------------------------------------------------


def test_sobolev_zero_field():
    f = field_from_values(GRID, np.zeros(GRID.n))
    assert sobolev_norm(f, 0.7) == 0.0


def test_sobolev_s0_is_l2():
    f = field_from_values(GRID, np.exp(2j * GRID.x))
    assert abs(sobolev_norm(f, 0.0) - f.l2_norm()) < 1e-12


def test_sobolev_single_mode_weights():
    f = field_from_values(GRID, np.exp(2j * GRID.x))
    l2 = f.l2_norm()
    s = 0.35
    assert sobolev_norm(f, s) == pytest.approx((1 + 4) ** (s / 2) * l2, rel=1e-12)
    assert homogeneous_norm(f, s) == pytest.approx(2 ** s * l2, rel=1e-12)


def test_sobolev_nondecreasing_in_s():
    rng = np.random.default_rng(4)
    f = field_from_values(GRID, rng.normal(size=GRID.n))
    values = [sobolev_norm(f, s) for s in (-0.5, 0.0, 0.3, 0.7, 1.5)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# --- solution-space norm -----------------------------------------------------


def test_xst_zero():
    u = constant_field(0.0)
    assert xst_components(u, 0.3).total == 0.0


def test_xst_components_sum_to_total():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.5, 9)
    slices = rng.normal(size=(9, GRID.n))
    u = SpaceTimeField(GRID, times, slices)
    c = xst_components(u, 0.3)
    assert c.total == pytest.approx(
        c.sup_sobolev + c.smoothing + c.maximal + c.low_frequency, rel=1e-12
    )


def xst_reference(u, s):
    """The four pieces slice by slice through the public Field operators."""
    fields = [field_from_values(u.grid, u.slices[i]) for i in range(u.n_times)]

    def stacked(op):
        return SpaceTimeField(u.grid, u.times, np.stack([op(f).values for f in fields]))

    def mean_free(f):
        return field_from_values(f.grid, f.values - field_mean(f))

    def maximal(f):
        return fractional_derivative(mean_free(f) if s < 0.25 else f, s - 0.25)

    return [
        max(sobolev_norm(f, s) for f in fields),
        mixed_norm(stacked(lambda f: fractional_derivative(f, s + 0.5)), np.inf, 2.0),
        mixed_norm(stacked(maximal), 4.0, np.inf),
        mixed_norm(stacked(lowpass_P0), 2.0, np.inf),
    ]


# a "free" kind streams V(t)phi from its half spectra; the reference reads
# the same rows as a stored stack
@pytest.mark.parametrize("s", [0.2, 0.25, 0.3])
@pytest.mark.parametrize("kind", ["real", "complex", "real_blocks", "complex_blocks",
                                  "free_real", "free_complex", "free_complex_blocks"])
def test_xst_components_match_per_slice_reference(s, kind):
    rng = np.random.default_rng(11)
    grid, n_times = (WIDE, WIDE_ROWS) if kind.endswith("blocks") else (GRID, 9)
    times = np.linspace(0.0, 0.5, n_times)
    slices = 1.0 + rng.normal(size=(n_times, grid.n))  # nonzero means
    if "complex" in kind:
        slices = slices + 1j * rng.normal(size=(n_times, grid.n))
    u = SpaceTimeField(grid, times, slices)
    if kind == "free_complex":
        u = free_evolution_spacetime(plane_wave(grid, 5), 0.5, n_times - 1)
    elif kind.startswith("free"):
        u = free_evolution_spacetime(field_from_values(grid, slices[0]), 0.5, n_times - 1)
    c = xst_components(u, s)
    got = [c.sup_sobolev, c.smoothing, c.maximal, c.low_frequency]
    stored = SpaceTimeField(grid, u.times, u.slices)
    np.testing.assert_allclose(got, xst_reference(stored, s), rtol=1e-12, atol=0.0)


# a free evolution streams its row blocks from its half spectra (real rows
# a block, also for complex phi); its stored stack is read in the stack's own
@pytest.mark.parametrize("p, q", [(p, q) for _, p, q in _PIECES] + [(4.0, 2.0)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_mixed_norm_streamed_matches_stored(kind, p, q):
    rng = np.random.default_rng(17)
    values = rng.normal(size=WIDE.n)
    if kind == "complex":
        values = values + 1j * rng.normal(size=WIDE.n)
    u = free_evolution_spacetime(field_from_values(WIDE, values), 0.5, WIDE_ROWS - 1)
    assert WIDE_ROWS % (_BLOCK_BYTES // (8 * WIDE.n)) != 0
    stored = SpaceTimeField(WIDE, u.times, u.slices)
    assert mixed_norm(u, p, q) == pytest.approx(mixed_norm(stored, p, q), rel=1e-13, abs=0.0)


def test_xst_rejects_bad_s():
    u = constant_field(1.0)
    for s in (0.0, 0.5, -0.2, 0.9):
        with pytest.raises(ValueError):
            xst_components(u, s)


def test_xst_finite_on_free_evolution():
    seed_field = field_from_values(GRID, np.exp(-GRID.x ** 2) * np.cos(3 * GRID.x))
    times = np.linspace(0.0, 0.25, 9)
    slices = np.stack([free_evolve(seed_field, t).values for t in times])
    u = SpaceTimeField(GRID, times, slices)
    total = xst_components(u, 0.25).total
    assert np.isfinite(total) and total > 0


# --- admissibility predicate -------------------------------------------------


def test_named_admissible_triplets():
    # triplets are (alpha, 1/p, 1/q) with 1/inf = 0
    assert is_one_admissible(AdmissibleTriplet(F(1, 2), F(0), F(1, 2)))
    assert is_one_admissible(AdmissibleTriplet(F(0), F(1, 6), F(1, 6)))
    assert is_one_admissible(AdmissibleTriplet(F(-1, 4), F(1, 4), F(0)))
    # p = 3 < 4; its twin is (0, 6, 6) above
    assert not is_one_admissible(AdmissibleTriplet(F(0), F(1, 3), F(1, 6)))


def test_boundary_family_passes_and_alpha_perturbation_fails():
    for p in (4, 5, 8, 16, 100):
        a = F(1, p)
        b = F(1, 2) - 2 * a  # 2/p + 1/q = 1/2; q = inf at p = 4
        alpha = a + 2 * b - F(1, 2)
        assert is_one_admissible(AdmissibleTriplet(alpha, a, b))
        assert not is_one_admissible(AdmissibleTriplet(alpha + F(1, 10**6), a, b))
        assert not is_one_admissible(AdmissibleTriplet(alpha - F(1, 10**6), a, b))


def test_interior_condition_violation_fails():
    # each rule is broken by a triplet with alpha = 1/p + 2/q - 1/2 matched,
    # next to a passing twin that differs only in the exponent that breaks
    # it, then by the older case with alpha unmatched as well.
    # q too small relative to p: 2/p + 1/q > 1/2 at (p, q) = (4, 3), not at (12, 3)
    assert not is_one_admissible(AdmissibleTriplet(F(5, 12), F(1, 4), F(1, 3)))
    assert is_one_admissible(AdmissibleTriplet(F(1, 4), F(1, 12), F(1, 3)))
    assert not is_one_admissible(AdmissibleTriplet(F(0), F(1, 4), F(1, 3)))
    # infinite p is only allowed in the endpoint case: (inf, 4) fails, (8, 4) passes
    assert not is_one_admissible(AdmissibleTriplet(F(0), F(0), F(1, 4)))
    assert is_one_admissible(AdmissibleTriplet(F(1, 8), F(1, 8), F(1, 4)))
    assert not is_one_admissible(AdmissibleTriplet(F(3, 10), F(0), F(1, 4)))
    # a negative q is no exponent: 1/q = -1/8 fails, 1/q = 0 passes (no older case)
    assert not is_one_admissible(AdmissibleTriplet(F(-1, 2), F(1, 4), F(-1, 8)))
    assert is_one_admissible(AdmissibleTriplet(F(-1, 4), F(1, 4), F(0)))


def test_lemma_triplets_admissible():
    for s in (0.05, 0.2, 0.35, 0.45):
        for t in lemma_triplets(s):
            assert is_one_admissible(t), (s, t)


# --- norm-family audit -------------------------------------------------------


def audit_map(s, k, eps):
    return {e.id: verdict for e, verdict in norm_family_audit(s, k, eps)}


def test_audit_accepts_numpy_integer_power():
    assert norm_family_audit(0.45, np.int64(12), 1e-3) == norm_family_audit(0.45, 12, 1e-3)


def test_audit_all_pass_at_reference_point():
    for eps in (0.01, 0.001):
        verdicts = audit_map(0.45, 12, eps)
        assert len(verdicts) == 12
        assert all(verdicts.values()), verdicts


def test_audit_n9_threshold():
    assert not audit_map(0.40, 12, 0.001)["N9"]
    assert audit_map(0.43, 12, 0.001)["N9"]


def test_audit_n9_exact_boundary():
    # N9 is admissible iff s >= 5/12 + eps/2, decided exactly
    eps = 1e-3
    edge = 5.0 / 12 + eps / 2
    assert not audit_map(edge - 1e-13, 12, eps)["N9"]
    assert audit_map(edge + 1e-13, 12, eps)["N9"]


def test_audit_gain_rule_exact_boundary():
    # at k = 4 the derived delta leaves N2 the rule s > s_k = 1/4, decided exactly
    assert not audit_map(0.25, 4, 0.001)["N2"]
    assert audit_map(0.25 + 1e-13, 4, 0.001)["N2"]


@pytest.mark.parametrize("k", [12, 22, 30, 60, 200, 1000])
def test_audit_threshold_is_the_critical_index(k):
    # the paper's well-posedness range s > s_k at every k >= 12: the whole
    # audit passes just above s_k and fails just below it
    sk = 0.5 - 1.0 / k
    assert all(audit_map(sk + 1e-6, k, 1e-9).values())
    assert not all(audit_map(sk - 1e-6, k, 1e-9).values())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_audit_n8_fails_where_no_delta_exists(k):
    # at s = 1/4 N8's time exponent 2s/3 - 1/6 is 0, so no delta > 0 fits
    assert not audit_map(0.25, k, 0.001)["N8"]


@pytest.mark.parametrize("k", [2, 3])
def test_audit_fails_every_s_below_power_four(k):
    for s in np.linspace(0.01, 0.49, 49):
        assert not all(audit_map(float(s), k, 1e-9).values()), s


def test_audit_n11_fails_at_eps_quarter():
    # at eps = 1/4 N11's triplet (-1/4, 1/4, 0) is admissible, so only its side
    # condition eps < 1/4 fails it
    [(entry, verdict)] = [(e, v) for e, v in norm_family_audit(0.45, 12, 0.25)
                          if e.id == "N11"]
    assert is_one_admissible(entry.triplets[0])
    assert not verdict


def test_audit_entries_are_frozen():
    entry, _ = norm_family_audit(0.45, 12, 0.001)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.triplets = ()


def test_audit_n9_sweep():
    # fails everywhere below the threshold, passes everywhere above
    for s in np.arange(0.30, 5.0 / 12 - 1e-3 + 1e-9, 0.01):
        assert not audit_map(float(s), 12, 0.001)["N9"], s
    for s in np.arange(5.0 / 12 + 1e-2, 0.495, 0.01):
        assert audit_map(float(s), 12, 0.001)["N9"], s


def test_audit_triplet_alpha_consistency():
    # every reported triplet must satisfy the alpha-match identity exactly
    for e, verdict in norm_family_audit(0.45, 12, 0.001):
        if not verdict:
            continue
        for t in e.triplets:
            assert t.alpha == t.a + 2 * t.b - F(1, 2), e.id
    last = {e.id: e.triplets[-1] for e, _ in norm_family_audit(0.45, 12, 0.001)}
    assert last["N10"].alpha == 0
    assert last["N1"].b == 0


def test_audit_derivative_orders():
    s, eps = 0.45, 0.001
    orders = {e.id: e.derivative_order for e, _ in norm_family_audit(s, 12, eps)}
    assert orders["N9"] == pytest.approx(1 - 2 * s + 6 * eps)
    assert orders["N10"] == pytest.approx(s)
    assert orders["N11"] == pytest.approx(s + 0.5 - 3 * eps)
    assert orders["N12"] == pytest.approx(0.5)
    assert all(orders[f"N{i}"] == 0.0 for i in range(1, 9))


def test_audit_input_validation():
    with pytest.raises(ValueError):
        norm_family_audit(0.45, 1, 0.001)
    with pytest.raises(ValueError):
        norm_family_audit(0.6, 12, 0.001)
    for eps in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            norm_family_audit(0.45, 12, eps)


def test_minimal_power_is_twelve():
    assert minimal_power() == 12
