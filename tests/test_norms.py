"""Norm quadratures, admissibility predicate, and the twelve-entry audit."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbolab.norms import (
    AdmissibleTriplet,
    MixedNormSpec,
    SpaceTimeField,
    is_one_admissible,
    lemma_triplets,
    minimal_power,
    mixed_norm,
    norm_family_audit,
    sobolev_norm,
    write_audit_csv,
    xst_components,
    xst_norm,
)
from gbolab.spectral import (
    field_from_values,
    fractional_derivative,
    free_evolve,
    lowpass_P0,
    make_grid,
)

GRID = make_grid(256, 2 * np.pi)


def constant_field(value, n_times=9, T=1.0, grid=GRID):
    times = np.linspace(0.0, T, n_times)
    slices = np.full((n_times, grid.n), value, dtype=float)
    return SpaceTimeField(grid, times, slices)


# --- mixed norms -------------------------------------------------------------


def test_constant_l2x_l4t():
    u = constant_field(1.0)
    got = mixed_norm(u, MixedNormSpec(p=2.0, q=4.0, order="x_outer"))
    assert abs(got - np.sqrt(2 * np.pi)) < 1e-12


def test_separable_factorization():
    times = np.linspace(0.0, 1.0, 2001)
    g = np.cos(GRID.x) + 0.3
    h = 1.0 + 0.5 * np.sin(2 * np.pi * times)
    u = SpaceTimeField(GRID, times, np.outer(h, g))
    for p, q in [(2.0, 4.0), (3.0, 2.0)]:
        for order in ("x_outer", "t_outer"):
            got = mixed_norm(u, MixedNormSpec(p=p, q=q, order=order))
            gp = (np.sum(np.abs(g) ** p) * GRID.dx) ** (1 / p)
            hq = np.trapezoid(np.abs(h) ** q, times) ** (1 / q)
            assert abs(got - gp * hq) < 1e-6 * gp * hq


def test_cos_l2x_linf_t():
    times = np.linspace(0.0, 1.0, 9)
    slices = np.tile(np.cos(GRID.x), (9, 1))
    u = SpaceTimeField(GRID, times, slices)
    got = mixed_norm(u, MixedNormSpec(p=2.0, q=np.inf, order="x_outer"))
    assert abs(got - np.sqrt(np.pi)) < 1e-12


def test_orderings_agree_for_equal_exponents():
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 33)
    u = SpaceTimeField(GRID, times, rng.normal(size=(33, GRID.n)))
    for p in (2.0, 4.0):
        a = mixed_norm(u, MixedNormSpec(p=p, q=p, order="x_outer"))
        b = mixed_norm(u, MixedNormSpec(p=p, q=p, order="t_outer"))
        assert abs(a - b) < 1e-10 * a


@given(st.floats(min_value=-5, max_value=5))
@settings(max_examples=20, deadline=None)
def test_mixed_norm_homogeneity(c):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 17)
    base = rng.normal(size=(17, GRID.n))
    u = SpaceTimeField(GRID, times, base)
    cu = SpaceTimeField(GRID, times, c * base)
    spec = MixedNormSpec(p=4.0, q=2.0, order="t_outer")
    assert mixed_norm(cu, spec) == pytest.approx(abs(c) * mixed_norm(u, spec), abs=1e-12)


def test_mixed_norm_monotone():
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 1.0, 17)
    small = rng.normal(size=(17, GRID.n))
    big = small * (1.0 + rng.uniform(size=small.shape))
    spec = MixedNormSpec(p=3.0, q=5.0)
    assert mixed_norm(SpaceTimeField(GRID, times, big), spec) >= mixed_norm(
        SpaceTimeField(GRID, times, small), spec
    )


def test_spacetime_field_validation():
    with pytest.raises(ValueError):
        SpaceTimeField(GRID, np.array([]), np.zeros((0, GRID.n)))
    with pytest.raises(ValueError):
        SpaceTimeField(GRID, np.array([0.0, 0.0]), np.zeros((2, GRID.n)))
    with pytest.raises(ValueError):
        MixedNormSpec(p=0.5, q=2.0)
    with pytest.raises(ValueError):
        MixedNormSpec(p=2.0, q=2.0, order="sideways")


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
    assert sobolev_norm(f, s, homogeneous=True) == pytest.approx(2 ** s * l2, rel=1e-12)


def test_sobolev_nondecreasing_in_s():
    rng = np.random.default_rng(4)
    f = field_from_values(GRID, rng.normal(size=GRID.n))
    values = [sobolev_norm(f, s) for s in (-0.5, 0.0, 0.3, 0.7, 1.5)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_homogeneous_negative_s_requires_mean_zero():
    f = field_from_values(GRID, 1.0 + np.cos(GRID.x))
    with pytest.raises(ValueError):
        sobolev_norm(f, -0.3, homogeneous=True)


# --- solution-space norm -----------------------------------------------------


def test_xst_zero():
    u = constant_field(0.0)
    assert xst_norm(u, 0.3) == 0.0


def test_xst_components_sum_to_total():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.5, 9)
    slices = rng.normal(size=(9, GRID.n))
    u = SpaceTimeField(GRID, times, slices)
    c = xst_components(u, 0.3)
    assert xst_norm(u, 0.3) == pytest.approx(
        c.sup_sobolev + c.smoothing + c.maximal + c.low_frequency, rel=1e-12
    )


def xst_reference(u, s):
    """The four pieces slice by slice through the public Field operators."""
    fields = [u.slice_field(i) for i in range(u.n_times)]

    def stacked(op):
        return SpaceTimeField(u.grid, u.times, np.stack([op(f).values for f in fields]))

    def mean_free(f):
        return field_from_values(f.grid, f.values - f.mean())

    def maximal(f):
        return fractional_derivative(mean_free(f) if s < 0.25 else f, s - 0.25)

    return [
        max(sobolev_norm(f, s) for f in fields),
        mixed_norm(stacked(lambda f: fractional_derivative(f, s + 0.5)),
                   MixedNormSpec(p=np.inf, q=2.0, order="x_outer")),
        mixed_norm(stacked(maximal), MixedNormSpec(p=4.0, q=np.inf, order="x_outer")),
        mixed_norm(stacked(lowpass_P0), MixedNormSpec(p=2.0, q=np.inf, order="x_outer")),
    ]


@pytest.mark.parametrize("s", [0.2, 0.25, 0.3])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_xst_components_match_per_slice_reference(s, kind):
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 0.5, 9)
    slices = 1.0 + rng.normal(size=(9, GRID.n))  # nonzero means
    if kind == "complex":
        slices = slices + 1j * rng.normal(size=(9, GRID.n))
    u = SpaceTimeField(GRID, times, slices)
    c = xst_components(u, s)
    got = [c.sup_sobolev, c.smoothing, c.maximal, c.low_frequency]
    np.testing.assert_allclose(got, xst_reference(u, s), rtol=1e-12, atol=0.0)


def test_xst_rejects_bad_s():
    u = constant_field(1.0)
    for s in (0.0, 0.5, -0.2, 0.9):
        with pytest.raises(ValueError):
            xst_norm(u, s)


def test_xst_finite_on_free_evolution():
    seed_field = field_from_values(GRID, np.exp(-GRID.x ** 2) * np.cos(3 * GRID.x))
    times = np.linspace(0.0, 0.25, 9)
    slices = np.stack([free_evolve(seed_field, t).values for t in times])
    u = SpaceTimeField(GRID, times, slices)
    total = xst_norm(u, 0.25)
    assert np.isfinite(total) and total > 0


# --- admissibility predicate -------------------------------------------------


def test_named_admissible_triplets():
    assert is_one_admissible(AdmissibleTriplet(0.5, np.inf, 2.0))
    assert is_one_admissible(AdmissibleTriplet(0.0, 6.0, 6.0))
    assert is_one_admissible(AdmissibleTriplet(-0.25, 4.0, np.inf))
    assert not is_one_admissible(AdmissibleTriplet(0.0, 3.0, 6.0))


def test_boundary_family_passes_and_alpha_perturbation_fails():
    for p in (4.0, 5.0, 8.0, 16.0, 100.0):
        q = np.inf if p == 4.0 else 1.0 / (0.5 - 2.0 / p)
        alpha = 1.0 / p + (0.0 if np.isinf(q) else 2.0 / q) - 0.5
        assert is_one_admissible(AdmissibleTriplet(alpha, p, q))
        assert not is_one_admissible(AdmissibleTriplet(alpha + 1e-6, p, q))
        assert not is_one_admissible(AdmissibleTriplet(alpha - 1e-6, p, q))


def test_interior_condition_violation_fails():
    # q too small relative to p: 2/p + 1/q > 1/2
    assert not is_one_admissible(AdmissibleTriplet(0.0, 4.0, 3.0))
    # infinite p is only allowed in the endpoint case
    assert not is_one_admissible(AdmissibleTriplet(0.3, np.inf, 4.0))


def test_lemma_triplets_admissible():
    for s in (0.05, 0.2, 0.35, 0.45):
        for t in lemma_triplets(s):
            assert is_one_admissible(t), (s, t)


# --- norm-family audit -------------------------------------------------------


def audit_map(s, k, eps, **kw):
    return {e.id: verdict for e, verdict in norm_family_audit(s, k, eps, **kw)}


def test_audit_all_pass_at_reference_point():
    for eps in (0.01, 0.001):
        verdicts = audit_map(0.45, 12, eps)
        assert len(verdicts) == 12
        assert all(verdicts.values()), verdicts


def test_audit_n9_threshold():
    assert not audit_map(0.40, 12, 0.001)["N9"]
    assert audit_map(0.43, 12, 0.001)["N9"]


def test_audit_n9_sweep():
    # fails everywhere below the threshold, passes everywhere above
    for s in np.arange(0.30, 5.0 / 12 - 1e-3 + 1e-9, 0.01):
        assert not audit_map(float(s), 12, 0.001)["N9"], s
    for s in np.arange(5.0 / 12 + 1e-2, 0.495, 0.01):
        assert audit_map(float(s), 12, 0.001)["N9"], s


def test_audit_flags():
    audit = norm_family_audit(0.45, 12, 0.001)
    flags = {e.id: e.t_power_flag for e, _ in audit}
    assert flags == {
        "N1": False, "N2": True, "N3": True, "N4": True, "N5": True,
        "N6": True, "N7": True, "N8": True, "N9": False, "N10": False,
        "N11": False, "N12": False,
    }


def test_audit_triplet_alpha_consistency():
    # every reported triplet must satisfy the alpha-match identity exactly
    for e, verdict in norm_family_audit(0.45, 12, 0.001):
        if not verdict:
            continue
        for t in e.triplets:
            inv = lambda r: 0.0 if np.isinf(r) else 1.0 / r
            assert abs(t.alpha - (inv(t.p) + 2 * inv(t.q) - 0.5)) < 1e-12, e.id


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
    with pytest.raises(ValueError):
        norm_family_audit(0.45, 12, -0.1)


def test_minimal_power_is_twelve():
    assert minimal_power() == 12


def test_audit_csv(tmp_path):
    path = tmp_path / "audit.csv"
    audit = norm_family_audit(0.45, 12, 0.001)
    write_audit_csv(audit, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["id"] for r in rows} == {f"N{i}" for i in range(1, 13)}
    assert all(r["verdict"] == "PASS" for r in rows)
    assert all(r["alpha_matches"] == "PASS" for r in rows)
    by_id = {r["id"]: r for r in rows}
    assert by_id["N10"]["alpha"] == "0"
    assert by_id["N1"]["q"] == "inf"
