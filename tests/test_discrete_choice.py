"""Closed-form and simulated demand, inversion, and structural residuals."""
import numpy as np
import pytest

from equisub import normalization as nz
from equisub.demand import (
    DemandModel,
    GFamily,
    bridge_model,
    build_demand_system,
    check_utility_regularity,
    demand_logit,
    demand_mc,
    invert_demand,
    invert_logit,
    linear_g,
    logit_mc_model,
    logit_model,
    pure_characteristics_model,
    rc_logit_model,
    residual_xi,
)
from equisub.errors import DimensionMismatch
from equisub.solver import BOUND_MARGIN

LN2 = np.log(2.0)


def mc_band(s, R, width=3.0):
    """width-sigma binomial band around simulated shares."""
    return width * np.sqrt(np.maximum(s * (1.0 - s), 1e-12) / R)


# ----------------------------------------------------------------------
# closed-form logit


def test_logit_uniform_at_equal_quality():
    assert np.allclose(demand_logit(np.zeros(4)), 0.25)


def test_logit_known_shares():
    s = demand_logit(np.array([LN2, 0.0, 0.0]))
    assert np.allclose(s, [0.5, 0.25, 0.25], atol=1e-14)


def test_invert_logit_round_trip():
    delta = np.array([0.0, -0.3, 1.2, 0.4])
    s = demand_logit(delta)
    assert np.allclose(invert_logit(s), delta, atol=1e-14)


def test_invert_logit_anchor_and_level():
    s = np.array([0.5, 0.25, 0.25])
    d = invert_logit(s, anchor=1, K=2.0)
    assert d[1] == pytest.approx(2.0)
    assert d[0] == pytest.approx(2.0 + LN2)


def test_invert_logit_rejects_bad_shares():
    with pytest.raises(DimensionMismatch):
        invert_logit(np.array([0.5, 0.4]))  # does not sum to one
    with pytest.raises(DimensionMismatch):
        invert_logit(np.array([1.0, 0.0]))  # zero share


# ----------------------------------------------------------------------
# simulated shares


def test_mc_shares_sum_to_one_and_match_symmetry():
    model = logit_mc_model(3, R=200_000, seed=4)
    s = demand_mc(model, np.zeros(3))
    assert s.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(s - 1.0 / 3.0) <= mc_band(np.full(3, 1.0 / 3.0), 200_000))


def test_mc_logit_matches_closed_form():
    delta = np.array([0.5, 0.0, -0.5])
    model = logit_mc_model(3, R=200_000, seed=9)
    s_mc = demand_mc(model, delta)
    s_cf = demand_logit(delta)
    assert np.all(np.abs(s_mc - s_cf) <= mc_band(s_cf, 200_000))


def test_rc_logit_collapses_to_logit_at_zero_sigma():
    x = np.array([[1.0], [0.0], [-1.0]])
    model = rc_logit_model(x, sigmas=np.zeros(1), R=200_000, seed=2)
    delta = np.array([0.2, 0.0, -0.4])
    s_mc = demand_mc(model, delta)
    s_cf = demand_logit(delta)
    assert np.all(np.abs(s_mc - s_cf) <= mc_band(s_cf, 200_000))


def test_mc_draws_deterministic_in_seed():
    a = demand_mc(logit_mc_model(3, R=10_000, seed=12), np.array([0.1, 0.0, -0.1]))
    b = demand_mc(logit_mc_model(3, R=10_000, seed=12), np.array([0.1, 0.0, -0.1]))
    c = demand_mc(logit_mc_model(3, R=10_000, seed=13), np.array([0.1, 0.0, -0.1]))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ----------------------------------------------------------------------
# inversion


def test_invert_demand_logit_matches_closed_form():
    model = logit_model(4)
    delta0 = np.array([0.0, 0.7, -0.4, 0.2])
    s = demand_logit(delta0)
    res = invert_demand(model, s, nz.coordinate(0), 0.0)
    assert np.max(np.abs(res.delta - invert_logit(s))) <= 1e-8
    assert np.allclose(res.shares, s, atol=1e-8)


def test_invert_simulated_logit_round_trip():
    model = logit_mc_model(3, R=100_000, seed=21)
    delta0 = np.array([0.0, -0.6, 0.5])
    s = demand_mc(model, delta0)
    res = invert_demand(model, s, nz.coordinate(0), 0.0)
    # the simulated share map is exactly invertible at its own output,
    # up to the 1/R resolution of the step functions
    assert np.max(np.abs(res.delta - delta0)) <= 1e-3


def test_invert_bridge_round_trip():
    # tolls rise as congestion sensitivity falls, so every route is chosen
    # by some value-of-time draw
    tolls = np.array([0.0, 0.5, 1.0, 1.5])
    model = bridge_model(tolls, R=100_000, seed=31)
    delta0 = np.array([-2.0, -1.4, -1.0, -0.7])
    s = demand_mc(model, delta0)
    res = invert_demand(model, s, nz.coordinate(0), delta0[0])
    assert np.max(np.abs(res.delta - delta0)) <= 2e-3


@pytest.mark.parametrize(
    "model",
    [
        logit_mc_model(4, R=2000, seed=3),
        rc_logit_model(np.array([[0.5, 1.0], [1.0, -0.5], [-1.0, 0.2], [0.3, 0.3]]), np.array([0.5, 1.0]), R=2000, seed=4),
        bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=2000, seed=5),
    ],
    ids=lambda m: m.label,
)
def test_mc_sweep_equals_per_good_order_statistic(model):
    # reference: for each good alone, the switch points of every consumer
    # against its best rival, and the order statistic that lifts the
    # simulated share to the target
    system = build_demand_system(model)
    C, D = model.affine_parts
    R = C.shape[0]
    lo_in = model.bounds.lower + BOUND_MARGIN
    hi_in = model.bounds.upper - BOUND_MARGIN
    # negative qualities near the bridge's tested range, where every route
    # keeps some consumers; a switch point at or above 0 leaves the bridge's
    # range and is compared after the clip
    center = np.array([-2.0, -1.4, -1.0, -0.7])
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(10):
        p = np.minimum(center + rng.normal(0.0, 0.5, 4), -0.05)
        q = demand_mc(model, np.minimum(center + rng.normal(0.0, 0.05, 4), -0.05))
        if np.any(q == 0):
            continue
        checked += 1
        pin = int(rng.integers(4))
        got = np.clip(system.sweep_solver(q, p, pin), lo_in, hi_in)
        for z in range(4):
            if z == pin:
                continue
            U = p[None, :] * C + D
            U[:, z] = -np.inf
            t_r = np.sort((U.max(axis=1) - D[:, z]) / C[:, z])
            k = int(np.ceil(q[z] * R - 1e-9))
            assert got[z] == np.clip(t_r[k - 1], lo_in[z], hi_in[z])
    assert checked >= 3


def test_invert_single_good_returns_the_level():
    # one good has no free coordinate: the sweep must leave the pin alone
    for model in (logit_model(1), logit_mc_model(1, R=100, seed=0)):
        res = invert_demand(model, np.array([1.0]), nz.coordinate(0), 0.3)
        assert res.delta.tolist() == [0.3]


def test_invert_pure_characteristics_round_trip():
    x = np.array([0.5, 1.0, 2.0])
    model = pure_characteristics_model(x, R=50_000, seed=8)
    delta0 = np.array([0.0, 0.3, -0.5])  # middle good on the upper envelope
    s = demand_mc(model, delta0)
    res = invert_demand(model, s, nz.coordinate(1), delta0[1])
    assert np.max(np.abs(res.delta - delta0)) <= 5e-3


# ----------------------------------------------------------------------
# utility regularity probes


def test_regularity_passes_for_additive_models():
    for model in (
        logit_mc_model(3, R=500, seed=1),
        rc_logit_model(np.array([[1.0], [0.0]]), np.array([0.5]), R=500, seed=1),
    ):
        rep = check_utility_regularity(model)
        assert rep.passed
        assert "bounded_above" in rep.notes


def test_regularity_skips_closed_form():
    rep = check_utility_regularity(logit_model(3))
    assert rep.passed
    assert "skipped" in rep.notes


def test_regularity_flags_bridge_outside_its_range():
    # positive qualities flip the sign of the congestion interaction, so
    # utilities decrease in the shock there
    model = bridge_model(np.array([0.0, 1.0]), R=500, seed=3)
    rep = check_utility_regularity(model, delta_grid=np.array([[0.5, 1.5]]))
    assert not rep.passed
    assert any(v["kind"] == "decreasing_in_shock" for v in rep.violations)


def test_regularity_clean_on_bridge_admissible_range():
    model = bridge_model(np.array([0.0, 1.0]), R=500, seed=3)
    rep = check_utility_regularity(model)
    assert rep.passed


# ----------------------------------------------------------------------
# structural residuals


def test_residual_xi_linear():
    theta = np.array([1.5])
    x1 = np.array([0.2, -0.1, 0.4])
    x2 = np.array([1.0, 2.0, 3.0])
    xi0 = np.array([0.05, -0.02, 0.0])
    delta = x1 + xi0 - theta[0] * x2
    xi = residual_xi(delta, x1, x2, linear_g(), theta)
    assert np.allclose(xi, xi0, atol=1e-12)


def test_residual_xi_numeric_inverse_matches_analytic():
    # cubic link, strictly increasing in the index; no inverse supplied
    gfam = GFamily(g=lambda t, x2, th: t + t**3 - th[0] * x2, label="cubic")
    theta = np.array([0.8])
    rng = np.random.default_rng(6)
    t0 = rng.normal(size=5)
    x1 = rng.normal(size=5)
    x2 = rng.normal(size=5)
    delta = t0 + t0**3 - theta[0] * x2
    xi = residual_xi(delta, x1, x2, gfam, theta)
    assert np.allclose(xi, t0 - x1, atol=1e-9)
