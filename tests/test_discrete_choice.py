"""Closed-form and simulated demand, inversion, and structural residuals."""
import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equisub import demand
from equisub import normalization as nz
from equisub import solver
from equisub.demand import (
    XI_TOL,
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
from equisub.errors import DegenerateUtility, DimensionMismatch, GNotInvertible
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_shares_are_rejected(bad):
    # NaN compares false both ways, so only a check that every share is
    # positive catches it; at the sum it would read as in tolerance
    s = np.array([0.5, 0.5, bad])
    with pytest.raises(DimensionMismatch):
        invert_logit(s)
    for model in (logit_model(3), logit_mc_model(3, R=2000, seed=1)):
        with pytest.raises(DimensionMismatch):
            invert_demand(model, s, nz.mean(), 0.0)


@pytest.mark.parametrize(
    "model", [logit_model(3), logit_mc_model(3, R=1000, seed=0)], ids=["closed-form", "simulated"]
)
def test_share_maps_reject_qualities_of_the_wrong_length(model):
    # a length-1 delta broadcasts against the draws or the closed form
    for delta in (np.array([5.0]), np.zeros(4), 0.0):
        with pytest.raises(DimensionMismatch):
            demand.shares(model, delta)
    if model.draws is not None:
        with pytest.raises(DimensionMismatch):
            demand_mc(model, np.array([5.0]))


@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (1000, 3), (3, 1)])
def test_simulated_shares_reject_qualities_that_are_not_one_vector(shape):
    # a (1, Z) or (R, Z) delta would broadcast against the (R, Z) draws
    model = logit_mc_model(3, R=1000, seed=0)
    delta = np.zeros(shape)
    with pytest.raises(DimensionMismatch):
        demand_mc(model, delta)
    with pytest.raises(DimensionMismatch):
        demand.shares(model, delta)


# ----------------------------------------------------------------------
# simulated shares


def argmax_shares(model, delta):
    """Reference simulated shares: numpy's row argmax over row-major draws."""
    D = np.ascontiguousarray(model.draws)
    picks = np.argmax(delta[None, :] + D, axis=1)
    return np.bincount(picks, minlength=model.dim) / D.shape[0]


def simulated_models(Z):
    rng = np.random.default_rng(Z)
    return [
        logit_mc_model(Z, R=1000, seed=Z),
        rc_logit_model(rng.normal(size=(Z, 2)), np.array([0.5, 1.0]), R=1000, seed=Z),
        pure_characteristics_model(rng.normal(size=Z), R=1000, seed=Z),
        bridge_model(np.linspace(0.0, 1.5, Z), R=1000, seed=Z),
        # one shock shared by every good: every consumer ties at equal delta
        DemandModel(dim=Z, draws=np.repeat(rng.gumbel(size=(1000, 1)), Z, axis=1), label="one-column"),
    ]


@pytest.mark.parametrize("Z", [1, 2, 4, 8])
def test_simulated_shares_equal_the_row_argmax(Z):
    # random qualities, and qualities a sweep places on consumers' switch
    # points, where ties between a good and its best rival are routine
    rng = np.random.default_rng(10 + Z)
    ties = 0
    for model in simulated_models(Z):
        assert model.draws.flags.f_contiguous
        sweep = build_demand_system(model).sweep_solver
        for _ in range(10):
            p = -np.abs(rng.normal(0.0, 0.5, Z)) - 0.5
            swept = sweep(rng.dirichlet(np.full(Z, 3.0)), p, 0)
            swept[0] = p[0]
            for delta in (p, swept, np.zeros(Z)):
                assert np.array_equal(demand_mc(model, delta), argmax_shares(model, delta))
            U = model.draws + swept
            ties += np.count_nonzero(np.count_nonzero(U == U.max(axis=1)[:, None], axis=1) > 1)
    assert Z == 1 or ties > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_utilities_are_degenerate(bad):
    model = logit_mc_model(3, R=500, seed=0)
    with pytest.raises(DegenerateUtility):
        demand_mc(model, np.array([0.0, bad, 0.5]))
    draws = model.draws.copy()
    draws[17, 2] = bad
    with pytest.raises(DegenerateUtility):
        demand_mc(DemandModel(dim=3, draws=draws), np.zeros(3))


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


@pytest.mark.parametrize("shape", [(1000, 1), (1000, 4), (0, 3), (3,), (10, 3, 1)])
def test_model_rejects_draws_that_are_not_one_row_per_consumer(shape):
    # (R, 1) draws would broadcast against three qualities and give every
    # consumer good 0; draws need one column per good and at least one row
    with pytest.raises(DimensionMismatch):
        DemandModel(dim=3, utilities=lambda d, e: d[None, :] + e, draws=np.zeros(shape))


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


def test_invert_demand_starts_the_dichotomy_at_pin_guess():
    # the bracket search on the pinned value starts from pin_guess, so
    # criterion 05's two starts (-3 and 4) search from different points
    s = np.array([0.5, 0.3, 0.2])
    res = invert_demand(logit_model(3), s, nz.mean(), 0.0, pin_guess=4.0)
    lo, hi = res.report.bracket_history[0]
    assert lo <= 4.0 <= hi
    assert np.max(np.abs(res.delta - invert_logit(s, K=-np.mean(np.log(s / s[0]))))) <= 1e-8


def test_share_map_model_inverts_by_bisection():
    # a share map passed as closed_form (how a simulator that is not
    # additive in delta is given) gets the generic bisection sweep, with no
    # batch and no translation shortcut
    model = DemandModel(dim=3, closed_form=lambda d: demand_logit(2.0 * d))
    system = build_demand_system(model)
    assert system.sweep_solver is None
    assert system.eval_batch is None
    assert not system.translation_invariant
    s = np.array([0.5, 0.3, 0.2])
    res = invert_demand(model, s, nz.coordinate(0), 0.0)
    assert np.max(np.abs(res.delta - invert_logit(s) / 2.0)) <= 1e-12


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


def test_invert_bridge_mean_psi_round_trip(monkeypatch):
    # mean psi starts from pin 0, the bridge's bound: there a sweep root
    # leaves the box delta < 0, and the pin search walks down from it
    R = 2000
    model = bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=R, seed=5)
    delta0 = np.array([-2.0, -1.4, -1.0, -0.7])
    s = demand_mc(model, delta0)
    pins = []
    pinned = solver.solve_pinned

    def counted(system, q, pin, pin_value, *args, **kwargs):
        pins.append(pin_value)
        return pinned(system, q, pin, pin_value, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_pinned", counted)
    res = invert_demand(model, s, nz.mean(), delta0.mean())
    # simulated shares are multiples of 1/R: count the draws the fit misses
    assert np.rint(np.max(np.abs(res.shares - s)) * R) <= 10
    assert abs(res.delta.mean() - delta0.mean()) <= 10.0 / R
    # the walks pass pins 0, -1 and -3 more than once: each is judged once
    assert len(pins) == len(set(pins))


def test_invert_bridge_mean_psi_shifts_inside_its_box():
    # divided by exp(-eps), the bridge's utilities are additive in delta, so
    # the dichotomy's pins shift one solution while the shift stays below 0.
    # Solving every pin stalls here: near the answer psi jumps across K
    # between the least pinned solution and a larger warm-started one
    R = 2000
    model = bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=R, seed=12)
    delta0 = np.array([-1.97351799, -1.43889606, -1.01746496, -0.72742756])
    s = demand_mc(model, delta0)
    res = invert_demand(model, s, nz.mean(), delta0.mean())
    assert res.report.outer_solves <= 4
    assert np.rint(np.max(np.abs(res.shares - s)) * R) <= 10
    assert abs(res.delta.mean() - delta0.mean()) <= 10.0 / R


def test_bridge_draws_pick_the_structural_argmax():
    # each consumer's utilities divided by exp(-eps) > 0: the draws are
    # additive choice parts that pick the same route for every consumer as
    # the structural utilities at the model's own shocks
    R, seed = 2000, 5
    model = bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=R, seed=seed)
    eps = np.repeat(np.random.default_rng(seed).normal(size=R)[:, None], 4, axis=1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        delta = rng.uniform(-3.0, 0.0, 4)
        picks = np.argmax(model.utilities(delta, eps), axis=1)
        assert np.array_equal(np.argmax(delta[None, :] + model.draws, axis=1), picks)


@pytest.mark.parametrize(
    "model, center",
    [
        (logit_mc_model(4, R=2000, seed=3), [-2.0, -1.4, -1.0, -0.7]),
        (
            rc_logit_model(np.array([[0.5, 1.0], [1.0, -0.5], [-1.0, 0.2], [0.3, 0.3]]), np.array([0.5, 1.0]), R=2000, seed=4),
            [-2.0, -1.4, -1.0, -0.7],
        ),
        (bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=2000, seed=5), [-2.0, -1.4, -1.0, -0.7]),
        (logit_mc_model(2, R=2000, seed=7), [-1.4, -1.0]),
        (
            rc_logit_model(np.random.default_rng(8).normal(size=(8, 2)), np.array([0.5, 1.0]), R=2000, seed=8),
            np.linspace(-2.0, -0.7, 8),
        ),
    ],
    ids=["logit-mc", "rc-logit", "bridge", "logit-mc-Z2", "rc-logit-Z8"],
)
def test_mc_sweep_equals_per_good_order_statistic(model, center):
    # reference: for each good alone, the switch points of every consumer
    # against its best rival, and the order statistic that lifts the
    # simulated share to the target
    system = build_demand_system(model)
    D = model.draws
    R, Z = D.shape
    lo_in = model.bounds.lower + BOUND_MARGIN
    hi_in = model.bounds.upper - BOUND_MARGIN
    # negative qualities near the bridge's tested range, where every route
    # keeps some consumers; a switch point at or above 0 leaves the bridge's
    # range, so both sides are compared clipped into the box
    center = np.asarray(center)
    rng = np.random.default_rng(6)

    def check_sweep(q, p, pin):
        got = np.clip(system.sweep_solver(q, p, pin), lo_in, hi_in)
        for z in range(Z):
            if z == pin:
                continue
            U = p[None, :] + D
            U[:, z] = -np.inf
            t_r = np.sort(U.max(axis=1) - D[:, z])
            k = int(np.ceil(q[z] * R - 1e-9))
            assert got[z] == np.clip(t_r[k - 1], lo_in[z], hi_in[z])
        return got

    checked = 0
    for _ in range(10):
        p = np.minimum(center + rng.normal(0.0, 0.5, Z), -0.05)
        q = demand_mc(model, np.minimum(center + rng.normal(0.0, 0.05, Z), -0.05))
        if np.any(q == 0):
            continue
        checked += 1
        pin = int(rng.integers(Z))
        # the next sweep starts from this one's roots, which sit on
        # consumers' switch points
        roots = check_sweep(q, p, pin)
        roots[pin] = p[pin]
        check_sweep(q, roots, pin)
    assert checked >= 3


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["logit-mc", "rc-logit"]),
    Z=st.sampled_from([4, 8]),
)
@settings(max_examples=20, deadline=None)
def test_additive_simulated_mean_psi_inverts_by_shifts(seed, family, Z):
    # additive simulated models are translation-invariant: mean psi takes at
    # most two pinned solves and still reproduces the planted shares
    R = 2000
    rng = np.random.default_rng(seed)
    if family == "logit-mc":
        model = logit_mc_model(Z, R=R, seed=seed % 1000)
    else:
        model = rc_logit_model(rng.normal(size=(Z, 2)), np.array([0.5, 1.0]), R=R, seed=seed % 1000)
    delta0 = rng.normal(0.0, 0.25, Z)
    s = demand_mc(model, delta0)
    assume(np.all(s > 0))  # a good no draw picks has no finite quality
    K = float(np.mean(delta0))
    res = invert_demand(model, s, nz.mean(), K)
    assert res.report.outer_solves <= 2
    # whole draws: shares are counts over R
    assert np.max(np.abs(np.rint(res.shares * R) - np.rint(s * R))) <= 10
    assert abs(res.report.normalization_value - K) <= 10.0 / R


def test_invert_single_good_returns_the_level():
    # one good has no free coordinate: the sweep must leave the pin alone
    for model in (logit_model(1), logit_mc_model(1, R=100, seed=0)):
        res = invert_demand(model, np.array([1.0]), nz.coordinate(0), 0.3)
        assert res.delta.tolist() == [0.3]


def test_single_good_envelope_is_empty_and_evaluates_nothing(monkeypatch):
    # Z = 1 leaves the envelope's block empty: no batch and no share call
    def refuse(*args):
        raise AssertionError("share map evaluated")

    monkeypatch.setattr(demand, "demand_logit", functools.wraps(demand_logit)(refuse))
    monkeypatch.setattr(demand, "shares", refuse)
    for model in (logit_model(1), logit_mc_model(1, R=100, seed=0)):
        (env,) = build_demand_system(model).subsolution_hints.envelopes
        assert env(np.array([0.3])).shape == (0,)


@pytest.mark.parametrize("psi", ["mean", "coordinate"])
def test_invert_two_goods_round_trip(psi):
    # the smallest non-empty block of free goods
    delta0 = np.array([0.4, -0.9])
    norm, K = (nz.mean(), float(delta0.mean())) if psi == "mean" else (nz.coordinate(0), 0.4)
    res = invert_demand(logit_model(2), demand_logit(delta0), norm, K)
    assert np.max(np.abs(res.delta - delta0)) <= 1e-8


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
    gfam = GFamily(g=lambda t, x2, th: t + t**3 - th[0] * x2)
    theta = np.array([0.8])
    rng = np.random.default_rng(6)
    t0 = rng.normal(size=5)
    x1 = rng.normal(size=5)
    x2 = rng.normal(size=5)
    delta = t0 + t0**3 - theta[0] * x2
    xi = residual_xi(delta, x1, x2, gfam, theta)
    assert np.allclose(xi, t0 - x1, atol=1e-9)


def test_residual_xi_numeric_inverse_counts_and_accuracy():
    # the linear link without its inverse: Newton lands on each root, so a
    # call costs a short walk, a few Newton steps and the two certifying
    # evaluations, and the answer matches the exact inverse to rounding
    rng = np.random.default_rng(0)
    Z = 40
    x2 = rng.uniform(0.5, 2.0, Z)
    x1 = rng.normal(0.0, 0.5, Z)
    xi0 = rng.normal(0.0, 0.1, Z)
    delta = x1 + xi0 - 1.5 * x2
    calls = [0]

    def g(t, x2, th):
        calls[0] += 1
        return t - th[0] * x2

    for th in (0.0, 1.5, 3.0):
        theta = np.array([th])
        calls[0] = 0
        xi = residual_xi(delta, x1, x2, GFamily(g=g), theta)
        assert calls[0] <= 24
        exact = residual_xi(delta, x1, x2, linear_g(), theta)
        assert np.max(np.abs(xi - exact)) <= 1e-14


@pytest.mark.parametrize(
    "g, t0",
    [
        # zero slope at the planted root t = 0 (x2 = 0 there, so delta = 0)
        (lambda t, x2, th: t**3 - th[0] * x2, np.array([0.0, 0.5, -0.8, 1.3, -2.0])),
        # a kink at t = 0.3, planted on it and on both sides
        (
            lambda t, x2, th: t + 50.0 * np.maximum(t - 0.3, 0.0) - th[0] * x2,
            np.array([0.3, 0.29, 0.31, -0.4, 1.7]),
        ),
        # a near-step: slope 1e-6 away from the step, 40 at it
        (
            lambda t, x2, th: np.tanh(40.0 * t) + 1e-6 * t - th[0] * x2,
            np.array([0.0, 0.01, -0.02, 0.04, -0.05]),
        ),
    ],
    ids=["cubic", "kinked", "tanh-step"],
)
def test_residual_xi_bisects_where_newton_cannot_land(g, t0):
    rng = np.random.default_rng(3)
    theta = np.array([0.7])
    x2 = np.where(t0 == 0.0, 0.0, rng.uniform(0.5, 2.0, t0.size))
    delta = g(t0, x2, theta)
    xi = residual_xi(delta, np.zeros_like(t0), x2, GFamily(g=g), theta)
    assert np.all(np.abs(xi - t0) <= 0.5 * XI_TOL * np.maximum(1.0, np.abs(t0)))


def test_residual_xi_bounded_link_not_invertible():
    gfam = GFamily(g=lambda t, x2, th: np.tanh(t))
    delta = np.array([0.1, 1.5, -0.2])
    with pytest.raises(GNotInvertible, match="no bracket for data point 1"):
        residual_xi(delta, np.zeros(3), np.zeros(3), gfam, np.zeros(1))
