"""Likelihood and moment estimation of matching and demand parameters."""
import tracemalloc

import numpy as np
import pytest

from equisub import normalization as nz
from equisub.demand import demand_logit, linear_g, logit_model
from equisub.errors import OptimizerStalled, SingularWeight, ZeroPredictedCell
from equisub.estimation import (
    ThetaSpec,
    gmm_moments,
    gmm_nested,
    likelihood_gradient,
    log_likelihood,
    mle_nested,
    mpec_residual,
    mpec_solve,
    predicted_frequencies,
    solve_multiplier,
    tu_surplus_spec,
)
from equisub.matching import MarketPrimitives, solve_mfe
from equisub.solver import SolverOptions

DIAG = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # single diagonal-surplus direction
ONES2 = np.ones((2,))


def nested_loglik(spec, theta, mu_hat, norm, K, opts=SolverOptions()):
    Pi, _ = predicted_frequencies(
        spec, theta, mu_hat.sum(axis=1), mu_hat.sum(axis=0), norm, K, opts
    )
    return log_likelihood(mu_hat, Pi)


# ----------------------------------------------------------------------
# predicted frequencies and likelihood values


def test_predicted_frequencies_symmetric():
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    Pi, eq = predicted_frequencies(spec, np.zeros(1), ONES2, ONES2, nz.mean(), 0.0)
    assert np.allclose(Pi, 0.25, atol=1e-8)
    assert Pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_predicted_frequencies_single_cell():
    spec = tu_surplus_spec(np.zeros((1, 1)), np.ones((1, 1, 1)))
    Pi, _ = predicted_frequencies(
        spec, np.array([0.3]), np.ones(1), np.ones(1), nz.coordinate(0), 0.0
    )
    assert Pi[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_predicted_frequencies_match_direct_solve():
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    theta = np.array([0.8])
    Pi, _ = predicted_frequencies(spec, theta, ONES2, ONES2, nz.mean(), 0.0)
    prim = MarketPrimitives(family=spec.family(theta), n=ONES2, m=ONES2)
    eq = solve_mfe(prim, nz.mean(), 0.0)
    assert np.allclose(Pi, eq.mu / eq.mu.sum(), atol=1e-12)


def test_predicted_frequencies_at_count_scale_rounding_floor():
    # count-sized margins: the sweep reaches an exact fixed point whose
    # residual (about 1.2e-9) sits at the rounding floor of the targets
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    counts = np.array([[292981.0, 207429.0], [205964.0, 293626.0]])
    Pi, _ = predicted_frequencies(
        spec, np.array([0.6999241]), counts.sum(axis=1), counts.sum(axis=0), nz.mean(), 0.0
    )
    assert Pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(Pi, counts / counts.sum(), atol=1e-4)


def test_log_likelihood_value():
    mu_hat = np.full((2, 2), 0.25)
    assert log_likelihood(mu_hat, np.full((2, 2), 0.25)) == pytest.approx(np.log(0.25))


def test_log_likelihood_zero_cell():
    mu_hat = np.array([[1.0, 1.0], [1.0, 1.0]])
    Pi = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ZeroPredictedCell):
        log_likelihood(mu_hat, Pi)


# ----------------------------------------------------------------------
# analytic gradient


@pytest.mark.parametrize("kind", ["TU", "ETU", "NTU"])
def test_likelihood_gradient_matches_finite_differences(kind):
    basis = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    if kind == "NTU":
        spec = ThetaSpec(kind="NTU", phi0=np.zeros((2, 2)), phi_basis=basis)
    else:
        spec = ThetaSpec(kind=kind, alpha0=np.zeros((2, 2)), alpha_basis=basis)
    norm, K = nz.mean(), 0.0
    theta_data = np.array([0.6, -0.3])
    Pi, _ = predicted_frequencies(spec, theta_data, ONES2, ONES2, norm, K)
    mu_hat = 8.0 * Pi

    theta = np.array([0.25, 0.1])
    opts = SolverOptions(tol_outer=1e-11, tol_bracket=1e-11)
    g = likelihood_gradient(spec, theta, mu_hat, norm, K, opts)
    h = 1e-6
    for k in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (
            nested_loglik(spec, tp, mu_hat, norm, K, opts)
            - nested_loglik(spec, tm, mu_hat, norm, K, opts)
        ) / (2 * h)
        assert abs(g[k] - fd) <= 1e-4 * (1.0 + abs(fd))


# ----------------------------------------------------------------------
# nested maximum likelihood


def test_mle_recovers_planted_parameter():
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    theta0 = np.array([0.7])
    Pi, _ = predicted_frequencies(spec, theta0, ONES2, ONES2, nz.mean(), 0.0)
    mu_hat = 1000.0 * Pi
    res = mle_nested(spec, mu_hat, nz.mean(), 0.0, np.zeros(1))
    assert abs(res.theta[0] - theta0[0]) <= 1e-6


def test_mle_path_holds_only_optimizer_points():
    # the flatness probe steps 1e-3 away from the estimate; those points are
    # not optimizer evaluations and must not appear on the path
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    Pi, _ = predicted_frequencies(spec, np.array([0.7]), ONES2, ONES2, nz.mean(), 0.0)
    res = mle_nested(spec, 1000.0 * Pi, nz.mean(), 0.0, np.zeros(1))
    probes = [res.theta + h for h in (-1e-3, 1e-3)]
    assert not any(np.array_equal(t, probe) for t in res.path for probe in probes)


def test_mle_flat_likelihood_raises():
    # a constant-surplus direction is absorbed by the equilibrium fees, so
    # the likelihood carries no information about it
    spec = tu_surplus_spec(np.zeros((2, 2)), np.ones((1, 2, 2)))
    Pi, _ = predicted_frequencies(spec, np.zeros(1), ONES2, ONES2, nz.mean(), 0.0)
    mu_hat = 1000.0 * Pi
    with pytest.raises(OptimizerStalled):
        mle_nested(spec, mu_hat, nz.mean(), 0.0, np.array([0.2]))


def test_tu_likelihood_invariant_to_normalization_level():
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    theta0 = np.array([0.7])
    Pi, _ = predicted_frequencies(spec, theta0, ONES2, ONES2, nz.mean(), 0.0)
    mu_hat = 200.0 * Pi
    theta = np.array([0.4])
    ll0 = nested_loglik(spec, theta, mu_hat, nz.mean(), 0.0)
    ll1 = nested_loglik(spec, theta, mu_hat, nz.mean(), 0.5)
    assert ll0 == pytest.approx(ll1, abs=1e-8)


# ----------------------------------------------------------------------
# saddle-point formulation


def _planted_tu_problem():
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    theta0 = np.array([0.7])
    norm, K = nz.mean(), 0.0
    Pi, _ = predicted_frequencies(spec, theta0, ONES2, ONES2, norm, K)
    mu_hat = 1000.0 * Pi
    # re-solve at the scaled margins so the fees match the data scale
    _, eq = predicted_frequencies(
        spec, theta0, mu_hat.sum(axis=1), mu_hat.sum(axis=0), norm, K
    )
    return spec, theta0, norm, K, mu_hat, eq


def test_mpec_residual_vanishes_at_planted_optimum():
    spec, theta0, norm, K, mu_hat, eq = _planted_tu_problem()
    lam = solve_multiplier(spec, mu_hat, norm, K, theta0, eq.a, eq.b)
    Psi, _ = mpec_residual(spec, mu_hat, norm, K, theta0, eq.a, eq.b, lam)
    assert np.linalg.norm(Psi) <= 1e-6


@pytest.mark.parametrize("kind", ["TU", "ETU", "NTU"])
def test_mpec_jacobian_matches_finite_differences(kind):
    # non-square market, two parameters, every curvature term switched on
    rng = np.random.default_rng(10)
    X, Y, d = 2, 3, 2
    nv = d + X + Y
    basis = rng.normal(0.0, 0.5, size=(d, X, Y))
    if kind == "NTU":
        spec = ThetaSpec(kind="NTU", phi0=np.zeros((X, Y)), phi_basis=basis)
    else:
        spec = ThetaSpec(
            kind=kind, alpha0=rng.normal(0.0, 0.3, size=(X, Y)), alpha_basis=basis,
            gamma_basis=rng.normal(0.0, 0.5, size=(d, X, Y)),
        )
    mu_hat = rng.uniform(50.0, 200.0, size=(X, Y))
    norm, K = nz.mean(), 0.0
    v0 = np.concatenate([
        [0.5, -0.3], [0.1, -0.2], [0.05, 0.0, 0.15], rng.normal(0.0, 0.3, size=X + Y + 1),
    ])

    def residual(v):
        return mpec_residual(spec, mu_hat, norm, K, v[:d], v[d : d + X], v[d + X : nv], v[nv:])

    _, J = residual(v0)
    h = 1e-6
    J_fd = np.empty_like(J)
    for j in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[j] += h
        vm[j] -= h
        J_fd[:, j] = (residual(vp)[0] - residual(vm)[0]) / (2 * h)
    assert np.max(np.abs(J - J_fd)) <= 1e-4 * (1.0 + np.max(np.abs(J_fd)))


def test_mpec_residual_memory_is_per_cell():
    # one KKT evaluation on a 30x30 market with d = 5 builds per-cell blocks
    # of (d + 2)^2 entries, not dense (X, Y, nv, nv) tensors (about 88 MB)
    rng = np.random.default_rng(30)
    X = Y = 30
    d = 5
    spec = ThetaSpec(
        kind="ETU", alpha0=rng.normal(0.0, 0.3, size=(X, Y)), gamma0=rng.normal(0.0, 0.3, size=(X, Y)),
        alpha_basis=rng.normal(0.0, 0.3, size=(d, X, Y)), gamma_basis=rng.normal(0.0, 0.3, size=(d, X, Y)),
    )
    mu_hat = rng.uniform(1.0, 10.0, size=(X, Y))
    args = (rng.normal(0.0, 0.3, size=d), rng.normal(0.0, 0.3, size=X), rng.normal(0.0, 0.3, size=Y),
            rng.normal(0.0, 0.3, size=X + Y + 1))
    tracemalloc.start()
    try:
        mpec_residual(spec, mu_hat, nz.mean(), 0.0, *args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_mpec_solve_recovers_planted_parameter():
    spec, theta0, norm, K, mu_hat, eq = _planted_tu_problem()
    res = mpec_solve(
        spec, mu_hat, norm, K,
        theta0 + 0.3, eq.a + 0.2, eq.b - 0.1,
    )
    assert abs(res.theta[0] - theta0[0]) <= 1e-8
    assert res.residual_norm <= 1e-10


def test_mpec_degenerate_data():
    # all observations in one cell: stationarity still well defined
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    mu_hat = np.array([[10.0, 0.0], [0.0, 0.0]])
    Psi, J = mpec_residual(
        spec, mu_hat, nz.mean(), 0.0, np.array([0.0]),
        np.zeros(2), np.zeros(2), np.zeros(5),
    )
    assert np.all(np.isfinite(Psi))
    assert np.all(np.isfinite(J))


# ----------------------------------------------------------------------
# moment estimation for demand


def _demand_data(theta0=1.5, Z=40, sigma=0.0, seed=17):
    rng = np.random.default_rng(seed)
    x2 = rng.uniform(0.5, 2.0, size=Z)
    y = x2 + rng.normal(0.0, 0.2, size=Z)  # instrument: correlated, excluded
    xi = rng.normal(0.0, sigma, size=Z)
    xi -= xi.mean()
    x1 = rng.normal(0.0, 0.5, size=Z)
    delta = x1 + xi - theta0 * x2
    s = demand_logit(delta)
    model = logit_model(Z)
    return model, s, x1, x2, y, delta


def test_gmm_moments_vanish_at_truth():
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0)
    _, m = gmm_moments(delta, x1, x2, y, linear_g(), np.array([theta0]))
    assert np.max(np.abs(m)) <= 1e-10


def test_gmm_noiseless_recovery():
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0)
    res = gmm_nested(
        model, s, x1, x2, y, linear_g(), nz.mean(), float(np.mean(delta)), np.zeros(1)
    )
    assert abs(res.theta[0] - theta0) <= 1e-6
    assert np.max(np.abs(res.moments)) <= 1e-6
    assert np.max(np.abs(res.xi)) <= 1e-6


def test_gmm_two_step_noisy_recovery():
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0, Z=50, sigma=0.1)
    res = gmm_nested(
        model, s, x1, x2, y, linear_g(), nz.mean(), float(np.mean(delta)),
        np.zeros(1), two_step=True,
    )
    assert abs(res.theta[0] - theta0) <= 0.05


def test_gmm_weight_scale_invariance():
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0, sigma=0.05)
    K = float(np.mean(delta))
    r1 = gmm_nested(model, s, x1, x2, y, linear_g(), nz.mean(), K, np.zeros(1))
    r2 = gmm_nested(
        model, s, x1, x2, y, linear_g(), nz.mean(), K, np.zeros(1), W=7.0 * np.eye(2)
    )
    assert abs(r1.theta[0] - r2.theta[0]) <= 1e-6


def test_gmm_rejects_singular_weight():
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0)
    with pytest.raises(SingularWeight):
        gmm_nested(
            model, s, x1, x2, y, linear_g(), nz.mean(), float(np.mean(delta)),
            np.zeros(1), W=np.zeros((2, 2)),
        )
