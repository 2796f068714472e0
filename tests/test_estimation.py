"""Likelihood and moment estimation of matching and demand parameters."""
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from equisub import estimation
from equisub import normalization as nz
from equisub.demand import GFamily, demand_logit, linear_g, logit_model
from equisub.errors import OptimizerStalled, SingularConstraintJacobian, SingularWeight, ZeroPredictedCell
from equisub.estimation import (
    ThetaSpec,
    _cell_blocks,
    _min_norm_solve,
    _redundant_row,
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
from equisub import matching
from equisub.matching import MarketPrimitives, MatchingEquilibrium, etu_family, frontier_distance, solve_mfe
from equisub.solver import SolverOptions

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

DIAG = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # single diagonal-surplus direction
ONES2 = np.ones((2,))
# ETU's log-mean distance traced as a frontier: (e^u + e^v) / 2 = 1
FRONTIER_LOGMEAN = frontier_distance(np.log, lambda w: np.log(2.0 - w), w_bracket=(1e-9, 2.0 - 1e-9))


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
        spec = ThetaSpec(kind="NTU", alpha0=np.zeros((X, Y)), alpha_basis=basis)
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
    # one KKT evaluation on a 30x30 market with d = 5 builds (X, Y) and
    # (d, X, Y) tables and the KKT matrix itself: no per-cell (d + 2)^2
    # blocks (1.3 MB of them) and no dense (X, Y, nv, nv) tensors (about 88 MB)
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
    assert peak < 1e6


def test_mpec_solve_recovers_planted_parameter():
    spec, theta0, norm, K, mu_hat, eq = _planted_tu_problem()
    res = mpec_solve(
        spec, mu_hat, norm, K,
        theta0 + 0.3, eq.a + 0.2, eq.b - 0.1,
    )
    assert abs(res.theta[0] - theta0[0]) <= 1e-8
    assert res.residual_norm <= 1e-10


def test_mpec_solve_halves_steps_far_from_the_optimum(monkeypatch):
    # from theta0 + 5 full Newton steps can raise the residual norm: two
    # halvings in all, so 8 steps make 10 residual evaluations
    spec, theta0, norm, K, mu_hat, eq = _planted_tu_problem()
    calls = []
    residual = estimation.mpec_residual
    monkeypatch.setattr(estimation, "mpec_residual", lambda *args: calls.append(1) or residual(*args))
    res = mpec_solve(spec, mu_hat, norm, K, theta0 + 5.0, eq.a, eq.b)
    assert (res.iterations, len(calls)) == (8, 10)
    assert abs(res.theta[0] - theta0[0]) <= 2e-15
    assert res.residual_norm <= 1e-10


def test_mpec_solve_stalls_when_no_halving_lowers_the_residual(monkeypatch):
    spec, theta0, norm, K, mu_hat, eq = _planted_tu_problem()
    residual = estimation.mpec_residual
    monkeypatch.setattr(estimation, "mpec_residual", lambda *args: (1e6 + residual(*args)[0], None))
    with pytest.raises(OptimizerStalled, match="damped Newton made no progress at residual") as info:
        mpec_solve(spec, mu_hat, norm, K, theta0 + 0.3, eq.a, eq.b)
    assert info.value.theta.tolist() == (theta0 + 0.3).tolist()  # no step was taken


def test_mpec_solve_stalls_after_its_step_budget(monkeypatch):
    spec, theta0, norm, K, mu_hat, eq = _planted_tu_problem()
    monkeypatch.setattr(estimation, "MPEC_MAX_ITER", 2)
    with pytest.raises(OptimizerStalled, match=r"stationarity residual .* after 2 Newton steps"):
        mpec_solve(spec, mu_hat, norm, K, theta0 + 5.0, eq.a, eq.b)


def test_likelihood_gradient_rejects_a_near_singular_constraint_jacobian():
    # fees (0, 80) and (0, -80) put the off-diagonal cells at e^-40 and
    # e^40: the (a, b) Jacobian's condition number is about 5e17
    spec = tu_surplus_spec(np.zeros((2, 2)), DIAG)
    eq = MatchingEquilibrium(a=np.array([0.0, 80.0]), b=np.array([0.0, -80.0]), mu=None, K=0.0, report=None)
    mu_hat = np.array([[5.0, 1.0], [1.0, 5.0]])
    with pytest.raises(SingularConstraintJacobian, match="exceeds cap"):
        likelihood_gradient(spec, np.zeros(1), mu_hat, nz.mean(), 0.0, eq=eq)


def _random_spec(rng, kind, X, Y, d):
    basis = rng.normal(0.0, 0.5, size=(d, X, Y))
    if kind == "NTU":
        return ThetaSpec(kind="NTU", alpha0=rng.normal(0.0, 0.3, size=(X, Y)), alpha_basis=basis)
    return ThetaSpec(
        kind=kind, alpha0=rng.normal(0.0, 0.3, size=(X, Y)), gamma0=rng.normal(0.0, 0.3, size=(X, Y)),
        alpha_basis=basis, gamma_basis=rng.normal(0.0, 0.5, size=(d, X, Y)),
        distance=FRONTIER_LOGMEAN if kind == "ITU" else None,
    )


@pytest.mark.parametrize("kind", ["TU", "NTU", "ETU"])
def test_mpec_step_is_the_minimum_norm_step(kind):
    # at generic, non-stationary points the KKT matrix has the one null
    # vector z of the redundant accounting row, and the bordered LU solves
    # give exactly the minimum-norm answers of the least-squares solver
    rng = np.random.default_rng(19)
    for X, Y, d in ((2, 3, 2), (30, 30, 5)):
        spec = _random_spec(rng, kind, X, Y, d)
        nv = d + X + Y
        mu_hat = rng.uniform(1.0, 10.0, size=(X, Y))
        theta, a, b = rng.normal(0.0, 0.3, size=d), rng.normal(0.0, 0.3, size=X), rng.normal(0.0, 0.3, size=Y)
        lam = rng.normal(0.0, 0.3, size=X + Y + 1)
        Psi, J = mpec_residual(spec, mu_hat, nz.mean(), 0.0, theta, a, b, lam)
        assert np.linalg.norm(Psi) > 1e-3
        z = np.concatenate([np.zeros(nv), _redundant_row(X, Y)])
        assert np.linalg.norm(J @ z) <= 1e-12 * np.linalg.norm(J)

        step = _min_norm_solve(J, -Psi, z)
        ref, *_ = np.linalg.lstsq(J, -Psi, rcond=None)
        assert np.linalg.norm(step - ref) <= 1e-10 * np.linalg.norm(ref)

        # at lambda = 0 the KKT residual's first block is Dl and J holds DG
        Psi0, J0 = mpec_residual(spec, mu_hat, nz.mean(), 0.0, theta, a, b, np.zeros(X + Y + 1))
        DG_ab, Dl_ab = J0[nv:, d:nv], Psi0[d:nv]
        ref, *_ = np.linalg.lstsq(DG_ab.T, -Dl_ab, rcond=None)
        lam_hat = solve_multiplier(spec, mu_hat, nz.mean(), 0.0, theta, a, b)
        assert np.linalg.norm(lam_hat - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("second", ["zero-basis", "collinear"])
def test_mpec_solve_non_identified_spec(second):
    # a second basis of 0 or 2x the first leaves a second null direction in
    # theta: the minimum-norm steps never move along it, so theta stops at
    # the projection of the start onto the identified line
    rng = np.random.default_rng(4)
    first = rng.normal(0.0, 0.5, size=(4, 4))
    basis = np.stack([first, np.zeros((4, 4)) if second == "zero-basis" else 2.0 * first])
    spec = ThetaSpec(kind="TU", alpha0=np.zeros((4, 4)), alpha_basis=basis)
    theta_star = np.array([0.3, 0.2])
    Pi, _ = predicted_frequencies(spec, theta_star, np.ones(4), np.ones(4), nz.mean(), 0.0)
    mu_hat = 100.0 * Pi
    _, eq = predicted_frequencies(spec, theta_star, mu_hat.sum(axis=1), mu_hat.sum(axis=0), nz.mean(), 0.0)
    res = mpec_solve(spec, mu_hat, nz.mean(), 0.0, theta_star + 0.1, eq.a, eq.b)
    assert res.residual_norm <= 1e-10
    expected = [0.3, 0.3] if second == "zero-basis" else [0.34, 0.18]
    assert np.allclose(res.theta, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("kind", ["TU", "ETU"])
def test_mpec_solve_makes_no_least_squares_call(kind, monkeypatch):
    # planted 30x30 fits with d = 5: every Newton step and the starting
    # multiplier are LU solves; the SVD fallback is for non-identified specs
    rng = np.random.default_rng(23)
    X = Y = 30
    d = 5
    spec = _random_spec(rng, kind, X, Y, d)
    theta, a, b = rng.normal(0.0, 0.3, size=d), rng.normal(0.0, 0.3, size=X), rng.normal(0.0, 0.3, size=Y)
    mu_hat = np.exp(spec.family(theta).log_match(a, b))
    K = float(np.concatenate([-a, b]).mean())
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1) or lstsq(*args, **kw))
    res = mpec_solve(
        spec, mu_hat, nz.mean(), K,
        theta + 0.2 * rng.normal(size=d), a + 0.1 * rng.normal(size=X), b + 0.1 * rng.normal(size=Y),
    )
    assert res.residual_norm <= 1e-10
    assert np.max(np.abs(res.theta - theta)) <= 1e-8
    assert len(calls) == 0


@pytest.mark.parametrize("kind", ["TU", "NTU", "ETU", "ITU"])
def test_cell_hessians_match_the_three_operand_einsum(kind):
    # reference: per cell, H = -P^T D2d P and g = -P^T Dd, with P the
    # gradient of (u, v) in the cell's own variables (theta, a_x, b_y),
    # scattered into (theta, a, b) by np.add.at; mpec_residual assembles
    # the same KKT system from row and column sums of the cell tables
    rng = np.random.default_rng(7)
    X, Y, d = 5, 4, 3
    nv = d + X + Y
    spec = _random_spec(rng, kind, X, Y, d)
    theta, a, b = rng.normal(0.0, 0.3, size=d), rng.normal(0.0, 0.3, size=X), rng.normal(0.0, 0.3, size=Y)
    mu_hat = rng.uniform(1.0, 10.0, size=(X, Y))
    lam = rng.normal(0.0, 0.3, size=X + Y + 1)
    norm, K = nz.mean(), 0.1
    fam = spec.family(theta)
    u = -a[:, None] - fam.alpha
    v = -b[None, :] - fam.gamma
    dist, du, dv, duu, duv, dvv = (np.broadcast_to(t, (X, Y)) for t in fam.distance.evaluate(u, v))
    Dd = np.stack([du, dv], -1)
    D2d = np.stack([duu, duv, duv, dvv], -1).reshape(X, Y, 2, 2)
    P = np.zeros((X, Y, 2, d + 2))
    P[:, :, 0, :d] = -np.moveaxis(spec.alpha_basis, 0, -1)
    P[:, :, 1, :d] = -np.moveaxis(spec.gamma_basis, 0, -1)
    P[:, :, 0, d] = P[:, :, 1, d + 1] = -1.0
    H = -np.einsum("xyik,xyij,xyjl->xykl", P, D2d, P)
    g = -np.einsum("xyi,xyik->xyk", Dd, P)

    idx = np.empty((X, Y, d + 2), dtype=int)
    idx[:, :, :d] = np.arange(d)
    idx[:, :, d] = d + np.arange(X)[:, None]
    idx[:, :, d + 1] = d + X + np.arange(Y)
    M = np.exp(-dist)
    W = M / M.sum()
    N_hat = mu_hat.sum()
    DG = np.zeros((X + Y + 1, nv))
    for x in range(X):
        for y in range(Y):
            np.add.at(DG[x], idx[x, y], M[x, y] * g[x, y])
            np.add.at(DG[X + y], idx[x, y], M[x, y] * g[x, y])
    p = np.concatenate([-a, b])
    DG[-1, d:] = norm.grad(p) * np.concatenate([-np.ones(X), np.ones(Y)])
    G = np.concatenate([M.sum(axis=1) - mu_hat.sum(axis=1), M.sum(axis=0) - mu_hat.sum(axis=0), [norm(p) - K]])
    DlogN, Dl = np.zeros(nv), np.zeros(nv)
    np.add.at(DlogN, idx, W[:, :, None] * g)
    np.add.at(Dl, idx, mu_hat[:, :, None] * g)
    Dl -= N_hat * DlogN
    # the weights of _kkt_system: cell (x, y) adds c1 H + c2 g g^T
    LM = (lam[:X, None] + lam[None, X : X + Y]) * M
    c1 = mu_hat - N_hat * W + LM
    c2 = LM - N_hat * W
    D2L = N_hat * np.outer(DlogN, DlogN)
    blocks = c1[:, :, None, None] * H + c2[:, :, None, None] * np.einsum("xyk,xyl->xykl", g, g)
    np.add.at(D2L, (idx[:, :, :, None], idx[:, :, None, :]), blocks)
    Psi_ref = np.concatenate([Dl + lam @ DG, G])
    J_ref = np.block([[D2L, DG.T], [DG, np.zeros((X + Y + 1, X + Y + 1))]])

    Psi, J = mpec_residual(spec, mu_hat, norm, K, theta, a, b, lam)
    assert np.all(np.abs(Psi - Psi_ref) <= 1e-14 * (1.0 + np.abs(Psi_ref)))
    assert np.all(np.abs(J - J_ref) <= 1e-14 * (1.0 + np.abs(J_ref)))
    if kind in ("ETU", "ITU"):
        assert np.max(np.abs(H)) > 0.1


def test_frontier_cell_blocks_make_one_root_solve(monkeypatch):
    # one jet evaluation gives log M, the slopes and the curvature of every
    # cell from the frontier's one bisection
    rng = np.random.default_rng(7)
    spec = _random_spec(rng, "ITU", 10, 10, 3)
    theta, a, b = rng.normal(0.0, 0.3, size=3), rng.normal(0.0, 0.3, size=10), rng.normal(0.0, 0.3, size=10)
    calls = []
    bisect = matching.bisect
    monkeypatch.setattr(matching, "bisect", lambda *args: calls.append(1) or bisect(*args))
    _cell_blocks(spec, theta, a, b)
    assert len(calls) == 1


def test_mpec_solve_recovers_planted_etu_as_itu_on_its_frontier():
    # noiseless matches planted by ETU at 4x4, d = 2, fit as ITU on the
    # frontier that traces ETU's distance
    rng = np.random.default_rng(29)
    X = Y = 4
    d = 2
    spec = _random_spec(rng, "ITU", X, Y, d)
    theta, a, b = rng.normal(0.0, 0.3, size=d), rng.normal(0.0, 0.3, size=X), rng.normal(0.0, 0.3, size=Y)
    fam = spec.family(theta)
    mu_hat = etu_family(fam.alpha, fam.gamma).match(a, b)
    K = float(np.concatenate([-a, b]).mean())
    res = mpec_solve(
        spec, mu_hat, nz.mean(), K,
        theta + 0.2 * rng.normal(size=d), a + 0.1 * rng.normal(size=X), b + 0.1 * rng.normal(size=Y),
    )
    assert res.residual_norm <= 1e-10
    assert np.max(np.abs(res.theta - theta)) <= 1e-10


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


@pytest.mark.parametrize("Z", [30, 50])
def test_gmm_two_step_without_g_inv_matches_exact(Z):
    model, s, x1, x2, y, delta = _demand_data(1.5, Z, sigma=0.1)
    K = float(np.mean(delta))
    numeric = GFamily(g=lambda t, x2, th: t - th[0] * x2)
    th_exact, th_numeric = (
        gmm_nested(model, s, x1, x2, y, g, nz.mean(), K, np.zeros(1), two_step=True).theta[0]
        for g in (linear_g(), numeric)
    )
    assert abs(th_exact - th_numeric) <= 5e-9


def test_gmm_weight_scale_invariance():
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0, sigma=0.05)
    K = float(np.mean(delta))
    r1 = gmm_nested(model, s, x1, x2, y, linear_g(), nz.mean(), K, np.zeros(1))
    r2 = gmm_nested(
        model, s, x1, x2, y, linear_g(), nz.mean(), K, np.zeros(1), W=7.0 * np.eye(2)
    )
    assert abs(r1.theta[0] - r2.theta[0]) <= 1e-6


@pytest.mark.parametrize(
    "W",
    [np.zeros((2, 2)), np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [0.0, 1.0]])],
    ids=["zeros", "indefinite", "singular-symmetric-part"],
)
def test_gmm_rejects_singular_weight(W):
    theta0 = 1.5
    model, s, x1, x2, y, delta = _demand_data(theta0)
    with pytest.raises(SingularWeight):
        gmm_nested(
            model, s, x1, x2, y, linear_g(), nz.mean(), float(np.mean(delta)),
            np.zeros(1), W=W,
        )


def _bench_gmm_calls(seed):
    """gmm_nested's arguments in the estimate workload's GMM instance:
    one call with linear_g() and one with the same link without g_inv."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "gmm_nested", lambda *args, **kw: calls.append(args))
        workloads.gmm_instance(np.random.default_rng(seed), 40).run()
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_gmm_residual_evaluations_per_fit(seed, monkeypatch):
    count = [0]
    residual_xi = estimation.residual_xi

    def counted(*args):
        count[0] += 1
        return residual_xi(*args)

    monkeypatch.setattr(estimation, "residual_xi", counted)
    for args in _bench_gmm_calls(seed):
        for two_step, most in ((False, 25), (True, 40)):
            count[0] = 0
            gmm_nested(*args, two_step=two_step)
            assert count[0] <= most, (two_step, count[0])


@pytest.mark.parametrize("seed", range(5))
def test_gmm_one_step_attains_the_closed_form_minimum(seed):
    # with linear_g and W = I, m(theta) = m0 + theta * J is affine in theta
    model, s, x1, x2, y, g, norm, K, theta0 = _bench_gmm_calls(seed)[0]
    res = gmm_nested(model, s, x1, x2, y, g, norm, K, theta0)
    m0 = np.array([(res.delta - x1) @ x1, (res.delta - x1) @ y])
    J = np.array([x2 @ x1, x2 @ y])
    theta_star = -(J @ m0) / (J @ J)
    m_star = m0 + theta_star * J
    assert abs(res.theta[0] - theta_star) <= 1e-9
    assert res.value <= (m_star @ m_star) * (1 + 1e-12)
