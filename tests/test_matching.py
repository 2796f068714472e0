"""Matching families, equilibrium fees, transfers, and identification."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import root

from equisub import matching, solver
from equisub import normalization as nz
from equisub.errors import BalanceViolated, BracketNotFound, DimensionMismatch, FamilyLacksTransfers, NoBracket, NonFinite
from equisub.estimation import ThetaSpec
from equisub.matching import (
    DIST_AVERAGE,
    DIST_LOGMEAN,
    DIST_SUM,
    DistanceFamily,
    MarketPrimitives,
    MatchingFamily,
    _d_logmean,
    build_mfe_system,
    comparative_statics_K,
    cross_difference,
    etu_family,
    frontier_distance,
    identify_cross_differences,
    identify_preferences,
    itu_family,
    ntu_family,
    recover_transfers,
    solve_mfe,
    tu_family,
)
from equisub.solver import SolverOptions

from conftest import LN2, jacobi_log_linear_sweep, staged_grid_solve

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


# ----------------------------------------------------------------------
# matching function evaluation


def test_tu_eval_at_zero():
    fam = tu_family(phi=np.zeros((2, 2)))
    assert np.exp(fam.log_match(np.zeros(2), np.zeros(2))[0, 1]) == pytest.approx(1.0)


def test_tu_eval_halves_surplus_plus_fees():
    fam = tu_family(phi=np.array([[2.0]]))
    # M = exp((phi + a + b) / 2)
    assert np.exp(fam.log_match(np.array([1.0]), np.array([-1.0]))[0, 0]) == pytest.approx(np.exp(1.0))


def test_etu_eval_at_zero():
    fam = etu_family(alpha=np.zeros((2, 2)), gamma=np.zeros((2, 2)))
    assert np.exp(fam.log_match(np.zeros(2), np.zeros(2))[1, 0]) == pytest.approx(1.0)


def test_etu_is_harmonic_mean():
    fam = etu_family(alpha=np.zeros((1, 1)), gamma=np.zeros((1, 1)))
    a, b = 0.7, -0.3
    expected = 2.0 / (np.exp(-a) + np.exp(-b))
    assert np.exp(fam.log_match(np.array([a]), np.array([b]))[0, 0]) == pytest.approx(expected)


def test_ntu_eval():
    fam = ntu_family(phi=np.ones((2, 2)))
    assert np.exp(fam.log_match(np.full(2, -0.5), np.full(2, -0.5))[0, 0]) == pytest.approx(1.0)


def test_log_match_batch_rows_equal_single_calls():
    rng = np.random.default_rng(0)
    alpha, gamma = rng.normal(size=(2, 3, 2))
    families = [
        tu_family(alpha=alpha, gamma=gamma),
        tu_family(phi=alpha + gamma),
        ntu_family(alpha + gamma),
        etu_family(alpha, gamma),
    ]
    A = rng.normal(size=(4, 3))
    B = rng.normal(size=(4, 2))
    for fam in families:
        batch = fam.log_match(A, B)
        assert batch.shape == (4, 3, 2)
        for a, b, row in zip(A, B, batch):
            assert np.array_equal(row, fam.log_match(a, b))
    # the log-linear families, written out: the arithmetic is pinned bit
    # for bit, so that storing phi as (alpha, gamma) = (phi, 0) changes no
    # value
    a, b, phi = A[:, :, None], B[:, None, :], alpha + gamma
    split_tu, phi_tu, ntu = (fam.log_match(A, B) for fam in families[:3])
    assert np.array_equal(ntu, phi + a + b)
    assert np.array_equal(phi_tu, 0.5 * (phi + a + b))
    assert np.array_equal(split_tu, 0.5 * ((a + alpha) + (b + gamma)))


def test_mfe_envelopes_equal_whole_table_values():
    # the row block's envelopes are the pinned column's cells (x, 0), the
    # column block's the free columns' sums, read off the whole X x Y table
    rng = np.random.default_rng(2)
    X, Y = 3, 4
    alpha, gamma = rng.normal(size=(2, X, Y))
    families = [
        tu_family(alpha=alpha, gamma=gamma),
        tu_family(phi=alpha + gamma),
        ntu_family(alpha + gamma),
        etu_family(alpha, gamma),
    ]
    for fam in families:
        system, _ = build_mfe_system(MarketPrimitives(family=fam, n=np.ones(X), m=np.full(Y, 0.75)))
        rows, cols = system.subsolution_hints.envelopes
        for p in rng.normal(size=(5, X + Y)):
            table = np.exp(fam.log_match(-p[:X], p[X:]))
            assert np.array_equal(rows(p), -table[:, 0])
            assert np.array_equal(cols(p), table[:, 1:].sum(axis=0))


# ----------------------------------------------------------------------
# distance maps


# the average and log-mean maps traced as frontiers: u + v = 0 by
# (log w, -log w), and (e^u + e^v) / 2 = 1 by (log w, log(2 - w))
FRONTIER_AVERAGE = frontier_distance(np.log, lambda w: -np.log(w))
FRONTIER_LOGMEAN = frontier_distance(np.log, lambda w: np.log(2.0 - w), w_bracket=(1e-9, 2.0 - 1e-9))


@given(u=finite, v=finite, t=finite)
@settings(max_examples=200, deadline=None)
def test_distance_translation_property(u, v, t):
    # d(u + t, v + t) = d(u, v) + t for the transfer distance maps, and
    # + 2t for NTU's sum
    families = ((DIST_AVERAGE, 1.0), (DIST_LOGMEAN, 1.0), (DIST_SUM, 2.0), (FRONTIER_AVERAGE, 1.0), (FRONTIER_LOGMEAN, 1.0))
    for dist, k in families:
        lhs = dist.d(u + t, v + t)
        rhs = dist.d(u, v) + k * t
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_frontier_distance_recovers_average():
    pairs = [(0.0, 0.0), (1.0, -0.5), (-2.0, 3.0)]
    for u, v in pairs:
        assert FRONTIER_AVERAGE.d(u, v) == pytest.approx(0.5 * (u + v), abs=1e-12)
    u, v = np.array(pairs).T
    assert FRONTIER_AVERAGE.d(u, v) == pytest.approx(0.5 * (u + v), abs=1e-12)


def test_frontier_distance_recovers_logmean():
    for u, v in [(0.0, 0.0), (0.5, -0.25), (-1.0, 1.0)]:
        assert FRONTIER_LOGMEAN.d(u, v) == pytest.approx(DIST_LOGMEAN.d(u, v), abs=1e-12)
    # beyond the span of the truncated frontier, d is the distance to its
    # nearer end, which lies within 1e-9 of the whole curve's
    for u, v in [(30.0, 0.0), (0.0, 30.0)]:
        assert FRONTIER_LOGMEAN.d(u, v) == pytest.approx(DIST_LOGMEAN.d(u, v), abs=1e-9)


@pytest.mark.parametrize(
    "frontier, closed_form", [(FRONTIER_AVERAGE, DIST_AVERAGE), (FRONTIER_LOGMEAN, DIST_LOGMEAN)], ids=["average", "logmean"]
)
def test_frontier_jet_matches_the_closed_forms(frontier, closed_form):
    # (d, d_u, d_v, d_uu, d_uv, d_vv) from the one root per cell, against
    # the closed forms: at random points, along u - v up to the ends of the
    # log-mean frontier's span (+-21.4), where log(2 - w) is steep, and
    # beyond the span
    u, v = np.random.default_rng(5).normal(0.0, 2.0, (2, 500))
    line = np.linspace(-20.0, 20.0, 4001)
    for u, v, d_tol in ((u, v, 1e-12), (line, 0.0 * line, 1e-12), (np.array([30.0, 0.0]), np.array([0.0, 30.0]), 1e-9)):
        jet, ref = frontier.evaluate(u, v), closed_form.evaluate(u, v)
        assert np.max(np.abs(jet[0] - ref[0])) <= d_tol
        assert np.max(np.abs(np.stack(jet[1:3]) - np.stack(ref[1:3]))) <= 2e-9
        assert np.max(np.abs(np.stack(jet[3:]) - np.stack(ref[3:]))) <= 1e-6
        assert np.max(np.abs(jet[1] + jet[2] - 1.0)) <= 1e-15
        assert np.array_equal(jet[0], frontier.d(u, v))


def test_frontier_distance_rejects_payoffs_not_finite_at_the_bracket():
    # log(2 - w) is NaN at the default bracket's upper end w = 1e12
    with pytest.raises(NonFinite):
        frontier_distance(np.log, lambda w: np.log(2.0 - w))


# ----------------------------------------------------------------------
# market construction


@pytest.mark.parametrize("kind", ["TU", "NTU", "ETU"])
def test_distance_given_to_a_kind_with_its_own_is_rejected(kind):
    # TU, NTU and ETU fix their distance map: a distance passed with them
    # would otherwise be dropped without a word.  Their own map passes, as
    # dataclasses.replace hands it back
    tables = np.zeros((2, 2, 2))
    assert replace(MatchingFamily(kind, *tables), alpha=tables[1]).distance is MatchingFamily(kind, *tables).distance
    with pytest.raises(DimensionMismatch):
        MatchingFamily(kind, *tables, distance=FRONTIER_LOGMEAN)
    with pytest.raises(DimensionMismatch):
        ThetaSpec(kind=kind, alpha0=tables[0], alpha_basis=tables, distance=FRONTIER_LOGMEAN)


def test_unbalanced_masses_rejected():
    with pytest.raises(BalanceViolated):
        MarketPrimitives(
            family=tu_family(phi=np.zeros((2, 2))),
            n=np.array([1.0, 2.0]),
            m=np.array([1.0, 1.0]),
        )


@pytest.mark.parametrize(
    "n, m",
    [([np.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, np.nan]), ([np.inf, 1.0], [np.inf, 1.0]), ([np.inf, 1.0], [1.0, 1.0])],
    ids=["nan-x", "nan-y", "inf-both", "inf-x"],
)
def test_nonfinite_masses_rejected(n, m):
    # a NaN total, or inf - inf, would pass the balance check
    with pytest.raises(DimensionMismatch):
        MarketPrimitives(family=tu_family(phi=np.zeros((2, 2))), n=np.array(n), m=np.array(m))


def test_mfe_system_balances_everywhere(tu_2x2_diag):
    # total flow out of one side equals total flow into the other at any p
    _, system, q = tu_2x2_diag
    rng = np.random.default_rng(3)
    for p in rng.uniform(-3.0, 3.0, size=(50, system.dim)):
        assert abs(np.sum(system.eval_fn(p))) <= 1e-10
    assert np.sum(q) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# the log-linear (TU, NTU) sweep


LOG_LINEAR_MARKETS = pytest.mark.parametrize(
    "kind, X, Y, scale",
    [
        (kind, X, Y, scale)
        for kind in ("TU", "NTU")
        for X, Y in ((1, 1), (2, 3), (10, 10), (50, 50))
        for scale in (1.0, 100.0)  # unit and count-scale masses
    ],
)


def _log_linear_market(kind, X, Y, scale):
    rng = np.random.default_rng(X * Y)
    phi = rng.normal(0.0, 0.5, (X, Y))
    fam = tu_family(phi=phi) if kind == "TU" else ntu_family(phi)
    n, m = rng.uniform(0.5, 1.5, X), rng.uniform(0.5, 1.5, Y)
    prim = MarketPrimitives(family=fam, n=scale * n, m=scale * m * n.sum() / m.sum())
    system, q = build_mfe_system(prim)
    return fam, system, q, system.subsolution_hints.ordering[0], rng


@LOG_LINEAR_MARKETS
def test_log_linear_sweep_returns_its_own_output(kind, X, Y, scale):
    _, system, q, pin, rng = _log_linear_market(kind, X, Y, scale)
    for p in (solver.build_subsolution(system, q, pin, 0.0), rng.normal(0.0, 1.0, X + Y)):
        once = system.sweep_solver(q, p, pin)
        assert np.array_equal(system.sweep_solver(q, once, pin), once)


@LOG_LINEAR_MARKETS
def test_log_linear_sweep_matches_the_jacobi_pinned_solution(kind, X, Y, scale):
    fam, system, q, pin, _ = _log_linear_market(kind, X, Y, scale)
    reference = replace(system, sweep_solver=jacobi_log_linear_sweep(fam, X))
    ref = solver.solve_pinned(reference, q, pin, 0.0, SolverOptions(tol_outer=1e-14))
    rep = solver.solve_pinned(system, q, pin, 0.0)
    assert np.max(np.abs(rep.p_star - ref.p_star)) <= 1e-12


@LOG_LINEAR_MARKETS
def test_log_linear_cold_pinned_solve_is_certified_in_two_sweeps(kind, X, Y, scale):
    # the first sweep jumps from the subsolution to the pinned solution,
    # which dominates it; the second returns the same point
    _, system, q, pin, _ = _log_linear_market(kind, X, Y, scale)
    rep = solver.solve_pinned(system, q, pin, 0.0)
    assert rep.monotone_certificate
    assert rep.iterations <= 2


def test_count_scale_tu_solve_on_the_mle_path():
    # a planted TU 30x30 market, d = 5, about 100 matches per cell; at this
    # theta of mle_nested's path (coordinate psi on the pin) the Jacobi
    # iterates cycled at the rounding floor with a period above 2, and the
    # pinned solve ended MaxIterExceeded after 100,000 sweeps (residual 3.6e-11)
    X, d = 30, 5
    rng = np.random.default_rng(0)
    A = rng.normal(0.0, 0.5, (d, X, X))
    alpha0 = rng.normal(0.0, 0.3, (X, X))
    planted = rng.normal(0.0, 0.5, d)
    a, b = rng.normal(0.0, 0.3, (2, X))
    mu = 100.0 * np.exp(0.5 * (a[:, None] + (alpha0 + np.tensordot(planted, A, axes=1)) + b[None, :]))
    theta = np.array([-0.1316089185780873, -0.8449896613094074, 0.38905083210952995,
                      -0.14655410114589573, 0.0730075388603751])
    fam = tu_family(phi=alpha0 + np.tensordot(theta, A, axes=1))
    prim = MarketPrimitives(family=fam, n=mu.sum(axis=1), m=mu.sum(axis=0))
    eq = solve_mfe(prim, nz.coordinate(X), float(b[0] + np.log(100.0)))
    assert eq.report.iterations <= 2
    assert np.allclose(eq.mu.sum(axis=1), prim.n, rtol=1e-13)
    assert np.allclose(eq.mu.sum(axis=0), prim.m, rtol=1e-13)


# ----------------------------------------------------------------------
# equilibrium


def test_solve_mfe_symmetric_max_norm(tu_2x2_symmetric):
    prim, _, _ = tu_2x2_symmetric
    eq = solve_mfe(prim, nz.max_coordinate(), 0.0)
    assert np.allclose(eq.a, 0.0, atol=1e-7)
    assert np.allclose(eq.b, -2 * LN2, atol=1e-7)
    assert np.allclose(eq.mu, 0.5, atol=1e-7)
    assert np.allclose(eq.mu.sum(axis=1), prim.n, atol=1e-7)
    assert np.allclose(eq.mu.sum(axis=0), prim.m, atol=1e-7)


def test_solve_mfe_matches_grid_reference(tu_2x2_diag):
    prim, system, q = tu_2x2_diag
    eq = solve_mfe(prim, nz.coordinate(0), 0.0)
    p_solver = np.concatenate([-eq.a, eq.b])
    p_grid = staged_grid_solve(system, q, 0, 0.0, lo=-4.0, hi=4.0)
    assert np.max(np.abs(p_solver - p_grid)) <= 1e-3


def test_etu_with_zero_tables_matches_tu():
    # with symmetric masses and mean normalization the equilibrium fees
    # coincide across sides, where the two families' match values agree
    n = np.array([1.0, 1.0])
    m = np.array([1.0, 1.0])
    tu = MarketPrimitives(family=tu_family(phi=np.zeros((2, 2))), n=n, m=m)
    etu = MarketPrimitives(
        family=etu_family(alpha=np.zeros((2, 2)), gamma=np.zeros((2, 2))), n=n, m=m
    )
    eq_tu = solve_mfe(tu, nz.mean(), 0.0)
    eq_etu = solve_mfe(etu, nz.mean(), 0.0)
    assert np.allclose(eq_tu.mu, eq_etu.mu, atol=1e-6)
    assert np.allclose(eq_etu.mu, 0.5, atol=1e-6)


@pytest.mark.parametrize("norm", [nz.coordinate(2), nz.mean()], ids=["coordinate", "mean"])
def test_itu_with_numeric_derivatives_solves_etu_market(norm):
    # an ITU family with the ETU distance but no derivative callables: its
    # Newton sweep runs on central-difference slopes and must land on the
    # ETU equilibrium
    rng = np.random.default_rng(11)
    alpha, gamma = rng.normal(0.0, 0.5, size=(2, 2, 2))
    n, m = np.ones(2), np.ones(2)
    itu = itu_family(alpha, gamma, DistanceFamily(d=_d_logmean))
    eq_itu = solve_mfe(MarketPrimitives(family=itu, n=n, m=m), norm, 0.0)
    eq_etu = solve_mfe(MarketPrimitives(family=etu_family(alpha, gamma), n=n, m=m), norm, 0.0)
    assert np.max(np.abs(eq_itu.mu - eq_etu.mu)) <= 1e-9
    assert np.allclose(eq_itu.mu.sum(axis=1), n, atol=1e-9)


@pytest.mark.parametrize(
    "reference, distance", [(tu_family, FRONTIER_AVERAGE), (etu_family, FRONTIER_LOGMEAN)], ids=["TU", "ETU"]
)
def test_itu_frontier_market_recovers_planted_fees(reference, distance):
    # a planted 2x2 market whose masses are the margins of the reference
    # family's table at the planted fees; the ITU family on the frontier
    # that traces the reference's distance must return those fees from a
    # cold pinned solve at the planted pin b_0
    rng = np.random.default_rng(2)
    alpha, gamma = rng.normal(0.0, 0.5, (2, 2, 2))
    a_star, b_star = rng.normal(0.0, 0.25, (2, 2))
    mu = reference(alpha, gamma).match(a_star, b_star)
    prim = MarketPrimitives(family=itu_family(alpha, gamma, distance), n=mu.sum(axis=1), m=mu.sum(axis=0))
    system, q = build_mfe_system(prim)
    rep = solver.solve_pinned(system, q, 2, b_star[0])
    assert np.max(np.abs(rep.p_star - np.r_[-a_star, b_star])) <= 1e-8


def test_itu_frontier_sweep_makes_one_root_solve_per_section(monkeypatch):
    # each section evaluation of a frontier ITU sweep, in the bracket walk
    # and in every Newton step, is one jet call and one bisection per block
    rng = np.random.default_rng(2)
    alpha, gamma = rng.normal(0.0, 0.5, (2, 3, 3))
    jets, roots = [], []
    frontier_jet, bisect = FRONTIER_LOGMEAN.jet, matching.bisect
    dist = DistanceFamily(FRONTIER_LOGMEAN.d, lambda u, v: jets.append(1) or frontier_jet(u, v))
    system, q = build_mfe_system(MarketPrimitives(family=itu_family(alpha, gamma, dist), n=np.ones(3), m=np.ones(3)))
    monkeypatch.setattr(matching, "bisect", lambda *args: roots.append(1) or bisect(*args))
    p = system.sweep_solver(q, np.zeros(6), 3)
    assert np.all(np.isfinite(p)) and len(jets) > 2
    assert len(roots) == len(jets)


def test_etu_coordinate_psi_on_the_pin_continues_to_K():
    # ETU 2x2 with coordinate psi on b_0 at K = -0.5: the cold subsolution
    # build fails at the pin, but the market has an equilibrium there (hybr
    # finds it); the pin search anchors at a solvable pin and continues to K
    rng = np.random.default_rng(1)
    alpha, gamma = rng.normal(0.0, 0.5, size=(2, 2, 2))
    fam = etu_family(alpha, gamma)
    K = -0.5

    def excess(z):
        mu = fam.match(z[:2], z[2:])
        return np.r_[mu.sum(axis=1) - 1.0, mu.sum(axis=0)[0] - 1.0, z[2] - K]

    oracle = root(excess, np.zeros(4), method="hybr")
    assert oracle.success
    eq = solve_mfe(MarketPrimitives(family=fam, n=np.ones(2), m=np.ones(2)), nz.coordinate(2), K)
    assert np.max(np.abs(np.r_[eq.a, eq.b] - oracle.x)) <= 1e-9
    assert eq.b[0] == K


def test_etu_coordinate_psi_without_equilibrium_fails_fast(monkeypatch):
    # the same market at K = 0.5 has no equilibrium (hybr finds no root):
    # after the anchor, one warm solve at the pin fails and the search stops
    # there instead of creeping toward K
    rng = np.random.default_rng(1)
    alpha, gamma = rng.normal(0.0, 0.5, size=(2, 2, 2))
    prim = MarketPrimitives(family=etu_family(alpha, gamma), n=np.ones(2), m=np.ones(2))
    calls = []
    pinned = solver.solve_pinned

    def counted(*args, **kwargs):
        calls.append(args)
        return pinned(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_pinned", counted)
    with pytest.raises(BracketNotFound):
        solve_mfe(prim, nz.coordinate(2), 0.5)
    assert 1 <= len(calls) <= 4


def test_etu_mean_psi_recovers_planted_fees():
    # planted fees: the masses are the margins of M(a*, b*) and K is
    # psi(-a*, b*), so the solver must return a*, b* themselves
    rng = np.random.default_rng(0)
    alpha, gamma = rng.normal(0.0, 0.5, (2, 2, 2))
    a_star, b_star = rng.normal(0.0, 0.25, (2, 2))
    fam = etu_family(alpha, gamma)
    mu = fam.match(a_star, b_star)
    prim = MarketPrimitives(family=fam, n=mu.sum(axis=1), m=mu.sum(axis=0))
    eq = solve_mfe(prim, nz.mean(), float(np.mean(np.r_[-a_star, b_star])))
    assert np.max(np.abs(eq.a - a_star)) <= 1e-6
    assert np.max(np.abs(eq.b - b_star)) <= 1e-6
    assert eq.report.outer_solves <= 100
    widths = [hi - lo for lo, hi in eq.report.bracket_history]
    assert all(w1 == 0.5 * w0 for w0, w1 in zip(widths, widths[1:]))


def test_etu_mean_psi_planted_3x4_market_solves():
    # a planted ETU 3x4 market: with the per-coordinate Jacobi sweep, a
    # tight pinned solve at pin -0.0674001 stalled at the rounding floor
    # without a two-cycle, and solve_mfe raised MaxIterExceeded after 100,000
    # sweeps (residual 3.6e-13)
    rng = np.random.default_rng(38)
    X, Y = rng.integers(2, 7), rng.integers(2, 7)
    alpha, gamma = rng.normal(0.0, 0.25, (2, X, Y))
    a_star, b_star = rng.normal(0.0, 0.25, X), rng.normal(0.0, 0.25, Y)
    fam = etu_family(alpha, gamma)
    mu = fam.match(a_star, b_star)
    prim = MarketPrimitives(family=fam, n=mu.sum(axis=1), m=mu.sum(axis=0))
    eq = solve_mfe(prim, nz.mean(), float(np.mean(np.r_[-a_star, b_star])))
    assert (X, Y) == (3, 4)
    assert np.max(np.abs(np.r_[eq.a - a_star, eq.b - b_star])) <= 1e-9


def _planted_etu_3x4():
    rng = np.random.default_rng(3)
    alpha, gamma = rng.normal(0.0, 0.3, (2, 3, 4))
    a_star, b_star = rng.normal(0.0, 0.2, 3), rng.normal(0.0, 0.2, 4)
    fam = etu_family(alpha, gamma)
    mu = fam.match(a_star, b_star)
    system, q = build_mfe_system(MarketPrimitives(family=fam, n=mu.sum(axis=1), m=mu.sum(axis=0)))
    return system, q, np.r_[-a_star, b_star], rng


@pytest.mark.parametrize("pin", [0, 2, 3, 5], ids=["row", "last-row", "column", "later-column"])
def test_etu_block_sweep_skips_the_pin_in_its_block(pin):
    # the sweep solves the free rows, then the free columns; the pin may sit
    # in either block, and the solve from near the truth must return it
    # (tol_outer bounds the residual; the default 1e-9 leaves fee errors of
    # the same order)
    system, q, truth, rng = _planted_etu_3x4()
    p0 = truth + rng.normal(0.0, 0.01, truth.size)
    rep = solver.solve_pinned(system, q, pin, truth[pin], SolverOptions(tol_outer=1e-12), p0=p0)
    assert rep.p_star[pin] == truth[pin]
    assert np.max(np.abs(rep.p_star - truth)) <= 1e-9


@pytest.mark.parametrize("z, target", [(1, -1e3), (5, 1e3)], ids=["row", "column"])
def test_etu_block_sweep_names_an_unreachable_coordinate(z, target):
    # ETU matches saturate (M < 2 e^(b + gamma) in a, and 2 e^(a + alpha)
    # in b), so a mass of 1e3 is out of reach of any fee
    system, q, truth, _ = _planted_etu_3x4()
    q = q.copy()
    q[z] = target
    with pytest.raises(NoBracket) as info:
        system.sweep_solver(q, truth, 3)
    assert info.value.coordinate == z


def test_etu_coordinate_psi_sweep_count():
    # ETU 5x5, unit masses, coordinate psi on the pin: the block
    # Gauss-Seidel sweep takes 256 sweeps; the per-coordinate Jacobi sweep
    # took 462.  Counts are exact across machines
    X = 5
    alpha, gamma = np.random.default_rng(0).normal(0.0, 0.5, (2, X, X))
    prim = MarketPrimitives(family=etu_family(alpha, gamma), n=np.ones(X), m=np.ones(X))
    eq = solve_mfe(prim, nz.coordinate(X), 0.0)
    assert eq.report.iterations <= 256
    assert np.allclose(eq.mu.sum(axis=1), 1.0, atol=1e-9)


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["TU", "NTU"]),
    X=st.integers(2, 8),
    Y=st.integers(2, 8),
    psi=st.sampled_from(["mean", "max", "coordinate"]),
    K=st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_invariant_families_match_the_bordered_oracle(seed, kind, X, Y, psi, K):
    # TU and NTU are translation-invariant: the dichotomy reaches its pins
    # by shifts, two pinned solves in all, and must still land on the root
    # of the bordered system [Q(p) - q; psi(p) - K]
    rng = np.random.default_rng(seed)
    phi = rng.normal(0.0, 0.5, (X, Y))
    fam = tu_family(phi=phi) if kind == "TU" else ntu_family(phi)
    n, m = rng.uniform(0.5, 1.5, X), rng.uniform(0.5, 1.5, Y)
    prim = MarketPrimitives(family=fam, n=n, m=m * n.sum() / m.sum())
    if psi == "coordinate":
        # any coordinate but the pin (the first Y-side one, X)
        index = int(rng.integers(X + Y - 1))
        norm = nz.coordinate(index + (index >= X))
    else:
        norm = nz.mean() if psi == "mean" else nz.max_coordinate()
    system, q = build_mfe_system(prim)

    def bordered(p):
        # the balance identity makes one accounting row redundant
        return np.r_[system.eval_fn(p)[1:] - q[1:], norm(p) - K]

    # a generic start: psi = max has a kink wherever coordinates tie
    oracle = root(bordered, rng.normal(0.0, 0.5, X + Y), method="hybr", options={"xtol": 1e-13})
    assert np.max(np.abs(bordered(oracle.x))) <= 1e-11
    eq = solve_mfe(prim, norm, K)
    assert np.max(np.abs(np.r_[-eq.a, eq.b] - oracle.x)) <= 1e-8
    assert eq.report.outer_solves <= 2
    widths = [hi - lo for lo, hi in eq.report.bracket_history]
    assert len(widths) >= 20
    assert all(w1 == 0.5 * w0 for w0, w1 in zip(widths, widths[1:]))


def test_comparative_statics_tu_match_invariant(tu_2x2_diag):
    prim, _, _ = tu_2x2_diag
    out = comparative_statics_K(prim, nz.mean(), [-0.4, -0.2, 0.0, 0.2, 0.4])
    spread = out["mu_path"].max(axis=0) - out["mu_path"].min(axis=0)
    assert np.max(spread) <= 1e-8
    assert out["a_nonincreasing"]
    assert out["b_nondecreasing"]


def test_comparative_statics_etu_match_moves():
    prim = MarketPrimitives(
        family=etu_family(alpha=np.array([[1.0, 0.0], [0.0, 1.0]]), gamma=np.zeros((2, 2))),
        n=np.array([1.0, 1.0]),
        m=np.array([1.0, 1.0]),
    )
    out = comparative_statics_K(prim, nz.mean(), [-0.4, 0.0, 0.4])
    spread = out["mu_path"].max(axis=0) - out["mu_path"].min(axis=0)
    assert np.max(spread) > 1e-3
    assert out["a_nonincreasing"]
    assert out["b_nondecreasing"]


# ----------------------------------------------------------------------
# transfers


def test_recover_transfers_tu_1x1():
    fam = tu_family(alpha=np.zeros((1, 1)), gamma=np.zeros((1, 1)))
    prim = MarketPrimitives(family=fam, n=np.array([1.0]), m=np.array([1.0]))
    eq = solve_mfe(prim, nz.coordinate(0), 0.0)
    w = recover_transfers(fam, eq)
    # a = 0 pinned; mass balance forces M = 1, hence b = 0 and no transfer
    assert w[0, 0] == pytest.approx(0.0, abs=1e-8)


def test_recover_transfers_requires_split(tu_2x2_symmetric):
    prim, _, _ = tu_2x2_symmetric
    eq = solve_mfe(prim, nz.mean(), 0.0)
    with pytest.raises(FamilyLacksTransfers):
        recover_transfers(prim.family, eq)  # phi-only table has no split
    with pytest.raises(FamilyLacksTransfers):
        recover_transfers(ntu_family(phi=np.zeros((2, 2))), eq)


@pytest.mark.parametrize("maker", [tu_family, etu_family])
def test_transfer_consistency_round_trip(maker):
    # log mu = -d(-a - alpha, -b - gamma) makes preference recovery exact
    rng = np.random.default_rng(11)
    alpha = rng.normal(0.0, 0.5, size=(2, 2))
    gamma = rng.normal(0.0, 0.5, size=(2, 2))
    fam = maker(alpha=alpha, gamma=gamma)
    prim = MarketPrimitives(family=fam, n=np.array([1.0, 1.0]), m=np.array([1.0, 1.0]))
    eq = solve_mfe(prim, nz.mean(), 0.0)
    w = recover_transfers(fam, eq)
    alpha_hat, gamma_hat = identify_preferences(eq.mu, w, eq.a, eq.b, fam.distance)
    assert np.allclose(alpha_hat, alpha, atol=1e-10)
    assert np.allclose(gamma_hat, gamma, atol=1e-10)


# ----------------------------------------------------------------------
# identification


def test_cross_difference_arithmetic():
    D = cross_difference(np.array([[1.0, 2.0], [3.0, 5.0]]))
    assert D[1, 1, 0, 0] == pytest.approx(1.0)
    assert D[0, 0, 1, 1] == pytest.approx(1.0)
    assert D[1, 0, 0, 1] == pytest.approx(-1.0)
    assert np.allclose(np.diagonal(D, axis1=0, axis2=2), 0.0)


@given(
    u=st.lists(finite, min_size=2, max_size=4),
    v=st.lists(finite, min_size=2, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_cross_difference_kills_separable_tables(u, v):
    T = np.asarray(u)[:, None] + np.asarray(v)[None, :]
    assert np.max(np.abs(cross_difference(T))) <= 1e-10


def test_identify_cross_differences_round_trip():
    rng = np.random.default_rng(7)
    alpha = rng.normal(0.0, 0.5, size=(3, 3))
    gamma = rng.normal(0.0, 0.5, size=(3, 3))
    fam = tu_family(alpha=alpha, gamma=gamma)
    prim = MarketPrimitives(family=fam, n=np.ones(3), m=np.ones(3))
    eq = solve_mfe(prim, nz.mean(), 0.0, SolverOptions(tol_outer=1e-11))
    w = recover_transfers(fam, eq)
    d_alpha, d_gamma = identify_cross_differences(eq.mu, w, fam.distance)
    assert np.max(np.abs(d_alpha - cross_difference(alpha))) <= 1e-6
    assert np.max(np.abs(d_gamma - cross_difference(gamma))) <= 1e-6


def test_tu_cross_differences_from_matches_and_transfers():
    # with the average map, d(0, -w) = -w/2, so the alpha differences are
    # the differences of log mu - w/2
    rng = np.random.default_rng(5)
    mu = np.exp(rng.normal(0.0, 0.3, size=(2, 3)))
    w = rng.normal(0.0, 0.4, size=(2, 3))
    d_alpha, _ = identify_cross_differences(mu, w, DIST_AVERAGE)
    expected = cross_difference(np.log(mu) - 0.5 * w)
    assert np.allclose(d_alpha, expected, atol=1e-12)
