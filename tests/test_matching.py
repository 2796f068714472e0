"""Matching families, equilibrium fees, transfers, and identification."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisub import normalization as nz
from equisub.errors import BalanceViolated, FamilyLacksTransfers
from equisub.matching import (
    DIST_AVERAGE,
    DIST_LOGMEAN,
    DistanceFamily,
    MarketPrimitives,
    _d_logmean,
    build_mfe_system,
    comparative_statics_K,
    cross_difference,
    etu_family,
    frontier_distance,
    identify_cross_differences,
    identify_preferences,
    itu_family,
    matching_function_eval,
    ntu_family,
    recover_transfers,
    solve_mfe,
    tu_family,
)
from equisub.solver import SolverOptions

from conftest import LN2, staged_grid_solve

finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


# ----------------------------------------------------------------------
# matching function evaluation


def test_tu_eval_at_zero():
    fam = tu_family(phi=np.zeros((2, 2)))
    assert matching_function_eval(fam, 0.0, 0.0, (0, 1)) == pytest.approx(1.0)


def test_tu_eval_halves_surplus_plus_fees():
    fam = tu_family(phi=np.array([[2.0]]))
    # M = exp((phi + a + b) / 2)
    assert matching_function_eval(fam, 1.0, -1.0, (0, 0)) == pytest.approx(np.exp(1.0))


def test_etu_eval_at_zero():
    fam = etu_family(alpha=np.zeros((2, 2)), gamma=np.zeros((2, 2)))
    assert matching_function_eval(fam, 0.0, 0.0, (1, 0)) == pytest.approx(1.0)


def test_etu_is_harmonic_mean():
    fam = etu_family(alpha=np.zeros((1, 1)), gamma=np.zeros((1, 1)))
    a, b = 0.7, -0.3
    expected = 2.0 / (np.exp(-a) + np.exp(-b))
    assert matching_function_eval(fam, a, b, (0, 0)) == pytest.approx(expected)


def test_ntu_eval():
    fam = ntu_family(phi=np.ones((2, 2)))
    assert matching_function_eval(fam, -0.5, -0.5, (0, 0)) == pytest.approx(1.0)


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


def test_mfe_envelopes_equal_whole_table_values():
    # each envelope reads its cell (x, 0) or its column j off a sub-family;
    # the value must be the one the whole X x Y table gives
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
        envelopes = system.subsolution_hints.envelopes
        for p in rng.normal(size=(5, X + Y)):
            for x in range(X):
                assert envelopes[x](p) == -matching_function_eval(fam, -p[x], p[X], (x, 0))
            table = np.exp(fam.log_match(-p[:X], p[X:]))
            for j in range(1, Y):
                assert envelopes[X + j - 1](p) == float(table[:, j].sum())


# ----------------------------------------------------------------------
# distance maps


@given(u=finite, v=finite, t=finite)
@settings(max_examples=200, deadline=None)
def test_distance_translation_property(u, v, t):
    # d(u + t, v + t) = d(u, v) + t for both shipped distance maps
    for dist in (DIST_AVERAGE, DIST_LOGMEAN):
        lhs = dist.d(u + t, v + t)
        rhs = dist.d(u, v) + t
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_frontier_distance_recovers_average():
    # frontier u + v = 0, traced by (log w, -log w), gives the average map
    dist = frontier_distance(lambda w: np.log(w), lambda w: -np.log(w))
    pairs = [(0.0, 0.0), (1.0, -0.5), (-2.0, 3.0)]
    for u, v in pairs:
        assert dist.d(u, v) == pytest.approx(0.5 * (u + v), abs=1e-6)
    u, v = np.array(pairs).T
    assert dist.d(u, v) == pytest.approx(0.5 * (u + v), abs=1e-6)


def test_frontier_distance_recovers_logmean():
    # frontier (e^u + e^v) / 2 = 1 traced by w -> (log w, log(2 - w))
    dist = frontier_distance(
        lambda w: np.log(w), lambda w: np.log(2.0 - w), w_bracket=(1e-9, 2.0 - 1e-9)
    )
    for u, v in [(0.0, 0.0), (0.5, -0.25), (-1.0, 1.0)]:
        assert dist.d(u, v) == pytest.approx(DIST_LOGMEAN.d(u, v), abs=1e-6)


# ----------------------------------------------------------------------
# market construction


def test_unbalanced_masses_rejected():
    with pytest.raises(BalanceViolated):
        MarketPrimitives(
            family=tu_family(phi=np.zeros((2, 2))),
            n=np.array([1.0, 2.0]),
            m=np.array([1.0, 1.0]),
        )


def test_mfe_system_balances_everywhere(tu_2x2_diag):
    # total flow out of one side equals total flow into the other at any p
    _, system, q = tu_2x2_diag
    rng = np.random.default_rng(3)
    for p in rng.uniform(-3.0, 3.0, size=(50, system.dim)):
        assert abs(np.sum(system.eval_fn(p))) <= 1e-10
    assert np.sum(q) == pytest.approx(0.0, abs=1e-12)


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
