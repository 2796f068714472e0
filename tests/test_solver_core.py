"""Core solver tests: supply evaluation, bisection sweeps, pinned Jacobi
solves, the normalized outer search, and normalization algebra."""
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisub import solver
from equisub.errors import (
    BalanceViolated,
    DimensionMismatch,
    EnvelopeNotDownwardResponsive,
    HintsMissing,
    MaxIterExceeded,
    NoBracket,
    NonFinite,
    NotDiagonallyStrict,
    OutOfBounds,
)
from equisub.normalization import (
    Normalization,
    coordinate,
    max_coordinate,
    mean,
    min_coordinate,
    renormalize,
)
from equisub.solver import (
    ROUNDING_FLOOR,
    SolverOptions,
    bisection_sweep,
    build_subsolution,
    solve_normalized,
    solve_pinned,
)
from equisub.roots import bisect, expand_bracket, newton
from equisub.system import Bounds, SubsolutionHints, SupplySystem, eval_supply
from equisub.demand import (
    bridge_model,
    build_demand_system,
    demand_logit,
    demand_mc,
    logit_mc_model,
    logit_model,
    pure_characteristics_model,
    rc_logit_model,
)
from equisub.estimation import ThetaSpec
from equisub.matching import (
    DIST_LOGMEAN,
    MarketPrimitives,
    build_mfe_system,
    etu_family,
    itu_family,
    ntu_family,
    tu_family,
)

from conftest import LN2, jacobi_log_linear_sweep, staged_grid_solve


# ----------------------------------------------------------------------
# eval_supply


def test_eval_supply_logit_uniform(logit3):
    system, _ = logit3
    out = eval_supply(system, np.zeros(3))
    assert np.allclose(out, 1.0 / 3.0, atol=1e-14)


def test_eval_supply_tu_1x1_at_origin():
    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((1, 1))), n=np.array([1.0]), m=np.array([1.0])
    )
    system, q = build_mfe_system(prim)
    out = eval_supply(system, np.zeros(2))
    assert np.allclose(out, [-1.0, 1.0], atol=1e-14)
    assert system.balance_constant == 0.0
    assert np.allclose(q, [-1.0, 1.0])


def test_eval_supply_out_of_bounds():
    system = SupplySystem(
        dim=2,
        eval_fn=lambda p: np.array([p[0], -p[0]]),
        bounds=Bounds(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
    )
    with pytest.raises(OutOfBounds):
        eval_supply(system, np.array([2.0, 0.0]))


def test_eval_supply_nonfinite():
    system = SupplySystem(
        dim=2,
        eval_fn=lambda p: np.array([np.nan, 0.0]),
        bounds=Bounds.unbounded(2),
    )
    with pytest.raises(NonFinite):
        eval_supply(system, np.zeros(2))


def test_eval_supply_balance_violated():
    system = SupplySystem(
        dim=2,
        eval_fn=lambda p: np.array([1.0, 1.0]),
        bounds=Bounds.unbounded(2),
        balance_constant=0.0,
    )
    with pytest.raises(BalanceViolated):
        eval_supply(system, np.zeros(2))


def test_matching_system_balance_sampled(tu_2x2_diag):
    _, system, _ = tu_2x2_diag
    rng = np.random.default_rng(0)
    for p in rng.uniform(-5, 5, size=(100, 4)):
        out = eval_supply(system, p)
        assert abs(out.sum()) <= 1e-10


# ----------------------------------------------------------------------
# bisection_sweep


def test_bisection_sweep_logit_closed_form(logit3):
    system, _ = logit3
    p = np.array([5.0, 0.0, 0.0])
    t = bisection_sweep(system, np.array([0.25, 0.5, 0.25]), p, 1)[0]
    # e^t / (e^t + 2) = 1/4  =>  t = ln(2/3)
    assert abs(t - np.log(2.0 / 3.0)) < 1e-10


def test_bisection_sweep_tu_1x1():
    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((1, 1))), n=np.array([1.0]), m=np.array([1.0])
    )
    system, q = build_mfe_system(prim)
    t = bisection_sweep(system, q, np.array([3.0, 0.0]), 1)[0]
    assert abs(t) < 1e-10  # -a = 0 solves exp(a/2) = 1


def test_bisection_sweep_left_root_of_flat_interval():
    # piecewise-linear section, flat (at the target) on [1, 2]: the sweep
    # must come back with the left endpoint of the root interval
    breaks_x = np.array([-10.0, 0.0, 1.0, 2.0, 10.0])
    breaks_y = np.array([-10.0, 0.0, 0.5, 0.5, 8.5])

    def Q(p):
        v = np.interp(p[0], breaks_x, breaks_y)
        return np.array([v, -v])

    system = SupplySystem(dim=2, eval_fn=Q, bounds=Bounds.unbounded(2))
    t = bisection_sweep(
        system, np.array([0.5, -0.5]), np.array([5.0, 0.0]), 1,
        SolverOptions(tol_inner=1e-12),
    )[0]
    assert abs(t - 1.0) < 1e-9


def test_bisection_sweep_no_bracket():
    # bounded section of coordinate 1 that never reaches the target; the
    # pin is coordinate 0, so the section is element 0 of the sweep
    def Q(p):
        v = np.tanh(p[1])
        return np.array([-v, v])

    system = SupplySystem(dim=2, eval_fn=Q, bounds=Bounds.unbounded(2))
    with pytest.raises(NoBracket) as info:
        bisection_sweep(system, np.array([-2.0, 2.0]), np.zeros(2), 0)
    assert info.value.coordinate == 1


# ----------------------------------------------------------------------
# root kernel


def test_bisect_array_matches_scalar_calls():
    roots = np.array([-3.7, 0.0, 0.25, 12.5])

    def section(r):
        return lambda t: (t - r) * np.abs(t - r)

    lo, hi = expand_bracket(section(roots), np.zeros(4))
    _, batch = bisect(section(roots), lo, hi, 1e-12)
    for r, got in zip(roots, batch):
        lo_r, hi_r = expand_bracket(section(r), 0.0)
        assert bisect(section(r), lo_r, hi_r, 1e-12)[1] == got
    assert np.allclose(batch, roots, atol=1e-10)


def test_newton_array_matches_scalar_calls():
    # x / (1 + |x|) saturates, so far from the root a Newton step
    # overshoots the bracket and the midpoint fallback must take over
    roots = np.array([-3.7, 0.0, 0.25, 13.0])

    def section(r):
        return lambda t: ((t - r) / (1.0 + np.abs(t - r)), 1.0 / (1.0 + np.abs(t - r)) ** 2)

    def value(r):
        return lambda t: section(r)(t)[0]

    lo, hi = expand_bracket(value(roots), np.zeros(4))
    batch = newton(section(roots), lo, hi, 1e-13)
    for r, got, lo_r, hi_r in zip(roots, batch, lo, hi):
        assert newton(section(r), *expand_bracket(value(r), 0.0), 1e-13) == got
        assert lo_r <= got <= hi_r
        assert abs(value(r)(got)) <= 1e-13
    # the first step of the last section leaves its bracket
    mid = 0.5 * (lo[3] + hi[3])
    f, slope = section(roots[3])(mid)
    assert not lo[3] < mid - f / slope < hi[3]


def test_expand_bracket_names_failing_element():
    # element 2 asks tanh for a level it never reaches
    levels = np.array([0.5, -0.5, 2.0])
    with pytest.raises(NoBracket) as info:
        expand_bracket(lambda t: np.tanh(t) - levels, np.zeros(3))
    assert info.value.coordinate == 2


# ----------------------------------------------------------------------
# build_subsolution


def test_build_subsolution_requires_hints():
    system = SupplySystem(
        dim=2, eval_fn=lambda p: np.array([p[0], -p[0]]), bounds=Bounds.unbounded(2)
    )
    with pytest.raises(HintsMissing):
        build_subsolution(system, np.zeros(2), 0, 0.0)


def test_build_subsolution_tu_2x2(tu_2x2_symmetric):
    _, system, q = tu_2x2_symmetric
    pin = system.subsolution_hints.ordering[0]
    p0 = build_subsolution(system, q, pin, 0.0)
    out = eval_supply(system, p0)
    off = [z for z in range(system.dim) if z != pin]
    assert np.all(out[off] <= q[off] + 1e-9)
    assert p0[pin] == 0.0


def test_build_subsolution_logit(logit3):
    system, s = logit3
    p0 = build_subsolution(system, s, 0, 0.0)
    out = eval_supply(system, p0)
    assert np.all(out[1:] <= s[1:] + 1e-9)


def _planted_market(kind, X, Y, seed=0):
    # masses from planted fees; the pinned column's gamma is raised so that
    # ETU's saturating row envelopes (M_x0 < 2 exp(b_0 + gamma_x0)) can
    # still reach the row masses.  Returns the system, targets and planted pin.
    rng = np.random.default_rng(seed)
    alpha, gamma = rng.normal(0.0, 0.5, (2, X, Y))
    gamma[:, 0] += 3.0
    a, b = rng.normal(0.0, 0.25, X), rng.normal(0.0, 0.25, Y)
    fam = {"TU": tu_family(alpha=alpha, gamma=gamma), "NTU": ntu_family(alpha + gamma),
           "ETU": etu_family(alpha, gamma)}[kind]
    mu = fam.match(a, b)
    system, q = build_mfe_system(MarketPrimitives(family=fam, n=mu.sum(axis=1), m=mu.sum(axis=0)))
    return system, q, float(b[0])


def _assert_subsolution(system, q, pin, pin_value, p0):
    off = np.arange(system.dim) != pin
    assert p0[pin] == pin_value
    assert np.all(eval_supply(system, p0)[off] <= q[off] + 1e-9)


@pytest.mark.parametrize("kind", ["TU", "NTU", "ETU"])
def test_build_subsolution_walks_each_block_once(kind, monkeypatch):
    # rows, then free columns: one walk per block, not one per coordinate
    # (a 12 x 9 market has 20 free coordinates)
    system, q, pin_value = _planted_market(kind, 12, 9)
    pin = system.subsolution_hints.ordering[0]
    walks = []
    walk = solver.expand_bracket

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(solver, "expand_bracket", counted)
    p0 = build_subsolution(system, q, pin, pin_value)
    assert 1 <= len(walks) <= 2
    _assert_subsolution(system, q, pin, pin_value, p0)


def test_build_subsolution_names_the_stuck_system_coordinate():
    # block [1, 3]: coordinate 1 starts below its target and is not walked,
    # coordinate 3's envelope never drops, so the walk's failing element 0
    # is system coordinate 3 (not block entry 0, coordinate 1)
    hints = SubsolutionHints(
        ordering=(0, np.array([1, 3]), np.array([2])),
        envelopes=(
            lambda p: np.array([p[1] - p[0] - 1.0, 1.0]),
            lambda p: np.array([p[2] - p[0]]),
        ),
    )
    system = SupplySystem(
        dim=4,
        eval_fn=lambda p: p - p.mean(),
        bounds=Bounds(np.full(4, -5.0), np.full(4, 5.0)),
        subsolution_hints=hints,
    )
    with pytest.raises(EnvelopeNotDownwardResponsive, match=r"coordinate 3 stays"):
        build_subsolution(system, np.zeros(4), 0, 0.0)


def _demand_case(kind):
    if kind == "logit-mc":
        model, delta = logit_mc_model(5, R=2000, seed=3), np.array([0.3, -0.2, 0.1, 0.5, -0.4])
    else:
        model = bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=2000, seed=31)
        delta = np.array([-2.0, -1.4, -1.0, -0.7])
    return build_demand_system(model), demand_mc(model, delta), float(delta[0])


# empty column blocks (Y = 1), one-entry blocks and X >= 8 markets, and the
# singleton blocks of simulated demand
SUBSOLUTION_CASES = [
    pytest.param(partial(_planted_market, kind, X, Y, X * Y), id=f"{kind}-{X}x{Y}")
    for kind in ("TU", "NTU")
    for X, Y in ((1, 1), (1, 4), (4, 1), (8, 8), (12, 9))
] + [pytest.param(partial(_demand_case, kind), id=kind) for kind in ("logit-mc", "bridge")]


@pytest.mark.parametrize("case", SUBSOLUTION_CASES)
def test_build_subsolution_is_a_subsolution(case):
    system, q, pin_value = case()
    pin = system.subsolution_hints.ordering[0]
    for shift in (0.0, -1.5, 1.0):
        p0 = build_subsolution(system, q, pin, pin_value + shift)
        _assert_subsolution(system, q, pin, pin_value + shift, p0)


# ----------------------------------------------------------------------
# solve_pinned


def test_solve_pinned_logit_log_odds(logit3):
    system, s = logit3
    rep = solve_pinned(system, s, 0, 0.0)
    assert np.allclose(rep.p_star, [0.0, -LN2, -LN2], atol=1e-8)
    assert rep.residual <= 1e-9
    assert rep.monotone_certificate


def test_solve_pinned_tu_1x1():
    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((1, 1))), n=np.array([1.0]), m=np.array([1.0])
    )
    system, q = build_mfe_system(prim)
    pin = system.subsolution_hints.ordering[0]
    rep = solve_pinned(system, q, pin, 0.0)
    assert np.allclose(rep.p_star, [0.0, 0.0], atol=1e-9)


def test_solve_pinned_matches_grid_reference(tu_2x2_diag):
    _, system, q = tu_2x2_diag
    pin = system.subsolution_hints.ordering[0]
    rep = solve_pinned(system, q, pin, 0.0)
    ref = staged_grid_solve(system, q, pin, 0.0)
    assert np.max(np.abs(rep.p_star - ref)) <= 1e-3


def _tu_count_sized_cycle():
    # count-sized TU targets: from this point the closed-form Jacobi sweep
    # cycles by one unit in the last place of p, with the residual at the
    # rounding floor of q (the library's TU sweep returns its own output)
    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((2, 2))),
        n=np.array([500410.0, 499590.0]),
        m=np.array([498945.0, 501055.0]),
    )
    system, q = build_mfe_system(prim)
    system = replace(system, sweep_solver=jacobi_log_linear_sweep(prim.family, 2))
    p0 = np.array([-12.430853301234087, -12.427573300498931, 12.424993962049484, 12.433433974574761])
    return system, q, 12.424993962049484, p0, SolverOptions(tol_outer=1e-13, max_iter_jacobi=2000)


def _etu_gradient_cycle():
    # a pinned solve of the ETU likelihood-gradient test: the Newton sweep
    # reaches a fixed point whose step exceeds tol_outer while its residual
    # is already below it
    basis = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    fam = ThetaSpec(kind="ETU", alpha0=np.zeros((2, 2)), alpha_basis=basis).family(np.array([0.25, 0.1]))
    q = np.array([-4.000000000000077, -3.999999999999922, 3.999999999999769, 4.00000000000023])
    system, _ = build_mfe_system(MarketPrimitives(family=fam, n=-q[:2], m=q[2:]))
    p0 = np.array([-0.2829316919101304, -0.28293169191047307, 1.0, 0.999999999992707])
    return system, q, 0.0, p0, SolverOptions(tol_outer=1e-11, max_iter_jacobi=2000)


@pytest.mark.parametrize(
    "case, max_sweeps", [(_tu_count_sized_cycle, 99), (_etu_gradient_cycle, 101)], ids=["TU", "ETU"]
)
def test_solve_pinned_stops_at_a_rounding_cycle(case, max_sweeps):
    # a fixed point of the sweep can make no further progress: its residual
    # alone decides, and within the rounding floor it ends as converged, not
    # spinning to max_iter_jacobi or stopping unconverged on its step
    system, q, pin_value, p0, opts = case()
    rep = solve_pinned(system, q, 2, pin_value, opts, p0=p0)
    assert rep.iterations <= max_sweeps
    assert rep.residual <= opts.tol_outer + ROUNDING_FLOOR * np.abs(q).sum()


def test_solve_pinned_names_a_sweep_root_outside_the_box():
    # logit shares on the box delta < 0: with good 0 pinned at -1, good 1's
    # root -1 + log 4 lies above the bound, so no pinned solution exists
    system = SupplySystem(
        dim=2,
        eval_fn=demand_logit,
        bounds=Bounds(np.full(2, -np.inf), np.zeros(2)),
        balance_constant=1.0,
        sweep_solver=lambda q, p, pin: p[pin] + np.log(q) - np.log(q[pin]),
    )
    with pytest.raises(NoBracket) as info:
        solve_pinned(system, np.array([0.2, 0.8]), 0, -1.0, p0=np.array([-1.0, -5.0]))
    assert info.value.coordinate == 1
    assert info.value.report.iterations == 1


def test_solve_pinned_ends_unconverged_at_a_fixed_point_above_tolerance():
    # a sweep that returns its input makes step 0 at once: the residual alone
    # decides, and 1e-3 is far above tol_outer
    system = SupplySystem(
        dim=2,
        eval_fn=lambda p: np.array([p[0] - p[1], p[1] - p[0]]),
        bounds=Bounds.unbounded(2),
        sweep_solver=lambda q, p, pin: p,
    )
    with pytest.raises(MaxIterExceeded) as info:
        solve_pinned(system, np.array([1e-3, -1e-3]), 0, 0.0, p0=np.zeros(2))
    assert info.value.report.iterations == 1
    assert info.value.report.residual == 1e-3


def test_jacobi_iterates_monotone_from_cold_start(tu_2x2_diag, logit3):
    for system, q in (tu_2x2_diag[1:], logit3):
        pin = (
            system.subsolution_hints.ordering[0]
            if system.subsolution_hints is not None
            else 0
        )
        rep = solve_pinned(system, q, pin, 0.0)
        assert rep.monotone_certificate


def test_inverse_isotonicity_in_targets(logit3):
    # scale one share up (and the rest down): the solved qualities off the
    # pinned coordinate move the same way as the targets
    system, _ = logit3
    s1 = np.array([0.5, 0.25, 0.25])
    s2 = np.array([0.25, 0.35, 0.4])  # both non-pinned targets rise relative to the pinned one
    p1 = solve_pinned(system, s1, 0, 0.0).p_star
    p2 = solve_pinned(system, s2, 0, 0.0).p_star
    assert p2[1] > p1[1] - 1e-9
    assert p2[2] > p1[2] - 1e-9


def test_pin_monotonicity(tu_2x2_symmetric):
    _, system, q = tu_2x2_symmetric
    pin = system.subsolution_hints.ordering[0]
    free = [z for z in range(system.dim) if z != pin]
    prev = None
    for g in (-1.0, -0.5, 0.0, 0.5, 1.0):
        p = solve_pinned(system, q, pin, g).p_star
        if prev is not None:
            assert np.all(p[free] >= prev[free] - 1e-8)
        prev = p


# ----------------------------------------------------------------------
# solve_normalized


def test_solve_normalized_coordinate_agrees_with_pinned(logit3):
    system, s = logit3
    rep_pin = solve_pinned(system, s, 0, 0.0)
    rep_norm = solve_normalized(system, s, coordinate(0), 0.0)
    assert np.max(np.abs(rep_pin.p_star - rep_norm.p_star)) <= 1e-8


def test_solve_normalized_mean_logit(logit3):
    system, s = logit3
    rep = solve_normalized(system, s, mean(), 0.0)
    expected = np.array([2 * LN2 / 3, 2 * LN2 / 3 - LN2, 2 * LN2 / 3 - LN2])
    assert np.max(np.abs(rep.p_star - expected)) <= 1e-8
    assert abs(mean()(rep.p_star)) <= 1e-9


def test_solve_normalized_max_tu_symmetric(tu_2x2_symmetric):
    _, system, q = tu_2x2_symmetric
    rep = solve_normalized(system, q, max_coordinate(), 0.0)
    # p = (-a, b): a = (0, 0), b = (-2 ln 2, -2 ln 2)
    assert np.allclose(rep.p_star[:2], 0.0, atol=1e-7)
    assert np.allclose(rep.p_star[2:], -2 * LN2, atol=1e-7)


def test_bracket_widths_halve_exactly(logit3):
    system, s = logit3
    rep = solve_normalized(system, s, mean(), 0.3)
    widths = [hi - lo for lo, hi in rep.bracket_history]
    for w0, w1 in zip(widths, widths[1:]):
        assert w1 == 0.5 * w0
    assert abs(mean()(rep.p_star) - 0.3) <= 1e-9


def test_dichotomy_that_cannot_meet_the_level_raises_with_its_best_report(logit3):
    # psi jumps by 0.1 where the mean crosses 0, so it never takes the level
    # 0.05: the bracket closes on the jump, the gap stays 0.05, and after 20
    # extra halvings below tol_bracket the solve gives up
    system, s = logit3
    opts = SolverOptions()
    jump = Normalization(eval_fn=lambda p: float(np.mean(p) + 0.1 * (np.mean(p) > 0)))
    with pytest.raises(MaxIterExceeded) as info:
        solve_normalized(system, s, jump, 0.05, opts)
    rep = info.value.report
    assert rep.outer_solves == 1  # logit is translation-invariant: shifts
    widths = [hi - lo for lo, hi in rep.bracket_history]
    for w0, w1 in zip(widths, widths[1:]):
        assert w1 == 0.5 * w0
    assert all(w < opts.tol_bracket for w in widths[-21:])
    assert widths[-22] >= opts.tol_bracket
    assert abs(jump(rep.p_star) - 0.05) >= 0.05 - 1e-9


def test_solve_normalized_unique_across_starting_guesses(logit3):
    system, s = logit3
    rep1 = solve_normalized(system, s, mean(), 0.0, pin_guess=-3.0)
    rep2 = solve_normalized(system, s, mean(), 0.0, pin_guess=4.0)
    assert np.max(np.abs(rep1.p_star - rep2.p_star)) <= 1e-8


def test_solve_normalized_rejects_out_of_range_level(logit3):
    system, s = logit3
    with pytest.raises(OutOfBounds):
        solve_normalized(system, s, mean(value_range=(-1.0, 1.0)), 5.0)


# ----------------------------------------------------------------------
# normalizations and renormalize


@given(
    p=st.lists(st.floats(-20, 20), min_size=2, max_size=6),
    t=st.floats(-10, 10),
)
@settings(max_examples=100, deadline=None)
def test_unit_translation_property(p, t):
    p = np.asarray(p, dtype=float)
    for norm in (coordinate(0), mean(), max_coordinate(), min_coordinate()):
        assert abs(norm(p + t) - (norm(p) + t)) <= 1e-9 * (1 + abs(t) + abs(norm(p)))


def test_renormalize_sum_behaves_like_mean():
    norm = renormalize(lambda p: float(np.sum(p)))
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.uniform(-5, 5, 4)
        t = rng.uniform(-3, 3)
        assert abs(norm(p) - np.mean(p)) <= 1e-9
        assert abs(norm(p + t) - (norm(p) + t)) <= 1e-9


def test_renormalize_coordinate_and_max_are_fixed_points():
    rng = np.random.default_rng(4)
    norm_c = renormalize(lambda p: float(p[1]))
    norm_m = renormalize(lambda p: float(np.max(p)))
    for _ in range(25):
        p = rng.uniform(-5, 5, 3)
        assert abs(norm_c(p) - p[1]) <= 1e-9
        assert abs(norm_m(p) - np.max(p)) <= 1e-9


def test_normalization_gradients():
    p = np.array([0.3, -1.0, 2.0, 0.5])
    # a renormalized map has no closed-form gradient: central differences
    grad = renormalize(lambda p: p.mean() - 0.3).grad(p)
    assert np.max(np.abs(grad - 0.25)) <= 1e-6
    assert max_coordinate().grad(p).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert min_coordinate().grad(p).tolist() == [0.0, 1.0, 0.0, 0.0]


def test_renormalize_rejects_diagonally_flat_map():
    # constant along the diagonal direction: no unique root exists
    flat = renormalize(lambda p: float(p[0] - p[1]))
    with pytest.raises(NotDiagonallyStrict):
        flat(np.array([1.0, 0.0]))


# ----------------------------------------------------------------------
# translation invariance: the trait the normalized solver shifts along

R_TRAIT = 500


def _market(family):
    X, Y = family.shape
    return build_mfe_system(MarketPrimitives(family, np.full(X, float(Y)), np.full(Y, float(X))))[0]


# builder -> (system from an rng, tolerance of Q(p + t) = Q(p))
INVARIANT_BUILDERS = {
    "TU": (lambda rng: _market(tu_family(*rng.normal(0.0, 0.5, (2, 3, 4)))), 1e-12),
    "TU-surplus": (lambda rng: _market(tu_family(phi=rng.normal(0.0, 0.5, (3, 2)))), 1e-12),
    "NTU": (lambda rng: _market(ntu_family(rng.normal(0.0, 0.5, (4, 3)))), 1e-12),
    "logit": (lambda rng: build_demand_system(logit_model(4)), 1e-12),
    "logit-mc": (lambda rng: build_demand_system(logit_mc_model(4, R_TRAIT, int(rng.integers(100)))), 1.0 / R_TRAIT),
    "rc-logit": (
        lambda rng: build_demand_system(
            rc_logit_model(rng.normal(size=(4, 2)), np.array([0.5, 1.0]), R_TRAIT, int(rng.integers(100)))
        ),
        1.0 / R_TRAIT,
    ),
    "pure-characteristics": (
        lambda rng: build_demand_system(pure_characteristics_model(rng.normal(size=4), R_TRAIT, int(rng.integers(100)))),
        1.0 / R_TRAIT,
    ),
}


@pytest.mark.parametrize("name", list(INVARIANT_BUILDERS))
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-5.0, 5.0))
@settings(max_examples=20, deadline=None)
def test_translation_invariant_builders_are_invariant(name, seed, t):
    make, tol = INVARIANT_BUILDERS[name]
    rng = np.random.default_rng(seed)
    system = make(rng)
    assert system.translation_invariant
    p = rng.uniform(-2.0, 2.0, system.dim)
    assert np.max(np.abs(eval_supply(system, p + t) - eval_supply(system, p))) <= tol


def test_translation_invariance_is_not_declared_where_it_fails():
    rng = np.random.default_rng(0)
    alpha, gamma = rng.normal(0.0, 0.5, (2, 3, 3))
    etu = _market(etu_family(alpha, gamma))
    itu = _market(itu_family(alpha, gamma, DIST_LOGMEAN))
    bridge = build_demand_system(bridge_model(np.array([0.0, 0.5, 1.0]), R_TRAIT, 1))
    boxed = replace(logit_mc_model(3, R_TRAIT, 1), bounds=Bounds(np.full(3, -10.0), np.full(3, 10.0)))
    for system in (etu, itu, bridge, build_demand_system(boxed)):
        assert not system.translation_invariant
    # ETU is visibly not invariant: one shift moves the matches
    p = rng.uniform(-1.0, 1.0, etu.dim)
    assert np.max(np.abs(eval_supply(etu, p + 1.0) - eval_supply(etu, p))) > 1e-2


def test_translation_invariant_system_needs_an_unbounded_box():
    with pytest.raises(DimensionMismatch):
        SupplySystem(
            dim=2,
            eval_fn=lambda p: np.array([0.5, 0.5]),
            bounds=Bounds(np.array([-1.0, -np.inf]), np.full(2, np.inf)),
            translation_invariant=True,
        )


def _widths(rep):
    return [hi - lo for lo, hi in rep.bracket_history]


def test_shift_keeps_the_dichotomy_of_criterion_04(tu_2x2_diag):
    # criterion 04's two systems are translation-invariant: the pin values
    # are reached by shifts, but the dichotomy still halves a real bracket
    _, tu, q = tu_2x2_diag
    cases = [(tu, q), (build_demand_system(logit_model(3)), np.array([0.5, 0.3, 0.2]))]
    for system, q in cases:
        assert system.translation_invariant
        rep = solve_normalized(system, q, mean(), 0.0)
        widths = _widths(rep)
        assert len(widths) >= 20
        assert all(w1 == 0.5 * w0 for w0, w1 in zip(widths, widths[1:]))
        assert rep.outer_solves == 1
        assert abs(rep.normalization_value) <= SolverOptions().tol_bracket


def test_non_invariant_market_still_solves_every_probe():
    # the planted ETU 2x2 mean-psi market of test_matching: no shift, so
    # every probe of the dichotomy is a real pinned solve
    rng = np.random.default_rng(0)
    alpha, gamma = rng.normal(0.0, 0.5, (2, 2, 2))
    a_star, b_star = rng.normal(0.0, 0.25, (2, 2))
    fam = etu_family(alpha, gamma)
    mu = fam.match(a_star, b_star)
    system, q = build_mfe_system(MarketPrimitives(family=fam, n=mu.sum(axis=1), m=mu.sum(axis=0)))
    assert not system.translation_invariant
    rep = solve_normalized(system, q, mean(), float(np.mean(np.r_[-a_star, b_star])))
    widths = _widths(rep)
    assert rep.outer_solves > 2
    assert len(widths) >= 20
    assert all(w1 == 0.5 * w0 for w0, w1 in zip(widths, widths[1:]))
