"""Core solver tests: supply evaluation, coordinate updates, pinned Jacobi
solves, the normalized outer search, and normalization algebra."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisub.errors import (
    BalanceViolated,
    HintsMissing,
    NoBracket,
    NonFinite,
    NotDiagonallyStrict,
    OutOfBounds,
)
from equisub.normalization import (
    coordinate,
    max_coordinate,
    mean,
    min_coordinate,
    renormalize,
)
from equisub.solver import (
    SolverOptions,
    build_subsolution,
    coordinate_update,
    solve_normalized,
    solve_pinned,
)
from equisub.roots import bisect, expand_bracket
from equisub.system import Bounds, SubsolutionHints, SupplySystem, eval_supply
from equisub.matching import MarketPrimitives, build_mfe_system, tu_family

from conftest import LN2, staged_grid_solve


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
# coordinate_update


def test_coordinate_update_logit_closed_form(logit3):
    system, _ = logit3
    p = np.array([5.0, 0.0, 0.0])
    t = coordinate_update(system, np.array([0.25, 0.5, 0.25]), p, 0)
    # e^t / (e^t + 2) = 1/4  =>  t = ln(2/3)
    assert abs(t - np.log(2.0 / 3.0)) < 1e-10


def test_coordinate_update_tu_1x1():
    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((1, 1))), n=np.array([1.0]), m=np.array([1.0])
    )
    system, q = build_mfe_system(prim)
    t = coordinate_update(system, q, np.array([3.0, 0.0]), 0)
    assert abs(t) < 1e-10  # -a = 0 solves exp(a/2) = 1


def test_coordinate_update_left_root_of_flat_interval():
    # piecewise-linear section, flat (at the target) on [1, 2]: the update
    # must come back with the left endpoint of the root interval
    breaks_x = np.array([-10.0, 0.0, 1.0, 2.0, 10.0])
    breaks_y = np.array([-10.0, 0.0, 0.5, 0.5, 8.5])

    def Q(p):
        v = np.interp(p[0], breaks_x, breaks_y)
        return np.array([v, -v])

    system = SupplySystem(dim=2, eval_fn=Q, bounds=Bounds.unbounded(2))
    t = coordinate_update(
        system, np.array([0.5, -0.5]), np.array([5.0, 0.0]), 0,
        SolverOptions(tol_inner=1e-12),
    )
    assert abs(t - 1.0) < 1e-9


def test_coordinate_update_no_bracket():
    # bounded section that never reaches the target
    def Q(p):
        v = np.tanh(p[0])
        return np.array([v, -v])

    system = SupplySystem(dim=2, eval_fn=Q, bounds=Bounds.unbounded(2))
    with pytest.raises(NoBracket):
        coordinate_update(system, np.array([2.0, -2.0]), np.zeros(2), 0)


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


def test_renormalize_rejects_diagonally_flat_map():
    # constant along the diagonal direction: no unique root exists
    flat = renormalize(lambda p: float(p[0] - p[1]))
    with pytest.raises(NotDiagonallyStrict):
        flat(np.array([1.0, 0.0]))
