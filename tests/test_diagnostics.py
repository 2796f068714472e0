"""Structure probes: regular systems must pass, planted counterexamples
must be flagged, and the grid reference solver must agree with closed
forms."""
import dataclasses

import numpy as np
import pytest

from equisub.demand import bridge_model, build_demand_system, demand_logit, demand_mc, logit_model
from equisub.diagnostics import (
    GridSpec,
    brute_force_solve,
    check_connected_strict_substitutes,
    check_pivotal_substitutes,
    check_responsiveness,
    check_weak_substitutes,
)
from equisub.errors import GridTooLarge
from equisub.system import Bounds, SupplySystem

from conftest import LN2


def _plain_system(dim, fn):
    return SupplySystem(dim=dim, eval_fn=fn, bounds=Bounds.unbounded(dim))


# ----------------------------------------------------------------------
# regular systems pass


def test_logit_passes_all_probes():
    system = build_demand_system(logit_model(3))
    s = np.array([0.5, 0.3, 0.2])
    assert check_weak_substitutes(system).passed
    assert check_pivotal_substitutes(system, s).passed
    assert check_responsiveness(system, s).passed
    assert check_connected_strict_substitutes(system).passed


def test_matching_system_passes_probes(tu_2x2_diag):
    _, system, q = tu_2x2_diag
    assert check_weak_substitutes(system).passed
    assert check_pivotal_substitutes(system, q).passed
    assert check_responsiveness(system, q).passed
    assert check_connected_strict_substitutes(system).passed


# ----------------------------------------------------------------------
# planted counterexamples are detected


def test_cross_increasing_system_flagged():
    # first output rises with the second price: not substitutes
    def Q(p):
        return np.array([p[0] + p[1], -(p[0] + p[1])])

    rep = check_weak_substitutes(_plain_system(2, Q))
    assert not rep.passed
    kinds = {v["kind"] for v in rep.violations}
    assert "cross_increasing" in kinds


def test_constant_system_fails_pivotal_probe():
    q = np.array([0.5, 0.5])
    rep = check_pivotal_substitutes(_plain_system(2, lambda p: q.copy()), q)
    assert not rep.passed


def test_bounded_system_fails_responsiveness():
    def Q(p):
        v = np.tanh(p[0])
        return np.array([v, -v])

    rep = check_responsiveness(_plain_system(2, Q), np.array([2.0, -2.0]), samples=20)
    assert not rep.passed


def test_decoupled_blocks_fail_connectedness():
    # two independent 2-good logit blocks: no substitution across blocks
    def Q(p):
        return np.concatenate([demand_logit(p[:2]), demand_logit(p[2:])])

    rep = check_connected_strict_substitutes(_plain_system(4, Q), samples=200)
    assert not rep.passed


@pytest.mark.parametrize("seed", [0, 1])
def test_decoupled_blocks_separate_pivotal_from_responsiveness(seed):
    # both checks run one probe ladder on different sets: responsiveness
    # pushes and reads one good, which each logit block answers; pivotal
    # substitutes pushes the complement of a subset and reads the subset,
    # which a block containing the whole subset ignores
    def Q(p):
        return np.concatenate([demand_logit(p[:2]), demand_logit(p[2:])])

    system, q = _plain_system(4, Q), np.full(4, 0.5)
    assert check_responsiveness(system, q, seed=seed).passed
    rep = check_pivotal_substitutes(system, q, seed=seed)
    assert not rep.passed
    for v in rep.violations:
        # every flagged subset is a union of whole blocks
        assert {0, 1} <= set(v["subset"]) or {0, 1}.isdisjoint(v["subset"])
        assert {2, 3} <= set(v["subset"]) or {2, 3}.isdisjoint(v["subset"])


@pytest.mark.parametrize("seed", [0, 1])
def test_probes_stay_inside_the_open_box(seed):
    # bridge demand is defined on delta < 0 only; every bump and ladder push
    # toward the bound must stop short of it
    model = bridge_model(np.array([0.0, 0.5, 1.0, 1.5]), R=2000, seed=31)
    system = build_demand_system(model)
    q = demand_mc(model, np.array([-2.0, -1.4, -1.0, -0.7]))
    points = []

    def record(p):
        points.append(np.array(p, dtype=float))
        return system.eval_fn(p)

    probed = dataclasses.replace(system, eval_fn=record)
    check_weak_substitutes(probed, seed=seed)
    check_pivotal_substitutes(probed, q, seed=seed)
    check_responsiveness(probed, q, seed=seed)
    check_connected_strict_substitutes(probed, seed=seed)
    P = np.array(points)
    assert len(P) > 0
    assert np.all(P < 0.0)
    assert np.max(P) > -1e-6  # some probe was held at the bound's margin


def test_reports_never_raise_and_expose_counts():
    rep = check_weak_substitutes(_plain_system(2, lambda p: np.array([p[1], p[0]])))
    assert rep.samples_tested == 200
    assert rep.passed == (len(rep.violations) == 0)


# ----------------------------------------------------------------------
# brute-force grid reference


def test_grid_reference_tu_1x1():
    from equisub.matching import MarketPrimitives, build_mfe_system, tu_family

    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((1, 1))), n=np.array([1.0]), m=np.array([1.0])
    )
    system, q = build_mfe_system(prim)
    pin = system.subsolution_hints.ordering[0]
    grid = GridSpec(lows=np.array([-1.0]), highs=np.array([1.0]), step=1e-3)
    p, res = brute_force_solve(system, q, pin, 0.0, grid)
    assert abs(p[0]) <= 1e-3 + 1e-12


def test_grid_reference_logit_matches_log_odds():
    system = build_demand_system(logit_model(3))
    s = np.array([0.5, 0.25, 0.25])
    grid = GridSpec(lows=np.full(2, -1.0), highs=np.full(2, 0.0), step=1e-3)
    p, res = brute_force_solve(system, s, 0, 0.0, grid)
    assert np.max(np.abs(p[1:] - (-LN2))) <= 1e-3 + 1e-12


def test_grid_reference_without_eval_batch_matches_batched():
    # row by row through eval_fn finds the same first minimum as eval_batch
    system = build_demand_system(logit_model(3))
    s = np.array([0.5, 0.25, 0.25])
    grid = GridSpec(lows=np.full(2, -2.0), highs=np.full(2, 1.0), step=0.05)
    p, res = brute_force_solve(system, s, 0, 0.0, grid)
    p_rows, res_rows = brute_force_solve(dataclasses.replace(system, eval_batch=None), s, 0, 0.0, grid)
    assert np.array_equal(p_rows, p)
    assert res_rows == res


def test_grid_cap_enforced():
    system = build_demand_system(logit_model(4))
    grid = GridSpec(lows=np.full(3, -5.0), highs=np.full(3, 5.0), step=1e-3, cap=10_000)
    with pytest.raises(GridTooLarge):
        brute_force_solve(system, np.full(4, 0.25), 0, 0.0, grid)
