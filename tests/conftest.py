"""Shared fixtures: small closed-form systems used across the test suite."""
import numpy as np
import pytest
from scipy.special import logsumexp

from equisub.demand import build_demand_system, logit_model
from equisub.matching import MarketPrimitives, build_mfe_system, tu_family

LN2 = np.log(2.0)


@pytest.fixture
def logit3():
    """3-good logit system with target shares (0.5, 0.25, 0.25)."""
    system = build_demand_system(logit_model(3))
    s = np.array([0.5, 0.25, 0.25])
    return system, s


@pytest.fixture
def tu_2x2_diag():
    """2x2 transferable-utility market with diagonal surplus 2*ln(2)."""
    phi = np.array([[2 * LN2, 0.0], [0.0, 2 * LN2]])
    prim = MarketPrimitives(
        family=tu_family(phi=phi), n=np.array([1.0, 1.0]), m=np.array([1.0, 1.0])
    )
    system, q = build_mfe_system(prim)
    return prim, system, q


@pytest.fixture
def tu_2x2_symmetric():
    """2x2 transferable-utility market with zero surplus everywhere."""
    prim = MarketPrimitives(
        family=tu_family(phi=np.zeros((2, 2))),
        n=np.array([1.0, 1.0]),
        m=np.array([1.0, 1.0]),
    )
    system, q = build_mfe_system(prim)
    return prim, system, q


def jacobi_log_linear_sweep(fam, X):
    """Reference sweep of a TU/NTU family: the closed-form root of every
    accounting equation at p, each given the others (one Jacobi sweep)."""
    s, phi = fam.log_linear, fam.phi

    def sweep(q, p, pin):
        a, b = -p[:X], p[X:]
        a_new = (np.log(-q[:X]) - logsumexp(s * (phi + b[None, :]), axis=1)) / s
        b_new = (np.log(q[X:]) - logsumexp(s * (phi + a[:, None]), axis=0)) / s
        return np.concatenate([-a_new, b_new])

    return sweep


def staged_grid_solve(system, q, pin, pin_value, lo=-5.0, hi=5.0,
                      steps=(0.25, 0.025, 0.005, 0.001), pad=1.5):
    """Brute-force reference solve refined over successively finer grids.

    Each stage re-centers a grid of the next step size on the best point of
    the previous stage, so the final answer is accurate to the last step
    without ever materializing the full fine grid.
    """
    from equisub.diagnostics import GridSpec, brute_force_solve

    free = system.dim - 1
    lows = np.full(free, lo)
    highs = np.full(free, hi)
    best = None
    for step in steps:
        grid = GridSpec(lows=lows, highs=highs, step=step)
        best, _ = brute_force_solve(system, q, pin, pin_value, grid)
        vals = np.delete(best, pin)
        lows = vals - pad * step
        highs = vals + pad * step
    return best
