"""Sampling-based structure checks and a brute-force grid reference solver.

The check_* functions probe a system on random points and report
violations; they never raise on a failed property.  brute_force_solve is a
slow grid-scan oracle used to cross-check the fast solvers on tiny
problems.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .errors import GridTooLarge
from .solver import BOUND_MARGIN
from .system import Bounds, SupplySystem

DEFAULT_BOX = 5.0
PROBE_MAGNITUDES = (10.0, 20.0, 40.0)
TOL = 1e-8  # an output must move past its reference by more than this
TOL_STRICT = 1e-10  # the strict drop connected-strict substitutes needs
BUMP = 0.5  # price step of the two substitutes checks


@dataclass
class PropertyReport:
    property_name: str
    samples_tested: int
    violations: List[dict] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class GridSpec:
    lows: np.ndarray
    highs: np.ndarray
    step: float
    cap: int = 2_000_000

    def axis(self, i: int) -> np.ndarray:
        return np.arange(self.lows[i], self.highs[i] + 0.5 * self.step, self.step)


def probe_range(bounds: Bounds, box) -> Tuple[np.ndarray, np.ndarray]:
    """Per-coordinate (lo, hi) of the probes: the user box (+/-box for a
    scalar) within the bound box shrunk by 1e-6 on its finite sides."""
    lo, hi = (-float(box), float(box)) if np.isscalar(box) else box
    return np.maximum(lo, bounds.lower + 1e-6), np.minimum(hi, bounds.upper - 1e-6)


def _setup(name: str, system: SupplySystem, samples: int, seed: int, box):
    """A check's empty report, its generator and its sample points: uniform
    draws over probe_range (box DEFAULT_BOX unless given)."""
    rng = np.random.default_rng(seed)
    lo, hi = probe_range(system.bounds, DEFAULT_BOX if box is None else box)
    return PropertyReport(name, samples), rng, rng.uniform(lo, hi, size=(samples, system.dim))


def _subset(rng: np.random.Generator, dim: int):
    """A random proper nonempty subset of the coordinates and its complement."""
    X = rng.choice(dim, size=int(rng.integers(1, dim)), replace=False)
    return X, np.setdiff1d(np.arange(dim), X)


def _bump(system: SupplySystem, p: np.ndarray, idx) -> Optional[np.ndarray]:
    """p with the prices idx raised by BUMP, kept below a finite upper bound;
    None when none of them can rise."""
    p2 = p.copy()
    p2[idx] = np.minimum(p[idx] + BUMP, system.bounds.upper[idx] - BOUND_MARGIN)
    return p2 if np.any(p2[idx] > p[idx]) else None


def _ladder(system: SupplySystem, p: np.ndarray, pushed, read, target: float, sign: float):
    """The probe ladder: for each T in PROBE_MAGNITUDES, set the prices
    pushed to +T, then to -T (kept inside the open box), and compare the
    output sum over read with target.  Returns [some +T push moved the sum
    past target in the direction sign, some -T push moved it past in the
    direction -sign]; stops once both hold."""
    lo = system.bounds.lower[pushed] + BOUND_MARGIN
    hi = system.bounds.upper[pushed] - BOUND_MARGIN
    crossed = [False, False]
    for T in PROBE_MAGNITUDES:
        for k, d in enumerate((1.0, -1.0)):
            p2 = p.copy()
            p2[pushed] = np.clip(d * T, lo, hi)
            s = d * sign  # +/-1: exactly total > target + TOL or total < target - TOL
            if s * np.asarray(system.eval_fn(p2), dtype=float)[read].sum() > s * target + TOL:
                crossed[k] = True
        if all(crossed):
            break
    return crossed


def check_weak_substitutes(
    system: SupplySystem,
    samples: int = 200,
    seed: int = 0,
    box=None,
) -> PropertyReport:
    """Own coordinate nondecreasing, cross coordinates nonincreasing."""
    rep, rng, pts = _setup("weak_substitutes", system, samples, seed, box)
    for p in pts:
        z = int(rng.integers(system.dim))
        p2 = _bump(system, p, z)
        if p2 is None:
            continue
        q1 = np.asarray(system.eval_fn(p), dtype=float)
        q2 = np.asarray(system.eval_fn(p2), dtype=float)
        if q2[z] < q1[z] - TOL:
            rep.violations.append(
                {"kind": "own_decreasing", "coordinate": z, "p": p.tolist(), "drop": float(q1[z] - q2[z])}
            )
        others = np.delete(np.arange(system.dim), z)
        rises = q2[others] - q1[others]
        bad = others[rises > TOL]
        for y in bad:
            rep.violations.append(
                {"kind": "cross_increasing", "coordinate": int(y), "moved": z, "p": p.tolist(), "rise": float(q2[y] - q1[y])}
            )
    return rep


def check_pivotal_substitutes(
    system: SupplySystem,
    q: np.ndarray,
    samples: int = 50,
    seed: int = 0,
    box=None,
) -> PropertyReport:
    """Pushing off-subset prices to either extreme moves the subset aggregate
    strictly past its target."""
    q = np.asarray(q, dtype=float)
    rep, rng, pts = _setup("pivotal_substitutes", system, samples, seed, box)
    for p in pts:
        X, comp = _subset(rng, system.dim)
        below, above = _ladder(system, p, comp, X, q[X].sum(), -1.0)
        if not (below and above):
            rep.violations.append(
                {
                    "subset": [int(i) for i in X],
                    "p": p.tolist(),
                    "pushed_below": below,
                    "pushed_above": above,
                }
            )
    return rep


def check_responsiveness(
    system: SupplySystem,
    q: np.ndarray,
    samples: int = 50,
    seed: int = 0,
    box=None,
) -> PropertyReport:
    """Each coordinate map crosses its target as its own price sweeps the
    probe ladder."""
    q = np.asarray(q, dtype=float)
    rep, rng, pts = _setup("responsiveness", system, samples, seed, box)
    for p in pts:
        z = int(rng.integers(system.dim))
        above, below = _ladder(system, p, z, z, q[z], 1.0)
        if not (above and below):
            rep.violations.append(
                {
                    "coordinate": z,
                    "p": p.tolist(),
                    "crosses_above": above,
                    "crosses_below": below,
                }
            )
        else:
            rep.notes = "crossing brackets recorded"
    return rep


def check_connected_strict_substitutes(
    system: SupplySystem,
    samples: int = 200,
    seed: int = 0,
    box=None,
) -> PropertyReport:
    """Raising all prices off a proper subset must strictly lower the subset
    aggregate; decoupled (block) systems fail this when the subset is a block.

    The joint raise is the operative form: individual cross effects are
    allowed to be zero (and are, e.g., within one side of a two-sided
    market), as long as the substitution graph leaves no subset isolated.
    """
    rep, rng, pts = _setup("connected_strict_substitutes", system, samples, seed, box)
    for p in pts:
        X, comp = _subset(rng, system.dim)
        p2 = _bump(system, p, comp)  # raise every off-subset coordinate together
        if p2 is None:
            continue
        agg1 = np.asarray(system.eval_fn(p), dtype=float)[X].sum()
        agg2 = np.asarray(system.eval_fn(p2), dtype=float)[X].sum()
        if not (agg2 < agg1 - TOL_STRICT):
            rep.violations.append(
                {
                    "subset": [int(i) for i in X],
                    "raised": [int(i) for i in comp],
                    "p": p.tolist(),
                    "drop": float(agg1 - agg2),
                }
            )
    return rep


def brute_force_solve(
    system: SupplySystem,
    q: np.ndarray,
    pin: int,
    pin_value: float,
    grid: GridSpec,
) -> Tuple[np.ndarray, float]:
    """Grid-scan reference solver: minimize the sup-norm residual of
    Q(p) = q over a rectangular grid on the non-pinned coordinates.

    Returns (best point, best residual).  Intended for cross-checking on
    problems with at most a few free coordinates; raises GridTooLarge when
    the grid exceeds its cap.
    """
    q = np.asarray(q, dtype=float)
    free = [z for z in range(system.dim) if z != pin]
    axes = [grid.axis(i) for i in range(len(free))]
    n_points = int(np.prod([a.size for a in axes]))
    if n_points > grid.cap:
        raise GridTooLarge(f"{n_points} grid points exceeds cap {grid.cap}")

    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)  # (N, n_free)
    P = np.empty((n_points, system.dim))
    P[:, pin] = pin_value
    for j, z in enumerate(free):
        P[:, z] = pts[:, j]

    if system.eval_batch is not None:
        Q = np.asarray(system.eval_batch(P), dtype=float)
    else:
        Q = np.array([system.eval_fn(row) for row in P], dtype=float)
    res = np.max(np.abs(Q - q[None, :]), axis=1)
    best = int(np.argmin(res))
    return P[best], float(res[best])
