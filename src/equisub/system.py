"""Supply systems: vector maps Q(p) = q with a balance constraint.

A system maps a price vector p in an open box to an output vector Q(p)
whose coordinates always sum to a fixed constant c.  Everything downstream
(the pinned solver, the normalized solver, matching and demand builders)
works through this container.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BalanceViolated, DimensionMismatch, NonFinite, OutOfBounds

BALANCE_TOL = 1e-10


@dataclass(frozen=True)
class Bounds:
    """Open box (lower, upper) per coordinate; infinities allowed."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise DimensionMismatch("each lower bound must lie below the upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def unbounded(cls, dim: int) -> "Bounds":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, p: np.ndarray) -> bool:
        return bool(np.all(p > self.lower) and np.all(p < self.upper))


@dataclass(frozen=True)
class SubsolutionHints:
    """Ordering and upper envelopes used to build a starting point.

    ordering[0] is the pinned coordinate.  For k >= 1, envelopes[k-1] is a
    callable p -> float bounding Q_{ordering[k]}(p) from above while
    depending only on the coordinates ordering[0..k], and it can be pushed
    below any target by lowering p[ordering[k]].
    """

    ordering: tuple
    envelopes: tuple


@dataclass(frozen=True)
class SupplySystem:
    """Q(p) = q problem data.

    eval_fn maps a 1-d price vector to the output vector.  Optional fields:

    - eval_batch(P) maps an (N, dim) array of price rows to the (N, dim)
      array of their outputs, row by row as eval_fn would;
    - sweep_solver(q, p, pin) returns the whole Jacobi sweep at p: every
      free coordinate's left root of Q_z(t, p_{-z}) = q[z] given the
      others (the caller resets the pinned entry and keeps the result
      inside the bounds).  Without one, the pinned solver sweeps by
      bracketing and bisection (solver.bisection_sweep).
    """

    dim: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    bounds: Bounds
    balance_constant: float = 0.0
    subsolution_hints: Optional[SubsolutionHints] = None
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sweep_solver: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    label: str = ""
    # not a field: perfbench/tracing.py reads it when it wraps a system
    coordinate_solver = None

    def __post_init__(self):
        if self.bounds.dim != self.dim:
            raise DimensionMismatch("bounds dimension does not match system dimension")


def eval_supply(system: SupplySystem, p: np.ndarray) -> np.ndarray:
    """Evaluate Q(p), enforcing bounds, finiteness and the balance identity."""
    p = np.asarray(p, dtype=float)
    if p.shape != (system.dim,):
        raise DimensionMismatch(f"expected price vector of length {system.dim}")
    if not system.bounds.contains(p):
        raise OutOfBounds("price vector outside the admissible open box")
    q = np.asarray(system.eval_fn(p), dtype=float)
    if q.shape != (system.dim,):
        raise DimensionMismatch("system map returned wrong dimension")
    if not np.all(np.isfinite(q)):
        raise NonFinite("system map returned nonfinite output")
    c = system.balance_constant
    # scale the guard with the output magnitude: summing large entries
    # (e.g. count-sized margins) carries rounding of order eps * ||q||_1
    if abs(q.sum() - c) > BALANCE_TOL * (1.0 + abs(c) + np.abs(q).sum()):
        raise BalanceViolated(
            f"outputs sum to {q.sum():.12g}, expected {c:.12g}"
        )
    return q

