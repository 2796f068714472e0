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
        return bool(((self.lower < p) & (p < self.upper)).all())


@dataclass(frozen=True)
class SubsolutionHints:
    """Blocks of coordinates and their upper envelopes, used to build a
    starting point.

    ordering[0] is the pinned coordinate; for k >= 1, ordering[k] is a
    block, a 1-d integer array of coordinates (possibly empty).
    envelopes[k-1] is a callable p -> array with one value per coordinate
    of block k, each bounding Q_z(p) from above for its coordinate z while
    reading only the pin, the earlier blocks and p[z], and each can be
    pushed below any target by lowering p[z].
    """

    ordering: tuple
    envelopes: tuple


@dataclass(frozen=True)
class SupplySystem:
    """Q(p) = q problem data.

    eval_fn maps a 1-d price vector to the output vector.  Optional fields:

    - eval_batch(P) maps an (N, dim) array of price rows to the (N, dim)
      array of their outputs, row by row as eval_fn would;
    - sweep_solver(q, p, pin) returns the next iterate of the pinned
      solve at p: any point between the Jacobi sweep at p (every free
      coordinate's left root of Q_z(t, p_{-z}) = q[z] given the others)
      and the pinned solution.  A sweep that stops at the pinned solution
      must return its own output unchanged, bit for bit, so that the
      pinned solve sees step 0 and judges the residual.  The exact-logit
      and TU/NTU sweeps jump to the solution, the ETU/ITU sweep is block
      Gauss-Seidel (rows, then columns given the new rows), the others are
      Jacobi.  The caller resets the pinned entry, and a root outside the
      box makes the pinned solve raise NoBracket; the sweep need not keep
      its result inside the bounds.  Without one, the pinned solver sweeps
      by bracketing and bisection (solver.bisection_sweep);
    - translation_invariant: Q(p + t*1) = Q(p) wherever p and p + t*1
      both lie in the box, so a pinned solution shifted by a constant and
      still in the box is the pinned solution at the shifted pin.  Builders
      set it where it holds, whatever the bounds; it is not a solver option.
    """

    dim: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    bounds: Bounds
    balance_constant: float = 0.0
    subsolution_hints: Optional[SubsolutionHints] = None
    eval_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sweep_solver: Optional[Callable[[np.ndarray, np.ndarray, int], np.ndarray]] = None
    translation_invariant: bool = False
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

