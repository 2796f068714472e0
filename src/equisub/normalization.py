"""Price normalizations: scalar maps with the unit translation property.

A normalization psi satisfies psi(p + t*1) = psi(p) + t, is nondecreasing
in every coordinate, and pins down the one remaining degree of freedom of
a balanced system through psi(p) = K.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NoBracket, NotDiagonallyStrict
from .roots import bisect, expand_bracket

RENORM_TOL = 1e-12  # bisection tolerance of the diagonal root
FLAT_PROBE = 1e-3   # offset of the flat-at-root probes


@dataclass(frozen=True)
class Normalization:
    """Scalar normalization map with optional gradient.

    index is i when psi(p) = p[i] for one fixed coordinate i (coordinate(i)),
    else None; value_range is the open interval of attainable levels K.
    """

    eval_fn: Callable[[np.ndarray], float]
    index: Optional[int] = None
    value_range: Tuple[float, float] = (-np.inf, np.inf)
    grad_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, p: np.ndarray) -> float:
        return float(self.eval_fn(np.asarray(p, dtype=float)))

    def grad(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(p), dtype=float)
        # central differences fallback
        h = 1e-6
        g = np.empty_like(p)
        for i in range(p.size):
            e = np.zeros_like(p)
            e[i] = h
            g[i] = (self.eval_fn(p + e) - self.eval_fn(p - e)) / (2 * h)
        return g


def _selected(pick: Callable[[np.ndarray], int], value_range, index: Optional[int] = None) -> Normalization:
    """psi(p) = p[i] with i = pick(p); gradient one-hot at i."""

    def _grad(p):
        g = np.zeros_like(p)
        g[pick(p)] = 1.0
        return g

    return Normalization(
        eval_fn=lambda p: float(p[pick(p)]),
        index=index,
        value_range=value_range,
        grad_fn=_grad,
    )


def coordinate(index: int, value_range=(-np.inf, np.inf)) -> Normalization:
    """psi(p) = p[index]."""
    return _selected(lambda p: index, value_range, index)


def mean(value_range=(-np.inf, np.inf)) -> Normalization:
    """psi(p) = average of the coordinates.

    The plain sum scales the translation by the dimension and so fails the
    unit translation property; the average is the corrected version.  A sum
    convention can still be obtained through renormalize().
    """

    return Normalization(
        eval_fn=lambda p: float(np.mean(p)),
        value_range=value_range,
        grad_fn=lambda p: np.full_like(p, 1.0 / p.size),
    )


def max_coordinate(value_range=(-np.inf, np.inf)) -> Normalization:
    """psi(p) = max coordinate (gradient: one-hot at the first argmax)."""
    return _selected(np.argmax, value_range)


def min_coordinate(value_range=(-np.inf, np.inf)) -> Normalization:
    """psi(p) = min coordinate (gradient: one-hot at the first argmin)."""
    return _selected(np.argmin, value_range)


def renormalize(raw: Callable[[np.ndarray], float]) -> Normalization:
    """Turn a raw scalar map into a proper normalization.

    The returned psi(p) is the root t of raw(p - t*1) = 0, located by
    bracketed bisection along the diagonal.  If raw is nondecreasing
    coordinatewise then t -> raw(p - t*1) is nonincreasing; psi inherits
    monotonicity and gains the exact unit translation property, and
    psi(p) = 0 exactly on the zero set of raw.

    Raises NotDiagonallyStrict when raw is flat along the diagonal either
    globally (no bracket) or on an interval around its root.
    """

    def _eval(p):
        p = np.asarray(p, dtype=float)

        def f(t):
            # nondecreasing in t because raw is nondecreasing coordinatewise
            return -float(raw(p - t * np.ones_like(p)))

        f0 = f(0.0)
        root = 0.0
        if f0 != 0:
            try:
                lo, hi = expand_bracket(f, 0.0, fx0=f0, closed=True)
            except NoBracket as exc:
                if abs(exc.last_value - f0) <= RENORM_TOL:
                    raise NotDiagonallyStrict("raw map is flat along the diagonal") from exc
                raise
            root = float(bisect(f, lo, hi, RENORM_TOL)[1])

        # flat-at-root detection: a strictly increasing diagonal section has
        # f < 0 just left of the root and f > 0 just right of it
        if f(root + FLAT_PROBE) <= 0.0 or f(root - FLAT_PROBE) >= 0.0:
            raise NotDiagonallyStrict("raw map is flat on an interval at its root")
        return root

    return Normalization(eval_fn=_eval)
