"""Left roots of nondecreasing scalar sections, element by element.

Under gross substitutability every coordinate section t -> Q_z(t, p_-z) is
nondecreasing, so each scalar equation the package solves has a root set
that is an interval, and the solvers want its left end.  expand_bracket
walks from a start point until the sign changes; bisect then halves the
bracket on the predicate f >= 0, or newton steps on a smooth f's slope.
All three work on arrays of independent equations: f maps an array of
points to an array of values of the same shape.
"""
from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .errors import NoBracket

Section = Callable[[np.ndarray], np.ndarray]

STEP = 1.0  # first step of an expand_bracket walk; later steps double
NEWTON_STEPS = 100  # cap on the steps of one newton call


def expand_bracket(
    f: Section,
    x0,
    lower=-np.inf,
    upper=np.inf,
    *,
    fx0=None,
    closed: bool = False,
    max_expansions: int = 64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Bracket the left root of a nondecreasing f, element by element.

    Returns (lo, hi) with f(lo) < 0 <= f(hi), or f(lo) <= 0 <= f(hi) when
    closed.  An element whose start cannot serve as lo walks down from x0,
    any other walks up, in steps 1, 2, 4, ... (times STEP); lo and hi are
    the last two points of the walk, x0 counting as the first.  Probes stay
    in the box [lower, upper].  fx0 is f(x0) when the caller already has
    it; +inf or -inf forces a walk down or up without evaluating f at x0.

    Raises NoBracket, naming the first failing element, when a walk hits
    the box or has not crossed after max_expansions doublings of the step.
    """
    x0 = np.asarray(x0, dtype=float)
    fx = np.zeros(x0.shape) + (f(x0) if fx0 is None else fx0)
    down = fx > 0 if closed else fx >= 0
    sign = np.where(down, -1.0, 1.0)

    step = STEP
    last = prev = x0
    todo = np.ones(x0.shape, dtype=bool)
    for _ in range(max_expansions + 1):
        probe = np.where(todo, np.minimum(np.maximum(last + sign * step, lower), upper), last)
        failed = todo & (sign * (probe - last) <= 0)
        if failed.any():
            reason = "keeps its sign up to the bound"
            break
        fp = np.asarray(f(probe), dtype=float)
        prev = np.where(todo, last, prev)
        last = probe
        fx = np.where(todo, fp, fx)
        todo &= ~np.where(down, (fp <= 0) if closed else (fp < 0), fp >= 0)
        if not todo.any():
            return np.where(down, last, prev), np.where(down, prev, last)
        step *= 2.0
    else:
        failed, reason = todo, f"did not cross zero after {max_expansions} expansions"
    i = int(np.flatnonzero(failed)[0])
    where = f" at element {i}" if x0.ndim else ""
    raise NoBracket(f"section {reason}{where}", coordinate=i, last_value=float(fx.flat[i]))


def bisect(f: Section, lo, hi, tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """Halve brackets around the left root of a nondecreasing f.

    Keeps f(hi) >= 0 and moves lo up while f(mid) < 0, until each bracket is
    narrower than tol * max(1, |lo|, |hi|) or can no longer be split.  lo
    and hi broadcast against the values of f.  Returns (lo, hi); hi is the
    left-root estimate.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    while True:
        mid = 0.5 * (lo + hi)
        wide = hi - lo > tol * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        active = wide & (mid > lo) & (mid < hi)
        if not active.any():
            return lo, hi
        high = np.asarray(f(np.where(active, mid, hi)), dtype=float) >= 0
        hi = np.where(active & high, mid, hi)
        lo = np.where(active & ~high, mid, lo)


def newton(f, lo, hi, tol: float) -> np.ndarray:
    """Safeguarded Newton for the roots of increasing f, f(lo) < 0 <= f(hi).

    f maps t to (f(t), f'(t)).  Each element starts at its bracket's
    midpoint and keeps the bracket; a step that leaves it (or a slope <= 0)
    goes to the midpoint.  An element stops at |f| <= tol, after a step
    below rounding (1e-15 * max(1, |t|), taken) or after NEWTON_STEPS steps.
    """
    t = 0.5 * (lo + hi)
    todo = np.ones(np.shape(t), dtype=bool)
    for _ in range(NEWTON_STEPS):
        fx, slope = f(t)
        lo, hi = np.where(todo & (fx < 0), t, lo), np.where(todo & (fx >= 0), t, hi)
        todo &= np.abs(fx) > tol
        if not todo.any():
            break
        nxt = t - fx / np.where(slope > 0, slope, np.nan)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
        settled = np.abs(nxt - t) <= 1e-15 * np.maximum(1.0, np.abs(t))
        t, todo = np.where(todo, nxt, t), todo & ~settled
    return t
