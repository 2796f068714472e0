"""Pinned and normalized solvers for balanced systems with substitutes.

solve_pinned fixes one coordinate and iterates a sweep from a point where
the system lies weakly below its targets: the system's sweep_solver, which
returns a point between the Jacobi sweep (every free coordinate's scalar
equation solved given the others) and the pinned solution, such as a block
Gauss-Seidel sweep, else bisection_sweep, the Jacobi sweep itself.  Under
gross substitutability the iterates increase monotonically to the pinned
solution.  solve_normalized wraps the pinned solver in a bisection on the
pinned value to meet psi(p) = K; on a translation-invariant system its
probes shift one pinned solution while the shift stays in the box.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    BracketNotFound,
    EnvelopeNotDownwardResponsive,
    HintsMissing,
    MaxIterExceeded,
    NoBracket,
    OutOfBounds,
)
from .normalization import Normalization
from .roots import bisect, expand_bracket
from .system import SupplySystem, eval_supply

# residual a sweep fixed point may keep per unit of ||q||_1 from rounding
ROUNDING_FLOOR = 64 * np.finfo(float).eps
BOUND_MARGIN = 1e-9      # sweep roots and probes lie this far inside bounds
MAX_SWEEPS = 10_000      # sweeps of one pinned solve
MAX_ITER_BRACKET = 200   # halvings of the dichotomy on the pinned value


@dataclass(frozen=True)
class SolverOptions:
    """The algorithm's two stopping rules and its refinement switch."""

    tol_outer: float = 1e-9          # sup-norm residual and step ending a pinned solve
    tol_bracket: float = 1e-9        # dichotomy bracket width on the pinned value
    refine_factor: float = 1e-4      # tol_outer shrink for tight re-solves; 1.0 turns
                                     # refinement off (simulated supply at 1/R)


@dataclass
class SolveReport:
    p_star: np.ndarray
    residual: float
    iterations: int
    monotone_certificate: bool
    normalization_value: Optional[float] = None
    bracket_history: List[Tuple[float, float]] = field(default_factory=list)
    outer_solves: int = 0


def _walk(f, x0, system: SupplySystem, z, **kwargs):
    """expand_bracket BOUND_MARGIN inside the bounds of coordinate(s) z."""
    lower, upper = system.bounds.lower[z], system.bounds.upper[z]
    return expand_bracket(f, x0, lower + BOUND_MARGIN, upper - BOUND_MARGIN, **kwargs)


def bisection_sweep(
    system: SupplySystem,
    q: np.ndarray,
    p: np.ndarray,
    pin: int,
    opts: SolverOptions = SolverOptions(),
) -> np.ndarray:
    """One Jacobi sweep by bracketing and bisection, for any system.

    Returns p with every free z set to the left root of Q_z(t, p_-z) = q[z],
    all sections solved as one array and each bisected to a relative width
    of 1e-3 * tol_outer (at least 1e-14); trial rows go through eval_batch,
    or eval_fn row by row.  NoBracket names the failing system coordinate.
    """
    p = np.asarray(p, dtype=float)
    free = np.flatnonzero(np.arange(system.dim) != pin)
    rows = np.arange(free.size)

    def sections(t):
        trial = np.repeat(p[None, :], free.size, axis=0)
        trial[rows, free] = t
        if system.eval_batch is not None:
            out = np.asarray(system.eval_batch(trial), dtype=float)[rows, free]
        else:
            out = np.array([system.eval_fn(row)[z] for row, z in zip(trial, free)], dtype=float)
        return out - q[free]

    try:
        lo, hi = _walk(sections, p[free], system, free)
    except NoBracket as exc:
        exc.coordinate = int(free[exc.coordinate])
        raise
    p_new = p.copy()
    p_new[free] = bisect(sections, lo, hi, max(1e-3 * opts.tol_outer, 1e-14))[1]
    return p_new


def build_subsolution(
    system: SupplySystem,
    q: np.ndarray,
    pin: int,
    pin_value: float,
) -> np.ndarray:
    """Construct p0 with p0[pin] = pin_value and Q(p0) <= q off the pin.

    Walks the hinted blocks in order: the coordinates of a block whose
    envelope values exceed their targets are pushed down as one closed walk
    until each drops (weakly) below its target; the others keep their start
    point.  Because each envelope dominates its coordinate map and reads
    only the pin, earlier blocks and its own coordinate, the finished point
    is a subsolution.  A walk that cannot cross raises
    EnvelopeNotDownwardResponsive naming the system coordinate.
    """
    hints = system.subsolution_hints
    if hints is None:
        raise HintsMissing("system carries no subsolution hints")
    ordering = list(hints.ordering)
    if ordering[0] != pin:
        raise HintsMissing(
            f"hinted ordering starts at {ordering[0]}, but coordinate {pin} is pinned"
        )
    if len(hints.envelopes) != len(ordering) - 1:
        raise HintsMissing("need one envelope per hinted block")

    q = np.asarray(q, dtype=float)
    p = np.zeros(system.dim)
    # start from the middle of any finite box sides
    for i in range(system.dim):
        lo, hi = system.bounds.lower[i], system.bounds.upper[i]
        if np.isfinite(lo) and np.isfinite(hi):
            p[i] = 0.5 * (lo + hi)
        elif np.isfinite(hi):
            p[i] = hi - 1.0
        elif np.isfinite(lo):
            p[i] = lo + 1.0
    p[pin] = pin_value

    for block, env in zip(ordering[1:], hints.envelopes):
        f0 = env(p) - q[block]
        over = f0 > 0
        z = block[over]
        if not z.size:
            continue

        def excess(t):
            p[z] = t
            return env(p)[over] - q[z]

        try:
            lo, _ = _walk(excess, p[z], system, z, fx0=f0[over], closed=True)
        except NoBracket as exc:
            raise EnvelopeNotDownwardResponsive(
                f"envelope for coordinate {z[exc.coordinate]} stays above its target: {exc}"
            ) from exc
        p[z] = lo

    qval = eval_supply(system, p)
    mask = np.ones(system.dim, dtype=bool)
    mask[pin] = False
    slack = 1e-9 * (1.0 + np.abs(q))
    if not np.all(qval[mask] <= q[mask] + slack[mask]):
        raise EnvelopeNotDownwardResponsive(
            "hinted envelopes produced a point above the targets"
        )
    return p


def solve_pinned(
    system: SupplySystem,
    q: np.ndarray,
    pin: int,
    pin_value: float,
    opts: SolverOptions = SolverOptions(),
    p0: Optional[np.ndarray] = None,
) -> SolveReport:
    """Monotone sweep iteration to Q(p) = q with p[pin] = pin_value fixed.

    Starts from a subsolution (built from hints unless p0 is supplied) and
    iterates the system's sweep_solver, or the Jacobi bisection_sweep
    without one; a sweep that jumps to the pinned solution ends the solve
    at the second sweep, which returns the same point.
    This is the only verdict on a pinned solve:

    - away from a fixed point, convergence requires both the sup-norm
      residual and the sup-norm step to fall below tol_outer;
    - at a fixed point of the sweep up to rounding (step 0, or a sweep that
      returns the iterate before last) the residual alone decides: up to
      tol_outer + ROUNDING_FLOOR * ||q||_1 it is converged, above it the
      solve ends unconverged (MaxIterExceeded);
    - a sweep root of a free coordinate outside [lower + BOUND_MARGIN,
      upper - BOUND_MARGIN] raises NoBracket naming that coordinate: no
      pinned solution exists in the box at this pin.

    A NoBracket, from a sweep or from its result, carries the report of
    the iterate that sweep started from, its iterations counting the
    failed sweep.
    """
    q = np.asarray(q, dtype=float)
    if p0 is None:
        p = build_subsolution(system, q, pin, pin_value)
    else:
        p = np.asarray(p0, dtype=float).copy()
        p[pin] = pin_value

    sweep = system.sweep_solver or (lambda q, p, pin: bisection_sweep(system, q, p, pin, opts))
    lo_in, hi_in = system.bounds.lower + BOUND_MARGIN, system.bounds.upper - BOUND_MARGIN
    monotone = True
    qval = eval_supply(system, p)
    p_prev = None  # the iterate before p

    def report(it: int) -> SolveReport:
        return SolveReport(
            p_star=p,
            residual=float(np.max(np.abs(qval - q))),
            iterations=it,
            monotone_certificate=monotone,
        )

    for it in range(1, MAX_SWEEPS + 1):
        try:
            p_new = np.array(sweep(q, p, pin), dtype=float)
            p_new[pin] = pin_value
            # a root outside the box is no root: the section keeps its sign
            # up to the bound, as bisection_sweep's walk reports it
            outside = (p_new < lo_in) | (p_new > hi_in)
            outside[pin] = False
            if outside.any():
                z = int(np.flatnonzero(outside)[0])
                raise NoBracket(
                    f"sweep root {p_new[z]:.6g} of coordinate {z} lies outside its bounds",
                    coordinate=z,
                )
        except NoBracket as exc:
            # the failed sweep counts: report the iterate it started from
            exc.report = report(it)
            raise
        monotone = monotone and not np.any(p_new < p - 1e-12)
        step = float(np.max(np.abs(p_new - p)))
        qval = eval_supply(system, p_new)
        # a fixed point of the sweep map up to rounding (step 0, or a
        # two-cycle in the last bits: a Jacobi sweep at count-sized targets
        # can flip p by one unit in the last place) can make no further
        # progress, so its residual alone decides.  It may sit at the
        # rounding floor of the targets, of order eps * ||q||_1 for
        # count-sized q (the scaling eval_supply's balance guard allows);
        # above that (e.g. simulated supply with finite resolution) stop now
        # instead of spinning.
        at_fixed_point = step == 0.0 or (p_prev is not None and np.array_equal(p_new, p_prev))
        p_prev, p = p, p_new
        residual = float(np.max(np.abs(qval - q)))
        if at_fixed_point:
            if residual <= opts.tol_outer + ROUNDING_FLOOR * np.abs(q).sum():
                return report(it)
            break
        if residual <= opts.tol_outer and step <= opts.tol_outer:
            return report(it)

    rep = report(it)
    raise MaxIterExceeded(
        f"pinned solve did not converge in {it} sweeps (residual {rep.residual:.3e})",
        report=rep,
    )


def solve_normalized(
    system: SupplySystem,
    q: np.ndarray,
    norm: Normalization,
    K: float,
    opts: SolverOptions = SolverOptions(),
    pin_guess: float = 0.0,
) -> SolveReport:
    """Solve Q(p) = q subject to psi(p) = K.

    Every pin value is reached through one pin search, phi: one pinned
    solve warm-started from the last solved pin, judged by solve_pinned
    alone and only once (a solved pin is reused unless asked for a tighter
    tol_outer).  When that solve raises NoBracket (a sweep root leaves the
    box) or EnvelopeNotDownwardResponsive, no pinned solution exists at the
    pin, and phi signs psi +/-inf by the side of the solved range the pin
    lies on; a MaxIterExceeded propagates.  Before any pin has solved, a
    failed cold solve names its side of the window of cold-solvable pins
    (EnvelopeNotDownwardResponsive below, NoBracket above); a one-way walk
    from the pin, then a bisection on the failure side, finds the first
    anchor or raises BracketNotFound, and the pin is tried once more.

    When psi reads the pinned coordinate the answer is phi at K.  Otherwise
    the solve bisects on the pinned value, comparing psi at each pinned
    solution with K: the bracket is located by geometric expansion from
    pin_guess and then halved exactly (the width sequence is width0 / 2^k
    in floating point) until it is narrower than tol_bracket and the
    normalization gap is within tol_bracket.  If it gives up after a probe
    with no pinned solution, no solvable pin reaches K: BracketNotFound.

    On a translation-invariant system every real pinned solve runs at the
    tight tolerance, and every pin after the first is reached by shifting
    the last solution by a constant (kept when it lies in the box and its
    re-measured residual meets the probe's tol_outer, copying the source's
    iterations and certificate; otherwise a real solve starts from it, or
    from the last solution if it left the box), so a solve whose shifts all
    hold makes one pinned solve.  Shifts are not pinned solves:
    outer_solves counts real ones only.
    """
    lo_K, hi_K = norm.value_range
    if not (lo_K < K < hi_K):
        raise OutOfBounds(f"target level {K} outside the attainable range {norm.value_range}")

    hints = system.subsolution_hints
    pin = int(hints.ordering[0]) if hints is not None else 0
    tight_opts = replace(opts, tol_outer=max(opts.tol_outer * opts.refine_factor, 1e-13))

    solves = 0  # real pinned solves; shifts do not count
    warm: Optional[SolveReport] = None  # last real pinned solution
    feas_hi = -np.inf
    # one verdict per pin, reused if it met the requested tol_outer: (report,
    # its tol_outer), or (None, -inf) after a NoBracket, which no start point
    # changes (a cold EnvelopeNotDownwardResponsive is none: a warm start may)
    verdicts: Dict[float, Tuple[Optional[SolveReport], float]] = {}

    def solve_at(g: float, use: SolverOptions) -> Tuple[Optional[SolveReport], float]:
        # (report, 0) for the pinned solution at g, or (None, side) when it
        # fails: side -1 below the window of cold-solvable pins (no
        # subsolution can be built), +1 above it (a sweep root leaves the box)
        nonlocal solves, warm, feas_hi
        known, tol = verdicts.get(g, (None, np.inf))
        if tol <= use.tol_outer:
            return (known, 0.0) if known is not None else (None, 1.0)
        p0 = None if warm is None else warm.p_star
        if system.translation_invariant:
            shifted = None if warm is None else warm.p_star + (g - warm.p_star[pin])
            if shifted is not None and system.bounds.contains(shifted):
                # Q(p + t*1) = Q(p) in the box: the solved point shifted to
                # pin g is the pinned solution at g up to rounding, which the
                # re-measured residual checks without ROUNDING_FLOOR (with it,
                # a count-sized shift is kept at the rounding floor unsolved,
                # and criterion 11's count-scale MLE stalls at 2.4e-3)
                p0 = shifted
                p0[pin] = g
                residual = float(np.max(np.abs(eval_supply(system, p0) - q)))
                if residual <= use.tol_outer:
                    feas_hi = max(feas_hi, g)
                    return SolveReport(
                        p_star=p0,
                        residual=residual,
                        iterations=warm.iterations,
                        monotone_certificate=warm.monotone_certificate,
                    ), 0.0
            # later pins shift this solution: solve it tightly, so that psi
            # does not move when the tight probes begin
            use = tight_opts
        solves += 1
        try:
            rep = solve_pinned(system, q, pin, g, use, p0=p0)
        except NoBracket:
            verdicts[g] = (None, -np.inf)
            return None, 1.0
        except EnvelopeNotDownwardResponsive:
            return None, -1.0
        warm = rep
        feas_hi = max(feas_hi, g)
        verdicts[g] = (rep, use.tol_outer)
        return rep, 0.0

    def anchor(g: float, side: float) -> None:
        # label is -1 below the window, +1 above it and 0 once any pin has
        # solved: the first solved pin stops the walk, and the bisection
        # makes no further solves
        def label(t) -> float:
            return solve_at(float(t), opts)[1] if warm is None else 0.0

        try:
            lo, hi = _walk(label, g, system, pin, fx0=side, closed=True)
        except NoBracket as exc:
            raise BracketNotFound(f"no pin value admits a pinned solution: {exc}") from exc
        if warm is None:
            bisect(label, lo, hi, opts.tol_bracket)
        if warm is None:
            raise BracketNotFound("no pin value admits a pinned solution")

    def phi(g: float, tight: bool = False) -> Tuple[float, Optional[SolveReport]]:
        # Re-pinning a solved point higher gives a subsolution and lower a
        # supersolution (by substitutability), so one warm solve from the
        # last solved pin reaches any pin that has a pinned solution, and
        # covers pins the cold-start envelope construction cannot reach.
        # If it fails, no pinned solution exists at g, and psi is signed
        # +/-inf by which side of the solved range g lies on, which keeps
        # the bisection direction correct.
        use = tight_opts if tight else opts
        for _ in range(2):
            rep, side = solve_at(g, use)
            if rep is not None:
                return norm(rep.p_star), rep
            if warm is not None:
                break
            anchor(g, side)
        return (np.inf if g > feas_hi else -np.inf), None

    # pinning the same coordinate the normalization reads makes the outer
    # search trivial: psi(p*) equals the pin value itself.  Solve tightly so
    # the remaining inner-iteration error stays well under tol_bracket.
    if norm.index == pin:
        val, rep = phi(K, tight=True)
        if rep is None:
            raise BracketNotFound(f"no pinned solution reaches the pin value {K}")
        rep.normalization_value = val
        rep.outer_solves = solves
        return rep

    lo_in, hi_in = system.bounds.lower[pin] + BOUND_MARGIN, system.bounds.upper[pin] - BOUND_MARGIN
    g0 = float(min(max(pin_guess, lo_in), hi_in))
    val0, _ = phi(g0)
    try:
        lo, hi = _walk(lambda g: phi(float(g))[0] - K, g0, system, pin, fx0=val0 - K, closed=True)
    except NoBracket as exc:
        raise BracketNotFound(f"normalization level {K} not bracketed: {exc}") from exc
    # the dichotomy starts from the guess, not from the walk's previous probe
    lo, hi = min(float(lo), g0), max(float(hi), g0)

    # exact-halving dichotomy: track (lo, width) so each recorded width is
    # exactly half of the previous one
    width = hi - lo
    history: List[Tuple[float, float]] = [(lo, lo + width)]
    best = None
    best_gap = np.inf
    extra = 0
    unsolved = False  # some probe had no pinned solution (psi = +/-inf)
    for _ in range(MAX_ITER_BRACKET):
        # once the bracket is narrow the pinned-solve error dominates the
        # remaining gap, so re-evaluate at the tight tol_outer
        v, rep = phi(lo + 0.5 * width, tight=width < 1e3 * opts.tol_bracket)
        unsolved |= rep is None
        gap = abs(v - K)
        if rep is not None and gap < best_gap:
            best, best_gap = rep, gap
            best.normalization_value = v
        if v <= K:
            lo = lo + 0.5 * width
        # else keep lo; the new bracket is [lo, lo + width] either way
        width = 0.5 * width
        history.append((lo, lo + width))
        if width < opts.tol_bracket:
            if best_gap <= opts.tol_bracket:
                best.bracket_history = history
                best.outer_solves = solves
                return best
            # allow a few more halvings in case the gap is still bracket
            # placement rather than solver noise
            extra += 1
            if extra > 20:
                break

    if best is not None:
        best.bracket_history = history
        best.outer_solves = solves
    if unsolved:  # the bracket closed on the edge of the solvable pins, where psi jumps past K
        raise BracketNotFound(f"no solvable pin value reaches normalization level {K}")
    raise MaxIterExceeded(
        f"dichotomy did not reach tol_bracket in {solves} pinned solves "
        f"(gap {best_gap:.3e})",
        report=best,
    )
