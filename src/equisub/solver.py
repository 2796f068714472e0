"""Pinned and normalized solvers for balanced systems with substitutes.

solve_pinned fixes one coordinate and iterates a Jacobi sweep (every free
coordinate's scalar equation solved given the others: the system's
sweep_solver, else bisection_sweep) from a point where the system lies
weakly below its targets; under gross substitutability the iterates
increase monotonically to the pinned solution.  solve_normalized wraps
the pinned solver in a bisection on the pinned value to meet psi(p) = K.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

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
BOUND_MARGIN = 1e-9      # sweep results and probes stay this far inside bounds
MAX_ITER_BRACKET = 200   # halvings of the dichotomy on the pinned value
MAX_EXPANSIONS = 64      # doublings of the pin scan's step


@dataclass(frozen=True)
class SolverOptions:
    tol_outer: float = 1e-9          # sup-norm residual and step at convergence
    tol_inner: float = 1e-12         # scalar root bracket width
    tol_bracket: float = 1e-9        # dichotomy bracket width on the pinned value
    max_iter_jacobi: int = 10_000
    refine_factor: float = 1e-4      # tol_outer shrink for verification
                                     # re-solves; 1.0 disables refinement
                                     # (e.g. simulated supply at its
                                     # resolution floor)


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
    """expand_bracket inside the open interval of coordinate(s) z."""
    lower, upper = system.bounds.lower[z], system.bounds.upper[z]
    return expand_bracket(f, x0, lower, upper, bound_margin=BOUND_MARGIN, **kwargs)


def bisection_sweep(
    system: SupplySystem,
    q: np.ndarray,
    p: np.ndarray,
    pin: int,
    opts: SolverOptions = SolverOptions(),
) -> np.ndarray:
    """One Jacobi sweep by bracketing and bisection, for any system.

    Returns p with every free z set to the left root of Q_z(t, p_-z) = q[z],
    all sections solved as one array; trial rows go through eval_batch, or
    eval_fn row by row.  NoBracket names the failing system coordinate.
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
    p_new[free] = bisect(sections, lo, hi, opts.tol_inner)[1]
    return p_new


def build_subsolution(
    system: SupplySystem,
    q: np.ndarray,
    pin: int,
    pin_value: float,
    opts: SolverOptions = SolverOptions(),
) -> np.ndarray:
    """Construct p0 with p0[pin] = pin_value and Q(p0) <= q off the pin.

    Walks the hinted ordering, pushing each coordinate down until its upper
    envelope drops (weakly) below the target.  Because each envelope
    dominates the true coordinate map and ignores later coordinates, the
    finished point is a subsolution.
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
        raise HintsMissing("need one envelope per non-pinned ordered coordinate")

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

    for k in range(1, len(ordering)):
        z = ordering[k]
        env = hints.envelopes[k - 1]

        def excess(t):
            p[z] = t
            return env(p) - q[z]

        f0 = excess(p[z])
        if f0 <= 0:
            continue
        try:
            lo, _ = _walk(excess, p[z], system, z, fx0=f0, closed=True)
        except NoBracket as exc:
            raise EnvelopeNotDownwardResponsive(
                f"envelope for coordinate {z} stays above its target: {exc}"
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
    """Jacobi iteration to Q(p) = q with p[pin] = pin_value fixed.

    Starts from a subsolution (built from hints unless p0 is supplied) and
    iterates the system's sweep_solver, or bisection_sweep without one;
    each sweep result is kept BOUND_MARGIN inside finite bounds.
    Convergence requires both the sup-norm residual and the sup-norm step
    to fall below tol_outer; an exact fixed point (step 0) may keep a
    residual up to tol_outer + ROUNDING_FLOOR * ||q||_1.
    """
    q = np.asarray(q, dtype=float)
    if p0 is None:
        p = build_subsolution(system, q, pin, pin_value, opts)
    else:
        p = np.asarray(p0, dtype=float).copy()
        p[pin] = pin_value

    free = [z for z in range(system.dim) if z != pin]
    sweep = system.sweep_solver or (lambda q, p, pin: bisection_sweep(system, q, p, pin, opts))
    lo_in, hi_in = system.bounds.lower + BOUND_MARGIN, system.bounds.upper - BOUND_MARGIN
    monotone = True
    qval = eval_supply(system, p)

    for it in range(1, opts.max_iter_jacobi + 1):
        p_new = np.minimum(np.maximum(sweep(q, p, pin), lo_in), hi_in)
        p_new[pin] = pin_value
        if np.any(p_new[free] < p[free] - 1e-12):
            monotone = False
        step = float(np.max(np.abs(p_new - p))) if free else 0.0
        qval = eval_supply(system, p_new)
        residual = float(np.max(np.abs(qval - q)))
        p = p_new
        # an exact fixed point of the sweep map (step 0) can make no further
        # progress.  Its residual may sit at the rounding floor of the
        # targets, of order eps * ||q||_1 for count-sized q (the scaling
        # eval_supply's balance guard allows), and then it is converged;
        # otherwise (e.g. simulated supply with finite resolution) stop now
        # instead of spinning.
        tol = opts.tol_outer
        if step == 0.0:
            tol += ROUNDING_FLOOR * np.abs(q).sum()
        if residual <= tol and step <= opts.tol_outer:
            return SolveReport(
                p_star=p,
                residual=residual,
                iterations=it,
                monotone_certificate=monotone,
            )
        if step == 0.0:
            break

    report = SolveReport(
        p_star=p,
        residual=float(np.max(np.abs(qval - q))),
        iterations=it,
        monotone_certificate=monotone,
    )
    raise MaxIterExceeded(
        f"pinned solve did not converge in {it} sweeps "
        f"(residual {report.residual:.3e})",
        report=report,
    )


def _default_pin(system: SupplySystem) -> int:
    if system.subsolution_hints is not None:
        return int(system.subsolution_hints.ordering[0])
    return 0


def solve_normalized(
    system: SupplySystem,
    q: np.ndarray,
    norm: Normalization,
    K: float,
    opts: SolverOptions = SolverOptions(),
    pin: Optional[int] = None,
    pin_guess: float = 0.0,
) -> SolveReport:
    """Solve Q(p) = q subject to psi(p) = K.

    Bisects on the pinned value: each trial solves the pinned problem and
    compares psi at its solution with K.  The bracket is located by
    geometric expansion from pin_guess and then halved exactly (the width
    sequence is width0 / 2^k in floating point) until it is narrower than
    tol_bracket and the normalization gap is within tol_bracket.
    """
    lo_K, hi_K = norm.value_range
    if not (lo_K < K < hi_K):
        raise OutOfBounds(f"target level {K} outside the attainable range {norm.value_range}")

    if pin is None:
        pin = _default_pin(system)

    refining = opts.refine_factor < 1.0
    tight_opts = replace(
        opts,
        tol_outer=max(opts.tol_outer * opts.refine_factor, 1e-13),
        tol_inner=max(opts.tol_inner * (1e-2 if refining else 1.0), 1e-15),
        max_iter_jacobi=opts.max_iter_jacobi * (10 if refining else 1),
    )

    # pinning the same coordinate the normalization reads makes the outer
    # search trivial: psi(p*) equals the pin value itself.  Solve tightly so
    # the remaining inner-iteration error stays well under tol_bracket.
    if norm.kind[0] == "coordinate" and int(norm.kind[1]) == pin:
        try:
            rep = solve_pinned(system, q, pin, K, tight_opts)
        except MaxIterExceeded as exc:
            # the tight solve is a refinement; accept its iterate whenever
            # it already meets the requested tolerance
            if exc.report is None or exc.report.residual > opts.tol_outer:
                raise
            rep = exc.report
        rep.normalization_value = norm(rep.p_star)
        rep.outer_solves = 1
        return rep

    solves = 0
    warm: Optional[np.ndarray] = None
    warm_pin: Optional[float] = None
    feas_lo, feas_hi = np.inf, -np.inf

    def solve_at(g: float, use: SolverOptions) -> SolveReport:
        nonlocal solves, warm, warm_pin, feas_lo, feas_hi
        solves += 1
        try:
            if warm is not None:
                rep = solve_pinned(system, q, pin, g, use, p0=warm)
            else:
                rep = solve_pinned(system, q, pin, g, use)
        except MaxIterExceeded as exc:
            # the step criterion can stall on nearly-flat sections even when
            # the residual is already far below the requested tolerance; the
            # iterate is then a perfectly good solution of Q(p) = q
            if exc.report is None or exc.report.residual > opts.tol_outer:
                raise
            rep = exc.report
        warm, warm_pin = rep.p_star, g
        feas_lo, feas_hi = min(feas_lo, g), max(feas_hi, g)
        return rep

    def phi(g: float, tight: bool = False) -> Tuple[float, Optional[SolveReport]]:
        # Re-pinning a previously solved point gives a sub- or supersolution
        # (by substitutability), so earlier solves warm-start later ones and
        # cover pins the cold-start envelope construction cannot reach.  When
        # a direct solve fails, the warm anchor is walked toward g in halved
        # steps (continuation); if even that stalls, no pinned solution
        # exists at g and psi is signed +/-inf by which side of the solved
        # range g lies on, which keeps the bisection direction correct.
        use = tight_opts if tight else opts
        for _ in range(8):
            try:
                rep = solve_at(g, use)
                return norm(rep.p_star), rep
            except (NoBracket, EnvelopeNotDownwardResponsive):
                pass
            if warm_pin is None:
                return -np.inf, None
            stepped = False
            t = 0.5
            while t > 2.0 ** -10:
                try:
                    solve_at(warm_pin + t * (g - warm_pin), use)
                    stepped = True
                    break
                except (NoBracket, EnvelopeNotDownwardResponsive):
                    t *= 0.5
            if not stepped:
                break
        if np.isfinite(feas_hi) and g > feas_hi:
            return np.inf, None
        return -np.inf, None

    lo_in, hi_in = system.bounds.lower[pin] + BOUND_MARGIN, system.bounds.upper[pin] - BOUND_MARGIN
    g0 = float(min(max(pin_guess, lo_in), hi_in))
    val0, rep0 = phi(g0)
    if rep0 is None and warm_pin is None:
        # No pinned solution at the guess and no anchor to continue from:
        # scan outward for any feasible pin, labelling each failure by the
        # exception it raised.  The feasible pin values form an interval, so
        # when two probes fail for *different* reasons the window (if any)
        # sits between them and bisection on the failure label homes in on
        # it even when the window is far narrower than the scan step.
        def probe(g: float):
            g = float(min(max(g, lo_in), hi_in))
            try:
                return g, solve_at(g, opts), 0
            except NoBracket:
                return g, None, 1
            except EnvelopeNotDownwardResponsive:
                return g, None, -1

        labels = {}
        g0, _, lab = probe(g0)
        labels[g0] = lab
        scan = 1.0
        for _ in range(MAX_EXPANSIONS):
            for cand in (g0 + scan, g0 - scan):
                c, rep, lab = probe(cand)
                if rep is not None:
                    g0, val0, rep0 = c, norm(rep.p_star), rep
                    break
                labels[c] = lab
            if rep0 is not None:
                break
            scan *= 2.0
        if rep0 is None:
            pts = sorted(labels)
            pair = next(
                ((a, b) for a, b in zip(pts, pts[1:]) if labels[a] != labels[b]),
                None,
            )
            while pair is not None and pair[1] - pair[0] > opts.tol_bracket:
                a, b = pair
                c, rep, lab = probe(0.5 * (a + b))
                if rep is not None:
                    g0, val0, rep0 = c, norm(rep.p_star), rep
                    break
                labels[c] = lab
                pair = (c, b) if lab == labels[a] else (a, c)
        if rep0 is None:
            raise BracketNotFound("no pin value admits a pinned solution")

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
    for _ in range(MAX_ITER_BRACKET):
        # once the bracket is narrow the pinned-solve error dominates the
        # remaining gap, so re-evaluate with tightened inner tolerances
        v, rep = phi(lo + 0.5 * width, tight=width < 1e3 * opts.tol_bracket)
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
    raise MaxIterExceeded(
        f"dichotomy did not reach tol_bracket in {solves} pinned solves "
        f"(gap {best_gap:.3e})",
        report=best,
    )
