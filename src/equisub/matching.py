"""Full-assignment bipartite matching through aggregate matching functions.

A market has X-side masses n, Y-side masses m with sum(n) == sum(m), and a
family of pairwise matching functions mu_xy = M_xy(a_x, b_y), increasing in
both fee arguments.  Equilibrium fees (a, b) satisfy the accounting
identities n_x = sum_y M_xy and m_y = sum_x M_xy, pinned by a normalization.
The market maps to a balanced system via p = (-a, b), q = (-n, m), c = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit

from .errors import (
    BalanceViolated,
    DimensionMismatch,
    FamilyLacksTransfers,
    NoBracket,
    NonFinite,
    NonpositiveMatch,
)
from .normalization import Normalization
from .roots import bisect, expand_bracket, newton
from .solver import SolveReport, SolverOptions, solve_normalized
from .system import Bounds, SubsolutionHints, SupplySystem

NEWTON_TOL = 1e-13  # |accounting error| at which a transfer sweep's root stops
IPFP_MAX_STEPS = 10_000  # steps of one log-linear sweep; at the cap it
                         # returns its last iterate for solve_pinned to judge


# ----------------------------------------------------------------------
# distance maps: log M = -d(-a - alpha, -b - gamma)


@dataclass(frozen=True)
class DistanceFamily:
    """Scalar map d(u, v) of a pair of post-match payoffs; log M = -d.

    A transfer family's d measures how far the pair sits from the (shifted)
    feasible frontier, so d(u + t, v + t) = d(u, v) + t; NTU's DIST_SUM has
    + 2t instead.  jet(u, v) returns (d, d_u, d_v, d_uu, d_uv, d_vv) from
    one evaluation for the ETU/ITU sweep's Newton and the estimators.
    """

    d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jet: Optional[Callable] = None

    def evaluate(self, u, v):
        """The jet at (u, v), or central differences of d from one call on 11
        points (steps 1e-6 and 1e-4, d_uv along the diagonal) when there is none."""
        if self.jet is not None:
            return self.jet(u, v)
        h, k = 1e-6, 1e-4
        steps = [(0, h, -h, 0, 0, k, -k, 0, 0, k, -k), (0, 0, 0, h, -h, 0, 0, k, -k, k, -k)]
        su, sv = np.reshape(steps, (2, 11) + (1,) * np.broadcast(u, v).ndim)
        f0, fu, fu_, fv, fv_, gu, gu_, gv, gv_, gp, gm = self.d(u + su, v + sv)
        duu, dvv, diag = ((f + f_ - 2 * f0) / k**2 for f, f_ in ((gu, gu_), (gv, gv_), (gp, gm)))
        return f0, (fu - fu_) / (2 * h), (fv - fv_) / (2 * h), duu, (diag - duu - dvv) / 2, dvv


def _linear(s: float) -> DistanceFamily:
    return DistanceFamily(
        lambda u, v: s * (u + v),
        lambda u, v: (s * (u + v), *(np.full(np.broadcast(u, v).shape, c) for c in (s, s, 0.0, 0.0, 0.0))),
    )


DIST_AVERAGE = _linear(0.5)
DIST_SUM = _linear(1.0)


def _d_logmean(u, v):
    # log((e^u + e^v)/2), computed stably; logaddexp broadcasts u and v
    return np.logaddexp(u, v) - np.log(2.0)


def _jet_logmean(u, v):
    du, dv = expit(u - v), expit(v - u)
    return _d_logmean(u, v), du, dv, du * dv, -du * dv, du * dv


DIST_LOGMEAN = DistanceFamily(_d_logmean, _jet_logmean)


def frontier_distance(
    payoff_x: Callable[[np.ndarray], np.ndarray],
    payoff_y: Callable[[np.ndarray], np.ndarray],
    w_bracket: Tuple[float, float] = (1e-12, 1e12),
) -> DistanceFamily:
    """Distance family from a parametric feasibility frontier.

    The frontier is the curve {(payoff_x(w), payoff_y(w))} traced by w in
    w_bracket, payoff_x increasing and payoff_y decreasing.  d(u, v) is the
    min over w of max(u - payoff_x(w), v - payoff_y(w)) (Galichon, Kominers
    & Weber, JPE 2019), whose minimiser w* solves payoff_x(w) - payoff_y(w)
    = u - v: one bisection on s = log w per cell, with d read at the ends of
    its final bracket through the flatter payoff, or beyond the curve's span
    at its nearer end.  The jet reads the rest at the same root: with A =
    payoff_x', B = -payoff_y' (differences in s), d_u = B/(A+B), d_v =
    A/(A+B) and the Hessian is (c, -c, c), c = (A B' - A' B)/(A+B)^3, in
    any parametrisation; beyond the span (d_u, d_v) is (0, 1) or (1, 0) and
    c = 0.  A payoff not finite at an end of w_bracket raises NonFinite,
    since the bisection would read NaN as below the root.
    """
    ends = np.asarray(w_bracket, dtype=float)
    with np.errstate(all="ignore"):
        if not (np.all(np.isfinite(payoff_x(ends))) and np.all(np.isfinite(payoff_y(ends)))):
            raise NonFinite(f"frontier payoffs are not finite at the ends of w_bracket {w_bracket}")
    s_lo, s_hi = np.log(ends)
    D = np.array([[1, -8, 0, 8, -1], [-1, 16, -30, 16, -1]]) / 12  # 5-point first, second differences

    def payoffs(u, v, stencil=False):
        # both payoffs at the final bracket (lo, hi) and at a 5-point stencil around hi;
        # near an end a payoff may be steep (log(2 - w)), so the step 1e-4 shrinks to
        # 1/64 of hi's distance to the nearer end, to no less than 1e-9, and stays inside
        gap = lambda s: payoff_x(np.exp(s)) - payoff_y(np.exp(s)) - (u - v)  # noqa: E731
        lo, hi = bisect(gap, *(np.full(np.broadcast(u, v).shape, e) for e in (s_lo, s_hi)), np.finfo(float).eps)
        r = np.clip(np.minimum(hi - s_lo, s_hi - hi) / 64, 1e-9, 1e-4)
        s = [np.clip(hi, s_lo + 2 * r, s_hi - 2 * r) + t * r for t in (-2, -1, 0, 1, 2)] if stencil else []
        px, py = (payoff(np.exp(np.stack([lo, hi, *s]))) for payoff in (payoff_x, payoff_y))
        return np.min(np.maximum(u - px[:2], v - py[:2]), axis=0), px, py, r

    def jet(u, v):
        dist, px, py, r = payoffs(u, v, stencil=True)
        (A, dA), (B, dB) = (np.tensordot(D, f[2:], 1) / np.stack([r, r * r]) for f in (px, -py))
        # the root is below the span if the gap is >= 0 at lo, above if < 0 at hi
        below, above = px[0] - py[0] >= u - v, px[1] - py[1] < u - v
        du = np.where(below, 0.0, np.where(above, 1.0, B / (A + B)))
        c = np.where(below | above, 0.0, (A * dB - dA * B) / (A + B) ** 3)
        return dist, du, 1.0 - du, c, -c, c

    return DistanceFamily(lambda u, v: payoffs(u, v)[0], jet)


# ----------------------------------------------------------------------
# matching function families


class _Kind(NamedTuple):
    distance: Optional[DistanceFamily]  # None: each family brings its own
    log_linear: Optional[float]  # s of log M = s((a + alpha) + (b + gamma))
    transfers: bool  # False: only phi = alpha + gamma is read


# the one map from kind names to behaviour.  A log-linear kind's d is
# s(u + v), so log M = s((a + alpha) + (b + gamma)) reads the tables only
# through phi and is translation-invariant in p = (-a, b)
_KINDS = {
    "TU": _Kind(DIST_AVERAGE, 0.5, True),
    "NTU": _Kind(DIST_SUM, 1.0, False),
    "ETU": _Kind(DIST_LOGMEAN, None, True),
    "ITU": _Kind(None, None, True),
}


@dataclass(frozen=True)
class MatchingFamily:
    """Pairwise matching functions M_xy(a, b) = exp(-d(-a - alpha, -b - gamma)).

    Every kind ("TU", "NTU", "ITU", "ETU") is preference tables (alpha,
    gamma) and a distance map d that the kind fixes (ITU brings its own).
    TU and NTU are log-linear: M = exp(s (phi + a + b)), s = 1/2 and 1, with
    phi = alpha + gamma.  transfers is False when alpha and gamma do not
    split a transferable surplus (NTU, stored as alpha = phi, gamma = 0, and
    TU built from phi alone); recover_transfers refuses such a family.
    """

    kind: str
    alpha: np.ndarray
    gamma: np.ndarray
    distance: Optional[DistanceFamily] = None
    transfers: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DimensionMismatch(f"unknown family kind {self.kind!r}")
        traits = _KINDS[self.kind]
        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if alpha.ndim != 2 or alpha.shape != gamma.shape:
            raise DimensionMismatch(f"{self.kind} family needs alpha and gamma tables of one shape")
        if not traits.transfers:
            alpha, gamma = alpha + gamma, np.zeros_like(alpha)
        distance = traits.distance or self.distance  # its own map passes, for dataclasses.replace
        if distance is None or self.distance not in (None, distance):
            raise DimensionMismatch(f"{self.kind} family: only ITU takes a distance map, and ITU needs one")
        for name, value in (("alpha", alpha), ("gamma", gamma), ("distance", distance)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "transfers", self.transfers and traits.transfers)

    @property
    def shape(self) -> Tuple[int, int]:
        return self.alpha.shape

    @property
    def phi(self) -> np.ndarray:
        return self.alpha + self.gamma

    @property
    def log_linear(self) -> Optional[float]:
        """s when log M = s((a + alpha) + (b + gamma)), else None."""
        return _KINDS[self.kind].log_linear

    def log_match(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """log M_xy for fee vectors a (..., X) and b (..., Y): (..., X, Y)."""
        a = np.asarray(a, dtype=float)[..., :, None]
        b = np.asarray(b, dtype=float)[..., None, :]
        s = self.log_linear
        if s is not None:
            return s * ((a + self.alpha) + (b + self.gamma))
        return -self.distance.d(-a - self.alpha, -b - self.gamma)

    def match(self, a, b) -> np.ndarray:
        mu = np.exp(self.log_match(a, b))
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise NonpositiveMatch("matching function left its positive range")
        return mu


def tu_family(alpha=None, gamma=None, phi=None) -> MatchingFamily:
    """Perfectly transferable surplus: M = exp((phi + a + b) / 2).

    Given alpha and gamma, recover_transfers splits the surplus between
    them.  Given phi alone, the tables are alpha = phi, gamma = 0 and the
    family has transfers=False: equilibrium reads only phi, but transfers
    need the true split, so pass both tables when transfers matter.
    """
    if alpha is not None and gamma is not None:
        return MatchingFamily(kind="TU", alpha=alpha, gamma=gamma)
    return MatchingFamily(kind="TU", alpha=phi, gamma=np.zeros_like(phi, dtype=float), transfers=False)


def ntu_family(phi) -> MatchingFamily:
    """Nontransferable utility: M = exp(phi + a + b)."""
    return MatchingFamily(kind="NTU", alpha=phi, gamma=np.zeros_like(phi, dtype=float))


def etu_family(alpha, gamma) -> MatchingFamily:
    """Exponentially transferable utility: M is the harmonic mean of
    exp(a + alpha) and exp(b + gamma)."""
    return MatchingFamily(kind="ETU", alpha=alpha, gamma=gamma)


def itu_family(alpha, gamma, distance: DistanceFamily) -> MatchingFamily:
    return MatchingFamily(kind="ITU", alpha=alpha, gamma=gamma, distance=distance)


# ----------------------------------------------------------------------
# market container and system construction


@dataclass(frozen=True)
class MarketPrimitives:
    family: MatchingFamily
    n: np.ndarray  # X-side masses
    m: np.ndarray  # Y-side masses

    def __post_init__(self):
        n = np.asarray(self.n, dtype=float)
        m = np.asarray(self.m, dtype=float)
        X, Y = self.family.shape
        if n.shape != (X,) or m.shape != (Y,):
            raise DimensionMismatch("mass vectors must match the family's table shape")
        # NaN fails both comparisons, and no infinite mass reaches the balance sum
        if not all(np.all((0 < v) & (v < np.inf)) for v in (n, m)):
            raise DimensionMismatch("masses must be strictly positive and finite")
        if abs(n.sum() - m.sum()) > 1e-10 * (1.0 + abs(n.sum())):
            raise BalanceViolated(
                f"total X mass {n.sum():.12g} != total Y mass {m.sum():.12g}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    @property
    def shape(self):
        return self.family.shape


def _itu_sweep(fam: MatchingFamily, X: int, Y: int):
    """Block Gauss-Seidel sweep of a transfer family (ETU, ITU).

    Given b, each row's accounting sum reads only its a_x, and given a, each
    column's only its b_y (the block structure of the ITU IPFP of Galichon,
    Kominers & Weber, JPE 2019).  The sweep solves all free rows from p's b,
    then all free columns from the new a, each block as one expand_bracket
    walk and one roots.newton on the slopes of the distance's jet.  A
    target out of reach (ETU saturates) raises NoBracket naming its system
    coordinate.
    """
    dist = fam.distance

    def solve(coords, goal, start, payoffs, side):
        # one fee t_i per coordinate i with sum_j M = goal_i, where payoffs(t)
        # gives the (u, v) tables whose row i holds i's cells; jet[side] is d_u or d_v
        def section(t):
            jet = dist.evaluate(*payoffs(t))
            M = np.exp(-jet[0])
            return M.sum(axis=1) - goal, (M * jet[side]).sum(axis=1)

        try:
            lo, hi = expand_bracket(lambda t: section(t)[0], start)
        except NoBracket as exc:
            exc.coordinate = int(coords[exc.coordinate])
            raise
        return newton(section, lo, hi, NEWTON_TOL)

    def sweep(q, p, pin):
        free = np.arange(X + Y) != pin
        rows, cols = np.flatnonzero(free[:X]), X + np.flatnonzero(free[X:])
        p_new = p.copy()
        # rows: sum_y M(a_x, b_y) = n_x = -q_x in a_x = -p_x, given p's b
        v = -p[X:] - fam.gamma[rows]
        p_new[rows] = -solve(rows, -q[rows], -p[rows], lambda t: (-t[:, None] - fam.alpha[rows], v), 1)
        # columns: sum_x M(a_x, b_y) = m_y = q_y in b_y = p_y, given the new a
        u, gamma = p_new[:X] - fam.alpha[:, cols - X].T, fam.gamma[:, cols - X].T
        p_new[cols] = solve(cols, q[cols], p[cols], lambda t: (u, -t[:, None] - gamma), 2)
        return p_new

    return sweep


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    # scipy.special.logsumexp takes about 0.3 ms a call on a 5x5 table
    # (2-CPU x86 VM), which was most of the time of a small TU solve
    top = x.max(axis=axis, keepdims=True)
    return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis)


def _ipfp_sweep(fam: MatchingFamily, X: int):
    """Sweep of a log-linear family (TU, NTU) that jumps to the pinned solution.

    Each step is one IPFP round: every row's closed-form root given b, then
    every column's (the pinned one too) given the new a, then a shift that
    gives the pin back its value; Q reads a + b only, so the shift keeps
    the accounting sums.  A step is measured by the pair (largest max - min
    of the change over the row and the column block, sup-norm of the
    change), and the steps run until neither part shrinks.  The sweep then
    returns the iterate the previous step started from, so that a sweep
    from its own output retraces the same last two steps and returns that
    output unchanged: solve_pinned sees step 0 and judges the residual.
    """
    s, phi = fam.log_linear, fam.phi

    def sweep(q, p, pin):
        g = p[pin]
        log_n, log_m = np.log(-q[:X]), np.log(q[X:])

        def step(x):
            a = (log_n - _logsumexp(s * (phi + x[None, X:]), axis=1)) / s
            b = (log_m - _logsumexp(s * (phi + a[:, None]), axis=0)) / s
            nxt = np.concatenate([-a, b])
            nxt += g - nxt[pin]
            nxt[pin] = g
            return nxt

        # steps go on while either part shrinks: max - min alone reads 0 on
        # a one-entry block, so a 1x1 market would get its input back
        before, cur, last = None, p, None
        for _ in range(IPFP_MAX_STEPS):
            nxt = step(cur)
            d = nxt - cur
            size = (max(np.ptp(d[:X]), np.ptp(d[X:])), np.max(np.abs(d)))
            if last is not None and size[0] >= last[0] and size[1] >= last[1]:
                return before
            before, cur, last = cur, nxt, size
        return cur

    return sweep


def build_mfe_system(prim: MarketPrimitives) -> Tuple[SupplySystem, np.ndarray]:
    """Reformulate the market as a balanced system Q(p) = q, c = 0.

    Stacked prices p = (-a_1..-a_X, b_1..b_Y); outputs are minus the X-side
    accounting sums and the Y-side accounting sums, so that every coordinate
    map is nondecreasing in its own price and nonincreasing in the others.
    Targets are q = (-n, m).  Subsolution hints put the first Y coordinate
    (the pin) before two blocks: the X rows, whose envelopes keep only the
    pinned column of the matching table, then the free columns, whose
    envelopes are their accounting sums.
    """
    fam = prim.family
    X, Y = fam.shape
    dim = X + Y

    def table(p):
        # p is one price vector (dim,) or a batch of rows (N, dim)
        return np.exp(fam.log_match(-p[..., :X], p[..., X:]))

    def q_of_p(p):
        mu = table(p)
        return np.concatenate([-mu.sum(axis=-1), mu.sum(axis=-2)], axis=-1)

    pin = X  # first Y-side coordinate
    ordering = (pin, np.arange(X), np.arange(X + 1, dim))
    envelopes = (lambda p: -table(p)[:, 0], lambda p: table(p)[:, 1:].sum(axis=0))

    scale = fam.log_linear
    sweep = _itu_sweep(fam, X, Y) if scale is None else _ipfp_sweep(fam, X)

    system = SupplySystem(
        dim=dim,
        eval_fn=q_of_p,
        bounds=Bounds.unbounded(dim),
        balance_constant=0.0,
        subsolution_hints=SubsolutionHints(ordering=ordering, envelopes=envelopes),
        eval_batch=q_of_p,
        sweep_solver=sweep,
        # log M depends on a + b only: shifting p = (-a, b) by t keeps it
        translation_invariant=scale is not None,
    )
    q = np.concatenate([-prim.n, prim.m])
    return system, q


@dataclass
class MatchingEquilibrium:
    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    K: float
    report: SolveReport


def solve_mfe(
    prim: MarketPrimitives,
    norm: Normalization,
    K: float,
    opts: SolverOptions = SolverOptions(),
    pin_guess: float = 0.0,
) -> MatchingEquilibrium:
    """Solve for equilibrium fees and matches under psi(-a, b) = K."""
    system, q = build_mfe_system(prim)
    rep = solve_normalized(system, q, norm, K, opts, pin_guess=pin_guess)
    X, Y = prim.shape
    a = -rep.p_star[:X]
    b = rep.p_star[X:]
    mu = prim.family.match(a, b)
    return MatchingEquilibrium(a=a, b=b, mu=mu, K=K, report=rep)


def comparative_statics_K(
    prim: MarketPrimitives,
    norm: Normalization,
    K_values: Sequence[float],
    opts: SolverOptions = SolverOptions(),
) -> dict:
    """Trace the equilibrium path along a grid of normalization levels.

    Raising K shifts value toward the X side: a* falls coordinatewise and
    b* rises.  For the TU family the match table itself stays put.
    """
    K_values = list(K_values)
    eqs = [solve_mfe(prim, norm, K, opts) for K in K_values]
    a_path = np.stack([e.a for e in eqs])
    b_path = np.stack([e.b for e in eqs])
    mu_path = np.stack([e.mu for e in eqs])
    a_monotone = bool(np.all(np.diff(a_path, axis=0) <= 1e-7))
    b_monotone = bool(np.all(np.diff(b_path, axis=0) >= -1e-7))
    return {
        "K_values": K_values,
        "a_path": a_path,
        "b_path": b_path,
        "mu_path": mu_path,
        "a_nonincreasing": a_monotone,
        "b_nondecreasing": b_monotone,
        "equilibria": eqs,
    }


# ----------------------------------------------------------------------
# transfers and identification


def recover_transfers(family: MatchingFamily, eq: MatchingEquilibrium) -> np.ndarray:
    """Equilibrium transfer table w_xy = b_y + gamma_xy - a_x - alpha_xy."""
    if not family.transfers:
        raise FamilyLacksTransfers(
            "transfers need a family with an explicit alpha / gamma split"
        )
    return eq.b[None, :] + family.gamma - eq.a[:, None] - family.alpha


def identify_preferences(
    mu: np.ndarray,
    w: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    distance: DistanceFamily,
) -> Tuple[np.ndarray, np.ndarray]:
    """Invert observed matches and transfers into preference tables.

    alpha_xy = log mu_xy - a_x + d(0, -w_xy)
    gamma_xy = log mu_xy - b_y + d(w_xy, 0)
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise NonpositiveMatch("observed match table must be strictly positive")
    w = np.asarray(w, dtype=float)
    logmu = np.log(mu)
    zero = np.zeros_like(w)
    alpha = logmu - np.asarray(a, dtype=float)[:, None] + distance.d(zero, -w)
    gamma = logmu - np.asarray(b, dtype=float)[None, :] + distance.d(w, zero)
    return alpha, gamma


def cross_difference(table: np.ndarray) -> np.ndarray:
    """All second differences D[x2, y2, x1, y1] =
    (T[x2,y2] - T[x2,y1]) - (T[x1,y2] - T[x1,y1])."""
    T = np.asarray(table, dtype=float)
    if T.ndim != 2:
        raise DimensionMismatch("cross differences need a 2-d table")
    return (
        T[:, :, None, None]        # T[x2, y2]
        - T[:, None, None, :]      # T[x2, y1]
        - T.T[None, :, :, None]    # T[x1, y2]
        + T[None, None, :, :]      # T[x1, y1]
    )


def identify_cross_differences(
    mu: np.ndarray,
    w: np.ndarray,
    distance: DistanceFamily,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cross differences of the preference tables from matches and transfers
    alone; type-level fees cancel out of these combinations, so they are
    the cross differences of identify_preferences' tables at zero fees."""
    X, Y = np.shape(mu)
    alpha, gamma = identify_preferences(mu, w, np.zeros(X), np.zeros(Y), distance)
    return cross_difference(alpha), cross_difference(gamma)
