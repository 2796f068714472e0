"""Full-assignment bipartite matching through aggregate matching functions.

A market has X-side masses n, Y-side masses m with sum(n) == sum(m), and a
family of pairwise matching functions mu_xy = M_xy(a_x, b_y), increasing in
both fee arguments.  Equilibrium fees (a, b) satisfy the accounting
identities n_x = sum_y M_xy and m_y = sum_x M_xy, pinned by a normalization.
The market maps to a balanced system via p = (-a, b), q = (-n, m), c = 0.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy.special import expit, logsumexp

from .errors import (
    BalanceViolated,
    DimensionMismatch,
    FamilyLacksTransfers,
    NoBracket,
    NonpositiveMatch,
)
from .normalization import Normalization
from .roots import bisect, expand_bracket
from .solver import SolveReport, SolverOptions, solve_normalized
from .system import Bounds, SubsolutionHints, SupplySystem


# ----------------------------------------------------------------------
# transfer-distance families for imperfectly transferable utility


@dataclass(frozen=True)
class DistanceFamily:
    """Scalar map d(u, v) with d(u + t, v + t) = d(u, v) + t.

    d measures how far a pair of post-match payoffs sits from the (shifted)
    feasible frontier; derivatives are used by the estimation layer and fall
    back to central differences when not supplied.
    """

    d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    du: Optional[Callable] = None
    dv: Optional[Callable] = None
    duu: Optional[Callable] = None
    duv: Optional[Callable] = None
    dvv: Optional[Callable] = None
    label: str = "custom"

    def grad_u(self, u, v):
        if self.du is not None:
            return self.du(u, v)
        h = 1e-6
        return (self.d(u + h, v) - self.d(u - h, v)) / (2 * h)

    def grad_v(self, u, v):
        if self.dv is not None:
            return self.dv(u, v)
        h = 1e-6
        return (self.d(u, v + h) - self.d(u, v - h)) / (2 * h)

    def hess(self, u, v):
        """(d_uu, d_uv, d_vv), numeric fallback."""
        h = 1e-5
        duu = self.duu(u, v) if self.duu else (self.grad_u(u + h, v) - self.grad_u(u - h, v)) / (2 * h)
        duv = self.duv(u, v) if self.duv else (self.grad_u(u, v + h) - self.grad_u(u, v - h)) / (2 * h)
        dvv = self.dvv(u, v) if self.dvv else (self.grad_v(u, v + h) - self.grad_v(u, v - h)) / (2 * h)
        return duu, duv, dvv


DIST_AVERAGE = DistanceFamily(
    d=lambda u, v: 0.5 * (u + v),
    du=lambda u, v: 0.5 * np.ones_like(np.broadcast_arrays(u, v)[0], dtype=float),
    dv=lambda u, v: 0.5 * np.ones_like(np.broadcast_arrays(u, v)[0], dtype=float),
    duu=lambda u, v: np.zeros_like(np.broadcast_arrays(u, v)[0], dtype=float),
    duv=lambda u, v: np.zeros_like(np.broadcast_arrays(u, v)[0], dtype=float),
    dvv=lambda u, v: np.zeros_like(np.broadcast_arrays(u, v)[0], dtype=float),
    label="average",
)


def _d_logmean(u, v):
    # log((e^u + e^v)/2), computed stably; logaddexp broadcasts u and v
    return np.logaddexp(u, v) - np.log(2.0)


DIST_LOGMEAN = DistanceFamily(
    d=_d_logmean,
    du=lambda u, v: expit(np.asarray(u, dtype=float) - np.asarray(v, dtype=float)),
    dv=lambda u, v: expit(np.asarray(v, dtype=float) - np.asarray(u, dtype=float)),
    duu=lambda u, v: expit(u - v) * expit(v - u),
    duv=lambda u, v: -expit(u - v) * expit(v - u),
    dvv=lambda u, v: expit(u - v) * expit(v - u),
    label="logmean",
)


def frontier_distance(
    payoff_x: Callable[[np.ndarray], np.ndarray],
    payoff_y: Callable[[np.ndarray], np.ndarray],
    w_bracket: Tuple[float, float] = (1e-12, 1e12),
    tol: float = 1e-12,
) -> DistanceFamily:
    """Distance family from a parametric feasibility frontier.

    The frontier is the curve {(payoff_x(w), payoff_y(w))} traced by an
    instrument w > 0, with payoff_x increasing and payoff_y decreasing.
    d(u, v) is the unique t such that (u - t, v - t) lies on the curve,
    found by bisection on t of payoff_y(payoff_x^{-1}(u - t)) - (v - t).
    """

    log_w_lo, log_w_hi = np.log(w_bracket)

    def _x_inverse(target):
        # bisection on log w: w spans many scales
        log_w = bisect(lambda s: payoff_x(np.exp(s)) - target, log_w_lo, log_w_hi, 1e-15)[1]
        return np.exp(log_w)

    def d(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))

        def h(t):
            return payoff_y(_x_inverse(u - t)) - (v - t)

        # h is increasing in t: both payoff_y(w(u - t)) and t - v rise with t;
        # walk down and up from t = 0 for the two ends of the bracket
        lo, _ = expand_bracket(h, np.zeros(u.shape), fx0=np.inf, closed=True)
        _, hi = expand_bracket(h, np.zeros(u.shape), fx0=-np.inf)
        lo, hi = bisect(h, lo, hi, tol)
        return 0.5 * (lo + hi)

    return DistanceFamily(d=d, label="frontier")


# ----------------------------------------------------------------------
# matching function families


@dataclass(frozen=True)
class MatchingFamily:
    """Pairwise matching functions M_xy(a, b) in log form.

    kind is one of "TU", "NTU", "ITU", "ETU".  TU/ITU/ETU evaluate
    exp(-d(-a - alpha, -b - gamma)) with the family's distance map; NTU is
    exp(phi + a + b) and has no transfer structure.
    """

    kind: str
    alpha: Optional[np.ndarray] = None
    gamma: Optional[np.ndarray] = None
    phi: Optional[np.ndarray] = None
    distance: Optional[DistanceFamily] = None

    def __post_init__(self):
        if self.kind not in ("TU", "NTU", "ITU", "ETU"):
            raise DimensionMismatch(f"unknown family kind {self.kind!r}")
        if self.kind == "NTU":
            if self.phi is None:
                raise DimensionMismatch("NTU family needs a joint surplus table phi")
            object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
            return
        if self.kind == "TU" and self.alpha is None and self.gamma is None:
            # surplus-only TU family: fine for equilibrium, lacks transfers
            if self.phi is None:
                raise DimensionMismatch("TU family needs phi or an alpha / gamma split")
            object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
            object.__setattr__(self, "distance", DIST_AVERAGE)
            return
        if self.alpha is None or self.gamma is None:
            raise DimensionMismatch(f"{self.kind} family needs alpha and gamma tables")
        alpha = np.asarray(self.alpha, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if alpha.shape != gamma.shape:
            raise DimensionMismatch("alpha and gamma tables must share a shape")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "phi", alpha + gamma)
        if self.kind == "TU":
            object.__setattr__(self, "distance", DIST_AVERAGE)
        elif self.kind == "ETU":
            object.__setattr__(self, "distance", DIST_LOGMEAN)
        elif self.distance is None:
            raise DimensionMismatch("ITU family needs an explicit distance map")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.phi.shape

    def log_match(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """log M_xy for fee vectors a (..., X) and b (..., Y): (..., X, Y)."""
        a = np.asarray(a, dtype=float)[..., :, None]
        b = np.asarray(b, dtype=float)[..., None, :]
        if self.kind == "NTU":
            return self.phi + a + b
        if self.alpha is None:  # surplus-only TU
            return 0.5 * (self.phi + a + b)
        return -self.distance.d(-a - self.alpha, -b - self.gamma)

    def match(self, a, b) -> np.ndarray:
        mu = np.exp(self.log_match(a, b))
        if not np.all(np.isfinite(mu)) or np.any(mu <= 0):
            raise NonpositiveMatch("matching function left its positive range")
        return mu


def tu_family(alpha=None, gamma=None, phi=None) -> MatchingFamily:
    """Perfectly transferable surplus: M = exp((phi + a + b) / 2).

    phi alone gives a family usable for equilibrium but without the alpha /
    gamma split needed by recover_transfers (the split convenes alpha=phi,
    gamma=0 is NOT assumed; pass both tables when transfers matter).
    """
    if alpha is None or gamma is None:
        return MatchingFamily(kind="TU", phi=phi)
    return MatchingFamily(kind="TU", alpha=alpha, gamma=gamma)


def ntu_family(phi) -> MatchingFamily:
    """Nontransferable utility: M = exp(phi + a + b)."""
    return MatchingFamily(kind="NTU", phi=phi)


def etu_family(alpha, gamma) -> MatchingFamily:
    """Exponentially transferable utility: M is the harmonic mean of
    exp(a + alpha) and exp(b + gamma)."""
    return MatchingFamily(kind="ETU", alpha=alpha, gamma=gamma)


def itu_family(alpha, gamma, distance: DistanceFamily) -> MatchingFamily:
    return MatchingFamily(kind="ITU", alpha=alpha, gamma=gamma, distance=distance)


def matching_function_eval(family: MatchingFamily, a_x: float, b_y: float, pair: Tuple[int, int]) -> float:
    """Single-pair evaluation M_xy(a_x, b_y)."""
    X, Y = family.shape
    return float(np.exp(family.log_match(np.full(X, a_x), np.full(Y, b_y))[pair]))


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
        if np.any(n <= 0) or np.any(m <= 0):
            raise DimensionMismatch("masses must be strictly positive")
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
    """Jacobi sweep of a transfer family: safeguarded Newton per coordinate.

    Sections are smooth and increasing in the own fee but can be bounded
    (e.g. the harmonic-mean family saturates), so the bracket expansion
    reports unreachable targets through NoBracket, naming the coordinate.
    """
    dist = fam.distance

    def newton(target, p, z):
        # row x: sum_y M(a_x, b) = n_x = -target in a_x = -p_z;
        # column y: sum_x M(a, b_y) = m_y = target in b_y = p_z
        row = z < X
        if row:
            sign, own, other, grad = -1.0, fam.alpha[z], -p[X:] - fam.gamma[z], dist.grad_u
        else:
            sign, own, other, grad = 1.0, fam.gamma[:, z - X], p[:X] - fam.alpha[:, z - X], dist.grad_v

        def F(fee):
            uv = (-fee - own, other) if row else (other, -fee - own)
            M = np.exp(-dist.d(*uv))
            return M.sum(), (M * grad(*uv)).sum()

        goal = sign * target
        lo, hi = expand_bracket(lambda t: F(t)[0] - goal, sign * p[z])
        t = 0.5 * (lo + hi)
        for _ in range(100):
            f, fp = F(t)
            if f < goal:
                lo = t
            else:
                hi = t
            if abs(f - goal) <= 1e-13 * (1.0 + abs(goal)):
                break
            if fp > 0:
                t_new = t - (f - goal) / fp
            else:
                t_new = 0.5 * (lo + hi)
            if not (lo < t_new < hi):
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-15 * max(1.0, abs(t)):
                t = t_new
                break
            t = t_new

        return sign * t

    def sweep(q, p, pin):
        p_new = p.copy()
        for z in np.flatnonzero(np.arange(X + Y) != pin):
            try:
                p_new[z] = newton(q[z], p, z)
            except NoBracket as exc:
                exc.coordinate = int(z)
                raise
        return p_new

    return sweep


def build_mfe_system(prim: MarketPrimitives) -> Tuple[SupplySystem, np.ndarray]:
    """Reformulate the market as a balanced system Q(p) = q, c = 0.

    Stacked prices p = (-a_1..-a_X, b_1..b_Y); outputs are minus the X-side
    accounting sums and the Y-side accounting sums, so that every coordinate
    map is nondecreasing in its own price and nonincreasing in the others.
    Targets are q = (-n, m).  Subsolution hints order the first Y
    coordinate (the pin) before the X side, whose envelopes keep only the
    pinned column of the matching table.
    """
    fam = prim.family
    X, Y = fam.shape
    dim = X + Y

    def q_of_p(p):
        # p is one price vector (dim,) or a batch of rows (N, dim)
        mu = np.exp(fam.log_match(-p[..., :X], p[..., X:]))
        return np.concatenate([-mu.sum(axis=-1), mu.sum(axis=-2)], axis=-1)

    pin = X  # first Y-side coordinate
    ordering = (pin,) + tuple(range(X)) + tuple(range(X + 1, dim))

    tables = {k: getattr(fam, k) for k in ("alpha", "gamma", "phi") if getattr(fam, k) is not None}

    def envelope(rows: slice, j: int, sign: float):
        # matches of the table block (rows, column j) alone, read off the
        # family restricted to that block; for row x and the pinned column
        # j = 0 they already exhaust n_x
        block = replace(fam, **{k: t[rows, j : j + 1] for k, t in tables.items()})

        def env(p):
            return sign * float(np.exp(block.log_match(-p[:X][rows], p[X + j : X + j + 1])).sum())

        return env

    envelopes = tuple(envelope(slice(x, x + 1), 0, -1.0) for x in range(X)) + tuple(
        envelope(slice(None), j, 1.0) for j in range(1, Y)
    )

    if fam.kind in ("TU", "NTU"):
        scale = 0.5 if fam.kind == "TU" else 1.0
        phi = fam.phi

        def sweep(q, p, pin):
            # closed-form roots of every accounting equation at the current p
            a, b = -p[:X], p[X:]
            a_new = (np.log(-q[:X]) - logsumexp(scale * (phi + b[None, :]), axis=1)) / scale
            b_new = (np.log(q[X:]) - logsumexp(scale * (phi + a[:, None]), axis=0)) / scale
            return np.concatenate([-a_new, b_new])

    else:
        sweep = _itu_sweep(fam, X, Y)

    system = SupplySystem(
        dim=dim,
        eval_fn=q_of_p,
        bounds=Bounds.unbounded(dim),
        balance_constant=0.0,
        subsolution_hints=SubsolutionHints(ordering=ordering, envelopes=envelopes),
        eval_batch=q_of_p,
        sweep_solver=sweep,
        label=f"matching-{fam.kind}-{X}x{Y}",
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

    @property
    def residual(self) -> float:
        return self.report.residual


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
    if family.kind == "NTU" or family.alpha is None or family.gamma is None:
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
    alone; type-level fees cancel out of these combinations."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise NonpositiveMatch("observed match table must be strictly positive")
    w = np.asarray(w, dtype=float)
    zero = np.zeros_like(w)
    d_alpha = cross_difference(np.log(mu) + distance.d(zero, -w))
    d_gamma = cross_difference(np.log(mu) + distance.d(w, zero))
    return d_alpha, d_gamma
