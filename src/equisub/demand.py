"""Demand maps, simulated shares, and demand inversion.

A demand model sends a quality vector delta to market shares; inversion
recovers delta from observed shares by running the balanced-system solver
on the share equations (the balance constant is 1).  Simulated models use
one frozen matrix of shocks (common random numbers) so the simulated map
is deterministic and weakly monotone in delta.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.special import softmax

from .diagnostics import PropertyReport
from .errors import (
    DegenerateUtility,
    DimensionMismatch,
    GNotInvertible,
    MCNonMonotone,
    NoBracket,
)
from .normalization import Normalization
from .roots import bisect, expand_bracket
from .solver import SolveReport, SolverOptions, solve_normalized
from .system import Bounds, SubsolutionHints, SupplySystem


def demand_logit(delta: np.ndarray) -> np.ndarray:
    """Closed-form multinomial shares s_z proportional to exp(delta_z).

    delta is one quality vector (Z,) or a batch of rows (N, Z).
    """
    delta = np.asarray(delta, dtype=float)
    return softmax(delta, axis=-1)


def invert_logit(shares: np.ndarray, anchor: int = 0, K: float = 0.0) -> np.ndarray:
    """Closed-form inversion: delta_z = log(s_z / s_anchor) + K."""
    s = np.asarray(shares, dtype=float)
    if np.any(s <= 0) or abs(s.sum() - 1.0) > 1e-8:
        raise DimensionMismatch("shares must be strictly positive and sum to one")
    return np.log(s) - np.log(s[anchor]) + K


@dataclass(frozen=True)
class DemandModel:
    """Random-utility demand with frozen simulation draws.

    utilities(delta, eps) maps a quality vector (Z,) and a draw matrix
    (R, Z) to an (R, Z) utility matrix.  closed_form, when given, is the
    exact share map and takes precedence in system construction.
    """

    dim: int
    utilities: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    draws: Optional[np.ndarray] = None
    closed_form: Optional[Callable[[np.ndarray], np.ndarray]] = None
    bounds: Optional[Bounds] = None
    label: str = "demand"
    # (C, D) with U = delta[None, :] * C + D when utilities are affine in
    # the own quality; enables the exact order-statistic sweep
    affine_parts: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def __post_init__(self):
        if self.closed_form is None and (self.utilities is None or self.draws is None):
            raise DimensionMismatch("need either a closed form or utilities plus draws")
        if self.bounds is None:
            object.__setattr__(self, "bounds", Bounds.unbounded(self.dim))


def logit_model(dim: int) -> DemandModel:
    """Exact logit shares (no simulation)."""
    return DemandModel(dim=dim, closed_form=demand_logit, label="logit")


def logit_mc_model(dim: int, R: int, seed: int) -> DemandModel:
    """Logit simulated by frequency of argmax over standard Gumbel draws."""
    rng = np.random.default_rng(seed)
    draws = rng.gumbel(size=(R, dim))
    return DemandModel(
        dim=dim,
        utilities=lambda d, e: d[None, :] + e,
        draws=draws,
        label="logit-mc",
        affine_parts=(np.ones_like(draws), draws),
    )


def rc_logit_model(x: np.ndarray, sigmas: np.ndarray, R: int, seed: int) -> DemandModel:
    """Random-coefficients logit: tastes on characteristics plus a Gumbel tail.

    x is (Z, Kc); each consumer draws nu ~ N(0, diag(sigmas^2)) and a Gumbel
    vector, so eps_z = x_z . nu + gumbel_z.  sigmas = 0 collapses to logit.
    """
    x = np.asarray(x, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    Z, Kc = x.shape
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=(R, Kc)) * sigmas[None, :]
    draws = nu @ x.T + rng.gumbel(size=(R, Z))
    return DemandModel(
        dim=Z,
        utilities=lambda d, e: d[None, :] + e,
        draws=draws,
        label="rc-logit",
        affine_parts=(np.ones_like(draws), draws),
    )


def pure_characteristics_model(x: np.ndarray, R: int, seed: int, scale: float = 1.0) -> DemandModel:
    """Single-characteristic vertical taste model without an additive tail.

    eps_z = nu * x_z with scalar nu ~ N(0, scale^2); shares are step
    functions of delta, so inversion tolerances should respect 1/R.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng(seed)
    nu = rng.normal(size=R) * scale
    draws = nu[:, None] * x[None, :]
    return DemandModel(
        dim=x.size,
        utilities=lambda d, e: d[None, :] + e,
        draws=draws,
        label="pure-characteristics",
        affine_parts=(np.ones_like(draws), draws),
    )


def bridge_model(tolls: np.ndarray, R: int, seed: int, beta: float = 0.0) -> DemandModel:
    """Route choice with multiplicative congestion disutility.

    U_z = beta - toll_z + delta_z * exp(-eps), eps ~ N(0,1) scalar per
    consumer (a value-of-time draw shared across routes).  The model is a
    valid substitutes system only on delta < 0, which the bounds encode.
    """
    tolls = np.asarray(tolls, dtype=float)
    Z = tolls.size
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=R)
    draws = np.repeat(eps[:, None], Z, axis=1)

    def utilities(delta, e):
        return beta - tolls[None, :] + delta[None, :] * np.exp(-e)

    return DemandModel(
        dim=Z,
        utilities=utilities,
        draws=draws,
        bounds=Bounds(np.full(Z, -np.inf), np.zeros(Z)),
        label="bridge",
        affine_parts=(
            np.exp(-draws),
            np.broadcast_to(beta - tolls[None, :], (R, Z)).copy(),
        ),
    )


def demand_mc(model: DemandModel, delta: np.ndarray) -> np.ndarray:
    """Simulated shares: frequency of each good being the argmax.

    Ties go to the lowest index, matching np.argmax.
    """
    if model.utilities is None or model.draws is None:
        raise DimensionMismatch("model has no simulation structure")
    delta = np.asarray(delta, dtype=float)
    U = model.utilities(delta, model.draws)
    if not np.all(np.isfinite(U)):
        raise DegenerateUtility("simulated utilities are nonfinite")
    picks = np.argmax(U, axis=1)
    return np.bincount(picks, minlength=model.dim) / model.draws.shape[0]


def shares(model: DemandModel, delta: np.ndarray) -> np.ndarray:
    if model.closed_form is not None:
        return np.asarray(model.closed_form(np.asarray(delta, dtype=float)), dtype=float)
    return demand_mc(model, delta)


def _mc_sweep(model: DemandModel):
    # With U_rz = t * C_rz + D_rz and the other qualities held fixed,
    # consumer r switches into good z as t passes (max_{j != z} U_rj - D_rz)/C_rz,
    # so the simulated share section is a step function whose target-level
    # left root is an order statistic of the switch points.  A good's best
    # rival is the top good, or the runner-up where it is itself a top good
    # (a lone good is its own rival; with no free good its root is unused).
    C, D = model.affine_parts
    R, Z = C.shape
    goods = np.arange(Z)

    def sweep(q, p, pin):
        # the k-th switch point lifts the share to k / R; a target outside
        # (0, 1] has no root and its clipped k leaves the solve unconverged
        k = np.clip(np.ceil(q * R - 1e-9).astype(int), 1, R) - 1
        U = p[None, :] * C + D
        top2 = np.partition(U, max(Z - 2, 0), axis=1)[:, -2:]
        runner_up, best = top2[:, :1], top2[:, -1:]
        rival = np.where(U == best, runner_up, best)
        t = (rival - D) / C
        return np.partition(t, np.unique(k), axis=0)[k, goods]

    return sweep


def build_demand_system(model: DemandModel) -> SupplySystem:
    """Share equations as a balanced system (shares sum to one).

    Hints order the coordinates 0, 1, ..., Z-1; the envelope for good k
    evaluates the share map with every later quality pushed far down
    (those goods are effectively removed), which by substitutability can
    only overstate good k's share and makes the value independent of the
    later coordinates.
    """
    Z = model.dim

    def q_of_p(p):
        return shares(model, p)

    def env(k):
        def _env(p):
            clamped = p.copy()
            clamped[k + 1 :] = np.min(p[: k + 1]) - 40.0
            return float(shares(model, clamped)[k])

        return _env

    hints = SubsolutionHints(
        ordering=tuple(range(Z)),
        envelopes=tuple(env(k) for k in range(1, Z)),
    )

    batch = None
    sweep = None
    if model.closed_form is demand_logit:
        batch = demand_logit

        def sweep(q, p, pin):
            # the target shares determine the qualities up to translation and
            # the pin fixes the level, so the sweep jumps straight to the
            # root (the monotone iteration's limit from any subsolution)
            return p[pin] + np.log(q) - np.log(q[pin])

    elif model.closed_form is None and model.affine_parts is not None:
        sweep = _mc_sweep(model)

    return SupplySystem(
        dim=Z,
        eval_fn=q_of_p,
        bounds=model.bounds,
        balance_constant=1.0,
        subsolution_hints=hints,
        eval_batch=batch,
        sweep_solver=sweep,
        label=model.label,
    )


@dataclass
class InversionResult:
    delta: np.ndarray
    shares: np.ndarray
    report: SolveReport

    @property
    def residual(self) -> float:
        return self.report.residual


def invert_demand(
    model: DemandModel,
    s: np.ndarray,
    norm: Normalization,
    K: float,
    opts: Optional[SolverOptions] = None,
    pin_guess: float = 0.0,
) -> InversionResult:
    """Recover qualities from shares under psi(delta) = K."""
    s = np.asarray(s, dtype=float)
    if s.shape != (model.dim,):
        raise DimensionMismatch("share vector has the wrong length")
    if np.any(s <= 0) or abs(s.sum() - 1.0) > 1e-8:
        raise DimensionMismatch("shares must be strictly positive and sum to one")
    if opts is None:
        if model.closed_form is None:
            # simulated shares move in jumps of about 1/R
            R = model.draws.shape[0]
            tol = max(10.0 / R, 1e-9)
            opts = SolverOptions(
                tol_outer=tol,
                tol_inner=max(1e-10, 1e-2 * tol),
                tol_bracket=tol,
                refine_factor=1.0,
            )
        else:
            opts = SolverOptions()
    system = build_demand_system(model)
    try:
        rep = solve_normalized(system, s, norm, K, opts)
    except NoBracket as exc:
        if model.closed_form is None:
            raise MCNonMonotone(
                f"simulated share section failed to cross its target: {exc}"
            ) from exc
        raise
    return InversionResult(delta=rep.p_star, shares=shares(model, rep.p_star), report=rep)


def check_utility_regularity(
    model: DemandModel,
    delta_grid: Optional[np.ndarray] = None,
    eps_grid: Optional[np.ndarray] = None,
    tol: float = 1e-8,
) -> PropertyReport:
    """Finite-difference probes of the utility index.

    Checks monotonicity in the own quality and in the own shock over a
    grid, and flags (without failing) whether utilities appear bounded
    above as qualities grow.
    """
    rep = PropertyReport("utility_regularity", 0)
    if model.utilities is None:
        rep.notes = "closed-form model; probes skipped"
        return rep
    Z = model.dim
    if delta_grid is None:
        hi = np.where(np.isfinite(model.bounds.upper), model.bounds.upper - 1e-6, 3.0)
        lo = np.where(np.isfinite(model.bounds.lower), model.bounds.lower + 1e-6, -3.0)
        delta_grid = np.stack(
            [np.linspace(l, h, 7) for l, h in zip(np.maximum(lo, -3.0), np.minimum(hi, 3.0))],
            axis=1,
        )
    if eps_grid is None:
        eps_grid = np.linspace(-2.0, 2.0, 9)

    h = 1e-4
    count = 0
    bounded_above = True
    for drow in delta_grid:
        drow = np.asarray(drow, dtype=float)
        for e in eps_grid:
            E = np.full((1, Z), float(e))
            U0 = model.utilities(drow, E)[0]
            count += 1
            # own-quality monotonicity
            for z in range(Z):
                dd = drow.copy()
                dd[z] = min(dd[z] + h, model.bounds.upper[z] - 1e-9)
                if dd[z] <= drow[z]:
                    continue
                U1 = model.utilities(dd, E)[0]
                if U1[z] < U0[z] - tol:
                    rep.violations.append(
                        {"kind": "decreasing_in_quality", "good": z, "delta": drow.tolist(), "eps": float(e)}
                    )
            # own-shock monotonicity
            U_e = model.utilities(drow, E + h)[0]
            if np.any(U_e < U0 - tol):
                bad = int(np.argmin(U_e - U0))
                rep.violations.append(
                    {"kind": "decreasing_in_shock", "good": bad, "delta": drow.tolist(), "eps": float(e)}
                )
        # boundedness probe: utilities at a large admissible quality
        probe = np.minimum(model.bounds.upper - 1e-9, 40.0)
        U_hi = model.utilities(probe, np.zeros((1, Z)))[0]
        if np.any(U_hi > 1e6):
            bounded_above = False
    rep.samples_tested = count
    rep.notes = f"bounded_above={bounded_above}"
    return rep


# ----------------------------------------------------------------------
# structural residuals for moment-based estimation


@dataclass(frozen=True)
class GFamily:
    """Structural link delta = g(t, x2; theta) with t the unobserved index.

    g must be strictly increasing in t.  g_inv, when given, is the exact
    inverse in t; otherwise a bracketed bisection is used.
    """

    g: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    g_inv: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None
    label: str = "custom"


def linear_g() -> GFamily:
    """g(t, x2; theta) = t - theta * x2 with a scalar theta."""
    return GFamily(
        g=lambda t, x2, th: t - th[0] * x2,
        g_inv=lambda d, x2, th: d + th[0] * x2,
        label="linear",
    )


def residual_xi(
    delta: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    gfam: GFamily,
    theta: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """Structural residual xi_z = g^{-1}(delta_z, x2_z; theta) - x1_z."""
    delta = np.asarray(delta, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if gfam.g_inv is not None:
        t = np.asarray(gfam.g_inv(delta, x2, theta), dtype=float)
        return t - x1

    def section(t):
        return np.asarray(gfam.g(t, x2, theta), dtype=float) - delta

    # g is increasing in t: walk down and up from t = 0 for the two ends
    # of each bracket
    zero = np.zeros_like(delta)
    try:
        lo, _ = expand_bracket(section, zero, fx0=np.inf, closed=True, max_expansions=200)
        _, hi = expand_bracket(section, zero, fx0=-np.inf, max_expansions=200)
    except NoBracket as exc:
        raise GNotInvertible(f"no bracket for data point {exc.coordinate}") from exc
    lo, hi = bisect(section, lo, hi, tol)
    return 0.5 * (lo + hi) - x1
