"""Demand maps, simulated shares, and demand inversion.

A demand model sends a quality vector delta to market shares; inversion
recovers delta from observed shares by running the balanced-system solver
on the share equations (the balance constant is 1).  Simulated models use
one frozen matrix of shocks (common random numbers) so the simulated map
is deterministic and weakly monotone in delta.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import softmax

from .diagnostics import PropertyReport, probe_range
from .errors import (
    DegenerateUtility,
    DimensionMismatch,
    GNotInvertible,
    NoBracket,
)
from .normalization import Normalization
from .roots import bisect, expand_bracket, newton
from .solver import SolveReport, SolverOptions, solve_normalized
from .system import Bounds, SubsolutionHints, SupplySystem

XI_TOL = 1e-12  # bracket width of residual_xi without an exact g_inv
REGULARITY_EPS = np.linspace(-2.0, 2.0, 9)  # shock grid of check_utility_regularity
REGULARITY_TOL = 1e-8  # utility drop check_utility_regularity tolerates


def demand_logit(delta: np.ndarray) -> np.ndarray:
    """Closed-form multinomial shares s_z proportional to exp(delta_z).

    delta is one quality vector (Z,) or a batch of rows (N, Z).
    """
    delta = np.asarray(delta, dtype=float)
    return softmax(delta, axis=-1)


def _check_shares(s: np.ndarray) -> None:
    if not np.all(s > 0) or abs(s.sum() - 1.0) > 1e-8:  # NaN fails s > 0, inf the sum
        raise DimensionMismatch("shares must be strictly positive and sum to one")


def invert_logit(shares: np.ndarray, anchor: int = 0, K: float = 0.0) -> np.ndarray:
    """Closed-form inversion: delta_z = log(s_z / s_anchor) + K."""
    s = np.asarray(shares, dtype=float)
    _check_shares(s)
    return np.log(s) - np.log(s[anchor]) + K


@dataclass(frozen=True)
class DemandModel:
    """Random-utility demand with frozen simulation draws.

    Simulated consumer r picks argmax_z delta_z + draws[r, z], draws (R, Z).
    utilities(delta, eps) -> (R, Z) is the structural index that
    check_utility_regularity probes; no share map reads it.  closed_form
    is the share map and takes precedence: a simulator not additive in
    delta goes there, and its inversion needs explicit SolverOptions
    (tolerances near 10/R, refine_factor 1.0).
    """

    dim: int
    utilities: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    draws: Optional[np.ndarray] = None
    closed_form: Optional[Callable[[np.ndarray], np.ndarray]] = None
    bounds: Optional[Bounds] = None
    label: str = "demand"

    def __post_init__(self):
        if self.closed_form is None and self.draws is None:
            raise DimensionMismatch("need either a closed form or draws")
        shape = (1, self.dim) if self.draws is None else np.shape(self.draws)
        if len(shape) != 2 or shape[0] < 1 or shape[1] != self.dim:
            raise DimensionMismatch(f"draws must be (R, {self.dim}) with R >= 1, got {shape}")
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
    )


def bridge_model(tolls: np.ndarray, R: int, seed: int, beta: float = 0.0) -> DemandModel:
    """Route choice with multiplicative congestion disutility.

    U_z = beta - toll_z + delta_z * exp(-eps), eps ~ N(0,1) scalar per
    consumer (a value-of-time draw shared across routes).  The model is a
    valid substitutes system only on delta < 0, which the bounds encode.
    Dividing by exp(-eps) > 0 keeps each consumer's argmax, so the draws
    are the additive choice parts (beta - toll_z) * exp(eps).
    """
    tolls = np.asarray(tolls, dtype=float)
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=R)

    def utilities(delta, e):
        return beta - tolls[None, :] + delta[None, :] * np.exp(-e)

    return DemandModel(
        dim=tolls.size,
        utilities=utilities,
        draws=(beta - tolls[None, :]) * np.exp(eps)[:, None],
        bounds=Bounds(np.full(tolls.size, -np.inf), np.zeros(tolls.size)),
        label="bridge",
    )


def _check_qualities(model: DemandModel, delta: np.ndarray) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape[-1:] != (model.dim,):
        raise DimensionMismatch(f"quality vector needs {model.dim} entries, got shape {delta.shape}")
    return delta


def demand_mc(model: DemandModel, delta: np.ndarray) -> np.ndarray:
    """Simulated shares: frequency of each good being the argmax.

    Ties go to the lowest index, matching np.argmax.
    """
    if model.draws is None:
        raise DimensionMismatch("model has no simulation draws")
    U = _check_qualities(model, delta)[None, :] + model.draws
    if not np.all(np.isfinite(U)):
        raise DegenerateUtility("simulated utilities are nonfinite")
    picks = np.argmax(U, axis=1)
    return np.bincount(picks, minlength=model.dim) / model.draws.shape[0]


def shares(model: DemandModel, delta: np.ndarray) -> np.ndarray:
    if model.closed_form is not None:
        return np.asarray(model.closed_form(_check_qualities(model, delta)), dtype=float)
    return demand_mc(model, delta)


def _mc_sweep(model: DemandModel):
    # With U_rz = t + D_rz and the other qualities held fixed, consumer r
    # switches into good z as t passes max_{j != z} U_rj - D_rz,
    # so the simulated share section is a step function whose target-level
    # left root is an order statistic of the switch points.  A good's best
    # rival is the top good, or the runner-up where it is itself a top good
    # (a lone good is its own rival; with no free good its root is unused).
    D = model.draws
    R, Z = D.shape
    goods = np.arange(Z)

    def sweep(q, p, pin):
        # the k-th switch point lifts the share to k / R; a target outside
        # (0, 1] has no root and its clipped k leaves the solve unconverged
        k = np.clip(np.ceil(q * R - 1e-9).astype(int), 1, R) - 1
        U = p[None, :] + D
        top2 = np.partition(U, max(Z - 2, 0), axis=1)[:, -2:]
        runner_up, best = top2[:, :1], top2[:, -1:]
        rival = np.where(U == best, runner_up, best)
        return np.partition(rival - D, np.unique(k), axis=0)[k, goods]

    return sweep


def build_demand_system(model: DemandModel) -> SupplySystem:
    """Share equations as a balanced system (shares sum to one).

    Hints pin coordinate 0 and put every other good in one block.  Its
    envelope gives good k the share of k with every good but the pin and k
    clamped to min(p[0], p[k]) - 40 (effectively removed), which by
    substitutability can only overstate Q_k(p) and reads only p[0] and
    p[k]; its rows go through eval_batch as one (Z-1, Z) batch when the
    system has one, and through one share evaluation per row otherwise.
    Exact logit and simulated models (argmax of delta + draws) get closed
    sweeps and are translation-invariant on any box; other maps bisect.
    """
    Z = model.dim
    free = np.arange(1, Z)

    def q_of_p(p):
        return shares(model, p)

    batch = sweep = None
    # unwrapped on both sides, so a wrapper around demand_logit (installed
    # before or after the model was built) still selects the closed form
    if inspect.unwrap(model.closed_form) is inspect.unwrap(demand_logit):
        batch = demand_logit

        def sweep(q, p, pin):
            # the target shares determine the qualities up to translation and
            # the pin fixes the level, so the sweep jumps straight to the
            # root (the monotone iteration's limit from any subsolution)
            return p[pin] + np.log(q) - np.log(q[pin])

    elif model.closed_form is None:
        sweep = _mc_sweep(model)

    def envelope(p):
        rows = np.repeat(np.minimum(p[0], p[free])[:, None] - 40.0, Z, axis=1)
        rows[:, 0] = p[0]
        rows[free - 1, free] = p[free]
        if batch is not None and free.size:
            return batch(rows)[free - 1, free]
        return np.array([shares(model, row)[k] for row, k in zip(rows, free)])

    return SupplySystem(
        dim=Z,
        eval_fn=q_of_p,
        bounds=model.bounds,
        balance_constant=1.0,
        subsolution_hints=SubsolutionHints(ordering=(0, free), envelopes=(envelope,)),
        eval_batch=batch,
        sweep_solver=sweep,
        translation_invariant=sweep is not None,
    )


@dataclass
class InversionResult:
    delta: np.ndarray
    shares: np.ndarray
    report: SolveReport


def invert_demand(
    model: DemandModel,
    s: np.ndarray,
    norm: Normalization,
    K: float,
    opts: Optional[SolverOptions] = None,
    pin_guess: float = 0.0,
) -> InversionResult:
    """Recover qualities from shares under psi(delta) = K.

    Simulated shares move in steps of about 1/R, below which no re-solve
    can refine: for a model with draws opts defaults to tolerances of
    10/R, and refinement is off (refine_factor 1.0) whatever opts is
    given.  A simulator passed as closed_form needs explicit SolverOptions
    (tolerances near 10/R, refine_factor 1.0).  A share vector that is not
    positive (NaN included) or does not sum to one raises DimensionMismatch.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (model.dim,):
        raise DimensionMismatch("share vector has the wrong length")
    _check_shares(s)
    if model.closed_form is None:
        if opts is None:
            tol = max(10.0 / model.draws.shape[0], 1e-9)
            opts = SolverOptions(tol_outer=tol, tol_bracket=tol)
        opts = replace(opts, refine_factor=1.0)
    system = build_demand_system(model)
    rep = solve_normalized(system, s, norm, K, opts or SolverOptions(), pin_guess=pin_guess)
    return InversionResult(delta=rep.p_star, shares=shares(model, rep.p_star), report=rep)


def check_utility_regularity(
    model: DemandModel,
    delta_grid: Optional[np.ndarray] = None,
) -> PropertyReport:
    """Finite-difference probes of the utility index.

    Checks monotonicity in the own quality and in the own shock over a
    grid, and flags (without failing) whether utilities appear bounded
    above as qualities grow.
    """
    rep = PropertyReport("utility_regularity", 0)
    if model.utilities is None:
        rep.notes = "no utility index; probes skipped"
        return rep
    Z = model.dim
    if delta_grid is None:
        delta_grid = np.linspace(*probe_range(model.bounds, 3.0), 7)

    h = 1e-4
    count = 0
    bounded_above = True
    for drow in delta_grid:
        drow = np.asarray(drow, dtype=float)
        for e in REGULARITY_EPS:
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
                if U1[z] < U0[z] - REGULARITY_TOL:
                    rep.violations.append(
                        {"kind": "decreasing_in_quality", "good": z, "delta": drow.tolist(), "eps": float(e)}
                    )
            # own-shock monotonicity
            U_e = model.utilities(drow, E + h)[0]
            if np.any(U_e < U0 - REGULARITY_TOL):
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
    inverse in t; otherwise residual_xi brackets each root, steps Newton on
    a forward-difference slope, and certifies the answer by a bracket
    narrower than XI_TOL, bisecting where Newton cannot land.
    """

    g: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    g_inv: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None


def linear_g() -> GFamily:
    """g(t, x2; theta) = t - theta * x2 with a scalar theta."""
    return GFamily(
        g=lambda t, x2, th: t - th[0] * x2,
        g_inv=lambda d, x2, th: d + th[0] * x2,
    )


def residual_xi(
    delta: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    gfam: GFamily,
    theta: np.ndarray,
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

    def sloped(t):
        h = 1e-6 * np.maximum(1.0, np.abs(t))
        f = section(t)
        return f, (section(t + h) - f) / h

    # g is increasing in t: one walk from t = 0 brackets each root, Newton
    # lands near it, and a bracket of width XI_TOL / 2 around Newton's point
    # replaces the walk's wherever it holds the sign change; bisection then
    # narrows the rest (a kink, or zero slope at the root) to XI_TOL
    try:
        lo, hi = expand_bracket(section, np.zeros_like(delta), closed=True, max_expansions=200)
    except NoBracket as exc:
        raise GNotInvertible(f"no bracket for data point {exc.coordinate}") from exc
    t = newton(sloped, lo, hi, 0.0)
    w = 0.25 * XI_TOL * np.maximum(1.0, np.abs(t))
    a, b = np.maximum(t - w, lo), np.minimum(t + w, hi)
    held = (section(a) < 0) & (section(b) >= 0)
    lo, hi = bisect(section, np.where(held, a, lo), np.where(held, b, hi), XI_TOL)
    return 0.5 * (lo + hi) - x1
