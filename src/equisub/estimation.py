"""Estimation layers: nested maximum likelihood, a saddle-point (KKT)
formulation solved by damped Newton, and nested moment-based estimation
for demand models.

The matching likelihood treats observed matches as multinomial draws from
the equilibrium frequencies Pi_xy(theta) = mu_xy(theta) / sum(mu(theta)),
where mu solves the accounting and normalization constraints at theta.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy import optimize
from scipy.linalg import get_lapack_funcs

from .demand import DemandModel, GFamily, InversionResult, invert_demand, residual_xi
from .errors import (
    DimensionMismatch,
    OptimizerStalled,
    SingularConstraintJacobian,
    SingularWeight,
    ZeroPredictedCell,
)
from .matching import (
    DistanceFamily,
    MarketPrimitives,
    MatchingEquilibrium,
    MatchingFamily,
    solve_mfe,
)
from .normalization import Normalization
from .solver import SolverOptions

MLE_GTOL = 1e-6  # gradient sup-norm at which mle_nested stops
MLE_MAX_ITER = 500  # quasi-Newton iterations of mle_nested
MPEC_TOL = 1e-10  # stationarity residual norm at which mpec_solve stops
MPEC_MAX_ITER = 200  # damped Newton steps of mpec_solve


# ----------------------------------------------------------------------
# parameter specifications


@dataclass(frozen=True)
class ThetaSpec:
    """Linear-in-parameters map theta -> matching family.

    The preference tables are alpha(theta) = alpha0 + sum_k theta_k *
    alpha_basis[k] (gamma alike, each gamma table zeros unless given).  A
    surplus table phi(theta) (the usual NTU spec) is the split alpha = phi,
    gamma = 0.
    """

    kind: str
    alpha0: np.ndarray
    alpha_basis: np.ndarray  # (d, X, Y)
    gamma0: Optional[np.ndarray] = None
    gamma_basis: Optional[np.ndarray] = None
    distance: Optional[DistanceFamily] = None

    def __post_init__(self):
        alpha0 = np.asarray(self.alpha0, dtype=float)
        ab = np.asarray(self.alpha_basis, dtype=float)
        gamma0 = np.zeros_like(alpha0) if self.gamma0 is None else np.asarray(self.gamma0, dtype=float)
        gb = np.zeros_like(ab) if self.gamma_basis is None else np.asarray(self.gamma_basis, dtype=float)
        if ab.shape != gb.shape or ab.shape[1:] != alpha0.shape:
            raise DimensionMismatch("alpha and gamma bases must both be (d,) + the table shape")
        for name, value in (("alpha0", alpha0), ("gamma0", gamma0), ("alpha_basis", ab), ("gamma_basis", gb)):
            object.__setattr__(self, name, value)
        self.family(np.zeros(ab.shape[0]))  # MatchingFamily's checks of kind, shapes and distance

    @property
    def dim(self) -> int:
        return self.alpha_basis.shape[0]

    @property
    def table_shape(self) -> Tuple[int, int]:
        return self.alpha0.shape

    def family(self, theta: np.ndarray) -> MatchingFamily:
        theta = np.asarray(theta, dtype=float)
        alpha = self.alpha0 + np.tensordot(theta, self.alpha_basis, axes=1)
        gamma = self.gamma0 + np.tensordot(theta, self.gamma_basis, axes=1)
        return MatchingFamily(kind=self.kind, alpha=alpha, gamma=gamma, distance=self.distance)


def tu_surplus_spec(phi0: np.ndarray, basis: np.ndarray) -> ThetaSpec:
    """TU family with phi(theta) = phi0 + sum theta_k basis_k.

    The split alpha = phi, gamma = 0 is immaterial for TU equilibrium
    objects, which depend on the tables only through their sum.
    """
    return ThetaSpec(kind="TU", alpha0=phi0, alpha_basis=basis)


# ----------------------------------------------------------------------
# per-cell derivative engine
#
# Cell (x, y) has log M = -d(u, v) with u = -a_x - alpha_xy, v = -b_y -
# gamma_xy and alpha, gamma affine in theta, so its gradient in its own
# variables (theta, a_x, b_y) is (alpha_basis d_u + gamma_basis d_v, d_u,
# d_v) and its Hessian has rank 2 (for NTU, DIST_SUM's d_u = d_v = 1 with
# zero curvature and bases (alpha_basis, 0)).  Global derivatives in (theta,
# a, b) are row and column sums of such tables, and the nested gradient is
# one adjoint solve with the saddle-point multipliers.


def _cell_blocks(spec: ThetaSpec, theta: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Return (m, (du, dv), g, D2d): log M and its slopes in a_x and b_y, all
    (X, Y), its theta-gradient g (d, X, Y), and the distance's curvature
    D2d = (d_uu, d_uv, d_vv) in (u, v), which DistanceFamily.evaluate gives
    with the slopes."""
    fam = spec.family(np.atleast_1d(theta))
    u = -a[:, None] - fam.alpha
    v = -b[None, :] - fam.gamma
    dist, du, dv, *D2d = (np.broadcast_to(t, u.shape) for t in fam.distance.evaluate(u, v))
    g = spec.alpha_basis * du + spec.gamma_basis * dv
    return -dist, (du, dv), g, D2d


def _first_order(
    spec: ThetaSpec,
    theta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
):
    """Constraint values G, Jacobian DG and log-likelihood gradient Dl.

    Rows of G and DG (X+Y+1, nv): X accounting rows, Y accounting rows, one
    normalization row psi(-a, b) - K; columns and Dl span nv = d + X + Y
    variables (theta, a, b).  The log-likelihood is sum mu_hat log(M / N)
    with N = sum M.  Also returns M, W = M / N, _cell_blocks' du, dv, g and
    curvature D2d, and DlogN, the gradient of log N, for second-order
    assembly."""
    m, (du, dv), g, D2d = _cell_blocks(spec, theta, a, b)
    d, X, Y = g.shape
    M = np.exp(m)
    Mu, Mv, gM = M * du, M * dv, g * M

    # row x sums the cells of row x, row X + y those of column y
    DG = np.zeros((X + Y + 1, d + X + Y))
    DG[:X, :d] = gM.sum(axis=2).T
    DG[:X, d : d + X] = np.diag(Mu.sum(axis=1))
    DG[:X, d + X :] = Mv
    DG[X:-1, :d] = gM.sum(axis=1).T
    DG[X:-1, d : d + X] = Mu.T
    DG[X:-1, d + X :] = np.diag(Mv.sum(axis=0))
    G = np.empty(X + Y + 1)
    G[:X] = M.sum(axis=1) - mu_hat.sum(axis=1)
    G[X : X + Y] = M.sum(axis=0) - mu_hat.sum(axis=0)

    p = np.concatenate([-a, b])
    G[-1] = norm(p) - K
    gp = norm.grad(p)
    DG[-1, d : d + X] = -gp[:X]
    DG[-1, d + X :] = gp[X:]
    # shipped normalizations are piecewise linear: zero curvature

    # N is the sum of the X row totals, so DlogN sums DG's first X rows; Dl
    # sums w (g, du, dv) over the cells, and N-relative weights w keep its
    # intermediates at unit scale
    W = M / M.sum()
    DlogN = DG[:X].sum(axis=0) / M.sum()
    w = mu_hat - mu_hat.sum() * W
    Dl = np.concatenate([g.reshape(d, -1) @ w.ravel(), (w * du).sum(axis=1), (w * dv).sum(axis=0)])
    return G, DG, Dl, (M, W, du, dv, g, D2d, DlogN)


_getrf, _getrs, _gecon = get_lapack_funcs(("getrf", "getrs", "gecon"), dtype=np.float64)


def _redundant_row(X: int, Y: int) -> np.ndarray:
    """Unit vector r with r^T DG = 0 and r^T G = sum m_hat - sum n_hat = 0.

    The X accounting rows sum to the Y accounting rows up to the data
    totals, whatever (theta, a, b), so one accounting row is redundant.
    """
    r = np.zeros(X + Y + 1)
    r[:X] = 1.0
    r[X : X + Y] = -1.0
    return r / np.sqrt(X + Y)


def _min_norm_solve(A: np.ndarray, rhs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of A x = rhs, given a unit null vector z of A.

    A is either square and symmetric with rhs orthogonal to z, or has one
    row fewer than columns; either way the minimum-norm solution is the
    one orthogonal to z.  Bordering A with s z (s = |A|_1 keeps the border
    on the scale of A), as A + s z z^T or as A stacked on s z^T, gives a
    square system whose unique solution is that one, solved by one LU
    factorization.  A zero pivot or a reciprocal condition at rounding
    level means A has a second null direction (e.g. theta is not
    identified); only then does the solve fall back to an SVD-based
    least-squares solve.
    """
    m, n = A.shape
    border = np.abs(A).sum(axis=0).max() * z
    if m == n:
        B = A + np.outer(z, border)
    else:
        B = np.vstack([A, border])
        rhs = np.append(rhs, 0.0)
    lu, piv, info = _getrf(B)
    if info == 0:
        rcond, _ = _gecon(lu, np.abs(B).sum(axis=0).max())
        if rcond > n * np.finfo(float).eps:
            return _getrs(lu, piv, rhs)[0]
    return np.linalg.lstsq(A, rhs[:m], rcond=None)[0]


def _multiplier(spec: ThetaSpec, DG: np.ndarray, Dl: np.ndarray) -> np.ndarray:
    """Minimum-norm lambda with DG_ab^T lambda = -Dl_ab.

    The stacked constraint Jacobian in (a, b) has one redundant accounting
    row; the normalization row restores full column rank, so the system
    is consistent and its solutions differ along the redundant row r.
    """
    d = spec.dim
    return _min_norm_solve(DG[:, d:].T, -Dl[d:], _redundant_row(*spec.table_shape))


# ----------------------------------------------------------------------
# likelihood and gradient


def predicted_frequencies(
    spec: ThetaSpec,
    theta: np.ndarray,
    n_hat: np.ndarray,
    m_hat: np.ndarray,
    norm: Normalization,
    K: float,
    opts: SolverOptions = SolverOptions(),
) -> Tuple[np.ndarray, MatchingEquilibrium]:
    """Equilibrium match frequencies at theta given observed margins."""
    prim = MarketPrimitives(family=spec.family(theta), n=n_hat, m=m_hat)
    eq = solve_mfe(prim, norm, K, opts)
    Pi = eq.mu / eq.mu.sum()
    return Pi, eq


def _observed_counts(mu_hat) -> np.ndarray:
    """The observed match table as floats; a negative or nonfinite count
    raises DimensionMismatch (zero counts are valid)."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    if not np.all(np.isfinite(mu_hat) & (mu_hat >= 0)):
        raise DimensionMismatch("observed counts must be finite and nonnegative")
    return mu_hat


def log_likelihood(mu_hat: np.ndarray, Pi: np.ndarray) -> float:
    """Multinomial log-likelihood sum mu_hat * log Pi."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    Pi = np.asarray(Pi, dtype=float)
    pos = mu_hat > 0
    if np.any(Pi[pos] <= 0):
        raise ZeroPredictedCell("predicted frequency is zero on an observed cell")
    return float(np.sum(mu_hat[pos] * np.log(Pi[pos])))


def likelihood_gradient(
    spec: ThetaSpec,
    theta: np.ndarray,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
    opts: SolverOptions = SolverOptions(),
    eq: Optional[MatchingEquilibrium] = None,
) -> np.ndarray:
    """Analytic gradient of the nested log-likelihood in theta.

    Combines the direct parameter effect on the matching function with the
    equilibrium fee response, which the implicit function theorem on the
    accounting and normalization constraints DG (theta, a, b) = 0 gives.
    By the adjoint identity the response enters through the multiplier
    lambda solving DG_ab^T lambda = -Dl_ab:  grad = Dl_theta + lambda^T DG_theta.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    mu_hat = np.asarray(mu_hat, dtype=float)
    if eq is None:
        _, eq = predicted_frequencies(
            spec, theta, mu_hat.sum(axis=1), mu_hat.sum(axis=0), norm, K, opts
        )
    d = spec.dim
    _, DG, Dl, (_, Pi, *_) = _first_order(spec, theta, eq.a, eq.b, mu_hat, norm, K)
    if np.any(Pi[mu_hat > 0] <= 0):
        raise ZeroPredictedCell("predicted frequency is zero on an observed cell")

    J_ab = DG[:, d:]
    if not np.all(np.isfinite(J_ab)):
        raise SingularConstraintJacobian("nonfinite constraint Jacobian")
    s = np.linalg.svd(J_ab, compute_uv=False)
    if s[-1] <= 0 or s[0] / s[-1] > 1e12:
        raise SingularConstraintJacobian(
            f"constraint Jacobian condition {s[0] / max(s[-1], 1e-300):.3e} exceeds cap"
        )
    return Dl[:d] + _multiplier(spec, DG, Dl) @ DG[:, :d]


@dataclass
class MleResult:
    theta: np.ndarray
    loglik: float
    gradient_norm: float
    iterations: int
    eq: MatchingEquilibrium
    path: List[np.ndarray] = field(default_factory=list)


def mle_nested(
    spec: ThetaSpec,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
    theta0: np.ndarray,
    opts: SolverOptions = SolverOptions(),
) -> MleResult:
    """Maximize the nested log-likelihood by quasi-Newton ascent.

    Raises OptimizerStalled when the likelihood is flat in theta (no
    identification) or the optimizer stops far from stationarity.  A
    negative or nonfinite count raises DimensionMismatch before any solve.
    """
    mu_hat = _observed_counts(mu_hat)
    n_hat = mu_hat.sum(axis=1)
    m_hat = mu_hat.sum(axis=0)
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    path: List[np.ndarray] = []

    def negloglik_and_grad(theta):
        Pi, eq = predicted_frequencies(spec, theta, n_hat, m_hat, norm, K, opts)
        val = log_likelihood(mu_hat, Pi)
        g = likelihood_gradient(spec, theta, mu_hat, norm, K, opts, eq=eq)
        path.append(np.asarray(theta, dtype=float).copy())
        return -val, -g

    res = optimize.minimize(
        negloglik_and_grad,
        theta0,
        jac=True,
        method="BFGS",
        options={"gtol": MLE_GTOL, "maxiter": MLE_MAX_ITER},
    )
    theta_hat = np.atleast_1d(res.x)
    gnorm = float(np.max(np.abs(res.jac)))

    # flatness probe: step in every direction and look for any movement;
    # values only, and off the optimizer's path
    f_hat = res.fun
    h = 1e-3
    flat = True
    for k in range(theta_hat.size):
        for sgn in (-1.0, 1.0):
            t = theta_hat.copy()
            t[k] += sgn * h
            Pi, _ = predicted_frequencies(spec, t, n_hat, m_hat, norm, K, opts)
            f_probe = -log_likelihood(mu_hat, Pi)
            if abs(f_probe - f_hat) > 1e-10 * (1.0 + abs(f_hat)):
                flat = False
                break
        if not flat:
            break
    if flat and theta_hat.size > 0:
        raise OptimizerStalled(
            "log-likelihood is flat in theta around the stopping point",
            theta=theta_hat,
            value=-f_hat,
        )
    if gnorm > 10 * MLE_GTOL:
        raise OptimizerStalled(
            f"optimizer stopped with gradient norm {gnorm:.3e}",
            theta=theta_hat,
            value=-f_hat,
        )

    _, eq = predicted_frequencies(spec, theta_hat, n_hat, m_hat, norm, K, opts)
    return MleResult(
        theta=theta_hat,
        loglik=-float(res.fun),
        gradient_norm=gnorm,
        iterations=int(res.nit),
        eq=eq,
        path=path,
    )


# ----------------------------------------------------------------------
# saddle-point (KKT) formulation


def mpec_residual(
    spec: ThetaSpec,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
    theta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    lam: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stationarity system of the constrained likelihood and its Jacobian.

    Unknowns are stacked as (theta, a, b, lambda) with one multiplier per
    accounting row plus one for the normalization.  The residual stacks
    the Lagrangian gradient in (theta, a, b) and the constraint values;
    the Jacobian is the symmetric KKT matrix with a zero corner block.
    """
    mu_hat = np.asarray(mu_hat, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lam = np.asarray(lam, dtype=float)
    X, Y = spec.table_shape
    if lam.shape != (X + Y + 1,):
        raise DimensionMismatch(f"expected {X + Y + 1} multipliers")
    return _kkt_system(spec, mu_hat, lam, _first_order(spec, theta, a, b, mu_hat, norm, K))


def _kkt_system(spec: ThetaSpec, mu_hat: np.ndarray, lam: np.ndarray, first_order) -> Tuple[np.ndarray, np.ndarray]:
    """mpec_residual's (Psi, J) from _first_order's output."""
    G, DG, Dl, (M, W, du, dv, g, (duu, duv, dvv), DlogN) = first_order
    X, Y = spec.table_shape
    d, nv = spec.dim, DG.shape[1]
    N_hat = mu_hat.sum()

    # Lagrangian Hessian: cell (x, y) contributes c1 H + c2 g g^T with its
    # log M Hessian H and gradient g (from mu_hat log M, -N_hat log N and the
    # accounting rows x and X + y), and -N_hat log N adds N_hat DlogN DlogN^T.
    # With P the gradient of (u, v), whose theta rows are -(alpha_basis,
    # gamma_basis) and a_x, b_y rows -(1, 0), -(0, 1), H = -P^T D2d P and
    # g = -P^T Dd, so c1 H + c2 g g^T = P^T S P with S = c2 Dd Dd^T - c1 D2d
    LM = (lam[:X, None] + lam[None, X : X + Y]) * M
    c1 = mu_hat - N_hat * W + LM
    c2 = LM - N_hat * W
    Suu = c2 * du * du - c1 * duu
    Suv = c2 * du * dv - c1 * duv
    Svv = c2 * dv * dv - c1 * dvv
    A, B = spec.alpha_basis, spec.gamma_basis
    Tu = A * Suu + B * Suv
    Tv = A * Suv + B * Svv

    J = np.zeros((nv + DG.shape[0],) * 2)
    D2L = J[:nv, :nv]
    D2L[:d, :d] = A.reshape(d, -1) @ Tu.reshape(d, -1).T + B.reshape(d, -1) @ Tv.reshape(d, -1).T
    D2L[:d, d : d + X] = Tu.sum(axis=2)
    D2L[:d, d + X :] = Tv.sum(axis=1)
    D2L[d:, :d] = D2L[:d, d:].T
    D2L[d : d + X, d : d + X] = np.diag(Suu.sum(axis=1))
    D2L[d : d + X, d + X :] = Suv
    D2L[d + X :, d : d + X] = Suv.T
    D2L[d + X :, d + X :] = np.diag(Svv.sum(axis=0))
    D2L += N_hat * np.outer(DlogN, DlogN)
    J[:nv, nv:] = DG.T
    J[nv:, :nv] = DG
    return np.concatenate([Dl + lam @ DG, G]), J


def solve_multiplier(
    spec: ThetaSpec,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
    theta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Minimum-norm multipliers making the fee-block stationarity vanish."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    _, DG, Dl, _ = _first_order(spec, theta, a, b, mu_hat, norm, K)
    return _multiplier(spec, DG, Dl)


@dataclass
class MpecResult:
    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lam: np.ndarray
    residual_norm: float
    iterations: int


def mpec_solve(
    spec: ThetaSpec,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
    theta0: np.ndarray,
    a0: np.ndarray,
    b0: np.ndarray,
) -> MpecResult:
    """Damped Newton iteration on the stationarity system.

    The iterate is the stacked unknown x = (theta, a, b, lambda).  Each step
    is the minimum-norm solution of the KKT system, whose one null
    direction is the redundant accounting row's multiplier; one bordered LU
    solve finds it.  The trial point x + 0.5^k step is taken at the first k
    whose residual norm does not increase.  A negative or nonfinite count
    raises DimensionMismatch before any solve.
    """
    mu_hat = _observed_counts(mu_hat)
    d, (X, Y) = spec.dim, spec.table_shape
    cuts = np.cumsum([d, X, Y])
    z = np.concatenate([np.zeros(d + X + Y), _redundant_row(X, Y)])

    # one first-order assembly gives the start multiplier and first residual
    x = np.concatenate([np.atleast_1d(theta0), a0, b0], dtype=float)
    first = _first_order(spec, *np.split(x, cuts[:2]), mu_hat, norm, K)
    x = np.append(x, _multiplier(spec, first[1], first[2]))
    Psi, J = _kkt_system(spec, mu_hat, x[cuts[2] :], first)
    rnorm = float(np.linalg.norm(Psi))
    for it in range(MPEC_MAX_ITER + 1):
        if rnorm <= MPEC_TOL:
            return MpecResult(*np.split(x, cuts), rnorm, it)
        if it == MPEC_MAX_ITER:
            break
        step = _min_norm_solve(J, -Psi, z)
        for k in range(40):
            trial = x + 0.5**k * step
            Psi2, J2 = mpec_residual(spec, mu_hat, norm, K, *np.split(trial, cuts))
            r2 = float(np.linalg.norm(Psi2))
            if r2 <= rnorm * (1 + 1e-12):
                x, Psi, J, rnorm = trial, Psi2, J2, r2
                break
        else:
            raise OptimizerStalled(
                f"damped Newton made no progress at residual {rnorm:.3e}",
                theta=x[:d],
            )
    raise OptimizerStalled(
        f"stationarity residual {rnorm:.3e} after {MPEC_MAX_ITER} Newton steps",
        theta=x[:d],
    )


# ----------------------------------------------------------------------
# nested moment estimation for demand


@dataclass
class GmmResult:
    theta: np.ndarray
    value: float
    moments: np.ndarray
    delta: np.ndarray
    xi: np.ndarray
    inversion: InversionResult
    weight: np.ndarray


def gmm_moments(
    delta: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    gfam: GFamily,
    theta: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Residuals and the two stacked moments (own regressor, instrument)."""
    xi = residual_xi(delta, x1, x2, gfam, theta)
    m = np.array([np.dot(xi, x1), np.dot(xi, y)])
    return xi, m


def gmm_nested(
    model: DemandModel,
    s: np.ndarray,
    x1: np.ndarray,
    x2: np.ndarray,
    y: np.ndarray,
    gfam: GFamily,
    norm: Normalization,
    K: float,
    theta0: np.ndarray,
    W: Optional[np.ndarray] = None,
    opts: Optional[SolverOptions] = None,
    two_step: bool = False,
) -> GmmResult:
    """Minimize the quadratic form m(θ)ᵀWm(θ) of the structural moments.

    The demand inversion does not involve theta for the shipped link
    families, so it runs once per data set and the inner loop only
    re-evaluates the residuals.  W is read through its symmetric part
    S = LLᵀ, and each GMM step is one least-squares fit of the whitened
    moments Lᵀm(θ), since mᵀWm = |Lᵀm|².  The second step (``two_step``)
    refits with W = Ω⁻¹, the inverse moment variance at the first θ.
    """
    theta_hat = np.atleast_1d(np.asarray(theta0, dtype=float))
    W = np.eye(2) if W is None else np.asarray(W, dtype=float)
    inv = invert_demand(model, s, norm, K, opts)
    delta = inv.delta
    for step in range(2 if two_step else 1):
        try:
            if step:
                Zxi = np.stack([x1, y], axis=1) * xi[:, None]
                W = np.linalg.inv(Zxi.T @ Zxi)
            S = 0.5 * (W + W.T)
            if not np.all(np.isfinite(S)) or np.linalg.cond(S) > 1e12:
                raise np.linalg.LinAlgError
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            raise SingularWeight(
                "estimated moment variance is singular" if step
                else "weighting matrix is not positive definite or nonfinite"
            ) from None
        res = optimize.least_squares(
            lambda th: L.T @ gmm_moments(delta, x1, x2, y, gfam, th)[1], theta_hat,
            xtol=1e-15, ftol=1e-15, gtol=1e-15, diff_step=1e-6,
        )
        theta_hat = res.x
        xi, m = gmm_moments(delta, x1, x2, y, gfam, theta_hat)
    return GmmResult(
        theta=theta_hat,
        value=float(m @ W @ m),
        moments=m,
        delta=delta,
        xi=xi,
        inversion=inv,
        weight=W,
    )
