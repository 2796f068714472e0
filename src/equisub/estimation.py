"""Estimation layers: nested maximum likelihood, a saddle-point (KKT)
formulation solved by damped Newton, and nested moment-based estimation
for demand models.

The matching likelihood treats observed matches as multinomial draws from
the equilibrium frequencies Pi_xy(theta) = mu_xy(theta) / sum(mu(theta)),
where mu solves the accounting and normalization constraints at theta.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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
    alpha_basis[k] (gamma alike).  A surplus table phi(theta) = phi0 + sum_k
    theta_k * phi_basis[k] (the usual NTU spec) is the split alpha = phi,
    gamma = 0: phi0 and phi_basis stand for alpha0 and alpha_basis.
    """

    kind: str
    alpha0: Optional[np.ndarray] = None
    gamma0: Optional[np.ndarray] = None
    phi0: InitVar[Optional[np.ndarray]] = None
    alpha_basis: Optional[np.ndarray] = None  # (d, X, Y)
    gamma_basis: Optional[np.ndarray] = None
    phi_basis: InitVar[Optional[np.ndarray]] = None
    distance: Optional[DistanceFamily] = None

    def __post_init__(self, phi0, phi_basis):
        def table(t, shape):
            return np.asarray(t, dtype=float) if t is not None else np.zeros(shape)

        alpha0 = self.alpha0 if phi0 is None else phi0
        alpha_basis = self.alpha_basis if phi_basis is None else phi_basis
        # the last given table fixes the shape (else the last basis), and the
        # last given basis fixes d
        tables = [np.shape(t) for t in (alpha0, self.gamma0) if t is not None]
        bases = [np.shape(t) for t in (alpha_basis, self.gamma_basis) if t is not None]
        if not tables and not bases:
            raise DimensionMismatch("cannot infer the table shape")
        shape = tables[-1] if tables else bases[-1][1:]
        d = bases[-1][0] if bases else 0
        alpha0 = table(alpha0, shape)
        gamma0 = table(self.gamma0, shape)
        ab = table(alpha_basis, (d,) + alpha0.shape)
        gb = table(self.gamma_basis, (d,) + gamma0.shape)
        if ab.shape != gb.shape:
            raise DimensionMismatch("alpha and gamma bases must share a shape")
        for name, value in (("alpha0", alpha0), ("gamma0", gamma0), ("alpha_basis", ab), ("gamma_basis", gb)):
            object.__setattr__(self, name, value)
        self.family(np.zeros(d))  # MatchingFamily's checks of kind and distance, at construction

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
    return ThetaSpec(kind="TU", phi0=phi0, phi_basis=basis)


# ----------------------------------------------------------------------
# per-cell derivative engine
#
# Cell (x, y) has log M = -d(u, v) with u = -a_x - alpha_xy, v = -b_y -
# gamma_xy and alpha, gamma affine in theta, so it depends only on its own
# d + 2 variables (theta, a_x, b_y), and the chain rule gives its gradient
# and Hessian from the derivatives of d (for NTU, DIST_SUM's d_u = d_v = 1
# with zero curvature and bases (phi_basis, 0)).  Global derivatives in
# (theta, a, b) are scatter-adds of these per-cell blocks, and the nested
# gradient is one adjoint solve with the saddle-point multipliers.


def _cell_blocks(spec: ThetaSpec, theta: np.ndarray, a: np.ndarray, b: np.ndarray, hessian: bool = False):
    """Return (m, g, H, idx): per-cell log-match values and derivatives.

    m is (X, Y); g (X, Y, d+2) and H (X, Y, d+2, d+2) are the gradient and
    Hessian of log M_xy in its own variables (theta, a_x, b_y), H is None
    unless requested; idx (X, Y, d+2) maps them into (theta, a, b).
    """
    d = spec.dim
    X, Y = spec.table_shape
    fam = spec.family(np.atleast_1d(theta))
    u = -a[:, None] - fam.alpha
    v = -b[None, :] - fam.gamma
    dist, du, dv, duu, duv, dvv = (np.broadcast_to(t, (X, Y)) for t in fam.distance.evaluate(u, v))
    Dd, D2d = np.stack([du, dv], -1), np.stack([duu, duv, duv, dvv], -1).reshape(X, Y, 2, 2)

    # P[x, y, i] is the gradient of (u, v)[i] in the cell's own variables
    P = np.zeros((X, Y, 2, d + 2))
    P[:, :, :, :d] = -np.moveaxis(np.stack([spec.alpha_basis, spec.gamma_basis]), (2, 3), (0, 1))
    P[:, :, 0, d] = P[:, :, 1, d + 1] = -1.0
    g = -np.einsum("xyi,xyik->xyk", Dd, P)
    H = -(np.swapaxes(P, -1, -2) @ (D2d @ P)) if hessian else None

    idx = np.empty((X, Y, d + 2), dtype=np.intp)
    idx[:, :, :d] = np.arange(d)
    idx[:, :, d] = d + np.arange(X)[:, None]
    idx[:, :, d + 1] = d + X + np.arange(Y)
    return -dist, g, H, idx


def _scatter(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum values into a length-size vector at the given flat indices."""
    return np.bincount(index.ravel(), weights=values.ravel(), minlength=size)


def _first_order(
    spec: ThetaSpec,
    theta: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    mu_hat: np.ndarray,
    norm: Normalization,
    K: float,
    hessian: bool = False,
):
    """Constraint values G, Jacobian DG and log-likelihood gradient Dl.

    Rows of G and DG (X+Y+1, nv): X accounting rows, Y accounting rows, one
    normalization row psi(-a, b) - K; columns and Dl span nv = d + X + Y
    variables (theta, a, b).  The log-likelihood is sum mu_hat log(M / N)
    with N = sum M.  Also returns the cell blocks (M, g, H, idx) and
    DlogN, the gradient of log N, for second-order assembly.
    """
    d = spec.dim
    X, Y = spec.table_shape
    nv = d + X + Y
    R = X + Y + 1
    m, g, H, idx = _cell_blocks(spec, theta, a, b, hessian)
    M = np.exp(m)
    DM = M[:, :, None] * g

    # each cell enters its row x and its column row X + y
    rows = np.broadcast_to(np.arange(X)[:, None, None], idx.shape)
    cols = np.broadcast_to(X + np.arange(Y)[None, :, None], idx.shape)
    DG = _scatter(np.concatenate([rows * nv + idx, cols * nv + idx]), np.concatenate([DM, DM]), R * nv)
    DG = DG.reshape(R, nv)
    G = np.empty(R)
    G[:X] = M.sum(axis=1) - mu_hat.sum(axis=1)
    G[X : X + Y] = M.sum(axis=0) - mu_hat.sum(axis=0)

    p = np.concatenate([-a, b])
    G[-1] = norm(p) - K
    gp = norm.grad(p)
    DG[-1, d : d + X] = -gp[:X]
    DG[-1, d + X :] = gp[X:]
    # shipped normalizations are piecewise linear: zero curvature

    # work with N-relative quantities to keep intermediates at unit scale
    DlogN = _scatter(idx, DM / M.sum(), nv)
    Dl = _scatter(idx, mu_hat[:, :, None] * g, nv) - mu_hat.sum() * DlogN
    return G, DG, Dl, (M, g, H, idx, DlogN)


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
    _, DG, Dl, (M, *_) = _first_order(spec, theta, eq.a, eq.b, mu_hat, norm, K)
    Pi = M / M.sum()
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
    identification) or the optimizer stops far from stationarity.
    """
    mu_hat = np.asarray(mu_hat, dtype=float)
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
    return _kkt_system(spec, mu_hat, lam, _first_order(spec, theta, a, b, mu_hat, norm, K, hessian=True))


def _kkt_system(spec: ThetaSpec, mu_hat: np.ndarray, lam: np.ndarray, first_order) -> Tuple[np.ndarray, np.ndarray]:
    """mpec_residual's (Psi, J) from _first_order's output with Hessians."""
    G, DG, Dl, (M, g, H, idx, DlogN) = first_order
    X, Y = spec.table_shape
    nv = DG.shape[1]
    N_hat = mu_hat.sum()

    # Lagrangian Hessian, cell by cell: sum mu_hat log M contributes
    # mu_hat H, -N_hat log N contributes -N_hat (M / N) (H + g g^T) plus
    # N_hat DlogN DlogN^T, and the accounting rows x and X + y of the cell
    # contribute (lambda_x + lambda_{X+y}) M (H + g g^T)
    W = M / M.sum()
    LM = (lam[:X, None] + lam[None, X : X + Y]) * M
    c1 = mu_hat - N_hat * W + LM
    c2 = LM - N_hat * W
    blocks = c1[:, :, None, None] * H + c2[:, :, None, None] * (g[:, :, :, None] * g[:, :, None, :])
    pairs = idx[:, :, :, None] * nv + idx[:, :, None, :]
    D2L = _scatter(pairs, blocks, nv * nv).reshape(nv, nv) + N_hat * np.outer(DlogN, DlogN)

    Psi = np.concatenate([Dl + lam @ DG, G])
    J = np.zeros((Psi.size, Psi.size))
    J[:nv, :nv] = D2L
    J[:nv, nv:] = DG.T
    J[nv:, :nv] = DG
    return Psi, J


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

    Each step is the minimum-norm solution of the KKT system, whose one
    null direction is the redundant accounting row's multiplier; one
    bordered LU solve finds it.  Steps are halved until the residual norm
    does not increase.
    """
    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    a = np.asarray(a0, dtype=float).copy()
    b = np.asarray(b0, dtype=float).copy()
    mu_hat = np.asarray(mu_hat, dtype=float)
    d, (X, Y) = spec.dim, spec.table_shape
    z = np.concatenate([np.zeros(d + X + Y), _redundant_row(X, Y)])

    # one first-order assembly gives the start multiplier and first residual
    first = _first_order(spec, theta, a, b, mu_hat, norm, K, hessian=True)
    lam = _multiplier(spec, first[1], first[2])
    Psi, J = _kkt_system(spec, mu_hat, lam, first)
    rnorm = float(np.linalg.norm(Psi))
    for it in range(1, MPEC_MAX_ITER + 1):
        if rnorm <= MPEC_TOL:
            return MpecResult(theta, a, b, lam, rnorm, it - 1)
        step = _min_norm_solve(J, -Psi, z)
        damp = 1.0
        for _ in range(40):
            t2 = theta + damp * step[:d]
            a2 = a + damp * step[d : d + X]
            b2 = b + damp * step[d + X : d + X + Y]
            l2 = lam + damp * step[d + X + Y :]
            Psi2, J2 = mpec_residual(spec, mu_hat, norm, K, t2, a2, b2, l2)
            r2 = float(np.linalg.norm(Psi2))
            if r2 <= rnorm * (1 + 1e-12):
                theta, a, b, lam = t2, a2, b2, l2
                Psi, J, rnorm = Psi2, J2, r2
                break
            damp *= 0.5
        else:
            raise OptimizerStalled(
                f"damped Newton made no progress at residual {rnorm:.3e}",
                theta=theta,
            )
    if rnorm <= MPEC_TOL:
        return MpecResult(theta, a, b, lam, rnorm, MPEC_MAX_ITER)
    raise OptimizerStalled(
        f"stationarity residual {rnorm:.3e} after {MPEC_MAX_ITER} Newton steps",
        theta=theta,
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
    """Minimize the quadratic form of the structural moments.

    The demand inversion does not involve theta for the shipped link
    families, so it runs once per data set and the inner loop only
    re-evaluates the residuals.
    """
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    if W is None:
        W = np.eye(2)
    W = np.asarray(W, dtype=float)
    if not np.all(np.isfinite(W)) or np.linalg.cond(W) > 1e12:
        raise SingularWeight("weighting matrix is singular or nonfinite")

    inv = invert_demand(model, s, norm, K, opts)
    delta = inv.delta

    def objective(theta):
        _, m = gmm_moments(delta, x1, x2, y, gfam, np.atleast_1d(theta))
        return float(m @ W @ m)

    res = optimize.minimize(objective, theta0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
    theta_hat = np.atleast_1d(res.x)

    if two_step:
        xi, m = gmm_moments(delta, x1, x2, y, gfam, theta_hat)
        Z = np.stack([x1, y], axis=1)
        Omega = (Z * xi[:, None]).T @ (Z * xi[:, None])
        if np.linalg.cond(Omega) > 1e12:
            raise SingularWeight("estimated moment variance is singular")
        W = np.linalg.inv(Omega)
        res = optimize.minimize(objective, theta_hat, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
        theta_hat = np.atleast_1d(res.x)

    xi, m = gmm_moments(delta, x1, x2, y, gfam, theta_hat)
    return GmmResult(
        theta=theta_hat,
        value=float(res.fun),
        moments=m,
        delta=delta,
        xi=xi,
        inversion=inv,
        weight=W,
    )
