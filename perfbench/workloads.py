"""Seeded planted-truth workloads and their per-instance reference checks.

A workload is a fixed cycle of instance kinds, and a run's instance list is
a whole number of cycles.  The draws come from the seed (see ``generate``),
so one seed and list length always give the same inputs.

An instance's ``run`` calls the library on the generated inputs only; its
``check`` compares the output with the planted truth using the formulas in
this file, not the library's own maps, and returns one of

* ``("pass", detail)``  the output meets every reference check;
* ``("fail", detail)``  the library raised or the CLI exited 1 or 2;
* ``("wrong", detail)`` the library returned an output that misses its
  reference check; like a raise, this counts as a failed instance.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np
from scipy.special import ndtri

from equisub import cli, demand, estimation, matching
from equisub import normalization as nz

SPREAD = 0.5          # sd of planted preference tables (ETU) and estimation data
FEE_SPREAD = 0.25     # sd of the planted ETU fees; wider fees give a heavy
                      # tail of multi-second solves that makes runs unsteady
TU_SPREAD = 0.25      # sd of tables and fees of the log-linear (TU, NTU)
                      # markets: their sweep counts then vary less across draws
R_DRAWS = 2_000       # simulation draws of the invert-cli demand models
STRATIFIED_DIMS = 64  # leading normal draws of each instance taken from a Latin hypercube
MLE_COUNT = 100.0     # matches per cell in the MLE data
CHECK_PROPERTIES = ("weak_substitutes", "pivotal_substitutes", "responsiveness")

# solver tolerances the library uses by default; the checks hold it to them
TOL_OUTER = 1e-9
TOL_BRACKET = 1e-9


@dataclass
class Instance:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Tuple[str, str]]


# ----------------------------------------------------------------------
# matching markets with a planted equilibrium


def log_match(kind: str, alpha, gamma, a, b) -> np.ndarray:
    """Reference log M_xy(a_x, b_y), written out independently of equisub."""
    u = a[:, None] + alpha
    v = b[None, :] + gamma
    if kind == "TU":
        return 0.5 * (u + v)
    if kind == "NTU":
        return u + v
    if kind == "ETU":  # harmonic mean of e^u and e^v
        return np.log(2.0) - np.logaddexp(-u, -v)
    raise ValueError(kind)


def _family(kind, alpha, gamma):
    if kind == "TU":
        return matching.tu_family(alpha=alpha, gamma=gamma)
    if kind == "NTU":
        return matching.ntu_family(alpha + gamma)
    return matching.etu_family(alpha, gamma)


def _psi(psi_kind: str, a, b, X: int) -> float:
    # the market's price vector is p = (-a, b); the coordinate normalization
    # reads the first Y-side coordinate, which is the solver's pin
    p = np.concatenate([-a, b])
    return float(p.mean()) if psi_kind == "mean" else float(p[X])


def market_instance(rng, family: str, psi_kind: str, X: int, Y: int,
                    spread: float, fee_spread: float) -> Instance:
    alpha = rng.normal(0.0, spread, (X, Y))
    gamma = rng.normal(0.0, spread, (X, Y))
    a_star = rng.normal(0.0, fee_spread, X)
    b_star = rng.normal(0.0, fee_spread, Y)
    mu = np.exp(log_match(family, alpha, gamma, a_star, b_star))
    n, m = mu.sum(axis=1), mu.sum(axis=0)
    K = _psi(psi_kind, a_star, b_star, X)

    def run():
        prim = matching.MarketPrimitives(_family(family, alpha, gamma), n, m)
        norm = nz.mean() if psi_kind == "mean" else nz.coordinate(X)
        return matching.solve_mfe(prim, norm, K)

    def check(eq):
        fee_err = max(np.abs(eq.a - a_star).max(), np.abs(eq.b - b_star).max())
        M = np.exp(log_match(family, alpha, gamma, eq.a, eq.b))
        acc = max(np.abs(M.sum(axis=1) - n).max(), np.abs(M.sum(axis=0) - m).max())
        gap = abs(_psi(psi_kind, eq.a, eq.b, X) - K)
        detail = f"fee err {fee_err:.1e}, accounting {acc:.1e}, |psi-K| {gap:.1e}"
        ok = fee_err <= 1e-6 and acc <= TOL_OUTER and gap <= TOL_BRACKET
        return ("pass" if ok else "wrong"), detail

    return Instance(f"{family}-{psi_kind}-{X}x{Y}", run, check)


def _match_tu(rng, slot):
    # mean psi runs the dichotomy (about 32 pinned solves); the coordinate
    # psi on the pin is one pinned solve with hundreds of sweeps
    family, psi_kind = (("TU", "mean"), ("TU", "coordinate"),
                        ("NTU", "mean"), ("NTU", "coordinate"))[slot]
    X = Y = 2 if psi_kind == "mean" else 5
    return market_instance(rng, family, psi_kind, X, Y, TU_SPREAD, TU_SPREAD)


def _match_etu(rng, slot):
    # the preference spread of the bounded-family defects recorded in
    # ROADMAP item 3; a smaller spread would hide the mean-psi failures
    if slot == 0:
        return market_instance(rng, "ETU", "mean", 2, 2, SPREAD, FEE_SPREAD)
    return market_instance(rng, "ETU", "coordinate", 3, 3, SPREAD, FEE_SPREAD)


# ----------------------------------------------------------------------
# demand inversion through the CLI


INVERT_SLOTS = tuple(
    (fam, Z, psi)
    for fam, Z in (("logit-mc", 4), ("logit-mc", 8), ("rc-logit", 4), ("rc-logit", 8), ("bridge", 4))
    for psi in ("mean", "coordinate")
)


def _demand_model(cfg: dict, Z: int):
    fam, R, seed = cfg["family"], cfg["R"], cfg["seed"]
    if fam == "logit-mc":
        return demand.logit_mc_model(Z, R, seed)
    if fam == "rc-logit":
        return demand.rc_logit_model(np.asarray(cfg["x"]), np.asarray(cfg["sigmas"]), R, seed)
    return demand.bridge_model(np.asarray(cfg["tolls"]), R, seed)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def invert_instance(rng, workdir: Path, index: int, fam: str, Z: int, psi_kind: str) -> Instance:
    model_cfg: Dict[str, Any] = {"family": fam, "R": R_DRAWS, "seed": int(rng.integers(2**31))}
    if fam == "rc-logit":
        model_cfg["x"] = rng.normal(0.0, 1.0, (Z, 2)).tolist()
        model_cfg["sigmas"] = rng.uniform(0.2, 0.8, 2).tolist()
    if fam == "bridge":
        # Route z has utility -toll_z + delta_z * w with w = exp(-eps) and
        # eps ~ N(0, 1); slopes delta_z rise with z.  Tolls are set so the
        # switch from route z to z + 1 happens at w = exp(c_z) with c_z
        # near the normal quantiles of (z + 1) / Z, so every route keeps
        # about 1/Z of the draws.
        delta_star = -2.0 * 0.7 ** np.arange(Z) + rng.uniform(-0.05, 0.05, Z)
        c = np.array([-0.674, 0.0, 0.674])[: Z - 1] + rng.uniform(-0.15, 0.15, Z - 1)
        tolls = np.concatenate([[0.0], np.cumsum(np.exp(c) * np.diff(delta_star))])
        model_cfg["tolls"] = tolls.tolist()
    else:
        delta_star = rng.normal(0.0, SPREAD, Z)
    model = _demand_model(model_cfg, Z)
    shares = demand.demand_mc(model, delta_star)
    if np.any(shares <= 0):
        raise RuntimeError(f"generator produced an empty good for {fam} Z={Z}")
    K = float(delta_star.mean()) if psi_kind == "mean" else float(delta_star[0])
    norm_cfg = {"kind": "mean"} if psi_kind == "mean" else {"kind": "coordinate", "index": 0}

    d = workdir / f"inv{index:04d}"
    d.mkdir(parents=True, exist_ok=True)
    _write_csv(d / "shares.csv", ["good", "share"], [[f"g{z}", repr(float(s))] for z, s in enumerate(shares)])
    with open(d / "check.json", "w") as fh:
        json.dump({"target": "demand", "shares_csv": str(d / "shares.csv"), "model": model_cfg,
                   "checks": list(CHECK_PROPERTIES)}, fh)
    with open(d / "invert.json", "w") as fh:
        json.dump({"shares_csv": str(d / "shares.csv"), "model": model_cfg,
                   "normalization": norm_cfg, "K": K}, fh)

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            c_check = cli.main(["check", "--config", str(d / "check.json"), "--out", str(d / "check")])
            c_inv = cli.main(["invert", "--config", str(d / "invert.json"), "--out", str(d / "invert")])
        return c_check, c_inv, err.getvalue().strip()

    def check(out):
        c_check, c_inv, msg = out
        if c_check not in (0, 3):
            return "fail", f"check exit {c_check}: {msg}"
        with open(d / "check" / "report.json") as fh:
            props = {r["property"] for r in json.load(fh)["results"]}
        if not set(CHECK_PROPERTIES) <= props:
            return "wrong", f"check report lacks {sorted(set(CHECK_PROPERTIES) - props)}"
        if c_inv != 0:
            return "fail", f"invert exit {c_inv}: {msg}"
        with open(d / "invert" / "deltas.csv") as fh:
            delta = np.array([float(r["delta"]) for r in csv.DictReader(fh)])
        # simulated shares are multiples of 1/R, so compare whole draws:
        # "within 10/R" would otherwise hinge on the rounding of 10/R itself
        gap = int(np.rint(np.abs(demand.demand_mc(_demand_model(model_cfg, Z), delta) - shares).max() * R_DRAWS))
        detail = f"check exit {c_check}, share gap {gap} draws of {R_DRAWS}"
        return ("pass" if gap <= 10 else "wrong"), detail

    return Instance(f"{fam}-{Z}-{psi_kind}", run, check)


# ----------------------------------------------------------------------
# estimation on planted data


def _planted_spec(rng, kind: str, X: int, Y: int, d: int):
    A = rng.normal(0.0, SPREAD, (d, X, Y))
    G = rng.normal(0.0, SPREAD, (d, X, Y)) if kind == "ETU" else np.zeros((d, X, Y))
    alpha0 = rng.normal(0.0, 0.3, (X, Y))
    gamma0 = rng.normal(0.0, 0.3, (X, Y)) if kind == "ETU" else np.zeros((X, Y))
    theta = rng.normal(0.0, SPREAD, d)
    a = rng.normal(0.0, 0.3, X)
    b = rng.normal(0.0, 0.3, Y)
    alpha = alpha0 + np.tensordot(theta, A, axes=1)
    gamma = gamma0 + np.tensordot(theta, G, axes=1)
    mu = np.exp(log_match(kind, alpha, gamma, a, b))  # noiseless data
    spec_args = dict(kind=kind, alpha0=alpha0, gamma0=gamma0, alpha_basis=A, gamma_basis=G)
    return spec_args, theta, a, b, mu


def mle_instance(rng, X: int, d: int) -> Instance:
    spec_args, theta, a, b, mu = _planted_spec(rng, "TU", X, X, d)
    # count-scale data, about MLE_COUNT matches per cell: mle_nested stops on
    # an absolute gradient tolerance, which is meant for data on this scale
    # (at unit scale the estimate can miss the planted value by over 1e-5)
    mu = MLE_COUNT * mu
    K = float(b[0] + np.log(MLE_COUNT))  # coordinate psi on the pin; TU fees absorb the scale

    def run():
        spec = estimation.ThetaSpec(**spec_args)
        return estimation.mle_nested(spec, mu, nz.coordinate(X), K, np.zeros(d))

    def check(res):
        err = float(np.abs(res.theta - theta).max())
        return ("pass" if err <= 1e-5 else "wrong"), f"theta err {err:.1e}"

    return Instance(f"mle-TU-{X}x{X}-d{d}", run, check)


def mpec_instance(rng, kind: str, X: int, d: int) -> Instance:
    spec_args, theta, a, b, mu = _planted_spec(rng, kind, X, X, d)
    K = float(np.concatenate([-a, b]).mean())
    theta0 = theta + 0.2 * rng.normal(size=d)
    a0 = a + 0.1 * rng.normal(size=X)
    b0 = b + 0.1 * rng.normal(size=X)

    def run():
        spec = estimation.ThetaSpec(**spec_args)
        return estimation.mpec_solve(spec, mu, nz.mean(), K, theta0, a0, b0)

    def check(res):
        err = float(np.abs(res.theta - theta).max())
        ok = res.residual_norm <= 1e-10 and err <= 1e-8
        return ("pass" if ok else "wrong"), f"residual {res.residual_norm:.1e}, theta err {err:.1e}"

    return Instance(f"mpec-{kind}-{X}x{X}-d{d}", run, check)


def gmm_instance(rng, Z: int) -> Instance:
    theta = 1.5
    x2 = rng.uniform(0.5, 2.0, Z)
    y = x2 + rng.normal(0.0, 0.2, Z)       # excluded instrument
    xi = rng.normal(0.0, 0.1, Z)
    xi -= xi.mean()
    x1 = rng.normal(0.0, 0.5, Z)
    delta = x1 + xi - theta * x2
    s = np.exp(delta - delta.max())
    s /= s.sum()
    K = float(delta.mean())

    def run():
        model = demand.logit_model(Z)
        with_inv = demand.linear_g()
        without_inv = demand.GFamily(g=lambda t, x2, th: t - th[0] * x2)
        return tuple(
            estimation.gmm_nested(model, s, x1, x2, y, g, nz.mean(), K, np.zeros(1), two_step=True)
            for g in (with_inv, without_inv)
        )

    def check(res):
        gap = float(np.abs(res[0].theta - res[1].theta).max())
        return ("pass" if gap <= 1e-6 else "wrong"), f"g_inv gap {gap:.1e}"

    return Instance(f"gmm-logit-{Z}", run, check)


def _estimate(rng, slot):
    # MPEC runs a fixed handful of Newton steps at a fixed size, so its cost
    # barely varies; two MPEC pairs per cycle keep the median instance in
    # that steady cluster (MPEC < GMM < MLE in cost) instead of between two
    # clusters whose costs vary with the draws
    if slot == 0:
        return mle_instance(rng, 3, 2)
    if slot in (1, 4):
        return mpec_instance(rng, "TU", 30, 5)
    if slot in (2, 5):
        return mpec_instance(rng, "ETU", 30, 5)
    return gmm_instance(rng, 40)


# ----------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int            # instance kinds per cycle
    cycle_seconds: float  # nominal time of one cycle at the seed commit, 2-CPU x86
    trace_cycles: int     # cycles in each pass of a traced run
    make: Callable        # (rng, slot, workdir, index) -> Instance

    def list_cycles(self, seconds: float) -> int:
        """Cycles in the fixed instance list of a run of the given length."""
        return max(1, round(seconds / self.cycle_seconds))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("match-tu", 4, 2.6, 1, lambda rng, slot, wd, i: _match_tu(rng, slot)),
        Workload("match-etu", 2, 1.3, 4, lambda rng, slot, wd, i: _match_etu(rng, slot)),
        Workload("invert-cli", len(INVERT_SLOTS), 2.4, 1,
                 lambda rng, slot, wd, i: invert_instance(rng, wd, i, *INVERT_SLOTS[slot])),
        Workload("estimate", 6, 6.0, 1, lambda rng, slot, wd, i: _estimate(rng, slot)),
    )
}


class StratifiedDraws:
    """Random draws for one instance whose normal draws are stratified.

    The first ``len(z)`` values that ``normal()`` hands out come from one row
    of a Latin hypercube shared by the instances of the same kind in a run;
    later normal draws and every other kind of draw come from ``rng``.  Each
    run then holds an even spread of easy and hard instances, which makes
    the run-to-run spread of the timings smaller than with independent draws.
    """

    def __init__(self, rng: np.random.Generator, z: np.ndarray):
        self._rng = rng
        self._z = z
        self._pos = 0

    def normal(self, loc=0.0, scale=1.0, size=None):
        n = 1 if size is None else int(np.prod(size))
        z = self._z[self._pos:self._pos + n]
        self._pos += z.size
        if z.size < n:
            z = np.concatenate([z, self._rng.standard_normal(n - z.size)])
        out = loc + scale * z
        return float(out[0]) if size is None else out.reshape(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def latin_normals(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n rows of standard normals forming a Latin hypercube in ``dims`` dimensions."""
    strata = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return ndtri((strata + rng.uniform(size=(n, dims))) / n)


def generate(workload: Workload, seed: int, workdir: Path, cycles: int) -> List[Instance]:
    """The fixed instance list of a run: ``cycles`` whole cycles.

    The same seed and number of cycles always give the same instances.
    """
    rng = np.random.default_rng(seed)
    strata = [latin_normals(rng, cycles, STRATIFIED_DIMS) for _ in range(workload.cycle)]
    out = []
    for i in range(cycles * workload.cycle):
        slot, k = i % workload.cycle, i // workload.cycle
        draws = StratifiedDraws(np.random.default_rng([seed, i]), strata[slot][k])
        out.append(workload.make(draws, slot, workdir, i))
    return out
