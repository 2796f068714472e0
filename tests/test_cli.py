"""End-to-end command-line runs against temporary data files."""
import csv
import json
from types import SimpleNamespace

import numpy as np
import pytest

from equisub import errors, matching
from equisub import estimation as est
from equisub import normalization as nz
from equisub import solver
from equisub.cli import main
from equisub.demand import demand_mc, invert_demand, logit_mc_model, logit_model
from equisub.estimation import predicted_frequencies, tu_surplus_spec
from equisub.solver import SolverOptions

LN2 = np.log(2.0)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def write_market(tmp_path, phi):
    rows = [(x, y, phi[x][y]) for x in range(len(phi)) for y in range(len(phi[0]))]
    return write_csv(tmp_path / "market.csv", ["x", "y", "phi"], rows)


def write_masses(tmp_path, n, m):
    rows = [("x", i, v) for i, v in enumerate(n)] + [("y", j, v) for j, v in enumerate(m)]
    return write_csv(tmp_path / "masses.csv", ["side", "type", "mass"], rows)


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# match


def test_match_symmetric_market(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "market_csv": write_market(tmp_path, [[0.0, 0.0], [0.0, 0.0]]),
        "masses_csv": write_masses(tmp_path, [1.0, 1.0], [1.0, 1.0]),
        "family": {"kind": "TU"},
        "normalization": {"kind": "max"},
        "K": 0.0,
    })
    out = tmp_path / "out"
    assert main(["match", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "equilibrium.csv") as fh:
        reader = csv.DictReader(fh)
        mu = [float(r["mu"]) for r in reader]
    assert len(mu) == 4
    assert np.allclose(mu, 0.5, atol=1e-7)
    # a phi column gives no alpha / gamma split, hence no transfers
    assert "w" not in reader.fieldnames
    rep = read_report(out)
    assert rep["schema_version"] == 1
    assert rep["residual"] <= 1e-8


def test_match_mean_psi_reports_the_solve_block(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "market_csv": write_market(tmp_path, [[2 * LN2, 0.0], [0.0, 2 * LN2]]),
        "masses_csv": write_masses(tmp_path, [1.0, 1.0], [1.0, 1.0]),
        "family": {"kind": "TU"},
        "normalization": {"kind": "mean"},
        "K": 0.4,
    })
    out = tmp_path / "out"
    assert main(["match", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["residual"] <= 1e-9
    assert rep["iterations"] >= 1
    # TU is translation-invariant: one tight pinned solve, then shifts
    assert rep["outer_solves"] == 1
    assert abs(rep["normalization_value"] - 0.4) <= 1e-9


def test_match_unbalanced_masses_is_config_failure(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "market_csv": write_market(tmp_path, [[0.0, 0.0], [0.0, 0.0]]),
        "masses_csv": write_masses(tmp_path, [1.0, 2.0], [1.0, 1.0]),
    })
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


SOLVER_FAILURES = {
    "SolverFailure",
    "NoBracket",
    "EnvelopeNotDownwardResponsive",
    "MaxIterExceeded",
    "BracketNotFound",
    "OptimizerStalled",
    "SingularConstraintJacobian",
    "SingularWeight",
}
ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.EquisubError)
]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_match_envelope_failure_is_solver_failure(tmp_path, monkeypatch, error):
    # every package error exits 1, except a SolverFailure, which exits 2
    def fail(*args, **kwargs):
        raise error("no equilibrium found")

    monkeypatch.setattr(matching, "solve_mfe", fail)
    cfg = write_json(tmp_path / "cfg.json", {
        "market_csv": write_market(tmp_path, [[0.0, 0.0], [0.0, 0.0]]),
        "masses_csv": write_masses(tmp_path, [1.0, 1.0], [1.0, 1.0]),
    })
    code = 2 if error.__name__ in SOLVER_FAILURES else 1
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "out")]) == code


def write_split_market(tmp_path, alpha, gamma):
    rows = [(x, y, alpha[x][y], gamma[x][y]) for x in range(len(alpha)) for y in range(len(alpha[0]))]
    return write_csv(tmp_path / "market.csv", ["x", "y", "alpha", "gamma"], rows)


@pytest.mark.parametrize("kind", ["TU", "NTU", "ETU"])
def test_match_reads_alpha_gamma_columns(tmp_path, kind):
    # the planted ETU 2x2 mean-psi market of test_matching, given as alpha
    # and gamma columns; TU and NTU solve the same tables at its masses
    rng = np.random.default_rng(0)
    alpha, gamma = rng.normal(0.0, 0.5, (2, 2, 2))
    a_star, b_star = rng.normal(0.0, 0.25, (2, 2))
    mu = matching.etu_family(alpha, gamma).match(a_star, b_star)
    n, m = mu.sum(axis=1), mu.sum(axis=0)
    K = float(np.mean(np.r_[-a_star, b_star]))
    cfg = write_json(tmp_path / "cfg.json", {
        "market_csv": write_split_market(tmp_path, alpha.tolist(), gamma.tolist()),
        "masses_csv": write_masses(tmp_path, n.tolist(), m.tolist()),
        "family": {"kind": kind},
        "normalization": {"kind": "mean"},
        "K": K,
    })
    out = tmp_path / "out"
    assert main(["match", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "equilibrium.csv") as fh:
        rows = list(csv.DictReader(fh))
    mu_out = np.array([float(r["mu"]) for r in rows]).reshape(2, 2)
    assert np.abs(mu_out.sum(axis=1) - n).max() <= 1e-9
    assert np.abs(mu_out.sum(axis=0) - m).max() <= 1e-9
    rep = read_report(out)
    assert rep["family"] == kind
    assert abs(rep["normalization_value"] - K) <= 1e-9
    # NTU has no alpha / gamma split, so no transfer column
    assert ("w" in rows[0]) == (kind != "NTU")
    if kind == "TU":
        fam = matching.tu_family(alpha=alpha, gamma=gamma)
        eq = matching.solve_mfe(matching.MarketPrimitives(fam, n, m), nz.mean(), K)
        w = np.array([float(r["w"]) for r in rows]).reshape(2, 2)
        assert np.array_equal(w, matching.recover_transfers(fam, eq))


@pytest.mark.parametrize("kind", ["TU", "ETU"])
def test_match_rejects_phi_beside_alpha_gamma_columns(tmp_path, capsys, kind):
    rows = [(x, y, 0.0, 0.0, 0.0) for x in range(2) for y in range(2)]
    cfg = write_json(tmp_path / "cfg.json", {
        "market_csv": write_csv(tmp_path / "market.csv", ["x", "y", "phi", "alpha", "gamma"], rows),
        "masses_csv": write_masses(tmp_path, [1.0, 1.0], [1.0, 1.0]),
        "family": {"kind": kind},
    })
    assert main(["match", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "has phi and alpha, gamma columns" in capsys.readouterr().err


# ----------------------------------------------------------------------
# invert


def invert_config(tmp_path, shares, **extra):
    rows = [(f"g{i}", s) for i, s in enumerate(shares)]
    payload = {
        "shares_csv": write_csv(tmp_path / "shares.csv", ["good", "share"], rows),
        "model": {"family": "logit"},
        "normalization": {"kind": "coordinate", "index": 0},
        "K": 0.0,
    }
    payload.update(extra)
    return write_json(tmp_path / "cfg.json", payload)


def test_invert_logit_shares(tmp_path):
    cfg = invert_config(tmp_path, [0.5, 0.25, 0.25])
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "deltas.csv") as fh:
        deltas = [float(r["delta"]) for r in csv.DictReader(fh)]
    assert np.allclose(deltas, [0.0, -LN2, -LN2], atol=1e-8)
    # the CSV round-trips the solver's floats exactly
    exact = invert_demand(logit_model(3), np.array([0.5, 0.25, 0.25]), nz.coordinate(0), 0.0)
    assert deltas == exact.delta.tolist()


def test_invert_rejects_incomplete_shares(tmp_path):
    cfg = invert_config(tmp_path, [0.5, 0.2, 0.2])  # sums to 0.9
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_invert_deterministic_output(tmp_path):
    cfg = invert_config(tmp_path, [0.5, 0.25, 0.25])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["invert", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["invert", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "deltas.csv").read_text() == (out2 / "deltas.csv").read_text()
    r1, r2 = read_report(out1), read_report(out2)
    r1.pop("timestamp")
    r2.pop("timestamp")
    assert r1 == r2


def test_invert_nan_share_is_config_error(tmp_path):
    # a NaN share is bad input (exit 1), not a failed solve (exit 2)
    cfg = invert_config(tmp_path, [0.5, 0.5, float("nan")], model={"family": "logit-mc", "R": 2000, "seed": 1})
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("tolerances", [{"inner": 1e-12}, {"outer": 1e-9, "bracket": 1e-9, "inner": 1e-12}, {"outr": 1e-6}])
def test_unknown_tolerance_key_is_config_error(tmp_path, tolerances):
    # the tolerances block sets tol_outer and tol_bracket; any other key
    # would be silently ignored
    cfg = invert_config(tmp_path, [0.5, 0.25, 0.25], tolerances=tolerances)
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_invert_simulated_mean_psi_reports_the_solve_block(tmp_path):
    R, K = 2000, 0.3
    model = logit_mc_model(4, R, seed=5)
    s = demand_mc(model, np.array([0.0, -0.3, 0.2, 0.4]))
    # simulated shares: tol_outer = tol_bracket = 10 / R by default, and the
    # same tolerances given in the config must solve the same way (no
    # refinement below the 1 / R resolution of the shares)
    tol_bracket = 10.0 / R
    tolerances = {"outer": tol_bracket, "bracket": tol_bracket}
    for extra in ({}, {"tolerances": tolerances}):
        cfg = invert_config(
            tmp_path,
            s.tolist(),
            model={"family": "logit-mc", "R": R, "seed": 5},
            normalization={"kind": "mean"},
            K=K,
            **extra,
        )
        out = tmp_path / "out"
        assert main(["invert", "--config", cfg, "--out", str(out)]) == 0
        rep = read_report(out)
        assert rep["residual"] <= tol_bracket
        assert rep["iterations"] >= 1
        assert 1 <= rep["outer_solves"] <= 2
        assert abs(rep["normalization_value"] - K) <= tol_bracket


@pytest.mark.parametrize("command", ["match", "invert"])
def test_verbose_prints_the_solve_block(tmp_path, capsys, command):
    if command == "match":
        cfg = write_json(tmp_path / "cfg.json", {
            "market_csv": write_market(tmp_path, [[2 * LN2, 0.0], [0.0, 2 * LN2]]),
            "masses_csv": write_masses(tmp_path, [1.0, 1.0], [1.0, 1.0]),
            "normalization": {"kind": "mean"},
            "K": 0.4,
        })
    else:
        cfg = invert_config(tmp_path, [0.5, 0.25, 0.25], normalization={"kind": "mean"})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main([command, "--config", cfg, "--out", str(out), "--verbose"]) == 0
    rep = read_report(out)
    keys = ("residual", "iterations", "outer_solves", "normalization_value")
    assert capsys.readouterr().out.splitlines() == [f"{k}: {rep[k]}" for k in keys] + [
        f"{command}: done (exit 0)"
    ]


# ----------------------------------------------------------------------
# estimate


def planted_matches(tmp_path, theta0=0.7, total=1000.0):
    spec = tu_surplus_spec(np.zeros((2, 2)), np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    Pi, _ = predicted_frequencies(
        spec, np.array([theta0]), np.ones(2), np.ones(2), nz.mean(), 0.0
    )
    mu = total * Pi
    rows = [(x, y, mu[x, y]) for x in range(2) for y in range(2)]
    return write_csv(tmp_path / "matches.csv", ["x", "y", "count"], rows)


def test_estimate_mle_recovers_parameter(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "mode": "mle",
        "matches_csv": planted_matches(tmp_path),
        "spec": {"kind": "TU", "basis": [[[1.0, 0.0], [0.0, 1.0]]]},
        "normalization": {"kind": "mean"},
        "K": 0.0,
        "theta0": [0.0],
    })
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert abs(rep["theta"][0] - 0.7) <= 1e-6


def test_estimate_etu_spec_reads_its_tables(tmp_path, monkeypatch):
    # omitted alpha0 and gamma0 tables are zeros of the data's shape
    specs = []

    def recorded(spec, mu_hat, norm, K, theta0, opts):
        specs.append(spec)
        return SimpleNamespace(theta=theta0, loglik=0.0, gradient_norm=0.0, iterations=0)

    monkeypatch.setattr(est, "mle_nested", recorded)
    A, G = [[[1.0, 0.0], [0.0, 1.0]]], [[[0.0, 0.5], [0.0, 0.0]]]
    cfg = write_json(tmp_path / "cfg.json", {
        "mode": "mle",
        "matches_csv": planted_matches(tmp_path),
        "spec": {"kind": "ETU", "alpha_basis": A, "gamma_basis": G},
        "theta0": [0.0],
    })
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    (spec,) = specs
    assert spec.kind == "ETU"
    assert np.array_equal(spec.alpha0, np.zeros((2, 2))) and np.array_equal(spec.gamma0, np.zeros((2, 2)))
    assert np.array_equal(spec.alpha_basis, A) and np.array_equal(spec.gamma_basis, G)


def test_estimate_flat_likelihood_is_solver_failure(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "mode": "mle",
        "matches_csv": planted_matches(tmp_path, theta0=0.0),
        "spec": {"kind": "TU", "basis": [[[1.0, 1.0], [1.0, 1.0]]]},
        "normalization": {"kind": "mean"},
        "theta0": [0.2],
    })
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def gmm_config(tmp_path, theta0, **extra):
    # noiseless logit data: delta = x1 - theta0 * x2
    rng = np.random.default_rng(23)
    Z = 30
    x2 = rng.uniform(0.5, 2.0, size=Z)
    y = x2 + rng.normal(0.0, 0.2, size=Z)
    x1 = rng.normal(0.0, 0.5, size=Z)
    delta = x1 - theta0 * x2
    s = np.exp(delta) / np.exp(delta).sum()
    rows = [
        (f"g{i}", s[i], x1[i], x2[i], y[i])
        for i in range(Z)
    ]
    return write_json(tmp_path / "cfg.json", {
        "mode": "gmm",
        "data_csv": write_csv(
            tmp_path / "data.csv", ["good", "share", "x1", "x2", "y"], rows
        ),
        "model": {"family": "logit"},
        "normalization": {"kind": "mean"},
        "K": float(np.mean(delta)),
        "theta0": [0.0],
        **extra,
    })


def test_estimate_gmm_noiseless(tmp_path):
    theta0 = 1.5
    cfg = gmm_config(tmp_path, theta0)
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert abs(rep["theta"][0] - theta0) <= 1e-6
    assert np.max(np.abs(rep["moments"])) <= 1e-6


def test_estimate_gmm_follows_the_tolerances_block(tmp_path, monkeypatch):
    # every pinned solve of the demand inversion runs at the configured
    # tol_outer, refined at most by the default refine_factor
    tols = []
    pinned = solver.solve_pinned

    def recorded(system, q, pin, pin_value, opts, *args, **kwargs):
        tols.append(opts.tol_outer)
        return pinned(system, q, pin, pin_value, opts, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_pinned", recorded)
    cfg = gmm_config(tmp_path, 1.5, tolerances={"outer": 1e-3, "bracket": 1e-3})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert tols and min(tols) >= 1e-3 * SolverOptions().refine_factor


# ----------------------------------------------------------------------
# check


def test_check_logit_demand_passes(tmp_path):
    cfg = invert_config(tmp_path, [0.5, 0.25, 0.25], target="demand")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert all(r["passed"] for r in rep["results"])


def test_check_nan_share_is_config_error(tmp_path):
    # check reads the shares file through the same share check as invert:
    # a NaN target exits 1 rather than failing the probes against it
    cfg = invert_config(
        tmp_path, [0.5, 0.5, float("nan")], target="demand", model={"family": "logit-mc", "R": 2000, "seed": 1}
    )
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_check_bridge_regularity_fails_outside_range(tmp_path):
    rows = [("g0", 0.6), ("g1", 0.4)]
    cfg = write_json(tmp_path / "cfg.json", {
        "target": "demand",
        "shares_csv": write_csv(tmp_path / "shares.csv", ["good", "share"], rows),
        "model": {"family": "bridge", "tolls": [0.0, 1.0], "R": 500, "seed": 3},
        "checks": ["utility_regularity"],
        "delta_grid": [[0.5, 1.5]],
    })
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 3
    rep = read_report(out)
    assert any(not r["passed"] for r in rep["results"])


def test_check_matching_system_passes(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "target": "matching",
        "market_csv": write_market(tmp_path, [[2 * LN2, 0.0], [0.0, 2 * LN2]]),
        "masses_csv": write_masses(tmp_path, [1.0, 1.0], [1.0, 1.0]),
        "checks": [
            "weak_substitutes",
            "pivotal_substitutes",
            "responsiveness",
            "connected_strict_substitutes",
        ],
    })
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_unknown_check_is_config_error(tmp_path):
    cfg = invert_config(tmp_path, [0.5, 0.5], target="demand", checks=["bogus"])
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_missing_config_file(tmp_path):
    assert main(["match", "--config", str(tmp_path / "nope.json")]) == 1
