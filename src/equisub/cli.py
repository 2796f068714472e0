"""Command-line front end.

Subcommands: match (matching equilibrium), invert (demand inversion),
estimate (mle / gmm), check (structure probes).  Each reads a JSON config,
writes CSV results plus a JSON report with a schema_version field, and
maps failures onto exit codes: 2 for an errors.SolverFailure (no
equilibrium or estimate found), 1 for a config error or any other package
error, 3 for failed diagnostics.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import demand as dm
from . import diagnostics as dg
from . import estimation as est
from . import matching as mt
from . import normalization as nm
from .errors import EquisubError, SolverFailure
from .solver import SolverOptions

SCHEMA_VERSION = 1
TOLERANCE_KEYS = {"outer": "tol_outer", "bracket": "tol_bracket"}  # config key -> SolverOptions field


class ConfigError(Exception):
    pass


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


_NORMALIZATIONS = {"mean": nm.mean, "max": nm.max_coordinate, "min": nm.min_coordinate}


def _norm_from_config(cfg):
    kind = cfg.get("kind", "coordinate")
    if kind == "coordinate":
        return nm.coordinate(int(cfg.get("index", 0)))
    if kind not in _NORMALIZATIONS:
        raise ConfigError(f"unknown normalization kind {kind!r}")
    return _NORMALIZATIONS[kind]()


def _opts_from_config(cfg):
    tol = cfg.get("tolerances", {})
    unknown = sorted(set(tol) - set(TOLERANCE_KEYS))
    if unknown:
        raise ConfigError(f"unknown tolerances {unknown}; the keys are {sorted(TOLERANCE_KEYS)}")
    return SolverOptions(**{TOLERANCE_KEYS[k]: float(v) for k, v in tol.items()})


def _write_report(out_dir, name, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    out = Path(out_dir) / name
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve_block(rep, verbose):
    """The report fields every solving command writes from its SolveReport;
    --verbose prints them too."""
    block = {
        "residual": rep.residual,
        "iterations": rep.iterations,
        "outer_solves": rep.outer_solves,
        "normalization_value": rep.normalization_value,
    }
    if verbose:
        for key, value in block.items():
            print(f"{key}: {value}")
    return block


def _read_table(path, columns, fill):
    """Pivot the x, y rows of a CSV file into one (X, Y) table per name in
    columns that the header has; a cell without a row keeps fill.  Returns
    the sorted x types, the sorted y types and the tables by name."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        names = [c for c in columns if c in (reader.fieldnames or ())]
        rows = [(int(r["x"]), int(r["y"]), [float(r[c]) for c in names]) for r in reader]
    xs = sorted({x for x, _, _ in rows})
    ys = sorted({y for _, y, _ in rows})
    tables = {c: np.full((len(xs), len(ys)), fill) for c in names}
    for x, y, values in rows:
        for c, v in zip(names, values):
            tables[c][xs.index(x), ys.index(y)] = v
    return xs, ys, tables


def _read_masses_csv(path, xs, ys):
    n = np.full(len(xs), np.nan)
    m = np.full(len(ys), np.nan)
    with open(path) as fh:
        for row in csv.DictReader(fh):
            side = row["side"].strip().lower()
            t = int(row["type"])
            if side == "x":
                n[xs.index(t)] = float(row["mass"])
            elif side == "y":
                m[ys.index(t)] = float(row["mass"])
            else:
                raise ConfigError(f"unknown side {row['side']!r}")
    if np.any(np.isnan(n)) or np.any(np.isnan(m)):
        raise ConfigError("masses file misses some types")
    return n, m


def _market_from_config(cfg):
    """The x types, y types and MarketPrimitives of a matching config: the
    market file has a phi column or alpha and gamma columns, never both."""
    path = cfg["market_csv"]
    xs, ys, tables = _read_table(path, ("phi", "alpha", "gamma"), np.nan)
    if not xs:
        raise ConfigError(f"empty market file {path}")
    if "phi" in tables and len(tables) > 1:
        split = ", ".join(c for c in tables if c != "phi")
        raise ConfigError(f"market file {path} has phi and {split} columns: give phi or alpha and gamma")
    if any(np.isnan(tbl).any() for tbl in tables.values()):
        raise ConfigError("market file misses some (x, y) pairs")
    n, m = _read_masses_csv(cfg["masses_csv"], xs, ys)
    family = cfg.get("family", {"kind": "TU"})
    kind = family["kind"].upper()
    if kind not in ("TU", "NTU", "ETU"):
        raise ConfigError(f"unsupported family kind {family['kind']!r}")
    if "phi" not in tables:
        fam = mt.MatchingFamily(kind=kind, alpha=tables["alpha"], gamma=tables["gamma"])
    elif kind == "ETU":
        raise ConfigError("ETU needs alpha and gamma columns")
    else:
        fam = mt.tu_family(phi=tables["phi"]) if kind == "TU" else mt.ntu_family(tables["phi"])
    return xs, ys, mt.MarketPrimitives(family=fam, n=n, m=m)


def cmd_match(cfg, out_dir, args):
    xs, ys, prim = _market_from_config(cfg)
    fam = prim.family
    norm = _norm_from_config(cfg.get("normalization", {}))
    K = float(cfg.get("K", 0.0))
    opts = _opts_from_config(cfg)
    eq = mt.solve_mfe(prim, norm, K, opts)

    transfers = mt.recover_transfers(fam, eq) if fam.transfers else None

    with open(Path(out_dir) / "equilibrium.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["x", "y", "mu"] + (["w"] if transfers is not None else [])
        writer.writerow(header)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                row = [x, y, repr(float(eq.mu[i, j]))]
                if transfers is not None:
                    row.append(repr(float(transfers[i, j])))
                writer.writerow(row)

    _write_report(
        out_dir,
        "report.json",
        {
            "command": "match",
            "a": eq.a.tolist(),
            "b": eq.b.tolist(),
            "K": K,
            "family": fam.kind,
            **_solve_block(eq.report, args.verbose),
        },
    )
    return 0


def _model_from_config(cfg, dim, seed):
    fam = cfg.get("family", "logit")
    R = int(cfg.get("R", 100_000))
    seed = int(cfg.get("seed", seed if seed is not None else 0))
    if fam == "logit":
        return dm.logit_model(dim)
    if fam == "logit-mc":
        return dm.logit_mc_model(dim, R, seed)
    if fam == "rc-logit":
        return dm.rc_logit_model(np.asarray(cfg["x"], dtype=float), np.asarray(cfg["sigmas"], dtype=float), R, seed)
    if fam == "pure-characteristics":
        return dm.pure_characteristics_model(np.asarray(cfg["x"], dtype=float), R, seed)
    if fam == "bridge":
        return dm.bridge_model(np.asarray(cfg["tolls"], dtype=float), R, seed)
    raise ConfigError(f"unknown demand family {fam!r}")


def _read_columns(path, columns):
    """The good column of a per-good CSV file and one float array per name
    in columns."""
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    goods = [r["good"] for r in rows]
    return goods, [np.array([float(r[c]) for r in rows]) for c in columns]


def cmd_invert(cfg, out_dir, args):
    goods, (s,) = _read_columns(cfg["shares_csv"], ["share"])
    model = _model_from_config(cfg.get("model", {}), s.size, args.seed)
    norm = _norm_from_config(cfg.get("normalization", {}))
    K = float(cfg.get("K", 0.0))
    opts = _opts_from_config(cfg) if "tolerances" in cfg else None
    result = dm.invert_demand(model, s, norm, K, opts)

    with open(Path(out_dir) / "deltas.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["good", "delta"])
        for g, dlt in zip(goods, result.delta):
            writer.writerow([g, repr(float(dlt))])

    _write_report(
        out_dir,
        "report.json",
        {
            "command": "invert",
            "K": K,
            "model": model.label,
            **_solve_block(result.report, args.verbose),
        },
    )
    return 0


def cmd_estimate(cfg, out_dir, args):
    mode = cfg.get("mode", "mle")
    norm = _norm_from_config(cfg.get("normalization", {}))
    K = float(cfg.get("K", 0.0))
    theta0 = np.asarray(cfg.get("theta0", [0.0]), dtype=float)

    if mode == "mle":
        _, _, tables = _read_table(cfg["matches_csv"], ("count",), 0.0)
        mu_hat = tables["count"]
        sp = cfg["spec"]
        kind = sp.get("kind", "TU").upper()
        if kind == "TU":
            spec = est.tu_surplus_spec(sp.get("phi0", np.zeros_like(mu_hat)), sp["basis"])
        elif kind == "ETU":
            spec = est.ThetaSpec(
                kind="ETU",
                alpha0=sp.get("alpha0", np.zeros_like(mu_hat)),
                alpha_basis=sp["alpha_basis"],
                gamma0=sp.get("gamma0"),
                gamma_basis=sp["gamma_basis"],
            )
        else:
            raise ConfigError(f"unsupported spec kind {kind!r}")
        result = est.mle_nested(spec, mu_hat, norm, K, theta0, _opts_from_config(cfg))
        _write_report(
            out_dir,
            "report.json",
            {
                "command": "estimate",
                "mode": "mle",
                "theta": result.theta.tolist(),
                "loglik": result.loglik,
                "gradient_norm": result.gradient_norm,
                "iterations": result.iterations,
            },
        )
        return 0

    if mode == "gmm":
        _, (s, x1, x2, y) = _read_columns(cfg["data_csv"], ["share", "x1", "x2", "y"])
        model = _model_from_config(cfg.get("model", {}), s.size, args.seed)
        gfam = dm.linear_g()
        opts = _opts_from_config(cfg) if "tolerances" in cfg else None
        result = est.gmm_nested(model, s, x1, x2, y, gfam, norm, K, theta0, opts=opts)
        _write_report(
            out_dir,
            "report.json",
            {
                "command": "estimate",
                "mode": "gmm",
                "theta": result.theta.tolist(),
                "objective": result.value,
                "moments": result.moments.tolist(),
            },
        )
        return 0

    raise ConfigError(f"unknown estimation mode {mode!r}")


def cmd_check(cfg, out_dir, args):
    target = cfg.get("target", "matching")
    if target == "matching":
        system, q = mt.build_mfe_system(_market_from_config(cfg)[2])
    elif target == "demand":
        _, (s,) = _read_columns(cfg["shares_csv"], ["share"])
        dm._check_shares(s)  # the target invert_demand accepts
        model = _model_from_config(cfg.get("model", {}), s.size, args.seed)
        system = dm.build_demand_system(model)
        q = s
    else:
        raise ConfigError(f"unknown check target {target!r}")

    seed = int(args.seed if args.seed is not None else 0)
    checks = cfg.get(
        "checks",
        ["weak_substitutes", "pivotal_substitutes", "responsiveness"],
    )
    reports = []
    for name in checks:
        if name == "weak_substitutes":
            rep = dg.check_weak_substitutes(system, seed=seed)
        elif name == "pivotal_substitutes":
            rep = dg.check_pivotal_substitutes(system, q, seed=seed)
        elif name == "responsiveness":
            rep = dg.check_responsiveness(system, q, seed=seed)
        elif name == "connected_strict_substitutes":
            rep = dg.check_connected_strict_substitutes(system, seed=seed)
        elif name == "utility_regularity":
            if target != "demand":
                raise ConfigError("utility_regularity applies to demand targets only")
            grid = cfg.get("delta_grid")
            rep = dm.check_utility_regularity(
                model, delta_grid=None if grid is None else np.asarray(grid, dtype=float)
            )
        else:
            raise ConfigError(f"unknown check {name!r}")
        reports.append(rep)

    _write_report(
        out_dir,
        "report.json",
        {
            "command": "check",
            "target": target,
            "results": [
                {
                    "property": r.property_name,
                    "passed": r.passed,
                    "samples": r.samples_tested,
                    "violations": len(r.violations),
                }
                for r in reports
            ],
        },
    )
    if any(not r.passed for r in reports):
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="equisub", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("match", cmd_match),
        ("invert", cmd_invert),
        ("estimate", cmd_estimate),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(func=fn)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        code = args.func(cfg, args.out, args)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except EquisubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        print(f"{args.command}: done (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
