"""The benchmark's tracer (perfbench/tracing.py) still reads what it needs.

The tracer wraps equisub's public functions and each built system's
solver hooks from outside the library.  Its self-check ties the sweeps
that SolveReport.iterations reports to the traced sweep_solver calls; a
system attribute it reads going missing breaks every traced instance.
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import equisub.cli  # noqa: F401  (the tracer wraps the cli layer too)
from equisub import demand, matching
from equisub import normalization as nz
from equisub.errors import BracketNotFound

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def test_tracer_counts_every_sweep_through_sweep_solver():
    rng = np.random.default_rng(1)
    tracer = Tracer()
    tracer.install()
    try:
        tu = matching.MarketPrimitives(
            family=matching.tu_family(phi=rng.normal(0.0, 0.25, (2, 2))), n=np.ones(2), m=np.ones(2)
        )
        matching.solve_mfe(tu, nz.mean(), 0.0)
        alpha, gamma = rng.normal(0.0, 0.25, size=(2, 2, 2))
        etu = matching.MarketPrimitives(family=matching.etu_family(alpha, gamma), n=np.ones(2), m=np.ones(2))
        matching.solve_mfe(etu, nz.coordinate(2), 0.0)  # coordinate psi on the pin
        # match-tu's coordinate slot: the log-linear sweep iterates inside
        # itself, and its inner steps are not sweeps
        alpha, gamma = rng.normal(0.0, 0.25, size=(2, 5, 5))
        tu5 = matching.MarketPrimitives(family=matching.tu_family(alpha, gamma), n=np.ones(5), m=np.ones(5))
        assert matching.solve_mfe(tu5, nz.coordinate(5), 0.0).report.iterations <= 2
        model = demand.logit_mc_model(4, R=2000, seed=1)
        s = demand.demand_mc(model, np.array([0.0, -0.3, 0.2, 0.4]))
        demand.invert_demand(model, s, nz.coordinate(0), 0.0)
    finally:
        tracer.uninstall()
    assert tracer.self_check() == []
    layer = tracer.per_layer(1.0)
    assert layer["solver.sweeps"] == layer["system.sweep_solver.calls"] > 0


def test_tracer_counts_failed_sweeps_and_keeps_the_logit_closed_form():
    # built before the tracer wraps demand_logit: the wrapped function must
    # still select the closed-form sweep
    model = demand.logit_model(4)
    rng = np.random.default_rng(1)
    alpha, gamma = rng.normal(0.0, 0.5, size=(2, 2, 2))
    etu = matching.MarketPrimitives(family=matching.etu_family(alpha, gamma), n=np.ones(2), m=np.ones(2))
    tracer = Tracer()
    tracer.install()
    try:
        # no equilibrium at K = 0.5 (hybr finds no root either); the pin
        # search's failed sweeps carry their reports
        with pytest.raises(BracketNotFound):
            matching.solve_mfe(etu, nz.coordinate(2), 0.5)
        s = demand.demand_logit(np.array([0.0, -0.3, 0.2, 0.4]))
        inv = demand.invert_demand(model, s, nz.coordinate(0), 0.0)
    finally:
        tracer.uninstall()
    assert inv.report.iterations <= 2
    assert tracer.self_check() == []
    layer = tracer.per_layer(1.0)
    assert layer["solver.sweeps"] == layer["system.sweep_solver.calls"] > 0


def test_tracer_counts_one_check_span_per_structure_check(tmp_path):
    # diagnostics.check.calls sums the public check_* spans; the probes'
    # shared helpers are private and must not add spans of their own
    shares = tmp_path / "shares.csv"
    shares.write_text("good,share\ng0,0.5\ng1,0.3\ng2,0.2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "target": "demand",
        "shares_csv": str(shares),
        "model": {"family": "logit"},
    }))
    tracer = Tracer()
    tracer.install()
    try:
        code = equisub.cli.main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.per_layer(1.0)["diagnostics.check.calls"] == 3


@pytest.mark.parametrize("workload, cycles", [("estimate", 3), ("invert-cli", 1), ("match-tu", 1)])
def test_estimate_workload_instances_pass_their_checks(workload, cycles, tmp_path):
    # whole cycles of a workload at seed 1: any failed or wrong instance
    # would count against the benchmark's failure share (invert-cli's
    # simulated inversions must stay within its 10-draw share check)
    for inst in generate(WORKLOADS[workload], 1, tmp_path, cycles):
        status, detail = inst.check(inst.run())
        assert status == "pass", (inst.kind, detail)


@pytest.mark.parametrize("seed", [4, 7, 11])
def test_invert_cli_bridge_mean_instances_pass(seed, tmp_path):
    # the bridge under mean and coordinate psi on the 30 s invert-cli lists
    # of these seeds (72 instances), where a dichotomy that solves every pin
    # stalls on 4 mean-psi ones, and where the share map's argmax over the
    # additive draws must keep every answer within the 10-draw check
    w = WORKLOADS["invert-cli"]
    for i, inst in enumerate(generate(w, seed, tmp_path, w.list_cycles(30))):
        if inst.kind.startswith("bridge-4-"):
            status, detail = inst.check(inst.run())
            assert status == "pass", (i, detail)


@pytest.mark.parametrize("seed", [2, 3])
def test_estimate_30s_lists_pass(seed, tmp_path):
    # every instance of the 30 s estimate list at these seeds (MLE, MPEC on
    # TU and ETU, two-step GMM): a failed or wrong one would count against
    # the benchmark's failure share
    w = WORKLOADS["estimate"]
    for i, inst in enumerate(generate(w, seed, tmp_path, w.list_cycles(30))):
        status, detail = inst.check(inst.run())
        assert status == "pass", (i, inst.kind, detail)
