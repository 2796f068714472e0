"""The benchmark's tracer (perfbench/tracing.py) still reads what it needs.

The tracer wraps equisub's public functions and each built system's
solver hooks from outside the library.  Its self-check ties the sweeps
that SolveReport.iterations reports to the traced sweep_solver calls; a
system attribute it reads going missing breaks every traced instance.
"""
import sys
from pathlib import Path

import numpy as np

import equisub.cli  # noqa: F401  (the tracer wraps the cli layer too)
from equisub import demand, matching
from equisub import normalization as nz

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Tracer  # noqa: E402


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
        model = demand.logit_mc_model(4, R=2000, seed=1)
        s = demand.demand_mc(model, np.array([0.0, -0.3, 0.2, 0.4]))
        demand.invert_demand(model, s, nz.coordinate(0), 0.0)
    finally:
        tracer.uninstall()
    assert tracer.self_check() == []
    layer = tracer.per_layer(1.0)
    assert layer["solver.sweeps"] == layer["system.sweep_solver.calls"] > 0
