"""Spans around equisub's public functions, recorded from outside the library.

``Tracer.install()`` replaces every public function of the traced modules
with a timing wrapper at every place it was imported (each ``equisub``
module namespace that holds it), wraps ``MatchingFamily.log_match`` and
``Normalization.__call__``, and wraps the ``eval_fn``, ``coordinate_solver``
and ``sweep_solver`` of each system that ``build_mfe_system`` and
``build_demand_system`` return.  ``uninstall()`` puts the originals back.
Nothing under ``src/`` changes.

Spans stay in memory as flat arrays (name, parent, start, end) and are
turned into per-layer metrics, or written out, when the run ends.  A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("solver", "system", "normalization", "matching", "demand", "diagnostics", "estimation", "cli")
CLI_EXIT_CODES = (0, 1, 2, 3)

# per-layer metrics reported by a traced run: (name, unit)
PER_LAYER = (
    ("solver.solve_normalized.calls", "count"),
    ("solver.solve_normalized.self_s", "s"),
    ("solver.solve_pinned.calls", "count"),
    ("solver.solve_pinned.self_s", "s"),
    ("solver.solve_pinned.useful_ratio", "ratio"),
    ("solver.sweeps", "count"),
    ("solver.build_subsolution.calls", "count"),
    ("solver.build_subsolution.self_s", "s"),
    ("solver.build_subsolution.raised", "count"),
    ("solver.coordinate_update.calls", "count"),
    ("solver.coordinate_update.self_s", "s"),
    ("system.eval_supply.calls", "count"),
    ("system.map_evals", "count"),
    ("system.map_work", "cells"),
    ("system.coordinate_solver.calls", "count"),
    ("system.coordinate_solver.self_s", "s"),
    ("system.sweep_solver.calls", "count"),
    ("normalization.psi.calls", "count"),
    ("matching.solve_mfe.calls", "count"),
    ("matching.solve_mfe.self_s", "s"),
    ("matching.build_mfe_system.self_s", "s"),
    ("matching.log_match.calls", "count"),
    ("demand.demand_mc.calls", "count"),
    ("demand.demand_mc.self_s", "s"),
    ("demand.invert_demand.self_s", "s"),
    ("demand.build_demand_system.self_s", "s"),
    ("diagnostics.check.calls", "count"),
    ("diagnostics.check.self_s", "s"),
    ("estimation.likelihood_gradient.calls", "count"),
    ("estimation.likelihood_gradient.self_s", "s"),
    ("estimation.mpec_residual.calls", "count"),
    ("estimation.mpec_residual.self_s", "s"),
    ("estimation.objective_evals", "count"),
    ("estimation.nested_solves", "count"),
    ("estimation.newton_steps", "count"),
    ("estimation.gmm_nested.self_s", "s"),
    ("cli.main.self_s", "s"),
) + tuple((f"cli.exit.{c}", "count") for c in CLI_EXIT_CODES) + (
    ("trace.throughput_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: List[int] = []
        self.paused = False
        # facts read off return values, keyed by span index
        self.iterations: Dict[int, int] = {}      # solve_pinned SolveReport.iterations
        self.outer_solves: Dict[int, int] = {}    # solve_normalized SolveReport.outer_solves
        self.pin_dim: Dict[int, int] = {}         # solve_pinned system dimension
        self.newton_steps = 0
        self.cli_exit: Dict[int, int] = defaultdict(int)
        self.map_work = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None,
             on_return: Optional[Callable] = None, on_raise: Optional[Callable] = None) -> Callable:
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.raised.append(0)
            tracer.end.append(0.0)
            if on_call is not None:
                on_call(idx, args, kwargs)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer.raised[idx] = 1
                if on_raise is not None:
                    on_raise(idx, exc)
                raise
            tracer.end[idx] = time.perf_counter()
            tracer._stack.pop()
            if on_return is not None:
                out = on_return(idx, out, args)
            return out

        return wrapper

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "equisub" and not modname.startswith("equisub."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append(lambda m=mod, a=attr, v=original: setattr(m, a, v))

    def _set_method(self, cls, attr, replacement):
        original = cls.__dict__[attr]
        setattr(cls, attr, replacement)
        self._undo.append(lambda: setattr(cls, attr, original))

    def install(self):
        import equisub
        from equisub.matching import MatchingFamily
        from equisub.normalization import Normalization

        hooks = {
            "solver.solve_pinned": dict(on_call=self._pinned_call, on_return=self._pinned_return,
                                        on_raise=self._pinned_raise),
            "solver.solve_normalized": dict(on_return=self._normalized_return),
            "estimation.mpec_solve": dict(on_return=self._mpec_return),
            "cli.main": dict(on_return=self._cli_return),
            "matching.build_mfe_system": dict(on_return=self._mfe_system_return),
            "demand.build_demand_system": dict(on_return=self._demand_system_return),
        }
        for layer in LAYERS:
            mod = getattr(equisub, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self._replace_everywhere(fn, self.wrap(name, fn, **hooks.get(name, {})))
        self._set_method(MatchingFamily, "log_match",
                         self.wrap("matching.log_match", MatchingFamily.__dict__["log_match"]))
        self._set_method(Normalization, "__call__",
                         self.wrap("normalization.psi", Normalization.__dict__["__call__"]))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- hooks ----------------------------------------------------------

    def _pinned_call(self, idx, args, kwargs):
        system = args[0] if args else kwargs["system"]
        self.pin_dim[idx] = system.dim

    def _pinned_return(self, idx, rep, args):
        self.iterations[idx] = int(rep.iterations)
        return rep

    def _pinned_raise(self, idx, exc):
        rep = getattr(exc, "report", None)
        if rep is not None:
            self.iterations[idx] = int(rep.iterations)

    def _normalized_return(self, idx, rep, args):
        self.outer_solves[idx] = int(rep.outer_solves)
        return rep

    def _mpec_return(self, idx, res, args):
        self.newton_steps += int(res.iterations)
        return res

    def _cli_return(self, idx, code, args):
        self.cli_exit[int(code)] += 1
        return code

    def _wrap_system(self, system, cells: int):
        def count_map(q):
            self.map_work += cells
            return q

        fields = {"eval_fn": self.wrap("system.eval_fn", system.eval_fn,
                                       on_return=lambda i, q, a: count_map(q))}
        for attr in ("coordinate_solver", "sweep_solver"):
            fn = getattr(system, attr)
            if fn is not None:
                fields[attr] = self.wrap(f"system.{attr}", fn)
        return dataclasses.replace(system, **fields)

    def _mfe_system_return(self, idx, out, args):
        system, q = out
        X, Y = args[0].shape
        return self._wrap_system(system, X * Y), q

    def _demand_system_return(self, idx, system, args):
        model = args[0]
        cells = model.draws.size if model.closed_form is None else model.dim
        return self._wrap_system(system, cells)

    # -- results --------------------------------------------------------

    def arrays(self):
        """Copies of the span store as numpy arrays: name id, parent, start, end, raised."""
        return tuple(
            np.frombuffer(buf, dtype=dtype).copy()
            for buf, dtype in ((self.name_id, np.int32), (self.parent, np.int32), (self.start, np.float64),
                               (self.end, np.float64), (self.raised, np.int8))
        )

    def summary(self):
        """Per-name calls, raised counts and self time."""
        nid, par, start, end, raised = self.arrays()
        dur = end - start
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        n_raised = np.bincount(nid, weights=raised, minlength=n)
        self_t = np.bincount(nid, weights=dur - child, minlength=n)
        return {
            name: {"calls": int(calls[i]), "raised": int(n_raised[i]), "self_s": float(self_t[i])}
            for i, name in enumerate(self.names)
        }

    def _children(self, child_name: str) -> np.ndarray:
        """Number of direct children named child_name, per span."""
        nid, par, _, _, _ = self.arrays()
        i = self._ids.get(child_name)
        if i is None:
            return np.zeros(len(nid), dtype=np.int64)
        return np.bincount(par[(nid == i) & (par >= 0)], minlength=len(nid))

    def per_layer(self, throughput_ratio: float):
        """Values of the PER_LAYER metrics for this trace."""
        stats = self.summary()
        nid, par, _, _, _ = self.arrays()
        ids = self._ids

        def st(name, key):
            return stats.get(name, {}).get(key, 0)

        def prefix_sum(prefix, key):
            return sum(v[key] for k, v in stats.items() if k.startswith(prefix))

        pinned = st("solver.solve_pinned", "calls")
        # spans with an estimation-layer ancestor; parents precede children
        est_ids = {ids[k] for k in ids if k.startswith("estimation.")}
        nid_l, par_l = nid.tolist(), par.tolist()
        under = [False] * len(nid_l)
        for i, p in enumerate(par_l):
            under[i] = p >= 0 and (under[p] or nid_l[p] in est_ids)
        under_est = np.array(under, dtype=bool)
        nested = sum(
            int((under_est & (nid == ids[k])).sum())
            for k in ("matching.solve_mfe", "demand.invert_demand") if k in ids
        )
        vals = {
            "solver.solve_normalized.calls": st("solver.solve_normalized", "calls"),
            "solver.solve_normalized.self_s": st("solver.solve_normalized", "self_s"),
            "solver.solve_pinned.calls": pinned,
            "solver.solve_pinned.self_s": st("solver.solve_pinned", "self_s"),
            "solver.solve_pinned.useful_ratio":
                (pinned - st("solver.solve_pinned", "raised")) / pinned if pinned else 0.0,
            "solver.sweeps": sum(self.iterations.values()),
            "solver.build_subsolution.calls": st("solver.build_subsolution", "calls"),
            "solver.build_subsolution.self_s": st("solver.build_subsolution", "self_s"),
            "solver.build_subsolution.raised": st("solver.build_subsolution", "raised"),
            "solver.coordinate_update.calls": st("solver.coordinate_update", "calls"),
            "solver.coordinate_update.self_s": st("solver.coordinate_update", "self_s"),
            "system.eval_supply.calls": st("system.eval_supply", "calls"),
            "system.map_evals": st("system.eval_fn", "calls"),
            "system.map_work": self.map_work,
            "system.coordinate_solver.calls": st("system.coordinate_solver", "calls"),
            "system.coordinate_solver.self_s": st("system.coordinate_solver", "self_s"),
            "system.sweep_solver.calls": st("system.sweep_solver", "calls"),
            "normalization.psi.calls": st("normalization.psi", "calls"),
            "matching.solve_mfe.calls": st("matching.solve_mfe", "calls"),
            "matching.solve_mfe.self_s": st("matching.solve_mfe", "self_s"),
            "matching.build_mfe_system.self_s": st("matching.build_mfe_system", "self_s"),
            "matching.log_match.calls": st("matching.log_match", "calls"),
            "demand.demand_mc.calls": st("demand.demand_mc", "calls"),
            "demand.demand_mc.self_s": st("demand.demand_mc", "self_s"),
            "demand.invert_demand.self_s": st("demand.invert_demand", "self_s"),
            "demand.build_demand_system.self_s": st("demand.build_demand_system", "self_s"),
            "diagnostics.check.calls": prefix_sum("diagnostics.check_", "calls"),
            "diagnostics.check.self_s": prefix_sum("diagnostics.check_", "self_s"),
            "estimation.likelihood_gradient.calls": st("estimation.likelihood_gradient", "calls"),
            "estimation.likelihood_gradient.self_s": st("estimation.likelihood_gradient", "self_s"),
            "estimation.mpec_residual.calls": st("estimation.mpec_residual", "calls"),
            "estimation.mpec_residual.self_s": st("estimation.mpec_residual", "self_s"),
            "estimation.objective_evals":
                st("estimation.likelihood_gradient", "calls") + st("estimation.gmm_moments", "calls"),
            "estimation.nested_solves": nested,
            "estimation.newton_steps": self.newton_steps,
            "estimation.gmm_nested.self_s": st("estimation.gmm_nested", "self_s"),
            # the CLI layer's own time: main and the cmd_* handlers, without
            # the library calls they make
            "cli.main.self_s": prefix_sum("cli.", "self_s"),
            "trace.throughput_ratio": throughput_ratio,
        }
        for c in CLI_EXIT_CODES:
            vals[f"cli.exit.{c}"] = self.cli_exit.get(c, 0)
        return vals

    def counts(self):
        """Every exact count the trace holds, for the repeat check."""
        stats = self.summary()
        out = {f"{k}.calls": v["calls"] for k, v in stats.items()}
        out.update({f"{k}.raised": v["raised"] for k, v in stats.items()})
        out["solver.sweeps"] = sum(self.iterations.values())
        out["system.map_work"] = self.map_work
        out["estimation.newton_steps"] = self.newton_steps
        out.update({f"cli.exit.{c}": n for c, n in self.cli_exit.items()})
        return out

    def self_check(self) -> List[str]:
        """Agreement of the traced calls with the SolveReport counters."""
        problems = []
        # each successful normalized solve made exactly outer_solves pinned solves
        pinned_kids = self._children("solver.solve_pinned")
        for idx, outer in self.outer_solves.items():
            if pinned_kids[idx] != outer:
                problems.append(f"solve_normalized span {idx}: {pinned_kids[idx]} solve_pinned "
                                f"calls, SolveReport.outer_solves = {outer}")
        # a sweep is one sweep_solver call or one coordinate_update per free
        # coordinate, made directly by solve_pinned
        sweep_kids = self._children("system.sweep_solver")
        update_kids = self._children("solver.coordinate_update")
        observed = sum(
            int(sweep_kids[idx]) + int(update_kids[idx]) // max(self.pin_dim[idx] - 1, 1)
            for idx in self.iterations
        )
        reported = sum(self.iterations.values())
        if observed != reported:
            problems.append(f"solver.sweeps: {reported} from SolveReport.iterations, "
                            f"{observed} sweeps traced")
        return problems

    def save(self, path):
        nid, par, start, end, raised = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid, parent=par,
                            start=start, end=end, raised=raised)
