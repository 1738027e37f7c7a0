"""Spans and counters recorded at levylab's layer boundaries, from outside.

The tracer replaces module attributes and class methods with wrappers that
open a span on entry and close it on exit.  It patches each function under
the name its caller looks up (``levylab.integrator.sample_large_jumps`` as
well as ``levylab.levy_noise.sample_large_jumps``), so calls made inside the
program are seen as well as the benchmark's own calls.  Spans are kept in
flat arrays (name id, start, end, parent index) and written out at the end
of the run; per-name call counts, inclusive time and self time (a span's
duration minus the time of its direct children) accumulate as spans close.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict

import numpy as np

COEFF = "sde_model.coeff"
COEFF_FIELDS = ("sigma", "drift", "b1", "b2", "jump", "sigma_bar")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []  # [span index, name, start, time covered by children]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start - self.t0)
        self._stack.append([idx, name, start, 0.0])

    def close(self):
        end = time.perf_counter()
        idx, name, start, children = self._stack.pop()
        self.span_end[idx] = end - self.t0
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - children
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; ``after(args, result)`` may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, out)
            return out

        return traced

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def write_spans(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def instrument(lv, tracer):
    """Wrap the public entry points of each layer of the levylab namespace ``lv``."""

    def count(key, amount):
        tracer.counters[key] += amount

    def patch(owners, attr, name, after=None):
        # one wrapper per distinct function; a name the program no longer has is
        # skipped, and its metrics then read 0
        wrapped = {}
        for owner in owners:
            fn = getattr(owner, attr, None)
            if fn is not None:
                wrapped.setdefault(id(fn), tracer.wrap(name, fn, after))
                setattr(owner, attr, wrapped[id(fn)])

    def jumps_drawn(args, events):
        count("levy_noise.large_jumps", len(events))
        count("levy_noise.large_jump_horizon", float(args[1]))

    def sweeps(args, sol):
        count("pide_zvonkin.sweeps", sol.sweeps)

    patch([lv.levy_noise, lv.integrator], "tail_mass", "levy_noise.tail_mass")
    patch(
        [lv.levy_noise, lv.integrator, lv.ergodicity],
        "sample_large_jumps",
        "levy_noise.sample_large_jumps",
        jumps_drawn,
    )
    patch([lv.integrator, lv.ergodicity], "simulate_ensemble", "integrator.simulate_ensemble")
    patch([getattr(lv.integrator, "_Engine", None)], "run", "integrator.engine_run")
    patch([lv.sde_model, lv.pide_zvonkin], "gamma_moment", "sde_model.gamma_moment")
    patch([lv.pide_zvonkin], "solve_elliptic", "pide_zvonkin.solve_elliptic", sweeps)
    patch([lv.pide_zvonkin], "build_zvonkin", "pide_zvonkin.build_zvonkin")
    patch([lv.pide_zvonkin], "apply_nonlocal", "pide_zvonkin.apply_nonlocal")
    patch([lv.pide_zvonkin.ZvonkinMap], "phi_inverse", "pide_zvonkin.phi_inverse")
    patch([lv.ergodicity], "estimate_invariant", "ergodicity.estimate_invariant")
    patch([lv.ergodicity], "wasserstein1", "ergodicity.wasserstein1")


def instrument_problem(problem, tracer):
    """Wrap the coefficient callables of one SdeProblem (b, sigma, g, sigma_bar)."""

    def g_points(args, out):
        tracer.counters["sde_model.g.points"] += np.size(args[1])

    for field in COEFF_FIELDS:
        fn = getattr(problem, field)
        if fn is not None:
            setattr(problem, field, tracer.wrap(COEFF, fn, g_points if field == "jump" else None))
    return problem


LAYER_UNITS = {
    "levy_noise.tail_mass.calls": "count",
    "levy_noise.tail_mass.self_s": "s",
    "levy_noise.sample_large_jumps.calls": "count",
    "levy_noise.sample_large_jumps.self_s": "s",
    "integrator.simulate_ensemble.s": "s",
    "integrator.self_s": "s",
    "integrator.path_steps_per_s": "path-steps/s",
    "sde_model.coeff.calls": "count",
    "sde_model.g.points": "count",
    "sde_model.coeff.self_s": "s",
    "sde_model.gamma_moment.calls": "count",
    "sde_model.gamma_moment.self_s": "s",
    "pide_zvonkin.build_zvonkin.s": "s",
    "pide_zvonkin.solve_elliptic.calls": "count",
    "pide_zvonkin.sweeps": "count",
    "pide_zvonkin.phi_inverse.calls": "count",
    "pide_zvonkin.phi_inverse.self_s": "s",
    "ergodicity.estimate_invariant.s": "s",
    "ergodicity.path_steps_per_s": "path-steps/s",
}


def layer_metrics(delta, path_steps):
    """Per-layer metrics of one round from a difference of two snapshots."""
    calls, total, self_t, ctr = delta["calls"], delta["total"], delta["self"], delta["counters"]

    def rate(steps, seconds):
        return steps / seconds if seconds > 0 else 0.0

    ens_s = total.get("integrator.simulate_ensemble", 0.0)
    inv_s = total.get("ergodicity.estimate_invariant", 0.0)
    return {
        "levy_noise.tail_mass.calls": calls.get("levy_noise.tail_mass", 0),
        "levy_noise.tail_mass.self_s": self_t.get("levy_noise.tail_mass", 0.0),
        "levy_noise.sample_large_jumps.calls": calls.get("levy_noise.sample_large_jumps", 0),
        "levy_noise.sample_large_jumps.self_s": self_t.get("levy_noise.sample_large_jumps", 0.0),
        "integrator.simulate_ensemble.s": ens_s,
        "integrator.self_s": self_t.get("integrator.simulate_ensemble", 0.0) + self_t.get("integrator.engine_run", 0.0),
        "integrator.path_steps_per_s": rate(path_steps.get("ensemble", 0), ens_s),
        "sde_model.coeff.calls": calls.get(COEFF, 0),
        "sde_model.g.points": ctr.get("sde_model.g.points", 0),
        "sde_model.coeff.self_s": self_t.get(COEFF, 0.0),
        "sde_model.gamma_moment.calls": calls.get("sde_model.gamma_moment", 0),
        "sde_model.gamma_moment.self_s": self_t.get("sde_model.gamma_moment", 0.0),
        "pide_zvonkin.build_zvonkin.s": total.get("pide_zvonkin.build_zvonkin", 0.0),
        "pide_zvonkin.solve_elliptic.calls": calls.get("pide_zvonkin.solve_elliptic", 0),
        "pide_zvonkin.sweeps": ctr.get("pide_zvonkin.sweeps", 0),
        "pide_zvonkin.phi_inverse.calls": calls.get("pide_zvonkin.phi_inverse", 0),
        "pide_zvonkin.phi_inverse.self_s": self_t.get("pide_zvonkin.phi_inverse", 0.0),
        "ergodicity.estimate_invariant.s": inv_s,
        "ergodicity.path_steps_per_s": rate(path_steps.get("invariant", 0), inv_s),
    }


def diff(after, before):
    return {
        part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
        for part in ("calls", "total", "self", "counters")
    }
