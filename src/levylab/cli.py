"""Config-driven experiment runner (the ``levylab`` entry point).

``levylab run config.json [--threads N] [--seed-override S]`` validates the
config, dispatches to the module layer, and writes a reproducible bundle;
the CLI alone writes it, so the library layers return arrays and dataclasses
and know no file format:

    output_dir/manifest.json   config echo + git describe + seed + wall time
    output_dir/results.json    experiment outputs (byte-reproducible)
    output_dir/*.csv           tabular outputs

Exit status: 0 when every quantitative verdict passed, 2 when the experiment
ran but a check failed, 1 on execution errors.  Floats are serialized with 17
significant digits, LF line endings, sorted keys; wall time lives only in the
manifest so results.json stays byte-identical across reruns and thread counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, is_dataclass

import numpy as np

from levylab import density_lab, ergodicity, inequality_lab, pide_zvonkin
from levylab.errors import LevyLabError, ParameterError, SchemaError
from levylab.expressions import compile_expression, expression_eval
from levylab.integrator import StepConfig, simulate_interlaced
from levylab.levy_noise import LevyModel
from levylab.sde_model import PRESET_NAMES, SdeProblem, audit_dissipativity, audit_ellipticity, audit_jump_coeff, default_audit_grid, preset

__all__ = ["main", "run", "expression_eval", "load_config", "build_problem"]

_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# deterministic JSON and CSV


def _json17(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  {json.dumps(str(k))}: {_json17(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj.tolist() if isinstance(obj, np.ndarray) else obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool, str, np.integer, np.floating)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(_json17(v) for v in seq) + "]"
        return "[\n" + ",\n".join(f"{pad}  {_json17(v, indent + 1)}" for v in seq) + f"\n{pad}]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if is_dataclass(obj):
        return _json17(asdict(obj), indent)
    return json.dumps(str(obj))


def _csv(columns):
    """A CSV table of equal-length columns: a header row of their names, then
    one row per index, every value at 17 significant digits (an integer
    prints as itself)."""
    rows = zip(*([format(float(v), ".17g") for v in column] for column in columns.values()))
    return "".join(",".join(row) + "\n" for row in [list(columns), *rows])


def _path_csv(sample, path_id):
    """One path as CSV rows (path_id, t, x_1..x_d, is_jump); without a jump
    flag, a repeated time marks the post-jump row."""
    times = sample.times
    jumps = sample.isjump if sample.isjump is not None else np.r_[False, times[1:] == times[:-1]]
    states = {f"x_{k + 1}": sample.states[:, k] for k in range(sample.states.shape[1])}
    return _csv({"path_id": np.full(len(times), path_id), "t": times, **states, "is_jump": jumps})


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json17(obj) + "\n")


# ---------------------------------------------------------------------------
# config schema

_TOP_KEYS = {"experiment", "problem", "levy", "numerics", "seed", "output_dir"}
_PROBLEM_KEYS = {
    "sigma", "b", "b1", "b2", "g",
    "c0", "beta_sigma", "c1", "beta_g", "kappa1", "kappa2", "kappa3", "r",
}
_LEVY_KEYS = {"alpha", "dim", "R", "radii", "densities"}

_COMMON_NUMERICS = {"dt", "epsilon", "n_paths", "x0", "gaussian_correction", "exact_stable", "threads", "checks"}

EXPERIMENTS = {
    "simulate": {"required": {"horizon"}, "optional": {"record_paths"}},
    "invariant": {"required": {"n_samples", "burn_in", "thinning"}, "optional": {"n_chains", "bin_width"}},
    "tv_decay": {"required": {"y0", "times"}, "optional": set()},
    "zvonkin_crossval": {
        "required": {"horizon", "grid"},
        "optional": {"lambda", "w1_tol", "lipschitz_tol"},
    },
    "heatkernel": {
        "required": {"t_values", "x_max"},
        "optional": {"ratio_tol", "n_x", "mc_preset", "horizon"},
    },
    "dirichlet": {"required": {"domain", "t", "eval"}, "optional": {"expect_value", "expect_rtol"}},
    "verify_krylov": {"required": set(), "optional": {"p", "q", "deltas", "amps", "spread_tol", "horizon"}},
    "verify_khasminskii": {"required": {"lambda"}, "optional": {"delta", "c0", "p", "q", "horizon"}},
    "verify_gronwall": {
        "required": {"p", "q"},
        "optional": {"xi0", "eta", "a_slope", "kind", "rate", "jump_scale", "horizon", "n_scenarios"},
    },
    "lyapunov": {"required": {"radial_max"}, "optional": {"radial_n", "c1", "c2"}},
    "audit": {"required": set(), "optional": {"grid", "directions"}},
}


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"config is not valid JSON: {e}") from e
    validate_config(raw)
    return raw


def validate_config(raw):
    problems = []
    if not isinstance(raw, dict):
        raise SchemaError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        problems.append(f"unknown top-level fields: {sorted(unknown)}")
    for key in ("experiment", "problem", "seed", "output_dir"):
        if key not in raw:
            problems.append(f"missing required field: {key}")
    exp = raw.get("experiment")
    if exp is not None and exp not in EXPERIMENTS:
        problems.append(f"unknown experiment {exp!r}; known: {sorted(EXPERIMENTS)}")
    prob = raw.get("problem")
    if isinstance(prob, dict):
        bad = set(prob) - _PROBLEM_KEYS
        if bad:
            problems.append(f"unknown problem fields: {sorted(bad)}")
        if "b" in prob and ("b1" in prob or "b2" in prob):
            problems.append("problem: give either b or the (b1, b2) split, not both")
    elif prob is not None and not isinstance(prob, str):
        problems.append("problem must be a preset name or an inline coefficient object")
    levy = raw.get("levy")
    if levy is not None:
        if not isinstance(levy, dict):
            problems.append("levy must be an object")
        else:
            bad = set(levy) - _LEVY_KEYS
            if bad:
                problems.append(f"unknown levy fields: {sorted(bad)}")
    seed = raw.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or not (0 <= seed < 2**64)):
        problems.append("seed must be an integer in [0, 2^64)")
    numerics = raw.get("numerics", {})
    if not isinstance(numerics, dict):
        problems.append("numerics must be an object")
        numerics = {}
    if exp in EXPERIMENTS:
        spec = EXPERIMENTS[exp]
        allowed = _COMMON_NUMERICS | spec["required"] | spec["optional"]
        bad = set(numerics) - allowed
        if bad:
            problems.append(f"unknown numerics fields for {exp}: {sorted(bad)}")
        missing = spec["required"] - set(numerics)
        if missing:
            problems.append(f"missing numerics fields for {exp}: {sorted(missing)}")
    if problems:
        raise SchemaError("invalid config: " + "; ".join(problems), fields=problems)


def build_levy(raw_levy):
    if raw_levy is None:
        return None
    if "radii" in raw_levy or "densities" in raw_levy:
        return LevyModel(
            kind="radial_table",
            dim=int(raw_levy.get("dim", 1)),
            big_jump_radius=float(raw_levy.get("R", 1.0)),
            radii=raw_levy["radii"],
            densities=raw_levy["densities"],
        )
    return LevyModel(
        kind="isotropic_stable",
        alpha=float(raw_levy["alpha"]),
        dim=int(raw_levy.get("dim", 1)),
        big_jump_radius=float(raw_levy.get("R", 1.0)),
    )


def build_problem(raw):
    """Build the SdeProblem named or described by the config."""
    prob = raw["problem"]
    if isinstance(prob, str):
        return preset(prob)
    levy = build_levy(raw.get("levy"))

    def coeff(key):
        if key not in prob:
            return None
        fn = compile_expression(prob[key])
        return lambda t, x: fn(x, t=t)

    jump = None
    sigma_bar = None
    if "g" in prob:
        gfn = compile_expression(prob["g"])
        jump = lambda t, x, z: gfn(x, z=z, t=t)
        # multiplicative detection: g linear in z unlocks exact stepping
        probe = np.array([0.4, -1.3, 2.2])
        g1 = gfn(probe, z=np.ones_like(probe))
        if np.allclose(gfn(probe, z=np.full_like(probe, 2.0)), 2.0 * g1) and np.allclose(
            gfn(probe, z=-np.ones_like(probe)), -g1
        ):
            sigma_bar = lambda t, x: gfn(x, z=np.ones_like(np.asarray(x, dtype=float)), t=t)
    tags = {k: float(prob[k]) for k in ("c0", "beta_sigma", "c1", "beta_g", "kappa1", "kappa2", "kappa3", "r") if k in prob}
    return SdeProblem(
        dim=1,
        sigma=coeff("sigma"),
        drift=coeff("b"),
        b1=coeff("b1"),
        b2=coeff("b2"),
        jump=jump,
        levy=levy,
        sigma_bar=sigma_bar,
        name="inline",
        **tags,
    )


def _step_config(numerics):
    return StepConfig(
        dt=float(numerics.get("dt", 1e-3)),
        small_jump_cutoff=numerics.get("epsilon"),
        gaussian_correction=bool(numerics.get("gaussian_correction", False)),
        exact_stable=bool(numerics.get("exact_stable", False)),
    )


def apply_checks(results, checks):
    """Evaluate {key: {target, rtol|atol}} checks against flat result keys."""
    outcomes = {}
    passed = True
    for key, spec in (checks or {}).items():
        val = results
        for part in key.split("."):
            val = getattr(val, part) if is_dataclass(val) else val[part]
        target = spec["target"]
        tol = spec.get("rtol")
        ok = (
            abs(val - target) <= tol * abs(target)
            if tol is not None
            else abs(val - target) <= spec.get("atol", 0.0)
        )
        outcomes[key] = {"value": val, "target": target, "passed": bool(ok)}
        passed = passed and ok
    return outcomes, passed


# ---------------------------------------------------------------------------
# experiment runners (each returns results dict, passed flag, tables dict)


def _run_simulate(p, numerics, seed, threads):
    cfg = _step_config(numerics)
    n_paths = int(numerics.get("n_paths", 1))
    horizon = float(numerics["horizon"])
    x0 = float(numerics.get("x0", 0.0))
    tables = {}
    terminals, n_events = [], []
    exploded = 0
    for i in range(n_paths):
        s = simulate_interlaced(p, x0, horizon, cfg, np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        terminals.append(float(s.terminal[0]))
        n_events.append(len(s.events))
        exploded += s.exploded_at is not None
        if numerics.get("record_paths", True) and i < 16:
            tables[f"path_{i}.csv"] = _path_csv(s, i)
    results = {
        "terminal": terminals,
        "n_events": n_events,
        "explosion_rate": exploded / n_paths,
        "horizon": horizon,
        "n_paths": n_paths,
    }
    return results, True, tables


def _run_invariant(p, numerics, seed, threads):
    cfg = _step_config(numerics)
    em = ergodicity.estimate_invariant(
        p,
        burn_in=float(numerics["burn_in"]),
        n_samples=int(numerics["n_samples"]),
        thinning=int(numerics["thinning"]),
        cfg=cfg,
        seed=seed,
        n_chains=int(numerics.get("n_chains", 1)),
        x0=float(numerics.get("x0", 0.0)),
        width=numerics.get("bin_width"),
    )
    results = {
        "mean": em.mean,
        "variance": em.variance,
        "count": em.count,
        "bandwidth": em.bandwidth,
        "mass_outside_20": em.mass_outside(-20.0, 20.0),
    }
    return results, True, {"histogram.csv": _csv({"bin_lo": em.edges[:-1], "bin_hi": em.edges[1:], "mass": em.masses})}


def _run_tv_decay(p, numerics, seed, threads):
    cfg = _step_config(numerics)
    rep = ergodicity.tv_decay_rate(
        p,
        float(numerics.get("x0", 4.0)),
        float(numerics["y0"]),
        numerics["times"],
        int(numerics.get("n_paths", 100000)),
        seed,
        cfg,
    )
    return asdict(rep), True, {}


def _run_zvonkin_crossval(p, numerics, seed, threads):
    from levylab.integrator import simulate_ensemble

    cfg = _step_config(numerics)
    g = numerics["grid"]
    grid = (float(g["lo"]), float(g["hi"]), int(g["n"]))
    lam = numerics.get("lambda")
    zmap, q = pide_zvonkin.build_zvonkin(p, lam=lam, grid=grid)
    horizon = float(numerics["horizon"])
    n_paths = int(numerics.get("n_paths", 100000))
    x0 = float(numerics.get("x0", 0.5))

    sx, sy = np.random.SeedSequence(seed).generate_state(2)
    direct = simulate_ensemble(p, x0, horizon, cfg, n_paths, int(sx), threads=threads)
    y0 = float(zmap.phi(np.array([x0]))[0])
    transformed = simulate_ensemble(q, y0, horizon, cfg, n_paths, int(sy), threads=threads)
    mapped = zmap.phi_inverse(transformed.terminal[:, 0])
    w1 = ergodicity.wasserstein1(direct.terminal[:, 0], mapped)

    lip_grid = (grid[0] * 0.8, grid[1] * 0.8)
    quot_direct = pide_zvonkin.grid_lipschitz_quotient(lambda x: p.b(0.0, x), *lip_grid, 2001)
    quot_transformed = pide_zvonkin.grid_lipschitz_quotient(lambda y: q.b2(0.0, y), *lip_grid, 2001)
    quot_fine = pide_zvonkin.grid_lipschitz_quotient(lambda y: q.b2(0.0, y), *lip_grid, 4001)
    lip_tol = float(numerics.get("lipschitz_tol", 1.5))
    lip_ok = quot_fine <= lip_tol * quot_transformed

    re_audit = audit_dissipativity(q, np.linspace(0.0, 0.8 * grid[1], 33))
    w1_tol = float(numerics.get("w1_tol", 0.05))
    passed = bool(w1 <= w1_tol and lip_ok and re_audit.passed)
    results = {
        "w1": w1,
        "w1_tol": w1_tol,
        "lambda": zmap.lam,
        "sup_u": zmap.sup_u,
        "sup_grad_u": zmap.sup_grad,
        "lipschitz_quotient_direct": quot_direct,
        "lipschitz_quotient_transformed": quot_transformed,
        "lipschitz_quotient_transformed_fine": quot_fine,
        "lipschitz_ok": bool(lip_ok),
        "dissipativity_reaudit": {"passed": re_audit.passed, **re_audit.details},
        "explosion_rate_direct": direct.explosion_rate,
        # the only output here that sees path order (W1 sorts its samples)
        "terminal_sha256": hashlib.sha256(direct.terminal[:, 0].tobytes() + mapped.tobytes()).hexdigest(),
    }
    tables = {
        "zvonkin_u.csv": _csv({"x": zmap.u.x, "value": zmap.u.values}),
        "zvonkin_map.json": _json17(zmap.diagnostics()) + "\n",
    }
    return results, passed, tables


# headroom of the default envelope-ratio cap over the exact ratio, for the
# reference density's departures from scipy's (its tail asymptote past the
# guard); at alpha = 1 and 1.5 the two give the same ratio to 1e-15
RATIO_MARGIN = 0.05


def _exact_envelope_ratio(alpha, t_values, xs):
    """c2/c1 of every correct alpha-stable kernel on the (t, x) window.  The
    ratio to the profile is p_1(u) (1 + u)^(1 + alpha) with u = x t^(-1/alpha)
    (DECISIONS.md, acceptance 6a), read from scipy's levy_stable density."""
    from scipy.stats import levy_stable

    u = np.concatenate([xs * t ** (-1.0 / alpha) for t in t_values])
    ratio = levy_stable.pdf(u, alpha, 0.0) * (1.0 + u) ** (1.0 + alpha)
    return float(ratio.max() / ratio.min())


def _run_heatkernel(p, numerics, seed, threads):
    alpha = p.levy.alpha if p.levy is not None else 1.5
    t_values = [float(t) for t in numerics["t_values"]]
    x_max = float(numerics["x_max"])
    n_x = int(numerics.get("n_x", 26))
    xs = np.linspace(0.0, x_max, n_x)
    family = []
    for t in t_values:
        vals = np.array([density_lab.density_with_tail(alpha, 1, t, x) for x in xs])
        family.append(
            (t, density_lab.DensityEstimate(points=xs, values=vals, bandwidth=0.0, n_samples=0, se=np.zeros_like(xs)))
        )
    if "ratio_tol" in numerics:
        tol = float(numerics["ratio_tol"])
    else:
        tol = (1.0 + RATIO_MARGIN) * _exact_envelope_ratio(alpha, t_values, xs)
    fit = density_lab.check_two_sided(family, alpha, 1, ratio_tolerance=tol)
    results = {"envelope": fit, "ratio": fit.c2 / fit.c1, "ratio_tol": tol}
    passed = fit.violations == 0
    if numerics.get("n_paths"):
        from levylab.density_lab import kde_density
        from levylab.integrator import simulate_ensemble
        from levylab.levy_noise import levy_constant

        cfg = _step_config(numerics)
        n_paths = int(numerics["n_paths"])
        scale = levy_constant(1, alpha)
        mc_family = []
        for t in t_values:
            ens = simulate_ensemble(p, 0.0, t, cfg, n_paths, seed + int(1000 * t), threads=threads)
            est = kde_density(ens.terminal[:, 0], xs)
            mc_family.append((scale * t, est))
        member = density_lab.check_envelope_membership(mc_family, alpha, 1, fit.c1, fit.c2)
        results["mc_membership"] = member
        passed = passed and member["violations"] == 0
    return results, bool(passed), {}


def _run_dirichlet(p, numerics, seed, threads):
    cfg = _step_config(numerics)
    dom = (float(numerics["domain"]["lo"]), float(numerics["domain"]["hi"]))
    ev = numerics["eval"]
    eval_points = np.linspace(float(ev["lo"]), float(ev["hi"]), int(ev["n"]))
    est, survival, positive = density_lab.killed_density(
        p,
        dom,
        float(numerics["t"]),
        float(numerics.get("x0", 0.0)),
        eval_points,
        int(numerics.get("n_paths", 100000)),
        seed,
        cfg,
    )
    results = {
        "survival": survival,
        "positive": positive,
        "values": est.values.tolist(),
        "se": est.se.tolist(),
        "points": est.points.tolist(),
    }
    passed = positive
    if "expect_value" in numerics:
        mid = est.values[len(est.values) // 2]
        rtol = float(numerics.get("expect_rtol", 0.05))
        passed = passed and abs(mid - float(numerics["expect_value"])) <= rtol * float(numerics["expect_value"])
        results["expect_check"] = {"value": float(mid), "target": float(numerics["expect_value"]), "rtol": rtol}
    return results, bool(passed), {"killed_density.csv": _csv({"x": est.points, "value": est.values, "se": est.se})}


def _run_verify_krylov(p, numerics, seed, threads):
    cfg = _step_config(numerics)
    spec = inequality_lab.MixedNormSpec(float(numerics.get("p", 2.0)), float(numerics.get("q", 2.0)))
    deltas = [float(d) for d in numerics.get("deltas", (0.1, 0.2, 0.5))]
    amps = [float(a) for a in numerics.get("amps", (1.0, 30.0, 1000.0))]
    family = [
        ((lambda x, d=d, a=a: a * (np.abs(x) <= d).astype(float)), a * (2.0 * d) ** (1.0 / spec.p))
        for d in deltas
        for a in amps
    ]
    rep = inequality_lab.krylov_ratio(
        p, family, spec, float(numerics.get("horizon", 1.0)), int(numerics.get("n_paths", 100000)), seed, cfg
    )
    spread_tol = float(numerics.get("spread_tol", 3.0))
    results = dict(rep)
    results["spread_tol"] = spread_tol
    return results, bool(rep["spread"] <= spread_tol), {}


def _run_verify_khasminskii(p, numerics, seed, threads):
    cfg = _step_config(numerics)
    spec = inequality_lab.MixedNormSpec(float(numerics.get("p", 2.0)), float(numerics.get("q", 2.0)))
    delta = float(numerics.get("delta", 0.1))
    f = pide_zvonkin.GridFunction.from_callable(
        lambda x: (np.abs(x) <= delta).astype(float), -3.0, 3.0, 2401, extension="constant"
    )
    c0 = numerics.get("c0")
    if c0 is None:
        fam = [((lambda x: (np.abs(x) <= delta).astype(float)), (2.0 * delta) ** (1.0 / spec.p))]
        kr = inequality_lab.krylov_ratio(
            p, fam, spec, float(numerics.get("horizon", 1.0)), 20000, seed + 1, cfg
        )
        c0 = kr["sup_ratio"]
    rep = inequality_lab.khasminskii_bound(
        p,
        f,
        float(numerics["lambda"]),
        float(numerics.get("horizon", 1.0)),
        int(numerics.get("n_paths", 50000)),
        seed,
        cfg,
        c0=float(c0),
        spec=spec,
    )
    rep["c0"] = float(c0)
    return rep, bool(rep["verdict"]), {}


def _run_verify_gronwall(p, numerics, seed, threads):
    pq = (float(numerics["p"]), float(numerics["q"]))
    n_paths = int(numerics.get("n_paths", 10000))
    horizon = float(numerics.get("horizon", 1.0))
    n_scen = int(numerics.get("n_scenarios", 0))
    if n_scen:
        rng = np.random.default_rng(seed)
        failures = 0
        worst = None
        for i in range(n_scen):
            sc = inequality_lab.random_gronwall_scenario(rng)
            # scenario i's paths get their own stream, keyed as _run_simulate keys paths
            paths_seed = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            res = inequality_lab.stochastic_gronwall_check(sc, pq[0], pq[1], horizon, n_paths, paths_seed)
            if not res["passed"]:
                failures += 1
            if worst is None or res["slack"] < worst["slack"]:
                worst = res
        results = {"n_scenarios": n_scen, "failures": failures, "worst": worst}
        return results, failures == 0, {}
    sc = inequality_lab.GronwallScenario(
        xi0=float(numerics.get("xi0", 1.0)),
        eta=float(numerics.get("eta", 0.0)),
        a_slope=float(numerics.get("a_slope", 0.0)),
        kind=numerics.get("kind", "none"),
        rate=float(numerics.get("rate", 0.0)),
        jump_scale=float(numerics.get("jump_scale", 0.0)),
    )
    res = inequality_lab.stochastic_gronwall_check(sc, pq[0], pq[1], horizon, n_paths, seed)
    results = {
        "lhs": res["lhs"],
        "cap": res["rhs"],
        "verdict": "pass" if res["passed"] else "fail",
        "slack": res["slack"],
    }
    return results, res["passed"], {}


def _run_lyapunov(p, numerics, seed, threads):
    rmax = float(numerics["radial_max"])
    rn = int(numerics.get("radial_n", 26))
    grid = np.linspace(0.0, rmax, rn)
    c1 = numerics.get("c1")
    c2 = numerics.get("c2")
    if c1 is None or c2 is None:
        c1, c2 = ergodicity.fit_lyapunov_constants(p, np.linspace(rmax / 50.0, rmax, rn))
    rep = ergodicity.lyapunov_margin(p, grid, float(c1), float(c2))
    results = {
        "c1": rep["c1"],
        "c2": rep["c2"],
        "max_margin": float(np.max(rep["margins"])),
        "passed": rep["passed"],
    }
    table = _csv({"x": rep["x"], "generator": rep["generator"], "margin": rep["margins"]})
    return results, rep["passed"], {"lyapunov_margin.csv": table}


def _run_audit(p, numerics, seed, threads):
    g = numerics.get("grid", {"lo": -5.0, "hi": 5.0, "n": 201})
    grid = default_audit_grid(float(g["lo"]), float(g["hi"]), n=int(g["n"]), seed=seed)
    results = {}
    passed = True
    if p.sigma is not None and p.c0 is not None:
        rep = audit_ellipticity(p, grid)
        results["ellipticity"] = {"passed": rep.passed, "worst_ratio": rep.worst_ratio, "witness": rep.witness}
        passed = passed and rep.passed
    if p.jump is not None and p.c1 is not None:
        zp = [(-1.0, 1.0), (0.3, -0.2), (0.5, 0.9), (0.0, 0.7)]
        rep = audit_jump_coeff(p, grid, zp)
        results["jump_coeff"] = {"passed": rep.passed, "worst_ratio": rep.worst_ratio, "witness": rep.witness}
        passed = passed and rep.passed
    if p.kappa1 is not None:
        rep = audit_dissipativity(p, np.linspace(0.0, float(g["hi"]), 41))
        results["dissipativity"] = {"passed": rep.passed, **rep.details}
        passed = passed and rep.passed
    if not results:
        raise ParameterError("nothing to audit: declare hypothesis constants on the problem")
    return results, passed, {}


_RUNNERS = {
    "simulate": _run_simulate,
    "invariant": _run_invariant,
    "tv_decay": _run_tv_decay,
    "zvonkin_crossval": _run_zvonkin_crossval,
    "heatkernel": _run_heatkernel,
    "dirichlet": _run_dirichlet,
    "verify_krylov": _run_verify_krylov,
    "verify_khasminskii": _run_verify_khasminskii,
    "verify_gronwall": _run_verify_gronwall,
    "lyapunov": _run_lyapunov,
    "audit": _run_audit,
}


def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def run(config_path, threads=None, seed_override=None, experiment_override=None):
    """Execute one experiment config; returns the process exit status."""
    config = load_config(config_path)
    if seed_override is not None:
        config["seed"] = int(seed_override)
    if experiment_override is not None:
        # `levylab audit <config>` audits the config's problem whatever its
        # experiment; numerics irrelevant to the override are dropped
        config["experiment"] = experiment_override
        spec = EXPERIMENTS[experiment_override]
        allowed = _COMMON_NUMERICS | spec["required"] | spec["optional"]
        config["numerics"] = {
            k: v for k, v in config.get("numerics", {}).items() if k in allowed
        }
        validate_config(config)
    out_dir = os.environ.get("LEVYLAB_OUTPUT", config["output_dir"])
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.time()
    p = build_problem(config)
    numerics = config.get("numerics", {})
    seed = int(config["seed"])
    runner = _RUNNERS[config["experiment"]]
    results, passed, tables = runner(p, numerics, seed, threads)
    checks = numerics.get("checks")
    if checks:
        outcomes, checks_ok = apply_checks(results, checks)
        results["checks"] = outcomes
        passed = passed and checks_ok
    results["verdict"] = "pass" if passed else "fail"
    results["experiment"] = config["experiment"]
    results["seed"] = seed

    write_json(os.path.join(out_dir, "results.json"), results)
    for name, text in tables.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    manifest = {
        "config": config,
        "git_describe": _git_describe(),
        "seed": seed,
        "wall_time_s": time.time() - t0,
        "version": _VERSION,
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return 0 if passed else 2


def main(argv=None):
    parser = argparse.ArgumentParser(prog="levylab", description="jump-SDE experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=None, help="cap worker threads")
    p_run.add_argument("--seed-override", type=int, default=None)
    sub.add_parser("presets", help="list built-in problem presets")
    p_audit = sub.add_parser("audit", help="run the hypothesis audits for a config's problem")
    p_audit.add_argument("config")
    p_audit.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in PRESET_NAMES:
            print(name)
        return 0
    try:
        if args.command == "run":
            return run(args.config, threads=args.threads, seed_override=args.seed_override)
        return run(args.config, threads=args.threads, experiment_override="audit")
    except SchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except LevyLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
