"""The benchmark's workloads: the levylab calls each round makes, and their checks.

A workload builds its problems once per set-up (``build``), draws its inputs
from the seed (``inputs``), computes its reference values apart from the
program (``reference``), and lists the operations of one round together with
the checks on their outputs.  Every round repeats the same operations on the
same inputs, so all rounds of a run do identical work and must give
bit-identical outputs.

Statistical checks allow 4 standard errors plus, where two discretisations of
the same law are compared, a stated allowance measured beforehand with many
more paths than one round uses (see README.md).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import oracles

DT = 1e-2
Z = 4.0  # standard errors allowed in every Monte Carlo check

ALPHA, BIG_R = 1.5, 1.0  # the 1.5-stable measure truncated at R = 1, as in the mixing_jump preset


def atan_sq(x):
    return np.arctan(x) ** 2


def abs_atan(x):
    return np.abs(np.arctan(x))


def inside_unit(x):
    return (np.abs(x) < 1.0).astype(float)


# interlaced minus exact_stable on mixing_jump at dt = 1e-2, measured with 6 x 32768
# paths per scheme: E atan^2 X_1 differs by 0.0090 +- 0.0016 and E|atan X_1| by
# 0.0041 +- 0.0012 (the interlaced scheme drops the jumps below R/32)
SCHEME_ALLOWANCE = {"atan_sq": 0.015, "abs_atan": 0.008}
# ou_singular chains at dt = 1e-2 against the exact invariant law, measured with
# 20 x 1024 chains: bias +0.0048 +- 0.0005 (atan^2) and -0.0047 +- 0.0006 (P(|X| < 1))
EULER_ALLOWANCE = {"atan_sq": 0.01, "inside_unit": 0.01}
FUNCTIONALS = {"atan_sq": atan_sq, "abs_atan": abs_atan, "inside_unit": inside_unit}


class Clock:
    """Seconds and base-grid path-steps spent in simulate_ensemble and estimate_invariant."""

    def __init__(self):
        self.seconds = 0.0
        self.steps = {"ensemble": 0, "invariant": 0}

    @contextmanager
    def stepping(self, kind, path_steps):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - start
        self.steps[kind] += path_steps

    def rate(self):
        return sum(self.steps.values()) / self.seconds if self.seconds > 0 else 0.0


def check(name, ok, detail):
    return (name, bool(ok), detail)


def mean_se(values):
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


def agree(name, a, b, allowance):
    """Two independent estimates (mean, se) of one quantity agree within Z SE + allowance."""
    gap = abs(a[0] - b[0])
    bound = Z * math.hypot(a[1], b[1]) + allowance
    return check(name, gap <= bound, f"{a[0]:.5f} vs {b[0]:.5f}: |diff| {gap:.5f} <= {bound:.5f}")


def ensemble(lv, clock, p, x0, horizon, cfg, n_paths, seed):
    steps = n_paths * math.ceil(horizon / cfg.dt - 1e-12)
    with clock.stepping("ensemble", steps):
        ens = lv.integrator.simulate_ensemble(p, x0, horizon, cfg, n_paths, seed)
    return {"x": ens.terminal[:, 0], "exploded": np.isfinite(ens.exploded_at)}


def chains(lv, clock, p, cfg, n_chains, per_chain, seed, burn_in=5.0, thinning=10):
    steps = n_chains * (math.ceil(burn_in / cfg.dt - 1e-12) + per_chain * thinning)
    with clock.stepping("invariant", steps):
        emp = lv.ergodicity.estimate_invariant(
            p, burn_in, n_chains * per_chain, thinning, cfg, seed, n_chains=n_chains, keep_samples=True
        )
    # estimate_invariant lays the samples out chain after chain
    return {"samples": emp.samples.reshape(n_chains, per_chain)}


def finite_paths(name, res):
    ok = np.all(np.isfinite(res["x"])) and not np.any(res["exploded"])
    return check(f"{name}: every path finite, none exploded", ok, f"{int(np.sum(res['exploded']))} exploded")


def symmetric(name, x):
    m, se = mean_se(np.arctan(x))
    return check(f"{name}: E atan X_T = 0 (symmetric law)", abs(m) <= Z * se, f"{m:+.5f}, {Z:g} SE = {Z * se:.5f}")


def chain_stat(samples, f):
    """Mean of f over all samples; SE from the spread of the independent chain means."""
    return mean_se(f(samples).mean(axis=1))


def seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class JumpEnsemble:
    """Wide and short: mixing_jump from x0 = 0 to T = 1, interlaced and exact_stable."""

    name = "jump_ensemble"
    N_PATHS = 32768
    HORIZON = 1.0

    def build(self, lv):
        p = lv.sde_model.preset("mixing_jump")
        return SimpleNamespace(
            problems=[p],
            p=p,
            interlaced=lv.integrator.StepConfig(dt=DT),
            exact=lv.integrator.StepConfig(dt=DT, exact_stable=True),
        )

    def inputs(self, seed):
        s = seeds(seed, 2)
        return {"seed_interlaced": s[0], "seed_exact": s[1]}

    def reference(self):
        return {}

    def operations(self, lv, st, inp, clock, adopt):
        def run(cfg, seed):
            return lambda: ensemble(lv, clock, st.p, 0.0, self.HORIZON, cfg, self.N_PATHS, seed)

        return [
            ("interlaced", run(st.interlaced, inp["seed_interlaced"])),
            ("exact_stable", run(st.exact, inp["seed_exact"])),
        ]

    def checks(self, inp, ref):
        def scheme(name):
            return ((name,), lambda out: [finite_paths(name, out[name]), symmetric(name, out[name]["x"])])

        def cross(out):
            a, b = out["interlaced"]["x"], out["exact_stable"]["x"]
            return [
                agree(f"interlaced = exact_stable in law: E {k} X_T", mean_se(FUNCTIONALS[k](a)), mean_se(FUNCTIONALS[k](b)), allow)
                for k, allow in SCHEME_ALLOWANCE.items()
            ]

        return [scheme("interlaced"), scheme("exact_stable"), (("interlaced", "exact_stable"), cross)]


class InvariantChains:
    """Narrow and long: estimate_invariant on ou_singular and on mixing_jump (both schemes)."""

    name = "invariant_chains"
    OU_CHAINS, OU_PER_CHAIN = 1024, 200
    MJ_CHAINS, MJ_PER_CHAIN = 256, 200

    def build(self, lv):
        ou = lv.sde_model.preset("ou_singular")
        mj = lv.sde_model.preset("mixing_jump")
        return SimpleNamespace(
            problems=[ou, mj],
            ou=ou,
            mj=mj,
            euler=lv.integrator.StepConfig(dt=DT),
            exact=lv.integrator.StepConfig(dt=DT, exact_stable=True),
        )

    def inputs(self, seed):
        s = seeds(seed, 3)
        return {"seed_ou": s[0], "seed_interlaced": s[1], "seed_exact": s[2]}

    def reference(self):
        return oracles.ou_singular_invariant({k: FUNCTIONALS[k] for k in EULER_ALLOWANCE})

    def operations(self, lv, st, inp, clock, adopt):
        return [
            ("ou_singular", lambda: chains(lv, clock, st.ou, st.euler, self.OU_CHAINS, self.OU_PER_CHAIN, inp["seed_ou"])),
            (
                "mixing_interlaced",
                lambda: chains(lv, clock, st.mj, st.euler, self.MJ_CHAINS, self.MJ_PER_CHAIN, inp["seed_interlaced"]),
            ),
            (
                "mixing_exact_stable",
                lambda: chains(lv, clock, st.mj, st.exact, self.MJ_CHAINS, self.MJ_PER_CHAIN, inp["seed_exact"]),
            ),
        ]

    def checks(self, inp, ref):
        def finite(name):
            return ((name,), lambda out: [check(f"{name}: samples finite", np.all(np.isfinite(out[name]["samples"])), "")])

        def ou_law(out):
            s = out["ou_singular"]["samples"]
            res = []
            for k, allow in EULER_ALLOWANCE.items():
                m, se = chain_stat(s, FUNCTIONALS[k])
                bound = Z * se + allow
                res.append(
                    check(
                        f"ou_singular chains: E {k} X = exact invariant law",
                        abs(m - ref[k]) <= bound,
                        f"{m:.5f} vs {ref[k]:.5f}: |diff| {abs(m - ref[k]):.5f} <= {bound:.5f}",
                    )
                )
            return res

        def cross(out):
            a, b = out["mixing_interlaced"]["samples"], out["mixing_exact_stable"]["samples"]
            return [
                agree(f"mixing_jump chains: interlaced = exact_stable in law: E {k} X", chain_stat(a, FUNCTIONALS[k]), chain_stat(b, FUNCTIONALS[k]), allow)
                for k, allow in SCHEME_ALLOWANCE.items()
            ]

        return [
            finite("ou_singular"),
            finite("mixing_interlaced"),
            finite("mixing_exact_stable"),
            (("ou_singular",), ou_law),
            (("mixing_interlaced", "mixing_exact_stable"), cross),
        ]


def sigma_bar(x):
    return 0.5 * np.sqrt(np.abs(np.asarray(x, dtype=float)))


def contraction(values, lo, hi):
    """||u||_inf + ||u'||_inf of the piecewise-linear interpolant of the node values."""
    h = (hi - lo) / (len(values) - 1)
    return float(np.max(np.abs(values)) + np.max(np.abs(np.diff(values))) / h)


def map_checks(name, u, lo, hi, odd):
    xs = np.linspace(lo, hi, len(u))
    res = [
        check(f"{name}: u(0.5) > 0 (u solves (lam - L) u = b1)", np.interp(0.5, xs, u) > 0.0, f"u(0.5) = {np.interp(0.5, xs, u):.6g}"),
        check(f"{name}: ||u|| + ||u'|| <= 1/2 from the node values", contraction(u, lo, hi) <= 0.5, f"{contraction(u, lo, hi):.5f}"),
    ]
    if odd:
        asym = float(np.max(np.abs(u + u[::-1])))
        res.append(check(f"{name}: u is odd", asym <= 1e-10, f"max |u(x) + u(-x)| = {asym:.3g}"))
    return res


class ZvonkinPide:
    """Zvonkin's route: (a) ou_singular map and direct-versus-transformed ensembles,
    (b) the map of the paper's main setting, singular drift plus multiplicative
    1.5-stable jumps, and the nonlocal operator on x^2, (c) a non-odd jump
    coefficient whose band compensator is integrated per path and step."""

    name = "zvonkin_pide"
    GRID_A = (-10.0, 10.0, 4001)
    # 101 nodes (8 sweeps, about 2 s) rather than 201 (11 sweeps, about 6 s): shorter
    # rounds give the run's median more rounds on this noisy 2-core machine
    GRID_B = (-10.0, 10.0, 101)
    LAMBDA_B = 160.0  # explicit: the automatic search gives up on the first divergent lambda
    N_PATHS_A, X0_A, HORIZON_A = 8192, 0.5, 1.0
    # the non-odd slice is exact in law at any dt (g does not depend on x), so two
    # steps carry the same check as ten; each step costs two quads per path
    N_PATHS_C, HORIZON_C, DT_C = 128, 0.1, 0.05
    XIS = (0.5, 1.0, 2.0)
    SLOPES_C = (1.25, 0.75)  # g(z) = z + |z|/4 is 1.25 z for z > 0 and 0.75 z for z < 0

    def build(self, lv):
        sm = lv.sde_model
        levy = lv.levy_noise.LevyModel(kind="isotropic_stable", alpha=ALPHA, dim=1, big_jump_radius=BIG_R)
        ou = sm.preset("ou_singular")
        main = sm.SdeProblem(
            dim=1,
            sigma=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
            b1=sm.preset("ou_singular").b1,
            b2=lambda t, x: -np.asarray(x, dtype=float),
            jump=lambda t, x, z: sigma_bar(x) * np.asarray(z, dtype=float),
            sigma_bar=lambda t, x: sigma_bar(x),
            levy=levy,
            name="singular_drift_stable_jumps",
        )
        nonodd = sm.SdeProblem(
            dim=1,
            jump=lambda t, x, z: np.asarray(z, dtype=float) + 0.25 * np.abs(np.asarray(z, dtype=float)),
            levy=levy,
            name="non_odd_jumps",
        )
        return SimpleNamespace(
            problems=[ou, main, nonodd],
            ou=ou,
            main=main,
            nonodd=nonodd,
            cfg=lv.integrator.StepConfig(dt=DT),
            cfg_c=lv.integrator.StepConfig(dt=self.DT_C),
        )

    def inputs(self, seed):
        s = seeds(seed, 4)
        points = np.random.default_rng(s[3]).uniform(-5.0, 5.0, 4)
        return {"seed_direct": s[0], "seed_transformed": s[1], "seed_nonodd": s[2], "points": points}

    def reference(self):
        # the band cutoff eps is StepConfig's documented default R/32
        return {
            "m2": oracles.small_jump_second_moment(ALPHA, BIG_R),
            "phi": oracles.pure_jump_characteristic(self.XIS, self.HORIZON_C, self.SLOPES_C, ALPHA, BIG_R / 32.0, BIG_R),
        }

    def operations(self, lv, st, inp, clock, adopt):
        pz = lv.pide_zvonkin

        def ou_singular():
            zmap, q = pz.build_zvonkin(st.ou, grid=self.GRID_A)
            adopt(q)
            direct = ensemble(lv, clock, st.ou, self.X0_A, self.HORIZON_A, st.cfg, self.N_PATHS_A, inp["seed_direct"])
            y0 = float(zmap.phi(np.array([self.X0_A]))[0])
            transformed = ensemble(lv, clock, q, y0, self.HORIZON_A, st.cfg, self.N_PATHS_A, inp["seed_transformed"])
            mapped = zmap.phi_inverse(transformed["x"])
            w1 = lv.ergodicity.wasserstein1(direct["x"], mapped)
            return {"u": zmap.u.values, "lam": zmap.lam, "x_direct": direct["x"], "x_mapped": mapped, "w1": w1}

        def main_build():
            zmap, _ = pz.build_zvonkin(st.main, lam=self.LAMBDA_B, grid=self.GRID_B)
            return {"u": zmap.u.values}

        def main_nonlocal():
            lo, hi, n = self.GRID_B
            square = pz.GridFunction.from_callable(np.square, lo, hi, n)
            return {"values": np.array([pz.apply_nonlocal(square, st.main, x) for x in inp["points"]])}

        def non_odd():
            return ensemble(lv, clock, st.nonodd, 0.0, self.HORIZON_C, st.cfg_c, self.N_PATHS_C, inp["seed_nonodd"])

        return [
            ("a_ou_singular", ou_singular),
            ("b_main_build", main_build),
            ("b_main_nonlocal", main_nonlocal),
            ("c_non_odd", non_odd),
        ]

    def checks(self, inp, ref):
        def a(out):
            r = out["a_ou_singular"]
            return map_checks("a: ou_singular map", r["u"], *self.GRID_A[:2], odd=False) + [
                check("a: W1(direct, Phi^-1(transformed)) <= 0.05", r["w1"] <= 0.05, f"W1 = {r['w1']:.5f}"),
            ]

        def b(out):
            return map_checks("b: main-setting map", out["b_main_build"]["u"], *self.GRID_B[:2], odd=True)

        def nonlocal_(out):
            exact = ref["m2"] * sigma_bar(inp["points"]) ** 2
            err = float(np.max(np.abs(out["b_main_nonlocal"]["values"] - exact)))
            return [check("b: L(x^2)(x) = sigma_bar(x)^2 int_{|z|<1} z^2 nu(dz)", err <= 1e-8, f"max error {err:.3g}")]

        def c(out):
            x = out["c_non_odd"]["x"]
            worst = 0.0
            for xi, (phi, var_cos, var_sin) in ref["phi"].items():
                se = np.sqrt(np.array([var_cos, var_sin]) / len(x))
                est = np.array([np.mean(np.cos(xi * x)), np.mean(np.sin(xi * x))])
                worst = max(worst, float(np.max(np.abs(est - [phi.real, phi.imag]) / se)))
            return [
                finite_paths("c: non-odd g", out["c_non_odd"]),
                check("c: E exp(i xi X_T) = exact, xi in {0.5, 1, 2}", worst <= Z, f"worst |error| / SE = {worst:.2f} <= {Z:g}"),
            ]

        return [
            (("a_ou_singular",), a),
            (("b_main_build",), b),
            (("b_main_nonlocal",), nonlocal_),
            (("c_non_odd",), c),
        ]


WORKLOADS = {w.name: w for w in (JumpEnsemble, InvariantChains, ZvonkinPide)}
