"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Oracles are computed inside the tests (quadrature/closed forms), never taken
on faith; tolerances are pinned here.  Criterion 6a departs from its
statement: over the stated window the exact alpha = 1.5 stable density has
envelope ratio c2/c1 = 4.72, so the stated factor-3 cap is unattainable by
any correct kernel.  The test asserts the cap on the alpha = 1 family, where
it holds, and at alpha = 1.5 checks c1 in closed form and c2/c1 against
scipy.stats.levy_stable; see DECISIONS.md.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import levy_stable, norm

from levylab.density_lab import (
    DensityEstimate,
    chapman_kolmogorov_residual,
    check_envelope_membership,
    check_two_sided,
    density_with_tail,
    kde_density,
    killed_density,
    reference_mass,
)
from levylab.ergodicity import estimate_invariant, strong_feller_modulus, tv_decay_rate
from levylab.inequality_lab import (
    GronwallScenario,
    MixedNormSpec,
    khasminskii_bound,
    krylov_ratio,
    random_gronwall_scenario,
    stochastic_gronwall_check,
)
from levylab.integrator import (
    CHUNK_SIZE,
    StepConfig,
    simulate_ensemble,
    simulate_interlaced,
    simulate_small_jump_path,
)
from levylab.levy_noise import LevyModel, levy_constant, sample_large_jumps, stable_increment_batch
from levylab.pide_zvonkin import (
    apply_nonlocal,
    build_zvonkin,
    grid_lipschitz_quotient,
    solve_backward_pide,
    solve_elliptic,
)
from levylab.sde_model import audit_dissipativity, preset, problem_1d

M15 = LevyModel(kind="isotropic_stable", alpha=1.5, dim=1, big_jump_radius=1.0)
BM2 = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))
OU = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x), drift=lambda x: -x, r=0.0)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def test_criterion_01_stable_noise_fidelity():
    t0 = time.time()
    ok = True
    details = []
    # empirical characteristic function at 5 probes, d in {1, 2}
    for d in (1, 2):
        model = LevyModel(alpha=1.5, dim=d, big_jump_radius=1.0)
        rng = np.random.default_rng(101 + d)
        x = stable_increment_batch(model, 1.0, 1_000_000, rng)
        for xi_mag in (0.25, 0.5, 1.0, 1.5, 2.0):
            xi = np.zeros(d)
            xi[0] = xi_mag
            vals = np.cos(x @ xi)
            est, se = np.mean(vals), np.std(vals) / np.sqrt(len(vals))
            target = np.exp(-(xi_mag**1.5))
            ok &= abs(est - target) <= 4 * se
            details.append(f"d{d} xi{xi_mag}: {est - target:+.1e}({se:.0e})")
    # Cauchy KDE at 0 within 2%
    mc = LevyModel(alpha=1.0, dim=1, big_jump_radius=1.0)
    x = stable_increment_batch(mc, 1.0, 1_000_000, np.random.default_rng(7))[:, 0]
    dens = kde_density(x, np.array([0.0])).values[0]
    ok &= abs(dens - 1 / np.pi) <= 0.02 / np.pi
    wall = time.time() - t0
    ok &= wall < 60.0
    assert report(
        1, ok, f"ECF within 4 SE at 10 probes; Cauchy KDE {dens:.5f} vs {1/np.pi:.5f}; {wall:.0f}s < 60s"
    )


def test_criterion_02_interlacing_correctness():
    # large-jump count rate = nu(B_1^c) = 4/3 within 3 SE over 1e4 horizons
    rng = np.random.default_rng(202)
    horizon = 10.0
    counts = np.array([len(sample_large_jumps(M15, horizon, rng)) for _ in range(10_000)])
    rate = counts.mean() / horizon
    se = counts.std() / np.sqrt(len(counts)) / horizon
    ok = abs(rate - 4.0 / 3.0) <= 3 * se

    # conditioned-no-jump paths bitwise equal the small-jump simulator
    p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15)
    cfg = StepConfig(dt=1e-2)
    matched = 0
    for seed in range(80):
        s = simulate_interlaced(p, 0.0, 1.0, cfg, seed)
        if s.events:
            continue
        ref = simulate_small_jump_path(p, 0.0, 0.0, 1.0, cfg, seed)
        if np.array_equal(s.states, ref.states) and np.array_equal(s.times, ref.times):
            matched += 1
        else:
            matched = -(10**9)
        if matched >= 5:
            break
    ok &= matched >= 5
    assert report(2, ok, f"rate {rate:.4f} vs 1.3333 (3SE {3*se:.4f}); {max(matched,0)} no-jump paths bitwise equal")


def test_criterion_03_ou_ergodicity_oracle():
    t0 = time.time()
    em = estimate_invariant(
        OU, burn_in=10.0, n_samples=1_000_000, thinning=50, cfg=StepConfig(dt=1e-2), seed=303, n_chains=200
    )
    ok = abs(em.variance - 1.0) <= 0.02

    rep = tv_decay_rate(
        OU, 4.0, -4.0, [1.5, 2.0, 2.5, 3.0, 3.5, 4.0], 1_000_000, 307, StepConfig(dt=1e-2)
    )
    ok &= abs(rep.gamma - 1.0) <= 0.15 and rep.r_squared >= 0.95
    wall = time.time() - t0
    ok &= wall < 300.0
    assert report(
        3,
        ok,
        f"variance {em.variance:.4f} (tol 2%); gamma {rep.gamma:.3f} (tol 0.15), R^2 {rep.r_squared:.4f}; {wall:.0f}s < 300s",
    )


def test_criterion_04_pide_solver():
    # manufactured solution, measured spatial order >= 1.8
    T = 1.0
    errs = {}
    for n in (101, 201, 401):
        h = 2 * np.pi / (n - 1)
        sol = solve_backward_pide(
            BM2,
            lambda t, xs: -2.0 * np.exp(-(T - t)) * np.sin(xs),
            2.0,
            T,
            (-np.pi, np.pi, n),
            dt=0.2 * h**2,
            terminal=lambda xs: np.sin(xs),
        )
        errs[n] = np.max(np.abs(sol.values[0] - np.exp(-T) * np.sin(sol.grid.x)))
    order = min(np.log2(errs[101] / errs[201]), np.log2(errs[201] / errs[401]))
    ok = order >= 1.8

    s = solve_elliptic(BM2, 1.0, 1.0, (-20, 20, 801))
    interior = s.u.values[np.abs(s.u.x) <= 5]
    ok &= np.max(np.abs(interior + 1.0)) <= 1e-3

    from levylab.pide_zvonkin import GridFunction

    u = GridFunction.from_callable(lambda x: x**2, -10, 10, 401)
    p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15)
    nl = apply_nonlocal(u, p, 0.5)
    ok &= abs(nl - 4.0) <= 1e-4
    assert report(
        4, ok, f"spatial order {order:.2f} >= 1.8; elliptic interior {np.max(np.abs(interior+1)):.1e} <= 1e-3; nonlocal {nl:.6f} vs 4"
    )


def test_criterion_05_zvonkin_cross_validation():
    from levylab.ergodicity import wasserstein1

    p = preset("ou_singular")
    zmap, q = build_zvonkin(p, grid=(-10.0, 10.0, 4001))
    cfg = StepConfig(dt=1e-3)
    n = 100_000
    x0 = 0.5
    sx, sy = np.random.SeedSequence(505).generate_state(2)
    direct = simulate_ensemble(p, x0, 1.0, cfg, n, int(sx))
    y0 = float(zmap.phi(np.array([x0]))[0])
    transformed = simulate_ensemble(q, y0, 1.0, cfg, n, int(sy))
    mapped = zmap.phi_inverse(transformed.terminal[:, 0])
    w1 = wasserstein1(direct.terminal[:, 0], mapped)
    ok = w1 <= 0.05

    # grid-Lipschitz audit: the transformed drift's difference quotients stay
    # bounded under refinement while the raw singular drift's diverge
    qt_c = grid_lipschitz_quotient(lambda y: q.b2(0.0, y), -8, 8, 2001)
    qt_f = grid_lipschitz_quotient(lambda y: q.b2(0.0, y), -8, 8, 4001)
    qd_c = grid_lipschitz_quotient(lambda x: p.b(0.0, x), -8, 8, 2001)
    qd_f = grid_lipschitz_quotient(lambda x: p.b(0.0, x), -8, 8, 4001)
    lip_ok = qt_f <= 1.5 * qt_c and qd_f > 1.3 * qd_c
    ok &= lip_ok

    re_audit = audit_dissipativity(q, np.linspace(0.0, 8.0, 33))
    ok &= re_audit.passed
    assert report(
        5,
        ok,
        f"W1 {w1:.4f} <= 0.05 (n=1e5, dt=1e-3); transformed quotient {qt_c:.1f}->{qt_f:.1f} bounded, "
        f"direct {qd_c:.0f}->{qd_f:.0f} divergent; dissipativity re-audit margin {re_audit.details['kappa1_margin']:.3f}",
    )


def _reference_envelope_family(alpha=1.5, density=None):
    """Exact densities over the stated (t, x) window; ``density(t, xs)``
    replaces the package's reference kernel when given."""
    xs = np.linspace(0.0, 5.0, 26)
    family = []
    for t in (0.1, 0.2, 0.4, 0.7, 1.0):
        if density is None:
            vals = np.array([density_with_tail(alpha, 1, t, x) for x in xs])
        else:
            vals = density(t, xs)
        family.append(
            (t, DensityEstimate(points=xs, values=vals, bandwidth=0.0, n_samples=0, se=np.zeros_like(xs)))
        )
    return family


def test_criterion_06a_heat_kernel_envelope_ratio():
    # the envelope ratio depends on x / t^(1/alpha) only and the window spans
    # its whole range, so c1 = Gamma(1 + 1/alpha)/pi and c2/c1 is fixed by
    # alpha: 4.717 at alpha = 1.5, exactly 2 at alpha = 1 (DECISIONS.md)
    fit = check_two_sided(_reference_envelope_family(), 1.5, 1)
    ratio = fit.c2 / fit.c1
    c1_exact = math.gamma(1.0 + 1.0 / 1.5) / math.pi
    indep = check_two_sided(
        _reference_envelope_family(
            density=lambda t, xs: levy_stable.pdf(xs, 1.5, 0.0, scale=t ** (1.0 / 1.5))
        ),
        1.5,
        1,
    )
    indep_ratio = indep.c2 / indep.c1
    ok = fit.c1 > 0
    ok &= abs(fit.c1 - c1_exact) <= 1e-9
    ok &= abs(ratio - indep_ratio) <= 1e-6 * indep_ratio

    cauchy = check_two_sided(_reference_envelope_family(alpha=1.0), 1.0, 1, ratio_tolerance=3.0)
    cauchy_ratio = cauchy.c2 / cauchy.c1
    ok &= cauchy.violations == 0
    assert report(
        "6a",
        ok,
        f"alpha=1.5 envelope c2/c1 = {ratio:.5f} vs levy_stable {indep_ratio:.5f} (1e-6 rel), "
        f"c1 = {fit.c1:.10f} vs Gamma(1+1/alpha)/pi {c1_exact:.10f}; "
        f"alpha=1 c2/c1 = {cauchy_ratio:.6f} <= stated cap 3.0",
    )


def test_criterion_06b_multiplicative_preset_inside_widened_envelope():
    fit = check_two_sided(_reference_envelope_family(), 1.5, 1)
    p = problem_1d(
        g=lambda x, z: (2.0 + np.sin(x)) / 3.0 * z,
        levy=M15,
        sigma_bar=lambda x: (2.0 + np.sin(np.asarray(x, dtype=float))) / 3.0,
    )
    scale = levy_constant(1, 1.5)
    xs = np.linspace(0.0, 5.0, 26)
    family = []
    for t_sym in (0.15, 0.3, 0.6, 1.0):
        t_sim = t_sym / scale
        ens = simulate_ensemble(
            p, 0.0, t_sim, StepConfig(dt=t_sim / 64, exact_stable=True), 200_000, 606 + int(100 * t_sym)
        )
        family.append((t_sym, kde_density(np.abs(ens.terminal[:, 0]), xs)))
    member = check_envelope_membership(family, 1.5, 1, fit.c1, fit.c2)
    ok = member["violations"] == 0 and member["checked"] > 50
    assert report(
        "6b",
        ok,
        f"MC density inside [c1/2, 2c2] envelope: {member['violations']} violations over {member['checked']} points",
    )


def test_criterion_07_chapman_kolmogorov_and_mass():
    ok = True
    resids = []
    for x, y in ((0.0, 0.0), (0.2, -0.4), (1.0, 1.5)):
        res = chapman_kolmogorov_residual(1.5, 1, 0.3, 1.0, x, y)
        resids.append(res["residual"])
        ok &= res["residual"] <= 1e-4
    masses = [reference_mass(1.5, 1, t, n=2001) for t in (0.25, 1.0)]
    ok &= all(0.99 <= m <= 1.0001 for m in masses)
    assert report(
        7, ok, f"C-K residuals {max(resids):.1e} <= 1e-4; kernel mass {min(masses):.4f}..{max(masses):.4f}"
    )


def test_criterion_08_inequality_suite():
    # 1e4 randomized Gronwall scenarios (the generator mixes additive and
    # multiplicative compensated-Poisson martingales)
    rng = np.random.default_rng(808)
    failures = 0
    kinds = set()
    for i in range(10_000):
        sc = random_gronwall_scenario(rng)
        kinds.add(sc.kind)
        res = stochastic_gronwall_check(sc, 2.0 / 3.0, 1.0 / 3.0, 1.0, 1000, 20_000 + i)
        failures += not res["passed"]
    ok = failures == 0 and {"additive_poisson", "multiplicative_poisson"} <= kinds

    # Krylov family spanning 3 orders of magnitude in norm, bounded ratios
    spec = MixedNormSpec(2.0, 2.0)
    family = [
        ((lambda x, d=d, a=a: a * (np.abs(x) <= d).astype(float)), a * (2.0 * d) ** 0.5)
        for d in (0.1, 0.2, 0.5)
        for a in (1.0, 30.0, 1000.0)
    ]
    kr = krylov_ratio(BM2, family, spec, 1.0, 100_000, 812, StepConfig(dt=1e-3))
    norm_span = max(kr["norms"]) / min(kr["norms"])
    ok &= norm_span >= 1e3 and kr["spread"] <= 3.0

    # the delta = 0.1 occupation oracle from the stated quadrature formula
    # int_0^1 (2 Phi(0.1/sqrt(2s)) - 1) ds = 0.10793 (the spec's 0.1564 does
    # not follow from its own formula; DECISIONS.md)
    oracle, _ = integrate.quad(lambda s: 2 * norm.cdf(0.1 / np.sqrt(2 * s)) - 1, 0, 1, limit=200)
    occ_ok = abs(kr["means"][0] - oracle) <= 3 * kr["mean_ses"][0]
    ok &= occ_ok

    # Khasminskii cap respected in the n=1 regime
    from levylab.pide_zvonkin import GridFunction

    f = GridFunction.from_callable(
        lambda x: (np.abs(x) <= 0.1).astype(float), -3, 3, 2401, extension="constant"
    )
    kh = khasminskii_bound(
        BM2, f, 1.0, 1.0, 50_000, 814, StepConfig(dt=1e-3), c0=kr["sup_ratio"], spec=spec
    )
    ok &= kh["n"] == 1 and kh["cap"] == 2.0 and kh["verdict"] is True
    assert report(
        8,
        ok,
        f"gronwall {failures}/10000 failures; krylov spread {kr['spread']:.2f} <= 3 over {norm_span:.0f}x norms; "
        f"occupation {kr['means'][0]:.5f} vs oracle {oracle:.5f} (3SE {3*kr['mean_ses'][0]:.5f}); "
        f"khasminskii mean {kh['empirical_mean']:.3f} <= cap {kh['cap']}",
    )


def test_criterion_09_dirichlet_positivity():
    # BM (generator d2/2) killed on (-1,1): eigen-expansion oracle at (0.5,0,0)
    p = problem_1d(sigma=lambda x: np.ones_like(x))
    oracle = sum(math.exp(-(n**2) * math.pi**2 * 0.5 / 8.0) for n in (1, 3, 5, 7, 9))
    est, survival, _ = killed_density(
        p, (-1, 1), 0.5, 0.0, np.array([0.0]), 100_000, 909, StepConfig(dt=2e-4)
    )
    ok = abs(est.values[0] - oracle) <= 0.05 * oracle

    # pure-jump killed density strictly positive on (-0.9, 0.9)
    pj = problem_1d(g=lambda x, z: z + 0 * x, levy=M15, sigma_bar=lambda x: np.ones_like(x))
    est2, surv2, positive = killed_density(
        pj,
        (-1, 1),
        0.5,
        0.0,
        np.linspace(-0.9, 0.9, 19),
        100_000,
        911,
        StepConfig(dt=1e-3, exact_stable=True),
    )
    ok &= positive
    assert report(
        9,
        ok,
        f"BM killed density {est.values[0]:.4f} vs {oracle:.4f} (5%); jump killed density positive "
        f"(min value/SE {np.min(est2.values/est2.se):.1f} > 3), survival {surv2:.3f}",
    )


def test_criterion_10_strong_feller_modulus():
    # Gaussian oracle case reproduced within 3 SE
    pb = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))
    sf = strong_feller_modulus(pb, 1.0, 0.0, 0.1, 400_000, 1010, StepConfig(dt=1e-2))
    exact = 2 * norm.cdf(0.1 / (2 * np.sqrt(2))) - 1
    ok = abs(sf["modulus"] - exact) <= 3 * sf["se"]

    # ratio modulus / (|x-y| t^(-1/2)) bounded by one constant across t
    p = preset("ou_singular")
    ratios = []
    for t in (0.25, 1.0, 4.0):
        out = strong_feller_modulus(p, t, 0.25, -0.25, 400_000, 1012, StepConfig(dt=1e-2))
        ratios.append(out["ratio"])
    ok &= max(ratios) <= 1.0
    assert report(
        10,
        ok,
        f"gaussian case {sf['modulus']:.5f} vs {exact:.5f} (3SE {3*sf['se']:.5f}); "
        f"feller ratios {[round(r,3) for r in ratios]} bounded by 1.0",
    )


def test_criterion_11_byte_determinism(tmp_path):
    from levylab.cli import main

    # a runner that forwards --threads, over more paths than one chunk
    cfg = {
        "experiment": "zvonkin_crossval",
        "problem": "ou_singular",
        "numerics": {"dt": 0.01, "horizon": 0.5, "grid": {"lo": -4.0, "hi": 4.0, "n": 201}, "n_paths": CHUNK_SIZE + 3616},
        "seed": 1111,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for threads in ("1", "2", "4"):
        assert main(["run", str(path), "--threads", threads]) == 0
        blobs.append((tmp_path / "out" / "results.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    assert report(11, ok, f"results.json byte-identical across thread counts (1, 2, 4), {len(blobs[0])} bytes")
