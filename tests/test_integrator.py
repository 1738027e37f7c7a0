"""Path-engine tests: oracles for moments, splice exactness, determinism."""

import io

import numpy as np
import pytest
from scipy import integrate

from levylab.levy_noise import LevyModel, sample_large_jumps, tail_mass
from levylab.integrator import (
    PathSample,
    StepConfig,
    _Engine,
    _SmallJumpBand,
    path_to_csv,
    simulate_ensemble,
    simulate_interlaced,
    simulate_small_jump_path,
)
from levylab.sde_model import preset, problem_1d

M15 = LevyModel(alpha=1.5, dim=1, big_jump_radius=1.0)
BM = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))
OU = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x), drift=lambda x: -x)
PURE_JUMP = problem_1d(g=lambda x, z: z + 0 * x, levy=M15)


def test_all_zero_coefficients_give_constant_path():
    s = simulate_small_jump_path(problem_1d(), 1.0, 0.0, 1.0, StepConfig(dt=0.1), 3)
    assert np.all(s.states == 1.0)
    assert s.exploded_at is None


def test_brownian_terminal_variance():
    ens = simulate_ensemble(BM, 0.0, 1.0, StepConfig(dt=1e-2), 100_000, 7)
    var = np.var(ens.terminal[:, 0])
    se = np.sqrt(2.0 / 100_000) * 2.0
    assert abs(var - 2.0) < 3 * se


def test_ou_mean_with_euler_bias_budget():
    dt = 1e-3
    n = 100_000
    ens = simulate_ensemble(OU, 1.0, 1.0, StepConfig(dt=dt), n, 11)
    mean = np.mean(ens.terminal[:, 0])
    se = np.std(ens.terminal[:, 0]) / np.sqrt(n)
    # exact Euler-chain mean is (1-dt)^(1/dt); distance to e^-1 is O(dt)
    assert abs(mean - np.exp(-1)) < 3 * se + 2.0 * dt
    assert ens.explosion_rate == 0.0


def test_linearity_of_the_ou_flow():
    n = 100_000
    e1 = simulate_ensemble(OU, 1.0, 1.0, StepConfig(dt=1e-2), n, 13)
    e2 = simulate_ensemble(OU, 2.0, 1.0, StepConfig(dt=1e-2), n, 13)
    m1, m2 = np.mean(e1.terminal[:, 0]), np.mean(e2.terminal[:, 0])
    se = np.std(e1.terminal[:, 0]) / np.sqrt(n)
    assert abs(m2 - 2 * m1) < 3 * se


def test_interlaced_equals_small_jump_when_no_big_jump_mass():
    tab = LevyModel(
        kind="radial_table", dim=1, big_jump_radius=1.0, radii=[0.1, 0.9], densities=[1.0, 1.0]
    )
    p = problem_1d(g=lambda x, z: z + 0 * x, levy=tab)
    a = simulate_small_jump_path(p, 0.0, 0.0, 1.0, StepConfig(dt=1e-2), 21)
    b = simulate_interlaced(p, 0.0, 1.0, StepConfig(dt=1e-2), 21)
    assert np.array_equal(a.states, b.states) and np.array_equal(a.times, b.times)


def test_conditioned_no_jump_paths_match_bitwise():
    # find seeds whose jump stream drew no events; the flow must then be
    # bit-identical to the small-jump simulator with the same seed
    found = 0
    for seed in range(60):
        s = simulate_interlaced(PURE_JUMP, 0.0, 1.0, StepConfig(dt=1e-2), seed)
        if s.events:
            continue
        found += 1
        ref = simulate_small_jump_path(PURE_JUMP, 0.0, 0.0, 1.0, StepConfig(dt=1e-2), seed)
        assert np.array_equal(s.states, ref.states)
        if found >= 3:
            break
    assert found >= 3


def test_splice_identity_and_jump_counts():
    s = simulate_interlaced(PURE_JUMP, 0.0, 1.0, StepConfig(dt=1e-2), 5)
    dup = np.nonzero(s.isjump)[0]
    assert len(dup) == len(s.events)
    for k, i in enumerate(dup):
        assert s.times[i] == s.times[i - 1] == s.events[k].time
        jump = s.states[i, 0] - s.states[i - 1, 0]
        # g(x, z) = z: the splice adds the mark exactly, and |mark| >= R = 1
        assert jump == s.events[k].mark[0]
        assert abs(jump) >= 1.0


def test_first_jump_functional_oracle():
    # E[(1 ^ tau_1)^(-1/2)] for tau_1 ~ Exp(4/3), capped at the horizon
    lam = 4.0 / 3.0
    oracle = integrate.quad(lambda s: s**-0.5 * lam * np.exp(-lam * s), 0.0, 1.0)[0] + np.exp(-lam)
    rng = np.random.default_rng(2)
    from levylab.levy_noise import sample_large_jumps

    vals = []
    for _ in range(100_000):
        ev = sample_large_jumps(M15, 1.0, rng)
        tau = ev[0].time if ev else 1.0
        vals.append(min(1.0, tau) ** -0.5)
    vals = np.asarray(vals)
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - oracle) < 3 * se


def test_ensemble_path0_matches_interlaced_stream0():
    ens = simulate_ensemble(PURE_JUMP, 0.0, 1.0, StepConfig(dt=1e-2), 1, 123)
    ref = simulate_interlaced(
        PURE_JUMP, 0.0, 1.0, StepConfig(dt=1e-2), np.random.SeedSequence(entropy=123, spawn_key=(0,))
    )
    assert np.array_equal(ens.terminal[0], ref.terminal)


def test_ensemble_bytes_reproducible_across_threads():
    for p in (OU, PURE_JUMP):
        a = simulate_ensemble(p, 0.0, 1.0, StepConfig(dt=1e-2), 40_000, 99, threads=1)
        b = simulate_ensemble(p, 0.0, 1.0, StepConfig(dt=1e-2), 40_000, 99, threads=4)
        assert a.terminal.tobytes() == b.terminal.tobytes()


def test_weak_order_slope_via_coupled_exact_solution():
    # replay the engine's flow stream to couple Euler with the exact OU
    # transition on the same normals; the difference estimator isolates the
    # O(dt) weak bias with tiny variance
    x0 = 1.0
    errors = {}
    for dt in (1e-1, 1e-2, 1e-3):
        n = 10_000
        ens = simulate_ensemble(OU, x0, 1.0, StepConfig(dt=dt), n, 2024)
        ss = np.random.SeedSequence(entropy=2024, spawn_key=(0,))
        flow = np.random.default_rng(ss.spawn(2)[0])
        n_steps = int(np.ceil(1.0 / dt - 1e-12))
        x_ex = np.full(n, x0)
        decay = np.exp(-dt)
        spread = np.sqrt(1.0 - np.exp(-2.0 * dt))
        for _ in range(n_steps):
            z = flow.standard_normal((n, 1))[:, 0]
            x_ex = x_ex * decay + spread * z
        diff = ens.terminal[:, 0] - x_ex
        errors[dt] = abs(np.mean(diff))
        assert np.std(diff) / np.sqrt(n) < 0.2 * max(errors[dt], 1e-5)
    slope = np.polyfit(np.log10(list(errors.keys())), np.log10(list(errors.values())), 1)[0]
    assert slope >= 0.8


def test_moment_bound_constant_stable_across_starts():
    # sup_t E|X_t|^0.9 <= c (|x0| + t + 1) with one c across x0 in {0, 2, 5}
    p = preset("ou_singular")
    times = np.linspace(1.0, 10.0, 10)
    cs = []
    for x0 in (0.0, 2.0, 5.0):
        ens = simulate_ensemble(p, x0, 10.0, StepConfig(dt=1e-2), 20_000, 31, snapshot_times=times)
        m = np.mean(np.abs(ens.snapshots[:, :, 0]) ** 0.9, axis=1)
        cs.append(np.max(m / (abs(x0) + times + 1.0)))
    assert max(cs) <= 1.0
    assert max(cs) / min(cs) <= 2.5


def test_explosion_recorded_not_raised():
    p = problem_1d(drift=lambda x: x**3)
    s = simulate_interlaced(p, 2.0, 2.0, StepConfig(dt=1e-2), 1)
    assert s.exploded_at is not None
    assert np.all(np.isfinite(s.states[s.times < s.exploded_at]))
    ens = simulate_ensemble(p, 2.0, 2.0, StepConfig(dt=1e-2), 64, 1)
    assert ens.explosion_rate == 1.0


def test_gaussian_correction_adds_matched_variance():
    # with common random numbers the plain and corrected runs share their
    # band jumps, so the ratio of empirical characteristic functions isolates
    # the Gaussian factor exp(-t v xi^2 / 2), v = tail_mass(0, eps, 2)
    from levylab.levy_noise import tail_mass

    p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15, sigma_bar=lambda x: np.ones_like(x))
    t = 0.5
    eps = M15.big_jump_radius / 8.0
    v = tail_mass(M15, 0.0, eps, 2.0)
    cfg_plain = StepConfig(dt=1e-2, small_jump_cutoff=eps)
    cfg_gauss = StepConfig(dt=1e-2, small_jump_cutoff=eps, gaussian_correction=True)
    e1 = simulate_ensemble(p, 0.0, t, cfg_plain, 200_000, 17)
    e2 = simulate_ensemble(p, 0.0, t, cfg_gauss, 200_000, 17)
    xi = 1.0
    ratio = np.mean(np.cos(xi * e2.terminal[:, 0])) / np.mean(np.cos(xi * e1.terminal[:, 0]))
    assert ratio == pytest.approx(np.exp(-t * v * xi**2 / 2.0), abs=0.01)


def test_path_csv_format():
    s = simulate_interlaced(PURE_JUMP, 0.0, 1.0, StepConfig(dt=0.25), 5)
    buf = io.StringIO()
    path_to_csv(s, buf, path_id=3)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "path_id,t,x_1,is_jump"
    assert len(lines) == 1 + len(s.times)
    assert sum(int(l.split(",")[-1]) for l in lines[1:]) == len(s.events)


def test_exact_stable_mode_matches_reference_law():
    from levylab.density_lab import kde_density, stable_density_reference
    from levylab.levy_noise import levy_constant

    p = problem_1d(
        g=lambda x, z: z + 0 * x, levy=M15, sigma_bar=lambda x: np.ones_like(x)
    )
    t = 0.25
    ens = simulate_ensemble(p, 0.0, t, StepConfig(dt=t / 8, exact_stable=True), 200_000, 41)
    est = kde_density(ens.terminal[:, 0], np.array([0.0, 0.5, 1.0]))
    t_sym = levy_constant(1, 1.5) * t
    for pt, val, se in zip(est.points, est.values, est.se):
        ref = stable_density_reference(1.5, 1, t_sym, pt)
        assert abs(val - ref) < 3 * se + 0.02 * ref


def non_odd(levy):
    # g(z) = z + |z|/4: 1.25 z for z > 0 and 0.75 z for z < 0, so int g nu = int s f(s)/2 ds
    return problem_1d(g=lambda x, z: z + 0.25 * np.abs(z) + 0 * x, levy=levy)


def test_non_odd_band_compensator_stable_closed_form():
    # eps = R/32 by default: int_{eps<=|z|<R} g nu(dz) = int_eps^R s^(-1.5) ds = sqrt(32) - 1
    band = _SmallJumpBand(non_odd(M15), StepConfig(dt=1e-2))
    assert not band.odd
    comp = band.compensator(0.0, np.array([0.3, -1.0, 4.0]))
    assert comp == pytest.approx(np.full(3, np.sqrt(32.0) - 1.0), rel=1e-12)


def test_non_odd_band_compensator_radial_table_closed_form():
    from test_levy_noise import piecewise_linear_moment

    radii = np.linspace(0.01, 1.5, 60)
    tab = LevyModel(kind="radial_table", dim=1, big_jump_radius=1.0, radii=radii, densities=radii**-2.5)
    band = _SmallJumpBand(non_odd(tab), StepConfig(dt=1e-2))
    exact = 0.5 * piecewise_linear_moment(radii, radii**-2.5, 1.0 / 32.0, 1.0, 1.0)
    assert band.compensator(0.0, np.array([0.0, 2.0])) == pytest.approx(np.full(2, exact), rel=1e-12)


def test_non_odd_jumps_are_centred_by_the_compensator():
    # no table mass beyond R, so X_T is the compensated band sum: mean 0
    radii = np.linspace(0.01, 0.9, 40)
    tab = LevyModel(kind="radial_table", dim=1, big_jump_radius=1.0, radii=radii, densities=radii**-2.5)
    ens = simulate_ensemble(non_odd(tab), 0.0, 0.5, StepConfig(dt=0.05), 20_000, 8)
    x = ens.terminal[:, 0]
    assert abs(np.mean(x)) < 4 * np.std(x) / np.sqrt(len(x))


def test_splice_maps_jumps_to_their_paths_bitwise():
    # g = z, no drift, no diffusion and no table mass in the band: X_T is each
    # path's own marks of the chunk's train, added in time order
    tab = LevyModel(kind="radial_table", dim=1, big_jump_radius=1.0, radii=[1.0, 3.0], densities=[10.0, 10.0])
    p = problem_1d(g=lambda x, z: z + 0 * x, levy=tab)
    n, horizon, dt, seed = 300, 1.0, 0.1, 4
    ens = simulate_ensemble(p, 0.0, horizon, StepConfig(dt=dt), n, seed)
    jrng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)).spawn(2)[1])
    train = sample_large_jumps(tab, n * horizon, jrng)
    owner = np.floor(train.times / horizon).astype(int)
    expected = np.zeros(n)
    for i, mark in zip(owner, train.marks[:, 0]):
        expected[i] += mark
    assert np.array_equal(ens.terminal[:, 0], expected)
    # nu(B_R^c) = 40: many paths jump several times inside one base step
    step = np.floor((train.times - owner * horizon) / dt).astype(int)
    _, per_step = np.unique(owner * 100 + step, return_counts=True)
    assert np.sum(per_step >= 3) >= 50


def test_flat_band_draw_matches_closed_form_variance():
    # one step of the band alone, g = x z from x0 in {1, 2}: the increment is a
    # compound Poisson sum with variance x0^2 dt int_{eps<=|z|<R} z^2 nu(dz) and
    # fourth cumulant x0^4 dt int z^4 nu(dz); a wrong owner would mix the groups
    p = problem_1d(g=lambda x, z: x * z, levy=M15)
    dt, n, eps = 0.05, 40_000, M15.big_jump_radius / 32.0
    x0 = np.repeat([1.0, 2.0], n)[:, None]
    res = _Engine(p, StepConfig(dt=dt)).run(x0, 0.0, dt, np.random.default_rng(3))
    k2, k4 = dt * tail_mass(M15, eps, 1.0, 2.0), dt * tail_mass(M15, eps, 1.0, 4.0)
    for scale, incr in ((1.0, res["X"][:n, 0] - 1.0), (2.0, res["X"][n:, 0] - 2.0)):
        var, se = scale**2 * k2, scale**2 * np.sqrt((k4 + 2.0 * k2**2) / n)
        assert abs(np.mean(incr**2) - var) < 4.0 * se
        assert abs(np.mean(incr)) < 4.0 * np.sqrt(var / n)


def test_jump_coefficient_calls_do_not_grow_with_path_count():
    # the band and the splice each call g once per substep over all their
    # paths; a per-path loop would make the count grow with the path count
    def calls(n_paths):
        p = preset("mixing_jump")
        jump, count = p.jump, [0]

        def counted(t, x, z):
            count[0] += 1
            return jump(t, x, z)

        p.jump = counted
        simulate_ensemble(p, 0.0, 1.0, StepConfig(dt=1e-2), n_paths, 5)
        return count[0]

    assert calls(4096) <= 2 * calls(64)
