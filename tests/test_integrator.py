"""Path-engine tests: oracles for moments, splice exactness, determinism."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from levylab import jump_grid
from levylab.cli import _path_csv
from levylab.errors import ParameterError, TruncationError
from levylab.jump_grid import Block
from levylab.levy_noise import JumpTrain, LevyModel, sample_large_jumps, standard_normals, tail_mass
from levylab.integrator import (
    PathSample,
    StepConfig,
    _Engine,
    _SmallJumpBand,
    _Work,
    simulate_ensemble,
    simulate_interlaced,
    simulate_small_jump_path,
)
from levylab.sde_model import SdeProblem, preset, problem_1d

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
    # exact_stable draws into its run's buffers: a buffer shared between the
    # threads' chunks would show here
    for p, cfg in (
        (OU, StepConfig(dt=1e-2)),
        (PURE_JUMP, StepConfig(dt=1e-2)),
        (preset("mixing_jump"), StepConfig(dt=1e-2, exact_stable=True)),
    ):
        a = simulate_ensemble(p, 0.0, 1.0, cfg, 40_000, 99, threads=1)
        b = simulate_ensemble(p, 0.0, 1.0, cfg, 40_000, 99, threads=4)
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
            z = standard_normals(flow, np.empty(n))
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


def test_step_budget_is_refused_before_the_grid_is_built():
    # 10^8 base steps exceed the budget of 10^7; the check runs before the
    # grid is allocated, so the refusal costs no 800 MB array
    for p in (BM, PURE_JUMP):
        with pytest.raises(TruncationError, match="raise dt"):
            simulate_ensemble(p, 0.0, 1.0, StepConfig(dt=1e-8), 4, 1)


def test_gaussian_correction_adds_matched_variance():
    # g = z with sigma_bar = 1 makes both runs exact in law: the plain run is
    # the jumps with |z| >= eps, E cos(xi X_t) = exp(t int_{|z|>=eps} (cos xi z - 1) nu(dz)),
    # and the corrected run adds N(0, t v), v = tail_mass(0, eps, 2), for the
    # factor exp(-t v xi^2 / 2); each run is held to its own law within 4 SE
    from levylab.levy_noise import char_exponent

    p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15, sigma_bar=lambda x: np.ones_like(x))
    t = 0.5
    eps = M15.big_jump_radius / 8.0
    v = tail_mass(M15, 0.0, eps, 2.0)
    xi = 1.0
    plain = np.exp(t * char_exponent(M15, xi, eps))
    for cfg, want in (
        (StepConfig(dt=1e-2, small_jump_cutoff=eps), plain),
        (StepConfig(dt=1e-2, small_jump_cutoff=eps, gaussian_correction=True), plain * np.exp(-t * v * xi**2 / 2.0)),
    ):
        c = np.cos(xi * simulate_ensemble(p, 0.0, t, cfg, 200_000, 17).terminal[:, 0])
        assert abs(np.mean(c) - want) <= 4.0 * np.std(c) / np.sqrt(len(c))


def test_path_csv_format():
    s = simulate_interlaced(PURE_JUMP, 0.0, 1.0, StepConfig(dt=0.25), 5)
    lines = _path_csv(s, 3).strip().split("\n")
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


@pytest.mark.parametrize("declare_sigma_bar", [False, True])
def test_band_jumps_split_at_the_large_jump_time(declare_sigma_bar):
    # one step of length dt, g(x, z) = x z in the band and z beyond R, and
    # large jumps placed by hand.  With S_k the band sum over the k-th stretch
    # between large jumps (variance v_k = length * int_band z^2 nu):
    #   x0 = 1, no jump:                       X = 1 + S_1
    #   x0 = 0, jump +1 at 0.4 dt:             X = 1 + S_2
    #   x0 = 1, jump +1 at 0.4 dt:             X = (2 + S_1)(1 + S_2)
    #   x0 = 0, jumps +1 at 0.3 dt and 0.7 dt: X = (2 + S_2)(1 + S_3)
    # Band jumps after the jump dropped, read at the pre-jump state, or taken
    # in both passes each move a mean or a second moment by many SE.
    # Declaring sigma_bar = x (g = x z throughout) gives the band sum
    # sigma_bar * sum(z), and the large jump then multiplies: group 3 becomes
    # X = 2 (1 + S_1)(1 + S_2), group 4 stays 0.
    dt, n, eps = 0.05, 10_000, M15.big_jump_radius / 32.0
    if declare_sigma_bar:
        p = problem_1d(g=lambda x, z: x * z, levy=M15, sigma_bar=lambda x: x)
    else:
        p = problem_1d(g=lambda x, z: np.where(np.abs(z) < 1.0, x * z, z), levy=M15)
    x0 = np.repeat([1.0, 0.0, 1.0, 0.0], n)
    per_path = [[]] * n + [[0.4]] * n + [[0.4]] * n + [[0.3, 0.7]] * n
    counts = np.array([len(j) for j in per_path])
    times = dt * np.array([t for j in per_path for t in j])
    train = JumpTrain(times, np.ones((len(times), 1)), np.concatenate([[0], np.cumsum(counts)]))
    res = _Engine(p, StepConfig(dt=dt)).run(x0[:, None], 0.0, dt, np.random.default_rng(5), train)
    x = res["X"][:, 0].reshape(4, n)
    k2 = tail_mass(M15, eps, 1.0, 2.0)
    v = lambda frac: frac * dt * k2
    if declare_sigma_bar:
        want = [(1.0, 1.0 + v(1.0)), (0.0, 0.0), (2.0, 4.0 * (1.0 + v(0.4)) * (1.0 + v(0.6))), (0.0, 0.0)]
    else:
        want = [
            (1.0, 1.0 + v(1.0)),
            (1.0, 1.0 + v(0.6)),
            (2.0, (4.0 + v(0.4)) * (1.0 + v(0.6))),
            (2.0, (4.0 + v(0.4)) * (1.0 + v(0.3))),
        ]
    for xs, (m1, m2) in zip(x, want):
        assert abs(xs.mean() - m1) <= 4.0 * xs.std() / np.sqrt(n) + 1e-12
        assert abs(np.mean(xs**2) - m2) <= 4.0 * np.std(xs**2) / np.sqrt(n) + 1e-12


def test_sigma_bar_band_sum_equals_the_g_call():
    # the same draws summed as sigma_bar * sum(z) and as sum(g(x, z)): the
    # same paths up to rounding, on a run that splices in most steps
    p = preset("mixing_jump")
    a = simulate_ensemble(p, 0.5, 1.0, StepConfig(dt=1e-2), 2048, 17)
    b = simulate_ensemble(replace(p, sigma_bar=None), 0.5, 1.0, StepConfig(dt=1e-2), 2048, 17)
    assert a.terminal.tobytes() != b.terminal.tobytes()
    np.testing.assert_allclose(a.terminal, b.terminal, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("exact_stable", [False, True])
def test_inconsistent_sigma_bar_is_refused(exact_stable):
    # sigma_bar stands in for g in the band sum and in exact_stable mode
    p = problem_1d(g=lambda x, z: x * z, levy=M15, sigma_bar=lambda x: 2.0 * x)
    with pytest.raises(ParameterError, match="sigma_bar"):
        simulate_ensemble(p, 1.0, 0.1, StepConfig(dt=1e-2, exact_stable=exact_stable), 4, 1)
    ok = problem_1d(g=lambda x, z: 2.0 * x * z, levy=M15, sigma_bar=lambda x: 2.0 * x)
    simulate_ensemble(ok, 1.0, 0.1, StepConfig(dt=1e-2, exact_stable=exact_stable), 4, 1)


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


@pytest.mark.parametrize("death", ["absorbed", "exploded"])
def test_coefficients_timed_at_step_start_after_a_death(death):
    # one of two paths dies at t = 0.1; the live one still reads the drift at
    # each base step's start, not at the dead path's frozen time
    seen = []

    def drift(t, x):
        seen.append(float(t))
        return x**3

    p = SdeProblem(dim=1, drift=drift, time_homogeneous=False)
    x0, absorb = ([0.0, 0.95], (-1.0, 1.0)) if death == "absorbed" else ([0.0, 1e7], None)
    eng = _Engine(p, StepConfig(dt=0.1), absorb=absorb)
    res = eng.run(np.array(x0)[:, None], 0.0, 1.0, np.random.default_rng(0))
    assert res[f"{death}_at"][1] == pytest.approx(0.1)
    assert np.isnan(res["exploded_at"][0]) and np.isnan(res["absorbed_at"][0])
    np.testing.assert_allclose(seen, 0.1 * np.arange(10), atol=1e-12)


def _lean_cases():
    non_odd_g = problem_1d(g=lambda x, z: x * z + 0.25 * np.abs(z), levy=M15)
    return {
        "ou_singular": (preset("ou_singular"), StepConfig(dt=1e-2)),
        "interlaced": (preset("mixing_jump"), StepConfig(dt=1e-2)),
        "exact_stable": (preset("mixing_jump"), StepConfig(dt=1e-2, exact_stable=True)),
        "non_odd": (non_odd_g, StepConfig(dt=1e-2)),
        "gaussian_correction": (preset("mixing_jump"), StepConfig(dt=1e-2, gaussian_correction=True)),
    }


@pytest.mark.parametrize("case", sorted(_lean_cases()))
def test_lean_substep_matches_the_masked_call(case):
    # the run loop's lean call (scalar step, no mask while every path lives)
    # draws the same stream and gives the same bytes as the masked vector call
    p, cfg = _lean_cases()[case]
    eng = _Engine(p, cfg)
    W, dt = 64, 0.01
    X = np.linspace(-2.0, 2.0, W)[:, None]
    lean_rng, full_rng = np.random.default_rng(11), np.random.default_rng(11)

    def noise(rng):
        # one base step's cells, drawn by the run loop before its passes
        block = Block(np.array([0.3, 0.3 + dt]), np.array([dt]), W, dt, False)
        return eng.noise_of(eng.draw(block, rng, _Work()), 0, W)

    lean = eng.substep(X, 0.3, dt, None, noise(lean_rng))
    full = eng.substep(X, 0.3, np.full(W, dt), np.ones(W, dtype=bool), noise(full_rng))
    assert np.all(lean != X)
    assert lean.tobytes() == full.tobytes()
    assert lean_rng.bit_generator.state == full_rng.bit_generator.state


def test_mixed_explosion_marks_exactly_the_exploding_paths():
    # paths from 1e7 leave the explosion bound in the first step; the others
    # step on under the alive mask and stay finite
    p = problem_1d(sigma=lambda x: 0.1 * np.ones_like(x), drift=lambda x: x**3)
    n = 16
    blows = np.arange(n) % 3 == 0
    ens = simulate_ensemble(p, np.where(blows, 1e7, 0.5), 1.0, StepConfig(dt=0.1), n, 4)
    assert np.array_equal(np.isfinite(ens.exploded_at), blows)
    assert ens.exploded_at[blows] == pytest.approx(0.1)
    assert np.all(np.isfinite(ens.terminal[~blows]))
    assert np.all(np.abs(ens.terminal[~blows]) < 10.0)


# a table with no mass in the band [R/32, R): only the hand-built large jumps move X
BIG_ONLY = LevyModel(kind="radial_table", dim=1, big_jump_radius=1.0, radii=[1.0, 3.0], densities=[10.0, 10.0])


def _train(per_path, dt):
    counts = np.array([len(j) for j in per_path])
    times = dt * np.array([t for j in per_path for t in j], dtype=float)
    return JumpTrain(times, np.ones((len(times), 1)), np.concatenate([[0], np.cumsum(counts)]))


def test_each_row_reads_its_own_time_after_a_splice():
    # two paths jump at 0.03 and 0.07 in one base step of 0.1: the pass after
    # the splice reads the drift at each path's own jump time
    seen = []

    def drift(t, x):
        seen.append(np.broadcast_to(np.asarray(t, dtype=float), np.shape(x)).copy())
        return np.zeros_like(x)

    p = SdeProblem(dim=1, drift=drift, jump=lambda t, x, z: z + 0 * x, levy=BIG_ONLY, time_homogeneous=False)
    res = _Engine(p, StepConfig(dt=0.1)).run(np.zeros((2, 1)), 0.0, 0.1, np.random.default_rng(0), _train([[0.3], [0.7]], 0.1))
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0], [0.0, 0.0])
    np.testing.assert_allclose(seen[1], [0.03, 0.07], rtol=0, atol=1e-15)
    np.testing.assert_array_equal(res["X"][:, 0], [1.0, 1.0])


def test_passes_per_block_are_steps_plus_most_jumps():
    # one block of 10 base steps; the paths jump 2, 1, 3 and 0 times, twice in
    # one step for the third path: 10 + 3 passes, each one drift call
    calls = [0]

    def drift(t, x):
        calls[0] += 1
        return np.zeros_like(x)

    p = SdeProblem(dim=1, drift=drift, jump=lambda t, x, z: z + 0 * x, levy=BIG_ONLY)
    per_path = [[0.5, 5.5], [2.5], [2.5, 2.7, 2.9], []]
    res = _Engine(p, StepConfig(dt=0.1)).run(np.zeros((4, 1)), 0.0, 1.0, np.random.default_rng(0), _train(per_path, 0.1))
    assert calls[0] <= 10 + max(len(j) for j in per_path)
    np.testing.assert_array_equal(res["X"][:, 0], [len(j) for j in per_path])


def test_no_jump_run_is_the_per_step_normal_stream():
    # 300 paths make blocks of 54 base steps; drawing a block's normals in one
    # call takes the stream of one (W, 1) draw per step, bit for bit
    W, dt = 300, 0.01
    x0 = np.linspace(-1.0, 1.0, W)[:, None]
    res = _Engine(OU, StepConfig(dt=dt)).run(x0, 0.0, 1.0, np.random.default_rng(8))
    rng = np.random.default_rng(8)
    grid = dt * np.arange(101)
    x = x0.copy()
    for k in range(100):
        h = grid[k + 1] - grid[k]
        z = standard_normals(rng, np.empty((W, 1)))
        upd = np.zeros((W, 1))
        upd += -x * h
        upd += np.sqrt(2.0) * np.ones((W, 1)) * np.sqrt(h) * z
        x = x + upd
    assert res["X"].tobytes() == x.tobytes()


def test_sigma_bar_alone_defines_the_jump_coefficient():
    # g = sigma_bar z from sigma_bar alone: the interlaced scheme (with the
    # Gaussian correction for the jumps below eps) and exact_stable agree in law
    p = problem_1d(levy=M15, sigma_bar=lambda x: np.ones_like(x))
    n = 4096
    a = simulate_ensemble(p, 0.0, 1.0, StepConfig(dt=1e-2, gaussian_correction=True), n, 3).terminal[:, 0]
    b = simulate_ensemble(p, 0.0, 1.0, StepConfig(dt=1e-2, exact_stable=True), n, 4).terminal[:, 0]
    assert np.mean(a != 0.0) > 0.99
    for f in (lambda x: np.arctan(x) ** 2, lambda x: np.abs(np.arctan(x))):
        fa, fb = f(a), f(b)
        se = np.hypot(np.std(fa), np.std(fb)) / np.sqrt(n)
        assert abs(np.mean(fa) - np.mean(fb)) < 4.0 * se


def test_zero_length_runs_return_the_start():
    # t1 == t0 makes no base step: the path is its one starting point
    s = simulate_small_jump_path(PURE_JUMP, 0.4, 1.0, 1.0, StepConfig(dt=0.1), 3)
    np.testing.assert_array_equal(s.times, [1.0])
    np.testing.assert_array_equal(s.states, [[0.4]])
    s = simulate_interlaced(preset("mixing_jump"), 0.4, 0.0, StepConfig(dt=0.1), 3)
    np.testing.assert_array_equal(s.states, [[0.4]])
    ens = simulate_ensemble(preset("mixing_jump"), 0.4, 0.0, StepConfig(dt=0.1), 5, 3, time_integrand=lambda t, x: x)
    np.testing.assert_array_equal(ens.terminal, 0.4)
    np.testing.assert_array_equal(ens.integrals, 0.0)


def test_snapshot_times_map_to_their_nearest_grid_points():
    # times a rounding error off the base points keep the grid uniform and
    # take those points; times between base points join the grid
    dt, rng = 0.01, np.random.default_rng(4)
    k = np.arange(1, 2001)
    for times, rounded in (
        (0.1 * k, True),
        (np.cumsum(np.full(2000, 0.1)), True),
        (np.concatenate([[1e-13], rng.uniform(0.0, 200.0, 3000)]), False),
    ):
        grid, at = _Engine(OU, StepConfig(dt=dt), snapshot_times=times)._grid(0.0, 200.0)
        np.testing.assert_array_equal(at, [np.argmin(np.abs(grid - s)) for s in np.sort(times)])
        if rounded:
            assert len(grid) == 20_001
            np.testing.assert_array_equal(at, 10 * k)
        else:
            assert at[0] == 0
            np.testing.assert_array_equal(grid[at[1:]], np.sort(times)[1:])


def test_snapshot_within_rounding_of_the_start_takes_the_start():
    # a snapshot time within 1e-9 dt of t0 falls on grid point 0
    ens = simulate_ensemble(OU, 0.7, 1.0, StepConfig(dt=0.1), 4, 2, snapshot_times=[1e-12, 0.5])
    np.testing.assert_array_equal(ens.snapshots[0], 0.7)
    assert np.all(ens.snapshots[1] != 0.7)


def test_snapshot_times_beyond_the_horizon_are_refused():
    # one row per snapshot time, so a time no grid point takes is an error;
    # two equal times take the same point and give equal rows
    with pytest.raises(ParameterError):
        simulate_ensemble(OU, 0.7, 1.0, StepConfig(dt=0.1), 4, 2, snapshot_times=[0.5, 1.5])
    ens = simulate_ensemble(OU, 0.7, 1.0, StepConfig(dt=0.1), 4, 2, snapshot_times=[0.5, 0.5])
    np.testing.assert_array_equal(ens.snapshots[0], ens.snapshots[1])


@pytest.mark.parametrize("speed, per_block", [(0.0, None), (1.0, None), (1.0, 5)])
def test_snapshots_inside_a_block_follow_the_lag_rule(monkeypatch, speed, per_block):
    # g = z, no band, no sigma and a drift of `speed`, with dyadic times and
    # marks: the snapshot at t_k is x0 + speed t_k + the marks with tau <= t_k,
    # exactly, only if each row is read after the pass that ends on t_k
    if per_block:
        monkeypatch.setattr(jump_grid, "BLOCK_CELLS", 5 * per_block)
    dt, T = 0.125, 2.0
    taus = [
        [0.25 + 1 / 64, 0.25 + 3 / 64],  # two jumps in one base step
        [0.5 + 1 / 32, 0.625 + 1 / 32, 0.75 + 1 / 32],  # jumps in consecutive steps
        [0.375, 0.625, 1.0],  # jumps on snapshot points, 0.625 a block's end
        [1.875 + 1 / 64, 1.875 + 3 / 64, 1.875 + 5 / 64],  # the last point in catch-up passes
        [0.5 + 1 / 64, 0.875 + 1 / 64, 1.25 + 1 / 64],  # killed at its second jump
    ]
    marks = [[1.0, 2.0, 4.0][: len(t)] for t in taus]
    marks[4][1] = 2.0**41
    death = [T, T, T, T, taus[4][1]]
    train = JumpTrain(
        np.concatenate(taus), np.concatenate(marks)[:, None], np.concatenate([[0], np.cumsum([len(t) for t in taus])])
    )
    p = SdeProblem(dim=1, drift=lambda t, x: speed + 0 * x, jump=lambda t, x, z: z + 0 * x, levy=M15)
    times = dt * np.arange(1, 17)
    x0 = 0.5 * np.arange(5)
    eng = _Engine(p, StepConfig(dt=dt, small_jump_cutoff=1.0), snapshot_times=times)
    res = eng.run(x0[:, None], 0.0, T, np.random.default_rng(0), train)
    want = np.empty((5, len(times)))
    for i in range(5):
        for k, t in enumerate(times):
            t = min(t, death[i])
            want[i, k] = x0[i] + speed * t + sum(m for tau, m in zip(taus[i], marks[i]) if tau <= t)
    np.testing.assert_array_equal(res["snaps"][:, :, 0], want)
    assert np.isfinite(res["exploded_at"]).tolist() == [False] * 4 + [True]


def test_snapshots_are_the_end_states_of_runs_stopped_there():
    # 301 paths make blocks of 54 base steps, and the snapshots every 10 steps
    # fall inside them: each equals, bit for bit, a run's end state at its time
    W, dt = 301, 0.01
    times = (dt * np.arange(201))[10::10]
    x0 = np.linspace(-1.0, 1.0, W)[:, None]
    snaps = _Engine(OU, StepConfig(dt=dt), snapshot_times=times).run(x0, 0.0, times[-1], np.random.default_rng(5))["snaps"]
    for i, t in enumerate(times):
        end = _Engine(OU, StepConfig(dt=dt)).run(x0, 0.0, t, np.random.default_rng(5))["X"]
        assert snaps[:, i].tobytes() == end.tobytes()


def test_snapshots_cut_no_block():
    # 256 paths step in blocks of 64 base steps whatever their snapshot times
    eng = _Engine(preset("mixing_jump"), StepConfig(dt=0.01), snapshot_times=0.1 * np.arange(1, 51))
    sizes, draw = [], eng.draw
    eng.draw = lambda block, rng, work: sizes.append(block.nb) or draw(block, rng, work)
    res = eng.run(np.zeros((256, 1)), 0.0, 5.0, np.random.default_rng(0))
    assert sizes == [64] * 7 + [52]
    assert np.all(np.isfinite(res["snaps"]))


BIG_ONLY_2D = LevyModel(kind="radial_table", dim=2, big_jump_radius=1.0, radii=[1.0, 3.0], densities=[10.0, 10.0])


@pytest.mark.parametrize("dim", [1, 2])
def test_time_integrand_reads_each_row_at_its_own_time(dim):
    # jumps at 0.03 and 0.07 in the first base step of 0.1 and two in the
    # third: the trapezoid of f(t, x) = t is exact on any grid, so every path
    # integrates to T^2 / 2 only if f reads each row at its own interval end;
    # an array t comes shaped as the coefficients get it
    shapes = []

    def f(t, x):
        shapes.append(np.shape(t))
        return t + 0.0 * x

    levy = BIG_ONLY if dim == 1 else BIG_ONLY_2D
    p = SdeProblem(dim=dim, jump=lambda t, x, z: z + 0 * x, levy=levy)
    train = _train([[0.3, 2.2, 2.6], [0.7], [], [2.5]], 0.1)
    if dim == 2:
        train = JumpTrain(train.times, np.ones((len(train), 2)), train.offsets)
    res = _Engine(p, StepConfig(dt=0.1), integrand=f).run(np.zeros((4, dim)), 0.0, 0.5, np.random.default_rng(0), train)
    np.testing.assert_allclose(res["integral"], 0.125, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(res["X"], np.array([3, 1, 0, 1])[:, None] * np.ones(dim))
    arrays = {sh for sh in shapes if sh}
    assert arrays and all(len(sh) == dim for sh in arrays)
    if dim == 2:
        assert all(sh[1] == 1 for sh in arrays)
