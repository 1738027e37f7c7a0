"""Invariant-measure, Lyapunov-margin, and decay-rate tests."""

import json

import numpy as np
import pytest
from scipy import stats
from scipy.stats import norm

from levylab.cli import _json17
from levylab.errors import DivergenceError, ParameterError, SignalTooWeakError
from levylab.ergodicity import (
    EmpiricalMeasure,
    _matched_counts,
    _tv_of_counts,
    binned_tv,
    estimate_invariant,
    fit_lyapunov_constants,
    lyapunov_margin,
    strong_feller_modulus,
    tv_decay_rate,
    tv_noise_floor,
    wasserstein1,
)
from levylab.integrator import StepConfig, simulate_ensemble
from levylab.sde_model import preset, problem_1d

OU = problem_1d(
    sigma=lambda x: np.sqrt(2.0) * np.ones_like(x),
    drift=lambda x: -x,
    kappa1=2.0,
    kappa2=2.0,
    kappa3=1.0,
    r=0.0,
)
CFG = StepConfig(dt=1e-2)


class TestInvariant:
    def test_ou_stationary_variance(self):
        em = estimate_invariant(OU, 8.0, 100_000, 40, CFG, seed=11, n_chains=100)
        assert em.variance == pytest.approx(1.0, rel=0.03)
        assert abs(em.masses.sum() - 1.0) < 1e-12

    def test_symmetric_problem_has_zero_mean(self):
        em = estimate_invariant(OU, 8.0, 50_000, 40, CFG, seed=13, n_chains=100)
        se = 1.0 / np.sqrt(50_000 / 15.0)  # crude autocorrelation allowance
        assert abs(em.mean) < 3 * se

    def test_burn_in_doubling_invariance_ks(self):
        # KS needs independent states: two per chain at lag 4 (correlation
        # e^-4 = 0.018), the first 0.4 after the burn-in, so that a burn-in
        # too short to forget x0 = 3 shows (burn-ins 0.5 and 1 give p ~ 1e-11)
        def states(burn_in, seed):
            em = estimate_invariant(OU, burn_in, 11_000, 40, CFG, seed=seed, n_chains=1000, x0=3.0, keep_samples=True)
            return em.samples.reshape(1000, 11)[:, ::10].ravel()

        assert stats.ks_2samp(states(5.0, 17), states(10.0, 19)).pvalue > 0.01

    def test_samples_are_the_ensemble_snapshots_chain_by_chain(self):
        # 7 chains of 15 states (105 > 100 samples): the chains are one seeded
        # ensemble read every thinning steps after the burn-in
        p, cfg = preset("mixing_jump"), StepConfig(dt=1e-2)
        em = estimate_invariant(p, 0.5, 100, 4, cfg, seed=41, n_chains=7, x0=0.3, keep_samples=True)
        times = 0.5 + 4 * cfg.dt * np.arange(1, 16)
        ens = simulate_ensemble(p, 0.3, times[-1], cfg, 7, 41, snapshot_times=times)
        chains = ens.snapshots[:, :, 0].T
        np.testing.assert_array_equal(em.samples[:90].reshape(6, 15), chains[:6])
        np.testing.assert_array_equal(em.samples[90:], chains[6, :10])

    def test_stationarity_fixed_point(self):
        em = estimate_invariant(OU, 8.0, 30_000, 40, CFG, seed=23, n_chains=60, keep_samples=True)
        rng = np.random.default_rng(29)
        x0s = em.sample(30_000, rng)
        ens = simulate_ensemble(OU, x0s, 1.0, CFG, 30_000, 31)
        assert stats.ks_2samp(em.samples, ens.terminal[:, 0]).pvalue > 0.01

    def test_mixing_jump_mass_is_tight(self):
        # first-jump asymptotics put the stationary tail mass beyond +-20 at
        # 2 E[sigma_bar(X)^alpha] / (alpha 20^alpha) ~ 5e-3; the exact-stepping
        # and truncation routes both land there (frozen value, band 2x)
        p = preset("mixing_jump")
        cfg = StepConfig(dt=1e-2, small_jump_cutoff=1.0 / 8.0, gaussian_correction=True)
        em = estimate_invariant(p, 5.0, 100_000, 20, cfg, seed=37, n_chains=100)
        assert 1e-3 < em.mass_outside(-20.0, 20.0) < 1e-2


class TestLyapunov:
    def test_ou_closed_form_margin(self):
        rep = lyapunov_margin(OU, np.array([0.0, 1.0, 3.0, 10.0]), 0.5, 2.0)
        i0 = np.argmin(np.abs(rep["x"]))
        # pure diffusion term at the origin: a h''(0) = 1
        assert rep["generator"][i0] == pytest.approx(1.0, abs=1e-10)
        assert rep["margins"][i0] == pytest.approx(-0.5, abs=1e-10)
        assert rep["passed"]

    def test_g_zero_matches_analytic_generator(self):
        xs = np.linspace(0.0, 6.0, 13)
        rep = lyapunov_margin(OU, xs, 0.5, 2.0)
        x = rep["x"]
        h = np.hypot(1.0, x)
        analytic = (1.0 + x**2) ** -1.5 + (-x) * (x / h)
        assert np.max(np.abs(rep["generator"] - analytic)) < 1e-8

    def test_degenerate_problem_fails_far_out(self):
        p = problem_1d(r=0.0)
        rep = lyapunov_margin(p, np.array([0.0, 1.0, 50.0]), 1.0, 2.0)
        assert not rep["passed"]
        assert rep["margins"][np.argmax(np.abs(rep["x"]))] > 0

    def test_mixing_jump_fitted_margin(self):
        p = preset("mixing_jump")
        c1, c2 = fit_lyapunov_constants(p, np.linspace(1.0, 50.0, 20))
        rep = lyapunov_margin(p, np.linspace(0.0, 50.0, 26), c1, c2)
        assert rep["passed"]

    def test_jump_part_bounded_by_gamma_moments(self):
        # the generator's jump part obeys (Gamma^{0,2}_{0,R} + Gamma^{0,1}_{R,inf})/2
        from levylab.ergodicity import _lyapunov_generator_1d
        from levylab.sde_model import gamma_moment

        p = preset("mixing_jump")
        p_nojump = problem_1d(sigma=lambda x: np.ones_like(x), drift=lambda x: -x)
        for x in (0.5, 2.0, 7.0):
            jump_part = _lyapunov_generator_1d(p, x) - _lyapunov_generator_1d(p_nojump, x)
            bound = 0.5 * (
                gamma_moment(p, x, 0, 2.0, 0.0, 1.0) + gamma_moment(p, x, 0, 1.0, 1.0, np.inf)
            )
            assert jump_part <= bound + 1e-9


    def test_divergent_large_jump_integral_is_refused(self):
        # |g| ~ |z|^2 against the 1.5-stable tail: Gamma^{0,1}_{R,inf}(g) is infinite
        p = problem_1d(g=lambda x, z: z * np.abs(z) + 0 * x, levy=preset("mixing_jump").levy)
        with pytest.raises(DivergenceError, match="Gamma"):
            lyapunov_margin(p, np.array([0.0, 1.0]), 0.5, 2.0)


class TestTvDecay:
    def test_gaussian_oracle_fit_from_exact_curve(self):
        # the closed-form TV curve itself fits to gamma ~ 1 over [1, 5]
        ts = np.arange(1.0, 5.1, 1.0)
        tv = 2 * norm.cdf(8.0 * np.exp(-ts) / 2.0) - 1
        slope = np.polyfit(ts, np.log(tv), 1)[0]
        assert -slope == pytest.approx(1.0, abs=0.15)

    def test_equal_starts_give_sentinel(self):
        rep = tv_decay_rate(OU, 1.0, 1.0, [1, 2, 3, 4], 1000, 5, CFG)
        assert rep.gamma == np.inf

    def test_signal_too_weak_error(self):
        with pytest.raises(SignalTooWeakError):
            tv_decay_rate(OU, 0.001, -0.001, [3, 4, 5, 6], 2000, 5, CFG)

    def test_noise_floor_is_the_99_percent_null_quantile(self):
        # 6000 same-law pairs over three shapes and two sizes: the proxy clears
        # its floor about 60 times (1%); the old floor 3/sqrt(n), which sits
        # near the null median at n = 2000, is cleared 1873 times
        rng = np.random.default_rng(2101)
        laws = (rng.standard_normal, lambda n: rng.laplace(size=n), rng.standard_exponential)
        cleared = 0
        for draw in laws:
            for n in (200, 2000):
                for _ in range(1000):
                    pa, pb, _ = _matched_counts(draw(n), draw(n))
                    cleared += _tv_of_counts(pa, pb) >= tv_noise_floor(pa, pb)
        assert 30 <= cleared <= 90

    def test_rate_needs_two_times_above_the_floor(self):
        # +-0.05 stands out at t = 0.05 only: one point fits no line
        with pytest.raises(SignalTooWeakError, match="two times"):
            tv_decay_rate(OU, 0.05, -0.05, [0.05, 3.0, 4.0, 5.0], 20_000, 3, CFG)

    def test_relabel_invariance_exact(self):
        a = tv_decay_rate(OU, 2.0, -2.0, [1.0, 1.5, 2.0, 2.5], 20_000, 7, CFG)
        b = tv_decay_rate(OU, -2.0, 2.0, [1.0, 1.5, 2.0, 2.5], 20_000, 7, CFG)
        assert a.gamma == b.gamma

    def test_needs_four_times(self):
        with pytest.raises(ParameterError):
            tv_decay_rate(OU, 1.0, -1.0, [1, 2, 3], 100, 5, CFG)

    def test_superlinear_drift_decays_no_slower(self):
        cubic = problem_1d(
            sigma=lambda x: np.sqrt(2.0) * np.ones_like(x), drift=lambda x: -x * np.abs(x), r=1.0
        )
        ts = [0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
        fast = tv_decay_rate(cubic, 4.0, -4.0, ts, 100_000, 7, CFG)
        slow = tv_decay_rate(OU, 4.0, -4.0, ts, 100_000, 7, CFG)
        assert fast.V_class == "uniform" and slow.V_class == "V_linear"
        assert fast.gamma >= slow.gamma

    def test_report_serializes(self):
        rep = tv_decay_rate(OU, 2.0, -2.0, [1.0, 1.5, 2.0, 2.5], 20_000, 7, CFG)
        d = json.loads(_json17(rep))
        assert set(d) == {"gamma", "r_squared", "V_class", "margins"}


class TestStrongFeller:
    def test_gaussian_oracle(self):
        pb = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))
        sf = strong_feller_modulus(pb, 1.0, 0.0, 0.1, 400_000, 17, CFG)
        exact = 2 * norm.cdf(0.1 / (2 * np.sqrt(2))) - 1
        assert abs(sf["modulus"] - exact) < 3 * sf["se"] + 0.1 * exact

    def test_identical_starts(self):
        assert strong_feller_modulus(OU, 1.0, 0.5, 0.5, 1000, 3, CFG)["modulus"] == 0.0


def test_wasserstein_and_binned_tv_basics():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(20_000)
    assert wasserstein1(a, a + 0.5) == pytest.approx(0.5, abs=1e-12)
    tv, _ = binned_tv(a, a)
    assert tv == 0.0


def test_empirical_measure_validation():
    with pytest.raises(ParameterError):
        EmpiricalMeasure(edges=np.array([0.0, 1.0, 0.5]), masses=np.array([0.5, 0.5]), count=2, bandwidth=1.0)
    with pytest.raises(ParameterError):
        EmpiricalMeasure(edges=np.array([0.0, 1.0, 2.0]), masses=np.array([0.5, 0.4]), count=2, bandwidth=1.0)
