"""Occupation, exponential-moment, Gronwall, and maximal-function tests."""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from levylab import inequality_lab
from levylab.errors import ParameterError
from levylab.inequality_lab import (
    GronwallScenario,
    MixedNormSpec,
    khasminskii_bound,
    krylov_ratio,
    maximal_function,
    mixed_norm,
    random_gronwall_scenario,
    simulate_gronwall_paths,
    stochastic_gronwall_check,
)
from levylab.integrator import StepConfig
from levylab.pide_zvonkin import GridFunction
from levylab.sde_model import problem_1d

BM2 = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))
SPEC22 = MixedNormSpec(2.0, 2.0)


class TestMixedNorm:
    def test_hand_value(self):
        xs = np.linspace(-1, 1, 2001)
        ts = np.array([0.0, 2.0])
        # f = 1 on [-1,1]: ||f||_{L^2_2} = (T * 2)^(1/2)
        val = mixed_norm(np.ones_like(xs), xs, ts, SPEC22)
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_sup_norms(self):
        xs = np.linspace(-1, 1, 201)
        val = mixed_norm(xs**2, xs, np.array([0.0, 1.0]), MixedNormSpec(np.inf, np.inf))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_holder_interpolation_spot_check(self):
        # ||f||_{L^3} <= ||f||_{L^2}^(1/2) ||f||_{L^6}^(1/2) * ... spot: the
        # p -> norm map is log-convex in 1/p; check midpoint inequality
        xs = np.linspace(-2, 2, 4001)
        f = np.exp(-(xs**2))
        ts = np.array([0.0, 1.0])
        n2 = mixed_norm(f, xs, ts, MixedNormSpec(2.0, 2.0))
        n4 = mixed_norm(f, xs, ts, MixedNormSpec(4.0, 2.0))
        n8 = mixed_norm(f, xs, ts, MixedNormSpec(8.0, 2.0))
        assert n4 <= np.sqrt(n2 * n8) * (1 + 1e-9)

    def test_indices_validated(self):
        with pytest.raises(ParameterError):
            MixedNormSpec(1.0, 2.0)


class TestKrylov:
    def test_scaling_invariance(self):
        f1 = GridFunction.from_callable(lambda x: np.exp(-(x**2)), -4, 4, 801, extension="constant")
        f10 = GridFunction.from_callable(lambda x: 10 * np.exp(-(x**2)), -4, 4, 801, extension="constant")
        rep = krylov_ratio(BM2, [f1, f10], SPEC22, 1.0, 5000, 3, StepConfig(dt=1e-2))
        assert rep["ratios"][0] == pytest.approx(rep["ratios"][1], rel=1e-12)

    def test_zero_norm_rejected(self):
        f0 = GridFunction.from_callable(lambda x: 0.0 * x, -4, 4, 801)
        with pytest.raises(ParameterError):
            krylov_ratio(BM2, [f0], SPEC22, 1.0, 100, 3, StepConfig(dt=1e-2))

    def test_occupation_oracle_sigma_sqrt2(self):
        # E int_0^1 1_{|X_s|<=0.1} ds with X = sqrt(2) W: quadrature oracle
        oracle, _ = integrate.quad(lambda s: 2 * norm.cdf(0.1 / np.sqrt(2 * s)) - 1, 0, 1, limit=200)
        fam = [((lambda x: (np.abs(x) <= 0.1).astype(float)), (0.2) ** 0.5)]
        rep = krylov_ratio(BM2, fam, SPEC22, 1.0, 50_000, 41, StepConfig(dt=1e-3))
        assert abs(rep["means"][0] - oracle) < 3 * rep["mean_ses"][0]

    def test_index_warning(self):
        f1 = GridFunction.from_callable(lambda x: np.exp(-(x**2)), -4, 4, 801, extension="constant")
        with pytest.warns(UserWarning, match="diffusion regime"):
            krylov_ratio(BM2, [f1], MixedNormSpec(1.5, 1.5), 1.0, 100, 3, StepConfig(dt=1e-1))


class TestKhasminskii:
    F = GridFunction.from_callable(lambda x: (np.abs(x) <= 0.1).astype(float), -3, 3, 2401, extension="constant")

    def test_zero_f_trivial(self):
        f0 = GridFunction.from_callable(lambda x: 0.0 * x, -3, 3, 101)
        rep = khasminskii_bound(BM2, f0, 1.0, 1.0, 2000, 3, StepConfig(dt=1e-2), c0=0.5)
        assert rep["empirical_mean"] == pytest.approx(1.0, abs=1e-12)
        assert rep["verdict"] is True

    def test_unit_partition_cap_two(self):
        rep = khasminskii_bound(BM2, self.F, 1.0, 1.0, 20_000, 5, StepConfig(dt=1e-2), c0=0.6)
        assert rep["n"] == 1 and rep["cap"] == 2.0
        assert rep["verdict"] is True and not rep["heavy_tail_warning"]

    def test_monotone_in_lambda_same_seed(self):
        vals = [
            khasminskii_bound(BM2, self.F, lam, 1.0, 5000, 5, StepConfig(dt=1e-2), c0=0.6)["empirical_mean"]
            for lam in (0.5, 1.0, 2.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_negative_f_rejected(self):
        fneg = GridFunction.from_callable(lambda x: -np.ones_like(x), -3, 3, 101)
        with pytest.raises(ParameterError):
            khasminskii_bound(BM2, fneg, 1.0, 1.0, 100, 5, StepConfig(dt=1e-2), c0=0.5)


class TestGronwall:
    def test_constants_case(self):
        res = stochastic_gronwall_check(GronwallScenario(xi0=1.0), 2.0 / 3.0, 1.0 / 3.0, 1.0, 500, 7)
        assert res["lhs"] == pytest.approx(1.0, abs=1e-12)
        assert res["rhs"] == pytest.approx(8.0, abs=1e-12)
        assert res["passed"]

    def test_deterministic_exponential(self):
        sc = GronwallScenario(xi0=1.0, a_slope=1.0)
        xi, xistar = simulate_gronwall_paths(sc, 1.0, 8, np.random.default_rng(1))
        assert np.allclose(xi, np.e) and np.allclose(xistar, np.e)
        res = stochastic_gronwall_check(sc, 2.0 / 3.0, 1.0 / 3.0, 1.0, 100, 7)
        assert res["passed"]
        # (p/(p-q))^(1/q) (e^{pA/(1-p)})^((1-p)/p) = 8 e at p=2/3, q=1/3, A=1
        assert res["rhs"] == pytest.approx(8.0 * np.e, rel=1e-12)
        assert res["lhs"] == pytest.approx(np.e, rel=1e-12)

    def test_compensated_poisson_scenario(self):
        sc = GronwallScenario(
            xi0=1.0, eta=1.0, a_slope=0.5, kind="additive_poisson", rate=5.0, jump_scale=0.1
        )
        res = stochastic_gronwall_check(sc, 2.0 / 3.0, 1.0 / 3.0, 1.0, 10_000, 7)
        assert res["passed"]

    def test_row_sort_gives_the_per_path_sort_bitwise(self, monkeypatch):
        # the reference is the per-path loop that one row-wise sort replaced,
        # on 2000 of criterion 08's scenarios and seeds
        def per_path_times(counts, horizon, rng):
            kmax = int(counts.max()) if len(counts) else 0
            times = np.full((len(counts), kmax), np.inf)
            if kmax:
                u = rng.uniform(0.0, horizon, (len(counts), kmax))
                for i, c in enumerate(counts):
                    if c:
                        times[i, :c] = np.sort(u[i, :c])
            return times

        rng = np.random.default_rng(808)
        for i in range(2000):
            sc = random_gronwall_scenario(rng)
            got = simulate_gronwall_paths(sc, 1.0, 1000, np.random.default_rng(20_000 + i))
            with monkeypatch.context() as m:
                m.setattr(inequality_lab, "_jump_times", per_path_times)
                want = simulate_gronwall_paths(sc, 1.0, 1000, np.random.default_rng(20_000 + i))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_multiplicative_martingale_mean_one(self):
        # the compensated multiplicative jumps keep E xi at the eta-free ODE value
        sc = GronwallScenario(xi0=1.0, kind="multiplicative_poisson", rate=3.0, jump_scale=0.4)
        xi, _ = simulate_gronwall_paths(sc, 1.0, 200_000, np.random.default_rng(5))
        se = np.std(xi) / np.sqrt(len(xi))
        assert abs(np.mean(xi) - 1.0) < 3 * se

    def test_pathwise_nonnegativity_guard(self):
        with pytest.raises(ParameterError):
            GronwallScenario(xi0=1.0, eta=0.0, kind="additive_poisson", rate=5.0, jump_scale=1.0)

    def test_index_domain(self):
        with pytest.raises(ParameterError):
            stochastic_gronwall_check(GronwallScenario(), 0.5, 0.6, 1.0, 100, 1)
        with pytest.raises(ParameterError):
            stochastic_gronwall_check(GronwallScenario(), 1.2, 0.5, 1.0, 100, 1)

    def test_random_sweep_small(self):
        rng = np.random.default_rng(0)
        for i in range(100):
            sc = random_gronwall_scenario(rng)
            res = stochastic_gronwall_check(sc, 2.0 / 3.0, 1.0 / 3.0, 1.0, 1000, 5000 + i)
            assert res["passed"], (sc, res)


class TestMaximal:
    def test_constant(self):
        f = GridFunction.from_callable(lambda x: -3.0 + 0 * x, -2, 2, 101, extension="constant")
        mf = maximal_function(f)
        assert np.allclose(mf.values, 3.0)

    def test_indicator_overlap_maximization(self):
        f = GridFunction.from_callable(
            lambda x: (np.abs(x) <= 1).astype(float), -5, 5, 2001, extension="constant"
        )
        mf = maximal_function(f)
        i = np.argmin(np.abs(mf.x - 3.0))
        assert mf.values[i] == pytest.approx(0.25, abs=2e-3)

    def test_dominates_f_and_sublinear(self):
        rng = np.random.default_rng(2)
        xs_vals = rng.standard_normal(301)
        f = GridFunction(-3, 3, 301, xs_vals, extension="constant")
        g = GridFunction(-3, 3, 301, rng.standard_normal(301), extension="constant")
        mf, mg = maximal_function(f), maximal_function(g)
        both = maximal_function(GridFunction(-3, 3, 301, f.values + g.values, extension="constant"))
        assert np.all(mf.values >= np.abs(f.values) - 1e-12)
        assert np.all(both.values <= mf.values + mg.values + 1e-12)

    def test_pointwise_lipschitz_bound(self):
        # |f(x)-f(y)| <= 2^d |x-y| (M|f'|(x) + M|f'|(y)) for f = |x| (|f'| = 1)
        f = GridFunction.from_callable(lambda x: np.abs(x), -2, 2, 801)
        grad = GridFunction(-2, 2, 801, np.ones(801), extension="constant")
        mgrad = maximal_function(grad)
        rng = np.random.default_rng(3)
        xs = rng.uniform(-2, 2, 1000)
        ys = rng.uniform(-2, 2, 1000)
        lhs = np.abs(np.abs(xs) - np.abs(ys))
        mg_x = np.interp(xs, mgrad.x, mgrad.values)
        mg_y = np.interp(ys, mgrad.x, mgrad.values)
        rhs = 2.0 * np.abs(xs - ys) * (mg_x + mg_y)
        assert np.all(lhs <= rhs + 1e-12)
