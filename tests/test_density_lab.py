"""Reference-density, KDE, and kernel-bound tests against closed forms."""

import json
import math

import numpy as np
import pytest
from scipy import integrate

from levylab.density_lab import (
    BoundFit,
    DensityEstimate,
    chapman_kolmogorov_residual,
    check_gradient_bound,
    check_two_sided,
    density_with_tail,
    kde_density,
    kernel_profile,
    killed_density,
    reference_mass,
    stable_density_reference,
    stable_density_tail,
)
from levylab.cli import _json17
from levylab.errors import ParameterError, SampleStarvedError, TailAccuracyError
from levylab.integrator import StepConfig
from levylab.levy_noise import LevyModel, levy_constant
from levylab.sde_model import problem_1d

M15 = LevyModel(alpha=1.5, dim=1, big_jump_radius=1.0)


class TestReferenceDensity:
    def test_gaussian_endpoint(self):
        assert stable_density_reference(2.0, 1, 1.0, 0.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-12
        )

    def test_cauchy_closed_form(self):
        assert stable_density_reference(1.0, 1, 1.0, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-9)
        assert stable_density_reference(1.0, 1, 1.0, 1.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-9)

    def test_isotropic_cauchy_2d(self):
        exact = math.gamma(1.5) / math.pi**1.5 / (1.0 + 1.0) ** 1.5
        assert stable_density_reference(1.0, 2, 1.0, 1.0) == pytest.approx(exact, rel=1e-7)

    def test_gaussian_2d(self):
        exact = (4 * math.pi) ** -1 * math.exp(-0.25 / 4.0)
        assert stable_density_reference(2.0, 2, 1.0, 0.5) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("t", [0.3, 0.7, 1.0])
    def test_small_radius_matches_power_series(self, t):
        # for alpha > 1, p_t(r) = (pi alpha)^-1 sum_k (-1)^k Gamma((2k+1)/alpha)
        # r^(2k) t^(-(2k+1)/alpha) / (2k)!, convergent for every r
        alpha = 1.5
        for r in (1e-9, 1e-6, 1e-4, 1e-3, 5e-3, 0.05):
            series = math.fsum(
                (-1) ** k
                * math.exp(math.lgamma((2 * k + 1) / alpha) - math.lgamma(2 * k + 1))
                * r ** (2 * k)
                * t ** (-(2 * k + 1) / alpha)
                for k in range(30)
            ) / (math.pi * alpha)
            assert stable_density_reference(alpha, 1, t, r) == pytest.approx(series, rel=1e-9)

    def test_tail_error_offers_asymptote(self):
        with pytest.raises(TailAccuracyError) as err:
            stable_density_reference(1.5, 1, 0.1, 100.0)
        assert err.value.tail_value == pytest.approx(stable_density_tail(1.5, 1, 0.1, 100.0))
        # the asymptote is within a few percent of the Cauchy closed form
        r = 50.0
        cauchy = 1.0 / (math.pi * (1 + r * r))
        assert stable_density_tail(1.0, 1, 1.0, r) == pytest.approx(cauchy, rel=0.01)

    def test_density_with_tail_is_continuous_enough(self):
        guard = 20.0 * 0.5 ** (1 / 1.5)
        lo = density_with_tail(1.5, 1, 0.5, guard * 0.999)
        hi = density_with_tail(1.5, 1, 0.5, guard * 1.001)
        assert abs(lo - hi) < 0.05 * lo

    def test_parameter_domain(self):
        with pytest.raises(ParameterError):
            stable_density_reference(2.5, 1, 1.0, 0.0)
        with pytest.raises(ParameterError):
            stable_density_reference(1.5, 1, 0.0, 0.0)


class TestKde:
    def test_standard_normal_density(self):
        rng = np.random.default_rng(5)
        est = kde_density(rng.standard_normal(200_000), np.array([0.0]))
        target = 1.0 / math.sqrt(2 * math.pi)
        assert abs(est.values[0] - target) < 3 * est.se[0] + 0.01 * target

    def test_constant_samples_single_kernel_peak(self):
        est = kde_density(np.zeros(1000), np.array([0.0]), bandwidth=0.2)
        assert est.values[0] == pytest.approx(1.0 / (0.2 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_needs_samples_and_window(self):
        with pytest.raises(ParameterError):
            kde_density(np.zeros(10), np.array([0.0]))
        with pytest.raises(ParameterError):
            kde_density(np.zeros(2000), np.array([]))

    def test_mass_at_most_one(self):
        rng = np.random.default_rng(6)
        xs = np.linspace(-6, 6, 301)
        est = kde_density(rng.standard_normal(50_000), xs)
        assert integrate.trapezoid(est.values, xs) <= 1.0 + 1e-6

    def test_se_band_shrinks_like_root_n(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal(400_000)
        a = kde_density(s[:200_000], np.array([0.0]))
        b = kde_density(s, np.array([0.0]))
        # Silverman bandwidth shifts with n, so the ratio is 2^(-2/5), within
        # 15% of 1/sqrt(2)
        ratio = b.se[0] / a.se[0]
        assert abs(ratio - 1.0 / math.sqrt(2)) < 0.15 / math.sqrt(2)

    def test_simulated_stable_matches_reference(self):
        from levylab.integrator import simulate_ensemble

        p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15, sigma_bar=lambda x: np.ones_like(x))
        t = 0.3
        ens = simulate_ensemble(p, 0.0, t, StepConfig(dt=t / 32, exact_stable=True), 200_000, 3)
        xs = np.linspace(-3, 3, 25)
        est = kde_density(ens.terminal[:, 0], xs)
        t_sym = levy_constant(1, 1.5) * t
        ref = np.array([stable_density_reference(1.5, 1, t_sym, abs(x)) for x in xs])
        rel = np.max(np.abs(est.values - ref) / ref)
        assert rel < 0.07


class TestTwoSided:
    def test_exact_profile_gives_unit_constants(self):
        xs = np.linspace(0, 5, 21)
        fam = []
        for t in (0.2, 0.5, 1.0):
            vals = kernel_profile(1.5, 1, t, xs)
            fam.append((t, DensityEstimate(points=xs, values=vals, bandwidth=0, n_samples=0, se=np.zeros_like(xs))))
        fit = check_two_sided(fam, 1.5, 1)
        assert fit.c1 == pytest.approx(1.0, rel=1e-12)
        assert fit.c2 == pytest.approx(1.0, rel=1e-12)
        assert fit.violations == 0

    def test_zero_density_fails_with_c1_zero(self):
        xs = np.linspace(0, 5, 11)
        vals = kernel_profile(1.5, 1, 0.5, xs)
        vals[3] = 0.0
        fam = [(0.5, DensityEstimate(points=xs, values=vals, bandwidth=0, n_samples=0, se=np.zeros_like(xs)))]
        fit = check_two_sided(fam, 1.5, 1)
        assert fit.c1 == 0.0 and fit.violations >= 1

    def test_reference_family_envelope_constants(self):
        # frozen from the exact density (cross-checked against independent
        # implementations): min ratio 0.28735 at x=0, max 1.3554 mid-tail;
        # the self-similar ratio curve makes these t-independent.  Note the
        # true c2/c1 here is 4.72 (it is 2.0 for the Cauchy case alpha=1).
        xs = np.linspace(0, 5, 26)
        fam = []
        for t in (0.1, 0.2, 0.4, 0.7, 1.0):
            vals = np.array([density_with_tail(1.5, 1, t, x) for x in xs])
            fam.append((t, DensityEstimate(points=xs, values=vals, bandwidth=0, n_samples=0, se=np.zeros_like(xs))))
        fit = check_two_sided(fam, 1.5, 1)
        assert fit.c1 == pytest.approx(0.28735, rel=1e-3)
        assert fit.c2 == pytest.approx(1.3554, rel=1e-3)
        assert fit.violations == 0
        # the Cauchy analogue does satisfy the factor-3 envelope
        fam1 = []
        for t in (0.2, 0.5, 1.0):
            vals = np.array([density_with_tail(1.0, 1, t, x) for x in xs])
            fam1.append((t, DensityEstimate(points=xs, values=vals, bandwidth=0, n_samples=0, se=np.zeros_like(xs))))
        fit1 = check_two_sided(fam1, 1.0, 1, ratio_tolerance=3.0)
        assert fit1.violations == 0 and fit1.c2 / fit1.c1 <= 3.0


class TestGradientBound:
    def test_reference_shape_constant_across_times(self):
        xs = np.linspace(0.0, 4.0, 17)
        out = check_gradient_bound(1.5, 1, [0.25, 1.0], xs)
        vals = list(out.values())
        assert all(np.isfinite(v) and v > 0 for v in vals)
        assert max(vals) / min(vals) < 1.5

    def test_degenerate_probe(self):
        with pytest.raises(ParameterError):
            check_gradient_bound(1.5, 1, [1.0], np.array([0.0]), h=0.0)

    def test_symmetric_gradient_statistically_zero(self):
        from levylab.density_lab import gradient_bound_mc

        p = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))
        out = gradient_bound_mc(p, 1.0, 0.0, 0.0, 50_000, 3, StepConfig(dt=1e-2), probe=0.05)
        # estimates at the symmetry point: |gradient| below ~3 SE
        assert np.all(np.abs(out["gradient"]) < 4 * out["se"])


class TestKernelIdentities:
    def test_chapman_kolmogorov(self):
        res = chapman_kolmogorov_residual(1.5, 1, 0.3, 1.0, 0.2, -0.4)
        assert res["residual"] < 1e-4

    def test_conservativeness(self):
        mass = reference_mass(1.5, 1, 0.5, n=2001)
        assert 0.99 <= mass <= 1.0001


class TestKilled:
    def test_start_outside_domain(self):
        p = problem_1d(sigma=lambda x: np.ones_like(x))
        with pytest.raises(ParameterError):
            killed_density(p, (-1, 1), 0.5, 1.5, np.array([0.0]), 1000, 1, StepConfig(dt=1e-3))

    def test_bm_eigen_expansion(self):
        # sigma = 1 (generator d2/2) on (-1,1): rho^D(0.5, 0, 0) from the
        # Dirichlet eigenfunction series
        p = problem_1d(sigma=lambda x: np.ones_like(x))
        oracle = sum(math.exp(-(n**2) * math.pi**2 * 0.5 / 8.0) for n in (1, 3, 5, 7))
        est, survival, positive = killed_density(
            p, (-1, 1), 0.5, 0.0, np.array([0.0]), 40_000, 31, StepConfig(dt=2e-4)
        )
        assert positive
        assert est.values[0] == pytest.approx(oracle, rel=0.08)

    def test_killed_below_free_density(self):
        from levylab.integrator import simulate_ensemble

        p = problem_1d(sigma=lambda x: np.ones_like(x))
        pts = np.linspace(-0.5, 0.5, 5)
        est, survival, _ = killed_density(p, (-1, 1), 0.4, 0.0, pts, 40_000, 7, StepConfig(dt=5e-4))
        free = kde_density(
            simulate_ensemble(p, 0.0, 0.4, StepConfig(dt=5e-4), 40_000, 7).terminal[:, 0], pts
        )
        assert np.all(est.values <= free.values + 3 * np.hypot(est.se, free.se))

    def test_domain_no_path_leaves_gives_the_free_density(self):
        # two chunks, Brownian and with spliced large jumps: the killed and
        # the free runs share one chunk loop, so the bytes agree
        from levylab.integrator import CHUNK_SIZE, simulate_ensemble

        pts = np.linspace(-1.0, 1.0, 9)
        n = CHUNK_SIZE + 1000
        for p in (problem_1d(sigma=lambda x: np.ones_like(x)), problem_1d(g=lambda x, z: z + 0 * x, levy=M15)):
            est, survival, _ = killed_density(p, (-1e9, 1e9), 0.2, 0.0, pts, n, 5, StepConfig(dt=1e-2))
            free = kde_density(simulate_ensemble(p, 0.0, 0.2, StepConfig(dt=1e-2), n, 5).terminal[:, 0], pts)
            assert survival == 1.0
            assert est.values.tobytes() == free.values.tobytes()
            assert est.se.tobytes() == free.se.tobytes()

    def test_sample_starved(self):
        p = problem_1d(drift=lambda x: 50.0 * np.ones_like(x))  # races out of the domain
        with pytest.raises(SampleStarvedError):
            killed_density(p, (-1, 1), 2.0, 0.0, np.array([0.0]), 2000, 1, StepConfig(dt=1e-3))


def test_bound_fit_serialization():
    fit = BoundFit(c1=0.2, c2=0.4, violations=0, window={"t": [0.1, 1.0]})
    d = json.loads(_json17(fit))
    assert d["c1"] == 0.2 and d["violations"] == 0
