"""Sampler and Levy-measure integral tests against closed-form oracles."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import levylab
from levylab.errors import DivergenceError, ParameterError
from levylab.levy_noise import (
    LevyModel,
    ShellSampler,
    char_exponent,
    levy_constant,
    sample_isotropic_stable,
    sample_large_jumps,
    shell_rule,
    stable_increment_batch,
    standard_normals,
    tail_mass,
)

M15 = LevyModel(kind="isotropic_stable", alpha=1.5, dim=1, big_jump_radius=1.0)


def test_zero_time_increment_is_zero():
    rng = np.random.default_rng(0)
    assert np.all(sample_isotropic_stable(M15, 0.0, rng) == 0.0)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        LevyModel(alpha=2.5, dim=1, big_jump_radius=1.0)
    with pytest.raises(ParameterError):
        LevyModel(alpha=1.5, dim=1, big_jump_radius=-1.0)
    with pytest.raises(ParameterError):
        sample_isotropic_stable(M15, -1.0, np.random.default_rng(0))


def test_cauchy_density_at_zero():
    # alpha=1, t=1 increments are standard Cauchy: density 1/pi at 0
    m = LevyModel(alpha=1.0, dim=1, big_jump_radius=1.0)
    rng = np.random.default_rng(1)
    x = stable_increment_batch(m, 1.0, 200_000, rng)[:, 0]
    width = 0.05
    dens = np.mean(np.abs(x) <= width) / (2 * width)
    assert abs(dens - 1.0 / np.pi) < 0.01


def test_characteristic_function_2d():
    # E cos(xi . X_t) = exp(-t |xi|^alpha) for xi = (1, 0), t = 0.7
    m = LevyModel(alpha=1.5, dim=2, big_jump_radius=1.0)
    rng = np.random.default_rng(2)
    x = stable_increment_batch(m, 0.7, 200_000, rng)
    est = np.mean(np.cos(x[:, 0]))
    se = np.std(np.cos(x[:, 0])) / np.sqrt(len(x))
    assert abs(est - np.exp(-0.7)) < 3 * se + 1e-4


def test_self_similarity_ks():
    # X_t scaled by s^(-1/alpha) matches the law at t/s
    rng = np.random.default_rng(3)
    n, s = 100_000, 4.0
    a = stable_increment_batch(M15, 1.0, n, rng)[:, 0] * s ** (-1.0 / 1.5)
    b = stable_increment_batch(M15, 1.0 / s, n, rng)[:, 0]
    stat, pval = stats.ks_2samp(a, b)
    assert pval > 0.01


def test_alpha2_limit_variance():
    # the Gaussian endpoint of the sampler: char exp(-t xi^2) means Var = 2t
    from levylab.levy_noise import _stable_increments

    rng = np.random.default_rng(4)
    t = 0.6
    x = _stable_increments(2.0, 1, t, 200_000, rng)[:, 0]
    var = np.var(x)
    se = np.sqrt(2.0 / 200_000) * 2 * t
    assert abs(var - 2 * t) < 3 * se
    # and alpha just below 2 is close in distribution (moment sanity)
    y = _stable_increments(1.999, 1, t, 50_000, rng)[:, 0]
    assert abs(np.median(np.abs(y)) - np.median(np.abs(x))) < 0.05


def test_bit_reproducibility():
    a = stable_increment_batch(M15, 1.0, 1000, np.random.default_rng(42))
    b = stable_increment_batch(M15, 1.0, 1000, np.random.default_rng(42))
    assert np.array_equal(a, b)
    e1 = sample_large_jumps(M15, 5.0, np.random.default_rng(9))
    e2 = sample_large_jumps(M15, 5.0, np.random.default_rng(9))
    assert len(e1) == len(e2)
    for u, v in zip(e1, e2):
        assert u.time == v.time and np.array_equal(u.mark, v.mark)


def cms_sin_cos(alpha, u, w):
    # the Chambers-Mallows-Stuck formula as first written, with sin, cos and powers
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    return s * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.2, 1.5, 1.9, 1.999])
def test_trig_free_transform_matches_the_sin_cos_formula(alpha):
    from levylab.levy_noise import _cms_transform

    rng = np.random.default_rng(int(1000 * alpha))
    n = 1_000_000
    u = rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, n)
    w = rng.exponential(1.0, n)
    ref = cms_sin_cos(alpha, u, w)
    got = _cms_transform(alpha, u.copy(), w.copy(), np.empty(n), np.empty(n))
    live = ref != 0.0
    assert np.array_equal(got[~live], ref[~live])
    assert np.max(np.abs(got[live] / ref[live] - 1.0)) <= 1e-9
    # finite wherever the formula is, out to the ends of [-pi/2, pi/2)
    edge = np.nextafter(np.pi / 2, 0.0)
    u = np.array([-np.pi / 2, -edge, edge, 0.0, 1e-300, -1e-300, 1e-8])
    w = np.array([1.0, 1e-3, 1e-3, 1.0, 1.0, 30.0, 1e-9])
    ref = cms_sin_cos(alpha, u, w)
    got = _cms_transform(alpha, u.copy(), w.copy(), np.empty(len(u)), np.empty(len(u)))
    assert np.all(np.isfinite(ref)) and np.all(np.isfinite(got))
    assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("rho", [0.15, 0.45, 0.75, 0.95])
def test_trig_free_kanter_matches_the_sin_formula(rho):
    from levylab.levy_noise import _kanter_log

    rng = np.random.default_rng(int(100 * rho))
    n = 200_000
    th = rng.uniform(1e-6, np.pi - 1e-6, n)
    w = rng.exponential(1.0, n)
    a = np.sin(rho * th) ** rho * np.sin((1.0 - rho) * th) ** (1.0 - rho) / np.sin(th)
    ref = (a ** (1.0 / (1.0 - rho)) / w) ** ((1.0 - rho) / rho)
    got = np.exp(_kanter_log(rho, th / 2.0, w.copy(), np.empty(n), np.empty(n)))
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-9


def test_alpha_one_draw_is_tan_u_and_draws_no_exponential():
    m = LevyModel(alpha=1.0, dim=1, big_jump_radius=1.0)
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    x = stable_increment_batch(m, 1.0, 10_000, a)[:, 0]
    u = b.uniform(-np.pi / 2, np.pi / 2, 10_000)
    assert np.array_equal(x, np.tan(u))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("dim", [1, 2])
def test_successive_batches_share_no_memory(dim):
    m = LevyModel(alpha=1.5, dim=dim, big_jump_radius=1.0)
    rng = np.random.default_rng(10)
    a = stable_increment_batch(m, 0.5, 1000, rng)
    b = stable_increment_batch(m, 0.5, 1000, rng)
    assert not np.shares_memory(a, b)
    assert not np.array_equal(a, b)


def test_large_jump_rate_and_interarrivals():
    rng = np.random.default_rng(5)
    horizon = 10.0
    counts = []
    firsts = []
    for _ in range(10_000):
        ev = sample_large_jumps(M15, horizon, rng)
        counts.append(len(ev))
        times = [e.time for e in ev]
        assert all(np.diff(times) > 0) or len(times) < 2
        assert all(np.linalg.norm(e.mark) >= 1.0 for e in ev)
        if ev:
            firsts.append(ev[0].time)
    mean = np.mean(counts)
    se = np.std(counts) / np.sqrt(len(counts))
    assert abs(mean - horizon * 4.0 / 3.0) < 3 * se
    # first arrivals are Exp(nu(B_1^c)) essentially uncensored at this horizon
    # (gaps deeper into the window are length-biased by censoring)
    pval = stats.kstest(firsts, lambda g: 1 - np.exp(-4.0 / 3.0 * g)).pvalue
    assert pval > 0.01


def test_radial_table_no_mass_outside_R_gives_no_jumps():
    tab = LevyModel(
        kind="radial_table", dim=1, big_jump_radius=1.0, radii=[0.1, 0.5, 0.9], densities=[1.0, 2.0, 1.0]
    )
    assert len(sample_large_jumps(tab, 10.0, np.random.default_rng(0))) == 0


def test_tail_mass_oracles():
    # closed forms: area/(moment-alpha) * r^(moment-alpha) differences
    assert abs(tail_mass(M15, 0.0, 1.0, 2.0) - 4.0) < 1e-8
    assert abs(tail_mass(M15, 1.0, np.inf, 0.0) - 4.0 / 3.0) < 1e-8
    assert tail_mass(M15, 0.7, 0.7, 2.0) == 0.0


def test_tail_mass_additivity():
    a = tail_mass(M15, 0.0, 0.3, 2.0)
    b = tail_mass(M15, 0.3, 2.0, 2.0)
    c = tail_mass(M15, 0.0, 2.0, 2.0)
    assert abs(a + b - c) <= 1e-10 * c


def test_tail_mass_divergence_messages():
    with pytest.raises(DivergenceError, match="r1=0"):
        tail_mass(M15, 0.0, 1.0, 1.0)
    with pytest.raises(DivergenceError, match="r2=inf"):
        tail_mass(M15, 1.0, np.inf, 2.0)


def test_tail_mass_radial_table_quadrature():
    tab = LevyModel(
        kind="radial_table", dim=1, big_jump_radius=0.5, radii=[0.1, 1.0], densities=[2.0, 2.0]
    )
    # nu = 2 dz on 0.1<=|z|<=1: int_{0.5<=|z|<1} |z| nu(dz) = 2*2*int_.5^1 r dr = 1.5
    got = tail_mass(tab, 0.5, 2.0, 1.0)
    assert abs(got - 1.5) < 1e-8


def _symbol_oracle(d, alpha):
    """int (1 - cos z_1) |z|^(-d-alpha) dz, the symbol of nu at |xi| = 1.

    The head near 0 goes to QUADPACK's algebraic weight r^(1-alpha) with the
    smooth factor (1 - cos r)/r^2 (or (1 - J0(r))/r^2).  In d = 1 the tail
    splits into the closed form int_1^inf u^(-1-alpha) du = 1/alpha and the
    Fourier rule for the cosine; in d = 2 it runs on pi-wide panels to 200 pi,
    beyond which the J0 part is below 1e-8 and the rest is closed-form.
    """
    head = lambda f, b: integrate.quad(f, 0.0, b, weight="alg", wvar=(1.0 - alpha, 0.0), epsabs=0.0, epsrel=1e-12)[0]
    if d == 1:
        near = head(lambda u: 2.0 * np.sin(0.5 * u) ** 2 / u**2 if u > 0 else 0.5, 1.0)
        cos_tail = integrate.quad(lambda u: u ** (-1.0 - alpha), 1.0, np.inf, weight="cos", wvar=1.0)[0]
        return 2.0 * (near + 1.0 / alpha - cos_tail)
    near = head(lambda r: (1.0 - special.j0(r)) / r**2 if r > 0 else 0.25, np.pi)
    panels = sum(
        integrate.quad(lambda r: (1.0 - special.j0(r)) * r ** (-1.0 - alpha), k * np.pi, (k + 1) * np.pi, epsabs=0.0, epsrel=1e-12)[0]
        for k in range(1, 200)
    )
    return 2.0 * np.pi * (near + panels + (200.0 * np.pi) ** (-alpha) / alpha)


def piecewise_linear_moment(radii, densities, r1, r2, power):
    """Exact int_{r1}^{r2} s^power f(s) ds for f linear between the table radii."""
    total = 0.0
    for a, b, fa, fb in zip(radii[:-1], radii[1:], densities[:-1], densities[1:]):
        lo, hi = max(a, r1), min(b, r2)
        if hi > lo:
            slope = (fb - fa) / (b - a)
            c0, c1 = fa - slope * a, slope
            total += c0 * (hi ** (power + 1) - lo ** (power + 1)) / (power + 1)
            total += c1 * (hi ** (power + 2) - lo ** (power + 2)) / (power + 2)
    return total


def test_radial_table_with_250_interior_radii():
    radii = np.geomspace(0.01, 5.0, 252)
    dens = radii**-2.5
    tab = LevyModel(kind="radial_table", dim=1, big_jump_radius=1.0, radii=radii, densities=dens)
    for r1, r2, moment in [(0.0, np.inf, 2.0), (0.03, 4.0, 1.5), (1.0, np.inf, 0.0)]:
        exact = 2.0 * piecewise_linear_moment(radii, dens, r1, r2, moment)
        assert tail_mass(tab, r1, r2, moment) == pytest.approx(exact, rel=1e-12)


def test_rule_matches_closed_form_tail_mass_at_open_ends():
    # the power-law remainders close r1 = 0 and r2 = inf exactly for power integrands
    for model in (M15, LevyModel(alpha=0.8, dim=2, big_jump_radius=1.0)):
        low, high = shell_rule(model, 0.0, 1.0), shell_rule(model, 1.0, np.inf)
        assert low.integrate(np.abs(low.nodes) ** 2) == pytest.approx(tail_mass(model, 0.0, 1.0, 2.0), rel=1e-12)
        assert high.integrate(np.ones_like(high.nodes)) == pytest.approx(tail_mass(model, 1.0, np.inf, 0.0), rel=1e-10)
        both = shell_rule(model, 0.0, np.inf)
        assert both.integrate(np.minimum(np.abs(both.nodes) ** 2, 1.0)) == pytest.approx(
            tail_mass(model, 0.0, 1.0, 2.0) + tail_mass(model, 1.0, np.inf, 0.0), rel=1e-10
        )


def test_rule_refuses_divergent_ends():
    rule = shell_rule(M15, 0.0, 1.0)
    with pytest.raises(DivergenceError, match="0"):
        rule.integrate(np.abs(rule.nodes))


@pytest.mark.parametrize("xi", [0.5, 1.0, 4.0])
def test_char_exponent_matches_the_closed_form(xi):
    # int_{|z| >= eps} (cos xi z - 1) nu(dz) = 2 xi^alpha (Gamma(-alpha) cos(pi alpha / 2)
    # - sum_k (-1)^k x^(2k - alpha) / ((2k)! (2k - alpha))), x = xi eps; the rule
    # alone is off by 1.2e-4, 9.4e-5 and 5.5e-4 at these xi
    alpha, eps = M15.alpha, 1.0 / 8.0
    x = xi * eps
    head = sum((-1) ** k * x ** (2 * k - alpha) / (math.factorial(2 * k) * (2 * k - alpha)) for k in range(1, 30))
    want = 2.0 * xi**alpha * (special.gamma(-alpha) * math.cos(math.pi * alpha / 2.0) - head)
    assert char_exponent(M15, xi, eps) == pytest.approx(want, rel=1e-13)


def test_char_exponent_at_alpha_one_and_its_limits():
    # Cauchy: Gamma(-alpha) cos(pi alpha / 2) -> -pi / 2; Fourier-weighted quad as the oracle
    cauchy = LevyModel(alpha=1.0, dim=1, big_jump_radius=1.0)
    tail = integrate.quad(lambda s: 1.0 / s**2, 0.5, np.inf, weight="cos", wvar=2.0)[0]
    assert char_exponent(cauchy, -2.0, 0.5) == pytest.approx(2.0 * (tail - 2.0), rel=1e-9)
    assert char_exponent(cauchy, 0.0, 0.5) == 0.0
    with pytest.raises(ParameterError):
        char_exponent(cauchy, 100.0, 0.5)
    with pytest.raises(ParameterError):
        char_exponent(LevyModel(alpha=1.5, dim=2), 1.0, 0.5)


def test_normals_follow_the_standard_normal_law():
    # 1e6 draws, each moment within 5 standard errors; the cosine and sine
    # halves of the pairs, and their squares, uncorrelated within 5 SE
    n = 1_000_000
    x = standard_normals(np.random.default_rng(2024), np.empty(n))
    assert abs(x.mean()) < 5.0 / math.sqrt(n)
    assert abs(x.var() - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(stats.kurtosis(x)) < 5.0 * math.sqrt(24.0 / n)
    assert stats.kstest(x, "norm").pvalue > 1e-3
    c, s = x[0::2], x[1::2]
    bound = 5.0 / math.sqrt(n // 2)
    assert abs(np.corrcoef(c, s)[0, 1]) < bound
    assert abs(np.corrcoef(c**2, s**2)[0, 1]) < bound


@pytest.mark.parametrize("n", [1, 2, 7, 300, 301, 4096])
def test_a_normal_draw_is_the_prefix_of_any_longer_draw(n):
    # pairs of adjacent uniforms: an odd n drops only the last sine
    for longer in (n + 1, 4097, 16384):
        short = standard_normals(np.random.default_rng(n), np.empty(n))
        long = standard_normals(np.random.default_rng(n), np.empty((longer, 1)))
        assert short.tobytes() == long[:n, 0].tobytes()
    with pytest.raises(ParameterError):
        standard_normals(np.random.default_rng(0), np.empty((4, 2))[:, 0])


class _ExtremeUniforms:
    """Uniforms cycling through 0 and 1 - 2^-53 in every radius/angle pairing."""

    CYCLE = np.array([0.0, 0.0, 0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-53, 0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-53])

    def random(self, out):
        out[:] = np.resize(self.CYCLE, len(out))
        return out


@pytest.mark.parametrize("n", [8, 7])
def test_extreme_uniforms_give_finite_normals(n):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        x = standard_normals(_ExtremeUniforms(), np.empty(n))
    assert np.all(np.isfinite(x))
    # u = 0 is radius 0; u = 1 - 2^-53 is radius sqrt(2 * 53 log 2) at angle -pi
    np.testing.assert_array_equal(x[:4], 0.0)
    assert x[4] == pytest.approx(-math.sqrt(106.0 * math.log(2.0)), rel=1e-15)


def test_every_normal_draw_goes_through_one_sampler():
    # a second normal path (numpy's ziggurat) must not come back
    src = Path(levylab.__file__).parent
    hits = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "standard_normal(" in line
    ]
    assert hits == []


@pytest.mark.parametrize("d,alpha", [(1, 1.0), (1, 1.5), (2, 1.5)])
def test_levy_constant_against_quadrature(d, alpha):
    oracle = _symbol_oracle(d, alpha)
    assert abs(levy_constant(d, alpha) - oracle) < 1e-7 * oracle


def test_windowed_train_has_the_poisson_law_on_every_path():
    n_paths, window = 16384, 1.5
    lam = 4.0 / 3.0 * window
    train = sample_large_jumps(M15, n_paths * window, np.random.default_rng(11)).windows(n_paths, window)
    counts = np.diff(train.offsets)
    assert counts.sum() == len(train)
    # Poisson(lam) per path: mean and variance both lam, within 4 SE
    assert abs(counts.mean() - lam) < 4.0 * np.sqrt(lam / n_paths)
    assert abs(counts.var() - lam) < 4.0 * np.sqrt((lam + 2.0 * lam**2) / n_paths)
    # counts do not depend on the path index: equal totals over 16 index blocks
    assert stats.chisquare(counts.reshape(16, -1).sum(axis=1)).pvalue > 1e-3
    assert abs(np.corrcoef(counts, np.arange(n_paths))[0, 1]) < 4.0 / np.sqrt(n_paths)
    assert np.all(np.abs(train.marks[:, 0]) >= 1.0)
    path = np.repeat(np.arange(n_paths), counts)
    assert np.all((train.times >= 0.0) & (train.times < window))
    assert np.all(np.diff(train.times)[path[1:] == path[:-1]] >= 0.0)


def test_shell_sampler_follows_the_table_on_each_shell():
    tab = LevyModel(
        kind="radial_table", dim=1, big_jump_radius=1.0, radii=[0.1, 0.5, 2.0, 4.0], densities=[3.0, 2.0, 1.0, 0.5]
    )
    assert tab.large_jumps is tab.large_jumps
    rng = np.random.default_rng(6)
    for r1, r2 in ((1.0 / 32.0, 1.0), (1.0, np.inf)):
        r = ShellSampler(tab, r1, r2).radii(100_000, rng)
        m0, m1, m2 = (tail_mass(tab, r1, r2, k) for k in (0.0, 1.0, 2.0))
        se = np.sqrt((m2 / m0 - (m1 / m0) ** 2) / len(r))
        assert abs(r.mean() - m1 / m0) < 4.0 * se
        assert r.min() >= r1 and r.max() <= min(r2, 4.0)


class _ConstantUniforms:
    """A generator stub whose uniforms all equal one value."""

    def __init__(self, value):
        self.value = value

    def random(self, n):
        return np.full(n, self.value)


@pytest.mark.parametrize("u", [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)])
def test_one_uniform_marks_stay_finite_out_to_infinity(u):
    # the d = 1 radius uniform 2u - 1{u >= 1/2} stays in [0, 1), so the shell
    # [R, inf) of the large jumps never inverts to an infinite radius
    z = M15.large_jumps.marks(4, _ConstantUniforms(u))
    assert z.shape == (4, 1)
    assert np.all(np.isfinite(z)) and np.all(np.abs(z) >= 1.0)
    assert np.all(np.sign(z) == (1.0 if u >= 0.5 else -1.0))


@pytest.mark.parametrize("r1, r2", [(1.0 / 32.0, 1.0), (1.0, np.inf)])
def test_one_uniform_marks_have_symmetric_signs_and_the_shell_radius_law(r1, r2):
    z = ShellSampler(M15, r1, r2).marks(200_000, np.random.default_rng(8))[:, 0]
    n = len(z)
    assert abs(np.mean(z > 0) - 0.5) < 4.0 * np.sqrt(0.25 / n)
    # closed-form CDF of |z| on the shell, nu(dz) = |z|^(-1-alpha) dz
    a = M15.alpha
    cdf = lambda r: (r1**-a - np.asarray(r) ** -a) / (r1**-a - r2**-a)
    # the radius law holds on each sign alone: a sign-radius coupling shows here
    for side in (z[z > 0], -z[z < 0]):
        assert stats.kstest(side, cdf).pvalue > 1e-3
