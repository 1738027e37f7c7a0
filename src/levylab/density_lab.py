"""Transition-density machinery: Fourier-inversion references, KDE, bound checks.

Reference densities follow the symbol convention exp(-t |xi|^alpha).  A pure
jump path simulated under the unit-constant measure |z|^(-d-alpha) dz matches
the reference at the rescaled time ``levy_constant(d, alpha) * t``; that is the
bridge used whenever simulated laws are compared against references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from levylab.errors import (
    ParameterError,
    SampleStarvedError,
    TailAccuracyError,
)
from levylab.integrator import _Engine, _run_chunk, CHUNK_SIZE
from levylab.levy_noise import levy_constant

__all__ = [
    "DensityEstimate",
    "BoundFit",
    "stable_density_reference",
    "stable_density_tail",
    "kde_density",
    "check_two_sided",
    "check_envelope_membership",
    "check_gradient_bound",
    "killed_density",
    "chapman_kolmogorov_residual",
    "reference_mass",
    "kernel_profile",
]

_GAUSS_R = 1.0 / (2.0 * math.sqrt(math.pi))  # roughness of the Gaussian kernel


@dataclass
class DensityEstimate:
    """Pointwise density values with an asymptotic standard-error band."""

    points: np.ndarray
    values: np.ndarray
    bandwidth: float
    n_samples: int
    se: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.se = np.asarray(self.se, dtype=float)
        if np.any(self.values < 0):
            raise ParameterError("density values must be nonnegative")

    def to_csv(self, fileobj):
        fileobj.write("x,value,se\n")
        for x, v, s in zip(self.points, self.values, self.se):
            fileobj.write(
                f"{format(float(x), '.17g')},{format(float(v), '.17g')},{format(float(s), '.17g')}\n"
            )


@dataclass
class BoundFit:
    """Fitted envelope constants for the kernel-shaped two-sided bound."""

    c1: float
    c2: float
    violations: int
    window: dict
    excluded: int = 0

    def to_json_dict(self):
        return {
            "c1": self.c1,
            "c2": self.c2,
            "violations": self.violations,
            "excluded": self.excluded,
            "window": self.window,
        }


def kernel_profile(alpha, d, t, r):
    """The comparison profile t (t^(1/alpha) + r)^(-d-alpha)."""
    return t * (t ** (1.0 / alpha) + np.abs(r)) ** (-d - alpha)


def stable_density_tail(alpha, d, t, r):
    """First-jump tail asymptote c_{d,alpha} t r^(-d-alpha) (symbol convention)."""
    return t / levy_constant(d, alpha) * r ** (-d - alpha)


def stable_density_reference(alpha, d, t, r, tail_guard=20.0):
    """Density at radius r of the isotropic stable law with char. exp(-t|xi|^alpha).

    d=1 by cosine-transform quadrature (a plain integral over the effective
    support [0, xi_max] while r xi_max <= 2 pi, QUADPACK's Fourier rule
    beyond), d>=2 by the radial Hankel integral
    with Bessel-zero breakpoints.  Beyond r = tail_guard * t^(1/alpha) the
    oscillatory quadrature degrades and a TailAccuracyError carrying the
    asymptotic tail value is raised instead.
    """
    if not 0.0 < alpha <= 2.0:
        raise ParameterError(f"alpha must lie in (0, 2], got {alpha}")
    if not t > 0:
        raise ParameterError(f"t must be > 0, got {t}")
    r = abs(float(r))
    if alpha == 2.0:
        return (4.0 * math.pi * t) ** (-d / 2.0) * math.exp(-(r**2) / (4.0 * t))
    if r > tail_guard * t ** (1.0 / alpha):
        raise TailAccuracyError(
            f"r={r} beyond {tail_guard} t^(1/alpha); use the asymptotic tail value",
            tail_value=stable_density_tail(alpha, d, t, r),
        )
    # upper cutoff where exp(-t xi^alpha) ~ 1e-18
    xi_max = (41.5 / t) ** (1.0 / alpha)
    if d == 1:
        if r * xi_max <= 2.0 * math.pi:
            # QAWF works in cycles of length ~pi/r; for small r the first
            # cycle dwarfs the support of exp(-t xi^alpha), which its rule
            # misses (it returns ~0), so integrate over the support instead
            val, _ = integrate.quad(
                lambda xi: math.exp(-t * xi**alpha) * math.cos(r * xi), 0.0, xi_max, limit=200
            )
        else:
            val, _ = integrate.quad(
                lambda xi: math.exp(-t * xi**alpha),
                0.0,
                np.inf,
                weight="cos",
                wvar=r,
                limit=400,
            )
        return val / math.pi
    # radial Hankel inversion: p(r) = (2 pi)^(-d/2) r^(1-d/2)
    #                                  int_0^inf e^{-t xi^alpha} xi^(d/2) J_{d/2-1}(xi r) d xi
    from levylab.levy_noise import sphere_area

    if r == 0.0:
        val, _ = integrate.quad(
            lambda xi: math.exp(-t * xi**alpha) * xi ** (d - 1), 0.0, xi_max, limit=400
        )
        return val * sphere_area(d) / (2.0 * math.pi) ** d
    order = d / 2.0 - 1.0

    def integrand(xi):
        return math.exp(-t * xi**alpha) * xi ** (d / 2.0) * special.jv(order, xi * r)

    zeros = special.jn_zeros(max(int(round(order)), 0), 80) / r
    pts = zeros[zeros < xi_max]
    val, _ = integrate.quad(integrand, 0.0, xi_max, points=pts, limit=900)
    return val * r ** (1.0 - d / 2.0) / (2.0 * math.pi) ** (d / 2.0)


def kde_density(samples, eval_points, bandwidth="auto"):
    """Gaussian-kernel density estimate with an asymptotic SE band.

    Bandwidth 'auto' is Silverman's rule with the IQR guard (essential for
    heavy tails, where the sample standard deviation may diverge).
    """
    samples = np.asarray(samples, dtype=float).ravel()
    eval_points = np.asarray(eval_points, dtype=float).ravel()
    if len(samples) < 1000:
        raise ParameterError(f"kde_density needs >= 1000 samples, got {len(samples)}")
    if len(eval_points) == 0:
        raise ParameterError("empty evaluation window")
    if bandwidth == "auto":
        q75, q25 = np.percentile(samples, [75, 25])
        spread = min(np.std(samples), (q75 - q25) / 1.34)
        if spread <= 0:
            spread = np.std(samples) + 1e-12
        bandwidth = 0.9 * spread * len(samples) ** (-0.2)
    h = float(bandwidth)
    if not h > 0:
        raise ParameterError(f"bandwidth must be > 0, got {h}")

    n = len(samples)
    vals = np.zeros_like(eval_points)
    norm = 1.0 / (n * h * math.sqrt(2.0 * math.pi))
    chunk = max(1, int(2e7 // max(len(eval_points), 1)))
    for i in range(0, n, chunk):
        blk = samples[i : i + chunk]
        u = (eval_points[:, None] - blk[None, :]) / h
        vals += norm * np.exp(-0.5 * u * u).sum(axis=1)
    se = np.sqrt(np.maximum(vals, 0.0) * _GAUSS_R / (n * h))
    return DensityEstimate(points=eval_points, values=vals, bandwidth=h, n_samples=n, se=se)


def check_two_sided(family, alpha, d=1, ratio_tolerance=None):
    """Fit the envelope constants of rho / profile over a (t, x) family.

    ``family`` is a list of (t, DensityEstimate) pairs; points whose value
    sits below 3 SE are excluded (reported).  c1/c2 are the min/max observed
    ratio; pass requires c1 > 0 and, when given, c2/c1 <= ratio_tolerance.
    """
    ratios = []
    excluded = 0
    t_lo, t_hi = np.inf, -np.inf
    x_hi = 0.0
    for t, est in family:
        t_lo, t_hi = min(t_lo, t), max(t_hi, t)
        x_hi = max(x_hi, float(np.max(np.abs(est.points))))
        prof = kernel_profile(alpha, d, t, est.points)
        # exact values (se == 0) always count: a true zero is a violation,
        # not noise
        ok = (est.values > 3.0 * est.se) | (est.se == 0.0)
        excluded += int(np.sum(~ok))
        ratios.append(est.values[ok] / prof[ok])
    ratios = np.concatenate(ratios)
    if len(ratios) == 0:
        raise SampleStarvedError("every point sits below its noise floor")
    c1, c2 = float(np.min(ratios)), float(np.max(ratios))
    violations = 0 if c1 > 0 else 1
    if ratio_tolerance is not None and c2 / max(c1, 1e-300) > ratio_tolerance:
        violations += 1
    return BoundFit(
        c1=c1,
        c2=c2,
        violations=violations,
        excluded=excluded,
        window={"t": [t_lo, t_hi], "x_max": x_hi},
    )


def check_envelope_membership(family, alpha, d, c1, c2, lo_factor=0.5, hi_factor=2.0):
    """Count points of a density family leaving [lo_factor*c1, hi_factor*c2]
    times the kernel profile, above the 3 SE noise floor."""
    violations = 0
    checked = 0
    for t, est in family:
        prof = kernel_profile(alpha, d, t, est.points)
        ok = est.values > 3.0 * est.se
        lo = lo_factor * c1 * prof[ok]
        hi = hi_factor * c2 * prof[ok]
        v = est.values[ok]
        violations += int(np.sum((v < lo) | (v > hi)))
        checked += int(np.sum(ok))
    return {"violations": violations, "checked": checked}


def check_gradient_bound(alpha, d, t_values, x_grid, h=None):
    """Shape check of the gradient bound on reference densities.

    Central differences of the reference density give |d rho/dx|; the report
    carries sup over the grid of |grad rho| (t^(1/alpha)+|x|)^(d+alpha)
    t^(1/alpha - 1) per time, which the bound says is a single constant.
    """
    if h is not None and h == 0:
        raise ParameterError("degenerate probe step h=0")
    out = {}
    for t in np.atleast_1d(t_values):
        step = h if h is not None else 0.05 * t ** (1.0 / alpha)
        ratios = []
        for x in x_grid:
            up = stable_density_reference(alpha, d, t, abs(x) + step)
            dn = stable_density_reference(alpha, d, t, max(abs(x) - step, 0.0))
            grad = abs(up - dn) / (2.0 * step)
            ratios.append(grad * (t ** (1.0 / alpha) + abs(x)) ** (d + alpha) * t ** (1.0 / alpha - 1.0))
        out[float(t)] = float(np.max(ratios))
    return out


def gradient_bound_mc(p, t, x, y, n_paths, seed, cfg, probe, eval_points=None):
    """Monte Carlo gradient probe: central difference of KDE densities started
    at x +/- probe with common random numbers.  SE above half the estimate
    flags the verdict inconclusive rather than failed."""
    if probe == 0:
        raise ParameterError("degenerate probe step h=0")
    from levylab.integrator import simulate_ensemble

    if eval_points is None:
        eval_points = np.array([y])
    up = simulate_ensemble(p, x + probe, t, cfg, n_paths, int(seed)).terminal[:, 0]
    dn = simulate_ensemble(p, x - probe, t, cfg, n_paths, int(seed)).terminal[:, 0]
    ku = kde_density(up, eval_points)
    kd = kde_density(dn, eval_points)
    grad = (ku.values - kd.values) / (2.0 * probe)
    se = np.sqrt(ku.se**2 + kd.se**2) / (2.0 * probe)
    verdict = "ok" if np.all(se <= 0.5 * np.abs(grad) + 1e-300) else "inconclusive"
    return {"gradient": grad, "se": se, "verdict": verdict, "points": eval_points}


def killed_density(p, domain, t, x, eval_points, n_paths, seed, cfg):
    """Density of the process killed on exiting ``domain`` plus survival rate.

    Exits are checked at every grid and jump time; a jump landing outside the
    domain kills the path at the jump time (overshoot exits are exits).  The
    KDE over survivors is weighted by the survival fraction.  Positivity
    verdict per point: estimate > 3 SE above zero.
    """
    lo, hi = domain
    if not (lo < x < hi):
        raise ParameterError(f"start x={x} outside the open domain ({lo}, {hi})")
    eval_points = np.asarray(eval_points, dtype=float)
    survivors = []
    n_dead = 0
    master = int(seed)
    starts = list(range(0, n_paths, CHUNK_SIZE))
    eng = _Engine(p, cfg, absorb=domain)
    for ci, lo_i in enumerate(starts):
        w = min(CHUNK_SIZE, n_paths - lo_i)
        res = _run_chunk(eng, np.full((w, p.dim), float(x)), t, master, ci)
        ok = ~np.isfinite(res["absorbed_at"]) & ~np.isfinite(res["exploded_at"])
        survivors.append(res["X"][ok, 0])
        n_dead += int(np.sum(~ok))
    survivors = np.concatenate(survivors)
    survival = len(survivors) / n_paths
    if survival < 1e-3:
        raise SampleStarvedError(
            f"survival probability {survival:.2e} < 1e-3; too few paths survive the domain"
        )
    est = kde_density(survivors, eval_points)
    est = DensityEstimate(
        points=est.points,
        values=est.values * survival,
        bandwidth=est.bandwidth,
        n_samples=est.n_samples,
        se=est.se * survival,
    )
    positive = bool(np.all(est.values > 3.0 * est.se))
    return est, survival, positive


def density_with_tail(alpha, d, t, r, tail_guard=20.0):
    """Reference density switching to the first-jump asymptote past the guard."""
    try:
        return stable_density_reference(alpha, d, t, r, tail_guard=tail_guard)
    except TailAccuracyError as e:
        return e.tail_value


def chapman_kolmogorov_residual(alpha, d, s, t, x, y, z_span=250.0):
    """Relative residual of int rho(s,x,z) rho(t-s,z,y) dz = rho(t,x,y) (d=1).

    The convolution window extends well past the quadrature guard; out there
    the integrand uses the asymptotic tail value of the reference kernel.
    """
    if d != 1:
        raise ParameterError("chapman_kolmogorov_residual is implemented for d=1")

    def integrand(z):
        return density_with_tail(alpha, 1, s, abs(z - x)) * density_with_tail(
            alpha, 1, t - s, abs(y - z)
        )

    guards = sorted(
        v
        for v in (
            x + 20.0 * s ** (1 / alpha),
            x - 20.0 * s ** (1 / alpha),
            y + 20.0 * (t - s) ** (1 / alpha),
            y - 20.0 * (t - s) ** (1 / alpha),
            x,
            y,
        )
        if -z_span < v < z_span
    )
    val, _ = integrate.quad(
        integrand, -z_span, z_span, points=guards, limit=500, epsabs=1e-12, epsrel=1e-9
    )
    target = stable_density_reference(alpha, 1, t, abs(y - x))
    resid = abs(val - target) / target
    return {"residual": resid, "value": val, "target": target}


def reference_mass(alpha, d, t, span_factor=40.0, n=4001):
    """Trapezoid mass of the reference density over |y| <= span_factor t^(1/alpha)."""
    if d != 1:
        raise ParameterError("reference_mass is implemented for d=1")
    span = span_factor * t ** (1.0 / alpha)
    xs = np.linspace(-span, span, n)
    vals = np.array([stable_density_reference(alpha, 1, t, abs(xi), tail_guard=span_factor + 1) for xi in xs])
    return float(integrate.trapezoid(vals, xs))
