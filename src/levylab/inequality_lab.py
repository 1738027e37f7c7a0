"""Monte Carlo and grid verifiers for the occupation-time estimate, the
exponential-moment cap, the pathwise Gronwall moment bound, and the
Hardy-Littlewood maximal function.

The occupation LHS uses pathwise trapezoid integration on the jump-adapted
grid (bias O(dt), which must stay below the observed slack); exponential
moments are tail-driven, so every report carries the mass share of the top
0.1% of samples as a reliability score.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from levylab.errors import ParameterError
from levylab.integrator import simulate_ensemble
from levylab.pide_zvonkin import GridFunction

__all__ = [
    "MixedNormSpec",
    "mixed_norm",
    "krylov_ratio",
    "khasminskii_bound",
    "GronwallScenario",
    "stochastic_gronwall_check",
    "random_gronwall_scenario",
    "maximal_function",
]


@dataclass(frozen=True)
class MixedNormSpec:
    """Mixed space-time norm indices (p in space, q in time), in (1, inf]."""

    p: float
    q: float

    def __post_init__(self):
        for v in (self.p, self.q):
            if not (v > 1):
                raise ParameterError(f"mixed-norm indices must be > 1, got {v}")


def mixed_norm(values, xs, ts, spec):
    """|| f ||_{L^q_p([ts0, ts1])} for grid-tabulated f by trapezoid in x, then t.

    ``values`` may be (n,) for a time-constant profile or (K, n) over the
    time grid ``ts``; p or q = inf takes sups instead of integrals.
    """
    values = np.abs(np.asarray(values, dtype=float))
    xs = np.asarray(xs, dtype=float)
    ts = np.asarray(ts, dtype=float)
    if values.ndim == 1:
        values = np.tile(values[None, :], (len(ts), 1))
    if np.isinf(spec.p):
        space = values.max(axis=1)
    else:
        space = integrate.trapezoid(values**spec.p, xs, axis=1) ** (1.0 / spec.p)
    if np.isinf(spec.q):
        return float(space.max())
    return float(integrate.trapezoid(space**spec.q, ts) ** (1.0 / spec.q))


def _static_norm(gf, spec, horizon):
    """Norm over [0, horizon] of a time-constant GridFunction."""
    return mixed_norm(gf.values, gf.x, np.array([0.0, horizon]), spec)


def _index_warning(p_prob, spec):
    d = p_prob.dim
    if p_prob.sigma is not None:
        if d / spec.p + 2.0 / spec.q >= 2.0:
            warnings.warn(
                f"indices d/p + 2/q = {d/spec.p + 2/spec.q:.3f} >= 2 (diffusion regime)",
                stacklevel=3,
            )
    elif p_prob.levy is not None and p_prob.levy.kind == "isotropic_stable":
        a = p_prob.levy.alpha
        if d / spec.p + a / spec.q >= a:
            warnings.warn(
                f"indices d/p + alpha/q = {d/spec.p + a/spec.q:.3f} >= alpha (pure-jump regime)",
                stacklevel=3,
            )


def krylov_ratio(p_prob, f_family, spec, horizon, n_paths, seed, cfg, x0=0.0):
    """sup over the family of  E int_0^T f(X_s) ds / ||f||_{L^q_p(T)}.

    Family members are GridFunctions (norm by trapezoid on their grid) or
    (callable, exact spatial L^p norm) pairs for profiles like indicators
    whose knife-edge sampling onto a grid would distort both sides.  All
    members ride one simulated ensemble (vector integrand); each member must
    have positive norm.  The pass criterion of the verification experiments
    is a bounded ratio across members whose norms span orders of magnitude.
    """
    if not f_family:
        raise ParameterError("empty f family")
    _index_warning(p_prob, spec)
    fns, norms = [], []
    for member in f_family:
        if isinstance(member, GridFunction):
            fns.append(member)
            norms.append(_static_norm(member, spec, horizon))
        else:
            fn, lp = member
            fns.append(fn)
            norms.append(float(lp) * horizon ** (1.0 / spec.q) if not np.isinf(spec.q) else float(lp))
    norms = np.array(norms)
    for i, nv in enumerate(norms):
        if not nv > 0:
            raise ParameterError(f"family member {i} has zero mixed norm")

    def integrand(t, x):
        return np.stack([f(x) for f in fns], axis=1)

    ens = simulate_ensemble(
        p_prob, x0, horizon, cfg, n_paths, int(seed), time_integrand=integrand
    )
    ints = ens.integrals if ens.integrals.ndim == 2 else ens.integrals[:, None]
    means = ints.mean(axis=0)
    ses = ints.std(axis=0, ddof=1) / math.sqrt(n_paths)
    ratios = means / norms
    return {
        "ratios": ratios.tolist(),
        "ratio_ses": (ses / norms).tolist(),
        "norms": norms.tolist(),
        "sup_ratio": float(np.max(ratios)),
        "spread": float(np.max(ratios) / np.min(ratios)),
        "means": means.tolist(),
        "mean_ses": ses.tolist(),
    }


def khasminskii_bound(p_prob, f, lam, horizon, n_paths, seed, cfg, c0, spec=None, x0=0.0):
    """Empirical E exp(lam int f(X_s) ds) against the 2^n cap.

    n is the partition count making each subinterval norm <= 1/(2 lam c0),
    with c0 the (measured) occupation constant.  The check allows a one-sided
    99% confidence margin; a heavy tail (top 0.1% of samples carrying over
    half the mean) withholds the verdict instead of passing it.
    """
    if spec is None:
        spec = MixedNormSpec(2.0, 2.0)
    if np.any(np.asarray(f.values) < 0):
        raise ParameterError("khasminskii_bound needs f >= 0")
    n = 1
    while True:
        sub = mixed_norm(f.values, f.x, np.array([0.0, horizon / n]), spec)
        if sub <= 1.0 / (2.0 * lam * c0) or n > 10_000:
            break
        n += 1
    cap = 2.0**n

    ens = simulate_ensemble(
        p_prob, x0, horizon, cfg, n_paths, int(seed), time_integrand=lambda t, x: f(x)
    )
    expvals = np.exp(lam * ens.integrals)
    mean = float(np.mean(expvals))
    se = float(np.std(expvals, ddof=1) / math.sqrt(n_paths))
    top = np.sort(expvals)[-max(1, n_paths // 1000) :]
    share = float(np.sum(top) / np.sum(expvals))
    heavy = share > 0.5
    verdict = None if heavy else bool(mean <= cap + 2.326 * se)
    return {
        "empirical_mean": mean,
        "se": se,
        "cap": cap,
        "n": n,
        "verdict": verdict,
        "reliability_top_share": share,
        "heavy_tail_warning": heavy,
    }


# ---------------------------------------------------------------------------
# stochastic Gronwall


@dataclass(frozen=True)
class GronwallScenario:
    """Pathwise-exact driver for xi(t) = xi0 + int eta + int xi dA + M_t.

    A_t = a_slope * t.  The martingale is none, an additive compensated
    Poisson (jumps +jump_scale at rate ``rate``; nonnegativity needs
    eta >= jump_scale * rate), or the multiplicative integral
    int xi(s-) jump_scale dN~ (jumps multiply xi by 1 + jump_scale).
    """

    xi0: float = 1.0
    eta: float = 0.0
    a_slope: float = 0.0
    kind: str = "none"
    rate: float = 0.0
    jump_scale: float = 0.0

    def __post_init__(self):
        if self.xi0 < 0 or self.eta < 0 or self.a_slope < 0:
            raise ParameterError("xi0, eta, a_slope must be nonnegative")
        if self.kind not in ("none", "additive_poisson", "multiplicative_poisson"):
            raise ParameterError(f"unknown martingale kind {self.kind!r}")
        if self.kind == "additive_poisson" and self.eta < self.jump_scale * self.rate - 1e-12:
            raise ParameterError(
                "additive scenario needs eta >= jump_scale * rate for pathwise nonnegativity"
            )
        if self.kind == "multiplicative_poisson" and not -1.0 < self.jump_scale:
            raise ParameterError("multiplicative jumps need jump_scale > -1")


def _advance_linear(xi, drift, slope, dt):
    """Exact flow of xi' = drift + slope * xi over dt (vectorized)."""
    small = np.abs(slope) < 1e-14
    with np.errstate(over="ignore"):
        grown = np.exp(slope * dt)
    out = np.where(small, xi + drift * dt, xi * grown + drift * np.where(small, dt, (grown - 1.0) / np.where(small, 1.0, slope)))
    return out


def _jump_times(counts, horizon, rng):
    """Row i: path i's counts[i] jump times, uniform on [0, horizon) and in
    order, then +inf, over max(counts) columns.  The slots past a row's count
    go to +inf before one row-wise sort, which orders every row at once."""
    times = rng.uniform(0.0, horizon, (len(counts), int(counts.max(initial=0))))
    times[np.arange(times.shape[1]) >= counts[:, None]] = np.inf
    times.sort(axis=1)
    return times


def simulate_gronwall_paths(scenario, horizon, n_paths, rng):
    """(xi_T, sup_t xi) by exact piecewise integration between Poisson jumps."""
    sc = scenario
    if sc.kind == "none":
        rate = 0.0
    else:
        rate = sc.rate
    if sc.kind == "additive_poisson":
        drift, slope = sc.eta - sc.jump_scale * sc.rate, sc.a_slope
    elif sc.kind == "multiplicative_poisson":
        drift, slope = sc.eta, sc.a_slope - sc.jump_scale * sc.rate
    else:
        drift, slope = sc.eta, sc.a_slope

    n = n_paths
    xi = np.full(n, sc.xi0)
    xistar = xi.copy()
    counts = rng.poisson(rate * horizon, n) if rate > 0 else np.zeros(n, dtype=int)
    times = _jump_times(counts, horizon, rng)
    kmax = times.shape[1]
    t_prev = np.zeros(n)
    for k in range(kmax):
        doing = counts > k
        dt = np.where(doing, times[:, k] - t_prev, 0.0)
        xi = np.where(doing, _advance_linear(xi, drift, slope, dt), xi)
        xistar = np.maximum(xistar, xi)
        if sc.kind == "additive_poisson":
            xi = np.where(doing, xi + sc.jump_scale, xi)
        elif sc.kind == "multiplicative_poisson":
            xi = np.where(doing, xi * (1.0 + sc.jump_scale), xi)
        xistar = np.maximum(xistar, xi)
        t_prev = np.where(doing, times[:, k], t_prev)
    xi = _advance_linear(xi, drift, slope, horizon - t_prev)
    xistar = np.maximum(xistar, xi)
    return xi, xistar


def stochastic_gronwall_check(scenario, p, q, horizon, n_paths, seed):
    """Both sides of the moment bound for the pathwise Gronwall scenario.

    LHS = [E (sup xi)^q]^(1/q); RHS = (p/(p-q))^(1/q)
    (E e^{pA_T/(1-p)})^((1-p)/p) E(xi0 + int eta).  Needs 0 < q < p < 1.
    """
    if not (0.0 < q < p < 1.0):
        raise ParameterError(f"need 0 < q < p < 1, got p={p}, q={q}")
    rng = np.random.default_rng(seed)
    _, xistar = simulate_gronwall_paths(scenario, horizon, n_paths, rng)
    mq = float(np.mean(xistar**q))
    se_mq = float(np.std(xistar**q, ddof=1) / math.sqrt(n_paths))
    lhs = mq ** (1.0 / q)
    lhs_se = (1.0 / q) * mq ** (1.0 / q - 1.0) * se_mq
    a_t = scenario.a_slope * horizon
    rhs = (
        (p / (p - q)) ** (1.0 / q)
        * math.exp(p * a_t / (1.0 - p)) ** ((1.0 - p) / p)
        * (scenario.xi0 + scenario.eta * horizon)
    )
    return {
        "lhs": lhs,
        "lhs_se": lhs_se,
        "rhs": rhs,
        "passed": bool(lhs - 3.0 * lhs_se <= rhs),
        "slack": rhs / max(lhs, 1e-300),
    }


def random_gronwall_scenario(rng):
    """Documented scenario generator for the property sweep."""
    kind = ["none", "additive_poisson", "multiplicative_poisson"][int(rng.integers(3))]
    rate = float(rng.uniform(0.5, 5.0))
    scale = float(rng.uniform(0.01, 0.9))
    eta = float(rng.uniform(0.0, 2.0))
    if kind == "additive_poisson":
        eta = scale * rate + float(rng.uniform(0.0, 2.0))
    return GronwallScenario(
        xi0=float(rng.uniform(0.0, 3.0)),
        eta=eta,
        a_slope=float(rng.uniform(0.0, 1.0)),
        kind=kind,
        rate=rate,
        jump_scale=scale,
    )


# ---------------------------------------------------------------------------
# Hardy-Littlewood maximal function


def maximal_function(f):
    """Exact discrete maximal function sup_s (window average of |f|) on the grid.

    Window averages are trapezoid integrals over [x - s, x + s] for every
    admissible radius s = k h, with the extension policy supplying values
    beyond the grid; the zero-radius limit |f(x)| is always a candidate.
    """
    if not isinstance(f, GridFunction):
        raise ParameterError("maximal_function expects a GridFunction")
    n, h = f.n, f.h
    v = np.abs(f.values)
    if f.extension == "constant":
        left = np.full(n - 1, v[0])
        right = np.full(n - 1, v[-1])
    else:
        xs_l = f.lo - h * np.arange(n - 1, 0, -1)
        xs_r = f.hi + h * np.arange(1, n)
        left = np.abs(f(xs_l))
        right = np.abs(f(xs_r))
    ext = np.concatenate([left, v, right])  # index i of grid -> n-1+i
    csum = np.concatenate([[0.0], np.cumsum(ext)])

    best = v.copy()
    base = n - 1
    idx = np.arange(n)
    for k in range(1, n):
        a = base + idx - k
        b = base + idx + k
        # trapezoid over [a, b]: sum minus half the endpoint values
        window = (csum[b + 1] - csum[a]) - 0.5 * (ext[a] + ext[b])
        best = np.maximum(best, window * h / (2.0 * k * h))
    return GridFunction(f.lo, f.hi, n, best, f.extension)
