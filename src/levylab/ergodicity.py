"""Long-run statistics: invariant measures, Lyapunov margins, decay rates.

Total-variation distances between simulated laws are only available through
a binned proxy: matched-binning L1/2 with a Freedman-Diaconis width on the
pooled sample.  The proxy's noise floor, its 99% quantile when both samples
share one law (``tv_noise_floor``), is reported and times below it are
excluded from rate fits (the log of noise carries no signal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from levylab.errors import (
    DivergenceError,
    ParameterError,
    SampleStarvedError,
    SignalTooWeakError,
)
from levylab.integrator import simulate_ensemble
from levylab.levy_noise import shell_rule

__all__ = [
    "EmpiricalMeasure",
    "ErgodicityReport",
    "estimate_invariant",
    "lyapunov_margin",
    "fit_lyapunov_constants",
    "tv_decay_rate",
    "strong_feller_modulus",
    "binned_tv",
    "tv_noise_floor",
    "freedman_diaconis_width",
    "wasserstein1",
]


def freedman_diaconis_width(samples):
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    if iqr <= 0:
        iqr = np.std(samples) + 1e-12
    return 2.0 * iqr * len(samples) ** (-1.0 / 3.0)


# the 99% point of N(0, 1), the level of the TV proxy's noise floor
NULL_Z = 2.3263478740408408


def _matched_counts(a, b, width=None):
    """The bin counts of a and b on one grid of the given width (by default
    Freedman-Diaconis on the pooled sample), and the width."""
    pooled = np.concatenate([a, b])
    if width is None:
        width = freedman_diaconis_width(pooled)
    lo, hi = pooled.min(), pooled.max() + width
    edges = np.arange(lo, hi + width, width)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    return pa, pb, float(width)


def _tv_of_counts(pa, pb):
    return float(0.5 * np.sum(np.abs(pa / pa.sum() - pb / pb.sum())))


def binned_tv(a, b, width=None):
    """Matched-binning L1/2 proxy for TV(law(a), law(b)).

    Bin width defaults to Freedman-Diaconis on the pooled sample; returns
    (tv, width).  The proxy is biased low by binning and inflated by counting
    noise of order sqrt(n_bins / n) (``tv_noise_floor``).
    """
    pa, pb, width = _matched_counts(a, b, width)
    return _tv_of_counts(pa, pb), width


def tv_noise_floor(pa, pb):
    """The 99% quantile of the binned TV proxy of the bin counts pa, pb when
    both samples share one law.

    Given each bin's pooled count c, the first sample's share X of it is, under
    that null, hypergeometric, here widened to Binomial(c, p) with
    p = n_a / (n_a + n_b).  The proxy is then K sum |X - c p| over independent
    bins, K = (n_a + n_b) / (2 n_a n_b).  Each term has de Moivre's mean
    absolute deviation m = 2 (k + 1) C(c, k + 1) p^(k + 1) (1 - p)^(c - k),
    k = floor(c p), and variance c p (1 - p) - m^2; the quantile is the normal
    one of the sum, mean + NULL_Z sd.
    """
    na, nb = int(pa.sum()), int(pb.sum())
    c = (pa + pb)[(pa + pb) > 0].astype(float)
    p = na / (na + nb)
    k = np.floor(c * p)
    log_m = (
        math.log(2.0)
        + np.log(k + 1.0)
        + special.gammaln(c + 1.0)
        - special.gammaln(k + 2.0)
        - special.gammaln(c - k)
        + (k + 1.0) * math.log(p)
        + (c - k) * math.log1p(-p)
    )
    m = np.exp(log_m)
    var = np.maximum(c * p * (1.0 - p) - m * m, 0.0)
    scale = 0.5 * (na + nb) / (na * nb)
    return float(scale * (m.sum() + NULL_Z * math.sqrt(var.sum())))


def wasserstein1(a, b):
    """W1 distance between two equal-size empirical laws (sorted coupling)."""
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    if len(a) != len(b):
        n = min(len(a), len(b))
        qs = (np.arange(n) + 0.5) / n
        a = np.quantile(a, qs)
        b = np.quantile(b, qs)
    return float(np.mean(np.abs(a - b)))


@dataclass
class EmpiricalMeasure:
    """Histogram view of a simulated law with first-two-moment bookkeeping."""

    edges: np.ndarray
    masses: np.ndarray
    count: int
    bandwidth: float
    mean: float = 0.0
    variance: float = 0.0
    samples: np.ndarray | None = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if np.any(np.diff(self.edges) <= 0):
            raise ParameterError("histogram edges must be increasing")
        if abs(self.masses.sum() - 1.0) > 1e-12:
            raise ParameterError("histogram masses must sum to 1")

    @classmethod
    def from_samples(cls, samples, width=None, keep_samples=False):
        samples = np.asarray(samples, dtype=float).ravel()
        if width is None:
            width = freedman_diaconis_width(samples)
        lo, hi = samples.min(), samples.max()
        edges = np.arange(lo, hi + 2 * width, width)
        counts, edges = np.histogram(samples, bins=edges)
        masses = counts / counts.sum()
        masses = masses / masses.sum()
        return cls(
            edges=edges,
            masses=masses,
            count=len(samples),
            bandwidth=width,
            mean=float(np.mean(samples)),
            variance=float(np.var(samples)),
            samples=samples if keep_samples else None,
        )

    def mass_outside(self, lo, hi):
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        return float(np.sum(self.masses[(centers < lo) | (centers > hi)]))

    def sample(self, n, rng):
        """Draw from the histogram (uniform within bins)."""
        idx = rng.choice(len(self.masses), size=n, p=self.masses)
        lo = self.edges[idx]
        return lo + rng.random(n) * (self.edges[idx + 1] - self.edges[idx])



@dataclass
class ErgodicityReport:
    gamma: float
    r_squared: float
    V_class: str
    margins: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# invariant measure estimation


def estimate_invariant(
    p,
    burn_in,
    n_samples,
    thinning,
    cfg,
    seed,
    n_chains=1,
    x0=0.0,
    keep_samples=False,
    width=None,
):
    """Estimate the invariant law from (possibly pooled) long interlaced chains.

    One chain realizes the ergodic time average directly; n_chains > 1
    chains run side by side, as a cross-check and for speed.  The chains are
    one ``simulate_ensemble`` run of n_chains paths from x0 keyed by the int
    ``seed``, so they share its chunked streams.  Each chain keeps its state
    every ``thinning`` base steps after ``burn_in``; the samples are laid out
    chain after chain.
    """
    if n_samples < 1 or n_chains < 1 or thinning < 1:
        raise ParameterError("n_samples, n_chains, thinning must all be >= 1")
    if burn_in < 0:
        raise ParameterError(f"burn_in must be >= 0, got {burn_in}")
    per_chain = int(math.ceil(n_samples / n_chains))
    times = burn_in + thinning * cfg.dt * np.arange(1, per_chain + 1)
    ens = simulate_ensemble(p, float(x0), float(times[-1]), cfg, n_chains, seed, snapshot_times=times)
    if np.any(np.isfinite(ens.exploded_at)):
        raise SampleStarvedError("explosion during invariant-measure simulation")
    samples = ens.snapshots[:, :, 0].T.ravel()[:n_samples]
    return EmpiricalMeasure.from_samples(samples, width=width, keep_samples=keep_samples)


# ---------------------------------------------------------------------------
# Lyapunov margin


def _h(x):
    # hypot form stays finite where 1 + x^2 would overflow
    return np.hypot(1.0, x)


def _h_taylor_remainder(x, g):
    """h(x+g) - h(x) - g h'(x), free of cancellation where it is O(g^2)."""
    y = x + g
    h0, h1 = _h(x), _h(y)
    xy = x * y
    # h0 h1 - x y, rationalized where its terms cancel (x y >= 0; abs keeps the other branch finite)
    cross = np.where(xy >= 0.0, (1.0 + x * x + y * y) / (h0 * h1 + np.abs(xy)), h0 * h1 - xy)
    return g * g * (1.0 + cross) / ((h0 + h1) ** 2 * h0)


def _lyapunov_generator_1d(p, x):
    """(L^sigma_2 + L^b_1 + L^g_nu) h at the states x for h = sqrt(1+x^2)."""
    x = np.asarray(x, dtype=float)
    xs = np.atleast_1d(x)
    hp = xs / _h(xs)
    sig = p.sigma_eval(0.0, xs) if p.sigma is not None else 0.0
    val = 0.5 * sig**2 * (1.0 + xs**2) ** (-1.5) + p.b(0.0, xs) * hp

    if p.has_jumps:
        model = p.levy
        inner = shell_rule(model, 0.0, model.big_jump_radius)
        outer = shell_rule(model, model.big_jump_radius, np.inf)
        val = val + inner.integrate(_h_taylor_remainder(xs[:, None], p.g_pairs(0.0, xs, inner.nodes)))
        jumped = _h(xs[:, None] + p.g_pairs(0.0, xs, outer.nodes)) - _h(xs)[:, None]
        try:
            tail = outer.integrate(jumped)
        except DivergenceError as e:
            raise DivergenceError(f"large-jump integral Gamma^{{0,1}}_{{R,inf}}(g) diverges: {e}") from e
        val = val + tail
    return float(val[0]) if x.ndim == 0 else val.reshape(x.shape)


def lyapunov_margin(p, radial_grid, c1, c2):
    """Per-point value of L h(x) + c1 h(x)^(1+r) - c2 on +/- the radial grid.

    The generator acts on h(x) = sqrt(1+|x|^2) with analytic derivatives; the
    jump part is integrated against nu with the |z| < R compensation.  Pass
    verdict: margin <= 0 everywhere on the grid.
    """
    if not p.time_homogeneous:
        raise ParameterError("lyapunov_margin needs a time-homogeneous problem")
    if p.dim != 1:
        raise ParameterError("lyapunov_margin is implemented for dim=1")
    r = p.r if p.r is not None else 0.0
    radial_grid = np.asarray(radial_grid, dtype=float)
    xs = np.unique(np.concatenate([radial_grid, -radial_grid]))
    gen = _lyapunov_generator_1d(p, xs)
    margins = gen + c1 * _h(xs) ** (1.0 + r) - c2
    return {
        "x": xs,
        "generator": gen,
        "margins": margins,
        "passed": bool(np.all(margins <= 0.0)),
        "c1": c1,
        "c2": c2,
        "r": r,
    }


def fit_lyapunov_constants(p, radial_grid):
    """Fit (c1, c2) making L h <= -c1 h^(1+r) + c2 hold with headroom."""
    r = p.r if p.r is not None else 0.0
    radial_grid = np.asarray(radial_grid, dtype=float)
    xs = np.unique(np.concatenate([radial_grid, -radial_grid]))
    gen = _lyapunov_generator_1d(p, xs)
    hv = _h(xs) ** (1.0 + r)
    outer = np.abs(xs) >= 0.5 * np.max(np.abs(xs))
    c1 = 0.5 * float(np.min(-gen[outer] / hv[outer]))
    if c1 <= 0:
        c1 = 1e-3
    c2 = float(np.max(gen + c1 * hv))
    return c1, max(c2 * 1.05, c2 + 0.1)


# ---------------------------------------------------------------------------
# decay rates


def _ensemble_snapshots(p, x0, times, n_paths, master_seed, cfg):
    ens = simulate_ensemble(
        p, float(x0), float(np.max(times)), cfg, n_paths, master_seed, snapshot_times=times
    )
    return ens.snapshots[:, :, 0]


def tv_decay_rate(p, x0, y0, time_grid, n_paths, seed, cfg):
    """Fit the exponential decay rate of TV(law X_t(x0), law X_t(y0)).

    Per time the TV proxy is matched-binning L1/2 (Freedman-Diaconis width on
    the pooled sample); times with proxy below its noise floor, the 99% null
    quantile of ``tv_noise_floor``, are excluded from the least-squares fit of
    log TV vs t.  Raises SignalTooWeakError when the first time, or all but
    one time, falls below its floor.
    """
    time_grid = np.sort(np.asarray(time_grid, dtype=float))
    if len(time_grid) < 4:
        raise ParameterError("tv_decay_rate needs at least 4 time points")
    v_class = "uniform" if (p.r or 0.0) > 0 else "V_linear"

    if x0 == y0:
        return ErgodicityReport(
            gamma=np.inf,
            r_squared=1.0,
            V_class=v_class,
            margins={"tv": [0.0] * len(time_grid), "noise_floor": None, "times": time_grid.tolist()},
        )

    # streams keyed by value order so relabeling x0 <-> y0 is an exact no-op
    lo0, hi0 = sorted((x0, y0))
    s_lo, s_hi = np.random.SeedSequence(seed).generate_state(2)
    ax = _ensemble_snapshots(p, lo0, time_grid, n_paths, int(s_lo), cfg)
    ay = _ensemble_snapshots(p, hi0, time_grid, n_paths, int(s_hi), cfg)

    tvs, floors, widths = [], [], []
    for k in range(len(time_grid)):
        pa, pb, w = _matched_counts(ax[k], ay[k])
        tvs.append(_tv_of_counts(pa, pb))
        floors.append(tv_noise_floor(pa, pb))
        widths.append(w)
    tvs, floors = np.array(tvs), np.array(floors)

    if tvs[0] < floors[0]:
        raise SignalTooWeakError(
            f"TV proxy {tvs[0]:.4f} below the noise floor {floors[0]:.4f} at t={time_grid[0]}; "
            "move x0, y0 apart or use earlier times"
        )
    used = tvs >= floors
    if np.count_nonzero(used) < 2:
        raise SignalTooWeakError(
            f"only t={time_grid[0]} has a TV proxy above its noise floor; a rate needs two times"
        )
    t_used, y_used = time_grid[used], np.log(tvs[used])
    slope, intercept = np.polyfit(t_used, y_used, 1)
    fitted = slope * t_used + intercept
    ss_res = float(np.sum((y_used - fitted) ** 2))
    ss_tot = float(np.sum((y_used - np.mean(y_used)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return ErgodicityReport(
        gamma=float(-slope),
        r_squared=r2,
        V_class=v_class,
        margins={
            "tv": tvs.tolist(),
            "times": time_grid.tolist(),
            "used": used.tolist(),
            "noise_floor": floors.tolist(),
            "bin_widths": widths,
        },
    )


def strong_feller_modulus(p, t, x, y, n_paths, seed, cfg, n_batches=25):
    """Estimate sup_{|phi|<=1} |E phi(X_t(x)) - E phi(X_t(y))| (a TV distance).

    Common random numbers drive both start points; the matched bins are
    widened to at least twice the start separation so the shared noise
    cancels instead of re-entering through displaced bins.  Returns the
    modulus, a batch-means standard error, and the Feller-scaling ratio
    modulus / (|x-y| t^(-1/2)).
    """
    if not t > 0:
        raise ParameterError("strong_feller_modulus needs t > 0")
    if x == y:
        return {"modulus": 0.0, "se": 0.0, "ratio": 0.0, "bin_width": 0.0}
    times = np.array([t])
    ax = _ensemble_snapshots(p, x, times, n_paths, int(seed), cfg)[0]
    ay = _ensemble_snapshots(p, y, times, n_paths, int(seed), cfg)[0]

    width = max(freedman_diaconis_width(np.concatenate([ax, ay])), 2.0 * abs(x - y))
    tv, width = binned_tv(ax, ay, width=width)
    k = max(2, n_batches)
    m = len(ax) // k
    batch = [binned_tv(ax[i * m : (i + 1) * m], ay[i * m : (i + 1) * m], width=width)[0] for i in range(k)]
    se = float(np.std(batch, ddof=1) / math.sqrt(k))
    ratio = tv / (abs(x - y) * t**-0.5)
    return {"modulus": tv, "se": se, "ratio": float(ratio), "bin_width": width}
