"""Samplers and integral evaluators for the driving Levy noise.

Two scaling conventions coexist and are interconvertible:

- integrals against the Levy measure (``tail_mass``, jump rates, marks) use
  the unit-constant isotropic measure  nu(dz) = |z|^(-d-alpha) dz;
- exact stable increments are normalized to the characteristic function
  exp(-t |xi|^alpha), for which closed-form oracles (Cauchy, Gaussian) exist.

``levy_constant(d, alpha)`` is the bridge: the unit-constant measure has
symbol  levy_constant * |xi|^alpha,  so a pure-jump path driven by nu over
time t has the law of a symbol-normalized increment at time levy_constant*t.

Integrals against nu go through one rule, ``shell_rule``: log-spaced
Gauss-Legendre panels, with power-law remainders closing the stable measure's
open ends (DECISIONS.md).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate, special

from levylab.errors import DivergenceError, ParameterError

__all__ = [
    "LevyModel",
    "JumpEvent",
    "JumpTrain",
    "ShellSampler",
    "levy_constant",
    "sample_isotropic_stable",
    "stable_increment_batch",
    "sample_large_jumps",
    "tail_mass",
    "sphere_area",
    "ShellRule",
    "shell_rule",
]

# resolution of the nu-rule: Gauss-Legendre order, panels per decade of |z|, the
# cuts of the stable measure's open ends and the radius ratio of each end's probes
RULE_ORDER = 8
PANELS_PER_DECADE = 4
RULE_LO, RULE_HI = 1e-9, 1e8
PROBE_RATIO = 100.0
_GL = np.polynomial.legendre.leggauss(RULE_ORDER)


def sphere_area(d):
    """Surface measure of the unit sphere in R^d (2 points for d=1)."""
    return 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)


def levy_constant(d, alpha):
    """Symbol coefficient of the unit-constant stable measure.

    The measure |z|^(-d-alpha) dz has Levy symbol  C * |xi|^alpha  with
    C = levy_constant(d, alpha); equivalently 1/C is the constant in front
    of |z|^(-d-alpha) for the process with characteristic function
    exp(-t |xi|^alpha).
    """
    if not 0.0 < alpha < 2.0:
        raise ParameterError(f"levy_constant requires alpha in (0,2), got {alpha}")
    c = alpha * 2.0 ** (alpha - 1.0) * special.gamma((d + alpha) / 2.0)
    c /= np.pi ** (d / 2.0) * special.gamma(1.0 - alpha / 2.0)
    return 1.0 / c


@dataclass(frozen=True)
class JumpEvent:
    """One large jump: arrival time and mark with |mark| >= R."""

    time: float
    mark: np.ndarray


@dataclass(frozen=True)
class LevyModel:
    """Isotropic Levy measure specification with large-jump radius R.

    kind='isotropic_stable' uses nu(dz) = |z|^(-dim-alpha) dz (unit constant).
    kind='radial_table' tabulates the density f(|z|) of nu(dz) = f(|z|) dz at
    radii ``radii`` with piecewise-linear interpolation and zero outside the
    tabulated range.
    """

    kind: str = "isotropic_stable"
    alpha: float = 1.5
    dim: int = 1
    big_jump_radius: float = 1.0
    radii: np.ndarray | None = None
    densities: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("isotropic_stable", "radial_table"):
            raise ParameterError(f"unknown Levy model kind {self.kind!r}")
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ParameterError(f"dim must be a positive integer, got {self.dim}")
        if not self.big_jump_radius > 0:
            raise ParameterError("big_jump_radius must be > 0")
        if self.kind == "isotropic_stable":
            if not 0.0 < self.alpha < 2.0:
                raise ParameterError(f"isotropic_stable requires alpha in (0,2), got {self.alpha}")
        else:
            r = np.asarray(self.radii, dtype=float)
            f = np.asarray(self.densities, dtype=float)
            if r.ndim != 1 or r.shape != f.shape or r.size < 2:
                raise ParameterError("radial_table needs matching 1D radii/densities, >= 2 nodes")
            if np.any(np.diff(r) <= 0) or r[0] < 0:
                raise ParameterError("radial_table radii must be increasing and nonnegative")
            if np.any(f < 0) or not np.all(np.isfinite(f)):
                raise ParameterError("radial_table densities must be finite and nonnegative")
            object.__setattr__(self, "radii", r)
            object.__setattr__(self, "densities", f)
            # integrability check int (|z|^2 ^ 1) nu(dz) < inf; finite tables
            # can only fail through overflow of the radial density
            rule = shell_rule(self, r[0], r[-1])
            if not np.isfinite(rule.integrate(np.minimum(rule.nodes**2, 1.0))):
                raise ParameterError("radial_table fails the (|z|^2 ^ 1)-integrability check")

    # radial density of nu as a measure in the radius: m(r) dr, m = area * r^(d-1) f(r)
    def radial_intensity(self, r):
        r = np.asarray(r, dtype=float)
        area = sphere_area(self.dim)
        if self.kind == "isotropic_stable":
            with np.errstate(divide="ignore", over="ignore"):
                out = area * r ** (-1.0 - self.alpha)
            return out
        f = np.interp(r, self.radii, self.densities, left=0.0, right=0.0)
        return area * r ** (self.dim - 1) * f

    @cached_property
    def large_jumps(self):
        """The sampler of the large-jump marks, built once per model."""
        return ShellSampler(self, self.big_jump_radius, np.inf)

    def big_jump_rate(self):
        """nu(B_R^c), always finite for a valid model."""
        return self.large_jumps.rate


def _cms_symmetric(alpha, size, rng):
    """Chambers-Mallows-Stuck draw, char. function exp(-|xi|^alpha), alpha in (0,2)."""
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size)
    w = rng.exponential(1.0, size)
    if alpha == 1.0:
        return np.tan(u)
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    t = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return s * t


def _kanter_positive_stable(rho, size, rng):
    """Positive rho-stable with Laplace transform exp(-u^rho), rho in (0,1)."""
    th = rng.uniform(0.0, np.pi, size)
    w = rng.exponential(1.0, size)
    a = (np.sin(rho * th) ** rho * np.sin((1.0 - rho) * th) ** (1.0 - rho) / np.sin(th)) ** (
        1.0 / (1.0 - rho)
    )
    return (a / w) ** ((1.0 - rho) / rho)


def _stable_increments(alpha, dim, t, size, rng):
    """size independent increments of the symbol-normalized process at time t."""
    t = float(t)
    if t == 0.0:
        return np.zeros((size, dim))
    if alpha == 2.0:
        # exp(-t|xi|^2) is N(0, 2t I)
        return math.sqrt(2.0 * t) * rng.standard_normal((size, dim))
    if dim == 1:
        return (t ** (1.0 / alpha) * _cms_symmetric(alpha, size, rng))[:, None]
    s = _kanter_positive_stable(alpha / 2.0, size, rng)
    z = rng.standard_normal((size, dim))
    return np.sqrt(2.0 * t ** (2.0 / alpha) * s)[:, None] * z


def sample_isotropic_stable(model, t, rng):
    """One increment of the isotropic stable process, char. fn exp(-t|xi|^alpha).

    d=1 uses the Chambers-Mallows-Stuck transform; d>=2 subordinates a
    Brownian motion by a positive (alpha/2-)stable time (Kanter's sampler).
    alpha=2 is admitted as the Gaussian endpoint.
    """
    if model.kind != "isotropic_stable":
        raise ParameterError("sample_isotropic_stable requires an isotropic_stable model")
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    return _stable_increments(model.alpha, model.dim, t, 1, rng)[0]


class ShellSampler:
    """Marks from nu restricted to the shell {r1 <= |z| < r2}, normalized.

    ``rate`` is the shell's mass ``tail_mass(model, r1, r2, 0)``.  The radius
    comes by inverse CDF (closed form for the stable kind; for a table, the
    trapezoid masses of a grid that refines every table interval 64-fold), the
    direction uniformly from the sphere.
    """

    def __init__(self, model, r1, r2):
        self.model, self.r1, self.r2 = model, r1, r2
        self.rate = tail_mass(model, r1, r2, 0.0)
        if model.kind == "radial_table":
            hi = min(r2, model.radii[-1])
            edges = np.union1d([r1, max(r1, hi)], model.radii[(model.radii > r1) & (model.radii < hi)])
            steps = np.linspace(0.0, 1.0, 65)[:-1]
            fine = np.append((edges[:-1, None] + np.diff(edges)[:, None] * steps).ravel(), edges[-1])
            mass = integrate.cumulative_trapezoid(model.radial_intensity(fine), fine, initial=0.0)
            self._fine, self._mass = fine, mass

    def radii(self, n, rng):
        u = rng.random(n)
        if self.model.kind == "isotropic_stable":
            a = self.model.alpha
            lo, hi = self.r1 ** (-a), self.r2 ** (-a)
            return (lo - u * (lo - hi)) ** (-1.0 / a)
        if not self._mass[-1] > 0:
            raise ParameterError(f"radial_table carries no mass on the shell [{self.r1}, {self.r2})")
        return np.interp(u * self._mass[-1], self._mass, self._fine)

    def marks(self, n, rng):
        """n marks, shape (n, dim): radii first, then directions."""
        radii = self.radii(n, rng)
        if self.model.dim == 1:
            return (radii * np.where(rng.random(n) < 0.5, -1.0, 1.0))[:, None]
        v = rng.standard_normal((n, self.model.dim))
        return radii[:, None] * v / np.linalg.norm(v, axis=1, keepdims=True)


class JumpTrain(Sequence):
    """Large jumps as flat arrays, ordered by path and by time within a path.

    Path i owns entries ``offsets[i]:offsets[i + 1]`` of ``times`` (n,) and
    ``marks`` (n, dim); a train of one path indexes as ``JumpEvent``s.
    """

    def __init__(self, times, marks, offsets=None):
        self.times, self.marks = times, marks
        self.offsets = np.array([0, len(times)]) if offsets is None else offsets

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        return JumpEvent(float(self.times[i]), self.marks[i])

    def windows(self, n_paths, window):
        """Cut a train over [0, n_paths * window) into n_paths paths: path i owns
        [i * window, (i + 1) * window), with local times clipped into [0, window)."""
        path = np.minimum(self.times // window, n_paths - 1).astype(np.int64)
        local = np.clip(self.times - path * window, 0.0, np.nextafter(window, 0.0))
        return JumpTrain(local, self.marks, np.searchsorted(path, np.arange(n_paths + 1)))


def sample_large_jumps(model, horizon, rng):
    """The large jumps over [0, horizon) as a one-path ``JumpTrain``.

    Arrival times are a Poisson process with rate nu(B_R^c); marks are i.i.d.
    from the normalized restriction of nu to {|z| >= R}.
    """
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    sampler = model.large_jumps
    n = rng.poisson(sampler.rate * horizon) if sampler.rate > 0.0 and horizon > 0.0 else 0
    if n == 0:
        return JumpTrain(np.empty(0), np.empty((0, model.dim)))
    times = np.sort(rng.uniform(0.0, horizon, n))
    return JumpTrain(times, sampler.marks(n, rng))


def stable_increment_batch(model, t, n, rng):
    """n independent draws of sample_isotropic_stable, shape (n, dim)."""
    if model.kind != "isotropic_stable":
        raise ParameterError("stable_increment_batch requires an isotropic_stable model")
    if t < 0:
        raise ParameterError(f"time must be >= 0, got {t}")
    return _stable_increments(model.alpha, model.dim, t, n, rng)


def tail_mass(model, r1, r2, moment):
    """int_{r1 <= |z| < r2} |z|^moment nu(dz): closed form for the stable kind,
    the nu-quadrature rule for tables.

    Raises DivergenceError naming the offending endpoint when the integral is
    infinite; for the stable measure that happens at r1=0 unless moment > alpha
    and at r2=inf unless moment < alpha.
    """
    if not (0 <= r1 <= r2):
        raise ParameterError(f"need 0 <= r1 <= r2, got r1={r1}, r2={r2}")
    if moment < 0:
        raise ParameterError(f"moment must be >= 0, got {moment}")
    if r1 == r2:
        return 0.0
    if model.kind == "radial_table":
        rule = shell_rule(model, r1, r2)
        return float(rule.integrate(np.abs(rule.nodes) ** moment))
    # radial integrand area * r^(expo - 1)
    expo = moment - model.alpha
    if r1 == 0.0 and expo <= 0.0:
        raise DivergenceError(
            f"tail_mass diverges at r1=0: need moment > alpha, got moment={moment}, alpha={model.alpha}"
        )
    if np.isinf(r2) and expo >= 0.0:
        raise DivergenceError(
            f"tail_mass diverges at r2=inf: need moment < alpha, got moment={moment}, alpha={model.alpha}"
        )
    area = sphere_area(model.dim)
    if expo == 0.0:
        return float(area * math.log(r2 / r1))
    # the screens above leave only the vanishing powers 0^expo and inf^expo
    return float(area * (r2**expo - r1**expo) / expo)


class ShellRule:
    """Quadrature for integrals against nu over a shell {r1 <= |z| < r2}.

    ``integrate(f(nodes))`` approximates int f(z) nu(dz): one product with
    ``weights``, plus a power-law remainder at each open end of the stable
    measure, whose exponent ``end_exponents`` reads off two zero-weight probe
    nodes.  In d = 1 the nodes are the signed points +-s, with half the radial
    weight each; in d >= 2 they are radii and f must be radial.
    """

    def __init__(self, model, edges, open_lo=False, open_hi=False):
        self.model, self.edges = model, np.asarray(edges, dtype=float)
        self.open_lo, self.open_hi = open_lo, open_hi
        lo, hi = self.edges[:-1], self.edges[1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        radii = (mid[:, None] + half[:, None] * _GL[0]).ravel()
        weights = (half[:, None] * _GL[1]).ravel() * model.radial_intensity(radii)
        a, b = self.edges[0], self.edges[-1]
        probes = [a, PROBE_RATIO * a] * open_lo + [b / PROBE_RATIO, b] * open_hi
        radii = np.concatenate([probes, radii])
        weights = np.concatenate([np.zeros(len(probes)), weights])
        self._probes = np.arange(len(probes))[:, None]
        if model.dim == 1:
            self._probes = np.hstack([self._probes, self._probes + len(radii)])
            radii, weights = np.concatenate([radii, -radii]), np.concatenate([weights, weights]) / 2.0
        self.nodes, self.weights = radii, weights

    def _at_probes(self, values):
        # mean over the directions of each probe radius: (..., n_probes)
        return np.asarray(values, dtype=float)[..., self._probes].mean(axis=-1)

    def end_exponents(self, values):
        """Local power-law exponents (lo, hi) of the direction-averaged values at the
        open ends; None for a closed end, NaN where they vanish at both probes."""
        at = np.abs(self._at_probes(values))

        def slope(a, b):
            e = np.log(np.maximum(b, 1e-300) / np.maximum(a, 1e-300)) / math.log(PROBE_RATIO)
            return np.where(np.maximum(a, b) > 1e-250, e, np.nan)

        return (
            slope(at[..., 0], at[..., 1]) if self.open_lo else None,
            slope(at[..., -2], at[..., -1]) if self.open_hi else None,
        )

    def integrate(self, values):
        """int f nu(dz) over the shell from f at the nodes; batch axes lead."""
        values = np.asarray(values, dtype=float)
        total = values @ self.weights
        at, alpha = self._at_probes(values), self.model.alpha
        # beyond a cut r, f ~ f(r) (s/r)^e against area s^(-1-alpha) ds gives
        # f(r) area r^(-alpha) / gap, gap = e - alpha at 0 and alpha - e at inf
        for e, sign, k, end in zip(self.end_exponents(values), (1.0, -1.0), (0, -1), ("0", "inf")):
            if e is None:
                continue
            gap = sign * (e - alpha)
            live = np.isfinite(gap)
            if np.any(live & (gap <= 0.0)):
                raise DivergenceError(
                    f"integral against nu diverges at |z| -> {end}: the local exponent "
                    f"misses alpha = {alpha} by {float(np.nanmin(gap)):.3g}"
                )
            scale = sphere_area(self.model.dim) * self.edges[k] ** (-alpha)
            total = total + np.where(live, at[..., k] * scale / np.where(live, gap, 1.0), 0.0)
        return total


def shell_rule(model, r1, r2):
    """The nu-quadrature rule for {r1 <= |z| < r2}; see ``ShellRule``.

    Panels are log-spaced, ``PANELS_PER_DECADE`` to a decade, with the radii of
    a table (clipped to its support) as extra edges and a linear first panel
    from 0.  The stable measure's open ends are cut at RULE_LO and RULE_HI.
    """
    if not (0 <= r1 <= r2):
        raise ParameterError(f"need 0 <= r1 <= r2, got r1={r1}, r2={r2}")
    breaks = np.empty(0)
    open_lo = open_hi = False
    if model.kind == "isotropic_stable":
        open_lo, open_hi = r1 == 0.0, bool(np.isinf(r2))
        lo = min(RULE_LO, r2) if open_lo else r1
        hi = max(RULE_HI, lo) if open_hi else r2
    else:
        lo, hi = max(r1, model.radii[0]), min(r2, model.radii[-1])
        breaks = model.radii[(model.radii > lo) & (model.radii < hi)]
    if not hi > lo:
        return ShellRule(model, [lo], open_lo, open_hi)
    first = lo if lo > 0 else (breaks[0] if len(breaks) else hi)
    n = max(1, math.ceil(PANELS_PER_DECADE * math.log10(hi / first) - 1e-9))
    edges = np.union1d(np.geomspace(first, hi, n + 1), breaks)
    if lo == 0:
        edges = np.concatenate([[0.0], edges])
    return ShellRule(model, edges, open_lo, open_hi)
