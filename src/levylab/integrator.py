"""Path simulation: Euler-Maruyama with compensated small jumps, interlacing.

The engine advances a whole batch of paths on a jump-adapted grid: large-jump
times are spliced into the uniform base grid exactly, the small-jump band
eps <= |z| < R enters each step as a compound-Poisson sum with its compensator
subtracted, and jumps below eps are either dropped or replaced by a variance-
matched Gaussian.  For multiplicative jump coefficients g(x, z) = sigma_bar(x) z
driven by isotropic stable noise, ``exact_stable`` mode instead feeds the step
an exact stable increment (large jumps included, compensator folded in by
symmetry), bypassing the interlacing split entirely.

Determinism: every simulation is keyed by a seed (int or SeedSequence) from
which a (flow, jumps) stream pair is derived; the ensemble keys chunk i of
``CHUNK_SIZE`` paths by (master_seed, i), so results are bit-identical across
runs and across worker counts, and an interlaced run whose jump stream drew
no events consumes exactly the flow draws of the small-jump simulator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from levylab.errors import ParameterError, TruncationError
from levylab.levy_noise import levy_constant, sample_large_jumps, shell_rule, tail_mass, _stable_increments

__all__ = [
    "StepConfig",
    "PathSample",
    "Ensemble",
    "simulate_small_jump_path",
    "simulate_interlaced",
    "simulate_ensemble",
    "path_to_csv",
    "CHUNK_SIZE",
]

EXPLOSION_BOUND = 1e12
CHUNK_SIZE = 16384


@dataclass
class StepConfig:
    """Discretization layer: base step, small-jump handling, step budget."""

    dt: float = 1e-3
    small_jump_cutoff: float | None = None  # defaults to R/32
    gaussian_correction: bool = False
    max_steps: int = 10_000_000
    exact_stable: bool = False

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError(f"dt must be > 0, got {self.dt}")

    def cutoff(self, levy):
        if levy is None:
            return None
        eps = self.small_jump_cutoff
        if eps is None:
            eps = levy.big_jump_radius / 32.0
        if not 0 < eps <= levy.big_jump_radius:
            raise ParameterError(f"small_jump_cutoff must lie in (0, R], got {eps}")
        return eps


@dataclass
class PathSample:
    """One simulated path on its jump-adapted grid.

    Large-jump times appear twice: once with the pre-jump state and once with
    the post-jump state (``isjump`` True), so the splice identity
    state(tau) = state(tau-) + g(tau, state(tau-), mark) is checkable exactly.
    """

    times: np.ndarray
    states: np.ndarray
    events: list = field(default_factory=list)
    exploded_at: float | None = None
    isjump: np.ndarray | None = None

    @property
    def terminal(self):
        return self.states[-1]


@dataclass
class Ensemble:
    """Seeded collection of paths reduced in fixed path order."""

    terminal: np.ndarray
    exploded_at: np.ndarray
    snapshot_times: np.ndarray | None = None
    snapshots: np.ndarray | None = None  # (n_snapshots, n_paths, dim)
    integrals: np.ndarray | None = None
    n_paths: int = 0
    master_seed: int | None = None

    @property
    def explosion_rate(self):
        return float(np.mean(np.isfinite(self.exploded_at)))


def _as_seedseq(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _streams(seed):
    """Derive the (flow, jumps) child streams every simulator shares."""
    flow_ss, jump_ss = _as_seedseq(seed).spawn(2)
    return np.random.default_rng(flow_ss), np.random.default_rng(jump_ss)


class _SmallJumpBand:
    """Per-problem machinery for the compensated band eps <= |z| < R."""

    def __init__(self, p, cfg):
        self.active = p.has_jumps
        if not self.active:
            return
        self.p = p
        self.model = p.levy
        self.eps = cfg.cutoff(p.levy)
        self.big_r = p.levy.big_jump_radius
        self.rate = tail_mass(p.levy, self.eps, self.big_r, 0.0)
        self.gauss = cfg.gaussian_correction
        # odd jump coefficients against the symmetric measure have a vanishing
        # band compensator; probed numerically once
        self.odd = self._probe_odd(p)
        if not self.odd:
            if p.dim != 1:
                raise ParameterError("a jump coefficient that is not odd in z needs dim=1")
            self.rule = shell_rule(self.model, self.eps, self.big_r)
        if self.gauss:
            if p.sigma_bar is None:
                raise ParameterError(
                    "gaussian_correction needs a multiplicative jump coefficient (sigma_bar)"
                )
            self.gauss_var_unit = tail_mass(p.levy, 0.0, self.eps, 2.0) / p.levy.dim
        if self.model.kind == "radial_table":
            fine = np.linspace(self.eps, self.big_r, 2048)
            dens = self.model.radial_intensity(fine)
            mass = np.concatenate([[0.0], np.cumsum(np.diff(fine) * 0.5 * (dens[1:] + dens[:-1]))])
            self._fine, self._mass = fine, mass

    def _probe_odd(self, p):
        if p.sigma_bar is not None:
            return True
        probe_x = np.array([0.3, -0.7, 1.9])
        if p.dim > 1:
            probe_x = np.tile(probe_x[:, None], (1, p.dim))
        for z in (0.2, 0.9 * self.big_r):
            zz = np.full_like(probe_x, z)
            if not np.allclose(p.g(0.0, probe_x, zz), -p.g(0.0, probe_x, -zz), atol=1e-12):
                return False
        return True

    def sample_radii(self, n, rng):
        u = rng.random(n)
        if self.model.kind == "isotropic_stable":
            a = self.model.alpha
            lo, hi = self.eps ** (-a), self.big_r ** (-a)
            return (lo - u * (lo - hi)) ** (-1.0 / a)
        return np.interp(u * self._mass[-1], self._mass, self._fine)

    def compensator(self, t, x):
        """int_{eps<=|z|<R} g(t,x,z) nu(dz), zero for odd g (symmetric nu)."""
        if self.odd:
            return None
        return self.rule.integrate(self.p.g_pairs(t, x, self.rule.nodes)).reshape(np.shape(x))


class _Engine:
    """Vectorized stepping over one chunk of paths."""

    def __init__(self, p, cfg, record=False, snapshot_times=None, integrand=None, absorb=None):
        self.p = p
        self.cfg = cfg
        self.record = record
        self.snapshot_times = (
            None if snapshot_times is None else np.sort(np.asarray(snapshot_times, dtype=float))
        )
        self.integrand = integrand
        self.absorb = absorb  # (lo, hi): kill on exit, checked at grid and jump times
        self.exact = cfg.exact_stable
        if self.exact:
            if p.sigma_bar is None or p.levy is None or p.levy.kind != "isotropic_stable":
                raise ParameterError(
                    "exact_stable mode needs a multiplicative jump coefficient and isotropic stable noise"
                )
            self.exact_scale = levy_constant(p.levy.dim, p.levy.alpha)
            self.band = None
        else:
            self.band = _SmallJumpBand(p, cfg)

    def _eval_f(self, t, X):
        # integrands may be vector-valued: (W,) or (W, m) accepted
        x_arg = X[:, 0] if self.p.dim == 1 else X
        out = np.asarray(self.integrand(t, x_arg), dtype=float)
        return out[:, None] if out.ndim == 1 else out

    def substep(self, X, t, dtv, rng, alive):
        """One Euler substep over per-path interval lengths dtv (frozen state)."""
        p = self.p
        W, d = X.shape
        dtv = np.where(alive, dtv, 0.0)
        Xs = np.where(alive[:, None], X, 0.0)
        x_arg = Xs[:, 0] if d == 1 else Xs
        upd = np.zeros_like(X)

        # singular coefficients carry their own |x| v eps floor (sign(0) = 0
        # semantics); an engine-side floor would kick exact-zero states
        upd += np.reshape(p.b(t, x_arg), (W, d)) * dtv[:, None]

        if p.sigma is not None:
            z = rng.standard_normal((W, d))
            sig = np.asarray(p.sigma_eval(t, x_arg), dtype=float)
            root = np.sqrt(dtv)
            if sig.ndim <= 1:
                upd += sig.reshape(W, 1) * root[:, None] * z
            else:
                upd += np.einsum("nij,nj->ni", sig, z) * root[:, None]

        if self.exact:
            dl = _stable_increments(p.levy.alpha, d, 1.0, W, rng)
            scale = (self.exact_scale * dtv) ** (1.0 / p.levy.alpha)
            sb = np.asarray(p.sigma_bar(t, x_arg), dtype=float).reshape(W)
            upd += sb[:, None] * scale[:, None] * dl
        elif self.band is not None and self.band.active:
            band = self.band
            counts = rng.poisson(band.rate * dtv)
            kmax = int(counts.max()) if W else 0
            for k in range(kmax):
                radii = band.sample_radii(W, rng)
                if d == 1:
                    dirs = np.where(rng.random(W) < 0.5, -1.0, 1.0)[:, None]
                else:
                    v = rng.standard_normal((W, d))
                    dirs = v / np.linalg.norm(v, axis=1, keepdims=True)
                marks = radii[:, None] * dirs
                gval = np.reshape(p.g(t, x_arg, marks[:, 0] if d == 1 else marks), (W, d))
                upd += np.where((counts > k)[:, None], gval, 0.0)
            comp = band.compensator(t, x_arg)
            if comp is not None:
                upd -= np.reshape(comp, (W, d)) * dtv[:, None]
            if band.gauss:
                sb = np.asarray(p.sigma_bar(t, x_arg), dtype=float).reshape(W)
                var = sb**2 * band.gauss_var_unit
                upd += np.sqrt(var * dtv)[:, None] * rng.standard_normal((W, d))

        return np.where(alive[:, None], X + upd, X)

    def run(self, x0, t0, t1, rng, events):
        p = self.p
        X = np.array(x0, dtype=float, copy=True)
        W, d = X.shape
        exploded_at = np.full(W, np.nan)
        alive = np.ones(W, dtype=bool)

        ptr = np.zeros(W, dtype=int)
        next_jump = np.array([ev[0].time if ev else np.inf for ev in events])

        n_steps = int(math.ceil((t1 - t0) / self.cfg.dt - 1e-12)) if t1 > t0 else 0
        if n_steps > self.cfg.max_steps:
            raise TruncationError(
                f"{n_steps} steps exceed max_steps={self.cfg.max_steps}; raise dt or max_steps"
            )
        grid = t0 + self.cfg.dt * np.arange(n_steps + 1)
        if n_steps:
            grid[-1] = t1
        snap_keys = {}
        if self.snapshot_times is not None:
            sel = self.snapshot_times[(self.snapshot_times > t0) & (self.snapshot_times <= t1)]
            grid = np.union1d(grid, sel)
            keep = np.concatenate([[True], np.diff(grid) > 1e-9 * self.cfg.dt])
            grid = grid[keep]
            for s in sel:
                snap_keys[float(grid[np.argmin(np.abs(grid - s))])] = float(s)

        rec_times, rec_states, rec_isjump = [t0], [X.copy()], [False]
        snaps = {}
        f_prev = self._eval_f(t0, X) if self.integrand is not None else None
        integral = np.zeros_like(f_prev) if self.integrand is not None else None
        absorbed_at = np.full(W, np.nan)

        def check_explode(t_now):
            nonlocal exploded_at, alive, absorbed_at
            bad = alive & (
                ~np.all(np.isfinite(X), axis=1) | (np.max(np.abs(X), axis=1) > EXPLOSION_BOUND)
            )
            if np.any(bad):
                exploded_at = np.where(bad, t_now, exploded_at)
                alive = alive & ~bad
            if self.absorb is not None:
                lo, hi = self.absorb
                out = alive & ((X[:, 0] <= lo) | (X[:, 0] >= hi))
                if np.any(out):
                    absorbed_at = np.where(out, t_now, absorbed_at)
                    alive = alive & ~out

        t_cur = np.full(W, float(grid[0]))
        for k in range(1, len(grid)):
            target = float(grid[k])
            while True:
                stop = np.minimum(next_jump, target)
                dtv = np.maximum(stop - t_cur, 0.0)
                X = self.substep(X, float(np.min(t_cur)), dtv, rng, alive)
                t_cur = np.where(alive, stop, t_cur)
                check_explode(target)
                if integral is not None:
                    f_new = self._eval_f(target, X)
                    integral[alive] += (0.5 * dtv[:, None] * (f_prev + f_new))[alive]
                    f_prev = f_new
                jumping = alive & (next_jump <= target)
                if not np.any(jumping):
                    break
                if self.record and W == 1 and jumping[0]:
                    rec_times.append(float(next_jump[0]))
                    rec_states.append(X.copy())
                    rec_isjump.append(False)
                for w in np.nonzero(jumping)[0]:
                    ev = events[w][ptr[w]]
                    xw = X[w : w + 1, 0] if d == 1 else X[w : w + 1]
                    mark = np.asarray(ev.mark, dtype=float).reshape(-1)
                    gv = p.g(ev.time, xw, mark[0:1] if d == 1 else mark[None, :])
                    X[w] = X[w] + np.reshape(gv, (d,))
                    ptr[w] += 1
                    next_jump[w] = events[w][ptr[w]].time if ptr[w] < len(events[w]) else np.inf
                check_explode(target)
                if integral is not None:
                    f_prev = self._eval_f(target, X)
                if self.record and W == 1 and jumping[0]:
                    rec_times.append(rec_times[-1])
                    rec_states.append(X.copy())
                    rec_isjump.append(True)
            if self.record and W == 1:
                rec_times.append(target)
                rec_states.append(X.copy())
                rec_isjump.append(False)
            if target in snap_keys:
                snaps[snap_keys[target]] = X.copy()

        out = {
            "X": X,
            "exploded_at": exploded_at,
            "absorbed_at": absorbed_at,
            "snaps": snaps,
            "integral": integral,
        }
        if self.record and W == 1:
            out["times"] = np.array(rec_times)
            out["states"] = np.concatenate(rec_states, axis=0)
            out["isjump"] = np.array(rec_isjump)
        return out


def simulate_small_jump_path(p, x0, t0, t1, cfg, seed):
    """Simulate the dynamics carrying only the compensated jumps below R.

    The driving Poisson measure is restricted to |z| < R (no large jumps);
    ``simulate_interlaced`` splices the large jumps on top of this flow.
    """
    if t0 > t1:
        raise ParameterError(f"need t0 <= t1, got {t0} > {t1}")
    flow, _ = _streams(seed)
    return _finish_single(p, cfg, x0, t0, t1, flow, events=None)


def simulate_interlaced(p, x0, horizon, cfg, seed):
    """Simulate the full equation by splicing large jumps into the small-jump flow.

    Large-jump times come from a Poisson process with rate nu(B_R^c); between
    them the small-jump flow runs, and at each arrival the state moves by
    g(tau, state(tau-), mark) exactly.  In ``exact_stable`` mode the whole
    jump integral is carried by exact stable increments instead and the event
    list stays empty.
    """
    flow, jumps = _streams(seed)
    events = None
    if not cfg.exact_stable and p.has_jumps:
        events = sample_large_jumps(p.levy, horizon, jumps)
    return _finish_single(p, cfg, x0, 0.0, horizon, flow, events=events)


def _finish_single(p, cfg, x0, t0, t1, flow, events):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    eng = _Engine(p, cfg, record=True)
    res = eng.run(x0.reshape(1, -1), t0, t1, flow, events=[events or []])
    exploded = res["exploded_at"][0]
    return PathSample(
        times=res["times"],
        states=res["states"],
        events=list(events or []),
        exploded_at=None if np.isnan(exploded) else float(exploded),
        isjump=res["isjump"],
    )


def simulate_ensemble(
    p,
    x0s,
    horizon,
    cfg,
    n_paths,
    master_seed,
    snapshot_times=None,
    time_integrand=None,
    threads=None,
):
    """Simulate n_paths independent interlaced paths, reduced in path order.

    Chunk i of ``CHUNK_SIZE`` paths draws from the stream keyed by
    (master_seed, i); per-path outputs are stored by index and reductions run
    over the indexed arrays in fixed order, so the result is bit-identical
    for a fixed master_seed at any worker count.  ``time_integrand`` f(t, x)
    is accumulated pathwise by trapezoid on the jump-adapted grid.
    """
    if n_paths < 1:
        raise ParameterError(f"n_paths must be >= 1, got {n_paths}")
    master_seed = int(master_seed)
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim == 0:
        x0s = np.full((n_paths, p.dim), float(x0s))
    elif x0s.ndim == 1 and p.dim == 1 and len(x0s) == n_paths:
        x0s = x0s[:, None]
    elif x0s.ndim == 1 and len(x0s) == p.dim:
        x0s = np.tile(x0s[None, :], (n_paths, 1))
    if x0s.shape != (n_paths, p.dim):
        raise ParameterError(f"x0s has shape {x0s.shape}, expected ({n_paths}, {p.dim})")

    snapshot_times = (
        None if snapshot_times is None else np.sort(np.asarray(snapshot_times, dtype=float))
    )
    starts = list(range(0, n_paths, CHUNK_SIZE))
    draw_events = not cfg.exact_stable and p.has_jumps

    def run_chunk(ci):
        lo = starts[ci]
        hi = min(lo + CHUNK_SIZE, n_paths)
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(ci,))
        flow_ss, jump_ss = ss.spawn(2)
        flow = np.random.default_rng(flow_ss)
        jrng = np.random.default_rng(jump_ss)
        if draw_events:
            events = [sample_large_jumps(p.levy, horizon, jrng) for _ in range(hi - lo)]
        else:
            events = [[] for _ in range(hi - lo)]
        eng = _Engine(p, cfg, record=False, snapshot_times=snapshot_times, integrand=time_integrand)
        return ci, eng.run(x0s[lo:hi], 0.0, horizon, flow, events=events)

    results = [None] * len(starts)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for ci, res in pool.map(run_chunk, range(len(starts))):
                results[ci] = res
    else:
        for ci in range(len(starts)):
            _, results[ci] = run_chunk(ci)

    terminal = np.concatenate([r["X"] for r in results], axis=0)
    exploded = np.concatenate([r["exploded_at"] for r in results])
    snaps = None
    if snapshot_times is not None:
        snaps = np.stack(
            [
                np.concatenate([r["snaps"][float(t)] for r in results], axis=0)
                for t in snapshot_times
            ]
        )
    integrals = None
    if time_integrand is not None:
        integrals = np.concatenate([r["integral"] for r in results], axis=0)
        if integrals.shape[1] == 1:
            integrals = integrals[:, 0]
    return Ensemble(
        terminal=terminal,
        exploded_at=exploded,
        snapshot_times=snapshot_times,
        snapshots=snaps,
        integrals=integrals,
        n_paths=n_paths,
        master_seed=master_seed,
    )


def path_to_csv(sample, fileobj, path_id=0):
    """Dump one path as CSV rows (path_id, t, x_1..x_d, is_jump)."""
    d = sample.states.shape[1]
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["path_id", "t"] + [f"x_{i+1}" for i in range(d)] + ["is_jump"])
    for i in range(len(sample.times)):
        if sample.isjump is not None:
            flag = int(sample.isjump[i])
        else:
            flag = int(i > 0 and sample.times[i] == sample.times[i - 1])
        writer.writerow(
            [path_id, format(float(sample.times[i]), ".17g")]
            + [format(float(v), ".17g") for v in sample.states[i]]
            + [flag]
        )
