"""Path simulation: Euler-Maruyama with compensated small jumps, interlacing.

The engine advances a whole batch of paths on a jump-adapted grid: large-jump
times are spliced into the uniform base grid exactly, the small-jump band
eps <= |z| < R enters each step as a compound-Poisson sum with its compensator
subtracted, and jumps below eps are either dropped or replaced by a variance-
matched Gaussian.  For multiplicative jump coefficients g(x, z) = sigma_bar(x) z
driven by isotropic stable noise, ``exact_stable`` mode instead feeds the step
an exact stable increment (large jumps included, compensator folded in by
symmetry), bypassing the interlacing split entirely.

Array layout: the large jumps of W paths over [0, T) are one Poisson process
on [0, W T) whose i-th window belongs to path i, held as a ``JumpTrain`` (flat
times and marks with per-path offsets).  Each base step takes one substep over
all paths; the paths that jump in it are spliced by one g call, and only those
still short of the step's end substep again.  The band jumps of a substep are
one flat draw over all paths, summed per path with ``np.bincount``.

Determinism: every simulation is keyed by a seed (int or SeedSequence) from
which a (flow, jumps) stream pair is derived; the ensemble keys chunk i of
``CHUNK_SIZE`` paths by (master_seed, i), so results are bit-identical across
runs and across worker counts.  A one-path train is the single-path draw, so a
one-path ensemble equals ``simulate_interlaced`` on the chunk's seed, and an
interlaced run whose jump stream drew no events consumes exactly the flow
draws of the small-jump simulator (DECISIONS.md).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from levylab.errors import ParameterError, TruncationError
from levylab.levy_noise import JumpTrain, ShellSampler, levy_constant, sample_large_jumps, shell_rule, tail_mass, _stable_increments

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
        self.sampler = ShellSampler(p.levy, self.eps, self.big_r)
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
            # all band jumps of the substep in one flat draw, summed per owning path
            counts = rng.poisson(band.sampler.rate * dtv)
            n = int(counts.sum())
            if n:
                owner = np.repeat(np.arange(W), counts)
                marks = band.sampler.marks(n, rng)
                gval = np.reshape(p.g(t, x_arg[owner], marks[:, 0] if d == 1 else marks), (n, d))
                for j in range(d):
                    upd[:, j] += np.bincount(owner, weights=gval[:, j], minlength=W)
            comp = band.compensator(t, x_arg)
            if comp is not None:
                upd -= np.reshape(comp, (W, d)) * dtv[:, None]
            if band.gauss:
                sb = np.asarray(p.sigma_bar(t, x_arg), dtype=float).reshape(W)
                var = sb**2 * band.gauss_var_unit
                upd += np.sqrt(var * dtv)[:, None] * rng.standard_normal((W, d))

        return np.where(alive[:, None], X + upd, X)

    def run(self, x0, t0, t1, rng, jumps=None):
        """Advance paths x0 (W, d) from t0 to t1; ``jumps`` is a W-path JumpTrain or None."""
        p = self.p
        X = np.array(x0, dtype=float, copy=True)
        W, d = X.shape
        exploded_at = np.full(W, np.nan)
        absorbed_at = np.full(W, np.nan)
        alive = np.ones(W, dtype=bool)
        paths = np.arange(W)

        # per-path cursor into the flat jump arrays; index n past the end reads inf
        if jumps is None:
            jumps = JumpTrain(np.empty(0), np.empty((0, d)), np.zeros(W + 1, dtype=np.int64))
        jump_times = np.append(jumps.times, np.inf)
        cursor, ends = jumps.offsets[:-1].copy(), jumps.offsets[1:]

        def next_time(rows):
            return jump_times[np.where(cursor[rows] < ends[rows], cursor[rows], len(jumps))]

        next_jump = next_time(paths)

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

        def check_explode(t_now, rows):
            Xr = X[rows]
            bad = alive[rows] & (~np.all(np.isfinite(Xr), axis=1) | (np.max(np.abs(Xr), axis=1) > EXPLOSION_BOUND))
            if np.any(bad):
                exploded_at[rows] = np.where(bad, t_now, exploded_at[rows])
                alive[rows] &= ~bad
            if self.absorb is not None:
                lo, hi = self.absorb
                out = alive[rows] & ((Xr[:, 0] <= lo) | (Xr[:, 0] >= hi))
                if np.any(out):
                    absorbed_at[rows] = np.where(out, t_now, absorbed_at[rows])
                    alive[rows] &= ~out

        t_cur = np.full(W, float(grid[0]))
        every = slice(None)
        for k in range(1, len(grid)):
            target = float(grid[k])
            # every path takes the first substep; after a splice only the paths
            # still short of the target (or with a further jump at it) go on
            rows = every
            while True:
                stop = np.minimum(next_jump[rows], target)
                dtv = np.maximum(stop - t_cur[rows], 0.0)
                live = alive[rows]
                step = self.substep(X[rows], float(np.min(t_cur[rows])), dtv, rng, live)
                # the full-width pass rebinds X: copying into it made an
                # exact_stable run of 32768 paths 25-30% slower
                if rows is every:
                    X = step
                else:
                    X[rows] = step
                t_cur[rows] = np.where(live, stop, t_cur[rows])
                check_explode(target, rows)
                if integral is not None:
                    f_new = self._eval_f(target, X[rows])
                    trap = 0.5 * dtv[:, None] * (f_prev[rows] + f_new)
                    integral[rows] = np.where(alive[rows][:, None], integral[rows] + trap, integral[rows])
                    f_prev[rows] = f_new
                jumping = alive[rows] & (next_jump[rows] <= target)
                if not np.any(jumping):
                    break
                jw = paths[rows][jumping]
                if self.record and W == 1:
                    rec_times.append(float(next_jump[0]))
                    rec_states.append(X.copy())
                    rec_isjump.append(False)
                # the splice: one g call over every path that jumps in this step
                at = cursor[jw]
                tj = jump_times[at] if d == 1 else jump_times[at][:, None]
                xw = X[jw, 0] if d == 1 else X[jw]
                mk = jumps.marks[at, 0] if d == 1 else jumps.marks[at]
                X[jw] += np.reshape(p.g(tj, xw, mk), (len(jw), d))
                cursor[jw] += 1
                next_jump[jw] = next_time(jw)
                check_explode(target, jw)
                if integral is not None:
                    f_prev[jw] = self._eval_f(target, X[jw])
                if self.record and W == 1:
                    rec_times.append(rec_times[-1])
                    rec_states.append(X.copy())
                    rec_isjump.append(True)
                rows = jw[alive[jw] & ((t_cur[jw] < target) | (next_jump[jw] <= target))]
                if not len(rows):
                    break
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


def _draw_jumps(p, cfg, n_paths, horizon, rng):
    """The large jumps of n_paths paths over [0, horizon): one Poisson process on
    [0, n_paths * horizon), whose i-th window belongs to path i.  None when the
    scheme splices no large jumps."""
    if cfg.exact_stable or not p.has_jumps:
        return None
    return sample_large_jumps(p.levy, n_paths * horizon, rng).windows(n_paths, horizon)


def _run_chunk(eng, x0s, horizon, master_seed, ci):
    """Chunk ci of an ensemble: its streams are keyed by (master_seed, ci)."""
    flow, jrng = _streams(np.random.SeedSequence(entropy=master_seed, spawn_key=(ci,)))
    return eng.run(x0s, 0.0, horizon, flow, _draw_jumps(eng.p, eng.cfg, len(x0s), horizon, jrng))


def simulate_small_jump_path(p, x0, t0, t1, cfg, seed):
    """Simulate the dynamics carrying only the compensated jumps below R.

    The driving Poisson measure is restricted to |z| < R (no large jumps);
    ``simulate_interlaced`` splices the large jumps on top of this flow.
    """
    if t0 > t1:
        raise ParameterError(f"need t0 <= t1, got {t0} > {t1}")
    flow, _ = _streams(seed)
    return _finish_single(p, cfg, x0, t0, t1, flow, None)


def simulate_interlaced(p, x0, horizon, cfg, seed):
    """Simulate the full equation by splicing large jumps into the small-jump flow.

    Large-jump times come from a Poisson process with rate nu(B_R^c); between
    them the small-jump flow runs, and at each arrival the state moves by
    g(tau, state(tau-), mark) exactly.  In ``exact_stable`` mode the whole
    jump integral is carried by exact stable increments instead and the event
    list stays empty.
    """
    flow, jrng = _streams(seed)
    return _finish_single(p, cfg, x0, 0.0, horizon, flow, _draw_jumps(p, cfg, 1, horizon, jrng))


def _finish_single(p, cfg, x0, t0, t1, flow, jumps):
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    eng = _Engine(p, cfg, record=True)
    res = eng.run(x0.reshape(1, -1), t0, t1, flow, jumps)
    exploded = res["exploded_at"][0]
    return PathSample(
        times=res["times"],
        states=res["states"],
        events=list(jumps or []),
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
    (master_seed, i), its large jumps as one windowed train; per-path outputs are stored by index and reductions run
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
    eng = _Engine(p, cfg, snapshot_times=snapshot_times, integrand=time_integrand)

    def run_chunk(ci):
        lo = starts[ci]
        return ci, _run_chunk(eng, x0s[lo : lo + CHUNK_SIZE], horizon, master_seed, ci)

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
