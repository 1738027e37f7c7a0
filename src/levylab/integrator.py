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
still short of the step's end substep again.  While every path lives and no
large jump falls in a base step, its substep takes one scalar step length and
no alive mask.

The band jumps of a base step are one draw over all W paths: a Poisson(rate dt
W) total, a uniform owning path for each, and their marks.  A path with a
large jump in the step gives each of its band jumps a uniform time; those
before the jump enter the full-width substep, the rest the substep that
follows the splice, at the post-jump state.  A substep sums its band jumps
per path with ``np.bincount``: sigma_bar(t, x) times the mark sums when the
problem declares g = sigma_bar z (checked on probe points), else g at the
owners' states.

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
from levylab.levy_noise import ShellSampler, levy_constant, sample_large_jumps, shell_rule, tail_mass, _stable_increments

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
        # g = sigma_bar z (checked by _Engine): a band sum is sigma_bar times the
        # sum of the marks, with no g call per band jump
        self.multiplicative = p.jump is not None and p.sigma_bar is not None
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

    def draw(self, W, dt, rng):
        """The band jumps of W paths over one step of length dt, as (owner, marks):
        a Poisson(rate dt W) total, each jump owned by a uniform path, marks (N, d)."""
        n = int(rng.poisson(self.sampler.rate * dt * W))
        if not n:
            return np.empty(0, dtype=np.int64), np.empty((0, self.model.dim))
        return rng.integers(0, W, n), self.sampler.marks(n, rng)

    def compensator(self, t, x):
        """int_{eps<=|z|<R} g(t,x,z) nu(dz), zero for odd g (symmetric nu)."""
        if self.odd:
            return None
        return self.rule.integrate(self.p.g_pairs(t, x, self.rule.nodes)).reshape(np.shape(x))


def _check_multiplicative(p):
    """Refuse a declared sigma_bar that does not give g(t, x, z) = sigma_bar(t, x) z
    on probe points: the exact_stable step and the band sum use it in place of g."""
    probe_x = np.array([0.3, -0.7, 1.9])
    if p.dim > 1:
        probe_x = np.tile(probe_x[:, None], (1, p.dim))
    for t in (0.0, 1.0):
        sb = np.asarray(p.sigma_bar(t, probe_x), dtype=float).reshape(len(probe_x), 1)
        for z in (0.2, -1.7):
            zz = np.full_like(probe_x, z)
            got = p.g(t, probe_x, zz).reshape(len(probe_x), -1)
            want = sb * zz.reshape(len(probe_x), -1)
            if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
                raise ParameterError(
                    f"the jump coefficient is not sigma_bar(t, x) * z: at t={t}, z={z} "
                    f"g gives {got.ravel()}, sigma_bar * z gives {want.ravel()}"
                )


def _defer(step_jumps, next_jump, t0, t1, rng):
    """Split a step's band draw at the large-jump times ``next_jump``.

    The band jumps of the paths with a large jump in [t0, t1] get uniform
    times in the step.  Those at or after their path's jump are returned apart
    as (owner, marks, times), for ``_take``; the rest stay for the full pass.
    """
    owner, marks = step_jumps
    hit = (next_jump <= t1)[owner].nonzero()[0]
    if not len(hit):
        return step_jumps, None
    tb = t0 + (t1 - t0) * rng.random(len(hit))
    late = tb >= next_jump[owner[hit]]
    hit, tb = hit[late], tb[late]
    keep = np.ones(len(owner), dtype=bool)
    keep[hit] = False
    # integer takes: a boolean mask on the (N, d) marks is several times slower
    kept = keep.nonzero()[0]
    return (owner[kept], marks.take(kept, axis=0)), (owner[hit], marks.take(hit, axis=0), tb)


def _take(later, rows, next_jump, target):
    """The deferred band jumps of a pass over ``rows`` (sorted paths, each just
    spliced) up to each row's next stop, owners as row positions, and those
    still deferred.  Jumps of paths that step no further in this step lapse."""
    if later is None or not len(later[0]):
        return None, None
    owner, marks, tb = later
    pos = np.minimum(np.searchsorted(rows, owner), len(rows) - 1)
    stop = next_jump[owner]
    going = rows[pos] == owner
    now = going & ((tb < stop) | (stop > target))
    rest = going & ~now
    return (pos[now], marks[now]), (owner[rest], marks[rest], tb[rest])


class _Engine:
    """Vectorized stepping over one chunk of paths."""

    def __init__(self, p, cfg, record=False, snapshot_times=None, integrand=None, absorb=None):
        if p.jump is not None and p.sigma_bar is not None:
            _check_multiplicative(p)
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

    def substep(self, X, t, dtv, rng, alive, band_jumps=None):
        """One Euler substep over interval lengths dtv (frozen state).

        ``dtv`` is one float when every path steps alike, else one length per
        path; ``alive`` masks out dead paths, None when every path lives.
        ``band_jumps`` is the (owner, marks) of the band jumps in the substep,
        owners indexing rows of X, drawn by the caller; None for none.
        """
        p = self.p
        W, d = X.shape
        if alive is not None:
            dtv = np.where(alive, dtv, 0.0)
            X_in, X = X, np.where(alive[:, None], X, 0.0)
        x_arg = X[:, 0] if d == 1 else X
        dtc = dtv[:, None] if isinstance(dtv, np.ndarray) else dtv
        upd = np.zeros((W, d))

        # singular coefficients carry their own |x| v eps floor (sign(0) = 0
        # semantics); an engine-side floor would kick exact-zero states
        upd += p.b(t, x_arg).reshape(W, d) * dtc

        if p.sigma is not None:
            z = rng.standard_normal((W, d))
            sig = np.asarray(p.sigma_eval(t, x_arg), dtype=float)
            root = np.sqrt(dtc)
            if sig.ndim <= 1:
                upd += sig.reshape(W, 1) * root * z
            else:
                upd += np.einsum("nij,nj->ni", sig, z) * root

        if self.exact:
            dl = _stable_increments(p.levy.alpha, d, 1.0, W, rng)
            scale = (self.exact_scale * dtc) ** (1.0 / p.levy.alpha)
            sb = np.asarray(p.sigma_bar(t, x_arg), dtype=float).reshape(W)
            upd += sb[:, None] * scale * dl
        elif self.band is not None and self.band.active:
            band = self.band
            jumped = band_jumps is not None and len(band_jumps[0])
            if band.gauss or (band.multiplicative and jumped):
                sb = np.asarray(p.sigma_bar(t, x_arg), dtype=float).reshape(W)
            if jumped:
                # sum the band jumps per owning path: sigma_bar times the mark
                # sums, or g at the owners' states
                owner, marks = band_jumps
                if not band.multiplicative:
                    marks = p.g(t, x_arg[owner], marks[:, 0] if d == 1 else marks).reshape(len(owner), d)
                for j in range(d):
                    s_j = np.bincount(owner, weights=marks[:, j], minlength=W)
                    upd[:, j] += sb * s_j if band.multiplicative else s_j
            comp = band.compensator(t, x_arg)
            if comp is not None:
                upd -= np.reshape(comp, (W, d)) * dtc
            if band.gauss:
                var = sb**2 * band.gauss_var_unit
                upd += np.sqrt(var * dtv)[:, None] * rng.standard_normal((W, d))

        if alive is None:
            return X + upd
        return np.where(alive[:, None], X_in + upd, X_in)

    def run(self, x0, t0, t1, rng, jumps=None):
        """Advance paths x0 (W, d) from t0 to t1; ``jumps`` is a W-path JumpTrain or None."""
        p = self.p
        X = np.array(x0, dtype=float, copy=True)
        W, d = X.shape
        exploded_at = np.full(W, np.nan)
        absorbed_at = np.full(W, np.nan)
        alive = np.ones(W, dtype=bool)

        # per-path cursor into the flat jump arrays; after[i] is the time of the
        # jump that follows entry i on its path (inf after the path's last)
        next_jump = np.full(W, np.inf)
        if jumps is not None and len(jumps):
            cursor, ends = jumps.offsets[:-1].copy(), jumps.offsets[1:]
            owns = ends > cursor
            after = np.append(jumps.times[1:], np.inf)
            after[ends[owns] - 1] = np.inf
            next_jump[owns] = jumps.times[cursor[owns]]

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

        def kill(record, t_now, rows, hit):
            n = int(np.count_nonzero(hit))
            if n:
                record[rows] = np.where(hit, t_now, record[rows])
                alive[rows] &= ~hit
                # a dead path splices no more jumps
                next_jump[rows] = np.where(hit, np.inf, next_jump[rows])
            return n

        def check_explode(t_now, rows, Xr):
            """Kill the live paths of ``rows`` (states ``Xr``) that left the bound
            (NaN fails its compare too) or the absorbing interval; returns how
            many died."""
            inside = np.abs(Xr) <= EXPLOSION_BOUND
            died = 0
            if not inside.all():
                died += kill(exploded_at, t_now, rows, alive[rows] & ~inside.all(axis=1))
            if self.absorb is not None:
                lo, hi = self.absorb
                died += kill(absorbed_at, t_now, rows, alive[rows] & ((Xr[:, 0] <= lo) | (Xr[:, 0] >= hi)))
            return died

        # every live path starts each base step at t_prev.  n_dead and next_due
        # (no live path jumps before it) keep the common step free of masks and
        # per-path step lengths; a step with a jump in it carries the rows still
        # to step and their times (each at its jump) from one pass to the next
        n_dead = 0
        next_due = float(next_jump.min(initial=np.inf))
        t_prev = float(grid[0])
        every = slice(None)
        band = self.band if self.band is not None and self.band.active else None
        for k in range(1, len(grid)):
            target = float(grid[k])
            spliced = next_due <= target
            rows = every
            # the band jumps of the whole step are one draw; those of a path at
            # or after its large jump wait for the pass that follows the splice
            step_jumps = later = None
            if band is not None:
                step_jumps = band.draw(W, target - t_prev, rng)
                if spliced:
                    step_jumps, later = _defer(step_jumps, next_jump, t_prev, target, rng)
            while True:
                if rows is every:
                    t, live = t_prev, (alive if n_dead else None)
                    if spliced:
                        dtv = np.maximum(np.minimum(next_jump, target) - t_prev, 0.0)
                    else:
                        dtv = target - t_prev
                else:
                    t, live = float(t_rows.min()), None
                    dtv = np.maximum(np.minimum(next_jump[rows], target) - t_rows, 0.0)
                    step_jumps, later = _take(later, rows, next_jump, target)
                step = self.substep(X[rows], t, dtv, rng, live, step_jumps)
                # the full-width pass rebinds X: copying into it made an
                # exact_stable run of 32768 paths 25-30% slower
                if rows is every:
                    X = step
                else:
                    X[rows] = step
                n_dead += check_explode(target, rows, step)
                if integral is not None:
                    f_new = self._eval_f(target, step)
                    trap = 0.5 * (dtv[:, None] if isinstance(dtv, np.ndarray) else dtv) * (f_prev[rows] + f_new)
                    acc = integral[rows] + trap
                    integral[rows] = np.where(alive[rows][:, None], acc, integral[rows]) if n_dead else acc
                    f_prev[rows] = f_new
                if not spliced:
                    break
                jw = (next_jump <= target).nonzero()[0] if rows is every else rows[next_jump[rows] <= target]
                if not len(jw):
                    break
                if self.record and W == 1:
                    rec_times.append(float(next_jump[0]))
                    rec_states.append(X.copy())
                    rec_isjump.append(False)
                # the splice: one g call over every path that jumps in this step
                at = cursor[jw]
                tj, Xw = jumps.times[at], X[jw]
                if d == 1:
                    gj = p.g(tj, Xw[:, 0], jumps.marks[at, 0])
                else:
                    gj = p.g(tj[:, None], Xw, jumps.marks[at])
                Xw += gj.reshape(len(jw), d)
                X[jw] = Xw
                cursor[jw] = at + 1
                nj = next_jump[jw] = after[at]
                n_dead += check_explode(target, jw, Xw)
                if integral is not None:
                    f_prev[jw] = self._eval_f(target, Xw)
                if self.record and W == 1:
                    rec_times.append(rec_times[-1])
                    rec_states.append(X.copy())
                    rec_isjump.append(True)
                # a path goes on if it is short of the target or jumps again by it
                go_on = (tj < target) | (nj <= target)
                if n_dead:
                    go_on &= alive[jw]
                rows, t_rows = jw[go_on], tj[go_on]
                if not len(rows):
                    break
            if spliced:
                next_due = float(next_jump.min(initial=np.inf))
            t_prev = target
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
