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
times and marks with per-path offsets).  They are drawn before the paths are
stepped, so every path's jump-adapted grid is known up front, and
``jump_grid.blocks`` cuts a run into blocks of B base steps (B W <=
``BLOCK_CELLS``; snapshot points cut none).  ``_Engine.run`` steps a block
pass by pass: pass j moves every path over the j-th interval of its own grid,
so a path that jumped runs one pass behind, and catch-up passes go over the
paths with more jumps in the block.  After each pass one g call splices the
paths whose interval ended at a large jump, and the paths that then stand on
a snapshot point are written into the run's one snapshot array
(``Block.reads``).  Until the block's first jump every path stands on the
base step and a pass takes one scalar time and step length; after it the
coefficients get each row's own time as an array.  While every path lives
no pass takes an alive mask.

Noise comes block by block, one call per kind over the block's cells (one cell
per path and pass): the Brownian normals, the ``exact_stable`` increments, the
Gaussian-correction normals, then the band eps <= |z| < R: one Poisson count
per W-wide pass and one for the catch-up cells, uniform cells within them and
the marks.  A jump in a cell shorter than the block's longest base step stays
with probability length / step (thinning).  A pass adds sigma_bar(t, x) times
its cells' mark sums when the problem has g = sigma_bar z (checked on probe
points), else g at the owners' states summed per row with ``np.bincount``.
One normal draw of B W rows is the stream of B draws of W rows, so a run
whose only noise is Brownian draws as a step-by-step loop would.

Determinism: every simulation is keyed by a seed (int or SeedSequence) from
which a (flow, jumps) stream pair is derived.  Every ensemble runs through
``_run_paths``: ``simulate_ensemble`` (and through it
``ergodicity.estimate_invariant``, whose chains are one ensemble read at its
snapshot times) and ``density_lab.killed_density``.  It keys chunk i of
``CHUNK_SIZE`` paths by (master_seed, i), draws the chunk's large jumps as
one train over the whole run and joins the chunks in path order, so results
are bit-identical across runs and across worker counts.  A one-path train is
the single-path draw, so a one-path ensemble equals ``simulate_interlaced`` on
the chunk's seed, and an interlaced run whose jump stream drew no events
consumes exactly the flow draws of the small-jump simulator (DECISIONS.md).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from levylab.errors import ParameterError, TruncationError
from levylab.jump_grid import blocks
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
        self.p = p
        self.model = p.levy
        self.eps = cfg.cutoff(p.levy)
        self.big_r = p.levy.big_jump_radius
        self.sampler = ShellSampler(p.levy, self.eps, self.big_r)
        self.gauss = cfg.gaussian_correction
        # g = sigma_bar z (checked by _Engine): a band sum is sigma_bar times the
        # sum of the marks, with no g call per band jump
        self.multiplicative = p.sigma_bar is not None
        # odd jump coefficients against the symmetric measure have a vanishing
        # band compensator; probed numerically once
        self.odd = self._probe_odd(p)
        if not self.odd:
            if p.dim != 1:
                raise ParameterError("a jump coefficient that is not odd in z needs dim=1")
            if p.band_compensator is not None:
                self.table = p.band_compensator(self.eps)
            else:
                self.table, self.rule = None, shell_rule(self.model, self.eps, self.big_r)
        if self.gauss:
            if p.sigma_bar is None:
                raise ParameterError(
                    "gaussian_correction needs a multiplicative jump coefficient (sigma_bar)"
                )
            self.gauss_var_unit = tail_mass(p.levy, 0.0, self.eps, 2.0) / p.levy.dim

    def _probe_odd(self, p):
        probe_x = _probe_states(p.dim)
        zs = [np.full_like(probe_x, z) for z in (0.2, 0.9 * self.big_r)]
        return p.sigma_bar is not None or all(np.allclose(p.g(0.0, probe_x, z), -p.g(0.0, probe_x, -z), atol=1e-12) for z in zs)

    def cells(self, block, rng, work):
        """The band jumps of the cells of ``block`` (a ``jump_grid.Block``).

        Each cell of length at most ``block.unit`` gets Poisson(rate unit)
        jumps with i.i.d. marks, drawn pass by pass: one Poisson count per
        W-wide pass and one for the catch-up cells, then uniform cells within
        them, so the cells ascend pass by pass.  A jump in a short cell of
        length l stays with probability l / unit.  Returns the per-cell mark
        sums (n_cells, d) when g = sigma_bar z, else the (cell, marks) of the
        kept jumps.  ``work`` (a ``_Work``) lends the marks their buffer.
        """
        n_cells, unit, W, main = block.n_cells, block.unit, block.W, block.nb * block.W
        counts = rng.poisson(self.sampler.rate * unit * np.append(np.full(block.nb, W), n_cells - main))
        ends = np.cumsum(counts).tolist()
        n, n_main = ends[-1], ends[-2]
        # the offsets within each W-wide pass, then the pass's first cell
        # added in place; the array grows in place (realloc) to take the
        # catch-up cells, so no second array of every cell is made
        cell = rng.integers(0, W, n_main)
        for j in range(1, block.nb):
            cell[ends[j - 1] : ends[j]] += j * W
        if n > n_main:
            tail = np.sort(rng.integers(main, n_cells, n - n_main))
            cell.resize(n, refcheck=False)
            cell[n_main:] = tail
        marks = self.sampler.marks(n, rng, work("marks", n))
        short = block.short(cell)
        if len(short):
            drop = short[rng.random(len(short)) * unit >= block.lengths[cell[short]]]
            if self.multiplicative:
                marks[drop] = 0.0
            else:
                keep = np.ones(n, dtype=bool)
                keep[drop] = False
                cell, marks = cell[keep], marks[keep]
        if self.multiplicative:
            sums = [np.bincount(cell, weights=marks[:, j], minlength=n_cells) for j in range(self.model.dim)]
            return sums[0][:, None] if len(sums) == 1 else np.stack(sums, axis=1)
        return cell, marks

    def compensator(self, t, x):
        """int_{eps<=|z|<R} g(t,x,z) nu(dz), zero for odd g (symmetric nu): the
        problem's own ``band_compensator`` when it has one, else the rule
        summed over g at every row."""
        if self.odd:
            return None
        if self.table is not None:
            return self.table(t, x)
        return self.rule.integrate(self.p.g_pairs(t, x, self.rule.nodes)).reshape(np.shape(x))


def _probe_states(dim):
    probe_x = np.array([0.3, -0.7, 1.9])
    return probe_x if dim == 1 else np.tile(probe_x[:, None], (1, dim))


def _check_multiplicative(p):
    """Refuse a declared sigma_bar that does not give g(t, x, z) = sigma_bar(t, x) z
    on probe points: the exact_stable step and the band sum use it in place of g."""
    probe_x = _probe_states(p.dim)
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


class _Work:
    """Float buffers that one run lends to every block: the draws of a block
    then land on memory the run already touched, not on fresh pages."""

    def __init__(self):
        self.bufs = {}

    def __call__(self, name, n):
        buf = self.bufs.get(name)
        if buf is None or len(buf) < n:
            buf = self.bufs[name] = np.empty(n + n // 4)
        return buf[:n]


class _Engine:
    """Vectorized stepping over one chunk of paths."""

    def __init__(self, p, cfg, record=False, snapshot_times=None, integrand=None, absorb=None):
        if p.jump is not None and p.sigma_bar is not None:
            _check_multiplicative(p)
        self.p = p
        self.cfg = cfg
        self.record = record
        self.snapshot_times = None if snapshot_times is None else np.sort(np.asarray(snapshot_times, dtype=float))
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
            self.band = _SmallJumpBand(p, cfg) if p.has_jumps else None

    def _eval_f(self, t, X):
        # integrands may be vector-valued: (W,) or (W, m) accepted; an array t
        # (each row's time) is shaped as the coefficients get it
        if self.p.dim == 1:
            x_arg = X[:, 0]
        else:
            x_arg, t = X, (t[:, None] if isinstance(t, np.ndarray) else t)
        out = np.asarray(self.integrand(t, x_arg), dtype=float)
        return out[:, None] if out.ndim == 1 else out

    def draw(self, block, rng, work):
        """The noise of the cells of ``block``, one call per kind in this order:
        the Brownian normals, the exact_stable increments, the Gaussian-
        correction normals and the band (``_SmallJumpBand.cells``); None for a
        kind the scheme lacks.  The normals, the stable increments (and their
        intermediates) and the marks go into the buffers of ``work``, a run's
        ``_Work``, so each thread's run has its own."""
        p, d, n_cells = self.p, self.p.dim, block.n_cells

        def normals(name):
            return rng.standard_normal(out=work(name, n_cells * d).reshape(n_cells, d))

        z = normals("z") if p.sigma is not None else None
        dl = _stable_increments(p.levy.alpha, d, 1.0, n_cells, rng, work) if self.exact else None
        band = self.band
        gz = normals("gz") if band is not None and band.gauss else None
        jumps = band.cells(block, rng, work) if band is not None else None
        return z, dl, gz, jumps

    def noise_of(self, noise, lo, hi):
        """The noise of cells lo:hi, for a substep over those cells in order."""
        z, dl, gz, jumps = noise
        if jumps is not None and not isinstance(jumps, np.ndarray):
            cell, marks = jumps
            # the cells ascend pass by pass, so a binary search for a pass's
            # first cell finds where its jumps begin
            a, b = np.searchsorted(cell, (lo, hi))
            jumps = (cell[a:b] - lo if lo else cell[a:b], marks[a:b])
        else:
            jumps = None if jumps is None else jumps[lo:hi]
        return tuple(None if v is None else v[lo:hi] for v in (z, dl, gz)) + (jumps,)

    def substep(self, X, t, h, alive, noise):
        """One Euler substep (frozen state) of length h from time t.

        ``t`` and ``h`` are floats when every row steps alike, else one per
        row; ``alive`` masks out dead rows, None when every row lives.
        ``noise`` is the (normals, stable increments, correction normals, band)
        of the rows' cells from ``noise_of``: the band as per-row mark sums when
        g = sigma_bar z, else as (row, marks) of its jumps.
        """
        p = self.p
        W, d = X.shape
        z, dl, gz, jumps = noise
        if alive is not None:
            h = np.where(alive, h, 0.0)
            X_in, X = X, np.where(alive[:, None], X, 0.0)
        x_arg = X[:, 0] if d == 1 else X
        # each row's own time, shaped to broadcast against x_arg
        tx = t[:, None] if d > 1 and isinstance(t, np.ndarray) else t
        hc = h[:, None] if isinstance(h, np.ndarray) else h
        # singular coefficients carry their own |x| v eps floor (sign(0) = 0
        # semantics); an engine-side floor would kick exact-zero states
        if p.b_and_sigma is None:
            upd = p.b(tx, x_arg).reshape(W, d) * hc
            sig = None if p.sigma is None else p.sigma_eval(tx, x_arg)
        else:
            b, sig = p.b_and_sigma(tx, x_arg)
            upd = b.reshape(W, d) * hc
            del b  # one array less held through the noise terms (peak memory)

        if sig is not None:
            root = np.sqrt(hc)
            if sig.ndim <= 1:
                upd += sig.reshape(W, 1) * root * z
            else:
                upd += np.einsum("nij,nj->ni", sig, z) * root

        if self.exact:
            scale = (self.exact_scale * hc) ** (1.0 / p.levy.alpha)
            sb = np.asarray(p.sigma_bar(tx, x_arg), dtype=float).reshape(W)
            upd += sb[:, None] * scale * dl
        elif self.band is not None:
            band = self.band
            if band.multiplicative:
                jumped = jumps.any()
            else:
                owner, marks = jumps
                jumped = len(owner) > 0
            if band.gauss or (band.multiplicative and jumped):
                sb = np.asarray(p.sigma_bar(tx, x_arg), dtype=float).reshape(W)
            if jumped and band.multiplicative:
                upd += sb[:, None] * jumps
            elif jumped:
                # g at the owners' states, summed per owning row
                to = tx[owner] if isinstance(tx, np.ndarray) else tx
                g = p.g(to, x_arg[owner], marks[:, 0] if d == 1 else marks).reshape(len(owner), d)
                for j in range(d):
                    upd[:, j] += np.bincount(owner, weights=g[:, j], minlength=W)
            comp = band.compensator(t, x_arg)
            if comp is not None:
                upd -= np.reshape(comp, (W, d)) * hc
            if band.gauss:
                var = sb**2 * band.gauss_var_unit
                upd += np.sqrt(var * h)[:, None] * gz

        if alive is None:
            return X + upd
        return np.where(alive[:, None], X_in + upd, X_in)

    def _grid(self, t0, t1):
        """The base grid from t0 to t1 and the grid index of each snapshot time
        in (t0, t1], in order."""
        n_steps = int(math.ceil((t1 - t0) / self.cfg.dt - 1e-12)) if t1 > t0 else 0
        if n_steps > self.cfg.max_steps:
            raise TruncationError(
                f"{n_steps} steps exceed max_steps={self.cfg.max_steps}; raise dt or max_steps"
            )
        grid = t0 + self.cfg.dt * np.arange(n_steps + 1)
        if n_steps:
            grid[-1] = t1
        if self.snapshot_times is None:
            return grid, np.empty(0, dtype=np.intp)
        sel = self.snapshot_times[(self.snapshot_times > t0) & (self.snapshot_times <= t1)]
        grid = np.union1d(grid, sel)
        grid = grid[np.concatenate([[True], np.diff(grid) > 1e-9 * self.cfg.dt])]
        # each snapshot time goes to its nearest grid point, the earlier on a tie
        at = np.searchsorted(grid, sel).clip(1, len(grid) - 1)
        at -= sel - grid[at - 1] <= grid[at] - sel
        return grid, at

    def run(self, x0, t0, t1, rng, jumps=None):
        """Advance paths x0 (W, d) from t0 to t1; ``jumps`` is a W-path JumpTrain
        with times in [t0, t1], or None.  ``snaps`` of the result holds each
        path's states at the snapshot points, shape (W, n_snapshots, d)."""
        p = self.p
        X = np.array(x0, dtype=float, copy=True)
        W, d = X.shape
        exploded_at = np.full(W, np.nan)
        absorbed_at = np.full(W, np.nan)
        alive = np.ones(W, dtype=bool)
        grid, at = self._grid(t0, t1)
        # each path's states at the snapshot points; one within rounding of t0 takes x0
        snaps = np.empty((W, len(at), d))
        snaps[:, at == 0] = X[:, None]

        rec_times, rec_states, rec_isjump = [t0], [X.copy()], [False]
        recording = self.record and W == 1
        f_prev = self._eval_f(t0, X) if self.integrand is not None else None
        integral = np.zeros_like(f_prev) if self.integrand is not None else None

        def kill(record, t_now, rows, hit):
            n = int(np.count_nonzero(hit))
            if n:
                record[rows] = np.where(hit, t_now, record[rows])
                alive[rows] &= ~hit
            return n

        def check_explode(rows, Xr, when):
            """Kill the live paths of ``rows`` (states ``Xr``) that left the bound
            (NaN fails its compare too) or the absorbing interval, at the times
            ``when()``; returns how many died."""
            if self.absorb is None and len(Xr) and np.abs(Xr).max() <= EXPLOSION_BOUND:
                return 0
            inside = np.abs(Xr) <= EXPLOSION_BOUND
            died = 0
            if not inside.all():
                died += kill(exploded_at, when(), rows, alive[rows] & ~inside.all(axis=1))
            if self.absorb is not None:
                lo, hi = self.absorb
                hit = alive[rows] & ((Xr[:, 0] <= lo) | (Xr[:, 0] >= hi))
                if hit.any():
                    died += kill(absorbed_at, when(), rows, hit)
            return died

        work = _Work()
        n_dead = k0 = 0
        for block in blocks(grid, W, jumps, alive):
            reads, k0 = block.reads(at - k0), k0 + block.nb
            noise = self.draw(block, rng, work)
            for j in range(block.n_passes):
                rows, lo, hi, t, h = block.row(j)
                whole = isinstance(rows, slice)
                live = (alive if whole else alive[rows]) if n_dead else None
                step = self.substep(X if whole else X[rows], t, h, live, self.noise_of(noise, lo, hi))
                # the full-width pass rebinds X: copying into it made an
                # exact_stable run of 32768 paths 25-30% slower
                if whole:
                    X = step
                else:
                    X[rows] = step
                n_dead += check_explode(rows, step, lambda: block.step_end(j))
                if integral is not None:
                    f_new = self._eval_f(block.ends(j), step)
                    trap = 0.5 * (h[:, None] if isinstance(h, np.ndarray) else h) * (f_prev[rows] + f_new)
                    acc = integral[rows] + trap
                    integral[rows] = np.where(alive[rows][:, None], acc, integral[rows]) if n_dead else acc
                    f_prev[rows] = f_new
                if recording:
                    rec_times.append(float(np.ravel(block.ends(j))[0]))
                    rec_states.append(X.copy())
                    rec_isjump.append(False)

                spliced = block.spliced(j)
                if spliced is not None and n_dead:
                    spliced = tuple(v[alive[spliced[1]]] for v in spliced)
                if spliced is not None and len(spliced[0]):
                    # the splice: one g call over every path whose interval ends at its jump
                    e, jw, step_ends = spliced
                    tj, Xw = jumps.times[e], X[jw]
                    if d == 1:
                        gj = p.g(tj, Xw[:, 0], jumps.marks[e, 0])
                    else:
                        gj = p.g(tj[:, None], Xw, jumps.marks[e])
                    Xw += gj.reshape(len(jw), d)
                    X[jw] = Xw
                    n_dead += check_explode(jw, Xw, lambda: step_ends)
                    if integral is not None:
                        f_prev[jw] = self._eval_f(tj, Xw)
                    if recording:
                        rec_times.append(rec_times[-1])
                        rec_states.append(X.copy())
                        rec_isjump.append(True)
                for i, rows in reads.get(j, ()):
                    snaps[rows, i] = X[rows]
            del noise  # the next block's draw then holds one block's noise, not two

        out = {"X": X, "exploded_at": exploded_at, "absorbed_at": absorbed_at, "snaps": snaps, "integral": integral}
        if recording:
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


def _run_paths(eng, x0s, horizon, master_seed, threads=None):
    """Run the paths x0s (n, d) of ``eng`` from 0 to horizon in chunks of
    ``CHUNK_SIZE``, chunk i on the streams keyed by (master_seed, i), on up to
    ``threads`` worker threads.  Returns the ``_Engine.run`` outputs of the
    chunks joined in path order, so they do not depend on the worker count."""
    starts = range(0, len(x0s), CHUNK_SIZE)

    def run_chunk(ci):
        x = x0s[starts[ci] : starts[ci] + CHUNK_SIZE]
        flow, jrng = _streams(np.random.SeedSequence(entropy=master_seed, spawn_key=(ci,)))
        return eng.run(x, 0.0, horizon, flow, _draw_jumps(eng.p, eng.cfg, len(x), horizon, jrng))

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run_chunk, range(len(starts))))
    else:
        runs = [run_chunk(ci) for ci in range(len(starts))]

    def join(key):
        # one chunk's array is taken as it is, with no copy
        return runs[0][key] if len(runs) == 1 else np.concatenate([r[key] for r in runs])

    out = {key: join(key) for key in ("X", "exploded_at", "absorbed_at", "snaps")}
    out["integral"] = None if eng.integrand is None else join("integral")
    return out


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
    (master_seed, i), its large jumps as one windowed train; per-path outputs
    are stored by index and reductions run over the indexed arrays in fixed
    order, so the result is bit-identical for a fixed master_seed at any
    worker count.  ``time_integrand`` f(t, x) is accumulated pathwise by
    trapezoid on the jump-adapted grid, read at each point of a path's grid
    (after a jump, at the jump time and the post-jump state).  Like the
    coefficients, f gets ``t`` as a float while the rows share their time and
    otherwise as each row's time: shape (n,) in d = 1, (n, 1) in d >= 2.
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

    eng = _Engine(p, cfg, snapshot_times=snapshot_times, integrand=time_integrand)
    res = _run_paths(eng, x0s, horizon, master_seed, threads)
    snapshot_times, snaps, integrals = eng.snapshot_times, None, res["integral"]
    if snapshot_times is not None:
        if res["snaps"].shape[1] != len(snapshot_times):
            raise ParameterError(f"snapshot times must lie in (0, {horizon}]")
        snaps = res["snaps"].transpose(1, 0, 2)
    if integrals is not None and integrals.shape[1] == 1:
        integrals = integrals[:, 0]
    return Ensemble(
        terminal=res["X"],
        exploded_at=res["exploded_at"],
        snapshot_times=snapshot_times,
        snapshots=snaps,
        integrals=integrals,
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
