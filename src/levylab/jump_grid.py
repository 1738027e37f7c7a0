"""Blocks of base steps laid out as passes over each path's jump-adapted grid.

The large jumps of a batch are drawn before it is stepped, so the grid of
every path (the base grid plus its own jump times) is known up front.
``blocks`` cuts a run into ``Block``s of B base steps and lays each out as
passes: pass j moves every path over the j-th interval of its own grid, and
each (pass, path) pair is one cell of the block's noise.
``integrator._Engine.run`` steps a block pass by pass, and ``Block.reads``
says after which pass each path stands on a given base point of the block.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BLOCK_CELLS", "Block", "blocks"]

# a block of base steps covers at most this many (base step, path) cells
BLOCK_CELLS = 2**14
# a cell within this fraction of the block's longest base step counts as whole
WHOLE = 1.0 - 1e-9


def blocks(grid, W, jumps=None, alive=None):
    """The blocks of a run of W paths over the base grid ``grid``, in order.

    A block covers ``BLOCK_CELLS`` // W base steps, the last one the rest; a
    grid of one point has none.  ``jumps`` is the run's W-path JumpTrain, or
    None.  A block leaves out the jumps of the paths that ``alive`` marks
    dead when it is laid out, so the blocks are made lazily, one at a time.
    """
    n_steps = len(grid) - 1
    firsts = list(range(0, n_steps, max(1, BLOCK_CELLS // W)))
    ends = firsts[1:] + [n_steps]
    steps = np.diff(grid)
    # each block's longest base step, and whether any of its steps is shorter
    units = np.maximum.reduceat(steps, firsts)
    shorts = (np.minimum.reduceat(steps, firsts) < units * WHOLE).tolist()
    units = units.tolist()
    by_block = None
    if jumps is not None and len(jumps):
        path = np.repeat(np.arange(W), np.diff(jumps.offsets))
        step = np.maximum(np.searchsorted(grid, jumps.times) - 1, 0)
        in_block = np.searchsorted(ends, step, side="right")
        # a stable sort keeps the jumps path by path, in time order within a path
        by_block = np.argsort(in_block, kind="stable")
        first = np.searchsorted(in_block[by_block], np.arange(len(ends) + 1))
    for b, (k0, k1) in enumerate(zip(firsts, ends)):
        base = (grid[k0 : k1 + 1], steps[k0:k1], W, units[b], shorts[b])
        ids = () if by_block is None else by_block[first[b] : first[b + 1]]
        if len(ids) and alive is not None:
            ids = ids[alive[path[ids]]]
        if len(ids):
            yield Block(*base, ids, path[ids], step[ids] - k0, jumps.times[ids])
        else:
            yield Block(*base)


class Block:
    """One block of base steps, laid out as passes over (base step, path) cells.

    ``gb`` holds the block's nb + 1 base points, ``hb`` their gaps, W is the
    path count, ``unit`` the longest base step and ``short`` whether a base
    step is shorter.  Path i's jump-adapted grid is the base points plus its
    large jumps in the block: ``ids`` (their places in the run's train),
    ``path``, ``step`` (the base step of each within the block, kept, with
    each jump's column as ``col``) and ``times``, path by path and in time
    order within a path.  Pass j moves every path over the j-th interval of
    its own grid: passes 0..nb-1 go over all W paths, and catch-up pass
    nb + r over the paths with more than r jumps.  Cell j W + i is pass j of
    path i for j < nb, and the catch-up cells follow, pass by pass, from
    ``offsets[r]`` to ``offsets[r + 1]``.

    A path that jumps (a column of ``cols``, ``m`` jumps) has nb + m intervals
    ending at ``stops[c, 1:]``, its base points and jump times in order.  Until
    pass ``split`` (the first base step with a jump) every path is on the base
    step.  A cell is short when it is not within ``WHOLE`` of ``unit``;
    ``lengths`` holds every cell's length, None when no cell is short.
    """

    def __init__(self, gb, hb, W, unit, short, ids=(), path=(), step=(), times=()):
        self.gb, self.hb, self.W, self.unit = gb, hb, W, unit
        self.nb = nb = len(hb)
        n = len(path)
        self.n_cells = nb * W + n
        self.n_passes = self.split = nb
        self.cols = None
        if not n:
            self.lengths = np.repeat(hb, W) if short else None
            return
        first = np.flatnonzero(np.diff(path, prepend=-1))
        self.cols = path[first]
        m = np.diff(first, append=n)
        most = int(m.max())
        col = self.col = np.repeat(np.arange(len(first)), m)
        self.step = step
        q = np.arange(n) - first[col]
        # the q-th jump of a path in base step s ends its interval s + q; a
        # jump on a base point sorts next to it, which leaves the stops alike
        self.stops = np.full((len(first), nb + most + 1), gb[-1])
        self.stops[:, : nb + 1] = gb
        self.stops[col, nb + 1 + q] = times
        self.stops.sort(axis=1)
        gaps = self.gaps = np.diff(self.stops, axis=1)
        after = step + q
        self.n_passes = nb + most
        self.split = int(step.min())
        # the jumps in the order they are spliced, and where each pass's start
        order = np.argsort(after, kind="stable")
        self.jump_ids, self.jump_rows = ids[order], path[order]
        self.jump_step_ends = gb[step[order] + 1]
        self.bounds = np.searchsorted(after[order], np.arange(self.n_passes + 1))
        self.catch = [(m > r).nonzero()[0] for r in range(most)]
        self.offsets = np.cumsum([nb * W] + [len(c) for c in self.catch]).tolist()
        # the length of every cell; its first nb W are the W-wide passes' rows
        self.lengths = np.empty(self.n_cells)
        self.H = self.lengths[: nb * W].reshape(nb, W)
        self.H[:] = hb[:, None]
        self.H[:, self.cols] = gaps[:, :nb].T
        for r, c in enumerate(self.catch):
            self.lengths[self.offsets[r] : self.offsets[r + 1]] = gaps[c, nb + r]

    def reads(self, points):
        """{pass j: [(i, rows)]}: after pass j and its splice, ``rows`` (a slice for
        all W) stand on gb[k], k = ``points[i]``, for the ascending points in 1..nb.
        Every row does after pass k - 1, and one with n jumps in the steps before k
        (a jump on k is in the step it ends) after pass k - 1 + n, rewriting it."""
        out = {}
        for i in range(*np.searchsorted(points, (1, self.nb + 1))):
            k = int(points[i])
            out.setdefault(k - 1, []).append((i, slice(None)))
            if self.cols is not None:
                n = np.bincount(self.col[self.step < k], minlength=len(self.cols))
                for v in np.unique(n[n > 0]).tolist():
                    out.setdefault(k - 1 + v, []).append((i, self.cols[n == v]))
        return out

    def short(self, cell):
        """The positions in ``cell`` (cell indices) of the short cells."""
        if self.lengths is None:
            return np.empty(0, dtype=np.intp)
        return (self.lengths < self.unit * WHOLE)[cell].nonzero()[0]

    def _spread(self, base, own):
        out = np.full(self.W, base)
        out[self.cols] = own
        return out

    def row(self, j):
        """Pass j as (rows, lo, hi, t, h): its paths (a slice for all W, else
        their indices), its cells lo:hi, and each row's start time and length,
        floats while every path is on the base step."""
        nb, W = self.nb, self.W
        if j < nb:
            t = float(self.gb[j]) if j <= self.split else self._spread(self.gb[j], self.stops[:, j])
            h = float(self.hb[j]) if j < self.split else self.H[j]
            return slice(None), j * W, (j + 1) * W, t, h
        r = j - nb
        c = self.catch[r]
        return self.cols[c], self.offsets[r], self.offsets[r + 1], self.stops[c, j], self.gaps[c, j]

    def ends(self, j):
        """The end time of each row's interval in pass j."""
        if j < self.split:
            return float(self.gb[j + 1])
        if j < self.nb:
            return self._spread(self.gb[j + 1], self.stops[:, j + 1])
        return self.stops[self.catch[j - self.nb], j + 1]

    def step_end(self, j):
        """The end of the base step that each row's interval in pass j lies
        in: the first base point at or after the interval's end."""
        return self.gb[np.maximum(np.searchsorted(self.gb, self.ends(j)), 1)]

    def spliced(self, j):
        """The jumps that end pass j as (ids, rows, step_ends): their places in
        the run's train, their paths and the end of the base step each is in."""
        if self.cols is None:
            return None
        s = slice(self.bounds[j], self.bounds[j + 1])
        return self.jump_ids[s], self.jump_rows[s], self.jump_step_ends[s]
