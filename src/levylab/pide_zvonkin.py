"""1D finite-difference solvers for the backward/elliptic integro-differential
equations and the drift-removing change of variables Phi(x) = x + u(x).

Local part: a(x) u'' + b(x) u' - lambda u with a = sigma^2/2, centered second
difference and upwinded first derivative (an M-matrix, so the discrete
comparison principle holds for the local part).

The small-jump part L^g is linear in u's node values at a fixed quadrature
rule, so ``_nonlocal_matrix`` assembles it once per solve as one sparse
matrix.  The z-integral splits at delta = sqrt(h): below delta the exact
second-order Taylor remainder collapses to u''(x)/2 times the second jump
moment (``gamma_moment``, independent of u); above delta the integrand
u(x+g)-u(x)-g u'(x) is summed against one ``levy_noise.shell_rule``, u(x+g)
read through a local 4-point cubic.  The elliptic solve is then one sparse
LU of (lambda - local - N), and the backward solve is fully implicit, one
factorisation per step size (per step when the problem depends on time).

u is a node table with linear interpolation, so Phi = id + u is piecewise
linear and Phi^-1 is the interpolation on the nodes (Phi(x_i), x_i); past
the grid both continue on their edge lines, of slopes 1 + u'_edge and
1 / (1 + u'_edge).
``ZvonkinMap`` locates y in that table without a search (equal y-buckets,
about two per cell, then at most a fixed number of comparisons) and reads
Phi^-1(y), u and Phi' from the one located cell: the transformed
coefficients sigma~ and b~ cost one locate per call, and no binary search
over the unsorted states of an ensemble.  The transformed problem reads both
in one call (``b_and_sigma``, one locate per Euler substep), finds Phi at
x + g in g~ by one floor on the uniform x-grid, and, for g = sigma_bar z,
reads its band compensator from a table at Phi's nodes built on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from levylab.errors import ContractionError, ExtrapolationError, ParameterError
from levylab.levy_noise import shell_rule
from levylab.sde_model import SdeProblem, floor_away_from_zero, gamma_moment

__all__ = [
    "GridFunction",
    "SpaceTimeSolution",
    "EllipticSolution",
    "ZvonkinMap",
    "apply_nonlocal",
    "solve_backward_pide",
    "solve_elliptic",
    "build_zvonkin",
    "grid_lipschitz_quotient",
    "gridfunction_to_csv",
]


@dataclass
class GridFunction:
    """Values on a uniform 1D grid with an out-of-domain extension policy.

    Interior evaluation is piecewise linear; outside [lo, hi] the function is
    continued by a constant (edge value) or linearly (edge slope).
    """

    lo: float
    hi: float
    n: int
    values: np.ndarray
    extension: str = "linear"

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError(f"grid needs n >= 3 nodes, got {self.n}")
        if not self.hi > self.lo:
            raise ParameterError("grid needs hi > lo")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n,):
            raise ParameterError(f"values shape {self.values.shape} != ({self.n},)")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("grid values must be finite")
        if self.extension not in ("constant", "linear"):
            raise ParameterError(f"unknown extension policy {self.extension!r}")

    @property
    def h(self):
        return (self.hi - self.lo) / (self.n - 1)

    @cached_property
    def x(self):
        return np.linspace(self.lo, self.hi, self.n)

    def edge_slopes(self):
        """Slopes of the extension below lo and above hi."""
        if self.extension == "constant":
            return 0.0, 0.0
        v = self.values
        return (v[1] - v[0]) / self.h, (v[-1] - v[-2]) / self.h

    @classmethod
    def from_callable(cls, fn, lo, hi, n, extension="linear"):
        xs = np.linspace(lo, hi, n)
        return cls(lo, hi, n, np.asarray(fn(xs), dtype=float), extension)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inner = np.interp(x, self.x, self.values)
        # np.interp already holds the edge values outside
        if self.extension == "constant":
            return inner
        return _edge_lines(x, inner, self.x, self.values, self.edge_slopes())

    def stencil_derivatives(self):
        """(u', u'') at the nodes by central stencils (one-sided at edges)."""
        u, h = self.values, self.h
        du = np.gradient(u, h, edge_order=2)
        d2 = np.empty_like(u)
        d2[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        d2[0], d2[-1] = d2[1], d2[-2]
        return du, d2

    def grad_max(self):
        return float(np.max(np.abs(self.stencil_derivatives()[0])))

    def sup(self):
        return float(np.max(np.abs(self.values)))


def _edge_lines(x, inner, xp, fp, slopes):
    """``inner`` on [xp[0], xp[-1]], continued outside by the lines through
    the end nodes of (xp, fp) with the given (low, high) slopes.  A flat line
    holds its end value, also at x = +-inf, where 0 * inf would be NaN."""
    low = fp[0] + slopes[0] * (x - xp[0]) if slopes[0] else fp[0]
    high = fp[-1] + slopes[1] * (x - xp[-1]) if slopes[1] else fp[-1]
    return np.where(x > xp[-1], high, np.where(x < xp[0], low, inner))


def gridfunction_to_csv(gf, fileobj):
    fileobj.write("x,value\n")
    for xi, vi in zip(gf.x, gf.values):
        fileobj.write(f"{format(float(xi), '.17g')},{format(float(vi), '.17g')}\n")


# ---------------------------------------------------------------------------
# nonlocal operator


def _lagrange(grid, pts, order):
    """(columns, weights), each of shape pts.shape + (m,), that read node
    values v of the grid (lo, hi, n) at the points pts: v(pts) = sum over the
    last axis of weights * v[columns].

    Inside the grid v is the Lagrange interpolant on m = ``order``
    consecutive nodes around the point's cell, shifted inward at the edges
    (order 2 is np.interp, order 4 the local cubic, exact on cubics); beyond
    the grid it is the line through the two end nodes, ``GridFunction``'s
    linear extension.
    """
    lo, hi, n = grid
    m = min(order, n)
    s = (pts - lo) * ((n - 1) / (hi - lo))
    start = np.clip(np.floor(s).astype(np.intp) - (m // 2 - 1), 0, n - m)
    t = (s - start)[..., None]
    k = np.arange(m)
    w = np.ones(t.shape[:-1] + (m,))
    for i in k:  # w_k = prod_{i != k} (t - i) / (k - i)
        w *= np.where(k == i, 1.0, (t - i) / np.where(k == i, 1, k - i))
    # beyond the grid: the line through the end pair, local nodes 0, 1 or m-2, m-1
    pair = np.where(s < 0, 0, m - 2)[..., None]
    line = (k == pair) * (1.0 - (t - pair)) + (k == pair + 1) * (t - pair)
    return start[..., None] + k, np.where(((s < 0) | (s > n - 1))[..., None], line, w)


def _rows(n, *blocks):
    """CSR matrix summing (columns, values) blocks whose leading axis is the row."""
    rows = [np.broadcast_to(np.arange(len(c)).reshape((-1,) + (1,) * (c.ndim - 1)), c.shape) for c, _ in blocks]
    cols = np.concatenate([c.ravel() for c, _ in blocks])
    vals = np.concatenate([np.broadcast_to(v, c.shape).ravel() for c, v in blocks])
    return sparse.csr_matrix((vals, (np.concatenate([r.ravel() for r in rows]), cols)), shape=(len(blocks[0][0]), n))


def _at_time(p, t):
    """p with its jump coefficient frozen at time t (``gamma_moment`` reads g at 0)."""
    if p.time_homogeneous or p.jump is None:
        return p
    return replace(p, jump=lambda _, x, z: p.jump(t, x, z))


def _nonlocal_matrix(p, grid, xs, t):
    """The small-jump generator L^g_{nu,R} at time t as a sparse
    (len(xs), n) matrix on the node values of the grid (lo, hi, n).

    The z-integral splits at delta = sqrt(h).  Inner part: u''(x)/2 times
    the second jump moment over |z| < delta (the exact Taylor remainder of a
    quadratic).  Outer part: u(x+g) - u(x) - g u'(x) summed against the
    weights of ``shell_rule(delta, R)``, u read through the local cubic of
    ``_lagrange``.  u' and u'' are the node stencils of
    ``GridFunction.stencil_derivatives`` read by np.interp.  The matrix is
    exact on 1, x and x^2 at any point inside the grid; row i spans the nodes
    within max|g(xs_i, .)| + 2h of xs_i.
    """
    lo, hi, n = grid
    h = (hi - lo) / (n - 1)
    big_r = p.levy.big_jump_radius
    delta = min(math.sqrt(h), big_r)
    mass = gamma_moment(_at_time(p, t), xs, 0, 2.0, 0.0, delta)
    rule = shell_rule(p.levy, delta, big_r)
    gv = p.g_pairs(t, xs, rule.nodes)
    jump_cols, jump_w = _lagrange(grid, xs[:, None] + gv, 4)
    here_cols, here_w = _lagrange(grid, xs, 4)
    # the 3-point stencils of the two nodes np.interp reads: np.gradient's
    # one-sided edge rows are the central ones -+ h times the second difference
    node_cols, node_w = _lagrange(grid, xs, 2)
    centre = np.clip(node_cols, 1, n - 2)
    d2 = node_w[..., None] * np.array([1.0, -2.0, 1.0]) / h**2
    d1 = node_w[..., None] * np.array([-0.5, 0.0, 0.5]) / h + (h * np.sign(node_cols - centre))[..., None] * d2
    return _rows(
        n,
        (jump_cols, jump_w * rule.weights[:, None]),
        (here_cols, -rule.weights.sum() * here_w),
        (centre[..., None] + [-1, 0, 1], 0.5 * mass[:, None, None] * d2 - (gv @ rule.weights)[:, None, None] * d1),
    )


def apply_nonlocal(u, p, x):
    """Small-jump nonlocal operator L^g_{nu,R} u at a point x: one row of
    ``_nonlocal_matrix`` applied to u's node values.

    u is read beyond the grid on its linear extension, as the solvers read
    their unknowns; a constant extension is refused.
    """
    x = float(x)
    if not (u.lo <= x <= u.hi):
        raise ExtrapolationError(f"x={x} outside the grid [{u.lo}, {u.hi}]")
    if u.extension != "linear":
        raise ParameterError("apply_nonlocal reads u on its linear extension")
    if not p.has_jumps:
        return 0.0
    return float((_nonlocal_matrix(p, (u.lo, u.hi, u.n), np.array([x]), 0.0) @ u.values)[0])


# ---------------------------------------------------------------------------
# solvers


@dataclass
class SpaceTimeSolution:
    """u(t, x) on the time grid ``times`` and the spatial grid of ``grid``."""

    times: np.ndarray
    grid: GridFunction
    values: np.ndarray  # (len(times), n)


@dataclass
class EllipticSolution:
    """The resolvent solution with its sup norms; ``sweeps`` counts the
    linear solves, one per call."""

    u: GridFunction
    lam: float
    sup_u: float
    sup_grad: float
    sweeps: int


def _local_matrix(a, b, lam, xs):
    """(lambda - a d2 - b d1_upwind) as a sparse M-matrix with Dirichlet rows."""
    n = len(xs)
    h = xs[1] - xs[0]
    bp = np.maximum(b, 0.0)
    bm = np.minimum(b, 0.0)
    diag = lam + 2.0 * a / h**2 + (bp - bm) / h
    upper = -(a / h**2 + bp / h)
    lower = -(a / h**2 - bm / h)
    diag[0] = diag[-1] = 1.0
    upper[0] = lower[-1] = 0.0
    return sparse.diags([lower[1:], diag, upper[:-1]], offsets=[-1, 0, 1], shape=(n, n), format="csc")


def _coerce_forcing(f, xs):
    if callable(f) and not isinstance(f, GridFunction):
        return lambda t: np.asarray(f(t, xs), dtype=float)
    if isinstance(f, GridFunction):
        vec = f(xs)
        return lambda t: vec
    vec = np.broadcast_to(np.asarray(f, dtype=float), xs.shape).copy()
    return lambda t: vec


_GL8 = np.polynomial.legendre.leggauss(8)


def cell_average(fn, xs):
    """Average fn over the width-h cell around each node (Gauss-Legendre 8).

    The honest node value for merely integrable coefficients: a singular
    odd drift contributes its true (vanishing) cell mean at the origin
    instead of a floored point spike, while smooth coefficients move by
    O(h^2) only.
    """
    h = xs[1] - xs[0]
    nodes, weights = _GL8
    pts = xs[:, None] + 0.5 * h * nodes[None, :]
    vals = np.asarray(fn(floor_away_from_zero(pts.ravel())), dtype=float).reshape(pts.shape)
    return vals @ (0.5 * weights)


def _elliptic_coeffs(p, xs, t=0.0, drift="b1"):
    if drift not in ("b1", "full"):
        raise ParameterError(f"drift must be 'b1' or 'full', got {drift!r}")
    sig = np.asarray(p.sigma_eval(t, xs), dtype=float)
    if sig.ndim == 0:
        sig = np.full_like(xs, float(sig))
    a = 0.5 * sig**2
    bfun = p.b1 if drift == "b1" else p.b
    bv = np.zeros_like(xs) if bfun is None else cell_average(lambda xv: bfun(t, xv), xs)
    return a, bv


def _interior_nonlocal(p, grid, xs, t):
    """The nonlocal matrix at the nodes with its Dirichlet rows dropped; None
    for a problem without jumps."""
    if not p.has_jumps:
        return None
    interior = np.ones(len(xs))
    interior[[0, -1]] = 0.0
    return sparse.diags(interior) @ _nonlocal_matrix(p, grid, xs, t)


def _factorise(local, nonlocal_):
    """splu of local - N, of local alone when N is None."""
    return splu(local if nonlocal_ is None else (local - nonlocal_).tocsc())


def solve_backward_pide(p, f, lam, horizon, grid, dt=1e-2, terminal=0.0):
    """Backward parabolic solve of  d_t u + (a d2 - lam) u + b d1 u + L^g u = f
    on [0, horizon] with u(horizon) = terminal and Dirichlet edges.

    Fully implicit Euler in reversed time, local and nonlocal parts alike,
    at the coefficients of each step's earlier time.  A time-homogeneous
    problem assembles its operator once and factorises it once per step
    size; a time-dependent one assembles and factorises on every step.
    """
    lo, hi, n = grid
    xs = np.linspace(lo, hi, n)
    v = np.broadcast_to(terminal(xs) if callable(terminal) else terminal, xs.shape).astype(float)
    forcing = _coerce_forcing(f, xs)
    n_steps = int(math.ceil(horizon / dt - 1e-12))
    times = np.linspace(0.0, horizon, n_steps + 1)
    values = np.empty((n_steps + 1, n))
    values[-1] = v
    edge = (v[0], v[-1])

    frozen = _interior_nonlocal(p, grid, xs, horizon) if p.time_homogeneous else None

    def factorised(t, step):
        a, bv = _elliptic_coeffs(p, xs, t=t, drift="full")
        nonlocal_ = frozen if p.time_homogeneous else _interior_nonlocal(p, grid, xs, t)
        return _factorise(_local_matrix(a, bv, lam + 1.0 / step, xs), nonlocal_)

    lu_step = dt  # the step the factorised matrix was built for
    if p.time_homogeneous:
        lu = factorised(horizon, dt)

    for k in range(n_steps - 1, -1, -1):
        t = times[k]
        step = times[k + 1] - times[k]
        if not p.time_homogeneous or abs(step - lu_step) > 1e-14:
            lu, lu_step = factorised(t, step), step
        rhs = v / step - forcing(t)
        rhs[0], rhs[-1] = edge
        v = lu.solve(rhs)
        values[k] = v

    return SpaceTimeSolution(times=times, grid=GridFunction(lo, hi, n, values[0]), values=values)


def solve_elliptic(p, f, lam, grid, drift="b1"):
    """Resolvent solve of  (a d2 - lam) u + b d1 u + L^g u = f  with Dirichlet
    zero edges, by one sparse LU of (lam - local - N); b is the declared
    singular part b1 (or the full drift with drift='full').  Returns the
    solution with its sup norms, the inputs of the lambda-scaling diagnostics.
    """
    lo, hi, n = grid
    xs = np.linspace(lo, hi, n)
    a, bv = _elliptic_coeffs(p, xs, drift=drift)
    rhs = -_coerce_forcing(f, xs)(0.0)
    rhs[0] = rhs[-1] = 0.0
    lu = _factorise(_local_matrix(a, bv, lam, xs), _interior_nonlocal(p, grid, xs, 0.0))
    u = GridFunction(lo, hi, n, lu.solve(rhs))
    return EllipticSolution(u=u, lam=lam, sup_u=u.sup(), sup_grad=u.grad_max(), sweeps=1)


# ---------------------------------------------------------------------------
# the drift-removing map


@dataclass
class ZvonkinMap:
    """Phi(x) = x + u(x), piecewise linear like u, with its exact inverse.

    Points y are located in the node table (Phi(x_i), x_i) without a search:
    cell c of y is the number of nodes Phi(x_i) <= y, 0 below the table and n
    at or above its top node; the two outer cells carry the edge lines.
    About two equal y-buckets per cell each store the first cell they meet,
    and a query steps up from there by comparison, at most ``k_max - 1``
    times, k_max being the most cells one bucket meets (2 for a map whose
    cells keep Phi' >= 1/2; see DECISIONS.md).
    """

    u: GridFunction
    lam: float
    sup_u: float
    sup_grad: float

    def __post_init__(self):
        # strictly increasing node values make (Phi(x_i), x_i) a valid table
        # for the inverse, and every edge slope 1 + u'_edge positive
        xs, v = self.u.x, self.u.values
        ys = xs + v
        if np.any(np.diff(ys) <= 0):
            raise ContractionError("Phi is not strictly increasing on the grid")
        du, _ = self.u.stencil_derivatives()
        self._du_nodes = du
        self._ys = ys
        u_lo, u_hi = self.u.edge_slopes()
        self._edge_grads = (1.0 + u_lo, 1.0 + u_hi)  # Phi's slopes beyond the grid

        # one column per cell: its anchor node (Phi(x_j), x_j, u_j, u'_j) and
        # the slopes of x, u and u' beyond it, np.interp's slopes inside the
        # table and the edge lines outside
        n, dx = len(xs), np.diff(xs)
        anchor = np.concatenate(([0], np.arange(n)))
        self._cells = np.array(
            [
                ys[anchor],
                xs[anchor],
                v[anchor],
                du[anchor],
                np.concatenate(([1.0 / (1.0 + u_lo)], dx / np.diff(ys), [1.0 / (1.0 + u_hi)])),
                np.concatenate(([u_lo], np.diff(v) / dx, [u_hi])),
                np.concatenate(([0.0], np.diff(du) / dx, [0.0])),
            ]
        )

        m = 2 * (n - 1)
        self._bucket_lo, self._bucket_top = ys[0], float(m - 1)
        self._bucket_scale = m / (ys[-1] - ys[0])
        # bucket k starts at the count of nodes in lower buckets: the bucket
        # index is monotone in y, so those nodes all lie below any y in k
        first = np.searchsorted(self._bucket(ys), np.arange(m + 1))
        self._bucket_cell = first[:-1]
        self.k_max = int(np.max(np.diff(first))) + 1
        # NaN compares false, so the count stops at n, for y = +inf as well
        self._next_node = np.append(ys, np.nan)

    def _bucket(self, y):
        # fmax / fmin send NaN to bucket 0 and clamp +-inf, so the cast never warns
        t = (y - self._bucket_lo) * self._bucket_scale
        return np.fmin(np.fmax(t, 0.0), self._bucket_top).astype(np.intp)

    def _read(self, y, cells=None):
        """The rows of the table ``cells`` (one column per cell; default the
        map's own) at the cells of y (an array of floats), each shaped as y."""
        c = self._bucket_cell.take(self._bucket(y))
        for _ in range(self.k_max - 1):
            c += y >= self._next_node.take(c)
        return (self._cells if cells is None else cells).take(c, axis=1)

    def _phi_cells(self, x):
        """Phi(x) from x's cell on the uniform grid, found by one floor: cell
        j + 1 holds [x_j, x_{j+1}), and the outer cells 0 and n, below the
        grid and at or above its top node, carry the edge lines.  Equals
        ``phi`` to rounding; NaN and +-inf pass through."""
        s = (x - self.u.lo) * ((self.u.n - 1) / (self.u.hi - self.u.lo)) + 1.0
        c = np.fmin(np.fmax(s, 0.0), self.u.n).astype(np.intp)
        ya, xa, su = (self._cells[k].take(c) for k in (0, 1, 5))
        return (1.0 + su) * (x - xa) + ya

    def tabulate(self, f):
        """A reader y -> f(Phi^-1(y)) of the node values f, linear in x on each
        cell as u is and held at its end values beyond the grid, read with
        one cell locate as ``_pull_back`` reads u."""
        f = np.asarray(f, dtype=float)
        slopes = np.concatenate(([0.0], np.diff(f) / np.diff(self.u.x), [0.0]))
        cells = np.concatenate([self._cells[[0, 4]], [np.append(f[0], f), slopes]])
        span = self.u.hi - self.u.lo

        def read(y):
            y = np.asarray(y, dtype=float)
            ya, sx, fa, sf = self._read(y, cells)
            # the clip, far outside every inner cell, keeps 0 * inf out of the outer ones
            return sf * np.clip(sx * (y - ya), -span, span) + fa

        return read

    def phi(self, x):
        """x + u(x) on the grid, continued past it on its own edge lines (slope
        1 + u'_edge through the end nodes), so that phi(+-inf) = +-inf."""
        x = np.asarray(x, dtype=float)
        return _edge_lines(x, x + np.interp(x, self.u.x, self.u.values), self.u.x, self._ys, self._edge_grads)

    def grad_phi(self, x):
        """1 + u'(x) with the stencil derivative (smooth representation)."""
        x = np.asarray(x, dtype=float)
        return 1.0 + np.interp(x, self.u.x, self._du_nodes)

    def phi_inverse(self, y):
        """Phi^-1(y), bit for bit np.interp(y, Phi(x_i), x_i) inside the table
        and the lines of slope 1 / (1 + u'_edge) through the end nodes outside."""
        y = np.asarray(y, dtype=float)
        ya, xa, _, _, sx, _, _ = self._read(y)
        return sx * (y - ya) + xa

    def _pull_back(self, y):
        """(x, u(x), Phi'(x)) at x = Phi^-1(y), all read from the cell of y:
        x is ``phi_inverse(y)`` bit for bit, u(x) and Phi'(x) agree with
        ``u`` and ``grad_phi`` up to rounding."""
        y = np.asarray(y, dtype=float)
        ya, xa, ua, dua, sx, su, sdu = self._read(y)
        x = sx * (y - ya) + xa
        dx = x - xa
        # Phi' is constant beyond the grid; the clip, far outside every inner
        # cell, keeps 0 * inf out of the outer ones
        span = self.u.hi - self.u.lo
        grad = 1.0 + (sdu * np.clip(dx, -span, span) + dua)
        return x, su * dx + ua, grad

    def diagnostics(self):
        return {
            "lambda": self.lam,
            "sup_u": self.sup_u,
            "sup_grad_u": self.sup_grad,
            "grid": {"lo": self.u.lo, "hi": self.u.hi, "n": self.u.n},
        }


def grid_lipschitz_quotient(fn, lo, hi, n):
    """max |f(x_{i+1}) - f(x_i)| / h on a uniform probe grid."""
    xs = np.linspace(lo, hi, n)
    vals = np.asarray(fn(xs), dtype=float)
    return float(np.max(np.abs(np.diff(vals))) / (xs[1] - xs[0]))


def build_zvonkin(p, lam=None, grid=None, lam_start=10.0, lam_cap=2.0**20):
    """Solve the resolvent equation driven by the singular drift and build Phi.

    u solves (lam - L) u = b1, where L = a d2 + b1 d1 + L^g is the generator
    with the singular drift part only.  Ito's formula for Phi(X) = X + u(X)
    then replaces b1 + b2 by lam u + Phi' b2, free of the singular part.

    Returns (ZvonkinMap, transformed SdeProblem) with
    sigma~(y) = (Phi' sigma)(Phi^-1(y)),  b~(y) = (lam u + Phi' b2)(Phi^-1(y)),
    g~(y, z) = Phi(Phi^-1(y) + g(Phi^-1(y), z)) - y.
    When lam is None it starts at ``lam_start`` and doubles until
    ||u||_inf + ||u'||_inf <= 1/2; explicit lam that violates the contraction
    (or a search that reaches ``lam_cap``) raises ContractionError with the
    measured norms.
    """
    if not p.time_homogeneous:
        raise ParameterError("build_zvonkin needs a time-homogeneous problem")
    if p.b1 is None:
        lo, hi, n = (-10.0, 10.0, 5) if grid is None else grid
        u = GridFunction(lo, hi, n, np.zeros(n))
        zmap = ZvonkinMap(u=u, lam=lam or lam_start, sup_u=0.0, sup_grad=0.0)
        return zmap, _transformed_problem(p, zmap)
    if grid is None:
        grid = (-10.0, 10.0, 4001)

    def rhs(t, xs):
        # solve_elliptic solves (L - lam) u = f, so f = -b1 gives (lam - L) u = b1;
        # same cell-averaged reading of the singular forcing as the operator
        return -cell_average(lambda xv: p.b1(t, xv), np.asarray(xs, dtype=float))

    lam_values = [lam] if lam is not None else []
    if lam is None:
        if not 0 < lam_start <= lam_cap:
            raise ParameterError(
                f"the lambda search needs 0 < lam_start <= lam_cap, got lam_start = {lam_start}, lam_cap = {lam_cap}"
            )
        v = lam_start
        while v <= lam_cap:
            lam_values.append(v)
            v *= 2.0

    for lv in lam_values:
        last = solve_elliptic(p, rhs, lv, grid, drift="b1")
        if last.sup_u + last.sup_grad <= 0.5:
            zmap = ZvonkinMap(u=last.u, lam=lv, sup_u=last.sup_u, sup_grad=last.sup_grad)
            return zmap, _transformed_problem(p, zmap)
    raise ContractionError(
        f"contraction condition violated: ||u|| + ||u'|| = {last.sup_u + last.sup_grad:.4f} > 1/2 "
        f"at lambda = {last.lam}; raise lambda",
        sup_u=last.sup_u,
        sup_grad=last.sup_grad,
    )


def _transformed_problem(p, zmap):
    lam = zmap.lam

    def b_and_sigma(t, y):
        # one pull-back serves both coefficients
        x, u, grad = zmap._pull_back(y)
        b2 = 0.0 if p.b2 is None else np.asarray(p.b2(t, x), dtype=float)
        sigma = None if p.sigma is None else grad * np.asarray(p.sigma_eval(t, x), dtype=float)
        return lam * u + grad * b2, sigma

    jump_t = band_compensator = None
    if p.has_jumps:
        lo_grad, hi_grad = zmap._edge_grads

        def jump_t(t, y, z):
            y = np.asarray(y, dtype=float)
            x = zmap.phi_inverse(y)
            gx = p.g(t, x, z)
            # at y = +-inf, where Phi is its edge line, g~ is that line's Phi' g;
            # the zeros keep inf - inf out of the discarded branch
            far = np.isinf(y)
            if not far.any():
                return zmap._phi_cells(x + gx) - y
            lifted = zmap._phi_cells(np.where(far, 0.0, x) + gx) - np.where(far, 0.0, y)
            return np.where(far, np.where(y > 0, hi_grad, lo_grad) * gx, lifted)

    if p.has_jumps and p.sigma_bar is not None:
        tables = {}

        def band_compensator(eps):
            # g = sigma_bar z has no band compensator against the symmetric nu,
            # so g~'s is int [u(x + g) - u(x)] nu(dz), x = Phi^-1(y): on the
            # first call per eps, one rule at Phi's nodes with u(x + g) read
            # through the local cubic, as _nonlocal_matrix reads it; then a
            # table read (DECISIONS.md, "One map read per substep")
            if eps not in tables:
                rule = shell_rule(p.levy, eps, p.levy.big_jump_radius)
                u = zmap.u
                cols, w = _lagrange((u.lo, u.hi, u.n), u.x[:, None] + p.g_pairs(0.0, u.x, rule.nodes), 4)
                read = zmap.tabulate(rule.integrate(np.sum(w * u.values[cols], axis=-1) - u.values[:, None]))
                tables[eps] = lambda t, y: read(y)
            return tables[eps]

    q = SdeProblem(
        dim=1,
        sigma=None if p.sigma is None else (lambda t, y: b_and_sigma(t, y)[1]),
        b2=lambda t, y: b_and_sigma(t, y)[0],
        jump=jump_t,
        levy=p.levy,
        b_and_sigma=b_and_sigma,
        band_compensator=band_compensator,
        time_homogeneous=True,
        name=(p.name + "_zvonkin") if p.name else "zvonkin_transformed",
    )
    # fitted dissipativity declarations for the re-audit (kappa1 kept at a
    # quarter of the original, the rest measured on the build grid)
    if p.kappa1 is not None and p.r is not None:
        ys = np.linspace(zmap.phi(np.array([zmap.u.lo]))[0], zmap.phi(np.array([zmap.u.hi]))[0], 801)
        bv = q.b2(0.0, ys)
        k1 = p.kappa1 / 4.0
        k2 = float(np.max(ys * bv + k1 * np.abs(ys) ** (2.0 + p.r)))
        k3 = float(np.max(np.abs(bv) / (1.0 + np.abs(ys) ** (1.0 + p.r))))
        q = q.with_tags(kappa1=k1, kappa2=max(k2 * 1.05, 0.5), kappa3=k3 * 1.5, r=p.r)
    return q
