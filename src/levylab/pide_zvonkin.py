"""1D finite-difference solvers for the backward/elliptic integro-differential
equations and the drift-removing change of variables Phi(x) = x + u(x).

Local part: a(x) u'' + b(x) u' - lambda u with a = sigma^2/2, centered second
difference and upwinded first derivative (the resulting matrix is an M-matrix,
so the discrete comparison principle holds).  The nonlocal small-jump part is
treated explicitly (lagged) inside the implicit local solve and iterated to a
fixed point, mirroring its lower-order role.

The nonlocal operator splits the z-integral at delta = sqrt(h): below delta
the exact second-order Taylor remainder collapses to u''(x)/2 times the
second jump moment (``gamma_moment``, one call for all nodes, made once per
solve since it does not depend on u); above delta the integrand
u(x+g)-u(x)-g u'(x) is integrated directly with the nu-quadrature rule of
``levy_noise``, its panels halved until the value settles.  Both solvers
run the same lagged fixed-point sweeps (``_nonlocal_sweeps``).

u is a node table with linear interpolation, so Phi = id + u is piecewise
linear and Phi^-1 is one interpolation on the nodes (Phi(x_i), x_i),
continued past the grid by the inverse edge slopes 1 / (1 + u'_edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import interpolate, sparse
from scipy.sparse.linalg import splu

from levylab.errors import (
    ContractionError,
    ExtrapolationError,
    NonConvergenceError,
    ParameterError,
)
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

    def _extend(self, x, inner):
        # np.interp and the clipped spline already hold the edge values
        if self.extension == "constant":
            return inner
        return _edge_lines(x, inner, self.x, self.values, self.edge_slopes())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self._extend(x, np.interp(x, self.x, self.values))

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

    @cached_property
    def _spline(self):
        # not-a-knot cubic: reproduces quadratics exactly for the nonlocal tests
        return interpolate.CubicSpline(self.x, self.values, bc_type="not-a-knot")

    def eval_smooth(self, x):
        """Cubic-spline interior evaluation, extension policy outside."""
        x = np.asarray(x, dtype=float)
        return self._extend(x, np.asarray(self._spline(np.clip(x, self.lo, self.hi))))


def _edge_lines(x, inner, xp, fp, slopes):
    """``inner`` on [xp[0], xp[-1]], continued outside by the lines through
    the end nodes of (xp, fp) with the given (low, high) slopes."""
    out = np.where(x < xp[0], fp[0] + slopes[0] * (x - xp[0]), inner)
    return np.where(x > xp[-1], fp[-1] + slopes[1] * (x - xp[-1]), out)


def gridfunction_to_csv(gf, fileobj):
    fileobj.write("x,value\n")
    for xi, vi in zip(gf.x, gf.values):
        fileobj.write(f"{format(float(xi), '.17g')},{format(float(vi), '.17g')}\n")


# ---------------------------------------------------------------------------
# nonlocal operator


def _nonlocal_outer_on_points(u, p, xs, delta, tol=1e-6):
    """Outer part of the small-jump generator at points xs (vectorized).

    Direct quadrature of u(x+g(x,z)) - u(x) - g(x,z) u'(x) over
    delta <= |z| < R, halving the rule's panels until the value settles.
    """
    du, _ = u.stencil_derivatives()
    du_x = np.interp(xs, u.x, du)
    ux = u.eval_smooth(xs)

    rule = shell_rule(p.levy, delta, p.levy.big_jump_radius)
    prev = None
    while True:
        gv = p.g_pairs(0.0, xs, rule.nodes)
        total = rule.integrate(u.eval_smooth(xs[:, None] + gv) - ux[:, None] - gv * du_x[:, None])
        if prev is not None and np.max(np.abs(total - prev)) <= tol * (1.0 + np.max(np.abs(total))):
            return total
        if len(rule.edges) > 1024:
            return total
        prev = total
        rule = rule.refined()


def _inner_mass(p, xs, h):
    """(delta, second jump moment over |z| < delta at xs); independent of u."""
    delta = min(math.sqrt(h), p.levy.big_jump_radius)
    return delta, gamma_moment(p, xs, 0, 2.0, 0.0, delta)


def _nonlocal_on_grid(u, p, xs, tol=1e-6, inner=None):
    """Small-jump generator L^g_{nu,R} u at the points xs; ``inner`` is
    ``_inner_mass(p, xs, u.h)``, computed here when not given."""
    if not p.has_jumps:
        return np.zeros_like(xs)
    delta, mass = _inner_mass(p, xs, u.h) if inner is None else inner
    _, d2 = u.stencil_derivatives()
    d2_x = np.interp(xs, u.x, d2)
    return 0.5 * d2_x * mass + _nonlocal_outer_on_points(u, p, xs, delta, tol=tol)


def apply_nonlocal(u, p, x, tol=1e-6):
    """Small-jump nonlocal operator L^g_{nu,R} u at a point x.

    The z-integral splits at delta = sqrt(h): the inner part uses the exact
    second-order Taylor remainder (u''(x)/2 times the second jump moment, an
    identity for quadratic u), the outer part direct quadrature of
    u(x+g(x,z)) - u(x) - g(x,z) u'(x).
    """
    x = float(x)
    if not (u.lo <= x <= u.hi):
        raise ExtrapolationError(f"x={x} outside the grid [{u.lo}, {u.hi}]")
    return float(_nonlocal_on_grid(u, p, np.array([x]), tol=tol)[0])


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
    u: GridFunction
    lam: float
    sup_u: float
    sup_grad: float
    sweeps: int
    residual: float


def _local_matrix(a, b, lam, xs):
    """(lambda - a d2 - b d1_upwind) as a sparse M-matrix with Dirichlet rows."""
    n = len(xs)
    h = xs[1] - xs[0]
    bp = np.maximum(b, 0.0)
    bm = np.minimum(b, 0.0)
    diag = lam + 2.0 * a / h**2 + (bp - bm) / h
    upper = -(a / h**2 + bp / h)
    lower = -(a / h**2 - bm / h)
    mat = sparse.diags(
        [lower[1:], diag, upper[:-1]], offsets=[-1, 0, 1], shape=(n, n), format="lil"
    )
    mat[0, :] = 0.0
    mat[0, 0] = 1.0
    mat[-1, :] = 0.0
    mat[-1, -1] = 1.0
    return sparse.csc_matrix(mat)


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


def _nonlocal_sweeps(p, grid, lam, nonlocal_tol, sweep_tol, max_sweeps):
    """``run(lu, base, edge, guess, where)`` -> (u, last update, sweeps): solve
    ``lu u = base + L^g guess`` (Dirichlet rows ``edge``) with the nonlocal
    term lagged until the update falls below ``sweep_tol``.  The inner mass
    is computed once, for all runs.
    """
    lo, hi, n = grid
    xs = np.linspace(lo, hi, n)
    inner = _inner_mass(p, xs, (hi - lo) / (n - 1)) if p.has_jumps else None

    def run(lu, base, edge, guess, where):
        residual_first = None
        for sweep in range(max_sweeps):
            nl = _nonlocal_on_grid(GridFunction(lo, hi, n, guess), p, xs, nonlocal_tol, inner)
            rhs = base + nl
            rhs[0], rhs[-1] = edge
            new = lu.solve(rhs)
            residual = float(np.max(np.abs(new - guess)))
            guess = new
            if residual < sweep_tol or not p.has_jumps:
                break
            if residual_first is None:
                residual_first = residual
            elif sweep == max_sweeps - 1 and residual > residual_first:
                raise NonConvergenceError(
                    f"nonlocal sweeps diverge {where} (residual {residual:.3e}); raise lambda",
                    lam=lam,
                )
        return guess, residual, sweep + 1

    return run


def solve_backward_pide(
    p,
    f,
    lam,
    horizon,
    grid,
    dt=1e-2,
    terminal=0.0,
    nonlocal_tol=1e-6,
    sweep_tol=1e-8,
    max_sweeps=50,
):
    """Backward parabolic solve of  d_t u + (a d2 - lam) u + b d1 u + L^g u = f
    on [0, horizon] with u(horizon) = terminal and Dirichlet edges.

    Implicit Euler marches in reversed time; the nonlocal term lags one
    fixed-point sweep inside each implicit step and sweeps repeat until the
    update falls below ``sweep_tol`` (NonConvergenceError reports lam if the
    residual grows for ``max_sweeps`` sweeps).
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

    lu_step = dt  # the step the factorised matrix was built for
    if p.time_homogeneous:
        a, bv = _elliptic_coeffs(p, xs, t=horizon, drift="full")
        lu = splu(_local_matrix(a, bv, lam + 1.0 / dt, xs))
    sweeps = _nonlocal_sweeps(p, grid, lam, nonlocal_tol, sweep_tol, max_sweeps)

    for k in range(n_steps - 1, -1, -1):
        t = times[k]
        step = times[k + 1] - times[k]
        if not p.time_homogeneous or abs(step - lu_step) > 1e-14:
            a, bv = _elliptic_coeffs(p, xs, t=t, drift="full")
            lu, lu_step = splu(_local_matrix(a, bv, lam + 1.0 / step, xs)), step
        v, _, _ = sweeps(lu, v / step - forcing(t), edge, v, f"at t={t}")
        values[k] = v

    return SpaceTimeSolution(times=times, grid=GridFunction(lo, hi, n, values[0]), values=values)


def solve_elliptic(p, f, lam, grid, drift="b1", nonlocal_tol=1e-6, sweep_tol=1e-8, max_sweeps=50):
    """Resolvent solve of  (a d2 - lam) u + b d1 u + L^g u = f  with Dirichlet
    zero edges; b is the declared singular part b1 (or the full drift with
    drift='full').  Returns the solution with its sup norms, the inputs of the
    lambda-scaling diagnostics.
    """
    lo, hi, n = grid
    xs = np.linspace(lo, hi, n)
    a, bv = _elliptic_coeffs(p, xs, drift=drift)
    lu = splu(_local_matrix(a, bv, lam, xs))
    sweeps = _nonlocal_sweeps(p, grid, lam, nonlocal_tol, sweep_tol, max_sweeps)
    guess, residual, count = sweeps(
        lu, -_coerce_forcing(f, xs)(0.0), (0.0, 0.0), np.zeros(n), "in the elliptic solve"
    )
    u = GridFunction(lo, hi, n, guess)
    return EllipticSolution(
        u=u,
        lam=lam,
        sup_u=u.sup(),
        sup_grad=u.grad_max(),
        sweeps=count,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# the drift-removing map


@dataclass
class ZvonkinMap:
    """Phi(x) = x + u(x), piecewise linear like u, with its exact inverse."""

    u: GridFunction
    lam: float
    sup_u: float
    sup_grad: float

    def __post_init__(self):
        # strictly increasing node values make (Phi(x_i), x_i) a valid table
        # for the inverse, and every edge slope 1 + u'_edge positive
        self._phi_nodes = self.u.x + self.u.values
        if np.any(np.diff(self._phi_nodes) <= 0):
            raise ContractionError("Phi is not strictly increasing on the grid")
        self._inv_edge_slopes = tuple(1.0 / (1.0 + s) for s in self.u.edge_slopes())
        du, _ = self.u.stencil_derivatives()
        self._du_nodes = du

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        return x + self.u(x)

    def grad_phi(self, x):
        """1 + u'(x) with the stencil derivative (smooth representation)."""
        x = np.asarray(x, dtype=float)
        return 1.0 + np.interp(x, self.u.x, self._du_nodes)

    def phi_inverse(self, y):
        y = np.asarray(y, dtype=float)
        ys, xs = self._phi_nodes, self.u.x
        return _edge_lines(y, np.interp(y, ys, xs), ys, xs, self._inv_edge_slopes)

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
    ||u||_inf + ||u'||_inf <= 1/2, stepping past lambdas whose nonlocal sweeps
    diverge; explicit lam that violates the contraction raises ContractionError
    with the measured norms, and one whose sweeps diverge NonConvergenceError.
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
        v = lam_start
        while v <= lam_cap:
            lam_values.append(v)
            v *= 2.0

    last = diverged = None
    for lv in lam_values:
        try:
            sol = solve_elliptic(p, rhs, lv, grid, drift="b1")
        except NonConvergenceError as err:  # a larger lambda damps the sweeps
            if lam is not None:
                raise
            diverged = err
            continue
        last = sol
        if sol.sup_u + sol.sup_grad <= 0.5:
            zmap = ZvonkinMap(u=sol.u, lam=lv, sup_u=sol.sup_u, sup_grad=sol.sup_grad)
            return zmap, _transformed_problem(p, zmap)
    if last is None:
        raise diverged
    raise ContractionError(
        f"contraction condition violated: ||u|| + ||u'|| = {last.sup_u + last.sup_grad:.4f} > 1/2 "
        f"at lambda = {last.lam}; raise lambda",
        sup_u=last.sup_u,
        sup_grad=last.sup_grad,
    )


def _transformed_problem(p, zmap):
    lam = zmap.lam

    def sigma_t(t, y):
        x = zmap.phi_inverse(y)
        return zmap.grad_phi(x) * np.asarray(p.sigma_eval(t, x), dtype=float)

    def b_t(t, y):
        x = zmap.phi_inverse(y)
        b2 = 0.0 if p.b2 is None else np.asarray(p.b2(t, x), dtype=float)
        return lam * zmap.u(x) + zmap.grad_phi(x) * b2

    jump_t = None
    if p.jump is not None:
        def jump_t(t, y, z):
            x = zmap.phi_inverse(y)
            return zmap.phi(x + p.g(t, x, z)) - y

    q = SdeProblem(
        dim=1,
        sigma=None if p.sigma is None else sigma_t,
        b2=b_t,
        jump=jump_t,
        levy=p.levy,
        time_homogeneous=True,
        name=(p.name + "_zvonkin") if p.name else "zvonkin_transformed",
    )
    # fitted dissipativity declarations for the re-audit (kappa1 kept at a
    # quarter of the original, the rest measured on the build grid)
    if p.kappa1 is not None and p.r is not None:
        ys = np.linspace(zmap.phi(np.array([zmap.u.lo]))[0], zmap.phi(np.array([zmap.u.hi]))[0], 801)
        bv = b_t(0.0, ys)
        k1 = p.kappa1 / 4.0
        k2 = float(np.max(ys * bv + k1 * np.abs(ys) ** (2.0 + p.r)))
        k3 = float(np.max(np.abs(bv) / (1.0 + np.abs(ys) ** (1.0 + p.r))))
        q = q.with_tags(kappa1=k1, kappa2=max(k2 * 1.05, 0.5), kappa3=k3 * 1.5, r=p.r)
    return q
