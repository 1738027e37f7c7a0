"""Coefficient triples (sigma, b, g), hypothesis metadata, and numerical audits.

Coefficient calling convention (vectorized over a batch of states):

- ``t`` is a float, or each row's own time shaped to broadcast against x
  ((n,) for dim=1, (n, 1) for dim>=2), for ``b``, ``sigma``, ``sigma_bar``
  and ``g`` alike: the integrator passes an array once the rows of a batch
  stand at different times (after a large jump, or at a splice).
- ``sigma(t, x)``: for dim=1, x has shape (n,) and sigma returns (n,) (the
  scalar diffusion); for dim>=2, x has shape (n, d) and sigma returns either
  (n,) (an isotropic multiple of the identity) or (n, d, d).
- ``b(t, x)``, ``b1``, ``b2``: return the same shape as x.
- ``sigma_bar(t, x)``: returns (n,).
- ``g(t, x, z)``: z has the same shape as x; returns the same shape.  A
  problem that declares ``sigma_bar`` and no ``jump`` has g = sigma_bar(t, x) z.

Audits are grid-based certificates with worst-case witnesses, not proofs:
they report falsifiability evidence for the declared constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from levylab.errors import EvaluationError, ParameterError
from levylab.levy_noise import LevyModel, shell_rule

__all__ = [
    "SdeProblem",
    "AuditReport",
    "audit_ellipticity",
    "audit_jump_coeff",
    "audit_dissipativity",
    "gamma_moment",
    "default_audit_grid",
    "floor_away_from_zero",
    "preset",
    "PRESET_NAMES",
]

SINGULAR_FLOOR = 1e-10


def floor_away_from_zero(x, eps=SINGULAR_FLOOR):
    """Push |x| up to eps componentwise, mapping exact zeros to +eps.

    Singular drifts such as |x|^(-1/2) then stay finite inside Euler steps
    and PDE assembly while regular coefficients are perturbed by at most eps.
    """
    x = np.asarray(x, dtype=float)
    s = np.where(x < 0, -1.0, 1.0)
    return np.where(np.abs(x) < eps, eps * s, x)


@dataclass
class SdeProblem:
    """The coefficient triple of the jump SDE with hypothesis metadata.

    The drift may be given whole (``drift``) or split as ``b1`` (singular
    part) + ``b2`` (dissipative part); the split is declared, never inferred.
    ``sigma_bar`` marks the multiplicative form g(t,x,z) = sigma_bar(t,x) * z,
    which unlocks the exact stable stepping mode of the integrator; given
    without ``jump``, it defines g.  ``b_and_sigma`` and ``band_compensator``,
    when set, must agree with the coefficients they stand for.
    """

    dim: int = 1
    sigma: object = None
    drift: object = None
    b1: object = None
    b2: object = None
    jump: object = None
    levy: LevyModel | None = None
    sigma_bar: object = None
    # declared hypothesis constants; None means "not declared"
    c0: float | None = None
    beta_sigma: float | None = None
    c1: float | None = None
    beta_g: float | None = None
    kappa1: float | None = None
    kappa2: float | None = None
    kappa3: float | None = None
    r: float | None = None
    time_homogeneous: bool = True
    name: str = ""
    # fast paths a derived problem may supply (the Zvonkin-transformed one);
    # every other problem leaves them unset.  ``b_and_sigma(t, x)`` returns
    # (b(t, x), sigma(t, x)) in one call, sigma None without a diffusion;
    # ``band_compensator(eps)`` returns c(t, x) = int_{eps<=|z|<R} g(t,x,z) nu(dz)
    b_and_sigma: object = None
    band_compensator: object = None

    def __post_init__(self):
        if self.drift is not None and (self.b1 is not None or self.b2 is not None):
            raise ParameterError("give either drift or the (b1, b2) split, not both")
        for label in ("c0", "c1", "kappa1", "kappa2", "kappa3"):
            v = getattr(self, label)
            if v is not None and not v > 0:
                raise ParameterError(f"declared constant {label} must be > 0, got {v}")
        if self.r is not None and not self.r > -1:
            raise ParameterError(f"declared r must be > -1, got {self.r}")
        if self.jump is not None and self.levy is None:
            raise ParameterError("a jump coefficient needs a LevyModel")

    @property
    def has_split(self):
        return self.b1 is not None or self.b2 is not None

    @property
    def has_jumps(self):
        """A Levy measure and a jump coefficient (whole or multiplicative) are both declared."""
        return self.levy is not None and (self.jump is not None or self.sigma_bar is not None)

    def b(self, t, x):
        """Full drift (sum of the declared split when no whole drift given)."""
        if self.drift is not None:
            return np.asarray(self.drift(t, x), dtype=float)
        parts = [f(t, x) for f in (self.b1, self.b2) if f is not None]
        return parts[0] + parts[1] if len(parts) == 2 else np.zeros_like(np.asarray(x, dtype=float)) + sum(parts)

    def sigma_eval(self, t, x):
        if self.sigma is None:
            return np.zeros(np.shape(x)[0] if np.ndim(x) else ())
        return np.asarray(self.sigma(t, x), dtype=float)

    def g(self, t, x, z):
        """The jump coefficient: ``jump``, else sigma_bar(t, x) z, else zero."""
        if self.jump is not None:
            return np.asarray(self.jump(t, x, z), dtype=float)
        if self.sigma_bar is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        z = np.asarray(z, dtype=float)
        sb = np.asarray(self.sigma_bar(t, x), dtype=float)
        return sb.reshape(sb.shape + (1,) * (z.ndim - sb.ndim)) * z

    def g_pairs(self, t, x, z):
        """g(t, x_i, z_k) for every pair, shape (len(x), len(z)), in one call (dim=1);
        t is a float or one time per x_i."""
        x, z = np.ravel(x), np.ravel(z)
        if np.ndim(t):
            t = np.repeat(np.ravel(t), len(z))
        return self.g(t, np.repeat(x, len(z)), np.tile(z, len(x))).reshape(len(x), len(z))


@dataclass
class AuditReport:
    """Outcome of a grid audit: pass flag, worst ratio/margin, and witness."""

    passed: bool
    worst_ratio: float
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def default_audit_grid(lo, hi, n=201, n_random=64, seed=0, t=0.0):
    """Default 1D audit grid: n uniform points plus n_random seeded extras."""
    xs = np.linspace(lo, hi, n)
    if n_random:
        rng = np.random.default_rng(seed)
        xs = np.concatenate([xs, rng.uniform(lo, hi, n_random)])
    return [(t, np.array([x])) for x in xs]


def _sigma_matrix(p, t, x):
    """sigma at a single state x (shape (d,)), returned as a (d, d) matrix."""
    d = p.dim
    val = p.sigma_eval(t, x if d == 1 else x[None, :])
    val = np.asarray(val, dtype=float)
    if not np.all(np.isfinite(val)):
        raise EvaluationError(f"sigma returned a non-finite value at t={t}, x={x}")
    if val.ndim <= 1:
        return float(val.reshape(-1)[0]) * np.eye(d)
    return val[0]


def audit_ellipticity(p, grid, directions=None):
    """Check (H^sigma): uniform ellipticity and the Hoelder modulus on a grid.

    Verifies c0^-1 |xi|^2 <= |sigma^T xi|^2 <= c0 |xi|^2 for every grid point
    and direction, and ||sigma(t,x) - sigma(t,x')|| <= c0 |x-x'|^beta over all
    same-time grid pairs. Returns the worst violation witness.
    """
    if p.c0 is None:
        raise ParameterError("audit_ellipticity needs a declared c0")
    c0 = p.c0
    d = p.dim
    if directions is None:
        directions = np.eye(d)
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    directions = directions / np.linalg.norm(directions, axis=1, keepdims=True)

    worst = 1.0
    witness = None
    mats = []
    for t, x in grid:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        m = _sigma_matrix(p, t, x)
        mats.append((t, x, m))
        for xi in directions:
            q = float(np.sum((m.T @ xi) ** 2))
            # ratio > 1 measures violation of either side of the sandwich
            ratio = max(q / c0, 1.0 / (c0 * q) if q > 0 else np.inf)
            if ratio > worst:
                worst = ratio
                witness = {"t": t, "x": x.tolist(), "xi": xi.tolist(), "quad_form": q}

    holder_worst = 0.0
    if p.beta_sigma is not None:
        beta = p.beta_sigma
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                ti, xi_, mi = mats[i]
                tj, xj_, mj = mats[j]
                if ti != tj:
                    continue
                dist = float(np.linalg.norm(xi_ - xj_))
                if dist == 0.0:
                    continue
                lhs = float(np.linalg.norm(mi - mj))
                ratio = lhs / (c0 * dist**beta)
                if ratio > max(worst, holder_worst):
                    witness = {"t": ti, "x": xi_.tolist(), "x_prime": xj_.tolist(), "holder_lhs": lhs}
                holder_worst = max(holder_worst, ratio)

    worst = max(worst, holder_worst)
    return AuditReport(passed=worst <= 1.0 + 1e-12, worst_ratio=worst, witness=witness)


def _grad_z(p, t, x, z, scale=None):
    """d/dz g(t, x, z) by central differences (dim=1 batches)."""
    h = 1e-5 * (np.abs(z) + 1.0) if scale is None else scale
    return (p.g(t, x, z + h) - p.g(t, x, z - h)) / (2.0 * h)


def audit_jump_coeff(p, grid, z_pairs):
    """Check (H^g) on sampled (x, z, z') triples (dim=1).

    Covers the bi-Lipschitz sandwich in z, g(x, 0) = 0, and the x-Hoelder
    conditions for the declared (c1, beta). Reports the worst witness.
    """
    if p.jump is None:
        raise ParameterError("problem has no jump coefficient")
    if p.c1 is None:
        raise ParameterError("audit_jump_coeff needs a declared c1")
    if p.dim != 1:
        raise ParameterError("audit_jump_coeff is implemented for dim=1")
    c1 = p.c1
    xs = np.array([float(np.atleast_1d(x)[0]) for _, x in grid])
    ts = [t for t, _ in grid]
    z_pairs = [(float(a), float(b)) for a, b in z_pairs]

    worst = 0.0
    witness = None

    def consider(ratio, tag, **info):
        nonlocal worst, witness
        if ratio > worst:
            worst = ratio
            witness = {"check": tag, **info}

    for t in sorted(set(ts)):
        sel = np.array([ti == t for ti in ts])
        x = xs[sel]
        g0 = p.g(t, x, np.zeros_like(x))
        if not np.all(np.isfinite(g0)):
            raise EvaluationError(f"g returned a non-finite value at t={t}, z=0")
        bad = int(np.argmax(np.abs(g0)))
        consider(float(np.abs(g0[bad])) / 1e-12, "g(x,0)=0", x=float(x[bad]))

        for za, zb in z_pairs:
            if za == zb:
                continue
            ga = p.g(t, x, np.full_like(x, za))
            gb = p.g(t, x, np.full_like(x, zb))
            inc = np.abs(ga - gb) / abs(za - zb)
            i = int(np.argmax(inc))
            consider(float(inc[i]) / c1, "z-lipschitz upper", x=float(x[i]), z=za, z_prime=zb)
            i = int(np.argmin(inc))
            consider(
                1.0 / (c1 * float(inc[i])) if inc[i] > 0 else np.inf,
                "z-lipschitz lower",
                x=float(x[i]),
                z=za,
                z_prime=zb,
            )

        if p.beta_g is not None and len(x) > 1:
            beta = p.beta_g
            zs = np.unique([z for pair in z_pairs for z in pair])
            zs = zs[np.abs(zs) > 0]
            dx = np.abs(x[:, None] - x[None, :])
            np.fill_diagonal(dx, np.inf)
            for z in zs:
                zz = np.full_like(x, z)
                gv = p.g(t, x, zz)
                dg = np.abs(gv[:, None] - gv[None, :])
                bound = c1 * dx**beta * 2.0 * abs(z)
                ratio = dg / bound
                i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
                consider(float(ratio[i, j]), "x-holder j=0", x=float(x[i]), x_prime=float(x[j]), z=float(z))
                dgz = _grad_z(p, t, x, zz)
                ddg = np.abs(dgz[:, None] - dgz[None, :])
                bound = c1 * dx**beta * (abs(z) + 1.0)
                ratio = ddg / bound
                i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
                consider(float(ratio[i, j]), "x-holder j=1", x=float(x[i]), x_prime=float(x[j]), z=float(z))

    return AuditReport(passed=worst <= 1.0 + 1e-9, worst_ratio=worst, witness=witness)


def audit_dissipativity(p, radial_grid):
    """Evaluate the dissipativity inequality on a radial grid.

    With a declared split the (diss) form <x, b2(x)> <= -kappa1 |x|^(2+r) +
    kappa2 is audited together with the growth bound |b2| <= kappa3 (1 +
    |x|^(1+r)); without a split the combined form 2 <x, b(x)> + ||sigma||^2
    is used. margin = min over the grid of (RHS - LHS); pass iff margin >= 0.
    """
    if not p.time_homogeneous:
        raise ParameterError("audit_dissipativity needs a time-homogeneous problem")
    for label in ("kappa1", "kappa2", "r"):
        if getattr(p, label) is None:
            raise ParameterError(f"audit_dissipativity needs declared {label}")
    if p.r <= -1:
        raise ParameterError(f"r must be > -1, got {p.r}")
    radial_grid = np.asarray(radial_grid, dtype=float)
    d = p.dim
    e1 = np.zeros(d)
    e1[0] = 1.0
    pts = np.concatenate([radial_grid[:, None] * e1[None, :], -radial_grid[:, None] * e1[None, :]])
    x = pts[:, 0] if d == 1 else pts
    t = 0.0

    rr = np.linalg.norm(pts, axis=1)
    rhs = -p.kappa1 * rr ** (2.0 + p.r) + p.kappa2
    if p.has_split:
        bv = np.zeros_like(pts) if p.b2 is None else np.atleast_2d(np.asarray(p.b2(t, x), dtype=float).reshape(len(pts), -1))
        lhs = np.sum(pts * bv, axis=1)
    else:
        bv = np.atleast_2d(np.asarray(p.b(t, x), dtype=float).reshape(len(pts), -1))
        sig = p.sigma_eval(t, x)
        sig = np.asarray(sig, dtype=float)
        if sig.ndim <= 1:
            hs2 = d * sig.reshape(-1) ** 2
        else:
            hs2 = np.sum(sig**2, axis=(1, 2))
        lhs = 2.0 * np.sum(pts * bv, axis=1) + hs2
    if not np.all(np.isfinite(lhs)):
        i = int(np.argmax(~np.isfinite(lhs)))
        raise EvaluationError(f"drift/sigma non-finite at x={pts[i]}")

    margins = rhs - lhs
    i = int(np.argmin(margins))
    kappa1_margin = float(margins[i])
    witness = {"x": pts[i].tolist(), "lhs": float(lhs[i]), "rhs": float(rhs[i])}

    kappa3_margin = np.inf
    if p.kappa3 is not None:
        target = p.b2 if p.has_split else None
        bfull = (
            np.atleast_2d(np.asarray(target(t, x), dtype=float).reshape(len(pts), -1))
            if target is not None
            else np.atleast_2d(np.asarray(p.b(t, x), dtype=float).reshape(len(pts), -1))
        )
        growth = p.kappa3 * (1.0 + rr ** (1.0 + p.r)) - np.linalg.norm(bfull, axis=1)
        kappa3_margin = float(np.min(growth))

    passed = kappa1_margin >= 0 and kappa3_margin >= 0
    return AuditReport(
        passed=passed,
        worst_ratio=-min(kappa1_margin, 0.0),
        witness=witness,
        details={"kappa1_margin": kappa1_margin, "kappa3_margin": float(kappa3_margin)},
    )


def _jump_derivative(p, t, x, z, j):
    """|grad_x^j g| at every pair of states x and marks z, shape (len(x), len(z)) (dim=1)."""
    x = np.ravel(np.asarray(x, dtype=float))
    if j == 0:
        return np.abs(p.g_pairs(t, x, z))
    h = 1e-5 * (np.abs(x) + 1.0)
    return np.abs(p.g_pairs(t, x + h, z) - p.g_pairs(t, x - h, z)) / (2.0 * h[:, None])


def gamma_moment(p, x, j, alpha_prime, r1, r2, t=0.0):
    """Gamma-type moment: int_{r1 <= |z| < r2} |grad_x^j g(t,x,z)|^alpha' nu(dz).

    ``x`` is a state or an array of states; the result has its shape.
    grad_x g falls back to central finite differences (step 1e-5 (|x|+1)).
    Implemented for dim=1 as one batched evaluation of g over all states and the
    nodes of ``levy_noise.shell_rule``; at the stable measure's open ends the
    measured local exponent both screens for divergence and closes the integral.
    """
    if j not in (0, 1):
        raise ParameterError(f"j must be 0 or 1, got {j}")
    if not (0 <= r1 <= r2):
        raise ParameterError(f"need 0 <= r1 <= r2, got {r1}, {r2}")
    x = np.asarray(x, dtype=float)
    if not p.has_jumps or r1 == r2:
        return 0.0 if x.ndim == 0 else np.zeros(x.shape)
    if p.dim != 1:
        raise ParameterError("gamma_moment is implemented for dim=1 problems")

    rule = shell_rule(p.levy, r1, r2)
    mag = _jump_derivative(p, t, x, rule.nodes, j)
    out = rule.integrate(mag**alpha_prime)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# ---------------------------------------------------------------------------
# built-in presets


def problem_1d(sigma=None, drift=None, b1=None, b2=None, g=None, levy=None, sigma_bar=None, **tags):
    """Convenience builder for 1D problems from scalar functions of x (and z)."""

    def lift(f):
        return None if f is None else (lambda t, x: np.asarray(f(x), dtype=float))

    def lift_g(f):
        return None if f is None else (lambda t, x, z: np.asarray(f(x, z), dtype=float))

    return SdeProblem(
        dim=1,
        sigma=lift(sigma),
        drift=lift(drift),
        b1=lift(b1),
        b2=lift(b2),
        jump=lift_g(g),
        levy=levy,
        sigma_bar=lift(sigma_bar),
        **tags,
    )


def _singular_ou_b1(x):
    # sign(x) |floor_away_from_zero(x)|^(-1/2) 1_{|x|<=1}, the floor as a maximum
    a = np.abs(x)
    return np.sign(x) * np.maximum(a, SINGULAR_FLOOR) ** (-0.5) * (a <= 1.0)


def preset(name):
    """Built-in experiment presets.

    - ``ou_singular``: dX = (b1 + b2)(X) dt + sqrt(2) dW with the singular
      kick b1(x) = sign(x) |x|^(-1/2) 1_{|x|<=1} and dissipative b2(x) = -x.
    - ``mixing_jump``: dX = dW + 0.5 |X_-|^(1/2) dL - X dt with L the
      isotropic 1.5-stable driver truncated at R=1.
    - ``singular_jump``: the paper's main setting, ``ou_singular``'s drift
      b1 + b2 with sigma = 1 and ``mixing_jump``'s jumps g = 0.5 |x|^(1/2) z.
    """
    if name == "ou_singular":
        return problem_1d(
            sigma=lambda x: np.full_like(np.asarray(x, dtype=float), np.sqrt(2.0)),
            b1=_singular_ou_b1,
            b2=lambda x: -np.asarray(x, dtype=float),
            c0=2.0,
            beta_sigma=0.5,
            kappa1=1.0,
            kappa2=1.0,
            kappa3=1.0,
            r=0.0,
            name="ou_singular",
        )
    if name == "mixing_jump":
        levy = LevyModel(kind="isotropic_stable", alpha=1.5, dim=1, big_jump_radius=1.0)
        sigma_bar = lambda x: 0.5 * np.abs(np.asarray(x, dtype=float)) ** 0.5
        return problem_1d(
            sigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            drift=lambda x: -np.asarray(x, dtype=float),
            g=lambda x, z: 0.5 * np.abs(np.asarray(x, dtype=float)) ** 0.5 * z,
            levy=levy,
            sigma_bar=sigma_bar,
            c0=1.0,
            beta_sigma=0.5,
            c1=2.0,
            beta_g=0.5,
            kappa1=2.0,
            kappa2=1.0,
            kappa3=1.0,
            r=0.0,
            name="mixing_jump",
        )
    if name == "singular_jump":
        sigma_bar = lambda x: 0.5 * np.sqrt(np.abs(np.asarray(x, dtype=float)))
        return problem_1d(
            sigma=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            b1=_singular_ou_b1,
            b2=lambda x: -np.asarray(x, dtype=float),
            g=lambda x, z: sigma_bar(x) * z,
            levy=LevyModel(kind="isotropic_stable", alpha=1.5, dim=1, big_jump_radius=1.0),
            sigma_bar=sigma_bar,
            c0=1.0,
            beta_sigma=0.5,
            c1=2.0,
            beta_g=0.5,
            kappa1=1.0,
            kappa2=1.0,
            kappa3=1.0,
            r=0.0,
            name="singular_jump",
        )
    raise ParameterError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")


PRESET_NAMES = ("ou_singular", "mixing_jump", "singular_jump")
