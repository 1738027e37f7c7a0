"""Reference values the benchmark checks levylab against.

Everything here is computed from closed forms and ``scipy.integrate``; none of
it imports levylab, so a fault in the program cannot leak into its own oracle.
The Levy measure is the unit-constant isotropic alpha-stable measure on the
line, nu(dz) = |z|^(-1-alpha) dz, the convention levylab's ``LevyModel`` uses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate


def _ou_singular_weight(x):
    # unnormalised invariant density of dX = (sign(x)|x|^(-1/2) 1_{|x|<=1} - x) dt + sqrt(2) dW:
    # with a = sigma^2/2 = 1, pi(x) is proportional to exp(int_0^x b) = exp(2 min(|x|^(1/2), 1) - x^2/2)
    return math.exp(2.0 * math.sqrt(min(abs(x), 1.0)) - 0.5 * x * x)


def ou_singular_invariant(functionals):
    """E_pi f(X) for each f in ``functionals`` (even functions of x).

    The density is symmetric, so the integrals run over [0, inf), split at
    x = 1 where the drift switches off; on [0, 1] the substitution x = s^2
    removes the square-root kink at the origin.
    """

    def half_line(f):
        inner = integrate.quad(
            lambda s: f(s * s) * _ou_singular_weight(s * s) * 2.0 * s, 0.0, 1.0, epsabs=0.0, epsrel=1e-12
        )[0]
        outer = integrate.quad(lambda x: f(x) * _ou_singular_weight(x), 1.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        return inner + outer

    mass = half_line(lambda x: 1.0)
    return {name: half_line(f) / mass for name, f in functionals.items()}


def small_jump_second_moment(alpha, big_r):
    """int_{|z| < R} z^2 nu(dz); closed form 2 R^(2-alpha) / (2-alpha)."""
    return 2.0 * integrate.quad(lambda z: z ** (1.0 - alpha), 0.0, big_r, epsabs=0.0, epsrel=1e-12)[0]


def large_jump_rate(alpha, big_r):
    """nu(B_R^c) = int_{|z| >= R} nu(dz); closed form 2 R^(-alpha) / alpha."""
    return 2.0 * integrate.quad(lambda z: z ** (-1.0 - alpha), big_r, np.inf, epsabs=0.0, epsrel=1e-12)[0]


def _levy_exponent(xi, slopes, alpha, eps, big_r):
    """psi(xi) = int_{|z|>=eps} (e^{i xi g(z)} - 1 - i xi g(z) 1_{|z|<R}) nu(dz)
    for a jump coefficient linear on each half-line, g(z) = slopes[0] z for z > 0
    and g(z) = slopes[1] z for z < 0 (so g(-s) = -slopes[1] s); xi != 0."""
    total = 0.0 + 0.0j
    for w in (xi * slopes[0], -xi * slopes[1]):
        dens = lambda s: s ** (-1.0 - alpha)
        # band eps <= s < R: compensated, smooth, plain adaptive quadrature
        re = integrate.quad(lambda s: (math.cos(w * s) - 1.0) * dens(s), eps, big_r, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        im = integrate.quad(lambda s: (math.sin(w * s) - w * s) * dens(s), eps, big_r, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
        # tail s >= R: uncompensated; the oscillatory parts go to QUADPACK's Fourier rule
        re += integrate.quad(dens, big_r, np.inf, weight="cos", wvar=abs(w))[0] - big_r ** (-alpha) / alpha
        im += math.copysign(1.0, w) * integrate.quad(dens, big_r, np.inf, weight="sin", wvar=abs(w))[0]
        total += re + 1j * im
    return total


def pure_jump_characteristic(xis, horizon, slopes, alpha, eps, big_r):
    """Law of X_T for dX = int g(z) N~(dt, dz) with the jumps below eps dropped.

    Returns {xi: (phi, var_cos, var_sin)}: the characteristic function
    E e^{i xi X_T} = exp(T psi(xi)) and the exact variances of cos(xi X_T) and
    sin(xi X_T), which follow from phi(2 xi) and set the Monte Carlo standard
    error without estimating it from the sample.
    """
    out = {}
    for xi in xis:
        phi = complex(np.exp(horizon * _levy_exponent(xi, slopes, alpha, eps, big_r)))
        phi2 = complex(np.exp(horizon * _levy_exponent(2.0 * xi, slopes, alpha, eps, big_r)))
        var_cos = 0.5 * (1.0 + phi2.real) - phi.real**2
        var_sin = 0.5 * (1.0 - phi2.real) - phi.imag**2
        out[xi] = (phi, var_cos, var_sin)
    return out
