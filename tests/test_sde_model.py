"""Hypothesis audits and Gamma-moment quadrature against direct oracles."""

import numpy as np
import pytest

from levylab.errors import DivergenceError, ParameterError
from levylab.levy_noise import LevyModel
from levylab.sde_model import (
    SINGULAR_FLOOR,
    audit_dissipativity,
    audit_ellipticity,
    audit_jump_coeff,
    default_audit_grid,
    floor_away_from_zero,
    gamma_moment,
    preset,
    problem_1d,
)

M15 = LevyModel(alpha=1.5, dim=1, big_jump_radius=1.0)
GRID = default_audit_grid(-4.0, 4.0, n=101, n_random=16, seed=0)


class TestEllipticity:
    def test_identity_passes_with_ratio_one(self):
        p = problem_1d(sigma=lambda x: np.ones_like(x), c0=1.0)
        rep = audit_ellipticity(p, GRID)
        assert rep.passed and abs(rep.worst_ratio - 1.0) < 1e-9

    def test_scaled_identity_fails_with_witness(self):
        p = problem_1d(sigma=lambda x: 2.0 * np.ones_like(x), c0=1.0)
        rep = audit_ellipticity(p, GRID)
        assert not rep.passed
        assert abs(rep.witness["quad_form"] - 4.0) < 1e-12

    def test_sinusoidal_sigma_with_honest_constants(self):
        p = problem_1d(sigma=lambda x: 1.0 + 0.5 * np.sin(x), c0=4.0, beta_sigma=1.0)
        rep = audit_ellipticity(p, default_audit_grid(-4.0, 4.0, n=201, n_random=16, seed=1))
        assert rep.passed


class TestJumpCoeff:
    Z_PAIRS = [(-1.0, 1.0), (0.3, -0.2), (0.5, 0.9), (0.0, 0.7), (0.2, 0.25)]

    def test_identity_in_z(self):
        p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15, c1=1.0, beta_g=0.5)
        rep = audit_jump_coeff(p, GRID, self.Z_PAIRS)
        assert rep.passed

    def test_modulated_bounds(self):
        mk = lambda c1: problem_1d(g=lambda x, z: (2.0 + np.sin(x)) * z, levy=M15, c1=c1)
        assert audit_jump_coeff(mk(3.0), GRID, self.Z_PAIRS).passed
        rep = audit_jump_coeff(mk(2.0), GRID, self.Z_PAIRS)
        assert not rep.passed
        # worst witness sits where sin x is near 1
        assert np.sin(rep.witness["x"]) > 0.8

    def test_sqrt_modulation_violates_lower_bound_at_zero(self):
        p = problem_1d(g=lambda x, z: np.abs(x) ** 0.5 * z, levy=M15, c1=2.0)
        grid = [(0.0, np.array([v])) for v in (-1.0, 0.0, 1.0, 2.0)]
        rep = audit_jump_coeff(p, grid, self.Z_PAIRS)
        assert not rep.passed
        assert rep.witness["check"] == "z-lipschitz lower"
        assert rep.witness["x"] == 0.0


class TestDissipativity:
    RADIAL = np.linspace(0.0, 20.0, 41)

    def test_linear_drift_equality_case(self):
        p = problem_1d(
            sigma=lambda x: np.ones_like(x), drift=lambda x: -x, kappa1=2.0, kappa2=1.0, kappa3=1.0, r=0.0
        )
        rep = audit_dissipativity(p, self.RADIAL)
        assert rep.passed
        assert abs(rep.details["kappa1_margin"]) < 1e-9

    def test_superlinear_drift(self):
        p = problem_1d(
            sigma=lambda x: np.ones_like(x),
            drift=lambda x: -x * np.abs(x),
            kappa1=2.0,
            kappa2=1.0,
            kappa3=1.0,
            r=1.0,
        )
        assert audit_dissipativity(p, self.RADIAL).passed

    def test_wrong_sign_fails(self):
        p = problem_1d(sigma=lambda x: np.ones_like(x), drift=lambda x: +x, kappa1=0.5, kappa2=5.0, r=0.0)
        rep = audit_dissipativity(p, self.RADIAL)
        assert not rep.passed

    def test_monotone_in_grid(self):
        # enlarging the grid can only decrease the pass margin
        p = preset("ou_singular")
        coarse = audit_dissipativity(p, np.linspace(0.0, 10.0, 11))
        fine = audit_dissipativity(p, np.linspace(0.0, 10.0, 101))
        assert fine.details["kappa1_margin"] <= coarse.details["kappa1_margin"] + 1e-12


class TestGammaMoment:
    def test_state_independent_jump_has_zero_j1(self):
        p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15)
        assert gamma_moment(p, 0.3, 1, 2.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_sinusoidal_modulation_oracle(self):
        p = problem_1d(g=lambda x, z: np.sin(x) * z, levy=M15)
        assert gamma_moment(p, np.pi / 2, 0, 2.0, 0.0, 1.0) == pytest.approx(4.0, rel=1e-6)
        assert gamma_moment(p, 0.0, 1, 2.0, 0.0, 1.0) == pytest.approx(4.0, rel=1e-6)

    def test_additivity_over_radial_ranges(self):
        p = problem_1d(g=lambda x, z: np.sin(x) * z, levy=M15)
        a = gamma_moment(p, 0.7, 0, 2.0, 0.0, 0.3)
        b = gamma_moment(p, 0.7, 0, 2.0, 0.3, 1.0)
        c = gamma_moment(p, 0.7, 0, 2.0, 0.0, 1.0)
        assert abs(a + b - c) <= 1e-9 * c

    def test_divergence_screens(self):
        p = problem_1d(g=lambda x, z: z + 0 * x, levy=M15)
        with pytest.raises(DivergenceError, match="r1=0"):
            gamma_moment(p, 0.5, 0, 1.0, 0.0, 1.0)
        with pytest.raises(DivergenceError, match="r2=inf"):
            gamma_moment(p, 0.5, 0, 2.0, 1.0, np.inf)

    def test_small_jump_decay_curve(self):
        # the vanishing-small-jump condition shows up as a decaying sequence
        p = preset("mixing_jump")
        vals = [gamma_moment(p, 1.7, 0, 2.0, 0.0, 2.0**-k) for k in range(0, 6)]
        assert all(np.diff(vals) < 0)
        assert vals[-1] < 0.2 * vals[0]


def test_preset_unknown_name_lists_presets():
    with pytest.raises(ParameterError, match="ou_singular"):
        preset("nope")


def test_problem_rejects_conflicting_drift_declarations():
    with pytest.raises(ParameterError):
        problem_1d(drift=lambda x: -x, b2=lambda x: -x)


def test_singular_ou_b1_is_the_floored_formula_bit_for_bit():
    # the floor as a maximum gives the bytes of sign(x) |floor_away_from_zero(x)|^(-1/2) 1_{|x|<=1}
    up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
    x = np.array([0.0, -0.0, 1e-12, -1e-12, SINGULAR_FLOOR, -SINGULAR_FLOOR, 1.0, -1.0, up, down, -up, -down, np.inf, -np.inf, np.nan])
    old = np.sign(x) * np.abs(floor_away_from_zero(x)) ** (-0.5) * (np.abs(x) <= 1.0)
    new = preset("ou_singular").b1(0.0, x)
    assert new.tobytes() == old.tobytes()
    assert np.isnan(new[-1]) and np.all(new[-3:-1] == 0.0) and new[0] == 0.0
