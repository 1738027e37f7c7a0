"""Solver tests: manufactured solutions, resolvent scaling, the drift-removing map."""

import numpy as np
import pytest

from levylab import pide_zvonkin
from levylab.errors import ContractionError, ExtrapolationError, NonConvergenceError, ParameterError
from levylab.levy_noise import LevyModel
from levylab.pide_zvonkin import (
    GridFunction,
    apply_nonlocal,
    build_zvonkin,
    grid_lipschitz_quotient,
    solve_backward_pide,
    solve_elliptic,
)
from levylab.sde_model import SdeProblem, audit_dissipativity, preset, problem_1d

M15 = LevyModel(alpha=1.5, dim=1, big_jump_radius=1.0)
BM2 = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x))  # a = 1
JUMP_ID = problem_1d(g=lambda x, z: z + 0 * x, levy=M15)
SMALL_JUMPS = problem_1d(  # a = 1 plus g = 0.3 z
    sigma=lambda x: np.sqrt(2.0) * np.ones_like(x),
    g=lambda x, z: 0.3 * z + 0 * x,
    levy=M15,
    sigma_bar=lambda x: 0.3 * np.ones_like(x),
)
GAUSS_BUMP = lambda t, xs: -np.exp(-(xs**2))


class TestGridFunction:
    def test_linear_extension(self):
        g = GridFunction.from_callable(lambda x: 2.0 * x, -1, 1, 21, extension="linear")
        assert g(np.array([3.0]))[0] == pytest.approx(6.0)

    def test_constant_extension(self):
        g = GridFunction.from_callable(lambda x: 2.0 * x, -1, 1, 21, extension="constant")
        assert g(np.array([3.0]))[0] == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridFunction(0.0, 1.0, 2, np.zeros(2))
        with pytest.raises(ParameterError):
            GridFunction(0.0, 1.0, 5, np.array([0, 1, np.nan, 0, 0.0]))


class TestNonlocal:
    def test_quadratic_reproduces_second_moment(self):
        u = GridFunction.from_callable(lambda x: x**2, -10, 10, 401)
        # Taylor remainder of a quadratic is exactly z^2, so the operator
        # evaluates the second jump moment 4.0
        assert apply_nonlocal(u, JUMP_ID, 0.5) == pytest.approx(4.0, abs=1e-4)

    def test_constant_and_linear_vanish(self):
        uc = GridFunction.from_callable(lambda x: 3.0 + 0 * x, -10, 10, 401)
        ul = GridFunction.from_callable(lambda x: x, -10, 10, 401)
        assert abs(apply_nonlocal(uc, JUMP_ID, 0.3)) < 1e-10
        assert abs(apply_nonlocal(ul, JUMP_ID, 0.3)) < 1e-10

    def test_extrapolation_guard(self):
        u = GridFunction.from_callable(lambda x: x**2, -1, 1, 51)
        with pytest.raises(ExtrapolationError):
            apply_nonlocal(u, JUMP_ID, 5.0)


class TestBackwardPide:
    def test_zero_forcing_zero_solution(self):
        sol = solve_backward_pide(BM2, 0.0, 1.0, 1.0, (-5, 5, 101), dt=0.05)
        assert np.max(np.abs(sol.values)) == 0.0

    def test_constant_forcing_ode_oracle(self):
        # spatially flat solution of d_t u + u_xx - u = 1 is -(1 - e^{-(T-t)})
        sol = solve_backward_pide(BM2, 1.0, 1.0, 10.0, (-20, 20, 801), dt=0.01)
        i = np.argmin(np.abs(sol.grid.x - 0.7))
        assert sol.values[0][i] == pytest.approx(-(1 - np.exp(-10)), abs=1e-3)

    def test_manufactured_solution_spatial_order(self):
        # u = e^{-(T-t)} sin x solves the equation with lam = 2 and forcing
        # -2 e^{-(T-t)} sin x on [-pi, pi] (edges vanish)
        T = 1.0
        errs = {}
        for n in (101, 201, 401):
            h = 2 * np.pi / (n - 1)
            sol = solve_backward_pide(
                BM2,
                lambda t, xs: -2.0 * np.exp(-(T - t)) * np.sin(xs),
                2.0,
                T,
                (-np.pi, np.pi, n),
                dt=0.2 * h**2,
                terminal=lambda xs: np.sin(xs),
            )
            errs[n] = np.max(np.abs(sol.values[0] - np.exp(-T) * np.sin(sol.grid.x)))
        order1 = np.log2(errs[101] / errs[201])
        order2 = np.log2(errs[201] / errs[401])
        assert order1 >= 1.8 and order2 >= 1.8

    def test_one_factorisation_when_dt_does_not_divide_horizon(self, monkeypatch):
        # the time grid's uniform step is horizon / ceil(horizon / dt) = 0.25
        factorised = []
        real = pide_zvonkin.splu

        def counted(mat):
            factorised.append(mat)
            return real(mat)

        monkeypatch.setattr(pide_zvonkin, "splu", counted)
        sol = solve_backward_pide(BM2, 1.0, 1.0, 1.0, (-5, 5, 101), dt=0.3)
        assert len(sol.times) == 5
        assert len(factorised) == 2  # the dt = 0.3 matrix, then the 0.25 one

    def test_jumps_reach_the_elliptic_steady_state(self):
        # at horizon 6 the transient e^{-lam T} (implicit: 1.3^-60) is gone,
        # and both solvers solve the same discrete resolvent equation
        grid = (-10, 10, 201)
        sol = solve_backward_pide(SMALL_JUMPS, GAUSS_BUMP, 3.0, 6.0, grid, dt=0.1)
        ell = solve_elliptic(SMALL_JUMPS, GAUSS_BUMP, 3.0, grid)
        assert ell.sweeps > 1
        assert np.max(np.abs(sol.values[0] - ell.u.values)) < 1e-6


def test_inner_jump_mass_computed_once_per_solve(monkeypatch):
    calls = []
    real = pide_zvonkin.gamma_moment

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pide_zvonkin, "gamma_moment", counted)
    grid = (-10, 10, 101)
    ell = solve_elliptic(SMALL_JUMPS, GAUSS_BUMP, 3.0, grid)
    assert ell.sweeps > 1 and len(calls) == 1
    calls.clear()
    sol = solve_backward_pide(SMALL_JUMPS, GAUSS_BUMP, 3.0, 1.0, grid, dt=0.1)
    assert len(sol.times) == 11 and len(calls) == 1


class TestElliptic:
    def test_zero_forcing(self):
        s = solve_elliptic(BM2, 0.0, 1.0, (-5, 5, 201))
        assert np.max(np.abs(s.u.values)) == 0.0

    def test_constant_forcing_interior(self):
        s = solve_elliptic(BM2, 1.0, 1.0, (-20, 20, 801))
        i = np.argmin(np.abs(s.u.x - 0.3))
        assert s.u.values[i] == pytest.approx(-1.0, abs=1e-3)

    def test_lambda_decay_of_gradient(self):
        p = preset("ou_singular")
        grads = []
        for lam in (10.0, 40.0, 160.0, 640.0):
            s = solve_elliptic(p, lambda t, xs: p.b1(t, xs), lam, (-10, 10, 2001))
            grads.append(s.sup_grad)
        assert all(np.diff(grads) < 0)
        assert grads[-1] < 0.25

    def test_comparison_principle(self):
        # f <= 0 everywhere forces u >= 0 (M-matrix of the upwinded operator)
        rng = np.random.default_rng(3)
        p = problem_1d(
            sigma=lambda x: 1.0 + 0.3 * np.sin(x), drift=lambda x: np.cos(3 * x) - 0.2 * x
        )
        for _ in range(5):
            coef = rng.uniform(0.2, 2.0, 3)
            f = lambda t, xs: -(coef[0] + coef[1] * np.abs(np.sin(coef[2] * xs)))
            s = solve_elliptic(p, f, 2.0, (-8, 8, 401), drift="full")
            assert np.all(s.u.values >= -1e-12)

    def test_unknown_drift_part_is_refused(self):
        p = problem_1d(sigma=lambda x: np.ones_like(x), b2=lambda x: -x)
        with pytest.raises(ParameterError, match="b2"):
            solve_elliptic(p, 1.0, 1.0, (-5, 5, 51), drift="b2")

    def test_elliptic_grid_refinement_second_order(self):
        # manufactured: u = exp(-x^2), f = (a u'' + b u' - lam u)
        a_val, lam = 1.0, 2.0
        u_exact = lambda x: np.exp(-(x**2))
        du = lambda x: -2 * x * np.exp(-(x**2))
        d2u = lambda x: (4 * x**2 - 2) * np.exp(-(x**2))
        p = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x), drift=lambda x: np.sin(x))
        f = lambda t, xs: a_val * d2u(xs) + np.sin(xs) * du(xs) - lam * u_exact(xs)
        errs = {}
        for n in (201, 401, 801):
            s = solve_elliptic(p, f, lam, (-12, 12, n), drift="full")
            errs[n] = np.max(np.abs(s.u.values - u_exact(s.u.x)))
        # upwinding limits this to first order when the drift switches sign,
        # so assert at least order one and decreasing errors
        assert errs[401] < 0.6 * errs[201] and errs[801] < 0.6 * errs[401]

    def test_nonlocal_elliptic_solution_satisfies_residual(self):
        p, lam, f = SMALL_JUMPS, 3.0, GAUSS_BUMP
        s = solve_elliptic(p, f, lam, (-10, 10, 401))
        # residual of (a d2 - lam) u + NL u - f at interior nodes
        from levylab.pide_zvonkin import _nonlocal_on_grid

        xs = s.u.x[100:-100]
        h = s.u.h
        vals = s.u.values
        d2 = (vals[101:-99] - 2 * vals[100:-100] + vals[99:-101]) / h**2
        nl = _nonlocal_on_grid(s.u, p, xs)
        resid = 1.0 * d2 - lam * vals[100:-100] + nl - f(0.0, xs)
        assert np.max(np.abs(resid)) < 5e-3


class TestZvonkin:
    def test_identity_when_no_singular_part(self):
        p = problem_1d(sigma=lambda x: np.sqrt(2.0) * np.ones_like(x), b2=lambda x: -x, kappa1=1.0, kappa2=1.0, r=0.0)
        zmap, q = build_zvonkin(p, grid=(-10, 10, 501))
        assert zmap.sup_u == 0.0
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(zmap.phi(xs), xs)
        assert np.allclose(q.b2(0.0, xs), p.b2(0.0, xs))

    def test_map_inversion_identities(self):
        zmap, _ = build_zvonkin(preset("ou_singular"), grid=(-10, 10, 4001))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-9, 9, 10_000)
        beyond = np.concatenate([rng.uniform(-14, -10, 1000), rng.uniform(10, 14, 1000)])
        for ys in (pts, beyond):
            assert np.max(np.abs(zmap.phi(zmap.phi_inverse(ys)) - ys)) < 1e-12
            assert np.max(np.abs(zmap.phi_inverse(zmap.phi(ys)) - ys)) < 1e-12
        nodes = zmap.u.x
        assert np.max(np.abs(zmap.phi_inverse(zmap.phi(nodes)) - nodes)) < 1e-12

    def test_u_solves_resolvent_with_singular_drift_as_source(self):
        # (lam - L) u = b1 makes u share the sign of the kick b1; the
        # opposite sign would leave 2 b1 in the transformed drift
        zmap, _ = build_zvonkin(preset("ou_singular"), grid=(-10, 10, 4001))
        u_pos, u_neg = zmap.u(np.array([0.5, -0.5]))
        assert u_pos > 0 > u_neg

    def test_contraction_condition_enforced(self):
        assert preset("ou_singular").kappa1 is not None
        with pytest.raises(ContractionError) as err:
            build_zvonkin(preset("ou_singular"), lam=1.0, grid=(-10, 10, 1001))
        assert err.value.sup_u is not None

    def test_transform_smooths_drift_and_keeps_dissipativity(self):
        p = preset("ou_singular")
        zmap, q = build_zvonkin(p, grid=(-10, 10, 4001))
        assert zmap.sup_u + zmap.sup_grad <= 0.5
        # the direct drift quotient diverges under refinement, the
        # transformed one stays put: that is the smoothing on display
        q_direct_c = grid_lipschitz_quotient(lambda x: p.b(0.0, x), -8, 8, 2001)
        q_direct_f = grid_lipschitz_quotient(lambda x: p.b(0.0, x), -8, 8, 8001)
        q_trans_c = grid_lipschitz_quotient(lambda y: q.b2(0.0, y), -8, 8, 2001)
        q_trans_f = grid_lipschitz_quotient(lambda y: q.b2(0.0, y), -8, 8, 8001)
        assert q_direct_f > 1.5 * q_direct_c
        assert q_trans_f < 1.5 * q_trans_c
        rep = audit_dissipativity(q, np.linspace(0.0, 8.0, 33))
        assert rep.passed

    def test_lambda_search_steps_past_divergent_sweeps(self):
        # the paper's main setting: singular drift plus multiplicative 1.5-stable
        # jumps; the sweeps diverge at lambda = 10 and 20 and contract at 40
        sigma_bar = lambda t, x: 0.5 * np.sqrt(np.abs(x))
        p = SdeProblem(
            sigma=lambda t, x: np.ones_like(x),
            b1=preset("ou_singular").b1,
            b2=lambda t, x: -x,
            jump=lambda t, x, z: sigma_bar(t, x) * z,
            sigma_bar=sigma_bar,
            levy=M15,
        )
        grid = (-10.0, 10.0, 51)
        with pytest.raises(NonConvergenceError):
            build_zvonkin(p, lam=20.0, grid=grid)
        zmap, _ = build_zvonkin(p, grid=grid)
        assert zmap.lam == 40.0
        assert zmap.sup_u + zmap.sup_grad <= 0.5

    @pytest.mark.parametrize(
        "solve",
        [
            lambda p, f, grid: solve_elliptic(p, f, 1e-4, grid, max_sweeps=8),
            lambda p, f, grid: solve_backward_pide(p, f, 1e-4, 10.0, grid, dt=10.0, max_sweeps=8),
        ],
        ids=["elliptic", "backward"],
    )
    def test_nonconvergence_reports_lambda(self, solve):
        # a fat jump coefficient at tiny lambda cannot contract
        p = problem_1d(
            sigma=lambda x: 0.05 * np.ones_like(x),
            g=lambda x, z: 3.0 * z + 0 * x,
            levy=M15,
            sigma_bar=lambda x: 3.0 * np.ones_like(x),
        )
        with pytest.raises(NonConvergenceError) as err:
            solve(p, lambda t, xs: np.sin(xs), (-6, 6, 301))
        assert err.value.lam == 1e-4
