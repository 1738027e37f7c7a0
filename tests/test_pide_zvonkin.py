"""Solver tests: manufactured solutions, resolvent scaling, the drift-removing map."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from levylab import pide_zvonkin
from levylab.errors import ContractionError, ExtrapolationError, ParameterError
from levylab.integrator import StepConfig, simulate_ensemble
from levylab.levy_noise import LevyModel, shell_rule, tail_mass
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
# the paper's main setting: singular drift plus multiplicative 1.5-stable jumps
MAIN = preset("singular_jump")


class TestGridFunction:
    def test_linear_extension(self):
        g = GridFunction.from_callable(lambda x: 2.0 * x, -1, 1, 21, extension="linear")
        assert g(np.array([3.0]))[0] == pytest.approx(6.0)

    def test_constant_extension(self):
        g = GridFunction.from_callable(lambda x: 2.0 * x, -1, 1, 21, extension="constant")
        assert g(np.array([3.0]))[0] == pytest.approx(2.0)

    def test_flat_edge_holds_its_value_at_infinity(self):
        # a zero edge slope must not compute 0 * inf
        g = GridFunction(-1.0, 1.0, 5, np.array([2.0, 0.0, 1.0, 0.5, 0.5]))
        assert g.edge_slopes()[1] == 0.0
        assert np.array_equal(g(np.array([np.inf, 7.0])), [0.5, 0.5])
        assert np.array_equal(g(np.array([-np.inf])), [np.inf])
        assert np.array_equal(GridFunction(-1, 1, 5, np.zeros(5))(np.array([np.inf, -np.inf])), [0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridFunction(0.0, 1.0, 2, np.zeros(2))
        with pytest.raises(ParameterError):
            GridFunction(0.0, 1.0, 5, np.array([0, 1, np.nan, 0, 0.0]))


def _exactness_cases():
    """(grid, point) pairs: 101, 401 and 4001 nodes, at a node and off the nodes."""
    for n in (101, 401, 4001):
        h = 20.0 / (n - 1)
        node = -10.0 + h * round(10.3 / h)
        for x in (node, node + 0.37 * h, -node - 0.81 * h):
            yield (-10.0, 10.0, n), x


class TestNonlocal:
    def test_quadratic_reproduces_second_moment(self):
        # the Taylor remainder of x^2 is exactly g^2, and the local cubic, the
        # stencils and the inner moment are exact on quadratics, so the operator
        # evaluates sigma_bar(x)^2 times the second moment of nu over |z| < 1
        m2 = tail_mass(M15, 0.0, 1.0, 2.0)
        for grid, x in _exactness_cases():
            u = GridFunction.from_callable(np.square, *grid)
            assert abs(apply_nonlocal(u, JUMP_ID, x) - m2) < 1e-9, (grid, x)
            assert abs(apply_nonlocal(u, MAIN, x) - MAIN.sigma_bar(0.0, x) ** 2 * m2) < 1e-9, (grid, x)

    def test_constant_and_linear_vanish(self):
        for grid, x in _exactness_cases():
            for fn in (lambda xs: 3.0 + 0 * xs, lambda xs: xs):
                u = GridFunction.from_callable(fn, *grid)
                assert abs(apply_nonlocal(u, JUMP_ID, x)) < 1e-10, (grid, x)
                assert abs(apply_nonlocal(u, MAIN, x)) < 1e-10, (grid, x)

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
        assert ell.sweeps == 1
        assert np.max(np.abs(sol.values[0] - ell.u.values)) < 1e-6


def test_time_dependent_jump_coefficient_is_read_at_each_step():
    # g = (1 + t) 0.3 z enters the backward solve at each step's time; a
    # t-constant g declared time-dependent gives the time-homogeneous solution
    def problem(g, homogeneous):
        sigma = lambda t, x: np.sqrt(2.0) * np.ones_like(x)
        return SdeProblem(sigma=sigma, jump=g, levy=M15, time_homogeneous=homogeneous)

    def solve(p):
        return solve_backward_pide(p, GAUSS_BUMP, 3.0, 1.0, (-10, 10, 101), dt=0.1).values

    frozen = solve(problem(lambda t, x, z: 0.3 * z + 0 * x, True))
    growing = solve(problem(lambda t, x, z: (1.0 + t) * 0.3 * z + 0 * x, False))
    declared = solve(problem(lambda t, x, z: 0.3 * z + 0 * x, False))
    assert np.max(np.abs(growing - frozen)) > 1e-3
    assert np.max(np.abs(declared - frozen)) <= 1e-12


def test_inner_jump_mass_computed_once_per_solve(monkeypatch):
    calls = []
    real = pide_zvonkin.gamma_moment

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pide_zvonkin, "gamma_moment", counted)
    grid = (-10, 10, 101)
    ell = solve_elliptic(SMALL_JUMPS, GAUSS_BUMP, 3.0, grid)
    assert ell.sweeps == 1 and len(calls) == 1
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
        xs = s.u.x[100:-100]
        h = s.u.h
        vals = s.u.values
        d2 = (vals[101:-99] - 2 * vals[100:-100] + vals[99:-101]) / h**2
        nl = pide_zvonkin._nonlocal_matrix(p, (-10, 10, 401), xs, 0.0) @ vals
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

    def test_empty_lambda_search_refused(self):
        with pytest.raises(ParameterError, match="lam_start = 4.0, lam_cap = 2.0"):
            build_zvonkin(preset("ou_singular"), grid=(-10, 10, 101), lam_start=4.0, lam_cap=2.0)

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

    def test_direct_solve_at_small_lambda(self):
        # at lambda = 10 and 20 the main setting's nonlocal part is not small
        # against lambda (a fixed-point iteration on it diverges); the direct
        # solve returns u with (lam - L_h) u = b1 to round-off
        f = lambda t, xs: -pide_zvonkin.cell_average(lambda xv: MAIN.b1(t, xv), xs)
        for n in (51, 401):
            grid = (-10.0, 10.0, n)
            xs = np.linspace(*grid)
            a, b = pide_zvonkin._elliptic_coeffs(MAIN, xs)
            nonlocal_ = pide_zvonkin._nonlocal_matrix(MAIN, grid, xs, 0.0)
            for lam in (10.0, 20.0):
                u = solve_elliptic(MAIN, f, lam, grid).u.values
                assert np.all(np.isfinite(u))
                resid = (pide_zvonkin._local_matrix(a, b, lam, xs) - nonlocal_) @ u + f(0.0, xs)
                assert np.max(np.abs(resid[1:-1])) <= 1e-10 * np.max(np.abs(f(0.0, xs)))
        # so the search takes its first lambda, 10, and contracts there
        zmap, _ = build_zvonkin(MAIN, grid=(-10.0, 10.0, 51))
        assert zmap.lam == 10.0
        assert zmap.sup_u + zmap.sup_grad == pytest.approx(0.352, abs=1e-3)


def test_local_matrix_is_csc_with_dirichlet_rows():
    n, lam = 9, 2.0
    xs = np.linspace(-1.0, 2.0, n)
    h = xs[1] - xs[0]
    a, b = 0.5 + xs**2, np.sin(3.0 * xs)  # b takes both signs: both upwind branches
    ref = np.zeros((n, n))
    for i in range(1, n - 1):
        ref[i, i - 1] = -(a[i] / h**2 - min(b[i], 0.0) / h)
        ref[i, i] = lam + 2.0 * a[i] / h**2 + abs(b[i]) / h
        ref[i, i + 1] = -(a[i] / h**2 + max(b[i], 0.0) / h)
    ref[0, 0] = ref[-1, -1] = 1.0
    mat = pide_zvonkin._local_matrix(a, b, lam, xs)
    assert mat.format == "csc"
    assert mat.nnz == 3 * n - 4  # no explicit zeros stored in the Dirichlet rows
    np.testing.assert_allclose(mat.toarray(), ref, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# the cell locate of ZvonkinMap against np.interp on the node table


def _hand_built_map():
    # one Phi cell 1e-9 wide: a near-degenerate cell puts two nodes in one bucket
    n = 101
    xs = np.linspace(-10.0, 10.0, n)
    values = np.where(np.arange(n) > 50, -(xs[1] - xs[0]) + 1e-9, 0.0)
    return pide_zvonkin.ZvonkinMap(GridFunction(-10.0, 10.0, n, values), lam=1.0, sup_u=0.2, sup_grad=1.0)


@pytest.fixture(scope="module")
def zmaps():
    ou, q_ou = build_zvonkin(preset("ou_singular"), grid=(-10, 10, 4001))
    main, q_main = build_zvonkin(MAIN, lam=160.0, grid=(-10, 10, 101))
    return {"ou_singular": (ou, q_ou), "main": (main, q_main), "hand_built": (_hand_built_map(), None)}


def _interp_inverse(zmap, y):
    """np.interp on (Phi(x_i), x_i) continued by the lines through the end nodes."""
    xs = zmap.u.x
    ys = xs + zmap.u.values
    lo, hi = (1.0 / (1.0 + s) for s in zmap.u.edge_slopes())
    out = np.where(y < ys[0], xs[0] + lo * (y - ys[0]), np.interp(y, ys, xs))
    return np.where(y > ys[-1], xs[-1] + hi * (y - ys[-1]), out)


def _probe_points(zmap, n_random, seed=0):
    ys = zmap.u.x + zmap.u.values
    rng = np.random.default_rng(seed)
    random = rng.uniform(ys[0] - 4.0, ys[-1] + 4.0, n_random)
    return np.concatenate([random, ys, np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ou_singular", "main", "hand_built"])
def test_phi_inverse_is_interp_bit_for_bit(zmaps, name):
    zmap, _ = zmaps[name]
    # non-finite states too: on the hand-built map +inf walks past the top node
    y = np.concatenate([_probe_points(zmap, 100_000), [np.nan, np.inf, -np.inf]])
    np.testing.assert_array_equal(zmap.phi_inverse(y), _interp_inverse(zmap, y))
    # the map's shapes pass through: a (rows, cols) block of states
    block = y[:1000].reshape(100, 10)
    np.testing.assert_array_equal(zmap.phi_inverse(block), _interp_inverse(zmap, block))
    # maps that keep Phi' >= 1/2 meet at most two cells per bucket, the
    # near-degenerate cell three
    assert zmap.k_max == (3 if name == "hand_built" else 2)


@pytest.mark.parametrize("name", ["ou_singular", "main"])
def test_transformed_coefficients_match_the_composition(zmaps, name):
    zmap, q = zmaps[name]
    p = preset("ou_singular") if name == "ou_singular" else MAIN
    y = _probe_points(zmap, 100_000, seed=1)
    x = _interp_inverse(zmap, y)
    grad = zmap.grad_phi(x)
    sigma = grad * p.sigma_eval(0.0, x)
    b = zmap.lam * zmap.u(x) + grad * p.b2(0.0, x)
    np.testing.assert_allclose(q.sigma(0.0, y), sigma, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(q.b2(0.0, y), b, rtol=0.0, atol=1e-13)
    if p.jump is not None:
        z = np.random.default_rng(2).uniform(-1.0, 1.0, y.shape)
        g = zmap.phi(x + p.g(0.0, x, z)) - y
        np.testing.assert_allclose(q.g(0.0, y, z), g, rtol=0.0, atol=1e-13)


def test_transformed_coefficients_make_no_interp_call(zmaps, monkeypatch):
    _, q = zmaps["ou_singular"]
    y = np.random.default_rng(3).uniform(-9.0, 9.0, 8192)
    calls = []
    interp = np.interp

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    q.sigma(0.0, y)
    q.b2(0.0, y)
    assert calls == []


@pytest.mark.filterwarnings("error")
def test_non_finite_states_pass_through_without_warnings():
    zmap, q = build_zvonkin(preset("ou_singular"), grid=(-10, 10, 401))
    y = np.array([np.nan, np.inf, -np.inf])
    np.testing.assert_array_equal(zmap.phi_inverse(y), [np.nan, np.inf, -np.inf])
    # Phi continues on its edge lines, though u's edge slope here is -4e-26
    np.testing.assert_array_equal(zmap.phi(y), [np.nan, np.inf, -np.inf])
    np.testing.assert_array_equal(q.b2(0.0, y), [np.nan, -np.inf, np.inf])
    np.testing.assert_array_equal(q.sigma(0.0, y), [np.nan, np.sqrt(2.0), np.sqrt(2.0)])


@pytest.mark.filterwarnings("error")
def test_jump_coefficient_of_exploded_states(zmaps):
    # g~ at y = +-inf is the edge line's Phi' times g, here +-inf, with no warning
    _, q = zmaps["main"]
    y = np.array([np.inf, np.inf, -np.inf, -np.inf])
    z = np.array([0.5, -0.5, 0.5, -0.5])
    np.testing.assert_array_equal(q.g(0.0, y, z), [np.inf, -np.inf, np.inf, -np.inf])


# ---------------------------------------------------------------------------
# the transformed step: one map read per substep, Phi at x + g by one floor,
# and the band compensator of the main setting read from a table


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ou_singular", "main"])
def test_fused_read_equals_the_separate_coefficients(zmaps, name):
    zmap, q = zmaps[name]
    p = preset("ou_singular") if name == "ou_singular" else MAIN
    # 1e5 points, every node with its nextafter neighbours, points beyond the grid
    y = np.concatenate([_probe_points(zmap, 100_000, seed=4), [np.nan, np.inf, -np.inf]])
    b, sigma = q.b_and_sigma(0.0, y)
    # each coefficient read on its own, from its own pull-back
    x, u, grad = zmap._pull_back(y)
    np.testing.assert_array_equal(b, zmap.lam * u + grad * p.b2(0.0, x))
    np.testing.assert_array_equal(sigma, grad * p.sigma_eval(0.0, x))
    np.testing.assert_array_equal(b, q.b2(0.0, y))
    np.testing.assert_array_equal(sigma, q.sigma(0.0, y))


@pytest.mark.parametrize("name", ["ou_singular", "main"])
def test_engine_steps_the_fused_read_as_the_separate_calls(zmaps, name):
    zmap, q = zmaps[name]
    y0 = float(zmap.phi(np.array([0.4]))[0])
    cfg = StepConfig(dt=0.02)
    fused = simulate_ensemble(q, y0, 0.5, cfg, 500, 7)
    separate = simulate_ensemble(replace(q, b_and_sigma=None), y0, 0.5, cfg, 500, 7)
    np.testing.assert_array_equal(fused.terminal, separate.terminal)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["ou_singular", "main", "hand_built"])
def test_phi_by_one_floor_equals_phi(zmaps, name):
    zmap, _ = zmaps[name]
    xs = zmap.u.x
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(xs[0] - 4.0, xs[-1] + 4.0, 100_000), xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)])
    np.testing.assert_allclose(zmap._phi_cells(x), zmap.phi(x), rtol=0.0, atol=1e-14)
    np.testing.assert_array_equal(zmap._phi_cells(np.array([np.nan, np.inf, -np.inf])), [np.nan, np.inf, -np.inf])


def test_band_compensator_table_against_the_per_path_rule():
    # the rule integrates g~ of the piecewise-linear Phi point by point, which
    # swings on the scale of a cell where u'' is large (next to the |x|^(1/2)
    # cusp of u' at 0); the table reads u through the local cubic at the nodes.
    # Measured max errors (DECISIONS.md), 201 -> 801 nodes: overall 0.107 ->
    # 0.079, at |x| > 0.25 0.022 -> 0.0027, at |x| > 1.5 5.6e-4 -> 2.0e-5
    eps = 1.0 / 32.0
    rule = shell_rule(MAIN.levy, eps, 1.0)
    errs = {}
    for n in (201, 801):
        zmap, q = build_zvonkin(MAIN, lam=160.0, grid=(-10.0, 10.0, n))
        ys = zmap.u.x + zmap.u.values
        y = np.random.default_rng(6).uniform(ys[0] - 4.0, ys[-1] + 4.0, 100_000)
        ref = np.concatenate([rule.integrate(q.g_pairs(0.0, c, rule.nodes)) for c in np.array_split(y, 20)])
        err = np.abs(q.band_compensator(eps)(0.0, y) - ref)
        x = zmap.phi_inverse(y)
        errs[n] = [err.max()] + [err[np.abs(x) > r].max() for r in (0.25, 1.5, 10.0)]
    (coarse, mid_c, far_c, out_c), (fine, mid_f, far_f, out_f) = errs[201], errs[801]
    assert max(coarse, fine) <= 0.12
    assert mid_f <= mid_c / 4.0  # order >= 1 away from the cusp (measured 1.5)
    assert far_f <= far_c / 16.0  # order >= 2 beyond b1's support (measured 2.4)
    # beyond the grid both read ~0: u is a line there, and sigma_bar z integrates to 0
    assert max(out_c, out_f) <= 1e-12


def test_compensator_table_is_built_by_the_first_engine_not_at_build(monkeypatch):
    built = []
    tabulate = pide_zvonkin.ZvonkinMap.tabulate

    def counted(self, f):
        built.append(len(f))
        return tabulate(self, f)

    monkeypatch.setattr(pide_zvonkin.ZvonkinMap, "tabulate", counted)
    zmap, q = build_zvonkin(MAIN, lam=160.0, grid=(-10, 10, 101))
    assert built == []
    y0 = float(zmap.phi(np.array([0.5]))[0])
    for _ in range(2):
        simulate_ensemble(q, y0, 0.02, StepConfig(dt=0.01), 8, 1)
    assert built == [101]  # once per eps
    simulate_ensemble(q, y0, 0.02, StepConfig(dt=0.01, small_jump_cutoff=0.125), 8, 1)
    assert built == [101, 101]


def test_main_setting_direct_equals_mapped_transformed():
    # the main setting stepped directly and through Phi, compared on bounded
    # statistics (W1 at this size is noise); E tanh X_T and E tanh^2 X_T each
    # within a family-wise 1e-3 normal bound plus the two schemes' measured
    # gap at dt = 0.01 (30 seed pairs: +0.0040 +- 0.0016 and +0.0058 +- 0.0006)
    n_paths, x0, allowance = 8192, 0.5, 0.01
    cfg = StepConfig(dt=0.01)
    zmap, q = build_zvonkin(MAIN, lam=160.0, grid=(-10.0, 10.0, 401))
    direct = simulate_ensemble(MAIN, x0, 1.0, cfg, n_paths, 101).terminal[:, 0]
    y0 = float(zmap.phi(np.array([x0]))[0])
    mapped = zmap.phi_inverse(simulate_ensemble(q, y0, 1.0, cfg, n_paths, 102).terminal[:, 0])
    z_crit = norm.isf(1e-3 / 4)  # two statistics, two-sided
    for f in (np.tanh, lambda x: np.tanh(x) ** 2):
        a, b = f(direct), f(mapped)
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n_paths)
        gap = abs(a.mean() - b.mean())
        assert gap <= z_crit * se + allowance, (a.mean(), b.mean(), se)
