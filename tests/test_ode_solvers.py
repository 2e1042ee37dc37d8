"""Tests for the numerical ODE solvers: tableaux, convergence orders,
problem definitions."""

import numpy as np
import pytest

from repro.ode import (
    AdamsBlockMethod,
    bruss2d,
    diirk_step,
    explicit_rk4,
    extrapolation_step,
    gauss_legendre,
    lagrange_integration_weights,
    radau_iia,
    reference_solution,
    relative_error,
    schroed,
    solve_diirk,
    solve_epol,
    solve_irk,
    solve_pab,
    solve_pabm,
)
from repro.ode.base import explicit_rk_step, integrate_fixed
from repro.ode.problems import ODEProblem


def linear_test_problem(n: int = 4, rate: float = -1.0) -> ODEProblem:
    """``y' = L y`` with known solution ``exp(L t) y0``: the closed-form
    oracle of the convergence-order tests."""
    decay = rate * np.arange(1, n + 1, dtype=float) / n
    y0 = np.ones(n)
    prob = ODEProblem(
        name=f"linear(n={n})",
        n=n,
        f=lambda t, y: decay * y,
        initial_state=lambda: y0,
        jac=lambda t, y: np.diag(decay),
        eval_flops=2.0 * n,
        kind="sparse",
    )
    object.__setattr__(prob, "exact", lambda t: np.exp(decay * t) * y0)
    return prob


def observed_order(solve, problem, t_end, h):
    ref = reference_solution(problem, t_end)
    e1 = relative_error(solve(h).y, ref)
    e2 = relative_error(solve(h / 2).y, ref)
    return np.log2(e1 / e2)


@pytest.fixture(scope="module")
def lin():
    return linear_test_problem(6)


class TestTableaux:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_gauss_order_conditions(self, s):
        tab = gauss_legendre(s)
        assert tab.b.sum() == pytest.approx(1.0)
        if s >= 1:
            assert (tab.b @ tab.c) == pytest.approx(0.5, abs=1e-12)
        # row sums of A equal c (collocation property)
        np.testing.assert_allclose(tab.A.sum(axis=1), tab.c, atol=1e-12)
        assert tab.order == 2 * s
        assert not tab.is_explicit or s == 0

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_radau_stiffly_accurate(self, s):
        tab = radau_iia(s)
        assert tab.c[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(tab.A[-1], tab.b, atol=1e-10)
        assert tab.b.sum() == pytest.approx(1.0)

    def test_rk4(self):
        tab = explicit_rk4()
        assert tab.is_explicit
        assert tab.b.sum() == pytest.approx(1.0)

    def test_lagrange_weights_integrate_polynomials_exactly(self):
        nodes = np.array([0.25, 0.5, 0.75, 1.0])
        W = lagrange_integration_weights(nodes, nodes)
        # integrating f(t) = t^2 sampled at the nodes from 0 to c_i
        f = nodes**2
        expected = nodes**3 / 3
        np.testing.assert_allclose(W @ f, expected, atol=1e-12)

    def test_lagrange_weights_reject_duplicates(self):
        with pytest.raises(ValueError):
            lagrange_integration_weights([0.5, 0.5], [1.0])

    def test_invalid_stage_counts(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestProblems:
    def test_bruss2d_shape(self):
        p = bruss2d(8)
        assert p.n == 128
        assert p.kind == "sparse"
        assert p.f(0.0, p.y0).shape == (128,)
        assert p.eval_flops > 0

    def test_bruss2d_jacobian_matches_finite_differences(self):
        p = bruss2d(4)
        y = p.y0 + 0.1
        J = p.jac(0.0, y).toarray()
        eps = 1e-7
        for k in (0, 5, 17, 31):
            e = np.zeros(p.n)
            e[k] = eps
            fd = (p.f(0.0, y + e) - p.f(0.0, y - e)) / (2 * eps)
            np.testing.assert_allclose(J[:, k], fd, atol=1e-5)

    def test_schroed_jacobian_matches_finite_differences(self):
        p = schroed(12)
        y = p.y0
        J = p.jac(0.0, y)
        eps = 1e-7
        for k in (0, 5, 11):
            e = np.zeros(p.n)
            e[k] = eps
            fd = (p.f(0.0, y + e) - p.f(0.0, y - e)) / (2 * eps)
            np.testing.assert_allclose(J[:, k], fd, atol=1e-5)

    def test_schroed_is_dense(self):
        p = schroed(16)
        assert p.kind == "dense"
        assert p.eval_flops == pytest.approx(4 * 16 * 16)

    def test_linear_problem_exact(self):
        p = linear_test_problem(3)
        ref = reference_solution(p, 1.0)
        assert ref.shape == (3,)

    def test_validation(self):
        with pytest.raises(ValueError):
            bruss2d(1)
        with pytest.raises(ValueError):
            schroed(1)


class TestEPOL:
    def test_order_matches_R(self, lin):
        order = observed_order(lambda h: solve_epol(lin, 1.0, h, R=4), lin, 1.0, 0.1)
        assert order == pytest.approx(4.0, abs=0.5)

    def test_r1_is_euler(self, lin):
        order = observed_order(lambda h: solve_epol(lin, 1.0, h, R=1), lin, 1.0, 0.05)
        assert order == pytest.approx(1.0, abs=0.3)

    def test_error_estimate_shrinks_with_h(self, lin):
        _, e1, _ = extrapolation_step(lin.f, 0.0, lin.y0, 0.2, 4)
        _, e2, _ = extrapolation_step(lin.f, 0.0, lin.y0, 0.1, 4)
        assert e2 < e1

    def test_feval_count(self, lin):
        _, _, k = extrapolation_step(lin.f, 0.0, lin.y0, 0.1, 4)
        assert k == 1 + 2 + 3 + 4

    def test_invalid_R(self, lin):
        with pytest.raises(ValueError):
            extrapolation_step(lin.f, 0.0, lin.y0, 0.1, 0)


class TestIRK:
    @pytest.mark.parametrize("K,expected", [(1, 2.0), (2, 4.0)])
    def test_order_is_2K(self, lin, K, expected):
        order = observed_order(
            lambda h: solve_irk(lin, 1.0, h, K=K), lin, 1.0, 0.1
        )
        assert order == pytest.approx(expected, abs=0.6)

    def test_few_iterations_reduce_order(self, lin):
        full = solve_irk(lin, 1.0, 0.1, K=3)
        crippled = solve_irk(lin, 1.0, 0.1, K=3, m=1)
        ref = reference_solution(lin, 1.0)
        assert relative_error(crippled.y, ref) > relative_error(full.y, ref)

    def test_invalid_m(self, lin):
        from repro.ode.irk import irk_step
        with pytest.raises(ValueError):
            irk_step(lin.f, 0.0, lin.y0, 0.1, gauss_legendre(2), 0)


class TestDIIRK:
    def test_order(self, lin):
        order = observed_order(
            lambda h: solve_diirk(lin, 1.0, h, K=2), lin, 1.0, 0.1
        )
        assert order == pytest.approx(3.0, abs=0.6)

    def test_dynamic_iterations_reported(self, lin):
        sol = solve_diirk(lin, 1.0, 0.05, K=2)
        assert sol.iterations_total >= sol.steps

    def test_sparse_jacobian_path(self):
        p = bruss2d(6)
        sol = solve_diirk(p, 0.05, 0.025, K=2)
        ref = reference_solution(p, 0.05, rtol=1e-9)
        assert relative_error(sol.y, ref) < 1e-3

    def test_requires_jacobian(self, lin):
        import dataclasses
        p = dataclasses.replace(lin, jac=None)
        with pytest.raises(ValueError):
            solve_diirk(p, 1.0, 0.1)


class TestAdams:
    def test_block_coefficients_integrate_exactly(self):
        m = AdamsBlockMethod.with_stages(4)
        # corrector weights integrate cubics exactly on [0, c_i]
        f = m.c**3
        np.testing.assert_allclose(m.W_corr @ f, m.c**4 / 4, atol=1e-10)

    def test_pab_order(self, lin):
        order = observed_order(lambda h: solve_pab(lin, 1.0, h, K=4), lin, 1.0, 0.1)
        assert order > 3.0

    def test_pabm_more_accurate_than_pab(self, lin):
        ref = reference_solution(lin, 1.0)
        e_pab = relative_error(solve_pab(lin, 1.0, 0.1, K=4).y, ref)
        e_pabm = relative_error(solve_pabm(lin, 1.0, 0.1, K=4, m=2).y, ref)
        assert e_pabm < e_pab

    def test_pabm_requires_corrections(self, lin):
        with pytest.raises(ValueError):
            solve_pabm(lin, 1.0, 0.1, K=4, m=0)

    def test_stage_nodes_end_at_one(self):
        m = AdamsBlockMethod.with_stages(5)
        assert m.c[-1] == pytest.approx(1.0)
        assert len(m.c) == 5


class TestBase:
    def test_integrate_fixed_lands_on_t_end(self, lin):
        sol = integrate_fixed(lambda t, y, h: y, 0.0, lin.y0, 1.0, 0.3)
        assert sol.t == pytest.approx(1.0)
        assert sol.steps == 4  # 0.3 + 0.3 + 0.3 + 0.1

    def test_integrate_fixed_records(self, lin):
        sol = integrate_fixed(lambda t, y, h: y, 0.0, lin.y0, 1.0, 0.5, record=True)
        assert len(sol.trajectory) == 3

    def test_rk_step_rejects_implicit(self, lin):
        with pytest.raises(ValueError):
            explicit_rk_step(gauss_legendre(2), lin.f, 0.0, lin.y0, 0.1)

    def test_invalid_h(self, lin):
        with pytest.raises(ValueError):
            integrate_fixed(lambda t, y, h: y, 0.0, lin.y0, 1.0, 0.0)
