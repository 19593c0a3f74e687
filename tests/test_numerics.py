"""Runge-Kutta kernel, stencil differentiation, polynomial fitting."""

import math

import numpy as np
import pytest

from pathlin.errors import (GridTooCoarse, IllConditioned, NonFiniteState,
                            ValidationError)
from pathlin.numerics import (Grid, PolyCoeffs, basis_matrix, differentiate,
                              eval_poly, fd_weights, fit_poly, fit_residual,
                              integrate)

from conftest import assert_close


def test_grid_validation():
    with pytest.raises(GridTooCoarse):
        Grid(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValidationError):
        Grid(np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
    g = Grid.regular(-1.0, 1.0, 10)
    assert g.uniform and abs(g.h - 0.2) < 1e-15
    assert g.base_node() == 5
    assert Grid.regular(0.0, 1.0, 8).base_node() == 0


def test_integrate_constant_rhs():
    grid = Grid.regular(0.0, 1.0, 10)
    traj = integrate(lambda t, y: np.zeros(2), np.array([3.0, -1.0]), grid)
    assert np.all(traj == np.array([3.0, -1.0]))


def test_integrate_exponential():
    grid = Grid.regular(0.0, 1.0, 100)
    traj = integrate(lambda t, y: y, np.array([1.0]), grid)
    assert abs(traj[-1, 0] - math.e) < 1e-8
    assert traj[0, 0] == 1.0


def test_integrate_rotation_and_order():
    def error(n):
        grid = Grid.regular(0.0, 2.0 * math.pi, n)
        traj = integrate(lambda t, y: np.array([-y[1], y[0]]),
                         np.array([1.0, 0.0]), grid)
        return float(np.max(np.abs(traj[-1] - np.array([1.0, 0.0]))))

    assert error(400) < 1e-7
    order = math.log2(error(200) / error(400))
    assert order >= 3.8


def test_integrate_nonfinite():
    grid = Grid.regular(0.0, 2.0, 20)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState):
            integrate(lambda t, y: y * y, np.array([1.0]), grid)


def test_differentiate_polynomial_exact():
    grid = Grid.regular(0.0, 1.0, 10)
    vals = grid.nodes**2
    assert_close(differentiate(vals, grid), 2.0 * grid.nodes, 1e-12)
    vals4 = grid.nodes**4
    assert_close(differentiate(vals4, grid), 4.0 * grid.nodes**3, 1e-12)


def test_differentiate_sin():
    grid = Grid.regular(0.0, 1.0, 100)
    err = np.max(np.abs(differentiate(np.sin(grid.nodes), grid)
                        - np.cos(grid.nodes)))
    assert err < 1e-7


def test_differentiate_constant_and_coarse():
    grid = Grid.regular(0.0, 1.0, 10)
    assert_close(differentiate(np.ones(11), grid), np.zeros(11), 1e-14)
    fine = Grid.regular(0.0, 1.0, 4)
    differentiate(np.ones(5), fine)   # exactly at the minimum size
    with pytest.raises((GridTooCoarse, ValidationError)):
        differentiate(np.ones(4), Grid.regular(0.0, 1.0, 4))


def test_fit_poly_exact_representation():
    grid = Grid.regular(0.0, 1.0, 40)
    data = 1.0 - 2.0 * grid.nodes + 3.0 * grid.nodes**2
    for basis in ("bernstein", "monomial"):
        coeffs = fit_poly(data, grid, 2, basis)
        assert fit_residual(data, grid, coeffs) < 1e-10


def test_fit_poly_constant_bernstein_coefficients():
    grid = Grid.regular(0.0, 1.0, 30)
    coeffs = fit_poly(np.full(31, 2.5), grid, 4, "bernstein")
    assert_close(coeffs.coefficients, np.full((5, 1), 2.5), 1e-10,
                 "partition of unity")


def test_fit_poly_kink_improves_with_degree():
    grid = Grid.regular(0.0, 1.0, 100)
    data = np.abs(grid.nodes - 0.5)
    err = {}
    for d in (2, 10):
        fitted = eval_poly(fit_poly(data, grid, d), grid)[:, 0]
        err[d] = float(np.max(np.abs(fitted - data)))
    assert err[10] < err[2]


def test_fit_residual_orthogonal_to_span():
    grid = Grid.regular(0.0, 1.0, 60)
    data = np.sin(3.0 * grid.nodes)
    coeffs = fit_poly(data, grid, 5)
    resid = data[:, None] - eval_poly(coeffs, grid)
    design = basis_matrix(grid.nodes, 5, "bernstein", coeffs.interval)
    rel = np.max(np.abs(design.T @ resid)) / max(np.linalg.norm(data), 1.0)
    assert rel < 1e-9


def test_fit_residual_monotone_in_degree():
    grid = Grid.regular(0.0, 1.0, 100)
    data = np.abs(grid.nodes - 0.5)
    resid = [fit_residual(data, grid, fit_poly(data, grid, d))
             for d in range(11)]
    assert all(resid[d + 1] <= resid[d] + 1e-12 for d in range(10))


def test_fit_poly_ill_conditioned_monomial():
    grid = Grid.regular(0.0, 1.0, 100)
    data = np.sin(grid.nodes)
    with pytest.raises(IllConditioned):
        fit_poly(data, grid, 40, "monomial")


def test_eval_poly_anchored_to_interval():
    coeffs = PolyCoeffs("monomial", 1, np.array([[0.0], [1.0]]), (0.0, 2.0))
    vals = eval_poly(coeffs, np.array([0.0, 1.0, 2.0]))
    assert_close(vals[:, 0], [0.0, 0.5, 1.0], 1e-15, "u = (t - a)/(b - a)")


def test_fd_weights_polynomial_exact():
    xs = np.linspace(0.0, 0.5, 6)
    w = fd_weights(xs, 0.0, 2)
    f = 1.0 + 2.0 * xs + 3.0 * xs**2
    assert abs(w[0] @ f - 1.0) < 1e-12
    assert abs(w[1] @ f - 2.0) < 1e-12
    assert abs(w[2] @ f - 6.0) < 1e-11
