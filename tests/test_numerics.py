"""Runge-Kutta kernel, stencil differentiation, polynomial fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from pathlin.errors import (GridTooCoarse, IllConditioned, NonFiniteState,
                            ValidationError)
from pathlin.numerics import (Grid, PolyCoeffs, basis_matrix, column_scale,
                              det, differentiate, eval_poly, fd_weights,
                              fit_poly, fit_residual, integrate, solve)

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


# The frame algebra against np.linalg: closed forms at m = 2, within
# bounds of eps times the condition number, and np.linalg itself at m = 3.

EPS = np.finfo(float).eps


@st.composite
def well_conditioned(draw, m=2, single=False):
    """scale * P ((m + 1) I + E) with |E_ij| <= 1 and P the identity or a
    row swap: singular values within [1, 2m + 1] times the scale, for one
    (m, m) matrix or a stack of 0 to 6."""
    shape = (m, m) if single else (draw(st.integers(0, 6)), m, m)
    e = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    a = draw(st.floats(1e-3, 1e3)) * ((m + 1) * np.eye(m) + e)
    return a[..., ::-1, :] if draw(st.booleans()) else a


matrices = st.one_of(well_conditioned(), well_conditioned(single=True),
                     well_conditioned(m=3), well_conditioned(m=3, single=True))


def _condition(a):
    return np.linalg.cond(a) if a.size else np.ones(a.shape[:-2])


@given(matrices)
def test_det_matches_numpy(a):
    got, want = det(a), np.linalg.det(a)
    assert np.shape(got) == np.shape(want)
    if a.shape[-1] != 2:
        assert np.array_equal(got, want)
        return
    # the closed form is within 2 eps of the products' magnitudes; numpy's
    # det is the exp of a sum of logs, within a few eps times |log|
    size = np.abs(a[..., 0, 0] * a[..., 1, 1]) \
        + np.abs(a[..., 0, 1] * a[..., 1, 0])
    bound = 4.0 * EPS * (1.0 + np.abs(np.log(size))) * size
    assert (np.abs(got - want) <= bound).all()


@given(matrices, st.data())
def test_solve_matches_numpy(a, data):
    # entries 0 or above 1e-100, so that no product underflows
    b = data.draw(arrays(float, a.shape[:-1], elements=st.floats(
        -10.0, 10.0).filter(lambda v: v == 0.0 or abs(v) > 1e-100)))
    got, want = solve(a, b), np.linalg.solve(a, b[..., None])[..., 0]
    assert got.shape == want.shape
    if a.shape[-1] != 2:
        assert np.array_equal(got, want)
        return
    # the forward error bound eps * cond * |a^-1| |b|, which covers |x|,
    # with |b| <= sqrt(m) max |b_i|
    inv_norm = np.linalg.norm(np.linalg.inv(a), ord=2, axis=(-2, -1)) \
        if a.size else np.ones(a.shape[:-2])
    gap = np.abs(got - want).max(axis=-1, initial=0.0)
    size = math.sqrt(a.shape[-1]) * np.abs(b).max(axis=-1, initial=0.0)
    bound = 16.0 * EPS * _condition(a) * inv_norm * size
    assert (gap <= bound).all()


@given(st.integers(2, 3).flatmap(lambda m: arrays(
    float, st.tuples(st.integers(0, 6), st.just(m), st.just(m)),
    elements=st.floats(-1e100, 1e100))))
def test_column_scale_is_the_norm_product(a):
    want = np.linalg.norm(a, axis=-2).prod(axis=-1)
    assert column_scale(a).tobytes() == want.tobytes()
    if len(a):
        assert column_scale(a[0]).tobytes() == want[0].tobytes()


def test_singular_inverse_is_not_finite_at_m_2():
    a = np.array([[[1.0, 2.0], [2.0, 4.0]], [[2.0, 0.0], [0.0, 0.5]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = solve(a, np.ones((2, 2)))
    assert not np.isfinite(x[0]).any()
    assert np.array_equal(x[1], [0.5, 2.0])


@pytest.mark.parametrize("m", [2, 3])
def test_frame_algebra_on_empty_stacks(m):
    a, b = np.zeros((0, m, m)), np.zeros((0, m))
    assert det(a).shape == column_scale(a).shape == (0,)
    assert solve(a, b).shape == (0, m)
