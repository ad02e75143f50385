import numpy as np
import pytest

from fiberphase.quadrature import cumulative_dense, cumulative_panes, integrate


def quadratic(x):
    return 1.5 - 2.0 * x + 0.75 * x**2


def antiderivative(x):
    return 1.5 * x - x**2 + 0.25 * x**3


def nonuniform_grid(intervals, seed):
    steps = np.random.default_rng(seed).uniform(0.2, 1.0, size=intervals)
    return np.concatenate([[-0.3], -0.3 + np.cumsum(steps)])


@pytest.mark.parametrize("intervals", [2, 3, 8, 9, 40, 41])
def test_integrate_exact_on_quadratics(intervals):
    x = nonuniform_grid(intervals, seed=intervals)
    exact = antiderivative(x[-1]) - antiderivative(x[0])
    assert integrate(quadratic(x), x) == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("intervals", [2, 3, 8, 9, 40, 41])
def test_cumulative_dense_exact_on_quadratics(intervals):
    x = nonuniform_grid(intervals, seed=100 + intervals)
    running = cumulative_dense(quadratic(x), x)
    assert running[0] == 0.0
    assert np.abs(running - (antiderivative(x) - antiderivative(x[0]))).max() < 1e-12
    assert running[-1] == pytest.approx(integrate(quadratic(x), x), abs=1e-12)


@pytest.mark.parametrize("intervals", [2, 3, 8, 9, 40, 41])
def test_cumulative_panes_exact_on_quadratics(intervals):
    x = nonuniform_grid(intervals, seed=200 + intervals)
    running = cumulative_panes(quadratic(x), x)
    # Pane boundaries, plus the last sample when one interval is left over.
    at = np.unique(np.append(np.arange(0, intervals + 1, 2), intervals))
    assert running[0] == 0.0
    assert np.abs(running - (antiderivative(x[at]) - antiderivative(x[0]))).max() < 1e-12
    assert running[-1] == integrate(quadratic(x), x)


@pytest.mark.parametrize("intervals, cut", [(4, 2), (8, 2), (8, 6), (9, 4), (9, 6), (40, 38), (41, 2), (41, 38)])
def test_start_carries_a_pane_aligned_split(intervals, cut):
    # Two blocks of three or more samples share sample `cut`, the second starting from the first's last value.
    x = nonuniform_grid(intervals, seed=300 + intervals)
    y = np.sin(7.0 * x) - 0.3
    one_pass = cumulative_panes(y, x)
    head = cumulative_panes(y[: cut + 1], x[: cut + 1])
    tail = cumulative_panes(y[cut:], x[cut:], start=head[-1])
    assert np.array_equal(np.concatenate([head, tail[1:]]), one_pass)


def test_two_samples_use_the_trapezoid():
    x = np.array([0.5, 2.0])
    y = np.array([3.0, -1.0])
    assert integrate(y, x) == 0.5 * (3.0 - 1.0) * 1.5


def test_cumulative_dense_needs_three_samples():
    with pytest.raises(ValueError, match="three"):
        cumulative_dense(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


def test_grid_validation():
    with pytest.raises(ValueError, match="at least two"):
        integrate(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="increasing"):
        integrate(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="equal length"):
        cumulative_dense(np.ones(4), np.arange(3.0))
