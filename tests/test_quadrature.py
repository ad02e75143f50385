import numpy as np
import pytest

from fiberphase.quadrature import cumulative_dense, cumulative_panes


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
    assert cumulative_panes(quadratic(x), x)[-1] == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("intervals", [2, 3, 8, 9, 40, 41])
def test_cumulative_dense_exact_on_quadratics(intervals):
    x = nonuniform_grid(intervals, seed=100 + intervals)
    running = cumulative_dense(quadratic(x), x)
    assert running[0] == 0.0
    assert np.abs(running - (antiderivative(x) - antiderivative(x[0]))).max() < 1e-12
    assert running[-1] == pytest.approx(cumulative_panes(quadratic(x), x)[-1], abs=1e-12)


@pytest.mark.parametrize("intervals", [2, 3, 8, 9, 40, 41])
def test_cumulative_panes_exact_on_quadratics(intervals):
    x = nonuniform_grid(intervals, seed=200 + intervals)
    running = cumulative_panes(quadratic(x), x)
    # Pane boundaries, plus the last sample when one interval is left over.
    at = np.unique(np.append(np.arange(0, intervals + 1, 2), intervals))
    assert running[0] == 0.0
    assert np.abs(running - (antiderivative(x[at]) - antiderivative(x[0]))).max() < 1e-12
    assert running[-1] == cumulative_panes(quadratic(x), x)[-1]


def test_two_samples_use_the_trapezoid():
    x = np.array([0.5, 2.0])
    y = np.array([3.0, -1.0])
    assert cumulative_panes(y, x)[-1] == 0.5 * (3.0 - 1.0) * 1.5


def test_cumulative_dense_needs_three_samples():
    with pytest.raises(ValueError, match="three"):
        cumulative_dense(np.array([1.0, 2.0]), np.array([0.0, 1.0]))


def test_grid_validation():
    with pytest.raises(ValueError, match="at least two"):
        cumulative_panes(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="increasing"):
        cumulative_panes(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="equal length"):
        cumulative_dense(np.ones(4), np.arange(3.0))


def test_observed_orders_on_an_exponential():
    # Integral of e^{3x} over [0, 1] at 64, 128, 256 and 512 intervals: the dense rule's error falls by about
    # 8 per doubling (2.7e-5 to 5.3e-8), the pane rule's by about 16 (1.7e-7 to 4.2e-11).
    dense, panes = [], []
    for intervals in (64, 128, 256, 512):
        x = np.linspace(0.0, 1.0, intervals + 1)
        exact = (np.exp(3.0 * x) - 1.0) / 3.0
        dense.append(np.abs(cumulative_dense(np.exp(3.0 * x), x) - exact).max())
        panes.append(np.abs(cumulative_panes(np.exp(3.0 * x), x) - exact[::2]).max())
    for errors, ratio in ((dense, 8.0), (panes, 16.0)):
        observed = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(np.abs(observed / ratio - 1.0) < 0.1), (errors, observed)
