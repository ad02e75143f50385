"""Composite Simpson quadrature on sampled grids, uniform or not.

`cumulative_panes` consumes samples in panes of two consecutive
intervals, is exact for quadratics and keeps the running sum at every
pane boundary; when the interval count is odd the final interval is
integrated with the quadratic through the last three samples.
`integrate` is its last value.  `cumulative_dense` produces a running
integral at every sample from per-interval quadratic pieces; both rules
are fourth-order under grid refinement.  The pane and piece formulas
act on whole array slices, one element per pane or interval.
"""

from __future__ import annotations

import numpy as np


def _pane(y0, y1, y2, h1, h2):
    # Exact for quadratics on the nonuniform pane (t0, t0+h1, t0+h1+h2).
    return (h1 + h2) / 6.0 * (
        (2.0 - h2 / h1) * y0 + ((h1 + h2) ** 2 / (h1 * h2)) * y1 + (2.0 - h1 / h2) * y2
    )


def _trailing(y0, y1, y2, h1, h2):
    # Quadratic through three samples, integrated over the last interval.
    return (
        -y0 * h2**3 / (6.0 * h1 * (h1 + h2))
        + y1 * (h2**2 + 3.0 * h1 * h2) / (6.0 * h1)
        + y2 * (2.0 * h2**2 + 3.0 * h1 * h2) / (6.0 * (h1 + h2))
    )


def _leading(y0, y1, y2, h1, h2):
    # Quadratic through three samples, integrated over the first interval.
    return (
        y0 * (2.0 * h1**2 + 3.0 * h1 * h2) / (6.0 * (h1 + h2))
        + y1 * (h1**2 + 3.0 * h1 * h2) / (6.0 * h2)
        - y2 * h1**3 / (6.0 * h2 * (h1 + h2))
    )


def _validate(y: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("y and x must be 1-D arrays of equal length")
    if np.any(np.diff(x) <= 0):
        raise ValueError("grid must be strictly increasing")
    return y, x


def cumulative_panes(y: np.ndarray, x: np.ndarray, start: float | None = None) -> np.ndarray:
    """Running composite Simpson integral at the pane boundaries.

    One value per sample 0, 2, 4, ... up to the last sample covered by
    whole panes, starting at 0; when the interval count is odd the final
    interval is added as one more value at the last sample.  Two samples
    give the trapezoid.  A given start is the running value at sample 0
    and is added to the first pane before the sum runs, so a grid cut
    into pane-aligned blocks sharing their edge samples, each block
    given the last value of the one before, reproduces the one-pass
    values bit for bit.
    """
    y, x = _validate(y, x)
    n = len(x)
    if n < 2:
        raise ValueError("need at least two samples")
    if n == 2:
        trapezoid = 0.5 * (y[0] + y[1]) * (x[1] - x[0])
        return np.array([0.0, trapezoid] if start is None else [start, start + trapezoid])
    end = n - 1 - (n - 1) % 2  # last sample covered by whole panes
    h = np.diff(x)
    out = np.empty(end // 2 + 1 + (end < n - 1))
    out[0] = 0.0 if start is None else start
    panes = out[1 : end // 2 + 1]
    panes[:] = _pane(y[0:end:2], y[1:end:2], y[2 : end + 1 : 2], h[0:end:2], h[1:end:2])
    if start is not None:
        panes[0] += start
    # A running total, summed left to right: pairwise summation would
    # shift results on grids of ~10^4 panes by up to ~1e-11.
    np.cumsum(panes, out=panes)
    if end < n - 1:  # one interval left over
        out[-1] = out[-2] + _trailing(y[n - 3], y[n - 2], y[n - 1], h[n - 3], h[n - 2])
    return out


def integrate(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of sampled y(x) over the whole grid: the last running pane sum."""
    return float(cumulative_panes(y, x)[-1])


def cumulative_dense(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of sampled y(x), one value per sample.

    Interval i is integrated with the quadratic through samples
    (i-1, i, i+1), except the first interval which uses (0, 1, 2).
    """
    y, x = _validate(y, x)
    n = len(x)
    if n < 3:
        raise ValueError("need at least three samples")
    h = np.diff(x)
    out = np.empty(n)
    out[0] = 0.0
    out[1] = _leading(y[0], y[1], y[2], h[0], h[1])
    out[2:] = _trailing(y[:-2], y[1:-1], y[2:], h[:-1], h[1:])
    np.cumsum(out[1:], out=out[1:])
    return out
