"""Fibre paths in 3-D and the spherical kinematics of their tangents.

The photon wave vector follows the local fibre tangent, so everything
downstream only needs the unit tangent k(t), its time derivative, and
the spherical angles of k(t).  The cone constructor produces those
analytically, and a helix's tangent is the cone helix_cone names;
sampled point lists fall back to second-order finite differences.  The
anholonomy integral, the geodesic closure of an open trace, the
precession field u and the equation-of-motion residual live here too:
they depend on the tangent kinematics alone.
A trajectory is the one object per path.  rows gives a block of its
samples as a small trajectory with the same kinematics bit for bit, and
a run reads u, the residual, the unit tangents, lambda and the azimuth
that way, a block at a time, in two passes: max_norms, and the
expectations pass of phases.evolve_state, which also hands on lambda and
gamma at the step boundaries; whole-grid arrays are built only when read.
A sampled path is differenced and its anholonomy summed BLOCK_SAMPLES
samples at a time too, so its stored tangents and derivatives are the
only (n, 3) arrays it builds, and summing leaves nothing cached on it.
A cone_trajectory holds its grid, polar angle, turns and offset and
evaluates its rows from them.  Its type is what tells the evolution it
may treat the field as one turned about z at 2*pi*turns, and
cone_anholonomy gives its A in closed form, so a helix or cone run never
forms the rate array.
Row norms and cross products of (n, 3) sample arrays go through
_row_norms and _cross, column kernels with numpy's bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature

POLE_SIN_TOL = 1e-9
CLOSURE_TOL = 1e-6
# Read size of count_path_rows, which sizes a path CSV before it is loaded.
ROW_COUNT_CHUNK_BYTES = 1 << 16
# Samples per block of a sampled path's differencing, max_norms and running_anholonomy:
# about 100 KiB per (n, 3) array.
BLOCK_SAMPLES = 4096
TWO_PI = 2.0 * math.pi
# The parameter intervals and span a sampled path may have.  Inside this
# window the finite differences and both Simpson rules, whose terms hold
# up to the cube of an interval, neither overflow nor underflow.
PARAMETER_WINDOW = (2.0**-300, 2.0**300)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array: the bits of np.linalg.norm(v, axis=1)."""
    out = v[:, 0] * v[:, 0]
    out += v[:, 1] * v[:, 1]
    out += v[:, 2] * v[:, 2]
    return np.sqrt(out, out=out)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of (n, 3) arrays, by the operations np.cross performs."""
    out = np.empty(a.shape)
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    np.subtract(np.multiply(a1, b2, out=out[:, 0]), a2 * b1, out=out[:, 0])
    np.subtract(np.multiply(a2, b0, out=out[:, 1]), a0 * b2, out=out[:, 1])
    np.subtract(np.multiply(a0, b1, out=out[:, 2]), a1 * b0, out=out[:, 2])
    return out


def wrap_angle(phi):
    """Reduce angles to (-pi, pi]; elementwise for arrays, a float for scalars."""
    w = (np.asarray(phi, dtype=float) + math.pi) % TWO_PI - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if w.ndim == 0 else w


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid sample at time t, within 1e-9 of the grid span in any time unit."""
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * (times[-1] - times[0]):
        raise ValueError(f"t = {t!r} is not a sample of the grid [{times[0]}, {times[-1]}]")
    return i


@dataclass(frozen=True)
class FiberPath:
    """A sampled fibre centreline: strictly increasing parameter values and their 3-D points."""

    times: np.ndarray
    points: np.ndarray


def sampled_path(times: np.ndarray, points: np.ndarray) -> FiberPath:
    """Path from finite, ordered 3-D samples with strictly increasing parameter.

    Every parameter interval and the span must lie in PARAMETER_WINDOW.
    """
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    if times.ndim != 1 or points.shape != (len(times), 3):
        raise ValueError("times must be (n,) and points (n, 3)")
    if len(times) < 8:
        raise ValueError(f"need at least 8 samples, got {len(times)}")
    if not (np.isfinite(times).all() and np.isfinite(points).all()):
        raise ValueError("path samples must be finite")
    intervals = np.diff(times)
    if np.any(intervals <= 0):
        raise ValueError("parameter values must be strictly increasing")
    if intervals.min() < PARAMETER_WINDOW[0] or times[-1] - times[0] > PARAMETER_WINDOW[1]:
        raise ValueError(
            f"parameter intervals and span must lie in [2**-300, 2**300], got intervals from "
            f"{float(intervals.min())!r} over a span of {float(times[-1] - times[0])!r}"
        )
    # Compared coordinate by coordinate: a segment norm underflows at tiny scales.
    if np.any(np.all(points[1:] == points[:-1], axis=1)):
        raise ValueError("consecutive path points must be distinct")
    return FiberPath(times=times.copy(), points=points.copy())


def helix_cone(radius: float, pitch_per_turn: float) -> tuple[float, float]:
    """(polar angle, azimuth offset) of the cone_trajectory a helix about z traces with its tangent.

    The tangent's polar angle is atan2(2*pi*r, pitch), and its azimuth
    runs a quarter turn ahead of the position azimuth.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return math.atan2(TWO_PI * radius, pitch_per_turn), math.pi / 2.0


def helix_points(radius: float, pitch_per_turn: float, turns: float, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameter grid np.linspace(0, 1, samples) and the positions of a helix about z on it."""
    t = np.linspace(0.0, 1.0, samples)
    theta = TWO_PI * turns * t
    c = pitch_per_turn / TWO_PI
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), c * theta])
    return t, pts


def count_path_rows(filename) -> int:
    """Data rows of a path CSV (non-blank lines after the header), in bounded memory.

    The file is read as load_path_csv reads it (UTF-8, universal newlines),
    ROW_COUNT_CHUNK_BYTES characters at a time, so a sampled path can be
    sized before it is read whole.  A line counts exactly when the load
    reads it as a row: not empty, not all whitespace, not starting with '#'.
    """
    lines, opened = 0, ""
    with open(filename, "r", encoding="utf-8") as fh:
        for chunk in iter(lambda: fh.read(ROW_COUNT_CHUNK_BYTES), ""):
            # The first line continues the one the previous chunk left open, which
            # stands in as "x" when it counts so far and as its first character when not.
            text = opened + chunk
            pieces = text.split("\n")
            last = pieces.pop()
            comments = text.count("\n#") + text.startswith("#") - last.startswith("#") if "#" in text else 0
            lines += len(pieces) - pieces.count("") - sum(map(str.isspace, pieces)) - comments
            opened = "x" if last and not last.isspace() and last[0] != "#" else last[:1]
    return max(lines + (opened == "x") - 1, 0)


def load_path_csv(filename) -> FiberPath:
    """Read a sampled path from CSV with header t,x,y,z; blank, whitespace-only and '#' comment lines are skipped."""
    with open(filename, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,x,y,z":
            raise ValueError(f"expected CSV header 't,x,y,z', got {header!r}")
        # np.loadtxt skips empty lines but reads a whitespace-only one as a row of one column.
        rows = (line for line in fh if not line.isspace())
        first = next(rows, None)
        if first is None:
            raise ValueError("path CSV contains no data rows")
        try:
            data = np.loadtxt(itertools.chain((first,), rows), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"path CSV: {exc}") from None
    if data.shape[1] != 4:
        raise ValueError(f"path CSV: expected 4 columns, got {data.shape[1]}")
    return sampled_path(data[:, 0], data[:, 1:4])


def _off_pole(unit_tangents: np.ndarray) -> np.ndarray:
    """Mask of the unit tangents at least POLE_SIN_TOL away from both poles."""
    return np.hypot(unit_tangents[:, 0], unit_tangents[:, 1]) >= POLE_SIN_TOL


class TangentTrajectory:
    """Time-sampled tangent field k(t), its derivative, and the kinematics built from them on first read.

    rows gives a block of samples as a trajectory of its own, bit for bit
    these rows.
    """

    def __init__(self, times, tangents, derivatives):
        times = np.asarray(times, dtype=float)
        tangents = np.asarray(tangents, dtype=float)
        derivatives = np.asarray(derivatives, dtype=float)
        n = len(times)
        if tangents.shape != (n, 3) or derivatives.shape != (n, 3):
            raise ValueError("tangents and derivatives must be (n, 3)")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.times, self.tangents, self.derivatives = times, tangents, derivatives

    def rows(self, start: int, stop: int, step: int = 1) -> "TangentTrajectory":
        """Samples start:stop:step as a trajectory; a sampled path slices its stored arrays."""
        s = slice(start, stop, step)
        return TangentTrajectory(self.times[s], self.tangents[s], self.derivatives[s])

    @cached_property
    def max_norms(self) -> tuple[float, float]:
        """(max |u|, max |motion residual|) over the samples, one pass BLOCK_SAMPLES rows at a time; NaN if one is.

        The step guard reads the first, the motion check the second.
        """
        u, residual = [], []
        # Blocks share an edge sample, which a max may read twice: 2N + 1 samples take 2N / BLOCK_SAMPLES blocks.
        for i in range(0, max(len(self.times) - 1, 1), BLOCK_SAMPLES):
            block = self.rows(i, i + BLOCK_SAMPLES + 1)
            u.append(_row_norms(block.precession_field).max())
            residual.append(_row_norms(block.motion_residual).max())
        return np.max(u), np.max(residual)

    @cached_property
    def precession_field(self) -> np.ndarray:
        """Precession vector u = (k x kdot)/|k|^2 at every sample, built once per trajectory."""
        k = self.tangents
        # |k|^2 by einsum: _row_norms sums in another order and would move u's bits.
        ksq = np.einsum("ij,ij->i", k, k)
        if np.any(ksq == 0.0):
            raise ValueError("tangent with zero magnitude")
        u = _cross(k, self.derivatives)
        u /= ksq[:, None]
        return u

    @cached_property
    def motion_residual(self) -> np.ndarray:
        """Residual vector kdot + k x u at every sample, u the precession field; it is kdot along k."""
        # In place: one (n, 3) array fewer, and addition commutes bit for bit.
        residual = _cross(self.tangents, self.precession_field)
        residual += self.derivatives
        return residual

    @cached_property
    def unit_tangents(self) -> np.ndarray:
        """The tangents normalised, k/|k|, built once."""
        norms = _row_norms(self.tangents)
        if np.any(norms == 0.0):
            raise ValueError("tangent with zero magnitude")
        return self.tangents / norms[:, None]

    @cached_property
    def lam(self) -> np.ndarray:
        """Polar angle of the unit tangents in [0, pi], measured from +z."""
        return np.arccos(np.clip(self.unit_tangents[:, 2], -1.0, 1.0))

    @cached_property
    def gamma_dot(self) -> np.ndarray:
        """Azimuth rate (k1 kdot2 - k2 kdot1) / (k1^2 + k2^2), scale invariant and as accurate as kdot.

        Within POLE_SIN_TOL of a pole it is 0; the phase integrand
        vanishes there, so the convention cannot bias any phase.
        """
        k, kd = self.tangents, self.derivatives
        transverse_sq = k[:, 0] ** 2 + k[:, 1] ** 2
        return np.divide(
            k[:, 0] * kd[:, 1] - k[:, 1] * kd[:, 0],
            transverse_sq,
            out=np.zeros(len(k)),
            where=_off_pole(self.unit_tangents),
        )

    def gamma_from(self, carry: tuple | None) -> tuple[np.ndarray, tuple]:
        """(gamma of these samples, carry): the azimuth unwrapped on from the samples before them, read block by block.

        Off the poles gamma is the raw atan2 value plus the whole turns
        counted by the cumulative sum of wrapped increments between
        consecutive off-pole samples.  A sample within POLE_SIN_TOL of a
        pole repeats the previous value (0 before the first off-pole
        sample).  carry is None for a first block, else what the block
        before returned: its last off-pole raw azimuth, the whole turns
        counted so far, an exact integer sum, and its last value.  Blocks
        that cover a trajectory in order give gamma_from(None) of the
        whole trajectory bit for bit.
        """
        k = self.unit_tangents
        live = _off_pole(k)
        raw = np.arctan2(k[:, 1], k[:, 0])[live]
        # Leading pole samples anchor the first increment at azimuth 0; a -0.0 count adds nothing, even to -0.0.
        anchor, turns, value = carry or (raw[:1] if live[0] else 0.0, -0.0, 0.0)
        step = np.diff(raw, prepend=anchor)
        count = np.cumsum(np.rint((wrap_angle(step) - step) / TWO_PI))
        count += turns
        # Slot 0 holds the value a leading pole sample reads.
        unwrapped = np.concatenate(([value], raw + TWO_PI * count))
        carry = (raw[-1], count[-1], unwrapped[-1]) if raw.size else (anchor, turns, value)
        # Each sample reads the last off-pole value at or before it.
        return unwrapped[np.cumsum(live)], carry

    def running_anholonomy(self) -> np.ndarray:
        """Running integral of gamma_dot * (1 - cos(lam)) at the pane boundaries of quadrature.cumulative_panes.

        The one place the integrand is formed and summed, BLOCK_SAMPLES
        intervals at a time: blocks share an edge sample, from whose
        running total the next block's sum goes on, and the last block
        also takes an odd trailing interval, so every grid gives the sums
        of one pass bit for bit and nothing whole-grid is cached.  The
        last value is the anholonomy A, the state-independent factor of
        every spin expectation in the phase formulas.  On a cone,
        cone_anholonomy gives A in closed form.
        """
        n = len(self.times)
        end = n - 1 - (n - 1) % 2  # last sample covered by whole panes
        running = np.empty(end // 2 + 1 + (end < n - 1))
        running[0] = 0.0
        total = -0.0  # adds nothing to the first pane, even to a -0.0 one
        for i in range(0, max(end, 1), BLOCK_SAMPLES):
            block = self.rows(i, i + BLOCK_SAMPLES + 1 if i + BLOCK_SAMPLES < end else n)
            part = quadrature.cumulative_panes(block.gamma_dot * (1.0 - np.cos(block.lam)), block.times, total)
            running[i // 2 + 1 : i // 2 + len(part)] = part[1:]
            total = part[-1]
        return running

    def scaled(self, factor: float) -> "TangentTrajectory":
        """Same trajectory with all tangent magnitudes multiplied, as a plain TangentTrajectory."""
        return TangentTrajectory(self.times, self.tangents * factor, self.derivatives * factor)


def _derivative(values: np.ndarray, times: np.ndarray, shifts: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Second-order finite differences on a possibly nonuniform grid, BLOCK_SAMPLES rows at a time.

    values and times are read as values * 2**-shifts[0] and times *
    2**-shifts[1], exact scalings made one block at a time.  Each interior
    row is c0 v[i-1] + c1 v[i] + c2 v[i+1] from its own two intervals,
    written straight into the output; the end rows take the one-sided
    three-point rules.  A row's bits do not depend on the blocks.
    """
    n = len(times)
    if n < 3:
        raise ValueError("need at least three samples to differentiate")

    def read(start, stop):
        return np.ldexp(values[start:stop], -shifts[0]), np.ldexp(times[start:stop], -shifts[1])

    out = np.empty(values.shape)
    for i in range(1, n - 1, BLOCK_SAMPLES):
        stop = min(i + BLOCK_SAMPLES, n - 1)
        v, t = read(i - 1, stop + 1)
        h = np.diff(t)
        h1, h2 = h[:-1, None], h[1:, None]
        rows = out[i:stop]
        np.multiply(-h2 / (h1 * (h1 + h2)), v[:-2], out=rows)
        rows += (h2 - h1) / (h1 * h2) * v[1:-1]
        rows += h1 / (h2 * (h1 + h2)) * v[2:]
    v, t = read(0, 3)
    a, b = np.diff(t)
    out[0] = (
        -(2 * a + b) / (a * (a + b)) * v[0]
        + (a + b) / (a * b) * v[1]
        - a / (b * (a + b)) * v[2]
    )
    v, t = read(n - 3, n)
    a, b = np.diff(t)
    out[-1] = (
        b / (a * (a + b)) * v[0]
        - (a + b) / (a * b) * v[1]
        + (a + 2 * b) / (b * (a + b)) * v[2]
    )
    return out


def tangent_trajectory(path: FiberPath) -> TangentTrajectory:
    """Unit tangent field of a sampled path, by finite differences.

    The velocity is the derivative of the points against the parameter,
    each read rescaled by an exact power of two: the largest coordinate
    and the parameter span into [0.5, 1).  The tangents keep their bits,
    nothing overflows or underflows at extreme path or time scales, and
    the vanishing-tangent guard of _unit_trajectory is relative to the path's
    size and duration.  The velocity is normalised in place, so the
    stored tangents and derivatives are the only (n, 3) arrays built.
    """
    points, times = path.points, path.times
    # The largest |coordinate| with no (n, 3) temporary.
    shifts = np.frexp(max(points.max(), -points.min()))[1], np.frexp(times[-1] - times[0])[1]
    return _unit_trajectory(times, _derivative(points, times, shifts))


def _unit_trajectory(times: np.ndarray, tangents: np.ndarray) -> TangentTrajectory:
    """Trajectory of the tangents normalised in place, its derivatives by differencing."""
    # max and min carry any NaN and reach any infinity, with no (n, 3) mask.
    if not (np.isfinite(tangents.max()) and np.isfinite(tangents.min())):
        raise ValueError("tangents must be finite")
    norms = _row_norms(tangents)
    if np.any(norms < 1e-15):
        raise ValueError("degenerate trajectory: vanishing tangent sample")
    tangents /= norms[:, None]
    return TangentTrajectory(times=times, tangents=tangents, derivatives=_derivative(tangents, times))


def _check_cone(polar_angle: float, turns: float) -> None:
    if not 0.0 <= polar_angle <= math.pi:
        raise ValueError(f"polar angle must lie in [0, pi], got {polar_angle}")
    if turns <= 0:
        raise ValueError(f"turns must be positive, got {turns}")


@dataclass(frozen=True)
class ConeTrajectory(TangentTrajectory):
    """A cone_trajectory: its time grid, polar angle, turns and azimuth offset, and nothing built until read.

    Every sample is the first one turned about z by 2*pi*turns * (t - t0),
    which the evolution reads off this type.  rows is the same cone on
    the times asked for, so a reader evaluates the field on its own
    block, one cos and one sin per sample.
    """

    times: np.ndarray
    polar_angle: float
    turns: float
    azimuth_offset: float

    def rows(self, start: int, stop: int, step: int = 1) -> "ConeTrajectory":
        s = slice(start, stop, step)
        return ConeTrajectory(self.times[s], self.polar_angle, self.turns, self.azimuth_offset)

    @cached_property
    def tangents(self) -> np.ndarray:
        gamma = self.azimuth_offset + TWO_PI * self.turns * self.times
        sl = math.sin(self.polar_angle)
        tangents = np.empty((len(self.times), 3))
        np.multiply(sl, np.cos(gamma), out=tangents[:, 0])
        np.multiply(sl, np.sin(gamma), out=tangents[:, 1])
        tangents[:, 2] = math.cos(self.polar_angle)
        return tangents

    @cached_property
    def derivatives(self) -> np.ndarray:
        """kdot = (-sl sin, sl cos, 0) * rate, read off the tangent columns: (-a) b rounds as -(a b)."""
        k = self.tangents
        derivatives = np.empty(k.shape)
        rate = TWO_PI * self.turns
        np.multiply(np.negative(k[:, 1]), rate, out=derivatives[:, 0])
        np.multiply(k[:, 0], rate, out=derivatives[:, 1])
        derivatives[:, 2] = 0.0
        return derivatives


def cone_trajectory(polar_angle: float, turns: float, samples: int, azimuth_offset: float = 0.0) -> ConeTrajectory:
    """Analytic tangent field precessing about z at constant polar angle, on np.linspace(0, 1, samples).

    The trajectory holds that grid, the polar angle, turns and the offset,
    and builds its field only when read; rows gives the same cone on the
    samples a reader asks for.
    """
    _check_cone(polar_angle, turns)
    if samples < 3:
        raise ValueError("need at least 3 samples")
    return ConeTrajectory(np.linspace(0.0, 1.0, samples), polar_angle, turns, azimuth_offset)


def cone_anholonomy(polar_angle: float, turns: float) -> float:
    """Anholonomy 2*pi*turns*(1 - cos(polar_angle)) of a cone traced turns times, in closed form.

    The polar angle and the azimuth rate are constant on a cone, so the
    integrand of running_anholonomy is too.  Within POLE_SIN_TOL of a pole
    the rate is 0, as TangentTrajectory.gamma_dot sets it there, and so is A.
    """
    _check_cone(polar_angle, turns)
    if math.sin(polar_angle) < POLE_SIN_TOL:
        return 0.0
    return TWO_PI * turns * (1.0 - math.cos(polar_angle))


def motion_identity_residual(traj: TangentTrajectory) -> float:
    """Max-norm of the motion residual over the samples.

    Vanishes (up to differencing error) for any smooth constant-magnitude
    tangent field; order one when the magnitude drifts.
    """
    return float(traj.max_norms[1])


def geodesic_closure(k_first: np.ndarray, k_last: np.ndarray) -> float:
    """Integral of (1 - cos(lam)) dgamma along the shorter great circle from k_last to k_first.

    For unit vectors this is the signed solid angle of the spherical
    triangle (z, k_last, k_first), in closed form.  Added to the
    anholonomy integral of an open trace it gives the geodesically closed
    (Samuel-Bhandari) solid angle; times the helicity this is the open-path
    geometric phase, exact for number states of one handedness.  It
    vanishes on a closed trace.
    """
    return 2.0 * math.atan2(np.cross(k_last, k_first)[2], 1.0 + k_last[2] + k_last @ k_first + k_first[2])
