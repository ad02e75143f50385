"""Fibre paths in 3-D and the spherical kinematics of their tangents.

The photon wave vector follows the local fibre tangent, so everything
downstream only needs the unit tangent k(t), its time derivative, and
the spherical angles of k(t).  Helix and cone constructors produce
those analytically; sampled point lists fall back to second-order
finite differences.  The anholonomy integral, the geodesic closure of
an open trace, the precession field u and the equation-of-motion
residual live here too: they depend on the tangent kinematics alone.
A trajectory builds u and the residual once, on first use, and every
check and the evolution read that one copy.  spherical_angles
normalises the tangents once and keeps them, so callers read unit
tangents from the angles; the unwrapped azimuth is built only when it
is read, which only a run's CSV does.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature

POLE_SIN_TOL = 1e-9
CLOSURE_TOL = 1e-6
# Read size of count_path_rows, which sizes a path CSV before it is loaded.
ROW_COUNT_CHUNK_BYTES = 1 << 16
TWO_PI = 2.0 * math.pi


def wrap_angle(phi):
    """Reduce angles to (-pi, pi]; elementwise for arrays, a float for scalars."""
    w = (np.asarray(phi, dtype=float) + math.pi) % TWO_PI - math.pi
    w = np.where(w == -math.pi, math.pi, w)
    return float(w) if w.ndim == 0 else w


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the grid sample at time t, within 1e-9 of the grid span."""
    span = max(times[-1] - times[0], 1.0)
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * span:
        raise ValueError(f"t = {t!r} is not a sample of the grid [{times[0]}, {times[-1]}]")
    return i


@dataclass(frozen=True)
class FiberPath:
    """A fibre centreline, either parametric helix or sampled points."""

    kind: str
    radius: float | None = None
    pitch_per_turn: float | None = None
    turns: float | None = None
    samples: int | None = None
    times: np.ndarray | None = None
    points: np.ndarray | None = None


def make_helix(radius: float, pitch_per_turn: float, turns: float, samples: int) -> FiberPath:
    """Helix about the z axis; tangent polar angle is atan2(2*pi*r, pitch)."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if turns <= 0:
        raise ValueError(f"turns must be positive, got {turns}")
    if samples < 64:
        raise ValueError(f"need at least 64 samples, got {samples}")
    return FiberPath(
        kind="helix",
        radius=float(radius),
        pitch_per_turn=float(pitch_per_turn),
        turns=float(turns),
        samples=int(samples),
    )


def sampled_path(times: np.ndarray, points: np.ndarray) -> FiberPath:
    """Path from ordered 3-D samples with strictly increasing parameter."""
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    if times.ndim != 1 or points.shape != (len(times), 3):
        raise ValueError("times must be (n,) and points (n, 3)")
    if len(times) < 8:
        raise ValueError(f"need at least 8 samples, got {len(times)}")
    if np.any(np.diff(times) <= 0):
        raise ValueError("parameter values must be strictly increasing")
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(seg == 0.0):
        raise ValueError("consecutive path points must be distinct")
    return FiberPath(kind="sampled", times=times.copy(), points=points.copy())


def helix_points(path: FiberPath) -> tuple[np.ndarray, np.ndarray]:
    """Positions of a helix path on its uniform parameter grid."""
    if path.kind != "helix":
        raise ValueError("helix_points requires a helix path")
    t = np.linspace(0.0, 1.0, path.samples)
    theta = TWO_PI * path.turns * t
    c = path.pitch_per_turn / TWO_PI
    pts = np.column_stack(
        [path.radius * np.cos(theta), path.radius * np.sin(theta), c * theta]
    )
    return t, pts


def count_path_rows(filename) -> int:
    """Data rows of a path CSV (non-blank lines after the header), in bounded memory.

    The file is read ROW_COUNT_CHUNK_BYTES at a time, so a sampled path
    can be sized before load_path_csv reads it whole.
    """
    lines, pending = 0, False
    with open(filename, "rb") as fh:
        for chunk in iter(lambda: fh.read(ROW_COUNT_CHUNK_BYTES), b""):
            live = [bool(piece.strip()) for piece in chunk.split(b"\n")]
            # The first piece continues the line the previous chunk left open.
            live[0] = live[0] or pending
            lines += sum(live[:-1])
            pending = live[-1]
    return max(lines + pending - 1, 0)


def load_path_csv(filename) -> FiberPath:
    """Read a sampled path from CSV with header t,x,y,z; blank lines are skipped."""
    with open(filename, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,x,y,z":
            raise ValueError(f"expected CSV header 't,x,y,z', got {header!r}")
        body = fh.read()
    if not body.strip():
        raise ValueError("path CSV contains no data rows")
    try:
        data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"path CSV: {exc}") from None
    if data.shape[1] != 4:
        raise ValueError(f"path CSV: expected 4 columns, got {data.shape[1]}")
    return sampled_path(data[:, 0], data[:, 1:4])


@dataclass(frozen=True)
class TangentTrajectory:
    """Time-sampled tangent field k(t) and its derivative."""

    times: np.ndarray
    tangents: np.ndarray
    derivatives: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        tangents = np.asarray(self.tangents, dtype=float)
        derivatives = np.asarray(self.derivatives, dtype=float)
        n = len(times)
        if tangents.shape != (n, 3) or derivatives.shape != (n, 3):
            raise ValueError("tangents and derivatives must be (n, 3)")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "tangents", tangents)
        object.__setattr__(self, "derivatives", derivatives)

    @cached_property
    def precession_field(self) -> np.ndarray:
        """Precession vector u = (k x kdot)/|k|^2 at every sample, built once per trajectory."""
        k = self.tangents
        ksq = np.einsum("ij,ij->i", k, k)
        if np.any(ksq == 0.0):
            raise ValueError("tangent with zero magnitude")
        return np.cross(k, self.derivatives) / ksq[:, None]

    @cached_property
    def motion_residual(self) -> np.ndarray:
        """Residual vector kdot + k x u at every sample, u the precession field; it is kdot along k."""
        return self.derivatives + np.cross(self.tangents, self.precession_field)

    def max_unit_deviation(self) -> float:
        return float(np.abs(np.linalg.norm(self.tangents, axis=1) - 1.0).max())

    def scaled(self, factor: float) -> "TangentTrajectory":
        """Same trajectory with all tangent magnitudes multiplied."""
        return TangentTrajectory(self.times, self.tangents * factor, self.derivatives * factor)


def _derivative(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a possibly nonuniform grid."""
    n = len(times)
    if n < 3:
        raise ValueError("need at least three samples to differentiate")
    out = np.empty_like(values)
    h = np.diff(times)
    h1 = h[:-1][:, None]
    h2 = h[1:][:, None]
    out[1:-1] = (
        -h2 / (h1 * (h1 + h2)) * values[:-2]
        + (h2 - h1) / (h1 * h2) * values[1:-1]
        + h1 / (h2 * (h1 + h2)) * values[2:]
    )
    a, b = h[0], h[1]
    out[0] = (
        -(2 * a + b) / (a * (a + b)) * values[0]
        + (a + b) / (a * b) * values[1]
        - a / (b * (a + b)) * values[2]
    )
    a, b = h[-2], h[-1]
    out[-1] = (
        b / (a * (a + b)) * values[-3]
        - (a + b) / (a * b) * values[-2]
        + (a + 2 * b) / (b * (a + b)) * values[-1]
    )
    return out


def helix_polar_angle(radius: float, pitch_per_turn: float) -> float:
    """Constant tangent polar angle atan2(2*pi*r, pitch) of a helix about z."""
    return math.atan2(TWO_PI * radius, pitch_per_turn)


def tangent_trajectory(path: FiberPath) -> TangentTrajectory:
    """Unit tangent field of a path.

    A helix's tangent traces a cone at its polar angle, a quarter turn
    ahead of the position azimuth, so it is the analytic cone field;
    sampled paths are differentiated numerically.
    """
    if path.kind == "helix":
        polar = helix_polar_angle(path.radius, path.pitch_per_turn)
        return cone_trajectory(polar, path.turns, path.samples, azimuth_offset=math.pi / 2.0)
    if path.kind != "sampled":
        raise ValueError(f"unknown path kind {path.kind!r}")
    velocity = _derivative(path.points, path.times)
    speed = np.linalg.norm(velocity, axis=1)
    if np.any(speed < 1e-15):
        raise ValueError("degenerate path: vanishing velocity sample")
    tangents = velocity / speed[:, None]
    return TangentTrajectory(times=path.times, tangents=tangents, derivatives=_derivative(tangents, path.times))


def trajectory_from_tangents(times: np.ndarray, tangents: np.ndarray) -> TangentTrajectory:
    """Trajectory from direct tangent samples, derivatives by differencing."""
    times = np.asarray(times, dtype=float)
    tangents = np.asarray(tangents, dtype=float)
    if tangents.ndim != 2 or tangents.shape[1] != 3 or len(tangents) != len(times):
        raise ValueError("tangents must be (n, 3) matching times")
    norms = np.linalg.norm(tangents, axis=1)
    if np.any(norms < 1e-15):
        raise ValueError("tangent with zero magnitude")
    unit = tangents / norms[:, None]
    return TangentTrajectory(times=times, tangents=unit, derivatives=_derivative(unit, times))


def cone_trajectory(
    polar_angle: float,
    turns: float,
    samples: int,
    azimuth_offset: float = 0.0,
) -> TangentTrajectory:
    """Analytic tangent field precessing about z at constant polar angle."""
    if not 0.0 <= polar_angle <= math.pi:
        raise ValueError(f"polar angle must lie in [0, pi], got {polar_angle}")
    if turns <= 0:
        raise ValueError(f"turns must be positive, got {turns}")
    if samples < 3:
        raise ValueError("need at least 3 samples")
    t = np.linspace(0.0, 1.0, samples)
    gamma = azimuth_offset + TWO_PI * turns * t
    sl, cl = math.sin(polar_angle), math.cos(polar_angle)
    rate = TWO_PI * turns
    cos_g, sin_g = np.cos(gamma), np.sin(gamma)
    tangents = np.empty((samples, 3))
    np.multiply(sl, cos_g, out=tangents[:, 0])
    np.multiply(sl, sin_g, out=tangents[:, 1])
    tangents[:, 2] = cl
    # kdot = (-sl sin, sl cos, 0) * rate, each column multiplied in that order.
    derivatives = np.empty((samples, 3))
    np.multiply(np.multiply(-sl, sin_g, out=sin_g), rate, out=derivatives[:, 0])
    np.multiply(np.multiply(sl, cos_g, out=cos_g), rate, out=derivatives[:, 1])
    derivatives[:, 2] = 0.0
    return TangentTrajectory(times=t, tangents=tangents, derivatives=derivatives)


@dataclass(frozen=True)
class AngleTrajectory:
    """Spherical angles of a tangent trajectory.

    unit_tangents holds the normalised tangents k/|k|; lam is their
    polar angle in [0, pi] and gamma_dot the azimuth rate derived from
    the trajectory's own tangent-derivative data.  The unwrapped azimuth
    gamma is built from unit_tangents on first use: the anholonomy reads
    only lam and gamma_dot, so a closed-form sweep never unwraps it.
    """

    times: np.ndarray
    unit_tangents: np.ndarray
    lam: np.ndarray
    gamma_dot: np.ndarray

    def anholonomy_rate(self) -> np.ndarray:
        """Integrand gamma_dot * (1 - cos(lam)) of the anholonomy integral."""
        return self.gamma_dot * (1.0 - np.cos(self.lam))

    @cached_property
    def gamma(self) -> np.ndarray:
        """Azimuth kept continuous rather than reduced mod 2*pi, built once.

        Off the poles it is the raw atan2 value plus the whole turns
        counted by the cumulative sum of wrapped increments between
        consecutive off-pole samples.  A sample within POLE_SIN_TOL of a
        pole repeats the previous value (0 before the first off-pole
        sample).
        """
        k = self.unit_tangents
        live = _off_pole(k)
        raw = np.arctan2(k[:, 1], k[:, 0])[live]
        # Leading pole samples anchor the first increment at azimuth 0.
        step = np.diff(raw, prepend=raw[:1] if live[0] else 0.0)
        # Slot 0 holds the 0 a leading pole sample reads.
        unwrapped = np.concatenate(([0.0], raw + TWO_PI * np.cumsum(np.rint((wrap_angle(step) - step) / TWO_PI))))
        # Each sample reads the last off-pole value at or before it.
        return unwrapped[np.cumsum(live)]


def _off_pole(unit_tangents: np.ndarray) -> np.ndarray:
    """Mask of the unit tangents at least POLE_SIN_TOL away from both poles."""
    return np.hypot(unit_tangents[:, 0], unit_tangents[:, 1]) >= POLE_SIN_TOL


def spherical_angles(traj: TangentTrajectory) -> AngleTrajectory:
    """Polar angle, azimuth rate and unit tangents of a trajectory.

    Where the tangent passes within POLE_SIN_TOL of a pole the azimuth
    rate is forced to zero; the phase integrand vanishes there, so the
    convention cannot bias any phase.  The rate comes from the identity
    gamma_dot = (k1 kdot2 - k2 kdot1) / (k1^2 + k2^2), which is scale
    invariant and carries exactly the accuracy of the stored derivative
    data instead of adding another differencing layer.  The unwrapped
    azimuth is AngleTrajectory.gamma, built only when read.
    """
    raw_k = np.asarray(traj.tangents, dtype=float)
    norms = np.linalg.norm(raw_k, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("tangent with zero magnitude")
    k = raw_k / norms[:, None]
    lam = np.arccos(np.clip(k[:, 2], -1.0, 1.0))
    live = _off_pole(k)

    kd = np.asarray(traj.derivatives, dtype=float)
    transverse_sq = raw_k[:, 0] ** 2 + raw_k[:, 1] ** 2
    gamma_dot = np.divide(
        raw_k[:, 0] * kd[:, 1] - raw_k[:, 1] * kd[:, 0], transverse_sq, out=np.zeros(len(lam)), where=live
    )
    return AngleTrajectory(times=traj.times.copy(), unit_tangents=k, lam=lam, gamma_dot=gamma_dot)


def anholonomy_integral(angles: AngleTrajectory, t_end: float | None = None) -> float:
    """Integral of gamma_dot * (1 - cos(lam)) up to the grid time t_end.

    This is the state-independent geometric factor multiplying every
    spin expectation in the phase formulas.
    """
    end = len(angles.times) - 1 if t_end is None else grid_index(angles.times, t_end)
    if end < 1:
        return 0.0
    return quadrature.integrate(angles.anholonomy_rate()[: end + 1], angles.times[: end + 1])


def motion_identity_residual(traj: TangentTrajectory) -> float:
    """Max-norm of the motion residual over the samples.

    Vanishes (up to differencing error) for any smooth constant-magnitude
    tangent field; order one when the magnitude drifts.
    """
    return float(np.linalg.norm(traj.motion_residual, axis=1).max())


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
