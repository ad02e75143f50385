import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fiberphase import (
    cone_trajectory,
    geodesic_closure,
    helix_cone,
    helix_points,
    load_path_csv,
    motion_identity_residual,
    sampled_path,
    tangent_trajectory,
    TangentTrajectory,
)
from fiberphase import geometry, quadrature
from fiberphase.geometry import (
    ConeTrajectory,
    _cross,
    _derivative,
    _row_norms,
    _unit_trajectory,
    cone_anholonomy,
    count_path_rows,
)

SOLID_ANGLE_45 = 1.84030236902122  # 2*pi*(1 - cos(pi/4))


def helix_traj(radius, pitch_per_turn, turns, samples):
    """Tangent field of a helix about z: the cone helix_cone names."""
    polar, offset = helix_cone(radius, pitch_per_turn)
    return cone_trajectory(polar, turns, samples, azimuth_offset=offset)


def straight_path(n=65):
    t = np.linspace(0.0, 1.0, n)
    return sampled_path(t, np.column_stack([np.zeros(n), np.zeros(n), t]))


class TestHelix:
    def test_polar_angle_quarter_pi(self):
        # tan(lam) = 2*pi*r / pitch, so r=1, pitch=2*pi gives lam = pi/4
        traj = helix_traj(1.0, 2.0 * math.pi, 1.0, 257)
        assert np.abs(traj.lam - math.pi / 4.0).max() < 1e-12

    def test_large_pitch_limit(self):
        traj = helix_traj(1.0, 1e6, 1.0, 257)
        assert traj.lam.max() < 1e-4

    def test_zero_pitch_is_planar_circle(self):
        traj = helix_traj(1.0, 0.0, 1.0, 257)
        assert np.abs(traj.lam - math.pi / 2.0).max() < 1e-12

    def test_rejects_bad_geometry(self):
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius"):
                helix_cone(radius, 1.0)


def helix_trig_oracle(radius, pitch_per_turn, turns, samples):
    """Tangent and derivative of a helix from its own parametric form."""
    theta = 2.0 * math.pi * turns * np.linspace(0.0, 1.0, samples)
    c = pitch_per_turn / (2.0 * math.pi)
    den = math.hypot(radius, c)
    rate = 2.0 * math.pi * turns
    tangents = np.column_stack(
        [-radius * np.sin(theta) / den, radius * np.cos(theta) / den, np.full_like(theta, c / den)]
    )
    derivatives = np.column_stack(
        [-radius * np.cos(theta) * rate / den, -radius * np.sin(theta) * rate / den, np.zeros_like(theta)]
    )
    return tangents, derivatives


class TestHelixIsCone:
    @pytest.mark.parametrize("turns", [1.0, 2.3])
    @pytest.mark.parametrize("radius, pitch", [(1.0, 2.0 * math.pi), (0.4, 3.0), (2.0, -1.5), (1.0, 0.0)])
    def test_matches_parametric_helix(self, turns, radius, pitch):
        traj = helix_traj(radius, pitch, turns, 1025)
        tangents, derivatives = helix_trig_oracle(radius, pitch, turns, 1025)
        assert np.abs(traj.tangents - tangents).max() <= 1e-14
        assert np.abs(traj.derivatives - derivatives).max() <= 1e-14 * 2.0 * math.pi * turns

    def test_matches_sampled_helix(self):
        sampled = tangent_trajectory(sampled_path(*helix_points(0.7, 2.5, 1.0, 4097)))
        assert np.abs(helix_traj(0.7, 2.5, 1.0, 4097).tangents - sampled.tangents).max() < 1e-5


class TestGeodesicClosure:
    def test_matches_great_circle_quadrature(self):
        # Latitude arc at lam = 0.8 over 0.6 of a turn, closed along the great circle.
        lam, sweep = 0.8, 2.0 * math.pi * 0.6
        k0 = np.array([math.sin(lam), 0.0, math.cos(lam)])
        k1 = np.array([math.sin(lam) * math.cos(sweep), math.sin(lam) * math.sin(sweep), math.cos(lam)])
        angle = math.acos(float(k0 @ k1))
        s = np.linspace(0.0, 1.0, 200001)[:, None]
        arc = (np.sin((1.0 - s) * angle) * k1 + np.sin(s * angle) * k0) / math.sin(angle)
        gamma = np.unwrap(np.arctan2(arc[:, 1], arc[:, 0]))
        weight = 1.0 - arc[:, 2]
        quadrature = float(np.sum(0.5 * (weight[1:] + weight[:-1]) * np.diff(gamma)))
        assert geodesic_closure(k0, k1) == pytest.approx(quadrature, abs=1e-9)

    def test_zero_on_closed_trace_and_odd_under_reversal(self):
        k0, k1 = np.array([0.6, 0.0, 0.8]), np.array([0.0, 0.6, 0.8])
        assert geodesic_closure(k0, k0) == 0.0
        assert geodesic_closure(k0, k1) == -geodesic_closure(k1, k0)


class TestTangentTrajectory:
    def test_straight_segment(self):
        traj = tangent_trajectory(straight_path())
        assert np.abs(traj.tangents - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    def test_unit_norm(self):
        traj = helix_traj(1.0, 3.0, 2.0, 257)
        assert np.abs(np.linalg.norm(traj.tangents, axis=1) - 1.0).max() < 1e-10

    def test_planar_circle_sweeps_equator(self):
        t = np.linspace(0.0, 1.0, 513)
        theta = 2.0 * math.pi * t
        path = sampled_path(t, np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)]))
        traj = tangent_trajectory(path)
        assert np.abs(traj.lam - math.pi / 2.0).max() < 1e-6

    def test_only_a_cone_is_a_cone_trajectory(self):
        # Every sample of a cone is the first one turned about z by 2*pi*turns * t; the evolution reads
        # that off the type, which its rows keep and every other constructor drops.
        cone = cone_trajectory(0.7, 2.5, 257, azimuth_offset=0.4)
        assert type(cone) is type(cone.rows(3, 40, 2)) is ConeTrajectory
        turn = 2.0 * math.pi * cone.turns * cone.times[100]
        c, s = math.cos(turn), math.sin(turn)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(rotation @ cone.tangents[0] - cone.tangents[100]).max() < 1e-14
        plain = (cone.scaled(3.0), tangent_trajectory(straight_path()), _unit_trajectory(cone.times, np.array(cone.tangents)))
        assert all(type(traj) is TangentTrajectory for traj in plain)

    def test_degenerate_points_rejected(self):
        t = np.linspace(0.0, 1.0, 8)
        x = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        path = sampled_path(t, np.column_stack([x, np.zeros(8), np.zeros(8)]))
        with pytest.raises(ValueError, match="degenerate"):
            tangent_trajectory(path)

    def test_sampled_path_validation(self):
        t = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            sampled_path(t, np.zeros((4, 3)))  # too few samples
        t8 = np.linspace(0.0, 1.0, 8)
        pts = np.column_stack([t8, np.zeros(8), np.zeros(8)])
        bad_t = t8.copy()
        bad_t[3] = bad_t[2]
        with pytest.raises(ValueError):
            sampled_path(bad_t, pts)
        pts_rep = pts.copy()
        pts_rep[4] = pts_rep[3]
        with pytest.raises(ValueError):
            sampled_path(t8, pts_rep)
        for bad in (math.inf, -math.inf, math.nan):
            pts_bad = pts.copy()
            pts_bad[5, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                sampled_path(t8, pts_bad)
            t_bad = t8.copy()
            t_bad[-1] = bad
            with pytest.raises(ValueError, match="finite"):
                sampled_path(t_bad, pts)

    @pytest.mark.parametrize("exponent", [-1000, 1000])
    def test_power_of_two_scale_keeps_tangent_bits(self, exponent):
        t, pts = helix_points(1.0, 2.0, 1.5, 257)
        unit = tangent_trajectory(sampled_path(t, pts))
        scaled = tangent_trajectory(sampled_path(t, np.ldexp(pts, exponent)))
        assert np.array_equal(scaled.tangents, unit.tangents)
        assert np.array_equal(scaled.derivatives, unit.derivatives)

    def test_tiny_and_huge_paths_differentiate(self):
        # Segment norms underflow at 1e-300 and finite differences overflow near float max.
        # The scaled points carry rounding of ~1e-16, which the 1/h = 256 of a difference amplifies.
        t, pts = helix_points(1.0, 2.0, 1.5, 257)
        unit = tangent_trajectory(sampled_path(t, pts))
        for scale in (1e-300, 5e307):  # the largest coordinate reaches 1.5e308
            traj = tangent_trajectory(sampled_path(t, pts * scale))
            assert np.abs(traj.tangents - unit.tangents).max() < 1e-13


def column_stack_cone(polar_angle, turns, samples, azimuth_offset):
    """The cone field built column by column with np.column_stack, the reference for cone_trajectory."""
    t = np.linspace(0.0, 1.0, samples)
    gamma = azimuth_offset + 2.0 * math.pi * turns * t
    sl, cl = math.sin(polar_angle), math.cos(polar_angle)
    rate = 2.0 * math.pi * turns
    tangents = np.column_stack([sl * np.cos(gamma), sl * np.sin(gamma), np.full_like(gamma, cl)])
    derivatives = np.column_stack([-sl * np.sin(gamma) * rate, sl * np.cos(gamma) * rate, np.zeros_like(gamma)])
    return t, tangents, derivatives


def eager_angles(traj):
    """(unit tangents, lam, gamma, gamma_dot) with the azimuth unwrapped up front, every array through the pole mask."""
    raw_k = traj.tangents
    k = raw_k / np.linalg.norm(raw_k, axis=1)[:, None]
    lam = np.arccos(np.clip(k[:, 2], -1.0, 1.0))
    live = np.hypot(k[:, 0], k[:, 1]) >= geometry.POLE_SIN_TOL
    n = len(lam)
    raw = np.arctan2(k[live, 1], k[live, 0])
    step = np.diff(raw, prepend=raw[:1] if live[0] else 0.0)
    turns = np.cumsum(np.rint((geometry.wrap_angle(step) - step) / (2.0 * math.pi)))
    gamma = np.zeros(n)
    gamma[live] = raw + 2.0 * math.pi * turns
    gamma = gamma[np.maximum.accumulate(np.where(live, np.arange(n), 0))]
    kd = traj.derivatives
    transverse_sq = raw_k[:, 0] ** 2 + raw_k[:, 1] ** 2
    gamma_dot = np.zeros(n)
    gamma_dot[live] = (raw_k[live, 0] * kd[live, 1] - raw_k[live, 1] * kd[live, 0]) / transverse_sq[live]
    return k, lam, gamma, gamma_dot


def meridian_trajectory(samples):
    """A great circle through both poles, traced at unit rate, scaled by 3 so the tangents are not unit."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples)
    tangents = 3.0 * np.column_stack([np.sin(theta), np.zeros(samples), np.cos(theta)])
    derivatives = 3.0 * np.column_stack([np.cos(theta), np.zeros(samples), -np.sin(theta)])
    return TangentTrajectory(np.linspace(0.0, 1.0, samples), tangents, derivatives)


def pole_crossing_trajectory():
    """Leading poles, a first live sample at exactly -pi, a pole run between azimuths 3.0 and -3.0 (a +-pi
    crossing), and a second crossing the other way followed by a trailing pole."""
    pole = None
    azimuths = [pole, pole, pole, -math.pi, -2.9, -2.6, -2.2, -1.0, 0.4, 1.9, 2.7, 3.0, pole, pole,
                pole, -3.0, -2.8, -3.05, 3.1, 2.95, 1.0, -0.5, pole]
    lam = 0.8
    tangents = np.array(
        [[0.0, 0.0, 1.0] if g is None else [math.sin(lam) * math.cos(g), math.sin(lam) * math.sin(g),
                                               math.cos(lam)] for g in azimuths]
    )
    tangents[3, 1] = -0.0  # atan2(-0.0, x < 0) = -pi exactly
    n = len(azimuths)
    derivatives = np.random.default_rng(5).normal(size=(n, 3))
    return TangentTrajectory(np.linspace(0.0, 1.0, n), tangents, derivatives)


class TestLeanChain:
    @pytest.mark.parametrize(
        "polar, turns, offset",
        [(0.0, 1.0, 0.0), (0.7, 1.3, 0.0), (math.pi / 4.0, 2.0, math.pi / 2.0), (math.pi / 2.0, 0.25, -1.1),
         (2.9, 7.5, 3.0), (math.pi, 1.0, 0.4)],
    )
    def test_cone_matches_column_stack(self, polar, turns, offset):
        traj = cone_trajectory(polar, turns, 1025, azimuth_offset=offset)
        t, tangents, derivatives = column_stack_cone(polar, turns, 1025, offset)
        assert np.array_equal(traj.times, t)
        assert np.array_equal(traj.tangents, tangents)
        assert np.array_equal(traj.derivatives, derivatives)
        # Bit for bit, signed zeros included.
        assert np.array_equal(np.signbit(traj.derivatives), np.signbit(derivatives))

    @pytest.mark.parametrize(
        "make, poles",
        [
            (lambda: cone_trajectory(0.7, 1.3, 1025), False),
            (lambda: helix_traj(0.5, 1.0, 3.0, 513), False),
            (lambda: _unit_trajectory(np.linspace(0.0, 1.0, 257), np.column_stack(
                [np.cos(9.0 * np.linspace(0.0, 1.0, 257)), np.sin(5.0 * np.linspace(0.0, 1.0, 257)),
                 np.full(257, 0.4)])), False),
            (lambda: meridian_trajectory(513), True),
            (lambda: cone_trajectory(0.0, 1.0, 33), True),
            (lambda: cone_trajectory(math.pi, 2.0, 65), True),
        ],
        ids=["cone", "helix", "wobble", "meridian", "north-pole", "south-pole"],
    )
    def test_angles_match_eager_formula(self, make, poles):
        traj = make()
        k, lam, gamma, gamma_dot = eager_angles(traj)
        live = np.hypot(k[:, 0], k[:, 1]) >= geometry.POLE_SIN_TOL
        assert live.all() != poles
        assert np.array_equal(traj.unit_tangents, k)
        assert np.array_equal(traj.lam, lam)
        assert np.array_equal(traj.gamma_dot, gamma_dot)
        assert np.array_equal(traj.gamma_from(None)[0], gamma)


# Signed zeros, subnormals, the float extremes and non-finite values, one per coordinate.
SPECIAL_ROW_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1.0, -2.5, 1e300, -1e300,
                               1.7e308, math.inf, -math.inf, math.nan])


def kernel_rows():
    """(n, 3) rows: every triple of SPECIAL_ROW_VALUES, then random rows at scales 1e-300 to 1e300."""
    rng = np.random.default_rng(12)
    grid = np.stack(np.meshgrid(*[SPECIAL_ROW_VALUES] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    scales = 10.0 ** rng.integers(-300, 301, size=(20000, 3))
    return np.concatenate([grid, rng.standard_normal((20000, 3)) * scales])


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestRowKernels:
    def test_row_norms_match_numpy(self):
        v = kernel_rows()
        with np.errstate(all="ignore"):
            assert same_bits(_row_norms(v), np.linalg.norm(v, axis=1))

    def test_cross_matches_numpy(self):
        a = kernel_rows()
        b = a[np.random.default_rng(3).permutation(len(a))]
        with np.errstate(all="ignore"):
            assert same_bits(_cross(a, b), np.cross(a, b))
            assert same_bits(_cross(b, a), np.cross(b, a))


# What a block of rows reads, each compared with the same rows of the whole-grid attribute.
ROW_KINEMATICS = ("times", "tangents", "derivatives", "precession_field", "motion_residual", "unit_tangents", "lam",
                  "gamma_dot")
# Consecutive blocks that cover 129 samples: odd starts, one-row blocks, and one past BLOCK_SAMPLES.
ROW_EDGES = (0, 1, 2, 7, 8, 37, 64, 65, 128, 129)


def row_trajectories():
    """Cones (a run's turns * t_end) at each polar angle, offset and turn count, then sampled paths."""
    cones = [
        pytest.param(lambda p=polar, t=turns, o=offset: cone_trajectory(p, t, 129, azimuth_offset=o),
                     id=f"cone-{polar:.3g}-{turns:.3g}-{offset:.3g}")
        for polar in (0.0, 0.7, math.pi / 2.0, math.pi)
        for offset in (0.0, math.pi / 2.0)
        for turns in (1.0, 3.0, 2.5 * 0.37)
    ]
    wobble = np.linspace(0.0, 1.0, 129)
    sampled = [
        pytest.param(lambda: tangent_trajectory(sampled_path(*helix_points(0.7, 2.5, 2.0, 129))), id="sampled-helix"),
        pytest.param(lambda: _unit_trajectory(wobble, np.column_stack(
            [np.cos(9.0 * wobble), np.sin(5.0 * wobble), np.full(129, 0.4)])), id="sampled-wobble"),
        pytest.param(lambda: meridian_trajectory(129), id="meridian"),
        pytest.param(pole_crossing_trajectory, id="pole-runs"),
    ]
    return cones + sampled


class TestRows:
    @pytest.mark.parametrize("make", row_trajectories())
    def test_rows_match_the_whole_arrays(self, make):
        traj = make()
        n = len(traj.times)
        blocks = [(i, i + 1, 1) for i in range(n)]  # one row each
        blocks += [(a, b, 1) for a, b in zip(ROW_EDGES, ROW_EDGES[1:])]
        blocks += [(0, n, 2), (1, n, 2), (3, n - 4, 2), (5, 6, 2), (0, n, n - 1), (0, n + geometry.BLOCK_SAMPLES, 1)]
        for start, stop, step in blocks:
            rows = traj.rows(start, stop, step)
            for name in ROW_KINEMATICS:
                assert same_bits(getattr(rows, name), getattr(traj, name)[start:stop:step]), (name, start, stop, step)

    @pytest.mark.parametrize("make", row_trajectories())
    @pytest.mark.parametrize("edges", [ROW_EDGES, tuple(range(130))], ids=["blocks", "one-row"])
    def test_gamma_carried_across_blocks(self, make, edges):
        traj = make()
        pieces, carry = [], None
        for start, stop in zip(edges, edges[1:]):
            gamma, carry = traj.rows(start, stop).gamma_from(carry)
            pieces.append(gamma)
        assert same_bits(np.concatenate(pieces), traj.gamma_from(None)[0])

    def test_gamma_keeps_a_negative_zero(self):
        # A leading pole, then azimuths r and -0.0 whose wrapped increments both round to -0.0: the turn count
        # stays -0.0, so gamma reads -0.0 at the last sample, in one block or in three.
        lam, r = 0.8, 0.8594431477159054
        tangents = np.array([[0.0, 0.0, 1.0], [math.sin(lam) * math.cos(r), math.sin(lam) * math.sin(r), math.cos(lam)],
                             [math.sin(lam), -0.0, math.cos(lam)]])
        traj = TangentTrajectory(np.linspace(0.0, 1.0, 3), tangents, np.zeros((3, 3)))
        gamma = traj.gamma_from(None)[0]
        assert same_bits(gamma, eager_angles(traj)[2]) and np.signbit(gamma[2])
        first, carry = traj.rows(0, 1).gamma_from(None)
        second, carry = traj.rows(1, 2).gamma_from(carry)
        assert same_bits(np.concatenate([first, second, traj.rows(2, 3).gamma_from(carry)[0]]), gamma)

    @pytest.mark.parametrize("make", row_trajectories())
    def test_max_norms_match_the_whole_arrays(self, make, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_SAMPLES", 16)  # eight blocks of 17 samples, sharing their edges
        traj = make()
        assert traj.max_norms == (_row_norms(traj.precession_field).max(), _row_norms(traj.motion_residual).max())

    def test_cone_builds_its_whole_arrays_only_when_read(self):
        traj = cone_trajectory(0.7, 1.0, 65)
        traj.rows(0, 65).gamma_from(None)
        assert traj.max_norms[1] < 1e-12
        assert traj.__dict__.keys() == {"times", "polar_angle", "turns", "azimuth_offset", "max_norms"}
        assert traj.tangents.shape == traj.derivatives.shape == (65, 3)


def one_pass_derivative(values, times):
    """_derivative's formula on whole arrays: the reference for its blocks."""
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
    out[0] = -(2 * a + b) / (a * (a + b)) * values[0] + (a + b) / (a * b) * values[1] - a / (b * (a + b)) * values[2]
    a, b = h[-2], h[-1]
    out[-1] = b / (a * (a + b)) * values[-3] - (a + b) / (a * b) * values[-2] + (a + 2 * b) / (b * (a + b)) * values[-1]
    return out


def one_pass_anholonomy(traj):
    """running_anholonomy on whole arrays: the rate at every sample, one running sum over every pane."""
    y, x = traj.gamma_dot * (1.0 - np.cos(traj.lam)), traj.times
    n = len(x)
    if n == 2:
        return np.array([0.0, 0.5 * (y[0] + y[1]) * (x[1] - x[0])])
    end = n - 1 - (n - 1) % 2
    h = np.diff(x)
    panes = quadrature._pane(y[0:end:2], y[1:end:2], y[2 : end + 1 : 2], h[0:end:2], h[1:end:2])
    out = np.concatenate(([0.0], np.cumsum(panes)))
    if end < n - 1:
        out = np.append(out, out[-1] + quadrature._trailing(y[n - 3], y[n - 2], y[n - 1], h[n - 3], h[n - 2]))
    return out


B = geometry.BLOCK_SAMPLES
# Grids around the block edges: an even sample count has an odd trailing interval, and 2B + 2 samples
# would leave a last block of two.
BLOCK_GRIDS = (2, 3, 4, 8, B - 1, B, B + 1, B + 2, 2 * B + 1, 2 * B + 2)


def block_grid(n, kind):
    """n increasing times: np.linspace(0, 1, n), or intervals drawn from [0.2, 1] on [-0.3, ...)."""
    if kind == "uniform":
        return np.linspace(0.0, 1.0, n)
    return np.concatenate([[-0.3], -0.3 + np.cumsum(np.random.default_rng(n).uniform(0.2, 1.0, n - 1))])


class TestBlocksMatchOnePass:
    @pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", BLOCK_GRIDS)
    def test_derivative(self, n, kind):
        times = block_grid(n, kind)
        values = np.random.default_rng(n).normal(size=(n, 3))
        if n < 3:
            with pytest.raises(ValueError, match="three samples"):
                _derivative(values, times)
            return
        assert same_bits(_derivative(values, times), one_pass_derivative(values, times))
        shifted = _derivative(values, times, (-3, 7))
        assert same_bits(shifted, one_pass_derivative(np.ldexp(values, 3), np.ldexp(times, -7)))

    @pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", [n for n in BLOCK_GRIDS if n >= 8])
    def test_tangent_trajectory(self, n, kind):
        times = block_grid(n, kind)
        points = np.cumsum(np.random.default_rng(n).normal(size=(n, 3)), axis=0) * 1e-3
        traj = tangent_trajectory(sampled_path(times, points))
        scaled = np.ldexp(points, -np.frexp(np.abs(points).max())[1])
        velocity = one_pass_derivative(scaled, np.ldexp(times, -np.frexp(times[-1] - times[0])[1]))
        unit = velocity / _row_norms(velocity)[:, None]
        assert same_bits(traj.tangents, unit)
        assert same_bits(traj.derivatives, one_pass_derivative(unit, times))

    @pytest.mark.parametrize("field", ["random", "negative-zero"])
    @pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
    @pytest.mark.parametrize("n", BLOCK_GRIDS)
    def test_running_anholonomy(self, n, kind, field):
        rng = np.random.default_rng(n)
        if field == "random":  # every tenth sample on a pole
            tangents, derivatives = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
            tangents[::10, :2] = 0.0
        else:  # a fixed direction whose rate is -0.0 at every sample, so every pane sum is -0.0
            tangents, derivatives = np.tile([1.0, 0.0, 0.0], (n, 1)), np.tile([0.0, -0.0, 0.0], (n, 1))
        traj = TangentTrajectory(block_grid(n, kind), tangents, derivatives)
        running = traj.running_anholonomy()
        assert same_bits(running, one_pass_anholonomy(TangentTrajectory(traj.times, tangents, derivatives)))
        assert traj.__dict__.keys() == {"times", "tangents", "derivatives"}  # nothing whole-grid cached
        # On a uniform grid the -0.0 totals are carried across blocks; a trailing interval adds +0.0.
        if field == "negative-zero" and kind == "uniform":
            panes = running[1 : (n - 1) // 2 + 1] if n > 2 else running[1:]
            assert not np.signbit(running[0]) and np.signbit(panes).all()

    def test_cone_blocks(self):
        cone = cone_trajectory(0.7, 2.3, 2 * B + 2, azimuth_offset=0.4)
        assert same_bits(cone.running_anholonomy(), one_pass_anholonomy(cone))



class TestConeAnholonomy:
    # The closed form against the one-pass quadrature of the same cone; within
    # POLE_SIN_TOL of a pole (1e-10 and pi - 1e-10) both read 0.
    @pytest.mark.parametrize("samples", [3, 65, 4095, 4097, 4098, 8193, 32769])
    @pytest.mark.parametrize("polar", [0.0, math.pi, 0.8213, 2.4, 1e-10, math.pi - 1e-10])
    @pytest.mark.parametrize("offset", [0.0, math.pi / 2.0])
    def test_blocks_match_one_pass_chain(self, samples, polar, offset):
        for turns in (1.0, 2.7):
            traj = cone_trajectory(polar, turns, samples, azimuth_offset=offset)
            one_pass = traj.running_anholonomy()[-1]
            closed = cone_anholonomy(polar, turns)
            assert abs(one_pass - closed) <= 1e-12 * max(1.0, abs(closed)), (one_pass, closed)
            if math.sin(polar) < 1e-9:
                assert one_pass == closed == 0.0

    def test_refuses_what_cone_trajectory_refuses(self):
        for polar, turns in ((-0.1, 1.0), (math.pi + 1e-9, 1.0), (0.5, 0.0), (0.5, -1.0)):
            with pytest.raises(ValueError):
                cone_trajectory(polar, turns, 65)
            with pytest.raises(ValueError):
                cone_anholonomy(polar, turns)
        with pytest.raises(ValueError, match="3 samples"):
            cone_trajectory(0.5, 1.0, 2)


class TestSphericalAngles:
    def test_pole_convention(self):
        traj = cone_trajectory(0.0, 1.0, 65)
        assert np.all(traj.lam < 1e-12)
        assert np.all(traj.gamma_from(None)[0] == 0.0)
        assert np.all(traj.gamma_dot == 0.0)

    def test_equator_single_turn(self):
        traj = cone_trajectory(math.pi / 2.0, 1.0, 513)
        assert np.abs(traj.lam - math.pi / 2.0).max() < 1e-12
        gamma = traj.gamma_from(None)[0]
        assert gamma[-1] - gamma[0] == pytest.approx(2.0 * math.pi, abs=1e-9)

    def test_two_turn_helix_unwraps_beyond_2pi(self):
        traj = helix_traj(1.0, 2.0 * math.pi, 2.0, 1025)
        gamma = traj.gamma_from(None)[0]
        assert gamma[-1] - gamma[0] == pytest.approx(4.0 * math.pi, abs=1e-9)
        assert np.all(np.diff(gamma) > 0)

    def test_gamma_continuity(self):
        traj = helix_traj(0.5, 1.0, 3.0, 513)
        assert np.abs(np.diff(traj.gamma_from(None)[0])).max() < math.pi

    def test_round_trip_reconstruction(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 1.0, 257)
        base = np.tile(np.array([0.3, -0.2, 1.0]), (257, 1))
        for m in range(2):
            amp = rng.normal(scale=0.2, size=3)
            base += np.outer(np.sin(2.0 * math.pi * (m + 1) * t + m), amp)
        traj = _unit_trajectory(t, base)
        sl, gamma = np.sin(traj.lam), traj.gamma_from(None)[0]
        rebuilt = np.column_stack([sl * np.cos(gamma), sl * np.sin(gamma), np.cos(traj.lam)])
        assert np.abs(rebuilt - traj.tangents).max() < 1e-9


    def test_unwrap_matches_loop_oracle_across_poles(self):
        traj = pole_crossing_trajectory()
        tangents, n = traj.tangents, len(traj.times)

        def wrap(d):
            d = (d + math.pi) % (2.0 * math.pi) - math.pi
            return math.pi if d == -math.pi else d

        oracle = np.empty(n)
        prev = 0.0
        for i, k in enumerate(tangents):
            if math.hypot(k[0], k[1]) < 1e-9:
                oracle[i] = prev
            else:
                raw = math.atan2(k[1], k[0])
                oracle[i] = prev + wrap(raw - prev) if i > 0 else raw
            prev = oracle[i]

        gamma = traj.gamma_from(None)[0]
        assert np.abs(gamma - oracle).max() < 1e-12
        assert list(gamma[:3]) == [0.0, 0.0, 0.0]
        assert gamma[3] == math.pi
        assert gamma[15] == pytest.approx(4.0 * math.pi - 3.0, abs=1e-12)
        assert np.all(traj.gamma_dot[[0, 1, 2, 12, 13, 14, n - 1]] == 0.0)

    def test_all_pole_trace_has_zero_azimuth(self):
        traj = cone_trajectory(0.0, 1.0, 33)
        assert np.all(traj.gamma_from(None)[0] == 0.0) and np.all(traj.gamma_dot == 0.0)


class TestMotionIdentity:
    def test_helix_identity(self):
        traj = helix_traj(1.0, 2.0 * math.pi, 1.0, 4097)
        assert motion_identity_residual(traj) < 1e-6

    def test_sampled_helix_identity(self):
        t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 4097)
        assert motion_identity_residual(tangent_trajectory(sampled_path(t, pts))) < 1e-6

    def test_equator_circle(self):
        assert motion_identity_residual(cone_trajectory(math.pi / 2.0, 1.0, 4097)) < 1e-6

    def test_constant_rescaling_keeps_identity(self):
        traj = helix_traj(1.0, 2.0 * math.pi, 1.0, 1025).scaled(5.0)
        assert motion_identity_residual(traj) < 1e-6

    def test_varying_magnitude_is_flagged(self):
        base = cone_trajectory(math.pi / 3.0, 1.0, 513)
        factor = 1.0 + 0.5 * np.sin(2.0 * math.pi * base.times)
        dfactor = math.pi * np.cos(2.0 * math.pi * base.times)
        tangents = base.tangents * factor[:, None]
        derivatives = base.derivatives * factor[:, None] + base.tangents * dfactor[:, None]
        assert motion_identity_residual(TangentTrajectory(base.times, tangents, derivatives)) > 0.1

    def test_refinement_halves_residual(self):
        def generic(n):
            t = np.linspace(0.0, 1.0, n)
            pts = np.column_stack(
                [
                    np.cos(2.0 * math.pi * t) + 0.3 * np.cos(4.0 * math.pi * t),
                    np.sin(2.0 * math.pi * t),
                    0.4 * np.sin(4.0 * math.pi * t) + 0.5 * t,
                ]
            )
            return motion_identity_residual(tangent_trajectory(sampled_path(t, pts)))

        coarse, fine = generic(513), generic(1025)
        assert coarse / fine >= 2.0


class TestSolidAngle:
    """The solid angle of a closed trace is its anholonomy integral."""

    def test_equator(self):
        traj = cone_trajectory(math.pi / 2.0, 1.0, 513)
        assert traj.running_anholonomy()[-1] == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_quarter_pi_cone(self):
        traj = cone_trajectory(math.pi / 4.0, 1.0, 513)
        assert traj.running_anholonomy()[-1] == pytest.approx(SOLID_ANGLE_45, abs=1e-10)

    def test_degenerate_cap(self):
        traj = cone_trajectory(1e-6, 1.0, 513)
        assert abs(traj.running_anholonomy()[-1]) < 1e-11

    def test_rotation_about_axis_invariance(self):
        a0 = cone_trajectory(0.9, 1.0, 513)
        a1 = cone_trajectory(0.9, 1.0, 513, azimuth_offset=1.234)
        assert abs(a0.running_anholonomy()[-1] - a1.running_anholonomy()[-1]) < 1e-9

    def test_double_traversal_doubles(self):
        single = cone_trajectory(0.7, 1.0, 513).running_anholonomy()[-1]
        double = cone_trajectory(0.7, 2.0, 1025).running_anholonomy()[-1]
        assert double == pytest.approx(2.0 * single, abs=1e-8)


class TestCsvInterfaces:
    def test_path_round_trip(self, tmp_path):
        t, pts = helix_points(1.0, 2.0, 1.0, 129)
        f = tmp_path / "helix.csv"
        with open(f, "w") as fh:
            fh.write("t,x,y,z\n")
            for ti, p in zip(t, pts):
                fh.write(f"{ti:.17g},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g}\n")
        path = load_path_csv(f)
        assert np.abs(path.points - pts).max() < 1e-15
        assert np.abs(path.times - t).max() < 1e-15

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("time,x,y,z\n0,0,0,0\n")
        with pytest.raises(ValueError, match="t,x,y,z"):
            load_path_csv(f)

    def test_path_rows_validated(self, tmp_path):
        f = tmp_path / "p.csv"
        rows = "".join(f"{i / 9},{i},{i * i},0\n\n" for i in range(9))  # blank lines are skipped
        f.write_text("t,x,y,z\n" + rows)
        assert count_path_rows(f) == len(load_path_csv(f).times) == 9
        f.write_text("t,x,y,z\n0,0,0\n1,1,1\n")
        with pytest.raises(ValueError, match="4 columns"):
            load_path_csv(f)
        f.write_text("t,x,y,z\n0,0,0,0\n1,1,1\n")
        with pytest.raises(ValueError, match="columns"):
            load_path_csv(f)
        for body in ("\n", " \n\t\n"):
            f.write_text("t,x,y,z\n" + body)
            with pytest.raises(ValueError, match="no data rows"):
                load_path_csv(f)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_rows_counted_as_loaded_for_any_line_end(self, tmp_path, newline):
        # Whitespace-only lines between rows.
        rows = [f"{i / 16},{math.cos(i / 4)},{math.sin(i / 4)},{i / 16}" for i in range(17)]
        rows[5:5] = ["   "]
        rows[12:12] = ["\t", ""]
        f = tmp_path / "p.csv"
        f.write_bytes(newline.join(["t,x,y,z", *rows, ""]).encode())
        assert count_path_rows(f) == len(load_path_csv(f).times) == 17

    def test_byte_order_mark_before_the_header_is_dropped(self, tmp_path):
        # As spreadsheet exports often save a CSV.
        rows = [f"{i / 16},{math.cos(i / 4)},{math.sin(i / 4)},{i / 16}\n" for i in range(17)]
        f = tmp_path / "p.csv"
        f.write_bytes(b"\xef\xbb\xbf" + ("t,x,y,z\n" + "".join(rows)).encode())
        path = load_path_csv(f)
        assert count_path_rows(f) == len(path.times) == 17
        assert np.array_equal(path.times, np.arange(17) / 16)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        filler=st.lists(
            st.lists(
                st.text(" \t\x0b\x0c\x1c\x1f\xa0\x85\u2028\u3000", max_size=3)
                | st.text(" #,0.x\xa0", max_size=4).map("#".__add__),
                max_size=2,
            ),
            min_size=18,
            max_size=18,
        ),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        final_newline=st.booleans(),
    )
    def test_row_count_is_the_loaded_row_count(self, tmp_path_factory, filler, newline, final_newline):
        # What parse_config's size check reads before any load: blank, whitespace-only and '#' comment lines
        # between, before and after 17 rows, with line ends of every kind.  The whitespace includes non-ASCII
        # characters and the ASCII separators 0x1C-0x1F, which str.isspace admits.
        rows = [f"{i / 16},{math.cos(i / 4)},{math.sin(i / 4)},{i / 16}" for i in range(17)]
        lines = ["t,x,y,z", *filler[0]]
        for row, extra in zip(rows, filler[1:]):
            lines += [row, *extra]
        f = tmp_path_factory.mktemp("rows") / "p.csv"
        f.write_bytes((newline.join(lines) + newline * final_newline).encode())
        assert count_path_rows(f) == len(load_path_csv(f).times) == 17

    def test_comment_after_indent_counts_as_the_row_the_load_refuses(self, tmp_path):
        # np.loadtxt drops a line that starts with '#' but reads "  # probe" as a row of one column.
        f = tmp_path / "p.csv"
        f.write_text("t,x,y,z\n0,1,0,0 # start\n# probe\n  # probe\n1,0,1,1\n")
        assert count_path_rows(f) == 3
        with pytest.raises(ValueError, match="number of columns changed from 4 to 1"):
            load_path_csv(f)

    def test_path_that_is_not_utf8_is_refused_by_the_count(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_bytes(b"t,x,y,z\n0,1,0,0\n\xff\xfe\n1,0,1,1\n")
        for read in (count_path_rows, load_path_csv):
            with pytest.raises(UnicodeDecodeError):
                read(f)

    def test_whitespace_only_lines_skipped(self, tmp_path):
        rows = [f"{i / 16},{math.cos(i / 4)},{math.sin(i / 4)},{i / 16}\n" for i in range(17)]
        rows[5:5] = ["   \n"]
        rows[12:12] = ["\t\n"]
        f = tmp_path / "p.csv"
        f.write_text("t,x,y,z\n" + "".join(rows))
        assert count_path_rows(f) == 17
        path = load_path_csv(f)
        assert len(path.times) == 17
        assert np.array_equal(path.times, np.arange(17) / 16)


def zero_tangent_trajectory():
    """Nine samples along x with the fifth tangent exactly zero."""
    tangents = np.tile([1.0, 0.0, 0.0], (9, 1))
    tangents[4] = 0.0
    return TangentTrajectory(np.linspace(0.0, 1.0, 9), tangents, np.zeros((9, 3)))


T8 = np.linspace(0.0, 1.0, 8)


class TestRefusals:
    # Each shape, order and zero-tangent guard of the path and trajectory layer, reached by a direct call.
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sampled_path(T8, np.zeros((8, 2))), r"times must be \(n,\) and points \(n, 3\)"),
            (lambda: sampled_path(T8, np.zeros((7, 3))), r"times must be \(n,\) and points \(n, 3\)"),
            (lambda: sampled_path(T8[None, :], np.zeros((1, 3))),
             r"times must be \(n,\) and points \(n, 3\)"),
            (lambda: TangentTrajectory(T8, np.zeros((8, 2)), np.zeros((8, 3))),
             r"tangents and derivatives must be \(n, 3\)"),
            (lambda: TangentTrajectory(T8, np.zeros((8, 3)), np.zeros((7, 3))),
             r"tangents and derivatives must be \(n, 3\)"),
            (lambda: TangentTrajectory(T8[::-1], np.ones((8, 3)), np.zeros((8, 3))),
             "times must be strictly increasing"),
            (lambda: TangentTrajectory(np.zeros(8), np.ones((8, 3)), np.zeros((8, 3))),
             "times must be strictly increasing"),
            (lambda: zero_tangent_trajectory().precession_field, "tangent with zero magnitude"),
            (lambda: zero_tangent_trajectory().unit_tangents, "tangent with zero magnitude"),
        ],
        ids=["points-2-columns", "points-short", "times-2d", "tangents-2-columns", "derivatives-short",
             "times-decreasing", "times-repeated", "zero-tangent-u", "zero-tangent-unit"],
    )
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
