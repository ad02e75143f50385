"""Acceptance suite: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import filecmp
import math

import numpy as np

from fiberphase import (
    BUILTIN_SCENARIOS,
    GyrotropicMedium,
    anholonomy_integral,
    build_photon_state,
    build_space,
    classify,
    closed_form_phase,
    commutator,
    cone_trajectory,
    evolution_operator_V,
    evolve_state,
    extract_phases,
    helicity_operator,
    helix_cone,
    helix_points,
    lvn_residual,
    motion_identity_residual,
    parse_config,
    refractive_indices,
    run_builtin,
    s3_split,
    sampled_path,
    spherical_angles,
    spin_fixed,
    tangent_trajectory,
)
from fiberphase.scenario import _build_trajectory, apply_overrides

BERRY_45 = 2.0 * math.pi * (1.0 - math.cos(math.pi / 4.0))  # 1.84030236902122


def check(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def helix_traj(lam, turns, steps):
    pitch = 2.0 * math.pi / math.tan(lam)
    polar, offset = helix_cone(1.0, pitch)
    return cone_trajectory(polar, turns, 2 * steps + 1, azimuth_offset=offset)


def ode_geometric_phase(lam, steps, sigma=+1):
    traj = helix_traj(lam, 1.0, steps)
    space = build_space(3, 2)
    n_r, n_l = (1, 0) if sigma > 0 else (0, 1)
    psi0 = build_photon_state(space, n_r, n_l, k_hat=traj.tangents[0])
    result = evolve_state(psi0, traj)
    return extract_phases(result, traj), traj, result


def test_criterion_1_berry_limit():
    traj = helix_traj(math.pi / 4.0, 1.0, 8192)
    closed = anholonomy_integral(spherical_angles(traj))
    breakdown, _, _ = ode_geometric_phase(math.pi / 4.0, 8192)
    quadrature_ok = abs(closed - BERRY_45) < 1e-8
    ode_ok = abs(breakdown.geometric_phase - BERRY_45) < 1e-4
    check(
        1,
        f"Berry limit: quadrature gap {abs(closed - BERRY_45):.2e} < 1e-8, "
        f"ODE gap {abs(breakdown.geometric_phase - BERRY_45):.2e} < 1e-4",
        quadrature_ok and ode_ok,
    )


def test_criterion_2_oracle_convergence():
    gaps = []
    for steps in (128, 256, 512, 1024):
        breakdown, _, _ = ode_geometric_phase(math.pi / 4.0, steps)
        gaps.append(abs(breakdown.geometric_phase - BERRY_45))
    ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
    check(
        2,
        "oracle convergence ratios per grid doubling "
        + ", ".join(f"{r:.1f}" for r in ratios)
        + " all >= 12",
        all(r >= 12.0 for r in ratios),
    )


def test_criterion_3_algebra_suite():
    space = build_space(3, 3)
    s = spin_fixed(space)
    sel = space.bounded_indices()
    worst_comm = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        defect = (commutator(s[a], s[b]) - 1j * s[c]).entries[np.ix_(sel, sel)]
        worst_comm = max(worst_comm, np.abs(defect).max())

    worst_eig = 0.0
    rng = np.random.default_rng(17)
    directions = [np.array([0.0, 0.0, 1.0])]
    for _ in range(10):
        v = rng.normal(size=3)
        directions.append(v / np.linalg.norm(v))
    for k in directions:
        h = helicity_operator(space, k)
        for sigma, (n_r, n_l) in ((+1.0, (1, 0)), (-1.0, (0, 1))):
            psi = build_photon_state(space, n_r, n_l, k_hat=k)
            defect = np.abs(h.apply(psi).amplitudes - sigma * psi.amplitudes).max()
            worst_eig = max(worst_eig, defect)
    check(
        3,
        f"algebra suite: commutator defect {worst_comm:.2e} < 1e-12, "
        f"helicity eigenequation defect {worst_eig:.2e} < 1e-12",
        worst_comm < 1e-12 and worst_eig < 1e-12,
    )


def test_criterion_4_invariant_machinery():
    space = build_space(3, 3)
    traj = helix_traj(math.pi / 4.0, 1.0, 2048)  # 4097 samples
    probes = traj.times[:: 256]
    lvn_analytic = max(lvn_residual(traj, space, t) for t in probes)

    t, pts = helix_points(1.0, 2.0 * math.pi, 1.0, 4097)
    fd_traj = tangent_trajectory(sampled_path(t, pts))
    lvn_fd = max(lvn_residual(fd_traj, space, tt) for tt in fd_traj.times[::256])

    _, _, s3 = spin_fixed(space)
    sel = space.complete_sector_indices()
    rng = np.random.default_rng(23)
    worst_v = 0.0
    for _ in range(50):
        lam = rng.uniform(0.0, math.pi)
        gam = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        v = evolution_operator_V(lam, gam, space)
        k = np.array([math.sin(lam) * math.cos(gam), math.sin(lam) * math.sin(gam), math.cos(lam)])
        i_op = helicity_operator(space, k)
        defect = (v.dagger() @ i_op @ v - s3).entries[np.ix_(sel, sel)]
        worst_v = max(worst_v, np.abs(defect).max())
    check(
        4,
        f"invariant machinery: LvN residual {max(lvn_analytic, lvn_fd):.2e} < 1e-6 "
        f"at 4096 samples, |V+IV - S3| {worst_v:.2e} < 1e-9 over 50 angles",
        lvn_analytic < 1e-6 and lvn_fd < 1e-6 and worst_v < 1e-9,
    )


def test_criterion_5_multiphoton_linearity():
    angles = spherical_angles(helix_traj(math.pi / 3.0, 1.0, 2048))
    anholonomy = anholonomy_integral(angles)
    space = build_space(2, 3)
    _, _, r_n, l_n = s3_split(space)
    worst = 0.0
    for n_r in range(4):
        for n_l in range(4):
            psi = build_photon_state(space, n_r, n_l)
            s3 = float(psi.expectation(r_n + l_n).real)
            phi = closed_form_phase(angles, s3)
            worst = max(worst, abs(phi - (n_r - n_l) * anholonomy))
    check(
        5,
        f"multi-photon linearity over occupations 0..3: worst gap {worst:.2e} < 1e-8",
        worst < 1e-8,
    )


def test_criterion_6_vacuum_phases():
    angles = spherical_angles(helix_traj(math.pi / 3.0, 1.0, 2048))
    anholonomy = anholonomy_integral(angles)
    space = build_space(2, 1)
    r_nn, l_nn, _, _ = s3_split(space)
    vac = build_photon_state(space, 0, 0)
    phi_r = closed_form_phase(angles, float(vac.expectation(r_nn).real))
    phi_l = closed_form_phase(angles, float(vac.expectation(l_nn).real))
    ok = (
        phi_r == 0.5 * anholonomy
        and phi_l == -0.5 * anholonomy
        and phi_r + phi_l == 0.0
        and abs(phi_r - math.pi / 2.0) < 1e-9
    )
    check(
        6,
        f"vacuum phases +/-A/2 = +/-{phi_r:.6f} with exact cancellation",
        ok,
    )


def test_criterion_7_k_independence():
    traj = helix_traj(math.pi / 4.0, 1.0, 1024)
    scaled = traj.scaled(1000.0)
    space = build_space(3, 2)
    psi0 = build_photon_state(space, 1, 0, k_hat=traj.tangents[0])
    b1 = extract_phases(evolve_state(psi0, traj), traj)
    b2 = extract_phases(evolve_state(psi0, scaled), scaled)
    gaps = (
        abs(b1.geometric_phase - b2.geometric_phase),
        abs(b1.closed_form_phase - b2.closed_form_phase),
        abs(b1.total_phase - b2.total_phase),
    )
    check(
        7,
        f"k-independence under 1000x tangent rescaling: worst phase shift {max(gaps):.2e} < 1e-10",
        max(gaps) < 1e-10,
    )


def test_criterion_8_equation_of_motion_identity():
    worst = 0.0
    for name, members in sorted(BUILTIN_SCENARIOS.items()):
        for label, raw in members:
            config = parse_config(apply_overrides(raw, steps=2048), label)  # 4097 samples
            traj = _build_trajectory(config)
            worst = max(worst, motion_identity_residual(traj))
    check(
        8,
        f"equation-of-motion identity on all built-in paths at 4096 samples: "
        f"max residual {worst:.2e} < 1e-6",
        worst < 1e-6,
    )


def test_criterion_9_gyrotropic_branch_logic():
    pos = GyrotropicMedium(-1.0, 2.0, 1.0, 1.0)
    neg = GyrotropicMedium(-1.0, -2.0, 1.0, 1.0)
    plus_pos, minus_pos = classify(pos, omega=1.0)
    plus_neg, minus_neg = classify(neg, omega=1.0)
    branch_ok = (
        plus_pos.status == "propagating"
        and minus_pos.status == "evanescent"
        and plus_neg.status == "evanescent"
        and minus_neg.status == "propagating"
    )
    identity_ok = True
    for medium in (pos, neg, GyrotropicMedium(0.5, 0.25, 1.0, 2.0)):
        n_plus_sq, n_minus_sq = refractive_indices(medium)
        identity_ok = identity_ok and (
            n_plus_sq + n_minus_sq == 2.0 * medium.mu * medium.epsilon1
            and n_plus_sq - n_minus_sq == 2.0 * medium.mu * medium.epsilon2
        )
    check(
        9,
        "gyrotropic branch logic: one propagating handedness per sign of epsilon2, "
        "sum/difference identities exact",
        branch_ok and identity_ok,
    )


def test_criterion_10_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        for name in sorted(BUILTIN_SCENARIOS):
            code = run_builtin(name, out)
            assert code == 0, f"built-in scenario {name} failed"
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    same_names = files_a == files_b
    identical = all(filecmp.cmp(out_a / f, out_b / f, shallow=False) for f in files_a)
    check(
        10,
        f"determinism: {len(files_a)} built-in artifacts byte-identical across two runs",
        same_names and identical,
    )
