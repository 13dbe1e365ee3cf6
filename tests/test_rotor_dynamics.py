import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from levrot.constants import DEFAULT_CONSTANTS
from levrot.geometry import ProlateEllipsoid, Sphere, TotalCharge, build_body
from levrot.rotor_dynamics import (ANGLE_LIMIT, RotorState, DampingModel, Trajectory,
                                   simulate_linear, simulate_nonlinear,
                                   simulate_mathieu, extract_secular_frequency)
from levrot.spectral import NoLineError
from levrot.studio.cli import main
from levrot.trap import (TrapConfig, Mode, MathieuCoefficients,
                         mathieu_coefficients, secular_frequency,
                         floquet_stability)

E = DEFAULT_CONSTANTS.elementary_charge
TWO_PI = 2 * math.pi
W50 = TWO_PI * 50e6


@pytest.fixture(scope="module")
def prolate20():
    return build_body(ProlateEllipsoid(a=50e-9, b=20e-9), TotalCharge(366 * E))


@pytest.fixture(scope="module")
def trap50():
    return TrapConfig(V_ac=5000.0, V_dc=0.0, drive_frequency=W50, z0=10e-6)


def synthetic_trajectory(f0_hz, fs_hz=512e6, n=4096, drive_radps=W50):
    t = np.arange(n) / fs_hz
    y = 0.01 * np.cos(TWO_PI * f0_hz * t + 0.3)
    return Trajectory(times=t, phi1=y, phi2=np.zeros(n), dphi1=np.zeros(n),
                      dphi2=np.zeros(n), sample_interval=1.0 / fs_hz,
                      drive_frequency=drive_radps)


def test_free_rotor_stays_put():
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_mathieu(0.0, 0.0, W50, init, n_drive_periods=50)
    assert not traj.unstable
    np.testing.assert_allclose(traj.phi1, 0.01, rtol=0.0, atol=1e-9)


def test_free_rotor_from_spherical_body(trap50):
    body = build_body(Sphere(20e-9), TotalCharge(366 * E))
    init = RotorState(phi1=0.01, phi2=0.005, dphi1=0.0, dphi2=0.0)
    traj = simulate_linear(body, trap50, init, duration=1e-6, samples=1024)
    np.testing.assert_allclose(traj.phi1, 0.01, atol=1e-9)
    np.testing.assert_allclose(traj.phi2, 0.005, atol=1e-9)


def test_spectral_line_matches_secular_formula(trap50):
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_mathieu(0.0, 0.2828, W50, init, n_drive_periods=400,
                            samples=8192)
    omega = extract_secular_frequency(traj)
    formula = secular_frequency(
        MathieuCoefficients(Mode.ROT_Y, 0.0, 0.2828), trap50).omega
    assert omega == pytest.approx(formula, rel=0.02)
    # and, tighter, the rigorous quasi-frequency
    quasi = floquet_stability(
        MathieuCoefficients(Mode.ROT_Y, 0.0, 0.2828), trap50).quasi_frequency
    assert omega == pytest.approx(quasi, rel=2e-3)


def test_linear_simulation_from_body_matches_secular(prolate20, trap50):
    line = secular_frequency(
        mathieu_coefficients(prolate20, trap50, Mode.ROT_Y), trap50)
    duration = 40 * TWO_PI / line.omega
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_linear(prolate20, trap50, init, duration, samples=4096)
    assert extract_secular_frequency(traj) == pytest.approx(line.omega, rel=0.02)


def test_linear_matches_direct_integration(prolate20):
    # V_dc != 0 gives both angles a non-zero a; the run is 78.8 drive
    # periods long, so samples fall anywhere in a period
    trap = TrapConfig(V_ac=5000.0, V_dc=50.0, drive_frequency=W50, z0=10e-6)
    c = mathieu_coefficients(prolate20, trap, Mode.ROT_Y)
    assert c.a != 0.0
    omega = secular_frequency(c, trap).omega
    gamma = omega / 30.0
    init = RotorState(phi1=0.01, phi2=-0.004, dphi1=0.002 * omega,
                      dphi2=-0.001 * omega)
    duration = 7.3 * TWO_PI / omega
    traj = simulate_linear(prolate20, trap, init, duration, DampingModel(gamma),
                           samples=1000)
    assert not traj.unstable and traj.times.size == 1000

    k = 0.25 * W50 * W50

    def rhs(t, y):
        stiffness = k * (-c.a + c.q * 2.0 * math.cos(W50 * t))
        return [y[2], y[3], stiffness * y[0] - gamma * y[2],
                stiffness * y[1] - gamma * y[3]]

    ref = solve_ivp(rhs, (0.0, duration), [init.phi1, init.phi2, init.dphi1, init.dphi2],
                    method="LSODA", rtol=1e-11, atol=1e-16, t_eval=traj.times)
    assert ref.success
    got = [traj.phi1, traj.phi2, traj.dphi1, traj.dphi2]
    for column, want in zip(got, ref.y):
        np.testing.assert_allclose(column, want, rtol=0.0,
                                   atol=5e-8 * np.max(np.abs(want)))


def test_swapping_the_angles_swaps_the_linear_outputs(prolate20):
    # one Phi(s) and one M serve both angles, so the columns swap bit for bit
    trap = TrapConfig(V_ac=5000.0, V_dc=50.0, drive_frequency=W50, z0=10e-6)
    omega = secular_frequency(mathieu_coefficients(prolate20, trap, Mode.ROT_Y), trap).omega
    duration = 7.3 * TWO_PI / omega
    damping = DampingModel(omega / 30.0)
    init = RotorState(phi1=0.01, phi2=-0.004, dphi1=0.002 * omega, dphi2=-0.001 * omega)
    swapped = RotorState(phi1=init.phi2, phi2=init.phi1, dphi1=init.dphi2,
                         dphi2=init.dphi1)
    one = simulate_linear(prolate20, trap, init, duration, damping, samples=1000)
    other = simulate_linear(prolate20, trap, swapped, duration, damping, samples=1000)
    assert np.array_equal(one.times, other.times)
    for got, want in ((other.phi1, one.phi2), (other.phi2, one.phi1),
                      (other.dphi1, one.dphi2), (other.dphi2, one.dphi1)):
        assert np.array_equal(got, want)


def test_unstable_drive_flags_trajectory():
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_mathieu(0.0, 1.0, W50, init, n_drive_periods=50)
    assert traj.unstable
    assert traj.times[-1] < 50 * TWO_PI / W50
    # 5000 drive periods would overflow; with sparse samples the run still
    # stops near period 20, before any sample beyond the limit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate_mathieu(0.0, 1.0, W50, init, n_drive_periods=5000, samples=64)
    assert traj.unstable and traj.times.size < 64
    assert np.max(np.abs(traj.phi1)) <= ANGLE_LIMIT


def test_nonlinear_equilibrium_stays_zero(prolate20, trap50):
    init = RotorState(phi1=0.0, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_nonlinear(prolate20, trap50, init, duration=2e-6, samples=1024)
    assert np.max(np.abs(traj.phi1)) == 0.0
    assert np.max(np.abs(traj.phi2)) == 0.0


def test_nonlinear_agrees_with_linear_at_small_angle(prolate20, trap50):
    line = secular_frequency(
        mathieu_coefficients(prolate20, trap50, Mode.ROT_Y), trap50)
    duration = 40 * TWO_PI / line.omega
    freqs = []
    for amplitude in (0.05, 0.005):
        init = RotorState(phi1=amplitude, phi2=0.0, dphi1=0.0, dphi2=0.0)
        traj = simulate_nonlinear(prolate20, trap50, init, duration, samples=4096)
        freqs.append(extract_secular_frequency(traj))
    assert freqs[0] == pytest.approx(freqs[1], rel=5e-3)
    # and the linear simulator agrees with the small-amplitude nonlinear run
    init = RotorState(phi1=0.005, phi2=0.0, dphi1=0.0, dphi2=0.0)
    lin = extract_secular_frequency(
        simulate_linear(prolate20, trap50, init, duration, samples=4096))
    assert lin == pytest.approx(freqs[1], rel=5e-3)


def test_nonlinear_matches_independent_integration(prolate20):
    # damped, both angles at large amplitude with non-zero a and start
    # velocities, against LSODA on a right-hand side written here; 7.3
    # secular periods, so samples fall anywhere in a drive period
    trap = TrapConfig(V_ac=5000.0, V_dc=50.0, drive_frequency=W50, z0=10e-6)
    c = mathieu_coefficients(prolate20, trap, Mode.ROT_Y)
    omega = secular_frequency(c, trap).omega
    gamma = omega / 30.0
    init = RotorState(phi1=0.4, phi2=-0.25, dphi1=0.05 * omega, dphi2=-0.03 * omega)
    duration = 7.3 * TWO_PI / omega
    traj = simulate_nonlinear(prolate20, trap, init, duration, DampingModel(gamma),
                              samples=1000)
    assert not traj.unstable and traj.times.size == 1000

    k = 0.125 * W50 * W50

    def rhs(t, y):
        torque = k * (-c.a + c.q * 2.0 * math.cos(W50 * t))
        return [y[2], y[3],
                torque * math.cos(y[1]) * math.sin(2.0 * y[0]) - gamma * y[2],
                torque * math.cos(y[0]) ** 2 * math.sin(2.0 * y[1]) - gamma * y[3]]

    ref = solve_ivp(rhs, (0.0, duration), [init.phi1, init.phi2, init.dphi1, init.dphi2],
                    method="LSODA", rtol=1e-12, atol=1e-16, t_eval=traj.times)
    assert ref.success
    got = [traj.phi1, traj.phi2, traj.dphi1, traj.dphi2]
    for column, want in zip(got, ref.y):
        np.testing.assert_allclose(column, want, rtol=0.0,
                                   atol=1e-7 * np.max(np.abs(want)))


# (V_ac, drive periods, samples, start, gamma) -> samples kept, as the
# terminal-event rule of the solve_ivp integrator this one replaced kept them
UNSTABLE_CASES = [
    ((20000.0, 200, 2048, (0.01, 0.005, 0.0, 0.0), 0.0), 43),
    ((30000.0, 100, 4096, (0.2, -0.1, 0.0, 0.0), 0.0), 47),
    ((25000.0, 300, 300, (0.0, 0.05, 0.0, 2e5), 3e5), 4),
]


@pytest.mark.parametrize("case, kept", UNSTABLE_CASES)
def test_nonlinear_unstable_drive_stops_at_the_angle_limit(prolate20, case, kept):
    V_ac, periods, samples, start, gamma = case
    trap = TrapConfig(V_ac=V_ac, V_dc=0.0, drive_frequency=W50, z0=10e-6)
    # beyond the first region
    assert mathieu_coefficients(prolate20, trap, Mode.ROT_Y).q > 0.95
    traj = simulate_nonlinear(prolate20, trap, RotorState(*start),
                              periods * TWO_PI / W50, DampingModel(gamma), samples=samples)
    assert traj.unstable and traj.times.size == kept
    assert max(np.max(np.abs(traj.phi1)), np.max(np.abs(traj.phi2))) <= ANGLE_LIMIT
    np.testing.assert_array_equal(
        traj.times, np.linspace(0.0, periods * TWO_PI / W50, samples)[:kept])


@pytest.mark.parametrize("key", ["phi1_0_rad", "phi2_0_rad"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_nonlinear_start_at_the_angle_limit_is_unstable(tmp_path, capsys, key, sign):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dynamics": {"model": "nonlinear", key: sign * ANGLE_LIMIT}}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "dynamics"]) == 1
    assert "trajectory flagged unstable" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dynamics_trajectory.csv").exists()


def test_nonlinear_runs_are_bit_identical(prolate20, trap50):
    init = RotorState(phi1=0.3, phi2=0.1, dphi1=1e5, dphi2=0.0)
    runs = [simulate_nonlinear(prolate20, trap50, init, 2e-6, DampingModel(1e5),
                               samples=1024) for _ in range(2)]
    for name in ("times", "phi1", "phi2", "dphi1", "dphi2"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()


def test_nonlinear_sparse_samples_need_no_step_limit(prolate20, trap50):
    # 1000 drive periods in 7 sample intervals, about 2800 steps each, where
    # scipy's ode stops at 500 steps per call by default
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_nonlinear(prolate20, trap50, init, 1000 * TWO_PI / W50, samples=8)
    assert not traj.unstable and traj.times.size == 8


def test_damping_decays_envelope(prolate20, trap50):
    line = secular_frequency(
        mathieu_coefficients(prolate20, trap50, Mode.ROT_Y), trap50)
    duration = 30 * TWO_PI / line.omega
    init = RotorState(phi1=0.05, phi2=0.0, dphi1=0.0, dphi2=0.0)
    traj = simulate_nonlinear(prolate20, trap50, init, duration,
                              DampingModel(gamma=line.omega / 20), samples=4096)
    n = traj.phi1.size
    head = np.sqrt(np.mean(traj.phi1[: n // 4] ** 2))
    tail = np.sqrt(np.mean(traj.phi1[-n // 4:] ** 2))
    assert tail < 0.2 * head
    # quarter-window envelopes decrease monotonically
    quarters = [np.sqrt(np.mean(traj.phi1[k * n // 4:(k + 1) * n // 4] ** 2))
                for k in range(4)]
    assert all(a > b for a, b in zip(quarters, quarters[1:]))


def test_extraction_on_synthetic_tone():
    traj = synthetic_trajectory(5e6)
    omega = extract_secular_frequency(traj)
    assert omega / TWO_PI == pytest.approx(5e6, rel=1e-3)
    # off-bin tone still recovered to a fraction of a bin
    traj = synthetic_trajectory(5.037e6)
    omega = extract_secular_frequency(traj)
    assert omega / TWO_PI == pytest.approx(5.037e6, rel=1e-3)


def test_extraction_reads_the_angle_with_the_larger_variance():
    strong, weak = synthetic_trajectory(5e6).phi1, 0.5 * synthetic_trajectory(7e6).phi1
    on_phi2 = dataclasses.replace(synthetic_trajectory(5e6), phi1=weak, phi2=strong)
    assert extract_secular_frequency(on_phi2) / TWO_PI == pytest.approx(5e6, rel=1e-3)
    on_phi1 = dataclasses.replace(on_phi2, phi1=strong, phi2=weak)
    assert extract_secular_frequency(on_phi1) / TWO_PI == pytest.approx(5e6, rel=1e-3)
    # the weaker tone alone is found, so the choice above is the rule's
    only_weak = dataclasses.replace(on_phi2, phi2=np.zeros_like(weak))
    assert extract_secular_frequency(only_weak) / TWO_PI == pytest.approx(7e6, rel=1e-3)


def test_extraction_with_damping_broadening(trap50):
    f0 = 5e6
    fs, n = 512e6, 4096
    t = np.arange(n) / fs
    y = 0.01 * np.cos(TWO_PI * f0 * t) * np.exp(-TWO_PI * f0 / 10 * t / TWO_PI)
    traj = Trajectory(times=t, phi1=y, phi2=np.zeros(n), dphi1=np.zeros(n),
                      dphi2=np.zeros(n), sample_interval=1 / fs,
                      drive_frequency=W50)
    assert extract_secular_frequency(traj) / TWO_PI == pytest.approx(f0, rel=0.05)


def test_extraction_rejects_flat_signal():
    n = 2048
    t = np.arange(n) / 1e8
    traj = Trajectory(times=t, phi1=np.full(n, 0.01), phi2=np.zeros(n),
                      dphi1=np.zeros(n), dphi2=np.zeros(n),
                      sample_interval=1e-8,
                      drive_frequency=W50)
    with pytest.raises(NoLineError):
        extract_secular_frequency(traj)


def test_extraction_rejects_short_and_unstable():
    traj = synthetic_trajectory(5e6, n=512)
    with pytest.raises(NoLineError):
        extract_secular_frequency(traj)
    traj = synthetic_trajectory(5e6)
    traj.unstable = True
    with pytest.raises(NoLineError):
        extract_secular_frequency(traj)


def test_time_reversal_returns_to_start():
    init = RotorState(phi1=0.01, phi2=0.003, dphi1=0.0, dphi2=0.0)
    forward = simulate_mathieu(0.0, 0.2828, W50, init, n_drive_periods=20,
                               samples=2048, rtol=1e-11)
    end = RotorState(forward.phi1[-1], forward.phi2[-1], forward.dphi1[-1],
                     forward.dphi2[-1])
    # drive is cos(W t): reverse by flipping velocities and integrating the
    # same dynamics again for the same span (cos is even around t=0, and the
    # span is an integer number of drive periods)
    back = simulate_mathieu(0.0, 0.2828, W50,
                            RotorState(phi1=end.phi1, phi2=end.phi2,
                                       dphi1=-end.dphi1, dphi2=-end.dphi2),
                            n_drive_periods=20, samples=2048, rtol=1e-11)
    final = RotorState(back.phi1[-1], back.phi2[-1], back.dphi1[-1], back.dphi2[-1])
    assert final.phi1 == pytest.approx(init.phi1, abs=1e-8)
    assert final.dphi1 == pytest.approx(0.0, abs=1e-8 * W50)


def test_tolerance_refinement_stability(prolate20, trap50):
    line = secular_frequency(
        mathieu_coefficients(prolate20, trap50, Mode.ROT_Y), trap50)
    duration = 40 * TWO_PI / line.omega
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    coarse = extract_secular_frequency(
        simulate_linear(prolate20, trap50, init, duration, rtol=1e-9))
    fine = extract_secular_frequency(
        simulate_linear(prolate20, trap50, init, duration, rtol=5e-10))
    assert coarse == pytest.approx(fine, rel=1e-3)


def test_demo_03_writes_its_trajectory_with_write_table(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(root / "demos" / "03_angle_dynamics.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "angle_trajectory.csv").read_text().splitlines()
    assert lines[0] == "time_s,phi1_rad,phi2_rad,dphi1_radps,dphi2_radps"
    assert lines[-2].startswith("# provenance: levrot=")
    assert lines[-1].startswith("# constants: ")
    rows = [line.split(",") for line in lines[1:-2]]
    assert len(rows) == 8192 and {len(row) for row in rows} == {5}
    assert rows[0][:2] == ["0.0", "0.01"]
    # write_table's shortest round-trip form, not a fixed-width format
    assert all(repr(float(cell)) == cell for row in rows for cell in row)


def test_trajectory_stability_matches_floquet_samples(trap50):
    # spot checks here; the full 10x10 grid runs in the acceptance suite
    init = RotorState(phi1=0.01, phi2=0.0, dphi1=0.0, dphi2=0.0)
    for a, q in [(0.0, 0.3), (-0.05, 0.6), (0.05, 0.95), (0.0, 1.0)]:
        floq = floquet_stability(MathieuCoefficients(Mode.ROT_Y, a, q),
                                 trap50).stable
        traj = simulate_mathieu(a, q, W50, init, n_drive_periods=120,
                                samples=1024, rtol=1e-8)
        traj_stable = (not traj.unstable) and float(np.max(np.abs(traj.phi1))) < 1.0
        assert traj_stable == floq
