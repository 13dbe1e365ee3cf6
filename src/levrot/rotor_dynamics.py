"""Time-domain dynamics of the two tilt angles and secular-frequency extraction.

The body is axisymmetric (geometry), so both angles have the (a, q) of
trap.Mode.ROT_Y.  The linear model applies one drive period of
trap._period_flow to both as x(nT + s) = Phi(s) M^n x(0); the nonlinear one
keeps the full trigonometric torque (cos(phi2) sin(2 phi1) and
cos^2(phi1) sin(2 phi2)), whose linearization reproduces the linear model
exactly, under scipy's compiled DOP853 with one restart per sample.
Spin about the symmetry axis is held at zero throughout.  The secular
frequency of a trajectory is the strongest matrix-pencil pole of its angle
with the larger variance, below half the drive frequency
(spectral.dominant_pole); a trajectory without such a line raises
spectral.NoLineError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BodyProperties
from .spectral import NoLineError, dominant_pole
from .trap import TrapConfig, Mode, _period_flow, mathieu_coefficients

ANGLE_LIMIT = 0.5 * math.pi  # beyond this the small-angle model is meaningless
MIN_SPECTRAL_SAMPLES = 1 << 10


@dataclass(frozen=True)
class RotorState:
    phi1: float    # rotation about y, rad
    phi2: float    # rotation about x', rad
    dphi1: float   # rad/s
    dphi2: float   # rad/s


@dataclass(frozen=True)
class DampingModel:
    gamma: float = 0.0  # angular damping rate, 1/s (torque -gamma*I*dphi)

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("damping rate must be non-negative")


@dataclass
class Trajectory:
    times: np.ndarray            # s, uniform
    phi1: np.ndarray
    phi2: np.ndarray
    dphi1: np.ndarray
    dphi2: np.ndarray
    sample_interval: float       # s
    drive_frequency: float       # Omega of the trap, rad/s
    unstable: bool = False


def _linear_trajectory(a: float, q: float, W: float, gamma: float, init: RotorState,
                       duration: float, samples: int, rtol: float) -> Trajectory:
    """Both angles as x(nT + s) = Phi(s) M^n x(0), in tau = W t/2 with damping
    d = gamma/W; x is a 2x2 state whose columns are phi1 and phi2.  The run
    ends before the first sample beyond ANGLE_LIMIT; M^n x(0) is not formed
    past the first period start beyond it."""
    times = np.linspace(0.0, duration, samples)
    tau = 0.5 * W * times
    period = np.floor(tau / math.pi).astype(np.int64)
    s = np.clip(tau - period * math.pi, 0.0, math.pi)
    flow = _period_flow(a, q, gamma / W, np.append(s, math.pi), rtol=rtol)  # Phi(s), M

    starts = [np.array([[init.phi1, init.phi2],
                        [2.0 * init.dphi1 / W, 2.0 * init.dphi2 / W]])]
    while len(starts) <= period[-1] and np.max(np.abs(starts[-1][0])) <= ANGLE_LIMIT:
        starts.append(np.einsum("ij,jk->ik", flow[..., -1], starts[-1]))
    keep = int(np.searchsorted(period, len(starts)))

    x = np.einsum("ijm,mjk->ikm", flow[..., :keep], np.asarray(starts)[period[:keep]])
    over = np.flatnonzero(np.max(np.abs(x[0]), axis=0) > ANGLE_LIMIT)
    n = int(over[0]) if over.size else keep
    y = np.concatenate([x[0, :, :n], 0.5 * W * x[1, :, :n]])  # phi1, phi2, dphi1, dphi2
    return Trajectory(times[:n], *y, times[1] - times[0], W, unstable=n < samples)


def simulate_linear(body: BodyProperties, trap: TrapConfig, init: RotorState,
                    duration: float, damping: DampingModel = DampingModel(),
                    samples: int = 4096, rtol: float = 1e-9) -> Trajectory:
    """Small-angle (Mathieu) dynamics of both tilt angles; rtol is the
    tolerance of the one-period integration behind it."""
    c = mathieu_coefficients(body, trap, Mode.ROT_Y)
    return _linear_trajectory(c.a, c.q, trap.drive_frequency, damping.gamma, init,
                              duration, samples, rtol)


def simulate_nonlinear(body: BodyProperties, trap: TrapConfig, init: RotorState,
                       duration: float, damping: DampingModel = DampingModel(),
                       samples: int = 4096, rtol: float = 1e-9) -> Trajectory:
    """Two-angle dynamics with the full trigonometric torque.

    scipy's compiled Hairer DOP853 (``scipy.integrate.ode``) integrates to
    each sample time in turn, so the stepper restarts once per sample.  The
    run stops at the first accepted step after t = 0 that ends with
    max(|phi1|, |phi2|) >= ANGLE_LIMIT and keeps the samples before it,
    flagged unstable; a start exactly at the limit is flagged unless its
    first step moves inward.  There is no step limit per sample interval.
    """
    from scipy.integrate import ode

    c = mathieu_coefficients(body, trap, Mode.ROT_Y)
    a, q = c.a, c.q
    W = trap.drive_frequency
    k = 0.125 * W * W  # sin(2*phi)/2 -> phi recovers the linear model
    g = damping.gamma

    def rhs(t, y):
        p1, p2, v1, v2 = y.tolist()
        torque = k * (-a + q * 2.0 * math.cos(W * t))
        acc1 = torque * math.cos(p2) * math.sin(2.0 * p1) - g * v1
        acc2 = torque * math.cos(p1) ** 2 * math.sin(2.0 * p2) - g * v2
        return [v1, v2, acc1, acc2]

    def blowup(t, y):  # at each accepted step and each restart; t = 0 is no step
        return -1 if t > 0.0 and max(abs(y[0]), abs(y[1])) >= ANGLE_LIMIT else 0

    times = np.linspace(0.0, duration, samples)
    y = np.empty((4, samples))  # phi1, phi2, dphi1, dphi2
    y[:, 0] = init.phi1, init.phi2, init.dphi1, init.dphi2
    solver = ode(rhs).set_integrator("dop853", rtol=rtol, atol=1e-14,
                                     nsteps=np.iinfo(np.int32).max)
    solver.set_solout(blowup)
    solver.set_initial_value(y[:, 0], 0.0)
    n = samples
    for i in range(1, samples):
        y[:, i] = solver.integrate(times[i])
        if solver.get_return_code() == 2:  # stopped by blowup
            n = i
            break
        if not solver.successful():
            raise RuntimeError(f"integration failed: dop853 return code "
                               f"{solver.get_return_code()}")
    return Trajectory(times[:n], *y[:, :n], times[1] - times[0], W, unstable=n < samples)


def simulate_mathieu(a: float, q: float, drive_frequency: float, init: RotorState,
                     n_drive_periods: float, damping: DampingModel = DampingModel(),
                     samples: int = 4096, rtol: float = 1e-9) -> Trajectory:
    """Normal-form Mathieu dynamics from given (a, q), for stability charts and
    cross-checks without a physical body; phi2 has the same coefficients."""
    duration = n_drive_periods * 2.0 * math.pi / drive_frequency
    return _linear_trajectory(a, q, drive_frequency, damping.gamma,
                              init, duration, samples, rtol)


# ---------------------------------------------------------------------------
# spectral extraction
# ---------------------------------------------------------------------------

def extract_secular_frequency(traj: Trajectory) -> float:
    """Strongest spectral line of a stable trajectory, in rad/s.

    The line is the strongest matrix-pencil pole (spectral.dominant_pole) of
    the angle with the larger variance (phi1 on a tie), between 1/duration
    and half the drive frequency, which excludes the drive line and its
    secular sidebands.
    """
    if traj.unstable:
        raise NoLineError("trajectory flagged unstable")
    if traj.times.size < MIN_SPECTRAL_SAMPLES:
        raise NoLineError(
            f"need at least {MIN_SPECTRAL_SAMPLES} samples, got {traj.times.size}")

    angle = traj.phi1 if np.var(traj.phi1) >= np.var(traj.phi2) else traj.phi2
    pole = dominant_pole(angle, traj.sample_interval,
                         1.0 / (traj.times[-1] - traj.times[0]),
                         traj.drive_frequency / (4.0 * math.pi))  # half the drive, in Hz
    return 2.0 * math.pi * pole.frequency
