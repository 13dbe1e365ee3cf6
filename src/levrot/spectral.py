"""The strongest spectral line of a uniformly sampled signal, by the matrix pencil.

The Hankel matrix of a sum of M exponentials, y[n] = sum_k h_k z_k^n, has rank
M, and the poles z_k are the eigenvalues of the pencil between the two shifted
halves of its leading right singular vectors (Hua & Sarkar, IEEE Trans. ASSP
38, 814, 1990): one SVD and one small eigenproblem, with no iteration and no
starting guess.  The amplitudes h_k follow from one linear least-squares fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PENCIL = 128       # pencil length: samples per Hankel row, less one
MAX_ROWS = 1024    # Hankel rows, spread evenly over the record
RANK_TOL = 1e-10   # singular values below this share of the largest are noise


class NoLineError(RuntimeError):
    """No pole in the band, or the strongest one is no stronger than the misfit;
    rotor_dynamics also raises it for a record too short or unstable to hold one."""


@dataclass(frozen=True)
class Pole:
    frequency: float   # Hz
    damping: float     # 1/s: the line decays as exp(-damping t)
    order: int         # model order: the numerical rank of the Hankel matrix,
                       # at most PENCIL // 2
    residual: float    # RMS misfit of that model over the fitted samples


def dominant_pole(y, dt: float, f_min: float, f_max: float) -> Pole:
    """Strongest pole of y (sampled every dt s) with f_min <= frequency <= f_max Hz.

    The Hankel matrix has up to MAX_ROWS rows of PENCIL + 1 samples, starting
    at evenly spread samples; the amplitudes are fitted on those start samples.
    Raises NoLineError when no pole lies in the band, or when the RMS of the
    strongest one's real line does not exceed the residual.
    """
    y = np.asarray(y, dtype=float)
    length = min(PENCIL, y.size // 2)
    rows = np.unique(np.linspace(0, y.size - length - 1,
                                 min(MAX_ROWS, y.size - length)).round().astype(int))
    # the R factor of the tall Hankel matrix has its singular values and vectors
    _, s, vh = np.linalg.svd(np.linalg.qr(y[rows[:, None] + np.arange(length + 1)],
                                          mode="r"))
    # at most half the pencil length, so the pencil stays overdetermined
    order = min(length // 2, int(np.count_nonzero(s > RANK_TOL * s[0])))
    v = vh[:order].T
    z = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    # a line neither decays nor grows by more than e over one Hankel row;
    # faster poles only model the noise
    log_z = np.log(z[np.abs(z) > 0.0])
    log_z = log_z[np.abs(log_z.real) * length <= 1.0]
    frequency = log_z.imag / (2.0 * math.pi * dt)
    band = np.flatnonzero((frequency >= f_min) & (frequency <= f_max))
    if not band.size:
        raise NoLineError(f"no pole between {f_min:.6g} and {f_max:.6g} Hz "
                          f"(model order {order})")

    # with unit-norm terms, a pole's coefficient is its strength over the samples
    basis = np.exp(rows[:, None] * log_z)
    basis /= np.linalg.norm(basis, axis=0)
    coef = np.linalg.lstsq(basis, y[rows], rcond=RANK_TOL)[0]
    residual = float(np.linalg.norm(y[rows] - basis @ coef)) / math.sqrt(rows.size)
    k = band[np.argmax(np.abs(coef[band]))]
    # the real line is the strongest term and its conjugate, plus the in-band
    # poles closer than 1/duration to it, into which a broadened line splits
    line = band[np.abs(frequency[band] - frequency[k]) * dt * (y.size - 1) <= 1.0]
    rms = float(np.linalg.norm(2.0 * (basis[:, line] @ coef[line]).real))
    rms /= math.sqrt(rows.size)
    if not rms > residual:
        raise NoLineError(f"the line at {frequency[k]:.6g} Hz has RMS {rms:.3g}, "
                          f"not above the residual {residual:.3g}")
    return Pole(frequency=float(frequency[k]), damping=float(-log_z[k].real / dt),
                order=order, residual=residual)
