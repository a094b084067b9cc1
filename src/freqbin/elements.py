"""Physical element constructors: frequency beam splitters, microring
filters, attenuators, and phase shifts.

A frequency beam splitter couples two bins through a microwave-driven
coupled double resonator.  `FbsSpec` holds its settings only;
`fbs_transform` places them on four grid modes (the two bins and their
two sideband modes), and `fbs_blocks` builds the matrices of many
settings at once.  Its single-photon action on the pair (lo, hi) is the
standard beam-splitter matrix

    [[ sqrt(T),            e^{i theta} sqrt(R) ],
     [ -e^{-i theta} sqrt(R),      sqrt(T)     ]]

scaled by sqrt(eta), where eta is the element's total efficiency.  The
modulation also leaks a small amplitude into the two next-nearest bins
(second-order sidebands).  Leakage power, relative to the converted
power, is 10^(-S/10) with S the sideband suppression in dB; suppression
is quoted relative to the converted output, measured at maximal
conversion.  Leakage rides on dedicated sideband modes and is
marginalized at detection.

The 4-mode matrix is completed to sqrt(eta) times an exact unitary, so a
photon already sitting in a sideband mode passes through (with a
back-coupling of order the leakage amplitude, the time reverse of the
leakage process).  With S -> inf and eta = 1 the transform reduces
exactly to the 2x2 core plus identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .fock import _NORM_TOL, ModeTransform

DEFAULT_SIDEBAND_SUPPRESSION_DB = 24.0


@dataclass(frozen=True)
class FbsSpec:
    """Settings of one frequency beam splitter; `fbs_transform` places it
    on the grid."""

    transmissivity_T: float = 0.5
    phase_theta: float = 0.0
    efficiency_eta: float = 1.0
    sideband_suppression_db: float = DEFAULT_SIDEBAND_SUPPRESSION_DB

    def __post_init__(self):
        if not 0.0 <= self.transmissivity_T <= 1.0:
            raise ValidationError("transmissivity must lie in [0, 1]")
        if not 0.0 < self.efficiency_eta <= 1.0:
            raise ValidationError("efficiency must lie in (0, 1]")
        if self.sideband_suppression_db < 0.0:
            raise ValidationError("sideband suppression must be nonnegative")


@dataclass(frozen=True)
class FilterParams:
    """Add-drop microring filter: first-order Lorentzian comb."""

    resonance_offset_ghz: float = 0.0
    linewidth_fwhm_ghz: float = 4.0
    fsr_ghz: float = 100.0
    drop_efficiency: float = 0.946

    def __post_init__(self):
        if not 0.0 < self.linewidth_fwhm_ghz < self.fsr_ghz:
            raise ValidationError("need 0 < linewidth < free spectral range")
        if not 0.0 < self.drop_efficiency <= 1.0:
            raise ValidationError("drop efficiency must lie in (0, 1]")


def fbs_blocks(
    transmissivity_T,
    phase_theta=0.0,
    efficiency_eta=1.0,
    sideband_suppression_db=DEFAULT_SIDEBAND_SUPPRESSION_DB,
) -> np.ndarray:
    """Matrices of a frequency beam splitter over k settings at once.

    The arguments broadcast against each other to k settings; the result
    has shape (k, 4, 4) with mode order (lo, hi, lo sideband, hi
    sideband).  Columns all have norm sqrt(eta) exactly, so a single
    photon entering any of the four modes exits the set with total
    probability eta.  Raises `ValidationError` when a matrix is not
    finite or its spectral norm exceeds 1.
    """
    T, theta, eta, db = (
        a.ravel()
        for a in np.broadcast_arrays(
            *(np.asarray(x, dtype=float) for x in
              (transmissivity_T, phase_theta, efficiency_eta, sideband_suppression_db))
        )
    )
    # Checked before any arithmetic, so bad settings raise without numpy
    # warnings; an infinite suppression is the ideal, leakage-free splitter.
    if not (np.all(np.isfinite(T) & np.isfinite(theta) & np.isfinite(eta))
            and np.all((db == np.inf) | np.isfinite(db))):
        raise ValidationError("beam-splitter matrix is not finite: not physical")
    t = np.sqrt(T)
    r = np.sqrt(1.0 - T)
    eps = np.sqrt((1.0 - T) * 10.0 ** (-db / 10.0))
    s = 1.0 / np.sqrt(1.0 + eps * eps)

    # Columns for the two bin inputs: the 2x2 core plus sideband leakage,
    # renormalized so the column norm is exactly 1 before the eta scale.
    u = np.zeros((T.size, 4, 4), dtype=complex)
    u[:, 0, 0] = u[:, 1, 1] = t
    u[:, 1, 0] = -np.exp(-1j * theta) * r
    u[:, 0, 1] = np.exp(1j * theta) * r
    u[:, 2, 0] = u[:, 3, 1] = eps
    u[:, :, :2] *= s[:, None, None]
    # Complete to a unitary: Gram-Schmidt of the sideband basis vectors
    # against the core columns in closed form.  Each sideband vector
    # overlaps only its own core column (by s * eps), the two results are
    # orthogonal, and each has norm s before rescaling.
    u[:, 2, 2] = u[:, 3, 3] = 1.0
    u[:, :, 2:] -= (s * eps)[:, None, None] * u[:, :, :2]
    u[:, :, 2:] /= s[:, None, None]

    m = np.sqrt(eta)[:, None, None] * u
    if not np.all(np.isfinite(m)):
        raise ValidationError("beam-splitter matrix is not finite: not physical")
    if np.any(np.linalg.norm(m, 2, axis=(-2, -1)) > 1.0 + _NORM_TOL):
        raise ValidationError("matrix spectral norm exceeds 1: not physical")
    return m


def fbs_transform(spec: FbsSpec, modes: Sequence[int]) -> ModeTransform:
    """The 4-mode transform of one frequency beam splitter (see
    `fbs_blocks`) on four distinct grid modes, in the order (lo, hi, lo
    sideband, hi sideband)."""
    matrix = fbs_blocks(
        spec.transmissivity_T,
        spec.phase_theta,
        spec.efficiency_eta,
        spec.sideband_suppression_db,
    )[0]
    return ModeTransform(tuple(modes), matrix)


def filter_response(p: FilterParams, detuning_ghz):
    """Drop- and through-port field amplitudes of an add-drop filter.

    The detuning is wrapped to the nearest resonance of the filter comb.
    With L the unit-peak Lorentzian amplitude, drop = sqrt(eta_d) L and
    through = 1 - sqrt(eta_d) L, so dropped plus transmitted power never
    exceeds 1, with equality only for a lossless filter.

    Accepts scalars or numpy arrays; returns (drop, through).
    """
    delta = np.asarray(detuning_ghz, dtype=float) - p.resonance_offset_ghz
    wrapped = np.mod(delta + p.fsr_ghz / 2.0, p.fsr_ghz) - p.fsr_ghz / 2.0
    lorentz = 1.0 / (1.0 + 2j * wrapped / p.linewidth_fwhm_ghz)
    root_eff = math.sqrt(p.drop_efficiency)
    drop = root_eff * lorentz
    through = 1.0 - root_eff * lorentz
    if np.isscalar(detuning_ghz):
        return complex(drop), complex(through)
    return drop, through


def attenuator_transform(mode: int, power_transmission: float) -> ModeTransform:
    """Single-mode attenuator; field amplitude sqrt(power_transmission)."""
    if not 0.0 <= power_transmission <= 1.0:
        raise ValidationError("power transmission must lie in [0, 1]")
    return ModeTransform(
        (mode,), np.array([[math.sqrt(power_transmission)]], dtype=complex)
    )


def phase_transform(mode: int, phi: float) -> ModeTransform:
    """Single-mode phase shift e^{i phi}."""
    return ModeTransform((mode,), np.array([[np.exp(1j * phi)]], dtype=complex))
