"""Physical element constructors and responses: frequency beam splitters,
microring filters and the through spectrum of a double resonator.

A frequency beam splitter couples two bins through a microwave-driven
coupled double resonator.  `FbsSpec` holds its settings only;
`fbs_blocks` builds the matrices of many settings at once, and
`fbs_transform` places one of them on four grid modes (the two bins and
their two sideband modes) for the Fock engine.  Its single-photon action
on the pair (lo, hi) is the standard beam-splitter matrix

    [[ sqrt(T),            e^{i theta} sqrt(R) ],
     [ -e^{-i theta} sqrt(R),      sqrt(T)     ]]

scaled by sqrt(eta), where eta is the element's total efficiency.  The
modulation also leaks a small amplitude into the two next-nearest bins
(second-order sidebands).  Leakage power, relative to the converted
power, is 10^(-S/10) with S the sideband suppression in dB; suppression
is quoted relative to the converted output, measured at maximal
conversion.  No photon is injected into a sideband and no detector
sees one, so the compiled circuits keep only the bin block sqrt(eta) s C
of the matrix below and count leakage as insertion loss; the Fock
engine, through `fbs_transform`, keeps all four modes and checks that
this is exact.

The 4-mode matrix is sqrt(eta) s [[C, -eps C], [eps I, I]], with C the
2x2 core above, eps = sqrt(R 10^(-S/10)) the leakage amplitude and
s = 1/sqrt(1 + eps^2): sqrt(eta) times a unitary.  A photon already in a
sideband mode passes through, with a back-coupling -s eps C, the time
reverse of the leakage.  With S -> inf and eta = 1 the transform reduces
exactly to the 2x2 core plus identity.

The coupled double resonator (two microrings, one coupled to the bus) is
modeled with temporal coupled-mode theory; `freqbin.resonator` fits it.
The through port of the bus reads

    t(d) = 1 - kappa_ex / ( i d + kappa1/2 + g^2 / ( i (d - dt) + kappa2/2 ) )

with d the laser detuning from the shared resonance, g the inter-ring
field coupling (mode splitting 2 g), kappa1 the total linewidth of the
bus-coupled ring, kappa_ex <= kappa1 its bus coupling, kappa2 the inner
ring's linewidth and dt the thermal detuning between the rings, all in
GHz.  The single-ring limit (g -> 0) reaches a full extinction dip at
critical coupling kappa_ex = kappa1 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_settings
from .grid import _NORM_TOL

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
        check_settings(self, ideal_inf=("sideband_suppression_db",), unit=("efficiency_eta",),
                       fraction=("transmissivity_T",), nonnegative=("sideband_suppression_db",))


@dataclass(frozen=True)
class DRParams:
    """Physical parameters of one coupled double resonator."""

    g_ghz: float = 6.475
    kappa1_ghz: float = 2.0
    kappa_ex_ghz: float = 1.0
    kappa2_ghz: float = 2.0
    eo_coeff_ghz_per_v: float = 0.226
    thermal_detune_ghz: float = 0.0

    def __post_init__(self):
        check_settings(self, positive=("g_ghz", "kappa1_ghz", "kappa_ex_ghz", "kappa2_ghz"))
        if self.kappa_ex_ghz > self.kappa1_ghz:
            raise ValidationError("bus coupling cannot exceed the total linewidth")


@dataclass(frozen=True)
class FilterParams:
    """Add-drop microring filter: first-order Lorentzian comb."""

    resonance_offset_ghz: float = 0.0
    linewidth_fwhm_ghz: float = 4.0
    fsr_ghz: float = 100.0
    drop_efficiency: float = 0.946

    def __post_init__(self):
        check_settings(self, unit=("drop_efficiency",), positive=("linewidth_fwhm_ghz",))
        if not self.linewidth_fwhm_ghz < self.fsr_ghz:
            raise ValidationError("need 0 < linewidth < free spectral range")


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
    probability eta, and the spectral norm is sqrt(eta).  Raises
    `ValidationError` for a setting out of range, before any arithmetic
    warns, an efficiency above (1 + `_NORM_TOL`)^2 included.
    """
    T, theta, eta, db = (
        a.ravel()
        for a in np.broadcast_arrays(
            *(np.asarray(x, dtype=float) for x in
              (transmissivity_T, phase_theta, efficiency_eta, sideband_suppression_db))
        )
    )
    for ok, message in (
        ((T >= 0.0) & (T <= 1.0), "transmissivity must lie in [0, 1]"),
        (np.isfinite(theta), "phase must be finite"),
        (np.isfinite(eta) & (eta >= 0.0), "efficiency must be finite and nonnegative"),
        (eta <= (1.0 + _NORM_TOL) ** 2, "matrix spectral norm exceeds 1: not physical"),
        (~np.isnan(db), "sideband suppression must not be NaN"),
        (db >= 0.0, "sideband suppression must be nonnegative"),
    ):
        if not np.all(ok):
            raise ValidationError(message)
    t = np.sqrt(T)
    r = np.sqrt(1.0 - T)
    eps = np.sqrt((1.0 - T) * 10.0 ** (-db / 10.0))
    s = 1.0 / np.sqrt(1.0 + eps * eps)

    # s [[C, -eps C], [eps I, I]], block by block (see the module docstring).
    u = np.zeros((T.size, 4, 4), dtype=complex)
    u[:, 0, 0] = u[:, 1, 1] = t * s
    u[:, 1, 0] = -np.exp(-1j * theta) * r * s
    u[:, 0, 1] = np.exp(1j * theta) * r * s
    u[:, 2, 0] = u[:, 3, 1] = eps * s
    u[:, :2, 2:] = -eps[:, None, None] * u[:, :2, :2]
    u[:, 2, 2] = u[:, 3, 3] = s
    return np.sqrt(eta)[:, None, None] * u


def fbs_transform(spec: FbsSpec, modes: Sequence[int]):
    """The `freqbin.fock.ModeTransform` of one frequency beam splitter (see
    `fbs_blocks`) on four distinct grid modes, in the order (lo, hi, lo
    sideband, hi sideband).  Only the Fock engine uses it, so the engine
    is imported here, not with this module."""
    from .fock import ModeTransform
    matrix = fbs_blocks(spec.transmissivity_T, spec.phase_theta, spec.efficiency_eta,
                        spec.sideband_suppression_db)[0]
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
    return drop, through


def _through_field(detuning, g: float, kappa1: float, kappa_ex: float, kappa2: float,
                   detune2: float):
    d = np.asarray(detuning, dtype=float)
    inner = 1j * (d - detune2) + kappa2 / 2.0
    return 1.0 - kappa_ex / (1j * d + kappa1 / 2.0 + g * g / inner)


def dr_through_spectrum(p: DRParams, detunings_ghz) -> np.ndarray:
    """Through-port power transmission |t|^2 on a detuning grid."""
    t = _through_field(detunings_ghz, p.g_ghz, p.kappa1_ghz, p.kappa_ex_ghz, p.kappa2_ghz,
                       p.thermal_detune_ghz)
    return np.abs(t) ** 2
