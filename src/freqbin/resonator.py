"""Classical double-resonator spectroscopy and drive calibration.

The coupled double resonator (two microrings, one coupled to the bus
waveguide) is modeled with temporal coupled-mode theory.  The through
port of the bus reads

    t(d) = 1 - kappa_ex / ( i d + kappa1/2 + g^2 / ( i (d - dt) + kappa2/2 ) )

with d the laser detuning from the shared resonance, g the inter-ring
field coupling (hybridized-mode splitting 2 g), kappa1 the total
linewidth of the bus-coupled ring, kappa_ex <= kappa1 its bus-coupling
contribution, kappa2 the inner-ring linewidth, and dt the thermal
detuning between the rings.  All rates are in GHz.

With this convention the single-ring limit (g -> 0) reaches a full
extinction dip at critical coupling kappa_ex = kappa1 / 2.

The microwave-drive calibration maps drive voltage to beam-splitter
reflectivity through a cavity-converter cooperativity curve
R = r_peak * 4C / (1 + C)^2 with C = (beta V)^2; electrical-amplifier
saturation is absorbed into the fitted beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError


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
        if min(self.g_ghz, self.kappa1_ghz, self.kappa_ex_ghz, self.kappa2_ghz) <= 0:
            raise ValidationError("all resonator rates must be positive")
        if self.kappa_ex_ghz > self.kappa1_ghz:
            raise ValidationError("bus coupling cannot exceed the total linewidth")


@dataclass(frozen=True)
class CalibCurve:
    """Drive calibration constants: conversion slope and peak reflectivity."""

    beta_per_v: float = 1.0
    r_peak: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.r_peak <= 1.0:
            raise ValidationError("peak reflectivity must lie in (0, 1]")
        if self.beta_per_v <= 0:
            raise ValidationError("conversion slope must be positive")


@dataclass(frozen=True)
class DriveSpec:
    """Microwave drive applied to a double resonator."""

    drive_freq_ghz: float = 12.95
    drive_voltage_v: float = 0.0
    drive_phase_rad: float = 0.0
    calib: CalibCurve = CalibCurve()

    def __post_init__(self):
        if self.drive_voltage_v < 0:
            raise ValidationError("drive voltage must be nonnegative")


def _through_field(
    detuning, g: float, kappa1: float, kappa_ex: float, kappa2: float, detune2: float
):
    d = np.asarray(detuning, dtype=float)
    inner = 1j * (d - detune2) + kappa2 / 2.0
    return 1.0 - kappa_ex / (1j * d + kappa1 / 2.0 + g * g / inner)


def dr_through_spectrum(p: DRParams, detunings_ghz) -> np.ndarray:
    """Through-port power transmission |t|^2 on a detuning grid."""
    t = _through_field(
        detunings_ghz,
        p.g_ghz,
        p.kappa1_ghz,
        p.kappa_ex_ghz,
        p.kappa2_ghz,
        p.thermal_detune_ghz,
    )
    return np.abs(t) ** 2


def eo_resonance_shift(voltage_v: float, coeff_ghz_per_v: float) -> float:
    """Linear electro-optic resonance shift, GHz."""
    return coeff_ghz_per_v * voltage_v


def drive_to_splitting(d: DriveSpec) -> tuple[float, float]:
    """Map a drive setting to (T, R) of the beam splitter.

    R(V) = r_peak * 4C/(1+C)^2 with cooperativity C = (beta V)^2; R grows
    until C = 1 and rolls off beyond, and T = 1 - R always.
    """
    c = (d.calib.beta_per_v * d.drive_voltage_v) ** 2
    r = d.calib.r_peak * 4.0 * c / (1.0 + c) ** 2
    return 1.0 - r, r


@dataclass(frozen=True)
class DoubletFit:
    """Result of a least-squares fit of a double-resonator spectrum."""

    two_g_ghz: float
    linewidths_ghz: tuple[float, float]
    dip_depths: tuple[float, float]
    residual_rms: float
    kappa_ex_ghz: float
    thermal_detune_ghz: float
    center_ghz: float


def _local_minima(x: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Interior local minima of a sampled curve as (position, value)."""
    out = []
    for i in range(1, len(y) - 1):
        if y[i] <= y[i - 1] and y[i] <= y[i + 1] and (y[i] < y[i - 1] or y[i] < y[i + 1]):
            out.append((float(x[i]), float(y[i])))
    return out


def _dip_guesses(x: np.ndarray, y: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two deepest well-separated dips, located on a lightly smoothed copy
    so single noisy samples do not masquerade as resonances."""
    width = max(3, len(y) // 40) | 1
    kernel = np.ones(width) / width
    smooth = np.convolve(y, kernel, mode="same")
    minima = _local_minima(x, smooth)
    if len(minima) < 2:
        raise FitError("no doublet found: fewer than two local minima", residual=None)
    minima.sort(key=lambda m: m[1])
    first = minima[0]
    span = abs(x[-1] - x[0])
    rest = [m for m in minima[1:] if abs(m[0] - first[0]) > 0.05 * span]
    if not rest:
        raise FitError("no doublet found: dips are not separated", residual=None)
    second = rest[0]
    return tuple(sorted((first, second), key=lambda m: m[0]))


def fit_doublet(detuning_ghz, transmission) -> DoubletFit:
    """Fit the coupled-resonator through model to a measured doublet.

    Damped least squares (bounded trust-region) against the
    `dr_through_spectrum` model with parameters (g, kappa1, kappa_ex,
    kappa2, thermal detune, center offset).  Initial guesses come from
    the two deepest local minima of the raw data.  Raises
    `ValidationError` when the samples are mismatched, fewer than 50 or
    not finite, and `FitError` when the data show no doublet or the
    optimizer fails to converge.
    """
    # Imported here: scipy.optimize takes most of the package's import time
    # and only this function needs it.
    from scipy.optimize import least_squares

    x = np.asarray(detuning_ghz, dtype=float)
    y = np.asarray(transmission, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("detuning and transmission must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("detuning and transmission must be finite")
    if len(x) < 50:
        raise ValidationError("need at least 50 samples spanning both dips")

    (xa, ya), (xb, yb) = _dip_guesses(x, y)
    sep = xb - xa

    g0 = sep / 2.0
    center0 = (xa + xb) / 2.0
    kappa0 = 2.0
    depth = 1.0 - min(ya, yb)
    kex0 = max(kappa0 * (1.0 - math.sqrt(max(1.0 - depth, 0.0))), 0.05)

    def residuals(theta):
        g, k1, kex, k2, dt, x0 = theta
        model = np.abs(_through_field(x - x0, g, k1, kex, k2, dt)) ** 2
        return model - y

    lower = [1e-3, 1e-3, 1e-4, 1e-3, -50.0, float(x.min())]
    upper = [np.inf, np.inf, np.inf, np.inf, 50.0, float(x.max())]
    start = [g0, kappa0, kex0, kappa0, 0.0, center0]
    start = [min(max(s, lo + 1e-6), hi - 1e-6 if np.isfinite(hi) else s) for s, lo, hi in zip(start, lower, upper)]
    result = least_squares(
        residuals,
        start,
        bounds=(lower, upper),
        xtol=1e-12,
        ftol=1e-12,
        gtol=1e-12,
        max_nfev=2000,
    )
    rms = float(np.sqrt(np.mean(result.fun**2)))
    if not result.success:
        raise FitError("doublet fit did not converge", residual=rms)

    g, k1, kex, k2, dt, x0 = result.x
    fitted = np.abs(_through_field(x - x0, g, k1, kex, k2, dt)) ** 2
    fit_minima = sorted(_local_minima(x, fitted), key=lambda m: m[1])[:2]
    if len(fit_minima) == 2:
        depths = tuple(1.0 - v for _, v in sorted(fit_minima, key=lambda m: m[0]))
    else:
        depths = (1.0 - float(fitted.min()), 1.0 - float(fitted.min()))
    return DoubletFit(
        two_g_ghz=float(2.0 * g),
        linewidths_ghz=(float(k1), float(k2)),
        dip_depths=depths,
        residual_rms=rms,
        kappa_ex_ghz=float(kex),
        thermal_detune_ghz=float(dt),
        center_ghz=float(x0),
    )
