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


#: Most model evaluations one doublet fit may spend.
MAX_EVALUATIONS = 2000
# Stopping rules of the Levenberg-Marquardt iteration (Moré 1978): relative
# cost reduction, relative step length, and the cosine between the
# residual and any Jacobian column.
_FTOL = _XTOL = _GTOL = 1e-12


def _through_jacobian(d: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Columns dt/dθ of `_through_field` at offsets d = x - x0 for
    θ = (g, kappa1, kappa_ex, kappa2, thermal detune, center x0).

    With I the inner denominator and D the outer one, t = 1 - kappa_ex / D,
    so dt/dkappa_ex = -1/D and dt/dθ = kappa_ex / D^2 * dD/dθ otherwise.
    """
    g, k1, kex, k2, dt, _ = theta
    inner = 1j * (d - dt) + k2 / 2.0
    coupled = g * g / inner
    denom = 1j * d + k1 / 2.0 + coupled
    dd = np.zeros((d.size, 6), dtype=complex)
    dd[:, 0] = 2.0 * g / inner
    dd[:, 1] = 0.5
    dd[:, 3] = -coupled / (2.0 * inner)
    dd[:, 4] = 1j * coupled / inner
    dd[:, 5] = -1j * (1.0 - coupled / inner)
    jac = (kex / denom**2)[:, None] * dd
    jac[:, 2] = -1.0 / denom
    return jac


def _levenberg_marquardt(x, y, start, lower, upper):
    """Least-squares θ of |t(x - x0)|^2 against y inside the box
    [lower, upper]; returns (θ, residuals).

    Marquardt's damping lambda * diag(J^T J), with each diagonal entry
    the largest seen so far (Moré 1978); lambda follows the ratio of
    actual to predicted cost reduction (Nielsen 1999).  A parameter on a
    bound that the gradient pushes outward is held there, and every step
    is projected onto the box.
    """

    def evaluate(theta):
        t = _through_field(x - theta[5], *theta[:5])
        return t, np.abs(t) ** 2 - y

    theta = start
    t, r = evaluate(theta)
    cost = r @ r
    evaluations = 1
    lam, growth = 1e-3, 2.0
    scale = np.zeros_like(theta)
    while True:
        jac = 2.0 * (t.conj()[:, None] * _through_jacobian(x - theta[5], theta)).real
        a = jac.T @ jac
        grad = jac.T @ r
        free = ~(((theta <= lower) & (grad > 0.0)) | ((theta >= upper) & (grad < 0.0)))
        if np.all(np.abs(grad[free]) <= _GTOL * np.sqrt(np.diag(a)[free] * cost)):
            return theta, r
        scale = np.maximum(scale, np.diag(a))
        a_free = a[np.ix_(free, free)]
        damping = np.diag(np.maximum(scale[free], np.finfo(float).tiny))
        while True:
            if evaluations >= MAX_EVALUATIONS:
                raise FitError(
                    f"doublet fit did not converge in {MAX_EVALUATIONS} evaluations",
                    residual=float(np.sqrt(cost / len(r))),
                )
            step = np.zeros_like(theta)
            step[free] = np.linalg.solve(a_free + lam * damping, -grad[free])
            trial = np.clip(theta + step, lower, upper)
            step = trial - theta
            predicted = -2.0 * step @ grad - step @ a @ step
            t_trial, r_trial = evaluate(trial)
            evaluations += 1
            cost_trial = r_trial @ r_trial
            small_step = np.linalg.norm(step) <= _XTOL * (_XTOL + np.linalg.norm(theta))
            if cost_trial < cost:  # False for a NaN cost as well
                reduced = cost - cost_trial
                converged = small_step or (reduced <= _FTOL * cost and predicted <= _FTOL * cost)
                gain = reduced / predicted if predicted > 0.0 else 1.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                growth = 2.0
                theta, t, r, cost = trial, t_trial, r_trial, cost_trial
                if converged:
                    return theta, r
                break
            if small_step:  # no step inside the box lowers the cost
                return theta, r
            lam *= growth
            growth *= 2.0


def fit_doublet(detuning_ghz, transmission) -> DoubletFit:
    """Fit the coupled-resonator through model to a measured doublet.

    Levenberg-Marquardt least squares with an analytic Jacobian against
    the `dr_through_spectrum` model with parameters (g, kappa1,
    kappa_ex, kappa2, thermal detune, center offset), bounded by
    projecting each step onto a box.  Initial guesses come from the two
    deepest local minima of the raw data.  Raises `ValidationError` when
    the samples are mismatched, fewer than 50 or not finite, and
    `FitError` when the data show no doublet or the fit does not
    converge within `MAX_EVALUATIONS` model evaluations.
    """
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

    lower = np.array([1e-3, 1e-3, 1e-4, 1e-3, -50.0, float(x.min())])
    upper = np.array([np.inf, np.inf, np.inf, np.inf, 50.0, float(x.max())])
    start = np.clip([g0, kappa0, kex0, kappa0, 0.0, center0], lower, upper)
    theta, r = _levenberg_marquardt(x, y, start, lower, upper)
    rms = float(np.sqrt(np.mean(r**2)))

    g, k1, kex, k2, dt, x0 = theta
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
