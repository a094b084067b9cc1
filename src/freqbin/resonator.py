"""Doublet fitting and drive calibration of the double resonators.

`fit_doublet` fits the coupled-mode through spectrum of a double
resonator, ``dr_through_spectrum`` of `freqbin.elements` (which holds
`DRParams` and the model; both are re-exported here), to a measured scan:
|t|^2 by Levenberg-Marquardt, with the real Jacobian of its residuals
built from the terms 1/I, 1/D and t of each evaluation.  Only a
spectroscopy run and ``freqbin fit`` import this module.

The microwave-drive calibration maps drive voltage to beam-splitter
reflectivity through a cavity-converter cooperativity curve
R = r_peak * 4C / (1 + C)^2 with C = (beta V)^2; electrical-amplifier
saturation is absorbed into the fitted beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elements import DRParams, _through_field, dr_through_spectrum  # noqa: F401
from .errors import FitError, ValidationError


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


def _minima_at(y: np.ndarray) -> np.ndarray:
    """Indices of the interior local minima of a sampled curve: no
    neighbour lower, and at least one higher."""
    mid, left, right = y[1:-1], y[:-2], y[2:]
    below = (mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
    return np.flatnonzero(below) + 1


def _dip_guesses(x: np.ndarray, y: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Two deepest well-separated dips, located on a lightly smoothed copy
    so single noisy samples do not masquerade as resonances."""
    width = max(3, len(y) // 40) | 1
    kernel = np.ones(width) / width
    smooth = np.convolve(y, kernel, mode="same")
    at = _minima_at(smooth)
    if len(at) < 2:
        raise FitError("no doublet found: fewer than two local minima", residual=None)
    at = at[np.argsort(smooth[at], kind="stable")]  # deepest first, ties in scan order
    rest = at[np.abs(x[at] - x[at[0]]) > 0.05 * abs(x[-1] - x[0])]
    if not rest.size:
        raise FitError("no doublet found: dips are not separated", residual=None)
    dips = [(float(x[i]), float(smooth[i])) for i in (at[0], rest[0])]
    return tuple(sorted(dips, key=lambda m: m[0]))


#: Most model evaluations one doublet fit may spend.
MAX_EVALUATIONS = 2000
#: Largest residual RMS, as a share of the mean fitted dip depth, of a fit
#: that explains its data.  Uniform noise fits at 0.48 and above; a real
#: doublet with 1% noise at about 0.1 or below.
MAX_RESIDUAL_PER_DEPTH = 0.25
# Stopping rules of the Levenberg-Marquardt iteration (Moré 1978): relative
# cost reduction, relative step length, and the cosine between the
# residual and any Jacobian row.
_FTOL = _XTOL = _GTOL = 1e-12


def _residuals(theta, x, y):
    """r = |t(x - x0)|^2 - y for θ = (g, kappa1, kappa_ex, kappa2, thermal
    detune, center x0), and the terms (1/I, 1/D, t) of t = 1 - kappa_ex / D,
    D = i d + kappa1/2 + g^2 / I, that `_jacobian` reuses."""
    g, k1, kex, k2, dt, x0 = theta
    d = x - x0
    inv_i = 1.0 / (1j * (d - dt) + k2 / 2.0)
    inv_d = 1.0 / (1j * d + k1 / 2.0 + g * g * inv_i)
    t = 1.0 - kex * inv_d
    return t.real**2 + t.imag**2 - y, (inv_i, inv_d, t)


def _jacobian(theta, terms) -> np.ndarray:
    """Rows dr/dθ, shape (6, n), from the terms of `_residuals` at θ.

    dr/dθ = 2 Re(conj(t) dt/dθ), with dt/dkappa_ex = -1/D and otherwise
    dt/dθ = kappa_ex / D^2 * dD/dθ: each other row is Re(h dD/dθ) with
    h = 2 kappa_ex conj(t) / D^2, dD/dg = 2g/I, dD/dkappa1 = 1/2, dD/dkappa2
    = -c/2, dD/d(detune) = i c and dD/dx0 = -i (1 - c) for c = g^2 / I^2."""
    g, kex = theta[0], theta[2]
    inv_i, inv_d, t = terms
    tc = t.conj()
    h = 2.0 * kex * tc * inv_d * inv_d
    hc = h * (g * g) * inv_i * inv_i
    rows = np.empty((6, t.size))
    np.multiply(2.0 * g, (h * inv_i).real, out=rows[0])
    np.multiply(0.5, h.real, out=rows[1])
    np.multiply(-2.0, (tc * inv_d).real, out=rows[2])
    np.multiply(-0.5, hc.real, out=rows[3])
    np.negative(hc.imag, out=rows[4])
    np.subtract(h.imag, hc.imag, out=rows[5])
    return rows


def _levenberg_marquardt(x, y, theta, lower, upper):
    """Least-squares θ of |t(x - x0)|^2 against y inside the box
    [lower, upper]; returns (θ, residuals).

    Each iteration builds the real (6, n) Jacobian J of the residuals from
    the terms of the accepted evaluation and solves the normal equations
    J J^T, J r.  Marquardt's damping lambda * diag(J J^T), with each
    diagonal entry the largest seen so far (Moré 1978); lambda follows
    the ratio of actual to predicted cost reduction (Nielsen 1999).  A
    parameter on a bound that the gradient pushes outward is held there,
    and every step is projected onto the box.
    """
    r, terms = _residuals(theta, x, y)
    cost = r @ r
    if not np.isfinite(cost):  # no step can lower it
        raise FitError("no doublet found: the fit leaves the float range")
    evaluations = 1
    lam, growth = 1e-3, 2.0
    scale = np.zeros_like(theta)
    while True:
        jac = _jacobian(theta, terms)
        a = jac @ jac.T
        grad = jac @ r
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
            r_trial, terms_trial = _residuals(trial, x, y)
            evaluations += 1
            cost_trial = r_trial @ r_trial
            small_step = np.linalg.norm(step) <= _XTOL * (_XTOL + np.linalg.norm(theta))
            if cost_trial < cost:  # False for a NaN cost as well
                reduced = cost - cost_trial
                converged = small_step or (reduced <= _FTOL * cost and predicted <= _FTOL * cost)
                gain = reduced / predicted if predicted > 0.0 else 1.0
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                growth = 2.0
                theta, r, terms, cost = trial, r_trial, terms_trial, cost_trial
                if converged:
                    return theta, r
                break
            if small_step:  # no step inside the box lowers the cost
                return theta, r
            lam *= growth
            growth *= 2.0


def fit_doublet(detuning_ghz, transmission) -> DoubletFit:
    """Fit the coupled-resonator through model to a measured doublet.

    Levenberg-Marquardt least squares of the `dr_through_spectrum` model
    with parameters (g, kappa1, kappa_ex, kappa2, thermal detune, center
    offset), on the real Jacobian of the residuals that `_jacobian` builds
    from the model's own terms, bounded by projecting each step onto a
    box.  Initial guesses come from the two deepest local minima of the
    raw data.  Raises `ValidationError` when the samples are mismatched,
    fewer than 50 or not finite, and `FitError` when the data show no
    doublet, the fit starts past the float range, the fit does not
    converge within `MAX_EVALUATIONS` model evaluations, or the fit does
    not explain the data: a fitted kappa_ex above kappa1 (which
    `DRParams` rejects), or a residual RMS above
    `MAX_RESIDUAL_PER_DEPTH` times the mean fitted dip depth.
    """
    x = np.asarray(detuning_ghz, dtype=float)
    y = np.asarray(transmission, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("detuning and transmission must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("detuning and transmission must be finite")
    if len(x) < 50:
        raise ValidationError("need at least 50 samples spanning both dips")

    with np.errstate(all="ignore"):  # what leaves the float range fails a check below
        (xa, ya), (xb, yb) = _dip_guesses(x, y)
        g0 = (xb - xa) / 2.0
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
    at = _minima_at(fitted)  # the two deepest, ties in scan order, then by detuning
    at = at[np.argsort(fitted[at], kind="stable")[:2]] if at.size > 1 else [fitted.argmin()] * 2
    depths = tuple(1.0 - float(fitted[i]) for i in sorted(at, key=lambda i: x[i]))
    if kex > k1:
        raise FitError(
            f"no doublet found: fitted bus coupling {kex:.3g} GHz exceeds the"
            f" linewidth {k1:.3g} GHz",
            residual=rms,
        )
    mean_depth = (depths[0] + depths[1]) / 2.0
    if not rms <= MAX_RESIDUAL_PER_DEPTH * mean_depth:  # a NaN fails as well
        raise FitError(
            f"no doublet found: residual RMS {rms:.3g} exceeds"
            f" {MAX_RESIDUAL_PER_DEPTH} of the mean fitted dip depth {mean_depth:.3g}",
            residual=rms,
        )
    return DoubletFit(
        two_g_ghz=float(2.0 * g),
        linewidths_ghz=(float(k1), float(k2)),
        dip_depths=depths,
        residual_rms=rms,
        kappa_ex_ghz=float(kex),
        thermal_detune_ghz=float(dt),
        center_ghz=float(x0),
    )
