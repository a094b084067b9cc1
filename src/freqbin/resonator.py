"""Doublet fitting and drive calibration of the double resonators.

`fit_doublet` fits the coupled-mode through spectrum of a double
resonator, ``dr_through_spectrum`` of `freqbin.elements` (which holds
`DRParams` and the model; both are re-exported here), to a measured scan
by a rational fit of |t|^2, from no start value: linear solves find its
poles and zeros, and those give the model's parameters in closed form.
Only a spectroscopy run and ``freqbin fit`` import this module.

The microwave-drive calibration maps drive voltage to beam-splitter
reflectivity through a cavity-converter cooperativity curve
R = r_peak * 4C / (1 + C)^2 with C = (beta V)^2; electrical-amplifier
saturation is absorbed into the fitted beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elements import DRParams, _through_field, dr_through_spectrum  # noqa: F401
from .errors import FitError, ValidationError, check_settings


@dataclass(frozen=True)
class CalibCurve:
    """Drive calibration constants: conversion slope and peak reflectivity."""

    beta_per_v: float = 1.0
    r_peak: float = 1.0

    def __post_init__(self):
        check_settings(self, unit=("r_peak",), positive=("beta_per_v",))


@dataclass(frozen=True)
class DriveSpec:
    """Microwave drive at a double resonator's splitting: voltage, calibration."""

    drive_voltage_v: float = 0.0
    calib: CalibCurve = CalibCurve()

    def __post_init__(self):
        check_settings(self, nonnegative=("drive_voltage_v",))


def eo_resonance_shift(voltage_v: float, coeff_ghz_per_v: float) -> float:
    """Linear electro-optic resonance shift, GHz."""
    return coeff_ghz_per_v * voltage_v


def drive_to_splitting(d: DriveSpec) -> tuple[float, float]:
    """Map a drive setting to (T, R) of the beam splitter.

    R(V) = r_peak * 4C/(1+C)^2 with cooperativity C = (beta V)^2; R grows
    until C = 1 and rolls off beyond (as R(C) = R(1/C), past C = 1 from 1/C,
    which tends to 0 without overflow), and T = 1 - R always.
    """
    x = d.calib.beta_per_v * d.drive_voltage_v
    c = x**2 if x <= 1.0 else (1.0 / x) ** 2
    r = d.calib.r_peak * 4.0 * c / (1.0 + c) ** 2
    return 1.0 - r, r


class DoubletCandidate(NamedTuple):
    """A parameter set of the through model that a doublet fit gives."""

    g_ghz: float
    kappa1_ghz: float
    kappa_ex_ghz: float
    kappa2_ghz: float
    thermal_detune_ghz: float
    center_ghz: float
    residual_rms: float


@dataclass(frozen=True)
class DoubletFit:
    """What a through spectrum determines, the pole splitting Re(p2 - p1)
    and the hybrid linewidths 2 Im p1, 2 Im p2 (poles in order of detuning),
    and every physical parameter set that explains it, best residual first."""

    splitting_ghz: float
    linewidths_ghz: tuple[float, float]
    dip_depths: tuple[float, float]
    residual_rms: float
    candidates: tuple[DoubletCandidate, ...]
    warning: str | None


def _minima_at(y: np.ndarray) -> np.ndarray:
    """Indices of the interior local minima of a sampled curve: no
    neighbour lower, and at least one higher."""
    mid, left, right = y[1:-1], y[:-2], y[2:]
    below = (mid <= left) & (mid <= right) & ((mid < left) | (mid < right))
    return np.flatnonzero(below) + 1


#: Gauss-Newton steps of the rational fit, halvings of a step, and the
#: relative coefficient step that ends the fit.
_STEPS, _HALVINGS, _STEP_TOL = 20, 10, 1e-6
#: Largest residual RMS, as a share of the mean fitted dip depth, of a fit
#: that explains its data.  A doublet with 1% noise fits at up to 0.014,
#: with 10% noise at up to 0.15 (601 points, 200 seeds).
MAX_RESIDUAL_PER_DEPTH = 0.25
#: Two candidates explain a scan equally when their chi-squares differ by
#: at most 9 noise variances (the best one's mean square residual), or
#: both residual RMS lie below 1e-6: far below a detector's noise, and
#: above the 1.3e-8 at which a clean doublet near a double zero fits.
_EQUAL_CHI2, _CLEAN_RMS = 9.0, 1e-6
#: A candidate explains a scan when its chi-square exceeds the rational
#: fit's by at most 100 noise variances, or its RMS is below _CLEAN_RMS:
#: noisy doublets exceeded it by up to 31, fits of flat noise by 280 on.
_EXPLAINED_CHI2 = 100.0
#: Relative rounding of the fitted rates: kappa_ex this far above kappa1 is kappa1.
_ROUNDING = 1e-9
_PAST = "no doublet found: the fit leaves the float range"
# The normal equations of Q's and then P's low coefficients have the matrix
# [[H2, -H1], [-H1, H0]], with Hk[i, j] = m[k, i + j]: entries of m.ravel().
_HANKEL = np.add.outer(range(4), range(4))
_GRAM_AT = np.kron([[18, 9], [9, 0]], np.ones((4, 4), int)) + np.tile(_HANKEL, (2, 2))
_GRAM_SIGN = np.kron([[1.0, -1.0], [-1.0, 1.0]], np.ones((4, 4)))


def _roots(coef):
    """The roots of the monic quartics with low coefficients ``coef``, four
    at a time, one row per quartic."""
    companion = np.tile(np.eye(4, k=-1), (len(coef) // 4, 1, 1))
    companion[:, 0] = -coef.reshape(-1, 4)[:, ::-1]
    return np.linalg.eigvals(companion)


def _relocated(coef):
    """Q's and P's coefficients with each pair of adjacent real roots a <= b
    of Q moved to (a + b) / 2 +- i (b - a) / 2: Q = |D|^2 has none, but a
    noisy scan's linear solve puts them at its dips, where 1/Q is infinite."""
    if not np.isfinite(coef).all():
        raise FitError(_PAST)
    q = _roots(coef[:4])[0]
    real = np.sort(q[q.imag == 0.0].real).reshape(-1, 2)
    if not real.size:
        return coef
    upper = np.concatenate([q[q.imag > 0.0], real.mean(axis=1) + 0.5j * (real[:, 1] - real[:, 0])])
    return np.concatenate([np.poly(np.concatenate([upper, upper.conj()])).real[:0:-1], coef[4:]])


def _normal(powers, b, weight):
    """The moments sum weight {1, b, b^2} s^j, j < 9, and the matrix of the
    normal equations of sum weight |b Q - P|^2 in the low coefficients."""
    m = (np.stack([powers[0], b, b * b]) * weight) @ powers.T
    return m, m.ravel()[_GRAM_AT] * _GRAM_SIGN


def _rational_roots(s, y):
    """The roots of Q and of P, the monic real quartics in ``s`` with
    y ~ P/Q in least squares, as the rows of a (2, 4) array, and the
    residual RMS of P/Q.

    A linear solve (Levy 1959) minimises sum w^2 |y Q - P|^2 with w the dip
    depth 1 - y = R/Q (R = Q - P a quadratic), from no start value.  From
    it, relocated, Gauss-Newton steps minimise sum (y - P/Q)^2: each solves
    the same normal equations, weighted by 1/Q^2 and with the model P/Q in
    place of y, against the unsquared residual, and is halved until it
    lowers that sum with Q free of real roots.  Of 200 scans of the default
    doublet at 10% noise (601 points) all fit; none without the steps or
    the relocation, and 36 with whole steps.  The steps also take a clean
    fit's poles from 2.2e-10 to within 1.2e-13 GHz of the truth."""
    powers = np.empty((9, len(s)))
    powers[0] = 1.0
    for k in range(1, 9):
        np.multiply(powers[k - 1], s, out=powers[k])
    m, gram = _normal(powers, y, (1.0 - y) ** 2)
    coef = _relocated(np.linalg.solve(gram, np.concatenate([m[1, 4:8] - m[2, 4:8],
                                                             m[1, 4:8] - m[0, 4:8]])))

    def fitted(c):
        q = c[:4] @ powers[:4] + powers[4]
        model = (c[4:] @ powers[:4] + powers[4]) / q
        return model, q, (y - model) @ (y - model)

    model, q, rss = fitted(coef)
    for _ in range(_STEPS):
        e = (y - model) / q
        step = np.linalg.solve(_normal(powers, model, q**-2.0)[1],
                               np.concatenate([-(powers[:4] @ (e * model)), powers[:4] @ e]))
        if np.abs(step).max() <= _STEP_TOL * max(1.0, np.abs(coef).max()):
            coef = coef + step
            break
        for _ in range(_HALVINGS):
            new = coef + step
            trial = fitted(new)
            if trial[2] <= rss and (_roots(new[:4]).imag != 0.0).all():
                break
            step = step / 2.0
        else:
            break
        coef, (model, q, rss) = new, trial
    if not np.isfinite(coef).all():
        raise FitError(_PAST)
    return _roots(coef), math.sqrt(rss / len(s))


def _candidates(r, z):
    """(g^2, kappa1, kappa_ex, kappa2, detune, centre) of each choice of the
    zeros ``z`` or their conjugates, for the poles ``r``, in the units of
    the roots.  With sums S and products P of each root pair: kappa_ex =
    Im(Sr - Sz), kappa2 = 2 Re(Pz - Pr) / kappa_ex, detune + centre =
    -Im(Pz - Pr) / kappa_ex, 2 centre + detune = Re Sr, kappa1 = 2 Im Sr -
    kappa2 and g^2 = -Re prod(r - centre) - kappa1 kappa2 / 4."""
    sr, pr = r[0] + r[1], r[0] * r[1]
    for z1 in dict.fromkeys((z[0], z[0].conjugate())):
        for z2 in dict.fromkeys((z[1], z[1].conjugate())):
            kex = (sr - z1 - z2).imag
            dp = z1 * z2 - pr
            k2 = 2.0 * dp.real / kex
            shift = -dp.imag / kex
            x0 = sr.real - shift
            k1 = 2.0 * sr.imag - k2
            g2 = -((r[0] - x0) * (r[1] - x0)).real - k1 * k2 / 4.0
            yield g2, k1, kex, k2, shift - x0, x0


def fit_doublet(detuning_ghz, transmission) -> DoubletFit:
    """Fit the coupled-resonator through model to a measured doublet by a
    rational fit, with the model's parameters in closed form.

    The through field is t = N/D with monic quadratics D, whose roots are
    the two hybrid poles in the upper half-plane, and N, whose roots are
    the zeros.  So |t|^2 = P/Q with real quartics Q = |D|^2, which fixes
    the poles, and P = |N|^2, which fixes the zeros up to conjugation.
    `_rational_roots` fits both on the centred and scaled detuning; each
    choice of the zeros or their conjugates gives a parameter set
    (`_candidates`), and the physical ones, every rate positive and kappa_ex
    <= kappa1, are the candidates.  With no thermal detune the conjugates
    of both zeros give a twin that explains the scan equally.  All of 200
    scans of the default doublet with 10% noise fit (601 points).

    Raises `ValidationError` when the samples are mismatched, fewer than
    50 or not finite, and `FitError` when the data show no doublet: the
    fit is singular or leaves the float range, fewer than two poles lie
    in the upper half-plane, no candidate is physical, the best residual
    RMS exceeds `MAX_RESIDUAL_PER_DEPTH` times the mean dip depth of its
    model, or the best candidate explains the scan worse than the rational
    fit by more than noise does (`_EXPLAINED_CHI2`), as for flat noise.
    """
    x = np.asarray(detuning_ghz, dtype=float)
    y = np.asarray(transmission, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("detuning and transmission must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("detuning and transmission must be finite")
    if len(x) < 50:
        raise ValidationError("need at least 50 samples spanning both dips")

    lo, hi = x.min(), x.max()
    centre, half = lo / 2.0 + hi / 2.0, hi / 2.0 - lo / 2.0
    with np.errstate(all="ignore"):  # what leaves the float range fails a check below
        try:
            (poles, zeros), rational_rms = _rational_roots((x - centre) / half, y)
        except np.linalg.LinAlgError:
            raise FitError("no doublet found: the rational fit is singular") from None
        r = sorted(poles[poles.imag > 0.0].tolist(), key=lambda v: v.real)
        if len(r) != 2:
            raise FitError("no doublet found: fewer than two poles in the upper half-plane")
        zeros = np.sort_complex(zeros)  # conjugates side by side, lower first
        z = ((zeros[1::2] + zeros[::2].conj()) / 2.0).tolist()  # two real roots: a double one
        found = []
        for g2, k1, kex, k2, dt, x0 in _candidates(r, z):
            if not (0.0 < kex <= k1 * (1.0 + _ROUNDING) and k2 > 0.0 and g2 > 0.0):
                continue
            rates = [math.sqrt(g2) * half, k1 * half, min(kex, k1) * half, k2 * half, dt * half]
            x0 = centre + x0 * half
            model = np.abs(_through_field(x - x0, *rates)) ** 2
            rms = float(np.sqrt(np.mean((model - y) ** 2)))
            if not math.isfinite(rms):
                raise FitError(_PAST)
            found.append((DoubletCandidate(*map(float, rates), float(x0), rms), model))
    if not found:
        raise FitError("no doublet found: no physical candidate has kappa_ex <= kappa1")
    found.sort(key=lambda c: c[0].residual_rms)
    (best, fitted), candidates = found[0], tuple(c for c, _ in found)
    at = _minima_at(fitted)  # the two deepest, ties in scan order, then by detuning
    at = at[np.argsort(fitted[at], kind="stable")[:2]] if at.size > 1 else [fitted.argmin()] * 2
    depths = tuple(1.0 - float(fitted[i]) for i in sorted(at, key=lambda i: x[i]))
    mean_depth = (depths[0] + depths[1]) / 2.0
    if not best.residual_rms <= MAX_RESIDUAL_PER_DEPTH * mean_depth:
        raise FitError(
            f"no doublet found: residual RMS {best.residual_rms:.3g} exceeds"
            f" {MAX_RESIDUAL_PER_DEPTH} of the mean fitted dip depth {mean_depth:.3g}")
    if not best.residual_rms <= max(rational_rms * math.sqrt(1.0 + _EXPLAINED_CHI2 / len(x)),
                                    _CLEAN_RMS):
        raise FitError(
            f"no doublet found: residual RMS {best.residual_rms:.3g} of the best candidate"
            f" exceeds the rational fit's {rational_rms:.3g} by more than noise explains")
    equal = max(best.residual_rms * math.sqrt(1.0 + _EQUAL_CHI2 / len(x)), _CLEAN_RMS)
    g = [c.g_ghz for c in candidates if c.residual_rms <= equal]
    return DoubletFit(
        splitting_ghz=float((r[1] - r[0]).real * half),
        linewidths_ghz=(float(2.0 * r[0].imag * half), float(2.0 * r[1].imag * half)),
        dip_depths=depths,
        residual_rms=best.residual_rms,
        candidates=candidates,
        warning=None if len(g) < 2 else (
            f"{len(g)} candidates explain the scan equally, with g from {min(g):.4f} to"
            f" {max(g):.4f} GHz: only the pole splitting and linewidths are determined"),
    )
