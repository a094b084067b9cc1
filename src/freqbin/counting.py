"""Source and detector settings, counting statistics, and derived metrics.

Detection probabilities come from the compiled pipelines of
`freqbin.experiments`; counting converts them into simulated coincidence
records.  True coincidences are Poisson with mean

    lambda_t = pair_rate * integration * p_true * (efficiency * insertion)^2

Accidentals are controlled by the coincidence-to-accidental ratio (CAR):
the accidental mean is lambda_ref / car scaled by a caller-supplied
weight, where lambda_ref is the same rate formula at p_true = 1.
Experiments pass weights that combine the operating-point true rate with
normalized singles products, so the documented CAR values refer to the
experiment's maximal true-coincidence rate, as quoted in practice.  They
draw one record per sweep point (or truth-table row) and curve (or
outcome), each from its own seed; a mean too large to draw is a
`DomainError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError


@dataclass(frozen=True)
class SourceSpec:
    """Photon-pair source settings.  Which bins the photons enter is fixed
    by each experiment's encoding in `freqbin.experiments`."""

    photon_linewidth_mhz: float = 202.0
    pair_rate_hz: float = 2.0e6
    car: float = math.inf
    indistinguishability: float = 1.0

    def __post_init__(self):
        if not self.car > 1.0:
            raise ValidationError("coincidence-to-accidental ratio must exceed 1")
        if not 0.0 <= self.indistinguishability <= 1.0:
            raise ValidationError("indistinguishability must lie in [0, 1]")
        if self.pair_rate_hz <= 0 or self.photon_linewidth_mhz <= 0:
            raise ValidationError("rates and linewidths must be positive")


@dataclass(frozen=True)
class DetectorSpec:
    """Detection chain settings (detector plus coupler insertion)."""

    efficiency: float = 0.85
    dark_rate_hz: float = 0.0
    coincidence_window_ps: float = 512.0
    integration_s: float = 10.0
    insertion_loss: float = 0.25

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ValidationError("detector efficiency must lie in (0, 1]")
        if not 0.0 < self.insertion_loss <= 1.0:
            raise ValidationError("insertion transmission must lie in (0, 1]")
        if self.coincidence_window_ps <= 0 or self.integration_s <= 0:
            raise ValidationError("window and integration must be positive")
        if self.dark_rate_hz < 0:
            raise ValidationError("dark rate must be nonnegative")


@dataclass(frozen=True)
class CountRecord:
    """Simulated detection statistics for one measurement setting."""

    true_coincidences: int
    accidental_coincidences: int
    singles_a: int
    singles_b: int
    expected_true: float
    expected_accidental: float
    p_true: float
    seed: int

    @property
    def total_coincidences(self) -> int:
        return self.true_coincidences + self.accidental_coincidences

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=False)


@dataclass(frozen=True)
class MetricResult:
    """A derived quantity with its one-sigma uncertainty."""

    value: float
    sigma: float
    method: str = ""

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise ValidationError("sigma must be finite and nonnegative")


class HofmannBound(NamedTuple):
    value: float
    clamped: bool


def indistinguishability_mix(p_indist: float, p_dist: float, v: float) -> float:
    """Convex mix of indistinguishable and distinguishable outcomes."""
    if not 0.0 <= v <= 1.0:
        raise DomainError("mixing parameter must lie in [0, 1]")
    return v * p_indist + (1.0 - v) * p_dist


def sample_counts(
    p_true: float,
    d: DetectorSpec,
    s: SourceSpec,
    seed: int,
    accidental_weight: float = 1.0,
) -> CountRecord:
    """Draw one CountRecord; deterministic for a given seed.

    ``accidental_weight`` scales the accidental mean relative to the
    p_true = 1 reference rate divided by the CAR.  Callers that quote CAR
    at an operating point fold the operating true rate and the normalized
    singles product for the outcome into this weight.  Raises
    `DomainError` when a Poisson mean is outside what the generator can
    draw (NaN, or too large for a 64-bit count).
    """
    if not 0.0 <= p_true <= 1.0 + 1e-12:
        raise DomainError("p_true must lie in [0, 1]")
    arm = d.efficiency * d.insertion_loss
    exposure = s.pair_rate_hz * d.integration_s
    lam_true = exposure * p_true * arm * arm
    lam_ref = exposure * arm * arm
    lam_acc = 0.0 if math.isinf(s.car) else lam_ref / s.car * accidental_weight
    lam_single = exposure * arm + d.dark_rate_hz * d.integration_s

    rng = np.random.default_rng(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
    try:
        true_c, acc_c, singles_a, singles_b = [
            int(rng.poisson(lam)) for lam in (lam_true, lam_acc, lam_single, lam_single)
        ]
    except ValueError as exc:
        raise DomainError(
            f"cannot draw counts ({exc}): expected true {lam_true:.3g}, accidental"
            f" {lam_acc:.3g}, singles {lam_single:.3g}"
        ) from exc
    return CountRecord(
        true_coincidences=true_c,
        accidental_coincidences=acc_c,
        singles_a=singles_a,
        singles_b=singles_b,
        expected_true=lam_true,
        expected_accidental=lam_acc,
        p_true=float(p_true),
        seed=int(seed),
    )


def g2_histogram(tau_grid_ps, linewidth_mhz: float, window_ps: float) -> np.ndarray:
    """Coincidence histogram shape: two-sided exponential decay convolved
    with the rectangular timing window, normalized to unit peak.

    The decay constant is 1 / (2 pi linewidth) for a Lorentzian photon.
    """
    tau = np.asarray(tau_grid_ps, dtype=float)
    if linewidth_mhz <= 0 or window_ps <= 0:
        raise DomainError("linewidth and window must be positive")
    tau_c = 1.0e6 / (2.0 * math.pi * linewidth_mhz)  # ps
    raw = _exp_window_convolution(tau, tau_c, window_ps)
    return raw / _exp_window_convolution(np.zeros(1), tau_c, window_ps)[0]


def _exp_window_convolution(tau: np.ndarray, tau_c: float, window_ps: float) -> np.ndarray:
    """Exact convolution of exp(-|t|/tau_c) with a unit-area window."""

    def antiderivative(x):
        return np.sign(x) * tau_c * (1.0 - np.exp(-np.abs(x) / tau_c))

    upper = antiderivative(tau + window_ps / 2.0)
    lower = antiderivative(tau - window_ps / 2.0)
    return (upper - lower) / window_ps


def _looks_like_counts(values: np.ndarray) -> bool:
    return bool(np.all(values == np.round(values)) and np.all(values >= 0))


def visibility_minmax(values) -> MetricResult:
    """(max - min) / (max + min) of a fringe; Poisson error when the
    inputs are counts, zero otherwise."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        raise DomainError("need at least two values")
    if np.any(v < 0):
        raise DomainError("fringe values must be nonnegative")
    hi = float(v.max())
    lo = float(v.min())
    if hi + lo == 0.0:
        raise DomainError("all-zero fringe")
    vis = (hi - lo) / (hi + lo)
    sigma = 0.0
    method = "minmax"
    if _looks_like_counts(v):
        denom = (hi + lo) ** 2
        sigma = math.sqrt((2.0 * lo / denom) ** 2 * hi + (2.0 * hi / denom) ** 2 * lo)
        method = "minmax, poisson error"
    return MetricResult(vis, sigma, method)


def visibility_hom(n_max: float, n_min: float) -> MetricResult:
    """(N_max - N_min) / N_max without background subtraction."""
    if n_max <= 0:
        raise DomainError("reference counts must be positive")
    if n_min < 0:
        raise DomainError("counts must be nonnegative")
    vis = (n_max - n_min) / n_max
    sigma = math.sqrt(n_min**2 / n_max**3 + n_min / n_max**2)
    return MetricResult(vis, sigma, "hom, poisson error")


def truth_table_fidelity(measured, ideal) -> MetricResult:
    """Mean probability of the ideal outcome over a 4x4 truth table.

    Rows of ``measured`` are normalized first; ``ideal`` must be a
    permutation table.
    """
    m = np.asarray(measured, dtype=float)
    ident = np.asarray(ideal, dtype=float)
    if m.shape != (4, 4) or ident.shape != (4, 4):
        raise ValidationError("truth tables must be 4x4")
    if not np.array_equal(np.sort(ident, axis=None), np.array([0.0] * 12 + [1.0] * 4)):
        raise ValidationError("ideal table must be a permutation matrix")
    if np.any(ident.sum(axis=0) != 1) or np.any(ident.sum(axis=1) != 1):
        raise ValidationError("ideal table must be a permutation matrix")
    sums = m.sum(axis=1)
    if np.any(sums <= 0):
        raise ValidationError("measured table has an empty row")
    rows = m / sums[:, None]
    per_row = (rows * ident).sum(axis=1)
    value = float(per_row.mean())
    # Binomial error per row from the raw totals when rows are counts.
    sigma = 0.0
    if _looks_like_counts(m):
        var = per_row * (1.0 - per_row) / np.maximum(sums, 1.0)
        sigma = float(np.sqrt(var.sum()) / 4.0)
    return MetricResult(value, sigma, "mean diagonal of row-normalized table")


def hofmann_bound(f_xz: float, f_zx: float) -> HofmannBound:
    """Process-fidelity lower bound from two complementary truth tables."""
    for f in (f_xz, f_zx):
        if not 0.0 <= f <= 1.0:
            raise DomainError("basis fidelities must lie in [0, 1]")
    raw = f_xz + f_zx - 1.0
    if raw < 0.0:
        return HofmannBound(0.0, True)
    return HofmannBound(raw, False)
