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
experiment's maximal true-coincidence rate, as quoted in practice.

Experiments draw one record per sweep point (or truth-table row) k and
curve (or outcome) c, all of a run's records in one `sample_grid` call.
Record (k, c) is exactly the stream of
np.random.default_rng(derive_seed(seed, k, c)): four Poisson draws, true,
accidental, singles A, singles B.  The batch hashes every seed in one
numpy pass and reseeds one generator to each record's state, so the
counts do not depend on how the records are batched.  A mean too large
to draw is a `DomainError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterator, NamedTuple

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h): `_seed_words` and
# `_pcg64_states` reproduce what np.random.default_rng does with a seed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of every uint64 seed s,
    as an (n, 4) uint64 array, in one uint32 numpy pass over all seeds.

    A seed enters the pool of four words as its low and high 32-bit
    halves followed by zeros (a seed below 2**32 is one entropy word, and
    the hash runs out over the rest of the pool with zeros, which is the
    same).  The hash constants advance the same way for every seed, so
    they are Python ints stepped alongside the arrays.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    shift = np.uint32(16)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> shift)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> shift)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> shift)).astype(np.uint64))
    return np.stack([out[i] | (out[i + 1] << np.uint64(32)) for i in range(0, 8, 2)], axis=1)


def _pcg64_states(words: np.ndarray) -> Iterator[dict]:
    """`bit_generator.state` of PCG64 seeded with each row of four uint64
    seed words: the 128-bit state and increment after PCG64's seeding,
    which is one LCG step from (increment + initial state).  Yielded one
    at a time, so a large grid never holds all of them."""
    for w0, w1, w2, w3 in words.tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
        yield {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
               "has_uint32": 0, "uinteger": 0}


def sample_grid(
    p,
    d: DetectorSpec,
    s: SourceSpec,
    seeds,
    accidental_weight=1.0,
) -> list[list[CountRecord]]:
    """Count records[k][c] of the detection probabilities p[k, c], record
    (k, c) drawn with the uint64 seed seeds[k, c] and accidental weight
    w[k, c] (``accidental_weight`` broadcast to p).

    Record (k, c) is exactly four draws of np.random.default_rng(seeds[k, c]):
    true, accidental, singles A and singles B counts, Poisson with the
    means of the module docstring.  One generator serves the whole grid:
    the seeds are hashed in one numpy pass (`_seed_words`), and the
    generator is reseeded to each record's PCG64 state before its draws.
    Raises `DomainError` at the first record, in row-major order, whose
    p_true is outside [0, 1] or whose Poisson mean the generator cannot
    draw (NaN, or too large for a 64-bit count).
    """
    p = np.asarray(p, dtype=float)
    arm = d.efficiency * d.insertion_loss
    exposure = s.pair_rate_hz * d.integration_s
    lam_ref = exposure * arm * arm
    # Elementwise as in Python floats: an overflow or 0 * inf is left to
    # the draw, which rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        lam_true = exposure * p * arm * arm
        if math.isinf(s.car):
            lam_acc = np.zeros(p.shape)
        else:
            lam_acc = lam_ref / s.car * np.broadcast_to(accidental_weight, p.shape)
    lam_single = exposure * arm + d.dark_rate_hz * d.integration_s

    seeds = np.asarray(seeds, dtype=np.uint64)
    # Seeded here only to avoid reading OS entropy; every record replaces
    # its state.
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator, poisson = rng.bit_generator, rng.poisson
    records = []
    for p_true, lam_t, lam_a, seed, state in zip(
        p.ravel().tolist(), lam_true.ravel().tolist(), lam_acc.ravel().tolist(),
        seeds.ravel().tolist(), _pcg64_states(_seed_words(seeds)), strict=True,
    ):
        if not 0.0 <= p_true <= 1.0 + 1e-12:
            raise DomainError("p_true must lie in [0, 1]")
        bit_generator.state = state
        try:
            true_c, acc_c, singles_a, singles_b = [
                int(poisson(lam)) for lam in (lam_t, lam_a, lam_single, lam_single)
            ]
        except ValueError as exc:
            raise DomainError(
                f"cannot draw counts ({exc}): expected true {lam_t:.3g}, accidental"
                f" {lam_a:.3g}, singles {lam_single:.3g}"
            ) from exc
        records.append(CountRecord(
            true_coincidences=true_c,
            accidental_coincidences=acc_c,
            singles_a=singles_a,
            singles_b=singles_b,
            expected_true=lam_t,
            expected_accidental=lam_a,
            p_true=p_true,
            seed=seed,
        ))
    n = p.shape[1]
    return [records[k * n:(k + 1) * n] for k in range(p.shape[0])]


def sample_counts(
    p_true: float,
    d: DetectorSpec,
    s: SourceSpec,
    seed: int,
    accidental_weight: float = 1.0,
) -> CountRecord:
    """Draw one CountRecord; deterministic for a given seed.

    The record of `sample_grid` on a 1x1 grid with seed ``seed`` modulo
    2**64; its ``seed`` field is ``seed`` itself.  ``accidental_weight``
    scales the accidental mean relative to the p_true = 1 reference rate
    divided by the CAR.  Callers that quote CAR at an operating point fold
    the operating true rate and the normalized singles product for the
    outcome into this weight.  Raises `DomainError` as `sample_grid` does.
    """
    seeds = np.array([[int(seed) & _MASK64]], dtype=np.uint64)
    record = sample_grid([[p_true]], d, s, seeds, accidental_weight)[0][0]
    return replace(record, seed=int(seed))


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


def visibility_minmax(values) -> MetricResult:
    """(max - min) / (max + min) of a fringe; Poisson error when the
    inputs are counts, meaning an integer array, zero otherwise."""
    counts = np.issubdtype(np.asarray(values).dtype, np.integer)
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
    if not counts:
        return MetricResult(vis, 0.0, "minmax")
    denom = (hi + lo) ** 2
    sigma = math.sqrt((2.0 * lo / denom) ** 2 * hi + (2.0 * hi / denom) ** 2 * lo)
    return MetricResult(vis, sigma, "minmax, poisson error")


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
    permutation table.  An integer ``measured`` holds counts, which give
    the binomial error of each row.
    """
    counts = np.issubdtype(np.asarray(measured).dtype, np.integer)
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
    sigma = 0.0
    if counts:
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
