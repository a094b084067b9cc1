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
accidental, singles A, singles B.  A large grid is drawn in numpy: the
seeds are hashed to PCG64 states, each stream's first uniforms are
generated in 32-bit limb arithmetic, and numpy's Poisson rule (PTRS for a
mean of 10 or more) is evaluated on them for every record at once.  The
records that pass cannot decide (a mean in (0, 10), a log test too close
to call, a stream that needs more uniforms) and every record of a small
grid are drawn by the reference loop: np.random.default_rng(seed) and its
four draws, record by record.  So the counts do not depend on how the
records are batched.  A mean too large to draw is a `DomainError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), PCG64
# (numpy/random/src/pcg64/pcg64.h) and Poisson sampler (random_poisson
# in numpy/random/src/distributions/distributions.c), reproduced on
# arrays of records.  Integer constants are numpy scalars or arrays of a
# fixed width, so numpy 1.24 and numpy 2 promote them the same way.
_SHIFT16 = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_LIMB_BITS = np.uint64(32)
_LIMB_MASK = np.uint64(0xFFFFFFFF)


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of ``calls`` successive
    SeedSequence hash calls, each a (calls, 1) uint32 column: the hash
    constant before each call and after it."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


# The pool hash makes 4 calls and then 3 for each pool word, mixed into
# the other three words; the output hash makes one call per word.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_INITIAL_HASH = tuple(c[:4] for c in _POOL_HASH)
_MIX_HASH = [(src, np.array([dst for dst in range(4) if dst != src]),
              tuple(c[4 + 3 * src:7 + 3 * src] for c in _POOL_HASH)) for src in range(4)]
_OUTPUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_OUTPUT_WORDS = np.arange(8) % 4


def _hashmix(value: np.ndarray, consts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """SeedSequence's hashmix of ``value`` under successive hash
    constants, one row of the result per call."""
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> _SHIFT16)


def _seed_hash(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(8, np.uint32) of every uint64 seed
    s, as an (8, n) uint32 array.

    A seed enters the pool of four words as its low and high 32-bit
    halves followed by zeros (a seed below 2**32 is one entropy word, and
    the hash runs out over the rest of the pool with zeros, which is the
    same).  The hash constants are the same for every seed and built at
    import, so the pool hash is one operation on a (4, n) array, each
    word's mix into the other three one on (3, n), and the output hash one
    on (8, n).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)  # the low half
    pool[1] = (seeds >> _LIMB_BITS).astype(np.uint32)
    pool = _hashmix(pool, _INITIAL_HASH)
    for src, dst, consts in _MIX_HASH:
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], consts)
        pool[dst] = mixed ^ (mixed >> _SHIFT16)
    return _hashmix(pool[_OUTPUT_WORDS], _OUTPUT_HASH)


def _seed_words(seeds) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) of every uint64 seed
    s, as an (n, 4) uint64 array."""
    words = _seed_hash(seeds).astype(np.uint64)
    return (words[0::2] | words[1::2] << _LIMB_BITS).T


# PCG64 runs a 128-bit LCG, held here as (4, n) uint64 arrays of 32-bit
# limbs, least significant first.  A limb product state[i] * mult[j]
# fits in 64 bits; it adds its low half to column i + j of the result
# and its high half to column i + j + 1, and columns past 3 are dropped.
# _SKEWED_MULT[i, c] is mult[c - i], 0 for c < i.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_SKEWED_MULT = np.array(
    [[_PCG64_MULT >> 32 * (c - i) & 0xFFFFFFFF if c >= i else 0 for c in range(4)]
     for i in range(4)],
    dtype=np.uint64,
)[:, :, None]
# Limbs of the initial state and the stream among the (8, n) seed words:
# 64-bit words 0 and 1 are the high and low halves of the initial state,
# words 2 and 3 those of the stream.
_INITIAL_LIMBS, _STREAM_LIMBS = np.array([2, 3, 0, 1]), np.array([6, 7, 4, 5])


def _carry(columns: np.ndarray) -> np.ndarray:
    """Limbs modulo 2**128 of (4, n) column sums below 2**40."""
    columns[1] += columns[0] >> _LIMB_BITS
    columns[2] += columns[1] >> _LIMB_BITS
    columns[3] += columns[2] >> _LIMB_BITS
    return columns & _LIMB_MASK


def _lcg_step(state: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """state * _PCG64_MULT + inc modulo 2**128."""
    products = state[:, None] * _SKEWED_MULT
    columns = inc + np.add.reduce(products & _LIMB_MASK, axis=0)
    columns[1:] += np.add.reduce(products[:, :3] >> _LIMB_BITS, axis=0)
    return _carry(columns)


def _pcg64_seed(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State and increment limbs of PCG64 seeded with the (8, n) uint32
    seed words of `_seed_hash`: the increment is 2 * stream + 1, and
    seeding is one LCG step from (increment + initial state), all modulo
    2**128."""
    words = words.astype(np.uint64)
    initial, stream = words[_INITIAL_LIMBS], words[_STREAM_LIMBS]
    inc = stream << np.uint64(1)
    inc[0] |= np.uint64(1)
    inc = _carry(inc)
    return _lcg_step(_carry(initial + inc), inc), inc


def _uniforms(state: np.ndarray, inc: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` `Generator.random` draws of each record's
    stream, (count, n): step the LCG, take the XSL-RR output of the new
    state (the xor of its halves rotated right by its top six bits), and
    keep its top 53 bits."""
    states = np.empty((count, *state.shape), dtype=np.uint64)
    for t in range(count):
        state = states[t] = _lcg_step(state, inc)
    l0, l1, l2, l3 = states.transpose(1, 0, 2)
    xored = (l3 ^ l1) << _LIMB_BITS | (l2 ^ l0)
    rot = l3 >> np.uint64(26)
    out = xored >> rot | xored << ((np.uint64(64) - rot) & np.uint64(63))
    return (out >> np.uint64(11)) * 2.0**-53


#: Margin of the PTRS log test, relative to the magnitude of its terms
#: (1 + lam + k log lam + loggam(k + 1)), inside which the numpy pass
#: leaves the draw to the generator.  np.log may differ from the C
#: library's log in the last place, which moves the test by a few units
#: in the last place of its largest term: about 1e-15 of it.
_TIE = 1e-12
_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
)


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's random_loggam at whole numbers x >= 1: Stirling's series
    at max(x, 7), less log(6), ..., log(x) below 7, and 0 at 1 and 2."""
    x0 = np.maximum(x, 7.0)
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFS[9]
    for coeff in _LOGGAM_COEFFS[8::-1]:
        gl0 = gl0 * x2 + coeff
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * np.log(x0) - x0
    for j in range(6, 2, -1):
        gl = np.where(x <= j, gl - math.log(j), gl)
    return np.where(x <= 2.0, 0.0, gl)


def _ptrs(lam: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Numpy's PTRS Poisson draw (random_poisson_ptrs, for a mean of 10
    or more) of mean lam[j, i] from record i's uniform pairs
    (u[c, 0, i], v[c, 0, i]), c < P, started at each pair c: the draw's
    count and the pair after its accepted attempt, as (P + 1, m, n)
    arrays, the next pair -1 where the draw is undecided (row P stands
    for a record out of pairs).

    Each attempt is numpy's fast accept, reject and log test; a log test
    within the `_TIE` margin, or at a k past the exact float range, is
    undecided.  A mean below 10 in ``lam`` gives meaningless draws, which
    the caller never reads.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        slam = np.sqrt(lam)
        loglam = np.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        u = u - 0.5
        us = 0.5 - np.abs(u)
        # us is 0 only at u = -0.5, where k is -inf: a reject.
        k = np.floor((2 * a / us + b) * u + lam + 0.43)
    accept = (us >= 0.07) & (v <= vr)
    reject = ~accept & ((k < 0) | ((us < 0.013) & (v > us)))
    tested = np.nonzero(~(accept | reject) & (k < 2.0**53) & (lam >= 10))

    def at(x):
        return np.broadcast_to(x, k.shape)[tested]

    kt, lt, lt_log, ust = at(k), at(lam), at(loglam), at(us)
    with np.errstate(divide="ignore"):  # log(0) of v = 0 is -inf: an accept
        gam = _loggam(kt + 1.0)
        lhs = np.log(at(v)) + np.log(at(invalpha)) - np.log(at(a) / (ust * ust) + at(b))
    rhs = -lt + kt * lt_log - gam
    decided = np.abs(lhs - rhs) > _TIE * (1.0 + lt + kt * lt_log + gam)
    accept[tested] = decided & (lhs <= rhs)
    reject[tested] = decided & (lhs > rhs)

    pairs = k.shape[0]
    count = np.zeros((pairs + 1, *k.shape[1:]), dtype=np.int64)
    after = np.full((pairs + 1, *k.shape[1:]), -1, dtype=np.intp)
    for c in range(pairs - 1, -1, -1):
        count[c] = np.where(accept[c], k[c], np.where(reject[c], count[c + 1], 0))
        after[c] = np.where(accept[c], c + 1, np.where(reject[c], after[c + 1], -1))
    return count, after


#: Uniform pairs of each record's stream the numpy pass reads: four
#: draws of numpy's PTRS take one pair each when accepted at once.
_PAIRS = 6
#: Largest mean the numpy pass draws, below numpy's Poisson limit
#: (about 2.1e9 where a C long has 32 bits).
_BATCH_MAX_MEAN = 1e9
#: Fewest records for which the numpy pass is cheaper than the loop
#: (measured crossover 48-64 records on the sweep_dense grids).
_BATCH_MIN_RECORDS = 56


def _batch_counts(
    state: np.ndarray, inc: np.ndarray, means: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """(4, n) counts of the draws of ``means`` (true, accidental and
    singles, each an (n,) array or a scalar; singles is drawn twice) from
    each record's stream, and the (n,) mask of the records this pass
    cannot decide: a mean in (0, 10), which numpy draws by
    multiplication, an undecided PTRS attempt, or more attempts than
    `_PAIRS`.  A zero mean draws 0 and reads nothing."""
    n = state.shape[1]
    lam = np.stack([np.broadcast_to(mean, (n,)) for mean in means])
    undecided = np.any((lam > 0) & (lam < 10), axis=0)
    u = _uniforms(state, inc, 2 * _PAIRS)[:, None]
    count, after = _ptrs(lam, u[0::2], u[1::2])

    counts = np.zeros((4, n), dtype=np.int64)
    cursor = np.zeros(n, dtype=np.intp)
    for row, j in zip(counts, (0, 1, 2, 2)):
        drawn = np.flatnonzero((lam[j] > 0) & ~undecided)
        at = cursor[drawn]
        row[drawn] = count[at, j, drawn]
        cursor[drawn] = after[at, j, drawn]
        undecided[drawn] |= cursor[drawn] < 0
        cursor[cursor < 0] = 0
    return counts, undecided


def _loop_counts(p, lam_true, lam_acc, lam_single: float, seeds) -> np.ndarray:
    """(m, 4) counts of records drawn one at a time, each as four Poisson
    draws of np.random.default_rng(seed); raises `DomainError` at the
    first record whose p_true is outside [0, 1] or whose mean the
    generator cannot draw."""
    counts = []
    for p_true, lam_t, lam_a, seed in zip(
        p.tolist(), lam_true.tolist(), lam_acc.tolist(), seeds.tolist(), strict=True
    ):
        if not 0.0 <= p_true <= 1.0 + 1e-12:
            raise DomainError("p_true must lie in [0, 1]")
        poisson = np.random.default_rng(seed).poisson
        try:
            counts.append([int(poisson(lam)) for lam in (lam_t, lam_a, lam_single, lam_single)])
        except ValueError as exc:
            raise DomainError(
                f"cannot draw counts ({exc}): expected true {lam_t:.3g}, accidental"
                f" {lam_a:.3g}, singles {lam_single:.3g}"
            ) from exc
    return np.array(counts, dtype=np.int64).reshape(-1, 4)


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
    means of the module docstring.  A grid of at least
    `_BATCH_MIN_RECORDS` records, every p_true in [0, 1] and every mean
    in [0, `_BATCH_MAX_MEAN`], is drawn in numpy (`_seed_hash`,
    `_pcg64_seed`, `_batch_counts`), and `_loop_counts` draws the records
    that pass leaves undecided; it draws every record of any other grid.
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

    seeds = np.asarray(seeds, dtype=np.uint64).ravel()
    p_flat, true_flat, acc_flat = p.ravel(), lam_true.ravel(), lam_acc.ravel()
    means = (true_flat, acc_flat, lam_single)
    with np.errstate(invalid="ignore"):  # NaN fails every range test
        batch = (p.size >= _BATCH_MIN_RECORDS
                 and np.all((0.0 <= p_flat) & (p_flat <= 1.0 + 1e-12))
                 and all(np.all((0.0 <= lam) & (lam <= _BATCH_MAX_MEAN)) for lam in means))
    counts, loop = np.zeros((p.size, 4), dtype=np.int64), slice(None)
    if batch:
        counts, undecided = _batch_counts(*_pcg64_seed(_seed_hash(seeds)), means)
        counts, loop = counts.T, np.flatnonzero(undecided)
    counts[loop] = _loop_counts(p_flat[loop], true_flat[loop], acc_flat[loop], lam_single,
                                seeds[loop])
    records = [
        CountRecord(
            true_coincidences=true_c,
            accidental_coincidences=acc_c,
            singles_a=singles_a,
            singles_b=singles_b,
            expected_true=lam_t,
            expected_accidental=lam_a,
            p_true=p_true,
            seed=seed,
        )
        for (true_c, acc_c, singles_a, singles_b), lam_t, lam_a, p_true, seed in zip(
            counts.tolist(), true_flat.tolist(), acc_flat.tolist(), p_flat.tolist(),
            seeds.tolist(),
        )
    ]
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
    seeds = np.array([[int(seed) % 2**64]], dtype=np.uint64)
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
