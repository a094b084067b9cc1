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
curve (or outcome) c, all of a run's records in one `sample_grid` call,
which keeps them as the columns of a `CountTable`: a `CountRecord` is
built only when read.  Record (k, c) is exactly the stream of
np.random.default_rng(derive_seed(seed, k, c)): four Poisson draws, true,
accidental, singles A, singles B.  A grid is drawn in numpy: the seeds
are hashed to PCG64 states, uniforms jump the streams in two uint64
words, and numpy's Poisson rules (multiplication below a mean of 10,
PTRS from 10) run in rounds on the records still drawing.  Only a record
whose float test is within an ulp-sized margin, and every record of a
grid with an invalid value, is drawn by the reference loop,
np.random.default_rng(seed) and its four draws; a mean too large to
draw is a `DomainError`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError, check_settings


@dataclass(frozen=True)
class SourceSpec:
    """Photon-pair source settings.  Which bins the photons enter is fixed
    by each experiment's encoding in `freqbin.experiments`."""

    photon_linewidth_mhz: float = 202.0
    pair_rate_hz: float = 2.0e6
    car: float = math.inf
    indistinguishability: float = 1.0

    def __post_init__(self):
        check_settings(self, ideal_inf=("car",), fraction=("indistinguishability",),
                       positive=("photon_linewidth_mhz", "pair_rate_hz"))
        if not self.car > 1.0:
            raise ValidationError("coincidence-to-accidental ratio must exceed 1")


@dataclass(frozen=True)
class DetectorSpec:
    """Detection chain settings (detector plus coupler insertion)."""

    efficiency: float = 0.85
    dark_rate_hz: float = 0.0
    coincidence_window_ps: float = 512.0
    integration_s: float = 10.0
    insertion_loss: float = 0.25

    def __post_init__(self):
        check_settings(self, unit=("efficiency", "insertion_loss"),
                       positive=("coincidence_window_ps", "integration_s"),
                       nonnegative=("dark_rate_hz",))


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


_RECORD_FIELDS = tuple(f.name for f in fields(CountRecord))


class CountTable:
    """Count records[k][c] of a grid as columns: ``counts`` (k, c, 4) int64
    (true, accidental, singles A, singles B), and ``expected_true``,
    ``expected_accidental``, ``p_true`` and the uint64 ``seeds``, each
    (k, c).  It reads as a list whose row k is the list of its
    `CountRecord`s or, once ``keys`` is set, their dict keyed by keys[k][c];
    a row's records are built when it is read."""

    def __init__(self, counts, expected_true, expected_accidental, p_true, seeds):
        self.counts, self.totals = counts, counts[..., 0] + counts[..., 1]
        self.expected_true, self.expected_accidental = expected_true, expected_accidental
        self.p_true, self.seeds, self.keys = p_true, seeds, None

    def _columns(self, k=slice(None)) -> list[list]:
        """Each record field of rows k as one flat list, in field order."""
        return [*self.counts[k].reshape(-1, 4).T.tolist(), *(column[k].ravel().tolist() for column
                in (self.expected_true, self.expected_accidental, self.p_true, self.seeds))]

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, k):  # iteration, too, goes through here until IndexError
        k = range(len(self))[k]  # a list's index rules
        if isinstance(k, range):
            return [self[i] for i in k]
        row = [CountRecord(*values) for values in zip(*self._columns(k))]
        return row if self.keys is None else dict(zip(self.keys[k], row))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (CountTable, list)) else NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def to_jsonable(self) -> list:
        """The rows with each record as the dict of its fields, written
        column by column; a non-finite float becomes its repr string."""
        columns = self._columns()
        columns[4:7] = [[x if math.isfinite(x) else repr(x) for x in floats]
                        for floats in columns[4:7]]
        records = [dict(zip(_RECORD_FIELDS, values)) for values in zip(*columns)]
        n = self.counts.shape[1]
        rows = [records[k * n:(k + 1) * n] for k in range(len(self))]
        return rows if self.keys is None else [dict(zip(*pair)) for pair in zip(self.keys, rows)]


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


# PCG64 runs a 128-bit LCG, held here as (high, low) pairs of uint64
# words; `_mulhi` builds the high word of a 64-bit product from 32-bit
# halves.  Draw t of a stream is one jump from its state x before
# seeding: the seeding step and t + 1 more steps take x to
# A_t * x + S_t * c modulo 2**128, c the stream's increment.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_ONE, _SHIFT11, _SHIFT58, _SHIFT63 = (np.uint64(s) for s in (1, 11, 58, 63))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High words of a * b, uint64 words, each partial sum below 2**64."""
    a0, a1, b0, b1 = a & _LIMB_MASK, a >> _LIMB_BITS, b & _LIMB_MASK, b >> _LIMB_BITS
    low = a1 * b0 + (a0 * b0 >> _LIMB_BITS)
    middle = (low & _LIMB_MASK) + a0 * b1
    return a1 * b1 + (low >> _LIMB_BITS) + (middle >> _LIMB_BITS)


def _jump_table(draws: int) -> np.ndarray:
    """(4, draws) uint64 words A_hi, A_lo, S_hi, S_lo of draws 0, 1, ..."""
    a, s, jumps = _PCG64_MULT, 1, []
    for _ in range(draws):
        a, s = a * _PCG64_MULT % 2**128, (s * _PCG64_MULT + 1) % 2**128
        jumps.append((a >> 64, a & (2**64 - 1), s >> 64, s & (2**64 - 1)))
    return np.array(jumps, dtype=np.uint64).T


_JUMPS = _jump_table(128)


def _pcg64_seed(words: np.ndarray) -> tuple[tuple, tuple]:
    """State before seeding (increment + initial state) and increment
    (2 * stream + 1) of PCG64 seeded with `_seed_hash` words: 64-bit
    words 0, 1 (uint32 pairs, low first) hold the initial state, 2, 3 the stream."""
    w = words.astype(np.uint64)
    init_hi, init_lo, stream_hi, stream_lo = (w[i] | w[i + 1] << _LIMB_BITS for i in (0, 2, 4, 6))
    inc = stream_hi << _ONE | stream_lo >> _SHIFT63, stream_lo << _ONE | _ONE
    lo = init_lo + inc[1]
    return (init_hi + inc[0] + (lo < inc[1]), lo), inc


def _draws(t: np.ndarray, state: tuple, inc: tuple) -> np.ndarray:
    """`Generator.random` draws t of the streams: the top 53 bits of the
    jumped states' XSL-RR output (halves xored, rotated by the top six bits)."""
    table = _JUMPS if t.max(initial=0) < _JUMPS.shape[1] else _jump_table(int(t.max()) + 1)
    (a_hi, a_lo, s_hi, s_lo), (x_hi, x_lo), (c_hi, c_lo) = table[:, t], state, inc
    lo_a = a_lo * x_lo
    lo = lo_a + s_lo * c_lo
    hi = (_mulhi(a_lo, x_lo) + a_lo * x_hi + a_hi * x_lo
          + _mulhi(s_lo, c_lo) + s_lo * c_hi + s_hi * c_lo + (lo < lo_a))
    xored, rot = hi ^ lo, hi >> _SHIFT58
    out = xored >> rot | xored << ((np.uint64(64) - rot) & _SHIFT63)
    return (out >> _SHIFT11) * 2.0**-53


#: Margin of the draws' float tests inside which a record is left to the
#: generator: 16 units of 2**-52 of the sum of their terms' magnitudes.
#: np.log and np.exp may differ from C's in the last place; over 10**5 PTRS
#: log tests (means 10 to 1e9) that moved the sides by at most 0.49 units.
_TIE = 2.0**-48
_LOGGAM_COEFFS = np.array([
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
])
#: random_loggam at 0 (unused), 1, ..., 6: 0 at 1 and 2, and below that
#: the series at 7 less log(6), ..., log(x), one at a time.
_LOGGAM_BELOW_7 = np.zeros(7)


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's random_loggam at whole numbers x >= 1: its series from 7 on
    (a dot product, within an ulp of Horner's order), `_LOGGAM_BELOW_7` below."""
    x0 = np.maximum(x, 7.0)
    gl0 = np.power.outer((1.0 / x0) * (1.0 / x0), np.arange(10)) @ _LOGGAM_COEFFS
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * np.log(x0) - x0
    return np.where(x < 7.0, _LOGGAM_BELOW_7[np.minimum(x, 6.0).astype(np.intp)], gl)


_LOGGAM_BELOW_7[6:2:-1] = np.cumsum([_loggam(np.array(7.0)),
                                     *(-math.log(j) for j in range(6, 2, -1))])[1:]


def _log_test(v, us, k, lam, loglam, a, b, log_invalpha) -> tuple:
    """The sides of PTRS's log test (accept where lhs <= rhs) and its margin
    (terms but log V are nonnegative here; V = 0 makes it infinite)."""
    log_v, log_d = np.log(v), np.log(a / (us * us) + b)
    gam, k_loglam = _loggam(k + 1.0), k * loglam
    lhs, rhs = log_v + log_invalpha - log_d, -lam + k_loglam - gam
    return lhs, rhs, _TIE * (log_invalpha + log_d + lam + k_loglam + gam - log_v)


#: Records drawing above which a PTRS round makes one attempt on each, not three.
_MANY = 256
#: Largest mean the numpy pass draws, below numpy's Poisson limit
#: (about 2.1e9 where a C long has 32 bits).
_BATCH_MAX_MEAN = 1e9


class _NumpyPass:
    """The four draws of each record i of means lam[:, i] (true,
    accidental, singles twice) from its PCG64 stream (states before
    seeding ``state``, increments ``inc``), in rounds on the records
    still drawing: each makes the next attempts, or window of products,
    of each one's current draw.  A zero mean draws 0 and reads nothing.
    ``u[t, i]`` is stream i's draw t for t below ``size[i]``, made as
    `read` needs them.  The buffer is kept for speed: drawing each round's
    values at their stream positions, unbuffered, read slower on a 2-core
    VM (sweep_dense p50 45.0-46.5 -> 47.2-49.4 ms, 6 of 6 alternating runs)."""

    def __init__(self, state: tuple, inc: tuple, lam: np.ndarray):
        self.n = n = inc[0].size
        self.state, self.inc = state, inc
        after = np.full((5, n), 4)  # the first draw from j on with a nonzero mean
        for j in range(3, -1, -1):
            after[j] = np.where(lam[j] > 0, j, after[j + 1])
        ptrs = lam >= 10
        b = 0.931 + 2.53 * np.sqrt(lam)  # numpy's PTRS constants, meaningless below 10
        constants = (lam, np.log(lam), -0.059 + 0.02483 * b, b,
                     np.log(1.1239 + 1.1328 / (b - 3.4)), 0.9277 - 3.6224 / (b - 2))
        rows = 2 * int(ptrs.any(axis=1).sum()) + (0 if n > _MANY else 8)  # 8: three attempts
        self.u, self.size = _draws(np.arange(rows)[:, None], state, inc), np.full(n, rows)
        # Flat over (draw j, record i) at j * n + i:
        self.after, self.ptrs, self.lam = after.ravel(), ptrs.ravel(), lam.ravel()
        self.constants, self.limit = np.reshape(constants, (6, -1)), np.exp(-self.lam)
        self.counts = np.zeros(4 * n, dtype=np.int64)
        # The draw each record makes next: 4 when done, 5 when undecided.
        self.draw, self.cursor, self.prod = after[0].copy(), np.zeros(n, dtype=np.intp), np.ones(n)

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """The (4, n) counts, and the mask of records too close to call."""
        idx = np.flatnonzero(self.draw < 4)
        while idx.size:
            flat = self.draw[idx] * self.n + idx
            ptrs = self.ptrs[flat]
            if ptrs.any():
                self._ptrs(idx[ptrs], flat[ptrs])
            if not ptrs.all():
                self._mult(idx[~ptrs], flat[~ptrs])
            idx = idx[self.draw[idx] < 4]
        return self.counts.reshape(4, -1), self.draw == 5

    def read(self, i: np.ndarray, count: int) -> np.ndarray:
        """(count, m) draws of streams i from their cursors; a short stream gets 8 or more."""
        start = self.cursor[i]
        short = start + count - self.size[i]
        if short.max() > 0:
            i_short = i[short > 0]
            t = self.size[i_short] + np.arange(max(short.max(), 8))[:, None]
            if t.max() >= len(self.u):  # at least doubled
                self.u = np.concatenate([self.u, np.empty((t.max() + 1, self.n))])
            self.u[t, i_short] = _draws(t, *((hi[i_short], lo[i_short])
                                             for hi, lo in (self.state, self.inc)))
            self.size[i_short] = t[-1] + 1
        return self.u[start + np.arange(count)[:, None], i]

    def _advance(self, i, flat, add, read, finished, tie) -> None:
        """Add to the counts of records i's current draws (``flat``), move
        their cursors past what they read, and go on where finished."""
        self.counts[flat] += add
        self.cursor[i] += read
        self.draw[i[tie]] = 5
        self.draw[i[finished]] = self.after[flat[finished] + self.n]

    def _ptrs(self, i: np.ndarray, flat: np.ndarray) -> None:
        """numpy's PTRS draw (random_poisson_ptrs, a mean of 10 or more):
        the count of the first attempt not rejected, or undecided if its
        log test is within the margin or at a k past the exact float range."""
        pairs = 1 if i.size > _MANY else 3
        lam, _, a, b, _, vr = self.constants[:, flat]
        draws = self.read(i, 2 * pairs)
        u, v = draws[0::2] - 0.5, draws[1::2]
        us = 0.5 - np.abs(u)
        k = np.floor((2 * a / us + b) * u + lam + 0.43)  # -inf, a reject, at us = 0
        accept = (us >= 0.07) & (v <= vr)
        reject = ~accept & ((k < 0) | ((us < 0.013) & (v > us)))
        tested = np.nonzero(~(accept | reject))
        if tested[0].size:
            r, kt = tested[1], k[tested]
            lhs, rhs, margin = _log_test(v[tested], us[tested], kt, *self.constants[:5, flat[r]])
            decided = (np.abs(lhs - rhs) > margin) & (kt < 2.0**53)
            accept[tested], reject[tested] = decided & (lhs <= rhs), decided & (lhs > rhs)
        first = np.argmin(reject, axis=0)  # each record's first attempt not rejected
        records = np.arange(i.size)
        done, accepted = ~reject[first, records], accept[first, records]
        count = np.where(accepted, k[first, records], 0.0).astype(np.int64)
        self._advance(i, flat, count, np.where(done, 2 * first + 2, 2 * pairs), accepted,
                      done & ~accepted)

    def _mult(self, i: np.ndarray, flat: np.ndarray) -> None:
        """numpy's multiplication draw (random_poisson_mult, a mean in (0,
        10)): how many running products of the draws stay above exp(-lam),
        a window a round; undecided if one is within `_TIE` of it."""
        limit, lam = self.limit[flat], self.lam[flat].max()
        window = int(lam + 3.0 * math.sqrt(lam)) + 2  # the count three deviations out, and one
        draws = self.read(i, window)
        draws[0] *= self.prod[i]  # numpy's order: ((1 * U0) * U1) * ...
        prods = np.multiply.accumulate(draws, axis=0)
        above = prods > limit
        stop = np.argmin(above, axis=0)  # the first product at or below exp(-lam)
        done = ~above[stop, np.arange(i.size)]
        read = np.where(done, stop + 1, window)
        tie = np.any((np.abs(prods - limit) <= _TIE * limit)
                     & (np.arange(window)[:, None] < read), axis=0)
        self.prod[i] = np.where(done, 1.0, prods[-1])
        self._advance(i, flat, read - done, read, done & ~tie, tie)


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
) -> CountTable:
    """The `CountTable` of records[k][c] of the probabilities p[k, c],
    record (k, c) drawn with the uint64 seed seeds[k, c] and accidental
    weight w[k, c] (``accidental_weight`` broadcast to p).

    Record (k, c) is exactly four draws of np.random.default_rng(seeds[k, c]):
    true, accidental, singles A and singles B counts, Poisson with the
    means of the module docstring.  A grid whose every p_true is in
    [0, 1] and every mean in [0, `_BATCH_MAX_MEAN`] is drawn in numpy
    (`_seed_hash`, `_pcg64_seed`, `_NumpyPass`), and `_loop_counts`
    draws the records that pass finds too close to call; it draws every
    record of any other grid.
    Raises `DomainError` at the first record, in row-major order, whose
    p_true is outside [0, 1] or whose Poisson mean the generator cannot
    draw (NaN, or too large for a 64-bit count).
    """
    p = np.array(p, dtype=float)  # a copy the table keeps
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

    seeds = np.array(seeds, dtype=np.uint64).ravel()
    p_flat, true_flat, acc_flat = p.ravel(), lam_true.ravel(), lam_acc.ravel()
    lam = np.empty((4, p.size))
    lam[0], lam[1], lam[2:] = true_flat, acc_flat, lam_single
    with np.errstate(invalid="ignore"):  # NaN fails every range test
        batch = (np.all((0.0 <= p_flat) & (p_flat <= 1.0 + 1e-12))
                 and np.all((0.0 <= lam) & (lam <= _BATCH_MAX_MEAN)))
    counts, loop = np.zeros((p.size, 4), dtype=np.int64), np.arange(p.size)
    if batch:
        with np.errstate(divide="ignore", invalid="ignore"):
            counts, undecided = _NumpyPass(*_pcg64_seed(_seed_hash(seeds)), lam).run()
        counts, loop = counts.T, np.flatnonzero(undecided)
    if loop.size:
        counts[loop] = _loop_counts(p_flat[loop], true_flat[loop], acc_flat[loop], lam_single,
                                    seeds[loop])
    return CountTable(counts.reshape(*p.shape, 4), lam_true, lam_acc, p, seeds.reshape(p.shape))


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
