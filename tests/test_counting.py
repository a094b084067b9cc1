"""Counting layer tests: sources, sampling, histogram, metrics."""

import json
import math
import pickle
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqbin.counting import (
    CountRecord,
    CountTable,
    DetectorSpec,
    MetricResult,
    SourceSpec,
    g2_histogram,
    hofmann_bound,
    indistinguishability_mix,
    sample_counts,
    sample_grid,
    truth_table_fidelity,
    visibility_hom,
    visibility_minmax,
)
from freqbin import counting
from freqbin.counting import _TIE, _draws, _exp_window_convolution, _log_test, _pcg64_seed
from freqbin.counting import _seed_hash
from freqbin.errors import DomainError, ValidationError
from freqbin.experiments import (
    _jsonable,
    default_chip_config,
    run_bell,
    run_cz,
    run_fmzi,
    run_hom,
)


class TestSources:
    def test_invalid_specs(self):
        with pytest.raises(ValidationError):
            SourceSpec(car=0.5)
        with pytest.raises(ValidationError):
            SourceSpec(indistinguishability=1.5)
        with pytest.raises(ValidationError):
            SourceSpec(pair_rate_hz=0.0)


class TestMixing:
    def test_endpoints(self):
        assert indistinguishability_mix(0.2, 0.8, 1.0) == 0.2
        assert indistinguishability_mix(0.2, 0.8, 0.0) == 0.8

    def test_balanced_hom_level(self):
        p = indistinguishability_mix(0.0, 0.5, 0.949)
        assert (0.5 - p) / 0.5 == pytest.approx(0.949)


class TestSampling:
    def test_zero_probability_zero_counts(self):
        d = DetectorSpec(dark_rate_hz=0.0)
        s = SourceSpec(car=math.inf)
        rec = sample_counts(0.0, d, s, seed=4)
        assert rec.true_coincidences == 0
        assert rec.accidental_coincidences == 0

    def test_seed_determinism(self):
        d = DetectorSpec()
        s = SourceSpec(car=50.0)
        a = sample_counts(0.3, d, s, seed=99)
        b = sample_counts(0.3, d, s, seed=99)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_poisson_mean(self):
        # lambda_true = 1000 exactly: rate 1000/s, 1 s, unit arm efficiency.
        d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
        s = SourceSpec(pair_rate_hz=1000.0, car=math.inf)
        draws = [
            sample_counts(1.0, d, s, seed=k).true_coincidences for k in range(200)
        ]
        sigma_mean = math.sqrt(1000.0 / 200.0)
        assert abs(np.mean(draws) - 1000.0) < 3.0 * sigma_mean

    def test_estimator_consistency_high_flux(self):
        # Fringe visibility estimates converge to the analytic value.
        d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
        s = SourceSpec(pair_rate_hz=2.0e6, car=math.inf)
        v_true = 0.8
        phases = np.linspace(0.0, 2.0 * math.pi, 25)
        estimates = []
        for seed in range(50):
            counts = [
                sample_counts(
                    0.5 * (1.0 + v_true * math.cos(p)), d, s, seed=seed * 1000 + k
                ).true_coincidences
                for k, p in enumerate(phases)
            ]
            estimates.append(visibility_minmax(counts).value)
        assert abs(np.mean(estimates) - v_true) / v_true < 0.005

    @pytest.mark.parametrize("d, s", [
        (DetectorSpec(integration_s=1e300), SourceSpec()),
        (DetectorSpec(), SourceSpec(pair_rate_hz=1e300)),
        (DetectorSpec(dark_rate_hz=1e300), SourceSpec()),
        (DetectorSpec(integration_s=1e20), SourceSpec(car=1.0000001)),
    ], ids=["integration", "pair-rate", "dark-rate", "accidentals"])
    def test_mean_past_the_generator_range_is_a_domain_error(self, d, s):
        # Used to escape as numpy's ValueError "lam value too large".
        with pytest.raises(DomainError, match="cannot draw counts"):
            sample_counts(0.5, d, s, seed=1)

    def test_record_json_field_order(self):
        rec = sample_counts(0.5, DetectorSpec(), SourceSpec(car=10.0), seed=1)
        keys = list(json.loads(rec.to_json()))
        assert keys[:4] == [
            "true_coincidences",
            "accidental_coincidences",
            "singles_a",
            "singles_b",
        ]


@pytest.mark.parametrize("rows", [1, 20])
def test_grid_record_is_a_count_record(rows):
    p = np.linspace(0.0, 1.0, rows * 4).reshape(rows, 4)
    seeds = np.arange(rows * 4, dtype=np.uint64).reshape(rows, 4) + 2**63
    for rec in (r for row in sample_grid(p, DetectorSpec(), SourceSpec(car=25.0), seeds)
                for r in row):
        built = CountRecord(rec.true_coincidences, rec.accidental_coincidences, rec.singles_a,
                            rec.singles_b, rec.expected_true, rec.expected_accidental,
                            rec.p_true, rec.seed)
        assert type(rec) is CountRecord
        assert vars(rec) == vars(built) and list(vars(rec)) == list(vars(built))
        assert asdict(rec) == asdict(built) and rec.to_json() == built.to_json()
        assert rec == built and hash(rec) == hash(built)
        assert replace(rec, seed=3) == replace(built, seed=3)
        assert pickle.loads(pickle.dumps(rec)) == built
        with pytest.raises(FrozenInstanceError):
            rec.seed = 3
        assert rec.seed == built.seed


def _grid(rows, cols, seed, car=25.0):
    """A sampled (rows, cols) grid of probabilities 0..1 on consecutive seeds."""
    n = rows * cols
    p = np.linspace(0.0, 1.0, n).reshape(rows, cols)
    seeds = np.array([(seed + k) % 2**64 for k in range(n)], dtype=np.uint64)
    return sample_grid(p, DetectorSpec(), SourceSpec(car=car), seeds.reshape(rows, cols),
                       np.linspace(0.5, 1.5, n).reshape(rows, cols))


class TestCountTable:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 60), cols=st.integers(1, 4), seed=st.integers(0, 2**64 - 1),
           car=st.sampled_from([math.inf, 25.0]))
    @example(rows=55, cols=1, seed=0, car=25.0)
    @example(rows=14, cols=4, seed=0, car=25.0)
    def test_rows_hold_count_records(self, rows, cols, seed, car):
        table = _grid(rows, cols, seed, car)
        assert len(table) == rows and table.counts.shape == (rows, cols, 4)
        assert table.counts.dtype == np.int64 and table.seeds.dtype == np.uint64
        np.testing.assert_array_equal(table.totals, table.counts[..., 0] + table.counts[..., 1])
        rows_read = list(table)
        assert [type(row) for row in rows_read] == [list] * rows
        for k, row in enumerate(rows_read):
            assert len(row) == cols
            for c, rec in enumerate(row):
                built = CountRecord(*table.counts[k, c].tolist(), float(table.expected_true[k, c]),
                                    float(table.expected_accidental[k, c]),
                                    float(table.p_true[k, c]), (seed + k * cols + c) % 2**64)
                assert type(rec) is CountRecord and table[k][c] == rec
                assert [type(v) for v in vars(rec).values()] == [int] * 4 + [float] * 3 + [int]
                assert rec == built and hash(rec) == hash(built)
                assert asdict(rec) == asdict(built) and rec.to_json() == built.to_json()
                assert replace(rec, seed=3) == replace(built, seed=3)
                assert pickle.loads(pickle.dumps(rec)) == built
                assert rec.total_coincidences == table.totals[k, c]

    def test_keyed_rows_read_as_dicts(self):
        table = _grid(3, 2, 7)
        records = list(table)
        table.keys = [("a", "b"), ("c", "d"), ("e", "f")]
        want = [dict(zip(keys, row)) for keys, row in zip(table.keys, records)]
        same, other = _grid(3, 2, 7), _grid(3, 2, 8)
        assert table != same == records  # keyless rows are lists
        same.keys = other.keys = table.keys
        assert table == want and want == table and table == same and table != want[:2]
        assert table != other and table != 5
        for k in range(-3, 3):
            assert table[k] == want[k]
            assert list(table[k].keys()) == list(want[k].keys())
            assert list(table[k].values()) == list(want[k].values())
            assert list(table[k].items()) == list(want[k].items())
        assert table[1]["d"] == records[1][1]
        assert table[1:] == want[1:] and table[::-2] == want[::-2] and table[5:] == []
        assert list(reversed(table)) == want[::-1] and repr(table) == repr(want)
        for k in (3, -4, 2**70):
            with pytest.raises(IndexError):
                table[k]
        with pytest.raises(TypeError):
            table["a"]

    @pytest.mark.parametrize("rows", [3, 20])
    @pytest.mark.parametrize("keyed", [False, True])
    def test_json_is_that_of_the_records(self, rows, keyed):
        table = _grid(rows, 4, 2**63)
        if keyed:
            table.keys = [[f"{k}->{c}" for c in range(4)] for k in range(rows)]
        assert json.dumps(_jsonable(table), indent=2) == json.dumps(_jsonable(list(table)), indent=2)

    def test_json_of_a_non_finite_float_is_its_repr(self):
        counts = np.arange(8, dtype=np.int64).reshape(1, 2, 4)
        table = CountTable(counts, np.array([[math.inf, 1.0]]), np.array([[0.5, math.nan]]),
                           np.array([[0.1, -math.inf]]), np.array([[1, 2**64 - 1]], np.uint64))
        got = _jsonable(table)
        assert got == _jsonable(list(table))
        assert [got[0][0]["expected_true"], got[0][1]["expected_accidental"],
                got[0][1]["p_true"], got[0][1]["seed"]] == ["inf", "nan", "-inf", 2**64 - 1]

    @pytest.mark.parametrize("run", [
        lambda cfg: run_fmzi(cfg, np.linspace(0.0, 6.0, 20), mode="quantum", seed=5),
        lambda cfg: run_hom(cfg, np.linspace(0.0, 1.0, 11), seed=5, sample=True),
        lambda cfg: run_bell(cfg, np.linspace(0.0, 6.0, 15), seed=5, sample=True),
        lambda cfg: run_cz(cfg, "xz", {"car"}, seed=5, sample=True),
    ], ids=["fmzi", "hom", "bell", "cz"])
    def test_result_json_is_that_of_the_records(self, run):
        cfg = replace(default_chip_config(), source=replace(default_chip_config().source, car=14.0))
        res = run(cfg)
        eager = replace(res, counts=list(res.counts))
        assert type(eager.counts[0]) is dict and res.counts == eager.counts
        assert res.to_json() == eager.to_json()


#: A bright setting (Poisson means of 1e4 to 1e7: numpy's PTRS sampler)
#: and a dim one (means below 10: its multiplication method).
BRIGHT = (DetectorSpec(), SourceSpec(car=25.0))
DIM = (DetectorSpec(integration_s=0.1), SourceSpec(pair_rate_hz=100.0, car=2.0))


class TestPinnedCounts:
    # (true, accidental, singles A, singles B) of sample_counts(0.4, ...,
    # accidental_weight=0.7): any change to the seed hash, the generator
    # or the draw order moves them.
    @pytest.mark.parametrize("seed, bright, dim", [
        (0, (361487, 24879, 4252069, 4250626), (0, 0, 0, 0)),
        (2**32 - 1, (360798, 25187, 4254003, 4250118), (0, 0, 3, 2)),
        (2**32, (362110, 24960, 4251853, 4251391), (1, 0, 1, 2)),
        (2**64 - 1, (361566, 25081, 4250523, 4253332), (0, 0, 0, 1)),
    ])
    def test_counts_of_boundary_seeds(self, seed, bright, dim):
        for (d, s), want in ((BRIGHT, bright), (DIM, dim)):
            rec = sample_counts(0.4, d, s, seed, accidental_weight=0.7)
            got = (rec.true_coincidences, rec.accidental_coincidences,
                   rec.singles_a, rec.singles_b)
            assert got == want
            assert rec.seed == seed

    def test_record_keeps_the_callers_seed(self):
        # The stream is the seed modulo 2**64; the record keeps the int given.
        a = sample_counts(0.4, *BRIGHT, seed=-1)
        b = sample_counts(0.4, *BRIGHT, seed=2**64 - 1)
        assert a.seed == -1 and b.seed == 2**64 - 1
        assert a.true_coincidences == b.true_coincidences


_UINT64 = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_UINT64, min_size=1, max_size=8))
@example([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_are_seed_sequence_state(seeds):
    words = _seed_hash(np.array(seeds, dtype=np.uint64))
    assert words.shape == (8, len(seeds))
    for seed, column in zip(seeds, words.T):
        np.testing.assert_array_equal(
            column, np.random.SeedSequence(seed).generate_state(8, np.uint32))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    setting=st.sampled_from([BRIGHT, DIM]),
    data=st.data(),
)
def test_batched_records_are_default_rng_draws(shape, setting, data):
    n = shape[0] * shape[1]
    seeds = data.draw(st.lists(_UINT64, min_size=n, max_size=n))
    p = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    w = data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    d, s = setting
    records = sample_grid(np.reshape(p, shape), d, s,
                          np.reshape(np.array(seeds, dtype=np.uint64), shape),
                          np.reshape(w, shape))
    flat = [rec for row in records for rec in row]
    assert [len(row) for row in records] == [shape[1]] * shape[0]
    arm = d.efficiency * d.insertion_loss
    exposure = s.pair_rate_hz * d.integration_s
    lam_single = exposure * arm + d.dark_rate_hz * d.integration_s
    for rec, seed, p_true, weight in zip(flat, seeds, p, w):
        lam_true = exposure * p_true * arm * arm
        lam_acc = exposure * arm * arm / s.car * weight
        rng = np.random.default_rng(seed)
        draws = [int(rng.poisson(lam)) for lam in (lam_true, lam_acc, lam_single, lam_single)]
        assert [rec.true_coincidences, rec.accidental_coincidences,
                rec.singles_a, rec.singles_b] == draws
        assert (rec.expected_true, rec.expected_accidental) == (lam_true, lam_acc)
        assert (rec.p_true, rec.seed) == (p_true, seed)


@settings(max_examples=20, deadline=None)
@given(st.lists(_UINT64, min_size=1, max_size=4))
@example([0, 2**64 - 1])
def test_stream_draws_are_generator_random(seeds):
    # Draw t is one jump from the state before seeding; 300 draws run past
    # the 128 tabled jumps.
    state, inc = _pcg64_seed(_seed_hash(np.array(seeds, dtype=np.uint64)))
    draws = _draws(np.arange(300)[:, None], state, inc)
    for column, seed in zip(draws.T, seeds):
        np.testing.assert_array_equal(column, np.random.default_rng(seed).random(300))


def _default_rng_counts(seed, means):
    rng = np.random.default_rng(seed)
    return [int(rng.poisson(lam)) for lam in means]


#: Poisson means by numpy's sampling rule: none, multiplication below
#: 10, PTRS from 10 on (its log test is frequent below about 40).
_MEANS = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 10.0, exclude_max=True),
    st.just(10.0),
    st.floats(10.0, 40.0, exclude_max=True),
    st.floats(40.0, 1e8),
)
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32 + 1, 2**64 - 1]), _UINT64)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 80),
    cols=st.integers(1, 4),
    singles=_MEANS.filter(lambda m: m > 0.0),
    car=st.sampled_from([math.inf, 2.0]),
    true_means=st.lists(_MEANS, min_size=1, max_size=12),
    acc_means=st.lists(_MEANS, min_size=1, max_size=12),
    drawn=st.lists(_SEEDS, min_size=1, max_size=12),
)
# Four draws by multiplication near a mean of 10, about 22 pairs a
# record; at seed 3837 the first draw runs past its first window of products.
@example(rows=3, cols=2, singles=9.9, car=2.0, true_means=[9.9], acc_means=[9.9],
         drawn=[3837])
# More records than one-attempt rounds take, and no PTRS draw at all.
@example(rows=70, cols=4, singles=5.0, car=2.0, true_means=[3.0], acc_means=[0.0, 2.0],
         drawn=[7])
@example(rows=1, cols=1, singles=1e8, car=2.0, true_means=[40.0], acc_means=[0.0],
         drawn=[2**64 - 1])
def test_numpy_pass_records_are_default_rng_draws(rows, cols, singles, car, true_means,
                                                  acc_means, drawn):
    # Grids of every size from 1x1.  Unit arm efficiency and no dark
    # counts: the singles mean is the exposure, the true mean exposure *
    # p, the accidental exposure / car * w.  Means and seeds are short
    # lists repeated along the grid (a value per record makes the test
    # slow); the seed gains k // len(drawn) at record k, so no two
    # records share a stream.
    shape = (rows, cols)
    n = shape[0] * shape[1]
    d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
    s = SourceSpec(pair_rate_hz=singles, car=car)
    seeds = [(drawn[k % len(drawn)] + k // len(drawn)) % 2**64 for k in range(n)]
    p = np.minimum(np.resize(true_means, n) / singles, 1.0)
    w = np.resize(acc_means, n) / (singles / car) if math.isfinite(car) else np.ones(n)
    records = sample_grid(p.reshape(shape), d, s,
                          np.array(seeds, dtype=np.uint64).reshape(shape), w.reshape(shape))
    flat = [rec for row in records for rec in row]
    assert len(flat) == n
    for rec, seed in zip(flat, seeds):
        want = _default_rng_counts(seed, (rec.expected_true, rec.expected_accidental,
                                          singles, singles))
        assert [rec.true_coincidences, rec.accidental_coincidences,
                rec.singles_a, rec.singles_b] == want
        assert rec.seed == seed


#: numpy's random_loggam coefficients (numpy/random/src/distributions/
#: distributions.c).
_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
             -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
             6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
             -1.39243221690590e+00)


def _c_loggam(x: float) -> float:
    """numpy's random_loggam line by line, with the C library's log."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_A[9]
    for coeff in _LOGGAM_A[8::-1]:
        gl0 = gl0 * x2 + coeff
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


@settings(max_examples=50, deadline=None)
@given(lam=st.one_of(st.floats(10.0, 40.0), st.floats(40.0, 1e9)), seed=_UINT64)
@example(lam=4.25e8, seed=0)  # the gate's singles mean
def test_tie_margin_is_ten_times_the_log_gap(lam, seed):
    # PTRS attempts at mean lam that reach the log test: each side as the
    # numpy pass computes it (np.log) against numpy's C formula with the
    # C library's log (math.log); the margin must be ten times the gap.
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    rng = np.random.default_rng(seed)
    u, v = rng.random(2000) - 0.5, rng.random(2000)
    us = 0.5 - np.abs(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor((2 * a / us + b) * u + lam + 0.43)
    tested = ~((us >= 0.07) & (v <= vr)) & (k >= 0) & ~((us < 0.013) & (v > us)) & (v > 0)
    v, us, k = v[tested], us[tested], k[tested]
    assert v.size > 100
    lhs, rhs, margin = _log_test(v, us, k, lam, np.log(lam), a, b, np.log(invalpha))
    for i in range(v.size):
        lhs_c = math.log(v[i]) + math.log(invalpha) - math.log(a / (us[i] * us[i]) + b)
        rhs_c = -lam + k[i] * math.log(lam) - _c_loggam(k[i] + 1.0)
        assert 10 * abs((lhs[i] - rhs[i]) - (lhs_c - rhs_c)) <= margin[i]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-12, 10.0, exclude_max=True), min_size=1, max_size=200))
def test_tie_margin_is_ten_times_the_exp_gap(means):
    # The multiplication rule compares running products with exp(-lam).
    limit = np.exp(-np.array(means))
    for lam, got in zip(means, limit):
        assert 10 * abs(got - math.exp(-lam)) <= _TIE * got


def test_valid_grids_never_reach_the_loop(monkeypatch):
    # Every record of these grids is drawn by the numpy pass: the loop,
    # and with it numpy.random, is left for ties and invalid grids.
    def loop(*args):
        raise AssertionError("a record reached the reference loop")

    monkeypatch.setattr(counting, "_loop_counts", loop)
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1):
        for d, s in (BRIGHT, DIM):
            sample_counts(0.4, d, s, seed, accidental_weight=0.7)
    cfg = replace(default_chip_config(), source=replace(default_chip_config().source, car=14.0))
    run_fmzi(cfg, np.linspace(0.0, 6.0, 41), mode="quantum", seed=5)
    run_hom(cfg, np.linspace(0.0, 1.0, 41), seed=5, sample=True)
    run_bell(cfg, np.linspace(0.0, 6.0, 41), seed=5, sample=True)
    run_cz(cfg, "xz", {"car"}, seed=5, sample=True)
    assert sample_grid(np.zeros((0, 3)), *BRIGHT, np.zeros((0, 3), np.uint64)).counts.shape \
        == (0, 3, 4)


def _assert_default_rng_records(table, singles):
    for row, seeds in zip(table, table.seeds.tolist()):
        for rec, seed in zip(row, seeds):
            want = _default_rng_counts(seed, (rec.expected_true, rec.expected_accidental,
                                              singles, singles))
            assert [rec.true_coincidences, rec.accidental_coincidences,
                    rec.singles_a, rec.singles_b] == want


def _loop_calls(monkeypatch) -> list:
    """Record the number of records of each `_loop_counts` call."""
    calls, loop = [], counting._loop_counts

    def counted(p, *args):
        calls.append(len(p))
        return loop(p, *args)

    monkeypatch.setattr(counting, "_loop_counts", counted)
    return calls


def test_records_too_close_to_call_are_the_loops(monkeypatch):
    # With a margin of 1 the numpy pass finds its float tests too close to
    # call and leaves those records to the reference loop.
    monkeypatch.setattr(counting, "_TIE", 1.0)
    calls = _loop_calls(monkeypatch)
    d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
    s = SourceSpec(pair_rate_hz=30.0, car=2.0)
    p = np.array([[0.0, 0.1, 0.5], [1.0, 0.02, 0.9]])
    seeds = np.arange(6, dtype=np.uint64).reshape(2, 3) + np.uint64(2**63)
    table = sample_grid(p, d, s, seeds, accidental_weight=0.3)
    assert calls and sum(calls) <= p.size
    _assert_default_rng_records(table, 30.0)


def test_means_past_the_numpy_pass_are_the_loops(monkeypatch):
    # A singles mean of 4e9, above _BATCH_MAX_MEAN: every record is drawn
    # by the reference loop.
    calls = _loop_calls(monkeypatch)
    d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
    s = SourceSpec(pair_rate_hz=4e9, car=2.0)
    assert 4e9 > counting._BATCH_MAX_MEAN
    p = np.array([[1e-3, 0.5], [0.0, 1e-9]])
    table = sample_grid(p, d, s, np.array([[1, 2], [3, 2**64 - 1]], dtype=np.uint64), 1e-6)
    assert calls == [p.size]
    _assert_default_rng_records(table, 4e9)


_LARGE_GRID = 112


@settings(max_examples=30, deadline=None)
@given(
    position=st.integers(0, _LARGE_GRID - 1),
    bad=st.sampled_from([("p", 1.5), ("p", -0.1), ("p", math.nan),
                         ("w", math.nan), ("w", 1e300)]),
    seed=_UINT64,
)
def test_invalid_record_in_a_large_grid_is_the_loops_error(position, bad, seed):
    # A large grid with one invalid record raises what drawing that record
    # alone raises.
    d, s = BRIGHT
    n = _LARGE_GRID
    p, w = np.full(n, 0.4), np.full(n, 0.7)
    field, value = bad
    (p if field == "p" else w)[position] = value
    seeds = np.array([(seed + k) % 2**64 for k in range(n)], dtype=np.uint64)
    with pytest.raises(DomainError) as alone:
        sample_grid(p[position:position + 1, None], d, s, seeds[position:position + 1, None],
                    w[position:position + 1, None])
    with pytest.raises(DomainError) as whole:
        sample_grid(p.reshape(-1, 2), d, s, seeds.reshape(-1, 2), w.reshape(-1, 2))
    assert str(whole.value) == str(alone.value)


_RAISE_SITES = {
    "sigma NaN": (lambda: MetricResult(0.5, math.nan), ValidationError,
                  "sigma must be finite and nonnegative"),
    "sigma negative": (lambda: MetricResult(0.5, -0.1), ValidationError,
                       "sigma must be finite and nonnegative"),
    "mix parameter": (lambda: indistinguishability_mix(0.2, 0.3, 1.5), DomainError,
                      r"mixing parameter must lie in \[0, 1\]"),
    "g2 linewidth": (lambda: g2_histogram([0.0], 0.0, 512.0), DomainError,
                     "linewidth and window must be positive"),
    "g2 window": (lambda: g2_histogram([0.0], 202.0, -1.0), DomainError,
                  "linewidth and window must be positive"),
    "fringe of one value": (lambda: visibility_minmax([1.0]), DomainError,
                            "need at least two values"),
    "negative fringe": (lambda: visibility_minmax([1.0, -0.5]), DomainError,
                        "fringe values must be nonnegative"),
    "negative dip counts": (lambda: visibility_hom(10.0, -1.0), DomainError,
                            "counts must be nonnegative"),
    # Twelve zeros and four ones, but two of the ones share column 0.
    "ideal column sums": (lambda: truth_table_fidelity(np.ones((4, 4)), np.eye(4)[[0, 0, 2, 3]]),
                          ValidationError, "ideal table must be a permutation matrix"),
    "empty measured row": (lambda: truth_table_fidelity(np.diag([1.0, 1.0, 0.0, 1.0]),
                                                        np.eye(4)),
                           ValidationError, "measured table has an empty row"),
    "basis fidelity above 1": (lambda: hofmann_bound(1.2, 0.5), DomainError,
                               r"basis fidelities must lie in \[0, 1\]"),
    "basis fidelity NaN": (lambda: hofmann_bound(0.9, math.nan), DomainError,
                           r"basis fidelities must lie in \[0, 1\]"),
}


@pytest.mark.parametrize("site", list(_RAISE_SITES))
def test_raise_sites(site):
    call, error, message = _RAISE_SITES[site]
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestHistogram:
    def test_peak_normalization_and_symmetry(self):
        tau = np.linspace(-4000.0, 4000.0, 1601)
        h = g2_histogram(tau, 202.0, 512.0)
        assert h.max() == pytest.approx(1.0)
        assert np.max(np.abs(h - h[::-1])) < 1e-12

    def test_decay_constant_is_lorentzian_coherence_time(self):
        # 202 MHz Lorentzian: tau_c = 1 / (2 pi * 202e6) = 787.9 ps.
        tau_c = 1.0e6 / (2.0 * math.pi * 202.0)
        assert tau_c == pytest.approx(787.9, abs=0.1)
        # Far from the window edge the histogram decays as exp(-tau/tau_c).
        h = g2_histogram(np.array([1500.0, 1500.0 + tau_c]), 202.0, 10.0)
        assert h[1] / h[0] == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_area_invariant_under_window(self):
        tau = np.linspace(-30000.0, 30000.0, 120001)
        tau_c = 1.0e6 / (2.0 * math.pi * 202.0)
        areas = [
            np.trapezoid(_exp_window_convolution(tau, tau_c, w), tau)
            for w in (64.0, 512.0)
        ]
        assert abs(areas[0] - areas[1]) < 1e-9 * areas[0]


class TestMetrics:
    def test_minmax_values(self):
        m = visibility_minmax([100, 2])
        assert m.value == pytest.approx(98.0 / 102.0)
        assert m.sigma > 0.0
        assert visibility_minmax([5.0, 5.0, 5.0]).value == 0.0

    def test_minmax_recovers_fringe(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 100001)
        fringe = 1.0 + 0.7 * np.sin(phi)
        assert visibility_minmax(fringe).value == pytest.approx(0.7, abs=1e-6)

    def test_minmax_rejects_empty_fringe(self):
        with pytest.raises(DomainError):
            visibility_minmax([0.0, 0.0])

    def test_counts_are_said_by_type(self):
        # A probability fringe or table of whole numbers is no count data:
        # only an integer array gets a Poisson or binomial error.
        flat = visibility_minmax([1.0, 1.0])
        assert (flat.value, flat.sigma, flat.method) == (0.0, 0.0, "minmax")
        counted = visibility_minmax(np.array([1, 1]))
        assert counted.method == "minmax, poisson error" and counted.sigma > 0.0
        ideal = np.eye(4)
        table = 3 * ideal + 1
        assert truth_table_fidelity(table.astype(float), ideal).sigma == 0.0
        assert truth_table_fidelity(table.astype(int), ideal).sigma > 0.0

    def test_hom_visibility(self):
        assert visibility_hom(1000, 0).value == 1.0
        assert visibility_hom(1000, 51).value == pytest.approx(0.949)
        with pytest.raises(DomainError):
            visibility_hom(0, 0)

    def test_truth_table_fidelity(self):
        ident = np.eye(4)
        assert truth_table_fidelity(ident, ident).value == 1.0
        uniform = np.full((4, 4), 0.25)
        assert truth_table_fidelity(uniform, ident).value == pytest.approx(0.25)
        with pytest.raises(ValidationError):
            truth_table_fidelity(np.eye(3), np.eye(3))
        with pytest.raises(ValidationError):
            truth_table_fidelity(ident, uniform)

    def test_hofmann_bound(self):
        assert hofmann_bound(1.0, 1.0) == (1.0, False)
        value, clamped = hofmann_bound(0.95, 0.964)
        assert value == pytest.approx(0.914)
        assert not clamped
        assert hofmann_bound(0.4, 0.4) == (0.0, True)
