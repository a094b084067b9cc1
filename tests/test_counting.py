"""Counting layer tests: sources, sampling, histogram, metrics."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqbin.counting import (
    DetectorSpec,
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
from freqbin.counting import _exp_window_convolution, _seed_words
from freqbin.counting import _BATCH_MIN_RECORDS
from freqbin.errors import DomainError, ValidationError


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
    words = _seed_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4)
    for seed, row in zip(seeds, words):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


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
    cols=st.integers(1, 4),
    extra_rows=st.integers(0, 6),
    singles=_MEANS.filter(lambda m: m > 0.0),
    car=st.sampled_from([math.inf, 2.0]),
    data=st.data(),
)
def test_numpy_pass_records_are_default_rng_draws(cols, extra_rows, singles, car, data):
    # Unit arm efficiency and no dark counts: the singles mean is the
    # exposure, the true mean exposure * p, the accidental exposure / car * w.
    # Means and seeds are drawn as short lists and repeated along the
    # grid (drawing a value per record makes the test slow); the seed
    # gains k // len(drawn) at record k, so no two records share a stream.
    shape = (-(-_BATCH_MIN_RECORDS // cols) + extra_rows, cols)
    n = shape[0] * shape[1]
    d = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
    s = SourceSpec(pair_rate_hz=singles, car=car)
    true_means, acc_means, drawn = (data.draw(st.lists(values, min_size=1, max_size=12))
                                    for values in (_MEANS, _MEANS, _SEEDS))
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


@settings(max_examples=30, deadline=None)
@given(
    position=st.integers(0, 2 * _BATCH_MIN_RECORDS - 1),
    bad=st.sampled_from([("p", 1.5), ("p", -0.1), ("p", math.nan),
                         ("w", math.nan), ("w", 1e300)]),
    seed=_UINT64,
)
def test_invalid_record_in_a_large_grid_is_the_loops_error(position, bad, seed):
    # A large grid with one invalid record raises what drawing that record
    # alone raises.
    d, s = BRIGHT
    n = 2 * _BATCH_MIN_RECORDS
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
