"""Acceptance gate: every headline criterion at its stated tolerance.

Each test prints one pass line (visible with ``pytest -s``).  Calibrated
settings that stand in for unpublished device rates (coincidence-to-
accidental ratios, integration times, source coherence) are the
documented constants in freqbin.experiments.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from freqbin.counting import DetectorSpec, SourceSpec, sample_counts
from freqbin.elements import FilterParams, filter_response
from freqbin.experiments import (
    BELL_SOURCE_COHERENCE,
    CAR_BELL,
    CAR_CZ,
    CAR_FMZI_QUANTUM,
    HOM_INDISTINGUISHABILITY,
    default_chip_config,
    run_bell,
    run_cz,
    run_cz_characterization,
    run_fmzi,
    run_hom,
)
from freqbin.fock import (
    ModeTransform,
    apply_transform,
    fock_state,
    grid_from_indices,
    transition_amplitude,
)
from freqbin.resonator import DRParams, dr_through_spectrum, eo_resonance_shift, fit_doublet

PHASES = np.linspace(0.0, 2.0 * math.pi, 41)


def _report(number, detail):
    print(f"[acceptance] criterion {number}: PASS  ({detail})")


def _occupations(n_modes, n_photons):
    for combo in itertools.combinations_with_replacement(range(n_modes), n_photons):
        occ = [0] * n_modes
        for m in combo:
            occ[m] += 1
        yield tuple(occ)


def test_criterion_1_cz_success_probability():
    """Ideal gate: joint probability 1/9 on the diagonal of the
    computational table, 0 elsewhere, within 1e-10, in under a second."""
    cfg = default_chip_config()
    start = time.monotonic()
    res = run_cz(cfg, "zz")
    elapsed = time.monotonic() - start
    table = np.asarray(res.extras["table_exact"])
    ideal = np.asarray(res.extras["table_ideal"]) / 9.0
    worst = float(np.max(np.abs(table - ideal)))
    assert worst < 1e-10
    assert elapsed < 1.0
    _report(1, f"16 joint checks, worst error {worst:.2e}, runtime {elapsed:.3f}s")


def test_criterion_2_cz_truth_tables_and_bound():
    """Exact permutations ideally; bound >= 0.984 with the imperfection
    set at infinite CAR; bound in [0.90, 0.93] at the documented CAR."""
    cfg = default_chip_config()

    ideal = run_cz_characterization(cfg)
    for basis in ("xz", "zx"):
        table = np.asarray(ideal[basis].extras["table_normalized"])
        perm = np.asarray(ideal[basis].extras["table_ideal"])
        assert np.max(np.abs(table - perm)) < 1e-10
    assert ideal["f_xz"] == pytest.approx(1.0, abs=1e-12)
    assert ideal["f_zx"] == pytest.approx(1.0, abs=1e-12)
    assert ideal["hofmann_bound"] == pytest.approx(1.0, abs=1e-10)

    imperfect = run_cz_characterization(
        cfg, imperfections={"eta", "sideband", "crosstalk"}
    )
    bound_clean_source = imperfect["hofmann_bound"]
    assert bound_clean_source >= 0.989 - 0.005

    noisy_cfg = replace(
        cfg,
        source=replace(cfg.source, car=CAR_CZ),
        detector=replace(cfg.detector, integration_s=1000.0),
    )
    noisy = run_cz_characterization(
        noisy_cfg,
        imperfections={"eta", "sideband", "crosstalk", "car"},
        seed=7,
        sample=True,
    )
    bound_noisy = noisy["hofmann_bound"]
    assert 0.90 <= bound_noisy <= 0.93
    _report(
        2,
        f"ideal bound 1.0, imperfect bound {bound_clean_source:.4f}, "
        f"CAR={CAR_CZ:g} bound {bound_noisy:.4f}",
    )


def test_criterion_3_hom_visibility():
    """Analytic law equals the permanent-backed pipeline on 101 points;
    balanced visibility 1 ideally and 0.949 +- 0.002 at the documented
    indistinguishability."""
    cfg = default_chip_config()
    rs = np.linspace(0.0, 1.0, 101)
    res = run_hom(cfg, rs)
    vis = np.asarray(res.series["visibility"])
    law = 2.0 * rs * (1.0 - rs) / (rs**2 + (1.0 - rs) ** 2)
    worst = float(np.max(np.abs(vis - law)))
    assert worst < 1e-10
    assert vis[50] == pytest.approx(1.0, abs=1e-12)

    sampled_cfg = replace(
        cfg, detector=replace(cfg.detector, integration_s=5.0),
        source=replace(cfg.source, indistinguishability=HOM_INDISTINGUISHABILITY),
    )
    sampled = run_hom(
        sampled_cfg, rs, seed=7, imperfections={"distinguishability"}, sample=True
    )
    v_balanced = sampled.metrics["visibility_at_balanced"].value
    assert v_balanced == pytest.approx(0.949, abs=0.002)
    _report(3, f"law gap {worst:.2e}, sampled balanced visibility {v_balanced:.4f}")


def test_criterion_4_fmzi_visibility():
    """Unit visibility on both ports ideally; classical and single-photon
    visibilities inside their bands at the documented settings."""
    cfg = default_chip_config()
    ideal = run_fmzi(cfg, PHASES)
    for name, metric in ideal.metrics.items():
        if name.startswith("visibility_in"):
            assert metric.value == pytest.approx(1.0, abs=1e-9)

    classical = run_fmzi(cfg, PHASES, imperfections={"eta", "sideband", "crosstalk"})
    v_classical = classical.metrics["visibility_avg"].value
    assert 0.965 <= v_classical <= 0.98

    quantum_cfg = replace(
        cfg,
        source=replace(cfg.source, car=CAR_FMZI_QUANTUM),
        detector=replace(cfg.detector, integration_s=50.0),
    )
    quantum = run_fmzi(
        quantum_cfg,
        PHASES,
        mode="quantum",
        seed=7,
        imperfections={"eta", "sideband", "crosstalk", "car"},
    )
    v_quantum = quantum.metrics["visibility_avg"].value
    assert 0.965 <= v_quantum <= 0.977
    _report(4, f"classical {v_classical:.4f}, quantum {v_quantum:.4f}")


def test_criterion_5_bell_fringes():
    """Ideal curves follow the quarter-amplitude cosine family, sum to
    one, and the sampled average visibility sits in the documented band."""
    cfg = default_chip_config()
    bell_cfg = replace(
        cfg, dr2=replace(cfg.dr2, fbs=replace(cfg.dr2.fbs, transmissivity_T=0.5))
    )
    res = run_bell(bell_cfg, PHASES)
    cos = np.cos(PHASES)
    worst = 0.0
    for name, sign in (("p_pp", 1.0), ("p_mm", 1.0), ("p_pm", -1.0), ("p_mp", -1.0)):
        gap = np.max(np.abs(np.asarray(res.series[name]) - (1.0 + sign * cos) / 4.0))
        worst = max(worst, float(gap))
    assert worst < 1e-10
    total = sum(np.asarray(res.series[k]) for k in ("p_pp", "p_pm", "p_mp", "p_mm"))
    assert np.max(np.abs(total - 1.0)) < 1e-10

    noisy_cfg = replace(
        bell_cfg,
        source=replace(
            bell_cfg.source, car=CAR_BELL, indistinguishability=BELL_SOURCE_COHERENCE
        ),
        detector=replace(bell_cfg.detector, integration_s=50.0),
    )
    noisy = run_bell(
        noisy_cfg,
        PHASES,
        seed=7,
        imperfections={"eta", "sideband", "car", "distinguishability"},
        sample=True,
    )
    v_avg = noisy.metrics["visibility_avg"].value
    assert 0.963 <= v_avg <= 0.975
    _report(5, f"curve gap {worst:.2e}, sampled average visibility {v_avg:.4f}")


def test_criterion_6_spectroscopy_recovery():
    """Doublet fit recovers the 13.49 GHz splitting within 0.07 GHz
    noiseless and 0.2 GHz at 1 percent noise over 100 seeds; the linear
    electro-optic shift is exact."""
    gen = DRParams(g_ghz=6.745, kappa1_ghz=2.0, kappa_ex_ghz=1.0, kappa2_ghz=2.0)
    x = np.linspace(-15.0, 15.0, 301)
    y = dr_through_spectrum(gen, x)

    clean = fit_doublet(x, y)
    clean_err = abs(clean.two_g_ghz - 13.49)
    assert clean_err < 0.07

    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        fit = fit_doublet(x, y + rng.normal(0.0, 0.01, y.shape))
        worst = max(worst, abs(fit.two_g_ghz - 13.49))
    assert worst < 0.2

    # Exact linear model: the shift is the literal product, checked
    # bitwise; the decimal 2.26 itself is not binary-representable.
    shift = eo_resonance_shift(10.0, 0.226)
    assert shift == 0.226 * 10.0
    assert shift == pytest.approx(2.26, abs=1e-12)
    _report(
        6,
        f"noiseless error {clean_err:.2e} GHz, worst noisy error {worst:.3f} GHz, "
        f"shift {shift} GHz",
    )


def test_criterion_7_filter_crosstalk():
    """One-bin-detuned relative drop power equals the Lorentzian value
    0.0233 +- 0.0005, below the 3 percent requirement."""
    p = FilterParams(linewidth_fwhm_ghz=4.0)
    drop0, _ = filter_response(p, 0.0)
    drop1, _ = filter_response(p, 12.95)
    ratio = abs(drop1) ** 2 / abs(drop0) ** 2
    assert ratio == pytest.approx(0.0233, abs=0.0005)
    assert ratio < 0.03
    _report(7, f"relative drop power {ratio:.5f}")


def test_criterion_8_oracle_equivalence_suite():
    """200 random circuits on up to 8 modes and 3 photons: state-engine
    amplitudes match the permanent oracle of the composed matrix to 1e-9,
    within 60 seconds."""
    start = time.monotonic()
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(50_000 + trial)
        n_modes = int(rng.integers(2, 9))
        n_photons = int(rng.integers(1, 4))
        grid = grid_from_indices(list(range(n_modes)))
        composed = np.eye(n_modes, dtype=complex)
        occ_in = list(_occupations(n_modes, n_photons))
        occ_in = occ_in[int(rng.integers(0, len(occ_in)))]
        state = fock_state(grid, {m: c for m, c in enumerate(occ_in) if c})
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, n_modes + 1))
            subset = tuple(sorted(rng.choice(n_modes, size=size, replace=False)))
            block = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            block /= np.linalg.norm(block, 2) * (1.0 + 1e-12)
            state = apply_transform(state, ModeTransform(subset, block))
            embed = np.eye(n_modes, dtype=complex)
            for i, mi in enumerate(subset):
                for j, mj in enumerate(subset):
                    embed[mi, mj] = block[i, j]
            composed = embed @ composed
        oracle = ModeTransform(tuple(range(n_modes)), composed)
        for occ_out in _occupations(n_modes, n_photons):
            gap = abs(
                state.amplitude(occ_out)
                - transition_amplitude(oracle, occ_in, occ_out)
            )
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 60.0
    _report(8, f"worst amplitude gap {worst:.2e}, runtime {elapsed:.1f}s")


def test_criterion_9_statistical_layer():
    """Poisson sampling is unbiased at high flux and fully reproducible:
    identical seeds give byte-identical serialized records and results."""
    detector = DetectorSpec(efficiency=1.0, insertion_loss=1.0, integration_s=1.0)
    source = SourceSpec(pair_rate_hz=1.0e6, car=math.inf)
    means = [
        sample_counts(1.0, detector, source, seed=k).true_coincidences
        for k in range(50)
    ]
    rel = abs(np.mean(means) - 1.0e6) / 1.0e6
    assert rel < 0.005

    rec_a = sample_counts(0.4, DetectorSpec(), SourceSpec(car=25.0), seed=31)
    rec_b = sample_counts(0.4, DetectorSpec(), SourceSpec(car=25.0), seed=31)
    assert rec_a.to_json().encode() == rec_b.to_json().encode()

    cfg = default_chip_config()
    res_a = run_bell(cfg, PHASES[:7], seed=13, sample=True)
    res_b = run_bell(cfg, PHASES[:7], seed=13, sample=True)
    assert res_a.to_json().encode() == res_b.to_json().encode()
    _report(9, f"mean relative error {rel:.2e}, serialized results identical")
