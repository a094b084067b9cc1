"""Compiled pipelines against the sequential reference, and physics
invariants of the compiled pipelines over random settings."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sequential_pipeline as ref
from freqbin.elements import fbs_blocks
from freqbin.errors import ValidationError
from freqbin.experiments import (
    IMPERFECTION_NAMES,
    Circuit,
    _coincidences,
    _effective,
    _pair,
    config_echo,
    default_chip_config,
    run_bell,
    run_cz,
    run_fmzi,
    run_hom,
)
from freqbin.fock import grid_from_indices

TOL = 1e-12
PHASES = np.linspace(0.0, 2.0 * math.pi, 7)
REFLECTIVITIES = np.linspace(0.0, 1.0, 7)
SUBSETS = [
    frozenset(c)
    for k in range(len(IMPERFECTION_NAMES) + 1)
    for c in itertools.combinations(sorted(IMPERFECTION_NAMES), k)
]
SUBSET_IDS = ["+".join(sorted(s)) or "ideal" for s in SUBSETS]


def _with_fbs(dr, **fbs):
    return replace(dr, fbs=replace(dr.fbs, **fbs))


@pytest.fixture(scope="module")
def chip():
    """Every element different, so a misplaced loss or phase shows."""
    cfg = default_chip_config()
    return replace(
        cfg,
        dr1=_with_fbs(cfg.dr1, transmissivity_T=0.45, phase_theta=0.3),
        dr2=_with_fbs(cfg.dr2, efficiency_eta=0.8, sideband_suppression_db=20.0),
        dr3=_with_fbs(cfg.dr3, transmissivity_T=0.55, efficiency_eta=0.6),
        source=replace(cfg.source, indistinguishability=0.9, car=14.0),
    )


def _gap(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


@pytest.mark.parametrize("toggles", SUBSETS, ids=SUBSET_IDS)
def test_fmzi_matches_sequential_reference(chip, toggles):
    res = run_fmzi(chip, PHASES, imperfections=toggles)
    for name, col in ref.fmzi_curves(chip, PHASES, toggles).items():
        assert _gap(res.series[name], col) < TOL


@pytest.mark.parametrize("toggles", SUBSETS, ids=SUBSET_IDS)
def test_hom_matches_sequential_reference(chip, toggles):
    res = run_hom(chip, REFLECTIVITIES, imperfections=toggles)
    p_cc, p_dist, vis = ref.hom_columns(chip, REFLECTIVITIES, toggles, res.extras["v_indist"])
    assert _gap(res.series["p_cc"], p_cc) < TOL
    assert _gap(res.extras["p_distinguishable"], p_dist) < TOL
    assert _gap(res.series["visibility"], vis) < TOL


@pytest.mark.parametrize("toggles", SUBSETS, ids=SUBSET_IDS)
def test_cz_matches_sequential_reference(chip, toggles):
    arm = chip.detector.efficiency * chip.detector.insertion_loss
    lam_acc = chip.source.pair_rate_hz * chip.detector.integration_s * arm**2 / chip.source.car
    for basis in ("xz", "zx", "zz"):
        res = run_cz(chip, basis, toggles, sample="car" in toggles)
        exact, success, accidental = ref.cz_tables(chip, basis, toggles)
        assert _gap(res.extras["table_exact"], exact) < TOL
        assert _gap(res.series["success_probability"], success) < TOL
        if res.counts is not None:
            got = [[rec.expected_accidental for rec in row.values()] for row in res.counts]
            assert _gap(np.divide(got, lam_acc), accidental) < TOL


@pytest.mark.parametrize("toggles", SUBSETS, ids=SUBSET_IDS)
def test_bell_matches_sequential_reference(chip, toggles):
    res = run_bell(chip, PHASES, imperfections=toggles)
    for name, col in ref.bell_curves(chip, PHASES, toggles).items():
        assert _gap(res.series[name], col) < TOL


def test_effective_chip_sets_switched_off_imperfections_ideal(chip):
    assert _effective(chip, IMPERFECTION_NAMES) == chip
    ideal = _effective(chip, frozenset())
    assert ideal.global_efficiency == 1.0
    assert (ideal.source.car, ideal.source.indistinguishability) == (math.inf, 1.0)
    for dr in (ideal.dr1, ideal.dr2, ideal.dr3):
        assert (dr.fbs.efficiency_eta, dr.fbs.sideband_suppression_db) == (1.0, math.inf)
    assert ideal.filters == chip.filters  # crosstalk is resolved at detection
    assert run_hom(chip, [0.5]).config_echo == config_echo(chip)


def test_batched_blocks_reject_non_finite_settings():
    with pytest.raises(ValidationError):
        fbs_blocks([0.5, math.nan])
    with pytest.raises(ValidationError):
        fbs_blocks(0.5, phase_theta=[0.0, math.inf])


def test_batched_blocks_match_one_at_a_time():
    ts = np.linspace(0.0, 1.0, 5)
    thetas = np.linspace(-3.0, 3.0, 5)
    stack = fbs_blocks(ts, thetas, 0.7, 24.0)
    assert stack.shape == (5, 4, 4)
    for k in range(5):
        assert np.array_equal(stack[k], fbs_blocks(ts[k], thetas[k], 0.7, 24.0)[0])


def test_bell_source_coincidences():
    # (|f1 f4> + |f2 f3>) / sqrt(2) through the identity: qubit B mirrors
    # qubit A, and exactly one photon reaches each qubit's pair of bins.
    identity = Circuit(grid_from_indices(range(4)), np.eye(4, dtype=complex)[None],
                       (0, 1), (2, 3), np.eye(4))
    s = (_pair(identity, 0, 3) + _pair(identity, 1, 2)) / math.sqrt(2.0)
    p = _coincidences(identity, s)
    assert _gap(p, [[[0.0, 0.5], [0.5, 0.0]]]) < TOL


def test_sideband_photon_gives_no_coincidence():
    # One photon in bin 0 and one in a sideband mode (position 2), which
    # no detector sees: the (0, 1) coincidence never fires.
    identity = Circuit(grid_from_indices([0, 1], sideband=[2]),
                       np.eye(3, dtype=complex)[None], (0,), (1,), np.eye(3)[:2])
    p = _coincidences(identity, _pair(identity, 0, 2))
    assert p.shape == (1, 1, 1) and p[0, 0, 0] == 0.0


# ---------------------------------------------------------------------------
# Invariants over random settings.

unit = st.floats(0.0, 1.0)
efficiency = st.floats(0.05, 1.0)
angle = st.floats(-math.pi, math.pi)
toggle_sets = st.sets(st.sampled_from(sorted(IMPERFECTION_NAMES)))


def _random_chip(t1, t2, t3, theta, etas, global_eta):
    cfg = default_chip_config()
    return replace(
        cfg,
        dr1=_with_fbs(cfg.dr1, transmissivity_T=t1, phase_theta=theta, efficiency_eta=etas[0]),
        dr2=_with_fbs(cfg.dr2, transmissivity_T=t2, efficiency_eta=etas[1]),
        dr3=_with_fbs(cfg.dr3, transmissivity_T=t3, phase_theta=-theta, efficiency_eta=etas[2]),
        global_efficiency=global_eta,
        source=replace(cfg.source, indistinguishability=0.8),
    )


@settings(max_examples=60, deadline=None)
@given(
    t1=unit, t2=unit, t3=unit, theta=angle,
    etas=st.tuples(efficiency, efficiency, efficiency),
    global_eta=efficiency, toggles=toggle_sets,
)
def test_probabilities_lie_in_unit_interval(t1, t2, t3, theta, etas, global_eta, toggles):
    # One sweep point per run: a fringe that is zero at every point (a
    # splitter at T = 0 or 1) has no defined visibility.
    cfg = _random_chip(t1, t2, t3, theta, etas, global_eta)

    def in_unit(values):
        arr = np.asarray(values, dtype=float)
        return bool(np.all(arr >= 0.0) and np.all(arr <= 1.0 + TOL))

    fmzi = run_fmzi(cfg, [theta], imperfections=toggles)
    curves = [fmzi.series[f"p_in{i}_port{d}"] for i in (1, 2) for d in (1, 2)]
    assert all(in_unit(c) for c in curves)
    # Per input photon the two ports together detect it at most once.
    assert in_unit(np.add(curves[0], curves[1])) and in_unit(np.add(curves[2], curves[3]))

    hom = run_hom(cfg, [t3], imperfections=toggles)
    assert in_unit(hom.series["p_cc"]) and in_unit(hom.extras["p_distinguishable"])

    bell = run_bell(cfg, [theta], imperfections=toggles)
    names = ("p_pp", "p_pm", "p_mp", "p_mm")
    assert all(in_unit(bell.series[n]) for n in names)
    assert in_unit(np.sum([bell.series[n] for n in names], axis=0))

    for basis in ("xz", "zz"):
        cz = run_cz(cfg, basis, toggles, allow_nonstandard=True)
        assert in_unit(cz.extras["table_exact"])
        assert in_unit(cz.series["success_probability"])


@settings(max_examples=60, deadline=None)
@given(
    etas=st.tuples(efficiency, efficiency, efficiency),
    global_eta=efficiency,
    toggles=st.sets(st.sampled_from(["eta", "sideband", "crosstalk"])),
    basis=st.sampled_from(["xz", "zx", "zz"]),
)
def test_lossy_gate_success_at_most_one_ninth(etas, global_eta, toggles, basis):
    cfg = _random_chip(0.5, 1.0 / 3.0, 0.5, 0.0, etas, global_eta)
    res = run_cz(cfg, basis, toggles)
    assert max(res.series["success_probability"]) <= 1.0 / 9.0 + TOL


@settings(max_examples=60, deadline=None)
@given(r=unit, eta=efficiency, global_eta=efficiency, v=unit, lossy=st.booleans())
def test_hom_visibility_law(r, eta, global_eta, v, lossy):
    # Uniform insertion loss cancels in the post-selected visibility, and
    # partial indistinguishability scales it: V = v 2RT / (R^2 + T^2).
    cfg = _random_chip(0.5, 1.0 / 3.0, 0.5, 0.0, (eta, eta, eta), global_eta)
    cfg = replace(cfg, source=replace(cfg.source, indistinguishability=v))
    toggles = {"distinguishability", "eta"} if lossy else {"distinguishability"}
    res = run_hom(cfg, [r], imperfections=toggles)
    law = 2.0 * r * (1.0 - r) / (r**2 + (1.0 - r) ** 2)
    assert res.series["visibility"][0] == pytest.approx(v * law, abs=1e-10)
