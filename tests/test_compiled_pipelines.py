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
from freqbin import experiments
from freqbin.elements import FilterParams, fbs_blocks, filter_response
from freqbin.errors import ValidationError
from freqbin.experiments import (
    IMPERFECTION_NAMES,
    Circuit,
    _bell,
    _circuit as compile_circuit,
    _coincidences,
    _cz,
    _effective,
    _fmzi,
    _hom,
    _pair,
    _routing,
    default_chip_config,
    run_bell,
    run_cz,
    run_fmzi,
    run_hom,
)
from freqbin.fock import Bin

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
    assert _effective(chip, IMPERFECTION_NAMES) == (IMPERFECTION_NAMES, chip)
    ideal = _effective(chip, frozenset())[1]
    assert ideal.global_efficiency == 1.0
    assert (ideal.source.car, ideal.source.indistinguishability) == (math.inf, 1.0)
    for dr in (ideal.dr1, ideal.dr2, ideal.dr3):
        assert (dr.fbs.efficiency_eta, dr.fbs.sideband_suppression_db) == (1.0, math.inf)
    assert ideal.filters == chip.filters  # crosstalk is resolved at detection
    assert run_hom(chip, [0.5]).config_echo is chip


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
    identity = Circuit(np.eye(4, dtype=complex)[None], (0, 1), (2, 3), np.eye(4))
    s = (_pair(identity, 0, 3) + _pair(identity, 1, 2)) / math.sqrt(2.0)
    p = _coincidences(identity, np.abs(s) ** 2)
    assert _gap(p, [[[0.0, 0.5], [0.5, 0.0]]]) < TOL


def test_sideband_photon_gives_no_coincidence():
    # One photon in bin 0 and one in mode 2, which no detector sees (as a
    # photon leaked out of the bins): the (0, 1) coincidence never fires.
    identity = Circuit(np.eye(3, dtype=complex)[None], (0,), (1,), np.eye(3)[:2])
    p = _coincidences(identity, np.abs(_pair(identity, 0, 2)) ** 2)
    assert p.shape == (1, 1, 1) and p[0, 0, 0] == 0.0


def _stage_product(chip, stages):
    """sqrt(global efficiency) times the product of each stage's full
    matrix on the chip's bins: sqrt(eta) I with the blocks on the stage's
    bins."""
    n = chip.grid.n_modes
    u = np.eye(n, dtype=complex)
    for bins, blocks, eta in stages:
        full = np.tile(math.sqrt(eta) * np.eye(n, dtype=complex), (len(blocks), 1, 1))
        full[:, np.array(bins)[:, None], bins] = blocks
        u = full @ u
    return math.sqrt(chip.global_efficiency) * u


@pytest.mark.parametrize("n_bins", [4, 6])
@pytest.mark.parametrize("toggles", [frozenset(), IMPERFECTION_NAMES], ids=["ideal", "all"])
def test_circuit_is_the_product_of_its_stage_matrices(chip, n_bins, toggles, monkeypatch):
    # Every seam's stage list: fmzi (one-setting splitters around a swept
    # phase), hom (one swept splitter), cz in each basis (attenuators and
    # one-setting splitters) and bell (a one-setting, then a swept splitter).
    chip = replace(chip, grid=replace(chip.grid, bins=tuple(map(Bin, range(n_bins)))))
    toggles, chip = _effective(chip, toggles)
    built = []

    def recording(chip, toggles, stages, *groups):
        circuit = compile_circuit(chip, toggles, stages, *groups)
        built.append((stages, circuit))
        return circuit

    monkeypatch.setattr(experiments, "_circuit", recording)
    _fmzi(chip, toggles, PHASES)
    _hom(chip, toggles, REFLECTIVITIES)
    for basis in ("xz", "zx", "zz"):
        _cz(chip, toggles, basis)
    _bell(chip, toggles, PHASES)
    assert len(built) == 6
    for stages, circuit in built:
        expected = _stage_product(chip, stages)
        assert circuit.u.shape == expected.shape
        assert circuit.u.shape[-1] == circuit.weights.shape[-1] == n_bins
        assert np.max(np.abs(circuit.u - expected)) <= 1e-15


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


@pytest.mark.parametrize("toggles", SUBSETS, ids=SUBSET_IDS)
@settings(max_examples=8, deadline=None)
@given(
    ts=st.tuples(unit, unit, unit), thetas=st.tuples(angle, angle, angle),
    etas=st.tuples(efficiency, efficiency, efficiency),
    dbs=st.tuples(*[st.one_of(st.just(math.inf), st.floats(0.0, 60.0))] * 3),
    rings=st.tuples(efficiency, efficiency), global_eta=efficiency,
)
def test_seam_circuits_are_scaled_unitaries(toggles, ts, thetas, etas, dbs, rings, global_eta):
    # Insertion loss is frequency-uniform: with loss the global efficiency
    # times the efficiency of each beam splitter, U U^H <= loss I on the
    # bins, with equality when no splitter leaks into its sidebands; and
    # no circuit, the attenuating gate included, has spectral norm above 1.
    cfg = default_chip_config()
    drs = [_with_fbs(dr, transmissivity_T=t, phase_theta=theta, efficiency_eta=eta,
                     sideband_suppression_db=db)
           for dr, t, theta, eta, db in zip((cfg.dr1, cfg.dr2, cfg.dr3), ts, thetas, etas, dbs)]
    cfg = replace(cfg, dr1=drs[0], dr2=drs[1], dr3=drs[2], global_efficiency=global_eta,
                  r1_transmission=rings[0], r2_transmission=rings[1])
    toggles, chip = _effective(cfg, toggles)
    eta = {name: getattr(chip, name).fbs.efficiency_eta for name in ("dr1", "dr2", "dr3")}
    scaled = [
        (_fmzi(chip, toggles, PHASES)[0], eta["dr1"] * eta["dr3"]),
        (_hom(chip, toggles, REFLECTIVITIES)[0], eta["dr3"]),
        (_bell(chip, toggles, PHASES)[0], eta["dr1"] * eta["dr2"]),
    ]
    for circuit, loss in scaled:
        u = circuit.u / math.sqrt(chip.global_efficiency * loss)
        gram = u @ np.conj(np.swapaxes(u, -1, -2))
        assert np.linalg.eigvalsh(np.eye(u.shape[-1]) - gram).min() >= -TOL
        if "sideband" not in toggles:
            assert np.max(np.abs(gram - np.eye(u.shape[-1]))) < TOL
    gates = [_cz(chip, toggles, basis)[0] for basis in ("xz", "zx", "zz")]
    for circuit in [c for c, _ in scaled] + gates:
        assert np.linalg.norm(circuit.u, 2, axis=(-2, -1)).max() <= 1.0 + TOL


@settings(max_examples=40, deadline=None)
@given(
    offset=st.floats(-20.0, 20.0), linewidth=st.floats(0.1, 40.0), fsr=st.floats(50.0, 400.0),
    drop=st.floats(0.05, 1.0), spacing=st.floats(1.0, 40.0), n=st.integers(4, 8),
)
def test_routing_is_the_ascending_filter_cascade(offset, linewidth, fsr, drop, spacing, n):
    # Row d is the cascade of filters 0..d alone, the same float
    # operations in the same order, so every detector set that is a
    # prefix of the bins reads the rows it read on its own; and a filter
    # bank routes at most the power that reaches it.
    filters = FilterParams(offset, linewidth, fsr, drop)
    cfg = default_chip_config()
    chip = replace(cfg, filters=filters, grid=replace(
        cfg.grid, bins=tuple(map(Bin, range(n))), bin_spacing_ghz=spacing))
    w = _routing(chip, True)
    assert w.shape == (n, n)
    for d in range(n):
        for b in range(n):
            residual = 1.0
            for upstream in range(d):
                residual *= abs(filter_response(filters, (b - upstream) * spacing)[1]) ** 2
            dropped = abs(filter_response(filters, (b - d) * spacing)[0]) ** 2
            assert w[d, b] == residual * dropped
    assert np.all(w >= 0.0) and np.all(w.sum(axis=0) <= 1.0 + TOL)
    assert np.array_equal(_routing(chip, False), np.eye(n))
