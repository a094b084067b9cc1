"""Experiment pipeline tests: ideal laws, invariants, determinism."""

import math
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbin.counting import MetricResult
from freqbin.elements import fbs_transform
from freqbin.errors import ConfigurationError, DomainError, ValidationError
from freqbin.experiments import (
    _CZ_INPUTS,
    CZ_BASES,
    CZ_CONTROL_BINS,
    CZ_TARGET_BINS,
    IMPERFECTION_NAMES,
    _coincidences,
    _cz,
    _effective,
    _hom,
    _pair,
    default_chip_config,
    _grid_seeds,
    _sweep,
    derive_seed,
    run_bell,
    run_cz,
    run_cz_characterization,
    run_fmzi,
    run_hom,
    run_spectroscopy,
)
from freqbin.fock import (
    Bin,
    ModeTransform,
    apply_transform,
    fock_state,
    grid_from_indices,
    transition_amplitude,
)
from freqbin.resonator import CalibCurve, DriveSpec

PHASES = np.linspace(0.0, 2.0 * math.pi, 41)


@pytest.fixture(scope="module")
def cfg():
    return default_chip_config()


class TestFmzi:
    def test_ideal_visibility_is_one(self, cfg):
        res = run_fmzi(cfg, PHASES)
        for name, m in res.metrics.items():
            if name.startswith("visibility_in"):
                assert m.value == pytest.approx(1.0, abs=1e-9)

    def test_ideal_fringe_shape(self, cfg):
        res = run_fmzi(cfg, PHASES)
        p11 = np.asarray(res.series["p_in1_port1"])
        expected = (1.0 - np.cos(PHASES)) / 2.0
        assert np.max(np.abs(p11 - expected)) < 1e-12

    def test_ports_complement_to_total_efficiency(self, cfg):
        # With ideal detectors and no sideband leakage the two port curves
        # sum to the product of the element efficiencies at every phase.
        res = run_fmzi(cfg, PHASES, imperfections={"eta"})
        total = np.asarray(res.series["p_in1_port1"]) + np.asarray(
            res.series["p_in1_port2"]
        )
        eta_total = 0.69 * 0.69 * 0.69  # two beam splitters and the chip scale
        assert np.max(np.abs(total - eta_total)) < 1e-12

    def test_unbalanced_setting_warns(self, cfg):
        lopsided = replace(
            cfg, dr1=replace(cfg.dr1, fbs=replace(cfg.dr1.fbs, transmissivity_T=0.7))
        )
        res = run_fmzi(lopsided, PHASES)
        assert any("not balanced" in w for w in res.warnings)

    def test_quantum_counts_deterministic(self, cfg):
        a = run_fmzi(cfg, PHASES[:9], mode="quantum", seed=11)
        b = run_fmzi(cfg, PHASES[:9], mode="quantum", seed=11)
        assert a.to_json() == b.to_json()

    def test_unknown_toggle_rejected(self, cfg):
        with pytest.raises(ConfigurationError):
            run_fmzi(cfg, PHASES, imperfections={"bogus"})

    def test_probability_fringe_has_no_count_error(self, cfg):
        # At T = 1 the port fringe is 1.0 at every phase: whole numbers,
        # but probabilities, so the visibility carries no Poisson error.
        through = replace(cfg.dr1.fbs, transmissivity_T=1.0)
        chip = replace(cfg, dr1=replace(cfg.dr1, fbs=through),
                       dr3=replace(cfg.dr3, fbs=through))
        res = run_fmzi(chip, PHASES)
        assert res.metrics["visibility_in1_port1"] == MetricResult(0.0, 0.0, "minmax")
        sampled = run_fmzi(cfg, PHASES, mode="quantum")
        assert sampled.metrics["visibility_in1_port1"].method == "minmax, poisson error"


class TestHom:
    def test_analytic_visibility_law(self, cfg):
        rs = np.linspace(0.0, 1.0, 101)
        res = run_hom(cfg, rs)
        vis = np.asarray(res.series["visibility"])
        denom = rs**2 + (1.0 - rs) ** 2
        law = 2.0 * rs * (1.0 - rs) / denom
        assert np.max(np.abs(vis - law)) < 1e-10

    def test_coincidence_matches_permanent_oracle(self, cfg):
        rs = np.linspace(0.0, 1.0, 101)
        res = run_hom(cfg, rs)
        p_cc = np.asarray(res.series["p_cc"])
        assert np.max(np.abs(p_cc - (1.0 - 2.0 * rs) ** 2)) < 1e-10

    def test_balanced_null(self, cfg):
        res = run_hom(cfg, [0.5])
        assert res.series["p_cc"][0] == pytest.approx(0.0, abs=1e-12)
        assert res.series["visibility"][0] == pytest.approx(1.0)

    def test_one_fifth_reflectivity(self, cfg):
        res = run_hom(cfg, [0.2])
        assert res.series["visibility"][0] == pytest.approx(0.32 / 0.68, abs=1e-12)

    def test_partial_indistinguishability(self, cfg):
        cfg = replace(cfg, source=replace(cfg.source, indistinguishability=0.949))
        res = run_hom(cfg, [0.5], imperfections={"distinguishability"})
        assert res.series["visibility"][0] == pytest.approx(0.949, abs=1e-12)


    @pytest.mark.parametrize("crosstalk, reference, masked", [
        (False, None, None), (True, 0.100972, 0.098672)])
    def test_reference_is_the_pair_map_without_its_post_selection(
        self, cfg, crosstalk, reference, masked
    ):
        # The reference routes every occupation of two distinguishable
        # photons, W_A Q W_B^T; `_coincidences` keeps only one photon on
        # each detector's bin.  Filter crosstalk alone tells them apart: at
        # R = 0.5 with every toggle on, the reference is 2.3% above the
        # masked map.
        cfg = replace(cfg, source=replace(cfg.source, indistinguishability=0.949))
        toggles, chip = _effective(
            cfg, IMPERFECTION_NAMES if crosstalk else IMPERFECTION_NAMES - {"crosstalk"})
        circuit, p = _hom(chip, toggles, [0.5])
        q = _pair(circuit._replace(u=np.abs(circuit.u) ** 2), 0, 1)
        w_a, w_b = circuit.weights[:1], circuit.weights[1:]
        unmasked = (w_a @ q @ w_b.T)[0, 0, 0]
        kept = _coincidences(circuit, q)[0, 0, 0]
        assert unmasked == p[0, 1] == run_hom(cfg, [0.5], imperfections=toggles).extras[
            "p_distinguishable"][0]
        if crosstalk:
            assert unmasked == pytest.approx(reference, abs=1e-6)
            assert kept == pytest.approx(masked, abs=1e-6)
        else:
            assert unmasked == kept

    @pytest.mark.parametrize("sample", [False, True])
    def test_sweep_without_a_balanced_point(self, cfg, sample):
        # Reported the visibility at R = 0.9 under the balanced name.
        res = run_hom(cfg, [0.9, 1.0], sample=sample)
        assert "visibility_at_balanced" not in res.metrics
        assert res.warnings == ["visibility_at_balanced undefined: no sweep point"
                                " within 0.01 of R = 0.5 (nearest R = 0.9)"]
        near = run_hom(cfg, [0.495, 1.0], sample=sample)
        assert "visibility_at_balanced" in near.metrics and near.warnings == []

    def test_empty_balanced_reference_leaves_the_metric_undefined(self, cfg):
        # Reported visibility_at_balanced 0.0 with sigma 0 ("empty
        # reference"), a number no count supports.
        cfg = replace(cfg, detector=replace(cfg.detector, integration_s=1e-9))
        res = run_hom(cfg, [0.0, 0.5, 1.0], sample=True)
        assert res.series["counts_reference"][1] == 0
        assert "visibility_at_balanced" not in res.metrics
        assert res.warnings == ["visibility_at_balanced undefined: no reference counts"
                                " at R = 0.5"]


class TestCz:
    def test_computational_joint_checks(self, cfg):
        start = time.monotonic()
        res = run_cz(cfg, "zz")
        elapsed = time.monotonic() - start
        table = np.asarray(res.extras["table_exact"])
        ideal = np.asarray(res.extras["table_ideal"]) / 9.0
        assert np.max(np.abs(table - ideal)) < 1e-10
        assert elapsed < 1.0

    def test_truth_tables_are_permutations(self, cfg):
        for basis in ("xz", "zx"):
            res = run_cz(cfg, basis)
            table = np.asarray(res.extras["table_normalized"])
            ideal = np.asarray(res.extras["table_ideal"])
            assert np.max(np.abs(table - ideal)) < 1e-10
            assert res.metrics["fidelity"].value == pytest.approx(1.0, abs=1e-12)

    def test_ideal_bound_is_one(self, cfg):
        char = run_cz_characterization(cfg)
        assert char["hofmann_bound"] == pytest.approx(1.0, abs=1e-10)

    def test_success_bounded_by_one_ninth_under_loss(self, cfg):
        rng = np.random.default_rng(17)
        for _ in range(5):
            lossy = replace(
                cfg,
                dr1=replace(
                    cfg.dr1,
                    fbs=replace(cfg.dr1.fbs, efficiency_eta=float(rng.uniform(0.3, 1.0))),
                ),
                dr2=replace(
                    cfg.dr2,
                    fbs=replace(cfg.dr2.fbs, efficiency_eta=float(rng.uniform(0.3, 1.0))),
                ),
                global_efficiency=float(rng.uniform(0.3, 1.0)),
            )
            for basis in ("zz", "xz"):
                res = run_cz(lossy, basis, imperfections={"eta", "sideband", "crosstalk"})
                assert max(res.series["success_probability"]) <= 1.0 / 9.0 + 1e-12

    @pytest.mark.parametrize("sample, change, basis, reason", [
        (True, {"global_efficiency": 1e-9}, "xz", "sampled truth-table row is empty"),
        (False, {"r1_transmission": 5e-324}, "zx", "zero acceptance probability"),
    ], ids=["no-counts", "no-acceptance"])
    def test_bound_without_a_basis_fidelity_is_a_domain_error(
        self, cfg, sample, change, basis, reason
    ):
        # Used to end in a KeyError on the missing fidelity metric.
        chip = replace(cfg, source=replace(cfg.source, car=14.0), **change)
        with pytest.raises(DomainError, match=f"{basis} basis: .*{reason}"):
            run_cz_characterization(chip, {"car", "eta"}, 3, sample, allow_nonstandard=True)

    def test_source_overlap_enters_the_truth_tables(self, cfg):
        # The tables read |S|^2 alone, so the distinguishability toggle
        # left the gate unchanged at every overlap.
        def chip(v):
            return replace(cfg, source=replace(cfg.source, indistinguishability=v))

        for basis in CZ_BASES:
            ideal, mixed = (run_cz(chip(v), basis, {"distinguishability"}).extras["table_exact"]
                            for v in (1.0, 0.9))
            assert np.max(np.abs(np.subtract(ideal, mixed))) > 1e-3
        char = run_cz_characterization(chip(0.9), {"eta", "sideband", "crosstalk",
                                                   "distinguishability"})
        assert [char["f_xz"], char["f_zx"], char["hofmann_bound"]] == pytest.approx(
            [0.9109, 0.9114, 0.8223], abs=5e-5)

    def test_wrong_splitting_rejected(self, cfg):
        bad = replace(
            cfg, dr2=replace(cfg.dr2, fbs=replace(cfg.dr2.fbs, transmissivity_T=0.5))
        )
        with pytest.raises(ValidationError):
            run_cz(bad, "zz")
        run_cz(bad, "zz", allow_nonstandard=True)

    def test_linearity_against_composed_oracle(self, cfg):
        # Sequential element application must equal the permanent oracle
        # of the composed single-photon matrix, amplitude by amplitude.
        c0, c1 = CZ_CONTROL_BINS
        t0, t1 = CZ_TARGET_BINS
        grid = grid_from_indices([0, 1, 2, 3], sideband=[4, 5, 6, 7])
        modes = tuple(b.index for b in grid.bins)
        pos = {m: k for k, m in enumerate(modes)}

        def embed(t):
            full = np.eye(len(modes), dtype=complex)
            idx = [pos[m] for m in t.mode_subset]
            for i, mi in enumerate(idx):
                for j, mj in enumerate(idx):
                    full[mi, mj] = t.matrix[i, j]
            return full

        from freqbin.elements import FbsSpec

        h_prep = fbs_transform(FbsSpec(0.5, sideband_suppression_db=math.inf),
                               (c0, c1, 4, 5))
        gate = fbs_transform(FbsSpec(1.0 / 3.0, sideband_suppression_db=math.inf),
                             (t0, c1, 6, 7))
        att1 = ModeTransform((c0,), [[1.0 / math.sqrt(3.0)]])
        att2 = ModeTransform((t1,), [[1.0 / math.sqrt(3.0)]])

        composed = embed(gate) @ embed(att2) @ embed(att1) @ embed(h_prep)
        big = ModeTransform(modes, composed)

        state = fock_state(grid, {c1: 1, t0: 1})
        for element in (h_prep, att1, att2, gate):
            state = apply_transform(state, element)
        n_in = [0] * len(modes)
        n_in[pos[c1]] = 1
        n_in[pos[t0]] = 1
        for occ, amp in state.items():
            oracle = transition_amplitude(big, tuple(n_in), occ)
            assert amp == pytest.approx(oracle, abs=1e-10)


def gate_operator(chip, toggles) -> np.ndarray:
    """M[out, in]: the post-selected gate between the zz coincidence inputs
    and outputs (00, 01, 10, 11), each entry the permanent oracle's
    two-photon amplitude under the zz circuit's single-photon matrix."""
    toggles, chip = _effective(chip, toggles)
    u = _cz(chip, toggles, "zz")[0].u[0]
    t = ModeTransform(tuple(range(len(u))), u)

    def occupation(bins):
        return tuple(int(np.isin(m, bins)) for m in range(len(u)))

    pairs = [occupation(bins) for bins in _CZ_INPUTS["zz"].values()]
    return np.array([[transition_amplitude(t, n_in, n_out) for n_in in pairs]
                     for n_out in pairs])


def _process_fidelity(m: np.ndarray) -> float:
    """|Tr(CZ^dag M)|^2 / (4 Tr(M^dag M)), the fidelity of the renormalized
    post-selected process; the ideal gate flips the phase of input 10."""
    cz = np.diag([1.0, 1.0, -1.0, 1.0])
    return abs(np.trace(cz @ m)) ** 2 / (4.0 * np.trace(m.conj().T @ m).real)


def _gate_chip(cfg, data, design_point: bool):
    """A chip drawn for the bound: DR2 transmissivity T and the arm
    transmissions r1, r2 in [0.2, 0.5] (1/3 at the design point), DR2
    phase in [-0.5, 0.5], and efficiency and suppression on each splitter."""
    third = st.just(1.0 / 3.0) if design_point else st.floats(0.2, 0.5)
    t, r1, r2 = (data.draw(third) for _ in range(3))
    drs = [replace(d, fbs=replace(d.fbs, efficiency_eta=data.draw(st.floats(0.3, 1.0)),
                                  sideband_suppression_db=data.draw(st.floats(0.0, 60.0))))
           for d in (cfg.dr1, cfg.dr2, cfg.dr3)]
    drs[1] = replace(drs[1], fbs=replace(drs[1].fbs, transmissivity_T=t,
                                         phase_theta=data.draw(st.floats(-0.5, 0.5))))
    return replace(cfg, dr1=drs[0], dr2=drs[1], dr3=drs[2],
                   r1_transmission=r1, r2_transmission=r2)


_HARDWARE_TOGGLES = st.sets(st.sampled_from(["eta", "sideband"]))


@settings(max_examples=75, deadline=None)
@given(data=st.data(), toggles=_HARDWARE_TOGGLES)
def test_process_fidelity_never_exceeds_a_basis_fidelity(cfg, data, toggles):
    # Hofmann's upper inequality F_proc <= min(F_xz, F_zx) holds on every
    # chip, on the design point or off it.
    chip = _gate_chip(cfg, data, design_point=False)
    char = run_cz_characterization(chip, toggles, allow_nonstandard=True)
    f_proc = _process_fidelity(gate_operator(chip, toggles))
    assert f_proc <= min(char["f_xz"], char["f_zx"]) + 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data(), toggles=_HARDWARE_TOGGLES)
def test_hofmann_bound_is_a_lower_bound_on_the_design_point(cfg, data, toggles):
    # F_xz + F_zx - 1 <= F_proc needs the gate's success not to depend on
    # its input: at DR2 T = r1 = r2 = 1/3 it holds whatever eta, sideband
    # leakage and DR2 phase; off that point it can fail (see README).
    chip = _gate_chip(cfg, data, design_point=True)
    char = run_cz_characterization(chip, toggles)
    f_proc = _process_fidelity(gate_operator(chip, toggles))
    assert char["f_xz"] + char["f_zx"] - 1.0 <= f_proc + 1e-12


class TestBell:
    def test_ideal_fringe_family(self, cfg):
        res = run_bell(cfg, PHASES)
        pp = np.asarray(res.series["p_pp"])
        pm = np.asarray(res.series["p_pm"])
        mp = np.asarray(res.series["p_mp"])
        mm = np.asarray(res.series["p_mm"])
        cos = np.cos(PHASES)
        assert np.max(np.abs(pp - (1.0 + cos) / 4.0)) < 1e-10
        assert np.max(np.abs(mm - (1.0 + cos) / 4.0)) < 1e-10
        assert np.max(np.abs(pm - (1.0 - cos) / 4.0)) < 1e-10
        assert np.max(np.abs(mp - (1.0 - cos) / 4.0)) < 1e-10

    def test_curves_sum_to_one(self, cfg):
        res = run_bell(cfg, PHASES)
        total = sum(np.asarray(res.series[k]) for k in ("p_pp", "p_pm", "p_mp", "p_mm"))
        assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_zero_phase_projection(self, cfg):
        res = run_bell(cfg, [0.0])
        assert res.series["p_pp"][0] == pytest.approx(0.5, abs=1e-12)
        assert res.series["p_pm"][0] == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_in_range_with_imperfections(self, cfg):
        noisy = replace(cfg, source=replace(cfg.source, indistinguishability=0.9))
        res = run_bell(noisy, PHASES, imperfections={"eta", "crosstalk", "distinguishability"})
        for name in ("p_pp", "p_pm", "p_mp", "p_mm"):
            arr = np.asarray(res.series[name])
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)


class TestSpectroscopyRun:
    def test_doublet_fit_report(self, cfg):
        dr1 = replace(cfg.dr1, cavity=replace(cfg.dr1.cavity, g_ghz=6.745))
        res = run_spectroscopy(
            replace(cfg, dr1=dr1), np.linspace(-15.0, 15.0, 301), target="dr1"
        )
        assert res.metrics["fitted_splitting_ghz"].value == pytest.approx(13.49, abs=0.07)
        assert res.metrics["eo_response_ghz_per_v"].value == pytest.approx(0.226)

    def test_eo_slopes_echoed_per_resonator(self, cfg):
        slopes = []
        for target in ("dr1", "dr2", "dr3"):
            res = run_spectroscopy(cfg, np.linspace(-12.0, 12.0, 201), target=target)
            slopes.append(res.metrics["eo_response_ghz_per_v"].value)
        assert slopes == [0.226, 0.255, 0.222]

    def test_filter_crosstalk_report(self, cfg):
        res = run_spectroscopy(cfg, np.linspace(-20.0, 20.0, 201), target="filters")
        assert res.metrics["nearest_bin_crosstalk"].value == pytest.approx(0.0233, abs=5e-4)
        assert res.metrics["drop_peak_power"].value == pytest.approx(0.946)

    def test_short_scan_reports_fit_error(self, cfg):
        res = run_spectroscopy(cfg, np.linspace(-15.0, 15.0, 20), target="dr1")
        assert "50 samples" in res.extras["fit_error"]
        assert "fitted_splitting_ghz" not in res.metrics

    def test_unknown_target(self, cfg):
        with pytest.raises(ConfigurationError):
            run_spectroscopy(cfg, [0.0, 1.0], target="dr9")


# One sweep rule for every runner: at least one point, every value finite
# and, for reflectivities, within [0, 1].
SWEPT_RUNNERS = {
    "fmzi-classical": (lambda cfg, v: run_fmzi(cfg, v), "phases must be finite"),
    "fmzi-quantum": (lambda cfg, v: run_fmzi(cfg, v, mode="quantum"), "phases must be finite"),
    "hom": (lambda cfg, v: run_hom(cfg, v), "reflectivities must lie in [0, 1]"),
    "hom-sampled": (lambda cfg, v: run_hom(cfg, v, sample=True),
                    "reflectivities must lie in [0, 1]"),
    "bell": (lambda cfg, v: run_bell(cfg, v), "phases must be finite"),
    "bell-sampled": (lambda cfg, v: run_bell(cfg, v, sample=True), "phases must be finite"),
    "spectroscopy": (lambda cfg, v: run_spectroscopy(cfg, v), "detunings must be finite"),
    "spectroscopy-filters": (lambda cfg, v: run_spectroscopy(cfg, v, target="filters"),
                             "detunings must be finite"),
}


@pytest.mark.parametrize("values", [[0.25, math.nan], [math.inf], [0.5, -math.inf]],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("runner", sorted(SWEPT_RUNNERS))
def test_one_sweep_rule(cfg, runner, values):
    run, message = SWEPT_RUNNERS[runner]
    with pytest.raises(ValidationError) as err:
        run(cfg, [])
    assert str(err.value).endswith("need at least one point")
    with pytest.raises(ValidationError) as err:
        run(cfg, values)
    assert str(err.value) == message


def _swept(values, bounds):
    """`_sweep`'s array, or the message of its error."""
    try:
        return _sweep(values, "reflectivities", bounds)
    except ValidationError as err:
        return str(err)


@pytest.mark.parametrize("values", [[], [0.25, 0.5, 1.0], [0.25, math.nan], [math.inf],
                                    [0.5, -0.25], [1.5]])
@pytest.mark.parametrize("bounds", [None, (0, 1)])
def test_sweep_of_a_float_array_is_that_of_its_points(values, bounds):
    # A 1-D float ndarray is copied whole, any other iterable is read
    # point by point: the same values or the same error, never a view.
    array = np.array(values, dtype=float)
    want = _swept(iter(values), bounds)
    got = _swept(array, bounds)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype == float and np.array_equal(got, want)
        assert not np.shares_memory(got, array)
        assert np.array_equal(_swept(array.astype(np.float32), bounds), want)
    if values:  # a column of points is no 1-D array: numpy's own error, as before
        with pytest.raises(ValueError) as from_points:
            np.fromiter(array[:, None], dtype=float)
        with pytest.raises(ValueError) as from_column:
            _sweep(array[:, None], "reflectivities", bounds)
        assert str(from_column.value) == str(from_points.value)


@pytest.mark.parametrize("values", [[1.5], [0.5, -0.25]])
def test_reflectivities_outside_unit_interval_rejected(cfg, values):
    with pytest.raises(ValidationError, match=r"reflectivities must lie in \[0, 1\]"):
        run_hom(cfg, values)


def _settings_of_a_chip(cfg):
    """The chip and every settings object it holds."""
    return [cfg, cfg.grid, cfg.dr1, cfg.dr1.fbs, cfg.dr1.cavity, cfg.filters, cfg.source,
            cfg.detector]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, np.float32("nan")],
                         ids=["nan", "inf", "-inf", "int-past-float", "float32-nan"])
def test_settings_reject_non_finite_numbers(cfg, value):
    # NaN passed in 13 fields and fsr_ghz took inf; a NaN filter offset
    # made every fmzi visibility NaN without a warning.  An integer past
    # the float range and a numpy NaN passed in every field, and several
    # messages named a range instead of the field.  +inf is the ideal of
    # the CAR and of the sideband suppression.
    ideal = {("SourceSpec", "car"), ("FbsSpec", "sideband_suppression_db")}
    checked = 0
    for spec in [*_settings_of_a_chip(cfg), CalibCurve(), DriveSpec()]:
        for f in fields(spec):
            if not isinstance(getattr(spec, f.name), float):
                continue
            checked += 1
            if value == math.inf and (type(spec).__name__, f.name) in ideal:
                assert getattr(replace(spec, **{f.name: value}), f.name) == math.inf
                continue
            with pytest.raises(ValidationError, match=f"^{f.name} must be finite$"):
                replace(spec, **{f.name: value})
    assert checked == 31


@pytest.mark.parametrize("bins", [
    tuple(map(Bin, (0, 1, 2))),
    tuple(map(Bin, (0, 1, 2, 3, 5))),
    (*map(Bin, range(4)), Bin(4, "sideband")),
], ids=["three-bins", "gap", "sideband"])
def test_chip_grid_must_be_bins_0_to_n_minus_1(cfg, bins):
    # A circuit's mode positions are bin indices, so the chip's grid is
    # the computational bins 0..n-1 with n >= 4.
    with pytest.raises(ValidationError, match="computational bins 0..n-1, n >= 4"):
        replace(cfg, grid=replace(cfg.grid, bins=bins))


def test_chip_grid_of_six_bins_gives_the_four_bin_results(cfg):
    six = replace(cfg, grid=replace(cfg.grid, bins=tuple(map(Bin, range(6)))))
    everything = {"eta", "sideband", "crosstalk", "car", "distinguishability"}
    for run in (lambda c: run_bell(c, PHASES, imperfections=everything),
                lambda c: run_cz(c, "xz", everything)):
        got, want = run(six), run(cfg)
        for name, column in want.series.items():
            assert got.series[name] == pytest.approx(column, abs=1e-15)


_RAISE_SITES = {
    "fmzi mode": (lambda cfg: run_fmzi(cfg, PHASES, mode="coherent"),
                  "unknown interferometer mode 'coherent'"),
    "gate basis": (lambda cfg: run_cz(cfg, "xx"), r"basis must be one of \('xz', 'zx', 'zz'\)"),
}


@pytest.mark.parametrize("site", list(_RAISE_SITES))
def test_raise_sites(cfg, site):
    call, message = _RAISE_SITES[site]
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        call(cfg)


class TestResultContainer:
    def test_series_length_validated(self, cfg):
        from freqbin.experiments import ExperimentResult

        with pytest.raises(ValidationError, match="^series 'a' length mismatch$"):
            ExperimentResult(experiment="x", series={"s": [1.0, 2.0], "a": [1.0]})

    def test_sweep_is_the_first_series_column(self):
        from freqbin.experiments import ExperimentResult

        res = ExperimentResult("x", {"s": [1.0, 2.0], "a": [3.0, 4.0]})
        assert (res.sweep_name, res.sweep_values) == ("s", [1.0, 2.0])
        assert [f.name for f in fields(res)][:4] == [
            "experiment", "sweep_name", "sweep_values", "series"]
        with pytest.raises(ValidationError, match="sweep column"):
            ExperimentResult("x", {})

    def test_array_series_serialize_as_lists(self):
        from freqbin.experiments import ExperimentResult

        columns = {"s": [0.0, 0.5, 1.0], "a": [1.5, math.inf, -2.0]}
        as_arrays = ExperimentResult("x", {k: np.asarray(v) for k, v in columns.items()})
        as_lists = ExperimentResult("x", columns)
        assert as_arrays.to_jsonable()["series"]["a"] == [1.5, "inf", -2.0]
        assert as_arrays.to_json() == as_lists.to_json()

    def test_seed_derivation_is_stable_and_spread(self):
        a = derive_seed(12345, 3, 1)
        assert a == derive_seed(12345, 3, 1)
        assert a != derive_seed(12345, 3, 2)
        assert a != derive_seed(12346, 3, 1)
        assert 0 <= a < 2**64

    def test_sampled_results_serialize_identically(self, cfg):
        a = run_bell(cfg, PHASES[:5], seed=3, sample=True)
        b = run_bell(cfg, PHASES[:5], seed=3, sample=True)
        assert a.to_json() == b.to_json()


def _reference_derive_seed(base_seed, *indices):
    """splitmix64 on Python ints, masked to 64 bits after each step."""
    mask = (1 << 64) - 1
    s = base_seed & mask
    for k in indices:
        s = (s + 0x9E3779B97F4A7C15 + (k & mask)) & mask
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & mask
        s ^= s >> 31
    return s


@settings(max_examples=100, deadline=None)
@given(base=st.integers(-(2**70), 2**70),
       shape=st.tuples(st.integers(1, 6), st.integers(1, 4)))
def test_grid_seeds_are_derive_seed(base, shape):
    grid = _grid_seeds(base, shape)
    assert grid.shape == shape and grid.dtype == np.uint64
    for (k, c), seed in np.ndenumerate(grid):
        assert int(seed) == derive_seed(base, k, c) == _reference_derive_seed(base, k, c)


@settings(max_examples=100, deadline=None)
@given(base=st.integers(-(2**70), 2**70),
       indices=st.lists(st.integers(-(2**70), 2**70), max_size=3))
def test_derive_seed_is_splitmix64(base, indices):
    assert derive_seed(base, *indices) == _reference_derive_seed(base, *indices)
