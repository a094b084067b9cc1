"""Element tests: beam splitter and filter constructors, and the
single-mode attenuators and phase shifts of the compiled circuits."""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbin import elements
from freqbin.elements import FbsSpec, FilterParams, fbs_blocks, fbs_transform, filter_response
from freqbin.errors import ValidationError
from freqbin.experiments import _circuit, default_chip_config
from freqbin.fock import ModeTransform, apply_transform, fock_state, grid_from_indices


#: Bins 1 and 2 with their grid neighbors as the sideband modes.
MODES = (1, 2, 0, 3)


def ideal_spec(T, theta=0.0):
    return FbsSpec(
        transmissivity_T=T,
        phase_theta=theta,
        efficiency_eta=1.0,
        sideband_suppression_db=math.inf,
    )


class TestFbs:
    def test_full_transmission_is_identity(self):
        for theta in (0.0, 0.7, -2.0):
            t = fbs_transform(ideal_spec(1.0, theta), MODES)
            assert np.allclose(t.matrix, np.eye(4), atol=1e-12)

    def test_balanced_is_hadamard_like(self):
        t = fbs_transform(ideal_spec(0.5), MODES)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(t.matrix[:2, :2], np.array([[s, s], [-s, s]]), atol=1e-12)
        assert t.is_unitary

    def test_sideband_power_ratio(self):
        # Leakage power relative to converted power is 10^(-S/10).
        spec = FbsSpec(transmissivity_T=0.5, sideband_suppression_db=24.0)
        t = fbs_transform(spec, MODES)
        reflected = abs(t.matrix[1, 0]) ** 2
        leaked = abs(t.matrix[2, 0]) ** 2
        assert leaked / reflected == pytest.approx(10.0 ** (-2.4), rel=1e-9)
        assert leaked / reflected == pytest.approx(3.981e-3, rel=1e-3)

    def test_unitary_for_all_settings_without_loss(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            T = float(rng.uniform(0.0, 1.0))
            theta = float(rng.uniform(-math.pi, math.pi))
            S = float(rng.uniform(10.0, 40.0))
            t = fbs_transform(
                FbsSpec(transmissivity_T=T, phase_theta=theta, sideband_suppression_db=S),
                MODES,
            )
            assert t.is_unitary
            assert abs(abs(np.linalg.det(t.matrix)) - 1.0) < 1e-9

    def test_column_norm_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            eta = float(rng.uniform(0.2, 1.0))
            t = fbs_transform(
                FbsSpec(transmissivity_T=float(rng.uniform(0, 1)),
                        efficiency_eta=eta,
                        sideband_suppression_db=float(rng.uniform(10, 40))),
                MODES,
            )
            norms = np.linalg.norm(t.matrix, axis=0)
            assert np.all(norms <= math.sqrt(eta) + 1e-12)
            assert np.allclose(norms, math.sqrt(eta), atol=1e-12)

    def test_energy_accounting_single_photon(self):
        # Total detected probability over bins plus sidebands equals eta.
        eta = 0.69
        grid = grid_from_indices([1, 2], sideband=[0, 3])
        t = fbs_transform(
            FbsSpec(transmissivity_T=0.4, efficiency_eta=eta, sideband_suppression_db=24.0),
            MODES,
        )
        for mode in (0, 1, 2, 3):
            out = apply_transform(fock_state(grid, {mode: 1}), t)
            assert out.norm_squared() == pytest.approx(eta, abs=1e-12)

    def test_invalid_settings(self):
        with pytest.raises(ValidationError):
            FbsSpec(transmissivity_T=1.2)
        with pytest.raises(ValidationError):
            FbsSpec(efficiency_eta=0.0)
        with pytest.raises(ValidationError):
            FbsSpec(sideband_suppression_db=-1.0)
        with pytest.raises(ValidationError):
            fbs_transform(FbsSpec(), (1, 2, 2, 3))


def test_blocks_are_the_closed_form():
    # sqrt(eta) s [[C, -eps C], [eps I, I]] with C the 2x2 core, eps the
    # leakage amplitude and s = 1/sqrt(1 + eps^2), over random settings
    # with the edges T = 0, T = 1 and S = inf among them.
    rng = np.random.default_rng(18)
    T = np.concatenate([[0.0, 1.0, 0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 195)])
    theta = rng.uniform(-10.0, 10.0, T.size)
    eta = rng.uniform(1e-6, 1.0, T.size)
    db = np.concatenate([[math.inf, math.inf, 0.0, 24.0, math.inf], rng.uniform(0.0, 60.0, 195)])
    blocks = fbs_blocks(T, theta, eta, db)
    for j in range(T.size):
        t, r = math.sqrt(T[j]), math.sqrt(1.0 - T[j])
        eps = math.sqrt((1.0 - T[j]) * 10.0 ** (-db[j] / 10.0))
        s = 1.0 / math.sqrt(1.0 + eps * eps)
        core = np.array([[t, cmath.exp(1j * theta[j]) * r],
                         [-cmath.exp(-1j * theta[j]) * r, t]])
        expected = math.sqrt(eta[j]) * s * np.block([[core, -eps * core],
                                                     [eps * np.eye(2), np.eye(2)]])
        np.testing.assert_allclose(blocks[j], expected, rtol=0.0, atol=1e-15)


class TestNormGuard:
    """The spectral-norm guard of `fbs_blocks`: its matrix is sqrt(eta)
    times a unitary, so eta against (1 + tol)^2 bounds ||M||_2."""

    def test_efficiency_above_one_is_rejected(self):
        with pytest.raises(ValidationError, match="matrix spectral norm exceeds 1"):
            fbs_blocks(0.5, 0.0, 1.5)

    def test_edge_of_the_tolerance(self):
        # ||M||_2 = sqrt(eta): 1 + 5e-10 is inside 1 + 1e-9, 1 + 1.5e-9 is not.
        fbs_blocks([0.0, 0.3, 0.5, 1.0], 0.7, 1.0 + 1e-9, [0.0, 24.0, 60.0, np.inf])
        with pytest.raises(ValidationError, match="matrix spectral norm exceeds 1"):
            fbs_blocks([0.0, 0.3, 0.5, 1.0], 0.7, 1.0 + 3e-9, [0.0, 24.0, 60.0, np.inf])

    def test_non_unitary_blocks_are_rejected(self):
        # A hand-made block has no eta to range-check; it meets the exact
        # SVD guard of `ModeTransform`.  Norm 1.1 by one long column is
        # rejected; norm 1 but not sqrt(eta) U is a lossy mode and passes.
        stretched = np.eye(4, dtype=complex)
        stretched[2, 0] = math.sqrt(1.1**2 - 1.0)
        with pytest.raises(ValidationError, match="matrix spectral norm exceeds 1"):
            ModeTransform((0, 1, 2, 3), stretched)
        lossy = ModeTransform((0, 1, 2, 3), np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))
        assert not lossy.is_unitary

    @settings(max_examples=200, deadline=None)
    @given(
        T=st.floats(0.0, 1.0),
        theta=st.floats(-10.0, 10.0),
        eta=st.floats(0.99, 1.0 + 3e-9),
        db=st.floats(0.0, 200.0) | st.just(math.inf),
    )
    def test_never_accepts_what_the_svd_rejects(self, T, theta, eta, db):
        # Around the edge of the tolerance the range check on eta either
        # rejects a setting or its matrix passes the SVD.
        try:
            m = fbs_blocks(T, theta, eta, db)
        except ValidationError:
            return
        assert np.linalg.norm(m[0], 2) <= 1.0 + elements._NORM_TOL

    @settings(max_examples=200, deadline=None)
    @given(
        T=st.floats(0.0, 1.0),
        theta=st.floats(-10.0, 10.0),
        eta=st.floats(1e-6, 1.0),
        db=st.floats(0.0, 200.0) | st.just(math.inf),
    )
    def test_every_physical_setting_passes(self, T, theta, eta, db):
        m = fbs_blocks(T, theta, eta, db)
        assert np.linalg.norm(m[0], 2) <= 1.0 + elements._NORM_TOL


@pytest.mark.parametrize("args, message", [
    ((1.5, 0.0, 1.0), r"transmissivity must lie in \[0, 1\]"),
    ((-0.2, 0.0, 1.0), r"transmissivity must lie in \[0, 1\]"),
    ((0.5, 0.0, -1.0), "efficiency must be finite and nonnegative"),
    ((0.5, 0.0, 1.0, -3.0), "sideband suppression must be nonnegative"),
    ((0.5, math.inf, 1.0), "phase must be finite"),
    ((0.5, 0.0, 1e300), "matrix spectral norm exceeds 1"),
])
def test_out_of_range_settings_raise_without_warnings(args, message):
    # Warned "invalid value encountered in sqrt" (or, for the huge
    # efficiency, an overflow) before raising; a negative suppression
    # was accepted.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            fbs_blocks(*args)


@pytest.mark.parametrize("build, message", [
    (lambda: fbs_blocks(0.5, 0.0, 1.0, math.nan), "sideband suppression must not be NaN"),
    (lambda: FbsSpec(sideband_suppression_db=math.nan), "sideband_suppression_db must be finite"),
], ids=["fbs_blocks", "FbsSpec"])
def test_nan_suppression_has_its_own_message(build, message):
    # Reported as "must be nonnegative", which names the wrong fault.
    with pytest.raises(ValidationError, match=message):
        build()


class TestFilter:
    def test_drop_power_on_resonance(self):
        p = FilterParams()
        drop, _ = filter_response(p, 0.0)
        assert abs(drop) ** 2 == pytest.approx(0.946, abs=1e-12)

    def test_nearest_bin_crosstalk(self):
        # Lorentzian arithmetic: 1 / (1 + (2 * 12.95 / 4)^2).
        p = FilterParams()
        drop0, _ = filter_response(p, 0.0)
        drop1, _ = filter_response(p, 12.95)
        ratio = abs(drop1) ** 2 / abs(drop0) ** 2
        expected = 1.0 / (1.0 + (2.0 * 12.95 / 4.0) ** 2)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(0.0233, abs=5e-4)
        assert ratio < 0.03

    def test_comb_periodicity(self):
        p = FilterParams()
        d0, t0 = filter_response(p, 0.0)
        d1, t1 = filter_response(p, 100.0)
        assert abs(d1) ** 2 == pytest.approx(abs(d0) ** 2, abs=1e-12)
        assert abs(t1) ** 2 == pytest.approx(abs(t0) ** 2, abs=1e-12)

    def test_even_magnitude_odd_phase(self):
        p = FilterParams()
        deltas = np.linspace(0.1, 40.0, 57)
        dp, tp = filter_response(p, deltas)
        dm, tm = filter_response(p, -deltas)
        assert np.allclose(np.abs(dp), np.abs(dm), atol=1e-12)
        assert np.allclose(np.abs(tp), np.abs(tm), atol=1e-12)
        assert np.allclose(np.angle(dp), -np.angle(dm), atol=1e-12)

    def test_passivity(self):
        p = FilterParams(drop_efficiency=0.946)
        deltas = np.linspace(-60, 60, 501)
        drop, through = filter_response(p, deltas)
        total = np.abs(drop) ** 2 + np.abs(through) ** 2
        assert np.all(total <= 1.0 + 1e-12)
        lossless = FilterParams(drop_efficiency=1.0)
        drop, through = filter_response(lossless, deltas)
        total = np.abs(drop) ** 2 + np.abs(through) ** 2
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            FilterParams(linewidth_fwhm_ghz=200.0, fsr_ghz=100.0)
        with pytest.raises(ValidationError):
            FilterParams(drop_efficiency=0.0)


class TestAttenuatorAndPhase:
    # Attenuators enter the compiled circuits as one-mode stages of
    # amplitude sqrt(power) on bin 0, composed by `_circuit`.
    CHIP = replace(default_chip_config(), global_efficiency=1.0)

    def attenuator(self, power, stages=1):
        stage = ((0,), np.full((1, 1, 1), math.sqrt(power)), 1.0)
        return _circuit(self.CHIP, frozenset(), [stage] * stages, (0,)).u

    def test_unit_transmission_is_identity(self):
        assert np.array_equal(self.attenuator(1.0)[0], np.eye(4))

    def test_two_thirds_attenuation(self):
        # Attenuation of 2/3 means transmitted power 1/3.
        t = self.attenuator(1.0 / 3.0)[0]
        assert abs(t[0, 0]) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert abs(t[0, 0]) == pytest.approx(0.5774, abs=1e-4)
        assert t[1, 1] == 1.0 and t[0, 1] == t[1, 0] == 0.0

    def test_cascade_multiplies_power(self):
        att = self.attenuator(1.0 / 3.0, stages=2)
        assert abs(att[0, 0, 0]) ** 2 == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_attenuator_range(self):
        cfg = default_chip_config()
        for power in (0.0, 1.5):
            with pytest.raises(ValidationError):
                replace(cfg, r1_transmission=power)

    def test_phase_identity_and_period(self):
        assert ModeTransform((0,), [[np.exp(0j)]]).matrix[0, 0] == pytest.approx(1.0)
        grid = grid_from_indices([0, 1])
        state = fock_state(grid, {0: 1})
        flip = ModeTransform((0,), [[np.exp(1j * math.pi)]])
        out = apply_transform(apply_transform(state, flip), flip)
        assert out.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_wave_gives_balanced_ports(self):
        # Oracle: direct 2x2 product, H . diag(1, i) . (1, 1)/sqrt(2).
        s = 1.0 / math.sqrt(2.0)
        h = np.array([[s, s], [-s, s]])
        vec = h @ np.diag([1.0, np.exp(1j * math.pi / 2)]) @ np.array([s, s])
        expected = np.abs(vec) ** 2
        assert expected == pytest.approx([0.5, 0.5], abs=1e-12)

        from freqbin.fock import PureState

        grid = grid_from_indices([0, 1], sideband=[-1, 2])
        n = grid.n_modes
        occ_a = tuple(1 if k == grid.position(0) else 0 for k in range(n))
        occ_b = tuple(1 if k == grid.position(1) else 0 for k in range(n))
        psi = PureState(grid, {occ_a: s, occ_b: s})
        psi = apply_transform(psi, ModeTransform((1,), [[np.exp(1j * math.pi / 2)]]))
        psi = apply_transform(
            psi,
            fbs_transform(
                FbsSpec(transmissivity_T=0.5, sideband_suppression_db=math.inf),
                (0, 1, -1, 2),
            ),
        )
        assert abs(psi.amplitude(occ_a)) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(psi.amplitude(occ_b)) ** 2 == pytest.approx(0.5, abs=1e-12)
