"""Double-resonator spectroscopy, drive calibration, and fitting tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqbin
from freqbin import resonator
from freqbin.errors import FitError, ValidationError
from freqbin.resonator import (
    CalibCurve,
    DRParams,
    DriveSpec,
    dr_through_spectrum,
    drive_to_splitting,
    eo_resonance_shift,
    fit_doublet,
)


def located_minima(x, y):
    out = []
    for i in range(1, len(y) - 1):
        if y[i] < y[i - 1] and y[i] <= y[i + 1]:
            out.append((x[i], y[i]))
    return out


class TestSpectrum:
    def test_dip_separation_close_to_splitting(self):
        p = DRParams(g_ghz=6.745, kappa1_ghz=2.0, kappa_ex_ghz=1.0, kappa2_ghz=2.0)
        x = np.linspace(-15.0, 15.0, 6001)
        y = dr_through_spectrum(p, x)
        dips = sorted(located_minima(x, y), key=lambda m: m[1])[:2]
        xs = sorted(pos for pos, _ in dips)
        separation = xs[1] - xs[0]
        assert abs(separation - 13.49) / 13.49 < 0.02

    def test_critical_coupling_single_dip(self):
        # Single-ring limit: the dip reaches zero when the bus coupling
        # equals half the total linewidth.
        p = DRParams(g_ghz=1e-9, kappa1_ghz=2.0, kappa_ex_ghz=1.0, kappa2_ghz=2.0)
        x = np.linspace(-10.0, 10.0, 2001)
        y = dr_through_spectrum(p, x)
        assert y[np.argmin(np.abs(x))] == pytest.approx(0.0, abs=1e-12)
        assert len(located_minima(x, y)) == 1

    def test_large_thermal_detune_asymmetric_dips(self):
        p = DRParams(g_ghz=6.475, kappa1_ghz=2.0, kappa_ex_ghz=1.0, kappa2_ghz=2.0,
                     thermal_detune_ghz=40.0)
        x = np.linspace(-20.0, 60.0, 8001)
        y = dr_through_spectrum(p, x)
        dips = sorted(located_minima(x, y), key=lambda m: m[0])
        assert len(dips) == 2
        near_zero, near_detuned = dips
        assert abs(near_zero[0]) < 2.5
        assert abs(near_detuned[0] - 40.0) < 2.5
        assert near_zero[1] < near_detuned[1]  # deep dip at zero, shallow at detune

    def test_passivity(self):
        rng = np.random.default_rng(11)
        x = np.linspace(-40.0, 40.0, 801)
        for _ in range(40):
            k1 = float(rng.uniform(0.5, 5.0))
            p = DRParams(
                g_ghz=float(rng.uniform(0.5, 10.0)),
                kappa1_ghz=k1,
                kappa_ex_ghz=float(rng.uniform(0.05, k1)),
                kappa2_ghz=float(rng.uniform(0.5, 5.0)),
                thermal_detune_ghz=float(rng.uniform(-10.0, 10.0)),
            )
            y = dr_through_spectrum(p, x)
            assert np.all(y >= 0.0) and np.all(y <= 1.0 + 1e-12)

    def test_symmetry_at_zero_detune(self):
        p = DRParams(g_ghz=6.475, kappa1_ghz=2.0, kappa_ex_ghz=0.8, kappa2_ghz=2.0)
        x = np.linspace(-20.0, 20.0, 2001)
        y = dr_through_spectrum(p, x)
        assert np.max(np.abs(y - y[::-1])) < 1e-9

    def test_coupling_bound(self):
        with pytest.raises(ValidationError):
            DRParams(kappa1_ghz=2.0, kappa_ex_ghz=3.0)


class TestEoShift:
    def test_zero_voltage(self):
        assert eo_resonance_shift(0.0, 0.226) == 0.0

    def test_slopes(self):
        assert eo_resonance_shift(10.0, 0.226) == pytest.approx(2.26)
        assert eo_resonance_shift(-5.0, 0.222) == pytest.approx(-1.11)


class TestDriveCalibration:
    def test_no_drive(self):
        assert drive_to_splitting(DriveSpec(drive_voltage_v=0.0)) == (1.0, 0.0)

    def test_peak_conversion_at_unit_cooperativity(self):
        d = DriveSpec(drive_voltage_v=1.0, calib=CalibCurve(beta_per_v=1.0, r_peak=0.9))
        t, r = drive_to_splitting(d)
        assert r == pytest.approx(0.9)
        assert t == pytest.approx(0.1)

    def test_half_volt_point(self):
        d = DriveSpec(drive_voltage_v=0.5, calib=CalibCurve(beta_per_v=1.0, r_peak=1.0))
        t, r = drive_to_splitting(d)
        assert r == pytest.approx(0.64)
        assert t == pytest.approx(0.36)

    def test_sum_and_bound(self):
        calib = CalibCurve(beta_per_v=0.7, r_peak=0.85)
        for v in np.linspace(0.0, 5.0, 101):
            t, r = drive_to_splitting(DriveSpec(drive_voltage_v=float(v), calib=calib))
            assert t + r == pytest.approx(1.0, abs=1e-15)
            assert r <= 0.85 + 1e-12

    def test_rise_then_rolloff(self):
        calib = CalibCurve(beta_per_v=1.0, r_peak=1.0)
        rs = [drive_to_splitting(DriveSpec(drive_voltage_v=v, calib=calib))[1]
              for v in (0.2, 0.6, 1.0, 1.8, 3.0)]
        assert rs[0] < rs[1] < rs[2]
        assert rs[2] > rs[3] > rs[4]


    @pytest.mark.parametrize("cls, name", [(CalibCurve, "beta_per_v"),
                                           (DriveSpec, "drive_voltage_v")])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, cls, name, value):
        # Were accepted, and the splitting came out (nan, nan).
        with pytest.raises(ValidationError, match=f"^{name} must be finite$"):
            cls(**{name: value})

    @pytest.mark.parametrize("beta, volts", [(1.0, 1e200), (1e10, 1.7e308), (1e200, 1e200)])
    def test_large_drive_rolls_off_to_full_transmission(self, beta, volts):
        # (beta V)**2 raised a bare OverflowError.
        d = DriveSpec(drive_voltage_v=volts, calib=CalibCurve(beta_per_v=beta))
        assert drive_to_splitting(d) == (1.0, 0.0)

    def test_cooperativity_curve_where_it_is_finite(self):
        # R = r_peak 4C / (1 + C)^2 with C = (beta V)^2, as written, wherever
        # that form stays inside the float range.
        calib = CalibCurve(beta_per_v=1.0, r_peak=0.95)
        for v in np.logspace(-150.0, 70.0, 2201):
            c = float(v) ** 2
            want = 0.95 * 4.0 * c / (1.0 + c) ** 2
            t, r = drive_to_splitting(DriveSpec(drive_voltage_v=float(v), calib=calib))
            assert abs(r - want) <= 1e-15 and abs(t - (1.0 - want)) <= 1e-15


_RAISE_SITES = {
    "peak reflectivity 0": (lambda: CalibCurve(r_peak=0.0), r"r_peak must lie in \(0, 1\]"),
    "peak reflectivity above 1": (lambda: CalibCurve(r_peak=1.5), r"r_peak must lie in \(0, 1\]"),
    "slope 0": (lambda: CalibCurve(beta_per_v=0.0), "beta_per_v must be positive"),
    "negative voltage": (lambda: DriveSpec(drive_voltage_v=-1.0), "must be nonnegative"),
    "fit of unequal lengths": (lambda: fit_doublet(np.zeros(60), np.zeros(59)),
                               "equal-length 1-d arrays"),
    "fit of a 2-d scan": (lambda: fit_doublet(np.zeros((60, 2)), np.zeros((60, 2))),
                          "equal-length 1-d arrays"),
}


@pytest.mark.parametrize("site", list(_RAISE_SITES))
def test_raise_sites(site):
    call, message = _RAISE_SITES[site]
    with pytest.raises(ValidationError, match=message):
        call()


class TestDoubletFit:
    GEN = DRParams(g_ghz=6.745, kappa1_ghz=2.0, kappa_ex_ghz=1.0, kappa2_ghz=2.0)

    def grid_and_spectrum(self):
        x = np.linspace(-15.0, 15.0, 301)
        return x, dr_through_spectrum(self.GEN, x)

    def test_noiseless_roundtrip(self):
        x, y = self.grid_and_spectrum()
        fit = fit_doublet(x, y)
        assert abs(fit.splitting_ghz - 13.49) < 0.07
        assert fit.linewidths_ghz[0] == pytest.approx(2.0, rel=5e-3)
        assert fit.linewidths_ghz[1] == pytest.approx(2.0, rel=5e-3)
        assert fit.residual_rms < 1e-9

    def test_flat_spectrum_raises(self):
        x = np.linspace(-15.0, 15.0, 301)
        with pytest.raises(FitError):
            fit_doublet(x, np.ones_like(x))

    def test_too_few_samples(self):
        x = np.linspace(-15.0, 15.0, 20)
        with pytest.raises(ValidationError):
            fit_doublet(x, dr_through_spectrum(self.GEN, x))

    def test_bus_coupling_above_the_linewidth_is_a_fit_error(self):
        # The through model with kappa_ex > kappa1, a set DRParams rejects.
        # Its poles and zeros fit exactly, but each parameter set they give
        # has kappa_ex > kappa1: the rule leaves no candidate.
        x = np.linspace(-15.0, 15.0, 601)
        y = np.abs(resonator._through_field(x, 6.0, 1.0, 1.5, 2.0, 0.0)) ** 2
        with pytest.raises(FitError, match="^no doublet found: no physical candidate has"
                                           " kappa_ex <= kappa1$"):
            fit_doublet(x, y)

    @pytest.mark.parametrize("scale_x, scale_y, site", [
        (1e154, 1.0, "fit_doublet"), (1e300, 1.0, "fit_doublet"),
        (1.0, 1e200, "_relocated"), (1.0, 1e-200, "_rational_roots"),
    ], ids=["1e154", "1e300", "transmission-1e200", "transmission-1e-200"])
    def test_scan_past_the_float_range_is_a_fit_error(self, scale_x, scale_y, site):
        # Detunings this large overflow the model's products, and a
        # transmission this large the rational fit's moments.  One this
        # faint gives Q real roots near 1e185, whose relocated quartic has
        # coefficients past the float range, caught after the steps.  No
        # numpy warning may escape (pytest turns each into an error), and
        # no residual of nan or inf is quoted.
        x = np.linspace(-15.0, 15.0, 601)
        y = dr_through_spectrum(DRParams(), x)
        with pytest.raises(FitError, match="^no doublet found: the fit leaves the float range$"
                           ) as raised:
            fit_doublet(x * scale_x, y * scale_y)
        assert raised.traceback[-1].name == site

    def test_faint_scan_has_no_pole_pair(self):
        # The linear solve gives Q a double root at 0, which relocation
        # leaves on the real axis: one pole lies above it.
        x = np.linspace(-15.0, 15.0, 601)
        y = dr_through_spectrum(DRParams(), x) * 1e-100
        with pytest.raises(FitError, match="^no doublet found: fewer than two poles in the"
                                           " upper half-plane$"):
            fit_doublet(x, y)

    @pytest.mark.parametrize("noise", [0.06, 0.08, 0.1])
    def test_noisy_scans_of_the_default_doublet_fit(self, noise):
        # Levenberg-Marquardt fitted each of these scans.  Four linear
        # solves reweighted by 1/Q^2 (Sanathanan-Koerner), with no
        # Gauss-Newton steps, left real roots in Q, so no upper-half-plane
        # pair, from 6% noise on.  The worst splitting error at 10% was
        # 0.22 GHz by Levenberg-Marquardt and is 0.20 GHz now (200 seeds).
        x = np.linspace(-15.0, 15.0, 601)
        y = dr_through_spectrum(DRParams(), x)
        worst = 0.0
        for seed in range(50):
            noisy = y + np.random.default_rng(seed).normal(0.0, noise, x.shape)
            worst = max(worst, abs(fit_doublet(x, noisy).splitting_ghz - 12.95))
        assert worst < 3.0 * noise

    def test_noisy_scans_of_a_shallow_doublet_fit(self):
        # Dips 0.3 deep under 5% noise.  Levenberg-Marquardt fitted each scan
        # (2g off by up to 0.28 GHz, 100 seeds); reweighted linear solves
        # alone, and Gauss-Newton steps taken whole, fitted none.
        g, kappa1, kappa_ex, kappa2, detune = 5.0, 1.5, 0.2, 1.0, 0.5
        p1, p2 = _poles(g, kappa1, kappa2, detune)
        x = np.linspace(-15.0, 15.0, 601)
        y = np.abs(resonator._through_field(x, g, kappa1, kappa_ex, kappa2, detune)) ** 2
        worst = 0.0
        for seed in range(50):
            noisy = y + np.random.default_rng(seed).normal(0.0, 0.05, x.shape)
            worst = max(worst, abs(fit_doublet(x, noisy).splitting_ghz - (p2 - p1).real))
        assert worst < 0.4

    @pytest.mark.parametrize("noise", [0.01, 0.05])
    def test_noise_without_a_doublet_is_a_fit_error(self, noise):
        # The rational fit explains flat noise with some poles and zeros;
        # the parameter sets they give fit it far worse than noise would.
        x = np.linspace(-15.0, 15.0, 601)
        for seed in range(100):
            with pytest.raises(FitError):
                fit_doublet(x, 1.0 + np.random.default_rng(seed).normal(0.0, noise, x.shape))

    def test_noisy_roundtrip_many_seeds(self):
        x, y = self.grid_and_spectrum()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = y + rng.normal(0.0, 0.01, y.shape)
            fit = fit_doublet(x, noisy)
            worst = max(worst, abs(fit.splitting_ghz - 13.49))
        assert worst < 0.2


def _poles(g, kappa1, kappa2, detune):
    """The hybrid poles of the through model in order of detuning: the roots
    of (d - i kappa1/2)(d - detune - i kappa2/2) = g^2."""
    a, b = 0.5j * kappa1, detune + 0.5j * kappa2
    return np.sort_complex(np.roots([1.0, -(a + b), a * b - g * g]))


def _twin(g, kappa1, kappa_ex, kappa2):
    """(g, kappa1, kappa_ex, kappa2, detune, center) of the twin of a
    doublet with no detune: the set whose zeros are the conjugates of the
    doublet's, so that its spectrum is the same."""
    kappa_ex_twin = kappa1 + kappa2 - kappa_ex
    kappa2_twin = kappa_ex * kappa2 / kappa_ex_twin
    kappa1_twin = kappa1 + kappa2 - kappa2_twin
    g_twin = math.sqrt(g * g + (kappa1 * kappa2 - kappa1_twin * kappa2_twin) / 4.0)
    return g_twin, kappa1_twin, kappa_ex_twin, kappa2_twin, 0.0, 0.0


def _gap(a, b):
    return max(abs(u - v) for u, v in zip(a, b))


def _same_set_ghz(g, kappa1, kappa_ex, kappa2, detune):
    """How near a candidate must lie to a parameter set to be that set,
    GHz.  The zeros of the through field are the poles with kappa1 -
    2 kappa_ex in place of kappa1.  A zero at height h above the real axis
    is, with its conjugate, a pair of roots of the fitted numerator h apart,
    found to about 1e-12 / h GHz: in 3000 draws the gap times h stayed below
    6e-12, and under 1.5e-6 GHz as h went to 0 (kappa_ex = (kappa1 +
    kappa2) / 2 with no detune, a double root).  So 1e-9 GHz where the
    zeros are simple, as for every kappa_ex <= kappa1 / 2, widening to
    1e-4 GHz near the double root."""
    h = min(abs(_poles(g, kappa1 - 2.0 * kappa_ex, kappa2, detune).imag))
    return min(1e-4, max(1e-9, 1e-11 / h)) if h else 1e-4


@settings(max_examples=200, deadline=None)
@given(
    g=st.floats(3.0, 9.0),
    kappa1=st.floats(0.5, 3.0),
    coupling_share=st.floats(0.1, 1.0, exclude_min=True),
    kappa2=st.floats(0.5, 3.0),
    detune=st.just(0.0) | st.floats(-2.0, 2.0),
)
def test_clean_scan_of_a_resolved_doublet_recovers_the_rates(
    g, kappa1, coupling_share, kappa2, detune
):
    # The fit reports the poles, which every parameter set with the same
    # spectrum shares, and lists the parameter sets.  Levenberg-Marquardt
    # accepted wrong minima here (2g off by up to 0.17 GHz) and, with no
    # detune, returned one of two sets with the same spectrum and no word
    # of the other.
    p = DRParams(g_ghz=g, kappa1_ghz=kappa1, kappa_ex_ghz=coupling_share * kappa1,
                 kappa2_ghz=kappa2, thermal_detune_ghz=detune)
    x = np.linspace(-15.0, 15.0, 601)
    fit = fit_doublet(x, dr_through_spectrum(p, x))
    p1, p2 = _poles(g, kappa1, kappa2, detune)
    assert fit.splitting_ghz == pytest.approx((p2 - p1).real, abs=1e-9)
    assert fit.linewidths_ghz == pytest.approx((2.0 * p1.imag, 2.0 * p2.imag), abs=1e-9)
    truth = (g, kappa1, p.kappa_ex_ghz, kappa2, detune, 0.0)
    same = _same_set_ghz(*truth[:5])
    assert min(_gap(c, truth) for c in fit.candidates) < same
    if coupling_share <= 0.5:
        assert same == 1e-9
    if detune == 0.0:
        twin = _twin(g, kappa1, p.kappa_ex_ghz, kappa2)
        assert min(_gap(c, twin) for c in fit.candidates) < same
        assert fit.warning or _gap(twin, truth) < same  # a twin that is the truth


def test_default_doublet_is_reported_with_its_twin():
    # The default resonator and the set with the same spectrum, g 6.5092,
    # kappa1 3.333, kappa_ex 3.0 and kappa2 0.667: both fit to rounding, and
    # only the poles, 2g = 12.95 GHz apart with 2.0 GHz widths, are reported.
    x = np.linspace(-15.0, 15.0, 6001)
    fit = fit_doublet(x, dr_through_spectrum(DRParams(), x))
    assert fit.splitting_ghz == pytest.approx(12.95, abs=1e-12)
    assert fit.linewidths_ghz == pytest.approx((2.0, 2.0), abs=1e-12)
    assert fit.candidates[1].residual_rms < 1e-14 < 1e-3 < fit.candidates[2].residual_rms
    sets = sorted(c[:6] for c in fit.candidates[:2])
    assert sets[0] == pytest.approx((6.475, 2.0, 1.0, 2.0, 0.0, 0.0), abs=1e-9)
    assert sets[1] == pytest.approx(_twin(6.475, 2.0, 1.0, 2.0), abs=1e-9)
    assert fit.warning == ("2 candidates explain the scan equally, with g from 6.4750 to"
                           " 6.5092 GHz: only the pole splitting and linewidths are determined")


def _loop_local_minima(x, y):
    """Per-sample loop of the minima rule: the reference `_minima_at`
    must equal, read as (position, value) pairs."""
    out = []
    for i in range(1, len(y) - 1):
        if y[i] <= y[i - 1] and y[i] <= y[i + 1] and (y[i] < y[i - 1] or y[i] < y[i + 1]):
            out.append((float(x[i]), float(y[i])))
    return out


def _pairs(x, y, at):
    return [(float(x[i]), float(y[i])) for i in at]


@settings(max_examples=300, deadline=None)
@given(y=st.lists(st.integers(0, 3).map(float) | st.floats(-2.0, 2.0), max_size=80))
def test_local_minima_match_the_loop(y):
    # Few distinct levels make plateaus and ties with a neighbour common.
    y = np.asarray(y, dtype=float)
    x = np.linspace(-15.0, 15.0, len(y))
    assert _pairs(x, y, resonator._minima_at(y)) == _loop_local_minima(x, y)


def test_local_minima_of_the_dr1_scan_match_the_loop():
    x = np.linspace(-15.0, 15.0, 6001)
    y = dr_through_spectrum(DRParams(), x)
    minima = _pairs(x, y, resonator._minima_at(y))
    assert len(minima) == 2 and minima == _loop_local_minima(x, y)


def _scipy_modules_after(code: str) -> str:
    """Sorted scipy modules loaded after running ``code`` in a fresh
    interpreter that imports this checkout's freqbin."""
    src = str(Path(freqbin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code += "\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip().splitlines()[-1]


def test_package_import_leaves_scipy_unloaded():
    assert _scipy_modules_after("import sys, freqbin") == "[]"


def test_spectroscopy_run_leaves_scipy_unloaded(tmp_path):
    # The doublet fit is numpy only, so a run that fits all three double
    # resonators does not pay for importing scipy.
    manifest = tmp_path / "m.json"
    manifest.write_text('{"experiment": "spectroscopy", "target": "all"}')
    code = ("import sys\nfrom freqbin.cli import main\n"
            f"assert main(['run', {str(manifest)!r}, '--out', {str(tmp_path)!r}]) == 0")
    assert _scipy_modules_after(code) == "[]"
