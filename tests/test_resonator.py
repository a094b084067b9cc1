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
        assert abs(fit.two_g_ghz - 13.49) < 0.07
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

    def test_evaluation_budget_running_out_is_a_fit_error(self, monkeypatch):
        x, y = self.grid_and_spectrum()
        monkeypatch.setattr(resonator, "MAX_EVALUATIONS", 3)
        with pytest.raises(FitError, match="3 evaluations") as err:
            fit_doublet(x, y)
        assert err.value.residual > 0.0

    def test_bus_coupling_above_the_linewidth_is_a_fit_error(self):
        # The through model with kappa_ex > kappa1, a set DRParams rejects,
        # fits to a residual of 1e-16: only the coupling rule rejects it.
        x = np.linspace(-15.0, 15.0, 601)
        y = np.abs(resonator._through_field(x, 6.0, 1.0, 1.5, 2.0, 0.0)) ** 2
        with pytest.raises(FitError, match="exceeds the linewidth"):
            fit_doublet(x, y)

    @pytest.mark.parametrize("scale_x, scale_y", [(1e154, 1.0), (1e300, 1.0), (1.0, 1e200)],
                             ids=["1e154", "1e300", "transmission-1e200"])
    def test_start_past_the_float_range_fails_in_one_evaluation(
            self, scale_x, scale_y, monkeypatch):
        # Detunings this large overflow g^2 of the start, and a transmission
        # this large the cost, so no step can lower it.  The fit spent all
        # 2,000 evaluations before its FitError, and later quoted a
        # residual RMS of nan or inf, numbers it never had.
        x = np.linspace(-15.0, 15.0, 601)
        y = dr_through_spectrum(DRParams(), x)
        calls = []
        residuals = resonator._residuals
        monkeypatch.setattr(resonator, "_residuals", lambda *a: calls.append(1) or residuals(*a))
        with pytest.raises(FitError, match="^no doublet found: the fit leaves the float range$"):
            fit_doublet(x * scale_x, y * scale_y)
        assert len(calls) == 1

    def test_noisy_roundtrip_many_seeds(self):
        x, y = self.grid_and_spectrum()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = y + rng.normal(0.0, 0.01, y.shape)
            fit = fit_doublet(x, noisy)
            worst = max(worst, abs(fit.two_g_ghz - 13.49))
        assert worst < 0.2


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(3.0, 9.0),
    kappa1=st.floats(0.5, 3.0),
    coupling_share=st.floats(0.05, 0.5),
    kappa2=st.floats(0.5, 3.0),
    detune=st.floats(-1.0, 1.0),
)
def test_clean_scan_of_a_resolved_doublet_recovers_the_rates(
    g, kappa1, coupling_share, kappa2, detune
):
    # Resolved: the splitting 2g is at least twice either linewidth.  The
    # bus coupling stays at or below critical (kappa_ex <= kappa1 / 2),
    # the branch the fit's start value is taken on.
    p = DRParams(g_ghz=g, kappa1_ghz=kappa1, kappa_ex_ghz=coupling_share * kappa1,
                 kappa2_ghz=kappa2, thermal_detune_ghz=detune)
    x = np.linspace(-15.0, 15.0, 601)
    fit = fit_doublet(x, dr_through_spectrum(p, x))
    assert fit.two_g_ghz / 2.0 == pytest.approx(g, abs=1e-9)
    assert fit.linewidths_ghz[0] == pytest.approx(kappa1, abs=1e-9)
    assert fit.kappa_ex_ghz == pytest.approx(p.kappa_ex_ghz, abs=1e-9)
    assert fit.linewidths_ghz[1] == pytest.approx(kappa2, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(3.0, 9.0),
    kappa1=st.floats(0.5, 3.0),
    coupling_share=st.floats(0.05, 1.0),
    kappa2=st.floats(0.5, 3.0),
    detune=st.floats(-5.0, 5.0),
    center=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
)
def test_jacobian_matches_central_differences_of_the_residuals(
    g, kappa1, coupling_share, kappa2, detune, center
):
    # The fit's analytic Jacobian, row by row, against central differences
    # of the residuals r = |t(x - x0)|^2 - y it is built for.
    theta = np.array([g, kappa1, coupling_share * kappa1, kappa2, detune, center])
    x = np.linspace(-15.0, 15.0, 601)
    y = dr_through_spectrum(DRParams(), x)
    r, terms = resonator._residuals(theta, x, y)
    model = np.abs(resonator._through_field(x - center, *theta[:5])) ** 2
    np.testing.assert_allclose(r, model - y, rtol=0.0, atol=1e-14)
    jac = resonator._jacobian(theta, terms)
    assert jac.shape == (6, x.size)
    for k in range(6):
        step = np.zeros(6)
        step[k] = 1e-6 * max(1.0, abs(theta[k]))
        diff = (resonator._residuals(theta + step, x, y)[0]
                - resonator._residuals(theta - step, x, y)[0]) / (2.0 * step[k])
        assert np.max(np.abs(jac[k] - diff)) <= 1e-6 * np.max(np.abs(diff)), k


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


def _sorted_dip_guesses(x, y):
    """The dip-guess rule as a sort of every smoothed minimum: the
    reference `_dip_guesses` must equal (ties go to the lower index, as
    in a stable sort)."""
    width = max(3, len(y) // 40) | 1
    smooth = np.convolve(y, np.ones(width) / width, mode="same")
    minima = sorted(_loop_local_minima(x, smooth), key=lambda m: m[1])
    if len(minima) < 2:
        return "fewer than two local minima"
    rest = [m for m in minima[1:] if abs(m[0] - minima[0][0]) > 0.05 * abs(x[-1] - x[0])]
    if not rest:
        return "dips are not separated"
    return tuple(sorted((minima[0], rest[0]), key=lambda m: m[0]))


@settings(max_examples=40, deadline=None)
@given(
    points=st.sampled_from([601, 6001]),
    noise=st.sampled_from([0.0, 1e-3, 1e-2, 0.3]),
    levels=st.sampled_from([None, 4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dip_guesses_match_the_sorted_rule(points, noise, levels, seed):
    # Clean and noisy dr1 scans; rounding to few levels makes equal minima,
    # whose order the stable sort decides.
    x = np.linspace(-15.0, 15.0, points)
    y = dr_through_spectrum(DRParams(), x) + noise * np.random.default_rng(seed).normal(size=points)
    if levels:
        y = np.round(y * levels) / levels
    want = _sorted_dip_guesses(x, y)
    if isinstance(want, str):
        with pytest.raises(FitError, match=want):
            resonator._dip_guesses(x, y)
    else:
        assert resonator._dip_guesses(x, y) == want


_X200 = np.linspace(-15.0, 15.0, 200)


@pytest.mark.parametrize("y", [
    np.ones(200),
    1.0 - np.exp(-_X200**2 / 2.0) + 0.3 * np.exp(-_X200**2 / 0.2),
    np.cos(_X200),
], ids=["flat", "close-pair", "equal-minima"])
def test_dip_guesses_of_edge_curves_match_the_sorted_rule(y):
    want = _sorted_dip_guesses(_X200, y)
    if isinstance(want, str):
        with pytest.raises(FitError, match=want):
            resonator._dip_guesses(_X200, y)
    else:
        assert resonator._dip_guesses(_X200, y) == want


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
