"""Double-resonator spectroscopy, drive calibration, and fitting tests."""

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
