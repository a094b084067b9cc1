#!/usr/bin/env python3
"""Characterize the coupled double resonators the way the lab would:
sweep a probe across the doublet, fit the spectrum, and read off the
mode splitting, linewidths, the parameter sets that explain them, and
the electro-optic tuning slope.

Run:  python3 demos/01_resonator_spectroscopy.py
"""

import numpy as np

from freqbin import DRParams, DriveSpec, CalibCurve
from freqbin import dr_through_spectrum, eo_resonance_shift, drive_to_splitting, fit_doublet

# The device's resonators are designed for a 2 GHz linewidth and a mode
# splitting matching the 12.95 GHz bin spacing; the best measured device
# sits at 13.49 GHz.
params = DRParams(g_ghz=6.745, kappa1_ghz=2.0, kappa_ex_ghz=1.0, kappa2_ghz=2.0)
detuning = np.linspace(-15.0, 15.0, 601)
transmission = dr_through_spectrum(params, detuning)

print("Through-port doublet (detuning in GHz, transmission):")
for k in range(0, len(detuning), 75):
    bar = "#" * int(40 * transmission[k])
    print(f"  {detuning[k]:+7.2f}  {transmission[k]:.3f}  {bar}")

# The fit needs no start value: a rational fit of |t|^2 gives the two
# hybrid poles, whose splitting and widths are what the spectrum determines.
fit = fit_doublet(detuning, transmission)
print(f"\npole splitting           : {fit.splitting_ghz:.3f} GHz (true 2g 13.490)")
print(f"pole linewidths          : {fit.linewidths_ghz[0]:.3f}, "
      f"{fit.linewidths_ghz[1]:.3f} GHz")
print(f"dip depths               : {fit.dip_depths[0]:.3f}, {fit.dip_depths[1]:.3f}")

# The zeros are known only up to conjugation, so each choice gives a
# parameter set.  With no thermal detune two of them explain the spectrum
# exactly: the true rings and a twin that no scan can tell apart.
print("candidates (g, kappa1, kappa_ex, kappa2, detune in GHz; rms residual):")
for c in fit.candidates:
    print(f"  {c.g_ghz:.3f}  {c.kappa1_ghz:.3f}  {c.kappa_ex_ghz:.3f}  {c.kappa2_ghz:.3f}"
          f"  {round(c.thermal_detune_ghz, 3) + 0.0:+.3f}  {c.residual_rms:.1e}")
print(f"note: {fit.warning}")

# The same fit still works on noisy traces.
rng = np.random.default_rng(1)
for noise in (0.01, 0.1):
    noisy_fit = fit_doublet(detuning, transmission + rng.normal(0.0, noise, len(detuning)))
    print(f"with {noise:3.0%} detector noise  : pole splitting {noisy_fit.splitting_ghz:.3f} GHz")

# A DC voltage on the inner ring pulls its resonance linearly.  The three
# resonators respond at 0.226, 0.255, and 0.222 GHz/V.
print("\nelectro-optic tuning at 10 V:")
for name, slope in (("DR1", 0.226), ("DR2", 0.255), ("DR3", 0.222)):
    print(f"  {name}: {eo_resonance_shift(10.0, slope):.3f} GHz")

# Driving the resonator with a microwave tone near the splitting converts
# light between the two hybridized modes.  The conversion follows a
# cavity-converter cooperativity curve: it rises, peaks, and rolls off.
print("\ndrive calibration (voltage -> T, R):")
calib = CalibCurve(beta_per_v=1.0, r_peak=0.95)
for v in (0.0, 0.25, 0.5, 1.0, 2.0):
    t, r = drive_to_splitting(DriveSpec(drive_voltage_v=v, calib=calib))
    print(f"  V = {v:4.2f}   T = {t:.3f}   R = {r:.3f}")
