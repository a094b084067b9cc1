#!/usr/bin/env python3
"""Two-photon interference between distinct frequency bins: sweep the
beam-splitter reflectivity through the bunching point and look at the
time-correlation histogram that the counting electronics would record.

Run:  python3 demos/04_hom_dip.py
"""

from dataclasses import replace

import numpy as np

from freqbin import default_chip_config, run_hom
from freqbin.experiments import HOM_INDISTINGUISHABILITY

cfg = default_chip_config()
reflectivities = np.linspace(0.0, 1.0, 21)

# Ideal sweep: coincidences follow (1 - 2R)^2 and the visibility follows
# 2R(1-R) / (R^2 + (1-R)^2), reaching 1 at the balanced point.
res = run_hom(cfg, reflectivities)
print("reflectivity sweep (ideal photons):")
print(f"  {'R':>5} {'p_cc':>8} {'visibility':>11}")
for r, p, v in zip(res.series["reflectivity"], res.series["p_cc"],
                   res.series["visibility"]):
    print(f"  {r:5.2f} {p:8.4f} {v:11.4f}")

# Partially distinguishable photons cap the dip: at the recorded
# indistinguishability the balanced-point visibility is 94.9%.
sampled_cfg = replace(
    cfg, detector=replace(cfg.detector, integration_s=5.0),
    source=replace(cfg.source, indistinguishability=HOM_INDISTINGUISHABILITY),
)
sampled = run_hom(
    sampled_cfg, np.linspace(0.0, 1.0, 41),
    seed=7, imperfections={"distinguishability"}, sample=True,
)
vis = sampled.metrics["visibility_at_balanced"]
print(f"\nbalanced visibility with v = {HOM_INDISTINGUISHABILITY}: "
      f"{vis.value:.4f} +- {vis.sigma:.4f} (from sampled counts)")

# The coincidence histogram versus arrival-time difference: a two-sided
# exponential set by the 202 MHz photon linewidth, convolved with the
# 512 ps timing window.
tau = np.asarray(sampled.extras["histogram_tau_ps"])
shape = np.asarray(sampled.extras["histogram_shape"])
print("\ntime-correlation envelope (peak-normalized):")
for k in range(0, len(tau), 40):
    bar = "#" * int(34 * shape[k])
    print(f"  {tau[k]:+7.0f} ps  {shape[k]:.3f}  {bar}")
half = tau[np.argmin(np.abs(shape - 0.5))]
print(f"half-maximum near {abs(half):.0f} ps "
      "(coherence time 788 ps for a 202 MHz photon)")
