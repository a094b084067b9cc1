#!/usr/bin/env python3
"""Build the optical elements and inspect their matrices: the two-bin
beam splitter with its sideband budget, the add-drop filter comb, and
the photon-level interference they produce.

Run:  python3 demos/02_beam_splitter_elements.py
"""

import math

import numpy as np

from freqbin import (
    FbsSpec,
    FilterParams,
    apply_transform,
    fbs_transform,
    filter_response,
    fock_state,
    grid_from_indices,
    transition_amplitude,
)

# Beam splitters between bins 0 and 1, leaking into their grid neighbors
# -1 and 2.
MODES = (0, 1, -1, 2)

# A balanced beam splitter between two bins, ideal (no loss, no leakage).
ideal = fbs_transform(
    FbsSpec(transmissivity_T=0.5, sideband_suppression_db=math.inf), MODES
)
print("balanced splitter, bins (0, 1) block:")
print(np.array_str(ideal.matrix[:2, :2].real, precision=4))
print("unitary:", ideal.is_unitary)

# The same element with realistic settings: 69% total efficiency and
# 24 dB suppression of the second-order sidebands.
real = fbs_transform(
    FbsSpec(transmissivity_T=0.5, efficiency_eta=0.69, sideband_suppression_db=24.0),
    MODES,
)
col = real.matrix[:, 0]
print("\nrealistic splitter, input on the lower bin:")
print(f"  stays in bin        : {abs(col[0])**2:.4f}")
print(f"  converted to bin+1  : {abs(col[1])**2:.4f}")
print(f"  leaked to sideband  : {abs(col[2])**2:.2e}")
print(f"  column power total  : {np.sum(np.abs(col)**2):.4f}  (equals eta)")

# Two photons meeting on the splitter: the bunching null at T = R and the
# partial-survival amplitude T - R at the gate setting T = 1/3.
grid = grid_from_indices([0, 1], sideband=[-1, 2])
pair = fock_state(grid, {0: 1, 1: 1})
for T in (0.5, 1.0 / 3.0):
    bs = fbs_transform(FbsSpec(transmissivity_T=T, sideband_suppression_db=math.inf), MODES)
    out = apply_transform(pair, bs)
    pos0, pos1 = grid.position(0), grid.position(1)
    occ = [0] * grid.n_modes
    occ[pos0], occ[pos1] = 1, 1
    amp = out.amplitude(tuple(occ))
    oracle = transition_amplitude(bs, (1, 1, 0, 0), (1, 1, 0, 0))
    print(f"\nT = {T:.3f}: coincidence amplitude {amp.real:+.4f} "
          f"(permanent oracle {oracle.real:+.4f}, law T - R = {2*T-1:+.4f})")

# The demultiplexing filters: a 4 GHz Lorentzian comb with a 100 GHz
# period.  One bin away the drop power falls to 2.3%.
filt = FilterParams()
print("\nadd-drop filter response:")
for delta in (0.0, 12.95, 25.9, 100.0):
    drop, through = filter_response(filt, delta)
    print(f"  detuning {delta:6.2f} GHz: drop {abs(drop)**2:.4f}  "
          f"through {abs(through)**2:.4f}")
ratio = abs(filter_response(filt, 12.95)[0]) ** 2 / abs(filter_response(filt, 0.0)[0]) ** 2
print(f"nearest-bin crosstalk: {100 * ratio:.2f}% (below the 3% requirement)")
