"""Sequential reference evaluation of the experiment pipelines.

Each state is evolved element by element with the Fock engine
(`apply_transform`), every element's insertion loss is applied per
photon outside its mode set, and detection enumerates every photon's
destination (each detector or loss) one occupation at a time.  It is
slow and shares no composition or detection code with
`freqbin.experiments`, whose compiled pipelines the tests check against
it.  Each pipeline gives every beam splitter its own pair of sideband
modes, three for the gate in every basis, and evolves the leaked
amplitude with the rest: the compiled pipelines drop these modes and
count leakage as insertion loss, and this reference checks that doing so
is exact.  The element matrices, the routing weights and the gate's
input bins are the model's inputs and are taken from the package.
"""

from __future__ import annotations

import math

import numpy as np

from freqbin.elements import FbsSpec, fbs_transform
from freqbin.experiments import (
    BELL_BINS,
    CZ_CONTROL_BINS,
    CZ_TARGET_BINS,
    _CZ_INPUTS,
    _routing,
)
from freqbin.fock import (
    ROLE_SIDEBAND,
    ModeTransform,
    PureState,
    apply_transform,
    fock_state,
    grid_from_indices,
)


def _grid(cfg, n_fbs):
    """The chip's bins plus two sideband modes per beam splitter, and
    those pairs in order."""
    bins = [b.index for b in cfg.grid.bins]
    start = max(bins) + 1
    sidebands = [(start + 2 * k, start + 2 * k + 1) for k in range(n_fbs)]
    grid = grid_from_indices(bins, [m for pair in sidebands for m in pair],
                             cfg.grid.bin_spacing_ghz)
    return grid, sidebands


def _fbs(dr, bins, sidebands, toggles, transmissivity=None, theta=None):
    eta = dr.fbs.efficiency_eta if "eta" in toggles else 1.0
    spec = FbsSpec(
        transmissivity_T=dr.fbs.transmissivity_T if transmissivity is None else transmissivity,
        phase_theta=dr.fbs.phase_theta if theta is None else theta,
        efficiency_eta=eta,
        sideband_suppression_db=dr.fbs.sideband_suppression_db
        if "sideband" in toggles else math.inf,
    )
    return fbs_transform(spec, (*bins, *sidebands)), eta


def _apply_with_insertion(state, t, eta):
    """Apply an element, then sqrt(eta) per photon outside its mode set."""
    out = apply_transform(state, t)
    if eta >= 1.0:
        return out
    positions = {out.grid.position(i) for i in t.mode_subset}
    scaled = {}
    for occ, amp in out.items():
        outside = sum(c for p, c in enumerate(occ) if p not in positions)
        scaled[occ] = amp * eta ** (outside / 2.0)
    return PureState(out.grid, scaled)


def _scale_uniform(state, power_transmission):
    if power_transmission >= 1.0:
        return state
    factor = power_transmission ** (state.photon_number / 2.0)
    return PureState(state.grid, {occ: a * factor for occ, a in state.items()})


def _weights(grid, det_bins, cfg, toggles):
    """Each detector's row of the chip's routing matrix, zero on the
    sideband modes of ``grid``."""
    rows = _routing(cfg, "crosstalk" in toggles)
    return {d: np.pad(rows[d], (0, grid.n_modes - len(rows))) for d in det_bins}


def _probabilities(state):
    """{occupation: probability} of a state."""
    return {occ: abs(amp) ** 2 for occ, amp in state.items()}


def _distinguishable(first, second):
    """{occupation: probability} of two distinguishable photons, the one
    in the single-photon state ``first`` and the other in ``second``: they
    evolve independently, so their probabilities multiply, and the ways
    to one occupation add in probability."""
    probs = {}
    for occ_a, p_a in _probabilities(first).items():
        for occ_b, p_b in _probabilities(second).items():
            occ = tuple(a + b for a, b in zip(occ_a, occ_b))
            probs[occ] = probs.get(occ, 0.0) + p_a * p_b
    return probs


def _joint_detection(grid, probs, weights, group_a, group_b):
    """(outcome probabilities keyed by (detector in A, detector in B),
    singles flux per detector from occupations with every photon on a
    bin, total accepted probability) of the occupation probabilities
    ``probs`` on ``grid``."""
    set_a = set(group_a)
    set_b = set(group_b)
    dets = list(weights)
    pos_a = {grid.position(i) for i in group_a}
    pos_b = {grid.position(i) for i in group_b}
    sidebands = [p for p, b in enumerate(grid.bins) if b.role == ROLE_SIDEBAND]
    outcomes = {}
    singles = {d: 0.0 for d in dets}
    success = 0.0
    for occ, p_key in probs.items():
        photons = [p for p, c in enumerate(occ) for _ in range(c)]
        if not any(occ[p] for p in sidebands):
            for d in dets:
                singles[d] += p_key * sum(weights[d][p] for p in photons)
        if sum(occ[p] for p in pos_a) != 1 or sum(occ[p] for p in pos_b) != 1:
            continue
        assignments = [((), p_key)]
        for p in photons:
            nxt = []
            lost = 1.0
            for d in dets:
                w = weights[d][p]
                lost -= w
                if w > 0.0:
                    for hit, prob in assignments:
                        nxt.append((hit + (d,), prob * w))
            if lost > 1e-15:
                for hit, prob in assignments:
                    nxt.append((hit, prob * lost))
            assignments = nxt
        for hit, prob in assignments:
            if len(hit) != 2:
                continue
            da, db = hit
            if da in set_a and db in set_b:
                key = (da, db)
            elif db in set_a and da in set_b:
                key = (db, da)
            else:
                continue
            outcomes[key] = outcomes.get(key, 0.0) + prob
            success += prob
    return outcomes, singles, success


def _single_photon_probs(state, weights):
    probs = {d: 0.0 for d in weights}
    for occ, amp in state.items():
        for d in weights:
            probs[d] += abs(amp) ** 2 * sum(weights[d][p] * c for p, c in enumerate(occ) if c)
    return probs


def _global_eta(cfg, toggles):
    return cfg.global_efficiency if "eta" in toggles else 1.0


def fmzi_curves(cfg, phases, toggles):
    """The four fringe curves p_in{i}_port{d}."""
    grid, sb = _grid(cfg, 2)
    bins = (0, 1)
    bs1, eta1 = _fbs(cfg.dr1, bins, sb[0], toggles)
    bs3, eta3 = _fbs(cfg.dr3, bins, sb[1], toggles)
    weights = _weights(grid, bins, cfg, toggles)
    curves = {f"p_in{i + 1}_port{d + 1}": [] for i in bins for d in bins}
    for phi in phases:
        for i in bins:
            psi = _apply_with_insertion(fock_state(grid, {i: 1}), bs1, eta1)
            psi = apply_transform(psi, ModeTransform((1,), [[np.exp(1j * phi)]]))
            psi = _apply_with_insertion(psi, bs3, eta3)
            probs = _single_photon_probs(_scale_uniform(psi, _global_eta(cfg, toggles)), weights)
            for d in bins:
                curves[f"p_in{i + 1}_port{d + 1}"].append(probs[d])
    return curves


def hom_columns(cfg, reflectivities, toggles, v_indist):
    """p_cc, the distinguishable reference and the visibility per point."""
    grid, sb = _grid(cfg, 1)
    bins = (0, 1)
    weights = _weights(grid, bins, cfg, toggles)
    p_cc_col, p_dist_col, vis_col = [], [], []
    for r in reflectivities:
        bs, eta3 = _fbs(cfg.dr3, bins, sb[0], toggles, transmissivity=1.0 - r)

        def evolve(occupations):
            psi = _apply_with_insertion(fock_state(grid, occupations), bs, eta3)
            return _scale_uniform(psi, _global_eta(cfg, toggles))

        outcome, _, _ = _joint_detection(grid, _probabilities(evolve({0: 1, 1: 1})), weights,
                                         [0], [1])
        p_ind = outcome.get((0, 1), 0.0)
        marg = [_single_photon_probs(evolve({b: 1}), weights) for b in bins]
        p_dist = marg[0][0] * marg[1][1] + marg[0][1] * marg[1][0]
        p_cc = v_indist * p_ind + (1.0 - v_indist) * p_dist
        p_cc_col.append(p_cc)
        p_dist_col.append(p_dist)
        vis_col.append(0.0 if p_dist == 0.0 else (p_dist - p_cc) / p_dist)
    return p_cc_col, p_dist_col, vis_col


def cz_tables(cfg, basis, toggles):
    """Exact truth table, success per row, and the accidental weight of
    every outcome (max success times the normalized singles product).
    Each row detects the mix, at the source's overlap v, of the photon
    pair evolved as one two-photon state and of the two photons evolved
    as two independent single-photon states."""
    grid, sb = _grid(cfg, 3)
    v = cfg.source.indistinguishability if "distinguishability" in toggles else 1.0
    c0, c1 = CZ_CONTROL_BINS
    t0, t1 = CZ_TARGET_BINS
    h_bins = (c0, c1) if basis == "xz" else (t0, t1)
    prep, eta1 = _fbs(cfg.dr1, h_bins, sb[0], toggles, transmissivity=0.5, theta=0.0)
    gate, eta2 = _fbs(cfg.dr2, (t0, c1), sb[1], toggles)
    analysis, eta3 = _fbs(cfg.dr3, h_bins, sb[2], toggles, transmissivity=0.5, theta=0.0)
    weights = _weights(grid, (c0, c1, t0, t1), cfg, toggles)
    det_pairs = [(c, t) for c in (c0, c1) for t in (t0, t1)]
    exact = np.zeros((4, 4))
    success = np.zeros(4)
    singles_rows = []

    def evolve(occupations):
        psi = fock_state(grid, occupations)
        if basis != "zz":
            psi = _apply_with_insertion(psi, prep, eta1)
        psi = apply_transform(psi, ModeTransform((c0,), [[math.sqrt(cfg.r1_transmission)]]))
        psi = apply_transform(psi, ModeTransform((t1,), [[math.sqrt(cfg.r2_transmission)]]))
        psi = _apply_with_insertion(psi, gate, eta2)
        if basis != "zz":
            psi = _apply_with_insertion(psi, analysis, eta3)
        return _scale_uniform(psi, _global_eta(cfg, toggles))

    for row, (i, j) in enumerate(_CZ_INPUTS[basis].values()):
        together = _probabilities(evolve({i: 1, j: 1}))
        apart = _distinguishable(evolve({i: 1}), evolve({j: 1}))
        mixed = {occ: v * together.get(occ, 0.0) + (1.0 - v) * apart.get(occ, 0.0)
                 for occ in {*together, *apart}}
        outcome, singles, succ = _joint_detection(grid, mixed, weights, (c0, c1), (t0, t1))
        for col, pair in enumerate(det_pairs):
            exact[row, col] = outcome.get(pair, 0.0)
        success[row] = succ
        singles_rows.append(singles)
    accidental = np.zeros((4, 4))
    for row, singles in enumerate(singles_rows):
        total = sum(singles.values()) or 1.0
        pair_share = [singles[a] / total * singles[b] / total for a, b in det_pairs]
        denom = sum(pair_share) or 1.0
        accidental[row] = [success.max() * s / denom for s in pair_share]
    return exact, success, accidental


def bell_curves(cfg, phases, toggles):
    """The four fringe curves p_pp, p_pm, p_mp, p_mm."""
    grid, sb = _grid(cfg, 2)
    f1, f2, f3, f4 = BELL_BINS
    v = cfg.source.indistinguishability if "distinguishability" in toggles else 1.0
    weights = _weights(grid, BELL_BINS, cfg, toggles)
    outcome_pairs = [(f1, f3), (f1, f4), (f2, f3), (f2, f4)]
    amp = 1.0 / math.sqrt(2.0)
    occ_00 = [0] * grid.n_modes
    occ_00[grid.position(f1)] = occ_00[grid.position(f4)] = 1
    occ_11 = [0] * grid.n_modes
    occ_11[grid.position(f2)] = occ_11[grid.position(f3)] = 1
    bell_state = PureState(grid, {tuple(occ_00): amp, tuple(occ_11): amp})
    products = [fock_state(grid, {f1: 1, f4: 1}), fock_state(grid, {f2: 1, f3: 1})]
    analyzer_a, eta1 = _fbs(cfg.dr1, (f1, f2), sb[0], toggles, transmissivity=0.5, theta=0.0)
    curves = {name: [] for name in ("p_pp", "p_pm", "p_mp", "p_mm")}
    for phi in phases:
        analyzer_b, eta2 = _fbs(cfg.dr2, (f3, f4), sb[1], toggles, transmissivity=0.5, theta=phi)

        def project(state):
            out = _apply_with_insertion(state, analyzer_a, eta1)
            out = _apply_with_insertion(out, analyzer_b, eta2)
            out = _scale_uniform(out, _global_eta(cfg, toggles))
            return _joint_detection(grid, _probabilities(out), weights, (f1, f2), (f3, f4))[0]

        coherent = project(bell_state)
        parts = [project(s) for s in products]
        for name, pair in zip(curves, outcome_pairs):
            incoherent = 0.5 * (parts[0].get(pair, 0.0) + parts[1].get(pair, 0.0))
            curves[name].append(v * coherent.get(pair, 0.0) + (1.0 - v) * incoherent)
    return curves
