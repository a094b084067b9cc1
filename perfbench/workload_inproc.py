"""Workloads that call freqbin in the benchmark's own process.

``sweep_dense``: one op is one reproduction pass of the five figures at
ten times the default sweep density, every imperfection on.

``oracle_verify``: one op builds four random circuits on the 14-mode
working grid (4 computational bins plus the sideband pairs of five beam
splitters), one per photon number 1..4, evolves each with
``apply_transform`` and checks every output amplitude against the
Ryser-permanent ``transition_amplitude`` of the composed matrix.

Calls go through the module attributes (``xp.run_fmzi``, ``fock.permanent``)
so that the span wrappers see them in a traced op.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from freqbin import experiments as xp
from freqbin import fock

from common import (
    ALL_IMPERFECTIONS,
    EXPERIMENTS,
    SETTINGS,
    SPECTROSCOPY_TARGETS,
    TOLERANCE,
    compare,
    derive_seed,
    exact_fields,
)

DENSE_POINTS = 401
DENSE_SCAN_POINTS = 6001


def configure(base: xp.ChipConfig, experiment: str) -> xp.ChipConfig:
    """The chip configuration `freqbin run` builds for the experiment's
    manifest in ``common.manifests``."""
    cfg = base
    overrides = SETTINGS[experiment]
    if "source" in overrides:
        cfg = replace(cfg, source=replace(cfg.source, **overrides["source"]))
    if "detector" in overrides:
        cfg = replace(cfg, detector=replace(cfg.detector, **overrides["detector"]))
    if experiment == "bell":
        # As in the command line: entanglement analysis runs DR2 balanced.
        fbs = replace(cfg.dr2.fbs, transmissivity_T=0.5)
        cfg = replace(cfg, dr2=replace(cfg.dr2, fbs=fbs))
    return cfg


def as_payload(entry: dict) -> dict:
    """One experiment's output of a pass in the layout of result.json."""
    return {
        k: {"series": v.series, "extras": v.extras,
            "metrics": {name: {"value": m.value} for name, m in v.metrics.items()}}
        if isinstance(v, xp.ExperimentResult) else v
        for k, v in entry.items()
    }


class SweepDense:
    in_process = True
    pool_size = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self._seed = seed
        self._reference = reference["sweep_dense"]
        self._base = xp.default_chip_config()
        self._cfg = {name: configure(self._base, name) for name in EXPERIMENTS}
        self._toggles = frozenset(ALL_IMPERFECTIONS)
        self._phases = np.linspace(0.0, 2.0 * math.pi, DENSE_POINTS)
        self._reflectivities = np.linspace(0.0, 1.0, DENSE_POINTS)
        self._scan = np.linspace(-15.0, 15.0, DENSE_SCAN_POINTS)

    def prepare(self, index: int) -> None:
        pass

    def run(self, index: int, spans_file=None) -> dict:
        seed = derive_seed(self._seed, "pass", index)
        cfg, toggles = self._cfg, self._toggles
        return {
            "fmzi": {"result": xp.run_fmzi(
                cfg["fmzi"], self._phases, mode="quantum", seed=seed,
                imperfections=toggles)},
            "hom": {"result": xp.run_hom(
                cfg["hom"], self._reflectivities, seed=seed,
                imperfections=toggles, sample=True)},
            "bell": {"result": xp.run_bell(
                cfg["bell"], self._phases, seed=seed, imperfections=toggles,
                sample=True)},
            "cz": xp.run_cz_characterization(cfg["cz"], toggles, seed, True),
            "spectroscopy": {
                t: xp.run_spectroscopy(cfg["spectroscopy"], self._scan, target=t)
                for t in SPECTROSCOPY_TARGETS
            },
        }

    def check(self, index: int, out: dict) -> tuple[list[str], dict]:
        """Exact numbers against the reference, finite sampled metrics, and
        two exact laws of the ideal chip: gate success 1/9 per input and
        the two-photon visibility 2RT / (R^2 + T^2)."""
        failures = []
        for name in EXPERIMENTS:
            fields = exact_fields(name, as_payload(out[name]))
            failures += [f"{name}: {f}" for f in compare(fields, self._reference[name])]
        results = [out["fmzi"]["result"], out["hom"]["result"], out["bell"]["result"],
                   out["cz"]["xz"], out["cz"]["zx"]]
        for res in results:
            for key, m in res.metrics.items():
                if not math.isfinite(m.value):
                    failures.append(f"{res.experiment}: metric {key} = {m.value}")
        if not 0.0 <= out["cz"]["hofmann_bound"] <= 1.0:
            failures.append(f"cz: hofmann bound {out['cz']['hofmann_bound']}")

        ideal_cz = np.asarray(xp.run_cz(self._base, "zz").extras["table_exact"])
        gap = float(np.max(np.abs(ideal_cz - np.eye(4) / 9.0)))
        if not gap < TOLERANCE:
            failures.append(f"ideal cz table differs from 1/9 by {gap:.3e}")
        rs = np.linspace(0.0, 1.0, 41)
        vis = np.asarray(xp.run_hom(self._base, rs).series["visibility"])
        law = 2.0 * rs * (1.0 - rs) / (rs**2 + (1.0 - rs) ** 2)
        gap = float(np.max(np.abs(vis - law)))
        if not gap < TOLERANCE:
            failures.append(f"ideal HOM visibility differs from the law by {gap:.3e}")
        return failures, {}


N_MODES = 14
N_COMPUTATIONAL = 4
PHOTON_NUMBERS = (1, 2, 3, 4)
#: Widths of the element-sized blocks that follow the wide block.
SMALL_BLOCKS = (2, 3, 4, 4)


def _occupations(n_photons: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(N_MODES), n_photons):
        occ = [0] * N_MODES
        for m in combo:
            occ[m] += 1
        out.append(tuple(occ))
    return out


def _random_block(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-random unitary times a uniform insertion loss in [0.8, 1]."""
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return math.sqrt(rng.uniform(0.8, 1.0)) * q * (d / np.abs(d))


class OracleVerify:
    in_process = True
    pool_size = 1

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self._seed = seed
        self._grid = fock.grid_from_indices(
            range(N_COMPUTATIONAL), sideband=range(N_COMPUTATIONAL, N_MODES)
        )
        self._outputs = {n: _occupations(n) for n in PHOTON_NUMBERS}

    def prepare(self, index: int) -> None:
        pass

    def run(self, index: int, spans_file=None) -> list[dict]:
        rng = np.random.default_rng(derive_seed(self._seed, "circuits", index))
        everything = tuple(range(N_MODES))
        results = []
        for n in PHOTON_NUMBERS:
            occ_in = [0] * N_MODES
            for m in rng.choice(N_MODES, size=n, replace=False):
                occ_in[int(m)] += 1
            state = fock.fock_state(
                self._grid, {m: c for m, c in enumerate(occ_in) if c}
            )
            composed = np.eye(N_MODES, dtype=complex)
            subsets = [everything] + [
                tuple(sorted(int(x) for x in rng.choice(N_MODES, size=w, replace=False)))
                for w in SMALL_BLOCKS
            ]
            for subset in subsets:
                block = _random_block(rng, len(subset))
                state = fock.apply_transform(state, fock.ModeTransform(subset, block))
                embed = np.eye(N_MODES, dtype=complex)
                embed[np.ix_(subset, subset)] = block
                composed = embed @ composed
            oracle = fock.ModeTransform(everything, composed)
            worst = 0.0
            for occ_out in self._outputs[n]:
                gap = abs(state.amplitude(occ_out)
                          - fock.transition_amplitude(oracle, occ_in, occ_out))
                worst = max(worst, gap)
            results.append({"photons": n, "worst_gap": worst,
                            "checked": len(self._outputs[n]), "terms": len(state),
                            "norm_squared": state.norm_squared()})
        return results

    def check(self, index: int, out: list[dict]) -> tuple[list[str], dict]:
        """Every amplitude within the tolerance of the oracle, the whole
        output space checked, and no norm gained."""
        failures = []
        for r in out:
            n = r["photons"]
            if not r["worst_gap"] < TOLERANCE:
                failures.append(f"n={n}: oracle gap {r['worst_gap']:.3e}")
            if r["checked"] != math.comb(N_MODES + n - 1, n) or r["terms"] > r["checked"]:
                failures.append(f"n={n}: {r['terms']} terms, {r['checked']} checked")
            if not 0.0 < r["norm_squared"] <= 1.0 + TOLERANCE:
                failures.append(f"n={n}: squared norm {r['norm_squared']}")
        return failures, {}
