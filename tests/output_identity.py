"""Byte-identity check of two freqbin source trees.

    python tests/output_identity.py PARENT_SRC CHANGE_SRC

Runs one fixed set of inputs against each tree, every input in a fresh
interpreter with PYTHONPATH set to that tree, and compares what each run
leaves behind: result.json, sweep.csv and report.txt of a `freqbin run`,
and the stdout, stderr and exit code of every process (`freqbin fit`
leaves no files).  The inputs:

* the five benchmark manifests (`perfbench/common.py`) at seeds 1 and 2;
* fmzi classical and quantum, hom, bell and cz in the bases xz, zx, zz
  and both, each under six imperfection toggle sets;
* a nonstandard gate, an unbalanced interferometer, a bell sweep whose
  fringes are zero throughout, a hom run with its own sweep, a hom run
  with no reference counts at R = 0.5, and spectroscopy of all targets,
  of dr1 alone and of the filters alone;
* runs that fail, whose stderr, exit code and files left (none, read as
  "<missing>") are compared too: an unknown manifest key, a nonstandard
  gate without ``allow_nonstandard``, a Poisson mean too large to draw,
  a dr1 and a filter spectrum past the float range, and a setting out of
  range in each settings object a manifest reaches, and in each ranged
  field of the splitter (`SETTINGS_ERRORS`);
* `freqbin fit` of spectra this file writes itself, so both trees read
  the same bytes: the default dr1 doublet scanned over 601 points,
  ascending, descending and with 1% noise from a fixed seed; a 40-sample
  scan and a scan with a NaN sample, which are rejected; and the scan
  with its transmission scaled to 1e200, with its detunings scaled to
  1e154 and to about +-9e307, which take the fit past the float range;
* `ExperimentResult.to_json` of each runner, in process, with sampling on
  and off, and `CountRecord.to_json` of every record of a sampled fmzi,
  hom and bell run of 80 or more records (numpy-drawn), each read as
  ``res.counts[k][key]``;
* the same, in a second process, of every runner on a chip of six bins
  (0..5) with every imperfection toggle on and sampling on, which pins
  circuits and routing on more than four bins;
* the Fock engine, in a third process: the sorted `items()` of seeded
  random superpositions of 1 to 4 photons on the 14 modes of the
  `oracle_verify` grid, each evolved through one 14-mode block and then
  blocks of 2, 3, 4 and 4 modes, and of a few small states (a two-photon
  state on 10 modes under a 3-mode block, a balanced beam splitter whose
  coincidence term cancels, an attenuator and a phase), with every
  amplitude printed by its repr so that the engine's bits are compared;
  and, by repr, the oracle: `transition_amplitude` into every output of
  two seeded inputs of each of 1 to 4 photons (repeated modes included)
  on 14-mode matrices composed like the `oracle_verify` circuits, the
  last of them again with its outputs reversed (each a hit of the
  oracle's output memo), of one 4-photon input on a 17-mode matrix into
  its 4,845 outputs, more than the memo holds, forward and then reversed
  (misses, evictions, hits and misses of evicted outputs), of three
  inputs of each of 12 to 16 photons on a 2-mode transform, where the
  product of factorials passes 2**53 (one square root per side in
  place of one of the whole product moves 142 of these lines), and
  `permanent` of seeded n x n matrices, n = 0..8;
* the demos 01-06 next to each tree.

Prints one line per differing output and exits 1 if there is any, else
prints the number of compared runs and exits 0.  Under the line of a
differing JSON output (result.json, or the JSON documents the in-process
run prints one after another) it names each differing document by its
index, with the number of its paths that differ, how many of them are
integer leaves, and the largest absolute and relative differences of
their numbers, then lists up to `MAX_PATHS` of its paths with both
values, so that a declared output change can be checked field by field.
pytest does not collect this file; it takes about a minute on two cores.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import common  # noqa: E402  (standard library only)

TOGGLE_SETS = (
    [],
    ["eta"],
    ["eta", "sideband"],
    ["crosstalk"],
    ["car", "distinguishability"],
    sorted(common.ALL_IMPERFECTIONS),
)
OUTPUT_FILES = ("result.json", "sweep.csv", "report.txt")
#: Most differing JSON paths listed under one differing JSON document.
MAX_PATHS = 20

#: One value out of range for each settings object a manifest reaches.
SETTINGS_ERRORS = {
    "source": {"source": {"pair_rate_hz": 0}},
    "detector": {"detector": {"dark_rate_hz": -1}},
    "splitter": {"dr1": {"efficiency_eta": 0}},
    "splitter-transmissivity": {"dr1": {"transmissivity_T": 1.5}},
    "splitter-suppression": {"dr3": {"sideband_suppression_db": -1}},
    "cavity": {"dr2": {"cavity": {"kappa2_ghz": 0}}},
    "filters": {"filters": {"drop_efficiency": 1.5}},
    "chip": {"global_efficiency": 0},
    "grid-spacing": {"bin_spacing_ghz": 0},
}

IN_PROCESS = """
from dataclasses import replace
from freqbin.experiments import (default_chip_config, run_bell, run_cz, run_fmzi,
                                 run_hom, run_spectroscopy)
cfg = default_chip_config()
cfg = replace(cfg, source=replace(cfg.source, car=14.0, indistinguishability=0.95))
bell_cfg = replace(cfg, dr2=replace(cfg.dr2, fbs=replace(cfg.dr2.fbs, transmissivity_T=0.5)))
everything = {"eta", "sideband", "crosstalk", "car", "distinguishability"}
phases = [0.1 * k for k in range(9)]
for sample in (False, True):
    for toggles in (set(), everything):
        print(run_fmzi(cfg, phases, mode="quantum" if sample else "classical",
                       imperfections=toggles).to_json())
        print(run_hom(cfg, [0.1 * k for k in range(11)], imperfections=toggles,
                      sample=sample).to_json())
        print(run_bell(bell_cfg, phases, imperfections=toggles, sample=sample).to_json())
        for basis in ("xz", "zx", "zz"):
            print(run_cz(cfg, basis, toggles, seed=3, sample=sample).to_json())
for target in ("dr1", "filters"):
    print(run_spectroscopy(cfg, [0.05 * k - 15.0 for k in range(601)], target).to_json())
dense = [0.3 * k for k in range(20)]
for res in (run_fmzi(cfg, dense, mode="quantum", imperfections=everything),
            run_hom(cfg, [0.025 * k for k in range(41)], imperfections=everything, sample=True),
            run_bell(bell_cfg, dense, imperfections=everything, sample=True)):
    for k in range(len(res.counts)):
        for key in res.counts[k]:
            print(res.counts[k][key].to_json())
"""

SIX_BINS = """
from dataclasses import replace
from freqbin.experiments import (default_chip_config, run_bell, run_cz, run_fmzi,
                                 run_hom, run_spectroscopy)
from freqbin.fock import Bin
cfg = default_chip_config()
cfg = replace(cfg, grid=replace(cfg.grid, bins=tuple(map(Bin, range(6)))),
              source=replace(cfg.source, car=14.0, indistinguishability=0.95))
bell_cfg = replace(cfg, dr2=replace(cfg.dr2, fbs=replace(cfg.dr2.fbs, transmissivity_T=0.5)))
everything = {"eta", "sideband", "crosstalk", "car", "distinguishability"}
phases = [0.3 * k for k in range(20)]
print(run_fmzi(cfg, phases, mode="quantum", imperfections=everything).to_json())
print(run_hom(cfg, [0.025 * k for k in range(41)], imperfections=everything,
              sample=True).to_json())
print(run_bell(bell_cfg, phases, imperfections=everything, sample=True).to_json())
for basis in ("xz", "zx", "zz"):
    print(run_cz(cfg, basis, everything, seed=3, sample=True).to_json())
print(run_spectroscopy(cfg, [0.05 * k - 15.0 for k in range(601)], "filters").to_json())
"""

ENGINE = """
import itertools
import math
import numpy as np
from freqbin.fock import (ModeTransform, PureState, apply_transform, grid_from_indices,
                         permanent, transition_amplitude)

def lossy_unitary(rng, size):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return math.sqrt(rng.uniform(0.8, 1.0)) * q * (np.diag(r) / np.abs(np.diag(r)))

def random_state(rng, grid, n, terms):
    amps = {}
    for _ in range(terms):
        occ = [0] * grid.n_modes
        for m in rng.choice(grid.n_modes, size=n):
            occ[m] += 1
        amps[tuple(occ)] = complex(rng.normal(), rng.normal())
    scale = 0.999 / math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return PureState(grid, {occ: a * scale for occ, a in amps.items()})

def show(label, state):
    print(label, len(state), repr(state.norm_squared()))
    for occ, amp in sorted(state.items()):
        print(occ, repr(amp))

rng = np.random.default_rng(22)
grid = grid_from_indices(range(4), sideband=range(4, 14))
for n in (1, 2, 3, 4):
    for terms in (1, 3):
        state = random_state(rng, grid, n, terms)
        subsets = [tuple(range(14))] + [
            tuple(sorted(rng.choice(14, size=w, replace=False).tolist())) for w in (2, 3, 4, 4)]
        for subset in subsets:
            state = apply_transform(state, ModeTransform(subset, lossy_unitary(rng, len(subset))))
        show(f"oracle shape, {n} photons, {terms} input terms:", state)
small = grid_from_indices(range(10))
state = random_state(rng, small, 2, 3)
show("two photons, 3-mode block:", apply_transform(state, ModeTransform((7, 2, 5), lossy_unitary(rng, 3))))
pair = PureState(grid_from_indices(range(2)), {(1, 1): 1.0})
splitter = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
show("balanced beam splitter:", apply_transform(pair, ModeTransform((0, 1), splitter)))
show("attenuator:", apply_transform(state, ModeTransform((7,), [[math.sqrt(0.3)]])))
show("phase:", apply_transform(state, ModeTransform((2,), [[np.exp(0.7j)]])))

def occupations(m, n):
    for combo in itertools.combinations_with_replacement(range(m), n):
        yield tuple(combo.count(j) for j in range(m))

rng = np.random.default_rng(23)
for n in (1, 2, 3, 4):
    for _ in range(2):
        composed = np.eye(14, dtype=complex)
        subsets = [tuple(range(14))] + [
            tuple(sorted(rng.choice(14, size=w, replace=False).tolist())) for w in (2, 3, 4, 4)]
        for subset in subsets:
            embed = np.eye(14, dtype=complex)
            embed[np.ix_(subset, subset)] = lossy_unitary(rng, len(subset))
            composed = embed @ composed
        oracle = ModeTransform(tuple(range(14)), composed)
        occ_in = tuple(np.bincount(rng.choice(14, size=n), minlength=14).tolist())
        print("oracle, 14 modes, input", occ_in)
        for occ_out in occupations(14, n):
            print(occ_out, repr(transition_amplitude(oracle, occ_in, occ_out)))
print("oracle, 14 modes, input", occ_in, "again, reversed")
for occ_out in list(occupations(14, 4))[::-1]:
    print(occ_out, repr(transition_amplitude(oracle, occ_in, occ_out)))
wide = ModeTransform(tuple(range(17)), lossy_unitary(np.random.default_rng(24), 17))
occ_in = (1, 0, 0, 2) + (0,) * 12 + (1,)
outputs = list(occupations(17, 4))
for sweep in (outputs, outputs[::-1]):
    print("oracle, 17 modes, input", occ_in)
    for occ_out in sweep:
        print(occ_out, repr(transition_amplitude(wide, occ_in, occ_out)))
pair = ModeTransform((0, 1), lossy_unitary(rng, 2))
for n in range(12, 17):
    for occ_in in ((n, 0), (0, n), (n // 3, n - n // 3)):
        print("oracle, 2 modes, input", occ_in)
        for occ_out in occupations(2, n):
            print(occ_out, repr(transition_amplitude(pair, occ_in, occ_out)))
for n in range(9):
    print("permanent", n, repr(permanent(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))))
"""


def manifests() -> dict[str, dict]:
    cases = {}
    for seed in (1, 2):
        for name, doc in common.manifests(seed).items():
            cases[f"bench-{name}-seed{seed}"] = doc
    runs = [("fmzi-classical", {"experiment": "fmzi"}),
            ("fmzi-quantum", {"experiment": "fmzi", "mode": "quantum"}),
            ("hom", {"experiment": "hom"}),
            ("bell", {"experiment": "bell"})]
    runs += [(f"cz-{basis}", {"experiment": "cz", "basis": basis})
             for basis in ("xz", "zx", "zz", "both")]
    for label, doc in runs:
        for toggles in TOGGLE_SETS:
            cases[f"{label}-{'+'.join(toggles) or 'ideal'}"] = {**doc, "imperfections": toggles}
    cases["cz-nonstandard"] = {"experiment": "cz", "basis": "zz", "allow_nonstandard": True,
                               "config": {"dr2": {"transmissivity_T": 0.5}},
                               "imperfections": ["eta", "crosstalk"]}
    cases["fmzi-unbalanced"] = {"experiment": "fmzi", "mode": "quantum",
                                "config": {"dr1": {"transmissivity_T": 0.4}}}
    cases["bell-zero-fringe"] = {"experiment": "bell",
                                 "sweep": {"start": 0, "stop": 0, "num": 2}}
    cases["spectroscopy"] = {"experiment": "spectroscopy"}
    for target in ("dr1", "filters"):
        cases[f"spectroscopy-{target}"] = {"experiment": "spectroscopy", "target": target}
    cases["hom-custom-sweep"] = {"experiment": "hom", "imperfections": ["eta", "car"],
                                 "sweep": {"start": 0.2, "stop": 0.8, "num": 7}}
    cases["fail-unknown-key"] = {"experiment": "hom", "frobnicate": 1}
    cases["fail-nonstandard-gate"] = {"experiment": "cz", "basis": "zz",
                                      "config": {"dr2": {"transmissivity_T": 0.5}}}
    cases["fail-mean-too-large"] = {"experiment": "hom",
                                    "config": {"source": {"pair_rate_hz": 1e300}}}
    cases["fail-dr1-spectrum"] = {"experiment": "spectroscopy", "target": "dr1",
                                  "config": {"dr1": {"cavity": {"g_ghz": 1e200}}}}
    cases["fail-filters-spectrum"] = {"experiment": "spectroscopy", "target": "filters",
                                      "config": {"filters": {"linewidth_fwhm_ghz": 1e-320}}}
    cases["hom-empty-reference"] = {"experiment": "hom",
                                    "config": {"detector": {"integration_s": 1e-9}}}
    for name, config in SETTINGS_ERRORS.items():
        cases[f"fail-settings-{name}"] = {"experiment": "hom", "config": config}
    return cases


def _dr1_scan(num: int) -> list[tuple[float, float]]:
    """(detuning, |t|^2) of the default dr1 doublet over [-15, 15] GHz: the
    through field of `freqbin.resonator` with g = 6.475, kappa1 = kappa2 =
    2 and kappa_ex = 1 GHz, in plain Python so it reads no tree."""
    scan = []
    for k in range(num):
        d = 30.0 * k / (num - 1) - 15.0
        t = 1.0 - 1.0 / (1j * d + 1.0 + 6.475**2 / (1j * d + 1.0))
        scan.append((d, abs(t) ** 2))
    return scan


def fit_spectra() -> dict[str, str]:
    """CSV text of each `freqbin fit` input, by run name."""
    scan = _dr1_scan(601)
    noise = random.Random(18)
    nan_sample = [*scan[:300], (scan[300][0], math.nan), *scan[301:]]
    rows = {
        "fit-dr1": scan,
        "fit-dr1-descending": scan[::-1],
        "fit-dr1-noise": [(d, y + noise.gauss(0.0, 0.01)) for d, y in scan],
        "fit-40-samples": _dr1_scan(40),
        "fit-nan-sample": nan_sample,
        "fit-transmission-1e200": [(d, y * 1e200) for d, y in scan],
        "fit-detuning-1e154": [(d * 1e154, y) for d, y in scan],
        "fit-detuning-9e307": [(d * (9e307 / 15.0), y) for d, y in scan],
    }
    return {name: "detuning_ghz,transmission\n" + "".join(f"{d!r},{y!r}\n" for d, y in data)
            for name, data in rows.items()}


def _process(src: Path, argv: list[str], cwd: Path) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("FREQBIN_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    return {"stdout": done.stdout, "stderr": done.stderr, "exit": str(done.returncode)}


def outputs(src: Path, work: Path) -> dict[str, dict[str, str]]:
    """Every compared output of one tree, by run name."""
    found = {}
    for name, doc in manifests().items():
        case = work / name
        case.mkdir()
        (case / "m.json").write_text(json.dumps(doc))
        run = _process(src, ["-m", "freqbin.cli", "run", "m.json", "--out", "out"], case)
        for file in OUTPUT_FILES:
            path = case / "out" / file
            run[file] = path.read_text() if path.exists() else "<missing>"
        found[f"run {name}"] = run
    for name, text in fit_spectra().items():
        case = work / name
        case.mkdir()
        (case / "spectrum.csv").write_text(text)
        found[f"fit {name}"] = _process(src, ["-m", "freqbin.cli", "fit", "spectrum.csv"], case)
    found["in-process to_json"] = _process(src, ["-c", IN_PROCESS], work)
    found["in-process six-bin to_json"] = _process(src, ["-c", SIX_BINS], work)
    found["in-process engine"] = _process(src, ["-c", ENGINE], work)
    for demo in sorted((src.parent / "demos").glob("0[1-6]_*.py")):
        found[f"demo {demo.name}"] = _process(src, [str(demo)], work)
    return found


def _json_documents(text: str) -> list | None:
    """The JSON documents of an output, one or more in a row separated by
    whitespace; None when it holds anything else."""
    decoder, docs, at = json.JSONDecoder(), [], 0
    while at < len(text):
        try:
            doc, at = decoder.raw_decode(text, at)
        except ValueError:
            return None
        docs.append(doc)
        while at < len(text) and text[at].isspace():
            at += 1
    return docs


def _leaf_differences(a, b, path: str):
    """(path, parent value, change value) of every leaf where two JSON
    values differ; a key on one side only pairs with "<missing>"."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            yield from _leaf_differences(a.get(key, "<missing>"), b.get(key, "<missing>"),
                                         f"{path}/{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (u, v) in enumerate(zip(a, b)):
            yield from _leaf_differences(u, v, f"{path}/{k}")
    elif repr(a) != repr(b):  # repr: a NaN on both sides is no difference
        yield path, a, b


def _json_report(parent: str, change: str) -> list[str]:
    """Indented lines for two JSON outputs, [] when either side is not
    JSON: per differing document, its index, the number of paths that
    differ, how many of those are integer leaves (a count, a seed) and
    the largest absolute and relative differences of their numbers, then
    up to `MAX_PATHS` of its paths with both values."""
    docs = [_json_documents(parent), _json_documents(change)]
    if None in docs or len(docs[0]) != len(docs[1]):
        return []
    lines = []
    for k, (a, b) in enumerate(zip(*docs)):
        found = list(_leaf_differences(a, b, ""))
        if not found:
            continue
        integers = sum(type(x) is int or type(y) is int for _, x, y in found)
        head = f"    doc {k + 1}: {len(found)} paths differ, {integers} integer leaves"
        pairs = [(x, y) for _, x, y in found if all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))]
        if pairs:
            absolute = max(abs(x - y) for x, y in pairs)
            relative = max(abs(x - y) / (max(abs(x), abs(y)) or 1.0) for x, y in pairs)
            head += f"; largest difference {absolute:.3g} absolute, {relative:.3g} relative"
        lines.append(head)
        lines += [f"      {path or '/'}: {x!r} -> {y!r}" for path, x, y in found[:MAX_PATHS]]
        if len(found) > MAX_PATHS:
            lines.append(f"      ... and {len(found) - MAX_PATHS} more paths")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for k, src in enumerate(trees):
            (Path(tmp) / str(k)).mkdir()
            runs.append(outputs(src, Path(tmp) / str(k)))
    parent, change = runs
    diffs = 0
    for name in sorted(set(parent) | set(change)):
        for part in sorted(set(parent.get(name, {})) | set(change.get(name, {}))):
            before, after = parent.get(name, {}).get(part), change.get(name, {}).get(part)
            if before != after:
                diffs += 1
                print(f"{name}: {part} differs")
                if before is not None and after is not None:
                    for line in _json_report(before, after):
                        print(line)
    if diffs:
        return 1
    print(f"identical: {len(parent)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
