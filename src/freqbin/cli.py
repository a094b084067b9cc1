"""Command-line front end.

Subcommands:

    freqbin run MANIFEST.json [--seed N] [--out DIR] [--allow-nonstandard]
    freqbin list
    freqbin fit SPECTRUM.csv

``run`` parses a strict JSON manifest and executes the named
experiment.  Its results (one, the two gate bases, or one per
spectroscopy target) give all it writes: result.json, sweep.csv and
report.txt into the output directory, and each warning of the run on
stderr.  All three are built and checked before the first is written, so
a run that fails (exit 2) writes no file.  The same manifest and
seed always produce byte-identical result.json.  ``fit`` reads a
two-column CSV with header ``detuning_ghz,transmission`` and fits the
coupled-resonator doublet.

A manifest's ``config`` mirrors the chip's settings dataclasses
(`ChipConfig` and its parts): a number for each number field, an object
for each nested settings object.  Two exceptions: a double resonator's
beam-splitter keys sit beside its ``cavity``, and the bin grid is set
only by ``bin_spacing_ghz``.  Every manifest error names its JSON-pointer
location; a value of the wrong type, the kind expected ("a number", "an
object"); a setting out of range, the object that rejects it.

The default output directory comes from the FREQBIN_OUTPUT_DIR
environment variable, falling back to the current directory.  CSV column
sets per experiment are listed in schemas/cli_csv_schema.json shipped
with the package.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from . import experiments as xp
from .elements import FbsSpec
from .errors import FreqbinError, ManifestError, finite
from .experiments import ChipConfig, DrConfig, default_chip_config

SCHEMA_VERSION = 1
ENV_OUTPUT_DIR = "FREQBIN_OUTPUT_DIR"

EXPERIMENTS = {
    "spectroscopy": "laser scans of the three double resonators and the filter bank,"
    " with doublet fits and the nearest-bin crosstalk figure",
    "fmzi": "frequency-domain Mach-Zehnder fringes, classical light or heralded"
    " single photons, four curves and their mean visibility",
    "hom": "two-photon interference dip versus beam-splitter reflectivity,"
    " with the analytic visibility law and count records",
    "cz": "post-selected controlled-phase gate truth tables in two complementary"
    " bases and F_xz + F_zx - 1, a process-fidelity bound at the design point only",
    "bell": "entangled-pair fringe curves versus the analysis phase and their"
    " average visibility",
}

# Device reference values the default configuration is expected to
# approach; printed alongside simulated metrics in report.txt.
REFERENCE_TARGETS = {
    "fmzi": {"visibility_avg": 0.972},
    "bell": {"visibility_avg": 0.969},
    "hom": {"visibility_at_balanced": 0.949},
    "cz": {"hofmann_bound_ideal_source": 0.989, "hofmann_bound": 0.914},
    "spectroscopy": {"fitted_splitting_ghz": 13.49, "nearest_bin_crosstalk": 0.03},
}


@dataclass
class RunManifest:
    """Validated run request."""

    experiment: str
    schema_version: int = SCHEMA_VERSION
    seed: int = 12345
    output_dir: str | None = None
    sweep: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    imperfections: list[str] = field(default_factory=list)
    mode: str = "classical"
    basis: str = "both"
    target: str = "all"
    allow_nonstandard: bool = False
    # The ChipConfig of ``config``, set by `parse_manifest`; a plain class
    # attribute, not a field, so it is no part of the request's JSON.
    chip = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=False, indent=2)


def _expect_keys(obj: dict, allowed: dict[str, type | tuple], loc: str) -> None:
    """Reject unknown keys, values of the wrong type, booleans where a
    number is expected, and numbers that are not `finite`: JSON NaN,
    Infinity, 1e400 or an integer of 400 digits."""
    for key in obj:
        if key not in allowed:
            raise ManifestError(f"unknown key {key!r}", f"{loc}/{key}")
    for key, types in allowed.items():
        if key not in obj:
            continue
        value = obj[key]
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise ManifestError(f"expected {_KINDS[types]}", f"{loc}/{key}")
        if isinstance(value, (int, float)) and not finite(value):
            raise ManifestError("expected a finite number", f"{loc}/{key}")


_NUM = (int, float)
# What an error message calls each JSON value `_expect_keys` may expect.
_KINDS = {_NUM: "a number", int: "an integer", bool: "true or false", str: "a string",
          (str, type(None)): "a string or null", dict: "an object", list: "a list"}
_SWEEP_KEYS = {"start": _NUM, "stop": _NUM, "num": int}
#: Most sweep points a manifest may ask for.
MAX_SWEEP_NUM = 10_000
_TOP_KEYS = {
    "schema_version": int,
    "experiment": str,
    "seed": int,
    "output_dir": (str, type(None)),
    "sweep": dict,
    "config": dict,
    "imperfections": list,
    "mode": str,
    "basis": str,
    "target": str,
    "allow_nonstandard": bool,
}

# The two exceptions to the mirror of the settings dataclasses (see the
# module docstring), per class: part -> its fields that are keys of the
# class's own object.
_LIFTED = {
    DrConfig: {"fbs": tuple(f.name for f in fields(FbsSpec))},
    ChipConfig: {"grid": ("bin_spacing_ghz",)},
}


def _overlay(settings, doc: dict, loc: str):
    """``settings`` with the manifest object ``doc``, found at ``loc``,
    laid over it.

    Each key is checked against the fields of ``settings`` (`_expect_keys`),
    nested objects recursively.  Each changed dataclass is rebuilt once
    with all of its overrides, so its ``__post_init__`` is the range check
    and its error is raised at the location of its object.
    """
    lifted = _LIFTED.get(type(settings), {})
    # Key -> the part of ``settings`` whose field it sets (None: its own).
    owner = {f.name: None for f in fields(settings) if f.name not in lifted}
    owner.update({name: part for part, names in lifted.items() for name in names})
    current = {k: getattr(getattr(settings, p) if p else settings, k) for k, p in owner.items()}
    _expect_keys(doc, {k: dict if is_dataclass(v) else _NUM for k, v in current.items()}, loc)
    changes: dict[str | None, dict] = {}
    for key, value in doc.items():
        if is_dataclass(current[key]):
            value = _overlay(current[key], value, f"{loc}/{key}")
        changes.setdefault(owner[key], {})[key] = value
    own = changes.pop(None, {})
    try:
        for part, over in changes.items():
            own[part] = replace(getattr(settings, part), **over)
        return replace(settings, **own)
    except FreqbinError as exc:
        raise ManifestError(str(exc), loc)


def parse_manifest(text: str) -> RunManifest:
    """Strictly parse and validate a manifest document."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past
        # Python's digit limit; RecursionError, nesting too deep to parse.
        raise ManifestError(f"malformed JSON: {exc}", "/")
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object", "/")
    _expect_keys(raw, _TOP_KEYS, "")
    if "experiment" not in raw:
        raise ManifestError("missing experiment name", "/experiment")
    manifest = RunManifest(**raw)
    choices = {
        "experiment": tuple(EXPERIMENTS),
        "schema_version": (SCHEMA_VERSION,),
        "mode": xp.FMZI_MODES,
        "basis": ("both", *xp.CZ_BASES),
        "target": ("all", *xp.SPECTROSCOPY_TARGETS),
    }
    for key, allowed in choices.items():
        if getattr(manifest, key) not in allowed:
            raise ManifestError(f"{key} must be one of {allowed}", f"/{key}")

    sweep = manifest.sweep
    _expect_keys(sweep, _SWEEP_KEYS, "/sweep")
    if sweep and any(k not in sweep for k in ("start", "stop", "num")):
        raise ManifestError("sweep needs start, stop, and num", "/sweep")
    if sweep and not 2 <= sweep["num"] <= MAX_SWEEP_NUM:
        raise ManifestError(f"sweep num must lie in [2, {MAX_SWEEP_NUM}]", "/sweep/num")

    for k, name in enumerate(manifest.imperfections):
        if not isinstance(name, str):
            raise ManifestError(f"expected a string, got {name!r}", f"/imperfections/{k}")
        if name not in xp.IMPERFECTION_NAMES:
            raise ManifestError(
                f"unknown imperfection {name!r}; known: {sorted(xp.IMPERFECTION_NAMES)}",
                f"/imperfections/{k}",
            )

    if manifest.output_dir is not None and "\0" in manifest.output_dir:
        raise ManifestError("output_dir contains a NUL character", "/output_dir")

    # Rejects bad /config keys and out-of-range settings.
    manifest.chip = build_config(manifest)
    _sweep_values(manifest)  # rejects a sweep span past the float range
    return manifest


def build_config(manifest: RunManifest) -> ChipConfig:
    """Resolve the manifest's /config against the device defaults."""
    cfg = default_chip_config()
    if manifest.experiment == "bell" and "dr2" not in manifest.config:
        # Entanglement analysis runs DR2 balanced.
        cfg = replace(cfg, dr2=replace(cfg.dr2, fbs=replace(cfg.dr2.fbs, transmissivity_T=0.5)))
    return _overlay(cfg, manifest.config, "/config")


def _sweep_values(manifest: RunManifest) -> np.ndarray:
    defaults = {
        "fmzi": (0.0, 2.0 * math.pi, 41),
        "bell": (0.0, 2.0 * math.pi, 41),
        "hom": (0.0, 1.0, 41),
        "spectroscopy": (-15.0, 15.0, 601),
    }
    if manifest.sweep:
        # float(): an integer past int64 would make linspace an object array.
        start, stop = float(manifest.sweep["start"]), float(manifest.sweep["stop"])
        if not math.isfinite(stop - start):
            raise ManifestError("sweep span stop - start must be a finite number", "/sweep")
        # A finite span near the float limit can overflow the step times
        # the last index; linspace then sets the last point to stop, so
        # every value stays finite and the overflow warning is noise.
        with np.errstate(over="ignore"):
            return np.linspace(start, stop, manifest.sweep["num"])
    start, stop, num = defaults.get(manifest.experiment, (0.0, 1.0, 2))
    return np.linspace(start, stop, num)


def _execute(manifest: RunManifest) -> tuple[dict[str, xp.ExperimentResult], dict]:
    """Run the experiment of a manifest from `parse_manifest`; return its
    results by result.json key ("result", the bases "xz" and "zx", or each
    spectroscopy target) and, for a gate run in both bases, the two
    fidelities and the bound."""
    cfg = manifest.chip
    toggles = frozenset(manifest.imperfections)
    values = _sweep_values(manifest)
    exp = manifest.experiment
    sample = "car" in toggles

    if exp == "cz" and manifest.basis == "both":
        numbers = xp.run_cz_characterization(
            cfg, toggles, manifest.seed, sample, manifest.allow_nonstandard
        )
        return {basis: numbers.pop(basis) for basis in ("xz", "zx")}, numbers
    if exp == "spectroscopy":
        targets = xp.SPECTROSCOPY_TARGETS if manifest.target == "all" else [manifest.target]
        return {t: xp.run_spectroscopy(cfg, values, target=t) for t in targets}, {}
    if exp == "fmzi":
        res = xp.run_fmzi(cfg, values, mode=manifest.mode, seed=manifest.seed,
                          imperfections=toggles)
    elif exp == "hom":
        res = xp.run_hom(cfg, values, seed=manifest.seed, imperfections=toggles, sample=True)
    elif exp == "bell":
        res = xp.run_bell(cfg, values, seed=manifest.seed, imperfections=toggles, sample=True)
    else:
        res = xp.run_cz(cfg, manifest.basis, toggles, manifest.seed, sample,
                        manifest.allow_nonstandard)
    return {"result": res}, {}


def _columns(key: str, res: xp.ExperimentResult) -> dict:
    """The columns of sweep.csv for the result ``res`` under ``key``, by
    name: its series, led by the target in a spectroscopy run; a gate's
    are basis, input label, p_out0..3 and success probability."""
    if res.experiment == "spectroscopy":
        return {"target": repeat(key), **res.series}
    if res.experiment == "cz":
        return {"basis": repeat(res.extras["basis"]), "input": res.extras["input_labels"],
                **{f"p_out{k}": res.series[f"p_out{k}"] for k in range(4)},
                "success_probability": res.series["success_probability"]}
    return res.series


def _write_outputs(out_dir: Path, manifest: RunManifest, results: dict, numbers: dict) -> dict:
    """Build result.json, sweep.csv and report.txt, check that every number
    of sweep.csv is finite, and only then write the three files, so a run
    that fails the check writes none.  Return the metrics reported."""
    result_json = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "manifest": asdict(manifest),
        "experiment": manifest.experiment,
        **{key: res.to_jsonable() for key, res in results.items()},
        **numbers,
    }, sort_keys=False, indent=2) + "\n"

    # One header for all results; a cell a result lacks is blank.
    tables = [_columns(key, res) for key, res in results.items()]
    header = list(dict.fromkeys(name for table in tables for name in table))
    rows = [row for table in tables
            for row in zip(*(table.get(name, repeat("")) for name in header))]
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, float) and not math.isfinite(value):
                raise FreqbinError(f"non-finite value in CSV column {name!r}")

    if numbers:  # a gate run in both bases: its two fidelities and the bound
        metrics = {k: numbers[k] for k in ("f_xz", "f_zx", "hofmann_bound")}
    else:  # each metric of the results, led by the result key when there are several
        several = len(results) > 1
        metrics = {f"{key}_{name}" if several else name: m.value
                   for key, res in results.items() for name, m in res.metrics.items()}
    targets = REFERENCE_TARGETS.get(manifest.experiment, {})
    lines = [f"experiment: {manifest.experiment}", f"seed: {manifest.seed}", ""]
    lines.append(f"{'metric':<34}{'simulated':>14}{'reference':>12}")
    for name, value in metrics.items():
        ref = targets.get(name)
        if ref is None and "_" in name:
            ref = targets.get(name.split("_", 1)[1])
        ref_text = f"{ref:.4f}" if ref is not None else "-"
        lines.append(f"{name:<34}{value:>14.6f}{ref_text:>12}")
    # A reference metric that a warning of the run declares undefined.
    warnings = [text for res in results.values() for text in res.warnings]
    for name, ref in targets.items():
        if name not in metrics and any(w.startswith(f"{name} undefined") for w in warnings):
            lines.append(f"{name:<34}{'n/a':>14}{ref:>12.4f}")

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(result_json)
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return metrics


def list_experiments() -> str:
    lines = [f"{name:<14}{desc}" for name, desc in EXPERIMENTS.items()]
    return "\n".join(lines)


def _cmd_run(args) -> int:
    try:
        manifest = parse_manifest(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    except ManifestError as exc:
        print(f"error: manifest {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        manifest.seed = args.seed
    if args.allow_nonstandard:
        manifest.allow_nonstandard = True
    out_dir = Path(args.out or manifest.output_dir or os.environ.get(ENV_OUTPUT_DIR, "."))
    try:
        results, numbers = _execute(manifest)
        metrics = _write_outputs(out_dir, manifest, results, numbers)
    except FreqbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for res in results.values():
        for text in res.warnings:
            print(f"warning: {text}", file=sys.stderr)
    for name in ("result.json", "sweep.csv", "report.txt"):
        print(f"wrote {out_dir / name}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6f}")
    return 0


def _cmd_fit(args) -> int:
    path = Path(args.spectrum)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["detuning_ghz", "transmission"]:
                print(
                    "error: expected CSV header detuning_ghz,transmission",
                    file=sys.stderr,
                )
                return 2
            detuning, transmission = [], []
            for row in filter(None, reader):  # blank lines hold no sample
                if len(row) != 2:
                    raise ValueError(
                        f"line {reader.line_num}: expected 2 fields, got {len(row)}"
                    )
                detuning.append(float(row[0]))
                transmission.append(float(row[1]))
    except (OSError, ValueError, csv.Error) as exc:
        print(f"error: cannot read spectrum: {exc}", file=sys.stderr)
        return 2
    from .resonator import fit_doublet
    try:
        fit = fit_doublet(np.asarray(detuning), np.asarray(transmission))
    except FreqbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"pole splitting    : {fit.splitting_ghz:.4f} GHz")
    print(f"pole linewidths   : {fit.linewidths_ghz[0]:.4f}, "
          f"{fit.linewidths_ghz[1]:.4f} GHz")
    print(f"dip depths        : {fit.dip_depths[0]:.4f}, {fit.dip_depths[1]:.4f}")
    print(f"rms residual      : {fit.residual_rms:.3e}")
    print("candidates        : g, kappa1, kappa_ex, kappa2, detune, center (GHz), rms residual")
    for c in fit.candidates:  # round first, so that -1e-14 prints as 0.0000
        print("  " + "".join(f"{round(v, 4) + 0.0:10.4f}" for v in c[:6]) + f"  {c[6]:.3e}")
    if fit.warning:
        print(f"warning: {fit.warning}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):  # the subcommands' parsers are _Parsers too
    def error(self, message):  # a usage error: one line on stderr, exit 2
        self.exit(2, f"error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="freqbin",
        description="Simulate an electro-optic frequency-bin photonic processor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON manifest")
    p_run.add_argument("manifest", help="path to the manifest JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--allow-nonstandard",
        action="store_true",
        help="permit physically inconsistent settings (e.g. gate without 1/3 splitting)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(func=lambda args: (print(list_experiments()), 0)[1])

    p_fit = sub.add_parser("fit", help="fit a resonator doublet spectrum CSV")
    p_fit.add_argument("spectrum", help="CSV with header detuning_ghz,transmission")
    p_fit.set_defaults(func=_cmd_fit)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
