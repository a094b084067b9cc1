"""Command-line front end.

Subcommands:

    freqbin run MANIFEST.json [--seed N] [--out DIR] [--allow-nonstandard]
    freqbin list
    freqbin fit SPECTRUM.csv

``run`` parses a strict JSON manifest, executes the named experiment,
writes result.json, sweep.csv, and report.txt into the output
directory, and prints each warning of the run on stderr.  The same
manifest and seed always produce byte-identical result.json.  ``fit``
reads a two-column CSV with header
``detuning_ghz,transmission`` and fits the coupled-resonator doublet.

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
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import experiments as xp
from .counting import DetectorSpec, SourceSpec
from .elements import FbsSpec, FilterParams
from .errors import FitError, FreqbinError, ManifestError
from .experiments import ChipConfig, default_chip_config
from .resonator import DRParams, fit_doublet

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
    " bases and the process-fidelity lower bound",
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

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=False, indent=2)


def _err(msg: str, loc: str) -> ManifestError:
    return ManifestError(msg, loc)


def _expect_keys(obj: dict, allowed: dict[str, type | tuple], loc: str) -> None:
    """Reject unknown keys, values of the wrong type, booleans where a
    number is expected, and numbers that are no finite float (JSON NaN,
    Infinity, or an overflowing literal such as 1e400 or 1 followed by 400
    zeros)."""
    for key in obj:
        if key not in allowed:
            raise _err(f"unknown key {key!r}", f"{loc}/{key}")
    for key, types in allowed.items():
        if key not in obj:
            continue
        value = obj[key]
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise _err(f"expected {types} value", f"{loc}/{key}")
        if isinstance(value, (int, float)):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer past the float range
                finite = False
            if not finite:
                raise _err("expected a finite number", f"{loc}/{key}")


_NUM = (int, float)


def _numeric_keys(settings) -> dict[str, tuple]:
    """Manifest keys of a settings dataclass: its fields, all numbers."""
    return {f.name: _NUM for f in fields(settings)}


_DR_KEYS = {**_numeric_keys(FbsSpec), "cavity": dict}
_CAVITY_KEYS = _numeric_keys(DRParams)
_FILTER_KEYS = _numeric_keys(FilterParams)
_SOURCE_KEYS = _numeric_keys(SourceSpec)
_DETECTOR_KEYS = _numeric_keys(DetectorSpec)
_CONFIG_KEYS = {
    "global_efficiency": _NUM,
    "r1_transmission": _NUM,
    "r2_transmission": _NUM,
    "bin_spacing_ghz": _NUM,
    "dr1": dict,
    "dr2": dict,
    "dr3": dict,
    "filters": dict,
    "source": dict,
    "detector": dict,
}
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


def parse_manifest(text: str) -> RunManifest:
    """Strictly parse and validate a manifest document."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past
        # Python's digit limit; RecursionError, nesting too deep to parse.
        raise _err(f"malformed JSON: {exc}", "/")
    if not isinstance(raw, dict):
        raise _err("manifest must be a JSON object", "/")
    _expect_keys(raw, _TOP_KEYS, "")
    if "experiment" not in raw:
        raise _err("missing experiment name", "/experiment")
    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise _err(
            f"unknown experiment {experiment!r}; known: {sorted(EXPERIMENTS)}",
            "/experiment",
        )
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise _err(f"unsupported schema_version {version}", "/schema_version")

    config = raw.get("config", {})
    _expect_keys(config, _CONFIG_KEYS, "/config")
    for name in ("dr1", "dr2", "dr3"):
        if name in config:
            _expect_keys(config[name], _DR_KEYS, f"/config/{name}")
            if "cavity" in config[name]:
                _expect_keys(
                    config[name]["cavity"], _CAVITY_KEYS, f"/config/{name}/cavity"
                )
    if "filters" in config:
        _expect_keys(config["filters"], _FILTER_KEYS, "/config/filters")
    if "source" in config:
        _expect_keys(config["source"], _SOURCE_KEYS, "/config/source")
    if "detector" in config:
        _expect_keys(config["detector"], _DETECTOR_KEYS, "/config/detector")

    sweep = raw.get("sweep", {})
    _expect_keys(sweep, _SWEEP_KEYS, "/sweep")
    if sweep and any(k not in sweep for k in ("start", "stop", "num")):
        raise _err("sweep needs start, stop, and num", "/sweep")
    if sweep and not 2 <= sweep["num"] <= MAX_SWEEP_NUM:
        raise _err(f"sweep num must lie in [2, {MAX_SWEEP_NUM}]", "/sweep/num")

    imperfections = raw.get("imperfections", [])
    for k, name in enumerate(imperfections):
        if not isinstance(name, str):
            raise _err(f"expected a string, got {name!r}", f"/imperfections/{k}")
        if name not in xp.IMPERFECTION_NAMES:
            raise _err(
                f"unknown imperfection {name!r}; known: {sorted(xp.IMPERFECTION_NAMES)}",
                f"/imperfections/{k}",
            )

    mode = raw.get("mode", "classical")
    if mode not in ("classical", "quantum"):
        raise _err("mode must be classical or quantum", "/mode")
    basis = raw.get("basis", "both")
    if basis not in ("both", "xz", "zx", "zz"):
        raise _err("basis must be both, xz, zx, or zz", "/basis")
    output_dir = raw.get("output_dir")
    if output_dir is not None and "\0" in output_dir:
        raise _err("output_dir contains a NUL character", "/output_dir")
    target = raw.get("target", "all")
    if target not in ("all", "dr1", "dr2", "dr3", "filters"):
        raise _err("target must be all, dr1, dr2, dr3, or filters", "/target")

    manifest = RunManifest(
        experiment=experiment,
        schema_version=version,
        seed=raw.get("seed", 12345),
        output_dir=output_dir,
        sweep=sweep,
        config=config,
        imperfections=list(imperfections),
        mode=mode,
        basis=basis,
        target=target,
        allow_nonstandard=raw.get("allow_nonstandard", False),
    )
    build_config(manifest)  # rejects out-of-range settings
    _sweep_values(manifest)  # rejects a sweep span past the float range
    return manifest


def build_config(manifest: RunManifest) -> ChipConfig:
    """Resolve the manifest's overrides against the device defaults."""
    cfg = default_chip_config()
    c = manifest.config
    try:
        if manifest.experiment == "bell" and "dr2" not in c:
            # Entanglement analysis runs DR2 balanced.
            cfg = replace(
                cfg, dr2=replace(cfg.dr2, fbs=replace(cfg.dr2.fbs, transmissivity_T=0.5))
            )
        for name in ("dr1", "dr2", "dr3"):
            if name not in c:
                continue
            dr = getattr(cfg, name)
            fbs_over = {k: v for k, v in c[name].items() if k != "cavity"}
            fbs = replace(dr.fbs, **fbs_over) if fbs_over else dr.fbs
            cavity = (
                replace(dr.cavity, **c[name]["cavity"])
                if "cavity" in c[name]
                else dr.cavity
            )
            cfg = replace(cfg, **{name: replace(dr, fbs=fbs, cavity=cavity)})
        if "filters" in c:
            cfg = replace(cfg, filters=replace(cfg.filters, **c["filters"]))
        if "source" in c:
            cfg = replace(cfg, source=replace(cfg.source, **c["source"]))
        if "detector" in c:
            cfg = replace(cfg, detector=replace(cfg.detector, **c["detector"]))
        scalars = {
            k: c[k]
            for k in ("global_efficiency", "r1_transmission", "r2_transmission")
            if k in c
        }
        if scalars:
            cfg = replace(cfg, **scalars)
        if "bin_spacing_ghz" in c:
            cfg = replace(
                cfg,
                grid=replace(cfg.grid, bin_spacing_ghz=c["bin_spacing_ghz"]),
            )
    except FreqbinError as exc:
        raise ManifestError(str(exc), "/config")
    return cfg


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
            raise _err("sweep span stop - start must be a finite number", "/sweep")
        return np.linspace(start, stop, manifest.sweep["num"])
    start, stop, num = defaults.get(manifest.experiment, (0.0, 1.0, 2))
    return np.linspace(start, stop, num)


def _execute(manifest: RunManifest) -> tuple[dict, list[dict], dict]:
    """Run the experiment; return (result payload, CSV rows, metrics)."""
    cfg = build_config(manifest)
    toggles = frozenset(manifest.imperfections)
    values = _sweep_values(manifest)
    exp = manifest.experiment
    sample = "car" in toggles

    if exp == "cz" and manifest.basis == "both":
        char = xp.run_cz_characterization(
            cfg, toggles, manifest.seed, sample, manifest.allow_nonstandard
        )
        payload = {"experiment": exp, **char}
        for basis in ("xz", "zx"):
            payload[basis] = char[basis].to_jsonable()
        rows = _cz_rows(char["xz"]) + _cz_rows(char["zx"])
        metrics = {k: char[k] for k in ("f_xz", "f_zx", "hofmann_bound")}
        return payload, rows, metrics

    if exp == "spectroscopy":
        targets = ("dr1", "dr2", "dr3", "filters") if manifest.target == "all" else (
            manifest.target,
        )
        payload = {"experiment": exp}
        rows: list[dict] = []
        metrics: dict[str, float] = {}
        for target in targets:
            res = xp.run_spectroscopy(cfg, values, target=target)
            payload[target] = res.to_jsonable()
            for name, m in res.metrics.items():
                metrics[f"{target}_{name}"] = m.value
            for row in _series_rows(res.series):
                rows.append({"target": target, **row})
        if manifest.target != "all":
            metrics = {k.split("_", 1)[1]: v for k, v in metrics.items()}
        return payload, rows, metrics

    if exp == "fmzi":
        res = xp.run_fmzi(cfg, values, mode=manifest.mode, seed=manifest.seed,
                          imperfections=toggles)
    elif exp == "hom":
        res = xp.run_hom(cfg, values, seed=manifest.seed, imperfections=toggles,
                         sample=True)
    elif exp == "bell":
        res = xp.run_bell(cfg, values, seed=manifest.seed, imperfections=toggles,
                          sample=True)
    else:
        res = xp.run_cz(cfg, manifest.basis, toggles, manifest.seed, sample,
                        manifest.allow_nonstandard)
    payload = {"experiment": exp, "result": res.to_jsonable()}
    rows = _cz_rows(res) if exp == "cz" else _series_rows(res.series)
    return payload, rows, _metric_map(res)


def _cz_rows(res) -> list[dict]:
    """One row per input state of a gate truth table, in the column order
    of the schema: basis, input label, p_out0..3, success probability."""
    rows = []
    table = res.extras["table_normalized"]
    for r, label in enumerate(res.extras["input_labels"]):
        row = {"basis": res.extras["basis"], "input": label}
        for c_idx in range(4):
            row[f"p_out{c_idx}"] = table[r][c_idx]
        row["success_probability"] = res.series["success_probability"][r]
        rows.append(row)
    return rows


def _series_rows(series: dict) -> list[dict]:
    names = list(series)
    length = len(series[names[0]]) if names else 0
    return [{n: series[n][i] for n in names} for i in range(length)]


def _metric_map(res) -> dict[str, float]:
    return {name: m.value for name, m in res.metrics.items()}


def _write_outputs(out_dir: Path, manifest: RunManifest, payload: dict,
                   rows: list[dict], metrics: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "manifest": asdict(manifest),
        **payload,
    }
    (out_dir / "result.json").write_text(
        json.dumps(payload, sort_keys=False, indent=2) + "\n"
    )

    if rows:
        fieldnames: list[str] = []
        for row in rows:
            for key, value in row.items():
                if key not in fieldnames:
                    fieldnames.append(key)
                if isinstance(value, float) and not math.isfinite(value):
                    raise FreqbinError(f"non-finite value in CSV column {key!r}")
        with open(out_dir / "sweep.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames, restval="")
            writer.writeheader()
            writer.writerows(rows)

    targets = REFERENCE_TARGETS.get(manifest.experiment, {})
    lines = [f"experiment: {manifest.experiment}", f"seed: {manifest.seed}", ""]
    lines.append(f"{'metric':<34}{'simulated':>14}{'reference':>12}")
    for name, value in metrics.items():
        ref = targets.get(name)
        if ref is None and "_" in name:
            ref = targets.get(name.split("_", 1)[1])
        ref_text = f"{ref:.4f}" if ref is not None else "-"
        lines.append(f"{name:<34}{value:>14.6f}{ref_text:>12}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")


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
    out_dir = Path(
        args.out
        or manifest.output_dir
        or os.environ.get(ENV_OUTPUT_DIR, ".")
    )
    try:
        payload, rows, metrics = _execute(manifest)
        _write_outputs(out_dir, manifest, payload, rows, metrics)
    except FreqbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, FitError) else 2
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for result in payload.values():  # the single result, xz/zx, or each target
        if isinstance(result, dict):
            for text in result["warnings"]:
                print(f"warning: {text}", file=sys.stderr)
    print(f"wrote {out_dir / 'result.json'}")
    print(f"wrote {out_dir / 'sweep.csv'}")
    print(f"wrote {out_dir / 'report.txt'}")
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
    try:
        fit = fit_doublet(np.asarray(detuning), np.asarray(transmission))
    except FreqbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"mode splitting 2g : {fit.two_g_ghz:.4f} GHz")
    print(f"linewidths        : {fit.linewidths_ghz[0]:.4f}, "
          f"{fit.linewidths_ghz[1]:.4f} GHz")
    print(f"dip depths        : {fit.dip_depths[0]:.4f}, {fit.dip_depths[1]:.4f}")
    print(f"bus coupling      : {fit.kappa_ex_ghz:.4f} GHz")
    print(f"rms residual      : {fit.residual_rms:.3e}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
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
