"""Inputs and output checks shared by the workloads and the reference
generator.  Standard library only, so the process that runs the
command-line workload never imports freqbin itself.
"""

from __future__ import annotations

import math
import random

ALL_IMPERFECTIONS = ["car", "crosstalk", "distinguishability", "eta", "sideband"]

#: Overrides of the default chip configuration per experiment: the
#: documented calibration constants of freqbin.experiments (CAR_*,
#: HOM_INDISTINGUISHABILITY, BELL_SOURCE_COHERENCE) and the integration
#: times of the acceptance gate, so each run reproduces its figure.
SETTINGS = {
    "spectroscopy": {},
    "fmzi": {"source": {"car": 300.0}, "detector": {"integration_s": 50.0}},
    "hom": {"source": {"indistinguishability": 0.949},
            "detector": {"integration_s": 5.0}},
    "cz": {"source": {"car": 14.0}, "detector": {"integration_s": 1000.0}},
    "bell": {"source": {"car": 300.0, "indistinguishability": 0.97},
             "detector": {"integration_s": 50.0}},
}
EXPERIMENTS = tuple(SETTINGS)
SPECTROSCOPY_TARGETS = ("dr1", "dr2", "dr3", "filters")

#: Absolute tolerance, relative above magnitude 1, on every exact value.
TOLERANCE = 1e-9

#: Values kept per field in the reference: about this many evenly spaced
#: points plus the exact sum of all of them.
REFERENCE_POINTS = 20


def derive_seed(seed: int, *keys) -> int:
    """Deterministic per-input seed from the workload seed."""
    return random.Random(":".join(str(k) for k in (seed,) + keys)).randrange(1, 2**62)


def manifests(seed: int) -> dict[str, dict]:
    """The five command-line manifests: every imperfection on, default
    sweeps, quantum-mode interferometer, both gate bases."""
    out = {}
    for name, config in SETTINGS.items():
        doc = {
            "experiment": name,
            "seed": derive_seed(seed, "manifest", name),
            "imperfections": list(ALL_IMPERFECTIONS),
        }
        if config:
            doc["config"] = config
        if name == "fmzi":
            doc["mode"] = "quantum"
        if name == "cz":
            doc["basis"] = "both"
        if name == "spectroscopy":
            doc["target"] = "all"
        out[name] = doc
    return out


def _units(experiment: str, payload: dict) -> dict[str, dict]:
    if experiment == "cz":
        return {"xz": payload["xz"], "zx": payload["zx"]}
    if experiment == "spectroscopy":
        return {t: payload[t] for t in SPECTROSCOPY_TARGETS}
    return {"": payload["result"]}


def exact_fields(experiment: str, payload: dict) -> dict[str, list[float]]:
    """Seed-independent numbers of one run, by field name.

    ``payload`` has the layout of result.json: ``result`` for a single
    result, ``xz``/``zx`` for the gate, one key per spectroscopy target;
    each result holds ``series``, ``extras`` and ``metrics`` (with
    ``value``).  Sampled counts depend on the seed and are left out.
    """
    out: dict[str, list[float]] = {}
    for unit, res in _units(experiment, payload).items():
        series, extras = res["series"], res["extras"]
        if experiment == "fmzi":
            fields = {k: v for k, v in series.items() if k.startswith("p_in")}
        elif experiment == "hom":
            fields = {
                "p_cc": series["p_cc"],
                "visibility": series["visibility"],
                "p_distinguishable": extras["p_distinguishable"],
            }
        elif experiment == "bell":
            fields = {k: series[k] for k in ("p_pp", "p_pm", "p_mp", "p_mm")}
        elif experiment == "cz":
            fields = {
                "table_exact": [x for row in extras["table_exact"] for x in row],
                "success_probability": series["success_probability"],
            }
        else:
            fields = {k: v for k, v in series.items() if k != "detuning_ghz"}
            metrics = res["metrics"]
            fields["metrics"] = [metrics[k]["value"] for k in sorted(metrics)]
        prefix = f"{unit}." if unit else ""
        for key, values in fields.items():
            out[prefix + key] = [float(x) for x in values]
    return out


def summarize(values: list[float]) -> dict:
    """Reference form of one field: length, exact sum, evenly spaced points."""
    stride = max(1, len(values) // REFERENCE_POINTS)
    return {"n": len(values), "sum": math.fsum(values), "stride": stride,
            "points": values[::stride]}


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= TOLERANCE * max(1.0, abs(ref))


def compare(fields: dict[str, list[float]], reference: dict[str, dict]) -> list[str]:
    """Failures of ``fields`` against their reference summaries."""
    failures = []
    if set(fields) != set(reference):
        failures.append(f"fields {sorted(fields)} differ from {sorted(reference)}")
    for key in sorted(set(fields) & set(reference)):
        values, ref = fields[key], reference[key]
        if len(values) != ref["n"]:
            failures.append(f"{key}: {len(values)} values, reference {ref['n']}")
            continue
        total = math.fsum(values)
        if not _close(total, ref["sum"]):
            failures.append(f"{key}: sum {total!r}, reference {ref['sum']!r}")
        for k, (got, want) in enumerate(zip(values[::ref["stride"]], ref["points"])):
            if not _close(got, want):
                failures.append(
                    f"{key}[{k * ref['stride']}]: {got!r}, reference {want!r}"
                )
    return failures
