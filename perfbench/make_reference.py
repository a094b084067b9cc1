#!/usr/bin/env python3
"""Write perfbench/reference.json: the seed-independent numbers of every
command-line manifest and of one dense reproduction pass, as computed by
the freqbin in this checkout's src/.

    PYTHONPATH=src python3 perfbench/make_reference.py

Regenerate it only for a change that is meant to move these numbers, and
say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from freqbin import cli

from common import EXPERIMENTS, exact_fields, manifests, summarize
from workload_inproc import SweepDense, as_payload

HERE = Path(__file__).resolve().parent
SEED = 0


def _summaries(experiment: str, payload: dict) -> dict:
    return {k: summarize(v) for k, v in exact_fields(experiment, payload).items()}


def main() -> int:
    work = HERE.parent / ".perfbench" / "reference-work"
    work.mkdir(parents=True, exist_ok=True)
    reference = {"cli_manifests": {}, "sweep_dense": {}}
    try:
        for name, doc in manifests(SEED).items():
            path = work / f"{name}.json"
            path.write_text(json.dumps(doc))
            if cli.main(["run", str(path), "--out", str(work / name)]) != 0:
                raise SystemExit(f"freqbin run failed for {name}")
            payload = json.loads((work / name / "result.json").read_text())
            reference["cli_manifests"][name] = _summaries(name, payload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = SweepDense(SEED, work, {"sweep_dense": {}}).run(0)
    for name in EXPERIMENTS:
        reference["sweep_dense"][name] = _summaries(name, as_payload(out[name]))
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
