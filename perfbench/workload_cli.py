"""Workload ``cli_manifests``: ``freqbin run`` in a fresh process per op.

Ops cycle through the five manifests of ``common.manifests``; a run
ends only after a whole cycle, so every manifest runs equally often.
Each child starts through ``cli_child.py``, which is ``freqbin`` itself or,
for a traced op, ``freqbin`` with the span wrappers installed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import EXPERIMENTS, compare, exact_fields, manifests

CHILD = Path(__file__).resolve().parent / "cli_child.py"
CHILD_TIMEOUT_S = 60.0


class CliManifests:
    in_process = False
    pool_size = len(EXPERIMENTS)

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self._reference = reference["cli_manifests"]
        self._workdir = workdir
        self._paths = {}
        for name, doc in manifests(seed).items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=2))
            self._paths[name] = path
        self._first_bytes: dict[str, bytes] = {}

    def _out_dir(self, name: str) -> Path:
        return self._workdir / "out" / name

    def prepare(self, index: int) -> None:
        shutil.rmtree(self._out_dir(EXPERIMENTS[index % self.pool_size]),
                      ignore_errors=True)

    def run(self, index: int, spans_file: Path | None = None):
        name = EXPERIMENTS[index % self.pool_size]
        cmd = [sys.executable, str(CHILD)]
        if spans_file is not None:
            cmd += ["--spans", str(spans_file)]
        cmd += ["run", str(self._paths[name]), "--out", str(self._out_dir(name))]
        return subprocess.run(cmd, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)

    def check(self, index: int, proc) -> tuple[list[str], dict]:
        """Exit code, output files, byte-identity within the run, and the
        seed-independent numbers against the reference."""
        name = EXPERIMENTS[index % self.pool_size]
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            return [f"{name}: exit {proc.returncode}: {tail}"], {}
        out = self._out_dir(name)
        missing = [f for f in ("result.json", "sweep.csv", "report.txt")
                   if not (out / f).is_file()]
        if missing:
            return [f"{name}: missing {missing}"], {}
        data = (out / "result.json").read_bytes()
        failures = []
        first = self._first_bytes.setdefault(name, data)
        if data != first:
            failures.append(f"{name}: result.json differs from the first run")
        fields = exact_fields(name, json.loads(data))
        failures += [f"{name}: {f}" for f in compare(fields, self._reference[name])]
        return failures, {"cli.result_json_bytes": len(data)}
