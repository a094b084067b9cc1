"""Documented behaviour without other tests: the demos run, and every
sweep.csv header matches the column sets of cli_csv_schema.json."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freqbin.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads(
    (ROOT / "src" / "freqbin" / "schemas" / "cli_csv_schema.json").read_text()
)["experiments"]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    # -W error: no warning (a numpy deprecation, an overflow) passes unseen.
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _header(tmp_path, doc):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(manifest), "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        return next(csv.reader(fh))


def _with_appends(columns, appends):
    return columns + [c for c in appends if c not in columns]


SHORT = {"start": 0.0, "stop": 1.0, "num": 3}
SCAN = {"start": -15.0, "stop": 15.0, "num": 61}
CASES = {
    "fmzi-classical": ({"experiment": "fmzi", "sweep": SHORT},
                       SCHEMA["fmzi"]["columns"]),
    "fmzi-quantum": ({"experiment": "fmzi", "mode": "quantum", "sweep": SHORT},
                     SCHEMA["fmzi"]["columns"] + SCHEMA["fmzi"]["quantum_mode_appends"]),
    "hom": ({"experiment": "hom", "sweep": SHORT},
            SCHEMA["hom"]["columns"] + SCHEMA["hom"]["sampled_appends"]),
    "bell": ({"experiment": "bell", "sweep": SHORT},
             SCHEMA["bell"]["columns"] + SCHEMA["bell"]["sampled_appends"]),
    "cz-both": ({"experiment": "cz"}, SCHEMA["cz"]["columns"]),
    "spectroscopy-dr1": ({"experiment": "spectroscopy", "target": "dr1", "sweep": SCAN},
                         SCHEMA["spectroscopy"]["columns"]),
    "spectroscopy-filters": (
        {"experiment": "spectroscopy", "target": "filters", "sweep": SCAN},
        SCHEMA["spectroscopy"]["filters_columns"]),
    "spectroscopy-all": (
        {"experiment": "spectroscopy", "sweep": SCAN},
        _with_appends(SCHEMA["spectroscopy"]["columns"],
                      SCHEMA["spectroscopy"]["filters_columns"])),
}


@pytest.mark.parametrize("case", CASES)
def test_sweep_csv_header_matches_schema(case, tmp_path):
    doc, expected = CASES[case]
    assert _header(tmp_path, doc) == expected


@pytest.mark.parametrize("basis", ["xz", "zx", "zz"])
def test_single_basis_cz_columns_are_schema_columns(basis, tmp_path):
    # One basis is written like each half of a run in both bases.
    assert _header(tmp_path, {"experiment": "cz", "basis": basis}) == SCHEMA["cz"]["columns"]
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = json.loads((tmp_path / "out" / "result.json").read_text())[
        "result"]["extras"]["input_labels"]
    assert [row["basis"] for row in rows] == [basis] * 4
    assert [row["input"] for row in rows] == labels
