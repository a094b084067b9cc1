"""Command-line front end tests: strict parsing, outputs, determinism."""

import csv
import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from freqbin.cli import (
    EXPERIMENTS,
    build_config,
    list_experiments,
    main,
    parse_manifest,
)
from freqbin.errors import ManifestError
from freqbin.resonator import DRParams, dr_through_spectrum


class TestParsing:
    def test_minimal_manifest_gets_defaults(self):
        m = parse_manifest('{"experiment": "hom"}')
        assert m.experiment == "hom"
        assert m.seed == 12345
        assert m.schema_version == 1
        cfg = build_config(m)
        assert cfg.grid.bin_spacing_ghz == 12.95
        assert cfg.r3.linewidth_fwhm_ghz == 4.0
        assert cfg.r3.fsr_ghz == 100.0
        assert cfg.dr1.fbs.sideband_suppression_db == 24.0
        assert cfg.global_efficiency == 0.69
        assert cfg.detector.coincidence_window_ps == 512.0

    def test_malformed_json(self):
        with pytest.raises(ManifestError):
            parse_manifest("{not json")

    def test_unknown_key_location(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest('{"experiment": "hom", "config": {"dr2": {"frobnicate": 1}}}')
        assert "/config/dr2/frobnicate" in str(err.value)

    def test_missing_experiment(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest('{"seed": 1}')
        assert "/experiment" in str(err.value)

    def test_cz_requires_standard_splitting(self, tmp_path):
        # Parsing accepts a nonstandard gate; the run refuses it unless the
        # manifest opts out.
        doc = {"experiment": "cz", "basis": "zz",
               "config": {"dr2": {"transmissivity_T": 0.5}}}
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert not parse_manifest(manifest.read_text()).allow_nonstandard
        assert main(["run", str(manifest), "--out", str(tmp_path / "a")]) == 2
        manifest.write_text(json.dumps({**doc, "allow_nonstandard": True}))
        assert parse_manifest(manifest.read_text()).allow_nonstandard
        assert main(["run", str(manifest), "--out", str(tmp_path / "b")]) == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, literal, tmp_path):
        text = ('{"experiment": "fmzi", "sweep": {"start": 0, "stop": %s, "num": 5}}'
                % literal)
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert "/sweep/stop" in str(err.value)
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("text", [
        '{"experiment": "hom", "seed": true}',
        '{"experiment": "hom", "schema_version": true}',
        '{"experiment": "hom", "sweep": {"start": 0, "stop": 1, "num": true}}',
        '{"experiment": "hom", "config": {"global_efficiency": true}}',
        '{"experiment": "hom", "config": {"dr1": {"phase_theta": false}}}',
    ])
    def test_booleans_rejected_as_numbers(self, text):
        with pytest.raises(ManifestError):
            parse_manifest(text)

    def test_serialization_roundtrip(self):
        m = parse_manifest(
            '{"experiment": "fmzi", "seed": 7, "mode": "quantum",'
            ' "sweep": {"start": 0, "stop": 6.28, "num": 11},'
            ' "imperfections": ["eta"]}'
        )
        again = parse_manifest(m.to_json())
        assert asdict(again) == asdict(m)

    def test_unknown_imperfection(self):
        with pytest.raises(ManifestError) as err:
            parse_manifest('{"experiment": "hom", "imperfections": ["grit"]}')
        assert "/imperfections/0" in str(err.value)

    def test_out_of_range_value(self):
        with pytest.raises(ManifestError):
            parse_manifest(
                '{"experiment": "hom", "config": {"global_efficiency": 2.0}}'
            )


class TestListing:
    def test_five_experiments(self):
        assert len(EXPERIMENTS) == 5
        text = list_experiments()
        assert "hom" in text
        assert "cz" in text
        assert len(text.strip().splitlines()) == 5


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunCommand:
    def test_hom_outputs(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"experiment": "hom", "sweep": {"start": 0, "stop": 1, "num": 11}}')
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--out", str(out), "--seed", "5"]) == 0
        assert (out / "result.json").exists()
        assert (out / "report.txt").exists()
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:3] == ["reflectivity", "p_cc", "visibility"]
        for row in rows:
            for value in row.values():
                if value != "":
                    assert math.isfinite(float(value))

    def test_byte_identical_reruns(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            '{"experiment": "bell", "sweep": {"start": 0, "stop": 6.28, "num": 9},'
            ' "imperfections": ["car", "distinguishability"]}'
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(manifest), "--out", str(out_a), "--seed", "42"]) == 0
        assert main(["run", str(manifest), "--out", str(out_b), "--seed", "42"]) == 0
        assert _sha(out_a / "result.json") == _sha(out_b / "result.json")
        assert _sha(out_a / "sweep.csv") == _sha(out_b / "sweep.csv")

    def test_result_embeds_resolved_config(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"experiment": "fmzi", "sweep": {"start": 0, "stop": 6.28, "num": 5}}')
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--out", str(out)]) == 0
        payload = json.loads((out / "result.json").read_text())
        echo = payload["result"]["config_echo"]
        assert echo["global_efficiency"] == 0.69
        assert echo["detector"]["coincidence_window_ps"] == 512.0

    def test_cz_report_contains_bound(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"experiment": "cz", "imperfections": ["eta", "sideband", "crosstalk"]}')
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "hofmann_bound" in report
        payload = json.loads((out / "result.json").read_text())
        assert payload["hofmann_bound"] >= 0.984

    def test_allow_nonstandard_flag(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            '{"experiment": "cz", "config": {"dr2": {"transmissivity_T": 0.4}}}'
        )
        out = str(tmp_path / "out")
        assert main(["run", str(manifest), "--out", out]) == 2
        assert main(["run", str(manifest), "--out", out, "--allow-nonstandard"]) == 0
        payload = json.loads((tmp_path / "out" / "result.json").read_text())
        assert payload["manifest"]["allow_nonstandard"] is True

    def test_bad_manifest_exit_code(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"experiment": "nope"}')
        assert main(["run", str(manifest)]) == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        manifest = tmp_path / "m.json"
        manifest.write_text('{"experiment": "hom", "sweep": {"start": 0, "stop": 1, "num": 5}}')
        target = tmp_path / "from_env"
        monkeypatch.setenv("FREQBIN_OUTPUT_DIR", str(target))
        assert main(["run", str(manifest)]) == 0
        assert (target / "result.json").exists()


class TestFitCommand:
    def test_fit_synthetic_doublet(self, tmp_path, capsys):
        x = np.linspace(-15.0, 15.0, 301)
        y = dr_through_spectrum(DRParams(g_ghz=6.745), x)
        path = tmp_path / "spec.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows(zip(x, y))
        assert main(["fit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "13.49" in out

    def test_fit_requires_expected_header(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["fit", str(path)]) == 2

    def test_fit_flat_spectrum_fails_with_fit_exit(self, tmp_path):
        x = np.linspace(-15.0, 15.0, 301)
        path = tmp_path / "flat.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows((xi, 1.0) for xi in x)
        assert main(["fit", str(path)]) == 3
