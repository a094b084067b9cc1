"""Command-line front end tests: strict parsing, outputs, determinism."""

import csv
import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbin.cli import (
    _CAVITY_KEYS,
    _CONFIG_KEYS,
    _DETECTOR_KEYS,
    _DR_KEYS,
    _FILTER_KEYS,
    _NUM,
    _SOURCE_KEYS,
    _TOP_KEYS,
    EXPERIMENTS,
    build_config,
    list_experiments,
    main,
    parse_manifest,
)
from freqbin.errors import ManifestError
from freqbin.experiments import IMPERFECTION_NAMES
from freqbin.resonator import DRParams, dr_through_spectrum


class TestParsing:
    def test_minimal_manifest_gets_defaults(self):
        m = parse_manifest('{"experiment": "hom"}')
        assert m.experiment == "hom"
        assert m.seed == 12345
        assert m.schema_version == 1
        cfg = build_config(m)
        assert cfg.grid.bin_spacing_ghz == 12.95
        assert cfg.filters.linewidth_fwhm_ghz == 4.0
        assert cfg.filters.fsr_ghz == 100.0
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

    @pytest.mark.parametrize("text, location, message", [
        ('{"experiment": "hom", "imperfections": [{}]}', "/imperfections/0", "string"),
        ('{"experiment": "hom", "imperfections": [[]]}', "/imperfections/0", "string"),
        ('{"experiment": "hom", "imperfections": ["eta", 1]}', "/imperfections/1", "string"),
        ('{"experiment": "hom", "imperfections": [null]}', "/imperfections/0", "string"),
        ('{"experiment": "hom", "config": {"bin_spacing_ghz": 1%s}}' % ("0" * 400),
         "/config/bin_spacing_ghz", "finite"),
        ('{"experiment": "hom", "sweep": {"start": 0, "stop": 1, "num": %d}}' % 10**30,
         "/sweep/num", "num"),
        ('{"experiment": "hom", "output_dir": "a\\u0000b"}', "/output_dir", "NUL"),
        # Past Python's digit limit for integer literals, and nested past
        # the recursion limit of the JSON parser.
        ('{"experiment": "hom", "seed": 1%s}' % ("0" * 5000), "/", "malformed"),
        ("[" * 100_000, "/", "malformed"),
    ], ids=["dict-entry", "list-entry", "int-entry", "null-entry", "huge-int",
            "huge-num", "nul-output-dir", "int-digit-limit", "deep-nesting"])
    def test_inputs_that_ended_in_a_traceback(self, text, location, message, tmp_path):
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert err.value.location == location
        assert message in str(err.value)
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2

    def test_removed_cavity_center_frequency_rejected(self, tmp_path, capsys):
        # DRParams.omega0_thz was echoed but read by nothing; it is gone.
        text = '{"experiment": "hom", "config": {"dr1": {"cavity": {"omega0_thz": 192.0}}}}'
        with pytest.raises(ManifestError) as err:
            parse_manifest(text)
        assert err.value.location == "/config/dr1/cavity/omega0_thz"
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert "/config/dr1/cavity/omega0_thz" in capsys.readouterr().err

    def test_out_of_range_value(self):
        with pytest.raises(ManifestError):
            parse_manifest(
                '{"experiment": "hom", "config": {"global_efficiency": 2.0}}'
            )


# Manifest fuzz: a document over the known keys with every value of its
# expected kind, then one value, at any depth, replaced by any JSON value
# (NaN, infinities, integers past the float range, lists, objects).
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers() | st.floats()
    | st.sampled_from([10**30, 10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_NUMBER = st.integers() | st.floats(allow_nan=False, allow_infinity=False)


def _object(schema, nested=None):
    nested = nested or {}
    return st.fixed_dictionaries({}, optional={
        k: nested.get(k, _NUMBER if schema[k] == _NUM else _JSON) for k in schema
    })


_DR = _object(_DR_KEYS, {"cavity": _object(_CAVITY_KEYS)})
_TOP_VALUES = {
    "experiment": st.sampled_from(sorted(EXPERIMENTS)),
    "schema_version": st.just(1),
    "seed": st.integers(),
    "output_dir": st.none() | st.text(max_size=6),
    "sweep": st.fixed_dictionaries(
        {"start": _NUMBER, "stop": _NUMBER, "num": st.integers(2, 50)}
    ),
    "config": _object(_CONFIG_KEYS, {
        "dr1": _DR, "dr2": _DR, "dr3": _DR,
        "filters": _object(_FILTER_KEYS),
        "source": _object(_SOURCE_KEYS),
        "detector": _object(_DETECTOR_KEYS),
    }),
    "imperfections": st.lists(st.sampled_from(sorted(IMPERFECTION_NAMES)), max_size=3),
    "mode": st.sampled_from(["classical", "quantum"]),
    "basis": st.sampled_from(["both", "xz", "zx", "zz"]),
    "target": st.sampled_from(["all", "dr1", "dr2", "dr3", "filters"]),
    "allow_nonstandard": st.booleans(),
}
assert set(_TOP_VALUES) == set(_TOP_KEYS)
_TYPED_MANIFESTS = st.fixed_dictionaries(
    {"experiment": _TOP_VALUES["experiment"]},
    optional={k: v for k, v in _TOP_VALUES.items() if k != "experiment"},
)


def _slots(doc):
    """(container, key) of every value in a nested document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@settings(max_examples=300, deadline=None)
@given(doc=_TYPED_MANIFESTS, data=st.data())
def test_fuzzed_manifest_parses_or_raises_manifest_error(doc, data):
    container, key = data.draw(st.sampled_from(list(_slots(doc))))
    container[key] = data.draw(_JSON)
    try:
        parse_manifest(json.dumps(doc))
    except ManifestError:
        pass


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

    def test_warnings_printed_on_stderr(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "experiment": "fmzi", "sweep": {"start": 0, "stop": 6.28, "num": 5},
            "config": {"dr1": {"transmissivity_T": 0.4}}}))
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        warnings = json.loads((out / "result.json").read_text())["result"]["warnings"]
        assert len(warnings) == 1 and "not balanced" in warnings[0]
        assert err == [f"warning: {warnings[0]}"]

    @pytest.mark.parametrize("doc", [
        {"experiment": "fmzi", "sweep": {"start": 0, "stop": 6.28, "num": 5}},
        {"experiment": "bell", "sweep": {"start": 0, "stop": 6.28, "num": 5}},
        {"experiment": "cz"},
    ], ids=["fmzi", "bell", "cz"])
    def test_default_manifest_prints_no_warning(self, doc, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("column, value", [("transmission", "nan"),
                                               ("detuning_ghz", "inf")])
    def test_fit_non_finite_sample_fails_with_fit_exit(self, column, value, tmp_path, capsys):
        x = np.linspace(-15.0, 15.0, 301)
        y = dr_through_spectrum(DRParams(g_ghz=6.745), x)
        rows = [[float(a), float(b)] for a, b in zip(x, y)]
        rows[150][0 if column == "detuning_ghz" else 1] = value
        path = tmp_path / "spec.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows(rows)
        assert main(["fit", str(path)]) == 3
        assert "finite" in capsys.readouterr().err
