"""Command-line front end tests: strict parsing, outputs, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freqbin
from freqbin.cli import (
    EXPERIMENTS,
    RunManifest,
    _write_outputs,
    build_config,
    list_experiments,
    main,
    parse_manifest,
)
from freqbin.errors import FreqbinError, ManifestError
from freqbin.experiments import IMPERFECTION_NAMES, ExperimentResult
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

    @pytest.mark.parametrize("doc, error", [
        ({"config": {"dr1": {"phase_theta": []}}},
         "/config/dr1/phase_theta: expected a number"),
        ({"config": {"dr1": 1}}, "/config/dr1: expected an object"),
        ({"seed": "1"}, "/seed: expected an integer"),
        ({"allow_nonstandard": 1}, "/allow_nonstandard: expected true or false"),
        ({"mode": None}, "/mode: expected a string"),
        ({"output_dir": 1}, "/output_dir: expected a string or null"),
        ({"imperfections": "eta"}, "/imperfections: expected a list"),
    ], ids=["number", "object", "integer", "boolean", "string", "string-or-null", "list"])
    def test_type_error_names_the_expected_kind(self, doc, error, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"experiment": "hom", **doc}))
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: manifest {error}"]

    @pytest.mark.parametrize("text, error", [
        ("[1]", "/: manifest must be a JSON object"),
        ('{"experiment": "hom", "sweep": {"start": 0, "stop": 1}}',
         "/sweep: sweep needs start, stop, and num"),
    ], ids=["not-an-object", "sweep-without-num"])
    def test_manifest_shape_rejected(self, text, error, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: manifest {error}"]

    def test_out_of_range_value(self):
        with pytest.raises(ManifestError):
            parse_manifest(
                '{"experiment": "hom", "config": {"global_efficiency": 2.0}}'
            )

    @pytest.mark.parametrize("value", [{}, 1.0], ids=["object", "number"])
    @pytest.mark.parametrize("container", [(), ("dr2",)], ids=["config", "dr2"])
    @pytest.mark.parametrize("key", ["grid", "anchor_thz", "bins", "label", "fbs"])
    def test_settings_fields_that_are_no_manifest_keys(self, key, container, value):
        # The grid is set only by bin_spacing_ghz, and a double resonator's
        # beam-splitter keys sit beside its cavity, not in an "fbs" object.
        config = doc = {}
        for name in container:
            doc = doc.setdefault(name, {})
        doc[key] = value
        with pytest.raises(ManifestError) as err:
            parse_manifest(json.dumps({"experiment": "hom", "config": config}))
        assert err.value.location == "/".join(["/config", *container, key])
        assert "unknown key" in str(err.value)

    @pytest.mark.parametrize("config, location", [
        ({"dr1": {"cavity": {"kappa_ex_ghz": 3.0}}}, "/config/dr1/cavity"),
        ({"dr3": {"transmissivity_T": 1.5}}, "/config/dr3"),
        ({"filters": {"linewidth_fwhm_ghz": 150.0}}, "/config/filters"),
        ({"source": {"indistinguishability": 2.0}}, "/config/source"),
        ({"detector": {"dark_rate_hz": -1.0}}, "/config/detector"),
        ({"global_efficiency": 2.0}, "/config"),
        ({"bin_spacing_ghz": 0.0}, "/config"),
    ], ids=["cavity", "splitter", "filters", "source", "detector", "chip", "grid"])
    def test_range_error_names_its_object(self, config, location):
        with pytest.raises(ManifestError) as err:
            parse_manifest(json.dumps({"experiment": "hom", "config": config}))
        assert err.value.location == location

    @pytest.mark.parametrize("config, path", [
        ({"dr1": {"cavity": {"kappa_ex_ghz": 3, "kappa1_ghz": 4}}}, ("dr1", "cavity")),
        ({"filters": {"linewidth_fwhm_ghz": 150, "fsr_ghz": 300}}, ("filters",)),
    ], ids=["cavity", "filters"])
    def test_joint_overrides_parse(self, config, path):
        # The first key alone is out of range against the default of the second.
        settings = build_config(parse_manifest(json.dumps({"experiment": "hom", "config": config})))
        doc = config
        for name in path:
            settings, doc = getattr(settings, name), doc[name]
        assert {k: getattr(settings, k) for k in doc} == doc


# The /config format, written out here rather than read from the cli:
# NUM marks a number, a nested table an object.  It mirrors the settings
# dataclasses except that a double resonator's beam-splitter keys sit
# beside its cavity and the grid is set only by bin_spacing_ghz.
NUM = "number"
_DR = {
    **dict.fromkeys(["transmissivity_T", "phase_theta", "efficiency_eta",
                     "sideband_suppression_db"], NUM),
    "cavity": dict.fromkeys(["g_ghz", "kappa1_ghz", "kappa_ex_ghz", "kappa2_ghz",
                             "eo_coeff_ghz_per_v", "thermal_detune_ghz"], NUM),
}
CONFIG_FORMAT = {
    **dict.fromkeys(["global_efficiency", "r1_transmission", "r2_transmission",
                     "bin_spacing_ghz"], NUM),
    "dr1": _DR,
    "dr2": _DR,
    "dr3": _DR,
    "filters": dict.fromkeys(["resonance_offset_ghz", "linewidth_fwhm_ghz", "fsr_ghz",
                              "drop_efficiency"], NUM),
    "source": dict.fromkeys(["photon_linewidth_mhz", "pair_rate_hz", "car",
                             "indistinguishability"], NUM),
    "detector": dict.fromkeys(["efficiency", "dark_rate_hz", "coincidence_window_ps",
                               "integration_s", "insertion_loss"], NUM),
}


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


def _config(number, max_keys=None, schema=CONFIG_FORMAT):
    """/config documents, or objects over ``schema``, whose numbers are
    drawn from ``number``: any subset of their keys, or at most
    ``max_keys`` of them."""
    values = {k: _config(number, max_keys, v) if isinstance(v, dict) else number
              for k, v in schema.items()}
    if max_keys is None:
        return st.fixed_dictionaries({}, optional=values)
    return st.lists(st.sampled_from(sorted(values)), max_size=max_keys, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: values[k] for k in keys})
    )


_TOP_VALUES = {
    "experiment": st.sampled_from(sorted(EXPERIMENTS)),
    "schema_version": st.just(1),
    "seed": st.integers(),
    "output_dir": st.none() | st.text(max_size=6),
    "sweep": st.fixed_dictionaries(
        {"start": _NUMBER, "stop": _NUMBER, "num": st.integers(2, 50)}
    ),
    "config": _config(_NUMBER),
    "imperfections": st.lists(st.sampled_from(sorted(IMPERFECTION_NAMES)), max_size=3),
    "mode": st.sampled_from(["classical", "quantum"]),
    "basis": st.sampled_from(["both", "xz", "zx", "zz"]),
    "target": st.sampled_from(["all", "dr1", "dr2", "dr3", "filters"]),
    "allow_nonstandard": st.booleans(),
}
assert set(_TOP_VALUES) == {f.name for f in fields(RunManifest)}
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


# Whole-run fuzz: typed documents with signed numbers of any size (those
# in [0, 1], where most settings are valid, drawn often), at most three
# keys per config object and a small sweep, run end to end.  Values that
# parse but fail at run time must end in exit 2 or 3, never in an
# exception, a Python warning or a stderr line that is not an error or a
# warning of the run.
_RUN_NUMBER = (
    st.floats(0.0, 1.0)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
)
_RUN_MANIFESTS = st.fixed_dictionaries(
    {
        "experiment": _TOP_VALUES["experiment"],
        "sweep": st.fixed_dictionaries(
            {"start": _RUN_NUMBER, "stop": _RUN_NUMBER, "num": st.integers(2, 5)}
        ),
    },
    optional={
        **{k: v for k, v in _TOP_VALUES.items()
           if k not in ("experiment", "sweep", "output_dir")},
        "config": _config(_RUN_NUMBER, max_keys=3),
    },
)


def _run(doc, out):
    manifest = out / "m.json"
    manifest.write_text(json.dumps(doc))
    return main(["run", str(manifest), "--out", str(out)])


def _checked_run(doc, out) -> tuple[int, list[str]]:
    """Exit code and stderr lines of a run that must raise no Python
    warning and print only error and warning lines on stderr, none of
    them with a Python type repr such as <class 'dict'>."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = _run(doc, out)
    assert [str(w.message) for w in caught] == []
    lines = stderr.getvalue().splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    assert not any("<class" in line for line in lines), lines
    return code, lines


@settings(max_examples=300, deadline=None)
@given(doc=_RUN_MANIFESTS)
def test_fuzzed_run_exits_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _checked_run(doc, Path(tmp))
        assert code in (0, 2, 3)


# Run fuzz over manifests that parse: every number lies inside the range
# its settings dataclass accepts, cross-field rules included (kappa_ex,
# drawn or its default of 1 GHz, at most any kappa1; filter linewidths
# below any free spectral range; all four bins inside the coupler
# window), so every example reaches run time.  There a run may still fail
# (a gate off its 1/3 splitting, a Poisson mean too large to draw) with
# exit 2.
_IN_RANGE = {
    "global_efficiency": st.floats(0.05, 1.0),
    "r1_transmission": st.floats(0.05, 1.0),
    "r2_transmission": st.floats(0.05, 1.0),
    "bin_spacing_ghz": st.floats(1.0, 200.0),
    "transmissivity_T": st.floats(0.0, 1.0),
    "phase_theta": st.floats(-10.0, 10.0),
    "efficiency_eta": st.floats(0.05, 1.0),
    "sideband_suppression_db": st.floats(0.0, 60.0),
    "g_ghz": st.floats(0.5, 20.0),
    "kappa1_ghz": st.floats(1.0, 5.0),
    "kappa_ex_ghz": st.floats(0.05, 0.5),
    "kappa2_ghz": st.floats(0.5, 5.0),
    "eo_coeff_ghz_per_v": st.floats(0.01, 1.0),
    "thermal_detune_ghz": st.floats(-5.0, 5.0),
    "resonance_offset_ghz": st.floats(-5.0, 5.0),
    "linewidth_fwhm_ghz": st.floats(0.5, 20.0),
    "fsr_ghz": st.floats(25.0, 400.0),
    "drop_efficiency": st.floats(0.05, 1.0),
    "photon_linewidth_mhz": st.floats(1.0, 1000.0),
    "pair_rate_hz": st.floats(1e3, 1e7),
    "car": st.floats(1.5, 1e4),
    "indistinguishability": st.floats(0.0, 1.0),
    "efficiency": st.floats(0.05, 1.0),
    "dark_rate_hz": st.floats(0.0, 1e4),
    "coincidence_window_ps": st.floats(10.0, 2000.0),
    "integration_s": st.floats(0.1, 100.0),
    "insertion_loss": st.floats(0.05, 1.0),
}


def _in_range(schema):
    return st.fixed_dictionaries({}, optional={
        k: _in_range(v) if isinstance(v, dict) else _IN_RANGE[k] for k, v in schema.items()
    })


_VALID_MANIFESTS = st.fixed_dictionaries(
    {
        "experiment": _TOP_VALUES["experiment"],
        # Inside [0, 1], where a sweep of reflectivities is valid too.
        "sweep": st.fixed_dictionaries({"start": st.floats(0.0, 1.0),
                                        "stop": st.floats(0.0, 1.0),
                                        "num": st.integers(2, 5)}),
        "config": _in_range(CONFIG_FORMAT),
    },
    optional={k: _TOP_VALUES[k]
              for k in ("seed", "imperfections", "mode", "basis", "target", "allow_nonstandard")},
)


@settings(max_examples=200, deadline=None)
@given(doc=_VALID_MANIFESTS)
def test_fuzzed_valid_manifest_reaches_run_time(doc):
    parse_manifest(json.dumps(doc))
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _checked_run(doc, Path(tmp))
        assert code in (0, 2)


@settings(max_examples=20, deadline=None)
@given(
    doc=st.fixed_dictionaries({
        "experiment": _TOP_VALUES["experiment"],
        "seed": _TOP_VALUES["seed"],
        "imperfections": _TOP_VALUES["imperfections"],
        "mode": _TOP_VALUES["mode"],
        "basis": _TOP_VALUES["basis"],
        # Inside [0, 1] for hom; an all-zero fringe leaves its visibility out.
        "sweep": st.fixed_dictionaries({"start": st.floats(0.0, 1.0),
                                        "stop": st.floats(0.0, 1.0),
                                        "num": st.integers(2, 5)}),
    })
)
def test_same_manifest_and_seed_give_identical_result_bytes(doc):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        a.mkdir()
        b.mkdir()
        assert _run(doc, a) == _run(doc, b) == 0
        assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()


class TestListing:
    def test_five_experiments(self):
        assert len(EXPERIMENTS) == 5
        text = list_experiments()
        assert "hom" in text
        assert "cz" in text
        assert len(text.strip().splitlines()) == 5


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: sha256 of result.json of the sampled manifests below at seed 7 with
#: every imperfection on.  They pin every sampled count: a change to the
#: seed derivation, the seed hash or the draw order moves them.
_PINNED_RESULTS = {
    "fmzi": ({"mode": "quantum", "config": {"source": {"car": 300.0},
                                            "detector": {"integration_s": 50.0}}},
             "06d4c57888f73c35cf3a484bc52879ab02f87b90fa1aa393611b7a7b117c0242"),
    "hom": ({"config": {"source": {"indistinguishability": 0.949},
                        "detector": {"integration_s": 5.0}}},
            "01a98d5b9f5ba4b945b00b5cbd713518a37039bc9dc21ad1a37aca468d40dcca"),
    "cz": ({"basis": "both", "config": {"source": {"car": 14.0},
                                        "detector": {"integration_s": 1000.0}}},
           "a5f4be146b72da9f03710b45e11f8f66f5a59f2e7c26262b63e9736399ca956a"),
    "bell": ({"config": {"source": {"car": 300.0, "indistinguishability": 0.97},
                         "detector": {"integration_s": 50.0}}},
             "e45374c7c09990b7eacd377ee251497a8d51e26e857c587af5b92997f8048788"),
}


@pytest.mark.parametrize("experiment", list(_PINNED_RESULTS))
def test_sampled_result_bytes_are_pinned(experiment, tmp_path):
    extra, digest = _PINNED_RESULTS[experiment]
    doc = {"experiment": experiment, "seed": 7,
           "imperfections": sorted(IMPERFECTION_NAMES), **extra}
    assert _run(doc, tmp_path) == 0
    assert _sha(tmp_path / "result.json") == digest


def _python(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports this
    checkout's freqbin."""
    src = str(Path(freqbin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_sampled_runs_leave_numpy_random_unloaded(tmp_path):
    # The count sampler draws every record in numpy; its reference loop,
    # and with it numpy.random, serves only a record too close to call
    # and a grid it rejects.  The pinned manifests at the default seed
    # and seeds 1-7, then a spectroscopy run of every target, run in one
    # interpreter, which reports the freqbin modules loaded after each
    # run.  No run loads the Fock engine, and only spectroscopy, which
    # fits its doublets, loads freqbin.resonator, the home of the fit and
    # of the drive calibration.
    paths = []
    for experiment, (extra, _) in _PINNED_RESULTS.items():
        for seed in (None, 1, 2, 3, 4, 5, 6, 7):
            doc = {"experiment": experiment, "imperfections": sorted(IMPERFECTION_NAMES), **extra}
            path = tmp_path / f"{experiment}-{seed}.json"
            path.write_text(json.dumps(doc if seed is None else {**doc, "seed": seed}))
            paths.append(str(path))
    spectroscopy = tmp_path / "spectroscopy.json"
    spectroscopy.write_text('{"experiment": "spectroscopy", "target": "all"}')
    paths.append(str(spectroscopy))
    out = _python("import json, sys, numpy\n"
                  "print('numpy.random' in sys.modules)\n"
                  "from freqbin.cli import main\n"
                  f"for path in {paths!r}:\n"
                  "    assert main(['run', path, '--out', path + '.out']) == 0\n"
                  "    print('loaded', json.dumps([m for m in sys.modules"
                  " if m.startswith('freqbin')]))\n"
                  "print('numpy.random' in sys.modules)").splitlines()
    loaded = [set(json.loads(line[7:])) for line in out if line.startswith("loaded ")]
    assert len(loaded) == len(paths)
    for path, modules in zip(paths, loaded):
        assert "freqbin.fock" not in modules, path
        assert ("freqbin.resonator" in modules) == (path == str(spectroscopy)), path
    if out[0] == "True":
        pytest.skip("this numpy loads numpy.random with numpy itself")
    assert out[-1] == "False"


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

    @pytest.mark.parametrize("doc, message", [
        ({"experiment": "fmzi", "mode": "quantum", "imperfections": ["car"],
          "config": {"detector": {"integration_s": 1e300}}}, "cannot draw counts"),
        ({"experiment": "hom", "config": {"source": {"pair_rate_hz": 1e300}}},
         "cannot draw counts"),
        ({"experiment": "bell", "config": {"detector": {"dark_rate_hz": 1e300}}},
         "cannot draw counts"),
        ({"experiment": "cz", "imperfections": ["car"],
          "config": {"source": {"car": 1.0000001}, "detector": {"integration_s": 1e20}}},
         "cannot draw counts"),
        ({"experiment": "cz", "allow_nonstandard": True, "imperfections": ["car", "eta"],
          "config": {"global_efficiency": 1e-9}}, "no fidelity_counts in the xz basis"),
        ({"experiment": "cz", "allow_nonstandard": True,
          "config": {"r1_transmission": 5e-324}}, "no fidelity in the zx basis"),
    ], ids=["fmzi-counts", "hom-counts", "bell-counts", "cz-counts", "gate-no-counts",
            "gate-no-acceptance"])
    def test_runs_that_ended_in_a_traceback(self, doc, message, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("doc", [
        {"experiment": "bell", "sweep": {"start": -1.7e308, "stop": 1.7e308, "num": 3}},
        {"experiment": "fmzi", "sweep": {"start": -1e308, "stop": 1e308, "num": 3}},
    ], ids=["bell", "fmzi"])
    def test_sweep_span_past_the_float_range(self, doc, tmp_path):
        # Printed numpy RuntimeWarnings, then a run-time error instead of a
        # manifest error.
        with pytest.raises(ManifestError) as err:
            parse_manifest(json.dumps(doc))
        assert err.value.location == "/sweep"
        code, lines = _checked_run(doc, tmp_path)
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ") and "/sweep" in lines[0]

    def test_sweep_span_near_the_float_limit(self, tmp_path):
        # linspace printed a numpy overflow warning on stderr.
        doc = {"experiment": "bell",
               "sweep": {"start": -1116205, "stop": 1.7976931348623157e308, "num": 31}}
        code, lines = _checked_run(doc, tmp_path)
        assert (code, lines) == (0, [])
        with open(tmp_path / "sweep.csv", newline="") as fh:
            phases = [float(row["phase_rad"]) for row in csv.DictReader(fh)]
        assert phases[-1] == 1.7976931348623157e308
        assert all(math.isfinite(x) for x in phases)

    @pytest.mark.parametrize("config", [
        {"dr2": {"phase_theta": 1.0}},
        {"dr1": {"transmissivity_T": 0.3}, "dr2": {"transmissivity_T": 0.2}},
    ], ids=["dr2-phase", "dr1-dr2-splitting"])
    def test_bell_ignores_configured_analyzer_splitting(self, config, tmp_path):
        # Both analyzers run at T = 1/2: a configured splitting changes no
        # fringe and is no reason for a "not balanced" warning.
        doc = {"experiment": "bell", "seed": 3,
               "sweep": {"start": 0, "stop": 6.28, "num": 7}}
        default, overridden = tmp_path / "default", tmp_path / "overridden"
        default.mkdir()
        overridden.mkdir()
        assert _checked_run(doc, default) == (0, [])
        assert _checked_run({**doc, "config": config}, overridden) == (0, [])
        assert (overridden / "sweep.csv").read_bytes() == (default / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("doc, undefined", [
        ({"experiment": "bell", "sweep": {"start": 0, "stop": 0, "num": 2}}, ["pm", "mp"]),
        ({"experiment": "fmzi", "sweep": {"start": 0, "stop": 3, "num": 4},
          "config": {"dr1": {"transmissivity_T": 1}, "dr3": {"transmissivity_T": 1}}},
         ["in1_port2", "in2_port1"]),
    ], ids=["bell", "fmzi"])
    def test_all_zero_fringe_leaves_its_visibility_out(self, doc, undefined, tmp_path):
        # Exited 2 with "all-zero fringe" and wrote no files.
        code, lines = _checked_run(doc, tmp_path)
        assert code == 0
        assert all((tmp_path / name).exists()
                   for name in ("result.json", "sweep.csv", "report.txt"))
        result = json.loads((tmp_path / "result.json").read_text())["result"]
        missing = [f"visibility_{name}" for name in undefined]
        assert not set(result["metrics"]) & {"visibility_avg", *missing}
        assert [w.split(" ")[0] for w in result["warnings"] if "undefined" in w] == missing
        assert lines == [f"warning: {w}" for w in result["warnings"]]

    def test_hom_sweep_without_a_balanced_point(self, tmp_path):
        # Reported the visibility at R = 0.9 as visibility_at_balanced,
        # with no warning.
        doc = {"experiment": "hom", "sweep": {"start": 0.9, "stop": 1.0, "num": 2}}
        code, lines = _checked_run(doc, tmp_path)
        assert code == 0
        assert lines == ["warning: visibility_at_balanced undefined: no sweep point"
                         " within 0.01 of R = 0.5 (nearest R = 0.9)"]
        result = json.loads((tmp_path / "result.json").read_text())["result"]
        assert result["metrics"] == {}
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert ["visibility_at_balanced", "n/a", "0.9490"] in [line.split() for line in report]

    def test_integer_sweep_bound_past_int64(self, tmp_path):
        # Made the sweep an object array: a numpy casting error and exit 1.
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"experiment": "spectroscopy", "target": "filters",
                                        "sweep": {"start": 0, "stop": 10**20, "num": 3}}))
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 0
        payload = json.loads((tmp_path / "out" / "result.json").read_text())
        assert payload["filters"]["sweep_values"] == [0.0, 5e19, 1e20]

    def test_manifest_that_is_not_utf8(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b'{"experiment": "hom", "output_dir": "\xff"}')
        assert main(["run", str(manifest), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read manifest")

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


#: Settings that take a spectrum past the float range.
_NON_FINITE_SPECTRA = {
    "dr1-coupling": {"experiment": "spectroscopy", "target": "dr1",
                     "config": {"dr1": {"cavity": {"g_ghz": 1e200}}}},
    "filters-linewidth": {"experiment": "spectroscopy", "target": "filters",
                          "config": {"filters": {"linewidth_fwhm_ghz": 1e-320}}},
    "filters-peak-underflow": {"experiment": "spectroscopy", "target": "filters",
                               "config": {"filters": {"linewidth_fwhm_ghz": 1e-300,
                                                      "resonance_offset_ghz": 5.0}}},
}


@pytest.mark.parametrize("name", list(_NON_FINITE_SPECTRA))
def test_spectrum_past_the_float_range_writes_nothing(name, tmp_path):
    # Printed numpy RuntimeWarnings and wrote a result.json of "nan"
    # strings before the CSV check exited 2; the underflowing filter peak
    # ended in a ZeroDivisionError traceback.
    code, lines = _checked_run(_NON_FINITE_SPECTRA[name], tmp_path)
    target = _NON_FINITE_SPECTRA[name]["target"]
    assert code == 2
    assert lines == [f"error: the {target} response leaves the float range for these settings"]
    assert [path.name for path in tmp_path.iterdir()] == ["m.json"]


def test_non_finite_csv_value_writes_no_file(tmp_path):
    # Wrote result.json before the CSV check raised.  The first cell in
    # row order names the column: the infinity of row 1, not the NaN of
    # row 2 in an earlier column.
    res = ExperimentResult("fmzi", {
        "phase_rad": [0.0, 1.0, 2.0],
        "p_in1_port1": [0.5, 0.5, math.nan],
        "p_in1_port2": [0.5, math.inf, 0.5],
    })
    manifest = parse_manifest('{"experiment": "fmzi"}')
    with pytest.raises(FreqbinError, match="^non-finite value in CSV column 'p_in1_port2'$"):
        _write_outputs(tmp_path, manifest, {"result": res}, {})
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(FreqbinError):
        _write_outputs(tmp_path / "new", manifest, {"result": res}, {})
    assert not (tmp_path / "new").exists()


def test_failed_run_keeps_the_earlier_run(tmp_path):
    # The earlier run's sweep.csv and report.txt sat beside a result.json
    # of the failed run.
    assert _checked_run({"experiment": "spectroscopy", "target": "dr1"}, tmp_path) == (0, [])
    outputs = [tmp_path / name for name in ("result.json", "sweep.csv", "report.txt")]
    before = [path.read_bytes() for path in outputs]
    assert _checked_run(_NON_FINITE_SPECTRA["dr1-coupling"], tmp_path)[0] == 2
    assert [path.read_bytes() for path in outputs] == before


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

    def test_fit_dips_closer_than_the_splitting_bound(self, tmp_path, capsys):
        # The start value of g fell below its bound of 1e-3 GHz and the
        # optimizer raised a bare ValueError: a traceback.
        x = np.linspace(-0.005, 0.005, 101)
        y = dr_through_spectrum(
            DRParams(g_ghz=4e-4, kappa1_ghz=2e-4, kappa_ex_ghz=1e-4, kappa2_ghz=2e-4), x)
        path = tmp_path / "spec.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows(zip(x, y))
        assert main(["fit", str(path)]) in (0, 3)
        assert all(line.startswith("error: ") for line in capsys.readouterr().err.splitlines())

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

    @pytest.mark.parametrize("seed", range(10))
    def test_fit_uniform_noise_fails_with_fit_exit(self, seed, tmp_path, capsys):
        # Noise used to fit: seed 0 printed 2g = 109.9 GHz with kappa_ex
        # above kappa1, the others residuals of about half the dip depth.
        x = np.linspace(-15.0, 15.0, 601)
        y = np.random.default_rng(seed).uniform(0.0, 1.0, x.shape)
        path = tmp_path / "noise.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows(zip(x, y))
        assert main(["fit", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("scale_x, scale_y",
                             [(1.0, 1e200), (1e154, 1.0), (9e307 / 15.0, 1.0)],
                             ids=["transmission-1e200", "detuning-1e154", "detuning-9e307"])
    def test_fit_extreme_finite_spectrum_fails_without_numpy_warnings(
            self, scale_x, scale_y, tmp_path, capsys):
        # Printed "RuntimeWarning: overflow encountered in matmul" (or in
        # scalar subtract) on stderr before the error line.
        x = np.linspace(-15.0, 15.0, 601)
        y = dr_through_spectrum(DRParams(), x)
        path = tmp_path / "extreme.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["detuning_ghz", "transmission"])
            writer.writerows(zip(x * scale_x, y * scale_y))
        assert main(["fit", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no doublet found: ")

    @pytest.mark.parametrize("text, message", [
        ("detuning_ghz,transmission\n1.0\n", "line 2: expected 2 fields, got 1"),
        ("detuning_ghz,transmission\n1.0,0.5\n\n2.0,0.5,7\n",
         "line 4: expected 2 fields, got 3"),
        ("detuning_ghz,transmission\n%s,0.5\n" % ("1" * 200_000), "field limit"),
    ], ids=["fewer-fields", "more-fields", "field-past-the-csv-limit"])
    def test_fit_row_with_wrong_field_count(self, text, message, tmp_path, capsys):
        path = tmp_path / "spec.csv"
        path.write_text(text)
        assert main(["fit", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read spectrum: ")
        assert message in err[0]


# Fit fuzz: a CSV of fewer than 50 rows, so no fit runs, with the expected
# header or any other, and rows of any fields that hold no line break.
_CSV_FIELD = (
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=8)
    | st.floats().map(repr)
    | st.integers().map(str)
)
_CSV_ROW = st.lists(_CSV_FIELD, max_size=4).map(",".join)


@settings(max_examples=200, deadline=None)
@given(header=st.just("detuning_ghz,transmission") | _CSV_ROW,
       rows=st.lists(_CSV_ROW, max_size=49))
def test_fuzzed_fit_csv_exits_cleanly(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "spec.csv")
        path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = main(["fit", str(path)])
    assert code in (2, 3)
    lines = stderr.getvalue().splitlines()
    assert lines and all(line.startswith("error: ") for line in lines), lines
