"""The package's public names: `freqbin` imports each from its module on
first access, and the old import paths of the names that moved still work."""

import importlib

import pytest

import freqbin

# Every name the package exports, with the module that defines it.
PUBLIC = {
    "counting": ["CountRecord", "DetectorSpec", "MetricResult", "SourceSpec",
                 "g2_histogram", "hofmann_bound", "indistinguishability_mix",
                 "sample_counts", "truth_table_fidelity", "visibility_hom",
                 "visibility_minmax"],
    "elements": ["DRParams", "FbsSpec", "FilterParams", "dr_through_spectrum",
                 "fbs_blocks", "fbs_transform", "filter_response"],
    "errors": ["ConfigurationError", "DomainError", "FitError", "FreqbinError",
               "ManifestError", "ValidationError"],
    "experiments": ["ChipConfig", "DrConfig", "ExperimentResult", "default_chip_config",
                    "derive_seed", "run_bell", "run_cz", "run_cz_characterization",
                    "run_fmzi", "run_hom", "run_spectroscopy"],
    "fock": ["ModeTransform", "PureState", "apply_transform", "fock_state", "permanent",
             "transition_amplitude"],
    "grid": ["Bin", "BinGrid", "grid_from_indices"],
    "resonator": ["CalibCurve", "DoubletFit", "DriveSpec", "drive_to_splitting",
                  "eo_resonance_shift", "fit_doublet"],
}
NAMES = [(name, module) for module, names in PUBLIC.items() for name in names]


def test_fifty_names():
    assert len(NAMES) == len(dict(NAMES)) == 50


@pytest.mark.parametrize("name, module", NAMES, ids=[n for n, _ in NAMES])
def test_public_name_is_its_modules_object(name, module):
    home = importlib.import_module(f"freqbin.{module}")
    scope = {}
    exec(f"from freqbin import {name}", scope)
    assert scope[name] is getattr(freqbin, name) is getattr(home, name)
    assert getattr(home, name).__module__ == home.__name__


def test_dir_and_star_import_list_every_name():
    assert set(dict(NAMES)) <= set(dir(freqbin))
    scope = {}
    exec("from freqbin import *", scope)
    assert set(dict(NAMES)) <= set(scope)


def test_unknown_attribute_is_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'freqbin' has no attribute 'nope'$"):
        freqbin.nope
    assert not hasattr(freqbin, "nope")
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'freqbin'"):
        exec("from freqbin import nope", {})


@pytest.mark.parametrize("old, name, home", [
    ("fock", "Bin", "grid"),
    ("fock", "grid_from_indices", "grid"),
    ("resonator", "DRParams", "elements"),
    ("resonator", "dr_through_spectrum", "elements"),
    ("elements", "fbs_transform", "elements"),
])
def test_old_paths_resolve(old, name, home):
    moved = getattr(importlib.import_module(f"freqbin.{home}"), name)
    assert getattr(importlib.import_module(f"freqbin.{old}"), name) is moved
