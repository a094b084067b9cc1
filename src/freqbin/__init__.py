"""Fock-space simulator of an integrated electro-optic frequency-bin
photonic processor.

The package imports the modules a run uses; `freqbin.fock` (the engine,
which no run evolves) and `freqbin.resonator` (the fit, which only
spectroscopy runs) load on first use of a name (PEP 562).
"""

from . import counting, elements, errors, experiments, grid  # noqa: F401

__version__ = "0.1.0"

_EXPORTS = {
    "counting": ("CountRecord", "DetectorSpec", "MetricResult", "SourceSpec",
                 "g2_histogram", "hofmann_bound", "indistinguishability_mix",
                 "sample_counts", "truth_table_fidelity", "visibility_hom",
                 "visibility_minmax"),
    "elements": ("DRParams", "FbsSpec", "FilterParams", "dr_through_spectrum",
                 "fbs_blocks", "fbs_transform", "filter_response"),
    "errors": ("ConfigurationError", "DomainError", "FitError", "FreqbinError",
               "ManifestError", "ValidationError"),
    "experiments": ("ChipConfig", "DrConfig", "ExperimentResult", "default_chip_config",
                    "derive_seed", "run_bell", "run_cz", "run_cz_characterization",
                    "run_fmzi", "run_hom", "run_spectroscopy"),
    "fock": ("ModeTransform", "PureState", "apply_transform", "fock_state", "permanent",
             "transition_amplitude"),
    "grid": ("Bin", "BinGrid", "grid_from_indices"),
    "resonator": ("CalibCurve", "DoubletFit", "DriveSpec", "drive_to_splitting",
                  "eo_resonance_shift", "fit_doublet"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The builtin rather than importlib, so that -X importtime reports it.
    home = __import__(f"{__name__}.{module}", fromlist=["*"])
    return home if module == name else getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
