"""Fock-space simulator of an integrated electro-optic frequency-bin
photonic processor."""

from .counting import (
    CountRecord,
    DetectorSpec,
    MetricResult,
    SourceSpec,
    g2_histogram,
    hofmann_bound,
    indistinguishability_mix,
    sample_counts,
    truth_table_fidelity,
    visibility_hom,
    visibility_minmax,
)
from .elements import (
    FbsSpec,
    FilterParams,
    fbs_blocks,
    fbs_transform,
    filter_response,
)
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    FreqbinError,
    ManifestError,
    ValidationError,
)
from .experiments import (
    ChipConfig,
    DrConfig,
    ExperimentResult,
    default_chip_config,
    derive_seed,
    run_bell,
    run_cz,
    run_cz_characterization,
    run_fmzi,
    run_hom,
    run_spectroscopy,
)
from .fock import (
    Bin,
    BinGrid,
    ModeTransform,
    PureState,
    apply_transform,
    fock_state,
    grid_from_indices,
    permanent,
    transition_amplitude,
)
from .resonator import (
    CalibCurve,
    DoubletFit,
    DRParams,
    DriveSpec,
    dr_through_spectrum,
    drive_to_splitting,
    eo_resonance_shift,
    fit_doublet,
)

__version__ = "0.1.0"
