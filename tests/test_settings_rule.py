"""The number and range halves of the one settings rule
(`freqbin.errors.check_settings`): each number field of the nine settings
classes holds a real number, and each ranged field keeps its range, with
a message naming the field; the finiteness half is
`test_experiments.test_settings_reject_non_finite_numbers`."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from freqbin.counting import DetectorSpec, SourceSpec
from freqbin.elements import DRParams, FbsSpec, FilterParams
from freqbin.errors import ValidationError
from freqbin.experiments import default_chip_config, run_fmzi, run_hom, run_spectroscopy
from freqbin.resonator import CalibCurve, DriveSpec

CHIP = default_chip_config()


def _id(case) -> str:
    return f"{type(case[0]).__name__}.{case[1]}"


_BELOW_ZERO, _ABOVE_ONE = math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)
# Range -> (values just outside it, values on its closed edges, message).
_RANGES = {
    "unit": ((0.0, _ABOVE_ONE), (1.0,), r"must lie in \(0, 1\]"),
    "fraction": ((_BELOW_ZERO, _ABOVE_ONE), (0.0, 1.0), r"must lie in \[0, 1\]"),
    "positive": ((0.0, -1.0), (), "must be positive"),
    "nonnegative": ((_BELOW_ZERO,), (0.0,), "must be nonnegative"),
}
RANGED = [
    (SourceSpec(), "indistinguishability", "fraction"),
    (SourceSpec(), "photon_linewidth_mhz", "positive"),
    (SourceSpec(), "pair_rate_hz", "positive"),
    (DetectorSpec(), "efficiency", "unit"),
    (DetectorSpec(), "insertion_loss", "unit"),
    (DetectorSpec(), "coincidence_window_ps", "positive"),
    (DetectorSpec(), "integration_s", "positive"),
    (DetectorSpec(), "dark_rate_hz", "nonnegative"),
    (FbsSpec(), "efficiency_eta", "unit"),
    (FbsSpec(), "transmissivity_T", "fraction"),
    (FbsSpec(), "sideband_suppression_db", "nonnegative"),
    (DRParams(), "g_ghz", "positive"),
    (DRParams(), "kappa1_ghz", "positive"),
    (DRParams(), "kappa_ex_ghz", "positive"),
    (DRParams(), "kappa2_ghz", "positive"),
    (FilterParams(), "linewidth_fwhm_ghz", "positive"),
    (FilterParams(), "drop_efficiency", "unit"),
    (CHIP, "r1_transmission", "unit"),
    (CHIP, "r2_transmission", "unit"),
    (CHIP, "global_efficiency", "unit"),
    (CHIP.grid, "bin_spacing_ghz", "positive"),
    (CalibCurve(), "r_peak", "unit"),
    (CalibCurve(), "beta_per_v", "positive"),
    (DriveSpec(), "drive_voltage_v", "nonnegative"),
]


# The 31 number fields `test_settings_reject_non_finite_numbers` counts.
NUMBER_FIELDS = [
    (spec, f.name)
    for spec in (CHIP, CHIP.grid, CHIP.dr1.fbs, CHIP.dr1.cavity, CHIP.filters, CHIP.source,
                 CHIP.detector, CalibCurve(), DriveSpec())
    for f in fields(spec) if isinstance(getattr(spec, f.name), float)
]
NOT_REAL = ["1", None, [0.5], np.array([0.5, 0.5]), 1j, True]


@pytest.mark.parametrize("case", NUMBER_FIELDS, ids=_id)
def test_number_field_holds_a_real_number(case):
    # A string, None, a list, an array or a complex number passed (a
    # spectroscopy run then ended in a UFuncTypeError), or ended in a bare
    # TypeError; a bool passed as 0 or 1.
    spec, name = case
    for value in NOT_REAL:
        if value is None and name == "anchor_thz":  # unset
            assert replace(spec, **{name: value}).anchor_thz is None
            continue
        with pytest.raises(ValidationError, match=f"^{name} must be a real number$"):
            replace(spec, **{name: value})
    value = np.float32(getattr(spec, name))
    assert getattr(replace(spec, **{name: value}), name) is value


@pytest.mark.parametrize("case", RANGED, ids=_id)
def test_value_out_of_range_names_its_field(case):
    # Messages named no field ("rates and linewidths must be positive",
    # "all resonator rates must be positive") or a phrase for it.
    spec, name, kind = case
    outside, edges, rule = _RANGES[kind]
    for value in outside:
        with pytest.raises(ValidationError, match=f"^{name} {rule}$"):
            replace(spec, **{name: value})
    for value in edges:
        assert getattr(replace(spec, **{name: value}), name) == value


def test_cross_field_rules_keep_their_messages():
    with pytest.raises(ValidationError, match="^coincidence-to-accidental ratio must exceed 1$"):
        SourceSpec(car=1.0)
    with pytest.raises(ValidationError, match="^bus coupling cannot exceed the total linewidth$"):
        DRParams(kappa_ex_ghz=3.0)
    with pytest.raises(ValidationError, match="^need 0 < linewidth < free spectral range$"):
        FilterParams(linewidth_fwhm_ghz=100.0)


@pytest.mark.parametrize("build, run", [
    (lambda: replace(CHIP, detector=DetectorSpec(integration_s=10**400)),
     lambda chip: run_hom(chip, [0.5], sample=True)),
    (lambda: replace(CHIP, dr1=replace(CHIP.dr1, fbs=FbsSpec(phase_theta=10**400))),
     lambda chip: run_fmzi(chip, [0.0, 1.0])),
    (lambda: replace(CHIP, dr1=replace(CHIP.dr1, cavity=DRParams(eo_coeff_ghz_per_v=10**400))),
     lambda chip: run_spectroscopy(chip, [-1.0, 1.0], "dr1")),
], ids=["hom-integration", "fmzi-phase", "spectroscopy-eo-coefficient"])
def test_integer_past_the_float_range_fails_when_the_spec_is_built(build, run):
    # Each spec was accepted, and the run ended in a bare OverflowError.
    with pytest.raises(ValidationError, match="must be finite$"):
        run(build())
