"""Frequency bins and their uniform grid: the chip's modes, for the
compiled circuits and for the Fock engine (`freqbin.fock`) alike, which
is why the grid has a module of its own."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigurationError, ValidationError, check_finite

ROLE_COMPUTATIONAL = "computational"
ROLE_SIDEBAND = "sideband"
_ROLES = (ROLE_COMPUTATIONAL, ROLE_SIDEBAND)

#: Transmission window of the chip's grating couplers, THz.
GRATING_WINDOW_THZ = (190.1734, 192.6459)

#: Spectral-norm slack of the physicality check of a coupling matrix.
_NORM_TOL = 1e-9


@dataclass(frozen=True)
class Bin:
    """One frequency mode: grid index, physical role, optional label."""

    index: int
    role: str = ROLE_COMPUTATIONAL
    label: str = ""

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValidationError(f"unknown bin role {self.role!r}")


@dataclass(frozen=True)
class BinGrid:
    """Registry of frequency modes on a uniform grid.

    Bin center frequencies are ``anchor_thz + index * bin_spacing_ghz``
    (anchor optional; when set, computational bins must sit inside the
    grating-coupler window).  Mode ordering for occupation vectors is the
    order of ``bins``, which is sorted by index at construction.
    """

    bins: tuple[Bin, ...]
    bin_spacing_ghz: float = 12.95
    anchor_thz: float | None = None

    def __post_init__(self):
        if self.bin_spacing_ghz <= 0:
            raise ValidationError("bin spacing must be positive")
        ordered = tuple(sorted(self.bins, key=lambda b: b.index))
        object.__setattr__(self, "bins", ordered)
        indices = [b.index for b in ordered]
        if len(set(indices)) != len(indices):
            raise ValidationError("bin indices must be unique")
        n_comp = sum(1 for b in ordered if b.role == ROLE_COMPUTATIONAL)
        if n_comp < 2:
            raise ValidationError("a grid needs at least 2 computational bins")
        if self.anchor_thz is not None:
            lo, hi = GRATING_WINDOW_THZ
            for b in ordered:
                if b.role != ROLE_COMPUTATIONAL:
                    continue
                f = self.frequency_thz(b.index)
                if not (lo <= f <= hi):
                    raise ValidationError(
                        f"computational bin {b.index} at {f:.4f} THz is outside "
                        f"the coupler window [{lo}, {hi}] THz"
                    )
        check_finite(self)
        object.__setattr__(
            self, "_pos", {b.index: k for k, b in enumerate(ordered)}
        )

    @property
    def n_modes(self) -> int:
        return len(self.bins)

    def position(self, index: int) -> int:
        """Position of a bin index within occupation vectors."""
        try:
            return self._pos[index]
        except KeyError:
            raise ConfigurationError(f"mode index {index} is not on the grid")

    def role_indices(self, role: str) -> tuple[int, ...]:
        return tuple(b.index for b in self.bins if b.role == role)

    @property
    def computational_indices(self) -> tuple[int, ...]:
        return self.role_indices(ROLE_COMPUTATIONAL)

    def frequency_thz(self, index: int) -> float:
        if self.anchor_thz is None:
            raise ConfigurationError("grid has no absolute frequency anchor")
        return self.anchor_thz + index * self.bin_spacing_ghz * 1e-3


def grid_from_indices(
    computational: Iterable[int],
    sideband: Iterable[int] = (),
    bin_spacing_ghz: float = 12.95,
    anchor_thz: float | None = None,
) -> BinGrid:
    """Convenience constructor from per-role index lists."""
    bins = [Bin(i, ROLE_COMPUTATIONAL) for i in computational]
    bins += [Bin(i, ROLE_SIDEBAND) for i in sideband]
    return BinGrid(tuple(bins), bin_spacing_ghz=bin_spacing_ghz, anchor_thz=anchor_thz)
