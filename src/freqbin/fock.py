"""Exact few-photon Fock states on a frequency-bin grid: the engine and
its permanent oracle, which check the compiled circuits.  No `freqbin run`
imports this module.

Modes are the bins of a `freqbin.grid.BinGrid` (re-exported here).
States are sparse complex amplitude maps over fixed-photon-number
occupation vectors, and every optical element is a complex coupling
matrix acting on a subset of modes.  The convention throughout is that
a matrix ``M`` maps creation operators as

    a_i^dag  ->  sum_j M[j, i] a_j^dag

so columns index input modes and rows index output modes, and a
single-photon amplitude vector transforms as ``out = M @ in``.

Subunitary matrices evolve states directly: the branch in which a photon
leaves the retained mode set is dropped, which is exactly the
post-selected physics when only full coincidences are counted.  No
unitary dilation is performed.

`apply_transform` evolves an n-photon state, held as arrays, as a dense
symmetric tensor over the grid modes: the element's matrix is applied
along each of the n axes, on the rows of its modes, and the outputs are
read back at the ascending mode tuples through a table cached per sector.
The tensor holds at most 2**22 entries (4 photons on up to 45 modes).
`transition_amplitude` is its independent brute-force oracle, on a code
path the engine never calls: per call one Ryser permanent (O(n^2 2^n) numpy
work over all column subsets, n <= 16) of the input's columns and the
output's rows.  Each side is validated and expanded once, then memoised:
the column block per (transform, input), 8 entries, and the output's rows
and prod n_out! per occupation, 4,096 entries (every output of 1-4 photons
on 14 modes fits).  A cyclic sweep past that bound, such as 4 photons on
20 modes (8,855 outputs), misses on every call and costs what the unmemoised
call did, about 10 us against 6 us on a hit (2-core x86_64 VM).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, ValidationError
from .grid import (GRATING_WINDOW_THZ, ROLE_COMPUTATIONAL, ROLE_SIDEBAND,  # noqa: F401
                   _NORM_TOL, Bin, BinGrid, grid_from_indices)

# Occupation vectors are plain tuples of per-mode photon counts, ordered
# like BinGrid.bins.
Occupation = tuple[int, ...]

#: Amplitudes below this magnitude are removed from sparse maps.
AMPLITUDE_PRUNE = 1e-15

#: Photon numbers above this are outside the supported regime.
MAX_PHOTON_NUMBER = 4

_UNITARY_ATOL = 1e-9


def _photon_counts(occ: Iterable, error: type[Exception]) -> tuple:
    """``occ`` as a tuple of ints, its photon positions (mode j repeated occ[j]
    times) and prod occ!; ``error`` unless every count is a whole number of
    photons.  Past MAX_PERMANENT_SIZE photons, no positions and 1.0."""
    try:
        occ = tuple(occ)
        counts = tuple(map(int, occ))
    except (TypeError, ValueError, OverflowError):
        counts = ()
    if counts != occ or min(counts, default=0) < 0:
        raise error(f"photon counts {occ} are not non-negative integers")
    positions, weight = [], 1.0
    for j, k in enumerate(counts if sum(counts) <= MAX_PERMANENT_SIZE else ()):
        if k:
            positions += [j] * k
            weight *= _FACTORIALS[k]
    return counts, positions, weight


def _mode_index(i) -> int:
    """``i`` as an int; ValidationError unless it is a whole number."""
    try:
        if int(i) == i:
            return int(i)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"mode index {i!r} is not an integer")


def _complex_matrix(matrix, error: type[Exception]) -> np.ndarray:
    """A complex copy of ``matrix``; ``error`` unless its entries are finite
    numbers (a string or None is not a number)."""
    try:
        a = np.asarray(matrix)
    except (TypeError, ValueError):  # a ragged nesting
        a = np.asarray(None)
    if a.dtype.kind not in "biufc":
        raise error("matrix entries are not all numbers")
    if not np.isfinite(a).all():
        raise error("matrix has a non-finite entry")
    return a.astype(complex)


class PureState:
    """Sparse pure state in a fixed photon-number sector; an immutable value.

    Every entry of the mapping it is built from is checked, and amplitudes
    below AMPLITUDE_PRUNE are dropped.  Its amplitudes are an array, keyed by
    that mapping or, once evolved, by its rows in its sector's `_readout`
    tables; each key is derived from the other on first use.  The squared
    norm lies in (0, 1] and falls only at subunitary (lossy) elements.
    """

    def __init__(self, grid: BinGrid, amplitudes: Mapping[Occupation, complex]):
        amps: dict[Occupation, complex] = {}
        for occ, a in amplitudes.items():
            occ = _photon_counts(occ, ValidationError)[0]
            try:  # complex() would parse the string "1"
                a = complex(a if not isinstance(a, (str, bytes)) else None)
            except (TypeError, ValueError):
                raise ValidationError(f"amplitude {a!r} is not a number") from None
            if not cmath.isfinite(a):
                raise ValidationError(f"amplitude {a} is not finite")
            if not abs(a) < AMPLITUDE_PRUNE:
                amps[occ] = a
        if not amps:
            raise ValidationError("state has no amplitude above the pruning threshold")
        totals = {sum(occ) for occ in amps}
        if len(totals) != 1:
            raise ValidationError("occupations mix different total photon numbers")
        (n,) = totals
        if not 0 < n <= MAX_PHOTON_NUMBER:
            raise ValidationError(
                f"photon number {n} outside supported range 1..{MAX_PHOTON_NUMBER}")
        if any(len(occ) != grid.n_modes for occ in amps):
            raise ValidationError("occupation length does not match the grid")
        nsq = sum(abs(a) ** 2 for a in amps.values())
        if nsq > 1.0 + 1e-9:
            raise ValidationError(f"squared norm {nsq} exceeds 1")
        self.grid = grid
        self.photon_number = n
        self._amp = np.array(list(amps.values()), dtype=complex)
        self._amps = amps

    @functools.cached_property
    def _rows(self) -> np.ndarray:
        modes = [_photon_counts(occ, ValidationError)[1] for occ in self._amps]
        return _readout(self.grid.n_modes, self.photon_number)[1][tuple(np.array(modes).T)]

    @functools.cached_property
    def _amps(self) -> dict[Occupation, complex]:
        m, n = self.grid.n_modes, self.photon_number
        modes = np.array(np.unravel_index(_readout(m, n)[0][self._rows], (m,) * n))
        occ = (modes[..., None] == np.arange(m)).sum(axis=0, dtype=np.uint8)
        return dict(zip(map(tuple, occ.tolist()), self._amp.tolist()))

    def items(self):
        return self._amps.items()

    def amplitude(self, occ: Occupation) -> complex:
        return self._amps.get(tuple(occ), 0.0 + 0.0j)

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self._amp.tolist()))

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        return (f"PureState(n={self.photon_number}, terms={len(self)}, "
                f"norm2={self.norm_squared():.6f})")


def fock_state(grid: BinGrid, occupations: Mapping[int, int]) -> PureState:
    """Basis state with the given photons per bin index, amplitude 1."""
    occ = [0] * grid.n_modes
    for index, count in occupations.items():
        occ[grid.position(index)] = count
    return PureState(grid, {tuple(occ): 1.0 + 0.0j})


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Complex coupling matrix over an ordered subset of grid modes.

    Physicality requires spectral norm <= 1.
    """

    mode_subset: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = _complex_matrix(self.matrix, ValidationError)
        m.setflags(write=False)
        try:
            subset = tuple(map(_mode_index, self.mode_subset))
        except TypeError:  # not iterable
            raise ValidationError(f"mode subset {self.mode_subset!r} is not a sequence") from None
        if len(set(subset)) != len(subset):
            raise ValidationError("mode subset contains duplicates")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(subset):
            raise ValidationError("matrix must be square and match the mode subset")
        if np.linalg.norm(m, 2) > 1.0 + _NORM_TOL:
            raise ValidationError("matrix spectral norm exceeds 1: not physical")
        object.__setattr__(self, "mode_subset", subset)
        object.__setattr__(self, "matrix", m)

    @property
    def is_unitary(self) -> bool:
        """Whether M^dag M equals the identity, entry by entry."""
        gram = self.matrix.conj().T @ self.matrix
        return bool(np.allclose(gram, np.eye(self.size), atol=_UNITARY_ATOL, rtol=0.0))

    @property
    def size(self) -> int:
        return len(self.mode_subset)


#: Largest n of an n x n matrix `permanent` accepts.
MAX_PERMANENT_SIZE = 16
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(MAX_PERMANENT_SIZE + 1))


@functools.lru_cache(maxsize=None)  # one entry per n <= MAX_PERMANENT_SIZE
def _ryser_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indicator columns of the 2^n - 1 nonempty column subsets, n x (2^n - 1)
    complex (no cast in A @ table; 16 MB at n = 16), and their signs (-1)^|S|."""
    members = (np.arange(1, 1 << n) >> np.arange(n)[:, None]) & 1
    signs = (-1.0) ** members.sum(axis=0)
    return members.astype(complex), signs.astype(complex)


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix, Ryser's formula.

    per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} A[i, j] over the
    nonempty column subsets S, evaluated in one pass: the row sums of every
    subset are ``A @ table`` with a cached table of subset indicator
    columns.  O(n^2 2^n) numpy work; n <= 16.  A non-finite entry, or a
    permanent past the float range, is a `DomainError`; a complex array's
    entries are read only when its permanent is not finite, after numpy's
    warnings for an infinity.
    """
    a = matrix
    if type(a) is not np.ndarray or a.dtype != complex:
        a = _complex_matrix(a, DomainError)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("permanent requires a square matrix")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > MAX_PERMANENT_SIZE:
        raise DomainError(f"permanent supported up to n = {MAX_PERMANENT_SIZE}")
    members, signs = _ryser_table(n)
    value = (-1.0) ** n * complex(np.multiply.reduce(a @ members, axis=0).dot(signs))
    if not cmath.isfinite(value):  # a complex array
        raise DomainError("the permanent leaves the float range" if np.isfinite(a).all()
                          else "matrix has a non-finite entry")
    return value


#: Largest state tensor `apply_transform` builds: m**n complex entries for
#: n photons on m grid modes, 64 MiB (4 photons on up to 45 modes).
MAX_TENSOR_SIZE = 2**22


@functools.lru_cache(maxsize=8)
def _readout(m: int, n: int) -> tuple[np.ndarray, ...]:
    """Shared tables (never written to) of n photons on m modes: the flat
    indices of the tensor's ascending mode tuples, each entry's int32 row
    among them, and each row's sqrt(prod occ!), a product of equal-mode runs."""
    index = np.indices((m,) * n, dtype=np.min_scalar_type(m)).reshape(n, -1)
    flat = np.flatnonzero((index[:-1] <= index[1:]).all(axis=0))
    rank = np.searchsorted(flat, np.ravel_multi_index(np.sort(index, axis=0), (m,) * n))
    runs = [(index[:k + 1, flat] == index[k, flat]).sum(axis=0) for k in range(n)]
    root = np.sqrt(np.prod(runs, axis=0, dtype=float))
    return flat, rank.astype(np.int32).reshape((m,) * n), root


def apply_transform(state: PureState, t: ModeTransform) -> PureState:
    """Evolve a state under a (sub)unitary mode transform.

    Photons on modes outside ``t.mode_subset`` are untouched.  Photon
    number is conserved within the retained mode set; for subunitary
    matrices the squared norm may decrease by the weight of branches in
    which a photon left the retained set.

    The n-photon state is the dense symmetric tensor psi over the m grid
    modes, |state> = sum psi[i_1, ..., i_n] a_{i_1}^dag ... a_{i_n}^dag |0>,
    so a term c|occ> sits at every ordering of its photon modes with value
    c sqrt(prod occ_i!) / n!.  Mapping each creation operator applies the
    grid matrix (M on the subset rows, the identity elsewhere) along each
    of the n axes, and an output occupation is read back at its ascending
    mode tuple, times n! / sqrt(prod occ_i!).  Both steps index `_readout`.
    """
    grid = state.grid
    pos = np.array([grid.position(i) for i in t.mode_subset], dtype=np.intp)
    m, n = grid.n_modes, state.photon_number
    if m**n > MAX_TENSOR_SIZE:
        raise DomainError(f"{n} photons on {m} modes exceed the state tensor "
                          f"({MAX_PHOTON_NUMBER} photons, {MAX_TENSOR_SIZE} entries)")
    flat, rank, root = _readout(m, n)
    vec = np.zeros(len(flat), dtype=complex)
    vec[state._rows] = state._amp * root[state._rows] / math.factorial(n)
    psi = vec[rank]
    # Each pass maps the leading axis and rotates it to the back, so after
    # n passes every axis is mapped and the axis order is restored.
    for _ in range(n):
        psi = psi.reshape(m, -1)
        psi[pos] = t.matrix @ psi[pos]
        psi = psi.T.copy()
    # Each output is read at its ascending mode tuple, i_1 <= ... <= i_n.
    amp = psi.ravel()[flat] * math.factorial(n) / root
    live = ~(np.abs(amp) < AMPLITUDE_PRUNE)
    if not live.any():
        raise ValidationError("state has no amplitude above the pruning threshold")
    out = PureState.__new__(PureState)
    out.grid, out.photon_number, out._rows, out._amp = grid, n, np.flatnonzero(live), amp[live]
    return out


@functools.lru_cache(maxsize=8)  # t.matrix is read-only, so t is a sound key
def _columns(t: ModeTransform, n_in: tuple) -> tuple[np.ndarray, int, float]:
    """M[:, photon positions of n_in] (clipped to M: a wrong length is refused
    later), the photon number and prod n_in!."""
    if not isinstance(t, ModeTransform):
        raise DomainError(f"transform {t!r} is not a ModeTransform")
    counts, cols, weight = _photon_counts(n_in, DomainError)
    return t.matrix.take(cols, 1, mode="clip"), sum(counts), weight


@functools.lru_cache(maxsize=4096)  # every output of 1-4 photons on 14 modes: 3,059
def _output_rows(n_out: tuple) -> tuple[tuple, int, float]:
    """The photon positions of n_out, its photon number and prod n_out!."""
    counts, rows, weight = _photon_counts(n_out, DomainError)
    return tuple(rows), sum(counts), weight


def transition_amplitude(t: ModeTransform, n_in: Iterable[int], n_out: Iterable[int]) -> complex:
    """Amplitude <n_out| applied-transform |n_in> via the matrix permanent.

    Occupations are over ``t.mode_subset`` in subset order; the amplitude
    is per(M[n_out | n_in]) / sqrt(prod n_in! prod n_out!), column i of M
    repeated n_in[i] times and row j n_out[j] times.  The independent
    oracle for `apply_transform`: one Ryser permanent per call.  The input's
    column block (`_columns`) and the output's rows and prod n_out!
    (`_output_rows`, the 4,096 most recently used occupations) are memoised,
    so each occupation is validated once per miss; an unhashable count is
    validated without the memo.
    """
    try:
        n_in, n_out = tuple(n_in), tuple(n_out)
    except TypeError:
        raise DomainError("occupations must be sequences of photon counts") from None
    try:
        cols, n, weight = _columns(t, n_in)
    except TypeError:  # an unhashable count: validate without the memo
        cols, n, weight = _columns.__wrapped__(t, n_in)
    try:
        rows, n_photons, w_out = _output_rows(n_out)
    except TypeError:
        rows, n_photons, w_out = _output_rows.__wrapped__(n_out)
    if len(n_in) != t.size or len(n_out) != len(n_in):
        raise DomainError("occupation length must match the transform size")
    if n_photons != n:
        raise DomainError("photon number mismatch between input and output")
    if n > MAX_PERMANENT_SIZE:
        raise DomainError(f"permanent supported up to n = {MAX_PERMANENT_SIZE}")
    return permanent(cols.take(rows, 0)) / math.sqrt(weight * w_out)
