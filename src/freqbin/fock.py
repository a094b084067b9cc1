"""Exact few-photon Fock states on a frequency-bin grid.

Modes are discrete frequency bins on a uniform grid.  States are sparse
complex amplitude maps over fixed-photon-number occupation vectors, and
every optical element is a complex coupling matrix acting on a subset of
modes.  The convention throughout is that a matrix ``M`` maps creation
operators as

    a_i^dag  ->  sum_j M[j, i] a_j^dag

so columns index input modes and rows index output modes, and a
single-photon amplitude vector transforms as ``out = M @ in``.

Subunitary matrices evolve states directly: the branch in which a photon
leaves the retained mode set is dropped, which is exactly the
post-selected physics when only full coincidences are counted.  No
unitary dilation is performed.

`apply_transform` evolves a state by creation-operator (monomial)
expansion, batched per photon-number sector: the state's terms are
gathered by the occupation they hold on the transform's modes, a numpy
recursion that creates one photon at a time builds the expansion column
of each distinct occupation, and one array product and `np.bincount`
scatter amplitude times coefficient onto the outputs.  Occupations are
keyed by their ascending lists of photon modes, n digits each, which fit
int64 for 4 photons on up to 55,000 modes.
A permanent-based transition amplitude (`transition_amplitude`) provides
an independent brute-force oracle for it, on a code path the engine
never calls: Ryser's formula vectorized over all column subsets,
O(n^2 2^n) numpy work for an n-photon amplitude, n <= 16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigurationError, DomainError, ValidationError

# Occupation vectors are plain tuples of per-mode photon counts, ordered
# like BinGrid.bins.
Occupation = tuple[int, ...]

ROLE_COMPUTATIONAL = "computational"
ROLE_SIDEBAND = "sideband"
_ROLES = (ROLE_COMPUTATIONAL, ROLE_SIDEBAND)

#: Transmission window of the chip's grating couplers, THz.
GRATING_WINDOW_THZ = (190.1734, 192.6459)

#: Amplitudes below this magnitude are removed from sparse maps.
AMPLITUDE_PRUNE = 1e-15

#: Photon numbers above this are outside the supported regime.
MAX_PHOTON_NUMBER = 4

_UNITARY_ATOL = 1e-9
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


class PureState:
    """Sparse pure state in a fixed photon-number sector.

    The squared norm lies in (0, 1]; it is exactly 1 after purely unitary
    evolution and may shrink after subunitary (lossy) elements.  Instances
    are treated as immutable values; operations return new states.
    """

    __slots__ = ("grid", "photon_number", "_amps")

    def __init__(
        self,
        grid: BinGrid,
        amplitudes: Mapping[Occupation, complex],
        *,
        validate: bool = True,
    ):
        if validate:
            amps: dict[Occupation, complex] = {}
            for occ, a in amplitudes.items():
                a = complex(a)
                if abs(a) < AMPLITUDE_PRUNE:
                    continue
                amps[tuple(int(c) for c in occ)] = a
        else:  # as above, a NaN amplitude is kept
            amps = {o: a for o, a in amplitudes.items() if not abs(a) < AMPLITUDE_PRUNE}
        if not amps:
            raise ValidationError("state has no amplitude above the pruning threshold")
        if validate:
            totals = {sum(occ) for occ in amps}
            if len(totals) != 1:
                raise ValidationError("occupations mix different total photon numbers")
            n = next(iter(totals))
            if n <= 0 or n > MAX_PHOTON_NUMBER:
                raise ValidationError(
                    f"photon number {n} outside supported range 1..{MAX_PHOTON_NUMBER}"
                )
            for occ in amps:
                if len(occ) != grid.n_modes:
                    raise ValidationError("occupation length does not match the grid")
                if any(c < 0 for c in occ):
                    raise ValidationError("negative photon count")
            nsq = sum(abs(a) ** 2 for a in amps.values())
            if nsq > 1.0 + 1e-9:
                raise ValidationError(f"squared norm {nsq} exceeds 1")
        self.grid = grid
        self.photon_number = sum(next(iter(amps)))
        self._amps = amps

    def items(self):
        return self._amps.items()

    def amplitude(self, occ: Occupation) -> complex:
        return self._amps.get(tuple(occ), 0.0 + 0.0j)

    def norm_squared(self) -> float:
        return float(sum(abs(a) ** 2 for a in self._amps.values()))

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        return (
            f"PureState(n={self.photon_number}, terms={len(self._amps)}, "
            f"norm2={self.norm_squared():.6f})"
        )


def fock_state(grid: BinGrid, occupations: Mapping[int, int]) -> PureState:
    """Basis state with the given photons per bin index, amplitude 1."""
    occ = [0] * grid.n_modes
    for index, count in occupations.items():
        occ[grid.position(index)] = int(count)
    return PureState(grid, {tuple(occ): 1.0 + 0.0j})


@dataclass(frozen=True, eq=False)
class ModeTransform:
    """Complex coupling matrix over an ordered subset of grid modes.

    Physicality requires spectral norm <= 1.  ``is_unitary`` is derived at
    construction (entrywise check of M^dag M against the identity).
    """

    mode_subset: tuple[int, ...]
    matrix: np.ndarray
    is_unitary: bool = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        subset = tuple(int(i) for i in self.mode_subset)
        if len(set(subset)) != len(subset):
            raise ValidationError("mode subset contains duplicates")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != len(subset):
            raise ValidationError("matrix must be square and match the mode subset")
        if np.linalg.norm(m, 2) > 1.0 + _NORM_TOL:
            raise ValidationError("matrix spectral norm exceeds 1: not physical")
        gram = m.conj().T @ m
        unitary = bool(
            np.allclose(gram, np.eye(m.shape[0]), atol=_UNITARY_ATOL, rtol=0.0)
        )
        object.__setattr__(self, "mode_subset", subset)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "is_unitary", unitary)

    @property
    def size(self) -> int:
        return len(self.mode_subset)


#: Largest n of an n x n matrix `permanent` accepts.
MAX_PERMANENT_SIZE = 16
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(MAX_PERMANENT_SIZE + 1))
# Per n: the indicator columns of the 2^n - 1 nonempty column subsets
# (n x (2^n - 1), complex so that the product with a complex matrix needs
# no cast; 16 MB at n = 16) and their signs (-1)^|S|.
_RYSER_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _factorial_product(counts: Iterable[int]) -> float:
    return math.prod(map(_FACTORIALS.__getitem__, counts))


def _ryser_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    table = _RYSER_TABLES.get(n)
    if table is None:
        members = (np.arange(1, 1 << n) >> np.arange(n)[:, None]) & 1
        signs = (-1.0) ** members.sum(axis=0)
        table = (members.astype(complex), signs.astype(complex))
        _RYSER_TABLES[n] = table
    return table


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square complex matrix, Ryser's formula.

    per(A) = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} A[i, j] over the
    nonempty column subsets S, evaluated in one pass: the row sums of every
    subset are ``A @ table`` with a cached table of subset indicator
    columns.  O(n^2 2^n) numpy work; n <= 16.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("permanent requires a square matrix")
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > MAX_PERMANENT_SIZE:
        raise DomainError(f"permanent supported up to n = {MAX_PERMANENT_SIZE}")
    members, signs = _ryser_table(n)
    return (-1.0) ** n * complex((a @ members).prod(axis=0).dot(signs))


def _comb(a: np.ndarray, k: int) -> np.ndarray:
    """Binomial coefficients C(a, k) of an integer array, exact."""
    out = np.ones_like(a)
    for i in range(k):
        out = out * (a - i)
    return out // math.factorial(k)


def _sorted_modes(occ: np.ndarray, n: int) -> np.ndarray:
    """Each row's photons as ascending mode indices, padded to ``n`` with
    the row length (a vacuum mode one past the last)."""
    rows, width = occ.shape
    padded = np.column_stack([occ, n - occ.sum(axis=1)])
    return np.repeat(np.tile(np.arange(width + 1), rows), padded.ravel()).reshape(rows, n)


def _key(modes: np.ndarray, width: int) -> np.ndarray:
    """Injective int64 key of each row of `_sorted_modes` over ``width``
    modes: its n entries as digits in base width + 1, last digit most
    significant, so rows with fewer photons (more padding) sort last.

    n digits fit int64 for 4 photons on up to 55,000 modes, where a
    base-(n+1) key of a whole occupation overflows past 27 modes."""
    n = modes.shape[1]
    if (width + 1) ** n >= 2**63:
        raise DomainError(f"{n} photons on {width} modes exceed an int64 key")
    return modes @ (width + 1) ** np.arange(n, dtype=np.int64)


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct integer keys by one sort: the index of each key's first
    entry, in ascending key order, and every entry's group number."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return order[first], ids


def _level(prev: np.ndarray, prev_lower: np.ndarray, s: int):
    """All j-photon patterns on ``s`` modes as ascending mode indices, by
    last mode, then in the order of ``prev``, the (j-1)-photon ones: those
    whose last mode is v are the first C(v + j - 1, j - 1) rows of ``prev``
    (no mode above v), each followed by v.  Also, per pattern and photon
    position, the row of ``prev`` that is the pattern less that photon
    (``prev_lower`` is the same table for ``prev``)."""
    j = prev.shape[1] + 1
    counts = _comb(np.arange(s) + j - 1, j - 1)
    last = np.repeat(np.arange(s), counts)
    head = np.arange(len(last)) - np.repeat(np.cumsum(counts) - counts, counts)
    basis = np.column_stack([prev[head], last])
    lower = np.column_stack([prev_lower[head] + _comb(last + j - 2, j - 1)[:, None], head])
    return basis, lower


def apply_transform(state: PureState, t: ModeTransform) -> PureState:
    """Evolve a state under a (sub)unitary mode transform.

    Photons on modes outside ``t.mode_subset`` are untouched.  Photon
    number is conserved within the retained mode set; for subunitary
    matrices the squared norm may decrease by the weight of branches in
    which a photon left the retained set.

    The state's terms are grouped by the occupation ``sub`` they hold on
    ``t.mode_subset`` and by its photon number k.  The expansion columns
    U|sub> of the distinct ``sub`` are built in one batched recursion over
    photon number, creating one photon at a time:

        U|p> = B_i^dag U|p - e_i> / sqrt(p_i),
        <q|B_i^dag|psi> = sum_j M[j, i] sqrt(q_j) <q - e_j|psi>,

    with i the highest mode of p, so only the columns of the patterns and
    their prefixes are built, never a whole sector.  Once the recursion
    reaches k photons, one array product gives amplitude times coefficient
    for every output of every term of sector k, and `np.bincount` sums the
    equal outputs, grouped by one sort of the untouched rest of each term.
    """
    grid = state.grid
    pos = np.array([grid.position(i) for i in t.mode_subset], dtype=np.intp)
    s = len(pos)
    # int8 keeps the temporaries small (33 kB for 2,380 terms on 14 modes);
    # a count past 127 fails the conversion, and `_key` refuses more than
    # 62 photons, so no count can wrap.
    occ = np.array(list(state._amps), dtype=np.int8)
    amps = np.fromiter(state._amps.values(), dtype=complex, count=len(state))
    n = int(occ.sum(axis=1).max())

    sub = occ[:, pos]
    k = sub.sum(axis=1)
    rest = occ.copy()
    rest[:, pos] = 0
    rest_key = _key(_sorted_modes(rest, n), grid.n_modes)
    # The distinct patterns come in descending photon number: those of at
    # least j photons are the first ones.
    sub_modes = _sorted_modes(sub, n)
    first, pattern = _group(_key(sub_modes, s))
    patterns, pattern_k = sub_modes[first], k[first]

    out: dict[Occupation, complex] = {}
    basis = lower = np.empty((1, 0), dtype=np.int64)
    col = np.ones((1, len(patterns)), dtype=complex)
    for j in range(int(pattern_k[0]) + 1):
        if j:
            # Column c becomes U applied to the first j photons of pattern c.
            # Summed over the q_m photons of mode m, 1 / sqrt(q_m) gives the
            # sqrt(q_m) of a creation operator.
            basis, lower = _level(basis, lower, s)
            weight = 1.0 / np.sqrt((basis[:, :, None] == basis[:, None, :]).sum(axis=2))
            active = np.count_nonzero(pattern_k >= j)
            mode, prev = patterns[:active, j - 1], col[:, :active]
            col = np.zeros((len(basis), active), dtype=complex)
            for r in range(j):
                coupling = t.matrix[basis[:, r, None], mode] * weight[:, r, None]
                col += coupling * prev[lower[:, r]]
            col /= np.sqrt(np.count_nonzero(patterns[:active, :j] == mode[:, None], axis=1))
        terms = np.flatnonzero(k == j)
        if not len(terms):
            continue
        # The outputs of terms with the same rest in this sector coincide,
        # and no others do.
        size = len(basis)
        contrib = col[:, pattern[terms]].T * amps[terms, None]
        rep, group = _group(rest_key[terms])
        slot = (group[:, None] * size + np.arange(size)).ravel()
        total = len(rep) * size
        summed = np.bincount(slot, contrib.real.ravel(), total) + 1j * np.bincount(
            slot, contrib.imag.ravel(), total
        )
        live = np.flatnonzero(~(np.abs(summed) < AMPLITUDE_PRUNE))
        which, q = np.divmod(live, size)
        new = rest[terms[rep[which]]]
        for r in range(j):
            new[np.arange(len(q)), pos[basis[q, r]]] += 1
        out.update(zip(zip(*new.T.tolist()), summed[live].tolist()))
    return PureState(grid, out, validate=False)


def transition_amplitude(
    t: ModeTransform, n_in: Iterable[int], n_out: Iterable[int]
) -> complex:
    """Amplitude <n_out| applied-transform |n_in> via the matrix permanent.

    Occupations are given over ``t.mode_subset`` in subset order.  The
    amplitude is per(M[n_out | n_in]) / sqrt(prod n_in! prod n_out!) with
    column i of M repeated n_in[i] times and row j repeated n_out[j]
    times.  Serves as the independent oracle for `apply_transform`.
    """
    nin = list(map(int, n_in))
    nout = list(map(int, n_out))
    if len(nin) != t.size or len(nout) != t.size:
        raise DomainError("occupation length must match the transform size")
    if min(nin + nout, default=0) < 0:
        raise DomainError("negative photon count")
    if sum(nin) != sum(nout):
        raise DomainError("photon number mismatch between input and output")
    modes = np.arange(t.size)
    per = permanent(t.matrix.take(modes.repeat(nout), 0).take(modes.repeat(nin), 1))
    return per / math.sqrt(_factorial_product(nin + nout))
