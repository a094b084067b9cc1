"""End-to-end experiment pipelines on the simulated processor chip.

The chip carries three microwave-driven double resonators (DR1 state
preparation, DR2 gate interference, DR3 analysis), two attenuating
microrings R1/R2, and four identical add-drop filters R3..R6 that
demultiplex the bins onto detectors.  Five prebuilt experiments
reproduce its headline measurements: resonator spectroscopy, classical
and single-photon interference in a frequency-domain Mach-Zehnder, a
Hong-Ou-Mandel sweep, controlled-phase gate truth tables, and
entanglement fringes.

Conventions, documented once here:

* A runner resolves its imperfection toggles once (`_effective`): each
  imperfection whose toggle is off takes its ideal value, and the runner
  reads only that chip.  Crosstalk alone is decided at detection.
* Each experiment's probability seam (`_fmzi`, `_hom`, `_cz`, `_bell`)
  is a pure function from the effective chip, toggles and sweep to its
  `Circuit` and exact probabilities; only it holds the stage list and
  detection.  Runners check their arguments, then sample and present.
* Every pipeline is linear optics.  A `Circuit` (`_circuit`) composes
  its elements, in order of application, to one single-photon matrix
  U[out, in], stacked over the sweep points as (n_points, n, n), and
  names its detector groups.  U acts on the chip's n bins alone, and
  its mode positions are bin indices.  Each element updates the rows of
  U on its bins and scales the others by its insertion loss.  One
  evaluator reads any circuit in closed form: a photon injected at i
  reaches mode p with probability |U[p, i]|^2, and two photons injected
  at i != j leave one photon at p and one at q != p with amplitude
  U[p, i] U[q, j] + U[q, i] U[p, j] (the 2x2 permanent, `_pair`).  The
  Fock engine and the permanent of `freqbin.fock` are the oracles the
  tests check this against.
* Element efficiency is applied as frequency-uniform insertion loss:
  an element's matrix carries sqrt(eta) on every mode it does not
  couple, so every photon picks up sqrt(eta) of that element, whether or
  not its bin is coupled.  The chip-wide efficiency is a scalar on U.
  Post-selected quantities therefore depend only on relative amplitudes,
  which is what coincidence measurements normalize away.
* Sideband leakage is insertion loss: a beam splitter's matrix on its
  bins is the bin block sqrt(eta) s C of `fbs_blocks`, and the amplitude
  it leaks to the sidebands reaches no bin again and no detector.
* Detection is one linear map through the chip's routing matrix W
  (`_routing`): its drop filters, one per bin, form a series cascade in
  ascending bin order, and each circuit reads its detectors' rows.  A
  photon reaching detector d from bin b carries the Lorentzian drop power
  W[d, b] at their frequency offset times the through power of every
  upstream filter.  Crosstalk therefore flows one way along the cascade.
  Single-photon detection probabilities are W |U[:, i]|^2.  One map
  detects every photon pair (`_coincidences`): P = W_A (M * Q) W_B^T
  routes both photons of the pair probabilities Q (|S|^2, `_pair` of
  |U|^2 for distinguishable photons, or their mix), and the mask M keeps
  one photon on group A's bins and one on group B's.  hom's reference
  alone is unmasked, W_A Q W_B^T, stated in `_hom`: with every toggle on
  it reads 0.100972 at R = 0.5, against 0.098672 masked; without
  crosstalk the two are equal.
* Sampled runs draw counts in `_sample` only: the probability p[k, c]
  of sweep point or truth-table row k and curve or outcome c becomes one
  count record with seed derive_seed(seed, k, c), a column entry of one
  `CountTable` until it is read; result.json is written from the
  columns.  The fringes of fmzi
  and bell share their series, sampling and visibilities (`_fringes`).
* Hadamard preparation and analysis use a beam splitter with T = 1/2 and
  theta = 0.  Injecting the |1> bin prepares |+>; after an analysis
  splitter, the lower-index bin detector reads "+".
* Controlled-phase encoding interleaves the qubits on four consecutive
  bins: control |0>/|1> on bins 0/2, target |0>/|1> on bins 1/3.  DR2
  couples the middle bins (target |0>, control |1>) at T = 1/3, and
  R1/R2 attenuate bins 0/3 to power 1/3.  With this map, nearest-bin
  filter crosstalk moves photons across qubit subspaces, which the
  coincidence pattern rejects; only the weaker next-nearest leakage can
  misread an outcome.  The analysis beam splitters for this encoding
  couple bins two spacings apart.
* The entanglement source emits (|f1 f4> + |f2 f3>)/sqrt(2) on bins
  f1 < f2 < f3 < f4 = 0..3: qubit A on (f1, f2) with |0> = f1, qubit B
  on (f4, f3) with |0> = f4, so |00> and |11> are energy-matched pairs
  under a single-tone continuous pump.  The swept phase rides on DR2's
  microwave phase, so the "+ +" fringe follows (1 + cos phi)/4.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .counting import (
    CountTable,
    DetectorSpec,
    MetricResult,
    SourceSpec,
    g2_histogram,
    hofmann_bound,
    indistinguishability_mix,
    sample_grid,
    truth_table_fidelity,
    visibility_hom,
    visibility_minmax,
)
from .elements import (DRParams, FbsSpec, FilterParams, dr_through_spectrum, fbs_blocks,
                       filter_response)
from .errors import ConfigurationError, DomainError, FitError, ValidationError, check_settings
from .grid import Bin, BinGrid

# ---------------------------------------------------------------------------
# Documented calibration values.  Absolute count rates and background levels
# of the modeled device are not published, so these are the recorded
# settings at which the simulator reproduces its quoted figures.

#: Coincidence-to-accidental ratio for the single-photon interferometer run.
CAR_FMZI_QUANTUM = 300.0
#: Coincidence-to-accidental ratio for the gate run with a realistic source.
CAR_CZ = 14.0
#: Coincidence-to-accidental ratio for the entanglement fringes.
CAR_BELL = 300.0
#: Source coherence (convex mixing weight) for the entanglement fringes.
BELL_SOURCE_COHERENCE = 0.97
#: Two-photon indistinguishability at which the interference dip is quoted.
HOM_INDISTINGUISHABILITY = 0.949
#: Farthest a sweep point may lie from R = 0.5 to give the dip's
#: balanced visibility.
BALANCED_TOLERANCE = 0.01

IMPERFECTION_NAMES = frozenset(
    {"eta", "sideband", "crosstalk", "car", "distinguishability"}
)
#: Interferometer modes of `run_fmzi`.
FMZI_MODES = ("classical", "quantum")
#: Gate bases of `run_cz`.
CZ_BASES = ("xz", "zx", "zz")
#: What `run_spectroscopy` scans: a double resonator or the filter bank.
SPECTROSCOPY_TARGETS = ("dr1", "dr2", "dr3", "filters")

#: Logical bin maps (grid indices 0..3 of the computational bins).
CZ_CONTROL_BINS = (0, 2)
CZ_TARGET_BINS = (1, 3)
BELL_BINS = (0, 1, 2, 3)

_SEED_MASK = (1 << 64) - 1


def _splitmix(base_seed: int, *indices):
    """splitmix64 of ``base_seed`` stepped once per index; the indices are
    uint64 scalars or arrays, which broadcast."""
    s = np.uint64(int(base_seed) & _SEED_MASK)
    with np.errstate(over="ignore"):
        for k in indices:
            s = s + np.uint64(0x9E3779B97F4A7C15) + k
            s = (s ^ (s >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            s = (s ^ (s >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            s = s ^ (s >> np.uint64(31))
    return s


def derive_seed(base_seed: int, *indices: int) -> int:
    """Stable 64-bit seed for a sweep point, independent of schedule."""
    return int(_splitmix(base_seed, *(np.uint64(int(k) & _SEED_MASK) for k in indices)))


def _grid_seeds(base_seed: int, shape: tuple[int, int]) -> np.ndarray:
    """uint64 array of derive_seed(base_seed, k, c) over a (k, c) grid."""
    return _splitmix(base_seed, *np.indices(shape, dtype=np.uint64))


@dataclass(frozen=True)
class DrConfig:
    """One double resonator: beam-splitter settings and cavity physics."""

    fbs: FbsSpec
    cavity: DRParams = DRParams()


@dataclass(frozen=True)
class ChipConfig:
    """Full chip description with the modeled device's defaults.

    ``filters`` is the setting shared by the four drop filters R3..R6.
    """

    grid: BinGrid
    dr1: DrConfig
    dr2: DrConfig
    dr3: DrConfig
    r1_transmission: float = 1.0 / 3.0
    r2_transmission: float = 1.0 / 3.0
    filters: FilterParams = FilterParams()
    global_efficiency: float = 0.69
    source: SourceSpec = SourceSpec()
    detector: DetectorSpec = DetectorSpec()

    def __post_init__(self):
        check_settings(self, unit=("r1_transmission", "r2_transmission", "global_efficiency"))
        if self.grid.computational_indices != tuple(range(max(4, self.grid.n_modes))):
            raise ValidationError("the chip's grid must be the computational bins 0..n-1, n >= 4")


def default_chip_config() -> ChipConfig:
    """Defaults mirroring the modeled device.

    Bin 0 anchors at 192.02052 THz; the four computational bins span
    three 12.95 GHz spacings.  DR2 sits at the gate splitting T = 1/3,
    DR1/DR3 at balanced splitting.
    """
    grid = BinGrid(
        tuple(Bin(i) for i in range(4)),
        bin_spacing_ghz=12.95,
        anchor_thz=192.02052,
    )

    def dr(transmissivity: float, eo_coeff_ghz_per_v: float) -> DrConfig:
        return DrConfig(FbsSpec(transmissivity_T=transmissivity, efficiency_eta=0.69),
                        DRParams(eo_coeff_ghz_per_v=eo_coeff_ghz_per_v))

    return ChipConfig(grid=grid, dr1=dr(0.5, 0.226), dr2=dr(1.0 / 3.0, 0.255), dr3=dr(0.5, 0.222))


@dataclass
class ExperimentResult:
    """Uniform container for one experiment run; its sweep is the first series column."""

    experiment: str
    sweep_name: str = field(init=False)
    sweep_values: list[float] = field(init=False)
    series: dict[str, list[float]]
    metrics: dict[str, MetricResult] = field(default_factory=dict)
    counts: CountTable | None = None  # reads as list[dict[str, CountRecord]]
    extras: dict = field(default_factory=dict)
    config_echo: ChipConfig | dict = field(default_factory=dict)  # the chip as given
    warnings: list[str] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        if not self.series:
            raise ValidationError("a result needs at least its sweep column")
        self.sweep_name, self.sweep_values = next(iter(self.series.items()))
        for name, column in self.series.items():
            if len(column) != len(self.sweep_values):
                raise ValidationError(f"series {name!r} length mismatch")

    def to_jsonable(self) -> dict:
        return _jsonable(self)

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=False, indent=2)


def _jsonable(obj):
    """Recursively convert to JSON-safe types: a dataclass becomes the dict
    of its fields, and infinities and NaN become strings."""
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, CountTable):
        return obj.to_jsonable()
    return obj


def _effective(cfg: ChipConfig, imperfections: Iterable[str]) -> tuple[frozenset[str], ChipConfig]:
    """The imperfection toggles of a run and the chip the runners evaluate:
    ``cfg`` with the setting of every imperfection whose toggle is off at
    its ideal value.  An unknown toggle is a `ConfigurationError`.  An
    ideal filter bank is no `FilterParams` value, so `_routing` takes the
    crosstalk toggle itself."""
    toggles = frozenset(imperfections)
    unknown = toggles - IMPERFECTION_NAMES
    if unknown:
        raise ConfigurationError(
            f"unknown imperfection toggles {sorted(unknown)}; "
            f"known: {sorted(IMPERFECTION_NAMES)}"
        )

    def dr(d: DrConfig) -> DrConfig:
        return replace(d, fbs=replace(
            d.fbs,
            efficiency_eta=d.fbs.efficiency_eta if "eta" in toggles else 1.0,
            sideband_suppression_db=d.fbs.sideband_suppression_db
            if "sideband" in toggles else math.inf,
        ))

    src = cfg.source
    return toggles, replace(
        cfg,
        dr1=dr(cfg.dr1),
        dr2=dr(cfg.dr2),
        dr3=dr(cfg.dr3),
        global_efficiency=cfg.global_efficiency if "eta" in toggles else 1.0,
        source=replace(
            src,
            car=src.car if "car" in toggles else math.inf,
            indistinguishability=src.indistinguishability
            if "distinguishability" in toggles else 1.0,
        ),
    )


def _sweep(
    values: Iterable[float], name: str, bounds: tuple[int, int] | None = None
) -> np.ndarray:
    """The sweep ``values`` as a new float array (a 1-D float ndarray copied
    whole), checked by the one sweep rule: at least one point, each finite
    and, where ``bounds`` are given, within them, else a `ValidationError`."""
    array = type(values) is np.ndarray and values.dtype == float and values.ndim == 1
    values = values.copy() if array else np.fromiter(values, dtype=float)
    if not values.size:
        raise ValidationError(f"{name} need at least one point")
    low, high = bounds or (-math.inf, math.inf)
    if not (np.isfinite(values).all() and ((low <= values) & (values <= high)).all()):
        raise ValidationError(
            f"{name} must lie in [{low}, {high}]" if bounds else f"{name} must be finite"
        )
    return values


# ---------------------------------------------------------------------------
# Circuits: what an experiment builds.


def _splitter(dr: DrConfig, bins: tuple[int, int], transmissivity=None, theta=None) -> tuple:
    """The beam-splitter stage of ``dr`` on ``bins`` over the settings
    that ``transmissivity`` and ``theta`` (scalars or arrays, by default
    the configured ones) broadcast to: the bins' block sqrt(eta) s C of
    `fbs_blocks`.  What it leaks to the sidebands no later stage returns
    to a bin, so it is insertion loss."""
    blocks = fbs_blocks(
        dr.fbs.transmissivity_T if transmissivity is None else transmissivity,
        dr.fbs.phase_theta if theta is None else theta,
        dr.fbs.efficiency_eta,
        dr.fbs.sideband_suppression_db,
    )
    return bins, blocks[:, :2, :2], dr.fbs.efficiency_eta


class Circuit(NamedTuple):
    """One experiment on the chip, ready for detection.

    ``u`` is the single-photon matrix U[k, out, in] of sweep point k, the
    chip-wide amplitude sqrt(global_efficiency) included, on the chip's
    n bins: its mode positions are bin indices.  Detector group A sits on
    the bins ``group_a``, group B on ``group_b``; ``weights`` holds their
    rows W[d, b] of the chip's routing matrix, A first.
    """

    u: np.ndarray
    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    weights: np.ndarray


def _circuit(
    chip: ChipConfig,
    toggles: frozenset[str],
    stages: Sequence[tuple[tuple[int, ...], np.ndarray, float]],
    group_a: tuple[int, ...],
    group_b: tuple[int, ...] = (),
) -> Circuit:
    """The circuit of ``stages``, listed in order of application.

    A stage (bins, blocks, eta) holds matrices blocks (k, m, m) over k
    settings on its m ``bins`` and the insertion loss eta on every other
    bin.  Each stage updates the rows of U, starting from the n x n
    identity: its bins' rows become blocks @ U[bins] and every other row
    takes sqrt(eta).  U is repeated over the sweep points at the first
    swept stage and ends times sqrt(global_efficiency).
    """
    u = np.eye(chip.grid.n_modes, dtype=complex)[None]
    for bins, blocks, eta in stages:
        rows = blocks @ u[:, bins]
        if len(rows) > len(u):
            u = u.repeat(len(rows), axis=0)
        u *= math.sqrt(eta)
        u[:, bins] = rows
    u *= math.sqrt(chip.global_efficiency)
    return Circuit(u, group_a, group_b,
                   _routing(chip, "crosstalk" in toggles)[[*group_a, *group_b]])


# ---------------------------------------------------------------------------
# Detection: the one evaluator of every circuit.


def _routing(chip: ChipConfig, crosstalk: bool) -> np.ndarray:
    """Routing power W[d, b] from bin b onto the detector behind the drop
    filter of bin d, over the chip's n bins.

    Without the crosstalk toggle the filter bank is ideal: the identity.
    With it, the n drop filters ``chip.filters`` sit in a series cascade
    in ascending bin order, so a detector's row depends only on the
    filters up to its own.
    """
    n = chip.grid.n_modes
    if not crosstalk:
        return np.eye(n)
    weights = np.zeros((n, n))
    for b in range(n):
        residual = 1.0
        for d in range(n):
            drop, through = filter_response(chip.filters, (b - d) * chip.grid.bin_spacing_ghz)
            weights[d, b] = residual * abs(drop) ** 2
            residual *= abs(through) ** 2
    return weights


def _pair(circuit: Circuit, i: int, j: int) -> np.ndarray:
    """Two-photon output S[k, p, q] = U[p, i] U[q, j] + U[q, i] U[p, j]
    for one photon injected at each of the distinct bins i and j.

    For p != q this is the amplitude of one photon at p and one at q (the
    2x2 permanent); S[p, p] is sqrt(2) times the amplitude of both at p,
    so sum_q |S[p, q]|^2 is the mean photon number at p with the partner
    on a bin.
    """
    outer = circuit.u[..., :, i, None] * circuit.u[..., None, :, j]
    return outer + np.swapaxes(outer, -1, -2)


def _coincidences(circuit: Circuit, q: np.ndarray) -> np.ndarray:
    """Probability P[..., x, y] that detector x of group A and detector y
    of group B both fire, for symmetric pair probabilities ``q`` over the
    chip's bins: |S|^2 of `_pair`'s amplitudes S, `_pair` of |U|^2 for
    two distinguishable photons, or a mix.  W_A and W_B route the two
    photons, P = W_A (M * Q) W_B^T.

    The one rule of every pair: the frequency demux measures bin
    occupations first, so the mask M keeps only occupations with exactly
    one photon on the group-A bins and one on the group-B bins.  Routing
    misdirection that breaks the detector-level pattern rejects the
    event; leakage that promotes a non-coincident occupation into a fake
    pattern is a background contribution left to the accidental model.
    """
    side = np.zeros(q.shape[-1])  # +1 on group A's bins, -1 on group B's
    side[[*circuit.group_a]], side[[*circuit.group_b]] = 1.0, -1.0
    mask = np.multiply.outer(side, side) < 0.0
    w_a, w_b = np.split(circuit.weights, [len(circuit.group_a)])
    return w_a @ (mask * q) @ w_b.T


def _sample(
    cfg: ChipConfig, p: np.ndarray, accidental_weight, seed: int, keys: Sequence
) -> CountTable:
    """The `CountTable` of records[k][c], keyed by keys[k][c], for the
    probabilities p[k, c] of sweep point or truth-table row k and curve or
    outcome c: seed derive_seed(seed, k, c), accidental weight w[k, c]
    (``accidental_weight`` broadcast to p)."""
    table = sample_grid(p, cfg.detector, cfg.source, _grid_seeds(seed, p.shape),
                        accidental_weight)
    table.keys = keys
    return table


def _fringes(
    chip: ChipConfig,
    phases: list[float],
    p: np.ndarray,
    names: Sequence[str],
    record_keys: Sequence[str],
    accidental_share: float,
    methods: tuple[str, str],
    sample: bool,
    seed: int,
    warnings: list[str],
) -> tuple[dict, dict[str, MetricResult], CountTable | None]:
    """Series, visibility metrics and count records of the fringe curves
    p[k, c] over ``phases``.

    Curve c is the series p_{names[c]}; sampled, it also gives count
    records keyed by record_keys[c], with accidental weight
    ``accidental_share`` times the largest probability, and the series
    counts_{names[c]}, and the visibilities are taken from the counts
    (method ``methods[1]``) instead of the probabilities
    (``methods[0]``).  A curve that is zero
    throughout has no visibility: as for an undefined gate fidelity, its
    metric and the mean are left out and a warning says why.
    """
    series = {"phase_rad": phases}
    for c, name in enumerate(names):
        series[f"p_{name}"] = p[:, c].tolist()
    counts = None
    fringes, method = p, methods[0]
    if sample:
        counts = _sample(chip, p, p.max() * accidental_share, seed, [record_keys] * len(p))
        fringes = counts.totals
        for c, name in enumerate(names):
            series[f"counts_{name}"] = fringes[:, c].tolist()
        method = methods[1]
    metrics: dict[str, MetricResult] = {}
    if len(phases) < 2:
        return series, metrics, counts
    for c, name in enumerate(names):
        if not np.any(fringes[:, c]):
            warnings.append(
                f"visibility_{name} undefined: its fringe is zero at every sweep point"
            )
        else:
            metrics[f"visibility_{name}"] = visibility_minmax(fringes[:, c])
    if len(metrics) == len(names):
        parts = list(metrics.values())
        sigma = float(np.sqrt(np.sum([m.sigma**2 for m in parts]))) / len(parts)
        metrics["visibility_avg"] = MetricResult(
            float(np.mean([m.value for m in parts])), sigma, method
        )
    return series, metrics, counts


# ---------------------------------------------------------------------------
# Mach-Zehnder interferometer in the frequency basis.


def _fmzi(
    chip: ChipConfig, toggles: frozenset[str], phases: list[float]
) -> tuple[Circuit, np.ndarray]:
    """The circuit of `run_fmzi` and p[k, c]: detector d fires for the
    photon injected at bin i, c = 2 i + d."""
    bins = (0, 1)
    circuit = _circuit(chip, toggles, [
        _splitter(chip.dr1, bins),
        ((1,), np.exp(1j * np.asarray(phases))[:, None, None], 1.0),
        _splitter(chip.dr3, bins),
    ], bins)
    p = circuit.weights @ np.abs(circuit.u[:, :, bins]) ** 2  # p[k, d, i]: W |U[:, i]|^2
    return circuit, np.swapaxes(p, 1, 2).reshape(len(phases), 4)


def run_fmzi(
    cfg: ChipConfig,
    phases: Sequence[float],
    mode: str = "classical",
    seed: int = 12345,
    imperfections: Iterable[str] = frozenset(),
) -> ExperimentResult:
    """Two balanced beam splitters with a swept phase between them.

    Light enters at bin 0 and, in a second pass, at bin 1; both output
    ports are recorded, giving four fringe curves.  ``classical`` mode
    returns normalized intensities; ``quantum`` mode samples heralded
    single-photon coincidences per phase point.
    """
    if mode not in FMZI_MODES:
        raise ConfigurationError(f"unknown interferometer mode {mode!r}")
    toggles, chip = _effective(cfg, imperfections)
    warnings = []
    for name, dr in (("dr1", chip.dr1), ("dr3", chip.dr3)):
        if abs(dr.fbs.transmissivity_T - 0.5) > 1e-9:
            warnings.append(
                f"{name} transmissivity {dr.fbs.transmissivity_T} is not balanced;"
                " fringe visibility will be reduced"
            )

    phases = _sweep(phases, "phases").tolist()
    _, p = _fmzi(chip, toggles, phases)
    names = [f"in{i}_port{d}" for i in (1, 2) for d in (1, 2)]
    series, metrics, counts_per_point = _fringes(
        chip, phases, p, names, record_keys=names, accidental_share=1.0,
        methods=("mean of four fringe curves", "mean of four sampled fringe curves"),
        sample=mode == "quantum", seed=seed, warnings=warnings,
    )

    return ExperimentResult(
        experiment="fmzi",
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={"mode": mode, "imperfections": sorted(toggles)},
        config_echo=cfg,
        warnings=warnings,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Hong-Ou-Mandel sweep.


def _hom(
    chip: ChipConfig, toggles: frozenset[str], rs: list[float]
) -> tuple[Circuit, np.ndarray]:
    """The circuit of `run_hom` and p[k, c]: the coincidence probability
    (c = 0) and its distinguishable reference (c = 1).  The reference is
    the one exception to `_coincidences`' mask: it routes every occupation
    of Q = `_pair` of |U|^2, W_A Q W_B^T, as the far-delay level does."""
    circuit = _circuit(chip, toggles, [
        _splitter(chip.dr3, (0, 1), transmissivity=1.0 - np.asarray(rs))
    ], (0,), (1,))
    q = _pair(circuit._replace(u=np.abs(circuit.u) ** 2), 0, 1)
    p_ind = _coincidences(circuit, np.abs(_pair(circuit, 0, 1)) ** 2)[:, 0, 0]
    p_dist = (circuit.weights[:1] @ q @ circuit.weights[1:].T)[:, 0, 0]
    p_cc = indistinguishability_mix(p_ind, p_dist, chip.source.indistinguishability)
    return circuit, np.stack([p_cc, p_dist], axis=1)


def run_hom(
    cfg: ChipConfig,
    reflectivities: Sequence[float],
    seed: int = 12345,
    imperfections: Iterable[str] = frozenset(),
    sample: bool = False,
) -> ExperimentResult:
    """Two-photon interference at DR3 versus its reflectivity.

    A photon pair enters on bins (0, 1); DR3 runs at T = 1 - R per sweep
    point.  The distinguishable reference routes every occupation of
    two distinguishable photons, without the coincidence post-selection
    of the observed curve, and the reported visibility per point is
    (reference - observed) / reference, matching a dip quoted against
    the far-delay coincidence level.  ``visibility_at_balanced`` is that
    visibility at the sweep point nearest R = 0.5; with no point within
    `BALANCED_TOLERANCE` of it, or, sampled, with no reference counts
    there, the metric is left out and a warning says why.
    """
    toggles, chip = _effective(cfg, imperfections)
    reflectivities = _sweep(reflectivities, "reflectivities", (0, 1)).tolist()
    _, p = _hom(chip, toggles, reflectivities)
    p_cc, p_dist = p.T
    vis = np.divide(p_dist - p_cc, p_dist, out=np.zeros_like(p_dist), where=p_dist != 0.0)
    series = {
        "reflectivity": reflectivities,
        "p_cc": p_cc.tolist(),
        "visibility": vis.tolist(),
    }
    counts_per_point = None
    if sample:
        counts_per_point = _sample(chip, p, p_dist.max(), seed,
                                   [("observed", "reference")] * len(p))
        totals = counts_per_point.totals
        series["counts_observed"], series["counts_reference"] = totals.T.tolist()

    metrics, warnings = {}, []
    half_idx = int(np.argmin(np.abs(np.asarray(reflectivities) - 0.5)))
    if abs(reflectivities[half_idx] - 0.5) > BALANCED_TOLERANCE:
        warnings.append(
            f"visibility_at_balanced undefined: no sweep point within {BALANCED_TOLERANCE}"
            f" of R = 0.5 (nearest R = {reflectivities[half_idx]:g})"
        )
    elif sample and not totals[half_idx, 1]:
        warnings.append("visibility_at_balanced undefined: no reference counts at"
                        f" R = {reflectivities[half_idx]:g}")
    elif sample:
        n_obs, n_ref = totals[half_idx].tolist()
        metrics["visibility_at_balanced"] = visibility_hom(n_ref, n_obs)
    else:
        metrics["visibility_at_balanced"] = MetricResult(
            float(vis[half_idx]), 0.0, "probability ratio")

    tau = np.linspace(-4000.0, 4000.0, 401)
    hist = g2_histogram(tau, chip.source.photon_linewidth_mhz, chip.detector.coincidence_window_ps)
    return ExperimentResult(
        experiment="hom",
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={
            "imperfections": sorted(toggles),
            "v_indist": chip.source.indistinguishability,
            "histogram_tau_ps": tau.tolist(),
            "histogram_shape": hist.tolist(),
            "p_distinguishable": p_dist.tolist(),
        },
        config_echo=cfg,
        warnings=warnings,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Controlled-phase gate.


# Input label -> (control bin, target bin) receiving its two photons, per
# basis in row order of the truth tables (control |0>/|1> on bins 0/2,
# target on bins 1/3).  A Hadamard prepares |+> from the |1> bin.
_CZ_INPUTS = {
    "xz": {"+0": (2, 1), "+1": (2, 3), "-0": (0, 1), "-1": (0, 3)},
    "zx": {"0+": (0, 3), "0-": (0, 1), "1+": (2, 3), "1-": (2, 1)},
    "zz": {"00": (0, 1), "01": (0, 3), "10": (2, 1), "11": (2, 3)},
}

# Ideal row -> column permutation per basis (phase flip on control 1,
# target 0).
_CZ_IDEAL_PERM = {
    "xz": (2, 1, 0, 3),
    "zx": (0, 1, 3, 2),
    "zz": (0, 1, 2, 3),
}


def _cz(
    chip: ChipConfig, toggles: frozenset[str], basis: str
) -> tuple[Circuit, np.ndarray, np.ndarray]:
    """The circuit of `run_cz`, its exact truth table exact[row, outcome]
    and the expected singles flux singles_rows[row, d] on each detector,
    counting events whose two photons both reach a bin.  Rows follow the
    labels of ``_CZ_INPUTS[basis]``; the outcome columns (c0 t0, c0 t1,
    c1 t0, c1 t1) share their order.  Both read Q = v |S|^2 + (1 - v) Q_dist
    at the source's overlap v; distinguishable photons add their two ways
    in probability, so Q_dist is `_pair` of |U|^2."""
    c0, c1 = CZ_CONTROL_BINS
    t0, t1 = CZ_TARGET_BINS
    stages = [
        ((c0,), np.full((1, 1, 1), math.sqrt(chip.r1_transmission)), 1.0),
        ((t1,), np.full((1, 1, 1), math.sqrt(chip.r2_transmission)), 1.0),
        _splitter(chip.dr2, (t0, c1)),
    ]
    if basis != "zz":
        h_bins = (c0, c1) if basis == "xz" else (t0, t1)
        stages = [
            _splitter(chip.dr1, h_bins, transmissivity=0.5, theta=0.0),
            *stages,
            _splitter(chip.dr3, h_bins, transmissivity=0.5, theta=0.0),
        ]
    circuit = _circuit(chip, toggles, stages, CZ_CONTROL_BINS, CZ_TARGET_BINS)
    inputs = _CZ_INPUTS[basis].values()
    power = circuit._replace(u=np.abs(circuit.u) ** 2)
    s, q_dist = (np.concatenate([_pair(c, *bins) for bins in inputs]) for c in (circuit, power))
    q = indistinguishability_mix(np.abs(s) ** 2, q_dist, chip.source.indistinguishability)
    return circuit, _coincidences(circuit, q).reshape(4, 4), q.sum(axis=-1) @ circuit.weights.T


def run_cz(
    cfg: ChipConfig,
    basis: str,
    imperfections: Iterable[str] = frozenset(),
    seed: int = 12345,
    sample: bool = False,
    allow_nonstandard: bool = False,
) -> ExperimentResult:
    """Truth table of the post-selected controlled-phase gate in one basis.

    ``xz`` prepares and measures the control in the superposition basis
    and the target in the bin basis; ``zx`` swaps the roles; ``zz`` is
    the bare computational check.  The exact outcome table (probability
    level) is always computed; with ``sample`` the table is also drawn as
    counts, including accidentals at the configured ratio.
    """
    if basis not in CZ_BASES:
        raise ConfigurationError(f"basis must be one of {CZ_BASES}")
    toggles, chip = _effective(cfg, imperfections)
    for value, setting in (
        (chip.dr2.fbs.transmissivity_T, "DR2 transmissivity 1/3"),
        (chip.r1_transmission, "r1_transmission = 1/3"),
        (chip.r2_transmission, "r2_transmission = 1/3"),
    ):
        if not allow_nonstandard and abs(value - 1.0 / 3.0) > 1e-9:
            raise ValidationError(f"gate requires {setting}; pass allow_nonstandard to override")

    _, exact, singles_rows = _cz(chip, toggles, basis)
    labels = list(_CZ_INPUTS[basis])
    ideal = np.eye(4)[list(_CZ_IDEAL_PERM[basis])]
    success = exact.sum(axis=1)

    row_sums = success[:, None]
    warnings = []
    exact_normalized = np.where(row_sums > 0.0, exact / np.where(row_sums > 0, row_sums, 1.0), 0.0)
    metrics = {
        "success_probability_max": MetricResult(float(success.max()), 0.0, "exact"),
        "success_probability_min": MetricResult(float(success.min()), 0.0, "exact"),
    }
    if np.all(row_sums > 0.0):
        metrics["fidelity"] = truth_table_fidelity(exact_normalized, ideal)
    else:
        warnings.append(
            "a truth-table row has zero acceptance probability; fidelity undefined"
        )
    counts_per_point = table_counts = None
    if sample:
        # Accidental weight per cell: the largest row success times the
        # row's normalized product of singles on the cell's two detectors.
        flux = singles_rows.sum(axis=1, keepdims=True)
        share = singles_rows / np.where(flux == 0.0, 1.0, flux)
        pair_share = (share[:, :2, None] * share[:, None, 2:]).reshape(4, 4)
        denom = pair_share.sum(axis=1, keepdims=True)
        weight = float(success.max()) * pair_share / np.where(denom == 0.0, 1.0, denom)
        counts_per_point = _sample(chip, exact, weight, seed,
                                   [[f"{row_label}->{label}" for label in labels]
                                    for row_label in labels])
        totals = counts_per_point.totals
        table_counts = totals.astype(float).tolist()
        if np.all(totals.sum(axis=1) > 0):
            metrics["fidelity_counts"] = truth_table_fidelity(totals, ideal)
        else:
            warnings.append("a sampled truth-table row is empty; fidelity undefined")

    series = {
        "input": list(range(4)),
        "success_probability": success.tolist(),
    }
    for col in range(4):
        series[f"p_out{col}"] = exact_normalized[:, col].tolist()

    return ExperimentResult(
        experiment="cz",
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={
            "basis": basis,
            "input_labels": labels,
            "outcome_labels": list(labels),
            "table_exact": exact.tolist(),
            "table_normalized": exact_normalized.tolist(),
            "table_counts": table_counts,
            "table_ideal": ideal.tolist(),
            "imperfections": sorted(toggles),
        },
        config_echo=cfg,
        warnings=warnings,
        seed=seed,
    )


def run_cz_characterization(
    cfg: ChipConfig,
    imperfections: Iterable[str] = frozenset(),
    seed: int = 12345,
    sample: bool = False,
    allow_nonstandard: bool = False,
) -> dict:
    """Both complementary truth tables plus the process-fidelity bound."""
    res_xz = run_cz(cfg, "xz", imperfections, derive_seed(seed, 1), sample, allow_nonstandard)
    res_zx = run_cz(cfg, "zx", imperfections, derive_seed(seed, 2), sample, allow_nonstandard)
    key = "fidelity_counts" if sample else "fidelity"
    for basis, res in (("xz", res_xz), ("zx", res_zx)):
        if key not in res.metrics:  # its last warning says why
            raise DomainError(f"no {key} in the {basis} basis: {res.warnings[-1]}")
    f_xz = res_xz.metrics[key].value
    f_zx = res_zx.metrics[key].value
    bound = hofmann_bound(f_xz, f_zx)
    return {
        "xz": res_xz,
        "zx": res_zx,
        "f_xz": f_xz,
        "f_zx": f_zx,
        "hofmann_bound": bound.value,
        "hofmann_clamped": bound.clamped,
    }


# ---------------------------------------------------------------------------
# Entanglement fringes.


def _bell(
    chip: ChipConfig, toggles: frozenset[str], phases: list[float]
) -> tuple[Circuit, np.ndarray]:
    """The circuit of `run_bell` and the fringe probabilities p[k, c] of
    the outcomes (f1 f3, f1 f4, f2 f3, f2 f4), for Q mixed at coherence v."""
    f1, f2, f3, f4 = BELL_BINS
    circuit = _circuit(chip, toggles, [
        _splitter(chip.dr1, (f1, f2), transmissivity=0.5, theta=0.0),
        _splitter(chip.dr2, (f3, f4), transmissivity=0.5, theta=np.asarray(phases)),
    ], (f1, f2), (f3, f4))

    # The source state (|f1 f4> + |f2 f3>) / sqrt(2) and, as the dephased
    # reference, the equal mixture of its two product components.
    s00 = _pair(circuit, f1, f4)
    s11 = _pair(circuit, f2, f3)
    q = indistinguishability_mix(np.abs((s00 + s11) / math.sqrt(2.0)) ** 2,
                                 0.5 * (np.abs(s00) ** 2 + np.abs(s11) ** 2),
                                 chip.source.indistinguishability)
    return circuit, _coincidences(circuit, q).reshape(-1, 4)


def run_bell(
    cfg: ChipConfig,
    phases: Sequence[float],
    seed: int = 12345,
    imperfections: Iterable[str] = frozenset(),
    sample: bool = False,
) -> ExperimentResult:
    """Fringe curves of the two-qubit entangled state versus the swept
    projection phase on DR2.

    Qubit A is analyzed by DR1 at a fixed balanced splitting, qubit B by
    DR2 whose microwave phase is swept; both analyzers run at T = 1/2,
    whatever transmissivity the chip configures.  Outcome labels: the
    lower-index detector of each pair reads "+".
    """
    toggles, chip = _effective(cfg, imperfections)
    warnings: list[str] = []
    phases = _sweep(phases, "phases").tolist()
    _, mixed = _bell(chip, toggles, phases)
    names = ("pp", "pm", "mp", "mm")
    series, metrics, counts_per_point = _fringes(
        chip, phases, mixed, names, record_keys=[f"p_{name}" for name in names],
        accidental_share=0.25, methods=("mean of four fringe curves",) * 2,
        sample=sample, seed=seed, warnings=warnings,
    )

    return ExperimentResult(
        experiment="bell",
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={"imperfections": sorted(toggles),
                "source_coherence": chip.source.indistinguishability},
        config_echo=cfg,
        warnings=warnings,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Spectroscopy.


def run_spectroscopy(
    cfg: ChipConfig,
    scan_ghz: Sequence[float],
    target: str = "dr1",
) -> ExperimentResult:
    """Laser-scan characterization of one resonator or the filter bank.
    Settings that take the model past the float range (a coupling of
    1e200 GHz, a filter linewidth of 1e-320 GHz) are a `DomainError`.  A
    double resonator's ``fitted_*`` metrics are the poles of `fit_doublet`."""
    if target not in SPECTROSCOPY_TARGETS:
        raise ConfigurationError(f"target must be one of {SPECTROSCOPY_TARGETS}")
    scan = _sweep(scan_ghz, "detunings")
    with np.errstate(all="ignore"):  # what leaves the float range fails the check below
        if target != "filters":
            cavity: DRParams = getattr(cfg, target).cavity
            spectra = {"transmission": dr_through_spectrum(cavity, scan)}
            metrics = {"eo_response_ghz_per_v": MetricResult(
                cavity.eo_coeff_ghz_per_v, 0.0, "configured slope")}
        else:
            drop, through = filter_response(cfg.filters, scan)
            spectra = {"drop_power": np.abs(drop) ** 2, "through_power": np.abs(through) ** 2}
            peak = abs(filter_response(cfg.filters, 0.0)[0]) ** 2  # zero only by underflow
            adjacent = abs(filter_response(cfg.filters, cfg.grid.bin_spacing_ghz)[0]) ** 2
            metrics = {
                "nearest_bin_crosstalk": MetricResult(adjacent / peak if peak else math.inf, 0.0,
                                                      "relative drop power one spacing away"),
                "drop_peak_power": MetricResult(peak, 0.0, "drop power on resonance"),
            }
    if not (all(np.isfinite(v).all() for v in spectra.values())
            and all(math.isfinite(m.value) for m in metrics.values())):
        raise DomainError(f"the {target} response leaves the float range for these settings")
    series = {"detuning_ghz": scan.tolist(), **{k: v.tolist() for k, v in spectra.items()}}
    extras: dict = {"target": target}
    warnings = []
    if target != "filters":
        from .resonator import fit_doublet  # only a fitting run loads the fit
        try:
            fit = fit_doublet(scan, spectra["transmission"])
            fitted = {"fitted_splitting_ghz": fit.splitting_ghz,
                      "fitted_linewidth1_ghz": fit.linewidths_ghz[0],
                      "fitted_linewidth2_ghz": fit.linewidths_ghz[1]}
            for name, value in fitted.items():
                metrics[name] = MetricResult(value, fit.residual_rms, "doublet fit poles")
            extras["fit"] = {**asdict(fit), "candidates": [c._asdict() for c in fit.candidates]}
            if fit.warning:
                warnings.append(f"{target} doublet fit: {fit.warning}")
        except (FitError, ValidationError) as exc:  # odd or short scans
            extras["fit_error"] = str(exc)
    return ExperimentResult(
        experiment="spectroscopy",
        series=series,
        metrics=metrics,
        extras=extras,
        config_echo=cfg,
        warnings=warnings,
    )
