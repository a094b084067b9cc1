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
* Every pipeline is linear optics.  A runner describes its experiment
  as one `Circuit` (`_circuit`): its elements, in order of application,
  compose to one single-photon matrix U[out, in] on the working grid,
  stacked over the sweep points as (n_points, n, n), and it names its
  detector groups.  One evaluator turns any circuit into outcomes in
  closed form: a photon injected at i reaches grid mode p with
  probability |U[p, i]|^2 (`_singles`), and two photons injected at
  i != j leave one photon at p and one at q != p with amplitude
  U[p, i] U[q, j] + U[q, i] U[p, j] (the 2x2 permanent, `_pair`), which
  `_coincidences` detects.  The Fock engine and the permanent of
  `freqbin.fock` are the oracles the tests check this against.
* Element efficiency is applied as frequency-uniform insertion loss:
  an element's matrix carries sqrt(eta) on every mode it does not
  couple, so every photon picks up sqrt(eta) of that element, whether or
  not its bin is coupled.  The chip-wide efficiency is a scalar on U.
  Post-selected quantities therefore depend only on relative amplitudes,
  which is what coincidence measurements normalize away.
* Each beam splitter leaks into two dedicated bookkeeping sideband
  modes appended to the working grid; leaked photons are marginalized
  at detection.
* Detection models the filter bank as a series cascade in ascending bin
  order.  A photon reaching detector d from bin b carries the Lorentzian
  drop power W[d, b] at their frequency offset times the through power
  of every upstream filter.  Crosstalk therefore flows one way along the
  cascade.  Single-photon detection probabilities are W |U[:, i]|^2;
  coincidences contract the two-photon probabilities with W on both
  photons.
* Sampled runs draw counts in `_sample` only: the probability p[k, c]
  of sweep point or truth-table row k and curve or outcome c becomes one
  count record with seed derive_seed(seed, k, c).  The fringes of fmzi
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
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

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
from .elements import FbsSpec, FilterParams, fbs_blocks, filter_response
from .errors import ConfigurationError, DomainError, FitError, ValidationError
from .fock import Bin, BinGrid
from .resonator import DRParams, dr_through_spectrum, fit_doublet

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


def derive_seed(base_seed: int, *indices: int) -> int:
    """Stable 64-bit seed for a sweep point, independent of schedule."""
    s = base_seed & _SEED_MASK
    for k in indices:
        s = (s + 0x9E3779B97F4A7C15 + (int(k) & _SEED_MASK)) & _SEED_MASK
        s = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _SEED_MASK
        s = ((s ^ (s >> 27)) * 0x94D049BB133111EB) & _SEED_MASK
        s ^= s >> 31
    return s


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
        for name in ("r1_transmission", "r2_transmission", "global_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1]")


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
    eta = 0.69
    dr1 = DrConfig(
        fbs=FbsSpec(transmissivity_T=0.5, efficiency_eta=eta),
        cavity=DRParams(eo_coeff_ghz_per_v=0.226),
    )
    dr2 = DrConfig(
        fbs=FbsSpec(transmissivity_T=1.0 / 3.0, efficiency_eta=eta),
        cavity=DRParams(eo_coeff_ghz_per_v=0.255),
    )
    dr3 = DrConfig(
        fbs=FbsSpec(transmissivity_T=0.5, efficiency_eta=eta),
        cavity=DRParams(eo_coeff_ghz_per_v=0.222),
    )
    return ChipConfig(grid=grid, dr1=dr1, dr2=dr2, dr3=dr3)


@dataclass
class ExperimentResult:
    """Uniform container for one experiment run."""

    experiment: str
    sweep_name: str
    sweep_values: list[float]
    series: dict[str, list[float]]
    metrics: dict[str, MetricResult] = field(default_factory=dict)
    counts: list[dict[str, CountRecord]] | None = None
    extras: dict = field(default_factory=dict)
    config_echo: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self):
        for name, column in self.series.items():
            if len(column) != len(self.sweep_values):
                raise ValidationError(f"series {name!r} length mismatch")

    def to_jsonable(self) -> dict:
        payload = {
            "experiment": self.experiment,
            "sweep_name": self.sweep_name,
            "sweep_values": list(self.sweep_values),
            "series": {k: list(v) for k, v in self.series.items()},
            "metrics": {k: asdict(v) for k, v in self.metrics.items()},
            "counts": None
            if self.counts is None
            else [{k: asdict(rec) for k, rec in point.items()} for point in self.counts],
            "extras": self.extras,
            "config_echo": self.config_echo,
            "warnings": list(self.warnings),
            "seed": self.seed,
        }
        return _jsonable(payload)

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=False, indent=2)


def _jsonable(obj):
    """Recursively convert to JSON-safe types; infinities become strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return repr(x)
        return x
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def config_echo(cfg: ChipConfig) -> dict:
    return _jsonable(asdict(cfg))


def _check_toggles(imperfections: Iterable[str]) -> frozenset[str]:
    toggles = frozenset(imperfections)
    unknown = toggles - IMPERFECTION_NAMES
    if unknown:
        raise ConfigurationError(
            f"unknown imperfection toggles {sorted(unknown)}; "
            f"known: {sorted(IMPERFECTION_NAMES)}"
        )
    return toggles


def _effective(cfg: ChipConfig, toggles: frozenset[str]) -> ChipConfig:
    """The chip the runners evaluate: ``cfg`` with the setting of every
    imperfection whose toggle is off at its ideal value.  An ideal filter
    bank is no `FilterParams` value, so `_detector_weights` takes the
    crosstalk toggle itself."""

    def dr(d: DrConfig) -> DrConfig:
        return replace(d, fbs=replace(
            d.fbs,
            efficiency_eta=d.fbs.efficiency_eta if "eta" in toggles else 1.0,
            sideband_suppression_db=d.fbs.sideband_suppression_db
            if "sideband" in toggles else math.inf,
        ))

    src = cfg.source
    return replace(
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


# ---------------------------------------------------------------------------
# Circuits: what an experiment builds.


def _splitter(dr: DrConfig, bins: tuple[int, int], transmissivity=None, theta=None) -> tuple:
    """The beam-splitter stage of ``dr`` on ``bins`` over the settings
    that ``transmissivity`` and ``theta`` (scalars or arrays, by default
    the configured ones) broadcast to."""
    blocks = fbs_blocks(
        dr.fbs.transmissivity_T if transmissivity is None else transmissivity,
        dr.fbs.phase_theta if theta is None else theta,
        dr.fbs.efficiency_eta,
        dr.fbs.sideband_suppression_db,
    )
    return bins, blocks, dr.fbs.efficiency_eta


@dataclass(frozen=True, eq=False)
class Circuit:
    """One experiment on the chip, ready for detection.

    ``u`` is the single-photon matrix U[k, out, in] of sweep point k on
    ``grid``, the chip-wide amplitude sqrt(global_efficiency) included.
    Detector group A sits on the bins ``group_a``, group B on
    ``group_b``; ``weights`` holds their routing rows W[d, p], A first.
    """

    grid: BinGrid
    u: np.ndarray
    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    weights: np.ndarray

    def positions(self, bins: Iterable[int]) -> list[int]:
        return [self.grid.position(b) for b in bins]


def _embed(
    grid: BinGrid, modes: Sequence[int], blocks: np.ndarray, eta: float = 1.0
) -> np.ndarray:
    """Single-photon matrices (k, n, n) of one element over k settings.

    ``blocks`` (k, m, m) acts on the grid modes ``modes``; every other
    mode picks up sqrt(eta), the element's frequency-uniform insertion
    loss.
    """
    n = grid.n_modes
    pos = np.array([grid.position(i) for i in modes])
    out = np.zeros((len(blocks), n, n), dtype=complex)
    out[:, np.arange(n), np.arange(n)] = math.sqrt(eta)
    out[:, pos[:, None], pos] = blocks
    return out


def _circuit(
    chip: ChipConfig,
    toggles: frozenset[str],
    stages: Sequence[tuple[tuple[int, ...], np.ndarray, float]],
    group_a: tuple[int, ...],
    group_b: tuple[int, ...] = (),
) -> Circuit:
    """The circuit of ``stages``, listed in order of application.

    A stage (bins, blocks, eta) holds matrices blocks (k, m, m) over k
    settings on ``bins`` and the insertion loss eta on every other mode.
    A beam splitter's blocks act on two modes more than its bins: the
    next pair of sideband modes, which the working grid appends to the
    chip's bins.  U is the product of the embedded stages, broadcast
    over sweep points, times sqrt(global_efficiency); the routing rows
    come from `_detector_weights`.
    """
    n_fbs = sum(blocks.shape[-1] > len(bins) for bins, blocks, _ in stages)
    start = max(b.index for b in chip.grid.bins) + 1
    sidebands = range(start, start + 2 * n_fbs)
    grid = replace(chip.grid, bins=chip.grid.bins + tuple(Bin(i, "sideband") for i in sidebands))
    free = iter(sidebands)
    u = None
    for bins, blocks, eta in stages:
        modes = bins if blocks.shape[-1] == len(bins) else (*bins, next(free), next(free))
        element = _embed(grid, modes, blocks, eta)
        u = element if u is None else element @ u
    weights = _detector_weights(
        grid, (*group_a, *group_b), chip.filters, "crosstalk" in toggles
    )
    return Circuit(grid, math.sqrt(chip.global_efficiency) * u, group_a, group_b, weights)


# ---------------------------------------------------------------------------
# Detection: the one evaluator of every circuit.


def _detector_weights(
    grid: BinGrid,
    det_bins: Sequence[int],
    filt: FilterParams,
    crosstalk: bool,
) -> np.ndarray:
    """Routing power W[k, p] from grid position p onto detector det_bins[k].

    Without the crosstalk toggle the filter bank is ideal: one-hot rows.
    With it, detectors sit behind their drop filters in a series cascade
    ordered by bin index, each with the drop filter ``filt``; photons in
    sideband modes are never routed.
    """
    weights = np.zeros((len(det_bins), grid.n_modes))
    row = {d: k for k, d in enumerate(det_bins)}
    if not crosstalk:
        for d, k in row.items():
            weights[k, grid.position(d)] = 1.0
        return weights
    order = sorted(det_bins)
    for b in grid.computational_indices:
        residual = 1.0
        for d in order:
            delta = (b - d) * grid.bin_spacing_ghz
            drop, through = filter_response(filt, delta)
            weights[row[d], grid.position(b)] = residual * abs(drop) ** 2
            residual *= abs(through) ** 2
    return weights


def _singles(circuit: Circuit, bins: Sequence[int]) -> np.ndarray:
    """P[k, d, i]: detector d (group A, then B) fires for one photon
    injected at bins[i], W |U[:, i]|^2."""
    return circuit.weights @ np.abs(circuit.u[:, :, circuit.positions(bins)]) ** 2


def _pair(circuit: Circuit, i: int, j: int) -> np.ndarray:
    """Two-photon output S[k, p, q] = U[p, i] U[q, j] + U[q, i] U[p, j]
    for one photon injected at each of the distinct bins i and j.

    For p != q this is the amplitude of one photon at p and one at q (the
    2x2 permanent); S[p, p] is sqrt(2) times the amplitude of both at p,
    so the mean photon number at p is sum_q |S[p, q]|^2.
    """
    i, j = circuit.positions((i, j))
    outer = circuit.u[..., :, i, None] * circuit.u[..., None, :, j]
    return outer + np.swapaxes(outer, -1, -2)


def _coincidences(circuit: Circuit, s: np.ndarray) -> np.ndarray:
    """Probability P[..., x, y] that detector x of group A and detector y
    of group B both fire, for two-photon amplitudes ``s`` (`_pair`).

    The frequency demux measures bin occupations first, so only
    occupations with exactly one photon on the group-A bins and one on
    the group-B bins are routed onto detectors, with routing rows W:

        P[x, y] = sum_ab |S[a, b]|^2 (W[x, a] W[y, b] + W[y, a] W[x, b])

    Routing misdirection that breaks the detector-level pattern rejects
    the event; leakage that promotes a non-coincident occupation into a
    fake pattern is a background contribution left to the accidental
    model.
    """
    pos_a = circuit.positions(circuit.group_a)
    pos_b = circuit.positions(circuit.group_b)
    w_a, w_b = np.split(circuit.weights, [len(pos_a)])
    q = np.abs(s[..., pos_a, :][..., pos_b]) ** 2
    return (
        w_a[:, pos_a] @ q @ w_b[:, pos_b].T
        + w_a[:, pos_b] @ np.swapaxes(q, -1, -2) @ w_b[:, pos_a].T
    )


def _sample(
    cfg: ChipConfig, p: np.ndarray, accidental_weight, seed: int
) -> tuple[list[list[CountRecord]], np.ndarray]:
    """Count records[k][c] for the detection probabilities p[k, c] of
    sweep point or truth-table row k and curve or outcome c, each drawn
    with seed derive_seed(seed, k, c) and accidental weight w[k, c]
    (``accidental_weight`` broadcast to p), plus the int array of their
    total coincidences."""
    w = np.broadcast_to(accidental_weight, p.shape).tolist()
    records = [
        [
            sample_counts(p_kc, cfg.detector, cfg.source, derive_seed(seed, k, c),
                          accidental_weight=w_kc)
            for c, (p_kc, w_kc) in enumerate(zip(p_k, w_k))
        ]
        for k, (p_k, w_k) in enumerate(zip(p.tolist(), w))
    ]
    totals = [[rec.total_coincidences for rec in row] for row in records]
    return records, np.array(totals, dtype=int).reshape(p.shape)


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
) -> tuple[dict, dict[str, MetricResult], list[dict[str, CountRecord]] | None]:
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
        records, fringes = _sample(chip, p, p.max() * accidental_share, seed)
        counts = [dict(zip(record_keys, row)) for row in records]
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


def run_fmzi(
    cfg: ChipConfig,
    phases: Sequence[float],
    mode: str = "classical",
    seed: int = 12345,
    imperfections: Iterable[str] = frozenset(),
    sample: bool | None = None,
) -> ExperimentResult:
    """Two balanced beam splitters with a swept phase between them.

    Light enters at bin 0 and, in a second pass, at bin 1; both output
    ports are recorded, giving four fringe curves.  ``classical`` mode
    returns normalized intensities; ``quantum`` mode samples heralded
    single-photon coincidences per phase point.
    """
    if mode not in FMZI_MODES:
        raise ConfigurationError(f"unknown interferometer mode {mode!r}")
    toggles = _check_toggles(imperfections)
    chip = _effective(cfg, toggles)
    if sample is None:
        sample = mode == "quantum"
    warnings = []
    for name, dr in (("dr1", chip.dr1), ("dr3", chip.dr3)):
        if abs(dr.fbs.transmissivity_T - 0.5) > 1e-9:
            warnings.append(
                f"{name} transmissivity {dr.fbs.transmissivity_T} is not balanced;"
                " fringe visibility will be reduced"
            )

    phases = [float(p) for p in phases]
    if not all(math.isfinite(p) for p in phases):
        raise ValidationError("phases must be finite")
    bins = (0, 1)
    circuit = _circuit(chip, toggles, [
        _splitter(chip.dr1, bins),
        ((1,), np.exp(1j * np.asarray(phases))[:, None, None], 1.0),
        _splitter(chip.dr3, bins),
    ], bins)
    # p[k, c]: detector d fires for the photon injected at bin i, c = 2 i + d.
    p = np.swapaxes(_singles(circuit, bins), 1, 2).reshape(len(phases), 4)
    names = [f"in{i + 1}_port{d + 1}" for i in bins for d in bins]
    series, metrics, counts_per_point = _fringes(
        chip, phases, p, names, record_keys=names, accidental_share=1.0,
        methods=("mean of four fringe curves", "mean of four sampled fringe curves"),
        sample=sample, seed=seed, warnings=warnings,
    )

    return ExperimentResult(
        experiment="fmzi",
        sweep_name="phase_rad",
        sweep_values=phases,
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={"mode": mode, "imperfections": sorted(toggles)},
        config_echo=config_echo(cfg),
        warnings=warnings,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Hong-Ou-Mandel sweep.


def run_hom(
    cfg: ChipConfig,
    reflectivities: Sequence[float],
    seed: int = 12345,
    imperfections: Iterable[str] = frozenset(),
    sample: bool = False,
) -> ExperimentResult:
    """Two-photon interference at DR3 versus its reflectivity.

    A photon pair enters on bins (0, 1); DR3 runs at T = 1 - R per sweep
    point.  The distinguishable reference is computed by routing each
    photon independently, and the reported visibility per point is
    (reference - observed) / reference, matching a dip quoted against
    the far-delay coincidence level.
    """
    toggles = _check_toggles(imperfections)
    chip = _effective(cfg, toggles)
    v_indist = chip.source.indistinguishability

    reflectivities = [float(r) for r in reflectivities]
    rs = np.asarray(reflectivities)
    if not np.all((rs >= 0.0) & (rs <= 1.0)):
        raise ValidationError("reflectivities must lie in [0, 1]")
    circuit = _circuit(chip, toggles, [_splitter(chip.dr3, (0, 1), transmissivity=1.0 - rs)],
                       (0,), (1,))
    p_ind = _coincidences(circuit, _pair(circuit, 0, 1))[:, 0, 0]
    # Distinguishable photons: independent single-photon routing,
    # marg[k, d, i] for the photon injected at bin i.
    marg = _singles(circuit, (0, 1))
    p_dist = marg[:, 0, 0] * marg[:, 1, 1] + marg[:, 1, 0] * marg[:, 0, 1]
    p_cc = indistinguishability_mix(p_ind, p_dist, v_indist)
    vis = np.divide(p_dist - p_cc, p_dist, out=np.zeros_like(p_dist), where=p_dist != 0.0)
    p_cc_col, p_dist_col, vis_col = p_cc.tolist(), p_dist.tolist(), vis.tolist()

    series = {
        "reflectivity": reflectivities,
        "p_cc": p_cc_col,
        "visibility": vis_col,
    }
    metrics: dict[str, MetricResult] = {}
    counts_per_point: list[dict[str, CountRecord]] | None = None

    half_idx = int(np.argmin(np.abs(np.asarray(reflectivities) - 0.5)))
    if sample:
        records, totals = _sample(chip, np.stack([p_cc, p_dist], axis=1), p_dist.max(), seed)
        counts_per_point = [dict(zip(("observed", "reference"), row)) for row in records]
        series["counts_observed"], series["counts_reference"] = totals.T.tolist()
        n_obs, n_ref = totals[half_idx].tolist()
        metrics["visibility_at_balanced"] = (
            visibility_hom(n_ref, n_obs) if n_ref > 0
            else MetricResult(0.0, 0.0, "empty reference")
        )
    else:
        metrics["visibility_at_balanced"] = MetricResult(
            vis_col[half_idx], 0.0, "probability ratio"
        )

    tau = np.linspace(-4000.0, 4000.0, 401)
    hist = g2_histogram(tau, chip.source.photon_linewidth_mhz, chip.detector.coincidence_window_ps)
    return ExperimentResult(
        experiment="hom",
        sweep_name="reflectivity",
        sweep_values=reflectivities,
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={
            "imperfections": sorted(toggles),
            "v_indist": v_indist,
            "histogram_tau_ps": tau.tolist(),
            "histogram_shape": hist.tolist(),
            "p_distinguishable": p_dist_col,
        },
        config_echo=config_echo(cfg),
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


def cz_ideal_table(basis: str) -> np.ndarray:
    table = np.zeros((4, 4))
    for row, col in enumerate(_CZ_IDEAL_PERM[basis]):
        table[row, col] = 1.0
    return table


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
    toggles = _check_toggles(imperfections)
    chip = _effective(cfg, toggles)
    if not allow_nonstandard:
        if abs(chip.dr2.fbs.transmissivity_T - 1.0 / 3.0) > 1e-9:
            raise ValidationError(
                "gate requires DR2 transmissivity 1/3; pass allow_nonstandard to override"
            )
        for name, value in (
            ("r1_transmission", chip.r1_transmission),
            ("r2_transmission", chip.r2_transmission),
        ):
            if abs(value - 1.0 / 3.0) > 1e-9:
                raise ValidationError(
                    f"gate requires {name} = 1/3; pass allow_nonstandard to override"
                )

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

    inputs = _CZ_INPUTS[basis]
    labels = list(inputs)
    s = np.concatenate([_pair(circuit, *bins) for bins in inputs.values()])
    # Outcome columns (c0 t0, c0 t1, c1 t0, c1 t1) share their order with
    # the input labels.
    exact = _coincidences(circuit, s).reshape(4, 4)
    success = exact.sum(axis=1)
    # Expected singles flux per detector and input row over the full state.
    singles_rows = (np.abs(s) ** 2).sum(axis=-1) @ circuit.weights.T

    row_sums = success[:, None]
    warnings = []
    exact_normalized = np.where(row_sums > 0.0, exact / np.where(row_sums > 0, row_sums, 1.0), 0.0)
    metrics = {
        "success_probability_max": MetricResult(float(success.max()), 0.0, "exact"),
        "success_probability_min": MetricResult(float(success.min()), 0.0, "exact"),
    }
    if np.all(row_sums > 0.0):
        metrics["fidelity"] = truth_table_fidelity(
            exact_normalized, cz_ideal_table(basis)
        )
    else:
        warnings.append(
            "a truth-table row has zero acceptance probability; fidelity undefined"
        )
    counts_per_point: list[dict[str, CountRecord]] | None = None
    counts_table = None
    if sample:
        # Accidental weight per cell: the largest row success times the
        # row's normalized product of singles on the cell's two detectors.
        flux = singles_rows.sum(axis=1, keepdims=True)
        share = singles_rows / np.where(flux == 0.0, 1.0, flux)
        pair_share = (share[:, :2, None] * share[:, None, 2:]).reshape(4, 4)
        denom = pair_share.sum(axis=1, keepdims=True)
        weight = float(success.max()) * pair_share / np.where(denom == 0.0, 1.0, denom)
        records, totals = _sample(chip, exact, weight, seed)
        counts_table = totals.astype(float)
        counts_per_point = [
            {f"{row_label}->{label}": rec for label, rec in zip(labels, row)}
            for row_label, row in zip(labels, records)
        ]
        if np.all(counts_table.sum(axis=1) > 0):
            metrics["fidelity_counts"] = truth_table_fidelity(
                counts_table, cz_ideal_table(basis)
            )
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
        sweep_name="input",
        sweep_values=list(range(4)),
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={
            "basis": basis,
            "input_labels": labels,
            "outcome_labels": list(labels),
            "table_exact": exact.tolist(),
            "table_normalized": exact_normalized.tolist(),
            "table_counts": None if counts_table is None else counts_table.tolist(),
            "table_ideal": cz_ideal_table(basis).tolist(),
            "imperfections": sorted(toggles),
        },
        config_echo=config_echo(cfg),
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
    toggles = _check_toggles(imperfections)
    chip = _effective(cfg, toggles)
    warnings: list[str] = []
    f1, f2, f3, f4 = BELL_BINS
    phases = [float(p) for p in phases]
    circuit = _circuit(chip, toggles, [
        _splitter(chip.dr1, (f1, f2), transmissivity=0.5, theta=0.0),
        _splitter(chip.dr2, (f3, f4), transmissivity=0.5, theta=np.asarray(phases)),
    ], (f1, f2), (f3, f4))

    def detect(s: np.ndarray) -> np.ndarray:
        # Outcomes (f1 f3, f1 f4, f2 f3, f2 f4) in the order of the curves.
        return _coincidences(circuit, s).reshape(-1, 4)

    # The source state (|f1 f4> + |f2 f3>) / sqrt(2) and, as the dephased
    # reference, the equal mixture of its two product components.
    v = chip.source.indistinguishability
    s00 = _pair(circuit, f1, f4)
    s11 = _pair(circuit, f2, f3)
    coherent = detect((s00 + s11) / math.sqrt(2.0))
    incoherent = 0.5 * (detect(s00) + detect(s11))
    mixed = indistinguishability_mix(coherent, incoherent, v)
    names = ("pp", "pm", "mp", "mm")
    series, metrics, counts_per_point = _fringes(
        chip, phases, mixed, names, record_keys=[f"p_{name}" for name in names],
        accidental_share=0.25, methods=("mean of four fringe curves",) * 2,
        sample=sample, seed=seed, warnings=warnings,
    )

    return ExperimentResult(
        experiment="bell",
        sweep_name="phase_rad",
        sweep_values=phases,
        series=series,
        metrics=metrics,
        counts=counts_per_point,
        extras={"imperfections": sorted(toggles), "source_coherence": v},
        config_echo=config_echo(cfg),
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
    """Laser-scan characterization of one resonator or the filter bank."""
    if target not in SPECTROSCOPY_TARGETS:
        raise ConfigurationError(f"target must be one of {SPECTROSCOPY_TARGETS}")
    scan = np.asarray(list(scan_ghz), dtype=float)
    if target != "filters":
        cavity: DRParams = getattr(cfg, target).cavity
        transmission = dr_through_spectrum(cavity, scan)
        series = {
            "detuning_ghz": scan.tolist(),
            "transmission": transmission.tolist(),
        }
        metrics: dict[str, MetricResult] = {
            "eo_response_ghz_per_v": MetricResult(
                cavity.eo_coeff_ghz_per_v, 0.0, "configured slope"
            )
        }
        extras: dict = {"target": target}
        try:
            fit = fit_doublet(scan, transmission)
            metrics["fitted_splitting_ghz"] = MetricResult(
                fit.two_g_ghz, fit.residual_rms, "doublet fit"
            )
            metrics["fitted_linewidth1_ghz"] = MetricResult(
                fit.linewidths_ghz[0], fit.residual_rms, "doublet fit"
            )
            metrics["fitted_linewidth2_ghz"] = MetricResult(
                fit.linewidths_ghz[1], fit.residual_rms, "doublet fit"
            )
            extras["fit"] = asdict(fit)
        except (FitError, ValidationError) as exc:  # odd or short scans
            extras["fit_error"] = str(exc)
        return ExperimentResult(
            experiment="spectroscopy",
            sweep_name="detuning_ghz",
            sweep_values=scan.tolist(),
            series=series,
            metrics=metrics,
            extras=extras,
            config_echo=config_echo(cfg),
        )
    drop, through = filter_response(cfg.filters, scan)
    drop_peak, _ = filter_response(cfg.filters, 0.0)
    drop_adjacent, _ = filter_response(cfg.filters, cfg.grid.bin_spacing_ghz)
    crosstalk = abs(drop_adjacent) ** 2 / abs(drop_peak) ** 2
    series = {
        "detuning_ghz": scan.tolist(),
        "drop_power": (np.abs(drop) ** 2).tolist(),
        "through_power": (np.abs(through) ** 2).tolist(),
    }
    metrics = {
        "nearest_bin_crosstalk": MetricResult(
            float(crosstalk), 0.0, "relative drop power one spacing away"
        ),
        "drop_peak_power": MetricResult(
            float(abs(drop_peak) ** 2), 0.0, "drop power on resonance"
        ),
    }
    return ExperimentResult(
        experiment="spectroscopy",
        sweep_name="detuning_ghz",
        sweep_values=scan.tolist(),
        series=series,
        metrics=metrics,
        extras={"target": target},
        config_echo=config_echo(cfg),
    )
