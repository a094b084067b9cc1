"""Fock-engine tests: element examples, permanent oracle, invariants."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbin import fock
from freqbin.errors import ConfigurationError, DomainError, ValidationError
from freqbin.fock import (
    AMPLITUDE_PRUNE,
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

RNG = np.random.default_rng(20240811)


def beam_splitter(transmissivity, theta=0.0):
    t = math.sqrt(transmissivity)
    r = math.sqrt(1.0 - transmissivity)
    return np.array(
        [[t, np.exp(1j * theta) * r], [-np.exp(-1j * theta) * r, t]], dtype=complex
    )


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def occupations(n_modes, n_photons):
    for combo in itertools.combinations_with_replacement(range(n_modes), n_photons):
        occ = [0] * n_modes
        for m in combo:
            occ[m] += 1
        yield tuple(occ)


def state_keys(state):
    return [occ for occ, _ in state.items()]


def brute_force_permanent(a):
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= a[i, j]
        total += prod
    return total


class TestGrid:
    def test_frequencies_and_positions(self):
        grid = grid_from_indices([0, 1, 2, 3], anchor_thz=192.02052)
        assert grid.frequency_thz(1) == pytest.approx(192.03347)
        assert grid.position(2) == 2
        assert grid.computational_indices == (0, 1, 2, 3)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValidationError):
            BinGrid((Bin(0), Bin(0)))

    def test_needs_two_computational_bins(self):
        with pytest.raises(ValidationError):
            BinGrid((Bin(0), Bin(1, "sideband")))

    def test_coupler_window_enforced(self):
        with pytest.raises(ValidationError):
            grid_from_indices([0, 1], anchor_thz=199.0)
        grid_from_indices([0, 1], anchor_thz=190.2)  # inside, fine

    def test_unknown_mode(self):
        grid = grid_from_indices([0, 1])
        with pytest.raises(ConfigurationError):
            grid.position(5)


class TestApplyTransform:
    def test_identity_returns_same_state(self):
        grid = grid_from_indices([0, 1, 2])
        state = PureState(grid, {(1, 1, 0): 0.6, (0, 1, 1): 0.8})
        ident = ModeTransform((0, 1, 2), np.eye(3))
        out = apply_transform(state, ident)
        for occ, amp in state.items():
            assert out.amplitude(occ) == pytest.approx(amp)

    def test_balanced_hom_null(self):
        grid = grid_from_indices([0, 1])
        bs = ModeTransform((0, 1), beam_splitter(0.5))
        out = apply_transform(fock_state(grid, {0: 1, 1: 1}), bs)
        assert out.amplitude((1, 1)) == 0.0
        # The exactly cancelling term is pruned, not kept as a zero.
        assert sorted(state_keys(out)) == [(0, 2), (2, 0)]

    def test_one_third_splitting_survival(self):
        # Oracle: permanent of the repeated-column matrix, and the closed
        # form T - R = -1/3.
        grid = grid_from_indices([0, 1])
        bs = ModeTransform((0, 1), beam_splitter(1.0 / 3.0))
        out = apply_transform(fock_state(grid, {0: 1, 1: 1}), bs)
        amp = out.amplitude((1, 1))
        oracle = transition_amplitude(bs, (1, 1), (1, 1))
        assert amp == pytest.approx(oracle, abs=1e-12)
        assert amp == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert abs(amp) ** 2 == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_mode_not_on_grid(self):
        grid = grid_from_indices([0, 1])
        state = fock_state(grid, {0: 1})
        with pytest.raises(ConfigurationError):
            apply_transform(state, ModeTransform((0, 7), np.eye(2)))

    def test_unphysical_matrix_rejected(self):
        with pytest.raises(ValidationError):
            ModeTransform((0, 1), 1.2 * np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_matrix_rejected(self, bad):
        # Checked before the spectral norm, whose SVD fails on a NaN and
        # warns on an inf.
        matrix = 0.5 * np.eye(2, dtype=complex)
        matrix[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            ModeTransform((0, 1), matrix)

    def test_wide_grid_blocks_past_mode_27(self):
        # A base-5 key of a 40-mode, 4-photon occupation needs 5^40 > 2^64;
        # the outputs of the first block put up to 4 photons on modes
        # 28-39, and the second block leaves rests there, two of which
        # differ only below mode 17, where a float64 key would round them
        # together.
        n_modes = 40
        grid = grid_from_indices(range(n_modes))
        rng = np.random.default_rng(27)
        terms = {}
        for spots in ([39, 39, 39, 39], [28, 31, 36, 39], [2, 30, 33, 39],
                      [5, 9, 29, 38], [0, 1, 3, 35], [7, 7, 12, 20],
                      [3, 5, 39, 39], [4, 5, 39, 39]):
            occ = [0] * n_modes
            for m in spots:
                occ[m] += 1
            terms[tuple(occ)] = complex(*rng.normal(size=2))
        norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
        state = PureState(grid, {o: a / norm for o, a in terms.items()})
        for subset in ((39, 28, 33, 36, 31, 30), (5, 0, 9, 2, 12, 27)):
            block = haar_unitary(len(subset), rng) * math.sqrt(0.9)
            out = apply_transform(state, ModeTransform(subset, block))
            full = np.eye(n_modes, dtype=complex)
            full[np.ix_(subset, subset)] = block
            oracle = ModeTransform(tuple(range(n_modes)), full)
            reachable = set()
            for occ in state_keys(state):
                rest = [0 if m in subset else c for m, c in enumerate(occ)]
                for sub in occupations(len(subset), sum(occ[m] for m in subset)):
                    new = list(rest)
                    for m, c in zip(subset, sub):
                        new[m] += c
                    reachable.add(tuple(new))
            assert set(state_keys(out)) <= reachable
            for occ_out in reachable:
                expected = sum(amp * transition_amplitude(oracle, occ_in, occ_out)
                               for occ_in, amp in state.items())
                assert abs(out.amplitude(occ_out) - expected) < 1e-10

    def test_state_tensor_past_its_size_limit_is_refused_before_allocation(self):
        # 4 photons need n_modes**4 tensor entries: 45 modes fit the
        # limit, 46 do not (a 72 MB tensor), and 60,000 would need 2e20.
        assert 45**4 <= fock.MAX_TENSOR_SIZE < 46**4
        for n_modes in (46, 60_000):
            grid = grid_from_indices(range(n_modes))
            state = fock_state(grid, {0: 1, n_modes - 1: 3})
            tracemalloc.start()
            try:
                with pytest.raises(DomainError, match="state tensor"):
                    apply_transform(state, ModeTransform((0, 1), np.eye(2)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_readout_tables_stay_within_twice_the_state_tensor(self):
        # A sector's cached tables hold indices and weights, not a
        # (terms, modes) occupation table, which on a wide grid with few
        # photons outgrows the tensor itself.
        grid = grid_from_indices(range(256))
        state = fock_state(grid, {3: 1, 250: 1})
        out = apply_transform(state, ModeTransform((3, 7, 250), haar_unitary(3, RNG) * 0.9))
        tables = fock._readout(256, 2)
        assert sum(a.nbytes for a in tables) <= 2 * 256**2 * np.dtype(complex).itemsize
        for occ, _ in out.items():
            assert sum(occ) == 2 and set(occ) <= {0, 1, 2} and len(occ) == 256
        assert len(out) == 6

    @pytest.mark.parametrize("m, n", [(1, 3), (5, 4), (14, 2), (14, 4)])
    def test_readout_weights_are_the_factorial_products(self, m, n):
        # The ascending mode tuples in order, each with sqrt(prod occ!).
        flat, _, root = fock._readout(m, n)
        combos = list(itertools.combinations_with_replacement(range(m), n))
        assert flat.tolist() == [np.ravel_multi_index(c, (m,) * n) for c in combos]
        assert root.tolist() == [math.sqrt(math.prod(math.factorial(c.count(j)) for j in set(c)))
                                 for c in combos]

    def test_subunitary_norm_decreases(self):
        grid = grid_from_indices([0, 1])
        att = ModeTransform((0,), np.array([[math.sqrt(0.5)]]))
        out = apply_transform(fock_state(grid, {0: 1, 1: 1}), att)
        assert out.norm_squared() == pytest.approx(0.5)
        assert repr(out) == "PureState(n=2, terms=1, norm2=0.500000)"


def test_engine_never_calls_the_oracle(monkeypatch):
    # The permanent checks the engine, so the engine must not use it.
    grid = grid_from_indices(range(5))
    rng = np.random.default_rng(11)
    t = ModeTransform((3, 0, 4, 1), haar_unitary(4, rng) * math.sqrt(0.8))
    state = PureState(grid, {(1, 0, 2, 0, 1): 0.6, (0, 1, 0, 2, 1): 0.8j})
    embed = np.eye(5, dtype=complex)
    embed[np.ix_(t.mode_subset, t.mode_subset)] = t.matrix
    oracle = ModeTransform(tuple(range(5)), embed)
    expected = {occ: sum(amp * transition_amplitude(oracle, occ_in, occ)
                         for occ_in, amp in state.items())
                for occ in occupations(5, 4)}

    def refuse(*args, **kwargs):
        raise AssertionError("the engine called its oracle")

    monkeypatch.setattr(fock, "permanent", refuse)
    monkeypatch.setattr(fock, "transition_amplitude", refuse)
    out = fock.apply_transform(state, t)
    for occ, amp in expected.items():
        assert abs(out.amplitude(occ) - amp) < 1e-12


class TestPermanentOracle:
    def test_permanent_against_brute_force(self):
        for n in range(1, 6):
            a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
            assert permanent(a) == pytest.approx(brute_force_permanent(a), rel=1e-10)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_ones_gives_factorial(self, n):
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_phased_permutation_gives_product_of_phases(self, n):
        rng = np.random.default_rng(n)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
        a = np.zeros((n, n), dtype=complex)
        a[np.arange(n), rng.permutation(n)] = phases
        assert abs(permanent(a) - np.prod(phases)) < 1e-12

    def test_size_limit(self):
        a = RNG.normal(size=(16, 16)) / 4.0
        assert np.isfinite(permanent(a))
        with pytest.raises(DomainError):
            permanent(np.eye(17))
        with pytest.raises(DomainError):
            permanent(np.ones((2, 3)))
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_numeric_matrices_of_every_kind_are_accepted(self):
        # Only input that is not already a complex array is checked for
        # numbers, and it reads as the complex array of its values.
        values = [[1, 0], [2, 3]]
        for matrix in [values, [[True, False], [True, True]], np.array(values, dtype=np.int8),
                       np.array(values, dtype=np.float32), np.array(values, dtype=np.complex64),
                       [[1 + 0j, 0.0], [2, np.float64(3)]]]:
            assert permanent(matrix) == permanent(np.asarray(matrix, dtype=complex))
            assert ModeTransform((0, 1), np.asarray(matrix) / 4).matrix.dtype == complex

    def test_identity_diagonal_transition(self):
        ident = ModeTransform((0, 1, 2), np.eye(3))
        assert transition_amplitude(ident, (2, 1, 0), (2, 1, 0)) == pytest.approx(1.0)

    def test_balanced_bunching_amplitude(self):
        # Hand expansion of (a0+a1)(a0-a1)/2 applied to two photons gives
        # sqrt(2) t r = 1/sqrt(2) into the (2, 0) pattern.
        bs = ModeTransform((0, 1), beam_splitter(0.5))
        amp = transition_amplitude(bs, (1, 1), (2, 0))
        assert amp == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert abs(amp) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert transition_amplitude(bs, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("count", [10**30, 2**63])
    def test_huge_photon_counts_are_refused_before_allocation(self, count):
        # The same refusal as 17 photons, before a matrix of count rows
        # (or a position list of count entries) is built.
        bs = ModeTransform((0, 1), beam_splitter(0.5))
        for n_in, n_out in [((count, 0), (count, 0)), ((count, 0), (0, count)),
                            ((17, 0), (0, 17))]:
            with pytest.raises(DomainError, match="permanent supported up to n = 16"):
                transition_amplitude(bs, n_in, n_out)

    def test_photon_number_mismatch(self):
        bs = ModeTransform((0, 1), beam_splitter(0.5))
        with pytest.raises(DomainError):
            transition_amplitude(bs, (1, 1), (1, 0))


class TestInvariants:
    def test_unitary_norm_conservation(self):
        # Haar-sampled unitaries on random 1..3 photon states.
        for trial in range(30):
            rng = np.random.default_rng(1000 + trial)
            m = rng.integers(2, 6)
            n = rng.integers(1, 4)
            grid = grid_from_indices(list(range(m)))
            keys = list(occupations(m, n))
            amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
            amps /= np.linalg.norm(amps)
            state = PureState(grid, dict(zip(keys, amps)))
            u = ModeTransform(tuple(range(m)), haar_unitary(m, rng))
            assert u.is_unitary
            out = apply_transform(state, u)
            assert abs(out.norm_squared() - state.norm_squared()) < 1e-10

    def test_homomorphism(self):
        for trial in range(20):
            rng = np.random.default_rng(2000 + trial)
            m = 4
            grid = grid_from_indices(list(range(m)))
            a = haar_unitary(m, rng)
            b = haar_unitary(m, rng)
            state = fock_state(grid, {0: 1, 2: 1})
            step = apply_transform(
                apply_transform(state, ModeTransform(tuple(range(m)), a)),
                ModeTransform(tuple(range(m)), b),
            )
            combined = apply_transform(state, ModeTransform(tuple(range(m)), b @ a))
            for occ in occupations(m, 2):
                assert step.amplitude(occ) == pytest.approx(
                    combined.amplitude(occ), abs=1e-10
                )

    def test_oracle_equivalence_small(self):
        for trial in range(25):
            rng = np.random.default_rng(3000 + trial)
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, 4))
            grid = grid_from_indices(list(range(m)))
            mat = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            mat /= np.linalg.norm(mat, 2) * (1.0 + 1e-12)
            t = ModeTransform(tuple(range(m)), mat)
            occ_in = list(occupations(m, n))[int(rng.integers(0, m))]
            out = apply_transform(fock_state(grid, dict(enumerate(occ_in))), t)
            for occ_out in occupations(m, n):
                assert out.amplitude(occ_out) == pytest.approx(
                    transition_amplitude(t, occ_in, occ_out), abs=1e-10
                )

    def test_photon_number_superselection(self):
        grid = grid_from_indices([0, 1, 2])
        state = fock_state(grid, {0: 2, 1: 1})
        rng = np.random.default_rng(5)
        out = apply_transform(
            state, ModeTransform((0, 1, 2), haar_unitary(3, rng))
        )
        assert out.photon_number == 3
        for occ, _ in out.items():
            assert sum(occ) == 3

    def test_mixed_sector_rejected(self):
        grid = grid_from_indices([0, 1])
        with pytest.raises(ValidationError):
            PureState(grid, {(1, 0): 0.7, (1, 1): 0.7})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0)])
    def test_non_finite_amplitude_rejected(self, bad):
        grid = grid_from_indices([0, 1, 2])
        with pytest.raises(ValidationError, match="not finite"):
            PureState(grid, {(1, 0, 0): bad})
        with pytest.raises(ValidationError, match="not finite"):
            PureState(grid, {(1, 0, 0): 0.6, (0, 1, 0): bad})

    @pytest.mark.parametrize("bad", ["x", None, [0.6], {}])
    def test_amplitude_that_is_not_a_number_rejected(self, bad):
        grid = grid_from_indices([0, 1])
        with pytest.raises(ValidationError, match="not a number"):
            PureState(grid, {(1, 0): bad})

    @pytest.mark.parametrize("bad", ["1", "0.6+0j", b"1"])
    def test_amplitude_that_is_a_string_rejected(self, bad):
        # complex() parses "1"; as a photon count the same "1" is rejected.
        grid = grid_from_indices([0, 1])
        with pytest.raises(ValidationError, match="not a number"):
            PureState(grid, {(1, 0): bad})

    @pytest.mark.parametrize("count", [1.5, 0.5, math.nan, math.inf, "1", -1])
    def test_photon_counts_must_be_whole_numbers(self, count):
        grid = grid_from_indices([0, 1, 2])
        with pytest.raises(ValidationError, match="non-negative integers"):
            fock_state(grid, {0: count, 1: 1})
        with pytest.raises(ValidationError, match="non-negative integers"):
            PureState(grid, {(count, 1, 0): 1.0})
        bs = ModeTransform((0, 1), beam_splitter(0.5))
        with pytest.raises(DomainError, match="non-negative integers"):
            transition_amplitude(bs, (count, 1), (1, 1))
        with pytest.raises(DomainError, match="non-negative integers"):
            transition_amplitude(bs, (1, 1), (1, count))

    def test_integral_counts_of_any_number_type_are_accepted(self):
        grid = grid_from_indices([0, 1, 2])
        state = fock_state(grid, {0: 2.0, 2: np.int64(1)})
        assert state.photon_number == 3
        assert [type(c) for c in state_keys(state)[0]] == [int, int, int]
        bs = ModeTransform((0, 1), beam_splitter(0.5))
        assert transition_amplitude(bs, (np.int8(1), 1.0), (2, 0)) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12)

    def test_amplitude_pruning(self):
        grid = grid_from_indices([0, 1])
        state = PureState(grid, {(1, 0): 1.0, (0, 1): 1e-16})
        assert len(state) == 1

    def test_state_prunes_and_keeps_entries_as_given(self):
        grid = grid_from_indices([0, 1, 2])
        kept = 0.6 - 0.8j
        state = PureState(grid, {(1, 1, 0): kept, (0, 1, 1): AMPLITUDE_PRUNE / 2, (2, 0, 0): 0.0})
        assert list(state.items()) == [((1, 1, 0), kept)]
        assert state.photon_number == 2


_GRID = grid_from_indices([0, 1])
_SPLITTER = ModeTransform((0, 1), beam_splitter(0.5))
_RAISE_SITES = {
    "everything pruned": (lambda: PureState(_GRID, {(1, 0): AMPLITUDE_PRUNE / 2, (0, 1): 0.0}),
                          ValidationError, "state has no amplitude above the pruning threshold"),
    "no photon": (lambda: PureState(_GRID, {(0, 0): 1.0}), ValidationError,
                  r"photon number 0 outside supported range 1\.\.4"),
    "five photons": (lambda: PureState(_GRID, {(5, 0): 1.0}), ValidationError,
                     r"photon number 5 outside supported range 1\.\.4"),
    "occupation length": (lambda: PureState(_GRID, {(1, 0, 0): 1.0}), ValidationError,
                          "occupation length does not match the grid"),
    "norm": (lambda: PureState(_GRID, {(1, 0): 0.8, (0, 1): 0.8}), ValidationError,
             r"squared norm 1\.28\d* exceeds 1"),
    "matrix of another size": (lambda: ModeTransform((0, 1), np.eye(3)), ValidationError,
                               "matrix must be square and match the mode subset"),
    "matrix not square": (lambda: ModeTransform((0, 1), np.ones((2, 3))), ValidationError,
                          "matrix must be square and match the mode subset"),
    "mode index not whole": (lambda: ModeTransform((0.5, 1), np.eye(2)), ValidationError,
                             r"mode index 0\.5 is not an integer"),
    "mode index a string": (lambda: ModeTransform(("1", 2), np.eye(2)), ValidationError,
                            "mode index '1' is not an integer"),
    "mode index None": (lambda: ModeTransform((0, None), np.eye(2)), ValidationError,
                        "mode index None is not an integer"),
    "matrix of strings": (lambda: ModeTransform((0,), [["x"]]), ValidationError,
                          "matrix entries are not all numbers"),
    "occupation None": (lambda: PureState(_GRID, {None: 1.0}), ValidationError,
                        "photon counts None are not non-negative integers"),
    "permanent of a string": (lambda: permanent([["a"]]), DomainError,
                              "matrix entries are not all numbers"),
    "permanent of None": (lambda: permanent([[None]]), DomainError,
                          "matrix entries are not all numbers"),
    "permanent of a ragged nesting": (lambda: permanent([[1, 2], [3]]), DomainError,
                                      "matrix entries are not all numbers"),
    "permanent of an infinity": (lambda: permanent([[1.0, math.inf], [0.0, 1.0]]), DomainError,
                                 "matrix has a non-finite entry"),
    "permanent of a NaN array": (lambda: permanent(np.array([[math.nan]], dtype=complex)),
                                 DomainError, "matrix has a non-finite entry"),
    "permanent past the float range": (  # returned nan, after numpy's overflow warnings
        lambda: np.errstate(all="ignore")(permanent)(np.full((3, 3), 1e200)), DomainError,
        "the permanent leaves the float range"),
    "mode subset None": (lambda: ModeTransform(None, np.eye(2)), ValidationError,
                         "mode subset None is not a sequence"),
    "oracle of no transform": (lambda: transition_amplitude(None, (1, 0), (1, 0)), DomainError,
                               "transform None is not a ModeTransform"),
    "no output occupation": (lambda: transition_amplitude(_SPLITTER, (1, 1), None), DomainError,
                             "occupations must be sequences of photon counts"),
    "no input occupation": (lambda: transition_amplitude(_SPLITTER, None, (1, 1)), DomainError,
                            "occupations must be sequences of photon counts"),
    "bin role": (lambda: Bin(0, "pump"), ValidationError, "unknown bin role 'pump'"),
    "frequency without an anchor": (lambda: _GRID.frequency_thz(0), ConfigurationError,
                                    "grid has no absolute frequency anchor"),
}


@pytest.mark.parametrize("site", list(_RAISE_SITES))
def test_raise_sites(site):
    call, error, message = _RAISE_SITES[site]
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_permanent_of_a_complex_array_with_an_infinite_entry_is_a_domain_error():
    # Returned (nan+nanj).  A complex array is read only once its permanent
    # is not finite, so numpy's invalid-value warnings come first.
    with pytest.warns(RuntimeWarning), pytest.raises(
            DomainError, match="^matrix has a non-finite entry$"):
        permanent(np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex))


N_GRID_MODES = 6


@st.composite
def superposition_and_block(draw):
    """A state of up to 4 photons on a 6-mode grid whose terms share one
    occupation of a random mode subset, and a subunitary block on it."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(N_GRID_MODES)))
    size = draw(st.integers(1, N_GRID_MODES - 1))
    subset = order[:size]
    inside = draw(st.integers(0, n - 1))
    shared = [0] * N_GRID_MODES
    for m in draw(st.lists(st.sampled_from(subset), min_size=inside, max_size=inside)):
        shared[m] += 1
    rests = [occ for occ in occupations(N_GRID_MODES, n - inside)
             if all(occ[m] == 0 for m in subset)]
    chosen = draw(st.lists(st.sampled_from(rests), min_size=min(2, len(rests)),
                           max_size=5, unique=True))
    extra = draw(st.lists(st.sampled_from(list(occupations(N_GRID_MODES, n))),
                          max_size=2, unique=True))
    keys = {tuple(map(sum, zip(shared, rest))) for rest in chosen} | set(extra)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps *= rng.uniform(0.3, 1.0) / np.linalg.norm(amps)
    block = haar_unitary(size, rng) * math.sqrt(rng.uniform(0.5, 1.0))
    return dict(zip(sorted(keys), amps)), tuple(subset), block


@settings(max_examples=60, deadline=None)
@given(superposition_and_block())
def test_expansion_matches_permanent_oracle(case):
    terms, subset, block = case
    grid = grid_from_indices(list(range(N_GRID_MODES)))
    out = apply_transform(PureState(grid, terms), ModeTransform(subset, block))
    # The oracle sees the block embedded in the whole grid.
    full = np.eye(N_GRID_MODES, dtype=complex)
    full[np.ix_(subset, subset)] = block
    oracle = ModeTransform(tuple(range(N_GRID_MODES)), full)
    n = sum(next(iter(terms)))
    for occ_out in occupations(N_GRID_MODES, n):
        expected = sum(amp * transition_amplitude(oracle, occ_in, occ_out)
                       for occ_in, amp in terms.items())
        assert abs(out.amplitude(occ_out) - expected) < 1e-10


@st.composite
def every_sector_and_block(draw):
    """A state of n photons on a 6-mode grid with terms holding each photon
    count 0..n on a permuted mode subset, and a subunitary block on it."""
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(N_GRID_MODES)))
    size = draw(st.integers(1, N_GRID_MODES - 1))
    subset, outside = order[:size], order[size:]
    keys = set()
    for k in range(n + 1):
        for _ in range(draw(st.integers(1, 2))):
            occ = [0] * N_GRID_MODES
            for m in draw(st.lists(st.sampled_from(subset), min_size=k, max_size=k)):
                occ[m] += 1
            for m in draw(st.lists(st.sampled_from(outside), min_size=n - k,
                                   max_size=n - k)):
                occ[m] += 1
            keys.add(tuple(occ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps *= rng.uniform(0.3, 1.0) / np.linalg.norm(amps)
    block = haar_unitary(size, rng) * math.sqrt(rng.uniform(0.5, 1.0))
    return dict(zip(sorted(keys), amps)), tuple(subset), block


@settings(max_examples=40, deadline=None)
@given(every_sector_and_block())
def test_every_sector_in_one_call_matches_permanent_oracle(case):
    terms, subset, block = case
    grid = grid_from_indices(list(range(N_GRID_MODES)))
    out = apply_transform(PureState(grid, terms), ModeTransform(subset, block))
    full = np.eye(N_GRID_MODES, dtype=complex)
    full[np.ix_(subset, subset)] = block
    oracle = ModeTransform(tuple(range(N_GRID_MODES)), full)
    n = sum(next(iter(terms)))
    for occ_out in occupations(N_GRID_MODES, n):
        expected = sum(amp * transition_amplitude(oracle, occ_in, occ_out)
                       for occ_in, amp in terms.items())
        assert abs(out.amplitude(occ_out) - expected) < 1e-10


ARRAY_GRID_MODES = 5
#: Amplitudes exactly at the prune threshold, which are kept.
AT_PRUNE = (AMPLITUDE_PRUNE, -AMPLITUDE_PRUNE, 1j * AMPLITUDE_PRUNE)


@st.composite
def amplitude_map_and_block(draw):
    """A map of 1 to 4 photons on a 5-mode grid, with amplitudes above,
    at and below the prune threshold, and a subunitary block."""
    n = draw(st.integers(1, 4))
    keys = draw(st.lists(st.sampled_from(list(occupations(ARRAY_GRID_MODES, n))),
                         min_size=1, max_size=8, unique=True))
    above = st.complex_numbers(min_magnitude=0.01, max_magnitude=0.3)
    small = st.one_of(st.sampled_from(AT_PRUNE),
                      st.floats(0.0, AMPLITUDE_PRUNE, exclude_max=True))
    amps = [draw(above)] + [draw(st.one_of(above, small)) for _ in keys[1:]]
    size = draw(st.integers(1, ARRAY_GRID_MODES))
    subset = tuple(draw(st.permutations(range(ARRAY_GRID_MODES)))[:size])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = haar_unitary(size, rng) * math.sqrt(rng.uniform(0.5, 1.0))
    return dict(zip(keys, amps)), subset, block


def assert_reads_as(state, expected):
    """Every reading of ``state`` agrees with the mapping ``expected``."""
    assert dict(state.items()) == expected
    assert len(state) == len(expected)
    for occ in state_keys(state):
        assert type(occ) is tuple and all(type(c) is int for c in occ)
    for occ in occupations(ARRAY_GRID_MODES, state.photon_number):
        assert state.amplitude(occ) == expected.get(occ, 0.0)
    assert abs(state.norm_squared() - sum(abs(a) ** 2 for a in expected.values())) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(amplitude_map_and_block())
def test_array_state_reads_as_its_mapping(case):
    terms, subset, block = case
    grid = grid_from_indices(range(ARRAY_GRID_MODES))
    state = PureState(grid, terms)
    kept = {occ: complex(a) for occ, a in terms.items() if not abs(a) < AMPLITUDE_PRUNE}
    assert state_keys(state) == list(kept)
    assert_reads_as(state, kept)
    # An evolved state reads back its terms in ascending mode tuple order.
    out = apply_transform(state, ModeTransform(subset, block))
    expected = dict(out.items())
    modes = [sorted(itertools.chain(*([m] * c for m, c in enumerate(occ))))
             for occ in expected]
    assert modes == sorted(modes)
    assert_reads_as(out, expected)


def test_evolving_a_state_twice_leaves_it_and_its_outputs_apart():
    # States hold mutable arrays: an evolution must not write into its
    # input, and each output must own its arrays.
    grid = grid_from_indices(range(6))
    t = ModeTransform((4, 1, 2), haar_unitary(3, np.random.default_rng(5)) * 0.9)
    state = PureState(grid, {(1, 0, 2, 0, 1, 0): 0.6, (0, 1, 0, 0, 1, 2): -0.8j})
    before, norm = list(state.items()), state.norm_squared()
    first, second = apply_transform(state, t), apply_transform(state, t)
    onward = [apply_transform(first, t) for _ in range(2)]
    assert list(first.items()) == list(second.items())
    assert list(onward[0].items()) == list(onward[1].items())
    assert first.norm_squared() == second.norm_squared()
    assert list(state.items()) == before and state.norm_squared() == norm


def test_evolution_that_prunes_every_term_is_refused():
    grid = grid_from_indices([0, 1, 2])
    with pytest.raises(ValidationError, match="no amplitude above the pruning threshold"):
        apply_transform(fock_state(grid, {0: 1, 2: 1}), ModeTransform((0,), [[0.0]]))


def parent_amplitude(t, n_in, n_out):
    """The oracle's formula, written out: one permanent of M with its rows
    and columns repeated, over the input's then the output's factorials."""
    modes = np.arange(t.size)
    per = fock.permanent(t.matrix.take(modes.repeat(n_out), 0).take(modes.repeat(n_in), 1))
    return per / math.sqrt(math.prod(float(math.factorial(k)) for k in [*n_in, *n_out]))


@st.composite
def memo_calls(draw):
    """Two lossy transforms of 1-7 modes, 5-7 inputs of 0-6 photons
    (repeated modes included) and a seed that picks the outputs."""
    m = draw(st.integers(1, 7))
    space = [occ for n in range(7) for occ in occupations(m, n)]
    inputs = draw(st.lists(st.sampled_from(space), min_size=5, max_size=7, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    transforms = [ModeTransform(tuple(range(m)), haar_unitary(m, rng) * math.sqrt(rng.uniform(0.5, 1.0)))
                  for _ in range(2)]
    return transforms, inputs, rng


@settings(max_examples=40, deadline=None)
@given(memo_calls())
def test_memoised_oracle_is_the_parent_formula(case):
    transforms, inputs, rng = case
    fock._columns.cache_clear()
    for n_in in inputs:
        outputs = list(occupations(transforms[0].size, sum(n_in)))
        picks = [outputs[k] for k in rng.choice(len(outputs), size=2)]
        # The second call on each transform hits its entry after a call on
        # the other; a refused call in between changes nothing.
        for n_out in picks:
            for t in transforms:
                assert transition_amplitude(t, n_in, n_out) == parent_amplitude(t, n_in, n_out)
            with pytest.raises(DomainError):
                transition_amplitude(transforms[0], n_in, (*n_out[:-1], n_out[-1] + 1))
    # A second sweep over the inputs, in list form, after the evictions.
    for n_in in inputs[::-1]:
        n_out = list(occupations(transforms[1].size, sum(n_in)))[-1]
        assert (transition_amplitude(transforms[1], list(n_in), n_out)
                == parent_amplitude(transforms[1], n_in, n_out))
    info = fock._columns.cache_info()
    assert info.hits > 0 and info.misses > info.maxsize


@pytest.mark.parametrize("count", [1.5, math.nan, math.inf, "1", -1])
def test_bad_counts_are_refused_on_a_memo_hit(count):
    bs = ModeTransform((0, 1), beam_splitter(0.5))
    valid = transition_amplitude(bs, (1, 1), (2, 0))
    for n_in, n_out, bad in [((count, 1), (1, 1), (count, 1)), ((1, 1), (1, count), (1, count)),
                             ((1, 1), (count, 1), (count, 1))]:
        for _ in range(2):
            with pytest.raises(DomainError, match=re.escape(
                    f"photon counts {bad} are not non-negative integers")):
                transition_amplitude(bs, n_in, n_out)
    for _ in range(2):
        with pytest.raises(DomainError, match="occupation length must match"):
            transition_amplitude(bs, (1, 1), (1, 1, 0))
        with pytest.raises(DomainError, match="occupation length must match"):
            transition_amplitude(bs, (1, 1, 0), (1, 1))
        with pytest.raises(DomainError, match="photon number mismatch"):
            transition_amplitude(bs, (1, 1), (1, 0))
    assert transition_amplitude(bs, (1, 1), (2, 0)) == valid


def test_unhashable_counts_are_validated_without_the_memo():
    bs = ModeTransform((0, 1), beam_splitter(0.5))
    for n_in, n_out in [(([1], 1), (1, 1)), ((1, 1), ([1], 1))]:
        with pytest.raises(DomainError, match="not non-negative integers"):
            transition_amplitude(bs, n_in, n_out)
    # A 0-d array equals its integer, so it is a count, though unhashable.
    assert (transition_amplitude(bs, (np.array(1), 1), (2, 0))
            == transition_amplitude(bs, (1, 1), (2, 0)))


def test_equal_inputs_of_other_types_give_the_identical_amplitude():
    for first, second in [((1, 1), (np.int8(1), 1.0)), ((np.int8(1), 1.0), (1, 1))]:
        bs = ModeTransform((0, 1), beam_splitter(0.3, 0.4))
        a = transition_amplitude(bs, first, (2, 0))
        b = transition_amplitude(bs, second, (2, 0))
        assert a == b == parent_amplitude(bs, (1, 1), (2, 0))


def test_a_second_sweep_over_the_outputs_hits_the_output_memo():
    t = ModeTransform(tuple(range(5)), haar_unitary(5, np.random.default_rng(8)) * 0.9)
    outputs = list(occupations(5, 3))
    fock._output_rows.cache_clear()
    first = [transition_amplitude(t, (1, 0, 2, 0, 0), occ) for occ in outputs]
    assert fock._output_rows.cache_info()[:2] == (0, len(outputs))
    second = [transition_amplitude(t, [1, 0, 2, 0, 0], occ) for occ in outputs[::-1]]
    assert fock._output_rows.cache_info()[:2] == (len(outputs), len(outputs))
    expected = [parent_amplitude(t, (1, 0, 2, 0, 0), occ) for occ in outputs]
    assert first == second[::-1] == expected


def test_a_sweep_past_the_output_memo_evicts_and_keeps_the_amplitudes():
    # 4 photons on 17 modes have 4,845 outputs, more than the memo holds:
    # the reversed second sweep hits the newest 4,096 and misses the rest.
    t = ModeTransform(tuple(range(17)), haar_unitary(17, np.random.default_rng(9)) * 0.9)
    n_in = (0, 2, 0, 0, 1) + (0,) * 11 + (1,)
    outputs = list(occupations(17, 4))
    maxsize = fock._output_rows.cache_info().maxsize
    assert len(outputs) > maxsize
    fock._output_rows.cache_clear()
    for occ in outputs:
        assert transition_amplitude(t, n_in, occ) == parent_amplitude(t, n_in, occ)
    assert fock._output_rows.cache_info().currsize == maxsize
    for occ in outputs[::-1]:
        assert transition_amplitude(t, n_in, occ) == parent_amplitude(t, n_in, occ)
    info = fock._output_rows.cache_info()
    assert info.currsize == maxsize
    assert (info.hits, info.misses) == (maxsize, 2 * len(outputs) - maxsize)


def test_two_mode_amplitudes_are_the_parent_formula_bit_for_bit(monkeypatch):
    # At 15 and 16 photons 60 products of factorials pass 2**53 and are
    # rounded, so their order could matter: the input's product times the
    # output's memoised one must give the bits of the parent's running
    # product.  Past 10 photons both sides take the sum of the block in
    # place of its permanent (5 ms at n = 16), leaving the factorials.
    t = ModeTransform((0, 1), beam_splitter(0.3, 0.4) * 0.95)
    for n in range(17):
        if n == 11:
            monkeypatch.setattr(fock, "permanent", lambda a: complex(a.sum()))
        for n_in in occupations(2, n):
            for n_out in occupations(2, n):
                assert transition_amplitude(t, n_in, n_out) == parent_amplitude(t, n_in, n_out)
