"""Spectra, the explicit gap eigenbasis, and the certificates."""

from __future__ import annotations

import itertools
import math
import pathlib
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from multislice import core, operators, spectral
from multislice.core import (
    BudgetError,
    Composition,
    reduced_compositions,
    vertices,
)
from multislice.exactla import exact_nullity, fraction_free_rank
from multislice.operators import laplacian_dense
from multislice.spectral import (
    centered_level_basis,
    certification_suite,
    coordinate_sum_is_zero,
    gap_certificate,
    gap_eigenbasis,
    induction_audit,
    k_certificate,
    laplacian_spectrum,
    p_certificate,
    spectral_gap,
)
from oracles import average_projection, family, int_matrix, is_eigenpair, laplacian_rows, slice_vertices


def nu_mean(k: Composition, g) -> Fraction:
    """Mean of a level function under nu(m) = k_m / N."""
    return sum((Fraction(c, k.n) * v for c, v in zip(k.counts, g)), Fraction(0))


def k_spectrum(k: Composition) -> spectral.Spectrum:
    """K's counts from the closed-form blocks s_a = (N-1) k_a and
    C[a, b] = k_a (k_b - delta_ab): no vertex is enumerated."""
    counts, pairs = spectral._level_pairs(k)
    return spectral._k_spectrum((k.n - 1) * counts, pairs, k.n)


def rounded_spectrum(k: Composition) -> tuple[tuple[int, int], ...]:
    """The oracle: a dense float eigensolve, rounded to integers, as (value, multiplicity) pairs."""
    vals = np.rint(np.linalg.eigvalsh(laplacian_dense(k).astype(np.float64))).astype(np.int64)
    values, mults = np.unique(vals, return_counts=True)
    return tuple(zip(values.tolist(), mults.tolist()))


class TestFullSpectrum:
    """The full Laplacian spectrum from Young's rule, in integers."""

    def test_two_vertices(self):
        spec = laplacian_spectrum(Composition((1, 1)))
        assert spec.pairs == ((0, 1), (2, 1))
        assert spec.source == "young-rule" and spec.arithmetic == "exact"

    def test_complete_graph(self):
        # one level holding all but one particle: the complete graph on N vertices
        for n in range(2, 12):
            assert laplacian_spectrum(Composition((n - 1, 1))).pairs == ((0, 1), (n, n - 1)), n
        # exact cross-check of the gap multiplicity
        assert exact_nullity(laplacian_dense(Composition((3, 1))), shift=4) == 3

    def test_three_particles_three_levels(self):
        pairs = dict(laplacian_spectrum(Composition((1, 1, 1))).pairs)
        assert pairs == {0: 1, 3: 4, 6: 1}  # (N-1)(r-1) = 2*2 at the gap; the sign module at 2 C(3,2)

    def test_matches_a_direct_eigensolve(self):
        comps = [c for n in range(1, 7) for c in reduced_compositions(n, min_levels=1)]
        comps += [c for c in reduced_compositions(7, min_levels=1) if c.cardinality() <= 1000]
        oracle: dict[tuple[int, ...], tuple] = {}  # relabelling levels is a graph isomorphism
        for k in comps:
            key = tuple(sorted(k.counts))
            if key not in oracle:
                oracle[key] = rounded_spectrum(k)
            assert laplacian_spectrum(k).pairs == oracle[key], k

    @pytest.mark.parametrize("counts", [(10, 10, 10), (1,) * 9, (3, 0, 2, 5), (7,), (6, 6, 6, 6)])
    def test_closed_forms(self, counts):
        k = Composition(counts)
        pairs = laplacian_spectrum(k).pairs
        assert sum(m for _, m in pairs) == k.cardinality()
        assert pairs[0] == (0, 1)
        if not k.is_trivial:
            assert pairs[1] == (k.n, (k.n - 1) * (k.r_active - 1))  # the gap and its multiplicity
        # the top eigenvalue comes from the shape of the sorted counts, least in
        # dominance order and so of least content
        shape = sorted(counts, reverse=True)
        content = sum(j - i for i, row in enumerate(shape) for j in range(row))
        assert pairs[-1][0] == math.comb(k.n, 2) - content

    def test_empty_levels_reduce_away(self):
        assert laplacian_spectrum(Composition((2, 0, 2))) == laplacian_spectrum(Composition((2, 2)))

    def test_budget_bounds_the_pieri_steps(self):
        k = Composition((10, 10, 10))  # its Pieri steps produce 393 shapes
        assert laplacian_spectrum(k, budget=393).pairs[1] == (30, 58)
        with pytest.raises(BudgetError, match="over 392 shapes"):
            laplacian_spectrum(k, budget=392)
        with pytest.raises(BudgetError):
            laplacian_spectrum(Composition((2, 1)), budget=1)
        assert laplacian_spectrum(Composition((2, 1)), budget=None).pairs == ((0, 1), (3, 2))


@pytest.fixture
def eigensolves(monkeypatch):
    """Sizes of the ``np.linalg.eigvalsh`` calls made."""
    sizes: list[int] = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return sizes


class TestOneEigensolvePerSlice:
    def test_certificates_and_induction_solve_no_laplacian(self, eigensolves, fresh_bounds):
        k = Composition((2, 2, 1))
        slices = [k] + [k.decremented(m).reduce()[0] for m in range(k.r)]
        assert all(gap_certificate(s).passed for s in slices)
        rep = induction_audit(k)
        assert rep.holds and rep.equality
        assert certification_suite(k).passed
        assert eigensolves == []  # the recursion eigensolves nothing, not even a Gram matrix


class TestGap:
    def test_base_cases(self):
        assert spectral_gap(Composition((1, 1))) == 2.0
        assert spectral_gap(Composition((2, 1))) == 3.0
        assert spectral_gap(Composition((2, 2))) == 4.0

    def test_trivial_errors(self):
        with pytest.raises(ValueError):
            spectral_gap(Composition((4,)))

    def test_certified_path_matches_dense(self, monkeypatch, fresh_bounds):
        k = Composition((2, 2, 1))
        dense = rounded_spectrum(k)[1][0]  # least nonzero eigenvalue of a dense eigensolve
        assert spectral_gap(k) == dense == gap_certificate(k).gap == 5.0
        monkeypatch.setattr(spectral, "_gap_bound", lambda counts: (None, 0))
        with pytest.raises(RuntimeError, match="failed"):
            spectral_gap(k)

    def test_scaled_gap(self):
        assert gap_certificate(Composition((1, 1))).delta == 4.0
        assert gap_certificate(Composition((1, 1, 1))).delta == 3.0
        assert gap_certificate(Composition((3, 1))).delta == 8 / 3
        assert gap_certificate(Composition((2, 0, 2))).delta == 8 / 3  # reduced to (2,2)


class TestCenteredBasis:
    def test_two_levels(self):
        (g,) = centered_level_basis(Composition((1, 1)))
        assert g == (Fraction(-1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1, 1), (3, 2), (2, 0, 2)])
    def test_constraint_and_count(self, counts):
        k = Composition(counts)
        basis = centered_level_basis(k)
        assert len(basis) == k.r_active - 1
        for g in basis:
            assert len(g) == k.r
            assert nu_mean(k, g) == 0

    def test_needs_two_active_levels(self):
        with pytest.raises(ValueError):
            centered_level_basis(Composition((4,)))


class TestGapBasis:
    def test_two_vertices(self):
        k = Composition((1, 1))
        basis = gap_eigenbasis(k)
        assert basis.dimension == 1
        (f,) = family(basis)
        assert f == [Fraction(-1, 2), Fraction(1, 2)]
        assert is_eigenpair(k, f, 2)

    def test_dimension_matches_exact_nullity(self):
        k = Composition((1, 1, 1))
        basis = gap_eigenbasis(k)
        assert basis.dimension == 4
        assert exact_nullity(laplacian_dense(k).tolist(), shift=3) == 4

    def test_all_members_exact_eigenpairs(self):
        for counts in [(2, 2), (2, 1, 1), (3, 2)]:
            k = Composition(counts)
            for f in family(gap_eigenbasis(k)):
                assert is_eigenpair(k, f, k.n)

    def test_int_matrix_is_the_scaled_vectors(self):
        # the tests' integer family is N f, and each member is its scaled
        # generator read at its position
        for counts in [(2, 2), (2, 1, 1), (3, 2), (2, 0, 2), (1, 1, 1, 1)]:
            basis = gap_eigenbasis(Composition(counts))
            k = basis.composition
            scaled = [[int(v * k.n) for v in f] for f in family(basis)]
            out = int_matrix(basis)
            assert out.dtype == np.int64 and out.tolist() == scaled, counts
            scaled_gens = basis.scaled_generators()  # N g, on the occupied levels
            assert scaled_gens.dtype == np.int64 and scaled_gens.shape == (len(basis.generators), k.r_active)
            gens = np.zeros((len(basis.generators), k.r), dtype=np.int64)
            gens[:, list(k.active_levels)] = scaled_gens
            levels = np.array(list(vertices(k)))
            assert [g[levels[:, pos]].tolist() for g in gens for pos in basis.positions] == scaled, counts

    def test_full_position_sum_vanishes(self):
        # a single generator summed over all N coordinates is identically zero,
        # which is why the basis stops at N-1 positions
        k = Composition((2, 1, 1))
        g = centered_level_basis(k)[0]
        total = [
            sum(g[x[pos]] for pos in range(k.n)) for x in vertices(k)
        ]
        assert all(v == 0 for v in total)

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            gap_eigenbasis(Composition((5,)))

    def test_change_of_basis_keeps_the_eigenspace(self):
        # any invertible recombination of the generators spans the same space:
        # members stay exact eigenfunctions and the family keeps full rank
        k = Composition((2, 1, 1))
        gens = centered_level_basis(k)
        rng = random.Random(11)
        mix = None
        while mix is None:
            cand = [[Fraction(rng.randint(-3, 3)) for _ in gens] for _ in gens]
            det = cand[0][0] * cand[1][1] - cand[0][1] * cand[1][0]
            if det != 0:
                mix = cand
        new_gens = [
            tuple(
                sum((row[m] * gens[m][lvl] for m in range(len(gens))), Fraction(0))
                for lvl in range(k.r)
            )
            for row in mix
        ]
        rows = []
        for g in new_gens:
            assert nu_mean(k, g) == 0
            for pos in range(k.n - 1):
                f = [g[x[pos]] for x in vertices(k)]
                assert is_eigenpair(k, f, k.n)
                scale = math.lcm(*(v.denominator for v in f))
                rows.append([int(v * scale) for v in f])
        assert fraction_free_rank(rows) == (k.n - 1) * (k.r_active - 1)


class TestVerifyEigenpair:
    def test_constants(self):
        k = Composition((2, 1))
        assert is_eigenpair(k, [Fraction(1)] * 3, 0)

    def test_generic_function_fails(self):
        k = Composition((2, 1))
        assert not is_eigenpair(k, [Fraction(1), Fraction(2), Fraction(4)], k.n)

    def test_float_mode(self):
        # a gap member in floats is an eigenvector of the dense Laplacian in float arithmetic
        k = Composition((2, 2))
        f = np.array([float(v) for v in family(gap_eigenbasis(k))[0]])
        assert np.allclose(laplacian_dense(k) @ f, 4.0 * f)

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            is_eigenpair(Composition((1, 1)), [0, 0], 1)


class TestCoordinateSum:
    def test_equal_generators_vanish(self):
        k = Composition((2, 2))
        g = centered_level_basis(k)[0]
        assert coordinate_sum_is_zero(k, [g] * k.n)

    def test_unequal_generators_do_not(self):
        k = Composition((2, 2))
        g = centered_level_basis(k)[0]
        other = tuple(2 * v for v in g)
        assert not coordinate_sum_is_zero(k, [other] + [g] * (k.n - 1))

    def test_zeros(self):
        k = Composition((2, 1))
        zero = (Fraction(0), Fraction(0))
        assert coordinate_sum_is_zero(k, [zero] * k.n)

    def test_length_check(self):
        k = Composition((2, 1))
        with pytest.raises(ValueError):
            coordinate_sum_is_zero(k, [(Fraction(0), Fraction(0))] * 2)


def projection_matrix(k: Composition) -> np.ndarray:
    """Dense float P assembled column by column from the oracle's exact ``average_projection``."""
    units = np.eye(k.cardinality(), dtype=np.int64)
    return np.array([[float(v) for v in average_projection(k, e)] for e in units]).T


def blocks(k: Composition) -> tuple[np.ndarray, np.ndarray]:
    """The co-occurrence blocks s = diag G[first, :, first, :] and C = G[first, :, last, :]."""
    g = spectral._cooccurrence(k)
    return np.diagonal(g[0, :, 0, :]), g[0, :, k.n - 1, :]


def k_counts(spec: spectral.Spectrum, n: int) -> tuple[int, int]:
    """K's counts at -1/(N-1) and at 1."""
    counts = dict(spec.pairs)
    return counts.get(Fraction(-1, n - 1), 0), counts.get(Fraction(1), 0)


def exact_p_spectrum(k: Composition) -> dict[Fraction, int]:
    """P's eigenvalue multiplicities from K's two counts on the co-occurrence blocks.

    K's eigenvalue 1 gives P's 1 once, K's -1/(N-1) gives P's 1/(N-1) N-1
    times, and P's other |V| - rank P eigenvalues are 0.
    """
    n = k.n
    low, one = k_counts(spectral._k_spectrum(*blocks(k), n), n)
    out = {Fraction(1, n - 1): (n - 1) * low, Fraction(1): one}
    out[Fraction(0)] = k.cardinality() - sum(out.values())
    return {v: m for v, m in out.items() if m}


def faulty_k_spectrum(fault, top: int):
    """``_k_spectrum`` whose counts (low, one), at -1/(N-1) and at 1, pass
    through ``fault(s, c, n, low, one)`` on the slices of ``top`` particles."""
    k_spectrum_ = spectral._k_spectrum

    def mutant(s, c, n):
        low, one = k_counts(k_spectrum_(s, c, n), n)
        if n == top:
            low, one = fault(s, c, n, low, one)
        pairs = ((Fraction(-1, n - 1), low), (Fraction(1), one))
        return spectral.Spectrum(tuple(p for p in pairs if p[1]), "level-correlation", "exact")

    return mutant


def faulty_certificates(monkeypatch, fault):
    """On every slice with 3 <= N <= 6, P's, K's and the gap certificate
    computed with ``fault`` in the slice's own K counts; its children are not faulted."""
    for k in [c for n in range(3, 7) for c in reduced_compositions(n)]:
        spectral._gap_bound.cache_clear()
        spectral._p_counts.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_k_spectrum", faulty_k_spectrum(fault, k.n))
            certs = p_certificate(k), k_certificate(k), gap_certificate(k)
        yield (k, *certs)


def assert_bound_fails(k: Composition, cert) -> None:
    """The recursion bound fails, while the family's own checks still pass."""
    assert cert.eigen_equations_exact and cert.family_rank == cert.expected_dimension, k
    assert not cert.float_ok and not cert.passed and cert.nullity_upper_bound == -1, k
    assert cert.zero_multiplicity is None and math.isnan(cert.gap), k


class TestProjectionAverageSpectrum:
    def test_three_vertices(self):
        # 3-vertex slice: values 1 (constants) and 1/2 (two gap directions);
        # there is no room left for eigenvalue 0
        cert = p_certificate(Composition((2, 1)))
        assert cert.passed and cert.details["one_simple"]
        assert cert.details["gap_multiplicity"] == 2
        assert exact_p_spectrum(Composition((2, 1))) == {Fraction(1, 2): 2, Fraction(1): 1}

    def test_second_largest_value(self):
        k = Composition((1, 1, 1, 1))
        spec = exact_p_spectrum(k)
        assert max(v for v in spec if v < 1) == Fraction(1, 3)
        assert p_certificate(k).details["gap_multiplicity"] == spec[Fraction(1, 3)] == 9

    @pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (3, 2), (3,), (0, 4)])
    def test_structure(self, counts):
        # a single occupied level has no generator, and P is the identity
        k = Composition(counts)
        details = p_certificate(k).details
        assert details["values_in_set"] and details["one_simple"]
        assert details["one_eigenvector_constant"]
        assert details["gap_multiplicity"] == (k.n - 1) * (k.r_active - 1)

    @pytest.mark.parametrize(
        "counts", [(2, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2), (2, 0, 2), (1, 0, 2, 1)]
    )
    def test_float_oracle(self, counts):
        # a dense eigvalsh of P, assembled from the oracle's exact P, agrees
        # with the multiplicities counted from G
        k = Composition(counts)
        vals = np.linalg.eigvalsh(projection_matrix(k))
        got = dict(Counter(Fraction(v).limit_denominator(k.n) for v in vals))  # rounded to 1/N's
        assert got == exact_p_spectrum(k)
        assert got[Fraction(1, k.n - 1)] == p_certificate(k).details["gap_multiplicity"]

    def test_needs_three_particles(self):
        with pytest.raises(ValueError):
            p_certificate(Composition((1, 1)))

    def test_certificate(self):
        cert = p_certificate(Composition((2, 1, 1)))
        assert cert.passed
        assert cert.details["gap_multiplicity"] == 6

    def test_every_slice_up_to_seven(self):
        for k in [c for n in range(3, 8) for c in reduced_compositions(n)]:
            cert = p_certificate(k)
            assert cert.passed, (k, cert.details)
            assert cert.details["gap_multiplicity"] == (k.n - 1) * (k.r - 1), k

    def test_moved_cooccurrence_count_fails(self, monkeypatch, fresh_bounds):
        # one count of an off-diagonal block of G moved by 1 breaks the block
        # form: P's counts and the recursion bound, which rests on them, fail
        rng = random.Random(3)
        cooccurrence = spectral._cooccurrence

        def moved(k, budget=None):
            g = cooccurrence(k, budget).copy()
            p, q = rng.sample(range(k.n), 2)
            g[p, rng.randrange(k.r_active), q, rng.randrange(k.r_active)] += rng.choice((-1, 1))
            return g

        monkeypatch.setattr(spectral, "_cooccurrence", moved)
        for k in [c for n in range(3, 6) for c in reduced_compositions(n)]:
            cert = p_certificate(k)
            assert not cert.passed and not cert.details["values_in_set"], k
            assert not cert.details["exact_actions_ok"], k
            spectral._gap_bound.cache_clear()
            gap_cert = gap_certificate(k)
            assert not gap_cert.float_ok and not gap_cert.passed, k

    def test_gap_value_with_n_for_n_minus_one_fails(self, monkeypatch, fresh_bounds):
        # the mutant that counts K at -1/N, null(S + N C), in place of -1/(N-1):
        # P's value 1/N in place of 1/(N-1)
        def fault(s, c, n, low, one):
            return exact_nullity((np.diag(s) + n * c).tolist(), cap=None), one

        for k, p_cert, k_cert, gap_cert in faulty_certificates(monkeypatch, fault):
            assert not p_cert.passed and not p_cert.details["values_in_set"], k
            assert not k_cert.passed and not k_cert.details["spectrum_ok"], k
            assert_bound_fails(k, gap_cert)

    def test_integer_check_catches_a_perturbed_member(self, monkeypatch):
        # one entry of one scaled generator moved by 1, so that it is no longer
        # nu-centered: the integer check of the exact action must fail, and the
        # oracle's Fraction P agrees that its members leave 1/(N-1)
        rng = random.Random(5)
        scaled_generators = spectral._scaled_generators  # the certificates' one source of N g
        perturbed_gens = []

        def perturbed(counts):
            out = scaled_generators(counts)
            row = rng.randrange(out.shape[0])
            out[row, rng.randrange(out.shape[1])] += 1
            perturbed_gens.append(out[row])
            return out

        for k in [c for n in range(3, 6) for c in reduced_compositions(n)] + [Composition((2, 0, 2))]:
            assert p_certificate(k).details["exact_actions_ok"] is True, k
            with monkeypatch.context() as patch:
                patch.setattr(spectral, "_scaled_generators", perturbed)
                cert = p_certificate(k)
            assert cert.details["exact_actions_ok"] is False and not cert.passed, k
            assert cert.details["values_in_set"] and cert.details["one_eigenvector_constant"], k
            g = dict(zip(k.active_levels, perturbed_gens[-1].tolist()))
            for pos in range(k.n - 1):
                f = [Fraction(g[x[pos]], k.n) for x in vertices(k)]
                assert average_projection(k, f) != [v / (k.n - 1) for v in f], (k, pos)

    @pytest.mark.parametrize("counts", [(2, 1, 1), (2, 2), (1, 1, 1)])
    def test_middle_eigenvectors_are_gap_eigenfunctions(self, counts):
        # cross-verification: the 1/(N-1) eigenspace of the projection average
        # sits inside the Laplacian eigenspace at N
        k = Composition(counts)
        vals, vecs = np.linalg.eigh(projection_matrix(k))
        middle = np.nonzero(np.abs(vals - 1.0 / (k.n - 1)) <= 1e-8)[0]
        assert middle.size == p_certificate(k).details["gap_multiplicity"]
        assert middle.size == (k.n - 1) * (k.r_active - 1)
        lap = laplacian_dense(k)
        for idx in middle:
            assert np.allclose(lap @ vecs[:, idx], k.n * vecs[:, idx], atol=1e-9)


class TestCorrelationSpectrum:
    def test_two_levels(self):
        spec = k_spectrum(Composition((1, 1)))
        assert spec.pairs == ((Fraction(-1), 1), (Fraction(1), 1))
        assert spec.arithmetic == "exact"

    def test_four_particles(self):
        spec = k_spectrum(Composition((2, 1, 1)))
        assert spec.pairs == ((Fraction(-1, 3), 2), (Fraction(1), 1))

    def test_zero_levels_reduced(self):
        spec = k_spectrum(Composition((2, 0, 2)))
        assert spec.pairs == ((Fraction(-1, 3), 1), (Fraction(1), 1))

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (2, 2, 1), (3, 1, 1)])
    def test_certificate(self, counts):
        assert k_certificate(Composition(counts)).passed

    @pytest.mark.parametrize("counts", [(2, 0, 2), (3, 0, 1), (0, 1, 1, 1)])
    def test_empty_levels_change_nothing(self, counts):
        k = Composition(counts)
        reduced, _ = k.reduce()
        assert k_spectrum(k) == k_spectrum(reduced)
        assert k_certificate(k).details == k_certificate(reduced).details
        assert p_certificate(k).details == p_certificate(reduced).details

    def test_closed_form_blocks_match_the_counted_ones(self):
        # k_spectrum enumerates nothing; the same counts come from G's blocks
        for k in [c for n in range(2, 8) for c in reduced_compositions(n)]:
            assert k_spectrum(k) == spectral._k_spectrum(*blocks(k), k.n), k

    def test_one_level(self):
        # K is the identity on a single occupied level
        cert = k_certificate(Composition((0, 3)))
        assert cert.passed and cert.details["spectrum"]["eigenvalues"] == [["1", 1]]

    @staticmethod
    def check_moved_correlation(monkeypatch, every_block: bool) -> None:
        """One count of C = G[first, :, last, :] moved by 1, in its block or in
        every off-diagonal block of G, fails K and P.  G is counted once per
        slice, so an unreduced input reads its reduced slice's moved count."""
        rng = random.Random(4)
        cooccurrence = spectral._cooccurrence
        diagonal = {}

        def moved(k, budget=None):
            g = cooccurrence(k, budget).copy()
            a, b = rng.randrange(k.r_active), rng.randrange(k.r_active)
            for p, q in itertools.permutations(range(k.n), 2) if every_block else [(0, k.n - 1)]:
                g[p, a, q, b] += 1
            diagonal[k.counts] = a == b
            return g

        monkeypatch.setattr(spectral, "_cooccurrence", moved)
        slices = [c for n in range(2, 6) for c in reduced_compositions(n)]
        for k in slices + [Composition((2, 0, 2))]:
            cert = k_certificate(k)
            assert cert.details["bruteforce_ok"] is False and not cert.passed, k
            assert cert.details["eigen_actions_ok"] is False, k
            assert cert.details["nu_selfadjoint_ok"] is diagonal[k.reduce()[0].counts], k
            if k.n >= 3:
                details = p_certificate(k).details
                assert details["exact_actions_ok"] is details["one_eigenvector_constant"] is False, k
                assert details["values_in_set"] is False, k

    def test_moved_correlation_count_fails(self, monkeypatch, fresh_bounds):
        # C 1 = s fails, and so does C = C^T unless the count is on the
        # diagonal; G leaves its closed form, so P fails too
        self.check_moved_correlation(monkeypatch, every_block=False)

    def test_correlation_moved_in_every_block_fails_p_and_k(self, monkeypatch, fresh_bounds):
        # G keeps its block form, but not the closed form, which K's count check and P's verdicts read
        self.check_moved_correlation(monkeypatch, every_block=True)

    def test_correlation_moved_along_the_constants_fails(self, monkeypatch, fresh_bounds):
        # C[a, :] += k keeps (N-1) C g = -S g for every centered g, but not C 1 = s
        cooccurrence = spectral._cooccurrence

        def moved(k, budget=None):
            g = cooccurrence(k, budget).copy()
            g[0, 0, k.n - 1, :] += [c for c in k.counts if c]
            return g

        monkeypatch.setattr(spectral, "_cooccurrence", moved)
        for k in [c for n in range(2, 6) for c in reduced_compositions(n)]:
            cert = k_certificate(k)
            assert cert.details["eigen_actions_ok"] is False and not cert.passed, k


class TestTensorSpectrum:
    """P's bookkeeping: G = I (x) S + (J - I) (x) C, J - I the hollow ones."""

    def test_hollow_ones(self):
        hollow = np.ones((4, 4)) - np.eye(4)
        assert np.rint(np.linalg.eigvalsh(hollow)).tolist() == [-1.0, -1.0, -1.0, 3.0]
        k = Composition((2, 1, 1))
        g = spectral._cooccurrence(k).reshape(k.n * k.r, -1)
        s, c = np.diag(np.diagonal(g[: k.r, : k.r])), g[: k.r, -k.r :]
        assert np.array_equal(g, np.kron(np.eye(k.n), s) + np.kron(hollow, c))

    def test_three_particles(self):
        # hollow ones (x) K has spectrum {-1, 1/2, 2}; through lam -> (lam + 1)/N
        # these are P's values {0, 1/2, 1}, each present on (1,1,1)
        k = Composition((1, 1, 1))
        assert exact_p_spectrum(k) == {Fraction(0): 1, Fraction(1, 2): 4, Fraction(1): 1}

    def test_translation_from_projection_average(self):
        k = Composition((2, 1, 1))
        counts, pairs = spectral._level_pairs(k)
        kmat = pairs / ((k.n - 1) * counts[:, None])  # K = S^-1 C, s_a = (N-1) k_a
        # D^(1/2) K D^(-1/2) is symmetric and keeps the spectrum
        d = np.sqrt(np.array(k.counts, dtype=np.float64) / k.n)
        hollow = np.ones((k.n, k.n)) - np.eye(k.n)
        tvals = np.linalg.eigvalsh(np.kron(hollow, d[:, None] * kmat / d[None, :]))
        for lam in exact_p_spectrum(k):
            translated = k.n * lam - 1
            assert np.min(np.abs(tvals - float(translated))) < 1e-8


def thread_ticks() -> dict[int, int]:
    """utime + stime, in clock ticks, of every thread of this process but the calling one."""
    own = threading.get_native_id()
    ticks = {}
    for task in pathlib.Path("/proc/self/task").iterdir():
        if int(task.name) != own:
            fields = (task / "stat").read_text().rpartition(")")[2].split()
            ticks[int(task.name)] = int(fields[11]) + int(fields[12])  # stat fields 14 and 15
    return ticks


class TestCooccurrence:
    """G[p, a, q, b] = #{x : x_p = a, x_q = b}, counted once per slice in integers."""

    @pytest.mark.parametrize(
        "k",
        [c for n in range(1, 6) for c in reduced_compositions(n, min_levels=1)]
        + [Composition(c) for c in ((2, 0, 2), (0, 3, 0, 3), (1, 0, 0, 2, 2))],
        ids=str,
    )
    def test_matches_a_counter_over_the_vertices(self, k):
        index = {level: a for a, level in enumerate(k.active_levels)}
        counter = Counter(
            (p, index[x[p]], q, index[x[q]]) for x in slice_vertices(k) for p in range(k.n) for q in range(k.n)
        )
        expected = np.zeros((k.n, k.r_active) * 2, dtype=np.int64)
        for key, count in counter.items():
            expected[key] = count
        g = spectral._cooccurrence(k)
        assert g.dtype == np.int64 and np.array_equal(g, expected)

    def test_codes_past_one_byte_are_counted(self):
        # on (1^7) the codes x_p N r + q r + x_q reach N r^2 - 1 = 342, past the levels' one byte
        k = Composition((1,) * 7)
        at = (np.array(slice_vertices(k))[:, :, None] == np.arange(k.r)).astype(np.int64)  # [x, p, a]
        assert np.array_equal(spectral._count_pairs.__wrapped__(k.counts), np.einsum("xpa,xqb->paqb", at, at))

    def test_read_only(self):
        g = spectral._cooccurrence(Composition((2, 1, 1)))
        with pytest.raises(ValueError):
            g[0, 0, 0, 0] += 1

    def test_suite_counts_once_per_slice(self, fresh_bounds):
        spectral._count_pairs.cache_clear()
        assert certification_suite(Composition((1,) * 7)).passed
        info = spectral._count_pairs.cache_info()
        # only (1^7) is counted, and no child, once: the gap's closed-form check, K and P share its count
        assert info.misses == info.currsize == 1 and info.hits == 0

    @pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
    def test_certifier_wakes_no_other_thread(self, fresh_bounds):
        # a float GEMM wakes OpenBLAS's worker threads, which then spin;
        # the certifier makes no float matrix product, so they stay asleep
        spectral._count_pairs.cache_clear()
        time.sleep(0.5)  # let threads woken by earlier tests fall asleep
        before = thread_ticks()
        for k in [c for n in range(2, 8) for c in reduced_compositions(n)]:
            assert gap_certificate(k).passed, k
        assert certification_suite(Composition((1,) * 6)).passed
        spent = sum(t - before.get(tid, 0) for tid, t in thread_ticks().items())
        assert spent <= 2, f"{spent} clock ticks on other threads"


class TestClosedForm:
    """The recursion steps on the closed-form blocks; only the top slice's G is counted, and checked."""

    def test_wide_bound_reads_no_slice(self, monkeypatch, fresh_bounds):
        def no_build(*args, **kwargs):
            raise AssertionError("the recursion read a vertex array, a table or a counted G")

        for module in (core, operators):
            monkeypatch.setattr(module, "_vertex_array", no_build)
            monkeypatch.setattr(module, "_swap_table", no_build)
        monkeypatch.setattr(spectral, "_count_pairs", no_build)
        assert spectral._certified_bound((1, 340)) == (341, 340)

    def test_unsorted_level_order_is_counted_once(self, fresh_bounds):
        # the bound steps on the sorted key, but counts nothing, so G is counted for the slice alone
        spectral._count_pairs.cache_clear()
        assert gap_certificate(Composition((1, 2) + (1,) * 6)).passed
        assert spectral._count_pairs.cache_info().misses == 1

    @staticmethod
    def assert_checks_fail(k: Composition) -> None:
        assert k_certificate(k).details["bruteforce_ok"] is False, k
        assert p_certificate(k).details["values_in_set"] is False, k
        assert gap_certificate(k).float_ok is False, k

    def test_closed_form_without_delta_fails(self, monkeypatch, fresh_bounds):
        # C[a, b] = k_a k_b: the counted G is no longer the closed form anywhere
        def no_delta(k):
            counts = np.array([c for c in k.counts if c], dtype=np.int64)
            return counts, counts[:, None] * counts

        monkeypatch.setattr(spectral, "_level_pairs", no_delta)
        for k in [c for n in range(3, 6) for c in reduced_compositions(n)]:
            self.assert_checks_fail(k)

    def test_count_moved_in_a_diagonal_block_fails(self, monkeypatch, fresh_bounds):
        # one vertex of G[p, a, p, a] moved to G[p, a, p, b], a != b: the blocks
        # S and C that K reads are untouched unless p is the first position
        rng = random.Random(6)
        cooccurrence = spectral._cooccurrence

        def moved(k, budget=None):
            g = cooccurrence(k, budget).copy()
            p, (a, b) = rng.randrange(k.n), rng.sample(range(k.r_active), 2)
            g[p, a, p, a] -= 1
            g[p, a, p, b] += 1
            return g

        monkeypatch.setattr(spectral, "_cooccurrence", moved)
        for k in [c for n in range(3, 6) for c in reduced_compositions(n)]:
            self.assert_checks_fail(k)


class TestInduction:
    def test_three_particles_equality(self):
        rep = induction_audit(Composition((1, 1, 1)))
        assert rep.holds and rep.equality
        assert rep.delta == pytest.approx(3.0)
        assert rep.rhs == pytest.approx(3.0)

    def test_four_particles(self):
        rep = induction_audit(Composition((2, 1, 1)))
        assert rep.holds and rep.equality
        assert rep.delta == pytest.approx(8 / 3)
        # children: (1,1,1) and twice (2,1) after reduction, all with delta 3
        assert rep.rhs == pytest.approx((4 * 2 / 9) * 3)

    def test_trivial_child_skipped(self):
        rep = induction_audit(Composition((1, 3)))
        deltas = dict((m, d) for m, _, d in rep.children)
        assert deltas[0] is None  # removing the singleton level leaves one level
        assert rep.holds and rep.equality

    def test_every_level_order_gives_the_same_details(self, fresh_bounds):
        # the children's witnesses read the blocks of each order's own table;
        # apart from the labels, the level m and the child's counts, the
        # details are those of the sorted order
        def unlabelled(rep):
            children = sorted((spectral._key(Composition.parse(c)), d) for _, c, d in rep.children)
            return rep.delta, children, rep.factor, rep.rhs, rep.holds, rep.equality

        orders = [(1,) * i + (2,) + (1,) * (5 - i) for i in range(6)]
        expected = (7 / 3, [((1,) * 6, 2.4)] + [((1, 1, 1, 1, 2), 2.4)] * 5, "35/36", 7 / 3, True, True)
        assert [unlabelled(induction_audit(Composition(k))) for k in orders] == [expected] * 6

    def test_preconditions(self):
        with pytest.raises(ValueError):
            induction_audit(Composition((1, 1)))
        with pytest.raises(ValueError):
            induction_audit(Composition((2, 0, 1)))

    @pytest.mark.parametrize("counts", [(3, 2, 2), (2, 2, 2, 1), (5, 1, 1)])
    @pytest.mark.parametrize("tol", [spectral.DEFAULT_TOL, 0.0])
    def test_exact_at_seven_particles(self, counts, tol):
        rep = induction_audit(Composition(counts), tol=tol)
        assert rep.delta == 7 / 3
        assert rep.rhs == rep.delta  # (7 * 5 / 36) * (12 / 5) = 7/3, bit for bit
        assert rep.holds and rep.equality

    @pytest.mark.parametrize("failing", [(2, 2), (2, 2, 1)])
    def test_failed_certificate_fails_the_audit(self, monkeypatch, fresh_bounds, failing):
        bound = spectral._gap_bound

        def fooled(counts):
            value, mid = bound(counts)
            return (None, mid) if counts == tuple(sorted(failing)) else (value, mid)

        monkeypatch.setattr(spectral, "_gap_bound", fooled)
        rep = induction_audit(Composition((2, 2, 1)))  # (2,2) is the child of level 2
        assert rep.holds is rep.equality is False
        values = {c: d for _, c, d in rep.children} | {"2,2,1": rep.delta}
        assert math.isnan(values[",".join(map(str, failing))]) and math.isnan(rep.rhs)

    def test_one_table_per_distinct_slice(self, monkeypatch, fresh_bounds):
        built: list[tuple[int, ...]] = []
        swap_table = operators._swap_table

        def counted(counts):
            built.append(counts)
            return swap_table(counts)

        monkeypatch.setattr(operators, "_swap_table", counted)
        rep = induction_audit(Composition((1,) * 8))  # refused by the old dense entry cap
        assert rep.holds and rep.equality and rep.delta == rep.rhs == 16 / 7
        # the slice's member and its children's, on the blocks of the slice's own table
        assert built == [(1,) * 8]
        with pytest.raises(BudgetError):
            induction_audit(Composition((1,) * 8), budget=40319)

    @pytest.mark.parametrize("failing", [(2, 2, 0), (2, 2, 1), (1, 2, 1), (2, 1, 1)])
    def test_member_off_the_gap_fails_the_audit(self, monkeypatch, fresh_bounds, failing):
        # every recursion bound still reaches N; only the upper side, one
        # member's exact eigen equation, sees the perturbed generator, of the
        # slice (2,2,1) or of one child k - e_m in the slice's level labels
        scaled_generators = spectral._scaled_generators

        def perturbed(counts):
            out = scaled_generators(counts)
            if counts == failing:
                out[0, 0] += 1
            return out

        monkeypatch.setattr(spectral, "_scaled_generators", perturbed)
        k = Composition((2, 2, 1))
        rep = induction_audit(k)
        assert rep.holds is rep.equality is False and math.isnan(rep.rhs)
        values = {m: d for m, _, d in rep.children} | {None: rep.delta}  # None: the slice itself
        nan = [m for m, d in values.items() if math.isnan(d)]
        assert nan == ([m for m in range(k.r) if k.decremented(m).counts == failing] or [None])
        assert all(values[m] == (2 * 5 / 4 if m is None else 2 * 4 / 3) for m in values if m not in nan)

    def test_suite_computes_p_counts_once_per_slice(self, monkeypatch, fresh_bounds):
        calls: dict[tuple[int, ...], int] = {}
        cooccurrence = spectral._cooccurrence

        def counted(k, budget=None):
            calls[k.counts] = calls.get(k.counts, 0) + 1
            return cooccurrence(k, budget)

        monkeypatch.setattr(spectral, "_cooccurrence", counted)
        assert certification_suite(Composition((1,) * 7)).passed
        # no child: the recursion steps on the closed form; the slice for the
        # gap's closed-form check, K and P
        assert calls == {(1,) * 7: 1}

    def test_suite_proves_the_graph_and_checks_the_closed_form_once(self, monkeypatch, fresh_bounds):
        proved: list[tuple[int, ...]] = []
        checked: list[tuple[int, ...]] = []
        prove, closed_form_ok = spectral._graph_ok, spectral._closed_form_ok

        def counted_proof(k, varr, table):
            proved.append(k.counts)
            return prove(k, varr, table)

        def counted_check(sl):
            checked.append(sl.k.counts)
            return closed_form_ok(sl)

        monkeypatch.setattr(spectral, "_graph_ok", counted_proof)
        monkeypatch.setattr(spectral, "_closed_form_ok", counted_check)
        assert certification_suite(Composition((2, 2, 1))).passed
        # the slice once: its proof covers the children's blocks, and no
        # certificate reads the sorted counts (1,2,2) of the slice itself
        assert proved == [(2, 2, 1)]
        assert checked == [(2, 2, 1)]


class TestGapCertificate:
    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)])
    def test_small_sweep(self, counts):
        k = Composition(counts)
        cert = gap_certificate(k)
        assert cert.passed and cert.engine == "recursion"
        assert cert.gap == float(k.n)
        assert cert.expected_dimension == (k.n - 1) * (k.r_active - 1)
        assert cert.nullity_upper_bound == cert.expected_dimension
        assert cert.family_rank == cert.expected_dimension

    def test_unreduced_input(self):
        cert = gap_certificate(Composition((2, 0, 2)))
        assert cert.passed
        assert cert.expected_dimension == 3
        assert any("reduced" in note for note in cert.notes)

    def test_recursion_agrees_with_bareiss_and_eigvalsh(self):
        for k in [c for n in range(2, 7) for c in reduced_compositions(n)]:
            n = k.n
            cert = gap_certificate(k)
            assert cert.passed, k
            if n <= 5:
                assert cert.nullity_upper_bound == exact_nullity(laplacian_dense(k), shift=n), k
            vals = np.linalg.eigvalsh(laplacian_dense(k).astype(np.float64))
            zero, at_gap = np.abs(vals) < 0.25, np.abs(vals - n) < 0.25
            assert zero.sum() == 1 and at_gap.sum() == cert.nullity_upper_bound, k
            # nothing in (0, N), and the next eigenvalue above N is at least N + 1/2
            assert np.all(vals[~zero & ~at_gap] >= n + 0.5), k

    def test_perturbed_member_fails_the_exact_action(self, monkeypatch, fresh_bounds):
        # one entry of one scaled generator moved by 1: it is no longer
        # nu-centered, and the oracle's Laplacian agrees that its members leave N
        rng = random.Random(7)
        scaled_generators = spectral._scaled_generators  # the certificates' one source of N g
        perturbed_gens = []

        def perturbed(counts):
            out = scaled_generators(counts)
            out[rng.randrange(out.shape[0]), rng.randrange(out.shape[1])] += 1
            perturbed_gens.append(out)
            return out

        monkeypatch.setattr(spectral, "_scaled_generators", perturbed)
        for k in [c for n in range(2, 7) for c in reduced_compositions(n)]:
            cert = gap_certificate(k)
            assert not cert.eigen_equations_exact and not cert.passed, k
            # the bound step does not read the family, so it still reaches N
            assert cert.float_ok and not cert.dimension_certified and math.isnan(cert.gap), k
            if k.n <= 5:
                levels = np.array(list(vertices(k)))
                members = np.array([g[levels[:, pos]] for g in perturbed_gens[-1] for pos in range(k.n - 1)])
                assert not np.array_equal(laplacian_rows(k, members), k.n * members), k

    @pytest.mark.parametrize(
        "shift",
        [(-1, 0), (0, 1)],
        ids=["value-outside-the-set", "one-not-simple"],
    )
    def test_p_counts_that_break_the_bound_fail(self, monkeypatch, fresh_bounds, shift):
        # the slice's count of K at -1/(N-1) is one short, so K's counts sum
        # to r - 1 and some eigenvalue of P lies outside the set; or K's
        # count at 1, P's count at 1, is 2
        def fault(s, c, n, low, one):
            return low + shift[0], one + shift[1]

        for k, p_cert, k_cert, gap_cert in faulty_certificates(monkeypatch, fault):
            assert not p_cert.passed and not p_cert.details["values_in_set"], k
            assert p_cert.details["one_simple"] is (shift[1] == 0), k
            assert not k_cert.passed and not k_cert.details["spectrum_ok"], k
            assert_bound_fails(k, gap_cert)

    @pytest.mark.parametrize(
        "fault, every",
        [(lambda b: b - Fraction(1, 10), False), (lambda b: None, False), (lambda b: b + 1, True)],
        ids=["one-below-n-minus-one", "one-failed", "all-above-n-minus-one"],
    )
    def test_faulty_child_bounds_fail(self, monkeypatch, fresh_bounds, fault, every):
        # one child's bound below N - 1 or failed cannot prove N, whichever
        # child it is; all children above N - 1 would prove more than the
        # family at N allows
        bound = spectral._gap_bound
        for k in [c for n in range(3, 6) for c in reduced_compositions(n)]:
            children = [c for c in {spectral._key(k.decremented(m)) for m in range(k.r)} if len(c) > 1]
            for faulty_children in [set(children)] if every else [{c} for c in children]:
                spectral._gap_bound.cache_clear()

                def faulty(counts, faulty_children=faulty_children):
                    value, mid = bound(counts)
                    return (fault(value), mid) if counts in faulty_children else (value, mid)

                with monkeypatch.context() as patch:
                    patch.setattr(spectral, "_gap_bound", faulty)
                    cert = gap_certificate(k)
                assert cert.eigen_equations_exact and not cert.float_ok and not cert.passed, (k, faulty_children)

    def test_p_count_off_by_one_fails_the_dimension(self, monkeypatch, fresh_bounds):
        # K's count at -1/(N-1) one too many: P's count at 1/(N-1) is N - 1
        # above the dimension, and K's counts sum to r + 1, so the set fails too.
        # P's counts come from K's two, so no single miscount can move P's
        # count at 1/(N-1) while the set still checks
        def fault(s, c, n, low, one):
            return low + 1, one

        for k, p_cert, k_cert, gap_cert in faulty_certificates(monkeypatch, fault):
            details = p_cert.details
            assert details["gap_multiplicity"] == details["expected_multiplicity"] + k.n - 1, k
            assert not p_cert.passed and not details["values_in_set"], k
            assert not k_cert.passed and not k_cert.details["spectrum_ok"], k
            assert_bound_fails(k, gap_cert)
            assert not gap_cert.dimension_certified, k

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            gap_certificate(Composition((3,)))

    def test_bound_depth_does_not_grow_with_n(self, fresh_bounds):
        # one recursion level per particle would need some 200 frames here;
        # evaluated smallest N first, the bound needs a few whatever N is
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            assert spectral._certified_bound((1, 200)) == (201, 200)
        finally:
            sys.setrecursionlimit(limit)

    def test_warm_bound_builds_no_slice(self, monkeypatch, fresh_bounds):
        # the sub-slice lattice is memoized, not rebuilt on every call
        cold = spectral._certified_bound((1, 2, 3))

        def no_build(self, counts):
            raise AssertionError("built a Composition on a warm memo")

        monkeypatch.setattr(Composition, "__init__", no_build)
        assert spectral._certified_bound((1, 2, 3)) == cold == (6, 10)

    def test_table_entry_cap_refuses_before_allocating(self, monkeypatch, fresh_bounds):
        def no_build(*args, **kwargs):
            raise AssertionError("built an array of |V| rows, or counted G, above the table entry cap")

        def entries(counts):
            k = Composition(counts)
            return k.cardinality() * math.comb(k.n, 2)

        # (1^9), 362,880 vertices, is admitted; (5,5,5), 756,756 vertices, is not
        assert entries((1,) * 9) <= core.TABLE_ENTRY_CAP < entries((5, 5, 5))
        for module in (core, operators):  # operators holds its own binding of core's builder
            monkeypatch.setattr(module, "_vertex_array", no_build)
        monkeypatch.setattr(spectral, "_cooccurrence", no_build)
        monkeypatch.setattr(spectral, "_count_pairs", no_build)
        with pytest.raises(BudgetError, match="entries"):
            gap_certificate(Composition((5, 5, 5)))
        core._swap_table.cache_clear()  # a table built before would skip the check
        monkeypatch.setattr(core, "TABLE_ENTRY_CAP", 8)
        with pytest.raises(BudgetError, match="entries"):
            gap_certificate(Composition((2, 1)))  # 3 vertices x 3 pairs


class TestFamilyOracle:
    """The family read off G against the family built on the listed vertices."""

    @staticmethod
    def check(k: Composition) -> None:
        # every built member lies at N under the oracle's Laplacian, and the
        # rank that gap_certificate reads off G is Bareiss's on the built family
        basis = gap_eigenbasis(k)
        family_rows = int_matrix(basis)
        assert np.array_equal(laplacian_rows(k, family_rows), k.n * family_rows), k
        gram = family_rows @ family_rows.T  # entries at most N^2 |V|
        assert gap_certificate(k).family_rank == fraction_free_rank(gram.tolist(), cap=None), k

    def test_every_slice_up_to_seven(self):
        slices = [c for n in range(2, 8) for c in reduced_compositions(n)]
        assert len(slices) == 120
        for k in slices:
            self.check(k)

    @pytest.mark.parametrize("counts", [(1,) * 8, (2,) + (1,) * 6], ids=str)
    def test_large(self, counts):
        self.check(Composition(counts))

    def test_family_checks_trace_under_a_mebibyte(self):
        # with the table, the graph proof and the recursion bound (which
        # counts G for (1^8) and its children) built first, the gap and P
        # certificates do r x r work only; the 49 x 40,320 family alone
        # would take 15 MiB as int64
        k = Composition((1,) * 8)
        assert spectral.CertifiedSlice.build(k).graph_ok
        spectral._cooccurrence(k)
        spectral._certified_bound(spectral._key(k))
        tracemalloc.start()
        try:
            assert gap_certificate(k).passed and p_certificate(k).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"traced peak {peak / 2**20:.2f} MiB"


class TestReduceInvariance:
    def test_spectra_match(self):
        a = np.linalg.eigvalsh(laplacian_dense(Composition((2, 0, 2))).astype(float))
        b = np.linalg.eigvalsh(laplacian_dense(Composition((2, 2))).astype(float))
        assert np.allclose(a, b)


class TestSuite:
    def test_two_particles(self):
        rep = certification_suite(Composition((1, 1)))
        assert rep.passed
        names = {c.name: c.passed for c in rep.certificates}
        assert names["gap-and-eigenbasis"] is True
        assert names["projection-average"] is None  # needs N >= 3
        assert names["induction"] is None

    def test_four_particles(self):
        rep = certification_suite(Composition((2, 1, 1)))
        assert rep.passed
        assert rep.gap == 4.0
        assert rep.gap_multiplicity == 6
        assert all(c.passed for c in rep.certificates)

    def test_trivial(self):
        rep = certification_suite(Composition((4,)))
        assert rep.trivial and rep.passed and rep.certificates == ()


def test_gap_matches_across_reduced_compositions_n5():
    for k in reduced_compositions(5):
        assert spectral_gap(k) == 5.0
