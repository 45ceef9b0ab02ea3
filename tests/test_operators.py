"""The Laplacian, the identity kernel, and the oracles' forms, projections and correlations."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multislice import operators
from multislice.core import Composition, reduced_compositions, vertices
from multislice.operators import (
    _exact_dtype,
    _identity_verdicts,
    identity_audit,
    laplacian,
    laplacian_dense,
    measure_decomposition_check,
    transposition_pairs,
    transposition_table,
    vertex_array,
    write_coo,
)
from multislice.spectral import _level_pairs, centered_level_basis, gap_eigenbasis
from oracles import (
    all_compositions,
    average_projection,
    correlation_form_bruteforce,
    dirichlet_graph,
    dirichlet_restricted,
    dirichlet_scaled,
    family,
    laplacian_action,
    mu_inner,
    neighbors,
    project_onto_coordinate,
    vertex_rank,
)


def random_rational(rng: random.Random, size: int) -> list[Fraction]:
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(size)]


class TestLaplacian:
    def test_two_vertices(self):
        assert laplacian_dense(Composition((1, 1))).tolist() == [[1, -1], [-1, 1]]

    def test_complete_graph_case(self):
        # one level holding all but one particle: the complete graph on N vertices
        n = 5
        k = Composition((n - 1, 1))
        lap = laplacian_dense(k)
        want = n * np.eye(n, dtype=np.int64) - np.ones((n, n), dtype=np.int64)
        assert np.array_equal(lap, want)

    def test_dense_matches_a_brute_force_build(self):
        for k in [c for n in range(1, 6) for r in range(1, 4) for c in all_compositions(n, r)]:
            want = np.zeros((k.cardinality(), k.cardinality()), dtype=np.int64)
            for x in vertices(k):
                v = vertex_rank(x, k)
                for y in neighbors(x):
                    want[v, vertex_rank(y, k)] -= 1
                    want[v, v] += 1
            assert np.array_equal(laplacian_dense(k), want), k

    @pytest.mark.parametrize("counts", [(2, 1, 1), (2, 2), (1, 1, 1), (2, 0, 2)])
    def test_structure(self, counts):
        k = Composition(counts)
        lap = laplacian_dense(k)
        assert np.array_equal(lap, lap.T)
        assert np.all(lap.sum(axis=1) == 0)
        assert np.all(lap.diagonal() == k.degree())
        off = lap[~np.eye(lap.shape[0], dtype=bool)]
        assert set(np.unique(off)) <= {-1, 0}
        vals = np.linalg.eigvalsh(lap.astype(np.float64))
        assert vals.min() > -1e-9

    def test_table_row_content(self):
        k = Composition((2, 1))
        table = transposition_table(k)
        assert table.shape == (3, 3)
        # every row: one self entry (the equal-pair swap) and both neighbors
        for v in range(3):
            row = set(table[v].tolist())
            assert row == {0, 1, 2}


def exact_action(k: Composition, f: list) -> list[Fraction]:
    """The dense integer Laplacian applied to ``f`` in Fractions."""
    return [sum((int(a) * v for a, v in zip(row, f)), Fraction(0)) for row in laplacian_dense(k)]


class TestApplyLaplacian:
    """The dense Laplacian acts as the oracle's neighbor sums."""

    def test_constant_in_kernel(self):
        k = Composition((2, 2))
        assert not (laplacian_dense(k) @ np.full(6, 3)).any()
        assert laplacian_action(k, [3] * 6) == [0] * 6

    def test_matrix_free_equals_matrix(self):
        rng = random.Random(0)
        for counts in [(2, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            k = Composition(counts)
            f = random_rational(rng, k.cardinality())
            assert laplacian_action(k, f) == exact_action(k, f), counts

    def test_float_path(self):
        # the COO triple applied to a float function, as an exported sparse matrix is
        k = Composition((2, 1, 1))
        f = np.random.default_rng(1).standard_normal(k.cardinality())
        rows, cols, values = laplacian(k)
        got = np.bincount(rows, weights=values * f[cols], minlength=len(f))
        assert np.allclose(got, laplacian_dense(k) @ f)

    def test_gap_eigenfunction(self):
        # single-coordinate centered level functions satisfy Lf = N f exactly
        k = Composition((2, 1, 1))
        g = centered_level_basis(k)[0]
        f = np.array([int(k.n * g[x[1]]) for x in vertices(k)])
        assert np.array_equal(laplacian_dense(k) @ f, k.n * f)


class TestDirichletForms:
    def test_constants_vanish(self):
        k = Composition((2, 1, 1))
        c = [Fraction(5)] * k.cardinality()
        assert dirichlet_graph(k, c) == 0
        assert dirichlet_scaled(k, c) == 0
        assert dirichlet_restricted(k, c, 0, 0) == 0

    def test_two_vertex_values(self):
        k = Composition((1, 1))
        f = [Fraction(1), Fraction(-1)]  # normalized in L^2(mu)
        assert mu_inner(k, f, f) == 1
        assert dirichlet_graph(k, f) == 2
        assert dirichlet_scaled(k, f) == 4

    def test_graph_form_is_quadratic_form_of_laplacian(self):
        k = Composition((2, 1))
        rng = random.Random(2)
        for _ in range(10):
            f = random_rational(rng, 3)
            assert dirichlet_graph(k, f) == mu_inner(k, f, exact_action(k, f))

    @pytest.mark.parametrize("counts", [(2, 1), (2, 2), (1, 1, 1), (2, 1, 1)])
    def test_scaling_relation(self, counts):
        k = Composition(counts)
        rng = random.Random(3)
        f = random_rational(rng, k.cardinality())
        assert dirichlet_scaled(k, f) == Fraction(2, k.n - 1) * dirichlet_graph(k, f)

    def test_restricted_ignores_functions_of_the_position(self):
        k = Composition((2, 1, 1))
        g = centered_level_basis(k)[0]
        f = [g[x[2]] for x in vertices(k)]
        # swaps avoiding position 2 never change x_2, so the form vanishes
        for m in range(k.r):
            assert dirichlet_restricted(k, f, 2, m) == 0


class TestProjections:
    def test_fixes_functions_of_coordinate(self):
        k = Composition((2, 2))
        f = [Fraction(3) if x[1] == 1 else Fraction(-1) for x in vertices(k)]
        assert project_onto_coordinate(k, f, 1) == f

    def test_constant_fixed(self):
        k = Composition((2, 1))
        f = [Fraction(7)] * 3
        assert project_onto_coordinate(k, f, 0) == f
        assert average_projection(k, f) == f

    def test_idempotent_and_selfadjoint(self):
        k = Composition((2, 1, 1))
        rng = random.Random(4)
        f = random_rational(rng, k.cardinality())
        h = random_rational(rng, k.cardinality())
        for pos in range(k.n):
            pf = project_onto_coordinate(k, f, pos)
            assert project_onto_coordinate(k, pf, pos) == pf
            ph = project_onto_coordinate(k, h, pos)
            assert mu_inner(k, pf, h) == mu_inner(k, f, ph)

    def test_average_projection_eigenfunction(self):
        k = Composition((2, 2))
        basis = gap_eigenbasis(k)
        for f in family(basis):
            got = average_projection(k, f)
            assert got == [Fraction(1, k.n - 1) * v for v in f]

    def test_average_projection_contraction(self):
        k = Composition((2, 1, 1))
        rng = random.Random(5)
        f = random_rational(rng, k.cardinality())
        assert mu_inner(k, f, average_projection(k, f)) <= mu_inner(k, f, f)

    def test_matrix_matches_exact(self):
        # the block sums the kernel and P's certificate use, on the rows of the
        # identity, give P_pos's matrix, which acts as the oracle's projection
        k = Composition((2, 1, 1))
        f = random_rational(random.Random(6), k.cardinality())
        units = np.eye(k.cardinality(), dtype=np.int64)
        for pos in range(k.n):
            sizes, sums = operators._coordinate_blocks(units, vertex_array(k), pos, k.r)
            mat = [[Fraction(int(s), int(z)) for s in block] for block, z in zip(sums.T, sizes)]
            assert [sum(a * v for a, v in zip(row, f)) for row in mat] == project_onto_coordinate(k, f, pos)


def correlation_matrix(k: Composition) -> list[list[Fraction]]:
    """K = S^-1 C on the occupied levels, from the certificate's closed-form
    blocks s_a = (N-1) k_a and C[a, b] = k_a (k_b - delta_ab)."""
    counts, pairs = _level_pairs(k)
    return [[Fraction(int(c), (k.n - 1) * int(a)) for c in row] for a, row in zip(counts, pairs)]


class TestCorrelationOperator:
    """The closed-form correlation operator K against the brute-force count."""

    def test_two_level_swap(self):
        assert correlation_matrix(Composition((1, 1))) == [[0, 1], [1, 0]]

    def test_constants_fixed(self):
        assert [sum(row) for row in correlation_matrix(Composition((2, 1, 1)))] == [1, 1, 1]

    def test_centered_scaled(self):
        k = Composition((2, 1, 1))
        mat = correlation_matrix(k)
        for g in centered_level_basis(k):
            assert [sum(a * b for a, b in zip(row, g)) for row in mat] == [-v / (k.n - 1) for v in g]

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (2, 1, 1), (2, 0, 2), (3, 2)])
    def test_nu_selfadjoint(self, counts):
        k = Composition(counts)
        mat = correlation_matrix(k)
        nu = [Fraction(c, k.n) for c in k.counts if c]
        for a in range(len(nu)):
            for b in range(len(nu)):
                assert nu[a] * mat[a][b] == nu[b] * mat[b][a]

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (2, 1, 1), (2, 2), (1, 1, 1)])
    def test_bruteforce_agreement(self, counts):
        k = Composition(counts)
        mat = correlation_matrix(k)
        for a in range(k.r):
            for b in range(k.r):
                e_a, e_b = [int(m == a) for m in range(k.r)], [int(m == b) for m in range(k.r)]
                assert correlation_form_bruteforce(k, e_a, e_b) == Fraction(k.counts[a], k.n) * mat[a][b]

    def test_form_equals_nu_inner_with_matrix(self):
        k = Composition((2, 2))
        rng = random.Random(6)
        g = random_rational(rng, k.r)
        h = random_rational(rng, k.r)
        kh = [sum(a * b for a, b in zip(row, h)) for row in correlation_matrix(k)]
        assert correlation_form_bruteforce(k, g, h) == sum(Fraction(c, k.n) * a * b for c, a, b in zip(k.counts, g, kh))


class TestInsertDelete:
    """Deleting a position: the blocks of a slice are copies of its children."""

    def test_partition_bijection(self):
        # the blocks {x : x_pos = m} partition the slice, and deleting pos maps
        # each block onto the child slice k - e_m, rank order kept
        k = Composition((2, 2, 1))
        assert sum(k.decremented(m).cardinality() for m in range(k.r)) == k.cardinality()
        varr = vertex_array(k)
        for pos in range(k.n):
            for m in range(k.r):
                block = varr[varr[:, pos] == m]
                assert np.array_equal(np.delete(block, pos, axis=1), vertex_array(k.decremented(m)))


class TestMeasures:
    def test_values(self):
        # under the uniform measure on 12 vertices, every coordinate has law nu(m) = k_m / N
        k = Composition((2, 1, 1))
        varr = vertex_array(k)
        assert len(varr) == 12
        for pos in range(k.n):
            assert [Fraction(int(c), 12) for c in np.bincount(varr[:, pos])] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1, 1), (3, 2), (2, 0, 2)])
    def test_decomposition(self, counts):
        assert measure_decomposition_check(Composition(counts))


def oracle_verdicts(k: Composition, f: list[Fraction], moved: bool = False):
    """The three identities for one rational f from the oracles' Fraction forms;
    ``moved`` projects onto coordinate (pos + 1) % N in place of pos."""
    n, pairs = k.n, transposition_pairs(k.n)
    averaging = True
    for x, row in enumerate(transposition_table(k).tolist()):
        sq = [(f[y] - f[x]) ** 2 for y in row]
        avoiding = [
            Fraction(sum(v for v, p in zip(sq, pairs) if pos not in p), math.comb(n - 1, 2))
            for pos in range(n)
        ]
        averaging &= Fraction(sum(sq), len(pairs)) == sum(avoiding) / n
    shift = np.zeros((n, k.r), dtype=bool)
    rhs = Fraction(0)
    for pos in range(n):
        shifted = [a - b for a, b in zip(f, project_onto_coordinate(k, f, (pos + moved) % n))]
        for m, c in enumerate(k.counts):
            term = dirichlet_restricted(k, shifted, pos, m)
            shift[pos, m] = term == dirichlet_restricted(k, f, pos, m)
            rhs += Fraction(c, n * (n - 1)) * term
    return averaging, shift, dirichlet_scaled(k, f) == rhs


class RecordingDtype:
    """Stands in for ``_exact_dtype`` and keeps every dtype it hands out."""

    def __init__(self):
        self.chosen = []

    def __call__(self, bound, count):
        self.chosen.append(_exact_dtype(bound, count))
        return self.chosen[-1]


def rational_verdicts(k: Composition, fs: list[list[Fraction]]):
    """The kernel's verdicts on rational functions, each scaled by the lcm of
    its denominators: the identities are homogeneous of degree 2 in f."""
    rows = []
    for f in fs:
        den = math.lcm(*(v.denominator for v in f))
        rows.append([int(v * den) for v in f])
    return _identity_verdicts(np.array(rows, dtype=object), transposition_table(k), vertex_array(k), k.r)


class TestExactIdentities:
    @pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 1, 1), (2, 2)])
    def test_averaging_identity(self, counts):
        k = Composition(counts)
        rng = random.Random(7)
        fs = [random_rational(rng, k.cardinality()) for _ in range(5)]
        assert rational_verdicts(k, fs)[0].all()

    @pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 1, 1), (2, 2), (1, 1, 1, 1, 1), (3, 2, 1)])
    def test_averaging_cannot_fail(self, counts):
        # each swap avoids N-2 positions and N C(N-1,2) = (N-2) C(N,2), so
        # averaging holds on a random table too, where shift fails
        k = Composition(counts)
        rng = np.random.default_rng(5)
        table = rng.integers(0, k.cardinality(), size=transposition_table(k).shape)
        g = rng.integers(-50, 51, size=(4, k.cardinality()))
        averaging, shift, _ = _identity_verdicts(g, table, vertex_array(k), k.r)
        assert averaging.all()
        assert not shift.all(axis=(1, 2)).any()

    @pytest.mark.parametrize("counts", [(2, 1), (2, 1, 1), (2, 2)])
    def test_shift_identity(self, counts):
        k = Composition(counts)
        rng = random.Random(8)
        shift = rational_verdicts(k, [random_rational(rng, k.cardinality())])[1]
        assert shift.shape == (1, k.n, k.r) and shift.all()

    @pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 1, 1), (2, 2)])
    def test_decomposition_identity(self, counts):
        k = Composition(counts)
        rng = random.Random(9)
        fs = [random_rational(rng, k.cardinality()) for _ in range(3)]
        assert rational_verdicts(k, fs)[2].all()

    def test_identity_audit(self):
        k = Composition((2, 1))
        rep = identity_audit(k, n_functions=25, seed=0)
        assert rep["applicable"]
        assert rep["measure_decomposition_ok"]
        assert rep["averaging_ok"] == 25
        assert rep["shift_ok"] == 25
        assert rep["decomposition_ok"] == 25

    def test_audit_redraws_constant_functions(self, monkeypatch):
        # on (2,1) at seed 0 draw 7 is constant, which satisfies every identity
        # even with the projection moved to coordinate (pos + 1) % N
        blocks = operators._coordinate_blocks
        monkeypatch.setattr(
            operators,
            "_coordinate_blocks",
            lambda vals, varr, pos, r: blocks(vals, varr, (pos + 1) % varr.shape[1], r),
        )
        rep = identity_audit(Composition((2, 1)), n_functions=20, seed=0)
        assert rep["shift_ok"] == 0
        assert rep["decomposition_ok"] == 0

    def test_identity_audit_two_particles(self):
        rep = identity_audit(Composition((1, 1)), n_functions=5)
        assert not rep["applicable"]
        assert rep["measure_decomposition_ok"]

    def test_audit_agrees_with_slow_path(self, monkeypatch):
        # the integer kernel against the oracles' Fraction forms on every
        # reduced slice with 3 <= N <= 5, then with the projection moved to
        # coordinate (pos + 1) % N on both sides, where shift and
        # decomposition must fail
        blocks = operators._coordinate_blocks
        rng = random.Random(11)
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(
                    operators,
                    "_coordinate_blocks",
                    lambda vals, varr, pos, r: blocks(vals, varr, (pos + 1) % varr.shape[1], r),
                )
            for k in [k for n in range(3, 6) for k in reduced_compositions(n)]:
                fs = [random_rational(rng, k.cardinality()) for _ in range(3)]
                g = np.array([[int(v * 60) for v in f] for f in fs])
                table, varr = transposition_table(k), vertex_array(k)
                averaging, shift, decomposition = _identity_verdicts(g, table, varr, k.r)
                for i, f in enumerate(fs):
                    oracle = oracle_verdicts(k, f, moved=patched)
                    assert averaging[i] == oracle[0]
                    assert np.array_equal(shift[i], oracle[1])
                    assert decomposition[i] == oracle[2]
                    assert averaging[i]
                    assert shift[i].all() != patched
                    assert decomposition[i] != patched

    def test_audit_square_sums_past_int64(self, monkeypatch):
        # |g| = 2^29 on (1^4): the decomposition's sum (N-2) lcm sum(sq)
        # passes 2^63, so the kernel must sum in Python ints
        k = Composition((1, 1, 1, 1))
        table = transposition_table(k)
        g = np.where(np.arange(k.cardinality()) % 3, 2**29, -(2**29))
        lcm = math.factorial(3) ** 2
        rows = zip(g.tolist(), g[table].tolist())
        exact = 2 * lcm * sum((b - a) ** 2 for a, row in rows for b in row)
        with np.errstate(over="ignore"):
            wrapped = int(2 * lcm * np.sum((g[table] - g[:, None]) ** 2))
        assert exact >= 2**63 and wrapped != exact
        recording = RecordingDtype()
        monkeypatch.setattr(operators, "_exact_dtype", recording)
        averaging, shift, decomposition = _identity_verdicts(g[None], table, vertex_array(k), k.r)
        assert object in recording.chosen
        assert averaging.all() and shift.all() and decomposition.all()

    def test_audit_stays_int64_through_n6(self, monkeypatch):
        # at the audit's bound |g| <= 1200 every sum of the kernel fits int64
        # on every slice up to N = 6
        recording = RecordingDtype()
        monkeypatch.setattr(operators, "_exact_dtype", recording)
        for k in reduced_compositions(6):
            g = np.where(np.arange(k.cardinality()) % 2, 1200, -1200)
            table, varr = transposition_table(k), vertex_array(k)
            assert _identity_verdicts(g[None], table, varr, k.r)[2].all()
        assert recording.chosen and all(d is np.int64 for d in recording.chosen)

    def test_identities_take_python_ints_past_int64(self, monkeypatch):
        # numerators near 2^40: squared differences pass 2^63 after the
        # denominators are cleared, where int64 would wrap
        k = Composition((2, 1, 1))
        rng = random.Random(5)
        f = [Fraction(2**40 + rng.randint(-1000, 1000), rng.randint(1, 5)) for _ in range(12)]
        recording = RecordingDtype()
        monkeypatch.setattr(operators, "_exact_dtype", recording)
        averaging, shift, decomposition = rational_verdicts(k, [f])
        assert averaging.all() and shift.all() and decomposition.all()
        assert object in recording.chosen


class TestExport:
    def test_write_coo_dense_and_sparse(self):
        k = Composition((1, 1))
        buf = io.StringIO()
        assert write_coo(laplacian(k), buf) == 4
        assert buf.getvalue().splitlines() == ["0 0 1", "0 1 -1", "1 0 -1", "1 1 1"]
        # the triple lists the dense matrix's nonzeros in row-major order
        k = Composition((2, 1, 1))
        dense = laplacian_dense(k)
        rows, cols = np.nonzero(dense)
        want = [f"{r} {c} {v}" for r, c, v in zip(rows, cols, dense[rows, cols])]
        buf = io.StringIO()
        write_coo(laplacian(k), buf)
        assert buf.getvalue().splitlines() == want


def test_transposition_pairs_order():
    assert transposition_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    assert len(transposition_pairs(6)) == math.comb(6, 2)
