"""Laplacian, Dirichlet forms, projections, and the correlation operator."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multislice import operators
from multislice.core import (
    Composition,
    all_compositions,
    neighbors,
    reduced_compositions,
    vertex_rank,
    vertices,
)
from multislice.operators import (
    _exact_dtype,
    _identity_verdicts,
    apply_laplacian,
    apply_level_correlation,
    average_projection,
    averaging_identity_ok,
    correlation_form_bruteforce,
    delete_at,
    dirichlet_decomposition_ok,
    dirichlet_graph,
    dirichlet_restricted,
    dirichlet_scaled,
    identity_audit,
    insert_at,
    laplacian,
    laplacian_dense,
    level_correlation_matrix,
    measure_decomposition_check,
    measures,
    mu_inner,
    nu_inner,
    project_onto_coordinate,
    shift_identity_ok,
    transposition_pairs,
    transposition_table,
    vertex_array,
    write_coo,
)
from multislice.spectral import centered_level_basis, gap_eigenbasis
from multislice.walk import transition_expectation


def random_rational(rng: random.Random, size: int) -> list[Fraction]:
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(size)]


#: Every composition with N <= 5, empty levels allowed.
UP_TO_FIVE = st.sampled_from(
    [k for n in range(1, 6) for r in range(1, n + 1) for k in all_compositions(n, r)]
)


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


def exact_and_float_results(k: Composition, f: list, h: list):
    """(name, exact result, float-array result) of every vertex-function operator."""
    ff, hh = np.array([float(v) for v in f]), np.array([float(v) for v in h])
    yield "apply_laplacian", apply_laplacian(k, f), apply_laplacian(k, ff)
    yield "dirichlet_graph", dirichlet_graph(k, f), dirichlet_graph(k, ff)
    yield "average_projection", average_projection(k, f), average_projection(k, ff)
    yield "mu_inner", mu_inner(k, f, h), mu_inner(k, ff, hh)
    for p in range(k.n):
        yield "project_onto_coordinate", project_onto_coordinate(k, f, p), project_onto_coordinate(k, ff, p)
    if k.n >= 2:
        yield "dirichlet_scaled", dirichlet_scaled(k, f), dirichlet_scaled(k, ff)
        yield "transition_expectation", transition_expectation(k, f), transition_expectation(k, ff)
    if k.n >= 3:
        for p in range(k.n):
            for m in k.active_levels:
                yield "dirichlet_restricted", dirichlet_restricted(k, f, p, m), dirichlet_restricted(k, ff, p, m)


class TestOneArithmeticPath:
    """The exact and the float arithmetic run one body per operator; on
    rational input the exact results must be Fractions (an int/int division
    would turn them into floats) and agree with the float-array results."""

    @settings(max_examples=80, deadline=None)
    @given(UP_TO_FIVE, st.data())
    def test_exact_matches_float(self, k, data):
        size = k.cardinality()
        nums = st.lists(st.integers(-20, 20), min_size=size, max_size=size)
        dens = st.lists(st.integers(1, 5), min_size=size, max_size=size)
        rational = [Fraction(a, b) for a, b in zip(data.draw(nums), data.draw(dens))]
        integral = data.draw(nums)
        h = [Fraction(a, b) for a, b in zip(data.draw(nums), data.draw(dens))]
        for f in (rational, integral):
            for name, exact, approx in exact_and_float_results(k, f, h):
                if isinstance(approx, np.ndarray):
                    assert isinstance(exact, list), name
                else:
                    assert isinstance(approx, float), name
                    exact, approx = [exact], [approx]
                assert all(type(v) is Fraction for v in exact), name
                assert np.allclose([float(v) for v in exact], approx, rtol=1e-9, atol=1e-9), name


class TestApplyLaplacian:
    def test_constant_in_kernel(self):
        k = Composition((2, 2))
        out = apply_laplacian(k, [Fraction(3)] * 6)
        assert all(v == 0 for v in out)

    def test_matrix_free_equals_matrix(self):
        k = Composition((2, 1))
        rng = random.Random(0)
        f = random_rational(rng, 3)
        lap = laplacian_dense(k)
        want = [sum(Fraction(int(lap[i, j])) * f[j] for j in range(3)) for i in range(3)]
        assert apply_laplacian(k, f) == want

    def test_float_path(self):
        k = Composition((2, 1, 1))
        rng = np.random.default_rng(1)
        f = rng.standard_normal(k.cardinality())
        got = apply_laplacian(k, f)
        want = laplacian_dense(k).astype(np.float64) @ f
        assert np.allclose(got, want)

    def test_gap_eigenfunction(self):
        # single-coordinate centered level functions satisfy Lf = N f exactly
        k = Composition((2, 1, 1))
        g = centered_level_basis(k)[0]
        varr = [x for x in vertices(k)]
        f = [g[x[1]] for x in varr]
        assert apply_laplacian(k, f) == [k.n * v for v in f]


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
            lf = apply_laplacian(k, f)
            assert dirichlet_graph(k, f) == mu_inner(k, f, lf)

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

    def test_restricted_errors(self):
        with pytest.raises(ValueError):
            dirichlet_restricted(Composition((1, 1)), [1, -1], 0, 0)
        k = Composition((2, 0, 2))
        with pytest.raises(ValueError):
            dirichlet_restricted(k, [0] * 6, 0, 1)


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
        for f in basis.vectors():
            got = average_projection(k, f)
            assert got == [Fraction(1, k.n - 1) * v for v in f]

    def test_average_projection_contraction(self):
        k = Composition((2, 1, 1))
        rng = random.Random(5)
        f = random_rational(rng, k.cardinality())
        assert mu_inner(k, f, average_projection(k, f)) <= mu_inner(k, f, f)

    def test_matrix_matches_exact(self):
        # float P assembled from unit vectors acts like the exact path
        k = Composition((2, 1))
        mat = np.column_stack([average_projection(k, e) for e in np.eye(k.cardinality())])
        f = [Fraction(1), Fraction(2), Fraction(4)]
        want = average_projection(k, f)
        got = mat @ np.array([float(v) for v in f])
        assert np.allclose(got, [float(v) for v in want])


class TestCorrelationOperator:
    def test_two_level_swap(self):
        k = Composition((1, 1))
        assert level_correlation_matrix(k) == [
            [Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(0)],
        ]

    def test_constants_fixed(self):
        k = Composition((2, 1, 1))
        ones = [Fraction(1)] * k.r
        assert apply_level_correlation(k, ones) == ones

    def test_centered_scaled(self):
        k = Composition((2, 1, 1))
        for g in centered_level_basis(k):
            want = [Fraction(-1, k.n - 1) * v for v in g]
            assert apply_level_correlation(k, list(g)) == want

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (2, 1, 1), (2, 0, 2), (3, 2)])
    def test_nu_selfadjoint(self, counts):
        k = Composition(counts)
        mat = level_correlation_matrix(k)
        nu = measures(k).nu
        for a in range(k.r):
            for b in range(k.r):
                assert nu[a] * mat[a][b] == nu[b] * mat[b][a]

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1), (2, 1, 1), (2, 2), (1, 1, 1)])
    def test_bruteforce_agreement(self, counts):
        k = Composition(counts)
        mat = level_correlation_matrix(k)
        nu = measures(k).nu
        for a in range(k.r):
            ga = [Fraction(int(m == a)) for m in range(k.r)]
            for b in range(k.r):
                hb = [Fraction(int(m == b)) for m in range(k.r)]
                assert correlation_form_bruteforce(k, ga, hb) == nu[a] * mat[a][b]

    def test_form_equals_nu_inner_with_matrix(self):
        k = Composition((2, 2))
        rng = random.Random(6)
        g = random_rational(rng, k.r)
        h = random_rational(rng, k.r)
        assert correlation_form_bruteforce(k, g, h) == nu_inner(k, g, apply_level_correlation(k, h))


class TestInsertDelete:
    def test_examples(self):
        assert insert_at((1,), 0, 0) == (0, 1)
        assert insert_at((0, 1), 1, 2) == (0, 2, 1)
        assert delete_at((0, 2, 1), 1) == ((0, 1), 2)

    def test_roundtrip(self):
        x = (0, 1, 2, 1)
        for pos in range(len(x) + 1):
            y = insert_at(x, pos, 2)
            assert delete_at(y, pos) == (x, 2)

    def test_partition_bijection(self):
        # insertion blocks partition the slice; sizes add up Pascal-style
        k = Composition((2, 2, 1))
        total = k.cardinality()
        assert sum(k.decremented(m).cardinality() for m in range(k.r)) == total
        pos = 2
        blocks = []
        for m in range(k.r):
            child = k.decremented(m)
            block = {insert_at(x, pos, m) for x in vertices(child)}
            assert block == {x for x in vertices(k) if x[pos] == m}
            blocks.append(block)
        union = set().union(*blocks)
        assert len(union) == total

    def test_errors(self):
        with pytest.raises(ValueError):
            insert_at((0, 1), 3, 0)
        with pytest.raises(ValueError):
            delete_at((0, 1), 2)


class TestMeasures:
    def test_values(self):
        k = Composition((2, 1, 1))
        m = measures(k)
        assert m.mu == Fraction(1, 12)
        assert m.nu == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert sum(m.nu) == 1

    @pytest.mark.parametrize("counts", [(1, 1), (2, 1, 1), (3, 2), (2, 0, 2)])
    def test_decomposition(self, counts):
        assert measure_decomposition_check(Composition(counts))


def oracle_verdicts(k: Composition, f: list[Fraction]):
    """The three identities for one rational f from the public Fraction operators."""
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
        shifted = [a - b for a, b in zip(f, project_onto_coordinate(k, f, pos))]
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


class TestExactIdentities:
    @pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 1, 1), (2, 2)])
    def test_averaging_identity(self, counts):
        k = Composition(counts)
        rng = random.Random(7)
        for _ in range(5):
            f = random_rational(rng, k.cardinality())
            assert averaging_identity_ok(k, f)

    @pytest.mark.parametrize("counts", [(2, 1), (2, 1, 1), (2, 2)])
    def test_shift_identity(self, counts):
        k = Composition(counts)
        rng = random.Random(8)
        f = random_rational(rng, k.cardinality())
        for pos in range(k.n):
            for m in range(k.r):
                assert shift_identity_ok(k, f, pos, m)

    @pytest.mark.parametrize("counts", [(2, 1), (1, 1, 1), (2, 1, 1), (2, 2)])
    def test_decomposition_identity(self, counts):
        k = Composition(counts)
        rng = random.Random(9)
        for _ in range(3):
            f = random_rational(rng, k.cardinality())
            assert dirichlet_decomposition_ok(k, f)

    def test_identities_need_rational_input(self):
        k = Composition((2, 1))
        with pytest.raises(TypeError):
            averaging_identity_ok(k, np.ones(3))
        with pytest.raises(TypeError):
            shift_identity_ok(k, np.ones(3), 0, 0)
        with pytest.raises(TypeError):
            dirichlet_decomposition_ok(k, np.ones(3))

    def test_identities_refuse_bad_blocks(self):
        two = Composition((1, 1))
        with pytest.raises(ValueError):
            averaging_identity_ok(two, [0, 1])
        with pytest.raises(ValueError):
            dirichlet_decomposition_ok(two, [0, 1])
        with pytest.raises(ValueError):
            shift_identity_ok(two, [0, 1], 0, 0)
        k = Composition((2, 0, 1))  # level 1 is empty
        f = list(range(k.cardinality()))
        for pos, level in [(3, 0), (-1, 0), (0, 1), (0, 3)]:
            with pytest.raises(ValueError):
                shift_identity_ok(k, f, pos, level)

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
        # the integer kernel against the public Fraction operators on every
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
                    oracle = oracle_verdicts(k, f)
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
        assert averaging_identity_ok(k, f)
        assert dirichlet_decomposition_ok(k, f)
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
