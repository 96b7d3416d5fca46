from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matstab import dstability as ds
from matstab import matrix_core as mc
from matstab import special_forms as sf

from conftest import multiset_close, naive_det, random_m_matrix


def bits(minors):
    return [(alpha, v.hex()) for alpha, v in minors]


def square(n, lo=-5.0, hi=5.0):
    return arrays(np.float64, (n, n),
                  elements=st.floats(lo, hi, allow_nan=False))


class TestProducts:
    def test_block_hadamard_identity_blocks(self, rng):
        g = rng.normal(size=(4, 4))
        h = np.tile(np.eye(2), (2, 2))
        assert np.allclose(mc.block_hadamard(h, g, 2), g)

    def test_block_hadamard_damping_class(self, rng):
        # G = [[D, I], [I, I]] acting on C = [[A, B], [I, 0]] multiplies
        # only the damping block
        n = 3
        a, b = rng.normal(size=(n, n)), rng.normal(size=(n, n))
        d = np.diag(rng.uniform(0.5, 2.0, n))
        g = np.block([[d, np.eye(n)], [np.eye(n), np.eye(n)]])
        c = np.block([[a, b], [np.eye(n), np.zeros((n, n))]])
        out = mc.block_hadamard(g, c, n)
        expect = np.block([[d @ a, b], [np.eye(n), np.zeros((n, n))]])
        assert np.allclose(out, expect)

    def test_block_hadamard_size_one_is_hadamard(self, rng):
        h, g = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        assert np.allclose(mc.block_hadamard(h, g, 1), h * g)

    def test_block_hadamard_indivisible(self):
        with pytest.raises(ValueError):
            mc.block_hadamard(np.eye(4), np.eye(4), 3)


class TestAdditiveCompound:
    def test_two_by_two_is_trace(self, rng):
        # hand expansion of the defining formula for n = 2
        a = rng.normal(size=(2, 2))
        out = mc.additive_compound_2(a)
        assert out.shape == (1, 1)
        assert np.isclose(out[0, 0], a[0, 0] + a[1, 1])

    def test_identity(self):
        assert np.allclose(mc.additive_compound_2(np.eye(3)), 2.0 * np.eye(3))

    def test_spectrum_pairwise_sums(self, rng):
        for n in (3, 4, 5):
            for _ in range(10):
                a = rng.normal(size=(n, n))
                lam = np.linalg.eigvals(a)
                expect = [lam[i] + lam[j]
                          for i in range(n) for j in range(i + 1, n)]
                got = np.linalg.eigvals(mc.additive_compound_2(a))
                scale = 1 + max(abs(z) for z in expect)
                assert multiset_close(got, expect, 1e-7 * scale)

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            mc.additive_compound_2([[1.0]])


class TestEntrywiseMaps:
    def test_comparison_matrix(self):
        out = mc.comparison_matrix([[-1, 2], [3, -4]])
        assert np.array_equal(out, [[1, -2], [-3, 4]])
        assert np.array_equal(mc.comparison_matrix(np.eye(2)), np.eye(2))

    def test_comparison_fixes_z_matrices(self, rng):
        z = -rng.uniform(0, 1, (3, 3))
        np.fill_diagonal(z, rng.uniform(0, 2, 3))
        assert np.array_equal(mc.comparison_matrix(z), z)

    def test_w_map(self):
        assert np.array_equal(mc.w_map([[-1, 2], [-3, -4]]), [[-1, 2], [3, -4]])

    def test_w_map_fixes_metzler(self, rng):
        m = rng.uniform(0, 1, (3, 3))
        np.fill_diagonal(m, rng.normal(size=3))
        assert np.array_equal(mc.w_map(m), m)

    def test_w_map_vs_comparison_sign_bookkeeping(self, rng):
        a = rng.normal(size=(3, 3))
        np.fill_diagonal(a, -np.abs(np.diag(a)))
        assert np.array_equal(-mc.w_map(a), mc.comparison_matrix(a))

    @given(square(3))
    @settings(max_examples=50, deadline=None)
    def test_comparison_of_w_map_idempotence(self, a):
        assert np.array_equal(mc.comparison_matrix(mc.w_map(a)),
                              mc.comparison_matrix(a))

class TestMinors:
    def test_identity_minors(self):
        out = mc.principal_minors(np.eye(3))
        assert all(np.isclose(v, 1.0) for _, v in out)

    def test_diag_order_two(self):
        out = mc.principal_minors(np.diag([1.0, 2.0, 3.0]))
        vals = sorted(v for idx, v in out if len(idx) == 2)
        assert np.allclose(vals, [2.0, 3.0, 6.0])

    def test_against_cofactor_oracle(self, rng):
        a = rng.normal(size=(4, 4))
        for idx, val in mc.principal_minors(a):
            sub = a[np.ix_(idx, idx)]
            assert np.isclose(val, naive_det(sub), atol=1e-9)

    def test_dimension_cap(self, rng):
        with pytest.raises(ValueError):
            mc.principal_minors(np.eye(15))

    @given(st.integers(1, 8).flatmap(square))
    @settings(max_examples=60, deadline=None)
    def test_batched_sweep_matches_loop_bit_for_bit(self, a):
        n = a.shape[0]
        # -A too: it is the matrix the pipeline sweeps
        for m in (a, -a):
            loop = [(alpha, float(np.linalg.det(m[np.ix_(alpha, alpha)])))
                    for k in range(1, n + 1)
                    for alpha in combinations(range(n), k)]
            got = mc.principal_minors(m)
            assert [alpha for alpha, _ in got] == [alpha for alpha, _ in loop]
            assert bits(got) == bits(loop)


def _reference_first_negative_minor(a):
    """The P0 test pair by pair: the first minor below the band whose
    exact sign is negative."""
    n = a.shape[0]
    norm = np.linalg.norm(a, np.inf)
    for k in range(1, n + 1):
        for alpha in combinations(range(n), k):
            value = float(np.linalg.det(a[np.ix_(alpha, alpha)]))
            if (value < -mc.minor_tol(norm, k)
                    and mc.exact_det_sign(a[np.ix_(alpha, alpha)]) < 0):
                return alpha, value
    return None


class TestFirstNegativeMinor:
    @pytest.mark.parametrize("a, expect", [
        (np.eye(3), None),
        # P0, not P: every minor is 0 or 1
        ([[0.0, 1.0], [0.0, 0.0]], None),
        ([[1.0, 5.0], [1.0, -1.0]], ((1,), -1.0)),
        ([[2.0, 4.0], [1.0, 1.0]], ((0, 1), -2.0))])
    def test_first_negative_minor(self, a, expect):
        a = np.asarray(a)
        assert mc.first_negative_minor(a, mc.principal_minors(a)) == expect

    @given(st.integers(1, 6).flatmap(square))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_pairwise_loop(self, a):
        # -A too: it is the matrix the pipeline tests
        for m in (a, -a):
            got = mc.first_negative_minor(m, mc.principal_minors(m))
            assert got == _reference_first_negative_minor(m)

    def test_nilpotent_p0_not_p0plus(self):
        # -A = [[0, 1], [0, 0]] is P0, not P, and its order sums vanish:
        # the minor-sign necessity, the one P0+ test, refutes A exactly
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = ds.necessary_p0plus(-nilpotent)
        assert v.refuted
        assert v.reason == "p0-minor-sums-vanish-multiplicative"

    def test_decides_at_the_enumeration_cap(self):
        # -A for A = -3 I + 0.5 (superdiagonal) is triangular with positive
        # diagonal, so P0 at n = 14; flipping one diagonal entry of A gives
        # -A a negative order-1 minor
        n = mc.MINOR_ENUM_CAP
        a = np.diag(np.full(n, -3.0)) + np.diag(np.full(n - 1, 0.5), 1)
        assert mc.first_negative_minor(-a, mc.principal_minors(-a)) is None
        assert ds.necessary_p0plus(a).reason == "necessary-p0plus-passed"
        a[5, 5] = 3.0
        indices, value = mc.first_negative_minor(-a, mc.principal_minors(-a))
        # the value is the float determinant, as ``np.linalg.det`` gives it
        assert indices == (5,) and value == float(np.linalg.det([[-3.0]]))
        assert ds.necessary_p0plus(a).witness == {
            "indices": indices, "minor": value, "matrix": "-A"}

    def test_degrades_beyond_enumeration_cap(self):
        with pytest.raises(ValueError, match="capped at n = 14"):
            ds.necessary_p0plus(-np.eye(mc.MINOR_ENUM_CAP + 1))

    def test_given_minor_table_is_not_recomputed(self, rng, monkeypatch):
        a = -8.0 * np.eye(5) + 0.3 * rng.random((5, 5))
        table = mc.principal_minors(-a)
        expect = ds.necessary_p0plus(a)
        calls = []
        sweep = mc.principal_minors
        monkeypatch.setattr(ds, "principal_minors",
                            lambda x: calls.append(x) or sweep(x))
        got = ds.necessary_p0plus(a, minors=table)
        assert (got.status, got.reason) == (expect.status, expect.reason)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_norm_per_matrix(self, n, rng, monkeypatch):
        # the norm of the matrix, none per minor order: -A is P here, so
        # every order is read
        a = -8.0 * np.eye(n) + 0.3 * rng.random((n, n))
        table = mc.principal_minors(-a)
        norms = []
        norm = np.linalg.norm

        def counting(x, ord=None, *args, **kwargs):
            if ord == np.inf:
                norms.append(x)
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        assert mc.first_negative_minor(-a, table) is None
        assert len(norms) == 1


class TestMMatrices:
    def test_m_matrix_closed_under_principal_submatrices(self, rng):
        m = random_m_matrix(rng, 3)
        for k in (1, 2, 3):
            for idx in combinations(range(3), k):
                assert mc.is_m_matrix(m[np.ix_(idx, idx)])

    def test_ndd_pdd(self, rng):
        # generalized diagonal dominance reads |A| only, so A and -A share
        # it; the NDD premise of the companion criterion adds the sign
        from conftest import random_ndd
        a = random_ndd(rng, 4)
        assert mc.is_m_matrix(mc.comparison_matrix(a))
        assert mc.is_m_matrix(mc.comparison_matrix(-a))
        assert sf.companion_ndd_stable(a, -np.eye(4)).proved
        assert sf.companion_ndd_stable(-a, -np.eye(4)).reason == \
            "companion-diagonal-of-A-not-negative"

    def test_h_matrix_via_comparison(self):
        a = np.array([[3.0, 1.0], [-1.0, 3.0]])  # not Z, but comparison is M
        assert mc.is_m_matrix(mc.comparison_matrix(a))
        assert not mc.is_z_matrix(a) and not mc.is_m_matrix(a)


class TestCompoundLink:
    def test_additive_compound_is_derivative_of_multiplicative(self, rng):
        # (I + hA)^(2) = I + h A^[2] + O(h^2): a finite-difference oracle
        # tying the two constructions together
        for n in (3, 4):
            a = rng.normal(size=(n, n))
            h = 1e-7
            fd = (_compound_loop(np.eye(n) + h * a, 2) - np.eye(len(
                mc.additive_compound_2(a)))) / h
            assert np.allclose(fd, mc.additive_compound_2(a),
                               atol=1e-5 * (1 + abs(a).max() ** 2))


def _compound_loop(a, j):
    """Reference: one determinant per compound entry."""
    n = a.shape[0]
    rows = list(combinations(range(n), j))
    out = np.empty((len(rows), len(rows)))
    for p, alpha in enumerate(rows):
        sub = a[np.ix_(alpha, range(n))]
        for q, beta in enumerate(rows):
            out[p, q] = np.linalg.det(sub[:, beta])
    return out


def _additive_compound_2_loop(a):
    """Reference: the entry-by-entry build of the second additive compound."""
    n = a.shape[0]
    pairs = list(combinations(range(n), 2))
    out = np.zeros((len(pairs), len(pairs)))
    eye = np.eye(n)
    for p, (i, j) in enumerate(pairs):
        for q, (k, l) in enumerate(pairs):
            out[p, q] = (a[i, k] * eye[j, l] - eye[i, l] * a[j, k]
                         + eye[i, k] * a[j, l] - a[i, l] * eye[j, k])
    return out


def same_bits(x, y):
    return np.array_equal(x, y) and np.array_equal(np.signbit(x),
                                                   np.signbit(y))


_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(-5.0, 5.0, allow_nan=False))


def gathered(n):
    return arrays(np.float64, (n, n), elements=_ENTRY)


class TestMinorGather:
    @given(st.integers(2, 15).flatmap(gathered))
    @settings(max_examples=60, deadline=None)
    def test_additive_compound_matches_loop_bit_for_bit(self, a):
        assert same_bits(mc.additive_compound_2(a), _additive_compound_2_loop(a))


def _fraction_det_sign(m):
    """Sign of det(m) by Gaussian elimination over exact fractions."""
    rows = [[Fraction(x) for x in row] for row in np.asarray(m).tolist()]
    n, sign = len(rows), 1
    for j in range(n):
        pivot = next((i for i in range(j, n) if rows[i][j] != 0), None)
        if pivot is None:
            return 0
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            sign = -sign
        if rows[j][j] < 0:
            sign = -sign
        for i in range(j + 1, n):
            f = rows[i][j] / rows[j][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return sign


@st.composite
def exact_det_inputs(draw):
    """Square floats of mixed scale; half of them exactly singular."""
    n = draw(st.integers(1, 7))
    scale = 2.0 ** draw(st.integers(-60, 60))
    a = draw(arrays(np.float64, (n, n), elements=st.one_of(
        st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)))) * scale
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            a[i] = 0.0
        elif i != j:
            a[i] = a[j] * -2.0  # exact in floats: a power-of-two multiple
        else:
            a[:, i] = 0.0
    return a


class TestExactDetSign:
    @given(exact_det_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_fraction_elimination(self, a):
        assert mc.exact_det_sign(a) == _fraction_det_sign(a)

    def test_exactly_singular_and_swaps(self):
        assert mc.exact_det_sign(np.array([[0.1, 0.2], [0.3, 0.6]])) == \
            _fraction_det_sign([[0.1, 0.2], [0.3, 0.6]])
        assert mc.exact_det_sign(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0
        assert mc.exact_det_sign(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1
        assert mc.exact_det_sign(np.eye(3)[[1, 2, 0]]) == 1
        assert mc.exact_det_sign(np.array([[-1e-300]])) == -1

    def test_float_det_sign_can_be_wrong(self):
        # [[1, 1+e], [1-e, 1]] has det e^2 > 0, which floats round to 0
        e = 2.0 ** -30
        a = np.array([[1.0, 1.0 + e], [1.0 - e, 1.0]])
        assert np.linalg.det(a) <= 0
        assert mc.exact_det_sign(a) == 1


class TestAsMatrix:
    @pytest.mark.parametrize("a", [[1.0, 2.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                   np.zeros((2, 2, 2))],
                             ids=["vector", "rectangle", "three-axes"])
    def test_non_square_rejected(self, a):
        with pytest.raises(ValueError, match="square"):
            mc.as_matrix(a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            mc.as_matrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mc.as_matrix([[1.0, bad], [0.0, 1.0]])

    def test_integer_input_becomes_float(self):
        m = mc.as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestLeadingMinors:
    def test_against_cofactor_oracle(self, rng):
        a = rng.normal(size=(5, 5))
        got = mc.leading_minors(a)
        assert len(got) == 5
        for k, value in enumerate(got, start=1):
            assert np.isclose(value, naive_det(a[:k, :k]), atol=1e-9)

    def test_triangular_gives_diagonal_prefix_products(self, rng):
        a = np.triu(rng.normal(size=(4, 4)))
        expect = np.cumprod(np.diag(a))
        assert np.allclose(mc.leading_minors(a), expect)
        assert np.allclose(mc.leading_minors(a.T), expect)


def _m_matrix_by_every_minor(a):
    """M-matrix reference: Z-matrix with every principal minor positive."""
    if not mc.is_z_matrix(a):
        return False
    return all(v > mc.minor_tol(np.linalg.norm(a, np.inf), len(alpha))
               for alpha, v in mc.principal_minors(a))


class TestZAndMMatrices:
    def test_z_matrix_reads_only_off_diagonal_signs(self):
        assert mc.is_z_matrix([[5.0, -1.0], [0.0, -3.0]])
        assert mc.is_z_matrix(np.diag([1.0, -1.0, 0.0]))
        assert not mc.is_z_matrix([[-5.0, 0.1], [-1.0, -5.0]])

    def test_z_matrix_tolerance(self):
        # the band is 1e-10 * (1 + ||A||_inf)
        assert mc.is_z_matrix([[1.0, 1e-12], [-1.0, 1.0]])
        assert not mc.is_z_matrix([[1.0, 1e-6], [-1.0, 1.0]])

    def test_generated_m_matrices_pass(self, rng):
        from conftest import random_m_matrix
        for n in range(1, 7):
            assert mc.is_m_matrix(random_m_matrix(rng, n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_leading_minors_decide_like_every_minor(self, n, rng):
        # for a Z-matrix the n leading minors stand for all 2^n - 1 minors
        decided = set()
        for _ in range(60):
            off = -rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(off, 0.0)
            a = off + np.diag(rng.uniform(0.0, 1.5 * n, n))
            expect = _m_matrix_by_every_minor(a)
            assert mc.is_m_matrix(a) is expect
            decided.add(expect)
        assert decided == {True, False}

    def test_singular_z_matrix_is_not_m(self):
        assert not mc.is_m_matrix([[1.0, -1.0], [-1.0, 1.0]])
        assert mc.is_m_matrix([[1.0, -1.0], [-1.0, 1.0 + 1e-6]])

    def test_positive_definite_non_z_is_not_m(self):
        # P (minors 2, 2, 3) but not Z
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert all(v > 0 for _, v in mc.principal_minors(a))
        assert not mc.is_m_matrix(a)
