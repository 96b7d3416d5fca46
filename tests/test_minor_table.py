"""The array minor table against the per-pair loops it replaced, bit for bit.

The reference functions below are the pair-by-pair sweep and the
P0 / P0+ minor-sign loops that ``matrix_core`` and ``dstability`` ran
before the table held its minors as per-order arrays.  Every witness,
verdict and running sum must match them exactly: floats are
compared by their bytes, so a ``-0.0`` for ``+0.0`` or an ``np.float64``
for a ``float`` fails.
"""

import struct
from itertools import combinations, groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matstab import cli
from matstab import dstability as ds
from matstab import matrix_core as mc

from conftest import random_hurwitz, random_m_matrix


# -- the per-pair loops, as the library ran them -----------------------------

def ref_principal_minors(a):
    n = a.shape[0]
    out = []
    for k in range(1, n + 1):
        sets = list(combinations(range(n), k))
        idx = np.array(sets)
        dets = np.linalg.det(a[idx[:, :, None], idx[:, None, :]])
        out.extend(zip(sets, dets.tolist()))
    return out


def ref_necessary(a, mode, minors):
    b = -a
    n = a.shape[0]
    sums = {}
    for k, group in groupby(minors, key=lambda item: len(item[0])):
        tol = mc.minor_tol(np.linalg.norm(b, np.inf), k)
        s = 0.0
        for alpha, value in group:
            if value < -tol and mc.exact_det_sign(b[np.ix_(alpha, alpha)]) < 0:
                return ("refuted", f"not-p0-{mode}",
                        {"indices": alpha, "minor": value, "matrix": "-A"})
            s += value
        sums[k] = s
    # the order sums refute multiplicative D-stability only: the strict
    # additive class leaves out D = 0
    if mode == "additive":
        return ("unknown", "necessary-p0plus-passed", None)
    for k in sorted(sums):
        if sums[k] <= mc.minor_tol(np.linalg.norm(b, np.inf), k) and not any(
                mc.exact_det_sign(b[np.ix_(alpha, alpha)])
                for alpha in combinations(range(n), k)):
            return ("refuted", "p0-minor-sums-vanish-multiplicative",
                    {"order": k, "sum": sums[k], "matrix": "-A"})
    return ("unknown", "necessary-p0plus-passed", None)


def ref_running_sum(values):
    s = 0.0
    for x in values:
        s += x
    return s


def exact(x):
    """A comparable form that tells every float bit and every type apart."""
    if isinstance(x, dict):
        return ("dict", [(k, exact(v)) for k, v in x.items()])
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [exact(v) for v in x])
    if isinstance(x, float):
        return (type(x).__name__, struct.pack("<d", x))
    return (type(x).__name__, repr(x))


# -- inputs ------------------------------------------------------------------

def random_matrix(n):
    return arrays(np.float64, (n, n),
                  elements=st.floats(-5.0, 5.0, allow_nan=False))


def diagonal_with_zeros(n):
    """Diagonal inputs: exact zero minors, and order sums of signed zeros."""
    return st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0]),
                    min_size=n, max_size=n).map(np.diag)


@st.composite
def near_tolerance(draw, n):
    """Minors at the zero tolerance.

    Rank-one inputs have minors of order two and up that are rounding
    noise; a rank-one Gram matrix of integers has them exactly zero too,
    so their noisy order sums reach the exact vanishing-sum refutation.
    The third kind sets the diagonal to within a few ulps of
    +-minor_tol(||A||_inf, 1).
    """
    kind = draw(st.sampled_from(["rank-one", "integer-gram", "diagonal"]))
    if kind == "integer-gram":
        u = np.array(draw(st.lists(st.integers(1, 40), min_size=n,
                                   max_size=n)), dtype=float)
        return draw(st.sampled_from([-1.0, 1.0])) * np.outer(u, u)
    u = draw(arrays(np.float64, (n,), elements=st.floats(-2.0, 2.0)))
    v = draw(arrays(np.float64, (n,), elements=st.floats(-2.0, 2.0)))
    a = np.outer(u, v)
    if kind == "diagonal":
        np.fill_diagonal(a, 0.0)
        tol = mc.minor_tol(np.linalg.norm(a, np.inf), 1)
        steps = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]),
                              min_size=n, max_size=n))
        for i, (step, sign) in enumerate(zip(steps, signs)):
            a[i, i] = sign * tol
            for _ in range(abs(step)):
                a[i, i] = np.nextafter(a[i, i], step * np.inf)
    return a


def any_matrix(n):
    return st.one_of(random_matrix(n), diagonal_with_zeros(n),
                     near_tolerance(n))


def fixed_cases():
    rng = np.random.default_rng(14)
    return [
        rng.normal(size=(12, 12)),
        random_hurwitz(rng, 12),
        -random_m_matrix(rng, 12),
        np.diag([0.0, -1.0, 2.0, -0.0] * 3),
        -np.outer(np.arange(3.0, 15.0), np.arange(3.0, 15.0)),
        rng.normal(size=(14, 14)),
        -random_m_matrix(rng, 14),
        random_m_matrix(rng, 14),
        np.diag([1.0, 0.0, -0.0, 2.0, -1.0, 3.0, 0.5] * 2),
        np.outer(np.arange(5.0, 19.0), np.arange(5.0, 19.0)),
    ]


# -- the checks --------------------------------------------------------------

def check_against_loops(a):
    # -A, last, is the matrix the pipeline sweeps and tests for P0+
    for m in (a, -a):
        table = mc.principal_minors(m)
        pairs = ref_principal_minors(m)
        assert exact(list(table)) == exact(pairs)
        assert len(table) == len(pairs)

    for mode in ("multiplicative", "additive"):
        expect = exact(ref_necessary(a, mode, pairs))
        for got in (ds.necessary_p0plus(a, mode=mode, minors=table),
                    ds.necessary_p0plus(a, mode=mode)):
            assert exact((got.status.value, got.reason, got.witness)) == \
                expect


class TestBitIdentity:
    @given(st.integers(1, 8).flatmap(any_matrix))
    @settings(max_examples=150, deadline=None)
    def test_array_scans_match_the_pair_loops(self, a):
        check_against_loops(a)

    @pytest.mark.parametrize("a", fixed_cases(),
                             ids=lambda a: f"n{a.shape[0]}")
    def test_array_scans_match_the_pair_loops_at_n12_and_n14(self, a):
        check_against_loops(a)


class TestIndexSets:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_index_sets_are_combinations(self, n):
        sets = [s for s, _ in mc.principal_minors(np.eye(n)).orders]
        assert len(sets) == n
        for k, idx in enumerate(sets, start=1):
            assert idx.dtype == np.intp and idx.shape[1] == k
            assert list(map(tuple, idx.tolist())) == \
                list(combinations(range(n), k))


class TestRunningSum:
    @given(st.lists(st.sampled_from([-0.0]), max_size=3),
           st.lists(st.floats(-1e300, 1e300), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_left_to_right_loop(self, zeros, values):
        values = zeros + values
        got = mc._running_sum(np.array(values, dtype=float))
        assert exact(got) == exact(ref_running_sum(values))

    def test_leading_negative_zeros_sum_to_positive_zero(self):
        assert exact(mc._running_sum(np.array([-0.0, -0.0]))) == exact(0.0)


class TestPipelineReadsArrays:
    @pytest.mark.parametrize("class_spec, op_spec", [
        ("positive-diagonal", "multiply"), ("negative-diagonal", "add")])
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_report_bytes_without_the_pair_view(
            self, monkeypatch, class_spec, op_spec, exhaustive):
        a = random_hurwitz(np.random.default_rng(10), 10)

        def report():
            request = cli.AnalysisRequest(
                matrix=a, class_spec=class_spec, op_spec=op_spec,
                samples=200, budget=300, seed=1, exhaustive=exhaustive)
            return cli.emit(cli.run(request), "json")

        expect = report()

        def no_pairs(self):
            raise AssertionError("the pipeline walked the pair view")

        monkeypatch.setattr(mc.MinorTable, "__iter__", no_pairs)
        assert report() == expect
        assert b'"check":"necessary-p0plus"' in expect


class TestLazyOrders:
    """Each order of the table is computed once, when a reader reaches it."""

    @pytest.fixture
    def swept(self, monkeypatch):
        """The order of every batched ``det`` call, in call order."""
        orders = []
        det = np.linalg.det

        def counting(m):
            if np.ndim(m) == 3:
                orders.append(np.shape(m)[-1])
            return det(m)

        monkeypatch.setattr(np.linalg, "det", counting)
        return orders

    @staticmethod
    def run_request(a, **kw):
        report = cli.run(cli.AnalysisRequest(matrix=a, **kw))
        return report, next(c.verdict for c in report.checks
                            if c.check == "necessary-p0plus")

    @pytest.mark.parametrize("seed, order", [(0, 3), (1, 7)])
    def test_refuted_request_stops_at_the_failing_order(self, swept, seed,
                                                        order):
        report, necessary = self.run_request(
            random_hurwitz(np.random.default_rng(seed), 14))
        assert (report.summary_status.value, report.summary_reason) == (
            "refuted", "necessary-p0plus")
        assert len(necessary.witness["indices"]) == order
        assert swept == list(range(1, order + 1))

    @pytest.mark.parametrize("class_spec, op_spec", [
        ("positive-diagonal", "multiply"), ("negative-diagonal", "add")])
    def test_refutation_after_the_suite_sweeps_to_the_failing_order(
            self, swept, class_spec, op_spec):
        # the suite runs first and reads no minor; the necessity then
        # sweeps the orders up to its witness, and nothing sweeps more
        report, necessary = self.run_request(
            random_hurwitz(np.random.default_rng(1), 14),
            class_spec=class_spec, op_spec=op_spec)
        assert [c.check for c in report.checks] == [
            "self-stability", "sufficient-suite", "necessary-p0plus"]
        assert report.summary_reason == "necessary-p0plus"
        assert swept == list(range(1, len(necessary.witness["indices"]) + 1))

    def test_proved_request_sweeps_no_order(self, swept):
        # the suite proves it before any row reads a minor
        report = cli.run(cli.AnalysisRequest(
            matrix=random_hurwitz(np.random.default_rng(2), 14)))
        assert (report.summary_status.value, report.summary_reason) == (
            "proved", "sufficient-suite")
        assert swept == []

    def test_exhaustive_request_evaluates_every_order_once(self, swept):
        # the P0 test and the order sums read one table of the orders
        report, necessary = self.run_request(
            random_hurwitz(np.random.default_rng(2), 14), exhaustive=True,
            samples=200, budget=200)
        assert report.summary_status.value == "proved"
        assert necessary.reason == "necessary-p0plus-passed"
        assert swept == list(range(1, 15))

    def test_len_evaluates_nothing(self, swept):
        a = random_hurwitz(np.random.default_rng(0), 14)
        assert len(mc.principal_minors(a)) == 2 ** 14 - 1
        assert len(mc.principal_minors(-a)) == 2 ** 14 - 1
        assert swept == []

    def test_iteration_forces_the_remaining_orders(self, swept):
        a = random_hurwitz(np.random.default_rng(0), 6)
        table = mc.principal_minors(a)
        next(iter(table.orders))
        assert swept == [1]
        pairs = list(table)
        assert swept == list(range(1, 7))
        assert exact(pairs) == exact(ref_principal_minors(a))

    def test_a_failed_order_is_computed_again(self, monkeypatch):
        # an order whose det raised is not kept: the next reader computes
        # it again from the kept order below, not from a spent generator
        a = random_hurwitz(np.random.default_rng(0), 6)
        expect = exact(ref_principal_minors(a))
        det, orders = np.linalg.det, []

        def fails_once_at_order_3(m):
            orders.append(np.shape(m)[-1])
            if orders == [1, 2, 3]:
                raise np.linalg.LinAlgError("det failed")
            return det(m)

        monkeypatch.setattr(np.linalg, "det", fails_once_at_order_3)
        table = mc.principal_minors(a)
        with pytest.raises(np.linalg.LinAlgError, match="det failed"):
            list(table.orders)
        assert exact(list(table)) == expect
        assert orders == [1, 2, 3, 3, 4, 5, 6]
