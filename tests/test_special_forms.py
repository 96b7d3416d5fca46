import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matstab import cli
from matstab import dstability as ds
from matstab import lyapunov as ly
from matstab import special_forms as sf
from matstab.spectra import HalfPlaneLeft, Status

from conftest import multiset_close, random_ndd


class TestCircuitOfCyclicForms:
    def test_unit_form(self):
        v = sf.single_circuit_criterion(
            sf.CyclicForm((1.0,) * 3, (1.0,) * 3).matrix())
        assert v.proved
        assert np.isclose(v.witness["gamma"], -1.0)
        assert np.isclose(v.witness["value"], 0.125)

    def test_off_pattern_entry(self):
        m = sf.CyclicForm((1.0,) * 3, (1.0,) * 3).matrix()
        m[0, 1] = 0.3
        with pytest.raises(ValueError, match="single circuit"):
            sf.single_circuit_criterion(m)

    def test_roundtrip_random(self, rng):
        for n in (2, 3, 5):
            alpha = rng.uniform(0.5, 2.0, n)
            beta = rng.uniform(0.5, 2.0, n)
            form = sf.CyclicForm(tuple(alpha), tuple(beta))
            v = sf.single_circuit_criterion(form.matrix())
            assert np.isclose(v.witness["gamma"], -beta.prod() / alpha.prod())


def _spread(logs, delta):
    """Add ``delta`` to sum(logs), keeping each entry in [-7, 7].

    Returns the new entries and the part of ``delta`` that did not fit.
    """
    out = []
    for x in logs:
        step = min(max(delta, -7.0 - x), 7.0 - x)
        out.append(x + step)
        delta -= step
    return out, delta


@st.composite
def cyclic_cases(draw):
    """A cyclic form, alpha and beta log-uniform in [e^-7, e^7], its
    matrix, possibly with small off-pattern entries, and whether it has
    any."""
    n = draw(st.integers(2, 8))
    logs = st.lists(st.floats(-7.0, 7.0), min_size=n, max_size=n)
    u, v = draw(logs), draw(logs)
    if n > 2 and draw(st.booleans()):
        # a gain ratio within 5% of the secant bound, but not on it
        rel = draw(st.floats(1e-3, 0.05)) * draw(st.sampled_from((-1, 1)))
        target = -n * math.log(math.cos(math.pi / n)) + math.log1p(rel)
        v, rest = _spread(v, target - (sum(v) - sum(u)))
        u, _ = _spread(u, -rest)
    form = sf.CyclicForm(tuple(np.exp(u)), tuple(np.exp(v)))
    m = form.matrix()
    if draw(st.booleans()):
        band = 0.9e-12 * (1.0 + abs(m).max())
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                              max_size=n * n))
        m = m + band * np.where(m == 0.0, np.reshape(noise, (n, n)), 0.0)
    return form, m, not np.array_equal(m, form.matrix())


# 0.969 of the secant bound, with arc gains near 1.1e3
NEAR_BOUND = sf.CyclicForm(
    (1.0,) * 5 + tuple(np.exp([4.0, 7.0, 7.0])),
    tuple(np.exp([7.0, 7.0, 7.0])) + (4.961162245450763, 1.0, 1.0, 1.0,
                                      np.exp(-4.0)))


class TestCircuitDecidesCyclicForms:
    @given(cyclic_cases())
    @settings(max_examples=200, deadline=None)
    def test_single_circuit_is_the_secant_decision(self, case):
        form, m, noisy = case
        if noisy:
            # an exact criterion reads every nonzero entry: a small one
            # may close a second circuit of large gain
            with pytest.raises(ValueError, match="not a single circuit"):
                sf.single_circuit_criterion(m)
            return
        status = sf.secant_criterion(form).status
        assert sf.single_circuit_criterion(m).status is status
        # self-stability may refute first; the exhaustive run is read below
        for exhaustive in (False, True):
            report = cli.run(cli.AnalysisRequest(
                matrix=m, samples=100, budget=100, exhaustive=exhaustive))
            assert b"secant" not in cli.emit(report, "json")
        # the criterion is the suite's item single-circuit; the suite runs
        # where A is not outside the half-plane, as every diagonally
        # stable A is
        assert "single-circuit" not in [c.check for c in report.checks]
        suite = [c for c in report.checks if c.check == "sufficient-suite"]
        if status is Status.PROVED:
            assert suite and suite[0].decides
        if suite:
            item = suite[0].data["items"]["single-circuit"]
            assert item.proved == (status is Status.PROVED)

    @pytest.mark.parametrize("entry", [9.87869843e-10,
                                       1.9124093624535927e-10])
    def test_small_entry_off_the_circuit_is_read(self, entry):
        # far under the band 1e-12 (1 + max|A|), the entry (0, 4) closes a
        # second circuit: the first A is not Hurwitz, the second is, but a
        # positive diagonal multiple of it is not
        m = NEAR_BOUND.matrix()
        m[0, 4] = entry
        assert sf.secant_criterion(NEAR_BOUND).proved
        with pytest.raises(ValueError, match="not a single circuit"):
            sf.single_circuit_criterion(m)
        for exhaustive in (False, True):
            report = cli.run(cli.AnalysisRequest(
                matrix=m, samples=1000, budget=1000, exhaustive=exhaustive))
            assert report.summary_status is Status.REFUTED
            assert report.conflicts == []


class TestSecant:
    def test_unit_gains_proved(self):
        # sec(pi/3) = 2, bound 8; ratio 1
        v = sf.secant_criterion(sf.CyclicForm((1.0,) * 3, (1.0,) * 3))
        assert v.proved
        assert np.isclose(v.witness["bound"], 8.0)

    def test_boundary_refuted(self):
        # ratio 8 equals the bound: not strictly below
        v = sf.secant_criterion(sf.CyclicForm((1.0,) * 3, (2.0,) * 3))
        assert v.refuted

    def test_n2_bound_infinite(self):
        v = sf.secant_criterion(sf.CyclicForm((0.1, 0.1), (50.0, 50.0)))
        assert v.proved

    def test_cross_module_consistency(self, rng):
        # Proved forms certify; Refuted forms never certify
        for n in (3, 4, 5):
            for _ in range(6):
                alpha = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
                beta = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
                bound = (1.0 / math.cos(math.pi / n)) ** n
                ratio = beta.prod() / alpha.prod()
                if abs(ratio - bound) < 0.1 * bound:
                    continue
                form = sf.CyclicForm(tuple(alpha), tuple(beta))
                v = sf.secant_criterion(form)
                s = ly.DiagonalSearch(form.matrix(), HalfPlaneLeft(),
                                      5000).run()
                assert v.proved == s.proved


class TestSingleCircuit:
    def build(self, n, entries):
        m = -np.eye(n)
        for (i, j), v in entries.items():
            m[i, j] = v
        return m

    def test_negative_gain_proved(self):
        m = self.build(3, {(1, 0): 0.5, (2, 1): 1.0, (0, 2): -1.0})
        v = sf.single_circuit_criterion(m)
        assert v.proved
        assert np.isclose(v.witness["value"], 0.0625)

    def test_boundary_gain_refuted(self):
        m = self.build(3, {(1, 0): 8.0, (2, 1): 1.0, (0, 2): -1.0})
        v = sf.single_circuit_criterion(m)
        assert v.refuted
        assert np.isclose(v.witness["value"], 1.0)

    def test_positive_gain(self):
        m = self.build(3, {(1, 0): 0.9, (2, 1): 1.0, (0, 2): 1.0})
        assert sf.single_circuit_criterion(m).proved

    def test_not_single_circuit(self):
        with pytest.raises(ValueError):
            sf.single_circuit_criterion(np.diag([-1.0, -1.0]))

    def test_two_disjoint_cycles_rejected(self):
        m = -np.eye(4)
        m[0, 1] = m[1, 0] = 0.5  # cycle on {0, 1}
        m[2, 3] = m[3, 2] = 0.5  # cycle on {2, 3}
        with pytest.raises(ValueError, match="single circuit"):
            sf.single_circuit_criterion(m)

    def test_zero_diagonal(self):
        m = self.build(2, {(0, 1): 1.0, (1, 0): 1.0})
        m[0, 0] = 0.0
        with pytest.raises(ValueError):
            sf.single_circuit_criterion(m)

    def test_agrees_with_secant_on_cyclic_forms(self, rng):
        for n in (3, 4, 6):
            for _ in range(8):
                alpha = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
                beta = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n))
                form = sf.CyclicForm(tuple(alpha), tuple(beta))
                sec = sf.secant_criterion(form)
                circ = sf.single_circuit_criterion(form.matrix())
                assert sec.status == circ.status


class TestCompanion:
    def test_blocks(self):
        cp = sf.build_companion(-np.eye(2), -np.eye(2))
        assert np.allclose(cp.c[:2, :2], -np.eye(2))
        assert np.allclose(cp.c[:2, 2:], -np.eye(2))
        assert np.allclose(cp.c[2:, :2], np.eye(2))
        assert np.allclose(cp.c[2:, 2:], 0.0)

    def test_diagonal_quadratic_eigenvalue_oracle(self, rng):
        a = np.diag(rng.normal(size=3))
        b = np.diag(rng.normal(size=3))
        cp = sf.build_companion(a, b)
        expect = []
        for ai, bi in zip(np.diag(a), np.diag(b)):
            expect.extend(np.roots([1.0, -ai, -bi]))
        got = np.linalg.eigvals(cp.c)
        assert multiset_close(got, expect, 1e-8 * (1 + max(abs(np.asarray(expect)))))

    def test_scalar_matches_companion_polynomial(self, rng):
        a, b = rng.normal(size=2)
        cp = sf.build_companion([[a]], [[b]])
        got = np.linalg.eigvals(cp.c)
        expect = np.roots([1.0, -a, -b])
        assert multiset_close(got, expect, 1e-9 * (1 + abs(expect).max()))


class TestCriterion1:
    def test_example_with_eigencheck(self):
        a = np.array([[-2.0, 0.5], [0.5, -2.0]])
        b = np.diag([-1.0, -1.0])
        v = sf.companion_ndd_stable(a, b)
        assert v.proved
        c = sf.build_companion(a, b).c
        assert np.linalg.eigvals(c).real.max() < 0

    def test_offdiagonal_b_fails_premise(self):
        a = np.array([[-2.0, 0.5], [0.5, -2.0]])
        b = np.array([[-1.0, 0.2], [0.0, -1.0]])
        assert sf.companion_ndd_stable(a, b).status is Status.UNKNOWN

    def test_non_ndd_a_fails_premise(self):
        a = np.array([[-1.0, 5.0], [5.0, -1.0]])
        b = -np.eye(2)
        assert sf.companion_ndd_stable(a, b).status is Status.UNKNOWN

    def test_random_proved_cases_are_stable(self, rng):
        for _ in range(20):
            a = random_ndd(rng, 3)
            b = np.diag(-rng.uniform(0.1, 2.0, 3))
            v = sf.companion_ndd_stable(a, b)
            assert v.proved
            c = sf.build_companion(a, b).c
            assert np.linalg.eigvals(c).real.max() < 0


class TestTheorem1:
    def test_scalar_case(self):
        v = sf.companion_ndd_d_stable([[-1.0]], [[-1.0]])
        assert v.proved

    def test_never_falsified(self, rng):
        for _ in range(5):
            a = random_ndd(rng, 2)
            b = np.diag(-rng.uniform(0.1, 2.0, 2))
            v = sf.companion_ndd_d_stable(a, b)
            assert v.proved
            c = sf.build_companion(a, b).c
            fal = ds.falsify(c, ds.PositiveDiagonal(), ds.Multiply(),
                             HalfPlaneLeft(), samples=3000, seed=17)
            assert not fal.refuted

    def test_premise_failure(self):
        v = sf.companion_ndd_d_stable(np.array([[-1.0, 5.0], [5.0, -1.0]]),
                                -np.eye(2))
        assert v.status is Status.UNKNOWN




class TestCyclicFormData:
    @pytest.mark.parametrize("alpha, beta", [
        ((1.0, 1.0), (1.0,)),
        ((1.0,), (1.0,)),
        ((1.0, 0.0), (1.0, 1.0)),
        ((1.0, 1.0), (1.0, -2.0)),
    ], ids=["lengths", "n-one", "zero-alpha", "negative-beta"])
    def test_rejected(self, alpha, beta):
        with pytest.raises(ValueError):
            sf.CyclicForm(alpha, beta)

    def test_matrix_layout(self):
        m = sf.CyclicForm((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)).matrix()
        assert m.tolist() == [[-1.0, 0.0, -6.0],
                              [4.0, -2.0, 0.0],
                              [0.0, 5.0, -3.0]]


class TestCompanionPremises:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal dimensions"):
            sf.build_companion(-np.eye(2), -np.eye(3))

    @pytest.mark.parametrize("a, b, reason", [
        ([[0.0, 0.0], [0.0, -1.0]], -np.eye(2),
         "companion-diagonal-of-A-not-negative"),
        ([[-2.0, 0.5], [0.5, -2.0]], np.diag([-1.0, 0.0]),
         "companion-B-not-negative-diagonal"),
        # |A| is dominant, but a_22 is inside the NDD band 1e-10 (1 + ||A||)
        # and outside the sign band 1e-12 (1 + max |a|)
        (np.diag([-100.0, -1.005e-8]), -np.eye(2), "companion-A-not-ndd"),
    ], ids=["a-diagonal", "b-diagonal", "a-diagonal-in-the-ndd-band"])
    def test_failed_premise_is_named(self, a, b, reason):
        v = sf.companion_ndd_stable(a, b)
        assert v.status is Status.UNKNOWN and v.reason == reason
        assert sf.companion_ndd_d_stable(a, b).reason == reason
