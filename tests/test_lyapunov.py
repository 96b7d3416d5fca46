import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matstab import dstability as ds
from matstab import lyapunov as ly
from matstab.spectra import (Disk, EMIRegion, HalfPlaneLeft, HalfPlaneRight,
                             Hyperbolic, LMIRegion, PunctureOrigin,
                             SectorRight, Status, Verdict, eigenvalues,
                             first_outside)

from conftest import (benchmark_corpus, random_diagonally_stable,
                      random_hurwitz, random_schur, random_schur_diag_stable)


# the command line's default --budget
BUDGET = 5000


def spd(m):
    return np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0


class TestSolveLyapunov:
    def test_identity_cases(self):
        assert np.allclose(ly.solve_lyapunov(-np.eye(2), -2 * np.eye(2)),
                           np.eye(2))
        assert np.allclose(ly.solve_lyapunov(-np.eye(3), -np.eye(3)),
                           0.5 * np.eye(3))

    def test_stable_gives_spd_solution(self, rng):
        for _ in range(25):
            a = random_hurwitz(rng, 5)
            h = ly.solve_lyapunov(a, -np.eye(5))
            assert spd(h)
            res = np.linalg.norm(h @ a + a.T @ h + np.eye(5))
            assert res <= 1e-8 * (np.linalg.norm(a) * np.linalg.norm(h) + 5)

    def test_singular_pairing_detected(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # +-i pairs to zero
        with pytest.raises(ly.OperatorSingularError):
            ly.solve_lyapunov(a, -np.eye(2))

    def test_asymmetric_w_rejected(self):
        with pytest.raises(ValueError):
            ly.solve_lyapunov(-np.eye(2), [[0.0, 1.0], [0.0, 0.0]])

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            ly.solve_lyapunov(-np.eye(13), -np.eye(13))


class TestSolveStein:
    # the Stein equation A^T H A - H = W is the unit disk's
    def test_zero_matrix(self):
        assert np.allclose(ly.solve_lyapunov(np.zeros((2, 2)), -np.eye(2),
                                             Disk()),
                           np.eye(2))

    def test_half_identity(self):
        assert np.allclose(ly.solve_lyapunov(0.5 * np.eye(2),
                                             -0.75 * np.eye(2), Disk()),
                           np.eye(2))

    def test_schur_gives_spd_solution(self, rng):
        for _ in range(25):
            a = random_schur(rng, 4)
            h = ly.solve_lyapunov(a, -np.eye(4), Disk())
            assert spd(h)

    def test_singular_pairing_detected(self):
        a = np.diag([1.0, 0.5])  # 1 * 1 = 1
        with pytest.raises(ly.OperatorSingularError):
            ly.solve_lyapunov(a, -np.eye(2), Disk())


class TestSolveOnARegion:
    @pytest.mark.parametrize("region", [Disk(0.5, 0.4), HalfPlaneRight()],
                             ids=lambda r: r.name)
    def test_residual_through_the_region_operator(self, rng, region):
        # A = c I + r B with B Schur puts the spectrum in the disk; -A of
        # a Hurwitz matrix puts it in the right half-plane
        for _ in range(25):
            n = int(rng.integers(2, 6))
            if region.name == "disk":
                a = 0.5 * np.eye(n) + 0.4 * random_schur(rng, n)
            else:
                a = -random_hurwitz(rng, n)
            h = ly.solve_lyapunov(a, -np.eye(n), region)
            assert spd(h)
            w = ly.emi_operator(*region.emi, a, h)
            res = np.linalg.norm(w + np.eye(n))
            r11, r12, r22 = (abs(float(r[0, 0])) for r in region.emi)
            na, nh = np.linalg.norm(a), np.linalg.norm(h)
            bound = 1e-8 * (r11 * nh + r12 * na * nh + r22 * na ** 2 * nh
                            + np.sqrt(n))
            assert res <= bound

    def test_default_region_is_the_left_half_plane(self, rng):
        a = random_hurwitz(rng, 4)
        assert np.array_equal(ly.solve_lyapunov(a, -np.eye(4)),
                              ly.solve_lyapunov(a, -np.eye(4),
                                                HalfPlaneLeft()))

    @pytest.mark.parametrize("region", [SectorRight(0.6), Hyperbolic()],
                             ids=lambda r: r.name)
    def test_no_scalar_emi_form_is_rejected(self, region):
        # the sector's form is 2 x 2; the hyperbolic region has none
        with pytest.raises(ValueError):
            ly.solve_lyapunov(-np.eye(2), -np.eye(2), region)


class TestRegionOperators:
    def test_lmi_scalar_reduction(self, rng):
        h = rng.normal(size=(3, 3))
        h = h @ h.T + np.eye(3)
        a = rng.normal(size=(3, 3))
        w = ly.emi_operator([[0.0]], [[1.0]], [[0.0]], a, h)
        assert np.allclose(w, h @ a + a.T @ h, atol=1e-12)

    def test_lmi_identity_example(self):
        w = ly.emi_operator([[0.0]], [[1.0]], [[0.0]], -np.eye(2),
                            np.eye(2))
        assert np.allclose(w, -2.0 * np.eye(2))

    def test_lmi_shifted_half_plane(self, rng):
        # L = [-2r], M = [1] encodes Re z < r: solve on the shifted matrix
        for _ in range(10):
            r = rng.uniform(-1.0, 1.0)
            a = random_hurwitz(rng, 3) + r * np.eye(3)
            assert np.linalg.eigvals(a).real.max() < r
            h = ly.solve_lyapunov(a - r * np.eye(3), -np.eye(3))
            w = ly.emi_operator([[-2.0 * r]], [[1.0]], [[0.0]], a, h)
            ok, _ = ly.is_negative_definite(w)
            assert ok and spd(h)

    def test_emi_unit_disk_is_stein(self, rng):
        a = rng.normal(size=(3, 3))
        h = rng.normal(size=(3, 3))
        h = h @ h.T + np.eye(3)
        w = ly.emi_operator([[-1.0]], [[0.0]], [[1.0]], a, h)
        assert np.allclose(w, a.T @ h @ a - h, atol=1e-12)

    def test_emi_disk_encoding_via_membership_oracle(self, rng):
        # the disk(c, r) operator is exactly r^2 * (Stein form of the
        # rescaled matrix); probe the definiteness/membership link both ways
        for _ in range(500):
            c = rng.uniform(-1.0, 1.0)
            r = rng.uniform(0.5, 2.0)
            n = int(rng.integers(2, 4))
            b = random_schur(rng, n)
            if rng.integers(0, 2):
                # spectrum inside the disk: the Stein solution certifies
                a = c * np.eye(n) + r * b
                hb = ly.solve_lyapunov(b, -np.eye(n), Disk())
                w = ly.emi_operator([[c * c - r * r]], [[-c]], [[1.0]], a, hb)
                ok, _ = ly.is_negative_definite(w)
                assert ok and spd(hb)
                assert (abs(np.linalg.eigvals(a) - c) < r).all()
            else:
                # an eigenvalue outside the disk: the characteristic value
                # at that eigenvalue is nonnegative, so no H can certify
                rho = abs(np.linalg.eigvals(b)).max()
                a = c * np.eye(n) + r * rng.uniform(1.05, 2.0) * b / max(rho, 1e-9)
                lam = np.linalg.eigvals(a)
                if (abs(lam - c) < r - 1e-9).all():
                    continue
                z = lam[np.argmax(abs(lam - c))]
                f = (c * c - r * r) - c * (z + np.conj(z)) + abs(z) ** 2
                assert f.real >= -1e-9

    def test_is_negative_definite(self):
        ok, margin = ly.is_negative_definite(-np.eye(2))
        assert ok and np.isclose(margin, 1.0)
        ok, _ = ly.is_negative_definite(np.zeros((2, 2)))
        assert not ok
        ok, _ = ly.is_negative_definite(np.eye(2))
        assert not ok


class TestDiagonalSearch:
    def test_negative_identity(self):
        v = ly.DiagonalSearch(-np.eye(3), HalfPlaneLeft(), BUDGET).run()
        assert v.proved
        cert = v.witness
        assert np.allclose(np.diag(cert.factor), 1.0 / 3)
        assert np.isclose(cert.margin, 2.0 / 3)

    def test_secant_form_unit_gains(self):
        m = np.array([[-1.0, 0.0, -1.0],
                      [1.0, -1.0, 0.0],
                      [0.0, 1.0, -1.0]])
        v = ly.DiagonalSearch(m, HalfPlaneLeft(), BUDGET).run()
        assert v.proved
        assert ly.verify_certificate(m, v.witness) > 0

    def test_schur_diagonal(self):
        v = ly.DiagonalSearch(0.5 * np.eye(2), Disk(0.0, 1.0),
                               BUDGET).run()
        assert v.proved
        assert np.allclose(np.diag(v.witness.factor), 0.5)
        d = v.witness.factor
        a = 0.5 * np.eye(2)
        assert spd(d - a.T @ d @ a)

    def test_unknown_for_rotation(self):
        v = ly.DiagonalSearch(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                              HalfPlaneLeft(), 300).run()
        assert not v.proved

    def test_lmi_region_certificate(self, rng):
        # shifted half-plane Re z < -0.1
        region = LMIRegion([[0.2]], [[1.0]])
        a, _ = random_diagonally_stable(rng, 3)
        a = a - 0.2 * np.eye(3)
        v = ly.DiagonalSearch(a, region, BUDGET).run()
        assert v.proved
        assert ly.verify_certificate(a, v.witness) > 0

    def test_emi_region_certificate(self, rng):
        region = EMIRegion([[-1.0]], [[0.0]], [[1.0]])
        a, _ = random_schur_diag_stable(rng, 3)
        v = ly.DiagonalSearch(a, region, BUDGET).run()
        assert v.proved
        assert ly.verify_certificate(a, v.witness) > 0

    def test_two_block_lmi_strip_region(self, rng):
        # vertical strip -h < Re z < 0 as a 2x2 characteristic function
        import matstab.spectra as sp
        h = 3.0
        region = LMIRegion([[0.0, 0.0], [0.0, -2.0 * h]],
                           [[1.0, 0.0], [0.0, -1.0]])
        for _ in range(200):
            z = complex(rng.uniform(-5, 2), rng.normal())
            inside = -h < z.real < 0
            got = sp.membership(z, region)
            if abs(z.real) > 1e-6 and abs(z.real + h) > 1e-6:
                assert (got == -1) == inside

        # a diagonally stable matrix squeezed into the strip certifies
        a, _ = random_diagonally_stable(rng, 3)
        a = a / (2.0 * np.linalg.norm(a, 2) / h) - 0.05 * np.eye(3)
        lam = np.linalg.eigvals(a).real
        assert (lam < 0).all() and (lam > -h).all()
        v = ly.DiagonalSearch(a, region, 8000).run()
        if v.proved:
            assert ly.verify_certificate(a, v.witness) > 0

    def test_two_block_lmi_disk_encoding(self, rng):
        # disk |z + c| < r as [[-r, c+z], [c+zbar, -r]] negative definite
        import matstab.spectra as sp
        c, r = 0.5, 2.0
        region = LMIRegion([[-r, c], [c, -r]], [[0.0, 1.0], [0.0, 0.0]])
        direct = sp.Disk(-c, r)
        for _ in range(300):
            z = complex(rng.normal(), rng.normal()) * 2.0
            assert sp.membership(z, region) == sp.membership(z, direct)


DUAL_STOP = "dual-bound-excludes-certificate"


def half_plane_form(a, d):
    return d[:, None] * a + (d[:, None] * a).T


def unit_disk_form(a, d):
    return a.T @ (d[:, None] * a) - np.diag(d)


def simplex_points(n, seed, count=64):
    """The uniform point, then ``count`` seeded random points of the simplex."""
    pts = np.random.default_rng(seed).dirichlet(np.ones(n), size=count)
    return np.vstack([np.full(n, 1.0 / n), pts])


def count_eigen_solves(monkeypatch):
    calls = [0]
    inner = ly._DiagOperator.value_and_subgrad

    def counting(self, d):
        calls[0] += 1
        return inner(self, d)

    monkeypatch.setattr(ly._DiagOperator, "value_and_subgrad", counting)
    return calls


class TestDualBoundStop:
    @given(st.integers(1, 6).flatmap(
               lambda n: arrays(np.float64, (n, n),
                                elements=st.floats(-3.0, 3.0))),
           st.sampled_from([(HalfPlaneLeft(), half_plane_form),
                            (Disk(0.0, 1.0), unit_disk_form)]))
    # lambda_max is 0 in exact arithmetic at every simplex point, and
    # eigvalsh gives -6e-33 at one of them
    @example(np.full((4, 4), -2.9082760920306767),
             (HalfPlaneLeft(), half_plane_form))
    @settings(max_examples=80, deadline=None)
    def test_stop_only_where_no_simplex_point_certifies(self, a, case):
        region, form = case
        v = ly.DiagonalSearch(a, region, 400).run()
        if v.reason != DUAL_STOP:
            return
        assert v.status.value == "unknown"
        # the search certifies d when lambda_max < -definiteness_tol; the
        # dual bound stops it having shown that no simplex point does
        for d in simplex_points(a.shape[0], seed=a.shape[0]):
            w = form(a, d)
            assert not np.linalg.eigvalsh(w)[-1] < -ly.definiteness_tol(w)

    def test_diagonally_stable_inputs_still_proved(self, rng):
        for n in range(2, 9):
            for _ in range(4):
                a, _ = random_diagonally_stable(rng, n)
                v = ly.DiagonalSearch(a, HalfPlaneLeft(), BUDGET).run()
                assert v.proved
                assert ly.verify_certificate(a, v.witness) > 0
                b, _ = random_schur_diag_stable(rng, n)
                v = ly.DiagonalSearch(b, Disk(0.0, 1.0), BUDGET).run()
                assert v.proved
                assert ly.verify_certificate(b, v.witness) > 0

    def test_classic_counterexample_stops_early(self, monkeypatch):
        calls = count_eigen_solves(monkeypatch)
        v = ly.DiagonalSearch(np.array([[1.0, -4.0], [1.0, -2.0]]),
                              HalfPlaneLeft(), BUDGET).run()
        assert v.reason == DUAL_STOP
        assert calls[0] <= 50

    def test_zero_subgradient_stops_at_once(self, monkeypatch):
        # at d = (1/2, 1/2) the top eigenvector (1, 1) of D A + A^T D is in
        # the kernel of A, so g = 0
        calls = count_eigen_solves(monkeypatch)
        v = ly.DiagonalSearch(np.array([[-1.0, 1.0], [1.0, -1.0]]),
                              HalfPlaneLeft(), BUDGET).run()
        assert (v.reason, calls[0]) == (DUAL_STOP, 1)

    def test_nonfinite_subgradient_rejected(self):
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="not finite"):
            ly.DiagonalSearch(np.array([[-1e308, 1e308], [1e308, -1e308]]),
                              HalfPlaneLeft(), BUDGET).run()

    # the top eigenvector never touches the index of the nonnegative
    # a_ii, so the subgradient bound alone would never stop these
    @pytest.mark.parametrize("a", [
        np.diag([1.0, -1.0]),
        np.array([[0.0, 1.0], [0.0, -1.0]]),
        np.array([[1.0, -4.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.0],
                  [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
        np.zeros((3, 3)),
    ], ids=["diag-1-minus-1", "upper-triangular", "blkdiag-classic",
            "zero"])
    def test_nonnegative_diagonal_entry_stops_at_once(self, a, monkeypatch):
        calls = count_eigen_solves(monkeypatch)
        search = ly.DiagonalSearch(a, HalfPlaneLeft(), BUDGET)
        v = search.run()
        assert (v.reason, calls[0], search.k) == (DUAL_STOP, 0, 0)

    # the unit disk's form is x^2 - 1: each entry is outside or on it
    @pytest.mark.parametrize("a", [
        np.diag([1.5, 0.5]),
        np.array([[0.5, 0.0, 0.0], [0.0, 1.2, -1.0], [0.0, 1.0, -0.5]]),
        np.diag([0.5, -1.0]),
    ], ids=["diag-1.5", "blkdiag-schur-stable", "on-the-circle"])
    def test_diagonal_entry_outside_the_disk_stops_at_once(self, a,
                                                           monkeypatch):
        calls = count_eigen_solves(monkeypatch)
        search = ly.DiagonalSearch(a, Disk(), BUDGET)
        v = search.run()
        assert (v.reason, calls[0], search.k) == (DUAL_STOP, 0, 0)

    def test_diagonal_entry_stop_reads_the_form(self):
        a = np.diag([0.5, -0.5])
        # both entries inside the unit disk: W(d)_ii = d_i (a_ii^2 - 1) < 0
        assert not ly.DiagonalSearch(a, Disk(), BUDGET)._op.diagonal_excludes()
        assert ly.DiagonalSearch(a, Disk(), BUDGET).run().proved
        # r12 = -1 on the right half-plane: a_ii <= 0 fires
        assert ly.DiagonalSearch(a, HalfPlaneRight(),
                                 BUDGET)._op.diagonal_excludes()
        # a 2 x 2 form is never read
        sector = ly.DiagonalSearch(a, SectorRight(0.6), BUDGET)
        assert sector._op.m == 2 and not sector._op.diagonal_excludes()

    @given(st.integers(1, 5).flatmap(
               lambda n: st.tuples(
                   arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0)),
                   st.integers(0, n - 1),
                   st.sampled_from([None, 0.0, -0.0, 5e-324, 1e-300, 1e-12,
                                    -1e-12, -0.05, 0.5, 1.5, -1.2, 1.0,
                                    -1.0]))),
           # the last EMI region, r22 < 0, is the outside of the unit disk
           st.sampled_from([HalfPlaneLeft(), HalfPlaneRight(),
                            LMIRegion([[0.12]], [[0.3]]), Disk(),
                            Disk(2.0, 1.0), EMIRegion([[-0.5]], [[0.2]],
                                                      [[2.0]]),
                            Hyperbolic(),
                            EMIRegion([[1.0]], [[0.0]], [[-1.0]])]))
    @example((np.array([[0.0, 1.0], [-1.0, -1.0]]), 0, None), HalfPlaneLeft())
    @example((np.array([[-1e-300, 0.0], [0.0, -1.0]]), 0, None),
             HalfPlaneLeft())
    @example((np.diag([-0.05, -1.0]), 0, None), HalfPlaneLeft())
    # proved at once, with a_ii inside the region by 2e-4 and 1e-3: a stop
    # with any slack below zero would fire on them
    @example((np.diag([-1e-4, -1.0]), 0, None), HalfPlaneLeft())
    @example((np.diag([0.9995, 0.5]), 0, None), Disk())
    # D = I proves it outside the unit disk (A^2 - I > 0) though a_ii = 0.5
    # is not: the rule holds for r22 >= 0 only
    @example((np.array([[0.5, 3.0], [3.0, 0.5]]), 0, None),
             EMIRegion([[1.0]], [[0.0]], [[-1.0]]))
    @settings(max_examples=80, deadline=None)
    def test_diagonal_entry_stop_never_meets_a_proof(self, case, region):
        a, i, entry = case
        if entry is not None:
            a[i, i] = entry
        fires = ly.DiagonalSearch(a, region, 300).verdict is not None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ly._DiagOperator, "diagonal_excludes",
                       lambda self: False)
            with np.errstate(all="ignore"):
                v = ly.DiagonalSearch(a, region, 300).run()
        assert not (fires and v.proved)

    @pytest.mark.parametrize("n", [8, 10])
    def test_every_constructed_input_proved(self, n):
        # the projected Euclidean step ran out of budget on seed 12 at
        # n = 8 and seeds 22 and 28 at n = 10; the projected box ascent of
        # the hyperbolicity search on 14 of the d_hyperbolic inputs
        for seed in range(40):
            a, _ = random_diagonally_stable(np.random.default_rng(seed), n)
            h = d_hyperbolic(np.random.default_rng(seed), n)
            for a, v in [
                    (a, ly.DiagonalSearch(a, HalfPlaneLeft(), BUDGET).run()),
                    (h, hyperbolic_search(h, BUDGET))]:
                assert v.proved, (n, seed, v.reason)
                assert ly.verify_certificate(a, v.witness) > 0


def hyperbolic_search(a, budget):
    return ly.DiagonalSearch(a, Hyperbolic(), budget).run()


def d_hyperbolic(rng, n):
    """-S A for A diagonally stable through D and S a random sign diagonal:
    S D certifies it, since (S D)(-S A) + (-S A)^T (S D) = -(D A + A^T D)."""
    a, _ = random_diagonally_stable(rng, n)
    return -rng.choice((-1.0, 1.0), n)[:, None] * a


seeded_sizes = st.tuples(st.integers(2, 10), st.integers(0, 2 ** 32 - 1))


class TestFirstCertificate:
    """Each search stops at its first certifying iterate."""

    @staticmethod
    def assert_first(search, a):
        v = search(a, BUDGET)
        if not v.proved:
            return
        assert ly.verify_certificate(a, v.witness) > 0
        again = search(a, v.witness.iterations - 1)
        assert not again.proved

    @given(seeded_sizes, st.sampled_from([
        (lambda rng, n: random_diagonally_stable(rng, n)[0], HalfPlaneLeft()),
        (lambda rng, n: random_schur_diag_stable(rng, n)[0], Disk(0.0, 1.0)),
        (random_schur, Disk(0.0, 1.0)),
    ]))
    @settings(max_examples=40, deadline=None)
    def test_positive_diagonal_search(self, size_seed, case):
        n, seed = size_seed
        make, region = case
        a = make(np.random.default_rng(seed), n)
        self.assert_first(
            lambda m, budget: ly.DiagonalSearch(m, region, budget).run(), a)

    @given(seeded_sizes, st.sampled_from([d_hyperbolic,
                                          lambda rng, n: rng.normal(size=(n, n))]))
    @example((8, 18), d_hyperbolic)
    @settings(max_examples=30, deadline=None)
    def test_hyperbolicity_search(self, size_seed, make):
        n, seed = size_seed
        self.assert_first(hyperbolic_search,
                          make(np.random.default_rng(seed), n))

    def test_negative_identity_certifies_at_the_first_step(self):
        v = ly.DiagonalSearch(-np.eye(3), HalfPlaneLeft(), BUDGET).run()
        assert v.proved and v.witness.iterations == 1


def search_outcome(v):
    """Everything a search verdict reports, with the floats' bits."""
    cert = v.witness
    if cert is None:
        return v.status, v.reason
    return (v.status, v.reason, cert.kind, np.diag(cert.factor).tobytes(),
            float(cert.margin).hex(), cert.iterations)


class TestResumableSearch:
    """A search run in parts equals one uninterrupted search, bit for bit."""

    @staticmethod
    def assert_resumes(a, region, budget, splits):
        whole = ly.DiagonalSearch(a, region, budget).run()
        search = ly.DiagonalSearch(a, region, budget)
        for until in splits:
            partial = search.run(until)
            assert search.k <= min(until, budget)
            if search.verdict is not None:  # a stopped search keeps it
                assert search_outcome(partial) == search_outcome(whole)
        resumed = search.run()
        assert search.k <= budget
        assert search_outcome(resumed) == search_outcome(whole)
        if whole.reason == "search-budget-exhausted":
            assert search.k == budget
        return whole

    @pytest.mark.parametrize("make, n, seed, reason, steps", [
        (lambda rng, n: random_diagonally_stable(rng, n)[0], 12, 0,
         "certificate:diagonal-lyapunov", 174),
        (random_hurwitz, 6, 0, DUAL_STOP, None),
        (random_hurwitz, 6, 3, "search-budget-exhausted", None),
    ], ids=["past-the-prefix", "dual-bound", "budget-exhausted"])
    def test_each_way_a_search_ends(self, make, n, seed, reason, steps):
        a = make(np.random.default_rng(seed), n)
        whole = self.assert_resumes(a, HalfPlaneLeft(), 300, [64])
        assert whole.reason == reason
        if steps is not None:
            assert whole.witness.iterations == steps > 64

    def test_steps_past_the_budget_stop_at_the_budget(self):
        # this input ends budget-exhausted at 300 steps
        a = random_hurwitz(np.random.default_rng(3), 6)
        search = ly.DiagonalSearch(a, HalfPlaneLeft(), 50)
        assert search.run(10).reason == "search-prefix-exhausted"
        assert search.k == 10
        assert search.run(1000).reason == "search-budget-exhausted"
        assert search.k == 50
        assert search.run().reason == "search-budget-exhausted"
        assert search.k == 50

    def test_prefix_then_continuation_is_one_run(self):
        # certified at step 174, past the prefix of 64 steps
        a, _ = random_diagonally_stable(np.random.default_rng(0), 12)
        whole = ly.DiagonalSearch(a, HalfPlaneLeft(), 300).run()
        search = ly.DiagonalSearch(a, HalfPlaneLeft(), 300)
        assert search.run(64).reason == "search-prefix-exhausted"
        resumed = search.run()
        assert search_outcome(resumed) == search_outcome(whole)
        assert resumed.witness.iterations == search.k == 174

    def test_run_after_a_stop_takes_no_step(self, monkeypatch):
        calls = count_eigen_solves(monkeypatch)
        search = ly.DiagonalSearch(-np.eye(3), HalfPlaneLeft(), BUDGET)
        stopped = search.run()
        assert stopped.proved and calls[0] == search.k == 1
        assert search.run() is stopped and search.run(10) is stopped
        assert calls[0] == search.k == 1

    @given(seeded_sizes, st.sampled_from([
               (lambda rng, n: random_diagonally_stable(rng, n)[0],
                HalfPlaneLeft()),
               (random_hurwitz, HalfPlaneLeft()),
               (lambda rng, n: rng.normal(size=(n, n)), HalfPlaneLeft()),
               (lambda rng, n: random_schur_diag_stable(rng, n)[0],
                Disk(0.0, 1.0))]),
           st.integers(1, 300),
           st.lists(st.integers(0, 320), max_size=3).map(sorted))
    @example((12, 0), (lambda rng, n: random_diagonally_stable(rng, n)[0],
                       HalfPlaneLeft()), 300, [64])
    @settings(max_examples=60, deadline=None)
    def test_prefix_and_continuation_equal_one_search(self, size_seed, case,
                                                      budget, splits):
        n, seed = size_seed
        make, region = case
        self.assert_resumes(make(np.random.default_rng(seed), n), region,
                            budget, splits)


class TestHyperbolicity:
    # the factor has the signs of the diagonal; its magnitudes are the
    # simplex iterate of the reduced search, uniform 1/n at step 1
    def test_identity(self):
        v = hyperbolic_search(np.eye(3), BUDGET)
        assert v.proved and v.witness.iterations == 1
        assert np.allclose(np.diag(v.witness.factor), 1.0 / 3)

    def test_indefinite_diagonal(self):
        v = hyperbolic_search(np.diag([1.0, -1.0]), BUDGET)
        assert v.proved and v.witness.iterations == 1
        assert np.array_equal(np.sign(np.diag(v.witness.factor)), [1.0, -1.0])
        assert np.allclose(np.diag(v.witness.factor), [0.5, -0.5])

    def test_rotation_has_no_certificate(self, monkeypatch):
        # spectrum {+-i} is purely imaginary; a zero diagonal entry makes
        # the (i, i) entry of D A + A^T D vanish for every D
        calls = count_eigen_solves(monkeypatch)
        search = ly.DiagonalSearch(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   Hyperbolic(), BUDGET)
        v = search.run()
        assert (v.reason, calls[0], search.k) == (DUAL_STOP, 0, 0)

    def test_no_certificate_ends_at_the_dual_bound(self):
        # spectrum +-i sqrt(5), with a nonzero diagonal
        v = hyperbolic_search(np.array([[1.0, 2.0], [-3.0, -1.0]]), BUDGET)
        assert v.reason == DUAL_STOP

    def test_certificate_implies_no_imaginary_axis_eigenvalues(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            v = hyperbolic_search(a, 800)
            if v.proved:
                assert abs(np.linalg.eigvals(a).real).min() > 0

    @staticmethod
    def sign_mapped(a, budget):
        """A reference written out: the half-plane search of -S A, its
        factor E mapped to S E."""
        s = np.sign(np.diag(a))
        if not s.all():
            return Verdict(Status.UNKNOWN, DUAL_STOP)
        v = ly.DiagonalSearch(-s[:, None] * a, HalfPlaneLeft(), budget).run()
        if not v.proved:
            return v
        cert = v.witness
        return Verdict(Status.PROVED, "certificate:diagonal-hyperbolic",
                       witness=ly.Certificate(
                           "diagonal-hyperbolic",
                           np.diag(s * np.diag(cert.factor)), cert.margin,
                           Hyperbolic(), cert.iterations))

    @given(seeded_sizes, st.sampled_from([d_hyperbolic,
                                          lambda rng, n: rng.normal(size=(n, n))]))
    @example((8, 18), d_hyperbolic)  # certified at step 64
    @settings(max_examples=30, deadline=None)
    def test_same_certificate_as_the_sign_mapping(self, size_seed, make):
        n, seed = size_seed
        a = make(np.random.default_rng(seed), n)
        v = hyperbolic_search(a, BUDGET)
        assert search_outcome(v) == search_outcome(self.sign_mapped(a, BUDGET))
        if v.proved:
            assert v.witness.region == Hyperbolic()
            assert ly.verify_certificate(a, v.witness) > 0

    @given(seeded_sizes, st.sampled_from([d_hyperbolic,
                                          lambda rng, n: rng.normal(size=(n, n))]),
           st.integers(0, 320))
    @example((8, 18), d_hyperbolic, 32)  # certified at step 64
    @settings(max_examples=30, deadline=None)
    def test_prefix_then_continuation_is_one_search(self, size_seed, make,
                                                    steps):
        n, seed = size_seed
        a = make(np.random.default_rng(seed), n)
        search = ly.DiagonalSearch(a, Hyperbolic(), 300)
        search.run(steps)
        assert search.k <= steps
        resumed = search.run()
        assert search_outcome(resumed) == search_outcome(
            hyperbolic_search(a, 300))


class GeneralFormOperator:
    """The region operator through the general form on every form:
    ``np.diag``, ``kron`` and ``einsum``, with the tolerance of every
    step computed whether a stop can use it or not."""

    def __init__(self, a, region):
        self.a = np.asarray(a, dtype=float)
        self.r11, self.r12, self.r22 = region.emi
        self.m = self.r11.shape[0]

    def apply(self, d):
        a = self.a
        da = d[:, None] * a
        if self.m == 1:
            w = self.r12[0, 0] * (da + da.T) + self.r11[0, 0] * np.diag(d)
            if self.r22[0, 0] != 0.0:
                w = w + self.r22[0, 0] * (a.T @ da)
            return w
        w = (np.kron(self.r11, np.diag(d)) + np.kron(self.r12, da)
             + np.kron(self.r12.T, da.T))
        if np.any(self.r22 != 0.0):
            w = w + np.kron(self.r22, a.T @ da)
        return w

    def value_and_subgrad(self, d):
        w = self.apply(d)
        lam, vec = np.linalg.eigh(w)
        u = vec[:, -1].reshape(self.m, -1)
        au = u @ self.a.T
        g = (np.einsum("pq,pi,qi->i", self.r11, u, u)
             + 2.0 * np.einsum("pq,pi,qi->i", self.r12, u, au))
        if np.any(self.r22 != 0.0):
            g += np.einsum("pq,pi,qi->i", self.r22, au, au)
        return float(lam[-1]), g, ly.definiteness_tol(w)


def reference_search(a, region, budget):
    """The mirror descent of :class:`ly.DiagonalSearch` written out on
    :class:`GeneralFormOperator`: ``(k, verdict)`` at its stop."""
    n = a.shape[0]
    signs = np.ones(n)
    form = region
    if region == Hyperbolic():
        signs = np.sign(np.diag(a))
        a, form = -signs[:, None] * a, HalfPlaneLeft()
    if form.emi[0].shape == (1, 1):
        # a diagonal entry x not strictly inside the form with r22 >= 0:
        # W(d)_ii >= 0 for every positive d, so stop before any step
        r11, r12, r22 = (float(r[0, 0]) for r in form.emi)
        x = np.diag(a)
        if r22 >= 0 and (r11 + r12 * (2.0 * x) + r22 * (x * x) >= 0).any():
            return 0, Verdict(Status.UNKNOWN, DUAL_STOP)
    op = GeneralFormOperator(a, form)
    kind = ly._DIAG_KINDS[region.name]
    rate = np.sqrt(2.0 * np.log(n))
    z, g_sum, w_sum = np.zeros(n), np.zeros(n), 0.0
    for k in range(1, budget + 1):
        d = np.exp(z - z.max())
        d /= d.sum()
        val, g, tol = op.value_and_subgrad(d)
        if val < -tol and d.min() > 0:
            cert = ly.Certificate(kind, np.diag(signs * d), -val, region, k)
            return k, Verdict(Status.PROVED, f"certificate:{kind}",
                              witness=cert)
        scale = float(np.abs(g).max())
        if scale == 0.0:
            return k, Verdict(Status.UNKNOWN, DUAL_STOP)
        g = g / scale
        step = 1.0 / np.sqrt(k)
        g_sum += step * g
        w_sum += step / scale
        if g_sum.min() > w_sum * tol:
            return k, Verdict(Status.UNKNOWN, DUAL_STOP)
        z -= (rate * step) * g
    return budget, Verdict(Status.UNKNOWN, "search-budget-exhausted")


def reference_margin(a, cert):
    """``verify_certificate``'s margin on :class:`GeneralFormOperator`."""
    w = GeneralFormOperator(a, cert.region).apply(np.diag(cert.factor))
    return -float(np.linalg.eigvalsh(0.5 * (w + w.T))[-1])


def _in_region(shift, scale):
    """shift I + scale B for B Schur and diagonally Stein-stable."""
    return lambda rng, n: (shift * np.eye(n)
                           + scale * random_schur_diag_stable(rng, n)[0])


def _spd_like(rng, n):
    b = rng.normal(size=(n, n))
    k = rng.normal(size=(n, n))
    d0 = np.exp(rng.uniform(-1.0, 1.0, n))
    return (b @ b.T / n + 0.5 * np.eye(n) + 0.05 * (k - k.T)) / d0[:, None]


def _normal(rng, n):
    return rng.normal(size=(n, n))


# each region with inputs it certifies and inputs it mostly does not; the
# EMI region is the disk |z + 0.1|^2 < 0.26, in R11 = -0.5, R12 = 0.2,
# R22 = 2, and the LMI region is Re z < -0.2 as 0.12 + 0.3 (z + conj z)
TRAJECTORY_CASES = {
    "half-plane-left": (HalfPlaneLeft(), [
        lambda rng, n: random_diagonally_stable(rng, n)[0], random_hurwitz,
        _normal]),
    "half-plane-right": (HalfPlaneRight(), [
        lambda rng, n: -random_diagonally_stable(rng, n)[0], _normal]),
    "unit-disk": (Disk(), [_in_region(0.0, 1.0), random_schur, _normal]),
    "disk-0.3-0.9": (Disk(0.3, 0.9), [_in_region(0.3, 0.9), _normal]),
    "lmi": (LMIRegion([[0.12]], [[0.3]]), [
        lambda rng, n: random_diagonally_stable(rng, n)[0] - 0.2 * np.eye(n),
        random_hurwitz, _normal]),
    "emi": (EMIRegion([[-0.5]], [[0.2]], [[2.0]]), [
        _in_region(-0.1, 0.26 ** 0.5), _normal]),
    "hyperbolic": (Hyperbolic(), [d_hyperbolic, _normal]),
    "sector": (SectorRight(0.6), [_spd_like, _normal]),
}


class TestReferenceTrajectories:
    """The 1x1 forms' elementwise step and the tolerance computed only
    where a stop can fire leave every search as the general form's, bit
    for bit: the same stop, step count, factor, margin and re-verified
    margin.  The sector's 2x2 form keeps the general path."""

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_CASES))
    def test_same_search_as_the_general_form(self, name):
        region, makes = TRAJECTORY_CASES[name]
        reasons = set()
        for make in makes:
            for seed in range(6):
                rng = np.random.default_rng(seed)
                a = make(rng, int(rng.integers(2, 11)))
                k, reason = self.assert_same(a, region, 300)
                reasons.add(reason)
                if k > 1:  # the same search, one step short of its stop
                    reasons.add(self.assert_same(a, region, k - 1)[1])
        assert {"search-budget-exhausted", DUAL_STOP} <= reasons
        assert any(r.startswith("certificate:") for r in reasons)

    @pytest.mark.parametrize("name", sorted(TRAJECTORY_CASES))
    def test_column_major_input_searches_as_row_major(self, name):
        """A column-major matrix (``np.asfortranarray(a)``, or the ``a.T``
        of a row-major one) gets the search and the re-verified margin of
        its row-major copy, bit for bit."""
        region, makes = TRAJECTORY_CASES[name]
        for make in makes:
            for seed in range(4):
                rng = np.random.default_rng(seed)
                a = make(rng, int(rng.integers(2, 11)))
                f = np.asfortranarray(a)
                k, ref = reference_search(a, region, 300)
                search = ly.DiagonalSearch(f, region, 300)
                v = search.run()
                assert search.k == k
                assert search_outcome(v) == search_outcome(ref)
                if ref.proved and region != Hyperbolic():
                    assert (float(ly.verify_certificate(f, v.witness)).hex()
                            == reference_margin(a, ref.witness).hex())

    @staticmethod
    def assert_same(a, region, budget):
        """One run() and a run(k // 2) resumed by run() against the
        reference; ``(k, reason)`` of the reference."""
        k, ref = reference_search(a, region, budget)
        whole = ly.DiagonalSearch(a, region, budget)
        split = ly.DiagonalSearch(a, region, budget)
        split.run(k // 2)
        for search in (whole, split):
            v = search.run()
            assert search.k == k
            assert search_outcome(v) == search_outcome(ref)
        if ref.proved and region != Hyperbolic():
            assert (float(ly.verify_certificate(a, v.witness)).hex()
                    == reference_margin(a, ref.witness).hex())
        return k, ref.reason


class TestVerifyCertificate:
    def test_margin_example(self):
        cert = ly.Certificate("diagonal-lyapunov", np.eye(2), 2.0,
                              HalfPlaneLeft())
        assert np.isclose(ly.verify_certificate(-np.eye(2), cert), 2.0)

    def test_tampered_factor_rejected(self):
        cert = ly.Certificate("diagonal-lyapunov", np.diag([1.0, -0.5]), 1.0,
                              HalfPlaneLeft())
        with pytest.raises(ly.CertificateError):
            ly.verify_certificate(-np.eye(2), cert)

    def test_round_trip_margin(self, rng):
        for _ in range(20):
            a, _ = random_diagonally_stable(rng, 4)
            v = ly.DiagonalSearch(a, HalfPlaneLeft(), BUDGET).run()
            assert v.proved
            again = ly.verify_certificate(a, v.witness)
            assert abs(again - v.witness.margin) <= 1e-9 * (1 + again)


def hyperbolic_form(a, d):
    """D A + A^T D, as ``verify_certificate`` built it for a hyperbolic
    certificate in a branch of its own."""
    w = d[:, None] * a
    return w + w.T


def hyperbolic_margin(a, d):
    """That branch's margin, lambda_min(D A + A^T D)."""
    return float(np.linalg.eigvalsh(hyperbolic_form(a, d))[0])


def hyperbolic_certificate(d):
    return ly.Certificate("diagonal-hyperbolic", np.diag(d), 1.0, Hyperbolic())


class TestHyperbolicMargin:
    """A hyperbolic certificate is checked on the half-plane form of -S A,
    the form the search ran on.  That form is exactly -(D A + A^T D), so
    its margin -lambda_max(-(D A + A^T D)) is lambda_min(D A + A^T D) up
    to ``eigvalsh`` on a negated matrix: bit for bit on generic inputs,
    within n eps ||W||_2 where W has clustered eigenvalues."""

    @given(st.integers(1, 8).flatmap(
               lambda n: st.tuples(
                   arrays(np.float64, (n, n), elements=st.floats(-3.0, 3.0)),
                   arrays(np.float64, n, elements=st.floats(-3.0, 3.0)))),
           st.floats(-3.0, 3.0), st.booleans())
    # b b^T / n + 0.1 I has the eigenvalue 0.1 seven times: the two
    # margins differ by two ulps
    @example((np.full((8, 8), 2.5), np.zeros(8)), 0.0, True)
    @settings(max_examples=150, deadline=None)
    def test_margin_is_lambda_min_of_the_signed_form(self, case, log_scale,
                                                     certified):
        b, log_d = case
        n = len(log_d)
        d = 10.0 ** log_d * np.where(np.arange(n) % 2, -1.0, 1.0)
        if certified:  # D A = P + K, so D A + A^T D = 2 P > 0
            b = (b @ b.T / n + 0.1 * np.eye(n) + (b - b.T)) / d[:, None]
        a = b * 10.0 ** log_scale
        if not certified:  # the signs of the diagonal, whatever the margin
            d = np.sign(np.diag(a)) * np.abs(d)
        try:
            got = ly.verify_certificate(a, hyperbolic_certificate(d))
        except ly.CertificateError as exc:
            got = str(exc)
        if not (d != 0).all():
            assert "positive diagonal" in got
            return
        w = hyperbolic_form(a, d)
        margin = float(np.linalg.eigvalsh(w)[0])
        tol = n * np.finfo(float).eps * np.linalg.norm(w, 2)
        if isinstance(got, str):
            assert "not negative definite" in got and margin <= tol
        else:
            assert abs(got - margin) <= tol
        assert not certified or margin > 0

    def test_generic_margins_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            d = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-3, 3, n)
            b = rng.normal(size=(n, n))
            a = ((b @ b.T / n + 0.1 * np.eye(n) + (b - b.T)) / d[:, None]
                 * 10.0 ** rng.uniform(-3, 3))
            assert (float(ly.verify_certificate(a, hyperbolic_certificate(d)))
                    .hex() == hyperbolic_margin(a, d).hex())

    def test_benchmark_certificates(self):
        # the hyperbolic requests of regions-mix, seeds 1-10, at the
        # rounds of a 35 s run
        count = 0
        for seed in range(1, 11):
            for spec in benchmark_corpus("regions-mix", seed, 7):
                if spec.region != "hyperbolic":
                    continue
                v = hyperbolic_search(spec.matrix, BUDGET)
                if v.proved:
                    count += 1
                    margin = hyperbolic_margin(spec.matrix,
                                               np.diag(v.witness.factor))
                    assert (float(ly.verify_certificate(
                        spec.matrix, v.witness)).hex() == margin.hex())
        assert count == 70

    @pytest.mark.parametrize("d", [[0.5, 0.0], [-0.5, -0.5], [0.5, 0.5]],
                             ids=["zero-entry", "opposite-sign",
                                  "opposite-sign-second"])
    def test_zero_or_opposite_sign_rejected(self, d):
        a = np.diag([1.0, -1.0])
        assert ly.verify_certificate(a, hyperbolic_certificate(
            np.array([0.5, -0.5]))) == 1.0
        with pytest.raises(ly.CertificateError, match="positive diagonal"):
            ly.verify_certificate(a, hyperbolic_certificate(np.array(d)))


class TestCertificateLaws:
    def test_transposition_law(self, rng):
        # D certifies A  =>  D^-1 certifies A^T
        for _ in range(30):
            a, d = random_diagonally_stable(rng, 4)
            dinv = np.diag(1.0 / np.diag(d))
            w = dinv @ a.T + a @ dinv
            assert np.linalg.eigvalsh(0.5 * (w + w.T))[-1] < 0

    def test_inversion_law(self, rng):
        # the same D certifies A^-1
        for _ in range(30):
            a, d = random_diagonally_stable(rng, 4)
            ainv = np.linalg.inv(a)
            w = d @ ainv + ainv.T @ d
            assert np.linalg.eigvalsh(0.5 * (w + w.T))[-1] < 0

    def test_commt_multiplicative_and_additive(self, rng):
        # positive-stability framing: a search-proved certificate for B
        # makes B both multiplicative and additive stable under positive
        # diagonals
        for _ in range(5):
            a, _ = random_diagonally_stable(rng, 3)
            b = -a
            assert ly.DiagonalSearch(-b, HalfPlaneLeft(), BUDGET).run().proved
            for _ in range(200):
                g = np.diag(np.exp(rng.uniform(np.log(1e-2), np.log(1e2), 3)))
                assert np.linalg.eigvals(g @ b).real.min() > 0
                assert np.linalg.eigvals(b + g).real.min() > 0

    def test_commt4_sign_pattern_additive(self, rng):
        # a sign-pattern diagonal certificate keeps A + D off the axis for
        # D in the same sign class
        for _ in range(10):
            signs = rng.choice([-1.0, 1.0], size=3)
            d0 = np.diag(signs * np.exp(rng.uniform(np.log(0.5), np.log(2), 3)))
            k = rng.normal(size=(3, 3))
            k = k - k.T
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            w = (q * np.exp(rng.uniform(np.log(0.2), np.log(2), 3))) @ q.T
            a = np.linalg.inv(d0) @ (k + 0.5 * w)  # D0 A + A^T D0 = W > 0
            for _ in range(10):
                d = np.diag(signs * np.exp(rng.uniform(np.log(1e-2),
                                                       np.log(1e2), 3)))
                lam = np.linalg.eigvals(a + d)
                assert abs(lam.real).min() > 1e-12


def _sector_m(theta):
    return [[-np.sin(theta), np.cos(theta)], [-np.cos(theta), -np.sin(theta)]]


# the conic regions: L = 0, so P D^-1 certifies D A when P certifies A
CONIC_REGIONS = {
    "sector": lambda theta: SectorRight(theta),
    "half-plane-right": lambda theta: HalfPlaneRight(),
    "lmi": lambda theta: LMIRegion(np.zeros((2, 2)), _sector_m(theta)),
}


class TestConicTransfer:
    @pytest.mark.parametrize("kind", sorted(CONIC_REGIONS))
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           theta=st.floats(0.1, 1.4), skew=st.floats(0.0, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_certificate_keeps_every_positive_diagonal_multiple_inside(
            self, kind, seed, n, theta, skew):
        # A = D0^-1 (S + K), S > 0 and K skew: D0 A = S + K is certified
        # by D0 when K is small next to S; a larger K may have none
        rng = np.random.default_rng(seed)
        region = CONIC_REGIONS[kind](theta)
        assert region.conic
        b = rng.normal(size=(n, n))
        k = rng.normal(size=(n, n))
        d0 = np.exp(rng.uniform(-2.0, 2.0, n))
        a = (b @ b.T / n + 0.1 * np.eye(n) + skew * (k - k.T)) / d0[:, None]
        v = ly.DiagonalSearch(a, region, 2000).run()
        if not v.proved:
            return
        cert = v.witness
        assert cert.kind == "diagonal-lmi"
        assert ly.verify_certificate(a, cert) > 0
        with pytest.raises(ly.CertificateError):
            ly.verify_certificate(a, dataclasses.replace(cert, region=Disk()))
        for gclass in (ds.PositiveDiagonal(),
                       ds.IntervalDiagonal((0.5,) * n, (2.0,) * n),
                       ds.AlphaScalar((tuple(range(n - 1)), (n - 1,)))):
            for g in gclass.sample_batch(rng, n, 50):
                assert first_outside(eigenvalues(g @ a), region) is None


class TestCertificateChecks:
    @pytest.mark.parametrize("margin", [0.0, -1.0])
    def test_nonpositive_margin_rejected(self, margin):
        with pytest.raises(ly.CertificateError, match="margin"):
            ly.Certificate("diagonal-lyapunov", np.eye(2), margin,
                           HalfPlaneLeft())

    def test_spd_lyapunov_certificate_rejected(self, rng):
        # no search makes a full Lyapunov factor: a valid one is rejected
        # as not diagonal, and a diagonal one by the kind/region check
        a = random_hurwitz(rng, 4)
        h = ly.solve_lyapunov(a, -np.eye(4))
        ok, margin = ly.is_negative_definite(h @ a + a.T @ h)
        assert ok
        cert = ly.Certificate("spd-lyapunov", h, margin, HalfPlaneLeft())
        with pytest.raises(ly.CertificateError, match="diagonal"):
            ly.verify_certificate(a, cert)
        cert = ly.Certificate("spd-lyapunov", np.eye(4), 1.0, HalfPlaneLeft())
        with pytest.raises(ly.CertificateError, match="does not match"):
            ly.verify_certificate(-np.eye(4), cert)

    @pytest.mark.parametrize("kind, factor, region, message", [
        ("spd-lyapunov", [[1.0, 0.5], [0.0, 1.0]], HalfPlaneLeft(),
         "must be diagonal"),
        ("spd-lyapunov", [[1.0, 0.0], [0.0, -1.0]], HalfPlaneLeft(),
         "positive diagonal"),
        ("diagonal-lyapunov", [[1.0, 0.1], [0.1, 1.0]], HalfPlaneLeft(),
         "diagonal"),
        ("diagonal-lyapunov", [[1.0, 0.0], [0.0, 0.0]], HalfPlaneLeft(),
         "positive diagonal"),
        ("diagonal-stein", [[1.0, 0.0], [0.0, 1.0]], HalfPlaneLeft(),
         "does not match"),
        ("diagonal-hyperbolic", [[1.0, 0.0], [0.0, 0.0]], Hyperbolic(),
         "positive diagonal"),
    ], ids=["asymmetric", "indefinite", "off-diagonal", "zero-entry",
            "kind-region", "singular-hyperbolic"])
    def test_malformed_factor_rejected(self, kind, factor, region, message):
        cert = ly.Certificate(kind, np.asarray(factor), 1.0, region)
        with pytest.raises(ly.CertificateError, match=message):
            ly.verify_certificate(-np.eye(2), cert)

    def test_region_without_diagonal_form_rejected(self):
        with pytest.raises(ValueError, match="no diagonal certificate form"):
            ly.DiagonalSearch(-np.eye(2), PunctureOrigin(), BUDGET)
