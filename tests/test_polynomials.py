import numpy as np
import pytest

from matstab import polynomials as pl
from matstab.spectra import HalfPlaneLeft, Status, first_outside, membership


class TestCharPoly:
    def test_identity(self):
        assert np.allclose(pl.char_poly(np.eye(2)), [1, -2, 1])

    def test_diag(self):
        assert np.allclose(pl.char_poly(np.diag([1.0, 2.0])), [1, -3, 2])

    def test_vanishes_at_eigenvalues(self, rng):
        for _ in range(25):
            a = rng.normal(size=(5, 5))
            p = pl.char_poly(a)
            scale = 1 + abs(np.linalg.eigvals(a)).max() ** 5
            for z in np.linalg.eigvals(a):
                assert abs(np.polyval(p, z)) <= 1e-6 * scale

    def test_elementary_symmetric_functions(self, rng):
        for n in range(2, 7):
            a = rng.normal(size=(n, n))
            lam = np.linalg.eigvals(a)
            expect = np.real(np.poly(lam))
            got = pl.char_poly(a)
            assert np.allclose(got, expect, atol=1e-6 * (1 + abs(expect).max()))


class TestDegenerateBox:
    # lower == upper: the four extreme polynomials are the one polynomial,
    # so the verdict is the Hurwitz test of its roots
    @pytest.mark.parametrize("coeffs, status", [
        ([1.0, 1.0], Status.PROVED),
        ([1.0, 1.0, 1.0], Status.PROVED),       # roots (-1 +- i sqrt 3) / 2
        ([1.0, 0.0, -1.0], Status.REFUTED),     # root +1
        ([-1.0, -3.0, -2.0], Status.PROVED),    # negative leading, roots -1, -2
        ([1.0, 0.0, 1.0], Status.REFUTED),      # +-i, in the boundary band
        ([1.0, 2.0, 2.0, 4.0, 11.0, 10.0], Status.REFUTED),  # two right roots
        ([1.0, 1.0, 1.0, 1.0], Status.REFUTED),  # (z^2 + 1)(z + 1)
        ([1.0, 2.0, -3.0, 4.0], Status.REFUTED),  # a negative coefficient
        ([1.0, 1.0, 0.0], Status.REFUTED),      # a root at the origin
    ], ids=["linear", "quadratic", "right-root", "negative-leading",
            "imaginary-pair", "two-right-roots", "symmetric-pair",
            "negative-coefficient", "origin-root"])
    def test_status(self, coeffs, status):
        v = pl.kharitonov_stable(pl.IntervalPoly(coeffs, coeffs))
        assert v.status is status
        if v.refuted:
            assert v.reason == "kharitonov-k1-unstable"
            assert v.witness["which"] == 1
            assert membership(v.witness["root"], HalfPlaneLeft()) >= 0

    def test_seventh_roots_of_unity_refuted(self):
        # 1 + z + ... + z^6: the 7th roots of unity but 1, the rightmost
        # at Re = cos(2 pi / 7), a clear refutation, not an ambiguous one
        v = pl.kharitonov_stable(pl.IntervalPoly(np.ones(7), np.ones(7)))
        assert v.refuted and v.reason == "kharitonov-k1-unstable"
        assert v.witness["polynomial"] == [1.0] * 7
        assert v.witness["root"].real == pytest.approx(np.cos(2 * np.pi / 7))

    def test_root_witness_is_a_root_of_the_named_polynomial(self, rng):
        refuted = 0
        for _ in range(200):
            deg = int(rng.integers(1, 9))
            lo = rng.normal(size=deg + 1)
            lo[0] = abs(lo[0]) + 0.1
            hi = lo + rng.uniform(0.0, 0.5, deg + 1)
            v = pl.kharitonov_stable(pl.IntervalPoly(lo, hi))
            if not v.refuted:
                continue
            refuted += 1
            k, z = np.asarray(v.witness["polynomial"]), v.witness["root"]
            assert k.tolist() == pl.kharitonov_polys(
                pl.IntervalPoly(lo, hi))[v.witness["which"] - 1].tolist()
            assert abs(np.polyval(k, z)) <= 1e-8 * np.polyval(abs(k), abs(z))
            assert membership(z, HalfPlaneLeft()) >= 0
        assert refuted > 100


# independent re-implementation of the endpoint selection, written as the
# explicit period-4 patterns counted from the constant term upward
def _oracle_kharitonov(lo, hi):
    n = len(lo) - 1

    def pick(pattern):
        out = np.empty(n + 1)
        for i in range(n + 1):
            t = n - i
            out[i] = hi[i] if pattern[t % 4] == "u" else lo[i]
        return out

    k1 = pick("uull")   # +,+,-,- from the constant term
    k2 = pick("lluu")
    k3 = pick("luul")
    k4 = pick("ullu")
    return k1, k2, k3, k4


class TestKharitonov:
    def test_degenerate_box(self):
        box = pl.IntervalPoly([1, 1, 1], [1, 1, 1])
        for k in pl.kharitonov_polys(box):
            assert np.allclose(k, [1, 1, 1])

    def test_endpoints_stay_in_box(self, rng):
        lo = rng.normal(size=5)
        hi = lo + rng.uniform(0.0, 1.0, 5)
        lo[0], hi[0] = 1.0, 2.0
        box = pl.IntervalPoly(lo, hi)
        for k in pl.kharitonov_polys(box):
            assert ((k >= lo - 1e-12) & (k <= hi + 1e-12)).all()

    def test_degree_four_against_selection_oracle(self, rng):
        for _ in range(20):
            lo = rng.normal(size=5)
            hi = lo + rng.uniform(0.1, 1.0, 5)
            lo[0] = abs(lo[0]) + 0.1
            hi[0] = lo[0] + 0.5
            box = pl.IntervalPoly(lo, hi)
            got = pl.kharitonov_polys(box)
            expect = _oracle_kharitonov(lo, hi)
            for g, e in zip(got, expect):
                assert np.allclose(g, e)

    def test_leading_interval_must_exclude_zero(self):
        with pytest.raises(ValueError):
            pl.IntervalPoly([-1, 1], [1, 2])

    def test_negative_leading_box_is_normalized(self):
        box = pl.IntervalPoly([-2, -2], [-1, -1])
        v = pl.kharitonov_stable(box)
        assert v.proved  # members are -(z + c), c in [1, 2]: stable

    def test_stable_box(self):
        assert pl.kharitonov_stable(pl.IntervalPoly([1, 1], [1, 2])).proved

    def test_refuted_box_names_polynomial(self):
        box = pl.IntervalPoly([1, -1, 1], [1, 1, 1])
        v = pl.kharitonov_stable(box)
        assert v.refuted
        which = v.witness["which"]
        bad = v.witness["polynomial"]
        assert np.roots(bad).real.max() >= -1e-9
        assert 1 <= which <= 4

    def test_refutation_names_the_first_unstable_polynomial(self):
        # z^2 + z + c, c in [-1, 1]: K1 takes c = 1 (stable), K2 takes
        # c = -1 (a root at (-1 + sqrt 5) / 2)
        v = pl.kharitonov_stable(pl.IntervalPoly([1, 1, -1], [1, 1, 1]))
        assert v.reason == "kharitonov-k2-unstable"
        assert v.witness["polynomial"] == [1.0, 1.0, -1.0]
        assert v.witness["root"] == pytest.approx((np.sqrt(5.0) - 1.0) / 2)

    def test_soundness_by_member_sampling(self, rng):
        proved = 0
        for _ in range(30):
            n = int(rng.integers(1, 6))
            base = np.real(np.poly(-rng.uniform(0.2, 3.0, n)))
            width = rng.uniform(0.0, 0.05, n + 1) * np.abs(base)
            box = pl.IntervalPoly(base - width, base + width)
            if not pl.kharitonov_stable(box).proved:
                continue
            proved += 1
            for _ in range(200):
                member = box.sample(rng)
                assert np.roots(member).real.max() < 1e-9
        assert proved >= 10


class TestKosov:
    def test_identity_box(self, rng):
        # -D I is Hurwitz on the box
        v = pl.kosov_interval_dstability(-np.eye(3), [1, 1, 1], [2, 2, 2])
        assert v.proved
        for _ in range(500):
            d = rng.uniform(1.0, 2.0, 3)
            assert (np.linalg.eigvals(np.diag(d) @ -np.eye(3)).real
                    < 0).all()

    def test_degenerate_box_is_single_root_test(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        v = pl.kosov_interval_dstability(a, [1.0, 1.0], [1.0, 1.0])
        direct = first_outside(np.roots(pl.char_poly(np.eye(2) @ a)),
                               HalfPlaneLeft())
        assert v.proved == (direct is None)

    def test_inconclusive_names_the_polynomial_test(self):
        # -a = [[0, 1], [-1, 0]] is P0, and every D a has the spectrum
        # +-i sqrt(d1 d2), on the axis: Unknown, with the refuting reason
        v = pl.kosov_interval_dstability([[0.0, -1.0], [1.0, 0.0]],
                                         [1.0, 1.0], [2.0, 2.0])
        assert v.status is Status.UNKNOWN
        assert v.reason == "kosov-inconclusive:kharitonov-k1-unstable"

    def test_non_p0_rejected(self):
        with pytest.raises(ValueError):
            pl.kosov_interval_dstability(np.eye(2), [1, 1], [2, 2])

    def test_undecided_p0_names_the_cap(self):
        a = np.diag(np.full(15, -3.0)) + np.diag(np.full(14, 0.5), 1)
        with pytest.raises(ValueError, match="minor enumeration cap n = 14"):
            pl.kosov_interval_dstability(a, np.full(15, 0.5), np.full(15, 2.0))

    def test_monotone_coefficients_premise(self, rng):
        # P0 matrix: every coefficient of det(lambda I + D A) grows with d_ii
        for _ in range(10):
            a = np.abs(rng.normal(size=(3, 3)))  # nonnegative => P0 check below
            a = a @ a.T + np.eye(3)  # SPD, hence P0
            grids = np.linspace(1.0, 2.0, 4)
            for i in range(3):
                prev = None
                for g in grids:
                    d = np.ones(3)
                    d[i] = g
                    coeffs = pl.char_poly(-(np.diag(d) @ a))
                    if prev is not None:
                        assert (coeffs >= prev - 1e-9).all()
                    prev = coeffs

    def test_sampled_members_stable_when_proved(self, rng):
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            a = -(a @ a.T + 0.5 * np.eye(3))
            v = pl.kosov_interval_dstability(a, [0.5] * 3, [3.0] * 3)
            if not v.proved:
                continue
            for _ in range(100):
                d = np.exp(rng.uniform(np.log(0.5), np.log(3.0), 3))
                assert (np.linalg.eigvals(np.diag(d) @ a).real < 0).all()


class TestIntervalPolyBox:
    @pytest.mark.parametrize("lower, upper, message", [
        ([1.0, 1.0], [1.0, 1.0, 1.0], "equal-length"),
        ([1.0], [2.0], "degree >= 1"),
        ([1.0, 2.0], [1.0, 1.0], "exceeds"),
        ([1.0, 1.0], [1.0, np.inf], "finite"),
        ([], [], "degree >= 1"),
        ([[1.0, 2.0]], [[1.0, 2.0]], "degree >= 1"),
        ([np.nan, 1.0], [np.nan, 1.0], "finite"),
        ([0.0, 1.0], [0.0, 1.0], "exclude zero"),
    ], ids=["lengths", "constant", "crossed", "infinite", "empty", "matrix",
            "nan", "zero-leading"])
    def test_rejected(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            pl.IntervalPoly(lower, upper)

    def test_normalized_flips_a_negative_leading_box(self):
        box = pl.IntervalPoly([-2.0, -1.0, 3.0], [-1.0, 4.0, 5.0])
        flipped = box.normalized()
        assert flipped.lower.tolist() == [1.0, -4.0, -5.0]
        assert flipped.upper.tolist() == [2.0, 1.0, -3.0]
        assert flipped.degree == box.degree == 2
        assert flipped.normalized() is flipped

    def test_samples_lie_in_the_box(self, rng):
        box = pl.IntervalPoly([1.0, -1.0, 0.0], [2.0, 1.0, 0.5])
        for _ in range(100):
            p = box.sample(rng)
            assert ((box.lower <= p) & (p <= box.upper)).all()


class TestCharPolyCompanion:
    def test_companion_matrix_gives_its_polynomial_back(self, rng):
        for n in range(1, 7):
            p = np.concatenate([[1.0], rng.normal(size=n)])
            companion = np.zeros((n, n))
            companion[0] = -p[1:]
            companion[1:, :-1] = np.eye(n - 1)
            assert np.allclose(pl.char_poly(companion), p, atol=1e-9)


class TestKosovArguments:
    @pytest.mark.parametrize("d_min, d_max, message", [
        ([0.0, 1.0], [1.0, 1.0], "0 < d_min"),
        ([2.0, 1.0], [1.0, 1.0], "d_min <= d_max"),
        ([1.0, 1.0], [1.0, np.inf], "< inf"),
    ], ids=["zero-lower", "crossed", "infinite-upper"])
    def test_rejected(self, d_min, d_max, message):
        with pytest.raises(ValueError, match=message):
            pl.kosov_interval_dstability(-np.eye(2), d_min, d_max)

    def test_scalar_bounds_broadcast(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        v = pl.kosov_interval_dstability(a, 0.5, 2.0)
        assert v.proved
        assert v.witness == pl.kosov_interval_dstability(
            a, [0.5, 0.5], [2.0, 2.0]).witness
