import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matstab import dstability as ds
from matstab import lyapunov as ly
from matstab import matrix_core as mc
from matstab import spectra as sp
from matstab.matrix_core import principal_minors
from matstab.spectra import Disk, HalfPlaneLeft, Status

from conftest import (random_diagonally_stable, random_m_matrix,
                      random_schur_diag_stable, random_sdd_positive_diag,
                      random_tridiagonal_p, random_triangular_positive_diag)


# the command line's default --budget
BUDGET = 5000


def suite(a, budget):
    """The items of the exhaustive sufficient suite of -a, on its whole
    half-plane search: ``a`` is the positive-stable twin of the matrix
    tested."""
    return ds.sufficient_suite(
        -a, ly.DiagonalSearch(-a, HalfPlaneLeft(), budget).run(),
        exhaustive=True)[1]


def _old_log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _old_interval_draw(lo, hi):
    def draw(rng):
        cap = np.where(np.isfinite(hi), hi, 1e3 * lo)
        return np.diag(_old_log_uniform(rng, lo, cap))
    return draw


def _old_spd_draw(n):
    def draw(rng):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        lam = _old_log_uniform(rng, 1e-3, 1e3, n)
        return (q * lam) @ q.T
    return draw


def _class_and_old_draw(name, n):
    """A class for dimension n, and its per-sample draw before batching."""
    lo = np.linspace(0.5, 1.0, n)
    if name == "positive-diagonal":
        return ds.PositiveDiagonal(), lambda rng: np.diag(
            np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n)))
    if name == "negative-diagonal":
        return ds.NegativeDiagonal(), lambda rng: np.diag(
            -_old_log_uniform(rng, 1e-3, 1e3, n))
    if name == "diagonal-norm-lt1":
        return ds.DiagonalNormLt1(), lambda rng: np.diag(
            rng.uniform(-1.0, 1.0, n))
    if name == "vertex-diagonal":
        return ds.VertexDiagonal(), lambda rng: np.diag(
            rng.integers(0, 2, n) * 2.0 - 1.0)
    if name == "spd":
        return ds.SPD(), _old_spd_draw(n)
    if name in ("interval-diagonal", "interval-diagonal-inf"):
        hi = 4.0 * lo
        if name.endswith("-inf"):
            hi[::2] = np.inf
        return ds.IntervalDiagonal(tuple(lo), tuple(hi)), \
            _old_interval_draw(lo, hi)
    if name == "entrywise-positive-rank":
        rank = min(2, n)

        def draw(rng):
            g = np.zeros((n, n))
            for _ in range(rank):
                u = _old_log_uniform(rng, 10 ** -1.5, 10 ** 1.5, n)
                v = _old_log_uniform(rng, 10 ** -1.5, 10 ** 1.5, n)
                g += np.outer(u, v)
            return g
        return ds.EntrywisePositiveRank(rank), draw
    if name == "ordered-diagonal":
        tau = tuple(int(i) for i in np.random.default_rng(n).permutation(n))

        def draw(rng):
            values = np.sort(_old_log_uniform(rng, 1e-3, 1e3, n))[::-1]
            d = np.empty(n)
            d[list(tau)] = values
            return np.diag(d)
        return ds.OrderedDiagonal(tau), draw
    partition = tuple(b for b in (tuple(range(1, n, 2)),
                                  tuple(range(0, n, 2))) if b)
    if name == "alpha-scalar":
        def draw(rng):
            d = np.empty(n)
            for block in partition:
                d[list(block)] = _old_log_uniform(rng, 1e-3, 1e3)
            return np.diag(d)
        return ds.AlphaScalar(partition), draw
    if name == "alpha-block-spd":
        def draw(rng):
            g = np.zeros((n, n))
            for block in partition:
                idx = list(block)
                g[np.ix_(idx, idx)] = _old_spd_draw(len(idx))(rng)
            return g
        return ds.AlphaBlockSPD(partition), draw
    if name == "sign-pattern-diagonal":
        signs = tuple((-1) ** i for i in range(n))
        s = np.asarray(signs, dtype=float)
        return ds.SignPatternDiagonal(signs), lambda rng: np.diag(
            s * _old_log_uniform(rng, 1e-3, 1e3, n))
    raise KeyError(name)


class TestSamplers:
    CLASSES = [
        ds.PositiveDiagonal(), ds.NegativeDiagonal(), ds.DiagonalNormLt1(),
        ds.VertexDiagonal(), ds.SPD(), ds.AlphaScalar(((0, 1), (2,))),
        ds.AlphaBlockSPD(((0, 1), (2,))), ds.OrderedDiagonal((2, 0, 1)),
        ds.IntervalDiagonal((0.5, 0.5, 0.5), (2.0, 2.0, 2.0)),
        ds.SignPatternDiagonal((1, -1, 1)), ds.EntrywisePositiveRank(2),
    ]

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.name)
    def test_samples_lie_in_class(self, cls, rng):
        for _ in range(25):
            g = cls.sample_batch(rng, 3, 1)[0]
            assert cls.contains(g)

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.name)
    def test_batch_matches_class(self, cls, rng):
        gs = cls.sample_batch(rng, 3, 17)
        assert gs.shape == (17, 3, 3)
        for g in gs:
            assert cls.contains(g)

    def test_vertex_values(self, rng):
        g = ds.VertexDiagonal().sample_batch(rng, 2, 1)[0]
        assert set(np.abs(np.diag(g))) == {1.0}

    def test_ordered_is_sorted_along_tau(self, rng):
        tau = (1, 2, 0)
        g = ds.OrderedDiagonal(tau).sample_batch(rng, 3, 1)[0]
        d = np.diag(g)[list(tau)]
        assert (d[:-1] >= d[1:]).all()

    def test_alpha_scalar_constant_blocks(self, rng):
        g = ds.AlphaScalar(((0, 2), (1,))).sample_batch(rng, 3, 1)[0]
        assert np.isclose(g[0, 0], g[2, 2])

    def test_rank_positive(self, rng):
        g = ds.EntrywisePositiveRank(1).sample_batch(rng, 4, 1)[0]
        assert (g > 0).all()
        assert np.linalg.matrix_rank(g, tol=1e-9 * abs(g).max()) == 1

    @pytest.mark.parametrize("name", [
        "positive-diagonal", "negative-diagonal", "diagonal-norm-lt1",
        "vertex-diagonal", "spd", "interval-diagonal",
        "interval-diagonal-inf", "ordered-diagonal", "alpha-scalar",
        "sign-pattern-diagonal", "alpha-block-spd", "entrywise-positive-rank"])
    @pytest.mark.parametrize("n", [1, 2, 5, 13])
    def test_default_sample_is_the_old_sampler_bit_for_bit(self, name, n):
        # batches of one and of seven both equal the per-sample code the
        # batch sampler replaced, and leave the stream in the same state
        cls, old = _class_and_old_draw(name, n)
        for seed in range(50):
            got_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = cls.sample_batch(got_rng, n, 1)[0]
            ref = old(ref_rng)
            assert got.tobytes() == ref.tobytes()
            got = cls.sample_batch(got_rng, n, 7)
            ref = np.stack([old(ref_rng) for _ in range(7)])
            assert got.tobytes() == ref.tobytes()
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_interval_draw_above_d_max_raises(self, monkeypatch):
        monkeypatch.setattr(ds, "_log_uniform",
                            lambda rng, lo, hi, size=None:
                            np.broadcast_to(5.0 * np.asarray(lo), size))
        cls = ds.IntervalDiagonal((0.5, 0.5, 0.5), (np.inf, np.inf, np.inf))
        cls.sample_batch(np.random.default_rng(0), 3, 4)  # no upper bound
        cls = ds.IntervalDiagonal((0.5, 0.5, 0.5), (2.0, 2.0, np.inf))
        with pytest.raises(AssertionError,
                           match="sampler left the class interval-diagonal"):
            cls.sample_batch(np.random.default_rng(0), 3, 4)

    @pytest.mark.parametrize("cls, diag", [
        (ds.OrderedDiagonal((0, 1, 2)), (1.0, 2.0, 3.0)),
        (ds.AlphaScalar(((0, 2), (1,))), (1.0, 2.0, 3.0)),
        (ds.SignPatternDiagonal((1, -1, 1)), (1.0, 2.0, 3.0)),
        (ds.VertexDiagonal(), (1.0, -1.0, 0.5)),
    ], ids=["ordered-diagonal", "alpha-scalar", "sign-pattern-diagonal",
            "vertex-diagonal"])
    def test_batch_guard_checks_what_contains_checks(self, cls, diag,
                                                     monkeypatch):
        # a positive draw that breaks the order along tau, the equal
        # values in a block, the sign pattern or the vertex values
        assert not cls.contains(np.diag(diag))
        monkeypatch.setattr(type(cls), "_draw",
                            lambda self, rng, n, k: np.tile(diag, (k, 1)))
        for k in (4, 1):
            with pytest.raises(AssertionError,
                               match="sampler left the class " + cls.name):
                cls.sample_batch(np.random.default_rng(0), 3, k)

    def test_membership_checks_survive_python_O(self):
        # a draw that leaves its class raises even with asserts stripped
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from matstab import dstability as ds
            if not sys.flags.optimize:
                sys.exit("not running under -O")
            log_uniform = ds._log_uniform
            ds._log_uniform = lambda *args: -log_uniform(*args)
            classes = [ds.PositiveDiagonal(), ds.SPD(),
                       ds.IntervalDiagonal((0.5, 0.5), (2.0, 2.0)),
                       ds.AlphaBlockSPD(((0, 1),))]
            for cls in classes:
                for k in (3, 1):
                    try:
                        cls.sample_batch(np.random.default_rng(0), 2, k)
                    except AssertionError as exc:
                        if str(exc) != "sampler left the class " + cls.name:
                            sys.exit("wrong error: " + str(exc))
                    else:
                        sys.exit("no error from " + cls.name)
            print("raised", len(classes))
            """)
        src = os.path.dirname(os.path.dirname(ds.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised 4"

    def test_interval_bounds_validated(self):
        with pytest.raises(ValueError):
            ds.IntervalDiagonal((1.0, 1.0), (0.5, 2.0))

    def test_unbounded_interval(self):
        cls = ds.IntervalDiagonal((1.0,), (np.inf,))
        assert cls.bound == np.inf
        assert ds.IntervalDiagonal((1.0, 0.5), (2.0, 3.0)).bound == 3.0


def _orthant_fault(cls, rng):
    """What is wrong with ``cls.orthant`` on 1,000 3 x 3 diagonals d
    log-uniform over 1e-6..1e6, or None.  A claimed orthant s needs sign
    s and every diag(s d) a member; a class of one strict sign that
    claims none must leave out some diag(sign d)."""
    d = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), (1000, 3)))
    s = cls.orthant
    if s:
        if cls.sign != s:
            return f"orthant {s} with sign {cls.sign}"
        out = next((x for x in d if not cls.contains(np.diag(s * x))), None)
        return None if out is None else f"diag({s * out}) is not a member"
    if cls.sign and all(cls.contains(np.diag(cls.sign * x)) for x in d):
        return "holds the whole orthant and claims none"
    return None


class TestOrthantFact:
    # necessary-p0plus refutes on the orthant fact, which is sound only
    # when the class holds every diagonal of that sign; the samplers'
    # classes hold the mixed pattern +-+ already
    CLASSES = TestSamplers.CLASSES + [ds.SignPatternDiagonal((1, 1, 1)),
                                      ds.SignPatternDiagonal((-1, -1, -1))]

    @pytest.mark.parametrize("cls", CLASSES, ids=repr)
    def test_orthant_is_the_whole_orthant(self, cls, rng):
        assert _orthant_fault(cls, rng) is None

    def test_the_claims(self):
        assert [c.orthant for c in self.CLASSES] == [
            1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1]

    @pytest.mark.parametrize("cls, orthant, fault", [
        (ds.IntervalDiagonal((0.5,) * 3, (2.0,) * 3), 1, "is not a member"),
        (ds.PositiveDiagonal(), 0, "claims none"),
        (ds.SignPatternDiagonal((1, 1, 1)), -1, "with sign 1")],
        ids=["interval-claims", "positive-drops", "wrong-sign"])
    def test_a_wrong_fact_fails(self, monkeypatch, rng, cls, orthant, fault):
        monkeypatch.setattr(type(cls), "orthant", orthant)
        assert fault in _orthant_fault(cls, rng)


class TestClassClosure:
    # the classes used as certificates are closed under the operations
    # that the transfer arguments lean on
    def test_positive_diagonal_group(self, rng):
        cls = ds.PositiveDiagonal()
        g1, g2 = cls.sample_batch(rng, 3, 2)
        assert cls.contains(g1 @ g2)
        assert cls.contains(g1 + g2)
        assert cls.contains(np.linalg.inv(g1))

    def test_spd_closures(self, rng):
        cls = ds.SPD()
        g1, g2 = cls.sample_batch(rng, 3, 2)
        assert cls.contains(g1 + g2)
        assert cls.contains(g1 * g2)  # entrywise product of SPD stays SPD
        assert cls.contains(np.linalg.inv(g1))

    def test_vertex_and_sign_pattern_closures(self, rng):
        vx = ds.VertexDiagonal()
        g1, g2 = vx.sample_batch(rng, 3, 2)
        assert vx.contains(g1 @ g2)
        assert vx.contains(np.linalg.inv(g1))
        sp_cls = ds.SignPatternDiagonal((1, -1, 1))
        h1, h2 = sp_cls.sample_batch(rng, 3, 2)
        assert sp_cls.contains(h1 + h2)

    def test_alpha_scalar_group(self, rng):
        cls = ds.AlphaScalar(((0, 1), (2,)))
        g1, g2 = cls.sample_batch(rng, 3, 2)
        assert cls.contains(g1 @ g2)
        assert cls.contains(g1 + g2)
        assert cls.contains(np.linalg.inv(g1))


OPS = [ds.Multiply(), ds.Add(), ds.HadamardProduct(),
       ds.BlockHadamardProduct(1), ds.BlockHadamardProduct(2),
       ds.BlockHadamardProduct(3)]


def _op_id(op):
    return f"{op.name}-{getattr(op, 'block', '')}".rstrip("-")


class TestApplyOp:
    @pytest.mark.parametrize("op", OPS, ids=_op_id)
    def test_identity_is_exact(self, op, rng):
        # E o A = A bit for bit, at every n the operation takes
        for n in (1, 2, 3, 4, 6, 12):
            if n % getattr(op, "block", 1) == 0:
                a = rng.normal(size=(n, n))
                assert op.apply(op.identity(n), a).tobytes() == a.tobytes()

    def test_eye_is_not_the_block_hadamard_identity(self, rng):
        # I o_2 A keeps the diagonal blocks of A only
        a = rng.normal(size=(4, 4))
        out = ds.BlockHadamardProduct(2).apply(np.eye(4), a)
        assert np.array_equal(out, np.kron(np.eye(2), np.ones((2, 2))) * a)
        assert not np.array_equal(out, a)

    @pytest.mark.parametrize("op", OPS[:5], ids=_op_id)
    def test_stack_is_the_stack_of_single_products(self, op, rng):
        # falsify screens a whole batch with one apply on the stack
        a = rng.normal(size=(4, 4))
        gs = rng.normal(size=(9, 4, 4))
        single = np.stack([op.apply(g, a) for g in gs])
        assert op.apply(gs, a).tobytes() == single.tobytes()


class TestFalsify:
    def test_classic_counterexample(self):
        # Hurwitz but not D-stable; D = diag(3, 1) already flips the trace:
        # trace(diag(3,1) A) = 3*1 - 2 = 1 > 0
        a = np.array([[1.0, -4.0], [1.0, -2.0]])
        da = np.diag([3.0, 1.0]) @ a
        assert np.trace(da) > 0
        v = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                       HalfPlaneLeft(), samples=5000, seed=11)
        assert v.refuted
        w = v.witness
        # witness replays: realized product has the recorded eigenvalue
        realized = ds.Multiply().apply(w.g, a)
        assert np.allclose(realized, w.realized)
        lam = np.linalg.eigvals(realized)
        assert min(abs(lam - w.eigenvalue)) <= 1e-9 * (1 + abs(w.eigenvalue))

    def test_never_refutes_negative_identity(self):
        v = ds.falsify(-np.eye(2), ds.PositiveDiagonal(), ds.Multiply(),
                       HalfPlaneLeft(), samples=4000, seed=1)
        assert v.status is Status.UNKNOWN

    def test_unbounded_class_vs_bounded_region(self):
        v = ds.falsify(0.9 * np.eye(2), ds.PositiveDiagonal(), ds.Multiply(),
                       Disk(0.0, 1.0), samples=10, seed=0)
        assert v.refuted
        assert v.reason == "unbounded-class-bounded-region"
        w = v.witness
        assert w.g is not None  # a concrete scaled witness exists here
        assert abs(w.eigenvalue) >= 1.0 - 1e-8

    def test_unbounded_witness_replays_without_negative_zeros(self):
        # the witness is a sampled member, scaled: its off-diagonal zeros
        # are the sampler's +0.0, and its product replays
        a = -0.5 * np.eye(3)
        v = ds.falsify(a, ds.NegativeDiagonal(), ds.Add(), Disk(0.0, 1.0),
                       samples=10, seed=0)
        assert v.refuted and v.witness.note == "unbounded-class-scaling"
        g = v.witness.g
        assert not np.signbit(g[g == 0.0]).any()
        assert ds.NegativeDiagonal().contains(g)
        assert np.array_equal(ds.Add().apply(g, a), v.witness.realized)
        z = v.witness.eigenvalue
        assert min(abs(np.linalg.eigvals(v.witness.realized) - z)) <= 1e-12
        assert abs(z) >= 1.0

    def test_unbounded_witness_scales_from_the_spectrum(self):
        # D A = 1e-17 D stays inside the disk for D up to 1e12 times a
        # draw; the scale 2 R / rho(D A) takes it out, and it replays
        a = 1e-17 * np.eye(2)
        v = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                       Disk(0.0, 1.0), samples=10, seed=0)
        assert v.refuted and v.witness.note == "unbounded-class-scaling"
        w = v.witness
        assert ds.PositiveDiagonal().contains(w.g)
        assert np.array_equal(ds.Multiply().apply(w.g, a), w.realized)
        z = sp.first_outside(sp.eigenvalues(w.realized), Disk())
        assert z == w.eigenvalue

    def test_unbounded_class_without_escaping_member_is_sampled(self):
        # D A keeps the spectrum {0} for every positive diagonal D: no
        # scaled member escapes the disk, so the class is sampled and
        # nothing refutes
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                       Disk(0.0, 1.0), samples=300, seed=0)
        assert v.status is Status.UNKNOWN
        assert v.reason == "falsification-budget-exhausted"

    def test_zero_member_refutes_exactly(self):
        # |d| < 1 holds 0, and 0 A has the spectrum {0}, off the
        # hyperbolic region: an exact witness before any draw
        a = np.array([[1.0, 2.0], [-2.0, 1.0]])
        v = ds.falsify(a, ds.DiagonalNormLt1(), ds.Multiply(),
                       sp.Hyperbolic(), samples=10, seed=0)
        assert v.refuted and v.reason == "zero-member"
        w = v.witness
        assert np.array_equal(w.g, np.zeros((2, 2)))
        assert (w.eigenvalue, w.sample_index, w.note) == (0, -1, "zero-member")
        # inside the unit disk, 0 witnesses nothing and the class is sampled
        v = ds.falsify(0.5 * np.eye(2), ds.DiagonalNormLt1(), ds.Multiply(),
                       Disk(0.0, 1.0), samples=10, seed=0)
        assert v.reason == "falsification-budget-exhausted"

    def test_unbounded_interval_class_triggers_guard(self):
        cls = ds.IntervalDiagonal((0.5, 0.5), (np.inf, np.inf))
        v = ds.falsify(0.9 * np.eye(2), cls, ds.Multiply(), Disk(0.0, 1.0),
                       samples=10, seed=0)
        assert v.refuted and v.reason == "unbounded-class-bounded-region"

    def test_bounded_class_vs_disk_samples_normally(self, rng):
        a, _ = random_schur_diag_stable(rng, 3)
        v = ds.falsify(a, ds.DiagonalNormLt1(), ds.Multiply(), Disk(0.0, 1.0),
                       samples=3000, seed=5)
        assert v.status is Status.UNKNOWN

    @pytest.mark.parametrize("name, a", [
        # Hurwitz, not H-stable: the first SPD witness is sample 420
        ("spd", [[-0.4, -0.3, -0.2], [-0.2, -1.4, -0.9], [1.0, -0.4, -1.0]]),
        # Hurwitz, not robust on the box [0.5, 2]^3: sample 715
        ("interval", [[-2.0, 0.0, 0.8], [-2.8, -1.5, 0.5], [0.7, 1.7, -0.3]])],
        ids=["spd", "interval"])
    def test_witness_is_the_first_single_draw_witness(self, name, a):
        # batched draws refute at the sample a loop of single draws,
        # with the per-sample code the batch samplers replaced, refutes at
        a = np.array(a)
        if name == "spd":
            gclass, draw = ds.SPD(), _old_spd_draw(3)
        else:
            lo, hi = np.full(3, 0.5), np.full(3, 2.0)
            gclass = ds.IntervalDiagonal(tuple(lo), tuple(hi))
            draw = _old_interval_draw(lo, hi)
        region = HalfPlaneLeft()
        rng = np.random.default_rng(0)
        for i in range(2000):
            g = draw(rng)
            z = sp.first_outside(sp.eigenvalues(g @ a), region)
            if z is not None:
                break
        assert z is not None and i > 256  # past the first batch
        v = ds.falsify(a, gclass, ds.Multiply(), region, samples=2000, seed=0)
        assert v.refuted
        assert v.witness.sample_index == i
        assert v.witness.g.tobytes() == g.tobytes()
        assert v.witness.eigenvalue == z

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_must_be_positive(self, batch):
        # batch 0 would never advance the sample count
        with pytest.raises(ValueError, match="batch"):
            ds.falsify(-np.eye(2), ds.PositiveDiagonal(), ds.Multiply(),
                       HalfPlaneLeft(), samples=10, batch=batch)

    def test_deterministic_given_seed(self):
        a = np.array([[1.0, -4.0], [1.0, -2.0]])
        v1 = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                        HalfPlaneLeft(), samples=2000, seed=99)
        v2 = ds.falsify(a, ds.PositiveDiagonal(), ds.Multiply(),
                        HalfPlaneLeft(), samples=2000, seed=99)
        assert v1.witness.sample_index == v2.witness.sample_index
        assert np.allclose(v1.witness.g, v2.witness.g)


def _first_rejected_sample(a, gclass, op, region, samples, seed, batch):
    """Reference: falsify without its screen, every sample re-solved."""
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    done = 0
    while done < samples:
        b = min(batch, samples - done)
        gs = gclass.sample_batch(rng, n, b)
        for i in range(b):
            for z in sp.eigenvalues(op.apply(gs[i], a)):
                if sp.membership(z, region) >= 0:
                    return done + i, complex(z)
        done += b
    return None


def _outcome(v):
    wit = v.witness
    return (v.status, v.reason,
            None if wit is None else (wit.sample_index, wit.g.tobytes(),
                                      wit.eigenvalue))


def _count_stacked_solves(mp):
    """Patch the eigen-solve to count the matrices of its stacked calls."""
    solved = [0]
    eigvals = np.linalg.eigvals

    def counting(m):
        if np.ndim(m) == 3:
            solved[0] += len(m)
        return eigvals(m)

    mp.setattr(np.linalg, "eigvals", counting)
    return solved


class _FlipOne(ds.GClass):
    """Positive diagonals, except that sample ``at`` has a negative entry.

    For a diagonally stable A every sample but that one keeps the
    spectrum inside the half-plane, and that one flips the sign of
    det(D A), so it puts a real eigenvalue in the right half-plane.
    """

    name = "flip-one"

    def __init__(self, at):
        self.at, self.drawn = at, 0

    def _diag_contains(self, d):
        return (d > 0).all(axis=-1)

    def sample_batch(self, rng, n, k):
        gs = ds.PositiveDiagonal().sample_batch(rng, n, k)
        if 0 <= self.at - self.drawn < k:
            gs[self.at - self.drawn, 0, 0] *= -1.0
        self.drawn += k
        return gs


class TestFalsifyScreen:
    # each region with a real point inside it: samples around that point
    # leave the region now and then, so the screen has misses to make
    @pytest.mark.parametrize("region, centre", [
        (sp.HalfPlaneLeft(), -1.0), (sp.HalfPlaneRight(), 1.0),
        (sp.Disk(0.0, 1.0), 0.0), (sp.SectorRight(0.6), 1.0),
        (sp.ComplementSector(0.6), -1.0), (sp.RealLine(), 0.0),
        (sp.PositiveRealAxis(), 1.0), (sp.NegativeRealAxis(), -1.0),
        (sp.Hyperbolic(), -1.0), (sp.PunctureOrigin(), 1.0),
        (sp.LMIRegion(np.diag([-4.0, 1.0]), np.diag([-1.0, 1.0])), -1.25),
        (sp.EMIRegion([[-1.0]], [[0.0]], [[1.0]]), 0.0)],
        ids=lambda r: getattr(r, "name", ""))
    def test_screen_misses_no_rejected_sample(self, region, centre, rng):
        # the screen flags every sample whose re-check rejects, so falsify
        # refutes at the first such sample, with its first rejected eigenvalue
        gclass = ds.DiagonalNormLt1() if region.bounded else ds.PositiveDiagonal()
        refuted = 0
        for trial in range(12):
            n = int(rng.integers(2, 5))
            e = rng.normal(size=(n, n))
            noise = 0.5 * (e + e.T) + 0.1 * (e - e.T)
            a = centre * np.eye(n) + rng.uniform(0.1, 0.6) * noise
            if trial % 4 == 0:
                a[:, 0] = 0.0  # singular: an eigenvalue at the origin
            v = ds.falsify(a, gclass, ds.Multiply(), region, samples=48,
                           seed=trial, batch=16)
            ref = _first_rejected_sample(a, gclass, ds.Multiply(), region,
                                         48, trial, 16)
            if ref is None:
                assert v.status is Status.UNKNOWN
            else:
                refuted += 1
                assert v.refuted
                assert (v.witness.sample_index, v.witness.eigenvalue) == ref
        assert refuted > 0

    def test_solver_failure_falls_back_per_sample(self, rng, monkeypatch):
        # a stacked solve that raises is redone one sample at a time, with
        # the same verdict and witness
        a, _ = random_diagonally_stable(rng, 5)

        def run():
            return ds.falsify(a, _FlipOne(300), ds.Multiply(),
                              HalfPlaneLeft(), samples=1000, seed=3,
                              batch=64)

        plain = run()
        eigvals = np.linalg.eigvals

        def failing(m):
            if np.ndim(m) == 3:
                raise np.linalg.LinAlgError("stack did not converge")
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        assert plain.witness.sample_index == 300
        assert _outcome(run()) == _outcome(plain)

    @given(st.integers(0, 2**32 - 1), st.integers(3, 12))
    @settings(max_examples=20, deadline=None)
    @pytest.mark.parametrize("name", [
        "positive-diagonal", "interval-diagonal", "negative-diagonal"])
    def test_every_sample_is_solved(self, name, seed, n):
        # P D^-1 certifies D A and P certifies A + D (D <= 0), so no sample
        # is refuted; each is solved once, in a stacked call
        a, _ = random_diagonally_stable(np.random.default_rng(seed), n)
        gclass, op = {
            "positive-diagonal": (ds.PositiveDiagonal(), ds.Multiply()),
            "interval-diagonal": (ds.IntervalDiagonal(
                (0.5,) * n, (2.0,) * n), ds.Multiply()),
            "negative-diagonal": (ds.NegativeDiagonal(), ds.Add())}[name]
        with pytest.MonkeyPatch.context() as mp:
            solved = _count_stacked_solves(mp)
            v = ds.falsify(a, gclass, op, HalfPlaneLeft(), samples=600,
                           seed=seed, batch=128)
        assert v.status is Status.UNKNOWN
        assert solved[0] == 600

    @pytest.mark.parametrize("n", [3, 8])
    def test_witness_keeps_its_sample_index(self, n, rng, monkeypatch):
        # the flipped sample is the witness, its index maps back into the
        # batch, and no batch after the one that holds it is drawn
        a, _ = random_diagonally_stable(rng, n)
        solved = _count_stacked_solves(monkeypatch)
        v = ds.falsify(a, _FlipOne(300), ds.Multiply(), HalfPlaneLeft(),
                       samples=1000, seed=3, batch=64)
        assert v.refuted and v.witness.sample_index == 300
        assert v.witness.g[0, 0] < 0
        assert np.array_equal(v.witness.realized,
                              ds.Multiply().apply(v.witness.g, a))
        assert solved[0] == 5 * 64

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_sample_is_never_a_witness(self, bad, rng):
        # the solver rejects the nonfinite sample, which is skipped; the
        # flipped sample after it is the witness, as without it
        a, _ = random_diagonally_stable(rng, 3)

        class Poisoned(_FlipOne):
            def sample_batch(self, rng, n, k):
                first = self.drawn == 0
                gs = super().sample_batch(rng, n, k)
                if first:
                    gs[5, 1, 1] = bad
                return gs

        kw = dict(samples=1000, seed=3, batch=64)
        plain = ds.falsify(a, _FlipOne(300), ds.Multiply(), HalfPlaneLeft(),
                           **kw)
        with np.errstate(all="ignore"):
            poisoned = ds.falsify(a, Poisoned(300), ds.Multiply(),
                                  HalfPlaneLeft(), **kw)
        assert plain.witness.sample_index == 300
        assert _outcome(poisoned) == _outcome(plain)


class TestNecessary:
    def test_negative_identity_passes(self):
        v = ds.necessary_p0plus(-np.eye(2))
        assert v.status is Status.UNKNOWN
        assert v.reason == "necessary-p0plus-passed"

    def test_classic_counterexample_fails_p0(self):
        # -A = [[-1, 4], [-1, 2]] has the order-1 minor -1 < 0
        a = np.array([[1.0, -4.0], [1.0, -2.0]])
        v = ds.necessary_p0plus(a)
        assert v.refuted
        assert v.witness["minor"] < 0

    def test_hicksian_passes_by_containment(self, rng):
        m = random_m_matrix(rng, 3)  # -(-M) = M is a P-matrix
        assert ds.necessary_p0plus(-m).status is Status.UNKNOWN


class TestExactMinorRefutation:
    @given(st.integers(0, 2**32 - 1), st.integers(8, 12),
           st.floats(30.0, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_diagonally_stable_never_refuted_by_a_minor(self, seed, n, norm):
        # the float tolerance of an order-k minor grows like ||A||^k, so
        # at this scale float screens alone refute these inputs
        a, _ = random_diagonally_stable(np.random.default_rng(seed), n)
        a *= norm / np.linalg.norm(a, np.inf)
        for mode in ("multiplicative", "additive"):
            assert not ds.necessary_p0plus(a, mode=mode).refuted

    @pytest.mark.parametrize("a", [
        [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]],
        [[-1.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0, 0.0], [-1.0, -1.0, 1.0], [0.0, -1.0, 0.0]]])
    def test_vanishing_sum_does_not_refute_addition(self, a):
        # P = I gives W = A + A^T, here diag(A), negative semidefinite, so
        # A + D is Hurwitz for every negative diagonal D; the strict
        # class leaves out D = 0, where the order-n sum would be necessary
        a = np.array(a)
        assert ly.is_negative_definite(a + a.T + 2.0 * np.diag(
            np.full(len(a), -1e-3)))[0]
        assert ds.necessary_p0plus(a, mode="additive").reason == \
            "necessary-p0plus-passed"
        assert ds.necessary_p0plus(a).refuted

    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.integers(-2, 2), min_size=n * n,
                           max_size=n * n).map(
            lambda xs: np.reshape(np.array(xs, float), (n, n)))))
    @settings(max_examples=200, deadline=None)
    def test_only_a_negative_minor_refutes_addition(self, a):
        # small integer matrices: many exactly singular minors and sums
        v = ds.necessary_p0plus(a, mode="additive")
        if v.refuted:
            alpha = v.witness["indices"]
            assert v.reason == "not-p0-additive"
            assert mc.exact_det_sign(-a[np.ix_(alpha, alpha)]) < 0

    def test_exactly_vanishing_sum_still_refutes(self):
        # -A = diag(0, 1): its only order-2 minor is exactly 0
        v = ds.necessary_p0plus(np.diag([0.0, -1.0]))
        assert v.refuted and v.reason == "p0-minor-sums-vanish-multiplicative"
        assert v.witness["order"] == 2
        # the sweep of -A gives an exactly singular minor as +0.0
        assert v.witness["sum"].hex() == "0x0.0p+0"


class TestSufficientSuite:
    def test_identity_fires_exact_items(self):
        fired = {k for k, v in suite(np.eye(3), BUDGET).items() if v.proved}
        assert {"m-matrix", "strict-diagonal-dominance",
                "triangular-positive-diagonal"} <= fired

    def test_tridiagonal_p_matrix(self):
        a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert all(v > 0 for idx, v in principal_minors(a))  # minor oracle
        fired = {k for k, v in suite(a, BUDGET).items() if v.proved}
        assert "tridiagonal-p-matrix" in fired

    @pytest.mark.parametrize("n", [15, 20])
    def test_exact_items_past_the_minor_cap(self, n, monkeypatch):
        # (n + 1) I - ones is an M-matrix and the tridiagonal 3 I - 0.5
        # (off-diagonals) a P-matrix: neither item reads the 2^n minors
        def no_sweep(*args, **kwargs):
            raise AssertionError("the suite swept the principal minors")

        monkeypatch.setattr(ds, "principal_minors", no_sweep)
        monkeypatch.setattr(mc, "principal_minors", no_sweep)
        m_matrix = (n + 1.0) * np.eye(n) - np.ones((n, n))
        items = suite(m_matrix, 50)
        assert items["m-matrix"].proved
        band = np.diag(np.full(n - 1, -0.5))
        tridiagonal = 3.0 * np.eye(n) + np.pad(band, ((1, 0), (0, 1))) \
            + np.pad(band, ((0, 1), (1, 0)))
        items = suite(tridiagonal, 50)
        assert items["tridiagonal-p-matrix"].proved

    def test_tridiagonal_p_item_reads_every_contiguous_minor(self):
        # -A = [[1, 2, 0], [2, 1, 0.1], [0, 0.1, 1]] has positive diagonal
        # but det(-A[0:2, 0:2]) = -3: the contiguous block refutes P
        a = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.1], [0.0, 0.1, 1.0]])
        items = suite(a, 50)
        assert not items["tridiagonal-p-matrix"].proved
        assert items["tridiagonal-p-matrix"].reason == \
            "tridiagonal-p-matrix-premise-fails"
        for n in (3, 6, 9):
            for seed in range(10):
                rng = np.random.default_rng(seed)
                t = np.diag(rng.uniform(0.2, 2.0, n)) \
                    + np.diag(rng.uniform(-1.5, 1.5, n - 1), 1) \
                    + np.diag(rng.uniform(-1.5, 1.5, n - 1), -1)
                oracle = all(v > 0 for _, v in principal_minors(t))
                assert mc.is_tridiagonal_p_matrix(t) is oracle

    def test_triangular_flag_equals_the_index_form(self):
        # the index-array form of the test: every entry strictly below, or
        # every entry strictly above, the diagonal within tol
        def by_indices(a, tol):
            upper = np.all(np.abs(a[np.tril_indices_from(a, -1)]) <= tol)
            lower = np.all(np.abs(a[np.triu_indices_from(a, 1)]) <= tol)
            return bool(upper or lower)

        rng = np.random.default_rng(7)
        tol = 1e-9
        flags = set()
        for i in range(3000):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            kind = i % 5
            if kind == 1:
                a = np.triu(a)
            elif kind == 2:
                a = np.tril(a)
            elif kind == 3:
                a = np.diag(np.diag(a))
            elif kind == 4:  # one off-side entry near tol, on either side
                a = np.triu(a) if rng.integers(2) else np.tril(a)
                if n > 1:
                    p, q = sorted(rng.choice(n, 2, replace=False))
                    a[q, p] = rng.choice([0.5, 1.0, 2.0]) * tol
                    a = a if rng.integers(2) else a.T.copy()
            got = ds._is_triangular(a, tol)
            assert got is by_indices(a, tol), a
            flags.add(got)
        assert flags == {True, False}

    def test_dense_spd_fires_search_with_verified_certificate(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a = (q * rng.uniform(0.5, 3.0, 4)) @ q.T
        search = ly.DiagonalSearch(-a, HalfPlaneLeft(), BUDGET).run()
        verdict, items, _ = ds.sufficient_suite(-a, search, exhaustive=True)
        assert items["diagonal-stability"].proved
        assert verdict.witness is search.witness
        assert ly.verify_certificate(-a, verdict.witness) > 0

    ITEMS = ["diagonal-stability", "m-matrix", "strict-diagonal-dominance",
             "triangular-positive-diagonal", "tridiagonal-p-matrix",
             "w-map-stable", "single-circuit"]

    @pytest.mark.parametrize("a, fired", [
        (-np.eye(3), ITEMS[:-1]),
        # a cyclic form of gain ratio 1, proved by the circuit item
        ([[-1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]],
         ["diagonal-stability", "single-circuit"]),
        ([[1.0, -4.0], [1.0, -2.0]], []),
    ], ids=["negative-identity", "cyclic", "none-fires"])
    def test_one_verdict_on_a(self, a, fired):
        # the suite tests A itself, on the search of A, and returns its
        # row's verdict: the search's certificate rides on it, no item's
        a = np.asarray(a)
        assert ds.SUFFICIENT_ITEMS == tuple(self.ITEMS)
        search = ly.DiagonalSearch(a, HalfPlaneLeft(), 64).run()
        unproved = sp.Verdict(Status.UNKNOWN, "budget-exhausted")
        for s, exhaustive in product((search, unproved), (True, False)):
            verdict, items, skipped = ds.sufficient_suite(a, s, exhaustive)
            proved = [k for k in fired
                      if s.proved or k != "diagonal-stability"]
            # a default run stops at its first proved item
            ran = (self.ITEMS if exhaustive or not proved
                   else self.ITEMS[:self.ITEMS.index(proved[0]) + 1])
            assert (list(items), skipped) == (ran, self.ITEMS[len(ran):])
            assert all(v.witness is None for v in items.values())
            got = [k for k, v in items.items() if v.proved]
            assert got == (proved if exhaustive else proved[:1])
            if got:
                assert verdict.proved
                assert verdict.reason == "sufficient:" + ",".join(got)
            else:
                assert verdict.status is Status.UNKNOWN
                assert verdict.reason == "no-sufficient-class-fired"
            if s.proved:
                assert verdict.witness is s.witness
                assert isinstance(s.witness, ly.Certificate)
            else:
                assert verdict.witness is None

    def test_w_map_route(self, rng):
        # Hurwitz W-map image certifies diagonal stability of -A
        a = np.array([[2.0, -0.1], [0.1, 2.0]])
        assert suite(a, BUDGET)["w-map-stable"].proved

    def test_soundness_against_falsifier(self, rng):
        # any fired class is D-stable: the falsifier stays silent
        gens = [random_m_matrix, random_sdd_positive_diag,
                random_triangular_positive_diag, random_tridiagonal_p]
        for gen in gens:
            for _ in range(5):
                member = gen(rng, 3)
                fired = [k for k, v in suite(member, BUDGET).items()
                         if v.proved]
                assert fired
                v = ds.falsify(-member, ds.PositiveDiagonal(), ds.Multiply(),
                               HalfPlaneLeft(), samples=2000, seed=3)
                assert not v.refuted


class TestLiWang:
    def test_negative_identity(self):
        assert ds.li_wang_stable(-np.eye(3)).proved

    def test_indefinite_diag(self):
        assert ds.li_wang_stable(np.diag([1.0, -1.0])).refuted

    @pytest.mark.parametrize("a", [
        [[-1e308, 1e308], [-1e308, -1e308]],  # det and compound overflow
        [[-1.0, 1e308], [-1e308, -1.0]],  # det overflows
        [[0.0, 0.0, 0.0], [0.0, -1e308, 0.0], [0.0, 0.0, -1e308]],  # compound
    ], ids=["both", "det", "compound"])
    def test_overflow_is_unknown(self, a):
        # a finite matrix, so no ValueError; no overflow warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = ds.li_wang_stable(a)
        assert (v.status, v.reason) == (Status.UNKNOWN, "li-wang-overflow")

    def test_equivalence_on_random_matrices(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n))
            lam = np.linalg.eigvals(a)
            if abs(lam.real).min() < 1e-6:
                continue
            truth = lam.real.max() < 0
            assert ds.li_wang_stable(a).proved == truth


def _hurwitz_with_unstable_block(rng, n, k, t=10.0):
    """A Hurwitz A with a principal block A[S], |S| = k <= n - k, equal
    to b I + skew with b > 0.

    The other n - k indices couple to S through sqrt(t) K, with
    K = c [I_k, 0] and c^2 > b, and carry -t I: for large t the spectrum
    tends to that of b I + skew - c^2 I plus points near -t.
    """
    b = rng.uniform(0.1, 1.0)
    w = rng.normal(size=(k, k))
    c = np.sqrt(b + rng.uniform(0.5, 2.0))
    k_mat = np.zeros((k, n - k))
    k_mat[:, :k] = c * np.eye(k)
    a = np.block([[b * np.eye(k) + w - w.T, np.sqrt(t) * k_mat],
                  [-np.sqrt(t) * k_mat.T, -t * np.eye(n - k)]])
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)]


_DESCENT_TRIPLES = {"multiplicative": (ds.PositiveDiagonal(), ds.Multiply()),
                    "additive": (ds.NegativeDiagonal(), ds.Add())}

# Hurwitz, and every principal submatrix is Hurwitz, yet not D-stable
_ALL_BLOCKS_HURWITZ = np.array([
    [-1.1586866326625964, -1.590694533491332, -0.02837087229130277,
     -0.22586043941753345],
    [0.00943665078785278, -0.00888761263571032, 0.12288948299918538,
     0.8184366940797856],
    [1.474260216290081, -0.41458649631380295, -0.8094849271207406,
     0.5878909690485365],
    [0.0844667555063645, -0.3531982696503235, -0.03852174189029013,
     -0.8639405594525829]])


def _assert_descent_witness_replays(v, a, mode):
    gclass, op = _DESCENT_TRIPLES[mode]
    assert v.refuted and v.reason == "unstable-principal-submatrix"
    w = v.witness
    assert isinstance(w, ds.FalsificationWitness)
    assert w.g.shape == a.shape and w.sample_index == -1
    assert gclass.contains(w.g)
    assert np.array_equal(op.apply(w.g, a), w.realized)
    assert sp.first_outside(sp.eigenvalues(w.realized),
                            HalfPlaneLeft()) is not None


class TestSubmatrixDescent:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12),
           st.sampled_from(["multiplicative", "additive"]))
    @settings(max_examples=60, deadline=None)
    def test_unstable_block_witness_replays(self, seed, n, mode):
        rng = np.random.default_rng(seed)
        a = _hurwitz_with_unstable_block(rng, n, int(rng.integers(
            1, n // 2 + 1)))
        assert sp.eigenvalues(a)[-1].real < 0
        _assert_descent_witness_replays(ds.submatrix_descent(a, mode), a,
                                        mode)

    @pytest.mark.parametrize("mode", ["multiplicative", "additive"])
    def test_unstable_matrix_stops_at_the_full_set(self, mode):
        a = np.array([[0.5, 1.0], [-1.0, 0.2]])
        v = ds.submatrix_descent(a, mode)
        _assert_descent_witness_replays(v, a, mode)
        assert v.witness.note.startswith("principal submatrix (0, 1),")

    @given(st.integers(0, 2**32 - 1), st.integers(2, 12),
           st.sampled_from(["diagonally-stable", "negated-m-matrix"]),
           st.sampled_from(["multiplicative", "additive"]))
    @settings(max_examples=60, deadline=None)
    def test_d_stable_inputs_get_no_hit(self, seed, n, kind, mode):
        # every principal submatrix of these is Hurwitz
        rng = np.random.default_rng(seed)
        a = (random_diagonally_stable(rng, n)[0]
             if kind == "diagonally-stable" else -random_m_matrix(rng, n))
        v = ds.submatrix_descent(a, mode)
        assert (v.status, v.reason) == (Status.UNKNOWN,
                                        "no-unstable-principal-submatrix")

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_solves_within_the_bound(self, n, monkeypatch):
        counter = _SolveCounter(monkeypatch)
        rng = np.random.default_rng(n)
        ds.submatrix_descent(-random_m_matrix(rng, n))
        assert counter.solved <= n * (n + 1) // 2 - 1
        if n >= 2:
            counter.solved = 0
            a = _hurwitz_with_unstable_block(rng, n, 1)
            assert ds.submatrix_descent(a).refuted
            assert counter.solved <= n * (n + 1) // 2 - 1 + len(
                ds.DESCENT_EPS)

    def test_every_block_hurwitz_ends_unknown(self):
        a = _ALL_BLOCKS_HURWITZ
        for k in range(1, 5):
            for idx in combinations(range(4), k):
                assert sp.eigenvalues(a[np.ix_(idx, idx)])[-1].real < 0
        for mode in ("multiplicative", "additive"):
            assert ds.submatrix_descent(a, mode).status is Status.UNKNOWN

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ds.submatrix_descent(-np.eye(2), mode="hadamard")


# the two classes of the vertex sweep: the vertex class holds its
# vertices, the Schur class {|d_i| < 1} holds none
VERTICES = ds.VertexDiagonal()
SCHUR = ds.DiagonalNormLt1()


class TestVertex:
    def test_scaled_identity(self):
        assert ds.vertex_schur_check(0.5 * np.eye(3), VERTICES)[0].proved

    def test_spectral_radius_one_refuted(self):
        v, decides = ds.vertex_schur_check(np.eye(2), VERTICES)
        assert v.refuted and decides

    def test_schur_diag_stable_pass(self, rng):
        for _ in range(10):
            a, _ = random_schur_diag_stable(rng, 4)
            assert ds.vertex_schur_check(a, VERTICES)[0].proved

    def test_cap(self):
        with pytest.raises(ValueError):
            ds.vertex_schur_check(np.eye(17), VERTICES)
        with pytest.raises(ValueError):
            ds.vertex_schur_check(0.5 * np.eye(17), VERTICES)
        with pytest.raises(ValueError):
            ds.vertex_schur_check(np.eye(17), SCHUR)

    @pytest.mark.parametrize("a", [np.eye(2), [[0.0, 1.0], [1.0, 0.0]],
                                   0.5 * np.eye(3)])
    def test_no_vertex_past_the_circle(self, a):
        # every flagged vertex is on the unit circle, within the band, so
        # the Schur class's sweep reads on to the end and decides nothing
        v, decides = ds.vertex_schur_check(a, SCHUR)
        assert not decides
        if v.refuted:
            rho = v.witness["spectral_radius"]
            assert rho - 1.0 <= sp.default_tol(rho)

    def test_flagged_vertices_in_product_order(self):
        # S = I has spectrum {1, -0.5}; S = diag(1, -1) has rho ~ 2.28
        a = [[1.5, 1.0], [-1.0, -1.0]]
        assert ds.vertex_schur_check(a, VERTICES)[0].witness["signs"] == \
            (1.0, 1.0)
        v, decides = ds.vertex_schur_check(a, SCHUR)
        assert decides and v.witness["signs"] == (1.0, -1.0)
        assert v.witness["spectral_radius"] == pytest.approx(
            (2.5 + np.sqrt(4.25)) / 2)


def _vertex_loop(a, gclass):
    """The plain 2^n loop, with no norm bound and no halving.

    The first vertex with a point not strictly inside the unit disk
    refutes, named by that point.  When the class does not hold I, a
    vertex refutes and decides only when a point of its spectrum is past
    the band, and it names the first such point in sorted order; the
    first vertex on the circle then stands, deciding nothing.
    """
    disk = Disk(0.0, 1.0)
    members = gclass.contains(np.eye(a.shape[0]))
    first = None
    for signs in product((1.0, -1.0), repeat=a.shape[0]):
        spec = sp.eigenvalues(np.asarray(signs)[:, None] * a)
        z = sp.first_outside(spec, disk)
        if z is None:
            continue
        rho = float(abs(spec).max())
        past = [complex(w) for w in spec if sp.membership(w, disk) > 0]
        escapes = members or bool(past)
        named = z if members or not past else past[0]
        verdict = sp.Verdict(Status.REFUTED, "vertex-spectral-radius",
                             witness={"signs": signs, "eigenvalue": named,
                                      "spectral_radius": rho})
        if escapes:
            return verdict, True
        if first is None:
            first = verdict
    if first is not None:
        return first, members
    return sp.Verdict(Status.PROVED, "vertex-stable"), members


def _assert_same_vertex_verdict(got, want):
    (got, got_decides), (want, want_decides) = got, want
    assert got_decides == want_decides
    assert (got.status, got.reason) == (want.status, want.reason)
    if want.witness is None:
        assert got.witness is None
        return
    assert set(got.witness) == set(want.witness)
    # bit for bit: repr tells -0.0 from 0.0
    assert [repr(s) for s in got.witness["signs"]] == \
        [repr(s) for s in want.witness["signs"]]
    assert repr(got.witness["eigenvalue"]) == repr(want.witness["eigenvalue"])
    assert repr(got.witness["spectral_radius"]) == \
        repr(want.witness["spectral_radius"])


def _vertex_input(kind, rng, n):
    b = rng.normal(size=(n, n))
    if kind == "random":
        return b * rng.uniform(0.1, 2.0)
    if kind == "norm-bounded":
        return b * (rng.uniform(0.5, 0.95) / np.linalg.norm(b, 2))
    radius = np.abs(np.linalg.eigvals(b)).max()
    if kind == "radius-above-one":
        return b * (rng.uniform(1.3, 2.0) / radius)
    if kind == "triangular":
        # every S A is triangular with diagonal entries |a_ii| < 1, while
        # ||A||_2 >> 1
        return np.triu(5.0 * b, 1) + np.diag(rng.uniform(-0.9, 0.9, n))
    # near-boundary: rho(A) within a few band widths of 1
    return b * ((1.0 + rng.uniform(-3e-8, 3e-8)) / radius)


class _SolveCounter:
    """Wraps ds.eigenvalues and counts the vertices it solves."""

    def __init__(self, monkeypatch):
        self.solved = 0
        inner = ds.eigenvalues

        def counted(m):
            self.solved += 1
            return inner(m)
        monkeypatch.setattr(ds, "eigenvalues", counted)


class TestVertexKernel:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 10),
           st.sampled_from(["random", "norm-bounded", "radius-above-one",
                            "triangular", "near-boundary"]),
           st.sampled_from([VERTICES, SCHUR]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_two_to_the_n_loop(self, seed, n, kind, gclass):
        a = _vertex_input(kind, np.random.default_rng(seed), n)
        _assert_same_vertex_verdict(ds.vertex_schur_check(a, gclass),
                                    _vertex_loop(a, gclass))

    @pytest.mark.parametrize("a, gclass, named", [
        ([[-1.0, 0.0], [0.0, 2.0]], SCHUR, 2.0),
        ([[-1.0, 0.0], [0.0, 2.0]], VERTICES, -1.0),
        ([[1.0, 0.0], [0.0, 0.5]], SCHUR, 1.0),
    ])
    def test_witness_names_a_refuting_eigenvalue(self, a, gclass, named):
        # -1 is on the unit circle: it refutes the vertex class, which
        # holds diag(1, 1), but no member of the Schur class, whose
        # escaping vertex is named by 2; on diag(1, 0.5) no vertex escapes
        # and the first vertex's point on the circle stands
        got = ds.vertex_schur_check(np.asarray(a), gclass)
        _assert_same_vertex_verdict(got, _vertex_loop(np.asarray(a), gclass))
        assert got[0].refuted and got[0].witness["eigenvalue"] == named

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_norm_bound_edge(self, n, monkeypatch):
        q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
        # the scale at which ||A||_2 (1 + 16 n eps) meets the largest |z|
        # strictly inside the unit disk, |z| - 1 < -1e-8 (1 + |z|)
        inside = (1.0 - 1e-8) / (1.0 + 1e-8)
        edge = inside / (1.0 + 16 * n * np.finfo(float).eps)
        counter = _SolveCounter(monkeypatch)
        for rel, fires in ((-1e-13, True), (1e-13, False)):
            a = (edge * (1.0 + rel)) * q
            before = counter.solved
            _assert_same_vertex_verdict(ds.vertex_schur_check(a, VERTICES),
                                        _vertex_loop(a, VERTICES))
            assert (counter.solved == before) == fires
        # rho(Q) = 1: no bound, and the first vertex refutes
        _assert_same_vertex_verdict(ds.vertex_schur_check(q, VERTICES),
                                    _vertex_loop(q, VERTICES))

    @pytest.mark.parametrize("norm", [np.nan, np.inf])
    def test_nonfinite_norm_takes_no_shortcut(self, norm, monkeypatch):
        monkeypatch.setattr(np.linalg, "norm", lambda *args: norm)
        counter = _SolveCounter(monkeypatch)
        assert ds.vertex_schur_check(0.5 * np.eye(3), VERTICES)[0].proved
        assert counter.solved == 4

    def test_norm_bounded_input_solves_nothing(self, monkeypatch):
        counter = _SolveCounter(monkeypatch)
        a = _vertex_input("norm-bounded", np.random.default_rng(3), 12)
        assert ds.vertex_schur_check(a, VERTICES)[0].proved
        assert counter.solved == 0

    def test_vertex_stable_triangular_solves_half_the_vertices(
            self, monkeypatch):
        counter = _SolveCounter(monkeypatch)
        a = _vertex_input("triangular", np.random.default_rng(4), 12)
        assert np.linalg.norm(a, 2) > 1.0
        assert ds.vertex_schur_check(a, VERTICES)[0].proved
        assert counter.solved == 2 ** 11

    def test_radius_above_one_solves_one_vertex(self, monkeypatch):
        counter = _SolveCounter(monkeypatch)
        a = _vertex_input("radius-above-one", np.random.default_rng(5), 12)
        v, _ = ds.vertex_schur_check(a, VERTICES)
        assert v.refuted and v.witness["signs"] == (1.0,) * 12
        assert counter.solved == 1

    def test_memory_at_the_cap(self):
        a = _vertex_input("triangular", np.random.default_rng(6), 16)
        tracemalloc.start()
        try:
            assert ds.vertex_schur_check(a, VERTICES)[0].proved
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_solver_failure_is_an_error(self, monkeypatch):
        def raise_(a):
            raise sp.EigenSolverError("no convergence")
        monkeypatch.setattr(ds, "eigenvalues", raise_)
        with pytest.raises(sp.EigenSolverError):
            ds.vertex_schur_check(_vertex_input("triangular",
                                                np.random.default_rng(7), 4),
                                  VERTICES)


class TestInvariantChains:
    def test_duan_patton_products_are_stable(self, rng):
        # negative definite (nonsymmetric) G times SPD L is Hurwitz
        for _ in range(500):
            n = int(rng.integers(2, 5))
            sym = rng.normal(size=(n, n))
            sym = -(sym @ sym.T + 0.3 * np.eye(n))
            skew = rng.normal(size=(n, n))
            g = sym + (skew - skew.T)
            lmat = rng.normal(size=(n, n))
            lmat = lmat @ lmat.T + 0.3 * np.eye(n)
            assert np.linalg.eigvals(g @ lmat).real.max() < 0

    def test_similarity_preserves_suite_conclusion(self, rng):
        # permutation and positive diagonal similarity preserve the
        # aggregate D-stability conclusion (individual items may move:
        # dominance is not similarity-invariant, but its matrices are
        # diagonally stable, which is)
        for gen in (random_m_matrix, random_sdd_positive_diag,
                    random_tridiagonal_p):
            a = gen(rng, 3)
            assert any(v.proved for v in suite(a, BUDGET).values())
            perm = np.eye(3)[list((1, 2, 0))]
            d = np.diag(rng.uniform(0.1, 10.0, 3))
            for sim in (perm.T @ a @ perm,
                        d @ a @ np.linalg.inv(d)):
                assert any(v.proved for v in suite(sim, BUDGET).values())

    def test_scalar_scaling_preserves_verdicts(self, rng):
        a, _ = random_diagonally_stable(rng, 3)
        for alpha in (0.1, 2.0, 17.0):
            v = ly.DiagonalSearch(alpha * a, HalfPlaneLeft(), BUDGET).run()
            assert v.proved
