"""Matrix-class samplers, falsification and D-stability criteria.

Every criterion answers its question (the Hurwitz one where it takes
no region) about the matrix it is given, and a ``minors`` argument is
always ``principal_minors(-a)``.

The matrix classes G and the binary operations are values
(``spectra.Value``): equal by class and parameters, as the regions are.
Each class states the facts that the pipeline reads (``sign``,
``nonsingular``, ``bound``, ``orthant``) next to ``contains``.

Every refutation embeds a replayable witness: the sampled class member,
the realized product, the offending eigenvalue and the stream seed.  A
product G o A past the float range is skipped, never an error.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import lyapunov, special_forms
from .matrix_core import (_running_sum, additive_compound_2, as_matrix,
                          block_hadamard, exact_det_sign, first_negative_minor,
                          is_m_matrix, is_tridiagonal_p_matrix, minor_tol,
                          principal_minors, strict_diagonal_dominance, w_map)
from .spectra import (Disk, EigenSolverError, HalfPlaneLeft, Status, Value,
                      Verdict, eigenvalues, first_outside, membership,
                      region_stable)

__all__ = [
    "GClass", "PositiveDiagonal", "DiagonalNormLt1", "VertexDiagonal",
    "AlphaScalar", "AlphaBlockSPD", "SPD", "OrderedDiagonal",
    "IntervalDiagonal", "SignPatternDiagonal", "EntrywisePositiveRank",
    "NegativeDiagonal", "BinOp", "Multiply", "Add", "HadamardProduct",
    "BlockHadamardProduct", "FalsificationWitness",
    "rank_one_witness", "falsify", "necessary_p0plus", "sufficient_suite",
    "li_wang_stable", "submatrix_descent", "vertex_schur_check",
]


def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def _check_partition(partition, n):
    seen = sorted(i for block in partition for i in block)
    if seen != list(range(n)):
        raise ValueError("partition blocks must be disjoint and cover 0..n-1")


# ---------------------------------------------------------------------------
# Matrix classes G
# ---------------------------------------------------------------------------

class GClass(Value):
    """Base for the parameterized matrix classes.

    ``sample_batch`` is the one sampler of every class.  It draws with
    ``_draw``, which gives the (k, n) diagonals of a diagonal class and
    the (k, n, n) stack of any other, and checks every draw with the
    membership test that ``contains`` runs.

    The transfer lemmas of ``cli._Context.transfers`` read three facts:
    ``sign`` is +1 or -1 when every member is a diagonal of entries of
    that strict sign, else 0; ``nonsingular``, that every member is a
    nonsingular diagonal; ``bound``, the supremum of |g_ij| over the
    members, finite only for a bounded diagonal class.  The D-stability
    rows of ``cli._Context.perturbation`` read a fourth: ``orthant`` is
    +1 or -1 when the class is every diagonal of that strict sign, the
    whole open orthant, else 0 (not claimed).
    """

    name = "gclass"
    sign = 0
    orthant = 0
    bound = math.inf

    @property
    def nonsingular(self):
        return self.sign != 0

    def check_size(self, n):
        """Raise ValueError unless the class has n x n members."""

    def contains(self, g):
        """Diagonal classes: g is diagonal and its diagonal is a member."""
        return _is_diagonal(g) and bool(self._diag_contains(np.diag(g)))

    def _require_member(self, ok):
        # an explicit raise, not an assert: python -O strips asserts, and
        # a sampler that left its class would hand falsify an unsound witness
        if not np.all(ok):
            raise AssertionError(f"sampler left the class {self.name}")

    def sample_batch(self, rng, n, k):
        """(k, n, n) stack of checked samples, equal to k draws of one."""
        self.check_size(n)
        drawn = self._draw(rng, n, k)
        if drawn.ndim == 3:
            self._require_member(self._stack_contains(drawn))
            return drawn
        self._require_member(self._diag_contains(drawn))
        out = np.zeros((k, n, n))
        idx = np.arange(n)
        out[:, idx, idx] = drawn
        return out

    def _draw(self, rng, n, k):
        """Unchecked draw: (k, n) diagonals or a (k, n, n) stack."""
        raise NotImplementedError

    def _diag_contains(self, d):
        """Whether each diagonal is in the class; leading axes of ``d`` are
        a batch."""
        raise NotImplementedError

    def _stack_contains(self, gs):
        """Whether each matrix of a (k, n, n) stack is in the class."""
        return [self.contains(g) for g in gs]


# the structural slack of the membership tests: off-diagonal entries,
# asymmetry and the equalities of a class hold within it
_MEMBER_TOL = 1e-9


def _is_diagonal(g):
    return bool(np.all(np.abs(g - np.diag(np.diag(g))) <= _MEMBER_TOL))


class PositiveDiagonal(GClass):
    """Positive diagonal matrices; samples are log-uniform over six decades."""

    name = "positive-diagonal"
    sign = 1
    orthant = 1

    def _diag_contains(self, d):
        return (d > 0).all(axis=-1)

    def _draw(self, rng, n, k):
        return _log_uniform(rng, 1e-3, 1e3, (k, n))


class NegativeDiagonal(GClass):
    name = "negative-diagonal"
    sign = -1
    orthant = -1

    def _diag_contains(self, d):
        return (d < 0).all(axis=-1)

    def _draw(self, rng, n, k):
        return -_log_uniform(rng, 1e-3, 1e3, (k, n))


class DiagonalNormLt1(GClass):
    """Diagonal matrices with every |d_ii| < 1 (the Schur D-stability class)."""

    name = "diagonal-norm-lt1"
    bound = 1.0

    def _diag_contains(self, d):
        return (np.abs(d) < 1.0).all(axis=-1)

    def _draw(self, rng, n, k):
        return rng.uniform(-1.0, 1.0, (k, n))


class VertexDiagonal(GClass):
    """Diagonal matrices with entries +-1; a finite class."""

    name = "vertex-diagonal"
    nonsingular = True
    bound = 1.0

    def _diag_contains(self, d):
        return (np.abs(np.abs(d) - 1.0) <= _MEMBER_TOL).all(axis=-1)

    def _draw(self, rng, n, k):
        return rng.integers(0, 2, (k, n)) * 2.0 - 1.0


class AlphaScalar(GClass):
    """Positive diagonal matrices constant on each partition block."""

    name = "alpha-scalar"
    sign = 1

    def __init__(self, partition):
        self.partition = partition

    def _diag_contains(self, d):
        slack = _MEMBER_TOL * (1.0 + np.abs(d).max(axis=-1))
        ok = (d > 0).all(axis=-1)
        for block in self.partition:
            ok = ok & (np.ptp(d[..., list(block)], axis=-1) <= slack)
        return ok

    def check_size(self, n):
        _check_partition(self.partition, n)

    def _draw(self, rng, n, k):
        block_of = np.empty(n, dtype=int)
        for j, block in enumerate(self.partition):
            block_of[list(block)] = j
        return _log_uniform(rng, 1e-3, 1e3, (k, len(self.partition)))[:, block_of]


class AlphaBlockSPD(GClass):
    """Symmetric positive definite matrices that are block diagonal."""

    name = "alpha-block-spd"

    def __init__(self, partition):
        self.partition = partition

    def check_size(self, n):
        _check_partition(self.partition, n)

    def _draw(self, rng, n, k):
        g = np.zeros((k, n, n))
        for i in range(k):
            for block in self.partition:
                idx = list(block)
                g[i][np.ix_(idx, idx)] = _spd_draw(rng, len(idx), 1)[0]
        return g

    def contains(self, g):
        mask = np.ones_like(g, dtype=bool)
        for block in self.partition:
            idx = list(block)
            mask[np.ix_(idx, idx)] = False
        if np.abs(g[mask]).max(initial=0.0) > _MEMBER_TOL:
            return False
        return bool(_spd_contains(g))


def _spd_draw(rng, n, k):
    """(k, n, n) stack of unchecked SPD draws, bit-identical to k single ones."""
    # normal draws take a variable share of the stream, so each sample
    # draws its normals and then its eigenvalues; the QR and the products
    # run on the stack
    z = np.empty((k, n, n))
    lam = np.empty((k, 1, n))
    for i in range(k):
        z[i] = rng.normal(size=(n, n))
        lam[i, 0] = _log_uniform(rng, 1e-3, 1e3, n)
    q, _ = np.linalg.qr(z)
    return (q * lam) @ np.swapaxes(q, -1, -2)


def _spd_contains(g):
    """Symmetric and positive definite; leading axes of ``g`` are a batch."""
    gt = np.swapaxes(g, -1, -2)
    axes = (-2, -1)
    symmetric = ~(np.abs(g - gt).max(axis=axes)
                  > _MEMBER_TOL * (1.0 + np.abs(g).max(axis=axes)))
    return symmetric & (np.linalg.eigvalsh(0.5 * (g + gt))[..., 0] > 0)


class SPD(GClass):
    """Symmetric positive definite matrices."""

    name = "spd"

    def contains(self, g):
        return bool(_spd_contains(g))

    def _draw(self, rng, n, k):
        return _spd_draw(rng, n, k)

    def _stack_contains(self, gs):
        return _spd_contains(gs)


class OrderedDiagonal(GClass):
    """Positive diagonals ordered along a permutation: d_t(i) >= d_t(i+1)."""

    name = "ordered-diagonal"
    sign = 1

    def __init__(self, tau):
        self.tau = tau

    def _diag_contains(self, d):
        dt = d[..., list(self.tau)]
        slack = _MEMBER_TOL * (1.0 + dt.max(axis=-1, keepdims=True))
        return ((d > 0).all(axis=-1)
                & (dt[..., :-1] >= dt[..., 1:] - slack).all(axis=-1))

    def check_size(self, n):
        if sorted(self.tau) != list(range(n)):
            raise ValueError("tau must be a permutation of 0..n-1")

    def _draw(self, rng, n, k):
        d = np.empty((k, n))
        d[:, list(self.tau)] = np.sort(_log_uniform(rng, 1e-3, 1e3, (k, n)),
                                       axis=1)[:, ::-1]
        return d


class IntervalDiagonal(GClass):
    """Diagonal box 0 < d_min <= d <= d_max; infinite upper bounds allowed.

    With any infinite upper bound the class is unbounded and the sampler
    caps that entry at 1e3 times its lower bound.
    """

    name = "interval-diagonal"
    sign = 1

    def __init__(self, d_min, d_max):
        lo = np.asarray(d_min, dtype=float)
        hi = np.asarray(d_max, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("interval bounds must be equal-length vectors")
        if not ((lo > 0).all() and (lo < hi).all()):
            raise ValueError("need componentwise 0 < d_min < d_max")
        self.d_min = tuple(lo)
        self.d_max = tuple(hi)

    @property
    def bound(self):
        return float(max(self.d_max))

    def _diag_contains(self, d):
        return ((d >= np.asarray(self.d_min))
                & (d <= np.asarray(self.d_max))).all(axis=-1)

    def check_size(self, n):
        if len(self.d_min) != n:
            raise ValueError("interval bounds do not match the dimension")

    def _draw(self, rng, n, k):
        lo = np.asarray(self.d_min)
        hi = np.asarray(self.d_max)
        cap = np.where(np.isfinite(hi), hi, 1e3 * lo)
        return _log_uniform(rng, lo, cap, (k, n))


class SignPatternDiagonal(GClass):
    """Nonsingular diagonal matrices with a fixed sign pattern."""

    name = "sign-pattern-diagonal"
    nonsingular = True

    def __init__(self, signs):
        self.signs = signs

    @property
    def sign(self):
        signs = set(self.signs)
        return signs.pop() if len(signs) == 1 else 0

    @property
    def orthant(self):
        # a pattern of one sign admits every diagonal of that sign
        return self.sign

    def _diag_contains(self, d):
        return (np.sign(d) == np.asarray(self.signs)).all(axis=-1)

    def check_size(self, n):
        s = np.asarray(self.signs, dtype=float)
        if s.size != n or not np.all(np.abs(s) == 1.0):
            raise ValueError("signs must be a vector of +-1 matching n")

    def _draw(self, rng, n, k):
        return (np.asarray(self.signs, dtype=float)
                * _log_uniform(rng, 1e-3, 1e3, (k, n)))


class EntrywisePositiveRank(GClass):
    """Entry-wise positive matrices of rank at most k (sums of outer products)."""

    name = "entrywise-positive-rank"

    def __init__(self, k):
        self.k = k

    def check_size(self, n):
        if not 1 <= self.k <= n:
            raise ValueError("rank must lie in 1..n")

    def _draw(self, rng, n, k):
        g = np.zeros((k, n, n))
        for i in range(k):
            for _ in range(self.k):
                u = _log_uniform(rng, 10 ** -1.5, 10 ** 1.5, n)
                v = _log_uniform(rng, 10 ** -1.5, 10 ** 1.5, n)
                g[i] += np.outer(u, v)
        return g

    def contains(self, g):
        if not (g > 0).all():
            return False
        return (np.linalg.matrix_rank(g, tol=_MEMBER_TOL * (1.0 + abs(g).max()))
                <= self.k)


# ---------------------------------------------------------------------------
# Binary operations
# ---------------------------------------------------------------------------

class BinOp(Value):
    name = "binop"

    def apply(self, g, a):
        """G o A; a (k, n, n) stack ``g`` gives the stack of k products."""
        raise NotImplementedError

    def identity(self, n):
        """The n x n E with E o A = A for every n x n A."""
        raise NotImplementedError


class Multiply(BinOp):
    name = "multiply"

    def apply(self, g, a):
        return g @ a

    def identity(self, n):
        return np.eye(n)


class Add(BinOp):
    name = "add"

    def apply(self, g, a):
        return g + a

    def identity(self, n):
        return np.zeros((n, n))


class HadamardProduct(BinOp):
    name = "hadamard"

    def apply(self, g, a):
        return g * a

    def identity(self, n):
        return np.ones((n, n))


class BlockHadamardProduct(BinOp):
    name = "block-hadamard"

    def __init__(self, block):
        self.block = block

    def apply(self, g, a):
        if np.ndim(g) == 3:
            return np.stack([block_hadamard(h, a, self.block) for h in g])
        return block_hadamard(g, a, self.block)

    def identity(self, n):
        # I_b in every block, off the diagonal blocks too
        k = n // self.block
        return np.kron(np.ones((k, k)), np.eye(self.block))


# ---------------------------------------------------------------------------
# Falsification
# ---------------------------------------------------------------------------

@dataclass
class FalsificationWitness:
    """A sampled class member whose realized product exits the region."""

    g: np.ndarray
    realized: np.ndarray
    eigenvalue: complex
    sample_index: int
    seed: object
    note: str = ""


def _radius(region):
    """R >= |z| on a bounded region: for v the top eigenvector of R22 and
    (p, q, r) = v^T (R11, R12, R22) v, v^T C(z) v >= p - 2|q||z| + r|z|^2
    is positive past R."""
    v = np.linalg.eigh(region.emi[2])[1][:, -1]
    p, q, r = (v @ x @ v for x in region.emi)
    return (abs(q) + np.sqrt(max(q * q - p * r, 0.0))) / r


def _product(op, g, a):
    """G o A, with an entry past the float range left inf or NaN and not
    warned about: every caller skips a product that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return op.apply(g, a)


def _member_witness(g, a, op, region, index, seed, note):
    """The witness of the member ``g``: G o A, formed alone so that it
    replays, and its first point not strictly inside ``region``.  None
    when the product is not finite, the solver rejects it (neither has a
    spectrum to witness) or its spectrum is strictly inside."""
    m = _product(op, g, a)
    if not np.isfinite(m).all():
        return None
    try:
        z = first_outside(eigenvalues(m), region)
    except EigenSolverError:
        return None
    return None if z is None else FalsificationWitness(g, m, z, index, seed,
                                                       note)


def _unbounded_witness(a, gclass, op, region, rng, seed):
    """Concrete witness for the bounded-region / unbounded-class refutation:
    one drawn G scaled by 1, 10, ..., 1e12, then by 2 R / rho(G o A), which
    escapes unless G o A is nilpotent (every product but ``add`` is linear).
    A G o A past the float range gives no spectral scale."""
    n = a.shape[0]
    base = gclass.sample_batch(rng, n, 1)[0]
    m = _product(op, base, a)
    rho = np.abs(eigenvalues(m)).max() if np.isfinite(m).all() else 0.0
    last = [2.0 * _radius(region) / rho] if rho > 0 else []
    for scale in [10.0 ** k for k in range(0, 13)] + last:
        g = base * scale
        if not gclass.contains(g):
            continue
        wit = _member_witness(g, a, op, region, -1, seed,
                              "unbounded-class-scaling")
        if wit is not None:
            return wit
    return None


def _stacked_spectra(ms):
    """Unsorted spectra of a stack; a sample the solver rejects gets NaN."""
    try:
        return np.linalg.eigvals(ms)
    except np.linalg.LinAlgError:
        # isolate the convergence failure; skip only that sample
        specs = np.full(ms.shape[:2], 0.0, dtype=complex)
        for i in range(ms.shape[0]):
            try:
                specs[i] = np.linalg.eigvals(ms[i])
            except np.linalg.LinAlgError:
                specs[i] = np.nan
        return specs


# the eps of rank_one_witness's H = v v^T + eps I, tried in this order
RANK_ONE_EPS = tuple(10.0 ** -k for k in range(1, 9))


def rank_one_witness(a, gclass, op, region):
    """A member H = v v^T + eps I of the class with H o A outside the region.

    v is the unit top eigenvector of A + A^T.  When its eigenvalue lam
    is above ``definiteness_tol``, H A tends to v (v^T A) as eps -> 0,
    and the one nonzero eigenvalue of that limit is v^T A v = lam / 2 > 0,
    so for a small eps H A is not Hurwitz and A is not H-stable
    (Ostrowski and Schneider).  The first eps of ``RANK_ONE_EPS`` whose
    H is in the class and whose product has a point of its spectrum
    outside the region gives the witness, with sample index -1.  None
    when lam is within the band or no eps replays.
    """
    a = as_matrix(a)
    s = a + a.T
    lam, vec = np.linalg.eigh(s)
    if not lam[-1] > lyapunov.definiteness_tol(s):
        return None
    vv = np.outer(vec[:, -1], vec[:, -1])
    eye = np.eye(a.shape[0])
    for eps in RANK_ONE_EPS:
        g = vv + eps * eye
        if not gclass.contains(g):
            continue
        wit = _member_witness(g, a, op, region, -1, None,
                              f"rank-one-symmetric-part: v v^T + {eps:g} I")
        if wit is not None:
            return wit
    return None


def falsify(a, gclass, op, region, samples=10000, seed=0, batch=256):
    """Sample the class and hunt for a spectrum outside the region.

    Refuted embeds the replayable witness; Unknown after the budget.
    Never returns Proved.  A bounded region paired with an unbounded
    class is refuted up front when one drawn member, scaled up, takes
    the spectrum out of the region; otherwise the class is sampled as
    for any other pair: a strictly triangular A keeps the spectrum of
    every D A at {0}, inside the unit disk however large D is.  A class
    that holds G = 0 is refuted when 0 o A leaves the region, an exact
    witness before any draw: under ``multiply`` and the Hadamard
    products its spectrum is {0}.
    """
    if batch < 1:
        raise ValueError("batch must be at least 1")
    a = as_matrix(a)
    n = a.shape[0]
    rng = np.random.default_rng(seed)

    if gclass.bound == math.inf and region.bounded:
        wit = _unbounded_witness(a, gclass, op, region, rng, seed)
        if wit is not None:
            return Verdict(Status.REFUTED, "unbounded-class-bounded-region",
                           witness=wit, seed=seed)
    zero = np.zeros((n, n))
    if gclass.contains(zero):
        wit = _member_witness(zero, a, op, region, -1, seed, "zero-member")
        if wit is not None:
            return Verdict(Status.REFUTED, "zero-member", witness=wit,
                           seed=seed)

    done = 0
    while done < samples:
        b = min(batch, samples - done)
        gs = gclass.sample_batch(rng, n, b)
        ms = _product(op, gs, a)
        specs = _stacked_spectra(ms)
        # vectorized screen with the re-check's own bands; the witness is
        # re-solved alone, so that its eigenvalue is the first in sorted
        # order
        bad = membership(specs, region) >= 0
        for i in np.nonzero(bad.any(axis=1))[0]:
            wit = _member_witness(gs[i], a, op, region, done + int(i), seed,
                                  "")
            if wit is not None:
                return Verdict(Status.REFUTED, "sampled-counterexample",
                               witness=wit, seed=seed)
        done += b
    return Verdict(Status.UNKNOWN, "falsification-budget-exhausted", seed=seed)


# ---------------------------------------------------------------------------
# Necessary and sufficient conditions
# ---------------------------------------------------------------------------

def necessary_p0plus(a, mode="multiplicative", minors=None):
    """Necessary condition for (Hurwitz) D-stability of ``a``.

    Both multiplicative and additive D-stability force -A to be a P0
    matrix, so a negative minor refutes either.  Multiplicative
    D-stability also forces -A to be P0+, every order-k sum of its minors
    positive, so a vanishing sum refutes it; additive D-stability does
    not, as its strict class leaves out D = 0 (A = 0 is additively
    D-stable).  Passing proves nothing, so the best non-refuted status
    is Unknown with the flag ``necessary-p0plus-passed``.  ``minors``,
    when given, is ``principal_minors(-a)``.

    Floats only screen: a minor refutes only if its exact sign is
    negative (:func:`first_negative_minor`), and an order-k sum only if
    every order-k minor is exactly zero (:func:`exact_det_sign`).
    """
    a = as_matrix(a)
    if mode not in ("multiplicative", "additive"):
        raise ValueError(f"unknown mode {mode!r}")
    b = -a
    if minors is None:
        minors = principal_minors(b)
    negative = first_negative_minor(b, minors)
    if negative is not None:
        indices, minor = negative
        return Verdict(Status.REFUTED, f"not-p0-{mode}", witness={
            "indices": indices, "minor": minor, "matrix": "-A"})
    norm = np.linalg.norm(b, np.inf)
    sums = minors.orders if mode == "multiplicative" else ()
    for k, (sets, values) in enumerate(sums, start=1):
        s = _running_sum(values)  # the witness sum is a running total
        if s <= minor_tol(norm, k) and not any(
                exact_det_sign(b[np.ix_(alpha, alpha)]) for alpha in sets):
            return Verdict(Status.REFUTED, f"p0-minor-sums-vanish-{mode}",
                           witness={"order": k, "sum": s, "matrix": "-A"})
    return Verdict(Status.UNKNOWN, "necessary-p0plus-passed")


def _is_triangular(a, tol):
    """Every entry below, or every entry above, the diagonal within
    ``tol``."""
    return bool((abs(np.tril(a, -1)) <= tol).all()
                or (abs(np.triu(a, 1)) <= tol).all())


# the items of :func:`sufficient_suite`, in the order it evaluates them
SUFFICIENT_ITEMS = ("diagonal-stability", "m-matrix",
                    "strict-diagonal-dominance",
                    "triangular-positive-diagonal", "tridiagonal-p-matrix",
                    "w-map-stable", "single-circuit")


def _exact_flags(a):
    """Whether each exact item, SUFFICIENT_ITEMS after the search, proves,
    in that order, each computed only when its flag is asked for."""
    b = -a
    yield is_m_matrix(b)
    # read by the next two items and the W-map route
    norm = np.linalg.norm(a, np.inf)  # that of -A too
    tol = minor_tol(norm, 1)
    diag_pos = bool((np.diag(b) > tol).all())
    yield diag_pos and any(strict_diagonal_dominance(b, tol))
    yield diag_pos and _is_triangular(b, tol)
    yield is_tridiagonal_p_matrix(b)
    w_ok = region_stable(w_map(a), HalfPlaneLeft()).proved
    if not w_ok and abs(np.linalg.det(a)) > minor_tol(norm, a.shape[0]):
        w_ok = region_stable(w_map(np.linalg.inv(a)), HalfPlaneLeft()).proved
    yield w_ok
    try:
        yield special_forms.single_circuit_criterion(a).proved
    except ValueError:  # not one circuit, or a diagonal entry not negative
        yield False


def sufficient_suite(a, search, exhaustive):
    """Sufficient (Hurwitz) D-stability tests of ``a``: one row verdict.

    Any Proved item implies that D a is Hurwitz for every positive
    diagonal D.  Items, in the order of SUFFICIENT_ITEMS: diagonal
    stability by certificate search, and, of -A, M-matrix, strict
    diagonal dominance with positive diagonal, triangular with positive
    diagonal and tridiagonal P-matrix; then the W-map route (the
    off-diagonal absolute-value image of A, or of its inverse, Hurwitz
    stable implies diagonal stability) and the exact single-circuit gain
    test of A, which decides every cyclic feedback form.  No item needs
    the 2^n principal minors: a Z-matrix is an M-matrix when its leading
    minors are positive, and a tridiagonal matrix is P when its
    contiguous principal minors are, so every item runs at any n.
    ``search`` is the verdict of the half-plane diagonal search of ``a``:
    ``DiagonalSearch(a, HalfPlaneLeft(), budget).run(steps)``, the whole
    search or a prefix of it.

    Unless ``exhaustive``, the suite stops at its first Proved item: one
    proof decides the row, so the later items are not computed.  Since
    the search comes first, its certificate is the row's whenever it
    proves.

    Returns ``(verdict, items, skipped)``.  ``verdict`` is Proved,
    ``sufficient:<the proved items in order>``, when any item is, with
    the search's certificate as its witness when the search proved;
    else Unknown, ``no-sufficient-class-fired``.  ``items`` maps each
    item that ran to its verdict, without a witness; ``skipped`` lists
    the items that did not run, in suite order.
    """
    a = as_matrix(a)
    items = {"diagonal-stability": Verdict(
        search.status,
        "diagonally-stable" if search.proved else search.reason)}
    if exhaustive or not search.proved:
        for name, flag in zip(SUFFICIENT_ITEMS[1:], _exact_flags(a)):
            items[name] = (Verdict(Status.PROVED, name) if flag
                           else Verdict(Status.UNKNOWN,
                                        f"{name}-premise-fails"))
            if flag and not exhaustive:
                break
    skipped = list(SUFFICIENT_ITEMS[len(items):])
    fired = [name for name, v in items.items() if v.proved]
    if not fired:
        verdict = Verdict(Status.UNKNOWN, "no-sufficient-class-fired")
    else:
        verdict = Verdict(Status.PROVED, "sufficient:" + ",".join(fired),
                          witness=search.witness if search.proved else None)
    return verdict, items, skipped


def li_wang_stable(a):
    """Exact Hurwitz test through the second additive compound.

    A is Hurwitz iff its second additive compound is Hurwitz and
    (-1)^n det A is positive; Unknown when either of the two overflows.
    """
    a = as_matrix(a)
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        det = float(np.linalg.det(a))
        compound = additive_compound_2(a) if n > 1 else a
    if not (math.isfinite(det) and np.isfinite(compound).all()):
        return Verdict(Status.UNKNOWN, "li-wang-overflow")
    sign_ok = ((-1.0) ** n) * det > 0
    if n == 1:
        if sign_ok:
            return Verdict(Status.PROVED, "li-wang-scalar")
        return Verdict(Status.REFUTED, "li-wang-determinant-sign",
                       witness={"det": det})
    inner = region_stable(compound, HalfPlaneLeft())
    if inner.proved and sign_ok:
        return Verdict(Status.PROVED, "li-wang-compound-stable")
    if not sign_ok:
        return Verdict(Status.REFUTED, "li-wang-determinant-sign",
                       witness={"det": det, "n": n})
    return Verdict(Status.REFUTED, "li-wang-compound-unstable",
                   witness=inner.witness)


# ---------------------------------------------------------------------------
# Principal-submatrix descent
# ---------------------------------------------------------------------------

# the eps of submatrix_descent's D_eps, tried in this order
DESCENT_EPS = tuple(10.0 ** -k for k in range(1, 13))


def submatrix_descent(a, mode="multiplicative"):
    """Refute (Hurwitz) D-stability by an unstable principal submatrix.

    Every principal submatrix of a D-stable matrix is D-semistable
    (Hershkowitz, LAA 171, 1992).  From the full index set, each step
    drops the index whose removal leaves the largest spectral abscissa,
    up to the first A[S] with an eigenvalue strictly outside the half-plane.
    As eps -> 0, D_eps A with D_eps = diag(1 on S, eps elsewhere) has the
    spectrum of A[S] plus points near 0; in ``additive`` mode,
    D_eps + A with D_eps = diag(-eps on S, -1/eps elsewhere) has it plus
    points near -1/eps.  The first eps of ``DESCENT_EPS`` whose product
    has a point outside the half-plane gives the witness, with sample
    index -1; else Unknown.  At most n (n + 1) / 2 - 1 submatrix
    eigen-solves (a 1 x 1 block is its entry) and 12 lifts.
    """
    a = as_matrix(a)
    if mode not in ("multiplicative", "additive"):
        raise ValueError(f"unknown mode {mode!r}")

    def top(s):
        """The eigenvalue of A[s] of largest real part."""
        if len(s) == 1:
            return complex(a[s[0], s[0]])
        return eigenvalues(a[np.ix_(s, s)])[-1]

    keep = list(range(a.shape[0]))
    z = top(keep)
    while membership(z, HalfPlaneLeft()) <= 0:
        if len(keep) == 1:
            return Verdict(Status.UNKNOWN, "no-unstable-principal-submatrix")
        # ties go to the first index
        z, drop = max(((top(keep[:i] + keep[i + 1:]), i)
                       for i in range(len(keep))),
                      key=lambda pair: pair[0].real)
        del keep[drop]
    on_s = np.isin(np.arange(a.shape[0]), keep)
    for eps in DESCENT_EPS:
        if mode == "multiplicative":
            g, op = np.diag(np.where(on_s, 1.0, eps)), Multiply()
        else:
            g, op = np.diag(np.where(on_s, -eps, -1.0 / eps)), Add()
        wit = _member_witness(g, a, op, HalfPlaneLeft(), -1, None,
                              f"principal submatrix {tuple(keep)}, "
                              f"eps {eps:g}")
        if wit is not None:
            return Verdict(Status.REFUTED, "unstable-principal-submatrix",
                           witness=wit)
    return Verdict(Status.UNKNOWN, "unstable-principal-submatrix-not-lifted")


# ---------------------------------------------------------------------------
# Sign vertices
# ---------------------------------------------------------------------------

VERTEX_ENUM_CAP = 16
_UNIT_DISK = Disk(0.0, 1.0)


def vertex_schur_check(a, gclass):
    """The ``(verdict, decides)`` of the sign vertices S = diag(+-1) for
    the vertex class or the Schur class {|d_i| < 1}.

    Proved says rho(S A) < 1 for every S.  A vertex is flagged when its
    spectrum has a point not strictly inside the unit disk, in the order
    of ``product((1.0, -1.0), repeat=n)``.  A class that holds its
    vertices (it holds I) is refuted by the first flagged vertex, named
    by that point, and every verdict decides.  The Schur class holds
    none: a vertex with a point past the band escapes as t S for some
    t < 1 and decides, named by the first such point of its sorted
    spectrum, but one on the unit circle refutes nothing, so the sweep
    reads on, each vertex solved once, to a later one that escapes.
    Without one the first flagged vertex's Refuted stands, named by its
    point on the circle, and, like Proved, decides nothing.

    rho(S A) <= ||S A||_2 = ||A||_2, so a norm strictly inside the disk
    proves with no eigen-solve.  Otherwise the 2^(n-1) vertices with
    s_1 = +1 stand for all 2^n, as rho(-M) = rho(M).  Capped at n = 16.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n > VERTEX_ENUM_CAP:
        raise ValueError(f"vertex enumeration capped at n = {VERTEX_ENUM_CAP}")
    members = gclass.contains(np.eye(n))
    rests = product((1.0, -1.0), repeat=n - 1)
    try:
        norm = np.linalg.norm(a, 2)
    except np.linalg.LinAlgError:
        norm = np.inf
    # exact arithmetic proves the bound; the 16 n eps allowance covers the
    # rounding of the computed norm.  That the solved vertices agree at the
    # edge is checked by test_norm_bound_edge, not proven.
    if membership(norm * (1.0 + 16 * n * np.finfo(float).eps), _UNIT_DISK) < 0:
        rests = ()
    first = None
    for rest in rests:
        signs = (1.0,) + rest
        spec = eigenvalues(np.asarray(signs)[:, None] * a)
        point = first_outside(spec, _UNIT_DISK)
        if point is None:
            continue
        past = spec[membership(spec, _UNIT_DISK) > 0]
        if not members and past.size:
            point = past[0]
        verdict = Verdict(Status.REFUTED, "vertex-spectral-radius", witness={
            "signs": signs, "eigenvalue": complex(point),
            "spectral_radius": float(abs(spec).max())})
        if members or past.size:
            return verdict, True
        first = first or verdict
    return first or Verdict(Status.PROVED, "vertex-stable"), members
