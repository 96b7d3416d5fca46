"""Dense matrix constructions and determinantal class predicates.

All index sets in witnesses and in the pairs a :class:`MinorTable`
yields are 0-based tuples.  Minor-based predicates use floating
determinants with the scale-aware zero tolerance
``1e-10 * (1 + ||A||_inf ** k)`` for an order-``k`` minor, computed once
per order.

:func:`principal_minors` returns a lazy :class:`MinorTable`: order k,
the ``(C(n, k), k)`` intp array of index sets in
``itertools.combinations`` order (built in numpy) and the ``(C(n, k),)``
float array of their determinants, is computed when a reader first
reaches it, so the P0 test, which stops at its first failing order,
never sweeps the orders above.
Each order takes the determinants of its stacked k x k principal
submatrices in one ``np.linalg.det`` call, bit for bit the values of a
per-submatrix loop.  The screens read each order's arrays, never the
pairs; an order's sum is a left-to-right running total
(:func:`_running_sum`).
:func:`first_negative_minor` is the one P0 test: the minor-sign
necessity and the interval-box premise read it, on the one table of
``-A`` per request.  The M-matrix and tridiagonal P-matrix tests that
the sufficient suite reads (:func:`is_m_matrix`,
:func:`is_tridiagonal_p_matrix`) cost O(n^3) and need no enumeration.
:func:`exact_det_sign` gives a determinant's sign in exact integer
arithmetic; refutations by a minor sign use it to confirm what the
floating-point screen found.
"""

from itertools import combinations

import numpy as np

__all__ = [
    "MINOR_ENUM_CAP", "as_matrix", "minor_tol", "block_hadamard",
    "additive_compound_2", "comparison_matrix", "w_map", "MinorTable",
    "principal_minors", "exact_det_sign", "first_negative_minor",
    "leading_minors", "is_z_matrix", "is_m_matrix",
    "strict_diagonal_dominance", "is_tridiagonal", "is_tridiagonal_p_matrix",
]

# Full principal-minor enumeration grows as 2^n; beyond this cap the P0
# and P0+ sweeps do not run.
MINOR_ENUM_CAP = 14


def as_matrix(a):
    """Validate and return a dense square float matrix."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def minor_tol(norm, order):
    """Float band of an order-``order`` minor of a matrix whose infinity
    norm is ``norm``; callers take the norm once per matrix."""
    return 1e-10 * (1.0 + norm ** order)


def block_hadamard(h, g, block):
    """Blockwise ordinary products H_ij @ G_ij on a grid of `block`-size blocks."""
    h, g = as_matrix(h), as_matrix(g)
    if h.shape != g.shape:
        raise ValueError("block hadamard product needs equal dimensions")
    n = h.shape[0]
    if block <= 0 or n % block != 0:
        raise ValueError(f"block size {block} does not divide dimension {n}")
    k = n // block
    out = np.empty_like(h)
    for i in range(k):
        for j in range(k):
            r = slice(i * block, (i + 1) * block)
            c = slice(j * block, (j + 1) * block)
            out[r, c] = h[r, c] @ g[r, c]
    return out


def additive_compound_2(a):
    """Second additive compound; its spectrum is the pairwise eigenvalue sums."""
    a = as_matrix(a)
    n = a.shape[0]
    if n < 2:
        raise ValueError("second additive compound needs n >= 2")
    pairs = np.array(list(combinations(range(n), 2)))
    i, j = pairs[:, :1], pairs[:, 1:]  # row pair (i, j), as a column
    k, l = pairs[:, 0], pairs[:, 1]  # column pair (k, l), as a row
    eye = np.eye(n)
    # two-determinant sum over the 2x2 crossings with the identity
    return (a[i, k] * eye[j, l] - eye[i, l] * a[j, k]
            + eye[i, k] * a[j, l] - a[i, l] * eye[j, k])


def comparison_matrix(a):
    """|a_ii| on the diagonal, -|a_ij| off the diagonal."""
    a = as_matrix(a)
    out = -abs(a)
    np.fill_diagonal(out, abs(np.diag(a)))
    return out


def w_map(a):
    """Keep the diagonal, replace off-diagonal entries by absolute values."""
    a = as_matrix(a)
    out = abs(a)
    np.fill_diagonal(out, np.diag(a))
    return out


def _next_sets(sets, n):
    """The order-(k+1) principal index sets of an n x n matrix from the
    order-k ones, each a ``(C(n, k), k)`` intp array.

    Every order-k set is extended by every index after its last, in turn,
    which lists the order-(k+1) sets in ``itertools.combinations`` order.
    """
    last = sets[:, -1]
    counts = n - 1 - last  # the indices after each set's last
    rows = np.repeat(np.arange(len(sets)), counts)
    starts = np.cumsum(counts) - counts  # each set's first new row
    new = np.arange(rows.size) - np.repeat(starts - last - 1, counts)
    return np.concatenate((sets[rows], new[:, None]), axis=1)


class MinorTable:
    """Principal minors of one matrix, order by order, each on first use.

    ``orders`` yields ``(sets, values)`` for k = 1..n, computing order k
    from the kept order k - 1 when a reader first reaches it and keeping
    it; an order whose computation raises is not kept, so it raises again
    for the next reader.  ``len()`` is 2^n - 1 and evaluates nothing.
    Iterating yields ``(index tuple, value)`` pairs, orders ascending,
    and forces the remaining orders.
    """

    def __init__(self, a):
        self._a = a
        self.n = a.shape[0]
        self._done = []

    @property
    def orders(self):
        for k in range(self.n):
            if k == len(self._done):
                sets = (_next_sets(self._done[-1][0], self.n) if k else
                        np.arange(self.n, dtype=np.intp)[:, None])
                self._done.append((sets, np.linalg.det(
                    self._a[sets[:, :, None], sets[:, None, :]])))
            yield self._done[k]

    def __len__(self):
        return 2 ** self.n - 1

    def __iter__(self):
        for sets, values in self.orders:
            yield from zip(map(tuple, sets.tolist()), values.tolist())


def principal_minors(a):
    """All principal minors as a lazy :class:`MinorTable`.

    Orders ascend; within an order the index sets follow
    ``itertools.combinations``.  Enumeration is capped at n = 14 (2^n
    growth).
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n > MINOR_ENUM_CAP:
        raise ValueError(f"principal minor enumeration capped at n = {MINOR_ENUM_CAP}")
    return MinorTable(a)


def _running_sum(values):
    """``s = 0.0; for x in values: s += x`` in one pass, bit for bit.

    ``np.add.accumulate`` adds left to right; builtin ``sum`` (compensated
    since Python 3.12), ``np.sum`` (pairwise) and ``math.fsum`` do not.
    """
    return float(np.add.accumulate(np.concatenate(([0.0], values)))[-1])


def exact_det_sign(m):
    """The sign of ``det(m)``, -1, 0 or 1, in exact arithmetic.

    Every finite float is a dyadic rational, so one power of two (the
    largest denominator) scales ``m`` to an integer matrix with the same
    determinant sign.  Fraction-free Bareiss elimination with row swaps
    (Bareiss, Math. Comp. 22, 1968) then runs in Python integers: each
    division is exact, and the last pivot is the scaled determinant.
    """
    m = as_matrix(m)
    ratios = [x.as_integer_ratio() for x in m.ravel().tolist()]
    scale = max(d for _, d in ratios)
    k = m.shape[0]
    rows = [[p * (scale // d) for p, d in ratios[i * k:(i + 1) * k]]
            for i in range(k)]
    sign, prev = 1, 1
    for j in range(k - 1):
        pivot = next((i for i in range(j, k) if rows[i][j]), None)
        if pivot is None:
            return 0
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            sign = -sign
        for i in range(j + 1, k):
            rows[i] = [(rows[i][c] * rows[j][j] - rows[i][j] * rows[j][c])
                       // prev for c in range(k)]
        prev = rows[j][j]
    det = rows[-1][-1]
    return sign * ((det > 0) - (det < 0))


def first_negative_minor(a, minors):
    """The first principal minor of ``a`` that is negative, as
    ``(indices, value)``, or None when ``a`` is P0.

    ``minors`` is ``principal_minors(a)``.  Orders ascend, and the sweep
    stops at the order of the first minor found.  Floats only screen: a
    minor below ``-minor_tol`` counts only if its exact sign
    (:func:`exact_det_sign`) is negative; ``value`` is its float
    determinant.
    """
    norm = np.linalg.norm(a, np.inf)
    for k, (sets, values) in enumerate(minors.orders, start=1):
        for i in np.flatnonzero(values < -minor_tol(norm, k)):
            alpha = tuple(sets[i].tolist())
            if exact_det_sign(a[np.ix_(alpha, alpha)]) < 0:
                return alpha, float(values[i])
    return None


def leading_minors(a):
    a = as_matrix(a)
    return [float(np.linalg.det(a[:k, :k])) for k in range(1, a.shape[0] + 1)]


def is_z_matrix(a):
    a = as_matrix(a)
    off = a - np.diag(np.diag(a))
    return bool((off <= minor_tol(np.linalg.norm(a, np.inf), 1)).all())


def is_m_matrix(a):
    """Z-matrix with all principal minors positive.

    For Z-matrices positivity of the leading principal minors already
    forces positivity of all principal minors, so the test runs in O(n^3)
    and carries no enumeration cap.
    """
    a = as_matrix(a)
    if not is_z_matrix(a):
        return False
    norm = np.linalg.norm(a, np.inf)
    for k, d in enumerate(leading_minors(a), start=1):
        if d <= minor_tol(norm, k):
            return False
    return True


def strict_diagonal_dominance(a, tol):
    """``(rows, columns)``: whether every |a_ii| exceeds the absolute sum
    of the rest of its row, and of its column, by ``tol``."""
    diag = abs(np.diag(a))
    off = abs(a - np.diag(np.diag(a)))
    return (bool((diag > off.sum(axis=1) + tol).all()),
            bool((diag > off.sum(axis=0) + tol).all()))


def is_tridiagonal(a, tol):
    """Every entry off the three central diagonals within ``tol``."""
    return bool((abs(np.triu(a, 2)) <= tol).all()
                and (abs(np.tril(a, -2)) <= tol).all())


def is_tridiagonal_p_matrix(a):
    """Tridiagonal with every principal minor positive, in O(n^3).

    A principal submatrix of a tridiagonal matrix is block diagonal, its
    blocks the contiguous principal blocks A[i:j, i:j] on the runs of
    consecutive indices, so every principal minor is a product of
    contiguous ones.  The n (n + 1) / 2 contiguous minors, one batched
    ``det`` per order, then decide P with no enumeration cap.
    """
    a = as_matrix(a)
    norm = np.linalg.norm(a, np.inf)
    if not is_tridiagonal(a, minor_tol(norm, 1)):
        return False
    n = a.shape[0]
    for k in range(1, n + 1):
        idx = np.arange(n - k + 1)[:, None] + np.arange(k)
        values = np.linalg.det(a[idx[:, :, None], idx[:, None, :]])
        if (values <= minor_tol(norm, k)).any():
            return False
    return True
