"""Characteristic polynomials, Routh tables and interval-polynomial tests.

Polynomials are plain 1-D coefficient arrays, degree-descending, with a
nonzero leading coefficient.  Interval polynomials carry elementwise
lower/upper coefficient bounds whose leading interval excludes zero;
boxes with a negative leading interval are normalized to a positive
leading sign before any stability test (the roots are unchanged).
"""

from dataclasses import dataclass

import numpy as np

from .matrix_core import MINOR_ENUM_CAP, as_matrix, classify
from .spectra import Status, Verdict

__all__ = [
    "as_poly", "IntervalPoly", "char_poly", "routh_hurwitz",
    "kharitonov_polys", "kharitonov_stable", "kosov_interval_dstability",
]


def as_poly(coeffs):
    p = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if p.ndim != 1 or p.size < 2:
        raise ValueError("polynomial needs degree >= 1")
    if not np.isfinite(p).all():
        raise ValueError("polynomial coefficients must be finite")
    if p[0] == 0.0:
        raise ValueError("zero leading coefficient")
    return p


@dataclass(frozen=True)
class IntervalPoly:
    """Coefficient box [lower_i, upper_i], degree-descending."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 2:
            raise ValueError("bounds must be equal-length vectors, degree >= 1")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        if lo[0] <= 0.0 <= hi[0]:
            raise ValueError("leading coefficient interval must exclude zero")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def degree(self):
        return self.lower.size - 1

    def normalized(self):
        """Box with positive leading interval (negated when needed)."""
        if self.lower[0] > 0:
            return self
        return IntervalPoly(-self.upper, -self.lower)

    def sample(self, rng):
        """One member polynomial, uniform per coefficient."""
        return rng.uniform(self.lower, self.upper)


def char_poly(a):
    """Monic characteristic polynomial via the trace recursion.

    Runs the Faddeev-LeVerrier iteration; returns n + 1 coefficients,
    degree-descending.
    """
    a = as_matrix(a)
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = a @ m
        c = -np.trace(am) / k
        coeffs[k] = c
        m = am + c * np.eye(n)
    return coeffs


def _routh_first_column(p, eps_sign, zero_tol):
    """First column of the Routh table, or None on a vanishing row.

    A zero pivot in a nonzero row is replaced by ``eps_sign * zero_tol``;
    an entirely vanishing row means a root configuration symmetric about
    the origin and is reported separately.
    """
    deg = p.size - 1
    rows = [p[0::2].astype(float), p[1::2].astype(float)]
    width = rows[0].size
    rows[0] = np.pad(rows[0], (0, width - rows[0].size))
    rows[1] = np.pad(rows[1], (0, width - rows[1].size))
    column = [rows[0][0]]
    for _ in range(deg - 1):
        prev, cur = rows[-2], rows[-1]
        if np.all(np.abs(cur) <= zero_tol):
            return None, "symmetric-root-row"
        pivot = cur[0]
        if abs(pivot) <= zero_tol:
            pivot = eps_sign * zero_tol
        nxt = np.zeros(width)
        for j in range(width - 1):
            nxt[j] = (pivot * prev[j + 1] - prev[0] * cur[j + 1]) / pivot
        column.append(pivot if abs(cur[0]) <= zero_tol else cur[0])
        rows.append(nxt)
    column.append(rows[-1][0])
    return np.asarray(column), None


def routh_hurwitz(coeffs):
    """Hurwitz test through the Routh table.

    Proved iff all roots lie in the open left half-plane.  A zero first
    column entry is handled by a two-sided epsilon perturbation; verdicts
    that disagree between the two signs come back Unknown.
    """
    p = as_poly(coeffs)
    if p[0] < 0:
        p = -p
    scale = np.abs(p).max()
    zero_tol = 1e-12 * scale

    # strictly positive coefficients are necessary for a Hurwitz polynomial
    bad = np.nonzero(p <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        return Verdict(Status.REFUTED, "nonpositive-coefficient",
                       witness={"index": i, "coefficient": float(p[i])})

    changes_seen = []
    for eps_sign in (+1.0, -1.0):
        col, note = _routh_first_column(p, eps_sign, zero_tol)
        if note is not None:
            return Verdict(Status.REFUTED, note,
                           witness={"polynomial": p.tolist()})
        if abs(col[-1]) <= zero_tol:
            # the last entry stuck on zero means a root on the axis
            return Verdict(Status.REFUTED, "routh-boundary-entry",
                           witness={"column": col.tolist(),
                                    "polynomial": p.tolist()})
        changes_seen.append(int(np.count_nonzero(col[:-1] * col[1:] < 0)))
    if changes_seen[0] != changes_seen[1]:
        return Verdict(Status.UNKNOWN, "routh-singular-ambiguous")
    if changes_seen[0] == 0:
        return Verdict(Status.PROVED, "routh-table-positive")
    return Verdict(Status.REFUTED, "routh-sign-changes",
                   witness={"right-half-plane-roots": changes_seen[0],
                            "polynomial": p.tolist()})


# Endpoint selection for the four box polynomials, keyed by the power of z
# counted from the constant term: k = t // 2 alternates the choice.
def _select(lo, hi, even_start_hi, odd_start_hi):
    n = lo.size - 1
    out = np.empty(n + 1)
    for i in range(n + 1):
        t = n - i  # power of z at position i
        k_even = (t // 2) % 2 == 0
        start_hi = even_start_hi if t % 2 == 0 else odd_start_hi
        take_hi = k_even if start_hi else not k_even
        out[i] = hi[i] if take_hi else lo[i]
    return out


def kharitonov_polys(box):
    """The four extreme polynomials deciding stability of the whole box."""
    b = box.normalized()
    lo, hi = b.lower, b.upper
    k1 = _select(lo, hi, True, True)
    k2 = _select(lo, hi, False, False)
    k3 = _select(lo, hi, False, True)
    k4 = _select(lo, hi, True, False)
    return k1, k2, k3, k4


def kharitonov_stable(box):
    """Hurwitz stability of every member of the coefficient box.

    Proved iff the four extreme polynomials each pass the Routh test;
    Refuted names the failing extreme polynomial.
    """
    polys = kharitonov_polys(box)
    unknown = None
    for idx, k in enumerate(polys, start=1):
        v = routh_hurwitz(k)
        if v.refuted:
            return Verdict(Status.REFUTED, f"kharitonov-k{idx}-unstable",
                           witness={"which": idx, "polynomial": k.tolist(),
                                    "inner": v.witness})
        if not v.proved and unknown is None:
            unknown = idx
    if unknown is not None:
        return Verdict(Status.UNKNOWN, f"kharitonov-k{unknown}-ambiguous")
    return Verdict(Status.PROVED, "kharitonov-four-polynomials-stable")


def kosov_interval_dstability(a, d_min, d_max, classification=None):
    """Interval D-stability of a P0 matrix over a diagonal box (sufficient).

    ``a`` is taken in the positive-stability convention: the claim
    certified is that D a has its whole spectrum in the open right
    half-plane for every diagonal D with d_min <= diag(D) <= d_max.
    The Hurwitz polynomial of the negated product has coefficients
    monotone in each d_ii because ``a`` is P0, so the two box corners
    bound the whole coefficient family and the four-polynomial test
    applies.  Proved means D-stable with respect to the box; anything
    else is Unknown (the test is sufficient only).
    ``classification``, when given, is ``classify(a)``.
    """
    a = as_matrix(a)
    n = a.shape[0]
    d_min = np.broadcast_to(np.asarray(d_min, dtype=float), (n,)).copy()
    d_max = np.broadcast_to(np.asarray(d_max, dtype=float), (n,)).copy()
    if not ((d_min > 0).all() and (d_min <= d_max).all() and np.isfinite(d_max).all()):
        raise ValueError("need componentwise 0 < d_min <= d_max < inf")
    rep = classify(a) if classification is None else classification
    if rep.p0 is None:
        raise ValueError("P0 is undecided past the minor enumeration cap"
                         f" n = {MINOR_ENUM_CAP}")
    if not rep.p0:
        raise ValueError("matrix must be P0 for the interval reduction;"
                         f" witness minor {rep.witnesses.get('p0')}")

    f_lo = char_poly(-(np.diag(d_min) @ a))
    f_hi = char_poly(-(np.diag(d_max) @ a))
    box = IntervalPoly(np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi))
    inner = kharitonov_stable(box)
    if inner.proved:
        return Verdict(Status.PROVED, "kosov-interval-multiplicative",
                       witness={"box_lower": box.lower.tolist(),
                                "box_upper": box.upper.tolist()})
    return Verdict(Status.UNKNOWN, f"kosov-inconclusive:{inner.reason}")
