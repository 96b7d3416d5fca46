"""Characteristic polynomials and interval-polynomial tests.

Polynomials are plain 1-D coefficient arrays, degree-descending, with a
nonzero leading coefficient.  Interval polynomials carry elementwise
lower/upper coefficient bounds whose leading interval excludes zero;
boxes with a negative leading interval are normalized to a positive
leading sign before any stability test (the roots are unchanged).
"""

import numpy as np

from .matrix_core import (MINOR_ENUM_CAP, as_matrix, first_negative_minor,
                          principal_minors)
from .spectra import HalfPlaneLeft, Status, Value, Verdict, first_outside

__all__ = [
    "IntervalPoly", "char_poly",
    "kharitonov_polys", "kharitonov_stable", "kosov_interval_dstability",
]


class IntervalPoly(Value):
    """Coefficient box [lower_i, upper_i], degree-descending."""

    def __init__(self, lower, upper):
        lo = np.atleast_1d(np.asarray(lower, dtype=float))
        hi = np.atleast_1d(np.asarray(upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 2:
            raise ValueError("bounds must be equal-length vectors, degree >= 1")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("bounds must be finite")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        if lo[0] <= 0.0 <= hi[0]:
            raise ValueError("leading coefficient interval must exclude zero")
        self.lower = lo
        self.upper = hi

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


def kharitonov_polys(box):
    """The four extreme polynomials deciding stability of the whole box.

    Each reads a period-4 pattern of upper ("u") and lower ("l")
    endpoints, indexed by the power of z counted from the constant term.
    """
    b = box.normalized()
    powers = np.arange(b.degree, -1, -1) % 4
    return tuple(np.where(np.array([c == "u" for c in pattern])[powers],
                          b.upper, b.lower)
                 for pattern in ("uull", "lluu", "luul", "ullu"))


def kharitonov_stable(box):
    """Hurwitz stability of every member of the coefficient box.

    Proved iff every root of each of the four extreme polynomials lies
    strictly inside the left half-plane (:func:`spectra.first_outside`);
    Refuted names the first extreme polynomial with a root that does
    not, and that root.
    """
    for idx, k in enumerate(kharitonov_polys(box), start=1):
        z = first_outside(np.roots(k), HalfPlaneLeft())
        if z is not None:
            return Verdict(Status.REFUTED, f"kharitonov-k{idx}-unstable",
                           witness={"which": idx, "polynomial": k.tolist(),
                                    "root": z})
    return Verdict(Status.PROVED, "kharitonov-four-polynomials-stable")


def kosov_interval_dstability(a, d_min, d_max, minors=None):
    """Interval D-stability of ``a`` over a diagonal box (sufficient).

    The claim certified is that D a is Hurwitz for every diagonal D with
    d_min <= diag(D) <= d_max.  The characteristic polynomial of D a has
    coefficients monotone in each d_ii when -a is P0, so the two box
    corners bound the whole coefficient family and the four-polynomial
    test applies.  Proved means D-stable with respect to the box;
    anything else is Unknown (the test is sufficient only).
    ``minors``, when given, is ``principal_minors(-a)``.
    """
    a = as_matrix(a)
    n = a.shape[0]
    d_min = np.broadcast_to(np.asarray(d_min, dtype=float), (n,)).copy()
    d_max = np.broadcast_to(np.asarray(d_max, dtype=float), (n,)).copy()
    if not ((d_min > 0).all() and (d_min <= d_max).all() and np.isfinite(d_max).all()):
        raise ValueError("need componentwise 0 < d_min <= d_max < inf")
    if n > MINOR_ENUM_CAP:
        raise ValueError("P0 is undecided past the minor enumeration cap"
                         f" n = {MINOR_ENUM_CAP}")
    negative = first_negative_minor(
        -a, principal_minors(-a) if minors is None else minors)
    if negative is not None:
        indices, value = negative
        raise ValueError("matrix must be P0 for the interval reduction;"
                         f" witness minor {dict(indices=indices, value=value)}")

    f_lo = char_poly(np.diag(d_min) @ a)
    f_hi = char_poly(np.diag(d_max) @ a)
    box = IntervalPoly(np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi))
    inner = kharitonov_stable(box)
    if inner.proved:
        return Verdict(Status.PROVED, "kosov-interval-multiplicative",
                       witness={"box_lower": box.lower.tolist(),
                                "box_upper": box.upper.tolist()})
    return Verdict(Status.UNKNOWN, f"kosov-inconclusive:{inner.reason}")
