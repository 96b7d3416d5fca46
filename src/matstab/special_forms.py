"""Structure-specific stability criteria.

The single-circuit gain criterion, which decides every cyclic feedback
form; those forms and their secant bound, the same decision for one
fixed circuit; and the block companion matrices of second-order systems.
"""

import math

import numpy as np

from .matrix_core import (as_matrix, comparison_matrix, is_m_matrix,
                          minor_tol)
from .spectra import Status, Value, Verdict

__all__ = [
    "CyclicForm", "CompanionPair", "secant_criterion",
    "single_circuit_criterion", "build_companion", "companion_ndd_stable",
    "companion_ndd_d_stable",
]


class CyclicForm(Value):
    """Negative-diagonal cyclic feedback data: diagonal magnitudes and gains."""

    def __init__(self, alpha, beta):
        if len(alpha) != len(beta) or len(alpha) < 2:
            raise ValueError("need equally many alphas and betas, n >= 2")
        if not all(x > 0 for x in alpha + beta):
            raise ValueError("cyclic form requires positive alphas and betas")
        self.alpha = alpha
        self.beta = beta

    @property
    def n(self):
        return len(self.alpha)

    def matrix(self):
        n = self.n
        m = np.zeros((n, n))
        for i in range(n):
            m[i, i] = -self.alpha[i]
        for i in range(n - 1):
            m[i + 1, i] = self.beta[i]
        m[0, n - 1] = -self.beta[n - 1]
        return m


def secant_criterion(form):
    """Exact diagonal-stability decision for the cyclic feedback form.

    Proved iff the gain ratio prod(beta)/prod(alpha) is strictly below
    sec(pi/n)^n; the bound is infinite for n = 2.
    """
    n = form.n
    ratio = float(np.prod(form.beta) / np.prod(form.alpha))
    bound = math.inf if n == 2 else (1.0 / math.cos(math.pi / n)) ** n
    if ratio < bound:
        return Verdict(Status.PROVED, "secant-criterion",
                       witness={"ratio": ratio, "bound": bound})
    return Verdict(Status.REFUTED, "secant-criterion",
                   witness={"ratio": ratio, "bound": bound})


def single_circuit_criterion(a):
    """Exact diagonal-stability decision when the graph is one circuit.

    The graph joins i to j where a_ij is nonzero: an exact criterion
    reads every entry, as a small entry may close a second circuit of
    large gain.  The diagonal must be negative past 1e-12 * (1 + max|A|).
    Rows are normalized by |a_ii| so the diagonal becomes -1; the
    criterion compares the circuit gain |gamma| against cos^n(pi/n) for a
    negative circuit and 1 for a positive one.  A cyclic form has
    gamma = -prod(beta)/prod(alpha), so this is its secant bound.
    """
    a = as_matrix(a)
    n = a.shape[0]
    tol = 1e-12 * (1.0 + abs(a).max())
    d = np.diag(a)
    if (d >= -tol).any():
        raise ValueError("diagonal entry not negative; cannot normalize to -1")
    m = a / -d[:, None]

    off = a != 0
    np.fill_diagonal(off, False)
    succ, i = off.argmax(axis=1), 0
    # one successor per row, and the walk from 0 first returns at step n
    for step in range(1, n + 1):
        i = succ[i]
        if i == 0:
            break
    if (off.sum(axis=1) != 1).any() or step != n or i != 0:
        raise ValueError("graph is not a single circuit")

    gamma = float(np.prod(m[np.arange(n), succ]))
    phi = math.cos(math.pi / n) ** n if gamma < 0 else 1.0
    value = abs(gamma) * phi
    if value < 1.0:
        return Verdict(Status.PROVED, "single-circuit-gain",
                       witness={"gamma": gamma, "phi": phi, "value": value})
    return Verdict(Status.REFUTED, "single-circuit-gain",
                   witness={"gamma": gamma, "phi": phi, "value": value})


# ---------------------------------------------------------------------------
# Second-order companion systems
# ---------------------------------------------------------------------------

class CompanionPair(Value):
    """Second-order system data and its 2n x 2n block companion matrix."""

    def __init__(self, a, b, c):
        self.a = a
        self.b = b
        self.c = c


def build_companion(a, b):
    """Companion matrix [[A, B], [I, 0]] of x'' = A x' + B x."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise ValueError("A and B must have equal dimensions")
    n = a.shape[0]
    c = np.zeros((2 * n, 2 * n))
    c[:n, :n] = a
    c[:n, n:] = b
    c[n:, :n] = np.eye(n)
    return CompanionPair(a, b, c)


def _negative_diagonal(m, tol):
    off = m - np.diag(np.diag(m))
    return bool((np.abs(off) <= tol).all() and (np.diag(m) < -tol).all())


def companion_ndd_stable(a, b):
    """Companion stability from NDD damping and negative-diagonal stiffness.

    Premises (tested, not assumed): negative diagonals in both blocks,
    B diagonal, A generalized diagonally dominant.  Proved means the
    companion matrix is Hurwitz stable.
    """
    a, b = as_matrix(a), as_matrix(b)
    tol = 1e-12 * (1.0 + max(abs(a).max(), abs(b).max()))
    if not (np.diag(a) < -tol).all():
        return Verdict(Status.UNKNOWN, "companion-diagonal-of-A-not-negative")
    if not _negative_diagonal(b, tol):
        return Verdict(Status.UNKNOWN, "companion-B-not-negative-diagonal")
    # NDD: the comparison matrix is an M-matrix (generalized diagonal
    # dominance) and the diagonal is negative
    band = minor_tol(np.linalg.norm(a, np.inf), 1)
    if not (is_m_matrix(comparison_matrix(a))
            and (np.diag(a) < -band).all()):
        return Verdict(Status.UNKNOWN, "companion-A-not-ndd")
    return Verdict(Status.PROVED, "companion-ndd-stable")


def companion_ndd_d_stable(a, b):
    """Same premises as companion_ndd_stable, concluding multiplicative D-stability of C."""
    v = companion_ndd_stable(a, b)
    if v.proved:
        return Verdict(Status.PROVED, "companion-ndd-d-stable")
    return Verdict(Status.UNKNOWN, v.reason)
