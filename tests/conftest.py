"""Shared oracles and generators for the test suite.

Oracles here are intentionally independent of the library paths they
check: determinants by cofactor expansion, spectra through the
characteristic polynomial and companion roots.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from matstab.polynomials import char_poly


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def multiset_close(got, expect, tol):
    """Multiset equality of complex values up to tolerance (greedy match)."""
    got = list(np.asarray(got, dtype=complex))
    expect = list(np.asarray(expect, dtype=complex))
    if len(got) != len(expect):
        return False
    for z in expect:
        best, best_d = None, tol
        for i, w in enumerate(got):
            d = abs(z - w)
            if d <= best_d:
                best, best_d = i, d
        if best is None:
            return False
        got.pop(best)
    return True


def naive_det(m):
    """Cofactor expansion along the first row."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        if m[0, j] == 0.0:
            continue
        sub = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * naive_det(sub)
    return total


def charpoly_roots(a):
    """Spectrum through the characteristic polynomial and companion roots."""
    return np.sort_complex(np.roots(char_poly(a)))


# ---------------------------------------------------------------------------
# Random matrix generators
# ---------------------------------------------------------------------------

def random_hurwitz(rng, n, margin_lo=0.1, margin_hi=1.0):
    """Random matrix shifted to put the spectral abscissa in [-hi, -lo]."""
    a = rng.normal(size=(n, n))
    alpha = np.linalg.eigvals(a).real.max()
    return a - (alpha + rng.uniform(margin_lo, margin_hi)) * np.eye(n)


def random_unstable(rng, n, push_hi=1.0, allow_boundary=False):
    """Random matrix with an eigenvalue in the closed right half-plane."""
    a = rng.normal(size=(n, n))
    alpha = np.linalg.eigvals(a).real.max()
    push = 0.0 if allow_boundary else rng.uniform(0.0, push_hi)
    return a - (alpha - push) * np.eye(n)


def random_schur(rng, n, rho_hi=0.9):
    a = rng.normal(size=(n, n))
    rho = abs(np.linalg.eigvals(a)).max()
    return a * (rng.uniform(0.3, rho_hi) / rho)


def random_diagonally_stable(rng, n):
    """(A, D) with D A + A^T D negative definite by construction.

    A = D^-1 (K + W/2) with K skew and W negative definite gives exactly
    D A + A^T D = W.
    """
    d = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    k = rng.normal(size=(n, n))
    k = k - k.T
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w = -(q * np.exp(rng.uniform(np.log(0.2), np.log(2.0), n))) @ q.T
    a = np.diag(1.0 / d) @ (k + 0.5 * w)
    return a, np.diag(d)


def random_schur_diag_stable(rng, n):
    """(A, D) with D - A^T D A positive definite by construction.

    A = D^-1/2 B D^1/2 with ||B||_2 < 1.
    """
    d = np.exp(rng.uniform(np.log(0.2), np.log(5.0), n))
    b = rng.normal(size=(n, n))
    b *= rng.uniform(0.2, 0.95) / np.linalg.norm(b, 2)
    root = np.sqrt(d)
    a = (b * root[None, :]) / root[:, None]
    return a, np.diag(d)


def random_m_matrix(rng, n):
    """sI - N with N entrywise nonnegative and s above the Perron root."""
    nmat = rng.uniform(0.0, 1.0, size=(n, n))
    rho = abs(np.linalg.eigvals(nmat)).max()
    s = rho * (1.0 + rng.uniform(0.05, 0.5)) + 1e-3
    return s * np.eye(n) - nmat


def random_sdd_positive_diag(rng, n):
    a = rng.normal(size=(n, n))
    np.fill_diagonal(a, 0.0)
    diag = np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n)
    return a + np.diag(diag)


def random_triangular_positive_diag(rng, n):
    a = np.triu(rng.normal(size=(n, n)), 1)
    return a + np.diag(rng.uniform(0.1, 2.0, n))


def random_tridiagonal_p(rng, n):
    """Tridiagonal P-matrix; strict dominance makes the minors positive."""
    sub = rng.uniform(-0.45, 0.45, n - 1)
    sup = rng.uniform(-0.45, 0.45, n - 1)
    diag = 1.0 + rng.uniform(0.0, 1.0, n)
    return np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)


def random_ndd(rng, n):
    """Strictly row-dominant matrix with negative diagonal."""
    a = rng.normal(size=(n, n))
    np.fill_diagonal(a, 0.0)
    diag = -(np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, n))
    return a + np.diag(diag)


# ---------------------------------------------------------------------------
# Benchmark corpora
# ---------------------------------------------------------------------------

def benchmark_corpus(workload, seed, rounds):
    """The seeded requests of a perfbench workload (perfbench/corpus.py):
    its named cases, then ``rounds`` rounds of its strata."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus.build(workload, seed, rounds)
