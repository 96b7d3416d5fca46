"""The Lyapunov operator of a region, its solver and certificate searches.

A region's ``emi`` form (R11, R12, R22) is its one Lyapunov structure:
the operator H -> R11 (x) H + R12 (x) (H A) + R12^T (x) (A^T H)
+ R22 (x) (A^T H A) of :func:`emi_operator`.  :func:`solve_lyapunov`
solves it for every region whose form is 1x1, the Lyapunov equation on
the left half-plane and the Stein equation on the unit disk among them,
and the diagonal search minimizes its largest eigenvalue over positive
diagonal H on every region that has a form.

Certificates are found by :class:`DiagonalSearch`, the one search: an
entropic mirror descent of the largest eigenvalue of the region operator
over the simplex of positive diagonals, in a step budget of its own.
A step is one ``eigh`` of the operator plus O(n^2) vector work (the
operator and the subgradient of a 1x1 form are elementwise), and
``definiteness_tol`` is computed only at a step where a stop can fire.
On the hyperbolic region, which has no form, the search and
:func:`verify_certificate` read the half-plane form of the sign-corrected
matrix (``_DiagOperator`` is their one map).  The search is {Proved,
Unknown}-sound only: it never refutes.  It stops at the first iterate
whose factor passes the definiteness check with a margin above
``definiteness_tol``: a Proved verdict needs one certificate, not the
widest one, so no step is spent widening its margin, and the
certificate's ``iterations`` is the step at which the search stopped.

The search stops early, with Unknown, once its own subgradients prove
that no certificate exists.  The operator W(d) = sum_i d_i W_i is
linear in d, and the subgradient at an iterate is g_i = <W_i, v v^T>
for the top eigenvector v.  The mean S of the v v^T seen so far, each
weighted by its step 1 / (sqrt(k) ||g_k||_inf), is positive
semidefinite with trace one, so for every d on the simplex

    lambda_max(W(d)) >= <W(d), S> = sum_i d_i gbar_i >= min_i gbar_i,

with gbar the same weighted mean of g.  By homogeneity a positive
min_i gbar_i excludes every positive diagonal factor.  The stop asks
for a margin of at least ``definiteness_tol``, far above the rounding in
gbar, so a search that stops could never have returned Proved; every
Proved search runs exactly as it would without the stop.  A zero g
stops at once: then <W(d), v v^T> = 0 for every d.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrix_core import as_matrix
from .spectra import (HalfPlaneLeft, Hyperbolic, Region, Status, Verdict,
                      eigenvalues)

__all__ = [
    "OperatorSingularError", "IllConditionedError", "CertificateError",
    "Certificate", "KRONECKER_SOLVE_CAP",
    "solve_lyapunov",
    "emi_operator", "is_negative_definite", "definiteness_tol",
    "DiagonalSearch",
    "verify_certificate",
]

# dense LU on the vectorized n^2 x n^2 system
KRONECKER_SOLVE_CAP = 12


class OperatorSingularError(RuntimeError):
    """A region's Lyapunov operator is singular (eigenvalue pairing)."""


class IllConditionedError(RuntimeError):
    """The linear solve lost too much accuracy to honor the residual bound."""


class CertificateError(ValueError):
    """A certificate failed structural or margin re-verification."""


@dataclass
class Certificate:
    """A stability witness: a structured factor plus a definiteness margin.

    ``kind`` is one of diagonal-lyapunov, diagonal-stein, diagonal-lmi,
    diagonal-emi, diagonal-hyperbolic.
    """

    kind: str
    factor: np.ndarray
    margin: float
    region: Region
    iterations: int = 0

    def __post_init__(self):
        if self.margin <= 0:
            raise CertificateError("certificate margin must be positive")


def definiteness_tol(w):
    return 1e-9 * (1.0 + np.linalg.norm(w, np.inf))


def _sym_part(w):
    return 0.5 * (w + w.T)


def is_negative_definite(w, tol=None):
    """Negative definiteness of (the symmetric part of) ``w`` with margin.

    Returns ``(flag, margin)`` where ``margin = -lambda_max``.
    """
    w = _sym_part(as_matrix(w))
    if tol is None:
        tol = definiteness_tol(w)
    lam = float(np.linalg.eigvalsh(w)[-1])
    return bool(lam < -tol), -lam


# ---------------------------------------------------------------------------
# Equation solvers
# ---------------------------------------------------------------------------

def _check_sym(w, name):
    w = as_matrix(w)
    if not np.allclose(w, w.T, atol=1e-10 * (1.0 + abs(w).max())):
        raise ValueError(f"{name} must be symmetric")
    return _sym_part(w)


def _emi_sum(r, terms):
    """r11 t0 + r12 t1 + r22 t2 over the nonzero coefficients only, so a
    zero coefficient adds no term (0.0 when all three are zero)."""
    parts = [rk * t for rk, t in zip(r, terms) if rk]
    return sum(parts[1:], parts[0]) if parts else 0.0


def solve_lyapunov(a, w, region=None):
    """Solve R11 H + R12 (H A + A^T H) + R22 A^T H A = W for symmetric H.

    (R11, R12, R22) is the ``emi`` form of ``region``, which must be 1x1
    (default the left half-plane: H A + A^T H = W; ``Disk()`` gives the
    Stein equation A^T H A - H = W).  The solve is one Kronecker
    vectorization.  A singular operator (some eigenvalue pairing
    r11 + r12 (lambda_i + conj(lambda_j)) + r22 lambda_i conj(lambda_j)
    within 1e-12 (1 + ||A||_inf)^(2 if r22 else 1) of zero) raises
    ``OperatorSingularError``; a solve whose :func:`emi_operator`
    residual exceeds 1e-8 (|r11| ||H|| + |r12| ||A|| ||H||
    + |r22| ||A||^2 ||H|| + ||W||) raises ``IllConditionedError``.  A
    region with no ``emi``, or a matrix-valued one, raises ValueError.
    """
    if region is None:
        region = HalfPlaneLeft()
    if region.emi is None or region.emi[0].shape != (1, 1):
        raise ValueError(f"no scalar Lyapunov form for region {region!r}")
    r = [float(x[0, 0]) for x in region.emi]
    a = as_matrix(a)
    w = _check_sym(w, "W")
    n = a.shape[0]
    if n > KRONECKER_SOLVE_CAP:
        raise ValueError(f"dense vectorized solve capped at n = {KRONECKER_SOLVE_CAP}")
    lam = eigenvalues(a)
    li, lj = lam[:, None], np.conj(lam)[None, :]
    gap = np.abs(_emi_sum(r, (1.0, li + lj, li * lj))).min()
    if gap <= 1e-12 * (1.0 + np.linalg.norm(a, np.inf)) ** (2 if r[2] else 1):
        raise OperatorSingularError(
            f"eigenvalue pairing of the {region.name} operator ~ 0 "
            f"(gap {gap:.2e})")
    eye = np.eye(n)
    op = _emi_sum(r, (np.eye(n * n), np.kron(a.T, eye) + np.kron(eye, a.T),
                      np.kron(a.T, a.T)))
    try:
        h = np.linalg.solve(op, w.reshape(-1)).reshape(n, n)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(str(exc)) from exc
    h = _sym_part(h)
    res = np.linalg.norm(emi_operator(*region.emi, a, h) - w)
    na, nh = np.linalg.norm(a), np.linalg.norm(h)
    bound = 1e-8 * (_emi_sum([abs(rk) for rk in r], (nh, na * nh, na ** 2 * nh))
                    + np.linalg.norm(w))
    if res > bound:
        raise IllConditionedError(f"residual {res:.2e} exceeds bound {bound:.2e}")
    return h


def emi_operator(r11, r12, r22, a, h):
    """R11 (x) H + R12 (x) (H A) + R12^T (x) (A^T H) + R22 (x) (A^T H A).

    H is symmetric.  An LMI region's operator is the case R22 = 0.
    """
    a = as_matrix(a)
    h = _check_sym(h, "H")
    r11 = np.asarray(r11, dtype=float)
    r12 = np.asarray(r12, dtype=float)
    r22 = np.asarray(r22, dtype=float)
    return (np.kron(r11, h) + np.kron(r12, h @ a) + np.kron(r12.T, a.T @ h)
            + np.kron(r22, a.T @ h @ a))


# ---------------------------------------------------------------------------
# Diagonal certificate searches
# ---------------------------------------------------------------------------

_DIAG_KINDS = {"half-plane-left": "diagonal-lyapunov", "disk": "diagonal-stein",
               "half-plane-right": "diagonal-lmi",
               "sector-right": "diagonal-lmi",
               "lmi": "diagonal-lmi", "emi": "diagonal-emi",
               "hyperbolic": "diagonal-hyperbolic"}


class _DiagOperator:
    """W(d) = R11 (x) D + R12 (x) (DA) + R12^T (x) (A^T D) + R22 (x) (A^T D A).

    The one map from ``(a, region)`` to the form on which the search and
    :func:`verify_certificate` check a diagonal certificate: the region's
    ``emi`` form (R11, R12, R22), of certificate ``kind``.  On
    ``Hyperbolic()`` a certificate is a sign-free diagonal D with
    D A + A^T D positive definite; its diagonal 2 d_i a_ii forces the
    signs S = diag(sign a_ii), and D = S E gives D A + A^T D =
    -(E (-S A) + (-S A)^T E).  So the form is the half-plane form of
    -S A, ``signs`` is S (ones elsewhere), and an iterate or certificate
    E has the factor S E.  Such a certificate implies that A has no
    imaginary-axis eigenvalue and is multiplicative D-hyperbolic.

    Linear in d, so lambda_max(W(d)) is convex and a subgradient at d is
    read off the top eigenvector.  A 1x1 form keeps its coefficients as
    floats: W(d) and the subgradient are then O(n^2) elementwise work
    around the one ``eigh``.  The mapped ``a`` is kept C-contiguous, so
    W(d) is too and its diagonal is a strided view of ``W(d).ravel()``.
    """

    def __init__(self, a, region):
        a = as_matrix(a)
        self.kind = _DIAG_KINDS.get(region.name)
        self.signs = np.ones(a.shape[0])
        if region == Hyperbolic():
            self.signs = np.sign(np.diag(a))
            a, region = -self.signs[:, None] * a, HalfPlaneLeft()
        if region.emi is None:
            raise ValueError(f"no diagonal certificate form for region {region!r}")
        self.a = np.ascontiguousarray(a)
        r11, r12, r22 = region.emi
        self.m = r11.shape[0]
        self.has_r22 = bool(np.any(r22 != 0.0))
        if self.m == 1:
            r11, r12, r22 = (float(r[0, 0]) for r in (r11, r12, r22))
        self.r11, self.r12, self.r22 = r11, r12, r22

    def diagonal_excludes(self):
        """Whether a 1x1 form with r22 >= 0 has a diagonal entry x = a_ii
        not strictly inside it: r11 + 2 r12 x + r22 x^2 >= 0.  Then
        W(d)_ii = r11 d_i + 2 r12 a_ii d_i + r22 sum_j a_ji^2 d_j >= 0 for
        every positive d, so e_i e_i^T is a dual witness: no positive
        diagonal certifies.  Summed as :func:`_emi_sum` sums, so an
        overflowed term never meets a zero coefficient."""
        if self.m > 1 or self.r22 < 0:
            return False
        x = np.diag(self.a)
        with np.errstate(over="ignore", invalid="ignore"):
            form = _emi_sum((self.r11, self.r12, self.r22),
                            (1.0, 2.0 * x, x * x))
        return bool(np.any(form >= 0))

    def apply(self, d):
        a = self.a
        da = d[:, None] * a
        if self.m > 1:
            w = (np.kron(self.r11, np.diag(d)) + np.kron(self.r12, da)
                 + np.kron(self.r12.T, da.T))
            if self.has_r22:
                w = w + np.kron(self.r22, a.T @ da)
            return w
        # ((r12 (DA + A^T D)) + r11 D) + r22 A^T D A, in the order of the
        # general form: another order changes the last bits of W(d)
        w = self.r12 * (da + da.T)
        w.ravel()[::len(d) + 1] += self.r11 * d
        if self.has_r22:
            w += self.r22 * (a.T @ da)
        return w

    def value_and_subgrad(self, d):
        """``(lambda_max(W(d)), g, W(d))`` with g the subgradient at d."""
        w = self.apply(d)
        lam, vec = np.linalg.eigh(w)
        value = float(lam[-1])
        v = vec[:, -1]
        if self.m > 1:
            u = v.reshape(self.m, -1)
            au = u @ self.a.T
            g = (np.einsum("pq,pi,qi->i", self.r11, u, u)
                 + 2.0 * np.einsum("pq,pi,qi->i", self.r12, u, au))
            if self.has_r22:
                g += np.einsum("pq,pi,qi->i", self.r22, au, au)
            return value, g, w
        # g_i = r11 v_i^2 + 2 (r12 v_i) (Av)_i + r22 (Av)_i^2, each product
        # taken left to right as the einsum of the general form takes it
        av = self.a @ v
        g = self.r11 * v * v + 2.0 * ((self.r12 * v) * av)
        if self.has_r22:
            g += (self.r22 * av) * av
        return value, g, w


class DiagonalSearch:
    """The positive-diagonal certificate search of ``a`` on ``region``,
    resumable step by step, in at most ``budget`` steps.

    Minimizes lambda_max of the region operator over the unit simplex of
    diagonals by entropic mirror descent (Beck & Teboulle, Oper. Res.
    Lett. 31, 2003): d <- d exp(-eta_k g) / sum, with
    eta_k = sqrt(2 ln n) / (sqrt(k) ||g||_inf).  The iterates stay
    strictly positive, and the first whose value is below
    ``-definiteness_tol`` of its operator is the factor of the Proved
    verdict's re-verifiable :class:`Certificate`, with ``iterations`` the
    step at which the search stopped.  The search also stops, Unknown
    with ``dual-bound-excludes-certificate``, once the step-weighted mean
    of the subgradients proves that no positive diagonal certifies (see
    the module docstring).

    The form, signs and kind are those of :class:`_DiagOperator`.  The
    search stops at once (``k`` = 0, no eigen-solve, the same reason)
    when a diagonal entry is not strictly inside the 1x1 form
    (``_DiagOperator.diagonal_excludes``): a_ii >= 0 on the left
    half-plane, |a_ii| >= 1 on the unit disk, a zero a_ii on the
    hyperbolic region.  The subgradient stop need not see it: the top
    eigenvector of a reducible A may never touch index i.

    The state is the iterate (``z``, log d up to a constant), the
    step-weighted sums of the subgradients and of the weights, and the
    step count ``k``.  ``run(steps)`` takes the steps
    ``k + 1 .. min(steps, budget)`` and pauses; a later ``run`` continues
    from the same state, so a search cut in two runs no step twice, and
    its steps and verdict are those of one ``run()``, bit for bit.
    """

    def __init__(self, a, region, budget):
        self._op, self._region = _DiagOperator(a, region), region
        n = self._op.a.shape[0]
        self.verdict = None  # set when the search stops
        if self._op.diagonal_excludes():
            self.verdict = Verdict(Status.UNKNOWN,
                                   "dual-bound-excludes-certificate")
        self._rate = math.sqrt(2.0 * math.log(n))
        self._z = np.zeros(n)  # log d, up to a constant
        self._g_sum, self._w_sum = np.zeros(n), 0.0
        self.budget = budget
        self.k = 0

    def run(self, steps=None):
        """Step up to ``min(steps, budget)`` (default the budget).

        The verdict once the search stopped; else Unknown with
        ``search-budget-exhausted`` at the budget and
        ``search-prefix-exhausted`` short of it.
        """
        until = self.budget if steps is None else min(steps, self.budget)
        while self.verdict is None and self.k < until:
            self.verdict = self._step(self.k + 1)
            self.k += 1
        if self.verdict is not None:
            return self.verdict
        return Verdict(Status.UNKNOWN, "search-budget-exhausted"
                       if self.k == self.budget else "search-prefix-exhausted")

    def _step(self, k):
        """Take step ``k``: the verdict if the search stops there."""
        op, z = self._op, self._z
        d = np.exp(z - z.max())
        d /= d.sum()
        val, g, w = op.value_and_subgrad(d)
        # definiteness_tol(w) > 0, so each stop below needs a negative val
        # or a positive g_sum.min(): the tolerance is computed only then.
        # A certificate also needs d.min() > 0: no entry underflowed
        if val < 0 and val < -definiteness_tol(w) and d.min() > 0:
            cert = Certificate(op.kind, np.diag(op.signs * d), -val,
                               self._region, k)
            return Verdict(Status.PROVED, f"certificate:{op.kind}",
                           witness=cert)
        scale = float(np.abs(g).max())
        if not math.isfinite(scale):
            raise ValueError("subgradient step is not finite")
        if scale == 0.0:
            return Verdict(Status.UNKNOWN, "dual-bound-excludes-certificate")
        # weight 1/(sqrt(k) ||g||_inf); a subnormal g cannot overflow
        g = g / scale
        step = 1.0 / math.sqrt(k)
        self._g_sum += step * g
        self._w_sum += step / scale
        g_min = self._g_sum.min()
        if g_min > 0 and g_min > self._w_sum * definiteness_tol(w):
            return Verdict(Status.UNKNOWN, "dual-bound-excludes-certificate")
        z -= (self._rate * step) * g
        return None


# ---------------------------------------------------------------------------
# Certificate re-verification
# ---------------------------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise CertificateError(msg)


def verify_certificate(a, cert):
    """Recompute a certificate's operator and margin; raise on any failure.

    ``a`` is the certified matrix, read through :class:`_DiagOperator`
    as the search reads it.  Returns the recomputed margin.
    """
    factor = np.asarray(cert.factor, dtype=float)
    off = factor - np.diag(np.diag(factor))
    _require(np.all(off == 0.0), "factor must be diagonal")
    op = _DiagOperator(a, cert.region)
    d = op.signs * np.diag(factor)
    _require((d > 0).all(), "factor must be positive diagonal up to signs")
    _require(op.kind == cert.kind, f"kind {cert.kind!r} does not match region")
    _, margin = is_negative_definite(op.apply(d), tol=0.0)
    _require(margin > 0, "certified form is not negative definite")
    return margin
