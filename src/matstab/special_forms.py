"""Structure-specific stability criteria.

Cyclic feedback forms and their exact secant bound, reduction of
reducible matrices to strongly connected diagonal blocks, the
single-circuit gain criterion, the sign structure that makes the second
additive compound Metzler, and the block companion matrices of
second-order systems with their block-Hadamard perturbation classes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dstability import (Multiply, PositiveDiagonal, falsify,
                         necessary_p0plus, sufficient_suite)
from .matrix_core import (additive_compound_2, as_matrix, classify, compound,
                          is_metzler)
from .spectra import (HalfPlaneLeft, Status, Verdict, eigenvalues,
                      first_outside, region_stable)

__all__ = [
    "CyclicForm", "CompanionPair", "detect_cyclic", "secant_criterion",
    "arcak_decompose", "single_circuit_criterion", "metzler_compound_structure",
    "build_companion", "companion_ndd_stable", "companion_ndd_d_stable", "damping_class_stability",
    "stiffness_class_stability", "strictly_totally_positive",
]


@dataclass(frozen=True)
class CyclicForm:
    """Negative-diagonal cyclic feedback data: diagonal magnitudes and gains."""

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        if len(self.alpha) != len(self.beta) or len(self.alpha) < 2:
            raise ValueError("need equally many alphas and betas, n >= 2")
        if not all(x > 0 for x in self.alpha + self.beta):
            raise ValueError("cyclic form requires positive alphas and betas")

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


def detect_cyclic(a, tol=None):
    """Extract the cyclic feedback form, or None when the pattern fails."""
    a = as_matrix(a)
    n = a.shape[0]
    if n < 2:
        return None
    if tol is None:
        tol = 1e-12 * (1.0 + abs(a).max())
    mask = np.zeros_like(a, dtype=bool)
    idx = np.arange(n)
    mask[idx, idx] = True
    mask[idx[1:], idx[:-1]] = True
    mask[0, n - 1] = True
    if np.abs(a[~mask]).max(initial=0.0) > tol:
        return None
    alpha = -np.diag(a)
    beta = np.append(a[idx[1:], idx[:-1]], -a[0, n - 1])
    if (alpha <= tol).any() or (beta <= tol).any():
        return None
    return CyclicForm(tuple(alpha), tuple(beta))


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


def _strongly_connected_components(adj):
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    n = len(adj)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_i in range(pi, len(adj[v])):
                w = adj[v][next_i]
                if index[w] is None:
                    work[-1] = (v, next_i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
    return components


def arcak_decompose(a, tol=None):
    """Diagonal blocks of the block-triangular form over strongly connected parts.

    Diagonal stability of the input is equivalent to diagonal stability
    of every returned block.  Returns (indices, block) pairs; a single
    pair comes back for an irreducible matrix.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if tol is None:
        tol = 1e-12 * (1.0 + abs(a).max())
    adj = [[j for j in range(n) if j != i and abs(a[i, j]) > tol]
           for i in range(n)]
    comps = _strongly_connected_components(adj)
    return [(comp, a[np.ix_(comp, comp)]) for comp in comps]


def single_circuit_criterion(a, tol=None):
    """Exact diagonal-stability decision when the graph is one circuit.

    Rows are first normalized by |a_ii| so the diagonal becomes -1; the
    criterion compares the circuit gain |gamma| against cos^n(pi/n) for a
    negative circuit and 1 for a positive one.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if tol is None:
        tol = 1e-12 * (1.0 + abs(a).max())
    d = np.diag(a)
    if (np.abs(d) <= tol).any():
        raise ValueError("zero diagonal entry; cannot normalize to -1")
    m = a / np.abs(d)[:, None]
    if not np.allclose(np.diag(m), -1.0, atol=1e-9):
        raise ValueError("diagonal is not -1 after row scaling")

    succ = []
    for i in range(n):
        row = [j for j in range(n) if j != i and abs(m[i, j]) > tol]
        if len(row) != 1:
            raise ValueError("graph is not a single circuit")
        succ.append(row[0])
    seen = [0]
    while len(seen) <= n:
        nxt = succ[seen[-1]]
        if nxt == 0:
            break
        seen.append(nxt)
    if len(seen) != n or sorted(seen) != list(range(n)):
        raise ValueError("graph is not a single circuit")

    gamma = float(np.prod([m[i, succ[i]] for i in range(n)]))
    phi = math.cos(math.pi / n) ** n if gamma < 0 else 1.0
    value = abs(gamma) * phi
    if value < 1.0:
        return Verdict(Status.PROVED, "single-circuit-gain",
                       witness={"gamma": gamma, "phi": phi, "value": value})
    return Verdict(Status.REFUTED, "single-circuit-gain",
                   witness={"gamma": gamma, "phi": phi, "value": value})


def metzler_compound_structure(a, tol=None):
    """Sign structure making the second additive compound Metzler.

    Nonnegative first off-diagonals, nonpositive corner entries, zeros
    elsewhere off the tridiagonal band, arbitrary diagonal.  The verdict
    is cross-checked against Metzler-ness of the compound itself.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if tol is None:
        tol = 1e-12 * (1.0 + abs(a).max())
    trimmed = np.where(np.abs(a) <= tol, 0.0, a)
    if n <= 2:
        return True
    ok = True
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = trimmed[i, j]
            if abs(i - j) == 1:
                ok = ok and v >= 0
            elif (i, j) in ((0, n - 1), (n - 1, 0)):
                ok = ok and v <= 0
            else:
                ok = ok and v == 0
    compound_metzler = is_metzler(additive_compound_2(trimmed), tol=0.0)
    if compound_metzler != ok:
        raise RuntimeError("sign-structure test disagrees with the compound")
    return ok


# ---------------------------------------------------------------------------
# Second-order companion systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompanionPair:
    """Second-order system data and its 2n x 2n block companion matrix."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


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
    if not classify(a).ndd:
        return Verdict(Status.UNKNOWN, "companion-A-not-ndd")
    return Verdict(Status.PROVED, "companion-ndd-stable")


def companion_ndd_d_stable(a, b):
    """Same premises as companion_ndd_stable, concluding multiplicative D-stability of C."""
    v = companion_ndd_stable(a, b)
    if v.proved:
        return Verdict(Status.PROVED, "companion-ndd-d-stable")
    return Verdict(Status.UNKNOWN, v.reason)


def _block_corner_class_witness(d, n, position):
    g = np.eye(2 * n)
    g[:n, :n] = np.eye(n)
    if position == "upper-left":
        g[:n, :n] = np.diag(d)
    else:
        g[:n, n:] = np.diag(d)
    g[n:, :n] = np.eye(n)
    g[n:, n:] = np.eye(n)
    return g


def damping_class_stability(a, b, samples=5000, budget=5000, seed=0):
    """Block-Hadamard stability of [[A, bI], [I, 0]] via D-stability of A.

    The class multiplies only the damping block: G = [[D, I], [I, I]]
    with positive diagonal D, acting blockwise.  For a_ii < 0 and b < 0
    the companion is class-stable iff A is multiplicative D-stable, so
    the verdict is the D-stability orchestration on A relabeled for C,
    with falsification witnesses transferred to the block class.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if not b < 0:
        raise ValueError("damping-class reduction requires b < 0")
    if not (np.diag(a) < 0).all():
        raise ValueError("damping-class reduction requires a negative diagonal in A")

    nec = necessary_p0plus(a)  # cheap kill before the sampling budget
    if nec.refuted:
        return Verdict(Status.REFUTED, "damping-class-necessary-fails",
                       witness=nec.witness, seed=seed)

    fal = falsify(a, PositiveDiagonal(), Multiply(), HalfPlaneLeft(),
                  samples=samples, seed=seed)
    if fal.refuted:
        d = np.diag(fal.witness.g)
        g = _block_corner_class_witness(d, n, "upper-left")
        c = build_companion(a, b * np.eye(n)).c
        realized = np.zeros_like(c)
        realized[:n, :n] = np.diag(d) @ a
        realized[:n, n:] = b * np.eye(n)
        realized[n:, :n] = np.eye(n)
        z = first_outside(eigenvalues(realized), HalfPlaneLeft())
        if z is not None:
            return Verdict(Status.REFUTED, "damping-class-falsified",
                           witness={"g": g, "realized": realized,
                                    "eigenvalue": z}, seed=seed)
        return Verdict(Status.REFUTED, "damping-class-a-not-d-stable",
                       witness={"d": d, "eigenvalue": fal.witness.eigenvalue},
                       seed=seed)

    suite = sufficient_suite(-a, budget=budget)
    for name, verdict in suite:
        if verdict.proved:
            return Verdict(Status.PROVED, f"damping-class-d-stable-by-{name}",
                           witness=verdict.witness, seed=seed)
    return Verdict(Status.UNKNOWN, "damping-class-undecided", seed=seed)


def strictly_totally_positive(m, cap=6):
    """All minors of all orders strictly positive (full pair enumeration)."""
    m = as_matrix(m)
    n = m.shape[0]
    if n > cap:
        raise ValueError(f"total positivity enumeration capped at n = {cap}")
    for k in range(1, n + 1):
        tol = 1e-12 * (1.0 + abs(m).max() ** k)
        if (compound(m, k) <= tol).any():
            return False
    return True


def stiffness_class_stability(b, a, samples=2000, seed=0):
    """Block-Hadamard stability of [[aI, B], [I, 0]] from D-negativity of B.

    The class multiplies only the stiffness block: G = [[I, D], [I, I]].
    D-negativity of B (all eigenvalues of D B real negative for every
    positive diagonal D) has no exact decider here, so the test combines
    sufficient conditions (B symmetric negative definite, or -B strictly
    totally positive) with a sampling falsifier.  A sampled D whose
    realized companion leaves the half-plane refutes class stability
    outright; a D-negativity violation alone downgrades to Unknown.
    """
    b = as_matrix(b)
    n = b.shape[0]
    if not a < 0:
        raise ValueError("stiffness-class reduction requires a < 0")
    tol = 1e-12 * (1.0 + abs(b).max())
    if not (np.diag(b) < -tol).all():
        raise ValueError("stiffness-class reduction requires a negative diagonal in B")

    symmetric_nd = bool(
        np.allclose(b, b.T, atol=tol)
        and np.linalg.eigvalsh(0.5 * (b + b.T))[-1] < 0)
    stp = n <= 6 and strictly_totally_positive(-b)

    rng = np.random.default_rng(seed)
    premise_violation = None
    for idx in range(samples):
        d = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), n))
        spec = eigenvalues(np.diag(d) @ b)
        bad = [z for z in spec
               if abs(z.imag) > 1e-8 * (1.0 + abs(z)) or z.real >= 0]
        if not bad:
            continue
        realized = np.zeros((2 * n, 2 * n))
        realized[:n, :n] = a * np.eye(n)
        realized[:n, n:] = np.diag(d) @ b
        realized[n:, :n] = np.eye(n)
        check = region_stable(realized, HalfPlaneLeft())
        if check.refuted:
            g = _block_corner_class_witness(d, n, "upper-right")
            return Verdict(Status.REFUTED, "stiffness-class-falsified",
                           witness={"g": g, "realized": realized,
                                    "eigenvalue": check.witness["eigenvalue"],
                                    "sample_index": idx}, seed=seed)
        if premise_violation is None:
            premise_violation = {"d": d, "eigenvalue": complex(bad[0]),
                                 "sample_index": idx}

    if premise_violation is not None:
        return Verdict(Status.UNKNOWN, "stiffness-class-d-negativity-refuted",
                       witness=premise_violation, seed=seed)
    if symmetric_nd:
        return Verdict(Status.PROVED, "stiffness-class-b-symmetric-negative-definite",
                       seed=seed)
    if stp:
        return Verdict(Status.PROVED, "stiffness-class-minus-b-strictly-totally-positive",
                       seed=seed)
    return Verdict(Status.UNKNOWN, "stiffness-class-d-negativity-undecided", seed=seed)
