"""Seeded request corpora for the benchmark workloads.

``desk-dstab`` and ``regions-mix`` are the gated workloads of
BENCHMARK.json; ``large-n`` runs the same way but is not gated (see
README.md).

Every request carries a label that its construction guarantees:

* ``robust``: every member G of the class keeps the spectrum of G o A
  strictly inside the region (diagonally stable, negated M-matrix,
  norm-bounded, ... by construction), so a Refuted verdict is unsound;
* ``escapes``: the generator holds a class member ``g0`` for which
  g0 o A has an eigenvalue outside (or on the boundary of) the region,
  so a Proved verdict is unsound;
* ``None``: no guarantee either way (random Hurwitz inputs).

The library sees only the matrix and the request specs; the labels and
``g0`` stay in the benchmark.  Only numpy is used here, so the corpus
does not depend on the code under test.
"""

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("desk-dstab", "large-n", "regions-mix")

MULT = ("half-plane-left", "positive-diagonal", "multiply")
ADD = ("half-plane-left", "negative-diagonal", "add")


@dataclass
class Spec:
    name: str
    matrix: np.ndarray
    region: str
    gclass: str
    op: str
    label: object  # "robust", "escapes" or None
    seed: int
    g0: np.ndarray = None


# ---------------------------------------------------------------------------
# Matrix constructions (Hurwitz convention unless the region says otherwise)
# ---------------------------------------------------------------------------

def _skew(rng, n, scale):
    b = rng.normal(0.0, scale, (n, n))
    return b - b.T


def _spd(rng, n, low):
    b = rng.normal(size=(n, n))
    return b @ b.T / n + low * np.eye(n)


def inside(z, region):
    """Strictly inside the region spec, with matstab's default deadband."""
    tol = 1e-8 * (1.0 + abs(z))
    name, _, arg = region.partition(":")
    if name == "half-plane-left":
        return z.real < -tol
    if name == "disk":
        c, r = (float(x) for x in arg.split(","))
        return abs(z - c) - r < -tol
    if name == "hyperbolic":
        return abs(z.real) > tol
    if name == "sector":
        return abs(z) > tol and abs(np.angle(z)) - float(arg) < -tol
    raise ValueError(f"no membership test for region {region!r}")


def _escapes(spec):
    """The generator's member g0 takes an eigenvalue out of the region."""
    m = spec.g0 + spec.matrix if spec.op == "add" else spec.g0 @ spec.matrix
    return not all(inside(complex(z), spec.region)
                   for z in np.linalg.eigvals(m))


def _abscissa(a):
    return float(np.linalg.eigvals(a).real.max())


def diag_stable(rng, n):
    """A = D^-1 (K - P): D A + A^T D = -2P, so A is diagonally stable."""
    d = np.exp(rng.uniform(-1.5, 1.5, n))
    return (_skew(rng, n, 2.0) - _spd(rng, n, 0.5)) / d[:, None]


def neg_m_matrix(rng, n):
    """A = N - sI with N >= 0 and s > rho(N): -A is a nonsingular M-matrix."""
    nn = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
    np.fill_diagonal(nn, 0.0)
    rho = float(np.abs(np.linalg.eigvals(nn)).max())
    return nn - (rho * rng.uniform(1.1, 1.5) + 0.1) * np.eye(n)


def hurwitz(rng, n):
    """Gaussian matrix shifted left of the imaginary axis (mostly not P0+)."""
    b = rng.normal(size=(n, n))
    return b - (_abscissa(b) + rng.uniform(0.1, 1.0)) * np.eye(n)


def unstable(rng, n):
    """Gaussian matrix shifted so its spectral abscissa lies in [0.2, 1]."""
    b = rng.normal(size=(n, n))
    return b - (_abscissa(b) - rng.uniform(0.2, 1.0)) * np.eye(n)


def norm_below_one(rng, n):
    b = rng.normal(size=(n, n))
    return b * (rng.uniform(0.5, 0.95) / np.linalg.norm(b, 2))


def radius_above_one(rng, n):
    b = rng.normal(size=(n, n))
    return b * (rng.uniform(1.3, 2.0) / np.abs(np.linalg.eigvals(b)).max())


def d_hyperbolic(rng, n):
    """A = D^-1 (P + K) with D a nonsingular diagonal of mixed signs.

    D A + A^T D = 2P is positive definite; for every positive diagonal E
    the symmetric D E^-1 gives the same form for E A, so by the inertia
    theorem E A has no eigenvalue on the imaginary axis.
    """
    d = np.exp(rng.uniform(-1.0, 1.0, n)) * rng.choice((-1.0, 1.0), n)
    return (_spd(rng, n, 0.5) + _skew(rng, n, 1.0)) / d[:, None]


def _similar(rng, n, block):
    """Random orthogonal similarity of blkdiag(block, Hurwitz rest)."""
    k = block.shape[0]
    m = np.zeros((n, n))
    m[:k, :k] = block
    if n > k:
        m[k:, k:] = hurwitz(rng, n - k)
        m[:k, k:] = rng.normal(size=(k, n - k))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ m @ q.T


def imaginary_pair(rng, n):
    w = rng.uniform(0.5, 2.0)
    return _similar(rng, n, np.array([[0.0, w], [-w, 0.0]]))


def sector_escape(rng, n, theta):
    """A complex pair at angle theta + 0.3 from the positive real axis."""
    r = rng.uniform(0.5, 2.0)
    phi = theta + 0.3
    re, im = r * np.cos(phi), r * np.sin(phi)
    return _similar(rng, n, np.array([[re, im], [-im, re]]))


def h_stable(rng, n):
    """A = K - P: the symmetric part is negative definite."""
    return _skew(rng, n, 1.0) - _spd(rng, n, 0.5)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

SECTOR = 0.6


def _interval_spec(n):
    return "interval-diagonal:" + ",".join(["0.5/2"] * n)


# (name, construction, (region, class, op) or callable of n, label, g0 of n)
DESK_STRATA = [
    ("mult-diag-stable", diag_stable, MULT, "robust", None),
    ("mult-neg-m", neg_m_matrix, MULT, "robust", None),
    ("mult-hurwitz", hurwitz, MULT, None, None),
    ("mult-unstable", unstable, MULT, "escapes", np.eye),
    ("add-diag-stable", diag_stable, ADD, "robust", None),
    ("add-neg-m", neg_m_matrix, ADD, "robust", None),
    ("add-hurwitz", hurwitz, ADD, None, None),
    ("add-unstable", unstable, ADD, "escapes", lambda n: -1e-3 * np.eye(n)),
]
DESK_SIZES = (6, 7, 8, 9, 10, 11, 12, 13, 14)

LARGE_STRATA = [
    ("diag-stable", diag_stable, MULT, "robust", None),
    ("hurwitz", hurwitz, MULT, None, None),
    ("unstable", unstable, MULT, "escapes", np.eye),
]
LARGE_SIZES = (20, 22, 24, 26)

DISK = "disk:0,1"
REGION_STRATA = [
    ("schur-robust", norm_below_one, (DISK, "diagonal-norm-lt1", "multiply"),
     "robust", None),
    ("schur-escapes", radius_above_one,
     (DISK, "diagonal-norm-lt1", "multiply"), "escapes",
     lambda n: 0.99 * np.eye(n)),
    ("vertex-robust", norm_below_one, (DISK, "vertex-diagonal", "multiply"),
     "robust", None),
    ("vertex-escapes", radius_above_one,
     (DISK, "vertex-diagonal", "multiply"), "escapes", np.eye),
    ("hyperbolic-robust", d_hyperbolic,
     ("hyperbolic", "positive-diagonal", "multiply"), "robust", None),
    ("hyperbolic-escapes", imaginary_pair,
     ("hyperbolic", "positive-diagonal", "multiply"), "escapes", np.eye),
    ("h-stable", h_stable, ("half-plane-left", "spd", "multiply"),
     "robust", None),
    ("h-hurwitz", hurwitz, ("half-plane-left", "spd", "multiply"),
     None, None),
    ("interval-robust", diag_stable,
     lambda n: ("half-plane-left", _interval_spec(n), "multiply"),
     "robust", None),
    ("interval-escapes", unstable,
     lambda n: ("half-plane-left", _interval_spec(n), "multiply"),
     "escapes", np.eye),
    ("sector-robust", lambda rng, n: _spd(rng, n, 0.5),
     (f"sector:{SECTOR}", "positive-diagonal", "multiply"), "robust", None),
    ("sector-escapes", lambda rng, n: sector_escape(rng, n, SECTOR),
     (f"sector:{SECTOR}", "positive-diagonal", "multiply"), "escapes",
     np.eye),
]
REGION_SIZES = (2, 3, 4, 5, 6, 7, 8, 9, 10)

CLASSIC = np.array([[1.0, -4.0], [1.0, -2.0]])

# Seconds for one round of a workload's strata, named cases amortized, on
# a 2-CPU x86-64 VM with one BLAS thread.  A run answers
# round(seconds / ROUND_S) rounds, so that it takes about --seconds; the
# constants keep the request count, and with it the tail percentile,
# fixed per --seconds.
ROUND_S = {"desk-dstab": 8.0, "large-n": 12.0, "regions-mix": 5.0}


REFERENCE_SEED = 0


def _request_seed(seed, workload, j):
    return int(np.random.SeedSequence([seed, WORKLOADS.index(workload), 2,
                                       j]).generate_state(1)[0] >> 1)


def _rng(seed, workload, *key):
    return np.random.default_rng([seed, WORKLOADS.index(workload), *key])


def _named(workload):
    """The reference cases of the pipeline baseline, as named requests.

    They are the same for every seed, like the single cases they
    reproduce; the seed varies the strata only.
    """
    seed = REFERENCE_SEED
    if workload == "desk-dstab":
        # D = diag(3, 1) puts the trace of D A at +1: not D-stable
        yield ("classic-2x2", CLASSIC, MULT, "escapes", np.diag([3.0, 1.0]))
        yield ("hurwitz-n14", hurwitz(_rng(seed, workload, 1, 0), 14), MULT,
               None, None)
    elif workload == "large-n":
        yield ("hurwitz-n30", hurwitz(_rng(seed, workload, 1, 0), 30), MULT,
               None, None)
        yield ("hurwitz-n50", hurwitz(_rng(seed, workload, 1, 1), 50), MULT,
               None, None)


def _strata(workload):
    return {"desk-dstab": (DESK_STRATA, DESK_SIZES),
            "large-n": (LARGE_STRATA, LARGE_SIZES),
            "regions-mix": (REGION_STRATA, REGION_SIZES)}[workload]


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_S[workload]))


def build(workload, seed, rounds):
    """The corpus of one workload: named cases, then `rounds` rounds of
    the strata, round-robin.

    Composition and sizes are fixed per workload; the seed changes only
    the random entries, so every seed runs the same mix.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for name, a, triple, label, g0 in _named(workload):
        out.append(Spec(name, a, *triple, label,
                        _request_seed(REFERENCE_SEED, workload, len(out)), g0))
    strata, sizes = _strata(workload)
    for j in range(rounds * len(strata)):
        s = j % len(strata)
        name, make, triple, label, g0 = strata[s]
        n = sizes[(j // len(strata) + s) % len(sizes)]
        a = make(_rng(seed, workload, 0, j), n)
        if callable(triple):
            triple = triple(n)
        out.append(Spec(f"{name}-n{n}", a, *triple, label,
                        _request_seed(seed, workload, len(out)),
                        None if g0 is None else g0(n)))
    for spec in out:
        if spec.label == "escapes" and not _escapes(spec):
            raise ValueError(f"{spec.name}: g0 does not witness the label")
    return out
