"""Stability regions, spectra and region-membership verdicts.

The stability region is a closed enumeration of subsets of the complex
plane, each symmetric with respect to the real axis.  Region
membership is always decided with a deadband around the boundary, of
width ``default_tol(z) = 1e-8 * (1 + |z|)`` at a point z, so that
strict-inequality regions never produce a false "inside" for an
eigenvalue sitting numerically on the boundary.

Each :class:`Region` owns its geometry, and every membership test in the
library goes through it:

- ``distance(zs, tol)`` is the signed boundary distance of a complex
  array of points, with ``tol`` one band per point: below
  ``-tol`` is inside, within ``tol`` the boundary band, above ``tol``
  outside.  It is a signed length, in the units of the band, on every
  region but the LMI and EMI regions (the top eigenvalue of their
  characteristic matrix).  The thin regions (the real line and its
  half-axes) return ``+inf`` for a point more than ``tol`` off the real
  axis; on it, the real line returns ``-inf`` and a half-axis its signed
  distance along the axis.
- ``emi`` is the ``(R11, R12, R22)`` form of the region as the set
  where ``R11 + R12 z + R12^T conj(z) + R22 |z|^2`` is negative
  definite, for the regions that have a diagonal certificate search
  (both half-planes, the disk, the sector and the LMI and EMI
  regions); it is None for the others.
- ``conic`` is True when the ``emi`` form has R11 = 0 and R22 = 0: the
  region is a cone with its apex at the origin (the half-planes, the
  sector, an LMI region with L = 0).
- ``radial`` is True when the ``emi`` form has R12 = 0 and R22
  positive semidefinite: the form reads z only through R22 |z|^2, and
  the region is a disk centred at the origin (a ``Disk`` with center 0,
  or that disk written as an EMI region).
- ``bounded`` is True when the ``emi`` form has R22 positive definite,
  so the region is bounded (a disk); False is conservative.

:func:`membership` is the one band test: through ``distance`` with each
point's ``default_tol`` band it gives -1 (strictly inside), 0 (in the
band) or +1 (strictly outside) per point, and 0 for a non-finite point.
:func:`first_outside`, :func:`region_stable`, :func:`gershgorin` and
every other band test of the library go through it, so one point gets
one verdict whichever of them asks.

Regions, like the classes and operations of ``dstability``, are values
on one base, :class:`Value`: equal by class and parameters, hashed and
printed by their parameters.  They are plain classes with an explicit
``__init__``, not dataclasses, so that importing the library generates
no code for them.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matrix_core import as_matrix

__all__ = [
    "Status", "Verdict", "Value",
    "Region", "HalfPlaneLeft", "HalfPlaneRight", "Disk", "SectorRight",
    "ComplementSector", "RealLine", "PositiveRealAxis", "NegativeRealAxis",
    "Hyperbolic", "PunctureOrigin", "LMIRegion", "EMIRegion",
    "EigenSolverError", "eigenvalues", "default_tol", "membership",
    "first_outside", "region_stable", "gershgorin",
    "simulate_decay", "spectral_abscissa", "decay_horizon",
]


class EigenSolverError(RuntimeError):
    """Dense eigenvalue iteration failed to converge."""


class Status(str, Enum):
    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Three-valued analysis outcome with provenance.

    ``reason`` names the criterion that fired.  A refutation always
    carries a witness object; a proof either carries a re-verifiable
    certificate or names an exact criterion.  ``seed`` records the RNG
    seed when the verdict came out of a sampling procedure.
    """

    status: Status
    reason: str
    witness: object = None
    seed: object = None

    def __post_init__(self):
        if self.status is Status.REFUTED and self.witness is None:
            raise ValueError("a refutation requires a witness")
        if self.status is Status.PROVED and not self.reason:
            raise ValueError("a proof requires a reason")

    @property
    def proved(self):
        return self.status is Status.PROVED

    @property
    def refuted(self):
        return self.status is Status.REFUTED


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------

class Value:
    """Base of the library's value classes: regions, perturbation classes,
    operations and a few small records.

    A value's parameters are the attributes its ``__init__`` sets, in that
    order.  Two values are equal when they are of the same class and their
    parameters are equal (an array by ``np.array_equal``), and a value of
    another class gives ``NotImplemented``; the hash is that of the
    parameter tuple, so an array parameter makes the value unhashable.  The
    repr is ``Name(param=value, ...)``.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = vars(self), vars(other)
        return mine.keys() == theirs.keys() and all(
            np.array_equal(v, theirs[k]) if isinstance(v, np.ndarray)
            else v == theirs[k] for k, v in mine.items())

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{self.__class__.__qualname__}({params})"


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------

class Region(Value):
    """Base of the closed enumeration of stability regions.

    See the module docstring for the ``distance``, ``emi``, ``conic``,
    ``radial`` and ``bounded`` contract.
    """

    name = "region"
    emi = None

    @property
    def conic(self):
        if self.emi is None:
            return False
        r11, _, r22 = self.emi
        return not (np.any(r11) or np.any(r22))

    @property
    def radial(self):
        if self.emi is None:
            return False
        _, r12, r22 = self.emi
        return not np.any(r12) and bool(np.linalg.eigvalsh(r22)[0] >= 0)

    @property
    def bounded(self):
        return self.emi is not None and bool(
            np.linalg.eigvalsh(self.emi[2])[0] > 0)

    def distance(self, zs, tol):
        raise TypeError(f"unknown region {self!r}")


class HalfPlaneLeft(Region):
    name = "half-plane-left"

    @property
    def emi(self):
        return np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0]])

    def distance(self, zs, tol):
        return zs.real.copy()


class HalfPlaneRight(Region):
    name = "half-plane-right"

    @property
    def emi(self):
        return np.array([[0.0]]), np.array([[-1.0]]), np.array([[0.0]])

    def distance(self, zs, tol):
        return -zs.real


class Disk(Region):
    """Open disk |z - center| < radius with a real center."""

    name = "disk"

    def __init__(self, center=0.0, radius=1.0):
        if not (math.isfinite(center) and math.isfinite(radius)):
            raise ValueError("disk center and radius must be finite")
        if not (radius > 0):
            raise ValueError("disk radius must be positive")
        self.center = center
        self.radius = radius

    @property
    def emi(self):
        c, r = self.center, self.radius
        return np.array([[c * c - r * r]]), np.array([[-c]]), np.array([[1.0]])

    def distance(self, zs, tol):
        return np.abs(zs - self.center) - self.radius


class SectorRight(Region):
    """Open sector |arg z| < theta around the positive real axis."""

    name = "sector-right"

    def __init__(self, theta):
        if not (0 < theta < math.pi / 2):
            raise ValueError("sector angle must lie in (0, pi/2)")
        self.theta = theta

    @property
    def emi(self):
        # the characteristic 2 [[-x s, i y c], [-i y c, -x s]] of z = x + iy,
        # s = sin(theta), c = cos(theta), is negative definite iff
        # |y| c < x s
        s, c = math.sin(self.theta), math.cos(self.theta)
        m = np.array([[-s, c], [-c, -s]])
        return np.zeros((2, 2)), m, np.zeros((2, 2))

    def distance(self, zs, tol):
        # the signed distance to the nearer boundary ray, a length like
        # the band: to the ray's line, or to the vertex for a point behind it
        s, c = math.sin(self.theta), math.cos(self.theta)
        d = np.abs(zs.imag) * c - zs.real * s
        return np.where(zs.real * c + np.abs(zs.imag) * s < 0, np.abs(zs), d)


class ComplementSector(Region):
    """Complement of the closed sector |arg z| <= theta, origin excluded."""

    name = "complement-sector"

    def __init__(self, theta):
        if not (0 < theta < math.pi / 2):
            raise ValueError("sector angle must lie in (0, pi/2)")
        self.theta = theta

    def distance(self, zs, tol):
        return -SectorRight(self.theta).distance(zs, tol)


class RealLine(Region):
    name = "real-line"

    def distance(self, zs, tol):
        return np.where(np.abs(zs.imag) <= tol, -np.inf, np.inf)


class PositiveRealAxis(Region):
    name = "positive-real-axis"

    def distance(self, zs, tol):
        return np.where(np.abs(zs.imag) <= tol, -zs.real, np.inf)


class NegativeRealAxis(Region):
    name = "negative-real-axis"

    def distance(self, zs, tol):
        return np.where(np.abs(zs.imag) <= tol, zs.real, np.inf)


class Hyperbolic(Region):
    """Complex plane minus the imaginary axis.

    Never "outside": the axis is the whole boundary.
    """

    name = "hyperbolic"

    def distance(self, zs, tol):
        return -np.abs(zs.real)


class PunctureOrigin(Region):
    """Complex plane minus the origin."""

    name = "puncture-origin"

    def distance(self, zs, tol):
        return -np.abs(zs)


def _finite(m):
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise ValueError("region data must be finite")
    return m


def _sym(m):
    m = _finite(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("region data must be a square matrix")
    if not np.allclose(m, m.T, atol=1e-12 * (1.0 + abs(m).max(initial=0.0))):
        raise ValueError("region data must be symmetric")
    return 0.5 * (m + m.T)


class EMIRegion(Region):
    """Region {z : R11 + R12 z + R12^T conj(z) + R22 z conj(z) neg. def.}."""

    name = "emi"

    def __init__(self, r11, r12, r22):
        r11, r22 = _sym(r11), _sym(r22)
        r12 = _finite(r12)
        if r12.shape != r11.shape or r22.shape != r11.shape:
            raise ValueError("R blocks must have equal shape")
        self.r11 = r11
        self.r12 = r12
        self.r22 = r22

    @property
    def emi(self):
        return self.r11, self.r12, self.r22

    def characteristic(self, z):
        # an infinite z gives inf or NaN entries, and membership puts that
        # point in the band by design: the overflow is expected, not warned.
        # |z|^2 may overflow too; a zero R22 adds no inf * 0
        with np.errstate(over="ignore", invalid="ignore"):
            c = self.r11 + z * self.r12 + np.conj(z) * self.r12.T
            if self.r22.any():
                c = c + (z * np.conj(z)).real * self.r22
        return c

    def distance(self, zs, tol):
        return np.linalg.eigvalsh(self.characteristic(zs[..., None, None]))[..., -1]


class LMIRegion(EMIRegion):
    """Region {z : L + M z + M^T conj(z) negative definite}, L symmetric:
    the EMI region with R11 = L, R12 = M and R22 = 0."""

    name = "lmi"

    def __init__(self, l, m):
        super().__init__(l, m, np.zeros(np.shape(l)))


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------

def eigenvalues(a):
    """Spectrum of a real square matrix, sorted by (real, imag).

    The dense solver is the standard balanced Hessenberg reduction with
    shifted QR iteration (LAPACK); non-convergence raises
    ``EigenSolverError``.  Real input keeps the returned multiset closed
    under conjugation.
    """
    a = as_matrix(a)
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc
    return np.sort_complex(w)


def default_tol(z):
    """Boundary deadband around a point: 1e-8 * (1 + |z|)."""
    return 1e-8 * (1.0 + abs(z))


# ---------------------------------------------------------------------------
# Region membership
# ---------------------------------------------------------------------------

def membership(zs, region):
    """Per point of ``zs`` (any shape): -1 strictly inside ``region``, 0 in
    its boundary band, +1 strictly outside.

    The band of a point z is ``default_tol(z)``.  Thin regions (the real
    line and its half-axes) have empty interior; for these, "inside"
    means the defining equalities hold within the band and the strict
    inequalities hold with the band as margin.  A NaN or infinite point
    (an overflowed eigenvalue, whose band is infinite) is 0: never inside.
    """
    zs = np.asarray(zs, dtype=complex)
    tols = default_tol(zs)
    d = region.distance(zs, tols)
    return (d > tols).astype(int) - (d < -tols)


def first_outside(spectrum, region):
    """First point of ``spectrum`` not strictly inside ``region``, or None;
    a finite point before a non-finite one (an overflowed eigenvalue)."""
    zs = np.asarray(spectrum, dtype=complex)
    out = zs[membership(zs, region) >= 0]
    out = np.concatenate([out[np.isfinite(out)], out[~np.isfinite(out)]])
    return complex(out[0]) if out.size else None


def region_stable(a, region, spectrum=None):
    """Proved iff every eigenvalue of ``a`` lies strictly inside ``region``.

    Any eigenvalue classified boundary-or-outside refutes, with that
    eigenvalue as the witness.  Unknown is reserved for solver failure.
    ``spectrum``, when given, is ``eigenvalues(a)`` already solved.
    """
    spec = spectrum
    if spec is None:
        try:
            spec = eigenvalues(a)
        except EigenSolverError as exc:
            return Verdict(Status.UNKNOWN, f"eigensolver-failure: {exc}")
    z = first_outside(spec, region)
    if z is not None:
        return Verdict(Status.REFUTED, "eigenvalue-outside-region",
                       witness={"eigenvalue": z, "region": region.name})
    return Verdict(Status.PROVED, "all-eigenvalues-inside")


def gershgorin(a):
    """Row disc localization and the resulting Hurwitz verdict.

    Returns the discs (center a_ii, radius = off-diagonal row sum) and
    Proved when the rightmost point a_ii + r_i of every disc is strictly
    inside the left half-plane (:func:`membership`); Unknown otherwise
    (the localization never refutes).
    """
    a = as_matrix(a)
    n = a.shape[0]
    radii = abs(a).sum(axis=1) - abs(np.diag(a))
    disks = [(float(a[i, i]), float(radii[i])) for i in range(n)]
    if (membership(np.diag(a) + radii, HalfPlaneLeft()) < 0).all():
        verdict = Verdict(Status.PROVED, "gershgorin-discs-in-left-half-plane")
    else:
        verdict = Verdict(Status.UNKNOWN, "gershgorin-inconclusive")
    return disks, verdict


def spectral_abscissa(a):
    return float(max(z.real for z in eigenvalues(a)))


def decay_horizon(a, target=1e-8):
    """Horizon T with ||exp(a T)|| below ``target``, from the eigenbasis bound.

    Uses ||exp(a t)|| <= cond(V) * exp(alpha t) with alpha the spectral
    abscissa, clamped to [1, 1e4]; only meaningful for alpha < 0.
    """
    alpha = spectral_abscissa(a)
    if alpha >= 0:
        raise ValueError("decay horizon requires a Hurwitz-stable matrix")
    _, v = np.linalg.eig(as_matrix(a))
    kappa = np.linalg.cond(v)
    t = (math.log(target) - math.log(max(kappa, 1.0))) / alpha
    return float(min(max(t, 1.0), 1e4))


def simulate_decay(m, horizon, step):
    """Max trajectory-norm ratio of x' = m x over canonical basis starts.

    Integrates with the classical fixed-step fourth-order one-step method
    from every canonical basis vector at once and returns
    max_i ||x_i(T)|| / ||x_i(0)||.  Overflow is reported as ``inf``
    (a divergence witness), not an exception.
    """
    m = as_matrix(m)
    if step <= 0:
        raise ValueError("step must be positive")
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    n = m.shape[0]
    x = np.eye(n)
    steps = int(round(horizon / step))
    h = horizon / steps
    for _ in range(steps):
        k1 = m @ x
        k2 = m @ (x + 0.5 * h * k1)
        k3 = m @ (x + 0.5 * h * k2)
        k4 = m @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all() or abs(x).max() > 1e150:
            return math.inf
    return float(np.linalg.norm(x, axis=0).max())
