import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matstab import spectra as sp

from conftest import charpoly_roots, multiset_close, random_hurwitz


def _conjugate_paired(spectrum, tol=1e-8):
    """True when the multiset of eigenvalues is symmetric about the real axis."""
    left = [z for z in spectrum if z.imag > tol]
    right = [z for z in spectrum if z.imag < -tol]
    if len(left) != len(right):
        return False
    scale = 1.0 + max((abs(z) for z in spectrum), default=0.0)
    right = list(right)
    for z in left:
        match = None
        for i, w in enumerate(right):
            if abs(np.conj(z) - w) <= tol * scale:
                match = i
                break
        if match is None:
            return False
        right.pop(match)
    return True


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(sp.eigenvalues(np.diag([-1.0, -2.0])), [-2, -1])

    def test_rotation(self):
        got = sp.eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert multiset_close(got, [1j, -1j], 1e-12)

    def test_against_charpoly_root_oracle(self, rng):
        for _ in range(25):
            a = rng.normal(size=(5, 5))
            got = sp.eigenvalues(a)
            expect = charpoly_roots(a)
            scale = 1 + abs(expect).max()
            assert multiset_close(got, expect, 1e-7 * scale)

    def test_conjugate_symmetry(self, rng):
        for n in (2, 3, 4, 5, 6):
            spec = sp.eigenvalues(rng.normal(size=(n, n)))
            assert _conjugate_paired(spec, tol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sp.eigenvalues([[np.inf, 0.0], [0.0, 1.0]])


# the verdicts of sp.membership
INSIDE, BAND, OUTSIDE = -1, 0, 1


class TestMembership:
    def test_half_plane_left(self):
        r = sp.HalfPlaneLeft()
        assert sp.membership(-1.0, r) == INSIDE
        assert sp.membership(1.0, r) == OUTSIDE
        assert sp.membership(1e-12j, r) == BAND

    def test_hyperbolic_axis_is_boundary(self):
        assert sp.membership(0.5j, sp.Hyperbolic()) == BAND

    def test_disk(self):
        r = sp.Disk(0.0, 1.0)
        assert sp.membership(0.5, r) == INSIDE
        assert sp.membership(1.5, r) == OUTSIDE
        assert sp.membership(1.0, r) == BAND

    def test_sector(self):
        r = sp.SectorRight(math.pi / 4)
        assert sp.membership(1.0, r) == INSIDE
        assert sp.membership(1j, r) == OUTSIDE
        assert sp.membership(0.0, r) == BAND
        # the distance is a length, like the band 1e-8 (1 + |z|): points on
        # the axis are inside however large, and a point behind the vertex
        # is |z| from the boundary, not its distance to a ray's line
        r, c = sp.SectorRight(0.6), sp.ComplementSector(0.6)
        for z in (1e9, 2e9, 1e15):
            assert sp.membership(z, r) == INSIDE
            assert sp.membership(-z, c) == INSIDE
            assert sp.membership(z * np.exp(0.7j), r) == OUTSIDE
            assert sp.membership(z * np.exp(0.6j), r) == BAND
        assert sp.membership(-1e-5, sp.ComplementSector(1e-4)) == INSIDE
        assert sp.membership(-1.0, sp.ComplementSector(1e-9)) == INSIDE
        assert sp.membership(-1.5e-8, c) == INSIDE
        assert sp.membership(-1e-5, sp.SectorRight(1e-4)) == OUTSIDE

    def test_axes_and_lines(self):
        assert sp.membership(2.0, sp.PositiveRealAxis()) == INSIDE
        assert sp.membership(0.0, sp.PositiveRealAxis()) == BAND
        assert sp.membership(-3.0, sp.NegativeRealAxis()) == INSIDE
        assert sp.membership(1 + 0.5j, sp.RealLine()) == OUTSIDE
        assert sp.membership(7.0, sp.RealLine()) == INSIDE
        assert sp.membership(0.0, sp.PunctureOrigin()) == BAND

    def test_lmi_half_plane_matches_direct(self, rng):
        # f(z) = z + conj(z) classifies exactly as the left half-plane
        r = sp.LMIRegion([[0.0]], [[1.0]])
        direct = sp.HalfPlaneLeft()
        for _ in range(1000):
            z = complex(rng.normal(), rng.normal())
            assert sp.membership(z, r) == sp.membership(z, direct)

    def test_emi_unit_disk_matches_direct(self, rng):
        r = sp.EMIRegion([[-1.0]], [[0.0]], [[1.0]])
        direct = sp.Disk(0.0, 1.0)
        for _ in range(500):
            z = complex(rng.normal(), rng.normal())
            assert sp.membership(z, r) == sp.membership(z, direct)

    @pytest.mark.parametrize("region", [
        sp.HalfPlaneLeft(), sp.Disk(0.5, 2.0), sp.SectorRight(0.6),
        sp.RealLine(), sp.Hyperbolic(),
        sp.EMIRegion([[-3.75]], [[-0.5]], [[1.0]])],
        ids=lambda r: r.name)
    def test_stack_matches_each_point(self, region, rng):
        # a (k, n) stack of spectra, as falsify screens it, with points in
        # every band: the verdict of each point is its verdict alone
        zs = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        zs[0] = [0.0, 1e-12j, 2.5, 0.5 + 2.0j, 2e-9]
        got = sp.membership(zs, region)
        assert got.shape == zs.shape
        for z, m in zip(zs.ravel(), got.ravel()):
            assert m == sp.membership(z, region)
            assert m == _membership_chain(z, region)

    @pytest.mark.parametrize("region", [
        sp.HalfPlaneLeft(), sp.HalfPlaneRight(), sp.Disk(), sp.RealLine(),
        sp.SectorRight(0.6), sp.PunctureOrigin(), sp.Hyperbolic()],
        ids=lambda r: r.name)
    def test_nan_point_is_in_the_band(self, region):
        # falsify gives a sample the solver rejects a NaN spectrum: in the
        # band, never inside, so its screen re-checks that sample
        zs = np.array([complex(np.nan, 0.0), complex(0.0, np.nan),
                       complex(np.nan, np.nan)])
        assert (sp.membership(zs, region) == BAND).all()
        assert sp.first_outside(zs, region) is not None


    @pytest.mark.parametrize("region", [
        sp.HalfPlaneLeft(), sp.Disk(),
        sp.EMIRegion([[-1.0]], [[0.0]], [[1.0]]),
        sp.LMIRegion([[0.0]], [[1.0]])], ids=lambda r: r.name)
    def test_overflowed_eigenvalue_is_named_after_a_finite_point(self,
                                                                  region):
        # an infinite point is in the band, never inside (its band is
        # infinite), also where 0 * inf is NaN (the unit disk as an EMI
        # region); first_outside names the finite point outside first.
        # An LMI region's |z|^2 term is zero, not inf * 0 = NaN, so the
        # point past 1e154 keeps its side.  The overflow is expected, so
        # nothing warns
        zs = np.array([-np.inf, 2.220446049250313e+292, np.inf,
                       complex(0.0, np.inf)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sp.membership(zs, region).tolist() == [BAND, OUTSIDE,
                                                          BAND, BAND]
            assert sp.first_outside(zs, region) == zs[1]
            assert sp.first_outside(zs[[0, 2]], region) == -np.inf


def _band(value, tol):
    # value < 0 inside, value > 0 outside, |value| <= tol boundary band
    if value < -tol:
        return INSIDE
    if value > tol:
        return OUTSIDE
    return BAND


def _membership_chain(z, region):
    """Reference: the per-region classification chain the regions replaced."""
    z = complex(z)
    tol = sp.default_tol(z)
    if isinstance(region, sp.HalfPlaneLeft):
        return _band(z.real, tol)
    if isinstance(region, sp.HalfPlaneRight):
        return _band(-z.real, tol)
    if isinstance(region, sp.Disk):
        return _band(abs(z - region.center) - region.radius, tol)
    if isinstance(region, (sp.SectorRight, sp.ComplementSector)):
        # the distance to the nearer boundary ray, at the angle gap
        # |arg z| - theta from it: |z| sin(gap) off the ray's side, |z| to
        # the vertex once the gap passes pi/2
        gap = abs(np.angle(z)) - region.theta
        d = abs(z) * np.sin(gap) if gap <= np.pi / 2 else abs(z)
        return _band(d if isinstance(region, sp.SectorRight) else -d, tol)
    if isinstance(region, sp.RealLine):
        return INSIDE if abs(z.imag) <= tol else OUTSIDE
    if isinstance(region, sp.PositiveRealAxis):
        if abs(z.imag) > tol:
            return OUTSIDE
        return _band(-z.real, tol)
    if isinstance(region, sp.NegativeRealAxis):
        if abs(z.imag) > tol:
            return OUTSIDE
        return _band(z.real, tol)
    if isinstance(region, sp.Hyperbolic):
        return INSIDE if abs(z.real) > tol else BAND
    if isinstance(region, sp.PunctureOrigin):
        return INSIDE if abs(z) > tol else BAND
    lam = np.linalg.eigvalsh(region.characteristic(z))[-1]
    return _band(float(lam), tol)


# the strip -2 < Re z < -0.5 as an LMI
_STRIP = sp.LMIRegion(np.diag([-4.0, 1.0]), np.diag([-1.0, 1.0]))

# every region kind with a map from a real parameter onto its boundary
REGIONS = [
    (sp.HalfPlaneLeft(), lambda t: 1j * t),
    (sp.HalfPlaneRight(), lambda t: 1j * t),
    (sp.Disk(0.5, 2.0), lambda t: 0.5 + 2.0 * np.exp(1j * t)),
    (sp.SectorRight(0.6), lambda t: t * np.exp(0.6j)),
    (sp.ComplementSector(0.6), lambda t: t * np.exp(-0.6j)),
    (sp.RealLine(), lambda t: t),
    (sp.PositiveRealAxis(), lambda t: t),
    (sp.NegativeRealAxis(), lambda t: t),
    (sp.Hyperbolic(), lambda t: 1j * t),
    (sp.PunctureOrigin(), lambda t: 0.0),
    (_STRIP, lambda t: (-2.0 if t < 0 else -0.5) + 1j * t),
    (sp.EMIRegion([[-3.75]], [[-0.5]], [[1.0]]),  # the disk above
     lambda t: 0.5 + 2.0 * np.exp(1j * t)),
]
REGION_IDS = [r.name for r, _ in REGIONS]

# zero, a small coordinate of any scale from 1e-12 to 1e-6 (the band is
# about 1e-8), or an ordinary one
_COORD = st.one_of(st.just(0.0), st.just(-0.0),
                   st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
                             st.integers(-12, -6)),
                   st.floats(-5.0, 5.0))


@st.composite
def points(draw, edge):
    """A point near the boundary, near the origin, on an axis or anywhere."""
    kind = draw(st.sampled_from(["edge", "origin", "plane"]))
    if kind == "origin":  # any angle, a radius from 1e-12 to 1e-6
        return complex(10.0 ** draw(st.floats(-12.0, -6.0))
                       * np.exp(1j * draw(st.floats(-4.0, 4.0))))
    base = complex(edge(draw(st.floats(-5.0, 5.0)))) if kind == "edge" else 0j
    return base + complex(draw(_COORD), draw(_COORD))


class TestRegionGeometry:
    @pytest.mark.parametrize("region, edge", REGIONS, ids=REGION_IDS)
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_membership_matches_reference_chain(self, region, edge, data):
        z = data.draw(points(edge))
        assert sp.membership(z, region) == _membership_chain(z, region)

    @pytest.mark.parametrize("region, edge", REGIONS, ids=REGION_IDS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_outside_is_first_rejection(self, region, edge, data):
        zs = data.draw(st.lists(points(edge), max_size=6))
        expect = next((z for z in zs
                       if _membership_chain(z, region) != INSIDE), None)
        got = sp.first_outside(zs, region)
        assert got == expect
        assert got is None or type(got) is complex

    @pytest.mark.parametrize("region", [
        sp.HalfPlaneLeft(), sp.HalfPlaneRight(), sp.Disk(0.5, 2.0),
        sp.SectorRight(0.6), _STRIP],
        ids=["half-plane", "half-plane-right", "disk", "sector", "lmi-strip"])
    @given(x=st.floats(-6.0, 6.0), y=st.floats(-6.0, 6.0))
    @settings(max_examples=200, deadline=None)
    def test_emi_form_classifies_like_region(self, region, x, y):
        z = np.asarray(complex(x, y))
        form = sp.EMIRegion(*region.emi)
        tol = sp.default_tol(z)
        if min(abs(region.distance(z, tol)), abs(form.distance(z, tol))) \
                <= 1e-6:
            return  # inside the boundary band the two scales differ
        assert sp.membership(z, form) == sp.membership(z, region)

    def test_bounded_and_emi_pinned(self):
        bounded = {"disk": True, "emi": True}  # this EMI region is a disk
        with_emi = {"half-plane-left", "half-plane-right", "disk",
                    "sector-right", "lmi", "emi"}
        conic = {"half-plane-left", "half-plane-right", "sector-right"}
        for region, _ in REGIONS:
            assert region.bounded is bounded.get(region.name, False), region
            assert (region.emi is not None) is (region.name in with_emi)
            assert region.conic is (region.name in conic), region
        assert sp.LMIRegion([[0.0]], [[1.0]]).conic is True
        assert sp.EMIRegion([[0.0]], [[1.0]], [[1e-300]]).conic is False
        assert sp.EMIRegion([[-1.0]], [[0.0]], [[1.0]]).bounded is True
        assert sp.EMIRegion([[-1.0]], [[1.0]], [[0.0]]).bounded is False
        assert sp.EMIRegion(-np.eye(2), np.zeros((2, 2)),
                            np.diag([1.0, -1.0])).bounded is False

    def test_unknown_region_raises(self):
        with pytest.raises(TypeError):
            sp.membership(1.0, sp.Region())


class TestRegionStable:
    def test_stable_diag(self):
        v = sp.region_stable(np.diag([-1.0, -2.0]), sp.HalfPlaneLeft())
        assert v.proved

    def test_schur_diag(self):
        v = sp.region_stable(np.diag([0.5, -0.5]), sp.Disk(0.0, 1.0))
        assert v.proved

    def test_two_by_two_root_formula(self):
        # trace -1, det 2: roots (-1 +- i sqrt(7))/2, both in the left plane
        a = np.array([[1.0, -4.0], [1.0, -2.0]])
        roots = np.roots([1.0, 1.0, 2.0])
        assert roots.real.max() < 0
        assert sp.region_stable(a, sp.HalfPlaneLeft()).proved

    def test_refuted_carries_witness(self):
        v = sp.region_stable(np.diag([1.0, -1.0]), sp.HalfPlaneLeft())
        assert v.refuted
        assert np.isclose(v.witness["eigenvalue"].real, 1.0)

    def test_lmi_emi_encodings_agree_with_direct(self, rng):
        lmi_half = sp.LMIRegion([[0.0]], [[1.0]])
        emi_disk = sp.EMIRegion([[-1.0]], [[0.0]], [[1.0]])
        pairs = 0
        for _ in range(500):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            for direct, encoded in ((sp.HalfPlaneLeft(), lmi_half),
                                    (sp.Disk(0.0, 1.0), emi_disk)):
                v1 = sp.region_stable(a, direct)
                v2 = sp.region_stable(a, encoded)
                pairs += 1
                assert v1.status == v2.status
        assert pairs == 1000


class TestGershgorin:
    def test_symmetric_example(self):
        disks, v = sp.gershgorin([[-3.0, 1.0], [1.0, -3.0]])
        assert disks == [(-3.0, 1.0), (-3.0, 1.0)]
        assert v.proved

    def test_diagonal_zero_radii(self):
        disks, v = sp.gershgorin(np.diag([-1.0, -2.0]))
        assert disks == [(-1.0, 0.0), (-2.0, 0.0)]
        assert v.proved

    def test_eigenvalues_in_disk_union(self, rng):
        for _ in range(200):
            a = rng.normal(size=(5, 5))
            disks, _ = sp.gershgorin(a)
            for z in sp.eigenvalues(a):
                assert any(abs(z - c) <= r + 1e-9 for c, r in disks)


class TestSimulateDecay:
    def test_pure_decay(self):
        ratio = sp.simulate_decay(-np.eye(3), 20.0, 0.01)
        assert ratio <= math.exp(-20.0) + 1e-9

    def test_zero_matrix(self):
        assert np.isclose(sp.simulate_decay(np.zeros((2, 2)), 5.0, 0.01), 1.0)

    def test_stable_matrix_bound(self, rng):
        for _ in range(5):
            a = random_hurwitz(rng, 4, margin_lo=0.5, margin_hi=1.0)
            ratio = sp.simulate_decay(a, 40.0, 0.005)
            assert ratio < 1e-6

    def test_divergence_reported_as_inf(self):
        assert sp.simulate_decay(5.0 * np.eye(2), 200.0, 0.1) == math.inf

    def test_decay_links_spectral_verdict(self, rng):
        a = random_hurwitz(rng, 3)
        assert sp.region_stable(a, sp.HalfPlaneLeft()).proved
        t = sp.decay_horizon(a, target=1e-3)
        assert sp.simulate_decay(a, t, 0.005) < 1.0


class TestVerdict:
    def test_refutation_needs_a_witness(self):
        with pytest.raises(ValueError, match="witness"):
            sp.Verdict(sp.Status.REFUTED, "eigenvalue-outside-region")

    def test_proof_needs_a_reason(self):
        with pytest.raises(ValueError, match="reason"):
            sp.Verdict(sp.Status.PROVED, "")

    def test_status_properties(self):
        proved = sp.Verdict(sp.Status.PROVED, "all-eigenvalues-inside")
        refuted = sp.Verdict(sp.Status.REFUTED, "r", witness={"z": 1.0})
        unknown = sp.Verdict(sp.Status.UNKNOWN, "")
        assert (proved.proved, proved.refuted) == (True, False)
        assert (refuted.proved, refuted.refuted) == (False, True)
        assert (unknown.proved, unknown.refuted) == (False, False)


class TestRegionValidation:
    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_disk_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="radius"):
            sp.Disk(0.0, radius)

    @pytest.mark.parametrize("cls", [sp.SectorRight, sp.ComplementSector])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    def test_sector_angle_must_lie_strictly_inside(self, cls, theta):
        with pytest.raises(ValueError, match="angle"):
            cls(theta)

    def test_lmi_data_validated(self):
        with pytest.raises(ValueError, match="symmetric"):
            sp.LMIRegion([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
        with pytest.raises(ValueError, match="square"):
            sp.LMIRegion([[0.0, 1.0]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="equal shape"):
            sp.LMIRegion([[0.0]], np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            sp.LMIRegion([[np.inf]], [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            sp.LMIRegion([[0.0]], [[np.nan]])

    def test_emi_data_validated(self):
        with pytest.raises(ValueError, match="symmetric"):
            sp.EMIRegion([[-1.0]], [[0.0]], [[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="equal shape"):
            sp.EMIRegion([[-1.0]], [[0.0]], np.eye(2))
        with pytest.raises(ValueError, match="equal shape"):
            sp.EMIRegion([[-1.0]], np.zeros((2, 2)), [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            sp.EMIRegion([[-1.0]], [[np.inf]], [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            sp.EMIRegion([[-1.0]], [[0.0]], [[np.nan]])


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert sp.spectral_abscissa(np.diag([-3.0, 0.5, -1.0])) == 0.5

    def test_rotation_has_zero_abscissa(self):
        assert abs(sp.spectral_abscissa([[0.0, -2.0], [2.0, 0.0]])) < 1e-12

    def test_against_charpoly_root_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            expect = charpoly_roots(a).real.max()
            assert np.isclose(sp.spectral_abscissa(a), expect, atol=1e-7)


class TestDecayHorizon:
    @pytest.mark.parametrize("a", [[[0.0]], [[1.0]], [[-1.0, 0.0], [0.0, 0.0]]],
                             ids=["zero", "positive", "marginal"])
    def test_requires_hurwitz_matrix(self, a):
        with pytest.raises(ValueError, match="Hurwitz"):
            sp.decay_horizon(a)

    def test_normal_matrix_has_unit_condition(self):
        # V orthogonal, so T solves exp(-T) = target exactly
        t = sp.decay_horizon(-np.eye(3), target=1e-8)
        assert np.isclose(t, 8.0 * math.log(10.0))

    def test_clamped_to_its_bounds(self):
        assert sp.decay_horizon(-1e6 * np.eye(2)) == 1.0
        assert sp.decay_horizon(-1e-9 * np.eye(2)) == 1e4

    def test_trajectories_decay_to_target(self, rng):
        for _ in range(3):
            a = random_hurwitz(rng, 3, margin_lo=0.5, margin_hi=1.0)
            t = sp.decay_horizon(a, target=1e-4)
            assert sp.simulate_decay(a, t, 0.01) < 1e-4


class TestSimulateDecayArguments:
    @pytest.mark.parametrize("horizon, step, message", [
        (1.0, 0.0, "step must be positive"),
        (1.0, -0.1, "step must be positive"),
        (0.05, 0.1, "at least one step"),
    ])
    def test_rejected(self, horizon, step, message):
        with pytest.raises(ValueError, match=message):
            sp.simulate_decay(-np.eye(2), horizon, step)
