"""matstab: stability-region membership, robust D-stability criteria and
Lyapunov-type certificates for dense real matrices."""

from .spectra import (Disk, EMIRegion, HalfPlaneLeft, HalfPlaneRight,
                      Hyperbolic, LMIRegion, NegativeRealAxis,
                      PositiveRealAxis, PunctureOrigin, RealLine, Region,
                      SectorRight, ComplementSector, Status, Verdict,
                      eigenvalues, gershgorin, membership, region_stable,
                      simulate_decay)
from .lyapunov import (Certificate, DiagonalSearch, solve_lyapunov,
                       verify_certificate)
from .dstability import falsify, necessary_p0plus, sufficient_suite

__version__ = "0.1.0"
