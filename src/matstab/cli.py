"""Command-line front end: ingestion, orchestration and reports.

A request is its matrix, region, class, operation, budgets and seed.
The region names the stability type, so a positive-stability question is
asked as its Hurwitz twin: the matrix negated and, for ``add``, the class
mirrored (positive and negative diagonals swap, a sign pattern flips; the
norm-bounded and vertex classes are their own mirror).  Every check,
witness and certificate of a report is of the matrix the report names.
All randomness derives from the single request seed; identical requests
with the same seed produce byte-identical JSON reports, so the JSON
format carries no timings (the text format does).

The pipeline is one table, :data:`CHECKS`.  Each row names a check and
its reference, whether it applies to the request (a premise on the
region, the operation and the class's facts or value, such as the
transfer lemmas of ``_Context.transfers`` or the D-stability mode of
``_Context.perturbation``) and how to run it.
:func:`run` walks the table in order; it alone times the checks, builds
their records and keeps the summary.  A check that raises is recorded
under its own id as ``check-error``, and the rest still run.  Work that
several checks read is done once per request and cached on the
request's :class:`_Context`.
Every row hands the library the request's matrix A itself, and each
criterion states its claim about the matrix it is given.  The
principal minors are computed once, of ``-A``: every ``minors``
argument of the library is that table.

The rows run cheapest sound check first.  ``sufficient-suite`` comes
before the minor-sign necessity: its exact items (the single-circuit gain
test among them) cost O(n^3) and read no principal minor, and its
diagonal-stability item is the first SEARCH_PREFIX steps of the request's
diagonal search, the one ``lyapunov.DiagonalSearch`` of A on the
request's region in the ``--budget`` (the suite runs on the half-plane
only).  If those end Unknown with budget left, ``diagonal-certificate``
resumes the same search to its budget; on any other region it runs that
one search from the start (sign-free on the hyperbolic region).  Both run
only where a transfer lemma carries a certificate of A to the whole
class.  A request thus runs one search, no step twice.
The 2^n minor table is built only when ``necessary-p0plus`` or
``interval-box`` reaches it, and both read its P0 test,
``matrix_core.first_negative_minor``.  Every row can decide the request.

On D-stability proper, ``submatrix-descent`` lifts an unstable
principal submatrix A[S] to a diagonal D with D o A outside the
half-plane, so that its witness, like those of ``falsify``, replays on A
itself.  It runs at any n, before ``falsify`` samples the class.

The summary is the first deciding check that is not Unknown.  Once it is
Proved or Refuted, :func:`run` skips the rest of the table: no later
check can change it, so each that applies to the request goes into
``summary.skipped`` without a record.  The suite row stops the same
way inside itself: at its first Proved item, with the items not run
under its record's ``data["skipped"]``.  ``--exhaustive`` runs every
check and every suite item; a deciding check that disagrees with the
summary is listed in ``summary.conflicts``.

Exit codes: 0 proved-or-unknown, 2 refuted, 3 a deciding check conflicts
with the summary, 1 usage or I/O error.
"""

import argparse
import collections
import dataclasses
import json
import math
import os
import sys
import time
from functools import cached_property

import numpy as np

from . import dstability as ds
from . import lyapunov, matrix_core, polynomials
from .matrix_core import MINOR_ENUM_CAP, as_matrix
from .spectra import (ComplementSector, Disk, EigenSolverError, EMIRegion,
                      HalfPlaneLeft, HalfPlaneRight, Hyperbolic, LMIRegion,
                      NegativeRealAxis, PositiveRealAxis, PunctureOrigin,
                      RealLine, Region, SectorRight, Status, Verdict,
                      eigenvalues, membership, region_stable)

SCHEMA = "matstab-report/19"

CHECK_ERROR = "check-error: "

# steps of the request's diagonal search that sufficient-suite runs;
# diagonal-certificate resumes the same search up to --budget
SEARCH_PREFIX = 64


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def parse_matrix(text):
    """Matrix from JSON {"n": .., "rows": [[..]]} or CSV rows."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"matrix JSON parse error: {exc}") from exc
        if not isinstance(obj, dict) or "rows" not in obj:
            raise UsageError('matrix JSON needs an object with "rows"')
        rows = obj["rows"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise UsageError('matrix JSON "rows" must be a list of lists')
        n = obj.get("n", len(rows))
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise UsageError(
                f'matrix JSON "n" must be a non-negative integer, got {n!r}')
        if len(rows) != n:
            raise UsageError(f"expected {n} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise UsageError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not _is_number(v):
                    raise UsageError(f"entry ({i},{j}) is not a number")
        try:
            m = np.asarray(rows, dtype=float)
        except OverflowError as exc:
            raise UsageError(f"matrix JSON: {exc}") from exc
    else:
        rows = []
        for i, line in enumerate(stripped.splitlines()):
            line = line.strip()
            if not line:
                continue
            cells = [c for c in line.split(",")]
            try:
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                bad = next(j for j, c in enumerate(cells)
                           if not _is_float(c))
                raise UsageError(
                    f"CSV parse error at row {i}, column {bad}: {cells[bad]!r}"
                ) from exc
        if not rows:
            raise UsageError("empty matrix input")
        width = len(rows[0])
        for i, row in enumerate(rows):
            if len(row) != width:
                raise UsageError(f"row {i} has length {len(row)}, expected {width}")
        if len(rows) != width:
            raise UsageError(f"matrix is {len(rows)}x{width}, expected square")
        m = np.asarray(rows, dtype=float)
    try:
        return as_matrix(m)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _is_number(v):
    """A JSON entry of a matrix: an int or a float, never a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def load_matrix(source):
    if source == "-":
        return parse_matrix(sys.stdin.read())
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    # inline text (JSON object or CSV with ; as the row separator)
    return parse_matrix(source.replace(";", "\n"))


def _json_arg(text):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _json_matrices(name, arg, keys):
    """The matrices under ``keys`` of an LMI or EMI region's JSON object."""
    obj = _json_arg(arg)
    if not isinstance(obj, dict) or not all(k in obj for k in keys):
        raise UsageError(f"{name} region needs a JSON object with keys "
                         + ", ".join(keys))
    try:
        blocks = [np.asarray(obj[k], float) for k in keys]
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{name} region: {exc}") from exc
    for k in keys:
        # the block is rectangular now: each object entry is a JSON scalar
        for v in np.asarray(obj[k], object).flat:
            if not _is_number(v):
                raise UsageError(f"{name} region: an entry of {k},"
                                 f" {json.dumps(v)}, is not a number")
    return blocks


# regions whose spec takes no argument
_PLAIN_REGIONS = {
    "half-plane-left": HalfPlaneLeft, "half-plane-right": HalfPlaneRight,
    "real-line": RealLine, "positive-real-axis": PositiveRealAxis,
    "negative-real-axis": NegativeRealAxis, "hyperbolic": Hyperbolic,
    "puncture-origin": PunctureOrigin}


def parse_region(spec):
    name, _, arg = spec.partition(":")
    if name in _PLAIN_REGIONS:
        return _PLAIN_REGIONS[name]()
    try:
        if name == "disk":
            if not arg:
                return Disk()
            c, r = (float(x) for x in arg.split(","))
            return Disk(c, r)
        if name == "sector":
            return SectorRight(float(arg))
        if name == "complement-sector":
            return ComplementSector(float(arg))
        if name == "lmi":
            return LMIRegion(*_json_matrices(name, arg, ("l", "m")))
        if name == "emi":
            return EMIRegion(*_json_matrices(name, arg, ("r11", "r12", "r22")))
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"{name} region: {exc}") from exc
    raise UsageError(f"unknown region {spec!r}")


def _parse_partition(arg):
    return tuple(tuple(int(x) for x in chunk.split(","))
                 for chunk in arg.split("|"))


def parse_gclass(spec):
    name, _, arg = spec.partition(":")
    if name == "positive-diagonal":
        return ds.PositiveDiagonal()
    if name == "negative-diagonal":
        return ds.NegativeDiagonal()
    if name == "diagonal-norm-lt1":
        return ds.DiagonalNormLt1()
    if name == "vertex-diagonal":
        return ds.VertexDiagonal()
    if name == "spd":
        return ds.SPD()
    if name == "alpha-scalar":
        return ds.AlphaScalar(_parse_partition(arg))
    if name == "alpha-block-spd":
        return ds.AlphaBlockSPD(_parse_partition(arg))
    if name == "ordered-diagonal":
        return ds.OrderedDiagonal(tuple(int(x) for x in arg.split(",")))
    if name == "interval-diagonal":
        lo, hi = [], []
        for chunk in arg.split(","):
            a, b = chunk.split("/")
            lo.append(float(a))
            hi.append(float("inf") if b in ("inf", "") else float(b))
        return ds.IntervalDiagonal(tuple(lo), tuple(hi))
    if name == "sign-pattern":
        if not set(arg) <= {"+", "-"}:
            raise UsageError(f"sign pattern {arg!r} may hold only + and -")
        return ds.SignPatternDiagonal(
            tuple(1 if c == "+" else -1 for c in arg))
    if name == "rank-positive":
        return ds.EntrywisePositiveRank(int(arg))
    raise UsageError(f"unknown class {spec!r}")


def parse_op(spec):
    name, _, arg = spec.partition(":")
    if name == "multiply":
        return ds.Multiply()
    if name == "add":
        return ds.Add()
    if name == "hadamard":
        return ds.HadamardProduct()
    if name == "block-hadamard":
        return ds.BlockHadamardProduct(int(arg))
    raise UsageError(f"unknown op {spec!r}")


# ---------------------------------------------------------------------------
# Request / report
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class AnalysisRequest:
    """One request.  ``region``, ``gclass`` and ``op`` are parsed from the
    spec strings, which the report names, so the two cannot disagree."""

    matrix: np.ndarray
    region: object = dataclasses.field(init=False)
    gclass: object = dataclasses.field(init=False)
    op: object = dataclasses.field(init=False)
    exhaustive: bool = False
    samples: int = 10000
    budget: int = 5000
    seed: int = 0
    region_spec: str = "half-plane-left"
    class_spec: str = "positive-diagonal"
    op_spec: str = "multiply"

    def __post_init__(self):
        if self.samples <= 0 or self.budget <= 0:
            raise UsageError("budgets must be positive")
        if self.seed < 0:
            raise UsageError("the seed must be non-negative")
        self.region = parse_region(self.region_spec)
        self.gclass = parse_gclass(self.class_spec)
        self.op = parse_op(self.op_spec)
        n = self.matrix.shape[0]
        try:
            # the size checks of the class's sampler and of the operation,
            # which falsify would otherwise meet first
            self.gclass.check_size(n)
            self.op.apply(np.eye(n), self.matrix)
        except ValueError as exc:
            raise UsageError(f"the class or operation does not fit a "
                             f"{n}x{n} matrix: {exc}") from exc


@dataclasses.dataclass
class CheckRecord:
    check: str
    reference: str
    verdict: Verdict
    decides: bool
    wall_ms: float = 0.0
    data: dict = None


@dataclasses.dataclass
class Report:
    request: AnalysisRequest
    checks: list
    summary_status: Status
    summary_reason: str
    skipped: list = dataclasses.field(default_factory=list)

    @property
    def conflicts(self):
        """The deciding records whose verdict disagrees with the summary."""
        return [c for c in self.checks
                if c.decides and c.verdict.status is not Status.UNKNOWN
                and c.verdict.status is not self.summary_status]

    @property
    def errors(self):
        """The number of ``check-error`` records."""
        return sum(c.verdict.reason.startswith(CHECK_ERROR)
                   for c in self.checks)


def _json_float(x):
    """A float as RFC 8259 JSON, which has no non-finite numbers.

    Infinities and NaN become the strings ``"Infinity"``,
    ``"-Infinity"`` and ``"NaN"``.
    """
    x = float(x)
    if math.isfinite(x):
        return x
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def to_jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    # before the np.generic branch: .item() of an extended-precision
    # scalar returns the scalar itself
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _json_float(obj.real), "im": _json_float(obj.imag)}
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj) or (obj.dtype.kind == "f"
                                    and not np.isfinite(obj).all()):
            return [to_jsonable(v) for v in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, Region):
        return obj.name
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return repr(obj)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

class _Context:
    """One request as the checks see it, the records made so far, and the
    work that several checks share, each done at most once.

    Every shared result is computed on first use.  A computation that
    raises is not cached, so it raises again in every check that asks
    for it.
    """

    def __init__(self, request):
        self.request = request
        self.n = request.matrix.shape[0]
        self.half_plane = request.region == HalfPlaneLeft()
        self.checks = []

    def proved(self, check):
        """Whether a record of ``check`` so far is Proved."""
        return any(c.check == check and c.verdict.proved for c in self.checks)

    @cached_property
    def identity_in_class(self):
        """Whether the identity element of the operation is in the class."""
        try:
            return bool(self.request.gclass.contains(
                self.request.op.identity(self.n)))
        except Exception:
            return False

    @cached_property
    def transfers(self):
        """Whether a diagonal certificate P of A on the request's region
        certifies G o A for every member G of the class.  Each lemma
        reads the class facts first, since ``conic`` builds the form:

        - L1, a conic region, ``multiply``, sign +1: P G^-1 certifies
          G A (Cross, LAA 20, 1978).
        - The half-plane, ``add``, sign -1: P (A + G) + (A + G)^T P
          = W + 2 P G is negative definite with W.
        - L2, a radial region (R12 = 0, R22 >= 0), ``multiply``, bound
          <= 1: G P G <= P, so W(P; G A) = R11 (x) P + R22 (x) A^T G P G A
          <= W(P; A).
        - L3, the hyperbolic region, ``multiply``, nonsingular members:
          the sign-free H G^-1 certifies G A.
        """
        r = self.request
        g, region, op = r.gclass, r.region, r.op.name
        if op == "add":
            return g.sign < 0 and self.half_plane
        return op == "multiply" and (
            (g.sign > 0 and region.conic)
            or (g.bound <= 1 and region.radial)
            or (g.nonsingular and isinstance(region, Hyperbolic)))

    @cached_property
    def perturbation(self):
        """The mode of D-stability proper, or None: on the half-plane, a
        class of every positive diagonal (``orthant`` +1) under
        ``multiply``, or of every negative one (-1) under ``add``."""
        if not self.half_plane:
            return None
        r = self.request
        return {(1, "multiply"): "multiplicative",
                (-1, "add"): "additive"}.get((r.gclass.orthant, r.op.name))

    @cached_property
    def spectrum(self):
        """``eigenvalues(A)``."""
        return eigenvalues(self.request.matrix)

    @cached_property
    def escapes(self):
        """Whether A has an eigenvalue strictly outside the region (False
        when the eigen-solve fails).  Every sufficient-suite item, and any
        diagonal certificate, puts A's own spectrum strictly inside the
        region (D = I), so neither can prove such a request."""
        try:
            return bool((membership(self.spectrum, self.request.region)
                         > 0).any())
        except EigenSolverError:
            return False

    @cached_property
    def minors(self):
        """``principal_minors(-A)``; None past the enumeration cap."""
        if self.n > MINOR_ENUM_CAP:
            return None
        return matrix_core.principal_minors(-self.request.matrix)

    @cached_property
    def search(self):
        """The diagonal search of A on the request's region, in the
        request's budget: positive diagonals on a region with an EMI form,
        sign-free diagonals on the hyperbolic region.  One search per
        request: each ``run`` resumes it where the last one paused, so no
        step runs twice, and a search that stopped keeps its verdict."""
        r = self.request
        return lyapunov.DiagonalSearch(r.matrix, r.region, r.budget)


# Each check below takes the request context and returns
# ``(verdict, decides, data)``, or None to leave no record.  Library
# functions are looked up when a check runs, never stored in the table,
# so that rebinding a module attribute (a tracer, a test) reaches them,
# as ``special_forms.single_circuit_criterion`` in the sufficient suite.

def _self_stability(ctx):
    spectrum = ctx.spectrum
    verdict = region_stable(ctx.request.matrix, ctx.request.region,
                            spectrum=spectrum)
    return (verdict, verdict.refuted and ctx.identity_in_class,
            {"eigenvalues": spectrum})


def _necessary(ctx):
    verdict = ds.necessary_p0plus(ctx.request.matrix, ctx.perturbation,
                                  minors=ctx.minors)
    return verdict, verdict.refuted, None


def _interval_box(ctx):
    # the diagonal box reduces to a four-polynomial test when -A is P0
    # (sufficient only)
    g = ctx.request.gclass
    try:
        verdict = polynomials.kosov_interval_dstability(
            ctx.request.matrix, np.asarray(g.d_min), np.asarray(g.d_max),
            minors=ctx.minors)
    except ValueError as exc:
        return Verdict(Status.UNKNOWN, f"premise-fails: {exc}"), False, None
    return verdict, verdict.proved, None


def _vertex_enumeration(ctx):
    r = ctx.request
    return (*ds.vertex_schur_check(r.matrix, r.gclass), None)


def _symmetric_part(ctx):
    r = ctx.request
    a = r.matrix
    ok, _ = lyapunov.is_negative_definite(a + a.T)
    if ok:
        return (Verdict(Status.PROVED, "symmetric-part-negative-definite"),
                True, None)
    # the rank-one witness answers H-stability only: (v v^T) o A is
    # D_v A D_v, another question
    witness = (ds.rank_one_witness(a, r.gclass, r.op, r.region)
               if r.op.name == "multiply" else None)
    if witness is not None:
        return (Verdict(Status.REFUTED, "rank-one-counterexample",
                        witness=witness), True, None)
    return (Verdict(Status.UNKNOWN, "symmetric-part-not-negative-definite"),
            False, None)


def _sufficient_suite(ctx):
    r = ctx.request
    verdict, items, skipped = ds.sufficient_suite(
        r.matrix, ctx.search.run(SEARCH_PREFIX), r.exhaustive)
    return verdict, verdict.proved, {"items": items, "skipped": skipped}


def _diagonal_certificate(ctx):
    r = ctx.request
    verdict = ctx.search.run()
    data = None
    if verdict.proved:
        data = {"re-verified-margin":
                lyapunov.verify_certificate(r.matrix, verdict.witness)}
    return verdict, verdict.proved, data


def _falsify(ctx):
    r = ctx.request
    verdict = ds.falsify(r.matrix, r.gclass, r.op, r.region,
                         samples=r.samples, seed=r.seed)
    return verdict, True, None


def _submatrix_descent(ctx):
    verdict = ds.submatrix_descent(ctx.request.matrix, ctx.perturbation)
    return verdict, verdict.refuted, None


Check = collections.namedtuple("Check", "id reference applies run")

# The pipeline in report order, cheapest sound check first.  ``applies``
# says whether the check has something to say about the request (None:
# always).  No row before necessary-p0plus reads a principal minor.
CHECKS = (
    Check("self-stability", "direct spectral membership", None,
          _self_stability),
    Check("sufficient-suite", "classical sufficient stability classes",
          lambda c: c.half_plane and c.transfers and not c.escapes,
          _sufficient_suite),
    Check("necessary-p0plus", "minor-sign necessity",
          lambda c: c.perturbation and c.n <= MINOR_ENUM_CAP,
          _necessary),
    Check("interval-box", "interval-to-polynomial-box reduction",
          lambda c: (c.half_plane and c.request.op.name == "multiply"
                     and c.request.gclass.name == "interval-diagonal"
                     and c.request.gclass.bound < math.inf),
          _interval_box),
    Check("vertex-enumeration", "sign-vertex spectral radii",
          lambda c: (c.request.region == Disk()
                     and c.request.op.name == "multiply"
                     and c.request.gclass in (ds.VertexDiagonal(),
                                              ds.DiagonalNormLt1())
                     and c.n <= ds.VERTEX_ENUM_CAP),
          _vertex_enumeration),
    Check("symmetric-part", "definiteness of the symmetric part",
          lambda c: (c.half_plane and c.request.gclass == ds.SPD()
                     and c.request.op.name in ("multiply", "hadamard")),
          _symmetric_part),
    # it runs only where a lemma carries its certificate to the class
    Check("diagonal-certificate", "diagonal Lyapunov-type search",
          lambda c: (c.transfers and not c.escapes
                     and not (c.half_plane and c.proved("sufficient-suite"))),
          _diagonal_certificate),
    # no cap in n: at most n (n + 1) / 2 - 1 submatrix eigen-solves
    Check("submatrix-descent", "unstable principal submatrix descent",
          lambda c: c.perturbation, _submatrix_descent),
    Check("falsify", "randomized class sampling", None, _falsify),
)


# a float-range input reaches inf and NaN: values, not errors (-W error too)
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run(request):
    """Execute the analysis pipeline and assemble the report.

    Runs each row of :data:`CHECKS` that applies.  The summary is the
    verdict of the first deciding check that is not Unknown.  Once it is
    decided, the later rows are skipped, and each that applies is listed
    in ``Report.skipped``; the suite row likewise stops at its first
    Proved item.  An exhaustive request runs them all.  Checks
    share work through the per-request :class:`_Context`: the spectrum
    of A, one principal-minor sweep of -A and one diagonal search on
    the request's region, which
    ``sufficient-suite`` runs for SEARCH_PREFIX steps and
    ``diagonal-certificate`` resumes.
    """
    ctx = _Context(request)
    status, decided_by = Status.UNKNOWN, "no-deciding-check"
    skipped = []
    for check in CHECKS:
        decided = status is not Status.UNKNOWN and not request.exhaustive
        started = time.perf_counter()
        try:
            applies = check.applies is None or check.applies(ctx)
            out = check.run(ctx) if applies and not decided else None
        except Exception as exc:
            # a row whose applies raises would have recorded the error
            applies = True
            out = Verdict(Status.UNKNOWN, f"{CHECK_ERROR}{exc}"), False, None
        if decided:
            if applies:
                skipped.append(check.id)
            continue
        if out is None:
            continue
        verdict, decides, data = out
        ctx.checks.append(CheckRecord(
            check.id, check.reference, verdict, decides,
            (time.perf_counter() - started) * 1e3, data))
        if decides and status is Status.UNKNOWN \
                and verdict.status is not Status.UNKNOWN:
            status, decided_by = verdict.status, check.id
    return Report(request, ctx.checks, status, decided_by, skipped)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(report, fmt="json"):
    """Serialize a report; JSON is deterministic (no timings), text is not.

    JSON is one compact line of strict RFC 8259 JSON, through the C
    encoder; a certificate appears once, as the witness of its row.
    """
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "request": {
                "matrix": to_jsonable(report.request.matrix),
                "region": report.request.region_spec,
                "class": report.request.class_spec,
                "op": report.request.op_spec,
                "exhaustive": report.request.exhaustive,
                "samples": report.request.samples,
                "budget": report.request.budget,
                "seed": report.request.seed,
            },
            "checks": [
                {
                    "check": c.check,
                    "reference": c.reference,
                    "status": c.verdict.status.value,
                    "reason": c.verdict.reason,
                    "decides_request": c.decides,
                    "witness": to_jsonable(c.verdict.witness),
                    "seed": to_jsonable(c.verdict.seed),
                    "data": to_jsonable(c.data),
                }
                for c in report.checks
            ],
            "summary": {
                "status": report.summary_status.value,
                "decided_by": report.summary_reason,
                "skipped": list(report.skipped),
                "conflicts": [{"check": c.check,
                               "status": c.verdict.status.value}
                              for c in report.conflicts],
                "errors": report.errors,
            },
        }
        return (json.dumps(payload, separators=(",", ":"), allow_nan=False)
                + "\n").encode()
    if fmt == "text":
        lines = [f"matstab report  (seed {report.request.seed})"]
        for c in report.checks:
            mark = {"proved": "+", "refuted": "-", "unknown": "?"}[
                c.verdict.status.value]
            decide = " [decides]" if c.decides else ""
            lines.append(f"  [{mark}] {c.check} ({c.reference}): "
                         f"{c.verdict.reason}{decide} "
                         f"({c.wall_ms:.1f} ms)")
        lines.append(f"summary: {report.summary_status.value} "
                     f"via {report.summary_reason}")
        if report.skipped:
            lines.append(f"  skipped once decided: "
                         f"{', '.join(report.skipped)}")
        for c in report.conflicts:
            lines.append(f"  conflict: {c.check} is {c.verdict.status.value}")
        if report.errors:
            lines.append(f"  check errors: {report.errors}")
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A malformed flag is a usage error (exit 1), not argparse's exit 2,
    the exit code of a Refuted summary."""

    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(
        prog="matstab",
        description="Stability-region membership, class-robust stability "
                    "criteria and Lyapunov-type certificates for dense "
                    "real matrices.",
        epilog="exit codes: 0 proved or unknown, 2 refuted, 3 a deciding "
               "check conflicts with the summary (see --exhaustive), "
               "1 usage or I/O error")
    p.add_argument("matrix", help="matrix file (JSON/CSV), '-' for stdin, "
                                  "or inline JSON / ';'-separated CSV")
    p.add_argument("--region", default=AnalysisRequest.region_spec,
                   help="stability region, e.g. half-plane-left, disk:0,1, "
                        "sector:0.5, lmi:{...}, emi:@file.json")
    p.add_argument("--class", dest="gclass",
                   default=AnalysisRequest.class_spec,
                   help="perturbation class, e.g. positive-diagonal, spd, "
                        "vertex-diagonal, interval-diagonal:0.5/2,1/3")
    p.add_argument("--op", default=AnalysisRequest.op_spec,
                   help="binary operation: multiply, add, hadamard, "
                        "block-hadamard:K")
    p.add_argument("--exhaustive", action="store_true",
                   help="run every check, also after the request is "
                        "decided, and report deciding checks that "
                        "disagree with the summary as conflicts")
    p.add_argument("--samples", type=int, default=AnalysisRequest.samples,
                   help="falsification sample budget")
    p.add_argument("--budget", type=int, default=AnalysisRequest.budget,
                   help="certificate search iteration budget")
    p.add_argument("--seed", type=int, default=AnalysisRequest.seed,
                   help="RNG seed")
    p.add_argument("--format", dest="fmt", choices=("json", "text"),
                   default="text")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        matrix = load_matrix(args.matrix)
        request = AnalysisRequest(
            matrix=matrix,
            exhaustive=args.exhaustive,
            samples=args.samples,
            budget=args.budget,
            seed=args.seed,
            region_spec=args.region,
            class_spec=args.gclass,
            op_spec=args.op,
        )
        report = run(request)
    except (UsageError, OSError, ValueError) as exc:
        print(f"matstab: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(emit(report, args.fmt))
    if report.conflicts:
        return 3
    return 2 if report.summary_status is Status.REFUTED else 0


if __name__ == "__main__":
    sys.exit(main())
