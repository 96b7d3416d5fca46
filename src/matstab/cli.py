"""Command-line front end: ingestion, orchestration and reports.

The canonical analysis convention is Hurwitz: the region parameter names
the stability type in that vocabulary.  Requests in the positive-stability
convention are normalized once on ingestion (matrix negated, additive
diagonal classes sign-flipped) and the report names the convention used.
All randomness derives from the single request seed; identical requests
with the same seed produce byte-identical JSON reports, so the JSON
format carries no timings (the text format does).

Exit codes: 0 proved-or-unknown, 2 refuted, 1 usage or I/O error.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from functools import cached_property

import numpy as np

from . import dstability as ds
from . import lyapunov, matrix_core, polynomials, special_forms
from .matrix_core import MINOR_ENUM_CAP, as_matrix
from .spectra import (ComplementSector, Disk, EMIRegion, HalfPlaneLeft,
                      HalfPlaneRight, Hyperbolic, LMIRegion,
                      NegativeRealAxis, PositiveRealAxis, PunctureOrigin,
                      RealLine, SectorRight, Status, Verdict, default_tol,
                      eigenvalues, gershgorin, region_stable,
                      simulate_decay, spectral_abscissa)

SCHEMA = "matstab-report/2"

DEFAULT_MODES = ("classify", "necessary", "structural", "sufficient",
                 "certify", "falsify")
ALL_MODES = DEFAULT_MODES + ("simulate", "total-scan")


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
        n = obj.get("n", len(rows))
        if len(rows) != n:
            raise UsageError(f"expected {n} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise UsageError(f"row {i} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise UsageError(f"entry ({i},{j}) is not a number")
        m = np.asarray(rows, dtype=float)
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


def parse_region(spec):
    name, _, arg = spec.partition(":")
    if name == "half-plane-left":
        return HalfPlaneLeft()
    if name == "half-plane-right":
        return HalfPlaneRight()
    if name == "disk":
        if not arg:
            return Disk()
        c, r = (float(x) for x in arg.split(","))
        return Disk(c, r)
    if name == "sector":
        return SectorRight(float(arg))
    if name == "complement-sector":
        return ComplementSector(float(arg))
    if name == "real-line":
        return RealLine()
    if name == "positive-real-axis":
        return PositiveRealAxis()
    if name == "negative-real-axis":
        return NegativeRealAxis()
    if name == "hyperbolic":
        return Hyperbolic()
    if name == "puncture-origin":
        return PunctureOrigin()
    if name == "lmi":
        obj = _json_arg(arg)
        return LMIRegion(np.asarray(obj["l"], float), np.asarray(obj["m"], float))
    if name == "emi":
        obj = _json_arg(arg)
        return EMIRegion(np.asarray(obj["r11"], float),
                         np.asarray(obj["r12"], float),
                         np.asarray(obj["r22"], float))
    raise UsageError(f"unknown region {spec!r}")


def _parse_partition(arg):
    blocks = []
    for chunk in arg.split("|"):
        blocks.append(tuple(int(x) for x in chunk.split(",")))
    return tuple(blocks)


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


def mirror_gclass_for_add(gclass):
    if isinstance(gclass, ds.PositiveDiagonal):
        return ds.NegativeDiagonal(gclass.low, gclass.high)
    if isinstance(gclass, ds.NegativeDiagonal):
        return ds.PositiveDiagonal(gclass.low, gclass.high)
    if isinstance(gclass, (ds.DiagonalNormLt1, ds.VertexDiagonal)):
        return gclass
    if isinstance(gclass, ds.SignPatternDiagonal):
        return ds.SignPatternDiagonal(tuple(-s for s in gclass.signs))
    raise UsageError(
        "the positive-stability convention cannot mirror this additive class")


# ---------------------------------------------------------------------------
# Request / report
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class AnalysisRequest:
    matrix: np.ndarray
    region: object = None
    gclass: object = None
    op: object = None
    modes: tuple = DEFAULT_MODES
    samples: int = 10000
    budget: int = 5000
    seed: int = 0
    convention: str = "hurwitz"
    simulate_horizon: float = None
    region_spec: str = "half-plane-left"
    class_spec: str = "positive-diagonal"
    op_spec: str = "multiply"

    def __post_init__(self):
        if self.samples <= 0 or self.budget <= 0:
            raise UsageError("budgets must be positive")
        if self.region is None:
            self.region = parse_region(self.region_spec)
        if self.gclass is None:
            self.gclass = parse_gclass(self.class_spec)
        if self.op is None:
            self.op = parse_op(self.op_spec)
        if self.convention not in ("hurwitz", "positive"):
            raise UsageError("convention must be hurwitz or positive")
        for m in self.modes:
            if m not in ALL_MODES:
                raise UsageError(f"unknown mode {m!r}")


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
    convention_note: str


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
    if isinstance(obj, (float, np.floating)):
        return _json_float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": _json_float(obj.real), "im": _json_float(obj.imag)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj) or (obj.dtype.kind == "f"
                                    and not np.isfinite(obj).all()):
            return [to_jsonable(v) for v in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, Status):
        return obj.value
    if isinstance(obj, Verdict):
        return {"status": obj.status.value, "reason": obj.reason,
                "witness": to_jsonable(obj.witness),
                "seed": to_jsonable(obj.seed)}
    if isinstance(obj, lyapunov.Certificate):
        return {"kind": obj.kind, "factor": to_jsonable(obj.factor),
                "margin": to_jsonable(obj.margin), "region": obj.region.name,
                "iterations": obj.iterations}
    if isinstance(obj, ds.FalsificationWitness):
        return {"g": to_jsonable(obj.g), "realized": to_jsonable(obj.realized),
                "eigenvalue": to_jsonable(obj.eigenvalue),
                "sample_index": obj.sample_index,
                "seed": to_jsonable(obj.seed), "note": obj.note}
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

def _identity_in_class(gclass, op, n):
    """Whether the operation identity element belongs to the class."""
    if isinstance(op, (ds.Multiply, ds.BlockHadamardProduct)):
        probe = np.eye(n)
    elif isinstance(op, ds.HadamardProduct):
        probe = np.ones((n, n))
    else:
        probe = np.zeros((n, n))
    try:
        return bool(gclass.contains(probe))
    except Exception:
        return False


def _canonical_triple(request):
    """Names for the combos with exact proving/necessity wiring.

    The subclass combo marks classes contained in the positive diagonals
    (alpha-scalar, ordered, interval): a full D-stability proof transfers
    downward to them, but the minor-sign necessity does not.
    """
    r, g, op = request.region, request.gclass, request.op
    half = isinstance(r, HalfPlaneLeft)
    if half and isinstance(g, ds.PositiveDiagonal) and isinstance(op, ds.Multiply):
        return "multiplicative-d-stability"
    if half and isinstance(g, ds.NegativeDiagonal) and isinstance(op, ds.Add):
        return "additive-d-stability"
    if half and isinstance(op, ds.Multiply) \
            and isinstance(g, (ds.AlphaScalar, ds.OrderedDiagonal,
                               ds.IntervalDiagonal)):
        return "positive-diagonal-subclass"
    if r == Disk() and isinstance(g, ds.DiagonalNormLt1) \
            and isinstance(op, ds.Multiply):
        return "schur-d-stability"
    if r == Disk() and isinstance(g, ds.VertexDiagonal) \
            and isinstance(op, ds.Multiply):
        return "vertex-stability"
    if isinstance(r, Hyperbolic) and isinstance(op, ds.Multiply) \
            and isinstance(g, (ds.PositiveDiagonal, ds.NegativeDiagonal,
                               ds.VertexDiagonal, ds.SignPatternDiagonal)):
        return "d-hyperbolicity"
    if half and isinstance(g, ds.SPD) and isinstance(op, ds.Multiply):
        return "h-stability"
    if half and isinstance(g, ds.SPD) and isinstance(op, ds.HadamardProduct):
        return "hadamard-h-stability"
    return None


class _SharedWork:
    """Work that several checks of one request share, each done at most once.

    Every result is computed on first use.  A computation that raises is
    not cached, so it raises again in every check that asks for it.
    """

    def __init__(self, a, budget):
        self.a = a
        self.budget = budget

    @cached_property
    def minors(self):
        """``principal_minors(A)``; None past the enumeration cap."""
        if self.a.shape[0] > MINOR_ENUM_CAP:
            return None
        return matrix_core.principal_minors(self.a)

    def neg_minors(self):
        """``principal_minors(-A)``, derived afresh from the table of A.

        Not cached, so no second 2^n table outlives the check reading it.
        """
        if self.minors is None:
            return None
        return matrix_core.negate_minors(self.minors)

    @cached_property
    def sign_symmetry(self):
        """``sign_symmetry_sweep(A)``, which is also that of -A."""
        return matrix_core.sign_symmetry_sweep(self.a)

    @cached_property
    def classification(self):
        return matrix_core.classify(self.a, minors=self.minors,
                                    sign_symmetry=self.sign_symmetry)

    @cached_property
    def neg_classification(self):
        return matrix_core.classify(-self.a, minors=self.neg_minors(),
                                    sign_symmetry=self.sign_symmetry)

    @cached_property
    def half_plane_search(self):
        return lyapunov.diagonal_stability_search(self.a, budget=self.budget)


def run(request):
    """Execute the analysis pipeline and assemble the report.

    Check order: classify, necessary minors, exact structural criteria,
    sufficient suite, certificate searches, falsification, then optional
    simulation and the principal-submatrix scan on what survived.

    Checks share work through a per-request :class:`_SharedWork`: one
    principal-minor sweep of A (the minors of -A are derived from it),
    one pairwise sign-symmetry sweep, ``classify`` of A and of -A, and
    the half-plane diagonal stability search.  ``classify``,
    ``necessary-p0plus``, ``interval-box``, ``sufficient-suite`` and
    ``diagonal-certificate`` take them from there instead of
    recomputing.
    """
    a = request.matrix
    convention_note = "analysis in the hurwitz convention"
    if request.convention == "positive":
        # the region names the stability type in the canonical (hurwitz)
        # vocabulary; the flag says the matrix is sign-flipped relative
        # to it, so negate once and adjust additive classes
        a = -a
        request = dataclasses.replace(
            request, matrix=a,
            gclass=(mirror_gclass_for_add(request.gclass)
                    if isinstance(request.op, ds.Add) else request.gclass))
        convention_note = ("positive-stability request mirrored: matrix "
                           "negated, additive class sign-flipped")
    n = a.shape[0]
    region, gclass, op = request.region, request.gclass, request.op
    triple = _canonical_triple(request)
    modes = request.modes
    shared = _SharedWork(a, request.budget)
    checks = []
    summary = [Status.UNKNOWN, "no-deciding-check"]

    def record(check, reference, verdict, decides, started, data=None):
        checks.append(CheckRecord(check, reference, verdict, decides,
                                  (time.perf_counter() - started) * 1e3, data))
        if decides and summary[0] is Status.UNKNOWN \
                and verdict.status is not Status.UNKNOWN:
            summary[0] = verdict.status
            summary[1] = check

    def guarded(check, reference, fn):
        # a failing check surfaces under its own id; the report survives
        started = time.perf_counter()
        try:
            fn(started)
        except Exception as exc:
            record(check, reference,
                   Verdict(Status.UNKNOWN, f"check-error: {exc}"),
                   False, started)

    if "classify" in modes:
        t0 = time.perf_counter()
        try:
            rep = shared.classification
            flags = {k: v for k, v in rep.flags().items()}
            v = Verdict(Status.UNKNOWN, "informational")
            record("classify", "determinantal class flags", v, False, t0,
                   data={"flags": flags})
        except ValueError as exc:
            record("classify", "determinantal class flags",
                   Verdict(Status.UNKNOWN, f"skipped: {exc}"), False, t0)

        def gersh(t0):
            disks, gv = gershgorin(a)
            record("gershgorin", "row disc localization", gv, False, t0,
                   data={"disks": disks})

        guarded("gershgorin", "row disc localization", gersh)

    def self_stability(t0):
        base = region_stable(a, region)
        decides = base.refuted and _identity_in_class(gclass, op, n)
        record("self-stability", "direct spectral membership", base,
               decides, t0, data={"eigenvalues": eigenvalues(a)})

    guarded("self-stability", "direct spectral membership", self_stability)

    if "necessary" in modes and triple in ("multiplicative-d-stability",
                                           "additive-d-stability") \
            and n <= 14:
        def necessary(t0):
            mode = ("multiplicative"
                    if triple == "multiplicative-d-stability" else "additive")
            nec = ds.necessary_p0plus(a, mode=mode,
                                      minors=shared.neg_minors())
            record("necessary-p0plus", "minor-sign necessity", nec,
                   nec.refuted, t0)

        guarded("necessary-p0plus", "minor-sign necessity", necessary)

    if "structural" in modes:
        guarded("structural", "exact structural criteria",
                lambda _t0: _structural_checks(a, request, triple, record,
                                               shared))

    proved_suite = [False]
    if "sufficient" in modes and triple in ("multiplicative-d-stability",
                                            "additive-d-stability",
                                            "positive-diagonal-subclass"):
        def sufficient(t0):
            suite = ds.sufficient_suite(
                -a, budget=request.budget,
                classification=shared.neg_classification,
                search=shared.half_plane_search)
            fired = [name for name, v in suite if v.proved]
            status = Status.PROVED if fired else Status.UNKNOWN
            reason = ("sufficient:" + ",".join(fired)) if fired \
                else "no-sufficient-class-fired"
            wit = next((v.witness for _, v in suite if v.proved
                        and v.witness is not None), None)
            record("sufficient-suite",
                   "classical sufficient stability classes",
                   Verdict(status, reason, witness=wit), bool(fired), t0,
                   data={"items": {name: v for name, v in suite}})
            proved_suite[0] = bool(fired)

        guarded("sufficient-suite", "classical sufficient stability classes",
                sufficient)

    if "certify" in modes:
        guarded("certificates", "certificate searches",
                lambda _t0: _certificate_checks(a, request, triple, record,
                                                proved_suite[0], shared))

    if "falsify" in modes:
        def falsification(t0):
            fal = ds.falsify(a, gclass, op, region, samples=request.samples,
                             seed=request.seed)
            record("falsify", "randomized class sampling", fal, True, t0)

        guarded("falsify", "randomized class sampling", falsification)

    if "total-scan" in modes and n <= ds.TOTAL_SCAN_CAP \
            and isinstance(region, HalfPlaneLeft):
        def total_scan(t0):
            scan = ds.total_stability_scan(
                a, samples=min(request.samples, 2000),
                budget=request.budget, seed=request.seed)
            overall = scan.pop("overall")
            strict = overall.refuted and _strict_submatrix_refutation(overall)
            record("total-scan", "principal submatrix sweep", overall,
                   strict and triple == "multiplicative-d-stability", t0,
                   data={"submatrices": {str(k): rec["verdict"]
                                         for k, rec in scan.items()}})

        guarded("total-scan", "principal submatrix sweep", total_scan)

    if "simulate" in modes and isinstance(region, HalfPlaneLeft):
        guarded("simulate", "fixed-step trajectory integration",
                lambda _t0: _simulation_check(a, request, checks, record))

    return Report(request, checks, summary[0], summary[1], convention_note)


def _strict_submatrix_refutation(verdict):
    wit = verdict.witness
    if isinstance(wit, ds.FalsificationWitness):
        z = wit.eigenvalue
        return z is not None and z.real > default_tol(z)
    return False


def _structural_checks(a, request, triple, record, shared):
    region, gclass, op = request.region, request.gclass, request.op
    n = a.shape[0]
    diag_certifiable = triple in ("multiplicative-d-stability",
                                  "additive-d-stability",
                                  "positive-diagonal-subclass")

    form = special_forms.detect_cyclic(a)
    if form is not None:
        t0 = time.perf_counter()
        v = special_forms.secant_criterion(form)
        # Proved decides the triple via diagonal stability; Refuted only
        # denies diagonal stability, not D-stability.
        record("secant-criterion", "cyclic feedback gain bound", v,
               v.proved and diag_certifiable, t0,
               data={"alpha": list(form.alpha), "beta": list(form.beta)})
    else:
        try:
            t0 = time.perf_counter()
            v = special_forms.single_circuit_criterion(a)
            record("single-circuit", "circuit gain bound", v,
                   v.proved and diag_certifiable, t0)
        except ValueError:
            pass

    if isinstance(region, HalfPlaneLeft) and 2 <= n:
        t0 = time.perf_counter()
        v = ds.li_wang_stable(a)
        record("li-wang", "second additive compound equivalence", v,
               v.refuted and _identity_in_class(gclass, op, n), t0)

    if isinstance(region, HalfPlaneLeft) and isinstance(op, ds.Multiply) \
            and isinstance(gclass, ds.IntervalDiagonal) and gclass.bounded:
        # the diagonal box reduces to a four-polynomial test when the
        # positive-convention matrix is P0 (sufficient only)
        t0 = time.perf_counter()
        try:
            v = polynomials.kosov_interval_dstability(
                -a, np.asarray(gclass.d_min), np.asarray(gclass.d_max),
                classification=shared.neg_classification)
            record("interval-box", "interval-to-polynomial-box reduction",
                   v, v.proved, t0)
        except ValueError as exc:
            record("interval-box", "interval-to-polynomial-box reduction",
                   Verdict(Status.UNKNOWN, f"premise-fails: {exc}"),
                   False, t0)

    if triple in ("vertex-stability", "schur-d-stability") \
            and n <= ds.VERTEX_ENUM_CAP:
        t0 = time.perf_counter()
        v = ds.vertex_schur_check(a)
        # exact for the vertex class itself; necessary-only for the
        # norm-bounded class
        decides = v.refuted or triple == "vertex-stability"
        record("vertex-enumeration", "sign-vertex spectral radii", v,
               decides, t0)

    if triple in ("h-stability", "hadamard-h-stability"):
        t0 = time.perf_counter()
        sym_ok, _ = lyapunov.is_negative_definite(a + a.T)
        if triple == "hadamard-h-stability":
            sym_ok = sym_ok and bool(np.allclose(a, a.T))
        v = Verdict(Status.PROVED, "symmetric-part-negative-definite") \
            if sym_ok else Verdict(Status.UNKNOWN,
                                   "symmetric-part-not-negative-definite")
        record("symmetric-part", "definiteness of the symmetric part", v,
               sym_ok, t0)


def _certificate_checks(a, request, triple, record, proved_suite, shared):
    region = request.region
    diag_certifiable = triple in ("multiplicative-d-stability",
                                  "additive-d-stability",
                                  "positive-diagonal-subclass",
                                  "schur-d-stability", "vertex-stability")

    if region.emi is not None:
        if not (proved_suite and isinstance(region, HalfPlaneLeft)):
            t0 = time.perf_counter()
            if isinstance(region, HalfPlaneLeft):
                v = shared.half_plane_search
            else:
                v = lyapunov.diagonal_stability_search(a, region,
                                                       budget=request.budget)
            data = None
            if v.proved:
                margin = lyapunov.verify_certificate(a, v.witness)
                data = {"re-verified-margin": margin}
            record("diagonal-certificate", "diagonal Lyapunov-type search",
                   v, v.proved and diag_certifiable, t0, data=data)

    if triple == "d-hyperbolicity":
        t0 = time.perf_counter()
        v = lyapunov.diagonal_hyperbolicity_search(a, budget=request.budget)
        record("hyperbolicity-certificate", "sign-free diagonal search", v,
               v.proved, t0)


def _simulation_check(a, request, checks, record):
    horizon = request.simulate_horizon
    t0 = time.perf_counter()
    refuted_realized = None
    for c in checks:
        if c.verdict.refuted and isinstance(c.verdict.witness,
                                            ds.FalsificationWitness) \
                and c.verdict.witness.realized is not None:
            refuted_realized = c.verdict.witness.realized
            break
    if refuted_realized is not None:
        h = horizon or 20.0
        step = min(0.01, 0.4 / (1.0 + np.linalg.norm(refuted_realized, 2)))
        ratio = simulate_decay(refuted_realized, h, step)
        v = Verdict(Status.UNKNOWN, "witness-trajectory-grows"
                    if ratio > 1 else "witness-trajectory-bounded")
        record("simulate", "fixed-step trajectory integration", v, False, t0,
               data={"ratio": ratio, "horizon": h, "target": "witness"})
        return
    alpha = spectral_abscissa(a)
    if alpha >= 0:
        record("simulate", "fixed-step trajectory integration",
               Verdict(Status.UNKNOWN, "matrix-not-hurwitz"), False, t0,
               data={"abscissa": alpha})
        return
    if horizon is None:
        from .spectra import decay_horizon
        horizon = decay_horizon(a, target=1e-8)
    step = min(0.01, 0.4 / (1.0 + np.linalg.norm(a, 2)), horizon / 10.0)
    ratio = simulate_decay(a, horizon, step)
    v = Verdict(Status.UNKNOWN, "trajectories-decay" if ratio < 1
                else "trajectories-grow")
    record("simulate", "fixed-step trajectory integration", v, False, t0,
           data={"ratio": ratio, "horizon": horizon, "abscissa": alpha})


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(report, fmt="json"):
    """Serialize a report; JSON is deterministic (no timings), text is not."""
    if fmt == "json":
        payload = {
            "schema": SCHEMA,
            "request": {
                "matrix": to_jsonable(report.request.matrix),
                "region": report.request.region_spec,
                "class": report.request.class_spec,
                "op": report.request.op_spec,
                "modes": list(report.request.modes),
                "samples": report.request.samples,
                "budget": report.request.budget,
                "seed": report.request.seed,
                "convention": report.request.convention,
            },
            "convention_note": report.convention_note,
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
            },
        }
        return (json.dumps(payload, indent=2, allow_nan=False)
                + "\n").encode()
    if fmt == "text":
        lines = [f"matstab report  (convention: {report.request.convention}; "
                 f"seed {report.request.seed})",
                 f"  note: {report.convention_note}"]
        for c in report.checks:
            mark = {"proved": "+", "refuted": "-", "unknown": "?"}[
                c.verdict.status.value]
            decide = " [decides]" if c.decides else ""
            lines.append(f"  [{mark}] {c.check} ({c.reference}): "
                         f"{c.verdict.reason}{decide} "
                         f"({c.wall_ms:.1f} ms)")
        lines.append(f"summary: {report.summary_status.value} "
                     f"via {report.summary_reason}")
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="matstab",
        description="Stability-region membership, class-robust stability "
                    "criteria and Lyapunov-type certificates for dense "
                    "real matrices.")
    p.add_argument("matrix", help="matrix file (JSON/CSV), '-' for stdin, "
                                  "or inline JSON / ';'-separated CSV")
    p.add_argument("--region", default="half-plane-left",
                   help="stability region, e.g. half-plane-left, disk:0,1, "
                        "sector:0.5, lmi:{...}, emi:@file.json")
    p.add_argument("--class", dest="gclass", default="positive-diagonal",
                   help="perturbation class, e.g. positive-diagonal, spd, "
                        "vertex-diagonal, interval-diagonal:0.5/2,1/3")
    p.add_argument("--op", default="multiply",
                   help="binary operation: multiply, add, hadamard, "
                        "block-hadamard:K")
    p.add_argument("--mode", default=",".join(DEFAULT_MODES),
                   help="comma-separated checks to run "
                        f"(default {','.join(DEFAULT_MODES)}; "
                        "optional extras: simulate, total-scan)")
    p.add_argument("--samples", type=int, default=10000,
                   help="falsification sample budget")
    p.add_argument("--budget", type=int, default=5000,
                   help="certificate search iteration budget")
    p.add_argument("--seed", type=int,
                   default=int(os.environ.get("MATSTAB_SEED", "0")),
                   help="RNG seed (env MATSTAB_SEED is the fallback)")
    p.add_argument("--convention", choices=("hurwitz", "positive"),
                   default="hurwitz")
    p.add_argument("--format", dest="fmt", choices=("json", "text"),
                   default="text")
    p.add_argument("--simulate-horizon", type=float, default=None)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        matrix = load_matrix(args.matrix)
        request = AnalysisRequest(
            matrix=matrix,
            modes=tuple(m.strip() for m in args.mode.split(",") if m.strip()),
            samples=args.samples,
            budget=args.budget,
            seed=args.seed,
            convention=args.convention,
            simulate_horizon=args.simulate_horizon,
            region_spec=args.region,
            class_spec=args.gclass,
            op_spec=args.op,
        )
        report = run(request)
    except (UsageError, OSError, ValueError) as exc:
        print(f"matstab: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(emit(report, args.fmt))
    return 2 if report.summary_status is Status.REFUTED else 0


if __name__ == "__main__":
    sys.exit(main())
