"""Correctness of one answered request, judged outside the timed region.

A request *fails* when it raised, or when its report is not strict
RFC 8259 JSON (``NaN`` and ``Infinity`` are rejected).  It is *unsound*
when its verdict contradicts the label its construction guarantees, when
an attached certificate does not re-verify, or when a falsification
witness does not replay.

Three defects of the library are known and expected; ``known_defect``
names them so that any other failure makes the run incorrect.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from corpus import inside
from matstab import lyapunov
from matstab.dstability import FalsificationWitness
from matstab.spectra import Status

# Unsound minor-sum refutation: necessary_p0plus compares an order-k minor
# sum with 1e-10 * (1 + ||A||_inf ** k) and refutes diagonally stable
# inputs of large norm.
MINOR_SUM_DEFECT = "minor-sum-refutation"
# H-stability reports crash in emit: is_negative_definite returns a
# numpy.bool_ that lands in CheckRecord.decides.
SPD_EMIT_DEFECT = "spd-emit-crash"
# Non-strict JSON: for n = 2 the secant criterion's bound sec(pi/2)^2 is
# infinite, and emit writes it as the bare token Infinity.
SECANT_INFINITY_DEFECT = "secant-infinity-json"


@dataclass
class Outcome:
    failed: bool = False
    unsound: bool = False
    decided: bool = False
    known_defect: str = None
    problems: list = field(default_factory=list)


def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 constant {name}")


def _certificates(report):
    found = {}
    for c in report.checks:
        verdicts = [c.verdict]
        if c.check == "sufficient-suite" and c.data:
            verdicts += list(c.data["items"].values())
        for v in verdicts:
            if isinstance(v.witness, lyapunov.Certificate):
                found[id(v.witness)] = v.witness
    return list(found.values())


def judge(spec, report, payload, error, stage):
    out = Outcome()
    if error is not None:
        out.failed = True
        out.problems.append(f"{stage} raised {type(error).__name__}: {error}")
        if (stage == "emit" and isinstance(error, TypeError)
                and "bool is not JSON serializable" in str(error)
                and spec.gclass == "spd"):
            out.known_defect = SPD_EMIT_DEFECT
        return out
    try:
        json.loads(payload.decode("utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        out.failed = True
        out.problems.append(f"report is not strict JSON: {exc}")
        if any(c.check == "secant-criterion"
               and c.verdict.witness["bound"] == math.inf
               for c in report.checks):
            out.known_defect = SECANT_INFINITY_DEFECT
        return out

    status = report.summary_status
    if status is Status.PROVED and spec.label == "escapes":
        out.unsound = True
        out.problems.append("proved, but a class member takes the spectrum "
                            "out of the region")
    if status is Status.REFUTED and spec.label == "robust":
        out.unsound = True
        decider = next(c for c in report.checks
                       if c.check == report.summary_reason)
        out.problems.append(f"refuted a robust input via "
                            f"{decider.check}: {decider.verdict.reason}")
        if (decider.check == "necessary-p0plus"
                and decider.verdict.reason.startswith("p0-minor-sums-vanish")):
            out.known_defect = MINOR_SUM_DEFECT

    a = report.request.matrix
    for cert in _certificates(report):
        try:
            margin = lyapunov.verify_certificate(a, cert)
        except (lyapunov.CertificateError, ValueError) as exc:
            margin, why = None, str(exc)
        if margin is None or not margin > 0:
            out.unsound = True
            out.known_defect = None
            out.problems.append(f"certificate {cert.kind} does not re-verify: "
                                f"{why if margin is None else margin}")

    op = report.request.op
    for c in report.checks:
        w = c.verdict.witness
        if not isinstance(w, FalsificationWitness):
            continue
        replays = (w.g is not None
                   and np.array_equal(op.apply(w.g, a), w.realized)
                   and not all(inside(complex(z), spec.region)
                               for z in np.linalg.eigvals(w.realized)))
        if not replays:
            out.unsound = True
            out.known_defect = None
            out.problems.append(f"{c.check} witness does not replay")

    out.decided = not out.unsound and status is not Status.UNKNOWN
    return out
