"""Closed-loop benchmark of the matstab analysis pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-dstab --seed 1 --seconds 35 --trace 0

One client keeps one request in flight.  Each request goes from
``cli.AnalysisRequest(...)`` through ``cli.run`` to the bytes of
``cli.emit(report, "json")``; every answer is then checked outside the
timed region (see verify.py).  The workload's seeded corpus is sized so
that answering it takes about ``--seconds`` (see corpus.ROUND_S).  With
``--trace 0`` the client answers it once and prints the end-to-end
metrics, each latency scaled to the reference machine by the speed
kernel run right before and after it (speed.py).  With ``--trace 1`` it
answers a corpus of half that size, each request untraced and then under
the span tracer (tracer.py), and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (environment, every share, the tail percentile and
its sample count, the sha256 of the reports).  Metric names and units
come from BENCHMARK.json at the checkout root.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# One BLAS thread: the client is single-process and closed-loop, the
# matrices are small (n <= 50), and extra BLAS threads only add jitter.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_BEYOND = 10

CHECK_IDS = ("classify", "gershgorin", "self-stability", "necessary-p0plus",
             "secant-criterion", "single-circuit", "li-wang", "interval-box",
             "vertex-enumeration", "symmetric-part", "sufficient-suite",
             "diagonal-certificate", "hyperbolicity-certificate", "falsify")

# import matstab and answer one small request in a fresh interpreter,
# then calibrate that interpreter's speed (speed.py)
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import numpy as np
from matstab import cli
request = cli.AnalysisRequest(
    matrix=np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [1.0, 0.0, -2.0]]))
cli.emit(cli.run(request), "json")
print(time.perf_counter() - t0)
sys.path.insert(0, {here!r})
import speed
kernel = speed.Kernel()
for _ in range(9):
    kernel()
print(kernel.factor())
print(cli.__file__)
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result in this checkout."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(env):
    """Median over fresh interpreters of import plus one warm-up request,
    each scaled by that interpreter's speed (speed.py); also the raw
    times."""
    code = SETUP_CODE.format(here=str(HERE))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=False)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3:
            raise BenchError(f"set-up run failed: {proc.stderr.strip()}")
        if not Path(lines[2]).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up imported matstab from {lines[2]}")
        raw.append(float(lines[0]))
        scaled.append(float(lines[0]) * float(lines[1]))
    return statistics.median(scaled), raw


def environment(args, count):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "corpus_requests": count,
        "client": "closed loop, one request in flight, one process",
    }


def execute(cli, spec):
    """One request, timed from AnalysisRequest(...) to the emitted bytes."""
    matrix = spec.matrix.copy()
    report = payload = error = None
    stage = "request"
    t0 = time.perf_counter()
    try:
        request = cli.AnalysisRequest(matrix=matrix, region_spec=spec.region,
                                      class_spec=spec.gclass,
                                      op_spec=spec.op, seed=spec.seed)
        stage = "run"
        report = cli.run(request)
        stage = "emit"
        payload = cli.emit(report, "json")
    except Exception as exc:  # counted as a failed request; the loop goes on
        error = exc
    return time.perf_counter() - t0, report, payload, error, stage


class Pass:
    """Requests answered in one loop, with their outcomes."""

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.outcomes = []
        self.reports = []
        self.digests = []
        self.problems = []

    def add(self, verify, spec, latency, report, payload, error, stage,
            scale=1.0):
        """Judge one answer; its latency counts times `scale`."""
        outcome = verify.judge(spec, report, payload, error, stage)
        self.raw_latencies.append(latency)
        self.latencies.append(latency * scale)
        self.outcomes.append(outcome)
        self.reports.append(report)
        body = payload if payload is not None else (
            f"error:{type(error).__name__}\n".encode())
        self.digests.append(hashlib.sha256(body).digest())
        if outcome.problems and outcome.known_defect is None:
            self.problems += [f"{spec.name}: {p}" for p in outcome.problems]

    def sha256(self):
        return hashlib.sha256(b"".join(self.digests)).hexdigest()


def shares(loop):
    n = len(loop.outcomes)
    known = {}
    for o in loop.outcomes:
        if o.known_defect:
            known[o.known_defect] = known.get(o.known_defect, 0) + 1
    return {
        "decided_share": sum(o.decided for o in loop.outcomes) / n,
        "failed_share": sum(o.failed for o in loop.outcomes) / n,
        "unsound_share": sum(o.unsound for o in loop.outcomes) / n,
        "known_defects": known,
    }


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(cli, verify, speed, specs, setup_s):
    loop = Pass()
    kernel = speed.Kernel()
    for spec in specs:
        before = kernel.now()
        answer = execute(cli, spec)
        scale = speed.REFERENCE_S / ((before + kernel.now()) / 2)
        loop.add(verify, spec, *answer, scale=scale)
    n = len(loop.latencies)
    busy = sum(loop.latencies)
    tail_s, tail_pct = tail(loop.latencies)
    values = {
        "requests_per_s": n / busy,
        "request_p50_ms": statistics.median(loop.latencies) * 1e3,
        "request_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": setup_s,
    }
    sh = shares(loop)
    values.update({k: sh[k] for k in ("decided_share", "failed_share",
                                      "unsound_share")})
    detail = {
        "requests": n,
        "measured_s": sum(loop.raw_latencies),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples_beyond": n - 1 if n <= TAIL_BEYOND else TAIL_BEYOND,
        "known_defects": sh["known_defects"],
        "reports_sha256": loop.sha256(),
        "kernel_median_s": statistics.median(kernel.samples),
        "raw": {
            "requests_per_s": n / sum(loop.raw_latencies),
            "request_p50_ms": statistics.median(loop.raw_latencies) * 1e3,
            "request_tail_ms": tail(loop.raw_latencies)[0] * 1e3,
        },
        "latencies_ms": [t * 1e3 for t in loop.latencies],
    }
    return loop, values, detail


def per_layer(args, cli, verify, tracer_mod, specs):
    """Each request untraced, then traced, so both see the same machine."""
    plain, traced = Pass(), Pass()
    tracer = tracer_mod.Tracer()
    for i, spec in enumerate(specs):
        plain.add(verify, spec, *execute(cli, spec))
        tracer.begin_request(i)
        tracer.install()
        try:
            answer = execute(cli, spec)
        finally:
            tracer.uninstall()
        traced.add(verify, spec, *answer)
    if plain.digests != traced.digests:
        plain.problems.append("traced and untraced reports differ")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans_path)

    values = layer_values(tracer, tracer_mod.LAYERS, plain, traced,
                          len(specs))
    sh = shares(plain)
    values.update({k: sh[k] for k in ("failed_share", "unsound_share")})
    detail = {
        "requests": len(specs),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "known_defects": sh["known_defects"],
        "reports_sha256": plain.sha256(),
        "traced_reports_sha256": traced.sha256(),
    }
    return plain, traced, values, detail


def layer_values(tracer, layers, plain, traced, n):
    """Times in ms per request; counts are totals over the corpus."""
    calls, incl, self_ns = tracer.totals()
    counts = tracer.counts
    ms = 1e-6 / n  # ns summed over the corpus -> ms per request
    v = {}

    check_ms = {}
    after = total = 0.0
    check_count = 0
    for report in plain.reports:
        if report is None:
            continue
        check_count += len(report.checks)
        decider = next((j for j, c in enumerate(report.checks)
                        if c.decides and c.verdict.status.value != "unknown"),
                       None)
        for j, c in enumerate(report.checks):
            check_ms[c.check] = check_ms.get(c.check, 0.0) + c.wall_ms
            total += c.wall_ms
            if decider is not None and j > decider:
                after += c.wall_ms
    for cid in CHECK_IDS:
        v[f"cli.check.{cid}.ms"] = check_ms.get(cid, 0.0) / n
    v["cli.checks_per_request"] = check_count / n
    v["cli.after_decision_share"] = after / total if total else 0.0
    v["cli.emit.ms"] = incl["cli.emit"] * ms
    v["cli.run.self_ms"] = self_ns["cli.run"] * ms

    for layer in layers:
        v[f"{layer}.self_ms"] = sum(t for q, t in self_ns.items()
                                    if q.startswith(layer + ".")) * ms

    def rate(count, ns):
        return count / (ns * 1e-9) if ns else 0.0

    minors = calls["matrix_core.principal_minors"]
    v["matrix_core.principal_minors.ms"] = incl["matrix_core.principal_minors"] * ms
    v["matrix_core.principal_minors.calls"] = minors
    v["matrix_core.minors_evaluated"] = counts["minors_evaluated"]
    v["matrix_core.minor_sweep_repeat_share"] = (
        counts["minor_sweep.repeats"] / minors if minors else 0.0)
    v["matrix_core.classify.self_ms"] = self_ns["matrix_core.classify"] * ms
    v["matrix_core.additive_compound_2.ms"] = (
        incl["matrix_core.additive_compound_2"] * ms)
    v["matrix_core.additive_compound_2.entries"] = counts["compound_entries"]

    v["spectra.eigenvalues.ms"] = incl["spectra.eigenvalues"] * ms
    v["spectra.eigenvalues.calls"] = calls["spectra.eigenvalues"]
    v["spectra.region_membership.calls"] = calls["spectra.region_membership"]
    v["spectra.membership_values.ms"] = incl["spectra.membership_values"] * ms

    search = "lyapunov.diagonal_stability_search"
    searches = calls[search]
    v[f"{search}.ms"] = incl[search] * ms
    v[f"{search}.calls"] = searches
    v[f"{search}.iterations"] = counts["search_iterations"]
    v["lyapunov.search_repeat_share"] = (
        counts["search.repeats"] / searches if searches else 0.0)
    v["lyapunov.iterations_per_s"] = rate(counts["search_iterations"],
                                          incl[search])
    v["lyapunov.diagonal_hyperbolicity_search.ms"] = (
        incl["lyapunov.diagonal_hyperbolicity_search"] * ms)
    v["lyapunov.verify_certificate.ms"] = incl["lyapunov.verify_certificate"] * ms

    falsify = calls["dstability.falsify"]
    v["dstability.falsify.ms"] = incl["dstability.falsify"] * ms
    v["dstability.falsify.samples"] = counts["falsify_samples"]
    v["dstability.falsify.samples_per_s"] = rate(counts["falsify_samples"],
                                                 incl["dstability.falsify"])
    v["dstability.falsify.refute_share"] = (
        counts["falsify_refuted"] / falsify if falsify else 0.0)
    for fn in ("necessary_p0plus", "sufficient_suite", "li_wang_stable"):
        v[f"dstability.{fn}.self_ms"] = self_ns[f"dstability.{fn}"] * ms
    v["dstability.vertex_schur_check.ms"] = (
        incl["dstability.vertex_schur_check"] * ms)

    v["special_forms.ms"] = sum(incl[f"special_forms.{fn}"] for fn in (
        "detect_cyclic", "secant_criterion", "single_circuit_criterion")) * ms
    v["polynomials.kosov_interval_dstability.ms"] = (
        incl["polynomials.kosov_interval_dstability"] * ms)

    untraced, with_trace = sum(plain.latencies), sum(traced.latencies)
    v["trace.overhead_share"] = (with_trace - untraced) / untraced
    return v


def select(declared, values):
    out = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv=None):
    args = parse_args(argv)
    try:
        spec_file = ROOT / "BENCHMARK.json"
        if not (SRC / "matstab" / "__init__.py").is_file():
            raise BenchError(f"no matstab package under {SRC}")
        declared = json.loads(spec_file.read_text(encoding="utf-8"))
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")

        # before numpy loads, so that BLAS starts with this many threads
        for var in THREAD_VARS:
            os.environ[var] = str(BLAS_THREADS)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        sys.path.insert(0, str(SRC))

        import corpus
        import speed
        import tracer as tracer_mod
        import verify
        from matstab import cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise BenchError(f"imported matstab from {cli.__file__}")
        if args.workload not in corpus.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")

        # the traced run answers every request twice: half the corpus
        budget = args.seconds / 2 if args.trace else args.seconds
        specs = corpus.build(args.workload, args.seed,
                             corpus.rounds_for(args.workload, budget))
        execute(cli, specs[0])  # warm-up, not measured

        if args.trace:
            loop, traced, values, detail = per_layer(args, cli, verify,
                                                     tracer_mod, specs)
            loop.problems += traced.problems
            metrics = select(declared["per_layer"], values)
        else:
            setup_s, setup_runs = measure_setup(env)
            loop, values, detail = end_to_end(cli, verify, speed, specs,
                                              setup_s)
            detail["setup_runs_s"] = setup_runs
            metrics = select(declared["end_to_end"], values)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    detail.update(environment(args, len(specs)))
    detail["shares"] = {k: values[k] for k in
                        ("decided_share", "failed_share", "unsound_share")
                        if k in values}
    detail["problems"] = loop.problems
    failed = sum(o.failed for o in loop.outcomes)
    result = {
        "correct": not loop.problems,
        "attempted": len(loop.outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps({"detail": detail, "all_metrics": values}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
