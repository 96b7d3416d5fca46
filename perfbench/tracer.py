"""In-memory span tracer that wraps the library's public functions.

Each public function of a measured layer is replaced, in every
``matstab.*`` namespace that binds it, by a wrapper that records a span
(name, request, parent span, start, end).  Re-binding every namespace
catches calls made through ``from .matrix_core import ...`` as well as
calls through the module attribute.  Nothing in the library changes;
``uninstall`` puts the original functions back.

Self time of a span is its duration minus the durations of its direct
children; spans of one thread nest, so children never overlap.
"""

import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Layers in src/matstab that cli.run reaches.  ``qualitative`` is left out
# on purpose: the pipeline never calls it.
LAYERS = ("cli", "matrix_core", "spectra", "polynomials", "lyapunov",
          "dstability", "special_forms")

# cli.to_jsonable recurses once per array element; a span per element
# would measure the tracer, not the serializer.  emit covers it.
SKIP = {"cli.to_jsonable", "cli.main", "cli.build_parser"}


def matrix_digest(m, up_to_sign=False):
    m = np.ascontiguousarray(m, dtype=float) + 0.0  # folds -0.0 into 0.0
    data = m.tobytes()
    if up_to_sign:
        data = min(data, (-m + 0.0).tobytes())
    return hashlib.blake2b(data, digest_size=16).digest() + bytes(m.shape)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []  # [name_id, request, parent, start_ns, end_ns]
        self.stack = []
        self.request = -1
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)  # per-request keys for repeat shares
        self.patched = []
        self.hooks = {
            "matrix_core.principal_minors": self._minors,
            "matrix_core.additive_compound_2": self._compound,
            "lyapunov.diagonal_stability_search": self._search,
            "dstability.falsify": self._falsify,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"matstab.{layer}"]
            for attr, fn in vars(mod).items():
                qual = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and qual not in SKIP):
                    targets[id(fn)] = self._wrap(fn, qual)
        for name, mod in list(sys.modules.items()):
            if name != "matstab" and not name.startswith("matstab."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self.patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def begin_request(self, index):
        self.request = index
        self.seen.clear()

    def _wrap(self, fn, qual):
        name_id = self.name_ids.setdefault(qual, len(self.names))
        if name_id == len(self.names):
            self.names.append(qual)
        hook = self.hooks.get(qual)
        signature = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name_id, self.request, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- work counters ----------------------------------------------------

    def _repeat(self, kind, key):
        if key in self.seen[kind]:
            self.counts[f"{kind}.repeats"] += 1
        self.seen[kind].add(key)

    def _minors(self, args, result):
        self.counts["minors_evaluated"] += len(result)
        self._repeat("minor_sweep", matrix_digest(args["a"], up_to_sign=True))

    def _compound(self, args, result):
        self.counts["compound_entries"] += result.size

    def _search(self, args, result):
        cert = result.witness if result.proved else None
        self.counts["search_iterations"] += (cert.iterations if cert
                                             else args["budget"])
        region = args["region"]
        self._repeat("search", (matrix_digest(args["a"]),
                                "HalfPlaneLeft()" if region is None
                                else repr(region), args["budget"]))

    def _falsify(self, args, result):
        wit = result.witness
        if wit is None:
            drawn = args["samples"]
        elif wit.sample_index < 0:
            drawn = 1  # the unbounded-class path draws one member and scales it
        else:
            batch = args["batch"]
            drawn = min((wit.sample_index // batch + 1) * batch,
                        args["samples"])
        self.counts["falsify_samples"] += drawn
        self.counts["falsify_refuted"] += int(result.refuted)

    # -- aggregation ------------------------------------------------------

    def totals(self):
        """Per function: calls, inclusive ns and self ns over all spans."""
        child = np.zeros(len(self.spans), dtype=np.int64)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(int)
        self_ns = defaultdict(int)
        for i, (name_id, _, _, start, end) in enumerate(self.spans):
            qual = self.names[name_id]
            calls[qual] += 1
            incl[qual] += end - start
            self_ns[qual] += end - start - int(child[i])
        return calls, incl, self_ns

    def write(self, path):
        """Spans as CSV: request, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request,span,parent,name,start_ns,end_ns\n")
            for i, (name_id, req, parent, start, end) in enumerate(self.spans):
                fh.write(f"{req},{i},{parent},{self.names[name_id]},"
                         f"{start},{end}\n")
