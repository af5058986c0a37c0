"""In-memory spans around the public functions of every hadtrunc module.

`Tracer.install` replaces module attributes in this process with timing
wrappers, so nested calls (truncated_law -> gram_matrix -> profile) become
child spans without any change to the library.  `uninstall` puts the
original functions back; untraced passes run the library untouched.

A span is [name, start, end, parent index, counts].  Counts are computed
from argument and result array sizes (labelled "computed": they ignore
caches and temporaries the library may allocate).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("specs", "matrices", "magic", "spectra", "dita", "duality", "cli")
LINALG = ("eigh", "eigvalsh")

# Functions whose calls ask for the spectrum of a depth-r Gram matrix of H.
SPECTRUM_REQUESTS = ("spectra.truncated_law", "spectra.moment_table",
                     "spectra.moments_via_X", "dita.structured_moments")

# Grid-product truncation_tensor batches 64 row multi-indices against all
# N^p column multi-indices as one (64, N^p, N, N) complex block.
TRUNCATION_CHUNK_ROWS = 64
COMPLEX_BYTES = 16
SPANS_MARKER = "PERFBENCH_SPANS "


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _linalg_counts(args, kwargs, out):
    a = args[0]
    return {"dim3": a.shape[-1] ** 3 * (a.size // a.shape[-1] ** 2)}


def _gram_counts(args, kwargs, out):
    return {"bytes": out.shape[0] ** 2 * COMPLEX_BYTES}


def _cesaro_counts(args, kwargs, out):
    return {"matmuls": _arg(args, kwargs, 2, "k_max") - 1}


def _truncation_counts(args, kwargs, out):
    dim, n = out.shape[0], _arg(args, kwargs, 0, "grid").n
    rows = min(TRUNCATION_CHUNK_ROWS, dim)
    return {"max_dim": dim, "chunk_bytes": rows * dim * n * n * COMPLEX_BYTES}


def _structured_counts(args, kwargs, out):
    m, n = np.shape(_arg(args, kwargs, 0, "q"))
    r = _arg(args, kwargs, 2, "r")
    return {"bytes": m**r * n ** (2 * r) * COMPLEX_BYTES}


ANNOTATORS = {
    "linalg.eigh": _linalg_counts,
    "linalg.eigvalsh": _linalg_counts,
    "spectra.gram_matrix": _gram_counts,
    "spectra.cesaro_moments": _cesaro_counts,
    "magic.truncation_tensor": _truncation_counts,
    "dita.structured_moments": _structured_counts,
}
COUNT_REDUCERS = {"dim3": sum, "matmuls": sum, "bytes": max, "max_dim": max,
                  "chunk_bytes": max}


def _request(name, args, kwargs):
    """(kind, matrix or phase matrix, depths) for a spectrum request."""
    if name == "dita.structured_moments":
        return ("q", np.array(_arg(args, kwargs, 0, "q")), [_arg(args, kwargs, 2, "r")])
    h = _arg(args, kwargs, 0, "h")
    if name == "spectra.moment_table":
        return ("h", h.array, list(range(1, _arg(args, kwargs, 2, "r_max") + 1)))
    return ("h", h.array, [_arg(args, kwargs, 2 if name.endswith("_X") else 1, "r")])


class Tracer:
    def __init__(self):
        self.spans = []
        self.requests = []  # spectrum requests not nested in another request
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, requests = self.spans, self._stack, self.requests
        annotate = ANNOTATORS.get(name)
        is_request = name in SPECTRUM_REQUESTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_request and not any(spans[i][0] in SPECTRUM_REQUESTS for i in stack):
                requests.append(_request(name, args, kwargs))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                rec[4] = annotate(args, kwargs, out)
            return out

        return traced

    def install(self):
        package = importlib.import_module("hadtrunc")
        modules = {layer: importlib.import_module(f"hadtrunc.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self._wrap(f"linalg.{attr}", fn))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def open_span(self, name):
        """Manual span for work outside the library (a child process)."""
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close_span(self, rec, child_spans=()):
        """Close `rec`, adopting spans recorded in a child process (whose
        perf_counter is the same system-wide monotonic clock) as its children."""
        rec[2] = perf_counter()
        parent = self._stack.pop()
        base = len(self.spans)
        for name, start, end, up, counts in child_spans:
            self.spans.append([name, start, end, parent if up < 0 else base + up, counts])

    def reset(self):
        self.spans.clear()
        self.requests.clear()


def summarize(spans):
    """Per-name inclusive time, self time, call count and reduced counts.

    Inclusive time skips spans nested in a span of the same name, so a
    recursive call is not counted twice; self time is duration minus the
    time covered by direct children (single-threaded, so they never overlap).
    """
    child = [0.0] * len(spans)
    for name, start, end, up, _ in spans:
        if up >= 0:
            child[up] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": defaultdict(list)})
    for i, (name, start, end, up, counts) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child[i]
        while up >= 0 and spans[up][0] != name:
            up = spans[up][3]
        if up < 0:
            entry["s"] += end - start
        for key, value in (counts or {}).items():
            entry["counts"][key].append(value)
    for entry in out.values():
        entry["counts"] = {k: COUNT_REDUCERS[k](v) for k, v in entry["counts"].items()}
    return dict(out)


def emit_child_spans(spans):
    """Write a child process's spans as the last line of its stderr."""
    sys.stderr.write(SPANS_MARKER + json.dumps(spans) + "\n")
