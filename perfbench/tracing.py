"""Spans around the calls into conjpr's layers, recorded from outside.

The tracer replaces a public function where its caller looks it up (a
module attribute such as ``conjpr.certify.omega_matrix`` or
``conjpr._kernels.pair_search``) with a wrapper that records a span
(name, start, end, parent, info).  Spans stay in memory and are written
out once, at the end of the run.  A layer's self time is its spans'
duration minus the duration of their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

#: The certify search accepts a restart when its objective is at most this
#: and the pair's lift distance meets the ``delta`` passed to pair_search.
SEARCH_F_TOL = 1e-12


def _pair_search_info(args, result):
    delta = args[2]
    _, fs, _, ds, iters = result
    return {
        "restart_iters": int(iters.sum()),
        "restart_slots": int(iters.size * iters.max()),
        "hit_restarts": int(((fs <= SEARCH_F_TOL) & (ds >= delta)).sum()),
    }


def _altproj_info(args, result):
    restarts, max_iter = args[3].shape[0], args[4]
    _, _, iters, restart, converged = result
    total = restart * max_iter + iters if converged else restarts * max_iter
    return {"iters": int(total), "converged": int(bool(converged))}


def _saved_bytes(args, result):
    return {"bytes_written": os.path.getsize(args[1])}


#: The frames_io functions the cli calls.
_LOADS = ("load_frame", "load_signal", "load_measurement", "load_matrix")
_SAVES = ("save_frame", "save_signal", "save_measurement", "save_witness", "save_certificate")

#: (module, attribute, span name, info probe).  The benchmark's own calls go
#: through the ``conjpr`` package attributes and ``conjpr.cli.main``.
BINDINGS = [
    ("conjpr", "certify", "certify.certify", None),
    ("conjpr", "strict_report", "certify.strict_report", None),
    ("conjpr", "falsify_search", "certify.falsify_search", None),
    ("conjpr", "reconstruct_linear", "reconstruct.reconstruct_linear", None),
    ("conjpr", "reconstruct_altproj", "reconstruct.reconstruct_altproj", None),
    ("conjpr.cli", "main", "cli.main", None),
    ("conjpr.certify", "omega_matrix", "lift.omega_matrix", None),
    ("conjpr.certify", "kernel_basis", "certify.kernel_basis", None),
    ("conjpr.certify", "complement_property", "certify.complement_property", None),
    ("conjpr.certify", "falsify_exact", "certify.falsify_exact", None),
    ("conjpr.certify", "witness_general", "witness.witness_general", None),
    ("conjpr.reconstruct", "omega_matrix", "lift.omega_matrix", None),
    ("conjpr._kernels", "pair_search", "kernels.pair_search", _pair_search_info),
    ("conjpr._kernels", "altproj", "kernels.altproj", _altproj_info),
    ("conjpr.cli", "certify", "certify.certify", None),
    ("conjpr.cli", "falsify_exact", "certify.falsify_exact", None),
    ("conjpr.cli", "falsify_search", "certify.falsify_search", None),
    ("conjpr.cli", "kernel_basis", "certify.kernel_basis", None),
    ("conjpr.cli", "strict_report", "certify.strict_report", None),
    ("conjpr.cli", "omega_matrix", "lift.omega_matrix", None),
    ("conjpr.cli", "reconstruct_linear", "reconstruct.reconstruct_linear", None),
    ("conjpr.cli", "reconstruct_altproj", "reconstruct.reconstruct_altproj", None),
    ("conjpr.cli", "witness_general", "witness.witness_general", None),
]
BINDINGS += [("conjpr.frames_io", f, "frames_io.load", None) for f in _LOADS]
BINDINGS += [("conjpr.frames_io", f, "frames_io.save", _saved_bytes) for f in _SAVES]

#: Calls that are counted but get no span: one span per SVD of the
#: complement-property walk would hide that walk's own time.
COUNTERS = [("conjpr.certify", "numeric_rank", "certify.complement_property.rank_checks")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str, fn, probe=None):
        """``fn`` wrapped to record one span per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if probe is not None:
                spans[index][4] = probe(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        saved = []
        try:
            for module, attr, name, probe in BINDINGS:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.span(name, getattr(mod, attr), probe))
            for module, attr, name in COUNTERS:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.counter(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def summary(self):
        """Per span name: total self seconds, call count and summed info."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, info), kids in zip(self.spans, child):
            agg = out[name]
            agg["self_s"] += end - start - kids
            agg["calls"] += 1
            for key, val in (info or {}).items():
                agg[key] += val
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
