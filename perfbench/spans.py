"""In-memory spans around the package's layer boundaries.

The tracer wraps public functions by replacing module attributes, in every
loaded `qtradeoff` module that holds the same function object, because the
package imports several of them by name (`cli` holds its own `nhcrb_sdp`,
`run_experiment` and `surface_scan`). Everything runs on one thread, so child
spans never overlap and a span's self time is its duration minus the sum of
its children's durations.
"""

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    ok: bool = True
    iterations: int | None = None

    @property
    def duration(self):
        return self.end - self.start


def _exit_status(span, result):
    span.ok = result == 0


def _solver_iterations(span, result):
    span.iterations = result.iterations


# (span name, home module, attribute, hook that reads the return value)
LAYERS = (
    ("cli.main", "qtradeoff.cli", "main", _exit_status),
    ("sdp.solve_lmi", "qtradeoff.sdp", "solve_lmi", _solver_iterations),
    ("bounds.nh_problem", "qtradeoff.bounds", "nh_problem", None),
    ("bounds.nhcrb_sdp", "qtradeoff.bounds", "nhcrb_sdp", None),
    ("estimation.mle_estimator", "qtradeoff.estimation", "mle_estimator", None),
    ("estimation.run_experiment", "qtradeoff.estimation", "run_experiment", None),
    ("tradeoff.surface_scan", "qtradeoff.tradeoff", "surface_scan", None),
    ("povm", "qtradeoff.povm", "single_copy_optimal", None),
    ("povm", "qtradeoff.povm", "two_copy_optimal", None),
    ("povm", "qtradeoff.povm", "sic_two_copy", None),
    ("model.model_point", "qtradeoff.model", "model_point", None),
    ("linalg.eig_hermitian", "qtradeoff.linalg", "eig_hermitian", None),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))


class Tracer:
    """Collects spans; `op` tags the spans of the op now running."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(span, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, layers=LAYERS):
        """Wrap every call site of each layer; restore the originals on exit.

        A layer whose home attribute does not exist is skipped and reports
        zero calls.
        """
        patched = []
        try:
            for name, home, attr, hook in layers:
                original = getattr(sys.modules.get(home), attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(name, original, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "qtradeoff" and getattr(mod, attr, None) is original:
                        patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def self_times(self):
        """Self time of each span, in span order."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def layer_metrics(self):
        """Per-layer calls, self time, failures and solver iterations."""
        selfs = self.self_times()
        out = {}
        for name in LAYER_NAMES:
            idx = [i for i, s in enumerate(self.spans) if s.name == name]
            calls = len(idx)
            ok = sum(self.spans[i].ok for i in idx)
            iters = [self.spans[i].iterations for i in idx
                     if self.spans[i].iterations is not None]
            out[name] = {
                "calls": calls,
                "self_s": sum(selfs[i] for i in idx),
                "failures": calls - ok,
                # a layer that made no calls had nothing fail
                "ok_ratio": ok / calls if calls else 1.0,
                "iterations_mean": sum(iters) / len(iters) if iters else 0.0,
            }
        return out

    def to_json(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "ok": s.ok, "iterations": s.iterations}
            for s in self.spans
        ]
