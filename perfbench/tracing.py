"""Span tracing from outside the library.

The tracer replaces apsrec's public functions at the module attributes
through which the pipeline calls them (``gram.bessel_j0``,
``plv.assemble_gram``, ``analysis.synthesize_lags`` and so on) with thin
wrappers that record a span: op number, layer name, parent span, start,
end and an optional work count. Spans stay in memory and are written out
when the run ends. A layer's self time is its span time minus the time of
its child spans.
"""

import functools
import json
import time
from collections import defaultdict

import numpy as np

from apsrec import analysis, cli, core, forward, gram, plv


def _size_of_first(args, result):
    return np.size(args[0])


def _size_of_result(args, result):
    return np.size(result)


def _points(args, result):
    return np.size(result[0])


def _array_m(args, result):
    return args[1].M


# (module, attribute, layer, work count). Every site through which the
# three workloads reach a layer is listed, so each call lands in one span.
SITES = (
    (gram, "bessel_j0", "specfun.j0", _size_of_first),
    (gram, "gram_blocks", "gram.blocks", None),
    (plv, "assemble_gram", "gram.assemble", None),
    (analysis, "assemble_gram", "gram.assemble", None),
    (cli, "assemble_gram", "gram.assemble", None),
    (plv, "solve", "gram.solve", None),
    (analysis, "solve", "gram.solve", None),
    (plv, "recover", "plv.recover", None),
    (cli, "recover", "plv.recover", None),
    (plv, "evaluate_solution", "plv.evaluate", None),
    (cli, "evaluate_solution", "plv.evaluate", None),
    (plv, "negativity_summary", "plv.negativity", None),
    (cli, "negativity_summary", "plv.negativity", None),
    (core, "trig_basis", "core.trig_basis", _size_of_result),
    (plv, "trig_basis", "core.trig_basis", _size_of_result),
    (plv, "weighted_quadrature_points", "quad.points", _points),
    (analysis, "weighted_quadrature_points", "quad.points", _points),
    (forward, "theta_quadrature_points", "quad.points", _points),
    (forward, "weighted_quadrature_points", "quad.points", _points),
    (cli, "synthesize_lags", "forward.synthesize", _array_m),
    (analysis, "synthesize_lags", "forward.synthesize", _array_m),
    (cli, "certify", "analysis.certify", None),
    (analysis, "certify", "analysis.certify", None),
    (cli, "resolution_sweep", "analysis.sweep", None),
    (cli, "main", "cli.main", None),
)

OP, NAME, PARENT, START, END, COUNT = range(6)


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` bracket
    each traced op so untraced ops run the library unmodified."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._sites = [
            (module, attr, getattr(module, attr), self._wrap(layer, getattr(module, attr), count))
            for module, attr, layer, count in SITES
        ]

    def _wrap(self, layer, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self._op, layer, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = int(count(args, result))
            return result

        return traced

    def install(self, op):
        self._op = op
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op", "name", "parent", "start", "end", "count"],
                       "spans": self.spans}, handle)


def layer_totals(spans):
    """Per layer: summed self time, call count and work count, plus the
    synthesis kernel size (M times the quadrature points it integrates).
    Also returns the summed time of root spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "count": 0})
    root_s = 0.0
    kernel_elems = 0
    for i, span in enumerate(spans):
        entry = totals[span[NAME]]
        entry["self_s"] += span[END] - span[START] - child_time[i]
        entry["calls"] += 1
        entry["count"] += span[COUNT]
        parent = spans[span[PARENT]] if span[PARENT] >= 0 else None
        if parent is None:
            root_s += span[END] - span[START]
        elif span[NAME] == "quad.points" and parent[NAME] == "forward.synthesize":
            kernel_elems += parent[COUNT] * span[COUNT]
    return dict(totals), root_s, kernel_elems
