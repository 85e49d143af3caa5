"""Per-layer attribution for the traced run, by wrapping library functions.

Each name is patched where its caller looks it up: methods on the class
that defines them, module functions in every module that binds them
(``analysis`` binds ``check_axioms``, ``rational_eigenvalues`` and
``groupoid_isomorphic`` at import).  A call records a span
``(parent id, job index, name, start, end)``; spans stay in memory and are
written when the run ends.  A span's self time is its duration minus the
time its direct children cover; a layer's self time is the sum over the
spans named after it.  Counters are taken after the call, inside their own
``trace.count`` span, so counting never lands in a layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import Counter
from contextlib import contextmanager
from itertools import chain
from time import perf_counter

# (metric name, unit, better) in output order; every name is printed on a
# traced run, with 0 for work that did not happen.
PER_LAYER = (
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.rref.nnz", "count", "lower"),
    ("linalg.nullspace.self_s", "s", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.solve.self_s", "s", "lower"),
    ("linalg.solve.calls", "count", "lower"),
    ("linalg.inverse.self_s", "s", "lower"),
    ("linalg.eigenvalues.self_s", "s", "lower"),
    ("enveloping.mul.calls", "count", "lower"),
    ("enveloping.mul.self_s", "s", "lower"),
    ("enveloping.mul.term_pairs", "count", "lower"),
    ("enveloping.mul.overflows", "count", "lower"),
    ("enveloping.transport.self_s", "s", "lower"),
    ("enveloping.transport.calls", "count", "lower"),
    ("enveloping.antipode.self_s", "s", "lower"),
    ("enveloping.delta.self_s", "s", "lower"),
    ("algebroid.conv_mul.calls", "count", "lower"),
    ("algebroid.conv_mul.self_s", "s", "lower"),
    ("algebroid.conv_mul.useful_ratio", "ratio", "higher"),
    ("algebroid.table_mul.self_s", "s", "lower"),
    ("algebroid.delta.self_s", "s", "lower"),
    ("algebroid.antipode.self_s", "s", "lower"),
    ("algebroid.tensor.self_s", "s", "lower"),
    ("algebroid.axioms.self_s", "s", "lower"),
    ("algebroid.axioms.checked", "count", "higher"),
    ("algebroid.axioms.resampled", "count", "lower"),
    ("analysis.axioms.s", "s", "lower"),
    ("analysis.primitives.s", "s", "lower"),
    ("analysis.spectral.s", "s", "lower"),
    ("analysis.prim_action.s", "s", "lower"),
    ("analysis.theta.s", "s", "lower"),
    ("analysis.roundtrip.self_s", "s", "lower"),
    ("groupoid.isomorphic.self_s", "s", "lower"),
    ("modelio.load.self_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("enveloping.self_s", "s", "lower"),
    ("algebroid.self_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("groupoid.self_s", "s", "lower"),
    ("modelio.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

LAYERS = ("linalg", "enveloping", "algebroid", "analysis", "groupoid", "modelio")
STAGES = ("axioms", "primitives", "spectral", "prim_action", "theta")
# The analyze stages that ROADMAP's "axioms skipped" baseline adds up.
PIPELINE_STAGES = ("primitives", "spectral", "prim_action", "theta")

TENSOR_OPS = ("of_pair", "mul_pairwise", "delta_leg", "counit_leg", "right_mul_leg", "collapse")


def _count_rref(c, args, result, exc):
    m = args[0]
    c["linalg.rref.cells"] += m.rows * m.cols
    c["linalg.rref.nnz"] += sum(map(bool, chain.from_iterable(m.data)))


def _count_umul(c, args, result, exc):
    c["enveloping.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)
    if exc is not None:
        from finhopf.errors import TruncationOverflow

        c["enveloping.mul.overflows"] += isinstance(exc, TruncationOverflow)


def _count_conv_mul(c, args, result, exc):
    # mul walks every composable pair (h, k); a pair does useful work when
    # h carries a term of a and k a term of b.
    carrier, a, b = args[:3]
    g = carrier.groupoid
    right = {k for k, _m in b.coeffs}
    c["algebroid.conv_mul.walked"] += len(g.compose_table)
    c["algebroid.conv_mul.useful"] += sum(
        1 for h in {h for h, _m in a.coeffs} for k in right if (h, k) in g.compose_table
    )


def _count_axioms(c, args, result, exc):
    if result is not None:
        c["algebroid.axioms.checked"] += sum(check.checked for check in result.checks)
        c["algebroid.axioms.resampled"] += result.resampled


class Tracer:
    def __init__(self):
        self.spans = []     # span id -> (parent id, job index, name, start, end)
        self.jobs = []      # job index -> job key
        self.counters = []  # job index -> Counter
        self.job_index = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original raw value)

    # -- recording -----------------------------------------------------------

    def _count(self, parent, hook, args, result, exc):
        start = perf_counter()
        hook(self.counters[-1], args, result, exc)
        self.spans.append((parent, self.job_index, "trace.count", start, perf_counter()))

    @contextmanager
    def job(self, key):
        """Group the spans of one job under a root ``bench.job`` span."""
        self.jobs.append(key)
        self.counters.append(Counter())
        self.job_index = len(self.jobs) - 1
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (-1, self.job_index, "bench.job", start, perf_counter())
            self._stack.pop()

    def wrap(self, name, fn, hook=None):
        tracer, spans, stack = self, self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                spans[sid] = (parent, tracer.job_index, name, start, perf_counter())
                stack.pop()
                if hook is not None:
                    tracer._count(parent, hook, args, result, error)

        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr, name, hook=None, fn=None):
        """Replace ``owner.attr`` with a traced wrapper of ``fn`` (default: itself).

        The attribute must be defined on ``owner`` itself, so restoring it
        puts back exactly what was there.
        """
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__, hook))
        else:
            new = self.wrap(name, fn or raw, hook)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self):
        from finhopf import algebroid, analysis, enveloping, groupoid, linalg, modelio

        p = self.patch
        matrix = linalg.QMatrix
        p(matrix, "rref", "linalg.rref", _count_rref)
        for attr in ("nullspace", "rank", "solve", "inverse"):
            p(matrix, attr, f"linalg.{attr}")
        for module in (linalg, analysis):
            p(module, "rational_eigenvalues", "linalg.eigenvalues")

        u = enveloping.UElement
        for attr in ("mul", "__mul__"):
            p(u, attr, "enveloping.mul", _count_umul)
        for attr in ("transport", "antipode", "delta"):
            p(u, attr, f"enveloping.{attr}")

        p(algebroid.ConvolutionAlgebroid, "mul", "algebroid.conv_mul", _count_conv_mul)
        p(algebroid.TableAlgebroid, "mul", "algebroid.table_mul")
        for attr in ("delta", "antipode"):
            p(algebroid.HopfAlgebroid, attr, f"algebroid.{attr}")
        for attr in TENSOR_OPS:
            p(algebroid.FiberTensor, attr, "algebroid.tensor")
        p(algebroid, "check_axioms", "algebroid.axioms", _count_axioms)

        # The analyze stage span wraps the traced algebroid.axioms span.
        p(analysis, "check_axioms", "analysis.axioms", fn=algebroid.check_axioms)
        for attr, stage in (
            ("solve_primitives", "primitives"),
            ("build_spectral_groupoid", "spectral"),
            ("build_prim_action", "prim_action"),
            ("build_theta", "theta"),
            ("analyze", "analyze"),
            ("roundtrip", "roundtrip"),
        ):
            p(analysis, attr, f"analysis.{stage}")
        for module in (groupoid, analysis):
            p(module, "groupoid_isomorphic", "groupoid.isomorphic")
        p(modelio, "load_carrier", "modelio.load")

    def restore(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.restore()

    # -- results ---------------------------------------------------------------

    def _times(self):
        """Per (job index, name): (self seconds, inclusive seconds, calls)."""
        child = [0.0] * len(self.spans)
        for parent, _job, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, (_parent, job, name, start, end) in enumerate(self.spans):
            own, incl, calls = out.get((job, name), (0.0, 0.0, 0))
            out[(job, name)] = (own + end - start - child[sid], incl + end - start, calls + 1)
        return out

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every PER_LAYER metric, summed over the traced jobs."""
        own, incl, calls = Counter(), Counter(), Counter()
        for (_job, name), (s, i, n) in self._times().items():
            own[name] += s
            incl[name] += i
            calls[name] += n
        counts = sum(self.counters, Counter())
        values = {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        for name, v in own.items():
            values[f"{name}.self_s"] = v
            values[f"{name}.calls"] = calls[name]
        for stage in STAGES:
            values[f"analysis.{stage}.s"] = incl[f"analysis.{stage}"]
        values.update(counts)
        walked = counts["algebroid.conv_mul.walked"]
        values["algebroid.conv_mul.useful_ratio"] = (
            counts["algebroid.conv_mul.useful"] / walked if walked else 0.0
        )
        values["trace.wall_s"] = traced_wall_s
        values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        return {name: values.get(name, 0) for name, _unit, _better in PER_LAYER}

    def stage_table(self) -> dict:
        """Per job: inclusive analyze stage times and their pipeline sum."""
        times = self._times()
        table = {}
        for job, key in enumerate(self.jobs):
            row = {stage: times.get((job, f"analysis.{stage}"), (0, 0.0, 0))[1] for stage in STAGES}
            row["pipeline"] = sum(row[stage] for stage in PIPELINE_STAGES)
            row["job"] = times[(job, "bench.job")][1]
            table[key] = row
        return table

    def write(self, path, **meta):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({
                **meta,
                "jobs": self.jobs,
                "counters": [dict(c) for c in self.counters],
                "span_fields": ["parent", "job", "name", "start", "end"],
                "spans": self.spans,
            }, fh, separators=(",", ":"))
