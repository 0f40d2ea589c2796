"""Outside-in layer tracing for the traced benchmark run.

Nothing under ``src/`` knows about this module.  ``install`` replaces
public functions at the module boundaries of ``weyl_canon`` with
wrappers that open a span (name, start, end, parent, operation id), and
wraps ``scipy.integrate.solve_ivp`` / ``quad`` to count calls, solver
steps and right-hand-side evaluations.  Counts go to the innermost open
span.  Spans are kept in memory; ``summary`` turns them into per-layer
metrics, and the benchmark writes them out at the end of the run.

A replaced function is rebound wherever the original object is bound:
on its defining module or class and in the globals of every loaded
``weyl_canon`` module, so ``from .x import f`` bindings are caught as
well as attribute calls.  The scipy functions are also replaced on
``scipy.integrate`` and on their defining modules, so a later
``from scipy.integrate import quad`` inside a function still resolves
to the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time

_clock = time.perf_counter_ns

# (module, attribute, span name) for plain functions; class methods are
# listed separately.  Every span name is "<layer>.<what>".
FUNCTION_SPANS = (
    ("weyl_canon.measures", "parse_problem", "measures.build"),
    ("weyl_canon.propagation", "fundamental_matrix", "propagation.fundamental_matrix"),
    ("weyl_canon.propagation", "kernel_gram", "propagation.kernel_gram"),
    ("weyl_canon.weyl", "tau_profile", "weyl.tau_profile"),
    ("weyl_canon.weyl", "weyl_set", "weyl.weyl_set"),
    ("weyl_canon.weyl", "norm_lagrange", "weyl.norm_lagrange"),
    ("weyl_canon.classify", "deficiency_indices", "classify.deficiency_indices"),
    ("weyl_canon.classify", "definiteness", "classify.definiteness"),
    ("weyl_canon.classify", "trace_disks", "classify.trace_disks"),
    ("weyl_canon.classify", "classify_norm_growth", "classify.trend"),
    ("weyl_canon.classify", "classify_tau_trend", "classify.trend"),
    ("weyl_canon.classify", "detect_limit", "classify.trend"),
)
METHOD_SPANS = (
    ("weyl_canon.measures", "Problem", "__init__", "measures.build"),
    ("weyl_canon.measures", "CoefficientMeasure", "mass", "measures.mass"),
)
# (module, attribute, count key) for functions that are counted, not spanned
COUNTED_FUNCTIONS = (
    ("weyl_canon.expressions", "eval_expr", "eval_calls"),
    ("scipy.integrate", "quad", "quad_calls"),
    ("scipy.integrate", "solve_ivp", "ode_solves"),
)

SETUP_OP = -1      # operation id of spans opened outside a timed operation
ROOT_SPAN = "bench.op"


class Tracer:
    """Span stack and finished-span list for one single-threaded process."""

    def __init__(self):
        self.spans = []            # [op, id, parent, name, t0, t1, counts]
        self._stack = []
        self._next_id = 0
        self.op = SETUP_OP

    def open(self, name):
        span = [self.op, self._next_id,
                self._stack[-1][1] if self._stack else None,
                name, _clock(), None, {}]
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span):
        span[5] = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[3]} closed out of order")
        self.spans.append(span)

    def begin_op(self, op_id):
        """Open the root span of one timed operation."""
        self.op = op_id
        return self.open(ROOT_SPAN)

    def end_op(self, span):
        self.close(span)
        self.op = SETUP_OP

    def count(self, key, n=1):
        if self._stack:
            counts = self._stack[-1][6]
            counts[key] = counts.get(key, 0) + n

    def wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(tracer, result)
                return result
            finally:
                tracer.close(span)

        return traced

    def wrap_counter(self, fn, key, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.count(key)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return counted


# -- result hooks ------------------------------------------------------------

def _after_solve(tracer, sol):
    tracer.count("rhs_evals", int(sol.nfev))
    dense = getattr(sol, "sol", None)
    steps = len(dense.ts) - 1 if dense is not None else max(len(sol.t) - 1, 0)
    tracer.count("ode_steps", steps)


def _after_fundamental(tracer, fm):
    tracer.count("atoms_crossed", len(fm.crossings))


def _after_trace(tracer, trace):
    tracer.count("trace_points", len(trace.points))
    tracer.count("truncated_traces", int(trace.truncated_at is not None))


_RESULT_HOOKS = {
    "propagation.fundamental_matrix": _after_fundamental,
    "classify.trace_disks": _after_trace,
    "ode_solves": _after_solve,
}


def _rebind(replacements):
    """Point every weyl_canon module global bound to an original at its
    wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("weyl_canon"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                namespace[key] = wrapper[1]


def install(tracer):
    """Wrap the program's module boundaries and scipy's integrators.
    Call after ``import weyl_canon`` (and ``weyl_canon.cli`` when it is
    used)."""
    import importlib

    replacements = {}

    def replace(module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for owner in {module, sys.modules[original.__module__]}:
            setattr(owner, attr, wrapper)
        replacements[id(original)] = (original, wrapper)

    for module_name, attr, name in FUNCTION_SPANS:
        replace(module_name, attr,
                lambda fn, name=name: tracer.wrap(fn, name, _RESULT_HOOKS.get(name)))
    for module_name, attr, key in COUNTED_FUNCTIONS:
        replace(module_name, attr,
                lambda fn, key=key: tracer.wrap_counter(fn, key, _RESULT_HOOKS.get(key)))
    for module_name, cls_name, attr, name in METHOD_SPANS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name))
    _rebind(replacements)


# -- summary -------------------------------------------------------------------

# metric name -> span name whose self time it sums (per timed operation)
SELF_TIME_METRICS = {
    "propagation.fundamental_matrix_ms": "propagation.fundamental_matrix",
    "propagation.kernel_gram_ms": "propagation.kernel_gram",
    "weyl.tau_profile_ms": "weyl.tau_profile",
    "weyl.weyl_set_ms": "weyl.weyl_set",
    "weyl.norm_lagrange_ms": "weyl.norm_lagrange",
    "classify.deficiency_indices_self_ms": "classify.deficiency_indices",
    "classify.trace_disks_self_ms": "classify.trace_disks",
    "classify.definiteness_self_ms": "classify.definiteness",
    "classify.trend_ms": "classify.trend",
    "measures.mass_ms": "measures.mass",
}
# metric name -> (count key, span layer or None for any layer)
COUNT_METRICS = {
    "measures.quad_calls": ("quad_calls", "measures"),
    "weyl.quad_calls": ("quad_calls", "weyl"),
    "propagation.quad_calls": ("quad_calls", "propagation"),
    "expressions.eval_calls": ("eval_calls", None),
    "propagation.ode_solves": ("ode_solves", None),
    "propagation.ode_steps": ("ode_steps", None),
    "propagation.rhs_evals": ("rhs_evals", None),
    "propagation.atoms_crossed": ("atoms_crossed", None),
    "classify.trace_points": ("trace_points", None),
    "classify.truncated_traces": ("truncated_traces", None),
}


def self_times(spans):
    """{span id: self time in ns}: duration minus the union of its
    children's intervals (children of one span never overlap here)."""
    child_time = {}
    for op, sid, parent, name, t0, t1, counts in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0) + (t1 - t0)
    return {s[1]: (s[5] - s[4]) - child_time.get(s[1], 0) for s in spans}


def summary(spans):
    """Per-operation layer metrics over the timed operations (op >= 0),
    plus the build time per problem built over the whole process."""
    selfs = self_times(spans)
    timed = [s for s in spans if s[0] >= 0]
    roots = [s for s in timed if s[3] == ROOT_SPAN]
    n_ops = max(len(roots), 1)
    out = {}
    for metric, name in SELF_TIME_METRICS.items():
        total = sum(selfs[s[1]] for s in timed if s[3] == name)
        out[metric] = total / n_ops / 1e6
    for metric, (key, layer) in COUNT_METRICS.items():
        total = sum(s[6].get(key, 0) for s in timed
                    if layer is None or s[3].split(".", 1)[0] == layer)
        out[metric] = total / n_ops

    names = {s[1]: s[3] for s in spans}
    build_ns = sum(selfs[s[1]] for s in spans if s[3] == "measures.build")
    n_builds = sum(1 for s in spans if s[3] == "measures.build"
                   and names.get(s[2]) != "measures.build")
    out["measures.problem_build_ms"] = build_ns / max(n_builds, 1) / 1e6

    op_ns = [s[5] - s[4] for s in roots]
    out["trace.op_ms"] = sum(op_ns) / n_ops / 1e6
    out["trace.unattributed_ms"] = sum(selfs[s[1]] for s in roots) / n_ops / 1e6
    out["trace.attributed_ms"] = out["trace.op_ms"] - out["trace.unattributed_ms"]
    return out

