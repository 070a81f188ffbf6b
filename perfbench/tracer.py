"""In-memory span tracer installed around geoplasma's public functions.

The tracer lives in the benchmark, not in the library: it replaces each
traced function with a wrapper on every ``geoplasma`` module that bound
the name (``from .dual import seed`` copies the binding, so patching
``geoplasma.dual`` alone would miss most calls), and wraps the Jet
arithmetic operators on the class.  Each wrapper pushes a frame, runs the
original, and on exit adds its duration to the parent's child time, so a
function's self time is its duration minus the time its traced children
cover.

Spans (id, parent, name, start, end) are kept in memory and written out
at the end.  Two hot paths are aggregated instead of kept as spans, to
bound memory: Jet operators (millions of calls) and nested
``expr.evaluate`` calls (one per expression node; only the outermost
call of a tree walk is timed, the inner ones are only counted).
"""

from __future__ import annotations

import sys
import time

# (module, attribute) pairs traced as spans; names follow the library.
TRACED_FUNCTIONS = (
    ("scenario", "load_scenario"),
    ("scenario", "evaluation_points"),
    ("scenario", "sheet_axes_and_values"),
    ("expr", "evaluate"),
    ("dual", "seed"),
    ("tensor_core", "invert_symmetric"),
    ("riemann", "riemann_report"),
    ("lagrange", "h_stream_line_rhs"),
    ("lagrange", "v_stream_constraint_residual"),
    ("lagrange", "resolve_epsilon0"),
    ("multitime", "metric_compatibility"),
    ("multitime", "multitime_residuals"),
    ("multitime", "cartan_gamma"),
    ("multitime", "stream_sheet_residuals"),
    ("multitime", "prolong_sheet"),
    ("verify", "invariants_at"),
)

JET_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)
JET_OPS_NAME = "dual.jet_ops"
EVALUATE_NAME = "expr.evaluate"
ROOT_NAME = "cli.main"


class Tracer:
    """Stack of open frames plus per-name aggregates and recorded spans."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        # frame: [name, span_id, start_ns, child_ns]
        self.stack = []
        self.spans = []          # (id, parent_id, name, start_ns, end_ns)
        self.calls = {}
        self.self_ns = {}
        self.parent_calls = {}   # (parent name, name) -> calls
        self._next_id = 1
        self._installed = []

    # -- recording ---------------------------------------------------------

    def open_span(self, name):
        span_id = self._next_id
        self._next_id += 1
        self.stack.append([name, span_id, self.clock(), 0])

    def close_span(self, keep_span):
        end = self.clock()
        name, span_id, start, child = self.stack.pop()
        dur = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
            key = (parent[0], name)
            self.parent_calls[key] = self.parent_calls.get(key, 0) + 1
        if keep_span:
            self.spans.append((span_id, parent[1] if parent else 0, name, start, end))

    def wrap(self, name, fn, keep_span=True):
        tracer = self

        def traced(*args, **kwargs):
            tracer.open_span(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close_span(keep_span)

        return traced

    def wrap_evaluate(self, fn):
        """Count every node visit; open a span only for the outermost call."""
        tracer = self
        stack = self.stack

        def traced(node, binding):
            if stack and stack[-1][0] == EVALUATE_NAME:
                tracer.calls[EVALUATE_NAME] += 1
                return fn(node, binding)
            tracer.open_span(EVALUATE_NAME)
            try:
                return fn(node, binding)
            finally:
                tracer.close_span(True)

        self.calls.setdefault(EVALUATE_NAME, 0)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a geoplasma module bound it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "geoplasma" or name.startswith("geoplasma.")]
        for mod_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"geoplasma.{mod_name}"], attr)
            span_name = f"{mod_name}.{attr}"
            if span_name == EVALUATE_NAME:
                wrapper = self.wrap_evaluate(original)
            else:
                wrapper = self.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, value))
                        setattr(mod, key, wrapper)
        jet = sys.modules["geoplasma.dual"].Jet
        for op in JET_OPS:
            original = jet.__dict__[op]
            self._installed.append((jet, op, original))
            setattr(jet, op, self.wrap(JET_OPS_NAME, original, keep_span=False))

    def uninstall(self):
        for owner, key, value in reversed(self._installed):
            setattr(owner, key, value)
        self._installed.clear()

    # -- output ------------------------------------------------------------

    def summary(self):
        """Per-name calls and self seconds, plus parent->child call counts."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())},
            "parent_calls": {f"{p}>{c}": n
                             for (p, c), n in sorted(self.parent_calls.items())},
        }

    def write_spans(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%d,%d\n" % span)
