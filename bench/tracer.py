"""Spans around galoiskit's public functions, installed from outside the engine.

Each public function of a layer module is wrapped once and the wrapper is
rebound in every ``galoiskit`` namespace that holds the original, so a call
through ``splitting``'s own ``factor_over_Q`` binding is seen as well.  The
engine's source is not touched.  Arithmetic operators are not wrapped: their
cost lands in the calling layer's self time.
"""

import functools
import importlib
import inspect
import sys
import time
import weakref

LAYERS = ("cli", "parsing", "poly", "qfactor", "numfield", "linalg", "splitting",
          "galois", "permgroup", "radical", "checks")

METHODS = (("numfield", "FieldTower", "adjoin"),
           ("galois", "GaloisGroup", "subgroup_indices_closure"))

# Called thousands of times per job for almost no work each: a span would
# cost more than the call and would swamp the trace.
UNWRAPPED = frozenset({"numfield.q_coords", "numfield.element_sort_key",
                       "poly.render_coeff", "checks.collect_checks"})


class Tracer:
    """Records spans as [name, start, end, parent index] plus work counters."""

    def __init__(self):
        self.spans = []
        self.open = []  # indices into spans, outermost first
        self.counters = {}
        self._seen_fields = weakref.WeakSet()

    def wrap(self, name, fn):
        observe = _OBSERVERS.get(name)
        spans, stack, clock = self.spans, self.open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def count(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def open_chain(self):
        """Names of the spans still open, outermost first."""
        return [self.spans[i][0] for i in self.open]

    def summary(self):
        """Per-function calls and inclusive time, and per-layer self time.

        A function's inclusive time counts only its outermost activation, so
        recursion is not counted twice.  Self time is a span's duration minus
        the time its child spans cover.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        functions = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        for name, start, end, parent in spans:
            dur = end - start
            if parent is not None:
                child_time[parent] += dur
            stat = functions.setdefault(name, {"calls": 0, "total_s": 0.0})
            stat["calls"] += 1
            up = parent
            while up is not None and spans[up][0] != name:
                up = spans[up][3]
            if up is None:
                stat["total_s"] += dur
        for i, (name, start, end, _) in enumerate(spans):
            self_s[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return {"functions": functions, "self_s": self_s, "counters": dict(self.counters),
                "spans": len(spans)}


def _factor_over_q(tracer, args, result):
    tracer.count("qfactor.factor_over_Q.degree_sum", args[0].degree)
    tracer.count("qfactor.factor_over_Q.split", int(len(result.factors) > 1))


def _is_squarefree_q(tracer, args, result):
    tracer.count("qfactor.is_squarefree_q.true", int(bool(result)))


def _norm_polynomial(tracer, args, result):
    tracer.count("numfield.norm_polynomial.degree_sum", result.degree)


def _splitting_field(tracer, args, result):
    tracer.count("splitting.splitting_field.degree_sum", result.degree)


def _galois_group(tracer, args, result):
    field = args[0]
    if field not in tracer._seen_fields:
        tracer._seen_fields.add(field)
        tracer.count("galois.galois_group.enumerations")


_OBSERVERS = {
    "qfactor.factor_over_Q": _factor_over_q,
    "qfactor.is_squarefree_q": _is_squarefree_q,
    "numfield.norm_polynomial": _norm_polynomial,
    "splitting.splitting_field": _splitting_field,
    "galois.galois_group": _galois_group,
}


def install(tracer):
    """Wrap every public function of each layer and rebind it everywhere."""
    modules = {layer: importlib.import_module(f"galoiskit.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items()
                  if n == "galoiskit" or n.startswith("galoiskit.")]
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            wrapped = tracer.wrap(name, obj)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is obj]:
                    setattr(ns, key, wrapped)
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
