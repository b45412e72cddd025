"""Span recorder for the traced benchmark run.

The recorder wraps the public functions and methods of every haraux
module (the layers) from outside the package, rebinds every alias a
haraux module imported by name, and keeps one span per call in memory:
name, start, end, parent span, op id and whether the call raised. Self
time and the per-layer metrics are derived from the spans afterwards.
"""

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "core",
    "functions",
    "operators",
    "solvers",
    "bounds",
    "oracle",
    "gauges",
    "verification",
    "cli",
)

# ScalarLegendre methods run once per coordinate inside SeparableFunction
# loops; they are internal to the functions layer, and a span for each
# would multiply the span count (and the tracing overhead) by the
# dimension. Their time counts as self time of the calling method.
_SKIP_CLASSES = {"functions.ScalarLegendre"}

# Dunder methods that are part of the public call surface.
_PUBLIC_DUNDERS = {"__init__", "__call__"}

# error column values
NO_ERROR, ERROR_ORIGIN, ERROR_PROPAGATED = 0, 1, 2


class SpanRecorder:
    """In-memory span store. Columns are flat arrays, one entry per span."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.error = array("b")
        self.op_id = -1
        self._stack = []
        self._last_exc = None

    def intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.error.append(NO_ERROR)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx, exc=None):
        self.end[idx] = perf_counter()
        self._stack.pop()
        if exc is not None:
            # An exception object seen leaving a child span is propagating;
            # a new one originated in this span.
            self.error[idx] = ERROR_PROPAGATED if exc is self._last_exc else ERROR_ORIGIN
            self._last_exc = exc

    def columns(self):
        """The spans as numpy views (name ids index ``self.names``); record
        no further spans while they are in use."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.columns())


def _wrap(recorder, name, fn):
    nid = recorder.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.finish(idx, exc)
            raise
        recorder.finish(idx)
        return result

    return traced


PACKAGE = "haraux"


class Instrumentation:
    """Wraps the haraux layers into ``recorder``; ``uninstall`` restores
    every attribute it replaced."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._restore = []
        self.wrappers = {}  # id(original function) -> wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = _wrap(self.recorder, f"{layer}.{attr}", obj)
                    self.wrappers[id(obj)] = wrapper
                    self._set(mod, attr, wrapper)
                elif inspect.isclass(obj) and f"{layer}.{attr}" not in _SKIP_CLASSES:
                    self._wrap_class(layer, obj)
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = self.wrappers.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(mod, attr, wrapper)
        return self

    def _wrap_class(self, layer, cls):
        for mname, member in list(vars(cls).items()):
            if mname.startswith("_") and mname not in _PUBLIC_DUNDERS:
                continue
            span = f"{layer}.{cls.__name__}.{mname}"
            if inspect.isfunction(member):
                self._set(cls, mname, _wrap(self.recorder, span, member))
            elif isinstance(member, property) and member.fget is not None:
                getter = _wrap(self.recorder, span, member.fget)
                self._set(cls, mname, property(getter, member.fset, member.fdel, member.__doc__))

    def _package_modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def unwrapped_aliases(self):
        """Names ``module.attr`` in any package module that still hold an
        original function for which a wrapper exists."""
        return sorted(
            f"{mod.__name__}.{attr}"
            for mod in self._package_modules()
            for attr, obj in vars(mod).items()
            if id(obj) in self.wrappers and obj is not self.wrappers[id(obj)]
        )

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        self.wrappers.clear()


def self_times(start, end, parent):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from one thread, so they nest: children of a span lie
    inside it and never overlap each other, and the time they cover is the
    sum of their durations.
    """
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.shape[0])
    return duration - covered


_CLOSED_FORMS = ("bounds.burg_self_bound_closed", "bounds.fermi_dirac_bound_closed")


def layer_metrics(cols, names, n_ops):
    """Per-layer metrics from the spans of ``n_ops`` traced ops.

    Returns ``{metric: (value, unit)}`` and the raw totals behind each
    ratio. Counts and times are per op; spans recorded outside an op
    (op id -1, e.g. the benchmark's own output checks) are left out.
    """
    nid, parent = cols["name_id"], cols["parent"]
    in_op = cols["op"] >= 0
    self_t = self_times(cols["start"], cols["end"], parent)
    k = len(names)
    calls = np.bincount(nid[in_op], minlength=k)
    self_s = np.bincount(nid[in_op], weights=self_t[in_op], minlength=k)
    errors = np.bincount(nid[in_op & (cols["error"] == ERROR_ORIGIN)], minlength=k)

    def ids(pred):
        return np.array([i for i, n in enumerate(names) if pred(n)], dtype=np.int64)

    def total(column, pred):
        return float(column[ids(pred)].sum())

    def children_of(child_pred, parent_name):
        child = in_op & np.isin(nid, ids(child_pred)) & (parent >= 0)
        return child & np.isin(nid[np.maximum(parent, 0)], ids(lambda n: n == parent_name))

    out = {}
    for layer in LAYERS:
        in_layer = lambda n, pre=layer + ".": n.startswith(pre)
        out[f"{layer}.calls"] = (total(calls, in_layer) / n_ops, "count/op")
        out[f"{layer}.self_s"] = (total(self_s, in_layer) / n_ops, "s/op")
        out[f"{layer}.errors"] = (total(errors, in_layer) / n_ops, "count/op")

    method = lambda suffix: (lambda n: n.startswith("functions.") and n.endswith(suffix))
    out["core.as_vector.calls"] = (total(calls, lambda n: n == "core.as_vector") / n_ops, "count/op")
    out["functions.gradient.self_s"] = (total(self_s, method(".gradient")) / n_ops, "s/op")
    out["functions.grad_conj.self_s"] = (total(self_s, method(".grad_conj")) / n_ops, "s/op")
    affine_init = lambda n: n == "operators.AffineOp.__init__"
    out["operators.AffineOp.init.calls"] = (total(calls, affine_init) / n_ops, "count/op")
    out["operators.AffineOp.init.self_s"] = (total(self_s, affine_init) / n_ops, "s/op")

    resolvents = total(calls, lambda n: n == "solvers.solve_resolvent")
    scalars = total(calls, lambda n: n == "solvers.solve_scalar_increasing")
    out["solvers.solve_resolvent.calls"] = (resolvents / n_ops, "count/op")
    out["solvers.solve_scalar_increasing.calls"] = (scalars / n_ops, "count/op")
    out["solvers.scalar_per_resolvent"] = (scalars / resolvents if resolvents else 0.0, "ratio")

    # A solve_resolvent call inside a bound_bregman call that took a closed
    # form only feeds the diagnostics: the closed form is the value.
    closed_route = np.zeros(nid.shape[0], dtype=bool)
    closed_route[parent[children_of(lambda n: n in _CLOSED_FORMS, "bounds.bound_bregman")]] = True
    crosscheck = int(closed_route[parent[children_of(
        lambda n: n == "solvers.solve_resolvent", "bounds.bound_bregman")]].sum())
    out["bounds.crosscheck_share"] = (crosscheck / resolvents if resolvents else 0.0, "frac")

    sampled = int(children_of(lambda n: n.endswith(".apply"), "oracle.sample_graph").sum())
    refinements = int(children_of(lambda n: n == "oracle.refine", "oracle.verify_bound").sum())
    out["oracle.sample_graph.points"] = (sampled / n_ops, "count/op")
    out["oracle.sample_graph.self_s"] = (
        total(self_s, lambda n: n == "oracle.sample_graph") / n_ops, "s/op")
    out["oracle.verify_bound.refinements"] = (refinements / n_ops, "count/op")

    bases = {
        "ops": n_ops,
        "spans": int(in_op.sum()),
        "solve_resolvent": int(resolvents),
        "solve_scalar_increasing": int(scalars),
        "crosscheck_resolvents": crosscheck,
        "sample_graph_points": sampled,
        "verify_bound_refinements": refinements,
    }
    return out, bases
