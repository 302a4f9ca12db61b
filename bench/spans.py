"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every function and method the
tatelab layers define, plus the analysis artifact cache and the check
registry.  A wrapper opens a span when control enters a layer from another
layer, and always for the named entry points in ENTRY_POINTS and the
methods that feed a counter.  Other calls inside one layer pass straight
through, so a layer's self time is the time spent in its own code.  Functions the wrappers cannot see (closures, lambdas,
generators) are charged to the span that called them.

Spans live in four parallel arrays (name, parent, start, end) and are
written out when the run ends.  Self time of a span is its duration minus
the durations of its direct children; summed over all spans of an item it
equals the item's traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array

MODULES = ("lattice", "abelian", "groups", "gmodules", "cohomology", "cft",
           "tate_sequence", "unit_fixture", "instance_io", "analysis",
           "reporting")

# metric prefix -> (module, qualified name) of a named entry point
ENTRY_POINTS = {
    "lattice.snf": ("lattice", "_snf_data"),
    "lattice.kernel_basis": ("lattice", "kernel_basis"),
    "lattice.Lattice.add": ("lattice", "Lattice.add"),
    "lattice.IntMatrix.mul": ("lattice", "IntMatrix.mul"),
    "lattice.IntMatrix.init": ("lattice", "IntMatrix.__init__"),
    "abelian.FgAb.init": ("abelian", "FgAb.__init__"),
    "abelian.AbMap.solve": ("abelian", "AbMap.solve"),
    "abelian.Homology.init": ("abelian", "Homology.__init__"),
    "cohomology.TateComplex.ring_differential":
        ("cohomology", "TateComplex.ring_differential"),
    "cohomology.TateCohomology.homology":
        ("cohomology", "TateCohomology.homology"),
    "cohomology.connecting_hom": ("cohomology", "connecting_hom"),
}

_ENTRY_OF = {v: k for k, v in ENTRY_POINTS.items()}

ARTIFACTS = ("complex", "xy", "wrb", "script_h", "snake", "nabla",
             "norm_model", "cdc", "delta1")

# Dunder methods that run as real work; the rest (__eq__, __hash__, ...)
# are left alone.
_WRAPPED_DUNDERS = ("__init__", "__call__")

ITEM_SPAN = "bench.item"


def self_times(starts, ends, parents, lo=0, hi=None):
    """Self time of each span in [lo, hi): duration minus the durations of
    its direct children.  Parents precede their children."""
    hi = len(starts) if hi is None else hi
    out = [ends[k] - starts[k] for k in range(lo, hi)]
    for k in range(lo, hi):
        p = parents[k]
        if p >= lo:
            out[p - lo] -= ends[k] - starts[k]
    return out


def nested_self_times(starts, ends, parents, kept):
    """Self time of each span k with kept[k] true, counting only kept
    spans as children: duration minus the durations of the kept spans
    whose nearest kept ancestor it is.  Returns {index: seconds}."""
    nearest = [-1] * len(starts)
    out = {}
    for k, p in enumerate(parents):
        if p >= 0:
            nearest[k] = p if kept[p] else nearest[p]
        if kept[k]:
            d = ends[k] - starts[k]
            out[k] = out.get(k, 0.0) + d
            if nearest[k] >= 0:
                out[nearest[k]] -= d
    return out


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = []
        self.name_module = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._stack_module = [None]
        self._restore = []
        self.items = []
        self._item = None
        self.snf_calls = 0
        self.snf_repeats = 0
        self.snf_cells = 0
        self.snf_max_cells = 0
        self.mul_cells = 0
        self.calc_builds = 0
        self.calc_repeats = 0
        self.cochain_rank_max = 0
        # (layer, qualified name) -> (before, after) counter callbacks
        self._hooks = {
            ("lattice", "_snf_data"): (self._on_snf, None),
            ("lattice", "IntMatrix.mul"): (self._on_mul, None),
            ("cohomology", "TateComplex.cochain_group"):
                (None, self._on_cochain_group),
            ("cohomology", "TateCohomology.__init__"): (self._on_calc, None),
        }

    # -- spans -------------------------------------------------------------

    def name_id(self, name, module):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_module.append(module)
        return nid

    def _wrap(self, fn, name, module, always=False, pre=None, post=None):
        nid = self.name_id(name, module)
        stack, stack_module = self._stack, self._stack_module
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not always and stack_module[-1] == module:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            stack_module.append(module)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stack_module.pop()
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def item(self, subject, **sizes):
        """Context manager: one root span per item (instance or module)."""
        return _ItemSpan(self, subject, sizes)

    # -- install / remove --------------------------------------------------

    def _set(self, owner, key, value, is_dict=False):
        old = owner[key] if is_dict else owner.__dict__[key]
        self._restore.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self):
        """Wrap every layer function, the artifact cache and the checks."""
        mods = {m: importlib.import_module("tatelab." + m) for m in MODULES}
        replaced = {}  # id(original function) -> wrapper
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, mname)
                elif (inspect.isfunction(obj)
                      and obj.__module__ == mod.__name__
                      and not inspect.isgeneratorfunction(obj)
                      and not attr.startswith("_check_")):
                    replaced[id(obj)] = self._wrap_layer(obj, mname)
        # a function is rebound at every name it is looked up under
        namespaces = list(mods.values()) + [importlib.import_module("tatelab")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(ns, attr, replaced[id(obj)])
        self._install_analysis(mods["analysis"])

    def _wrap_layer(self, fn, mname):
        """Wrapper for a function of layer `mname`; named entry points and
        counter hooks always open a span."""
        key = (mname, fn.__qualname__)
        metric = _ENTRY_OF.get(key)
        pre, post = self._hooks.get(key, (None, None))
        return self._wrap(fn, metric or f"{mname}.{fn.__qualname__}", mname,
                          always=bool(metric or pre or post), pre=pre,
                          post=post)

    def _wrap_class(self, cls, mname):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                continue
            if cls.__name__ == "AnalysisContext" and attr == "get":
                continue  # replaced by the artifact wrapper
            kind = type(raw) if isinstance(raw, (staticmethod,
                                                 classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            wrapped = self._wrap_layer(fn, mname)
            self._set(cls, attr, kind(wrapped) if kind else wrapped)

    def _install_analysis(self, analysis):
        ctx_cls = analysis.AnalysisContext
        orig_get = ctx_cls.__dict__["get"]
        art = {}
        tracer = self

        def get(ctx, name):
            # a miss builds the artifact; a hit is a dictionary lookup
            if name in ctx._cache:
                return ctx._cache[name]
            if name not in art:
                art[name] = tracer._wrap(orig_get, f"analysis.artifact.{name}",
                                         "analysis", always=True)
            value = art[name](ctx, name)
            tracer._on_artifact(name, value)
            return value

        get.__wrapped__ = orig_get
        self._set(ctx_cls, "get", get)
        for cid, (anchor, fn) in list(analysis.CHECKS.items()):
            self._set(analysis.CHECKS, cid,
                      (anchor, self._wrap(fn, f"analysis.check.{cid}",
                                          "analysis", always=True)),
                      is_dict=True)

    def remove(self):
        """Undo every replacement, newest first."""
        while self._restore:
            owner, key, old, is_dict = self._restore.pop()
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- counters ----------------------------------------------------------

    def _on_snf(self, args):
        m = args[0]
        cells = m.rows * m.cols
        self.snf_calls += 1
        self.snf_cells += cells
        self.snf_max_cells = max(self.snf_max_cells, cells)
        if self._item is not None:
            key = (m.rows, m.cols, hash(m.entries))
            seen = self._item["_snf_seen"]
            if key in seen:
                self.snf_repeats += 1
            seen.add(key)

    def _on_mul(self, args):
        a, b = args
        self.mul_cells += a.rows * a.cols * b.cols

    def _on_cochain_group(self, group):
        self.cochain_rank_max = max(self.cochain_rank_max, group.n)
        if self._item is not None:
            self._item["sizes"].setdefault("cochain_ranks", set()).add(
                group.n)

    def _on_calc(self, args):
        self.calc_builds += 1
        if len(args) < 3:
            return
        complex_, module = args[1], args[2]
        if self._item is not None:
            pairs = self._item["_calc_pairs"]
            key = (id(complex_), id(module))
            if key in pairs:
                self.calc_repeats += 1
            pairs[key] = (complex_, module)  # keeps the ids from recycling

    def _on_artifact(self, name, value):
        if self._item is None:
            return
        sizes = self._item["sizes"]
        if name == "wrb":
            for part in ("w", "r", "b", "x"):
                sizes[f"rank_{part.upper()}"] = getattr(
                    value, part).underlying.n
        elif name == "xy":
            sizes["rank_X"] = value.x.underlying.n

    # -- results -----------------------------------------------------------

    def per_layer(self):
        """Calls and self time per layer and named entry point, and self
        time per artifact and check, over every span recorded."""
        selfs = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for k, s in enumerate(selfs):
            nid = self.name[k]
            calls[nid] += 1
            total[nid] += s
        out = {}
        for m in MODULES:
            out[f"{m}.calls"] = 0
            out[f"{m}.self_s"] = 0.0
        for metric in ENTRY_POINTS:
            out[f"{metric}.calls"] = 0
            out[f"{metric}.self_s"] = 0.0
        for nid, name in enumerate(self.names):
            mod = self.name_module[nid]
            if mod in MODULES:
                out[f"{mod}.calls"] += calls[nid]
                out[f"{mod}.self_s"] += total[nid]
            if name in ENTRY_POINTS:
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.self_s"] = total[nid]
        # Artifacts and checks: time under the span, lower layers included,
        # minus the artifacts built inside it, so a lazily built artifact is
        # charged to itself and not to the check that first asked for it.
        graph = [n.startswith(("analysis.artifact.", "analysis.check."))
                 for n in self.names]
        kept = [graph[nid] for nid in self.name]
        for k, sec in nested_self_times(self.start, self.end, self.parent,
                                        kept).items():
            key = f"{self.names[self.name[k]]}.self_s"
            out[key] = out.get(key, 0.0) + sec
        out["trace.remainder_s"] = sum(i["remainder_s"] for i in self.items)
        out["trace.spans"] = len(self.start)
        return out

    def counters(self):
        return {
            "lattice.snf.cells": self.snf_cells,
            "lattice.snf.max_cells": self.snf_max_cells,
            "lattice.snf.repeat_ratio": (self.snf_repeats / self.snf_calls
                                         if self.snf_calls else 0.0),
            "lattice.IntMatrix.mul.cells": self.mul_cells,
            "cohomology.cochain_rank.max": self.cochain_rank_max,
            "cohomology.TateCohomology.calls": self.calc_builds,
            "cohomology.TateCohomology.repeat_ratio": (
                self.calc_repeats / self.calc_builds
                if self.calc_builds else 0.0),
        }

    def write(self, path_stem):
        """Spans as raw arrays (<stem>.spans: int32 name, int32 parent,
        float64 start, float64 end, each array whole in that order) and the
        name table and per-item summaries as JSON (<stem>.json)."""
        with open(f"{path_stem}.spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"spans": len(self.start), "names": self.names,
                "name_module": self.name_module, "items": self.items}
        with open(f"{path_stem}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")


class _ItemSpan:
    def __init__(self, tracer, subject, sizes):
        self.tracer = tracer
        self.subject = subject
        self.sizes = dict(sizes)

    def __enter__(self):
        tr = self.tracer
        tr._item = {"sizes": self.sizes, "_snf_seen": set(),
                    "_calc_pairs": {}}
        self.nid = tr.name_id(ITEM_SPAN, "bench")
        self.idx = len(tr.start)
        tr.name.append(self.nid)
        tr.parent.append(tr._stack[-1])
        tr.end.append(0.0)
        tr._stack.append(self.idx)
        tr._stack_module.append("bench")
        tr.start.append(time.perf_counter())
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.end[self.idx] = time.perf_counter()
        tr._stack.pop()
        tr._stack_module.pop()
        tr._item = None
        lo, hi = self.idx, len(tr.start)
        selfs = self_times(tr.start, tr.end, tr.parent, lo, hi)
        by_module = {}
        for k, s in zip(range(lo, hi), selfs):
            mod = tr.name_module[tr.name[k]]
            by_module[mod] = by_module.get(mod, 0.0) + s
        remainder = by_module.pop("bench", 0.0)
        wall = tr.end[lo] - tr.start[lo]
        sizes = {k: (sorted(v) if isinstance(v, set) else v)
                 for k, v in self.sizes.items()}
        tr.items.append({"subject": self.subject, "wall_s": wall,
                         "remainder_s": remainder, "self_s": by_module,
                         "sizes": sizes})
        return False
