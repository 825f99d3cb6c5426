"""Outside-in tracer: spans and counts around the package's public functions.

The tracer wraps every public function defined in the layer modules and
rebinds the wrapper in every loaded ``kch`` namespace that bound the
original by name (``kch.cli`` imports ``simplify`` and others directly,
``kch.augment.aug_signature`` imports them at call time from the defining
module).  ``NCPoly.__mul__`` and ``NCPoly.substitute`` get count-only
wrappers.  Spans stay in memory until summary() turns them into the
per-layer metrics; a name that no longer exists is reported as missing.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

LAYERS = ("diagram", "dga", "hc0", "augment", "augpoly")

# Spans and counts the per-layer metrics are computed from.
REQUIRED = ("diagram.parse_pd", "diagram.crossing_data", "dga.build_dga",
            "dga.check_d_squared", "dga.check_grading",
            "hc0.extract_presentation", "hc0.simplify",
            "augment.count_augmentations", "augpoly.augmentation_polynomial")
COUNTED = ("__mul__", "substitute")  # methods of kch.ncalg.NCPoly


def _observe_simplify(args, kwargs, pres):
    before = args[0] if args else kwargs["pres"]
    words = [len(w) for r in pres.relations for w in r.terms]
    return {"generators_out": len(pres.generators),
            "relations_out": len(pres.relations),
            "terms_out": len(words),
            "max_word_out": max(words, default=0),
            "eliminations": (len(pres.substitution_log)
                             - len(before.substitution_log))}


def _observe_count(args, kwargs, table):
    pres = args[0] if args else kwargs["pres"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    return {"search_space": (p - 1) ** 2 * p ** len(set(pres.generators)),
            "found": table.total()}


def _observe_augpoly(args, kwargs, res):
    return {"supported": int(bool(res.supported))}


OBSERVERS = {
    "hc0.simplify": _observe_simplify,
    "augment.count_augmentations": _observe_count,
    "augpoly.augmentation_polynomial": _observe_augpoly,
}


class Tracer:
    """Install with install(), mark each operation with begin_op(), read
    the metrics with summary(), and restore the package with uninstall()."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, op id)
        self.stack = []
        self.op = None
        self.ops = []          # (op id, start, end)
        self.counts = collections.Counter()
        self.observed = collections.defaultdict(list)
        self.missing = []
        self.observers = dict(OBSERVERS)
        self._undo = []

    # -- installation -------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if name in self.observers:
                self._observe(name, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, args, kwargs, result):
        """Record size counters from a call's arguments and result; a
        result whose shape changed is reported once as missing."""
        try:
            self.observed[name].append(
                self.observers[name](args, kwargs, result))
        except (AttributeError, TypeError, KeyError, IndexError):
            del self.observers[name]
            self.missing.append(name + ":result")

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items()) if m is not None
                and (name == "kch" or name.startswith("kch."))]
        wrappers = {}  # id(original) -> (original, wrapper)
        wrapped = set()
        for layer in LAYERS:
            mod = sys.modules.get("kch." + layer)
            if mod is None:
                self.missing.append("kch." + layer)
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    name = "%s.%s" % (layer, attr)
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
                    wrapped.add(name)
        self.missing += [n for n in REQUIRED if n not in wrapped]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        cls = getattr(sys.modules.get("kch.ncalg"), "NCPoly", None)
        for meth in COUNTED:
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.missing.append("ncalg.NCPoly." + meth)
                continue
            setattr(cls, meth, self._count("ncalg." + meth, fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self, op_id, start, end):
        self.ops.append((op_id, start, end))
        self.op = None

    # -- metrics ------------------------------------------------------

    def summary(self):
        """Per-layer metrics over the operations recorded so far."""
        n_ops = max(len(self.ops), 1)
        wall = max(sum(t1 - t0 for _, t0, t1 in self.ops), 1e-9)
        busy = collections.Counter()
        calls = collections.Counter()
        layer_busy = collections.Counter()
        top_level = 0.0
        for name, t0, t1, parent, _ in self.spans:
            dur = t1 - t0
            busy[name] += dur
            calls[name] += 1
            layer = name.split(".")[0]
            if parent is None:
                top_level += dur
            if parent is None or self.spans[parent][0].split(".")[0] != layer:
                layer_busy[layer] += dur
        obs = self.observed

        def mean(name, key):
            vals = [o[key] for o in obs.get(name, ())]
            return sum(vals) / len(vals) if vals else 0.0

        simp, count = "hc0.simplify", "augment.count_augmentations"
        dga = (busy["dga.build_dga"] + busy["dga.check_d_squared"]
               + busy["dga.check_grading"])
        space = sum(o["search_space"] for o in obs.get(count, ()))
        found = sum(o["found"] for o in obs.get(count, ()))
        return {
            "hc0.simplify.busy_s": busy[simp] / n_ops,
            "hc0.simplify.share": busy[simp] / wall,
            "hc0.simplify.calls_per_op": calls[simp] / n_ops,
            "hc0.terms_out": mean(simp, "terms_out"),
            "hc0.max_word_out": max((o["max_word_out"]
                                     for o in obs.get(simp, ())), default=0),
            "hc0.generators_out": mean(simp, "generators_out"),
            "hc0.relations_out": mean(simp, "relations_out"),
            "hc0.eliminations": mean(simp, "eliminations"),
            "hc0.extract.busy_s": busy["hc0.extract_presentation"] / n_ops,
            "diagram.busy_s": layer_busy["diagram"] / n_ops,
            "diagram.crossing_data.calls_per_op":
                calls["diagram.crossing_data"] / n_ops,
            "cli.self_s": (wall - top_level) / n_ops,
            "augment.count.busy_s": busy[count] / n_ops,
            "augment.count.share": busy[count] / wall,
            "augment.search_space": space / n_ops,
            "augment.hit_ratio": found / space if space else 0.0,
            "dga.build.busy_s": busy["dga.build_dga"] / n_ops,
            "dga.check.busy_s": (busy["dga.check_d_squared"]
                                 + busy["dga.check_grading"]) / n_ops,
            "dga.share": dga / wall,
            "ncalg.mul_calls": self.counts["ncalg.__mul__"] / n_ops,
            "ncalg.substitute_calls": self.counts["ncalg.substitute"] / n_ops,
            "augpoly.busy_s": layer_busy["augpoly"] / n_ops,
            "augpoly.supported_frac": mean("augpoly.augmentation_polynomial",
                                           "supported"),
            "trace.missing": len(self.missing),
        }
