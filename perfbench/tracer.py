"""Boundary tracing for one benchmark sample, installed from outside the package.

Every public boundary of the layers below is replaced by a timing wrapper:

    cli -> registry -> coulomb3d / coulomb2d / g2algebra / diffgeo / flagrep
        -> linsolve -> weyl -> coeffring

Module functions are replaced in every ``weylcalc`` namespace that holds them
(``decompose`` is imported by name into g2algebra and coulomb2d, ``poly_gcd``
recurses through coeffring's globals); methods are replaced on their class,
including aliases such as ``MultiPoly.__rmul__``.

Each wrapper counts calls, adds its duration to the name's total when it is
the outermost active call of that name, and charges its duration minus the
time of its child boundary calls (of any layer) to the name's and to its
layer's self time.  Spans (run id, id, name, start, end, parent span) are
kept in memory for every boundary except the coeffring ones: those run up to
hundreds of thousands of times per sample, so they are recorded as per-name
counts and times only, which keeps memory and overhead bounded.  Spans are
written out once, when the sample ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYER_MODULES = ("coulomb3d", "coulomb2d", "g2algebra", "diffgeo", "flagrep")

# (layer module, metric name, class or None, attribute)
EXPLICIT = (
    ("cli", "main", None, "main"),
    ("registry", "run_group", None, "run_group"),
    ("linsolve", "decompose", None, "decompose"),
    ("linsolve", "monomial_ops", None, "monomial_ops"),
    ("linsolve", "solver_add", "SparseSolver", "add"),
    ("weyl", "compose", "DiffOp", "compose"),
    ("weyl", "apply", "DiffOp", "apply"),
    ("coeffring", "poly_mul", "MultiPoly", "__mul__"),
    ("coeffring", "expr_make", "Expr", "make"),
    ("coeffring", "poly_gcd", None, "poly_gcd"),
)

LAYERS = ("cli", "registry") + LAYER_MODULES + ("linsolve", "weyl", "coeffring")

# layers whose boundaries are counted but not kept as individual spans
AGGREGATE_ONLY = {"coeffring"}


def import_layers():
    """Import every layer module, so by-name imports exist before patching."""
    return {name: importlib.import_module("weylcalc." + name) for name in LAYERS}


def _public_functions(mod):
    """Module-level public callables defined in mod (lru_cache wrappers too)."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield name, obj


class Tracer:
    """Wrappers, counters and spans of one sample."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {}       # "layer.name" -> [calls, outermost seconds, depth, self seconds]
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        self.spans = []       # (id, name, start, end, parent id)
        self._stack = []      # per active call: [child seconds]
        self._current = [None]  # id of the innermost active kept span
        self._undo = []       # (namespace, attribute, original)

    # -- installation ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        targets = []  # (layer, metric name, owner, attribute, raw function, staticmethod?)
        for layer, name, clsname, attr in EXPLICIT:
            mod = modules[layer]
            owner = getattr(mod, clsname) if clsname else mod
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            targets.append((layer, name, owner, attr, raw.__func__ if static else raw, static))
        for layer in LAYER_MODULES:
            mod = modules[layer]
            for name, fn in _public_functions(mod):
                targets.append((layer, name, mod, name, fn, False))
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "weylcalc"]
        for layer, name, owner, attr, fn, static in targets:
            wrapped = self._wrap(fn, "%s.%s" % (layer, name), layer)
            if static:
                self._patch(owner, attr, staticmethod(wrapped))
                continue
            if isinstance(owner, type):
                for key, value in list(vars(owner).items()):
                    if value is fn:  # the method and its aliases (__rmul__)
                        self._patch(owner, key, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every original, so later code runs untraced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        stat = self.stats.setdefault(name, [0, 0.0, 0, 0.0])
        layer_self = self.layer_self[layer]
        stack = self._stack
        clock = time.perf_counter

        if layer in AGGREGATE_ONLY:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stat[0] += 1
                stat[2] += 1
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stat[2] -= 1
                    if not stat[2]:
                        stat[1] += dur
                    stat[3] += dur - frame[0]
                    layer_self[0] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur

            return traced

        spans = self.spans
        current = self._current

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            stat[2] += 1
            frame = [0.0]
            stack.append(frame)
            parent = current[0]
            sid = len(spans)
            spans.append(None)
            current[0] = sid
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                current[0] = parent
                spans[sid] = (sid, name, t0, t1, parent)
                stack.pop()
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += dur
                stat[3] += dur - frame[0]
                layer_self[0] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        return traced

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        """Counts, outermost times and self times, by metric name."""
        out = {}
        for name, (calls, seconds, _, own) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = seconds
            out[name + ".self_s"] = own
        for layer, (seconds,) in self.layer_self.items():
            out[layer + ".self_s"] = seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
