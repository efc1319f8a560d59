"""Spans around calls into the program's modules, recorded from outside.

``Tracer.install`` wraps, once at start-up:

* every public function a module defines, and every attribute of any
  ``jetweyl`` module bound to it (the modules import one another's names,
  and ``symmetry`` keeps its family constructors in a dict);
* the public methods of the classes a module defines, and the constructors
  named in ``CONSTRUCTORS``.

Each call becomes a span: name, start, end and the span that was open
when it began.  Spans stay in arrays in memory; ``summary`` computes self
times (span time minus the time of its child spans) and ``write`` puts the
raw spans on disk once, at the end.

Leaf helpers in ``SKIPPED`` are left unwrapped: they are called millions
of times for a few microseconds each, so a span around them would cost
more than their work.  Their time counts as self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from array import array
from time import perf_counter

import sympy as sp

LAYERS = ("exprcore", "dsl", "linalg", "jets", "fields", "symmetry",
          "invariants", "geometry", "equivalence", "cli")

CONSTRUCTORS = {"geometry": ("Solution",), "symmetry": ("PseudogroupElement",)}

SKIPPED = {
    "exprcore.jet", "exprcore.jet_info", "exprcore.is_jet_symbol",
    "exprcore.is_formal_symbol", "exprcore.formal_info", "exprcore.resolve_symbol",
    "exprcore.MultiIndex.bump", "exprcore.MultiIndex.drop", "exprcore.MultiIndex.word",
    "jets.JetPoint.value",
}

# span names the named per-layer metrics are read from
NORMALIZE = "exprcore.normalize"
PRINCIPAL = "jets.EquationSystem.principal_expr"
COEFF = "fields.ProlongedField.coeff"


class Tracer:
    """Span wrappers and the arrays they fill.  The observers that feed the
    named counts run after a span has closed and touch only plain
    attributes and sympy, never program code."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.normalize_changed = 0
        self.principal_keys: set = set()
        self.coeff_keys: set = set()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack
        )
        observe = {NORMALIZE: self._saw_normalize, PRINCIPAL: self._saw_principal,
                   COEFF: self._saw_coeff}.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return spanned

    def _saw_normalize(self, args, kwargs, result):
        arg = args[0] if args else kwargs["e"]
        if result != sp.sympify(arg):
            self.normalize_changed += 1

    def _saw_principal(self, args, kwargs, result):
        self.principal_keys.add((args[1], args[2]))

    def _saw_coeff(self, args, kwargs, result):
        # keyed by the field's components, not by the field: hashing a
        # PointField runs program code (normalize), which would be traced
        f = args[0].field
        dep = args[1] if len(args) > 1 else kwargs.get("dependent")
        idx = args[2] if len(args) > 2 else kwargs.get("index")
        self.coeff_keys.add(((f.at, f.ax, f.ay, f.fu, f.fv), dep, str(idx)))

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"jetweyl.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj) and f"{layer}.{attr}" not in SKIPPED:
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]

    def _wrap_class(self, layer: str, cls) -> None:
        wanted = [a for a in vars(cls) if not a.startswith("_")]
        wanted += [a for a in ("__init__",) if cls.__name__ in CONSTRUCTORS.get(layer, ())]
        for attr in wanted:
            name = f"{layer}.{cls.__name__}.{attr}"
            raw = vars(cls)[attr]
            if name in SKIPPED:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, raw))

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the observed counts."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        return {
            "spans": {name: [calls[k], self_s[k]] for k, name in enumerate(self.names)
                      if calls[k]},
            "normalize_changed": self.normalize_changed,
            "principal_entries": len(self.principal_keys),
            "coeff_distinct": len(self.coeff_keys),
        }

    def write(self, prefix: str) -> None:
        """Raw spans: ``prefix.json`` holds the names and the layout of
        ``prefix.bin`` (four arrays of ``count`` items, one after another)."""
        os.makedirs(os.path.dirname(prefix), exist_ok=True)
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)
        layout = [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]]
        with open(prefix + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "arrays": layout, "clock": "perf_counter"}, fh)
