"""Span tracing of nilform's layers from outside the library.

The tracer wraps public functions and methods of the library in place for
the duration of a ``with instrument(tracer):`` block and restores them
afterwards.  Nothing under ``src/`` is edited: a wrapped module-level
function is rebound in every ``nilform`` module that imported it by name
(``from .linalg import rank``), and methods are patched on their class.

Spans are kept in memory as ``[name, start, end, parent, item, attrs]``
lists and written out once, after the traced pass.  A layer's self time is
its span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager

from nilform.invariants import CHAR_SEQUENCE_SAMPLES


def _candidates(args, kwargs, result):
    g = args[0]
    return {"candidates": g.dim + kwargs.get("samples", CHAR_SEQUENCE_SAMPLES)}


def _unknowns(args, kwargs, result):
    return {"unknowns": args[0].dim ** 2}


def _witness_hit(args, kwargs, result):
    return {"hit": result is not None}


# (module, function, span name, attribute recorder)
FUNCTIONS = [
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "nilpotent_jordan_profile", "linalg.nilpotent_jordan_profile", None),
    ("linalg", "sparse_kernel", "linalg.sparse_kernel", None),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None),
    ("linalg", "inverse", "linalg.inverse", None),
    ("invariants", "char_sequence", "invariants.char_sequence", _candidates),
    ("derivations", "derivation_space", "derivations.derivation_space", _unknowns),
    ("derivations", "derivation_algebra", "derivations.derivation_algebra", None),
    ("derivations", "diagonal_derivations", "derivations.diagonal_derivations", None),
    ("derivations", "diagonal_witness", "derivations.diagonal_witness", _witness_hit),
    ("derivations", "is_characteristically_nilpotent",
     "derivations.is_characteristically_nilpotent", None),
    ("template", "instantiate", "template.instantiate", None),
    ("template", "template_match", "template.template_match", None),
    ("catalog", "build", "catalog.build", None),
]

# (module, class, method, span name)
METHODS = [
    ("lie", "LieAlgebra", "ad", "lie.ad"),
    ("lie", "LieAlgebra", "lower_central_series", "lie.lower_central_series"),
    ("lie", "LieAlgebra", "derived_subalgebra", "lie.derived_subalgebra"),
    ("lie", "LieAlgebra", "center", "lie.center"),
    ("lie", "LieAlgebra", "change_basis", "lie.change_basis"),
    ("lie", "Subspace", "span", "lie.Subspace.span"),
]

LAYERS = [name for *_, name, _ in FUNCTIONS] + [name for *_, name in METHODS]


class Tracer:
    """In-memory span recorder; one instance per traced pass.

    `clock` is the benchmark's probe-free clock, so speed probes that fire
    inside a span do not count toward it.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.item = None

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, item):
        """Open a top-level span for one benchmark step; returns a closer."""
        self.item = item
        rec = [f"step:{item}", self.clock(), None, -1, item, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)

        def close():
            self._stack.pop()
            rec[2] = self.clock()

        return close

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        children = [[] for _ in self.spans]
        for idx, (_, _, _, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(idx)
        out = []
        for idx, (_, start, end, _, _, _) in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children[idx]):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((end - start) - covered)
        return out

    def layer_metrics(self, factor):
        """calls/self_s for every layer plus the derived per-layer counts.

        Self times are multiplied by `factor`, the traced cycle's speed
        normalization.
        """
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        candidates = profiles = unknowns = verdicts = witnessed = 0
        for (name, _, _, parent, _, attrs), own in zip(self.spans, self.self_times()):
            if name not in calls:
                continue                              # step roots
            calls[name] += 1
            self_s[name] += own * factor
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "invariants.char_sequence":
                candidates += attrs["candidates"]
            elif name == "linalg.nilpotent_jordan_profile" and parent_name == "invariants.char_sequence":
                profiles += 1
            elif name == "derivations.derivation_space":
                unknowns += attrs["unknowns"]
            elif name == "derivations.is_characteristically_nilpotent":
                verdicts += 1
            elif (name == "derivations.diagonal_witness" and attrs["hit"]
                  and parent_name == "derivations.is_characteristically_nilpotent"):
                witnessed += 1
        metrics = {}
        for name in LAYERS:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics["invariants.char_sequence.profiles_per_call"] = (
            profiles / candidates if candidates else 0.0, "ratio")
        metrics["derivations.derivation_space.unknowns"] = (unknowns, "count")
        metrics["derivations.charnilp.witness_ratio"] = (
            witnessed / verdicts if verdicts else 0.0, "ratio")
        return metrics

    def dump(self, path):
        """Write one JSON array per span: id, parent, item, name, start, end."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, item, attrs) in enumerate(self.spans):
                row = [idx, parent, item, name, start, end]
                if attrs:
                    row.append(attrs)
                fh.write(json.dumps(row) + "\n")


def _rebind(orig, replacement, undo):
    """Point every nilform module attribute bound to orig at replacement."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "nilform" or modname.startswith("nilform.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, orig))


@contextmanager
def instrument(tracer: Tracer):
    """Route every call into the traced layers through tracer spans."""
    undo = []
    try:
        for modname, fname, name, attrs in FUNCTIONS:
            mod = importlib.import_module(f"nilform.{modname}")
            orig = getattr(mod, fname)
            _rebind(orig, tracer.wrap(name, orig, attrs), undo)
        for modname, clsname, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"nilform.{modname}"), clsname)
            orig = cls.__dict__[meth]
            if isinstance(orig, staticmethod):
                wrapped = staticmethod(tracer.wrap(name, orig.__func__))
            else:
                wrapped = tracer.wrap(name, orig)
            setattr(cls, meth, wrapped)
            undo.append((cls, meth, orig))
        yield tracer
    finally:
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)
