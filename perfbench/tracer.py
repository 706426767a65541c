"""In-memory spans and counters around the hopfgal layers, installed from outside.

The tracer patches the public callables of each layer module (and the
handful of private helpers whose calls are counted) with thin wrappers.  A
wrapper opens a span only when the call crosses from one layer into another
(or arrives from outside every layer); a call that stays inside its own
layer is only counted, which keeps the overhead low on hot paths such as
``Perm.__mul__`` or ``CycloElt.__add__``.

A layer's self time is the time of its spans minus the time of the child
spans opened in other layers; work done by the standard library
(``Fraction``, built-ins) is charged to the layer that called it.  Spans and
counters stay in memory and are read out once with ``Tracer.metrics()``.
Self times are measured under tracing, so they are inflated by the wrapper
cost; the run reports ``trace.overhead_ratio`` next to them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("cyclotomic", "groupring", "hopfgalois", "profinite", "linalg",
          "smash_end", "variants", "gp_enum")

# Dunders left unwrapped: comparisons, hashing and rendering are cheap and
# called constantly; their time is charged to the caller.
_SKIP = {"__eq__", "__hash__", "__repr__", "__bool__", "__setattr__",
         "__delattr__", "__lt__", "__le__", "__gt__", "__ge__", "__call__",
         "__contains__"}

# counter name -> (layer module, qualified name) of the counted callable
COUNTED = {
    "cyclotomic.elt_new": ("cyclotomic", "CycloElt.__init__"),
    "cyclotomic.add_calls": ("cyclotomic", ("CycloElt.__add__", "CycloElt.__radd__",
                                            "CycloElt.__sub__", "CycloElt.__rsub__")),
    "cyclotomic.mul_calls": ("cyclotomic", ("CycloElt.__mul__", "CycloElt.__rmul__")),
    "cyclotomic.shift_calls": ("cyclotomic", "CycloElt.shift"),
    "cyclotomic.reduce_calls": ("cyclotomic", "reduce_terms"),
    "cyclotomic.exp_terms_calls": ("cyclotomic", "_exp_terms"),
    "groupring.diag_action_calls": ("groupring", "diag_action_unit"),
    "groupring.elt_new": ("groupring", "GroupRingElt.__init__"),
    "hopfgalois.e_basis_calls": ("hopfgalois", "e_basis"),
    "hopfgalois.from_groupring_calls": ("hopfgalois", "hopf_from_groupring"),
    "hopfgalois.to_groupring_calls": ("hopfgalois", "hopf_to_groupring"),
    "hopfgalois.dual_pairing_calls": ("hopfgalois", "dual_pairing"),
    "profinite.nu_groupring_calls": ("profinite", "nu_groupring"),
    "linalg.echelon_inserts": ("linalg", "SparseEchelon.insert"),
    "linalg.dense_rref_calls": ("linalg", ("rref", "field_rref")),
    "smash_end.mult_calls": ("smash_end", "smash_mult"),
    "smash_end.end_matrix_calls": ("smash_end", "to_end_matrix"),
    "smash_end.decompose_calls": ("smash_end", "decompose_endomorphism"),
    "variants.h_variant_calls": ("variants", "h_variant"),
    "variants.apply_calls": ("variants", "VariantHopfElt.apply"),
    "gp_enum.perm_mul_calls": ("gp_enum", "Perm.__mul__"),
    "gp_enum.perm_new": ("gp_enum", "Perm.__post_init__"),
    "gp_enum.assignments_tried": ("gp_enum", "_pair_closure_is_graph"),
}

# private helpers that get a wrapper although they are not public
_PRIVATE_WRAPPED = {"cyclotomic": ("_exp_terms",),
                    "gp_enum": ("_pair_closure_is_graph", "_label_cosets",
                                "_holomorph_search")}


# which end-to-end metric each layer's numbers should move, and on which workload
MOVES = {
    "cyclotomic": "verdict_s and peak_rss_mb on tower, less on kernels; "
                  "latency_p99_ms on queries (basis requests)",
    "stdlib": "as cyclotomic: Fraction work is charged to the calling layer",
    "groupring": "verdict_s on tower",
    "hopfgalois": "verdict_s on tower",
    "profinite": "verdict_s on tower",
    "linalg": "verdict_s on kernels, about 5% of tower",
    "smash_end": "latency_p99_ms and req_per_s on queries, verdict_s on kernels",
    "variants": "verdict_s on kernels and tower",
    "gp_enum": "verdict_s on census only; zero on every other workload",
    "trace": "none: traced verdict_s over untraced verdict_s of the same run",
}


class Tracer:
    """Spans and counters for one traced pass; `install` ... `uninstall`."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts = {name: 0 for name in COUNTED}
        self.counts.update({"stdlib.fraction_new": 0,
                            "linalg.echelon_rank_gains": 0,
                            "linalg.dense_rref_cells": 0,
                            "gp_enum.closure_rejects": 0,
                            "gp_enum.label_rejects": 0,
                            "gp_enum.subgroups_found": 0})
        self.spans = 0
        # stack entries: [layer, start, time of child spans in other layers]
        self._stack = [[None, 0.0, 0.0]]
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer, counters, post=None):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            for name in counters:
                counts[name] += 1
            if stack[-1][0] == layer:
                out = fn(*args, **kwargs)
            else:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
                tracer.spans += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - frame[1]
                    stack.pop()
                    self_s[layer] += elapsed - frame[2]
                    stack[-1][2] += elapsed
            if post is not None:
                post(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _post_hooks(self):
        counts = self.counts

        def echelon_insert(args, gained):
            if gained:
                counts["linalg.echelon_rank_gains"] += 1

        def dense_rref(args, out):
            rows = args[0]
            counts["linalg.dense_rref_cells"] += (
                len(rows) * len(rows[0]) if len(rows) else 0)

        def pair_closure(args, graph):
            if graph is None:
                counts["gp_enum.closure_rejects"] += 1

        def label(args, labels):
            if labels is None:
                counts["gp_enum.label_rejects"] += 1

        def search(args, found):
            counts["gp_enum.subgroups_found"] += len(found)

        return {("linalg", "SparseEchelon.insert"): echelon_insert,
                ("linalg", "rref"): dense_rref,
                ("linalg", "field_rref"): dense_rref,
                ("gp_enum", "_pair_closure_is_graph"): pair_closure,
                ("gp_enum", "_label_cosets"): label,
                ("gp_enum", "_holomorph_search"): search}

    # -- installation ----------------------------------------------------------

    def install(self):
        counters_of: dict[tuple[str, str], list[str]] = {}
        for name, (layer, qualnames) in COUNTED.items():
            if isinstance(qualnames, str):
                qualnames = (qualnames,)
            for q in qualnames:
                counters_of.setdefault((layer, q), []).append(name)
        posts = self._post_hooks()
        modules = {layer: importlib.import_module("hopfgal." + layer)
                   for layer in LAYERS}
        replaced: dict[int, tuple] = {}     # id(original) -> (original, wrapper)

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(layer, obj, counters_of, posts)
                elif inspect.isfunction(obj) and (
                        not attr.startswith("_")
                        or attr in _PRIVATE_WRAPPED.get(layer, ())):
                    key = (layer, attr)
                    wrapper = self._wrap(obj, layer, counters_of.get(key, ()),
                                         posts.get(key))
                    replaced[id(obj)] = (obj, wrapper)

        # rebind every module-level reference (including `from x import f`
        # copies in other hopfgal modules) to the wrapper
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("hopfgal"):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

        counts = self.counts
        new = Fraction.__new__

        def fraction_new(cls, *args, **kwargs):
            counts["stdlib.fraction_new"] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(fraction_new)
        self._undo.append((Fraction, "__new__", staticmethod(new)))

    def _install_class(self, layer, cls, counters_of, posts):
        for attr, raw in list(vars(cls).items()):
            if attr in _SKIP:
                continue
            if attr.startswith("_") and not (attr.startswith("__")
                                             and attr.endswith("__")):
                continue
            key = (layer, "%s.%s" % (cls.__name__, attr))
            counters = counters_of.get(key, ())
            post = posts.get(key)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, counters, post))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, layer, counters, post))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, layer, counters, post)
            else:
                continue
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- read-out ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times (s) and counters, with the two yield ratios."""
        out = {"%s.self_s" % layer: self.self_s[layer] for layer in LAYERS}
        out.update(self.counts)
        del out["gp_enum.subgroups_found"]           # only feeds search_yield
        c = self.counts
        out["linalg.insert_yield"] = (c["linalg.echelon_rank_gains"]
                                      / c["linalg.echelon_inserts"]
                                      if c["linalg.echelon_inserts"] else 0.0)
        out["gp_enum.search_yield"] = (c["gp_enum.subgroups_found"]
                                       / c["gp_enum.assignments_tried"]
                                       if c["gp_enum.assignments_tried"] else 0.0)
        return out
