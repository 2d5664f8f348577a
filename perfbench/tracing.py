"""Spans and counts around jacweight's layers, installed from outside.

``Tracer.install`` replaces each listed public function with a wrapper,
on its own module and on every jacweight module that imported the name,
and each listed method on its class.  A wrapper records a span (name,
start, end, parent span, operation id) in memory and adds its self time
(duration minus the time of its child spans) to its layer's metric.
Counts are derived from arguments and results.

Hot scalar helpers (exactnum, ring element operations, polynomial
arithmetic, ``multinomial``, ``compositions`` and the per-word
composition functions) are not wrapped: timing them from outside would
cost more than they do.  Their time lands in the self time of the
wrapped function that calls them.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter
from functools import cached_property


def _terms(args, kwargs, result):
    return {"enumerators.terms_in": len(args[0].terms), "enumerators.terms_out": len(result.terms)}


def _pairs(args, kwargs, result):
    return {"codes.pairs_enumerated": len(args[0].words) * len(args[1].words)}


def _pair_tuples(args, kwargs, result):
    return {"enumerators.tuples": len(args[0].words) * len(args[1].words)}


def _genus_tuples(args, kwargs, result):
    return {"enumerators.tuples": len(args[0].words) ** args[1]}


def _permutations(args, kwargs, result):
    return {"averages.permutations": math.factorial(args[0].n)}


def _subset_visits(args, kwargs, result):
    bm, t = args
    return {"designs.subset_visits": len(bm.blocks) * math.comb(bm.k, t)}


# (module, function or Class.method, layer metric, counter)
WRAPPED = [
    ("rings", "field_ring", "rings.build_s", None),
    ("rings", "modular_ring", "rings.build_s", None),
    ("rings", "make_ring", "rings.build_s", None),
    ("rings", "ring_from_json", "rings.build_s", None),
    ("codes", "load_code", "codes.load_s", None),
    ("codes", "code_from_json", "codes.load_s", None),
    ("codes", "LinearCode.words", "codes.words_s",
     lambda a, k, r: {"codes.words_enumerated": len(r)}),
    ("codes", "LinearCode.dual", "codes.dual_s", None),
    ("codes", "LinearCode.weight_distribution", "codes.table_s", None),
    ("codes", "comp_table", "codes.table_s", None),
    ("codes", "jacobi_table", "codes.table_s", None),
    ("codes", "joint_jacobi_table", "codes.table_s", _pairs),
    ("enumerators", "cwe", "enumerators.table_s", None),
    ("enumerators", "jacobi", "enumerators.table_s", None),
    ("enumerators", "joint_jacobi", "enumerators.table_s", None),
    ("enumerators", "joint_cwe", "enumerators.table_s", _pair_tuples),
    ("enumerators", "cwe_genus", "enumerators.table_s", _genus_tuples),
    ("enumerators", "collapse", "enumerators.transform_s", _terms),
    ("enumerators", "macwilliams_single", "enumerators.transform_s", _terms),
    ("enumerators", "macwilliams_first", "enumerators.transform_s", _terms),
    ("enumerators", "macwilliams_second", "enumerators.transform_s", _terms),
    # both = second(first(...)); its terms are counted by those two
    ("enumerators", "macwilliams_both", "enumerators.transform_s", None),
    ("polynomials", "SparsePolynomial.substitute", "polynomials.substitute_s", None),
    ("polynomials", "SparsePolynomial.render_text", "polynomials.render_s", None),
    ("polynomials", "SparsePolynomial.to_json_obj", "polynomials.render_s", None),
    ("averages", "avg_jacobi", "averages.closed_s", None),
    ("averages", "avg_joint_jacobi", "averages.closed_s", None),
    ("averages", "delta_closed", "averages.closed_s", None),
    ("averages", "avg_joint_jacobi_value", "averages.streamed_s", None),
    ("averages", "brute_avg_jacobi", "averages.brute_s", _permutations),
    ("averages", "brute_avg_joint_jacobi", "averages.brute_s", _permutations),
    ("averages", "brute_delta", "averages.brute_s", _permutations),
    ("averages", "monte_carlo_delta", "averages.mc_s",
     lambda a, k, r: {"averages.mc_samples": r.samples}),
    ("designs", "supports", "designs.supports_s", None),
    ("designs", "is_t_design", "designs.scan_s", _subset_visits),
    ("designs", "is_t_homogeneous", "designs.scan_s", None),
    ("cli", "main", "cli.self_s", None),
]

TIME_METRICS = sorted({metric for _, _, metric, _ in WRAPPED})
COUNT_METRICS = [
    "codes.words_enumerated",
    "codes.pairs_enumerated",
    "enumerators.terms_in",
    "enumerators.terms_out",
    "enumerators.tuples",
    "averages.permutations",
    "averages.mc_samples",
    "designs.subset_visits",
    "cli.output_bytes",
]


class Tracer:
    """In-memory spans with per-layer self times and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple] = []  # (owner, attribute, original value)

    def wrap(self, name, metric, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op])
            frame = [idx, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
                self.self_s[metric] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry of WRAPPED in the already imported jacweight."""
        for module_name, path, metric, count in WRAPPED:
            module = importlib.import_module(f"jacweight.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, cached_property):
                    traced = cached_property(self.wrap(path, metric, orig.func, count))
                    traced.__set_name__(cls, attr)
                else:
                    traced = self.wrap(path, metric, orig, count)
                self._replace(cls, attr, traced)
                continue
            orig = getattr(module, path)
            traced = self.wrap(f"{module_name}.{path}", metric, orig, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "jacweight" or mod_name.startswith("jacweight."):
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._replace(mod, attr, traced)

    def uninstall(self) -> None:
        """Put back everything install replaced."""
        while self._undo:
            setattr(*self._undo.pop())

    def _replace(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def self_time(self) -> float:
        return sum(self.self_s.values())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
