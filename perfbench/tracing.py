"""Per-layer spans and counts, recorded from outside the program.

Tracing wraps public functions of the package's modules and a few methods
of its arithmetic classes.  Functions are rebound in every module that
holds them, because `from .datum import realize` copies the name: the
wrapper must replace each copy, or calls through the copy go unrecorded.
Methods are replaced on their class, which every caller shares.

A span records calls, total time and self time (total minus the time of
spans running inside it).  Counts come from return values and from
counting wrappers.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

from incidence_gradings import abelian, cyclo, incidence, rowspan


# (module, function, span name, hook(counts, result) or None); a hook adds
# the counts it reads off the result (Counter.update adds)
SPANS = [
    ("cli", "main", "cli.main", None),
    ("jsonio", "decode_datum", "jsonio.decode_datum", None),
    ("datum", "validate_datum", "datum.validate_datum",
     lambda c, r: c.update({"validate.checked_covers": r.checked_covers,
                             "validate.checked_triples": r.checked_triples})),
    ("datum", "realize", "datum.realize",
     lambda c, r: c.update({"realize.basis_size": len(r.basis),
                             "realize.vertices": len(r.poset.elements)})),
    ("datum", "derive_full_bimodules", "datum.derive_full_bimodules", None),
    ("datum", "grading_iso", "datum.grading_iso",
     lambda c, r: c.update({"iso.positive" if r[0] else "iso.negative": 1})),
    ("oracle", "verify_grading", "oracle.verify_grading",
     lambda c, r: c.update({"verify.checked_products": r.checked_products,
                             "verify.dimension": r.dimension})),
    ("oracle", "radical_square_component", "oracle.radical_square_component", None),
    ("oracle", "check_link_equation", "oracle.check_link_equation",
     lambda c, r: c.update({"links.checked_pairs": r.checked_pairs})),
    ("bimodules", "bimodule_product", "bimodules.bimodule_product", None),
]

RESULT_COUNTS = [
    "validate.checked_covers", "validate.checked_triples",
    "realize.basis_size", "realize.vertices",
    "verify.checked_products", "verify.dimension",
    "links.checked_pairs", "iso.positive", "iso.negative",
]

# (class, method, calls counter, counter of calls returning true or None)
METHODS = [
    (cyclo.CycloNumber, "__mul__", "cyclo.mul_calls", None),
    (cyclo.CycloNumber, "__rmul__", "cyclo.mul_calls", None),
    (cyclo.CycloNumber, "lift", "cyclo.lift_calls", None),
    (incidence.IncidenceElement, "__mul__", "incidence.mul_calls", None),
    (rowspan.RationalRowSpace, "add", "rowspan.add_calls", "rowspan.add_grew"),
    (rowspan.RationalRowSpace, "contains", "rowspan.contains_calls", None),
]

ARITHMETIC_COUNTS = [
    "cyclo.mul_calls", "cyclo.lift_calls", "incidence.mul_calls",
    "rowspan.add_calls", "rowspan.add_grew", "rowspan.contains_calls",
]

CACHES = [
    ("cache.subgroup.entries", abelian, "_SUBGROUP_CACHE"),
    ("cache.intersect.entries", abelian, "_INTERSECT_CACHE"),
    ("cache.sum.entries", abelian, "_SUM_CACHE"),
    ("cache.root.entries", cyclo, "_ROOT_CACHE"),
    ("cache.power_table.entries", cyclo, "_POWER_TABLE"),
]


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                elapsed = perf_counter() - frame[0]
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if hook is not None:
                hook(self.counts, result)
            return result
        return wrapper

    def _counted(self, name, fn, grew):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            counts[name] += 1
            result = fn(*args, **kwargs)
            if grew and result:
                counts[grew] += 1
            return result
        return wrapper

    def install(self, extra_modules=()):
        """Wrap every span and counted method; returns nothing, lasts for
        the life of the process."""
        holders = [m for n, m in list(sys.modules.items())
                   if n.startswith("incidence_gradings")] + list(extra_modules)
        for modname, func, name, hook in SPANS:
            original = getattr(sys.modules[f"incidence_gradings.{modname}"], func)
            wrapped = self._span(name, original, hook)
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for cls, method, name, grew in METHODS:
            setattr(cls, method, self._counted(name, getattr(cls, method), grew))

    def metrics(self):
        out = {}
        for _, _, name, _ in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.total_s"] = (self.total[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        for name in RESULT_COUNTS + ARITHMETIC_COUNTS:
            out[name] = (self.counts[name], "count")
        adds = self.counts["rowspan.add_calls"]
        out["rowspan.add_useful_frac"] = (
            self.counts["rowspan.add_grew"] / adds if adds else 0.0, "frac")
        for name, module, attr in CACHES:
            out[name] = (len(getattr(module, attr, ())), "count")
        return out
