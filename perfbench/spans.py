"""Outside-in tracing of dyncert from the benchmark's side.

``Tracer.install`` rebinds each public function named in ``SPANS`` to a
wrapper that records a span (name, start, end, parent).  ``from .x import y``
copies a binding into the importing module, so every loaded dyncert module
that holds the original function gets the wrapper; ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

The tracer also wraps the map, field, integral and guard callables that
``catalog.build``, ``structure_from_dict`` and ``lift_structure`` hand out,
so it can count evaluations exactly.  Spans stay in memory until the run
ends; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (span name, module, attribute); "Class.method" names a method.  A target
# missing from the program is skipped, so its metrics read 0.
SPANS = [
    ("numerics.integrate_flow", "dyncert.numerics", "integrate_flow"),
    ("numerics.numerical_rank", "dyncert.numerics", "numerical_rank"),
    ("certify.lie_bracket", "dyncert.certify", "lie_bracket_residual"),
    ("certify.first_integral", "dyncert.certify", "first_integral_residual"),
    ("certify.map_invariance", "dyncert.certify", "map_invariance_residual"),
    ("certify.infinitesimal_commutation", "dyncert.certify",
     "infinitesimal_commutation_residual"),
    ("certify.flow_commutation", "dyncert.certify",
     "flow_commutation_residual"),
    ("certify.independence_rank", "dyncert.certify",
     "independence_rank_stats"),
    ("certify.poisson_bracket", "dyncert.certify", "poisson_bracket"),
    ("certify.symplecticity", "dyncert.certify", "symplecticity_residual"),
    ("certify", "dyncert.certify", "certify_structure"),
    ("certify", "dyncert.certify", "certify_involution"),
    ("jets.jet_gradient", "dyncert.jets", "jet_gradient"),
    ("jets.jet_jacobian", "dyncert.jets", "jet_jacobian"),
    ("constructions.solve_linear", "dyncert.jets", "solve_linear"),
    ("core.sample", "dyncert.core", "sample"),
    ("core.apply", "dyncert.core", "SmoothMap.apply"),
    ("core.jacobian_at", "dyncert.core", "SmoothMap.jacobian_at"),
    ("catalog.build", "dyncert.catalog", "build"),
    ("catalog.lyness_symmetry_variants", "dyncert.catalog",
     "lyness_symmetry_variants"),
    ("dynamics.lyapunov_spectrum", "dyncert.dynamics", "lyapunov_spectrum"),
    ("dynamics.find_periodic_points", "dyncert.dynamics",
     "find_periodic_points"),
]

# functions whose results carry callables to count; no span of their own
COUNTED_RESULTS = [
    ("dyncert.expressions", "structure_from_dict"),
    ("dyncert.constructions", "lift_structure"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []   # indices of open spans
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, post=None):
        """``fn`` recording one span per call; ``post`` maps its result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.counts

        def spanned(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            return out if post is None else post(out)

        return spanned

    def _counted(self, key, fn, inside=None):
        """``fn`` counting its calls under ``key``; a call made directly
        inside span ``inside[0]`` also counts under ``inside[1]``."""
        counts, spans, stack = self.counts, self.spans, self.stack

        def counted(*args, **kwargs):
            counts[key] += 1
            if inside is not None and stack and spans[stack[-1]][0] == inside[0]:
                counts[inside[1]] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_guard(self, guard):
        """``guard`` counting the candidates it rejects inside ``sample``."""
        counts, spans, stack = self.counts, self.spans, self.stack

        def counted(*args, **kwargs):
            ok = guard(*args, **kwargs)
            if not ok and stack and spans[stack[-1]][0] == "core.sample":
                counts["core.sample_rejects"] += 1
            return ok

        return counted

    def with_counts(self, obj):
        """A copy of ``obj`` whose maps, fields, integrals and guards count
        their evaluations; dataclasses and tuples are walked."""
        from dyncert import core

        if isinstance(obj, core.SmoothMap):
            inverse = obj.inverse
            if inverse is not None:
                inverse = self._counted("core.map_evals", inverse)
            return dataclasses.replace(
                obj, forward=self._counted("core.map_evals", obj.forward),
                inverse=inverse)
        if isinstance(obj, core.VectorField):
            return dataclasses.replace(obj, func=self._counted(
                "core.field_evals", obj.func,
                inside=("numerics.integrate_flow", "numerics.flow_rhs_evals")))
        if isinstance(obj, core.ScalarField):
            return dataclasses.replace(obj, func=self._counted(
                "core.integral_evals", obj.func))
        if isinstance(obj, core.SamplingRegion):
            if obj.guard is None:
                return obj
            return dataclasses.replace(obj,
                                       guard=self._counted_guard(obj.guard))
        if isinstance(obj, (tuple, list)):
            return type(obj)(self.with_counts(v) for v in obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.replace(obj, **{
                f.name: self.with_counts(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.init})
        return obj

    def _spanned_parser(self, parse):
        """parse_expression whose compiled callables record spans."""
        def parse_expression(*args, **kwargs):
            return self.wrap("expressions.eval", parse(*args, **kwargs))
        return parse_expression

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dyncert" and not mod_name.startswith("dyncert."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        for name, mod_name, attr in SPANS:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    setattr(cls, meth, self.wrap(name, original))
                    self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr, None)
            if original is not None:
                post = self.with_counts if name == "catalog.build" else None
                self._rebind(original, self.wrap(name, original, post))
        for mod_name, attr in COUNTED_RESULTS:
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is not None:
                self._rebind(original, lambda *a, _f=original, **k:
                             self.with_counts(_f(*a, **k)))
        parse = getattr(importlib.import_module("dyncert.expressions"),
                        "parse_expression", None)
        if parse is not None:
            self._rebind(parse, self._spanned_parser(parse))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self ms and call count per span name, plus the exact counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            self_ms[name] += (end - start - child[i]) * 1000.0
            calls[name] += 1
        c = self.counts
        out = {}
        for name in {s[0] for s in SPANS} | {"expressions.eval", "cli"}:
            # the top-level spans report the time no inner span covers
            prefix = f"{name}.self" if name in ("certify", "cli") else name
            out[f"{prefix}_ms"] = self_ms[name]
            out[f"{name}_calls"] = calls[name]
        flows = calls["numerics.integrate_flow"]
        # share of attempted integrations that completed; 1 when none ran
        out["numerics.flow_ok_frac"] = (
            1.0 - c["numerics.integrate_flow.errors"] / flows if flows else 1.0)
        for key in ("numerics.flow_rhs_evals", "core.sample_rejects",
                    "core.map_evals", "core.field_evals", "core.integral_evals"):
            out[key] = c[key]
        return out

    def write(self, path: Path, meta: dict):
        """Write the spans, times in microseconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({**meta, "names": names,
                       "columns": ["name", "start_us", "end_us", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
