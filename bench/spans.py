"""In-memory spans and operator counters around gcdeform's layer functions.

``Tracer.install`` replaces every binding of each traced function across the
loaded ``gcdeform`` modules (the modules import functions by name, so patching
the defining module alone would miss most calls) and wraps the arithmetic
operators named in ``COUNTED`` with plain counters.  Spans are kept as
(name, start, end, parent) in a list and written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time

# (module, qualified name) of each function that gets a span.
TRACED = (
    ("scalar", "mat_rref"),
    ("scalar", "mat_left_inverse"),
    ("scalar", "solve_linear"),
    ("frame", "FrameAlgebra.validate_jacobi"),
    ("frame", "FrameAlgebra.ce_differential"),
    ("frame", "eigenframe"),
    ("courant", "courant_bracket"),
    ("courant", "pair"),
    ("algebroid", "IsotropicSubbundle.build"),
    ("algebroid", "IsotropicSubbundle.schouten_table"),
    ("algebroid", "IsotropicSubbundle.schouten_bracket"),
    ("algebroid", "IsotropicSubbundle.theta"),
    ("algebroid", "express_in_span"),
    ("deformation", "constrain_map"),
    ("deformation", "mc_residual"),
    ("deformation", "reduce_family"),
    ("deformation", "solve_mc_system"),
    ("deformation", "deform_subbundle"),
    ("deformation", "stratify_type"),
    ("cli", "parse_workspace"),
    ("cli", "build_workspace"),
    ("cli", "run_pipeline"),
)

# (module, class, counter name, operator methods that feed the counter).
COUNTED = (
    ("scalar", "GaussianRational", "mul", ("__mul__", "__rmul__")),
    ("scalar", "GaussianRational", "truediv", ("__truediv__",)),
    ("scalar", "PolyScalar", "mul", ("__mul__", "__rmul__")),
)

# Per-layer metrics reported by a traced run, each normalised per operation.
LAYER_METRICS = (
    "scalar.mat_rref.calls",
    "scalar.mat_rref.self_ms",
    "scalar.mat_left_inverse.calls",
    "scalar.mat_left_inverse.self_ms",
    "scalar.solve_linear.calls",
    "scalar.solve_linear.self_ms",
    "scalar.GaussianRational.mul.count",
    "scalar.GaussianRational.truediv.count",
    "scalar.PolyScalar.mul.count",
    "frame.FrameAlgebra.validate_jacobi.self_ms",
    "frame.eigenframe.self_ms",
    "frame.FrameAlgebra.ce_differential.calls",
    "frame.FrameAlgebra.ce_differential.self_ms",
    "courant.courant_bracket.calls",
    "courant.courant_bracket.self_ms",
    "courant.pair.calls",
    "courant.pair.self_ms",
    "algebroid.IsotropicSubbundle.build.calls",
    "algebroid.IsotropicSubbundle.build.self_ms",
    "algebroid.IsotropicSubbundle.schouten_table.calls",
    "algebroid.IsotropicSubbundle.schouten_table.self_ms",
    "algebroid.IsotropicSubbundle.schouten_bracket.self_ms",
    "algebroid.IsotropicSubbundle.theta.calls",
    "algebroid.express_in_span.calls",
    "algebroid.express_in_span.self_ms",
    "deformation.constrain_map.calls",
    "deformation.mc_residual.calls",
    "deformation.reduce_family.calls",
    "deformation.reduce_family.self_ms",
    "deformation.solve_mc_system.self_ms",
    "deformation.deform_subbundle.self_ms",
    "deformation.stratify_type.self_ms",
    "cli.parse_workspace.self_ms",
    "cli.build_workspace.self_ms",
    "cli.run_pipeline.self_ms",
)

UNITS = {"calls": "calls/op", "self_ms": "ms/op", "count": "count/op"}


class TraceError(RuntimeError):
    """A traced name is missing from the program: the benchmark needs updating."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index); -1 for a root
        self.counts = {f"{mod}.{cls}.{name}": 0 for mod, cls, name, _ in COUNTED}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def in_span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of the given name."""
        return self._spanned(name, fn)(*args)

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "gcdeform"]
        for mod_name, qualname in TRACED:
            home = sys.modules.get(f"gcdeform.{mod_name}")
            if home is None:
                raise TraceError(f"module gcdeform.{mod_name} is not loaded")
            span_name = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name, None)
                raw = cls.__dict__.get(attr) if cls is not None else None
                if raw is None:
                    raise TraceError(f"gcdeform.{mod_name} has no {qualname}")
                if isinstance(raw, staticmethod):
                    self._set(cls, attr, staticmethod(self._spanned(span_name, raw.__func__)))
                else:
                    self._set(cls, attr, self._spanned(span_name, raw))
                continue
            original = getattr(home, qualname, None)
            if original is None:
                raise TraceError(f"gcdeform.{mod_name} has no {qualname}")
            wrapped = self._spanned(span_name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        for mod_name, cls_name, name, methods in COUNTED:
            cls = getattr(sys.modules[f"gcdeform.{mod_name}"], cls_name)
            key = f"{mod_name}.{cls_name}.{name}"
            counters = {}
            for attr in methods:
                fn = cls.__dict__[attr]
                if fn not in counters:
                    counters[fn] = self._counted(key, fn)
                self._set(cls, attr, counters[fn])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position from which ``layer_metrics`` counts."""
        return len(self.spans), dict(self.counts)

    def layer_metrics(self, ops: int, mark: tuple[int, dict[str, int]]) -> dict[str, dict]:
        """Calls, self time and counts per operation since ``mark``, for every
        LAYER_METRICS name."""
        first, base_counts = mark
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans[first:], child[first:]):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        out = {}
        for metric in LAYER_METRICS:
            base, kind = metric.rsplit(".", 1)
            if kind == "calls":
                value = calls.get(base, 0) / ops
            elif kind == "self_ms":
                value = self_s.get(base, 0.0) * 1000.0 / ops
            else:
                value = (self.counts[base] - base_counts[base]) / ops
            out[metric] = {"value": value, "unit": UNITS[kind]}
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans, "counts": self.counts},
                fh,
            )
