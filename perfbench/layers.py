"""Per-layer tracing of the vandiejen library, installed from outside the library.

Every public function of the layer modules is wrapped at every import site:
modules bind names directly (``duality`` does ``from .lax import lax_matrix``),
so patching only the defining module would miss most calls.  Each call records
a span (name, start, end, parent) in memory; the spans are written out once, at
the end of the run.  Two counters that are not spans ride along: the function
evaluations reported by ``solve_ivp`` and the calls into mpmath's ``eighe``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "phase_space", "_kernels", "lax", "linalg", "duality",
    "dynamics", "scattering", "brackets", "asymptotics", "cli",
)
# ``_kernels`` exports dispatch names (``vector_field``) bound to one of its
# implementations (``vector_field_numpy``); only the dispatch names are spans,
# so a kernel's self time includes the helpers its implementation calls.
IMPLEMENTATION_SUFFIX = "_numpy"


def layer_name(module: str) -> str:
    """Metric prefix of a layer: ``vandiejen._kernels`` -> ``kernels``."""
    return module.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    """Wraps the library's public functions and records spans while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.nfev = 0
        self.mp_eigensolves = 0
        self.mp_flow_spans: set[int] = set()  # projection_flow spans that reached mpmath
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"vandiejen.{m}") for m in LAYERS]
        wrappers = {}  # id(original) -> wrapper, named after the defining module
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and not attr.endswith(IMPLEMENTATION_SUFFIX)
                    and obj.__module__ == mod.__name__
                ):
                    wrapper = self._span(f"{layer_name(mod.__name__)}.{attr}", obj)
                    wrappers.setdefault(id(obj), wrapper)
                    self._set(mod, attr, wrapper)
        # import sites: any other module global bound to a wrapped original
        import vandiejen

        for mod in [vandiejen, *mods]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and getattr(obj, "__module__", None) != mod.__name__:
                    self._set(mod, attr, wrappers[id(obj)])
        self._count_solve_ivp(mods)
        self._count_eighe()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()

        return traced

    def _count_solve_ivp(self, mods):
        import scipy.integrate

        original = scipy.integrate.solve_ivp

        @functools.wraps(original)
        def counted(*args, **kwargs):
            sol = original(*args, **kwargs)
            self.nfev += int(sol.nfev)
            return sol

        # the module attribute serves a lazy ``from scipy.integrate import``
        self._set(scipy.integrate, "solve_ivp", counted)
        for mod in mods:
            if vars(mod).get("solve_ivp") is original:
                self._set(mod, "solve_ivp", counted)

    def _count_eighe(self):
        import mpmath

        original = mpmath.mp.eighe

        def counted(*args, **kwargs):
            self.mp_eigensolves += 1
            for idx in reversed(self.stack):
                if self.spans[idx][0] == "dynamics.projection_flow":
                    self.mp_flow_spans.add(idx)
                    break
            return original(*args, **kwargs)

        # an instance attribute shadows the bound method of the shared context
        self._set(mpmath.mp, "eighe", counted)

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, phase_points: int, report_bytes: int, overhead_s: float) -> dict:
        own = self.self_times()
        calls = Counter(s[0] for s in self.spans)
        fn_self = defaultdict(float)
        layer_self = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            fn_self[name] += t
            layer_self[name.split(".", 1)[0]] += t
        map_evals = sum(
            1 for name, _, _, parent in self.spans
            if name in ("duality.duality_map", "dynamics.projection_flow")
            and parent >= 0 and self.spans[parent][0].startswith("brackets.")
        )
        flows = calls["dynamics.projection_flow"]
        out = {
            "duality.dual_frame.calls": (calls["duality.dual_frame"], "count"),
            "duality.frames_per_point": (
                calls["duality.dual_frame"] / phase_points if phase_points else 0.0, "frames/point"),
            "lax.lax_matrix.calls": (calls["lax.lax_matrix"], "count"),
            "linalg.hermitian_eig.calls": (calls["linalg.hermitian_eig"], "count"),
            "phase_space.sample.self_s": (fn_self["phase_space.sample"], "s"),
            "kernels.vector_field.calls": (calls["kernels.vector_field"], "count"),
            "kernels.vector_field.self_s": (fn_self["kernels.vector_field"], "s"),
            "dynamics.rk_flow.self_s": (fn_self["dynamics.rk_flow"], "s"),
            "dynamics.rk_flow.nfev": (self.nfev, "count"),
            "dynamics.projection_flow.calls": (flows, "count"),
            "dynamics.projection_flow.self_s": (fn_self["dynamics.projection_flow"], "s"),
            "dynamics.mp_eigensolves": (self.mp_eigensolves, "count"),
            "dynamics.mp_share": (len(self.mp_flow_spans) / flows if flows else 0.0, "share"),
            "brackets.map_evals": (map_evals, "count"),
            "cli.report_bytes": (report_bytes, "B"),
            "trace.overhead_s": (overhead_s, "s"),
            "trace.spans": (len(self.spans), "count"),
        }
        for layer in LAYERS:
            out[f"{layer_name(layer)}.self_s"] = (layer_self[layer_name(layer)], "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
