"""Span tracer that wraps rcto's public functions from outside the package.

Each wrapped call records a span (name, start, end, parent span, run id) in
memory.  A function is patched at every place a caller looks it up: rcto
modules import many functions by name (``from .fem import scatter``), so
every ``rcto.*`` module global bound to the original object is replaced, and
methods are replaced on their class.  Layer self time is a span's duration
minus the durations of its direct children.

Calls to ``FactorizedSystem`` under ``homogenization.solve_cell_problems``
are cell calls; all others are macro calls.  Fill is ``L.nnz + U.nnz`` of
the object ``rcto.fem.splu`` returns, read in its own ``trace.fill`` span so
that reading it is not charged to the factorization.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" attributes patch the class
TRACED = (
    ("config.parse", "rcto.config", "parse_config"),
    ("config.build_problem", "rcto.config", "build_problem"),
    ("homogenization.homogenize", "rcto.homogenization", "homogenize"),
    ("homogenization.cell_solve", "rcto.homogenization", "solve_cell_problems"),
    ("homogenization.effective", "rcto.homogenization", "effective_elasticity"),
    ("homogenization.dh_derivative", "rcto.homogenization", "EffectiveProperties.d_h_derivative"),
    ("fem.element_matrices", "rcto.fem", "element_matrices_batch"),
    ("fem.scatter", "rcto.fem", "scatter"),
    ("fem.factor", "rcto.fem", "FactorizedSystem.__init__"),
    ("fem.backsolve", "rcto.fem", "FactorizedSystem.solve"),
    ("problem.param_ops", "rcto.problem", "parameter_to_matrices"),
    ("problem.factorized_dynamic", "rcto.problem", "factorized_dynamic"),
    ("uncertainty.ihpa", "rcto.uncertainty", "ihpa_evaluate"),
    ("uncertainty.mcs", "rcto.uncertainty", "mcs_evaluate"),
    ("uncertainty.batch_compliance", "rcto.uncertainty", "BatchComplianceEvaluator.compliance"),
    ("uncertainty.evaluator_setup", "rcto.uncertainty", "BatchComplianceEvaluator.__init__"),
    ("sensitivity.robust", "rcto.sensitivity", "robust_sensitivity"),
    ("sensitivity.deterministic", "rcto.sensitivity", "deterministic_sensitivity"),
    ("sensitivity.normalize", "rcto.sensitivity", "normalize"),
    ("sensitivity.filter", "rcto.sensitivity", "SensitivityFilter.apply"),
    ("sensitivity.filter_build", "rcto.sensitivity", "SensitivityFilter.__init__"),
    ("beso.update", "rcto.beso", "concurrent_update"),
    ("beso.run", "rcto.beso", "run"),
    ("io.write_bundle", "rcto.io", "write_bundle"),
    ("io.verify", "rcto.io", "verify"),
)

CELL_PARENT = "homogenization.cell_solve"
SOLVER_SPANS = ("fem.factor", "fem.backsolve")

# spans whose self time is a per-layer metric, named <span>_s
SELF_TIMES = (
    "config.parse", "config.build_problem", "homogenization.cell_solve",
    "homogenization.effective", "homogenization.dh_derivative", "fem.element_matrices",
    "fem.scatter", "fem.macro_factor", "fem.macro_backsolve", "fem.cell_factor",
    "fem.cell_backsolve", "problem.param_ops", "problem.factorized_dynamic",
    "uncertainty.ihpa", "uncertainty.mcs", "uncertainty.batch_compliance",
    "uncertainty.evaluator_setup", "sensitivity.robust", "sensitivity.deterministic",
    "sensitivity.normalize", "sensitivity.filter", "sensitivity.filter_build",
    "beso.update", "beso.run", "io.write_bundle", "io.verify",
)

# spans whose call count is a per-layer metric, named <span>_calls
CALL_COUNTS = (
    "homogenization.homogenize", "homogenization.dh_derivative", "fem.element_matrices",
    "fem.scatter", "fem.macro_factor", "fem.macro_backsolve", "fem.cell_factor",
    "fem.cell_backsolve", "problem.param_ops", "uncertainty.batch_compliance",
)

# counts recorded from return values and exceptions at the same boundaries
EVENT_COUNTS = (
    "fem.macro_fill_nnz",
    "fem.cell_fill_nnz",
    "fem.solve_errors",
    "uncertainty.samples",
    "beso.flips_macro",
    "beso.flips_micro",
    "beso.cap_bound_iters",
)


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent index, run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.events: Counter = Counter()

    def _name(self, name: str) -> str:
        if name not in SOLVER_SPANS:
            return name
        in_cell = any(self.spans[i][0] == CELL_PARENT for i in self.stack)
        return name.replace("fem.", "fem.cell_" if in_cell else "fem.macro_")

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that every call records one span."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([self._name(name), time.perf_counter(), None, parent, self.run_id])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name in SOLVER_SPANS:
                    self.events["fem.solve_errors"] += 1
                raise
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_fill(self, lu):
        kind = self._name("fem.factor").replace("_factor", "_fill_nnz")
        self.events[kind] = max(self.events[kind], int(lu.L.nnz + lu.U.nnz))

    def _record_update(self, result):
        _state, info = result
        self.events["beso.flips_macro"] += info.flips_macro
        self.events["beso.flips_micro"] += info.flips_micro
        self.events["beso.cap_bound_iters"] += int(info.cap_bound)

    def _record_samples(self, result):
        self.events["uncertainty.samples"] += result.fea_calls

    def install(self) -> None:
        """Patch every traced function at all of its lookup sites in loaded rcto modules."""
        hooks = {"beso.update": self._record_update, "uncertainty.mcs": self._record_samples}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "rcto" or n.startswith("rcto.")]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.span(name, getattr(cls, meth), hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.span(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        fem = sys.modules["rcto.fem"]
        fill = self.span("trace.fill", self._record_fill)
        splu = fem.splu

        def splu_with_fill(*args, **kwargs):
            lu = splu(*args, **kwargs)
            fill(lu)
            return lu

        fem.splu = splu_with_fill

    def self_times(self) -> tuple[dict, Counter]:
        """Self seconds and call count per span name."""
        self_s: dict = {}
        calls: Counter = Counter()
        for name, start, end, parent, _run in self.spans:
            duration = end - start
            self_s[name] = self_s.get(name, 0.0) + duration
            calls[name] += 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - duration
        return self_s, calls

    def layer_metrics(self) -> dict:
        """Every per-layer metric; a layer that did not run reads 0."""
        self_s, calls = self.self_times()
        out = {f"{span}_s": self_s.get(span, 0.0) for span in SELF_TIMES}
        out.update({f"{span}_calls": calls[span] for span in CALL_COUNTS})
        out.update({metric: self.events[metric] for metric in EVENT_COUNTS})
        factors = calls["fem.macro_factor"]
        out["uncertainty.backsolves_per_factor"] = calls["fem.macro_backsolve"] / factors if factors else 0.0
        out["trace.fill_read_s"] = self_s.get("trace.fill", 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
