"""Layer tracer: times and counts calls into pskmap's layers from outside.

Each traced function is wrapped by rebinding its name in every ``pskmap.*``
module namespace that holds it (``from .forms import wedge`` makes a second
binding that patching ``pskmap.forms`` alone would miss); methods are wrapped
on their classes.  A wrapped call adds its duration to the caller's child time,
so a layer's self time is its span minus the spans of traced callees.

Functions called hundreds of thousands of times per pass (the kernel, the
compiled residual) are aggregated only; the others also keep one span each:
(name, start, end, parent span, operation id).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

# (metric prefix, defining module, attribute or Class.method, mode)
TARGETS = [
    ("kernel.wedge", "pskmap.forms", "wedge", AGGREGATE),
    ("kernel.wedge_matrix", "pskmap.forms", "wedge_matrix", AGGREGATE),
    ("kernel.ce_differential", "pskmap.lie", "ce_differential", AGGREGATE),
    ("kernel.form_inits", "pskmap.forms", "Form.__init__", COUNT),
    ("geometry.build", "pskmap.solver", "build_geometry", SPAN),
    ("geometry.levi_civita", "pskmap.connection", "levi_civita", SPAN),
    ("geometry.curvature", "pskmap.connection", "curvature", SPAN),
    ("geometry.solve_primitive", "pskmap.lie", "solve_primitive", SPAN),
    ("assembly.compile", "pskmap.solver", "CompiledResidual.__init__", SPAN),
    ("assembly.residual_vector", "pskmap.solver", "residual_vector", SPAN),
    ("assembly.all_residuals", "pskmap.intrinsic", "all_residuals", SPAN),
    ("search.solve", "pskmap.solver", "solve", SPAN),
    ("search.scan", "pskmap.solver", "scan_curvature", SPAN),
    ("search.residual_evals", "pskmap.solver", "CompiledResidual.__call__", COUNT),
    ("search.jacobian_evals", "pskmap.solver", "CompiledResidual.jacobian", COUNT),
    ("oracle.cone_coframe", "pskmap.cone", "cone_coframe", SPAN),
    ("oracle.cone_lc", "pskmap.cone", "cone_lc", SPAN),
    ("oracle.special_blocks", "pskmap.cone", "special_blocks", SPAN),
    ("oracle.verify_eta", "pskmap.cone", "verify_eta_conditions", SPAN),
    ("oracle.trig_mul.calls", "pskmap.cone", "TrigLaurent.__mul__", COUNT),
    ("twist.qk_algebra", "pskmap.cmap", "qk_algebra", SPAN),
    ("twist.qk_verify", "pskmap.cmap", "qk_verify", SPAN),
    ("twist.sp1_fit", "pskmap.cmap", "sp1_fit_residual", SPAN),
    ("io.load", "pskmap.io", "load_algebra_file", SPAN),
    ("io.load", "pskmap.io", "load_template_file", SPAN),
    ("io.report", "pskmap.io", "Report.to_json", SPAN),
    ("cli.op", "pskmap.cli", "main", SPAN),
]

# name -> (unit, what the value is); every value is per traced pass unless
# the description says otherwise.
PER_LAYER = {
    "kernel.wedge.calls": ("count", "calls to forms.wedge"),
    "kernel.wedge.self_s": ("s", "self time of forms.wedge"),
    "kernel.wedge_matrix.calls": ("count", "calls to forms.wedge_matrix"),
    "kernel.wedge_matrix.self_s": ("s", "self time of forms.wedge_matrix"),
    "kernel.ce_differential.calls": ("count", "calls to lie.ce_differential"),
    "kernel.ce_differential.self_s": ("s", "self time of lie.ce_differential"),
    "kernel.form_inits": ("count", "Form.__init__ calls"),
    "geometry.build.calls": ("count", "calls to solver.build_geometry"),
    "geometry.levi_civita.self_s": ("s", "self time of connection.levi_civita"),
    "geometry.curvature.self_s": ("s", "self time of connection.curvature"),
    "geometry.solve_primitive.self_s": ("s", "self time of lie.solve_primitive"),
    "assembly.compile.calls": ("count", "CompiledResidual constructions"),
    "assembly.compile.self_s": ("s", "self time of CompiledResidual.__init__"),
    "assembly.residual_vector.calls": ("count", "calls to solver.residual_vector"),
    "assembly.residual_vector.self_s": ("s", "self time of solver.residual_vector"),
    "assembly.all_residuals.self_s": ("s", "self time of intrinsic.all_residuals"),
    "assembly.q_bytes": ("bytes", "largest compiled Q, computed from Q.shape (not measured)"),
    "search.solve.calls": ("count", "calls to solver.solve"),
    "search.solve.self_s": ("s", "self time of solver.solve"),
    "search.residual_evals": ("count", "CompiledResidual.__call__ calls"),
    "search.jacobian_evals": ("count", "CompiledResidual.jacobian calls"),
    "search.starts": ("count", "multi-start LM starts, from SolveResult.start_residuals"),
    "search.starts_solved_ratio": ("ratio", "starts below the success threshold / starts"),
    "search.polish_probes": ("count", "solves inside scans beyond the grid points"),
    "oracle.cone_coframe.self_s": ("s", "self time of cone.cone_coframe"),
    "oracle.cone_lc.self_s": ("s", "self time of cone.cone_lc"),
    "oracle.special_blocks.self_s": ("s", "self time of cone.special_blocks"),
    "oracle.verify_eta.self_s": ("s", "self time of cone.verify_eta_conditions"),
    "oracle.trig_mul.calls": ("count", "TrigLaurent.__mul__ calls"),
    "twist.qk_algebra.self_s": ("s", "self time of cmap.qk_algebra"),
    "twist.qk_verify.self_s": ("s", "self time of cmap.qk_verify"),
    "twist.sp1_fit.self_s": ("s", "self time of cmap.sp1_fit_residual"),
    "io.load.self_s": ("s", "self time of io.load_algebra_file / load_template_file"),
    "io.report.self_s": ("s", "self time of io.Report.to_json"),
    "cli.op.self_s": ("s", "self time of cli.main (argument parsing, CLI glue)"),
    "trace.wall_s": ("s", "median traced pass wall time"),
    "trace.untraced_wall_s": ("s", "median untraced pass wall time, same run"),
    "trace.overhead_s": ("s", "trace.wall_s - trace.untraced_wall_s"),
}


def _array_bytes(compiled) -> int:
    """Bytes of the compiled quadratic term, from its shape; 0 if it has none."""
    Q = getattr(compiled, "Q", None)
    shape, dtype = getattr(Q, "shape", None), getattr(Q, "dtype", None)
    if shape is None or dtype is None:
        return 0
    return int(np.prod(shape)) * np.dtype(dtype).itemsize


class Tracer:
    def __init__(self):
        self.stats: dict = {}          # prefix -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.spans: list = []
        self.op_id = None
        self.missing: list = []
        self.q_bytes = 0
        self.starts = 0
        self.starts_solved = 0
        self.polish_probes = 0
        self._stack: list = []         # frames: [child_s, effective span id]
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, prefix, fn, keep_span, on_return=None):
        stack, spans = self._stack, self.spans
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = len(spans) if keep_span else parent
            if keep_span:
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if keep_span:
                    spans[span_id] = (prefix, t0, t1, parent, self.op_id)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result
        return wrapper

    def _counted(self, prefix, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks on return values --------------------------------------------

    def _after_compile(self, args, kwargs, result):
        self.q_bytes = max(self.q_bytes, _array_bytes(args[0]))

    def _after_solve(self, args, kwargs, result):
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        threshold = getattr(cfg, "success_threshold", 1e-8)
        residuals = list(getattr(result, "start_residuals", []))
        self.starts += len(residuals)
        self.starts_solved += sum(1 for r in residuals if r < threshold)

    def _scan_wrapper(self, fn):
        solve_stat = self.stats.setdefault("search.solve", [0, 0.0, 0.0])

        def wrapped(*args, **kwargs):
            before = solve_stat[0]
            result = fn(*args, **kwargs)
            self.polish_probes += solve_stat[0] - before - len(getattr(result, "points", []))
            return result
        return functools.wraps(fn)(wrapped)

    # -- install / uninstall ----------------------------------------------------

    def _wrapper_for(self, prefix, mode, fn):
        if mode == COUNT:
            return self._counted(prefix, fn)
        hook = {"assembly.compile": self._after_compile,
                "search.solve": self._after_solve}.get(prefix)
        if prefix == "search.scan":
            fn = self._scan_wrapper(fn)
        return self._timed(prefix, fn, mode == SPAN, hook)

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pskmap" or name.startswith("pskmap."))]
        for prefix, modname, attr, mode in TARGETS:
            try:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original, holders = owner.__dict__[meth], [owner]
                else:
                    original, holders = getattr(owner, attr), modules
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{attr}")
                continue
            # Aliases such as `__rmul__ = __mul__` are rebound too.
            wrapper = self._wrapper_for(prefix, mode, original)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer values per traced pass, as {name: (value, base count)}."""
        def stat(prefix):
            return self.stats.get(prefix, [0, 0.0, 0.0])

        counted = {prefix for prefix, _, _, mode in TARGETS if mode == COUNT}
        out = {}
        for name in PER_LAYER:
            prefix, _, field = name.rpartition(".")
            if name in counted:
                out[name] = (self.counts[name] / passes, self.counts[name])
            elif field == "self_s" and prefix != "trace":
                calls, _, self_s = stat(prefix)
                out[name] = (self_s / passes, calls)
            elif field == "calls":
                calls = stat(prefix)[0]
                out[name] = (calls / passes, calls)
        out["assembly.q_bytes"] = (float(self.q_bytes), stat("assembly.compile")[0])
        out["search.starts"] = (self.starts / passes, self.starts)
        out["search.starts_solved_ratio"] = (
            self.starts_solved / self.starts if self.starts else 0.0, self.starts)
        out["search.polish_probes"] = (self.polish_probes / passes, self.polish_probes)
        return {name: out[name] for name in PER_LAYER if name in out}

    def span_records(self) -> list:
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for i, s in enumerate(self.spans) if s is not None]
