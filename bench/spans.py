"""Span tracing around srlab's public functions, installed from outside.

Every wrapped function records one span per call.  A span's self time is
its duration minus the durations of the spans it encloses, so the self times
of all spans plus the untraced remainder add up to the pass's wall time.

Wrapping happens by identity: each target function object is replaced by its
wrapper in every ``srlab`` module namespace (and on its class, for methods)
that binds it, because callers reach functions through ``from .x import f``
copies as much as through the defining module.
"""

import os
import sys
import time
from collections import defaultdict
from functools import wraps

# (span name, module, attribute path): attribute path "Class.method" wraps a
# method at class level, so every instance's bound calls are seen.
TARGETS = (
    ("solver.solve", "srlab.solver", "solve"),
    ("solver.solve_reflection_near_sonic", "srlab.solver", "solve_reflection_near_sonic"),
    ("solver.derivative_fields", "srlab.solver", "derivative_fields"),
    ("coefficients.evaluate", "srlab.coefficients", "CoefficientModel.evaluate"),
    ("coefficients.zeta", "srlab.coefficients", "zeta"),
    ("coefficients.reflection_coefficients", "srlab.coefficients", "reflection_coefficients"),
    ("shock.Psi", "srlab.shock", "ShockBoundaryFns.Psi"),
    ("shock.bhat", "srlab.shock", "ShockBoundaryFns.bhat"),
    ("shock.check_g_unique", "srlab.shock", "check_g_unique"),
    ("shock.largest_valid_eps", "srlab.shock", "largest_valid_eps"),
    ("reflection.solve_state2", "srlab.reflection", "solve_state2"),
    ("reflection.detachment_angle", "srlab.reflection", "detachment_angle"),
    ("reflection.shock_chart_table", "srlab.reflection", "shock_chart_table"),
    ("grids.save", "srlab.grids", "ScalarField2D.save"),
    ("grids.load", "srlab.grids", "ScalarField2D.load"),
    ("diagnostics.full_report", "srlab.diagnostics", "full_report"),
    ("diagnostics.write_station_trace_csv", "srlab.diagnostics", "write_station_trace_csv"),
    ("barriers.choose_subsolution_params", "srlab.barriers", "choose_subsolution_params"),
    ("barriers.scan_L1_sign", "srlab.barriers", "scan_L1_sign"),
    ("barriers.scan_L2_defect_sign", "srlab.barriers", "scan_L2_defect_sign"),
    ("barriers.verify_comparison", "srlab.barriers", "verify_comparison"),
    ("cli.main", "srlab.cli", "main"),
    ("cli.config", "srlab.cli", "cmd_config"),
    ("cli.solve", "srlab.cli", "cmd_solve"),
    ("cli.verify", "srlab.cli", "cmd_verify"),
    ("cli.sweep", "srlab.cli", "cmd_sweep"),
)

SOLVER_SPANS = ("solver.solve", "solver.solve_reflection_near_sonic")
GRID_IO_SPANS = ("grids.save", "grids.load")

# spans each workload must enter; a traced pass with zero calls on one of
# them has lost a binding (or the program no longer does that work)
REQUIRED = {
    "rect": (
        "solver.solve", "solver.derivative_fields", "coefficients.evaluate", "coefficients.zeta",
        "grids.save", "grids.load", "diagnostics.full_report", "diagnostics.write_station_trace_csv",
        "barriers.choose_subsolution_params", "barriers.scan_L1_sign", "barriers.scan_L2_defect_sign",
        "barriers.verify_comparison", "cli.main", "cli.solve", "cli.verify",
    ),
    "strip": (
        "solver.solve_reflection_near_sonic", "solver.derivative_fields", "coefficients.evaluate",
        "coefficients.zeta", "coefficients.reflection_coefficients", "shock.Psi", "shock.bhat",
        "shock.check_g_unique", "shock.largest_valid_eps", "reflection.solve_state2",
        "reflection.shock_chart_table", "grids.save", "grids.load", "diagnostics.full_report",
        "diagnostics.write_station_trace_csv", "cli.main", "cli.config", "cli.solve", "cli.verify",
    ),
    "algebra": (
        "reflection.solve_state2", "reflection.detachment_angle", "reflection.shock_chart_table",
        "shock.Psi", "shock.bhat", "shock.check_g_unique", "shock.largest_valid_eps",
        "cli.main", "cli.config", "cli.verify", "cli.sweep",
    ),
}


class Tracer:
    """Per-name call counts, inclusive and self times, and solver iterations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.bytes = defaultdict(int)
        self.iterations = []  # (span name, nx, iterations) per returned field
        self.missing = []  # targets the program no longer defines
        self._stack = []  # [start, child seconds] per open span
        self._undo = []

    def span(self, name, fn):
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
            if name in SOLVER_SPANS:
                self.iterations.append((name, result.nx, int(result.meta["iterations"])))
            elif name in GRID_IO_SPANS:
                self.bytes[name] += _grid_file_bytes(args[-1])
            return result

        return wrapper

    def install(self):
        """Replace every srlab binding of each target by its traced wrapper."""
        modules = [m for k, m in sys.modules.items() if k == "srlab" or k.startswith("srlab.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            holder = getattr(owner, cls_name, None) if cls_name else owner
            if holder is None or meth not in vars(holder):
                self.missing.append(f"{modname}.{attr}")
                continue
            orig = vars(holder)[meth]
            if cls_name:
                if isinstance(orig, classmethod):
                    new = classmethod(self.span(name, orig.__func__))
                else:
                    new = self.span(name, orig)
                self._undo.append((holder, meth, orig))
                setattr(holder, meth, new)
                continue
            wrapped = self.span(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def _grid_file_bytes(path):
    """Bytes of a grid's binary payload plus its JSON sidecar."""
    path = os.fspath(path)
    return sum(os.path.getsize(p) for p in (path, path + ".json") if os.path.exists(p))
