import argparse
import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_span_targets_resolve():
    # the benchmark traces srlab by name; every target it names must exist,
    # defined on its module or class, as its tracer looks it up
    spans = _spans()
    missing = []
    for _, modname, attr in spans.TARGETS:
        holder = importlib.import_module(modname)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            holder = getattr(holder, cls_name, None)
        if holder is None or name not in vars(holder):
            missing.append(f"{modname}.{attr}")
    assert not missing
    assert spans.TARGETS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_traced_pass_is_correct(workload):
    # a traced pass must reproduce the untraced one (outputs, iteration counts)
    # and enter every span the workload requires, or the benchmark rejects it
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report, result = proc.stdout.splitlines()[-2:]
    assert json.loads(result)["correct"], report


def test_bench_solver_options_are_fields():
    # the benchmark builds SolverOptions by keyword; a keyword that is no
    # longer a field fails its solves at run time, so it is caught here
    from srlab import SolverOptions

    fields = {f.name for f in dataclasses.fields(SolverOptions)}
    used = []
    for name in ("workloads.py", "warmup.py"):
        for node in ast.walk(ast.parse((BENCH / name).read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == "SolverOptions":
                    used += [(name, kw.arg) for kw in node.keywords]
    assert used
    assert [u for u in used if u[1] not in fields] == []


def test_only_the_cli_prints():
    # the library reports through logging and return values; the command
    # line alone writes to stdout and stderr
    printing = []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                printing.append(f"{path.name}:{node.lineno}")
    assert printing == []


def test_one_krylov_path():
    # the solver's GMRES cycle is its own (solver._krylov_step); no module
    # names scipy's iterative solvers or the LinearOperator they take
    iterative = {"LinearOperator", "aslinearoperator", "bicg", "bicgstab", "cg", "cgs", "gcrotmk", "gmres",
                 "lgmres", "lsmr", "lsqr", "minres", "qmr", "tfqmr"}
    naming = []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)} | {
                a.name for a in getattr(node, "names", ()) if isinstance(a, ast.alias)}
            if names & iterative:
                naming.append(f"{path.name}:{node.lineno}")
    assert naming == []


def test_one_factorisation_path():
    # the solver's sparse LU is its one factorisation (solver._factor, with its
    # supernode settings); no other code in src/srlab names scipy's direct solvers
    direct = {"splu", "spilu", "spsolve", "spsolve_triangular", "factorized"}
    naming = []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        factor = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_factor"]
        inside = {id(node) for f in factor for node in ast.walk(f)} if path.name == "solver.py" else set()
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)} | {
                a.name for a in getattr(node, "names", ()) if isinstance(a, ast.alias)}
            if names & direct:
                naming.append("solver._factor" if id(node) in inside else f"{path.name}:{node.lineno}")
    assert set(naming) == {"solver._factor"}


def test_one_polynomial_type():
    # the closure's rows and the barriers' jets are one polynomial type:
    # coefficients._Poly is the one class numpy defers its operators to
    # (__array_ufunc__), and barriers spells no arithmetic of its own
    arithmetic = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                  "__neg__", "__pow__", "__array_ufunc__"}
    deferring, spelled = [], []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)} | {
                t.id for n in node.body if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target]) if isinstance(t, ast.Name)}
            if "__array_ufunc__" in names:
                deferring.append(f"{path.stem}.{node.name}")
            if path.stem == "barriers" and names & arithmetic:
                spelled.append(f"{node.name}: {sorted(names & arithmetic)}")
    assert deferring == ["coefficients._Poly"]
    assert spelled == []


def test_the_algebra_takes_no_blas_products():
    # the reflected-state algebra, the shock condition and the gas law write
    # every dot product and norm as a two-term sum; `@`, np.dot and np.linalg
    # go through BLAS, whose products may round differently on another build
    using = []
    for name in ("reflection.py", "shock.py", "states.py"):
        for node in ast.walk(ast.parse((ROOT / "src" / "srlab" / name).read_text())):
            if isinstance(getattr(node, "op", None), ast.MatMult) or getattr(node, "attr", None) in ("dot", "linalg"):
                using.append(f"{name}:{node.lineno}")
    assert using == []


def test_import_takes_no_polynomial_or_scipy_modules():
    # numpy.polynomial costs milliseconds of set-up on every command, so the
    # shock quadrature's Gauss-Legendre nodes are literals; scipy is imported
    # by the sparse solve itself, not by importing the package
    probe = ("import sys, srlab, srlab.cli; print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_algebra_commands_take_no_scipy_modules(tmp_path):
    # config, sweep and verify --what rh solve the reflected-state algebra
    # with numpy alone; a scipy import on their path would cost every such
    # process its set-up
    probe = ("import sys; from srlab.cli import main; "
             "codes = [main(['config', '--theta-w', '60', '--out', 'c']), "
             "main(['sweep', '--theta-min', '50', '--theta-max', '52', '--out', 's']), "
             "main(['verify', '--what', 'rh', '--config', 'c/config_weak.json', '--out', 'v'])]; "
             "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"


def test_only_cli_main_maps_failures_to_exit_codes():
    # cli.main maps library errors and ValueError to exit codes; elsewhere in
    # the command line a clause that catches one may only re-raise it (the
    # verify input loader, in words that name its file)
    import srlab.errors

    def caught(node):  # the names an except clause catches; a bare one catches everything
        return {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)} if node else {"Exception"}

    broad = {"ValueError", "Exception", "BaseException"} | {
        n for n, v in vars(srlab.errors).items() if isinstance(v, type) and issubclass(v, Exception)}
    tree = ast.parse((ROOT / "src" / "srlab" / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    in_main = {id(n) for n in ast.walk(main)}
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    swallowing = [f"cli.py:{h.lineno}" for h in handlers if id(h) not in in_main
                  and caught(h.type) & broad and not isinstance(h.body[-1], ast.Raise)]
    assert swallowing == []
    assert any(id(h) in in_main for h in handlers)


def test_every_error_class_is_raised_somewhere():
    # an error class is raised, returned or warned when the library builds it
    # or passes it to warnings.warn; a base class is raised with its subclasses
    import srlab.errors

    built = set()
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                built.add(name)
                if name == "warn":
                    built |= {getattr(a, "id", getattr(a, "attr", None)) for a in node.args}
    classes = [v for v in vars(srlab.errors).values()
               if isinstance(v, type) and v.__module__ == srlab.errors.__name__]
    unraised = [c.__name__ for c in classes if not any(
        issubclass(d, c) and d.__name__ in built for d in classes)]
    assert classes
    assert unraised == []


def _calls_by_name():
    """Every call in src and bench, keyed by the called name (a function, method or class)."""
    calls = {}
    paths = sorted(ROOT.glob("src/**/*.py")) + sorted(BENCH.glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, index, name):
    """Whether call may set the parameter at positional index (None: keyword-only) or by name."""
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: a **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_optional_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant spelled as a knob; the
    # match is by name, so a call to any same-named function counts
    calls = _calls_by_name()
    unused = []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(tree, 0)] + [(n, 1) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope, bound in scopes:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                name = scope.name if fn.name == "__init__" else fn.name
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                shift = 0 if static else bound  # a call on an instance or class passes self or cls itself
                args = fn.args.posonlyargs + fn.args.args
                first = len(args) - len(fn.args.defaults)
                optional = [(i - shift, a.arg) for i, a in enumerate(args) if i >= first]
                optional += [(None, a.arg) for a, dflt in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                             if dflt is not None]
                unused += [f"{path.name}:{fn.lineno} {name}({arg})" for index, arg in optional
                           if not any(_passes(c, index, arg) for c in calls.get(name, []))]
    assert unused == []


def _option_strings(parser):
    """Every option string of parser and its subcommands, help aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _option_strings(sub)
        elif not isinstance(action, argparse._HelpAction):
            yield from action.option_strings


def test_every_cli_option_is_passed_somewhere():
    # an option that no test, benchmark argv or README example passes is a
    # knob nothing turns; a string literal in tests/ or bench/ counts as
    # passing it, as does a token of a README line that runs srlab
    passed = set()
    for path in sorted((ROOT / "tests").glob("*.py")) + sorted(BENCH.glob("*.py")):
        passed |= {node.value.partition("=")[0] for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("srlab "):
            passed |= set(line.split())
    from srlab.cli import build_parser

    options = set(_option_strings(build_parser()))
    assert "--out" in options
    assert sorted(options - passed) == []


def test_no_unused_top_level_imports():
    # a module-level import that the module never names is dead weight that
    # hides which modules really depend on which; __init__ imports to re-export
    unused = []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_all_lists_exactly_the_public_names():
    # a module's __all__ is its public surface: every public top-level
    # function and class, each once, and nothing else
    wrong = []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        listed = [ast.literal_eval(n.value) for n in tree.body if isinstance(n, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in n.targets)]
        if not listed:
            continue
        public = {n.name for n in tree.body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}
        if sorted(listed[-1]) != sorted(public):
            wrong.append(f"{path.name}: missing {sorted(public - set(listed[-1]))}, "
                         f"extra {sorted(set(listed[-1]) - public)}, listed {len(listed[-1])}")
    assert wrong == []


def _bindings(tree, module):
    """The dotted path each name of a file stands for: its imports, and its own module-level functions and classes."""
    bound = {n.name: f"{module}.{n.name}" for n in tree.body
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))} if module else {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({a.asname or a.name.partition(".")[0]: a.name if a.asname else a.name.partition(".")[0]
                          for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("srlab" if node.level else None, node.module)))
            bound.update({a.asname or a.name: f"{base}.{a.name}" for a in node.names})
    return bound


def _lookup(dotted):
    """The srlab object a dotted path reaches, or None."""
    head, *rest = dotted.split(".")
    if head != "srlab":
        return None
    obj = importlib.import_module(head)
    for part in rest:
        try:
            obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(f"{obj.__name__}.{part}")
        except (ImportError, AttributeError):
            return None
    return obj


def _resolve(dotted):
    """(module, qualified name) of the srlab object a dotted path reaches, a property's getter for a property."""
    obj = _lookup(dotted)
    obj = obj.fget if isinstance(obj, property) else obj
    return getattr(obj, "__module__", None), getattr(obj, "__qualname__", None)


class _References(ast.NodeVisitor):
    """The srlab objects a file's loaded names and attribute chains reach, and the attributes it loads by name alone.

    A name that a function binds (a parameter or an assignment anywhere in
    it) is that function's own, so a local that shadows a module-level
    function does not count as a reference to it.  A local's class is known
    where the file binds it: self (or cls) inside its class, x = Class(...)
    on every assignment to x, or an annotation naming one srlab class; an
    attribute of such a receiver reaches that class's member; an attribute
    of a receiver with no binding (no import, class or typed local) is
    recorded by name alone.
    """

    def __init__(self, bound):
        self.bound, self.local, self.types, self.methods = bound, frozenset(), {}, {}
        self.objects, self.attrs = set(), set()

    def _dotted(self, node):
        if isinstance(node, ast.Name):
            return None if node.id in self.local else self.bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    def _class(self, node):
        """The dotted path of the srlab class that node names, alone or optional (an annotation), or None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):  # a forward reference
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Subscript) and self._dotted(node.value) == "typing.Optional":
            node = node.slice
        elif isinstance(node, ast.BinOp) and isinstance(node.right, ast.Constant) and node.right.value is None:
            node = node.left  # X | None
        dotted = self._dotted(node)
        return dotted if isinstance(_lookup(dotted or ""), type) else None

    def _reach(self, node):
        dotted = self._dotted(node)
        if dotted:
            self.objects.add(_resolve(dotted))

    def visit_ClassDef(self, node):
        owner = self.bound.get(node.name)  # a module-level class of srlab
        self.methods.update({id(fn): owner for fn in node.body if isinstance(fn, ast.FunctionDef)
                             and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)})
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        outer, outer_types = self.local, self.types
        params = [a for a in ast.walk(node.args) if isinstance(a, ast.arg)]
        stores = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        own = {a.arg for a in params} | set(stores)
        self.local = outer | own
        # every binding of a name in this function, as the class it binds or None
        binds = {}
        for a in params:
            binds.setdefault(a.arg, []).append(a.annotation and self._class(a.annotation))
        if params and self.methods.get(id(node)):
            binds[params[0].arg] = [self.methods[id(node)]]
        typed = [(n.targets[0].id, n.value.func) for n in ast.walk(node) if isinstance(n, ast.Assign)
                 and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name) and isinstance(n.value, ast.Call)]
        typed += [(n.target.id, n.annotation) for n in ast.walk(node)
                  if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
        for name, cls in typed:
            binds.setdefault(name, []).append(self._class(cls))
        for name in set(stores):
            binds.setdefault(name, []).extend([None] * (stores.count(name) - sum(n == name for n, _ in typed)))
        self.types = {k: v for k, v in outer_types.items() if k not in own}
        self.types.update({k: v[0] for k, v in binds.items() if v[0] and v.count(v[0]) == len(v)})
        self.generic_visit(node)
        self.local, self.types = outer, outer_types

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    visit_Name = _reach

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            owner = self.types.get(node.value.id) if isinstance(node.value, ast.Name) else None
            if owner:
                self.objects.add(_resolve(f"{owner}.{node.attr}"))
            elif self._dotted(node.value) is None:  # no module, class or import: matched by name
                self.attrs.add(node.attr)
        self._reach(node)
        self.generic_visit(node)


def _library_api():
    """The public names the README's Library API list keeps without a caller, as srlab.module[.Class].name."""
    _, found, rest = (ROOT / "README.md").read_text().partition("\n## Library API\n")
    assert found, "README.md has no Library API section"
    return set(re.findall(r"^- `(srlab\.[\w.]+)`", rest.partition("\n## ")[0], re.M))


def test_every_public_function_has_a_caller():
    # a public function or method that only tests call is surface nothing
    # uses; src and bench must reference it, other than by its own def,
    # __all__ or the re-exports of srlab/__init__.py.  Module-level functions
    # are resolved through each file's import bindings, so a same-named
    # attribute (NoConvergence.residual) does not count for solver.residual;
    # a method through its receiver's class where the file binds it
    # (_References), and by attribute name alone only where it does not.
    # The benchmark's span targets are strings and count too.
    objects, attrs = set(), set()
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")) + sorted(BENCH.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        refs = _References(_bindings(tree, f"srlab.{path.stem}" if path.parent.name == "srlab" else None))
        refs.visit(tree)
        objects |= refs.objects
        attrs |= refs.attrs
    for _, modname, attr in _spans().TARGETS:
        objects.add(_resolve(f"{modname}.{attr}"))

    public, unused = set(), []
    for path in sorted((ROOT / "src" / "srlab").glob("*.py")):
        module = f"srlab.{path.stem}"
        tree = ast.parse(path.read_text())
        defs = [(fn, None) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        defs += [(fn, cls.name) for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for fn, cls in defs:
            if fn.name.startswith("_"):
                continue
            qualname = f"{cls}.{fn.name}" if cls else fn.name
            public.add(f"{module}.{qualname}")
            if not ((module, qualname) in objects or cls and fn.name in attrs):
                unused.append(f"{module}.{qualname}")
    allowed = _library_api()
    assert sorted(allowed - public) == []
    assert sorted(set(unused) - allowed) == []


def test_stencil_tables_are_built_once_per_newton_level(monkeypatch, weak60):
    # each Newton level builds one x-table and one y-table (reflective on its
    # Neumann sides) and hands them to every derivative pass and to the
    # system's weight table: a nested solve of three levels, and a strip solve
    import numpy as np

    import srlab
    from srlab import solver

    built, table = [], solver._stencil_table

    def spy(xs, reflect=(False, False)):
        built.append((xs.copy(), tuple(reflect)))
        return table(xs, reflect)

    monkeypatch.setattr(solver, "_stencil_table", spy)

    grid = srlab.GridSpec(rhat=0.5, nx=49, ny=33, grade_q=0.95)
    field = srlab.solve(srlab.model_coefficients(2.4, 0.8), srlab.BoundaryConditions(outer=lambda y: 0.05 + 0 * y),
                        grid)
    levels = solver._levels(grid)
    assert [lv["shape"] for lv in field.meta["levels"]] == [[13, 9], [25, 17], [49, 33]]
    assert sum(lv["iterations"] for lv in field.meta["levels"]) > 2 * len(levels)
    want = [(axis, flags) for lv in levels for axis, flags in zip(lv.axes(), ((False, False), (True, True)))]
    assert len(built) == len(want)
    assert all(np.array_equal(g, w) and gf == wf for (g, gf), (w, wf) in zip(built, want))

    built.clear()
    strip = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=41, grid_ny=17)
    assert strip.meta["iterations"] > 2
    assert len(built) == 2
    assert np.array_equal(built[0][0], strip.xs) and built[0][1] == (False, False)
    assert np.array_equal(built[1][0], strip.ys) and built[1][1] == (True, False)


def test_closure_tables_are_built_once_per_newton_level(monkeypatch, weak60):
    # like the stencil tables, each Newton level builds the closure's table of
    # columns over x once, and every evaluation of the level reads it: a nested
    # solve of three levels, and a strip solve
    import srlab
    from srlab import solver
    from srlab.coefficients import CoefficientModel

    built, table = [], CoefficientModel.table

    def spy(self, x, companion=False):
        built.append(x.shape)
        return table(self, x, companion)

    monkeypatch.setattr(CoefficientModel, "table", spy)
    grid = srlab.GridSpec(rhat=0.5, nx=49, ny=33, grade_q=0.95)
    field = srlab.solve(srlab.model_coefficients(2.4, 0.8), srlab.BoundaryConditions(outer=lambda y: 0.05 + 0 * y),
                        grid)
    assert sum(lv["iterations"] for lv in field.meta["levels"]) > 2 * len(solver._levels(grid))
    assert built == [(lv.nx, 1) for lv in solver._levels(grid)]

    built.clear()
    strip = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=41, grid_ny=17)
    assert strip.meta["iterations"] > 2
    assert built == [(41, 1)]


def test_slope_window_is_measured_once_per_newton_level(monkeypatch, weak60):
    # the Newton steps never read the slope window: zeta is called once per
    # level, on the slope of the level's converged iterate, for the clamp
    # fraction alone.  A nested solve of three levels, and a strip solve
    import numpy as np

    import srlab
    from srlab import solver

    slopes, zeta = [], solver.zeta

    def spy(s, a, beta, M):
        slopes.append(np.array(s))
        return zeta(s, a, beta, M)

    def converged_slope(field, a, neumann):
        d = solver._derivative_pass(field, (solver._stencil_table(field.xs), solver._stencil_table(field.ys, neumann)))
        x = field.xs[:, None]
        return (x / a - d["px"]) / np.where(x > 0.0, x, 1.0)

    monkeypatch.setattr(solver, "zeta", spy)
    grid = srlab.GridSpec(rhat=0.5, nx=49, ny=33, grade_q=0.95)
    field = srlab.solve(srlab.model_coefficients(2.4, 0.8), srlab.BoundaryConditions(outer=lambda y: 0.05 + 0 * y),
                        grid)
    assert all(lv["iterations"] > 1 for lv in field.meta["levels"])  # each level takes a Newton step
    assert [s.shape for s in slopes] == [(lv.nx, lv.ny) for lv in solver._levels(grid)]
    assert np.array_equal(slopes[-1], converged_slope(field, 2.4, (True, True)))

    slopes.clear()
    strip = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=41, grid_ny=17)
    assert strip.meta["iterations"] > 2
    assert len(slopes) == 1
    assert np.array_equal(slopes[0], converged_slope(strip, weak60.gas.gamma + 1.0, (True, False)))


def test_strip_solve_takes_no_complex_step_of_the_closure(monkeypatch, weak60):
    # the operator's coefficients and their partials come from the closure's
    # table in real arithmetic: a 121x49 strip solve passes no complex array
    # to the closure's evaluation, and the one complex step it takes is the
    # jump condition's, in the shock row's psi_gradient
    import numpy as np

    import srlab
    from srlab import coefficients, shock

    kinds, callers = [], []
    values, stepped = coefficients._values, coefficients.complex_step_partials

    def spy_values(rows, *m):
        kinds.extend(np.iscomplexobj(v) for v in m)
        return values(rows, *m)

    def spy_step(f, *args):
        callers.append(sys._getframe(1).f_code.co_name)
        return stepped(f, *args)

    monkeypatch.setattr(coefficients, "_values", spy_values)
    for module in (coefficients, shock):
        monkeypatch.setattr(module, "complex_step_partials", spy_step)
    field = srlab.solve_reflection_near_sonic(weak60, weak60.c2 / 20.0, grid_nx=121, grid_ny=49)
    assert field.meta["iterations"] > 2
    assert kinds and not any(kinds)
    assert callers and set(callers) == {"psi_gradient"}
