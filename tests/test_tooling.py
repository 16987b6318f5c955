import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"


def test_bench_span_targets_resolve():
    # the benchmark traces srlab by name; every target it names must exist,
    # defined on its module or class, as its tracer looks it up
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
