import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
