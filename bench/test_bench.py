"""The benchmark's own checks: counts repeat exactly, and the spec matches run.py.

Run from the root of a checkout (two traced passes of every workload, about
three minutes on a 2-core host):

    python3 -m pytest bench/test_bench.py
"""

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import REQUIRED, Tracer  # noqa: E402

# counts of one pass at the seed commit; a change that moves one of them
# moves it on purpose and updates it here
EXPECTED = {
    "rect": {
        "iterations": {"ladder.65": 135, "ladder.129": 261, "ladder.257": 933, "model.solve": 163},
        "solver.derivative_fields": 1500,
        "shock.Psi": 0,
        "failures": set(),
    },
    "strip": {
        "iterations": {"g1.4.solve": 416, "g2.solve": 702, "g1.solve": 198},
        "solver.derivative_fields": 1337,
        "shock.Psi": 27672,
        "failures": {"g2.verify_regularity"},
    },
    "algebra": {
        "iterations": {},
        "solver.derivative_fields": 0,
        "shock.Psi": 108,
        "failures": {"g1.sweep"},
    },
}


def _traced_pass(workload, work, refs):
    tracer = Tracer()
    tracer.install()
    try:
        p = workloads.Pass(workload, work, 0, refs).run()
    finally:
        tracer.uninstall()
    return p, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    refs = {}
    passes = [_traced_pass(workload, tmp_path / workload, refs) for _ in range(2)]
    want = EXPECTED[workload]
    for p, tracer in passes:
        assert p.iterations == want["iterations"]
        assert tracer.calls["solver.derivative_fields"] == want["solver.derivative_fields"]
        assert tracer.calls["shock.Psi"] == want["shock.Psi"]
        assert set(p.failures) == want["failures"]
        assert p.wrong == []  # includes byte-identical outputs across the two passes
        assert tracer.missing == []
        assert [n for n in REQUIRED[workload] if tracer.calls[n] == 0] == []
    assert dict(passes[0][1].calls) == dict(passes[1][1].calls)


def test_spec_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_seed_shifts_sweep_within_one_step():
    assert workloads.sweep_offset(0) == 0.0
    assert all(0.0 < workloads.sweep_offset(s) < workloads.SWEEP_STEP for s in range(1, 100))


def test_refuses_without_sources(tmp_path, capsys):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert run.main(["--workload", "algebra"]) == 2
    finally:
        os.chdir(cwd)
    assert capsys.readouterr().out == ""
