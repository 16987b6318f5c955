"""srlab benchmark: end-to-end time and failures per workload, or a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload rect|strip|algebra --seed N --seconds S --trace 0|1

With ``--trace 0`` it repeats passes of the workload until ``--seconds`` is
spent (at least one) and reports ``wall_ref``, the median over passes of the
pass time in units of a reference kernel timed every quarter second during
the pass (see ``reference.py``); the median ``setup_s`` over fresh
processes that import srlab and run one warm-up nested solve, scaled to a
host on which that kernel takes ``REF_KERNEL_S``; and the share
of operations that succeeded, ``ops_ok_frac``.  With
``--trace 1`` it runs one untraced and one traced pass and reports per-layer
spans (calls, self time) after checking that the traced pass reproduced the
untraced one: same outputs byte for byte, same solver iteration counts, and
calls on every span the workload must enter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the machine fingerprint, every failed operation with its error,
``ops_failed_frac``, the median pass time ``wall_s`` in seconds and the
per-pass times.  BLAS is pinned to one thread
before numpy loads.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# set-up time is reported for a host on which the reference kernel takes this
# long, so a drift in the shared host's speed between runs does not move it
REF_KERNEL_S = 0.010
SETUP_KERNEL_SAMPLES = 3
TIMERS_NOTE = ("process-local timers only (perf_counter, process_time, getrusage): the host "
               "allows no system-wide tracing and no page-cache control")

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("ops_ok_frac", "fraction"))

_SPAN_METRICS = (
    "solver.solve", "solver.solve_reflection_near_sonic", "solver.derivative_fields",
    "coefficients.evaluate", "coefficients.zeta", "shock.Psi", "shock.bhat",
    "reflection.solve_state2", "grids.save", "grids.load",
    "cli.config", "cli.solve", "cli.verify", "cli.sweep",
)
_SELF_ONLY = (
    "shock.check_g_unique", "shock.largest_valid_eps", "reflection.detachment_angle",
    "reflection.shock_chart_table", "diagnostics.full_report", "diagnostics.write_station_trace_csv",
    "barriers.choose_subsolution_params", "barriers.scan_L1_sign", "barriers.scan_L2_defect_sign",
    "barriers.verify_comparison",
)
JUMP_GAMMAS = (1.4, 2.0, 1.0)
PER_LAYER = (
    tuple((f"{n}.{k}", u) for n in _SPAN_METRICS for k, u in (("calls", "count"), ("s", "s")))
    + tuple((f"{n}.s", "s") for n in _SELF_ONLY)
    + (("solver.iterations", "count"), ("solver.iterations.65", "count"),
       ("solver.iterations.129", "count"), ("solver.iterations.257", "count"),
       ("solver.s_per_iteration", "s"), ("grids.save.bytes", "bytes"), ("grids.load.bytes", "bytes"),
       ("cli.self_s", "s"))
    + tuple((f"diagnostics.jump_rel_err.{g!r}", "fraction") for g in JUMP_GAMMAS)
    + (("process.peak_rss_mb", "MB"), ("process.cpu_s", "s"), ("trace.overhead_s", "s"),
       ("reference.kernel_s", "s"))
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("rect", "strip", "algebra"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(root: Path) -> tuple:
    """Seconds from process start to exit of one import plus warm-up solve:
    as measured, and scaled to a host on which the reference kernel, timed
    just before and just after, takes ``REF_KERNEL_S``."""
    from reference import kernel_seconds

    ks = [kernel_seconds() for _ in range(SETUP_KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "warmup.py")], cwd=root, check=True,
                   stdout=subprocess.DEVNULL)
    raw = time.perf_counter() - t0
    ks += [kernel_seconds() for _ in range(SETUP_KERNEL_SAMPLES)]
    return raw, raw * REF_KERNEL_S * statistics.mean(1.0 / k for k in ks)


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_PIN},
        "timers": TIMERS_NOTE,
    }


def timed_pass(workload, work, seed, refs, timed):
    """One pass; its wall and CPU seconds leave out the reference kernel."""
    from workloads import Pass

    t0, c0 = time.perf_counter(), time.process_time()
    p = Pass(workload, work, seed, refs, timed).run()
    ref = sum(p.sampler.samples)
    return p, time.perf_counter() - t0 - ref, time.process_time() - c0 - ref


def layer_metrics(tracer, traced, wall0, wall1, cpu0) -> dict:
    """Per-layer values of one traced pass, named as in PER_LAYER."""
    from spans import SOLVER_SPANS

    v = {}
    for n in _SPAN_METRICS:
        v[f"{n}.calls"] = tracer.calls[n]
        v[f"{n}.s"] = tracer.self_s[n]
    for n in _SELF_ONLY:
        v[f"{n}.s"] = tracer.self_s[n]
    iters = sum(it for _, _, it in tracer.iterations)
    v["solver.iterations"] = iters
    for n in (65, 129, 257):
        v[f"solver.iterations.{n}"] = sum(it for s, nx, it in tracer.iterations if s == "solver.solve" and nx == n)
    solver_s = sum(tracer.total_s[n] for n in SOLVER_SPANS)
    v["solver.s_per_iteration"] = solver_s / iters if iters else 0.0
    v["grids.save.bytes"] = tracer.bytes["grids.save"]
    v["grids.load.bytes"] = tracer.bytes["grids.load"]
    v["cli.self_s"] = sum(s for n, s in tracer.self_s.items() if n.startswith("cli."))
    for g in JUMP_GAMMAS:
        v[f"diagnostics.jump_rel_err.{g!r}"] = traced.jump_rel_err.get(g, 0.0)
    v["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    v["process.cpu_s"] = cpu0
    v["trace.overhead_s"] = wall1 - wall0
    v["reference.kernel_s"] = statistics.mean(traced.sampler.samples)
    return v


def trace_problems(workload, tracer, untraced, traced) -> list:
    """Reasons the traced pass does not describe the untraced one."""
    from spans import REQUIRED

    problems = [f"target not found: {t}" for t in tracer.missing]
    problems += [f"span {n} recorded no calls" for n in REQUIRED[workload] if tracer.calls[n] == 0]
    seen = sorted(it for _, _, it in tracer.iterations)
    if seen != sorted(untraced.iterations.values()) or traced.iterations != untraced.iterations:
        problems.append(f"solver iterations differ: traced {traced.iterations} (spans {seen}), "
                        f"untraced {untraced.iterations}")
    if set(traced.failures) != set(untraced.failures):
        problems.append("traced and untraced passes failed different operations")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "srlab" / "__init__.py").is_file():
        print(f"srlab sources not found under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_PIN:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))

    # set-up samples are split between the start and the end of the run, so
    # one burst of load from other processes on the host skews fewer of them
    setup = [] if args.trace else [time_setup(root) for _ in range(SETUP_SAMPLES // 2)]
    from warmup import warm_up
    from workloads import sweep_offset
    import srlab

    if not Path(srlab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported srlab from {srlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    warm_up()

    work = BENCH / ".work" / args.workload
    refs = {}
    report = {"workload": args.workload, "seed": args.seed, "fingerprint": fingerprint()}
    if args.workload == "algebra":
        report["sweep_offset_deg"] = sweep_offset(args.seed)

    if args.trace:
        from spans import Tracer

        untraced, wall0, cpu0 = timed_pass(args.workload, work, args.seed, refs, False)
        tracer = Tracer()
        tracer.install()
        try:
            traced, wall1, _ = timed_pass(args.workload, work, args.seed, refs, False)
        finally:
            tracer.uninstall()
        passes, walls = [untraced, traced], [wall0, wall1]
        problems = trace_problems(args.workload, tracer, untraced, traced)
        values = layer_metrics(tracer, traced, wall0, wall1, cpu0)
        units = dict(PER_LAYER)
    else:
        passes, walls = [], []
        t_start = time.perf_counter()
        while True:
            p, wall, _ = timed_pass(args.workload, work, args.seed, refs, True)
            passes.append(p)
            walls.append(wall)
            if time.perf_counter() - t_start + statistics.median(walls) > args.seconds:
                break
        setup += [time_setup(root) for _ in range(SETUP_SAMPLES - len(setup))]
        problems = []
        units = dict(END_TO_END)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    rel = [p.sampler.work(w) for p, w in zip(passes, walls)]
    if not args.trace:
        values = {"wall_ref": statistics.median(rel), "setup_s": statistics.median(s for _, s in setup),
                  "ops_ok_frac": 1.0 - failed / attempted}
    wrong = sorted({op for p in passes for op in p.wrong})
    failures = {}
    for p in passes:
        for op, rec in p.failures.items():
            failures.setdefault(op, dict(rec, passes=0))["passes"] += 1
    report.update({
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "ops_failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "reference_kernel_s": statistics.mean(t for p in passes for t in p.sampler.samples),
        "reference_samples": [len(p.sampler.samples) for p in passes],
        "pass_wall_s": walls, "pass_wall_ref": rel, "setup_samples_s": [raw for raw, _ in setup],
        "setup_scaled_s": [s for _, s in setup],
        "iterations": passes[0].iterations, "failures": failures,
        "wrong_answers": wrong, "trace_problems": problems,
    })
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not wrong and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
