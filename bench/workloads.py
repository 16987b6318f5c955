"""The benchmark's three workloads, each a fixed sequence of srlab operations.

One operation is one CLI command (``srlab.cli.main`` in-process) or one API
solve.  An operation fails when it raises, exits non-zero, or misses the
tolerance the benchmark states for its output.  A missed tolerance, or an
output that differs from the same operation's output in an earlier pass of
the run, is also a wrong answer: the program reported success but its result
is not correct.  Raising and non-zero exits are the program's own, reported
refusals; they count as failed operations but not as wrong answers.

While a pass runs, ``reference.Sampler`` times the reference kernel at
the pass's ends and, in an untraced pass, every quarter second inside it;
the pass's time is scaled by the host speed those samples show.

srlab is reached only through attribute lookups at call time (``srlab.solve``,
``srlab.cli.main``), so a traced pass sees the wrappers that ``spans.py``
installs.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import srlab
import srlab.cli
from reference import Sampler

WORKLOADS = ("rect", "strip", "algebra")

# criterion-1 nested ladder: (n, omega_sor) on an n x n uniform grid
LADDER = ((65, 1.7), (129, 1.8), (257, 1.9))
A_MODEL, B_MODEL, RHAT = 2.4, 0.7765781059372254, 0.5

# criterion-6 strip cases: (gamma, theta_w in degrees)
STRIP_CASES = ((1.4, 60.0), (2.0, 60.0), (1.0, 75.0))

# algebra: sweep angles 50 .. 89 in 0.5 degree steps (shifted by the seed),
# and one configuration per gamma.  gamma = 3 detaches at 61.09 degrees, so
# its configuration is taken at 75 degrees, above detachment.
ALGEBRA_GAMMAS = (1.0, 1.4, 2.0, 3.0)
SWEEP_LO, SWEEP_HI, SWEEP_STEP = 50.0, 89.0, 0.5
ALGEBRA_THETA = {1.0: 60.0, 1.4: 60.0, 2.0: 60.0, 3.0: 75.0}
RH_TOL = 1e-12

_GOLDEN = 0.6180339887498949


def sweep_offset(seed: int) -> float:
    """Seed-derived shift of the sweep angles, in [0, step); 0 for seed 0."""
    return SWEEP_STEP * ((seed * _GOLDEN) % 1.0)


def _sha(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _g(x: float) -> str:
    return f"g{x:g}"


class Pass:
    """One pass of a workload: operations attempted, failed and wrong.

    ``refs`` maps an operation to the digest of its output in the first pass
    of the run; later passes (and the traced pass) must reproduce it.
    """

    def __init__(self, workload: str, work: Path, seed: int, refs: dict, timed: bool = False):
        self.workload = workload
        self.work = work
        self.seed = seed
        self.refs = refs
        self.timed = timed
        self.attempted = 0
        self.failures = {}  # op -> {"kind", "error"}; first failure of each op
        self.wrong = []  # ops whose output missed a benchmark gate
        self.iterations = {}  # op -> outer iterations of its solve
        self.jump_rel_err = {}  # gamma -> |jump - 1/(gamma+1)| * (gamma+1)
        self.sampler = None  # reference-kernel samples taken during the pass

    # -- recording --------------------------------------------------------

    def start_op(self):
        self.attempted += 1

    def fail(self, op, kind, error):
        self.failures.setdefault(op, {"kind": kind, "error": error})

    def gate(self, op, ok, detail):
        if not ok:
            self.wrong.append(op)
            self.fail(op, "gate", detail)
        return ok

    def digest(self, op, sha):
        ref = self.refs.setdefault(op, sha)
        return self.gate(op, sha == ref, f"output sha256 {sha[:16]} differs from first pass {ref[:16]}")

    def cli(self, op, argv, runnable=True):
        """Run one CLI command; True when it exits 0.

        An operation whose input an earlier failed operation should have
        written is still attempted, and fails as skipped.
        """
        self.start_op()
        if not runnable:
            self.fail(op, "skipped", "input from a failed operation is missing")
            return False
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = srlab.cli.main(argv)
        except Exception as exc:  # a raise is a failed operation, recorded with its type
            self.fail(op, "raised", f"{type(exc).__name__}: {exc}")
            return False
        if rc != 0:
            text = (err.getvalue() + out.getvalue()).strip().replace("\n", "; ")
            self.fail(op, f"exit {rc}", text)
        return rc == 0

    # -- workloads --------------------------------------------------------

    def run(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        with Sampler(self.timed) as self.sampler:
            getattr(self, "_" + self.workload)()
        return self

    def _rect(self):
        coeffs = srlab.model_coefficients(A_MODEL, B_MODEL)
        exact = lambda x: x * x / (2 * A_MODEL)
        bc = srlab.BoundaryConditions(outer=lambda y: exact(RHAT) * np.ones_like(y), y_lo=exact, y_hi=exact)
        prev = None
        for n, omega in LADDER:
            op = f"ladder.{n}"
            self.start_op()
            grid = srlab.GridSpec(rhat=RHAT, nx=n, ny=n, y_lo=-1.0, y_hi=1.0, grade_q=1.0)
            opts = srlab.SolverOptions(tolerance=1e-9, max_iterations=8000, omega_sor=omega)
            try:
                f = srlab.solve(coeffs, bc, grid, opts, init_power=1.5, init_field=prev)
            except Exception as exc:  # a raise is a failed operation, recorded with its type
                self.fail(op, "raised", f"{type(exc).__name__}: {exc}")
                prev = None
                continue
            prev = f
            self.iterations[op] = int(f.meta["iterations"])
            err = float(np.max(np.abs(f.values - exact(f.xs)[:, None])))
            bound = 10 * (RHAT / (n - 1)) ** 2
            if self.gate(op, err <= bound, f"max error {err:.3e} > 10h^2 = {bound:.3e}"):
                self.digest(op, hashlib.sha256(f.values.tobytes()).hexdigest())

        model = self.work / "model"
        grid = model / "grid.srl"
        solved = self.cli("model.solve", ["solve", "--mode", "model", "--grid", "97,49", "--grade", "0.95",
                                          "--perturb", "0.2", "--out", str(model)])
        if solved:
            self._record_solve("model.solve", grid)
        for what in ("barriers", "regularity"):
            op = f"model.verify_{what}"
            out = self.work / f"verify_{what}"
            if self.cli(op, ["verify", "--what", what, "--grid", str(grid), "--out", str(out)], solved):
                self.digest(op, _sha(out / f"verify_{what}.json"))

    def _strip(self):
        for gamma, theta in STRIP_CASES:
            case = self.work / _g(gamma)
            gas = ["--gamma", repr(gamma), "--theta-w", repr(theta)]
            configured = self._config(f"{_g(gamma)}.config", gas, case / "cfg")
            grid = case / "refl" / "grid.srl"
            op = f"{_g(gamma)}.solve"
            solved = self.cli(op, ["solve", "--mode", "reflection", *gas, "--grid", "121,49",
                                   "--out", str(case / "refl")], configured)
            if solved:
                self._record_solve(op, grid)
            op = f"{_g(gamma)}.verify_regularity"
            out = case / "verify_regularity"
            self.cli(op, ["verify", "--what", "regularity", "--grid", str(grid), "--out", str(out)], solved)
            # verify writes its report before it exits 4 on a failed check, so
            # the jump is gated even when the command itself failed
            report = out / "verify_regularity.json"
            if solved and report.exists():
                self.digest(op, _sha(report))
                jump = json.loads(report.read_text())["report"]["jump"]
                target = 1.0 / (gamma + 1.0)
                rel = abs(jump - target) / target if jump is not None else math.inf
                self.jump_rel_err[gamma] = rel
                self.gate(op, rel <= 0.02, f"jump {jump} vs 1/(gamma+1) = {target:.5f}: {100 * rel:.2f}% > 2%")
            self._verify_rh(f"{_g(gamma)}.verify_rh", case, configured)

    def _algebra(self):
        lo = SWEEP_LO + sweep_offset(self.seed)
        n_angles = int(math.floor((SWEEP_HI - lo) / SWEEP_STEP + 1e-9)) + 1
        for gamma in ALGEBRA_GAMMAS:
            case = self.work / _g(gamma)
            op = f"{_g(gamma)}.sweep"
            if self.cli(op, ["sweep", "--gamma", repr(gamma), "--theta-min", repr(lo),
                             "--theta-max", repr(SWEEP_HI), "--theta-step", repr(SWEEP_STEP),
                             "--out", str(case / "sweep")]):
                self._check_sweep(op, case / "sweep" / "sweep.csv", lo, n_angles)
            gas = ["--gamma", repr(gamma), "--theta-w", repr(ALGEBRA_THETA[gamma])]
            configured = self._config(f"{_g(gamma)}.config", gas, case / "cfg")
            self._verify_rh(f"{_g(gamma)}.verify_rh", case, configured)

    # -- shared operations and output checks ------------------------------

    def _config(self, op, gas, out):
        ok = self.cli(op, ["config", *gas, "--out", str(out)])
        if ok:
            self.digest(op, _sha(out / "config_summary.json"))
        return ok

    def _verify_rh(self, op, case, configured):
        out = case / "verify_rh"
        if self.cli(op, ["verify", "--what", "rh", "--config", str(case / "cfg" / "config_weak.json"),
                         "--out", str(out)], configured):
            self.digest(op, _sha(out / "verify_rh.json", out / "shock_trace.csv"))

    def _record_solve(self, op, grid):
        meta = json.loads(Path(str(grid) + ".json").read_text())["meta"]
        self.iterations[op] = int(meta["iterations"])
        self.digest(op, _sha(grid))

    def _check_sweep(self, op, path, lo, n_angles):
        rows = np.genfromtxt(path, delimiter=",", comments="#", skip_header=3).reshape(-1, 7)
        if not self.gate(op, len(rows) == n_angles, f"{len(rows)} sweep rows, expected {n_angles}"):
            return
        if not self.gate(op, rows[0, 0] == lo, f"first sweep angle {rows[0, 0]!r}, expected {lo!r}"):
            return
        solved = np.isfinite(rows[:, 1])
        worst = float(np.max(rows[solved, 6])) if solved.any() else 0.0
        if self.gate(op, worst <= RH_TOL, f"RH residual {worst:.3e} > {RH_TOL:g} on a solved row"):
            self.digest(op, _sha(path))
