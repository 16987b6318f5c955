"""The benchmark's set-up: import srlab and run one warm-up nested solve.

Run as a script from the root of a checkout (``python3 bench/warmup.py``) it
is the unit that ``setup_s`` times, from process start to exit.  The nested
solve seeds a 17x17 solve from a 9x9 one, so the lazy ``scipy.interpolate``
import behind ``solve(init_field=...)`` is part of set-up, not of a pass.
"""

import sys
from pathlib import Path


def warm_up():
    import numpy as np
    import srlab

    a, b = 2.4, 0.7765781059372254
    exact = lambda x: x * x / (2 * a)
    bc = srlab.BoundaryConditions(outer=lambda y: exact(0.5) * np.ones_like(y), y_lo=exact, y_hi=exact)
    coeffs = srlab.model_coefficients(a, b)
    opts = srlab.SolverOptions(tolerance=1e-7, max_iterations=500)
    prev = None
    for n in (9, 17):
        grid = srlab.GridSpec(rhat=0.5, nx=n, ny=n, y_lo=-1.0, y_hi=1.0, grade_q=1.0)
        prev = srlab.solve(coeffs, bc, grid, opts, init_field=prev)


if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    warm_up()
