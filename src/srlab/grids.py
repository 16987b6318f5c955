"""Scalar fields on rectangular or shock-fitted strip grids, with file I/O.

Binary layout (grid payload, little endian):
    magic "SRLGRID1" | u64 nx | u64 ny | f64 xs[nx] | f64 ys[ny] | f64 psi[nx*ny]
with psi stored row-major in x (index i*ny + j).  A JSON sidecar carries the
geometry descriptor, solver metadata, and the run-configuration digest.
"""

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["ScalarField2D", "geometric_axis", "uniform_axis"]

_MAGIC = b"SRLGRID1"


def _write_csv(path, names, columns, digest: str, notes=()) -> None:
    """srlab's one CSV format: "# runconfig_digest=" and "# <note>" lines, a header, rows of repr(float)."""
    comments = [f"runconfig_digest={digest}", *notes]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(names) + "\n")
        rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_json(path, payload: dict) -> None:
    """srlab's one JSON format: keys sorted, one-space indent, a closing newline."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="ascii")  # in one write


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 3:
        raise ValueError("need at least 3 nodes per axis")
    return np.linspace(lo, hi, n)


def geometric_axis(length: float, n: int, q: float = 0.95) -> np.ndarray:
    """Nodes on [0, length], geometrically graded toward 0 with spacing ratio q.

    Adjacent spacings satisfy h_{k} = h_{k+1} * q moving toward 0, so the
    finest cell touches x = 0.  q = 1 reduces to the uniform axis.  Raises
    ValueError, before allocating the axis, when the grade is too steep for
    n nodes: (1/q)^(n-1) overflows or the finest cell underflows.
    """
    if n < 3:
        raise ValueError("need at least 3 nodes per axis")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"grading ratio must lie in (0, 1], got {q}")
    m = n - 1
    if q == 1.0:
        return np.linspace(0.0, length, n)
    ratio = 1.0 / q
    try:
        h0 = length * (ratio - 1.0) / (ratio**m - 1.0)
    except OverflowError:
        h0 = 0.0
    if not np.finfo(float).tiny <= h0 < np.inf:
        raise ValueError(f"grading ratio {q} is too steep for {n} nodes: the finest cell {h0:.3g} "
                         f"is not a positive normal float")
    steps = h0 * ratio ** np.arange(m)
    xs = np.concatenate([[0.0], np.cumsum(steps)])
    xs[-1] = length
    return xs


@dataclass
class ScalarField2D:
    """Grid values psi with geometry metadata.

    geometry["kind"] is "rect" (ys are physical ordinates) or "sonic_strip"
    (ys is the normalized ordinate s in [0, 1]; geometry carries the shock
    image fhat and its chart derivatives per x-node, plus the configuration).
    """

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray
    geometry: dict = field(default_factory=lambda: {"kind": "rect"})
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if not (isinstance(self.geometry, dict) and isinstance(self.meta, dict)):
            raise ValueError("geometry and meta must be JSON objects")
        if self.values.shape != (self.xs.size, self.ys.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match axes "
                f"({self.xs.size}, {self.ys.size})"
            )
        if not (np.all(np.diff(self.xs) > 0.0) and np.all(np.diff(self.ys) > 0.0)):  # NaN fails too
            raise ValueError("axis coordinates must be strictly increasing")
        if self.kind == "sonic_strip":  # the strip's chain rule reads these per x-node
            for key in ("fhat", "g", "gp"):
                col = np.asarray(self.geometry.get(key, ()), dtype=float)
                if col.shape != self.xs.shape or not np.all(np.isfinite(col)):
                    raise ValueError(f"sonic_strip geometry needs {self.nx} finite {key!r} entries")

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def ny(self) -> int:
        return self.ys.size

    @property
    def kind(self) -> str:
        return self.geometry.get("kind", "rect")

    # -- I/O -------------------------------------------------------------

    def save(self, path) -> None:
        """Write <path> binary payload and <path>.json sidecar."""
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQ", self.nx, self.ny))
            fh.write(self.xs.astype("<f8").tobytes())
            fh.write(self.ys.astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(self.values, dtype="<f8").tobytes())
        sidecar = {
            "format": _MAGIC.decode("ascii"),
            "nx": self.nx,
            "ny": self.ny,
            "geometry": self.geometry,
            "meta": self.meta,
        }
        _write_json(path.with_suffix(path.suffix + ".json"), sidecar)

    @classmethod
    def load(cls, path) -> "ScalarField2D":
        path = Path(path)
        with open(path, "rb") as fh:
            magic = fh.read(8)
            if magic != _MAGIC:
                raise ValueError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            nx, ny = map(int, np.frombuffer(fh.read(16), dtype="<u8"))  # ValueError when truncated
            size, have = 24 + 8 * (nx + ny + nx * ny), path.stat().st_size
            if min(nx, ny) < 3 or have != size:
                raise ValueError(f"header nx={nx}, ny={ny} needs at least 3 nodes per axis and "
                                 f"{size} bytes, file has {have}")
            xs = np.frombuffer(fh.read(8 * nx), dtype="<f8").copy()
            ys = np.frombuffer(fh.read(8 * ny), dtype="<f8").copy()
            vals = np.frombuffer(fh.read(8 * nx * ny), dtype="<f8").copy().reshape(nx, ny)
        geometry, meta = {"kind": "rect"}, {}
        sidecar = path.with_suffix(path.suffix + ".json")
        if sidecar.exists():
            with open(sidecar, encoding="ascii") as fh:
                d = json.load(fh)
            if not isinstance(d, dict):
                raise ValueError(f"sidecar {sidecar} is not a JSON object")
            geometry = d.get("geometry", geometry)
            meta = d.get("meta", meta)
        return cls(xs, ys, vals, geometry, meta)

    def export_csv(self, path, digest: str) -> None:
        """Write one (x, y, psi) row per node, x-major."""
        cols = (np.repeat(self.xs, self.ny), np.tile(self.ys, self.nx), self.values.ravel())
        _write_csv(path, ("x", "y", "psi"), cols, digest)
