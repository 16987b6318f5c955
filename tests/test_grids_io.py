import json
import struct

import numpy as np
import pytest

from srlab.grids import ScalarField2D, geometric_axis, uniform_axis


def test_geometric_axis_endpoints_and_ratio():
    xs = geometric_axis(0.5, 65, 0.95)
    assert xs[0] == 0.0
    assert xs[-1] == 0.5
    h = np.diff(xs)
    assert np.all(h > 0)
    ratios = h[:-1] / h[1:]
    assert np.allclose(ratios, 0.95, rtol=1e-12)


def test_geometric_axis_uniform_limit():
    xs = geometric_axis(1.0, 11, 1.0)
    assert np.allclose(xs, np.linspace(0, 1, 11))


def test_axis_validation():
    with pytest.raises(ValueError):
        geometric_axis(1.0, 2, 0.95)
    with pytest.raises(ValueError):
        geometric_axis(1.0, 11, 1.5)
    with pytest.raises(ValueError):
        uniform_axis(0.0, 1.0, 2)


def test_geometric_axis_too_steep_for_its_nodes():
    # (1/q)^(n-1) past the float range, or a finest cell below the smallest
    # normal float, is a ValueError rather than an OverflowError or a zero cell
    for n in (1025, 1024):  # 2^1024 overflows; 1/(2^1023 - 1) is subnormal
        with pytest.raises(ValueError, match="too steep"):
            geometric_axis(1.0, n, 0.5)
    with pytest.raises(ValueError, match="too steep"):
        geometric_axis(0.5, 10**9, 0.95)
    xs = geometric_axis(1.0, 1022, 0.5)  # finest cell 1/(2^1021 - 1), still normal
    assert xs[1] >= np.finfo(float).tiny and xs[-1] == 1.0


def test_field_shape_validation():
    with pytest.raises(ValueError):
        ScalarField2D(np.linspace(0, 1, 5), np.linspace(0, 1, 4), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        ScalarField2D(np.array([0.0, 0.5, 0.4]), np.linspace(0, 1, 3), np.zeros((3, 3)))


def test_binary_roundtrip(tmp_path):
    xs = geometric_axis(0.3, 17, 0.9)
    ys = uniform_axis(-1.0, 1.0, 9)
    vals = np.outer(xs**2, np.cos(ys))
    f = ScalarField2D(xs, ys, vals, {"kind": "rect"}, {"note": "fixture", "residual_history": [1.0, 0.1]})
    path = tmp_path / "field.srl"
    f.save(path)
    back = ScalarField2D.load(path)
    assert np.array_equal(back.xs, xs)
    assert np.array_equal(back.ys, ys)
    assert np.array_equal(back.values, vals)
    assert back.meta["note"] == "fixture"
    assert back.geometry["kind"] == "rect"


def test_binary_layout_exact(tmp_path):
    # magic | u64 nx | u64 ny | xs | ys | row-major-in-x values, little endian
    xs = np.array([0.0, 0.25, 1.0])
    ys = np.array([0.0, 1.0])
    vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    f = ScalarField2D(xs, ys, vals)
    path = tmp_path / "g.srl"
    f.save(path)
    raw = path.read_bytes()
    assert raw[:8] == b"SRLGRID1"
    nx, ny = struct.unpack("<QQ", raw[8:24])
    assert (nx, ny) == (3, 2)
    arr = np.frombuffer(raw[24:], dtype="<f8")
    assert np.array_equal(arr[:3], xs)
    assert np.array_equal(arr[3:5], ys)
    assert np.array_equal(arr[5:], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.srl"
    path.write_bytes(b"NOTAGRID" + b"\x00" * 64)
    with pytest.raises(ValueError):
        ScalarField2D.load(path)


def test_sidecar_is_sorted_json(tmp_path):
    f = ScalarField2D(np.linspace(0, 1, 3), np.linspace(0, 1, 3), np.zeros((3, 3)),
                      meta={"zeta": 1, "alpha": 2})
    path = tmp_path / "s.srl"
    f.save(path)
    text = (tmp_path / "s.srl.json").read_text()
    d = json.loads(text)
    assert d["nx"] == 3
    assert text.index('"alpha"') < text.index('"zeta"')


def test_json_text_is_pinned(tmp_path):
    # srlab's one JSON format, written in one piece: sorted keys, one-space
    # indent, ASCII escapes, json's spellings of null, booleans and NaN, and a
    # closing newline
    from srlab.grids import _write_json

    payload = {"b": [1.5, {"d": None, "c": True}], "a": "caf\u00e9", "e": [], "f": {}, "g": 1e-300,
               "h": float("nan")}
    _write_json(tmp_path / "p.json", payload)
    assert (tmp_path / "p.json").read_bytes() == (
        b'{\n "a": "caf\\u00e9",\n "b": [\n  1.5,\n  {\n   "c": true,\n   "d": null\n  }\n ],\n'
        b' "e": [],\n "f": {},\n "g": 1e-300,\n "h": NaN\n}\n')


def test_csv_export(tmp_path):
    xs = np.linspace(0, 1, 3)
    f = ScalarField2D(xs, xs, np.arange(9.0).reshape(3, 3))
    path = tmp_path / "f.csv"
    f.export_csv(path, digest="abc123")
    lines = path.read_text().splitlines()
    assert lines[0] == "# runconfig_digest=abc123"
    assert lines[1] == "x,y,psi"
    assert len(lines) == 11  # header lines + one row per node
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.array_equal(rows[:, 0], np.repeat(xs, 3))  # x-major
    assert np.array_equal(rows[:, 1], np.tile(xs, 3))
    assert np.array_equal(rows[:, 2], np.arange(9.0))


def test_save_is_deterministic(tmp_path):
    xs = geometric_axis(0.3, 9, 0.95)
    f = ScalarField2D(xs, xs, np.outer(xs, xs), meta={"k": [1.0, 2.0]})
    f.save(tmp_path / "a.srl")
    f.save(tmp_path / "b.srl")
    assert (tmp_path / "a.srl").read_bytes() == (tmp_path / "b.srl").read_bytes()
    assert (tmp_path / "a.srl.json").read_text() == (tmp_path / "b.srl.json").read_text()
