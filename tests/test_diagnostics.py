import json

import numpy as np
import pytest

import srlab
from srlab import diagnostics as dg
from srlab.cli import main
from srlab.errors import InsufficientResolution, NonpositiveSamples
from srlab.grids import ScalarField2D, geometric_axis, uniform_axis
from srlab.solver import _JET, _ORDERS, derivative_fields

from conftest import richardson_triplet


def decay_bound_check(wfield, alpha):
    """Smallest ladder constants C with |D^(i,j) W| <= C x^(2+alpha-i-j/2) over the interior.

    The reference for parabolic_norm, whose weights are this ladder's at alpha = 0.
    """
    d = derivative_fields(wfield)
    x = wfield.xs[1:-1, None]
    return {f"C{i}{j}": float(np.max(x ** -(2.0 + alpha - i - j / 2.0) * np.abs(d[name][1:-1, 1:-1])))
            for name, (i, j) in zip(_JET, _ORDERS)}


def synth_field(fn, rhat=0.5, n=97, q=0.95):
    xs = geometric_axis(rhat, n, q)
    ys = uniform_axis(-1.0, 1.0, 49)
    return ScalarField2D(xs, ys, fn(xs[:, None], ys[None, :]))


def test_fit_power_law_pure_quadratic():
    f = synth_field(lambda x, y: 3.0 * x**2 + 0.0 * y)
    p, c, rms = dg.fit_power_law(f, 0.0)
    assert p == pytest.approx(2.0, abs=1e-6)
    assert c == pytest.approx(3.0, rel=1e-6)
    assert rms < 1e-10


def test_fit_power_law_three_halves():
    f = synth_field(lambda x, y: x**1.5 + 0.0 * y)
    p, _, _ = dg.fit_power_law(f, 0.0)
    assert p == pytest.approx(1.5, abs=1e-6)


def test_fit_power_law_nonpositive():
    f = synth_field(lambda x, y: x**2 - 0.01 + 0.0 * y)
    with pytest.raises(NonpositiveSamples):
        dg.fit_power_law(f, 0.0)


def test_fit_power_law_window_too_small():
    # on 33 uniform nodes the window [4*x_1, rhat/4] is x_4..x_8
    xs = uniform_axis(0.0, 0.5, 33)
    ys = uniform_axis(-1.0, 1.0, 49)
    f = ScalarField2D(xs, ys, xs[:, None] ** 2 + 0.0 * ys[None, :])
    with pytest.raises(InsufficientResolution, match="holds 5 nodes"):
        dg.fit_power_law(f, 0.0)


def test_fit_on_solver_fixtures(model_field):
    p, _, _ = dg.fit_power_law(model_field, 0.0)
    assert 1.95 <= p <= 2.05


def test_richardson_triplet_second_order():
    exact, C = 0.4, 1.7
    vals = [exact + C * h**2 for h in (0.04, 0.02, 0.01)]
    extrap, order = richardson_triplet(*vals)
    assert order == pytest.approx(2.0, abs=1e-10)
    assert extrap == pytest.approx(exact, abs=1e-12)


def test_richardson_triplet_roundoff_floor():
    extrap, order = richardson_triplet(0.4, 0.4, 0.4)
    assert extrap == 0.4
    assert order == float("inf")


def test_sonic_limit_exact_quadratic(model_ab):
    a, _ = model_ab
    f = synth_field(lambda x, y: x**2 / (2 * a) + 0.0 * y)
    est = dg.sonic_limit_estimate(f, derivative_fields(f))
    entries = [9, 23, 37]  # stations 10, 24 and 38
    assert np.allclose(np.asarray(est["psi_xx"])[entries], 1.0 / a, atol=1e-10)
    assert np.allclose(np.asarray(est["psi_xy"])[entries], 0.0, atol=1e-10)
    assert np.allclose(np.asarray(est["psi_yy"])[entries], 0.0, atol=1e-10)
    assert np.allclose(np.asarray(est["ratio_2psi_x2"])[entries], 1.0 / a, atol=1e-10)


def test_sonic_limit_needs_graded_columns(model_ab):
    a, _ = model_ab
    f = synth_field(lambda x, y: x**2 / (2 * a) + 0.0 * y, n=33, q=1.0)
    with pytest.raises(InsufficientResolution):
        dg.sonic_limit_estimate(f, derivative_fields(f))


def test_sonic_limit_on_perturbed_fixture(model_field, model_ab):
    a, _ = model_ab
    est = dg.sonic_limit_estimate(model_field, derivative_fields(model_field))
    pxx = np.asarray(est["psi_xx"])
    assert np.all(np.abs(pxx - 1.0 / a) <= 0.02 / a)
    assert np.max(np.abs(est["psi_xy"])) <= 0.02 / a
    assert np.max(np.abs(est["psi_yy"])) <= 0.02 / a
    # consistency channel agrees with the stencil channel
    assert np.allclose(est["ratio_2psi_x2"], pxx, atol=0.02 / a)


def test_parabolic_norm_quadratic_profile(model_ab):
    a, _ = model_ab
    f = synth_field(lambda x, y: x**2 / (2 * a) + 0.0 * y)
    total, br = dg.parabolic_norm(f, derivative_fields(f))
    # terms: x^-2 psi = 1/(2a), x^-1 psi_x = 1/a, psi_xx = 1/a, rest 0
    assert br["psi"] == pytest.approx(1 / (2 * a), rel=1e-8)
    assert br["px"] == pytest.approx(1 / a, rel=1e-8)
    assert br["pxx"] == pytest.approx(1 / a, rel=1e-6)
    assert total == pytest.approx(5 / (2 * a), rel=1e-6)


def test_parabolic_norm_diverges_for_three_halves():
    vals = []
    for n in (49, 97, 193):
        f = synth_field(lambda x, y: x**1.5 + 0.0 * y, n=n)
        total, br = dg.parabolic_norm(f, derivative_fields(f))
        vals.append(br["pxx"])
    assert vals[0] < vals[1] < vals[2]  # grows like x_min^{-1/2} under refinement


def test_parabolic_norm_reflection_fixture_finite(reflection_field):
    # every interior column counts: the cut carries the surrogate's slope
    total, br = dg.parabolic_norm(reflection_field, derivative_fields(reflection_field))
    assert np.isfinite(total)
    assert br["pxx"] < 10.0


def test_decay_bound_zero_field():
    f = synth_field(lambda x, y: 0.0 * x * y)
    out = decay_bound_check(f, alpha=0.5)
    assert all(v == 0.0 for v in out.values())


def test_decay_bound_model_fixture_stable(model_field, model_ab):
    a, _ = model_ab
    wf = ScalarField2D(model_field.xs, model_field.ys, model_field.xs[:, None] ** 2 / (2 * a) - model_field.values)
    out = decay_bound_check(wf, alpha=0.5)
    assert all(np.isfinite(v) for v in out.values())


def test_decay_bound_flags_linear_mode():
    # x^{3/2}: the second-x-derivative channel violates the 2+alpha ladder,
    # its constant grows under refinement
    c_vals = []
    for n in (49, 97, 193):
        f = synth_field(lambda x, y: x**1.5 + 0.0 * y, n=n)
        c_vals.append(decay_bound_check(f, alpha=0.5)["C20"])
    assert c_vals[0] < c_vals[1] < c_vals[2]


def test_jump_estimate_smooth_extension_is_zero():
    # a field that is twice continuously differentiable across the edge with
    # vanishing second derivative there reports a zero jump, up to the
    # nonuniform-stencil truncation of the cubic
    f = synth_field(lambda x, y: x**3 + 0.0 * y)
    jump, _ = dg.jump_estimate(f, dg.sonic_limit_estimate(f, derivative_fields(f)))
    assert abs(jump) < 1e-4


def test_jump_estimate_reflection(reflection_field):
    jump, det = dg.jump_estimate(reflection_field,
                                 dg.sonic_limit_estimate(reflection_field, derivative_fields(reflection_field)))
    target = 1.0 / 2.4
    assert abs(jump - target) <= 0.02 * target
    assert det["spread"] < 0.15 * target


def test_two_sequence_probe_requires_strip(model_field):
    limits = dg.sonic_limit_estimate(model_field, derivative_fields(model_field))
    with pytest.raises(ValueError):
        dg.two_sequence_probe(model_field, limits)


def test_two_sequence_probe_reflection(reflection_field):
    limits = dg.sonic_limit_estimate(reflection_field, derivative_fields(reflection_field))
    probe = dg.two_sequence_probe(reflection_field, limits)
    target = 1.0 / 2.4
    assert abs(probe["sonic_adjacent_limit"] - target) <= 0.12 * target
    # the shock-adjacent family rides the straight-shock surrogate: reported
    # as informational, strictly below the sonic-adjacent level
    assert probe["channel_label"] == "surrogate-boundary"
    assert probe["shock_adjacent_limit"] < 0.5 * target
    assert probe["gap"] > 0.3 * target
    assert abs(probe["psi_x_over_x_at_shock_limit"]) < 0.05
    # family 2 and psi_x/x are the edge table's own shock-row entry
    assert limits["stations_index"][-1] == reflection_field.ny - 1
    assert probe["shock_adjacent_limit"] == limits["psi_xx"][-1]
    assert probe["psi_x_over_x_at_shock_limit"] == limits["psi_x_over_x"][-1]


def test_two_sequence_probe_smooth_field(weak60, model_ab):
    # a quadratic profile on the strip has one two-sided limit: gap ~ 0
    a, _ = model_ab
    from srlab.reflection import shock_chart_table

    xs = geometric_axis(weak60.c2 / 20, 97, 0.95)
    ss = uniform_axis(0.0, 1.0, 49)
    fh, fhp, fhpp = shock_chart_table(weak60, xs)
    geo = {
        "kind": "sonic_strip", "eps": float(xs[-1]),
        "fhat": [float(v) for v in fh],
        "g": [float(v) for v in (fhp / fh)],
        "gp": [float(v) for v in (fhpp / fh - (fhp / fh) ** 2)],
    }
    vals = xs[:, None] ** 2 / (2 * a) * np.ones_like(ss)[None, :]
    f = ScalarField2D(xs, ss, vals, geo, {})
    probe = dg.two_sequence_probe(f, dg.sonic_limit_estimate(f, derivative_fields(f)))
    assert probe["sonic_adjacent_limit"] == pytest.approx(1 / a, rel=1e-6)
    # the shock row is the quadratic itself, fitted exactly up to rounding
    assert probe["shock_adjacent_limit"] == pytest.approx(1 / a, rel=1e-12)
    assert abs(probe["gap"]) < 1e-12


def test_full_report_json_roundtrip(reflection_field, tmp_path):
    # the report as `verify --what regularity` writes it
    reflection_field.save(tmp_path / "grid.srl")
    main(["verify", "--what", "regularity", "--grid", str(tmp_path / "grid.srl"), "--out", str(tmp_path)])
    d = json.loads((tmp_path / "verify_regularity.json").read_text())["report"]
    assert d == json.loads(json.dumps(dg.full_report(reflection_field, derivative_fields(reflection_field))))
    assert d["grid"]["kind"] == "sonic_strip"
    assert "sonic_adjacent_limit" in d["two_sequence"]
    assert d["jump"] is not None


def test_sonic_limits_equal_the_per_station_fits(reflection_field, model_field):
    # one least-squares solve over every station, the last row included, gives
    # each station's own scalar fit bit for bit, on the strip and on the rectangle
    from srlab.diagnostics import _ordinates

    for f in (reflection_field, model_field):
        d = derivative_fields(f)
        est = dg.sonic_limit_estimate(f, d)
        xs = f.xs[1:-1]
        ratio = 2.0 * f.values[1:-1, :] / xs[:, None] ** 2
        for n, j in enumerate(est["stations_index"]):
            for name, arr in (("psi_xx", d["pxx"]), ("psi_xy", d["pxy"]), ("psi_yy", d["pyy"])):
                assert est[name][n] == dg.limit_at_zero(xs, arr[1:-1, j])
            assert est["psi_x_over_x"][n] == dg.limit_at_zero(xs, d["px"][1:-1, j] / xs)
            assert est["ratio_2psi_x2"][n] == dg.limit_at_zero(xs, ratio[:, j])
            assert est["stations_y"][n] == _ordinates(f)[0, j]
    assert dg.limit_at_zero(xs, ratio[:, :3]).shape == (3,)


def test_parabolic_norm_is_the_decay_ladder_at_alpha_zero(reflection_field, model_field):
    # both weight the same jet sups; the exponents agree in floating point at alpha = 0
    for f in (reflection_field, model_field):
        _, breakdown = dg.parabolic_norm(f, derivative_fields(f))
        ladder = decay_bound_check(f, 0.0)
        assert list(breakdown.values()) == list(ladder.values())
        assert list(ladder) == ["C00", "C10", "C01", "C20", "C11", "C02"]
