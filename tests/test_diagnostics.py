import json

import numpy as np
import pytest

import srlab
from srlab import diagnostics as dg
from srlab.errors import InsufficientResolution, NonpositiveSamples
from srlab.grids import ScalarField2D, geometric_axis, uniform_axis


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
    f = synth_field(lambda x, y: x**2 + 0.0 * y, n=97)
    with pytest.raises(InsufficientResolution):
        dg.fit_power_law(f, 0.0, window=(0.4, 0.41))


def test_fit_on_solver_fixtures(model_field):
    p, _, _ = dg.fit_power_law(model_field, 0.0)
    assert 1.95 <= p <= 2.05


def test_richardson_triplet_second_order():
    exact, C = 0.4, 1.7
    vals = [exact + C * h**2 for h in (0.04, 0.02, 0.01)]
    extrap, order = dg.richardson_triplet(*vals)
    assert order == pytest.approx(2.0, abs=1e-10)
    assert extrap == pytest.approx(exact, abs=1e-12)


def test_richardson_triplet_roundoff_floor():
    extrap, order = dg.richardson_triplet(0.4, 0.4, 0.4)
    assert extrap == 0.4
    assert order == float("inf")


def test_sonic_limit_exact_quadratic(model_ab):
    a, _ = model_ab
    f = synth_field(lambda x, y: x**2 / (2 * a) + 0.0 * y)
    est = dg.sonic_limit_estimate(f, stations=[10, 24, 38])
    assert np.allclose(est["psi_xx"], 1.0 / a, atol=1e-10)
    assert np.allclose(est["psi_xy"], 0.0, atol=1e-10)
    assert np.allclose(est["psi_yy"], 0.0, atol=1e-10)
    assert np.allclose(est["ratio_2psi_x2"], 1.0 / a, atol=1e-10)


def test_sonic_limit_needs_graded_columns(model_ab):
    a, _ = model_ab
    f = synth_field(lambda x, y: x**2 / (2 * a) + 0.0 * y, n=33, q=1.0)
    with pytest.raises(InsufficientResolution):
        dg.sonic_limit_estimate(f)


def test_sonic_limit_on_perturbed_fixture(model_field, model_ab):
    a, _ = model_ab
    est = dg.sonic_limit_estimate(model_field)
    pxx = np.asarray(est["psi_xx"])
    assert np.all(np.abs(pxx - 1.0 / a) <= 0.02 / a)
    assert np.max(np.abs(est["psi_xy"])) <= 0.02 / a
    assert np.max(np.abs(est["psi_yy"])) <= 0.02 / a
    # consistency channel agrees with the stencil channel
    assert np.allclose(est["ratio_2psi_x2"], pxx, atol=0.02 / a)


def test_parabolic_norm_quadratic_profile(model_ab):
    a, _ = model_ab
    f = synth_field(lambda x, y: x**2 / (2 * a) + 0.0 * y)
    total, br = dg.parabolic_norm(f)
    # terms: x^-2 psi = 1/(2a), x^-1 psi_x = 1/a, psi_xx = 1/a, rest 0
    assert br["psi"] == pytest.approx(1 / (2 * a), rel=1e-8)
    assert br["px"] == pytest.approx(1 / a, rel=1e-8)
    assert br["pxx"] == pytest.approx(1 / a, rel=1e-6)
    assert total == pytest.approx(5 / (2 * a), rel=1e-6)


def test_parabolic_norm_diverges_for_three_halves():
    vals = []
    for n in (49, 97, 193):
        f = synth_field(lambda x, y: x**1.5 + 0.0 * y, n=n)
        total, br = dg.parabolic_norm(f)
        vals.append(br["pxx"])
    assert vals[0] < vals[1] < vals[2]  # grows like x_min^{-1/2} under refinement


def test_parabolic_norm_reflection_fixture_finite(reflection_field):
    # every interior column counts: the cut carries the surrogate's slope
    total, br = dg.parabolic_norm(reflection_field)
    assert np.isfinite(total)
    assert br["pxx"] < 10.0


def test_decay_bound_zero_field():
    f = synth_field(lambda x, y: 0.0 * x * y)
    out = dg.decay_bound_check(f, alpha=0.5)
    assert all(v == 0.0 for v in out.values())


def test_decay_bound_model_fixture_stable(model_field, model_ab):
    a, _ = model_ab
    wf = model_field.copy()
    wf.values = model_field.xs[:, None] ** 2 / (2 * a) - model_field.values
    out = dg.decay_bound_check(wf, alpha=0.5)
    assert all(np.isfinite(v) for v in out.values())


def test_decay_bound_flags_linear_mode():
    # x^{3/2}: the second-x-derivative channel violates the 2+alpha ladder,
    # its constant grows under refinement
    c_vals = []
    for n in (49, 97, 193):
        f = synth_field(lambda x, y: x**1.5 + 0.0 * y, n=n)
        c_vals.append(dg.decay_bound_check(f, alpha=0.5)["C20"])
    assert c_vals[0] < c_vals[1] < c_vals[2]


def test_jump_estimate_smooth_extension_is_zero():
    # a field that is twice continuously differentiable across the edge with
    # vanishing second derivative there reports a zero jump, up to the
    # nonuniform-stencil truncation of the cubic
    f = synth_field(lambda x, y: x**3 + 0.0 * y)
    jump, _ = dg.jump_estimate(f)
    assert abs(jump) < 1e-4


def test_jump_estimate_reflection(reflection_field):
    jump, det = dg.jump_estimate(reflection_field)
    target = 1.0 / 2.4
    assert abs(jump - target) <= 0.02 * target
    assert det["spread"] < 0.15 * target


def test_two_sequence_probe_requires_strip(model_field):
    with pytest.raises(ValueError):
        dg.two_sequence_probe(model_field)


def test_two_sequence_probe_reflection(reflection_field):
    probe = dg.two_sequence_probe(reflection_field)
    target = 1.0 / 2.4
    assert abs(probe["sonic_adjacent_limit"] - target) <= 0.12 * target
    # the shock-adjacent family rides the straight-shock surrogate: reported
    # as informational, strictly below the sonic-adjacent level
    assert probe["channel_label"] == "surrogate-boundary"
    assert probe["shock_adjacent_limit"] < 0.5 * target
    assert probe["gap"] > 0.3 * target
    assert abs(probe["psi_x_over_x_at_shock_limit"]) < 0.05
    assert probe["omega"] > 0.0


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
    probe = dg.two_sequence_probe(f)
    assert probe["sonic_adjacent_limit"] == pytest.approx(1 / a, rel=1e-6)
    assert probe["shock_adjacent_limit"] == pytest.approx(1 / a, rel=1e-4)
    assert abs(probe["gap"]) < 1e-4


def test_full_report_json_roundtrip(reflection_field):
    rep = dg.full_report(reflection_field)
    d = json.loads(rep.to_json())
    assert d["grid"]["kind"] == "sonic_strip"
    assert "sonic_adjacent_limit" in d["two_sequence"]
    assert d["jump"] is not None


def test_edge_limit_table_gives_the_same_numbers(reflection_field):
    # the jump and the sonic-adjacent limit read from one edge-limit table
    # are the same fits on the same arrays as when each refits its stations
    table = dg.sonic_limit_estimate(reflection_field)
    assert dg.jump_estimate(reflection_field, table=table) == dg.jump_estimate(reflection_field)
    assert dg.two_sequence_probe(reflection_field, table=table) == dg.two_sequence_probe(reflection_field)
    with pytest.raises(ValueError):
        dg.jump_estimate(reflection_field, k=5, table=table)
