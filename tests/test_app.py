import contextlib
import csv
import importlib.util
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from equichar import app, matforms, skr
from equichar.app import (
    emit_tables,
    eta_invariant,
    load_config,
    main,
    run_check,
    run_oracle,
)
from equichar.charforms import gauss_legendre
from equichar.errors import ConfigError, ConvergenceRadiusError, ProfileError
from equichar.matforms import hirzebruch_l_log_germ
from equichar.skr import SKRProfile


EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


IRRED = {
    "profile": {
        "mode": "irreducible",
        "phi_coeffs": [0.5, 0.25],
        "c_bar": -1.0,
        "base_curv": 2.0,
        "tau_min": -0.5,
    },
    "numerics": {"quad_nodes": 32, "tau_samples": 9},
    "topology": {"signature": 0, "base_area": 1.0},
}

RED = {
    "profile": {"mode": "reducible", "q_coeffs": [1.0, 0.4, -0.3], "tau_min": -0.5},
    "numerics": {"tau_samples": 9},
    "topology": {"signature": 0},
}


# ----------------------------------------------------------------- config

def test_load_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    assert cfg.numerics.quad_nodes == 32 and cfg.numerics.fd_step == 1e-4
    assert cfg.profile.fiber_period == pytest.approx(2.0 * math.pi)
    bare = load_config(write_cfg(tmp_path, {"profile": IRRED["profile"]}))
    assert bare.numerics == app.Numerics() and bare.signature == app.Topology().signature
    assert (bare.profile.base_area, bare.profile.fiber_period) == (1.0, 2.0 * math.pi)
    assert app.Numerics().fd_step == app.oracle_mod.DEFAULT_FD_STEP
    assert type(bare.numerics.quad_nodes) is int and type(bare.signature) is int


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/equichar.json")


@pytest.mark.parametrize("command", ["eta", "check", "oracle"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, command):
    """A directory as the config is an OSError other than FileNotFoundError;
    it printed an IsADirectoryError traceback."""
    assert main([command, str(tmp_path), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config:") and "Traceback" not in err


def test_config_rejects_bad_profile(tmp_path):
    bad = {"profile": {"mode": "irreducible", "phi_coeffs": [0.5], "c_bar": -0.1, "tau_min": -0.5}}
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bad))


def test_config_rejects_nonpositive_q(tmp_path):
    bad = {"profile": {"mode": "reducible", "q_coeffs": [-1.0], "tau_min": -0.5}}
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, bad))


@pytest.mark.parametrize("command", ["check", "oracle", "lform", "transgression", "eta"])
def test_config_ignores_series_order(tmp_path, capsys, command):
    """The generic routes sum their germ series to one fixed order, so the
    series_order key of older configs is ignored like any key the loader does
    not read: every subcommand on the worked example prints and writes the
    same bytes whatever its value, and without it.  The benchmark's configs
    still carry 16."""
    example = json.loads((EXAMPLES / "example_irreducible.json").read_text())
    outputs = []
    for i, order in enumerate((4, 16, 16.9, "x", None)):
        payload = json.loads(json.dumps(example))
        if order is not None:
            payload["numerics"]["series_order"] = order
        out = tmp_path / f"out{i}"
        assert main([command, str(write_cfg(tmp_path, payload, f"{i}.json")), "-o", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        files = [(path.name, path.read_bytes()) for path in sorted(out.iterdir())] if out.exists() else []
        outputs.append((printed, files))
    assert all(run == outputs[0] for run in outputs)


BAD_NUMBERS = [
    ("numerics", "quad_nodes", "x"),
    ("profile", "c_bar", "x"),
    ("profile", "base_curv", float("nan")),
    ("numerics", "fd_step", float("inf")),
    ("profile", "phi_coeffs", [0.5, "x"]),
    ("numerics", "fd_step", "1e-4"),
    ("profile", "base_curv", True),
    ("topology", "signature", 1.5),
    ("topology", "signature", True),
    pytest.param("numerics", "quad_nodes", 10**400, id="numerics-quad_nodes-401-digits"),
    pytest.param("topology", "signature", -(10**400), id="topology-signature-401-digits"),
]


@pytest.mark.parametrize("command", ["check", "oracle", "lform", "transgression", "eta"])
@pytest.mark.parametrize("section,key,value", BAD_NUMBERS)
def test_cli_rejects_bad_numbers(tmp_path, capsys, command, section, key, value):
    """A config number that is not a finite JSON number, or not an integer where
    one is due, is a config error (exit 2) in every subcommand, never a
    traceback, a run on NaN or a silently truncated value."""
    payload = json.loads(json.dumps(IRRED))
    payload[section][key] = value
    cfg = write_cfg(tmp_path, payload)
    assert main([command, str(cfg), "-o", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert f"config error: {key} must be" in captured.err
    assert captured.out == ""


def test_integral_floats_run_as_their_integers(tmp_path):
    written = []
    for nodes in (8, 8.0):
        numerics = dict(IRRED["numerics"], quad_nodes=nodes)
        cfg, out = write_cfg(tmp_path, dict(IRRED, numerics=numerics)), tmp_path / f"out{nodes}"
        assert main(["eta", str(cfg), "-o", str(out)]) == 0
        written.append((out / "report.json").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps(IRRED).replace('"signature": 0', '"signature": ' + "9" * 5000).encode(),
        b"\xff\xfe{}",
    ],
    ids=["5000-digit-integer", "not-utf-8"],
)
def test_cli_rejects_unparsable_config(tmp_path, capsys, text):
    """json and the UTF-8 decoder raise a plain ValueError here, which used to
    end in a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert main(["oracle", str(cfg)]) == 2
    assert "config error: config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("output", [5, None, {"dir": 5}, {"dir": ["out"]}])
def test_cli_rejects_bad_output_section(tmp_path, monkeypatch, capsys, output):
    """An output section that is not an object, or a dir that is not a string,
    is a config error; a dir of 5 used to end in a TypeError traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, dict(IRRED, output=output))
    assert main(["eta", str(cfg)]) == 2
    assert "config error: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize(
    "example,key,literal",
    [
        ("example_reducible.json", "c_bar", "NaN"),
        ("example_reducible.json", "c_bar", "1e400"),
        ("example_irreducible.json", "q_coeffs", "[NaN]"),
    ],
)
def test_cli_rejects_non_finite_unread_profile_key(tmp_path, capsys, example, key, literal):
    """A non-finite number in a profile key the mode does not read is still a
    config error; it used to run and echo a bare NaN into report.json."""
    text = (EXAMPLES / example).read_text()
    head, sep, tail = text.partition('"profile": {')
    assert sep
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{head}{sep}"{key}": {literal}, {tail}')
    assert main(["eta", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert f"config error: {key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,cap", [("quad_nodes", app.MAX_QUAD_NODES), ("tau_samples", app.MAX_TAU_SAMPLES)]
)
def test_config_caps_node_counts(tmp_path, capsys, key, cap):
    """The cap itself is accepted, one above it exits 2 (nothing is run at
    either size)."""
    payload = json.loads(json.dumps(IRRED))
    payload["numerics"][key] = cap
    assert getattr(load_config(write_cfg(tmp_path, payload, "cap.json")).numerics, key) == cap
    payload["numerics"][key] = cap + 1
    cfg = write_cfg(tmp_path, payload, "over.json")
    assert main(["eta", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert f"config error: {key} must lie in 2..{cap}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tabulated_profile_round_trip(tmp_path):
    taus = np.linspace(-0.6, 0.05, 40)
    payload = {
        "profile": {
            "mode": "irreducible",
            "phi_samples": {
                "tau": list(taus),
                "phi": list(0.5 + 0.25 * taus),
                "interp_order": 3,
            },
            "c_bar": -1.0,
            "base_curv": 2.0,
            "tau_min": -0.5,
        }
    }
    p = load_config(write_cfg(tmp_path, payload)).profile
    from equichar import skr

    d = skr.derived_functions(p, -0.2)
    assert d.phi == pytest.approx(0.45, abs=1e-10)
    assert d.psi == pytest.approx(0.45 + 0.8 * 0.25, abs=1e-8)



def _tabulated(tmp_path, order, mode="irreducible"):
    """Profile from 15 uneven samples of a non-polynomial phi (or Q)."""
    taus = np.sort(np.random.default_rng(order).uniform(-0.6, 0.1, 15))
    taus[0], taus[-1] = -0.6, 0.1
    what = "phi" if mode == "irreducible" else "q"
    vals = 0.5 + 0.25 * np.sin(3.0 * taus) + 0.1 * taus**3
    payload = {
        "profile": {
            "mode": mode,
            f"{what}_samples": {"tau": list(taus), what: list(vals), "interp_order": order},
            "tau_min": -0.5,
        }
    }
    return load_config(write_cfg(tmp_path, payload)).profile, taus, vals


@pytest.mark.parametrize("mode", ["irreducible", "reducible"])
@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_spline_pieces_match_scipy(tmp_path, order, mode):
    """The pieces evaluate FITPACK's interpolating spline and its first two
    derivatives, relative to the largest value of each on the range."""
    from scipy.interpolate import InterpolatedUnivariateSpline

    p, taus, vals = _tabulated(tmp_path, order, mode)
    spline = InterpolatedUnivariateSpline(taus, vals, k=order)
    grid = np.concatenate([np.linspace(-0.5, 0.0, 301), taus[(taus >= -0.5) & (taus <= 0.0)]])
    got = np.array([p.fn.at(float(t)) for t in grid])
    for m in (0, 1, 2):
        want = spline.derivative(m)(grid) if m else spline(grid)
        assert np.max(np.abs(got[:, m] - want)) <= 1e-14 * np.max(np.abs(want))


def test_linear_spline_has_no_second_derivative_spike(tmp_path):
    """interp_order 1 is piecewise linear: phi'' = 0, so psi' = 2 phi' right
    next to a knot; a central difference of phi' read about 1e3 there."""
    p, taus, _ = _tabulated(tmp_path, 1)
    for knot in taus[(taus > -0.5) & (taus < 0.0)]:
        for tau in (knot - 1e-6, knot, knot + 1e-6):
            assert p.fn.at(float(tau))[2] == 0.0
            d = skr.derived_functions(p, float(tau))
            assert d.psi_d == 2.0 * d.phi_d


@pytest.mark.parametrize("what,mode", [("phi", "irreducible"), ("q", "reducible")])
@pytest.mark.parametrize("lo,hi", [(-0.2, 0.0), (-0.5, -0.01)])
def test_tabulated_profile_must_cover_the_tau_range(tmp_path, capsys, what, mode, lo, hi):
    """A spline would extrapolate past its samples; with tau_min -0.5 and
    samples on [-0.2, 0] eta used to exit 0 with a confident 0.0372553."""
    taus = np.linspace(lo, hi, 12)
    vals = 0.5 + 0.25 * taus if what == "phi" else 1.0 + 0.4 * taus
    payload = {
        "profile": {
            "mode": mode,
            f"{what}_samples": {"tau": list(taus), what: list(vals)},
            "c_bar": -1.0,
            "base_curv": 2.0,
            "tau_min": -0.5,
        }
    }
    assert main(["eta", str(write_cfg(tmp_path, payload)), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {what}_samples.tau must cover [tau_min, 0] = [-0.5, 0]" in err
    assert not (tmp_path / "out").exists()


def test_tabulated_profile_needs_more_points_than_its_order(tmp_path, capsys):
    payload = {
        "profile": {
            "mode": "irreducible",
            "phi_samples": {"tau": [-0.6, 0.0], "phi": [0.35, 0.5]},
            "tau_min": -0.5,
        }
    }
    assert main(["eta", str(write_cfg(tmp_path, payload)), "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: phi_samples needs more than interp_order points" in err


# ----------------------------------------------------------------- eta

@pytest.mark.parametrize("mode", ["irreducible", "reducible"])
def test_boundary_volume_is_the_radial_weight_at_the_boundary(mode):
    """The boundary 3-volume is 2|c_bar| (irreducible) or 1 (reducible) times
    base_area * fiber_period * sqrt(Q0)."""
    if mode == "irreducible":
        p = SKRProfile.irreducible_polynomial([0.5, 0.25], -1.3, base_curv=2.0, tau_min=-0.5)
        radial = 2.6
    else:
        p = SKRProfile.reducible_polynomial([1.0, 0.4, -0.3], tau_min=-0.5)
        radial = 1.0
    p = replace(p, base_area=1.7, fiber_period=3.0)
    assert app._boundary_volume(p, 0.81) == pytest.approx(radial * 1.7 * 3.0 * 0.9, rel=1e-15)


def test_eta_reducible_is_minus_signature(tmp_path):
    """Also for the flat product, Q constant, where phi = psi = 0 and A = 0."""
    flat = {"mode": "reducible", "q_coeffs": [1.0], "base_curv": 1.5}
    for profile in (RED["profile"], flat):
        for sig in (0, 3, -2):
            payload = {"profile": profile, "topology": {"signature": sig}}
            rep = eta_invariant(load_config(write_cfg(tmp_path, payload)))
            assert rep.eta["value"] == -float(sig)
            assert rep.bulk_integral["value"] == 0.0
            assert rep.boundary_integral["value"] == 0.0


def test_eta_signature_shift(tmp_path):
    payload0 = dict(IRRED)
    payload1 = json.loads(json.dumps(IRRED))
    payload1["topology"]["signature"] = 1
    eta0 = eta_invariant(load_config(write_cfg(tmp_path, payload0, "a.json"))).eta["value"]
    eta1 = eta_invariant(load_config(write_cfg(tmp_path, payload1, "b.json"))).eta["value"]
    assert eta1 == eta0 - 1.0


def test_report_echoes_the_topology_the_run_used():
    """A library run's report echoes the base_area and fiber_period of its
    profile, which the boundary integral was computed with; it echoed the
    topology defaults."""
    p = SKRProfile.irreducible_polynomial([0.5, 0.25], -1.0, base_curv=2.0, tau_min=-0.5)
    scaled = replace(p, base_area=2.0, fiber_period=3.0)
    rep = eta_invariant(app.RunConfig(profile=scaled))
    topology = rep.config_echo["topology"]
    assert (topology["base_area"], topology["fiber_period"]) == (2.0, 3.0)
    default = eta_invariant(app.RunConfig(profile=p)).boundary_integral["value"]
    assert rep.boundary_integral["value"] != default


def test_eta_quadrature_refinement(tmp_path):
    base = json.loads(json.dumps(IRRED))
    base["numerics"]["quad_nodes"] = 32
    fine = json.loads(json.dumps(IRRED))
    fine["numerics"]["quad_nodes"] = 64
    v32 = eta_invariant(load_config(write_cfg(tmp_path, base, "n32.json"))).eta["value"]
    v64 = eta_invariant(load_config(write_cfg(tmp_path, fine, "n64.json"))).eta["value"]
    assert abs(v32 - v64) / max(abs(v32), 1e-6) < 1e-8


def test_eta_degenerate_endpoint_epsilon_path(tmp_path):
    """phi(tau_min) = 0 makes Q vanish at the inner endpoint.  L4 times the
    volume density stays smooth there, so the bulk integral takes the plain
    Gauss-Legendre rule like any other profile: it matches a 400-node rule
    to rounding.  The endpoint retreat with extrapolation that used to serve
    this case was off by 4e-10 relative while it claimed 1.5e-5."""
    payload = {
        "profile": {
            "mode": "irreducible",
            "phi_coeffs": [0.5, 1.0],  # phi = 0.5 + tau vanishes at tau_min
            "c_bar": -1.0,
            "base_curv": 1.0,
            "tau_min": -0.5,
        },
        "numerics": {"tau_samples": 9},
    }
    cfg = load_config(write_cfg(tmp_path, payload, "sing.json"))
    p = cfg.profile
    assert p.fn.at(p.tau_min)[0] == 0.0
    rep = eta_invariant(cfg)
    reference = app._bulk_quadrature(p, 400)
    assert abs(rep.bulk_integral["value"] - reference) <= 1e-13 * abs(reference)
    assert math.isfinite(rep.eta["value"])


def _bulk_64(phi: np.polynomial.Polynomial) -> float:
    """64-node bulk integral of the worked example with phi replaced."""
    p = SKRProfile.irreducible_polynomial(phi.coef, -1.0, base_curv=2.0, tau_min=-0.5)
    return app._bulk_quadrature(p, 64)


WORKED_PHI = np.polynomial.Polynomial([0.5, 0.25])
TAU = np.polynomial.Polynomial([0.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_bulk_integral_ignores_bumps_flat_at_both_ends(c, r0, r1):
    """Chern-Weil invariance makes L4 vol a total derivative dF/dtau with F a
    function of (tau, phi, phi'), so a bump that leaves phi and phi' unchanged
    at tau_min and at 0 leaves the bulk integral unchanged.  The integral sees
    the profile only through its ends, which is why one plain quadrature path
    serves every accepted profile."""
    bump = c * TAU**2 * (TAU + 0.5) ** 2 * (r0 + r1 * TAU)
    try:
        bumped = _bulk_64(WORKED_PHI + bump)
    except (ProfileError, ConvergenceRadiusError):
        reject()
    base = _bulk_64(WORKED_PHI)
    assert abs(bumped - base) <= 1e-13 * abs(base)


def test_bulk_integral_moves_with_end_slopes():
    """Control for the invariance test: a bump that changes phi' at both ends
    moves the bulk integral, so that test cannot pass vacuously."""
    base = _bulk_64(WORKED_PHI)
    moved = _bulk_64(WORKED_PHI + 0.05 * TAU * (TAU + 0.5))
    assert abs(moved - base) > 1e-3 * abs(base)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sampled_bulk_error_bounds_its_distance_from_a_per_piece_reference(tmp_path, order):
    """The bulk of a sampled profile, whose spline is only piecewise smooth,
    lies within its reported error of a 48-node rule on each piece between
    the knots.  One rule over the whole of [tau_min, 0] straddled the knots:
    at order 2 it reported 1.8e-4 and was off by 9.2e-4."""
    taus = np.linspace(-0.5, 0.0, 6)
    phis = 0.5 + 0.25 * taus + 0.3 * np.sin(3.0 * taus)
    samples = {"tau": taus.tolist(), "phi": phis.tolist(), "interp_order": order}
    profile = {"mode": "irreducible", "phi_samples": samples, "c_bar": -1.0, "base_curv": 2.0}
    cfg = load_config(write_cfg(tmp_path, {"profile": {**profile, "tau_min": -0.5}}))
    p = cfg.profile
    ends = [p.tau_min] + [k for k in p.fn.knots if p.tau_min < k < 0.0] + [0.0]
    assert len(ends) > 2
    reference = 0.0
    for a, b in zip(ends, ends[1:]):
        xs, ws = gauss_legendre(48, a, b)
        reference += sum(
            w * skr.l4_coefficient(p, t) * skr.volume_weight(p, t)
            for t, w in zip(xs.tolist(), ws.tolist())
        )
    bulk = eta_invariant(cfg).bulk_integral
    assert abs(bulk["value"] - reference) <= max(bulk["error"], 1e-14 * abs(bulk["value"]))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: eta moves with the interior of the profile although "
    "the boundary, its metric and its Killing field stay fixed",
)
def test_eta_invariant_under_a_bump_that_keeps_the_boundary():
    """phi + eps tau (tau - tau_min)^2 keeps phi(0), phi(tau_min) and
    phi'(tau_min) of the worked example, so the boundary invariant eta must
    not move; it reads 0.0356967, 0.0371928 and 0.0420050 at eps = 0, 0.05
    and 0.2, each with a reported error of at most 1.5e-16."""
    base = load_config(EXAMPLES / "example_irreducible.json")
    etas = []
    for eps in (0.0, 0.05, 0.2):
        phi = [0.5, 0.25 + 0.25 * eps, eps, eps]
        p = replace(base.profile, fn=skr.ProfileFunction.piecewise([phi]))
        etas.append(eta_invariant(replace(base, profile=p)).eta["value"])
    tol = 1e-12 * max(abs(etas[0]), 1.0)
    assert all(abs(eta - etas[0]) <= tol for eta in etas[1:]), etas


def test_worked_example_bulk_and_eta():
    """The exact L-form's bulk integral of the worked example, and its eta,
    which the sqrt(A) route put at 0.0372553 (bulk -0.0923719)."""
    rep = eta_invariant(load_config(EXAMPLES / "example_irreducible.json"))
    assert rep.bulk_integral["value"] == pytest.approx(-0.07698921789, abs=1e-10)
    assert rep.eta["value"] == pytest.approx(0.035697, abs=1e-6)
    assert abs(rep.eta["value"] - 0.037255320024982774) > 1e-3


# phi = psi everywhere, psi = -phi at tau = -0.25, a flat product, and psi = 5e-10
CROSSING_PROFILES = {
    "constant-phi": {"mode": "irreducible", "phi_coeffs": [0.5, 0.0]},
    "psi-minus-phi": {"mode": "irreducible", "phi_coeffs": [0.1, -0.8]},
    "flat-product": {"mode": "reducible", "q_coeffs": [1.0]},
    "reducible-small-psi": {"mode": "reducible", "q_coeffs": [1.0, 1e-9]},
}


@pytest.mark.parametrize("command", ["eta", "lform"])
@pytest.mark.parametrize("name", sorted(CROSSING_PROFILES))
def test_crossing_profiles_run(tmp_path, capsys, command, name):
    profile = {"c_bar": -1.0, "base_curv": 1.0, "tau_min": -0.5, **CROSSING_PROFILES[name]}
    cfg = write_cfg(tmp_path, {"profile": profile})
    assert main([command, str(cfg), "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "lform.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(cell)) for line in lines for cell in line.split(","))


def _sqrt_a_l4(phi, psi, cc):
    """The L4 of the replaced sqrt(A) route, which took spec(R_X) to be
    {0, 0, +-i sqrt(A)} and so dropped Pf(R_X)."""
    b, c, d, r = cc
    alpha = math.hypot(phi, psi)
    beta, gamma = (b * phi + c * psi) / alpha, (c * phi + d * psi) / alpha
    delta = (
        (c * d - 4.0 * r * r) * phi**2 + (b * c - 4.0 * r * r) * psi**2 - phi * psi * (b * d + c * c)
    ) / alpha**3
    g, d1, d2 = skr.l_log_at_angle(alpha)
    value = math.exp(2.0 * g)
    return -2.0 * d1 * value * delta + (4.0 * d1 * d1 - 2.0 * d2) * value * beta * gamma


def test_lform_check_fails_the_sqrt_a_route(monkeypatch, capsys):
    cfg = load_config(EXAMPLES / "example_irreducible.json")
    assert all(r.passed for r in run_check(cfg))
    monkeypatch.setattr(skr, "l4_closed", _sqrt_a_l4)
    results = {r.name: r for r in run_check(cfg)}
    assert not results["lform-closed-vs-generic"].passed
    assert "FAIL  lform-closed-vs-generic" in capsys.readouterr().out


LARGE_ANGLE = {"mode": "irreducible", "c_bar": -1.0, "tau_min": -0.3, "base_curv": 0.5}


@pytest.mark.parametrize(
    "profile",
    [
        {**LARGE_ANGLE, "phi_coeffs": [1.5, 0.25]},
        {**LARGE_ANGLE, "phi_coeffs": [2.5, 0.1]},
        {**IRRED["profile"], "phi_coeffs": [0.5, 0.5]},
    ],
    ids=["phi-1.5", "phi-2.5", "worked-psi-1"],
)
def test_check_passes_at_large_angles(tmp_path, capsys, profile):
    """The generic route evaluates its germs on the spectrum, exactly, so the
    closed and generic routes agree to rounding at large rotation angles
    (psi(0) = 1.75, 2.6 and 1.0 here); an order-16 series route failed
    transgression-closed-vs-direct on all three."""
    code = main(["check", str(write_cfg(tmp_path, {**IRRED, "profile": profile}))])
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL")]
    assert len(lines) >= 11 and "PASS  transgression-closed-vs-direct" in "\n".join(lines)
    assert (code, failed) == (0, [])


@pytest.mark.parametrize("order,fails", [(1, True), (3, False)])
def test_alt_route_check_fails_on_a_faulty_path_term(monkeypatch, capsys, order, fails):
    """transgression-alt-route takes f'(Theta + NX) from the spectral path sum,
    which the direct route does not run, so a fault of 1e-6 in the first-order
    path term fails the line.  Terms of order k >= 2 have degree >= 2 and
    vanish against the 2-form R in the degree-3 integrand: the same fault in
    the third-order term leaves the line's residual at 0."""
    original = matforms._walk_sum

    def faulty(dd, nt, seqs, signs):
        out = original(dd, nt, seqs, signs)
        return out * (1.0 + 1e-6) if seqs.shape[1] == order else out

    cfg = load_config(EXAMPLES / "example_irreducible.json")
    monkeypatch.setattr(matforms, "_walk_sum", faulty)
    results = {r.name: r for r in run_check(cfg)}
    out = capsys.readouterr().out
    assert results["transgression-closed-vs-direct"].passed
    assert ("FAIL  transgression-alt-route" in out) == fails
    # the example's two routes agree to the bit unless the fault shows
    assert (results["transgression-alt-route"].residual > 0.0) == fails


def _perfbench_configs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_configs", Path(__file__).resolve().parents[1] / "perfbench" / "configs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_passes_on_the_perfbench_check_profiles(tmp_path, capsys):
    """The benchmark counts a FAIL line of check as a failed op; every check
    line passes on the 24 check profiles of seeds 1-3."""
    configs = _perfbench_configs()
    for seed in (1, 2, 3):
        for i, profile in enumerate(configs.profiles("check", seed)):
            payload = {"profile": profile, "numerics": configs.NUMERICS, "topology": configs.TOPOLOGY}
            cfg = write_cfg(tmp_path, payload, f"check_{seed}_{i}.json")
            assert main(["check", str(cfg)]) == 0, (seed, i, capsys.readouterr().out)
    capsys.readouterr()


@pytest.mark.parametrize("command", ["check", "lform", "transgression", "eta"])
def test_cli_rotation_angle_past_germ_radius(tmp_path, capsys, command):
    """Angles of 3.5 > pi on the closed route are a numerical failure, as on
    the direct route, not a math domain error."""
    payload = json.loads(json.dumps(IRRED))
    payload["profile"]["phi_coeffs"] = [3.5, 0.0]
    cfg = write_cfg(tmp_path, payload)
    assert main([command, str(cfg), "-o", str(tmp_path / "out")]) == 1
    assert "numerical failure: spectral radius" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bogus", "cfg.json"], ["eta"], []])
def test_cli_usage_errors_exit_2(capsys, argv):
    """An unknown command or a missing config is argparse's usage error, exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: equichar" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lform", "transgression", "eta"])
def test_cli_out_option_routes_the_files(tmp_path, monkeypatch, capsys, command):
    """-o, before or after the config, names the directory the files go to."""
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, RED)
    for i, argv in enumerate(([command, str(cfg), "-o", "a"], ["--out", "b", command, str(cfg)])):
        assert main(argv) == 0
        written = capsys.readouterr().out.split()
        assert written and all(Path(path).parent.name == "ab"[i] for path in written)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b", "cfg.json"]


def test_unwritable_output_path(tmp_path):
    cfg = write_cfg(tmp_path, RED, "cfg_ro.json")
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    assert main(["lform", str(cfg), "-o", str(target)]) == 1


def test_eta_error_fields_are_floats(tmp_path):
    rep = eta_invariant(load_config(write_cfg(tmp_path, IRRED)))
    for block in (rep.eta, rep.bulk_integral, rep.boundary_integral, rep.tl3_closed):
        assert isinstance(block["value"], float)
        assert isinstance(block["error"], float)
        assert block["error"] >= 0.0


def test_closed_route_scalars_are_python_floats(tmp_path):
    """Under main's errstate a numpy scalar raises on overflow where a Python
    float becomes inf, so the closed route keeps to Python floats; its small
    transgression angles take the series branch of the L-function."""
    rep = eta_invariant(load_config(write_cfg(tmp_path, IRRED)))
    assert [type(v) for v in rep.closed_integrand] == [float] * len(rep.closed_integrand)
    taylor = hirzebruch_l_log_germ().taylor
    assert [type(c) for c in taylor] == [float] * len(taylor)


# ----------------------------------------------------------------- tables

def test_emit_tables_deterministic(tmp_path):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    emit_tables(cfg, tmp_path / "run1")
    emit_tables(cfg, tmp_path / "run2")
    for name in ("lform.csv", "transgression.csv", "report.json"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, name


def test_lform_csv_format(tmp_path):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    emit_tables(cfg, tmp_path / "out", which=("lform",))
    lines = (tmp_path / "out" / "lform.csv").read_text().splitlines()
    assert lines[0] == "tau,phi,psi,L4"
    assert len(lines) == 1 + cfg.numerics.tau_samples
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        [float(c) for c in cells]
        assert "." in cells[0]


def test_lform_csv_matches_report_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path, IRRED)
    assert main(["eta", str(cfg), "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    lines = (tmp_path / "out" / "lform.csv").read_text().splitlines()
    header = lines[0].split(",")
    table = json.loads((tmp_path / "out" / "report.json").read_text())["lform_table"]
    assert len(lines) - 1 == len(table) == IRRED["numerics"]["tau_samples"]
    for line, row in zip(lines[1:], table):
        assert [float(c) for c in line.split(",")] == [row[c] for c in header]


def test_emit_tables_builds_lform_table_once(tmp_path, monkeypatch):
    calls = []
    original = app._lform_row

    def counting(p, tau):
        calls.append(tau)
        return original(p, tau)

    monkeypatch.setattr(app, "_lform_row", counting)
    cfg = load_config(write_cfg(tmp_path, IRRED))
    emit_tables(cfg, tmp_path / "out")
    assert len(calls) == cfg.numerics.tau_samples


def test_eta_evaluates_closed_integrand_once_per_node(tmp_path, monkeypatch, capsys):
    """transgression.csv reuses the closed route's node values: 32 closed
    integrands per 32-node eta, not 32 for the report and 32 for the table."""
    calls = []
    original = skr.closed_transgression_integrand

    def counting(bd, t, *args, **kwargs):
        calls.append(t)
        return original(bd, t, *args, **kwargs)

    monkeypatch.setattr(skr, "closed_transgression_integrand", counting)
    assert main(["eta", str(write_cfg(tmp_path, IRRED)), "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    n = load_config(write_cfg(tmp_path, IRRED)).numerics.quad_nodes
    nodes, _ = gauss_legendre(n, 0.0, 1.0)
    assert calls == list(nodes)
    table = (tmp_path / "out" / "transgression.csv").read_text().splitlines()[1:]
    assert [float(line.split(",")[0]) for line in table] == calls


def test_only_emit_tables_builds_lform_rows(tmp_path, monkeypatch, capsys):
    """eta_invariant and run_check compute no L-form table; emit_tables builds
    the one that lform.csv and report.json share."""
    calls = []
    monkeypatch.setattr(app, "_lform_row", lambda p, tau: calls.append(tau))
    cfg = load_config(write_cfg(tmp_path, IRRED))
    eta_invariant(cfg)
    assert all(r.passed for r in run_check(cfg))
    assert calls == []


def test_lform_row_evaluates_profile_once(worked_profile, monkeypatch):
    calls = []
    original = skr.derived_functions

    def counting(p, tau):
        calls.append(tau)
        return original(p, tau)

    monkeypatch.setattr(skr, "derived_functions", counting)
    row = app._lform_row(worked_profile, -0.25)
    assert calls == [-0.25]
    assert row["L4"] == skr.l4_coefficient(worked_profile, -0.25)


def test_lform_csv_reducible_l4_column(tmp_path):
    cfg = load_config(write_cfg(tmp_path, RED))
    emit_tables(cfg, tmp_path / "out", which=("lform",))
    lines = (tmp_path / "out" / "lform.csv").read_text().splitlines()[1:]
    for line in lines:
        assert abs(float(line.split(",")[-1])) < 1e-12


def test_transgression_csv(tmp_path):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    emit_tables(cfg, tmp_path / "out", which=("transgression",))
    lines = (tmp_path / "out" / "transgression.csv").read_text().splitlines()
    assert lines[0] == "t,integrand_e123"
    assert len(lines) == 1 + cfg.numerics.quad_nodes
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    assert ts == sorted(ts)
    assert 0.0 < ts[0] and ts[-1] < 1.0


def test_report_json_structure(tmp_path):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    emit_tables(cfg, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert set(payload) >= {"config", "lform_table", "boundary", "bulk_integral", "eta"}
    assert payload["boundary"]["discrepancy"] < 1e-10
    assert payload["eta"]["error"] >= 0.0


@pytest.mark.parametrize(
    "example,unread",
    [
        ("example_irreducible.json", {"a_const": 1.0, "q_coeffs": [1.0]}),
        ("example_reducible.json", {"c_bar": -1.0, "phi_coeffs": [1.0]}),
    ],
)
def test_report_json_echoes_only_the_profile_keys_read(tmp_path, capsys, example, unread):
    """Profile keys that the loader does not read for the mode leave
    report.json byte for byte as the example writes it."""
    payload = json.loads((EXAMPLES / example).read_text())
    reports = []
    for name, extra in (("as-given", {}), ("with-unread", unread)):
        payload["profile"].update(extra)
        cfg = write_cfg(tmp_path, payload, f"{name}.json")
        assert main(["eta", str(cfg), "-o", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


# ----------------------------------------------------------------- checks and CLI

def test_run_check_passes(tmp_path, capsys):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    results = run_check(cfg)
    captured = capsys.readouterr().out
    assert all(r.passed for r in results)
    assert captured.count("PASS") == len(results)


def test_check_passes_where_tl3_crosses_zero(tmp_path, capsys):
    """At base_curv -0.754859 the worked example's TL3 is near zero, while
    its two routes still differ by only 2.4e-12.  Relative to |TL3| alone,
    transgression-closed-vs-direct printed FAIL at 2.1e-3 and exited 1;
    relative to the integrand's size sum_i w_i |f_i| as well, it passes."""
    payload = json.loads(json.dumps(IRRED))
    payload["profile"]["base_curv"] = -0.754859
    rep = eta_invariant(load_config(write_cfg(tmp_path, payload)))
    assert abs(rep.tl3_closed["value"]) < 1e-5 and rep.tl3_discrepancy < 1e-11
    assert main(["check", str(write_cfg(tmp_path, payload))]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS  transgression-closed-vs-direct" in out


def test_run_check_computes_each_route_once_per_node_count(tmp_path, monkeypatch, capsys):
    """The 32-node routes and the 32- and 64-node bulk come from the report;
    the refined eta adds only the 64-node closed route and the 128-node bulk,
    and no direct route, whose value it does not read."""
    nodes = {"closed": [], "direct": []}
    for name in nodes:
        original = getattr(skr, f"transgression_pullback_{name}")

        def counting(bd, *args, _original=original, _seen=nodes[name]):
            _seen.append(args[-1])  # the node count
            return _original(bd, *args)

        monkeypatch.setattr(skr, f"transgression_pullback_{name}", counting)
    bulk_nodes = []
    original_bulk = app._bulk_quadrature

    def counting_bulk(p, n_nodes):
        bulk_nodes.append(n_nodes)
        return original_bulk(p, n_nodes)

    monkeypatch.setattr(app, "_bulk_quadrature", counting_bulk)
    cfg = load_config(write_cfg(tmp_path, IRRED))
    assert all(r.passed for r in run_check(cfg))
    assert nodes == {"closed": [32, 64], "direct": [32]}
    assert bulk_nodes == [32, 64, 128]


@pytest.mark.parametrize("example", ["example_irreducible.json", "example_reducible.json"])
def test_refined_eta_is_the_report_at_twice_the_nodes(example):
    """The eta that eta-quadrature-stability compares is, bit for bit, the eta
    of a report at twice the configured nodes."""
    cfg = load_config(EXAMPLES / example)
    p = cfg.profile
    doubled = replace(cfg, numerics=replace(cfg.numerics, quad_nodes=2 * cfg.numerics.quad_nodes))
    refined = app._refined_eta(p, cfg, skr.boundary_data(p))
    assert refined.hex() == eta_invariant(doubled).eta["value"].hex()


@pytest.mark.parametrize("command,calls", [("eta", 1), ("check", 1)])
def test_boundary_data_built_once_per_report(tmp_path, monkeypatch, capsys, command, calls):
    """Each report builds the boundary once and hands it to every route; check
    makes one report and takes the alternate route and the refined eta from
    the report's boundary."""
    seen = []
    original = skr.boundary_data

    def counting(p):
        seen.append(p)
        return original(p)

    monkeypatch.setattr(skr, "boundary_data", counting)
    cfg = str(EXAMPLES / "example_irreducible.json")
    assert main([command, cfg, "-o", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(seen) == calls


@pytest.mark.parametrize("example", ["example_irreducible.json", "example_reducible.json"])
def test_check_prints_the_oracle_suite(capsys, example):
    """check ends with exactly the lines oracle prints."""
    cfg = str(EXAMPLES / example)
    assert main(["oracle", cfg]) == 0
    oracle_out = capsys.readouterr().out
    assert main(["check", cfg]) == 0
    check_lines = capsys.readouterr().out.splitlines(keepends=True)
    assert len(oracle_out.splitlines()) == 5
    assert "".join(l for l in check_lines if "  oracle-" in l) == oracle_out
    assert check_lines[-5:] == oracle_out.splitlines(keepends=True)


def test_run_oracle_passes(tmp_path, capsys):
    cfg = load_config(write_cfg(tmp_path, IRRED))
    results = run_oracle(cfg)
    assert all(r.passed for r in results)


def test_cli_exit_codes(tmp_path, capsys):
    good = write_cfg(tmp_path, RED, "good.json")
    assert main(["check", str(good)]) == 0
    capsys.readouterr()
    bad = write_cfg(
        tmp_path,
        {"profile": {"mode": "reducible", "q_coeffs": [-2.0], "tau_min": -0.5}},
        "bad.json",
    )
    assert main(["eta", str(bad), "-o", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    assert main(["lform", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command,profile,code,message",
    [
        # phi < 0 only on (-0.106, -0.104), between 50 equal samples: eta exited 0
        ("eta", {"phi_coeffs": [0.105**2 - 1e-6, 0.21, 1.0]}, 2, "phi vanishes at tau = -0.106"),
        # phi vanishes at tau_min only, a degenerate inner end
        ("eta", {"phi_coeffs": [0.5, 1.0]}, 0, ""),
        # psi = 5e-10 is near 0, the multiple of 2 pi where Lbar is regular: eta exited 1
        ("eta", {"mode": "reducible", "q_coeffs": [1.0, 1e-9]}, 0, ""),
        # a flat product, phi = psi = 0: the bulk raised and eta exited 1
        ("eta", {"mode": "reducible", "q_coeffs": [1.0]}, 0, ""),
        # an empty list, an overflow of phi^2, a singular chart metric: tracebacks
        ("eta", {"phi_coeffs": []}, 2, "config error: invalid profile: a profile polynomial"),
        (
            "eta",
            {"phi_coeffs": [1e300, 0.0]},
            1,
            "numerical failure: float overflow in curvature_components",
        ),
        (
            "oracle",
            {"phi_coeffs": [1e154, 0.22], "c_bar": -0.509, "tau_min": -0.189},
            1,
            "numerical failure: Singular matrix",
        ),
        # the bulk integral overflows: eta exited 0 with -Infinity in report.json
        (
            "eta",
            {"phi_coeffs": [-2.0], "c_bar": 1e154, "base_curv": 1.0, "tau_min": -1.0},
            1,
            "numerical failure: non-finite result -inf",
        ),
        # L-form rows overflow to -inf and nan: lform exited 0 and wrote them
        (
            "lform",
            {"phi_coeffs": [0.5, 0.25], "c_bar": -0.7, "base_curv": 1e308},
            1,
            "numerical failure: non-finite result nan",
        ),
        # 2 |c_bar| base_curv overflows in the boundary curvature: a ValueError
        (
            "check",
            {"phi_coeffs": [0.5], "c_bar": -1e154, "base_curv": 1e154, "tau_min": -1.0},
            1,
            "numerical failure: non-finite boundary curvature",
        ),
        # c_bar^2 underflows to 0 in the boundary curvature: the message named no function
        (
            "eta",
            {"phi_coeffs": [-0.2], "c_bar": 1e-300, "tau_min": -0.5},
            1,
            "numerical failure: float division by zero in boundary_data",
        ),
        # NaN in the finite differences: RuntimeWarning lines came first on stderr
        (
            "oracle",
            {
                "c_bar": -1e154,
                "phi_samples": {
                    "tau": [-0.6, -0.3, 0.0, 0.2],
                    "phi": [1.0, 0.2, 0.7, 0.4],
                    "interp_order": 1,
                },
            },
            1,
            "numerical failure: invalid value encountered",
        ),
        # the worked example with every finite-difference curvature entry NaN:
        # the three curvature checks printed PASS with residual 0
        (
            "oracle",
            {"phi_coeffs": [0.5, 0.25], "c_bar": -1e154, "base_curv": 2.0},
            1,
            "numerical failure: non-finite result nan",
        ),
    ],
    ids=[
        "negative-between-samples",
        "zero-at-tau-min",
        "small-rotation-angle",
        "flat-product",
        "empty-coeffs",
        "overflowing-phi-squared",
        "singular-chart-metric",
        "overflowing-report",
        "overflowing-lform-rows",
        "overflowing-boundary-curvature",
        "underflowing-c-bar-squared",
        "numpy-invalid-value",
        "nan-fd-curvature",
    ],
)
def test_cli_exit_code_per_profile(tmp_path, capsys, command, profile, code, message):
    payload = {"profile": {"mode": "irreducible", "c_bar": -1.0, "tau_min": -0.5, **profile}}
    out = tmp_path / "out"
    assert main([command, str(write_cfg(tmp_path, payload)), "-o", str(out)]) == code
    assert message in capsys.readouterr().err
    written = sorted(path.name for path in out.glob("*"))
    assert written == (["lform.csv", "report.json", "transgression.csv"] if code == 0 else [])


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


_FUZZ_NUMBER = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 1e-300, 1e-9, -1e-9, 1e154, -1e154, 1e300, -1e300]),
)


def _fuzz_int(lo, hi):
    """An integer field: mostly an integer in lo..hi, written as a JSON integer
    or an integral float, sometimes a bool, a fraction or an integer past
    float range."""
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints.map(float), st.sampled_from([True, lo + 0.5, -(10**400)]))


@st.composite
def _fuzz_case(draw):
    """A subcommand and a config: mostly plausible profiles, some extreme."""
    mode = draw(st.sampled_from(["irreducible", "reducible"]))
    what = "phi" if mode == "irreducible" else "q"
    tau_min = draw(st.one_of(st.floats(-1.0, -0.01), _FUZZ_NUMBER))
    values = st.one_of(st.floats(0.1, 0.7), _FUZZ_NUMBER)
    profile = {
        "mode": mode,
        "c_bar": draw(st.one_of(st.floats(-3.0, -1.0), st.floats(0.1, 3.0), _FUZZ_NUMBER)),
        "tau_min": tau_min,
        "base_curv": draw(_FUZZ_NUMBER),
    }
    if draw(st.booleans()):
        profile[f"{what}_coeffs"] = draw(st.lists(values, max_size=4))
    else:
        n = draw(st.integers(2, 8))
        lo = min(tau_min, 0.0) - 0.1
        profile[f"{what}_samples"] = {
            "tau": [lo + (0.2 - lo) * k / (n - 1) for k in range(n)],
            what: draw(st.lists(values, min_size=n, max_size=n)),
            "interp_order": draw(_fuzz_int(1, 5)),
        }
    numerics = {
        "quad_nodes": draw(_fuzz_int(2, 6)),
        "tau_samples": draw(_fuzz_int(2, 6)),
    }
    command = draw(st.sampled_from(["check", "lform", "transgression", "eta", "oracle"]))
    return command, {"profile": profile, "numerics": numerics}


@settings(max_examples=200, deadline=None)
@given(_fuzz_case())
def test_cli_fuzz_exit_codes_and_finite_report(case):
    """Any config ends in exit 0, 1 or 2 without a traceback, no printed check
    residual is NaN or infinite, and a written report.json holds no NaN or
    Infinity."""
    command, payload = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp), payload)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(cfg), "-o", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert not re.search(r"residual=\S*(nan|inf)", out.getvalue())
        report = Path(tmp) / "out" / "report.json"
        if report.exists():
            json.loads(report.read_text(), parse_constant=_reject_constant)


def test_eta_on_polynomial_profile_imports_no_scipy(tmp_path):
    cfg = write_cfg(tmp_path, IRRED)
    code = (
        "import sys; from equichar.app import main; "
        f"assert main(['eta', {str(cfg)!r}, '-o', {str(tmp_path / 'out')!r}]) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(app.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_check_imports_no_numpy_random():
    """The oracle's chart points are a fixed table, so a fresh check process
    never loads numpy.random (nor the hashlib and secrets it pulls in)."""
    example = str(EXAMPLES / "example_irreducible.json")
    code = (
        "import sys; from equichar.app import main; "
        f"assert main(['check', {example!r}]) == 0; "
        "print('numpy.random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(app.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_entry_point_subprocess(tmp_path):
    cfg = write_cfg(tmp_path, RED)
    proc = subprocess.run(
        [sys.executable, "-m", "equichar.app", "eta", str(cfg), "-o", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        cwd=Path(app.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()



def test_eta_sweep_script_smoke(tmp_path, capsys):
    """scripts/eta_sweep.py writes one row per point, each with a finite eta."""
    spec = importlib.util.spec_from_file_location("eta_sweep", EXAMPLES / "eta_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    out = tmp_path / "sweep.csv"
    sweep.main(["--points", "3", "--out", str(out)])
    capsys.readouterr()
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(math.isfinite(float(row["eta"])) for row in rows)


def test_output_digests_script_smoke(tmp_path):
    """scripts/output_digests.py gives one line per (example, command), the
    same in two runs, and the eta lines name the three written files; a
    failing config's lines pin its exit code and stderr, and name no file."""
    spec = importlib.util.spec_from_file_location("output_digests", EXAMPLES / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    configs = [(path.name, path) for path in digests.EXAMPLES]
    first = digests.digest_lines(configs, tmp_path / "first")
    assert first == digests.digest_lines(configs, tmp_path / "second")
    assert [line.split()[:3] for line in first] == [
        [name, command, "exit=0"] for name, _ in configs for command in digests.COMMANDS
    ]
    eta_lines = [line for line in first if line.split()[1] == "eta"]
    assert all(f" {name}=" in line for line in eta_lines for name in ("lform.csv", "report.json"))
    assert all(" transgression.csv=" in line for line in eta_lines)
    name, payload = digests.FAILING[0]
    failing = [(name, write_cfg(tmp_path, payload, f"{name}.json"))]
    stderr = digests._sha(b"config error: 'profile' must be an object\n")
    assert [line.split() for line in digests.digest_lines(failing, tmp_path / "failing")] == [
        [name, command, "exit=2", f"stdout={digests._sha(b'')}", f"stderr={stderr}"]
        for command in digests.COMMANDS
    ]
