import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_irreducible, make_reducible
from equichar import app, oracle, skr
from equichar.errors import ProfileError
from equichar.skr import SKRProfile

EXAMPLES = Path(__file__).resolve().parents[1] / "scripts"


def flat_profile(rng=None, scale=1.0):
    rng = rng if rng is not None else np.random.default_rng(5)
    return make_irreducible(rng, scale=scale, base_curv=0.0)


def chart_points(p, rng, n):
    """n chart points (tau, s, x, y), tau in the middle of the range."""
    span = -p.tau_min
    pts = []
    for _ in range(n):
        pts.append(
            (
                float(p.tau_min + span * rng.uniform(0.25, 0.95)),
                float(rng.uniform(0, 1)),
                float(rng.uniform(-0.4, 0.4)),
                float(rng.uniform(-0.4, 0.4)),
            )
        )
    return pts


# ----------------------------------------------------------------- metric

def test_metric_reducible_unit_q():
    p = SKRProfile.reducible_polynomial([1.0], tau_min=-0.5)
    g = oracle._metric_matrix(p, (-0.2, 0.7, 0.3, -0.1))
    assert np.allclose(g, np.eye(4))


def test_metric_determinant_closed_form(worked_profile):
    """det g = (2 |tau - c_bar|)^2 in the irreducible chart."""
    for tau in (-0.4, -0.2, -0.05):
        pt = (tau, 0.3, 0.25, -0.6)
        det = np.linalg.det(oracle._metric_matrix(worked_profile, pt))
        want = (2.0 * abs(tau - worked_profile.c_bar)) ** 2
        assert det == pytest.approx(want, rel=1e-12)


def test_metric_killing_norm(worked_profile):
    """g(u, u) = Q for the fiber generator u = d/ds."""
    for tau in (-0.35, -0.1):
        g = oracle._metric_matrix(worked_profile, (tau, 0.0, 0.5, 0.2))
        q = skr.derived_functions(worked_profile, tau).q
        assert g[1, 1] == pytest.approx(q, rel=1e-14)


def test_metric_positive_definite_guard():
    p = SKRProfile.reducible_polynomial([1.0, 2.4], tau_min=-0.4)
    with pytest.raises(ProfileError):
        oracle._metric_matrix(p, (-0.42, 0.0, 0.0, 0.0))  # Q <= 0 outside range


def test_frame_is_orthonormal(worked_profile):
    pt = (-0.22, 0.4, 0.3, -0.2)
    g = oracle._metric_matrix(worked_profile, pt)
    e = oracle.frame_at(worked_profile, pt)
    gram = e @ g @ e.T
    assert np.allclose(gram, np.eye(4), atol=1e-13)


# ----------------------------------------------------------------- christoffel

def test_christoffel_constant_q_flat():
    p = SKRProfile.reducible_polynomial([1.0], tau_min=-0.5)
    gamma = oracle.christoffel_fd(p, (-0.2, 0.1, 0.0, 0.0))
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_torsion_symmetry(worked_profile):
    gamma = oracle.christoffel_fd(worked_profile, (-0.3, 0.2, 0.3, 0.1))
    assert np.max(np.abs(gamma - gamma.transpose(0, 2, 1))) < 1e-9


def test_gradient_flow_pregeodesic(worked_profile):
    for tau in (-0.35, -0.15):
        defect = oracle.pregeodesic_defect_fd(worked_profile, (tau, 0.2, 0.4, -0.3))
        assert defect < 1e-9


# ----------------------------------------------------------------- curvature

def test_riemann_matches_closed_components(rng):
    p = flat_profile(rng)
    pts = chart_points(p, rng, 4)
    for pt in pts:
        cc = skr.curvature_components(p, skr.derived_functions(p, pt[0]))
        r = oracle.riemann_frame_fd(p, pt)
        pairs = [
            (r[0, 1, 0, 1], cc.b),
            (r[0, 1, 2, 3], cc.c),
            (r[2, 3, 2, 3], cc.d),
            (r[0, 2, 0, 2], cc.r),
            (r[0, 2, 1, 3], cc.r),
            (r[1, 2, 0, 3], -cc.r),
            (r[0, 3, 0, 3], cc.r),
            (r[1, 3, 1, 3], cc.r),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-5 * max(abs(want), 1e-2)


def _shifted(pt, axis, delta):
    """pt with one chart coordinate moved by delta."""
    c = np.array(pt, dtype=float)
    c[axis] += delta
    return c


def _christoffel_loops(p, pt, h):
    """Reference Gamma^k_ij as the explicit index sum over central differences."""
    g_inv = np.linalg.inv(oracle._metric_matrix(p, pt))
    dg = np.empty((4, 4, 4))
    for m in range(4):
        gp = oracle._metric_matrix(p, _shifted(pt, m, h))
        gm = oracle._metric_matrix(p, _shifted(pt, m, -h))
        dg[m] = (gp - gm) / (2.0 * h)
    gamma = np.empty((4, 4, 4))
    for k in range(4):
        for i in range(4):
            for j in range(4):
                gamma[k, i, j] = 0.5 * sum(
                    g_inv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j]) for l in range(4)
                )
    return gamma


def _riemann_coord_loops(p, pt, h):
    """Reference R[mu, nu, rho, sigma] as the explicit index sum."""
    gamma = _christoffel_loops(p, pt, h)
    dgamma = np.empty((4, 4, 4, 4))
    for m in range(4):
        plus = _christoffel_loops(p, _shifted(pt, m, h), h)
        dgamma[m] = (plus - _christoffel_loops(p, _shifted(pt, m, -h), h)) / (2.0 * h)
    r_up = np.empty((4, 4, 4, 4))
    for sig in range(4):
        for rho in range(4):
            for mu in range(4):
                for nu in range(4):
                    val = dgamma[mu, sig, nu, rho] - dgamma[nu, sig, mu, rho]
                    for lam in range(4):
                        val += (
                            gamma[sig, mu, lam] * gamma[lam, nu, rho]
                            - gamma[sig, nu, lam] * gamma[lam, mu, rho]
                        )
                    r_up[sig, rho, mu, nu] = val
    return np.einsum("srmn,st->mnrt", r_up, oracle._metric_matrix(p, pt))


def test_tensor_algebra_matches_index_loops(rng):
    """The vectorized Christoffel and coordinate-curvature formulas agree with
    the explicit index sums to 1e-13 relative, in both modes."""
    h = oracle.DEFAULT_FD_STEP
    for p in (flat_profile(rng), make_irreducible(rng), make_reducible(rng)):
        for pt in chart_points(p, rng, 3):
            for got, want in (
                (oracle.christoffel_fd(p, pt, h), _christoffel_loops(p, pt, h)),
                (oracle.riemann_coord_fd(p, pt, h), _riemann_coord_loops(p, pt, h)),
            ):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# Reference path: every oracle quantity point by point, one metric sample per
# shifted point and the stencil as a Python loop over the chart axes.

def _ref_metric(p, pt):
    q = skr.derived_functions(p, pt[0]).q
    g = np.zeros((4, 4))
    g[0, 0] = 1.0 / q
    g[1, 1] = q
    if p.mode == "irreducible":
        two_t = 2.0 * abs(pt[0] - p.c_bar)
        twist = 2.0 * oracle._branch_sign(p) * pt[2]
        g[1, 3] = g[3, 1] = q * twist
        g[2, 2] = two_t
        g[3, 3] = q * twist * twist + two_t
    else:
        g[2, 2] = 1.0
        g[3, 3] = 1.0
    return g


def _ref_frame(p, pt):
    sq = math.sqrt(skr.derived_functions(p, pt[0]).q)
    e = np.zeros((4, 4))
    if p.mode == "irreducible":
        root = math.sqrt(2.0 * abs(pt[0] - p.c_bar))
        e[0, 2] = 1.0 / root
        e[1, 1] = -2.0 * oracle._branch_sign(p) * pt[2] / root
        e[1, 3] = 1.0 / root
    else:
        e[0, 2] = 1.0
        e[1, 3] = 1.0
    e[2, 1] = 1.0 / sq
    e[3, 0] = -sq
    return e


def _ref_central_diff(fn, pt, h):
    diffs = [fn(_shifted(pt, m, h)) - fn(_shifted(pt, m, -h)) for m in range(4)]
    return np.stack(diffs) / (2.0 * h)


def _ref_christoffel(p, pt, h):
    g_inv = np.linalg.inv(_ref_metric(p, pt))
    dg = _ref_central_diff(lambda q: _ref_metric(p, q), pt, h)
    return 0.5 * np.einsum(
        "kl,ijl->kij", g_inv, dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    )


def _ref_riemann_frame(p, pt, h):
    gamma = _ref_christoffel(p, pt, h)
    dgamma = _ref_central_diff(lambda q: _ref_christoffel(p, q, h), pt, h)
    d_term = dgamma.transpose(1, 3, 0, 2)
    g_term = np.einsum("sml,lnr->srmn", gamma, gamma)
    r_up = d_term - d_term.transpose(0, 1, 3, 2) + g_term - g_term.transpose(0, 1, 3, 2)
    r_cov = np.einsum("srmn,st->mnrt", r_up, _ref_metric(p, pt))
    e = _ref_frame(p, pt)
    r = np.einsum("lt,mnrt->mnrl", e, r_cov)
    r = np.einsum("kr,mnrl->mnkl", e, r)
    r = np.einsum("jn,mnkl->mjkl", e, r)
    return -np.einsum("im,mjkl->ijkl", e, r)


def _ref_connection_oneform(p, pt, h):
    gamma = _ref_christoffel(p, pt, h)
    g = _ref_metric(p, pt)
    e = _ref_frame(p, pt)
    de = _ref_central_diff(lambda q: _ref_frame(p, q), pt, h)
    cov = np.einsum("km,mia->kia", e, de) + np.einsum("km,amb,ib->kia", e, gamma, e)
    return np.einsum("kia,jb,ab->ijk", cov, e, g)


def _ref_complex_structure(p, pt):
    e = _ref_frame(p, pt)
    coframe = np.linalg.inv(e)
    j = np.zeros((4, 4))
    for a, b, sign in ((1, 0, 1.0), (0, 1, -1.0), (3, 2, 1.0), (2, 3, -1.0)):
        j += sign * np.einsum("m,n->mn", e[a], coframe[:, b])
    return j


def _ref_kahler_defect(p, pt, h):
    gamma = _ref_christoffel(p, pt, h)
    dj = _ref_central_diff(lambda q: _ref_complex_structure(p, q), pt, h)
    j = _ref_complex_structure(p, pt)
    grad = dj + np.einsum("aml,lb->mab", gamma, j) - np.einsum("lmb,al->mab", gamma, j)
    return float(np.max(np.abs(grad)))


def _ref_pregeodesic_defect(p, pt, h):
    d = skr.derived_functions(p, pt[0])
    gamma = _ref_christoffel(p, pt, h)
    dq = (skr.derived_functions(p, pt[0] + h).q - skr.derived_functions(p, pt[0] - h).q) / (
        2.0 * h
    )
    vec = d.q * d.q * gamma[:, 0, 0]
    vec[0] += d.q * dq
    ortho = vec.copy()
    ortho[0] = 0.0
    return float(math.sqrt(ortho @ _ref_metric(p, pt) @ ortho)) / d.q


def _pinned_profiles():
    """The flat-base profiles of both example configs and of a degree-4
    reducible profile, with the chart step each runs at."""
    out = []
    for name in ("example_irreducible.json", "example_reducible.json"):
        cfg = app.load_config(EXAMPLES / name)
        out.append((replace(cfg.profile, base_curv=0.0), cfg.numerics.fd_step))
    return out + [(make_reducible(np.random.default_rng(41)), 1e-3)]


@pytest.mark.parametrize("index", range(3))
def test_array_path_matches_point_path_bit_for_bit(index):
    """Every oracle quantity at the oracle points equals the point-by-point
    result exactly, whether called on one point or on all ten at once: the
    stencils hold the same floats, built by the same additions, and every
    entry goes through the same operations."""
    p, h = _pinned_profiles()[index]
    pairs = (
        (oracle.christoffel_fd, _ref_christoffel),
        (oracle.riemann_frame_fd, _ref_riemann_frame),
        (oracle.connection_oneform_fd, _ref_connection_oneform),
        (oracle.kahler_defect_fd, _ref_kahler_defect),
        (oracle.pregeodesic_defect_fd, _ref_pregeodesic_defect),
    )
    pts = app._oracle_points(p)
    assert pts.shape == (10, 4)
    for got, want in pairs:
        stacked = got(p, pts, h)
        assert stacked.shape[0] == 10, got.__name__
        for k, pt in enumerate(pts):
            ref = want(p, pt, h)
            assert np.array_equal(got(p, pt, h), ref), got.__name__
            assert np.array_equal(stacked[k], ref), got.__name__


def test_oracle_points_are_the_seeded_draws(worked_profile):
    """The fixed table holds exactly the draws of the seeded generator it
    replaced, and only the tau column is scaled into the profile's range."""
    rng = np.random.default_rng(20240817)
    want = rng.uniform((0.25, 0.0, -0.4, -0.4), (0.95, 1.0, 0.4, 0.4), size=(10, 4))
    assert np.array_equal(np.array(app._ORACLE_POINTS), want)
    p = worked_profile
    pts = app._oracle_points(p)
    assert np.array_equal(pts[:, 1:], want[:, 1:])
    assert np.array_equal(pts[:, 0], p.tau_min + -p.tau_min * want[:, 0])


@pytest.mark.parametrize("index", range(3))
def test_frame_rotation_chain_matches_one_contraction(index):
    """riemann_frame_fd turns the coordinate curvature into the frame one index
    at a time; the single five-operand contraction gives the same entries to
    1e-15 of the largest, at the oracle points of each pinned profile."""
    p, h = _pinned_profiles()[index]
    pts = app._oracle_points(p)
    e = oracle.frame_at(p, pts)
    r_cov = oracle.riemann_coord_fd(p, pts, h)
    want = -np.einsum("...im,...jn,...kr,...lt,...mnrt->...ijkl", e, e, e, e, r_cov)
    got = oracle.riemann_frame_fd(p, pts, h)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_christoffel_on_point_array_stacks_point_results(worked_profile):
    pts = [(-0.4, 0.1, 0.2, -0.3), (-0.25, 0.7, -0.1, 0.05), (-0.1, 0.3, 0.35, 0.2)]
    stacked = oracle.christoffel_fd(worked_profile, np.array(pts))
    assert stacked.shape == (3, 4, 4, 4)
    each = [oracle.christoffel_fd(worked_profile, pt) for pt in pts]
    assert np.array_equal(stacked, np.stack(each))


def _count_calls(monkeypatch):
    counts = {"_metric_matrix": 0, "derived_functions": 0}
    for name in counts:
        original = getattr(oracle, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(oracle, name, counted)
    return counts


def test_one_metric_call_per_stencil(monkeypatch, worked_profile):
    """A curvature evaluation samples the metric in at most 5 calls and the
    profile once per distinct tau; the chart volume in one call; the whole
    oracle suite, which evaluates each quantity at all its points at once, in
    at most 10 calls."""
    p = worked_profile
    counts = _count_calls(monkeypatch)
    for pt in app._oracle_points(p):
        counts.update(_metric_matrix=0, derived_functions=0)
        oracle.riemann_frame_fd(p, pt)
        assert counts["_metric_matrix"] <= 5 and counts["derived_functions"] <= 14
    counts.update(_metric_matrix=0, derived_functions=0)
    oracle.volume_integral_chart(p, lambda tau: 1.0)
    assert counts == {"_metric_matrix": 1, "derived_functions": 24}
    counts.update(_metric_matrix=0, derived_functions=0)
    app._oracle_checks(p, oracle.DEFAULT_FD_STEP)
    assert counts["_metric_matrix"] <= 10


def test_run_oracle_compares_mixed_entries(monkeypatch, capsys):
    """A defect confined to the mixed entry (1, 2, 0, 3) fails the curvature match."""
    cfg = app.RunConfig(profile=SKRProfile.irreducible_polynomial([0.5, 0.25], -1.0))
    assert all(r.passed for r in app.run_oracle(cfg))
    original = oracle.riemann_frame_fd

    def shifted(p, pt, h_step=oracle.DEFAULT_FD_STEP):
        r = original(p, pt, h_step).copy()
        r[..., 1, 2, 0, 3] += 1e-3
        return r

    monkeypatch.setattr(oracle, "riemann_frame_fd", shifted)
    match = {r.name: r for r in app.run_oracle(cfg)}["oracle-curvature-match"]
    assert not match.passed
    assert "FAIL  oracle-curvature-match" in capsys.readouterr().out


def test_riemann_three_index_vanishing(rng):
    """Components with exactly three indices from the vertical pair (or the
    horizontal pair) vanish."""
    p = flat_profile(rng)
    pt = chart_points(p, rng, 1)[0]
    r = oracle.riemann_frame_fd(p, pt)
    for idx in ((2, 3, 2, 0), (2, 3, 3, 1), (0, 2, 2, 3), (1, 3, 2, 3), (0, 1, 0, 2), (0, 1, 1, 3)):
        assert abs(r[idx]) < 1e-6


def test_riemann_algebraic_symmetries(rng):
    p = flat_profile(rng)
    pt = chart_points(p, rng, 1)[0]
    r = oracle.riemann_frame_fd(p, pt)
    assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) < 1e-6
    assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-6
    assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < 1e-6
    # first Bianchi: R[i,j,k,l] + R[j,k,i,l] + R[k,i,j,l] = 0
    cyc = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
    assert np.max(np.abs(cyc)) < 1e-6


def test_connection_oneform_matches_display(rng):
    p = flat_profile(rng)
    pt = chart_points(p, rng, 1)[0]
    nu = oracle.connection_oneform_fd(p, pt)
    d = skr.derived_functions(p, pt[0])
    k = d.phi / math.sqrt(d.q)
    l = d.psi / math.sqrt(d.q)
    assert abs(nu[0, 2, 1] - k) < 1e-6   # nu_13 = k e^2
    assert abs(nu[0, 2, 0]) < 1e-6
    assert abs(nu[0, 3, 0] - k) < 1e-6   # nu_14 = k e^1
    assert abs(nu[1, 2, 0] + k) < 1e-6   # nu_23 = -k e^1
    assert abs(nu[1, 3, 1] - k) < 1e-6   # nu_24 = k e^2
    assert abs(nu[2, 3, 2] - l) < 1e-6   # nu_34 = l e^3
    assert abs(nu[2, 3, 0]) < 1e-6
    # antisymmetry of the frame connection matrix
    assert np.max(np.abs(nu + nu.transpose(1, 0, 2))) < 1e-8


def test_kahler_parallel(rng):
    for p in (flat_profile(rng), make_reducible(rng)):
        pt = chart_points(p, rng, 1)[0]
        assert oracle.kahler_defect_fd(p, pt) < 1e-6


def test_base_curvature_enters_linearly(rng):
    """The chart is flat-base; the base-curvature constant enters the closed
    horizontal component linearly, so the FD value plus the linear term
    reproduces the curved-base closed formula."""
    p0 = flat_profile(rng)
    pt = chart_points(p0, rng, 1)[0]
    r_fd = oracle.riemann_frame_fd(p0, pt)
    for rh in (-1.5, 2.0):
        p = skr.SKRProfile(
            mode="irreducible",
            c_bar=p0.c_bar,
            base_curv=rh,
            tau_min=p0.tau_min,
            fn=p0.fn,
        )
        d = skr.derived_functions(p, pt[0])
        cc = skr.curvature_components(p, d)
        linear_term = -abs(d.phi / d.q) * rh
        assert abs((r_fd[0, 1, 0, 1] + linear_term) - cc.b) < 1e-6


def test_volume_reduction_against_chart(worked_profile):
    fn = lambda tau: math.sin(3.0 * tau) + 2.0
    direct = oracle.volume_integral_chart(worked_profile, fn)
    xs, ws = np.polynomial.legendre.leggauss(48)
    xs = 0.5 * (xs + 1.0) * (-worked_profile.tau_min) + worked_profile.tau_min
    ws = 0.5 * ws * (-worked_profile.tau_min)
    reduced = worked_profile.fiber_period * worked_profile.base_area * sum(
        w * fn(float(t)) * skr.volume_weight(worked_profile, float(t))
        for t, w in zip(xs, ws)
    )
    assert abs(direct - reduced) / abs(reduced) < 1e-4
