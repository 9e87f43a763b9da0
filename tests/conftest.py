import numpy as np
import pytest

from equichar.errors import ProfileError
from equichar.exterior import ExteriorForm
from equichar.skr import SKRProfile


def make_irreducible(rng, scale=1.0, base_curv=None):
    """Random valid irreducible profile; phi is an affine-plus-quadratic
    polynomial scaled by `scale`, c_bar sits outside the tau range.

    Draws are rejected until the rotation angles phi, psi stay below 0.8
    (times `scale`) on the whole range, keeping every germ evaluation well
    inside its convergence disk.
    """
    from equichar.skr import derived_functions

    for _ in range(200):
        sign = -1.0 if rng.uniform() < 0.3 else 1.0
        phi0 = sign * rng.uniform(0.25, 0.55) * scale
        phi1 = rng.uniform(-0.4, 0.4) * abs(phi0)
        phi2 = rng.uniform(-0.3, 0.3) * abs(phi0)
        c_bar = -rng.uniform(0.8, 2.5) if sign > 0 else rng.uniform(0.2, 1.5)
        tau_min = -rng.uniform(0.2, 0.45)
        rh = rng.uniform(-1.0, 1.0) if base_curv is None else base_curv
        try:
            p = SKRProfile.irreducible_polynomial(
                [phi0, phi1, phi2], c_bar, base_curv=rh, tau_min=tau_min
            )
        except ProfileError:
            continue
        angles = [
            max(abs(d.phi), abs(d.psi))
            for d in (
                derived_functions(p, t)
                for t in np.linspace(tau_min * 0.999, 0.0, 21)
            )
        ]
        if max(angles) <= 0.8 * max(scale, 1e-30):
            return p
    raise RuntimeError("failed to draw a valid irreducible profile")


def char_poly_forms(phi, psi, cc):
    """A and Pf of det(lam - R_X) = lam^4 + A lam^2 + Pf^2, as
    skr.l4_closed states them, as exterior forms."""
    b, c, d, r = cc

    def form(a0, a12, a34, a1234):
        return ExteriorForm(4, {(): a0, (1, 2): a12, (3, 4): a34, (1, 2, 3, 4): a1234})

    a = form(phi**2 + psi**2, 2 * (phi * b + psi * c), 2 * (phi * c + psi * d),
             2 * (b * c + c * d - 4 * r * r))
    pf = form(phi * psi, phi * c + psi * b, phi * d + psi * c, b * d + c * c + 4 * r * r)
    return a, pf


def make_reducible(rng, degree=4):
    """Random reducible profile with a positive polynomial Q of degree <= 4."""
    for _ in range(100):
        coeffs = [rng.uniform(0.6, 1.6)] + list(rng.uniform(-0.4, 0.4, degree))
        tau_min = -rng.uniform(0.2, 0.45)
        try:
            return SKRProfile.reducible_polynomial(
                coeffs, base_curv=rng.uniform(-1.0, 1.0), tau_min=tau_min
            )
        except ProfileError:
            continue
    raise RuntimeError("failed to draw a valid reducible profile")


def max_abs(a):
    """Largest absolute coefficient of a matrix of forms or a coefficient array."""
    return float(np.max(np.abs(a)))


def integrate_per_node(quad, fn):
    """sum_i w_i fn(t_i) for fn giving a form's coefficients, one call per
    node, accumulated left-to-right over ascending nodes."""
    xs, _ = quad.rule()
    return quad.weighted_sum(np.stack([fn(float(x)) for x in xs]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture
def worked_profile():
    """phi = (tau + 2)/4, c_bar = -1, base curvature 2: the hand-checked case
    with (phi, psi, Q, phi', psi') = (1/2, 3/4, 1, 1/4, 1/2) at tau = 0."""
    return SKRProfile.irreducible_polynomial(
        [0.5, 0.25], c_bar=-1.0, base_curv=2.0, tau_min=-0.5
    )
