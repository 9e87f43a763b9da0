import numpy as np
import pytest

from equichar.errors import ProfileError
from equichar.matforms import FormMatrix
from equichar.skr import SKRProfile


def make_irreducible(rng, scale=1.0, base_curv=None):
    """Random valid irreducible profile; phi is an affine-plus-quadratic
    polynomial scaled by `scale`, c_bar sits outside the tau range.

    Draws are rejected until the rotation angles phi, psi stay below 0.8
    (times `scale`) on the whole range, keeping every germ evaluation well
    inside its convergence disk with sub-1e-12 truncation tails at order 16.
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


def family_at(fam, t):
    """nabla^t X and R^t of a connection family at one t, as form matrices."""
    size, dim = fam.theta.size, fam.theta.dimension
    return tuple(FormMatrix(size, dim, data) for data in fam.at(t))


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
