"""Taylor coefficients of the standard germs and the L-log germ's values on
rotation angles, validated against an independent high-precision oracle
(mpmath)."""

import math

import mpmath as mp
import pytest

from equichar.errors import ConvergenceRadiusError
from equichar.matforms import (
    hirzebruch_l_inner_germ,
    hirzebruch_l_log_germ,
    l_log_at_angle,
)

mp.mp.dps = 40


def mp_l_inner(z):
    z = mp.mpmathify(z)
    return z / (2 * mp.tanh(z / 2)) if z != 0 else mp.mpf(1)


def taylor_oracle(fn, order):
    return [float(c) for c in mp.taylor(fn, 0, order)]


def test_l_inner_known_coefficients():
    g = hirzebruch_l_inner_germ()
    expected = {0: 1.0, 2: 1.0 / 12.0, 4: -1.0 / 720.0, 6: 1.0 / 30240.0}
    for k, val in expected.items():
        assert abs(g.taylor[k] - val) < 1e-15
    for k in (1, 3, 5, 7):
        assert g.taylor[k] == 0.0


def test_l_log_known_coefficients():
    g = hirzebruch_l_log_germ()
    assert abs(g.taylor[2] - 1.0 / 24.0) < 1e-15
    assert abs(g.taylor[4] + 7.0 / 2880.0) < 1e-15
    assert abs(g.second_derivative_at_zero() - 1.0 / 12.0) < 1e-15


@pytest.mark.parametrize(
    "germ,oracle",
    [
        (hirzebruch_l_inner_germ(), mp_l_inner),
        (hirzebruch_l_log_germ(), lambda z: mp.log(mp_l_inner(z)) / 2),
    ],
    ids=["l_inner", "l_log"],
)
def test_taylor_against_mpmath(germ, oracle):
    ref = taylor_oracle(oracle, 20)
    for k in range(20):
        scale = max(abs(ref[k]), 1.0)
        assert abs(germ.taylor[k] - ref[k]) <= 1e-15 * scale, (germ.name, k)


@pytest.mark.parametrize("x", [0.0, 1e-4, 0.11, 0.499, 0.501, 0.9, 1.7, 2.6])
def test_l_log_at_angle_against_mpmath(x):
    """Both branches (series below 0.5, trigonometric above) and the signs of
    x, against the derivatives of log(F)/2 at ix in 40 digits."""
    def oracle(z):
        return mp.log(mp_l_inner(z)) / 2

    fx = oracle(mp.mpc(0, x))
    d1 = mp.diff(oracle, mp.mpc(0, x), 1)
    d2 = mp.diff(oracle, mp.mpc(0, x), 2)
    assert abs(fx.imag) < 1e-25
    for sign in (1.0, -1.0):
        g, g1, g2 = l_log_at_angle(sign * x)
        assert abs(g - float(fx.real)) < 1e-13
        # g'(ix) is purely imaginary and odd in x; the evaluator returns g'(ix)/i
        assert abs(g1 - sign * float(d1.imag)) < 1e-12
        assert abs(g2 - float(d2.real)) < 1e-11


@pytest.mark.parametrize("x", [math.pi, -math.pi, 2.0 * math.pi])
def test_l_log_at_angle_rejects_the_germ_radius(x):
    with pytest.raises(ConvergenceRadiusError) as err:
        l_log_at_angle(x)
    assert err.value.spectral_radius == abs(x)
    assert err.value.radius == hirzebruch_l_log_germ().radius


def test_derivative_shift():
    g = hirzebruch_l_log_germ()
    dg = g.derivative()
    for k in range(12):
        assert dg.coeff(k) == (k + 1) * g.coeff(k + 1)
    assert not dg.even


def test_tail_estimate_small():
    # rho = 0.7 caps the Killing data used in the sweeps
    g = hirzebruch_l_log_germ()
    # |c_17| rho^17 + |c_18| rho^18: the first two coefficients past order 16
    def tail(rho):
        return sum(abs(g.coeff(k)) * rho**k for k in (17, 18))

    assert tail(0.7) < 1e-12
    assert tail(0.3) < 1e-17


def test_radius_values():
    assert abs(hirzebruch_l_log_germ().radius - math.pi) < 1e-15
    assert abs(hirzebruch_l_inner_germ().radius - 2.0 * math.pi) < 1e-15
