"""Taylor coefficients of the standard germs, their complex values, their
divided differences on a spectrum, and the L-log germ's values on rotation
angles, validated against an independent high-precision oracle (mpmath)."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from equichar.errors import ConvergenceRadiusError
from equichar.matforms import (
    _divided_differences,
    _germ_values,
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


def mp_l_log(z):
    return mp.log(mp_l_inner(z)) / 2


def _derived(germ, order):
    for _ in range(order):
        germ = germ.derivative()
    return germ


# the germs and the derivatives that carry closed forms
GERMS = {
    **{"l_log" + "'" * k: (hirzebruch_l_log_germ(), mp_l_log, k) for k in range(5)},
    **{"l_inner" + "'" * k: (hirzebruch_l_inner_germ(), mp_l_inner, k) for k in (0, 1)},
}


@pytest.mark.parametrize("name", list(GERMS))
def test_germ_values_against_mpmath(name):
    """Both branches of the complex evaluator, the series below |z| = 1 and
    the closed form above, on and off the imaginary axis, up to 0.04 from
    the L-log germ's branch points at +-i pi."""
    germ, oracle, order = GERMS[name]
    germ = _derived(germ, order)
    points = [0.0, 1e-9j, 0.3j, 0.99j, 1.01j, -2.5j, 3.1j, 0.5 + 0.5j, 1.5 - 0.2j, -0.4 - 2.2j]
    got = _germ_values(germ, np.array(points))
    for z, value in zip(points, got):
        want = complex(mp.diff(oracle, mp.mpc(z), order))
        assert abs(value - want) <= 1e-15 * max(1.0, abs(want)), z


def test_germ_without_closed_form_stays_near_zero():
    germ = hirzebruch_l_inner_germ().derivative().derivative()
    assert _germ_values(germ, np.array([0.5j])).shape == (1,)
    with pytest.raises(ValueError):
        _germ_values(germ, np.array([1.5j]))


def _mp_divided_difference(fn, points):
    """fn[points] by the difference table at 250 digits, each point moved by
    a distinct 1e-40 so that repeated points stay apart."""
    with mp.workdps(250):
        xs = [mp.mpc(x) + mp.mpc(0, (j + 1) * mp.mpf(10) ** -40) for j, x in enumerate(points)]
        table = [fn(x) for x in xs]
        for step in range(1, len(xs)):
            pairs = enumerate(zip(table, table[1:]))
            table = [(b - a) / (xs[i + step] - xs[i]) for i, (a, b) in pairs]
        return complex(table[0])


@pytest.mark.parametrize(
    "w",
    [
        [-0.75, -0.5, 0.5, 0.75],
        [-0.5, -0.5 + 1e-9, 0.5 - 1e-9, 0.5],
        [-0.5, 0.0, 0.0, 0.5],
        [-0.002, -0.001, 0.001, 0.002],
        [-1.0, -0.75, 0.75, 1.0],
        [-3.1, -2.6, 2.6, 3.1],
    ],
    ids=["apart", "crossing", "double-zero", "near-zero", "cluster-threshold", "near-radius"],
)
def test_divided_differences_against_mpmath(w):
    """Every divided difference up to order 3 on a spectrum -i w, with points
    apart, crossing, repeated, all near 0, about the cluster threshold and
    0.04 from the branch points, to 1e-13 of max(1, |value|)."""
    lam = -1j * np.array(w)
    germ = hirzebruch_l_log_germ()
    for g, fn in ((germ, mp_l_log), (germ.derivative(), lambda z: mp.diff(mp_l_log, z))):
        dds = _divided_differences(g, np.array(w), 3)
        for k in range(4):
            for t in itertools.combinations_with_replacement(range(4), k + 1):
                want = _mp_divided_difference(fn, [lam[i] for i in t])
                assert abs(dds[k][t] - want) <= 1e-13 * max(1.0, abs(want)), (g.name, t)
                for perm in set(itertools.permutations(t)):
                    assert dds[k][perm] == dds[k][t]


def test_radius_values():
    assert abs(hirzebruch_l_log_germ().radius - math.pi) < 1e-15
    assert abs(hirzebruch_l_inner_germ().radius - 2.0 * math.pi) < 1e-15
