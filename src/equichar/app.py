"""Configuration ingestion, eta-invariant assembly, check suite and CSV/JSON emission.

The command line exposes five subcommands over a single JSON config:

    equichar check CONFIG            run the invariant and oracle suites, exit 1 on failure
    equichar lform CONFIG -o DIR     write lform.csv
    equichar transgression CONFIG -o DIR   write transgression.csv
    equichar eta CONFIG -o DIR       write report.json (+ the two CSV tables)
    equichar oracle CONFIG           finite-difference chart validation

:func:`load_config` parses a config once, profile included, into the
:class:`RunConfig` that every command reads; a library caller writes
``RunConfig(profile=p)``.  Exit codes: 0 success, 1 numerical failure, 2 config
error.  Outputs are byte-identical for identical configs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from . import skr
from .charforms import gauss_legendre, l_form, transgression_degree3_alt, weighted_sum
from .errors import ConfigError, EquicharError, ProfileError
from .exterior import mask_of_indices
from .matforms import hirzebruch_l_log_germ
from .skr import SKRProfile

__all__ = [
    "RunConfig",
    "Report",
    "load_config",
    "build_profile",
    "eta_invariant",
    "run_check",
    "emit_tables",
    "main",
]


# --------------------------------------------------------------------------- config

# Caps on the node counts, far above what the spectrally converging rules
# need; they keep one run to seconds (a direct-route node costs about 0.13 ms).
MAX_QUAD_NODES = 1024
MAX_TAU_SAMPLES = 10_000


@dataclass(frozen=True)
class Numerics:
    quad_nodes: int = 32
    fd_step: float = oracle_mod.DEFAULT_FD_STEP
    tau_samples: int = 101


@dataclass(frozen=True)
class Topology:
    signature: int = 0
    base_area: float = 1.0
    fiber_period: float = 2.0 * math.pi


@dataclass(frozen=True)
class RunConfig:
    profile: SKRProfile  # the one owner of base_area and fiber_period
    numerics: Numerics = Numerics()
    signature: int = 0
    output_dir: str | None = None
    profile_echo: dict = field(default_factory=dict)  # the profile keys read, as given


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _number(value, name: str, kind=float):
    """``value`` as a float, or as an int for ``kind=int``.  Only a finite JSON
    number is one: a string, a bool, NaN, an infinity and an integer past
    float range are config errors, and so is a fraction where an int is due."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(
        number and abs(value) <= sys.float_info.max,
        f"{name} must be a finite number, got {value!r}",
    )
    if kind is int:
        _require(float(value).is_integer(), f"{name} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _numbers(values, name: str) -> list:
    _require(isinstance(values, list), f"{name} must be a list of numbers")
    return [_number(v, name) for v in values]


def _require_finite(value, name: str) -> None:
    """Every number in the parsed JSON ``value`` must be finite, whether or
    not the profile mode reads it; json parses NaN and Infinity, and reads an
    overflowing literal such as 1e400 as inf."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{name}.{key}")
    elif isinstance(value, list):
        for item in value:
            _require_finite(item, name)
    elif isinstance(value, float):
        _require(math.isfinite(value), f"{name} must be a finite number, got {value!r}")


def _section(cls, raw: dict):
    """The dataclass ``cls`` with each field read from ``raw`` or left at its
    default; the default's type says whether the field is an int or a float."""
    default = cls()
    values = {}
    for f in fields(cls):
        value = getattr(default, f.name)
        values[f.name] = _number(raw.get(f.name, value), f.name, type(value))
    return cls(**values)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except OSError as exc:  # a directory, no permission, an I/O error
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # not JSON, not UTF-8, or an integer too long to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    _require("profile" in raw, "config needs a 'profile' section")
    if isinstance(raw["profile"], dict):
        for key, value in raw["profile"].items():
            _require_finite(value, key)
    num, top, out = (raw.get(name, {}) for name in ("numerics", "topology", "output"))
    for section, name in ((num, "numerics"), (top, "topology"), (out, "output")):
        _require(isinstance(section, dict), f"'{name}' must be an object")
    output_dir = out.get("dir")
    _require(output_dir is None or isinstance(output_dir, str), "output.dir must be a string")
    numerics = _section(Numerics, num)
    _require(
        2 <= numerics.quad_nodes <= MAX_QUAD_NODES, f"quad_nodes must lie in 2..{MAX_QUAD_NODES}"
    )
    _require(numerics.fd_step > 0, "fd_step must be positive")
    _require(
        2 <= numerics.tau_samples <= MAX_TAU_SAMPLES,
        f"tau_samples must lie in 2..{MAX_TAU_SAMPLES}",
    )
    topology = _section(Topology, top)
    _require(topology.base_area > 0, "base_area must be positive")
    _require(topology.fiber_period > 0, "fiber_period must be positive")
    profile, echo = build_profile(raw["profile"], topology)
    return RunConfig(profile, numerics, topology.signature, output_dir, echo)


def _interpolant(samples: dict, what: str, tau_min: float) -> skr.ProfileFunction:
    """The interpolating FITPACK spline of the samples, by pieces; it never extrapolates."""
    from scipy.interpolate import PPoly, splrep

    _require(
        isinstance(samples, dict) and "tau" in samples and what in samples,
        f"tabulated profile needs 'tau' and '{what}' arrays",
    )
    taus = np.array(_numbers(samples["tau"], f"{what}_samples.tau"))
    vals = np.array(_numbers(samples[what], f"{what}_samples.{what}"))
    _require(taus.shape == vals.shape, "sample arrays must match")
    _require(np.all(np.diff(taus) > 0), "sample tau values must be increasing")
    order = _number(samples.get("interp_order", 3), "interp_order", int)
    _require(1 <= order <= 5, "interp_order must be in 1..5")
    _require(taus.size > order, f"{what}_samples needs more than interp_order points")
    _require(
        taus[0] <= tau_min and taus[-1] >= 0.0,
        f"{what}_samples.tau must cover [tau_min, 0] = [{tau_min:g}, 0]",
    )
    pp = PPoly.from_spline(splrep(taus, vals, k=order))
    pieces = [i for i in range(len(pp.x) - 1) if pp.x[i + 1] > pp.x[i]]
    return skr.ProfileFunction.piecewise(pp.c[::-1, pieces].T, pp.x[pieces])


def build_profile(prof: dict, topology: Topology) -> tuple:
    """phi (irreducible) or Q (reducible), from coefficients or from samples,
    with the profile keys read for the mode and their values as given, so
    that a key it ignores leaves report.json as it is."""
    _require(isinstance(prof, dict), "'profile' must be an object")
    mode = prof.get("mode")
    _require(mode in ("irreducible", "reducible"), "profile.mode must be irreducible|reducible")
    irreducible = mode == "irreducible"
    what = "phi" if irreducible else "q"
    source = f"{what}_coeffs" if f"{what}_coeffs" in prof else f"{what}_samples"
    read = ["mode", "label", "tau_min", "base_curv", source] + (["c_bar"] if irreducible else [])
    echo = {key: prof[key] for key in read if key in prof}
    tau_min = _number(prof.get("tau_min", -0.5), "tau_min")
    c_bar = _number(prof.get("c_bar", -1.0), "c_bar") if irreducible else 1.0
    _require(source in prof, f"{mode} profile needs {what}_coeffs or {what}_samples")
    try:
        if source == f"{what}_coeffs":
            fn = skr.ProfileFunction.piecewise([_numbers(prof[source], source)])
        else:
            fn = _interpolant(prof[source], what, tau_min)
        return SKRProfile(
            mode,
            fn,
            c_bar=c_bar,
            base_curv=_number(prof.get("base_curv", 0.0), "base_curv"),
            tau_min=tau_min,
            base_area=topology.base_area,
            fiber_period=topology.fiber_period,
        ), echo
    except ProfileError as exc:
        raise ConfigError(f"invalid profile: {exc}") from exc


# --------------------------------------------------------------------------- report

def _finite(x: float) -> float:
    """``x`` as a float; a value that overflowed is a numerical failure, never an output."""
    x = float(x)
    if not math.isfinite(x):
        raise EquicharError(f"non-finite result {x!r}")
    return x


def _measured(value: float, error: float) -> dict:
    return {"value": _finite(value), "error": _finite(error)}


@dataclass
class Report:
    config_echo: dict
    tl3_closed: dict
    tl3_direct: dict
    tl3_discrepancy: float
    bulk_integral: dict
    boundary_integral: dict
    eta: dict
    # closed integrand at the quadrature nodes, for transgression.csv
    closed_integrand: list
    # the boundary the routes pulled back to, for check's further routes
    boundary: skr.BoundaryData

    def to_json(self, lform_table: list) -> str:
        payload = {
            "config": self.config_echo,
            "lform_table": lform_table,
            "boundary": {
                "tl3_closed": self.tl3_closed,
                "tl3_direct": self.tl3_direct,
                "discrepancy": self.tl3_discrepancy,
            },
            "bulk_integral": self.bulk_integral,
            "boundary_integral": self.boundary_integral,
            "eta": self.eta,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_echo(cfg: RunConfig) -> dict:
    p = cfg.profile
    return {
        "profile": cfg.profile_echo,
        "numerics": asdict(cfg.numerics),
        "topology": asdict(Topology(cfg.signature, p.base_area, p.fiber_period)),
    }


# --------------------------------------------------------------------------- eta assembly

def _bulk_quadrature(p: SKRProfile, n_nodes: int) -> float:
    """The n-node Gauss-Legendre rule on each piece of the profile between its
    knots inside (tau_min, 0), where the integrand is analytic."""
    ends = [p.tau_min] + [k for k in p.fn.knots if p.tau_min < k < 0.0] + [0.0]
    acc = 0.0
    for a, b in zip(ends, ends[1:]):
        xs, ws = gauss_legendre(n_nodes, a, b)
        # not weighted_sum: report.json's bits were taken as (w L4) vol
        for t, w in zip(xs, ws):
            acc += float(w) * skr.l4_coefficient(p, float(t)) * skr.volume_weight(p, float(t))
    return acc


def _bulk_integral(p: SKRProfile, cfg: RunConfig) -> dict:
    """Reduced radial integral of the L-form degree-4 density on [tau_min, 0],
    by Gauss-Legendre at 2n nodes per piece of the profile, with the change
    from n nodes as its error.

    A degenerate Q(tau_min) = 0 needs no special path: for an irreducible
    profile it forces phi(tau_min) = 0, where L4 times the volume density
    stays smooth, a reducible L4 vanishes identically, and the rule never
    evaluates the endpoint.
    """
    n = cfg.numerics.quad_nodes
    coarse = _bulk_quadrature(p, n)
    fine = _bulk_quadrature(p, 2 * n)
    return _measured(fine, abs(fine - coarse))


def _boundary_volume(p: SKRProfile, q0: float) -> float:
    return skr.volume_weight(p, 0.0) * p.base_area * p.fiber_period * math.sqrt(q0)


def _eta_value(cfg: RunConfig, bulk: float, boundary: float) -> float:
    """eta = -(1/pi^2) [bulk - boundary] - signature."""
    return -(bulk - boundary) / math.pi**2 - cfg.signature


def eta_invariant(cfg: RunConfig) -> Report:
    """Assemble the infinitesimal equivariant eta invariant of the boundary.

    eta = -(1/pi^2) [ bulk - boundary ] - signature, where bulk is the reduced
    integral of the L-form degree-4 coefficient against the radial volume
    density and boundary is the closed transgression coefficient times the
    boundary 3-volume.
    """
    p = cfg.profile
    n = cfg.numerics.quad_nodes

    bulk = _bulk_integral(p, cfg)

    bd = skr.boundary_data(p)
    closed = skr.transgression_pullback_closed(bd, n)
    tl3_closed = closed.value
    tl3_direct = skr.transgression_pullback_direct(bd, n)
    discrepancy = abs(tl3_closed - tl3_direct)

    volume = _boundary_volume(p, bd.q0)
    boundary = _measured(tl3_closed * volume, discrepancy * volume)
    eta_err = (bulk["error"] + boundary["error"]) / math.pi**2

    return Report(
        config_echo=_config_echo(cfg),
        tl3_closed=_measured(tl3_closed, discrepancy),
        tl3_direct=_measured(tl3_direct, discrepancy),
        tl3_discrepancy=discrepancy,
        bulk_integral=bulk,
        boundary_integral=boundary,
        eta=_measured(_eta_value(cfg, bulk["value"], boundary["value"]), eta_err),
        closed_integrand=closed.integrand,
        boundary=bd,
    )


def _refined_eta(p: SKRProfile, cfg: RunConfig, bd: skr.BoundaryData) -> float:
    """The eta of :func:`eta_invariant` at 2n nodes: 4n-node bulk, 2n-node closed route."""
    n = cfg.numerics.quad_nodes
    tl3 = skr.transgression_pullback_closed(bd, 2 * n)
    boundary = _finite(tl3.value * _boundary_volume(p, bd.q0))
    return _eta_value(cfg, _finite(_bulk_quadrature(p, 4 * n)), boundary)


# --------------------------------------------------------------------------- tables

def _lform_taus(p: SKRProfile, n: int) -> list:
    # midpoint grid: stays off tau_min (where Q may degenerate) and off tau = 0
    span = -p.tau_min
    return [p.tau_min + span * (i + 0.5) / n for i in range(n)]


def _lform_row(p: SKRProfile, tau: float) -> dict:
    d = skr.derived_functions(p, tau)
    l4 = skr.l4_closed(d.phi, d.psi, skr.curvature_components(p, d))
    return {"tau": tau, "phi": d.phi, "psi": d.psi, "L4": l4}


def _fmt(x: float) -> str:
    return f"{_finite(x):.17g}"


def emit_tables(cfg: RunConfig, out_dir, which=("lform", "transgression", "report")) -> list:
    """Write the requested deterministic artifacts; returns the paths written."""
    p = cfg.profile
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report = eta_invariant(cfg) if "report" in which else None
    rows = []
    if "lform" in which or "report" in which:
        rows = [_lform_row(p, t) for t in _lform_taus(p, cfg.numerics.tau_samples)]

    # each file is formatted in full before it is opened, so that a
    # non-finite value leaves no partial file behind
    if "lform" in which:
        cols = ("tau", "phi", "psi", "L4")
        lines = [",".join(cols)] + [",".join(_fmt(r[c]) for c in cols) for r in rows]
        path = out / "lform.csv"
        path.write_text("\n".join(lines) + "\n", newline="\n")
        written.append(path)

    if "transgression" in which:
        n = cfg.numerics.quad_nodes
        if report is not None:
            values = report.closed_integrand
        else:
            values = skr.transgression_pullback_closed(skr.boundary_data(p), n).integrand
        xs, _ = gauss_legendre(n, 0.0, 1.0)
        lines = ["t,integrand_e123"] + [f"{_fmt(float(t))},{_fmt(v)}" for t, v in zip(xs, values)]
        path = out / "transgression.csv"
        path.write_text("\n".join(lines) + "\n", newline="\n")
        written.append(path)

    if "report" in which:
        path = out / "report.json"
        path.write_text(report.to_json(rows), newline="\n")
        written.append(path)

    return written


# --------------------------------------------------------------------------- check suite

@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<34s} residual={self.residual:.3e}  tol={self.tolerance:.3e}"


def _check(name: str, residual: float, tolerance: float) -> CheckResult:
    """A residual that is not finite is a numerical failure, never a PASS or a FAIL."""
    residual = _finite(residual)
    return CheckResult(name, residual <= tolerance, residual, tolerance)


def run_check(cfg: RunConfig) -> list:
    """Run the invariant suite, then the oracle suite, on the configured
    profile; print one line per check."""
    p = cfg.profile
    n = cfg.numerics.quad_nodes
    results = []

    # profile relations along tau
    taus = _lform_taus(p, 100)
    res = 0.0
    if p.mode == "irreducible":
        for t in taus:
            d = skr.derived_functions(p, t)
            res = max(res, abs(d.q - 2.0 * (t - p.c_bar) * d.phi))
            h = 1e-6 * max(1.0, abs(p.tau_min))
            if p.tau_min + h < t < -h:
                dq = (
                    skr.derived_functions(p, t + h).q - skr.derived_functions(p, t - h).q
                ) / (2.0 * h)
                res = max(res, abs(dq - 2.0 * d.psi))
                res = max(res, abs(d.q * d.phi_d - 2.0 * (d.psi - d.phi) * d.phi))
    results.append(_check("profile-relations", res, 1e-8))

    # curvature structure at ten taus; at three of them, the closed L4 against the
    # generic L-form, relative to the largest |bc| + |cd| + |bd| + c^2 + 4r^2 there,
    # the curvature products that the L4 of both routes are built of
    picks = taus[::40]
    res_curv, closed_l4, products = 0.0, [], 1e-12
    for t in taus[::10]:
        d = skr.derived_functions(p, t)
        b, c, dd, r = cc = skr.curvature_components(p, d)
        if p.mode == "irreducible":
            res_curv = max(res_curv, abs(r - 0.5 * c))
        else:
            res_curv = max(res_curv, abs(r), abs(c))
        if t in picks:
            closed_l4.append(skr.l4_closed(d.phi, d.psi, cc))
            products = max(products, abs(b * c) + abs(c * dd) + abs(b * dd) + c * c + 4.0 * r * r)
    results.append(_check("curvature-relations", res_curv, 1e-14))
    # the generic L-form's e^1234 coefficients, at all picks in one stack
    stack = np.stack([skr.equivariant_curvature_matrix(p, t) for t in picks])
    generic_l4 = l_form(stack)[:, -1].tolist()
    res = max(abs(x - y) for x, y in zip(closed_l4, generic_l4)) / products
    results.append(_check("lform-closed-vs-generic", res, 1e-12))

    # transgression routes, as computed by the report at the configured nodes,
    # relative to the size sum_i w_i |f_i| of the closed integrand as well, which
    # stays put where TL3 itself crosses zero
    report = eta_invariant(cfg)
    closed = report.tl3_closed["value"]
    direct = report.tl3_direct["value"]
    size = weighted_sum(gauss_legendre(n, 0.0, 1.0)[1], map(abs, report.closed_integrand))
    scale = max(abs(closed), abs(direct), size, 1e-12)
    results.append(_check("transgression-closed-vs-direct", abs(closed - direct) / scale, 1e-8))

    bd = report.boundary
    alt = transgression_degree3_alt(hirzebruch_l_log_germ(), skr.boundary_family(bd), n)
    alt = float(alt[mask_of_indices((1, 2, 3), 3)])
    results.append(_check("transgression-alt-route", abs(direct - alt) / scale, 1e-10))

    if p.mode == "reducible":
        l4max = max(abs(skr.l4_coefficient(p, t)) for t in taus)
        results.append(_check("reducible-lform-vanishing", l4max, 1e-12))
        results.append(
            _check("reducible-transgression-vanishing", max(abs(closed), abs(direct)), 1e-10)
        )

    # eta stability under quadrature refinement
    eta, eta_fine = report.eta["value"], _refined_eta(p, cfg, bd)
    eta_scale = max(abs(eta), abs(eta_fine), 1.0)
    results.append(_check("eta-quadrature-stability", abs(eta - eta_fine) / eta_scale, 1e-8))

    results += _oracle_checks(p, cfg.numerics.fd_step)
    for r in results:
        print(r.line())
    return results


# The comparison table of the oracle: a frame curvature entry R[i, j, k, l],
# the closed component of skr.curvature_components it equals, and its sign.
_CURVATURE_TABLE = (
    ((0, 1, 0, 1), "b", 1.0),
    ((0, 1, 2, 3), "c", 1.0),
    ((2, 3, 2, 3), "d", 1.0),
    ((0, 2, 0, 2), "r", 1.0),
    ((0, 2, 1, 3), "r", 1.0),
    ((1, 2, 0, 3), "r", -1.0),
)
# Entries with exactly three indices drawn from the vertical pair, which vanish.
_THREE_INDEX = ((2, 3, 2, 0), (2, 3, 2, 1), (0, 2, 2, 3), (1, 3, 2, 3))


def _entries(r: np.ndarray, indices) -> np.ndarray:
    """r[..., i, j, k, l] for each (i, j, k, l) of indices, along a last axis."""
    return r[(Ellipsis,) + tuple(zip(*indices))]


# The oracle's chart points (tau, s, x, y), tau as a fraction of the range:
# uniform draws on [0.25, 0.95] x [0, 1] x [-0.4, 0.4]^2, fixed once (they are
# numpy's default_rng(20240817) draws) so no run imports numpy.random.
_ORACLE_POINTS = (
    (0.62993964662250068, 0.25298641840771707, -0.17525440925416361, -0.17999837674985769),
    (0.81240983068662931, 0.85941733097864559, 0.39991240548777396, 0.20497386903625103),
    (0.31314000457950997, 0.13423110362979696, 0.24866429457956996, 0.080537854720737712),
    (0.60445699290110655, 0.050472659438903666, -0.18872891037077688, 0.18895182025876656),
    (0.26269119837735816, 0.61864931036089188, 0.0088935279401655687, -0.31637127821796984),
    (0.26923619103155599, 0.47535751938043269, 0.044212734445455204, 0.25822776911927503),
    (0.47187298452624293, 0.10669619400664665, -0.061744458722947204, 0.27278717692675536),
    (0.73921304995339188, 0.26739915836387806, 0.3296239966794049, 0.3459313403433435),
    (0.55241607521486025, 0.35581095320121325, -0.072682231888934301, 0.18521321841968885),
    (0.89077689969764506, 0.98709171472082879, 0.21680236907006389, -0.050370135441090702),
)


def _oracle_points(p: SKRProfile) -> np.ndarray:
    """The 10 chart points (tau, s, x, y) as a (10, 4) array, tau scaled into
    the middle of the range."""
    pts = np.array(_ORACLE_POINTS)
    span = -p.tau_min
    pts[:, 0] = p.tau_min + span * pts[:, 0]
    return pts


def _oracle_checks(p: SKRProfile, fd_step: float) -> list:
    """The finite-difference chart checks of ``p`` with its base made flat, as
    the chart realizes it: each quantity is evaluated at all its points in one call."""
    p = p if p.base_curv == 0.0 else replace(p, base_curv=0.0)
    pts = _oracle_points(p)
    r_fd = oracle_mod.riemann_frame_fd(p, pts, fd_step)
    got = _entries(r_fd, [idx for idx, _, _ in _CURVATURE_TABLE])
    closed = [skr.curvature_components(p, skr.derived_functions(p, t)) for t in pts[:, 0].tolist()]
    want = np.array(
        [[sign * getattr(cc, name) for _, name, sign in _CURVATURE_TABLE] for cc in closed]
    )
    pair_swap = np.moveaxis(r_fd, (-2, -1), (-4, -3))
    symmetry = (r_fd + r_fd.swapaxes(-4, -3), r_fd + r_fd.swapaxes(-2, -1), r_fd - pair_swap)
    return [
        _check(
            "oracle-curvature-match",
            np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-3)),
            1e-5,
        ),
        _check(
            "oracle-three-index-vanishing", np.max(np.abs(_entries(r_fd, _THREE_INDEX))), 1e-6
        ),
        _check("oracle-curvature-symmetries", np.max(np.abs(symmetry)), 1e-6),
        _check(
            "oracle-kahler-parallel", np.max(oracle_mod.kahler_defect_fd(p, pts[:4], fd_step)), 1e-6
        ),
        _check(
            "oracle-pregeodesic",
            np.max(oracle_mod.pregeodesic_defect_fd(p, pts[:4], fd_step)),
            1e-8,
        ),
    ]


def run_oracle(cfg: RunConfig) -> list:
    """Finite-difference chart validation, the oracle suite that closes
    run_check; print one line per check."""
    results = _oracle_checks(cfg.profile, cfg.numerics.fd_step)
    for r in results:
        print(r.line())
    return results


# --------------------------------------------------------------------------- CLI

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equichar",
        description="Equivariant characteristic forms and eta invariants of SKR geometries",
    )
    parser.add_argument("command", choices=("check", "lform", "transgression", "eta", "oracle"))
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument(
        "-o", "--out", help="output directory of lform, transgression and eta (others ignore it)"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # a numpy overflow or NaN raises an ArithmeticError: one line, no warnings
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cfg = load_config(args.config)
            out_dir = args.out or cfg.output_dir or "."
            if args.command == "check":
                results = run_check(cfg)
                return 0 if all(r.passed for r in results) else 1
            if args.command == "oracle":
                results = run_oracle(cfg)
                return 0 if all(r.passed for r in results) else 1
            if args.command == "lform":
                paths = emit_tables(cfg, out_dir, which=("lform",))
            elif args.command == "transgression":
                paths = emit_tables(cfg, out_dir, which=("transgression",))
            else:
                paths = emit_tables(cfg, out_dir, which=("lform", "transgression", "report"))
        for path in paths:
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ZeroDivisionError) as exc:
        # a float **, / or math call, whose message names no quantity: name the function
        where = traceback.extract_tb(exc.__traceback__)[-1].name
        what = "float overflow" if isinstance(exc, OverflowError) else str(exc)
        print(f"numerical failure: {what} in {where}", file=sys.stderr)
        return 1
    except (EquicharError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
