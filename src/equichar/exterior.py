"""Exact arithmetic for inhomogeneous exterior forms over a small orthonormal coframe.

A form over the coframe e^1..e^n (n = 3 or 4 here) is stored densely as a
vector of 2^n real coefficients, one per basis monomial e^I.  Basis monomials
are indexed by bitmasks: bit (i-1) of the mask is set iff the coframe index i
appears in the multi-index I.  All products are precomputed into per-dimension
sign tables, so wedge products reduce to a handful of fused multiply-adds and
stay bit-for-bit reproducible.

The same layout backs the matrices of forms of :mod:`equichar.matforms`:
a size x size matrix of forms is a plain ``(..., size, size, 2**n)`` array,
whose entries are coefficient vectors rather than ExteriorForm objects.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "ExteriorForm",
    "wedge",
    "degree_component",
    "exp_form",
    "mask_of_indices",
    "indices_of_mask",
]


def mask_of_indices(indices: Sequence[int], dimension: int) -> int:
    """Bitmask of a strictly increasing multi-index; validates the range 1..dimension."""
    mask = 0
    prev = 0
    for i in indices:
        if not prev < i <= dimension:
            raise ValueError(
                f"multi-index {tuple(indices)} invalid for coframe dimension {dimension}"
            )
        mask |= 1 << (i - 1)
        prev = i
    return mask


def indices_of_mask(mask: int) -> tuple:
    """The strictly increasing multi-index of a bitmask; () for the unit 1."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _wedge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of e^A wedge e^B for disjoint masks: parity of inversions when sorting A++B."""
    sign = 1
    b = mask_b
    while b:
        low = b & -b
        # indices of A strictly greater than this element of B each contribute a swap
        higher_a = mask_a & ~(low | (low - 1))
        if bin(higher_a).count("1") & 1:
            sign = -sign
        b ^= low
    return sign


@lru_cache(maxsize=None)
def _wedge_table(dimension: int):
    """Arrays (ii, jj, kk, ss) enumerating all nonzero basis products e^I ^ e^J = s e^K."""
    dim_size = 1 << dimension
    ii, jj, kk, ss = [], [], [], []
    for i in range(dim_size):
        for j in range(dim_size):
            if i & j:
                continue
            ii.append(i)
            jj.append(j)
            kk.append(i | j)
            ss.append(_wedge_sign(i, j))
    return (
        np.asarray(ii, dtype=np.intp),
        np.asarray(jj, dtype=np.intp),
        np.asarray(kk, dtype=np.intp),
        np.asarray(ss, dtype=np.float64),
    )


@lru_cache(maxsize=None)
def _degree_masks(dimension: int) -> np.ndarray:
    """degree[m] = popcount(m) for every basis mask m."""
    return np.asarray([bin(m).count("1") for m in range(1 << dimension)], dtype=np.intp)


class ExteriorForm:
    """Inhomogeneous real exterior form over a fixed coframe e^1..e^n.

    Values are immutable after construction; all operations are pure functions,
    so forms can be shared freely between threads.
    """

    __slots__ = ("dimension", "coeffs")

    def __init__(self, dimension: int, coeffs=None):
        if dimension not in (1, 2, 3, 4):
            raise ValueError(f"coframe dimension must be in 1..4, got {dimension}")
        dim_size = 1 << dimension
        vec = np.zeros(dim_size)
        if coeffs is None:
            pass
        elif isinstance(coeffs, Mapping):
            for key, value in coeffs.items():
                vec[mask_of_indices(tuple(key), dimension)] += float(value)
        else:
            arr = np.asarray(coeffs, dtype=np.float64)
            if arr.shape != (dim_size,):
                raise ValueError(f"expected {dim_size} coefficients, got shape {arr.shape}")
            vec = arr.copy()
        vec.setflags(write=False)
        self.dimension = dimension
        self.coeffs = vec

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls, dimension: int) -> "ExteriorForm":
        return cls(dimension)

    @classmethod
    def scalar(cls, dimension: int, value: float) -> "ExteriorForm":
        vec = np.zeros(1 << dimension)
        vec[0] = value
        return cls(dimension, vec)

    @classmethod
    def basis(cls, dimension: int, indices: Sequence[int]) -> "ExteriorForm":
        """The basis monomial e^I for a strictly increasing multi-index I."""
        vec = np.zeros(1 << dimension)
        vec[mask_of_indices(tuple(indices), dimension)] = 1.0
        return cls(dimension, vec)

    # ---------------------------------------------------------------- views

    @property
    def coefficients(self) -> dict:
        """Nonzero coefficients as a multi-index tuple -> float mapping."""
        return {
            indices_of_mask(m): float(v)
            for m, v in enumerate(self.coeffs)
            if v != 0.0
        }

    def coefficient(self, indices: Sequence[int]) -> float:
        return float(self.coeffs[mask_of_indices(tuple(indices), self.dimension)])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    # ---------------------------------------------------------------- arithmetic

    def _check(self, other: "ExteriorForm") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"coframe dimensions differ: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check(other)
        return ExteriorForm(self.dimension, self.coeffs + other.coeffs)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        self._check(other)
        return ExteriorForm(self.dimension, self.coeffs - other.coeffs)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm(self.dimension, -self.coeffs)

    def __mul__(self, scalar: float) -> "ExteriorForm":
        return ExteriorForm(self.dimension, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self.dimension == other.dimension and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def __repr__(self) -> str:
        terms = []
        for mask, value in enumerate(self.coeffs):
            if value == 0.0:
                continue
            idx = indices_of_mask(mask)
            name = "1" if not idx else "e^{" + "".join(map(str, idx)) + "}"
            terms.append(f"{value:g}*{name}")
        body = " + ".join(terms) if terms else "0"
        return f"ExteriorForm(n={self.dimension}: {body})"


# The kernels below act on coefficient arrays of shape (..., 2^n) and broadcast
# over the leading axes, so one call covers a whole stack of forms (one per
# quadrature node, say).  The per-form functions call the same kernels.

def _dimension_of(coeffs: np.ndarray) -> int:
    return coeffs.shape[-1].bit_length() - 1


def wedge_coeffs(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Kernel of :func:`wedge`: adds a ^ b into ``out`` (zeros if None) and
    returns it.  Each coefficient takes its products one at a time in table
    order, so the bits do not depend on how many forms are stacked."""
    ii, jj, kk, ss = _wedge_table(_dimension_of(a))
    terms = ss * a[..., ii] * b[..., jj]
    if out is None:
        out = np.zeros(terms.shape[:-1] + a.shape[-1:])
    np.add.at(out, (..., kk), terms)
    return out


def degree_component_coeffs(a: np.ndarray, k: int) -> np.ndarray:
    """Kernel of :func:`degree_component`."""
    dimension = _dimension_of(a)
    if not 0 <= k <= dimension:
        raise ValueError(f"degree {k} out of range 0..{dimension}")
    return np.where(_degree_masks(dimension) == k, a, 0.0)


def exp_coeffs(w: np.ndarray) -> np.ndarray:
    """Kernel of :func:`exp_form`.  The series stops once every form's power
    of w_+ vanishes; until then a form whose power already vanished adds only
    zeros, which leave its bits as if it had stopped alone."""
    scalar = w[..., 0]
    rest = np.array(w)
    rest[..., 0] -= scalar
    unit = np.zeros(w.shape[-1])
    unit[0] = 1.0
    acc = power = unit
    factorial = 1.0
    for j in range(1, _dimension_of(w) + 1):
        power = wedge_coeffs(power, rest)
        if not np.any(power):
            break
        factorial *= j
        acc = acc + power * (1.0 / factorial)
    return acc * np.exp(scalar)[..., None]


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Wedge product a ^ b; graded-commutative, terms of degree > n vanish."""
    a._check(b)
    return ExteriorForm(a.dimension, wedge_coeffs(a.coeffs, b.coeffs))


def degree_component(a: ExteriorForm, k: int) -> ExteriorForm:
    """Terms of a with exterior degree exactly k (0 <= k <= n)."""
    return ExteriorForm(a.dimension, degree_component_coeffs(a.coeffs, k))


def exp_form(w: ExteriorForm) -> ExteriorForm:
    """exp(w) = e^{w_0} * sum_j (w_+)^j / j!, exact since w_+ is nilpotent.

    w_0 is the degree-0 part, w_+ the rest; the sum terminates at j = n.
    """
    return ExteriorForm(w.dimension, exp_coeffs(w.coeffs))
