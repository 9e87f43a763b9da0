"""Exact arithmetic for inhomogeneous exterior forms over a small orthonormal coframe.

A form over the coframe e^1..e^n (n = 3 or 4 here) is stored densely as a
vector of 2^n real coefficients, one per basis monomial e^I.  Basis monomials
are indexed by bitmasks: bit (i-1) of the mask is set iff the coframe index i
appears in the multi-index I.  All products are precomputed into per-dimension
sign tables, so wedge products reduce to a handful of fused multiply-adds and
stay bit-for-bit reproducible.

The same storage backs the matrix-valued forms of :mod:`equichar.matforms`,
where a size x size matrix of forms is a ``(size, size, 2**n)`` array.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "MultiIndex",
    "ExteriorForm",
    "wedge",
    "degree_component",
    "exp_form",
    "wedge_tensor",
    "mask_of_indices",
    "indices_of_mask",
]


class MultiIndex(tuple):
    """Strictly increasing tuple of coframe indices, e.g. ``MultiIndex((1, 3))`` for e^{13}.

    The empty multi-index denotes the degree-0 basis element 1.
    """

    def __new__(cls, indices: Iterable[int] = ()):
        idx = tuple(int(i) for i in indices)
        for a, b in zip(idx, idx[1:]):
            if a >= b:
                raise ValueError(f"multi-index {idx} is not strictly increasing")
        if idx and idx[0] < 1:
            raise ValueError(f"coframe indices start at 1, got {idx}")
        return super().__new__(cls, idx)

    @property
    def degree(self) -> int:
        return len(self)


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


def indices_of_mask(mask: int) -> MultiIndex:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return MultiIndex(out)


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
def wedge_tensor(dimension: int) -> np.ndarray:
    """Dense structure tensor T with (a ^ b)_k = sum_ij T[i,j,k] a_i b_j."""
    dim_size = 1 << dimension
    tensor = np.zeros((dim_size, dim_size, dim_size))
    ii, jj, kk, ss = _wedge_table(dimension)
    tensor[ii, jj, kk] = ss
    tensor.setflags(write=False)
    return tensor


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
        """Nonzero coefficients as a MultiIndex -> float mapping."""
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

    def __xor__(self, other: "ExteriorForm") -> "ExteriorForm":
        """a ^ b is the wedge product (same as :func:`wedge`)."""
        return wedge(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return self.dimension == other.dimension and bool(
            np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.dimension, self.coeffs.tobytes()))

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


def wedge(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Wedge product a ^ b; graded-commutative, terms of degree > n vanish."""
    a._check(b)
    ii, jj, kk, ss = _wedge_table(a.dimension)
    out = np.zeros(1 << a.dimension)
    np.add.at(out, kk, ss * a.coeffs[ii] * b.coeffs[jj])
    return ExteriorForm(a.dimension, out)


def degree_component(a: ExteriorForm, k: int) -> ExteriorForm:
    """Terms of a with exterior degree exactly k (0 <= k <= n)."""
    if not 0 <= k <= a.dimension:
        raise ValueError(f"degree {k} out of range 0..{a.dimension}")
    deg = _degree_masks(a.dimension)
    vec = np.where(deg == k, a.coeffs, 0.0)
    return ExteriorForm(a.dimension, vec)


def exp_form(w: ExteriorForm) -> ExteriorForm:
    """exp(w) = e^{w_0} * sum_j (w_+)^j / j!, exact since w_+ is nilpotent.

    w_0 is the degree-0 part, w_+ the rest; the sum terminates at j = n.
    """
    scalar = float(w.coeffs[0])
    rest = w - ExteriorForm.scalar(w.dimension, scalar)
    acc = ExteriorForm.scalar(w.dimension, 1.0)
    power = ExteriorForm.scalar(w.dimension, 1.0)
    factorial = 1.0
    for j in range(1, w.dimension + 1):
        power = wedge(power, rest)
        factorial *= j
        if power.is_zero():
            break
        acc = acc + power * (1.0 / factorial)
    return acc * float(np.exp(scalar))
