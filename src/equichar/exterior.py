"""Exact arithmetic for inhomogeneous exterior forms over a small orthonormal coframe.

A form over the coframe e^1..e^n (n = 3 or 4 here) is a plain float array
whose last axis holds its 2^n coefficients, one per basis monomial e^I.
Basis monomials are indexed by bitmasks: bit (i-1) of the mask is set iff
the coframe index i appears in the multi-index I, so e^123 is index 7.  Any
leading axes make a stack of forms (one per quadrature node, say), and every
function here broadcasts over them.  All products are precomputed into
per-dimension sign tables, so wedge products reduce to a handful of fused
multiply-adds and stay bit-for-bit reproducible.

The same layout backs the matrices of forms of :mod:`equichar.matforms`:
a size x size matrix of forms is a plain ``(..., size, size, 2**n)`` array.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError

__all__ = ["wedge", "degree_component", "exp_form", "mask_of_indices"]


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


def _dimension_of(coeffs: np.ndarray) -> int:
    return coeffs.shape[-1].bit_length() - 1


def wedge(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Wedge product a ^ b, graded-commutative, terms of degree > n vanish;
    adds it into ``out`` (zeros if None) and returns it.  Each coefficient
    takes its products one at a time in table order, so the bits do not
    depend on how many forms are stacked."""
    if a.shape[-1] != b.shape[-1]:
        raise DimensionMismatchError(
            f"coframe dimensions differ: {_dimension_of(a)} vs {_dimension_of(b)}"
        )
    ii, jj, kk, ss = _wedge_table(_dimension_of(a))
    terms = ss * a[..., ii] * b[..., jj]
    if out is None:
        out = np.zeros(terms.shape[:-1] + a.shape[-1:])
    np.add.at(out, (..., kk), terms)
    return out


def degree_component(a: np.ndarray, k: int) -> np.ndarray:
    """Terms of a with exterior degree exactly k (0 <= k <= n)."""
    dimension = _dimension_of(a)
    if not 0 <= k <= dimension:
        raise ValueError(f"degree {k} out of range 0..{dimension}")
    return np.where(_degree_masks(dimension) == k, a, 0.0)


def exp_form(w: np.ndarray) -> np.ndarray:
    """exp(w) = e^{w_0} * sum_j (w_+)^j / j!, exact since w_+ is nilpotent.

    w_0 is the degree-0 part, w_+ the rest; the sum terminates at j = n, or
    once every form's power of w_+ vanishes.  Until then a form whose power
    already vanished adds only zeros, which leave its bits as if it had
    stopped alone.
    """
    scalar = w[..., 0]
    rest = np.array(w)
    rest[..., 0] -= scalar
    unit = np.zeros(w.shape[-1])
    unit[0] = 1.0
    acc = power = unit
    factorial = 1.0
    for j in range(1, _dimension_of(w) + 1):
        power = wedge(power, rest)
        if not np.any(power):
            break
        factorial *= j
        acc = acc + power * (1.0 / factorial)
    return acc * np.exp(scalar)[..., None]
