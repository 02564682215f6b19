"""Wall-normal grids and finite-difference helpers.

Graded grids follow the exponential map y(s) = Y (e^{a s} - 1)/(e^a - 1),
s uniform in [0, 1], which concentrates points at the wall: adjacent cell
sizes grow by the constant factor e^{a/(n-1)} (a "stretching ratio" of 1.08
per cell corresponds to a = (n-1) ln 1.08).  Fixing a while refining n keeps
the *map* fixed, which is what clean Richardson/order studies require.

fd_weights implements the standard recursive computation of finite-difference
weights on arbitrary nodes (Fornberg's algorithm); diff_matrix assembles
dense first-derivative matrices from sliding stencils.  cheb_lobatto returns
Chebyshev-Gauss-Lobatto points with the usual dense collocation derivative,
and clenshaw_curtis_weights the quadrature weights on the same points.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "graded_grid",
    "fd_weights",
    "diff_matrix",
    "trapezoid_weights",
    "cheb_lobatto",
    "clenshaw_curtis_weights",
]


def graded_grid(y_max: float, n: int, a: float = 4.0) -> np.ndarray:
    """Graded grid on [0, y_max]: y_i = y_max (e^{a s_i} - 1)/(e^a - 1)."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if y_max <= 0.0:
        raise ValueError(f"y_max must be > 0, got {y_max}")
    s = np.linspace(0.0, 1.0, n)
    if a == 0.0:
        return y_max * s
    return y_max * np.expm1(a * s) / math.expm1(a)


def fd_weights(x: np.ndarray, x0: float, max_order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes x for derivatives
    0..max_order at x0 (recursive one-pass algorithm).  Returns an array of
    shape (max_order + 1, len(x))."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if max_order >= n:
        raise ValueError(f"need more than {max_order} nodes, got {n}")
    w = np.zeros((max_order + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((x[i] - x0) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (x[i] - x0) * w[0, j] / c3
        c1 = c2
    return w


def diff_matrix(y: np.ndarray, npts: int = 5) -> np.ndarray:
    """Dense first-derivative matrix on nodes y from sliding npts-stencils."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if npts > n:
        npts = n
    d = np.zeros((n, n))
    half = npts // 2
    for i in range(n):
        lo = min(max(i - half, 0), n - npts)
        idx = slice(lo, lo + npts)
        d[i, idx] = fd_weights(y[idx], y[i], 1)[1]
    return d


def trapezoid_weights(y: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights on a nonuniform grid."""
    y = np.asarray(y, dtype=float)
    w = np.zeros_like(y)
    dy = np.diff(y)
    w[:-1] += 0.5 * dy
    w[1:] += 0.5 * dy
    return w


def cheb_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Gauss-Lobatto nodes x_j = cos(j pi / n), j = 0..n
    (descending from 1 to -1), and the dense collocation derivative."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights on [-1, 1] at the cheb_lobatto(n) nodes,
    from the closed form (Waldvogel, BIT 46, 2006)

        w_j = (c_j / n) (1 - sum_{k=1}^{n/2} b_k cos(2 k j pi / n) / (4 k^2 - 1)),

    with c_j = 1 at the two ends and 2 inside, b_k = 1 for k = n/2 and 2
    otherwise.  The rule is exact for polynomials of degree n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    theta = np.pi * np.arange(n + 1) / n
    k = np.arange(1, n // 2 + 1)
    b = np.where(2 * k == n, 1.0, 2.0) / (4.0 * k * k - 1.0)
    w = (2.0 / n) * (1.0 - np.cos(2.0 * np.outer(theta, k)) @ b)
    w[[0, -1]] *= 0.5
    return w
