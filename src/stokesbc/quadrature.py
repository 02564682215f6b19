"""Adaptive Gauss-Kronrod (7,15) quadrature with an explicit subdivision budget.

The verification paths integrate kernel products against exponential decays
on truncated half-lines.  scipy's QUADPACK wrappers do not surface their
subdivision budget as a typed error, and the CLI exit-code contract needs
exactly that (budget exhausted -> exit code 3), so the rule is implemented
here directly: evaluate the 15-point Kronrod rule and its embedded 7-point
Gauss rule on every interval, use |K - G| as the error estimate, and keep
bisecting the worst interval until the global estimate meets the tolerance
or the budget runs out (QuadratureBudgetError).

Node/weight tables are the standard published 15-digit constants.
Integrands may be complex; they must accept numpy arrays of abscissae.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureBudgetError

__all__ = ["QuadratureCfg", "gauss_kronrod_15", "adaptive_integrate"]

# positive Kronrod abscissae (the even-index ones are the Gauss-7 nodes)
_XGK_POS = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
    ]
)
_WGK_POS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
    ]
)
_WGK_CENTER = 0.209482141084728
_WG_POS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
    ]
)
_WG_CENTER = 0.417959183673469

# full 15-node layout: [-x0..-x6, 0, x6..x0]
_NODES = np.concatenate([-_XGK_POS, [0.0], _XGK_POS[::-1]])
_WK = np.concatenate([_WGK_POS, [_WGK_CENTER], _WGK_POS[::-1]])
_WG = np.zeros(15)
_WG[[1, 3, 5]] = _WG_POS
_WG[7] = _WG_CENTER
_WG[[9, 11, 13]] = _WG_POS[::-1]


@dataclass(frozen=True)
class QuadratureCfg:
    """Tolerances and budgets for the adaptive kernel quadrature."""

    rel_tol: float = 1.0e-10
    truncation_multiplier: float = 40.0
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.truncation_multiplier <= 0.0:
            raise ValueError(
                f"truncation_multiplier must be > 0, got {self.truncation_multiplier}"
            )
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


def gauss_kronrod_15(f, a: float, b: float) -> tuple[complex, float]:
    """One (7,15) panel on [a, b]: returns (Kronrod value, |K - G| estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = np.asarray(f(c + h * _NODES))
    k = h * np.sum(_WK * fv)
    g = h * np.sum(_WG * fv)
    return complex(k), abs(k - g)


def adaptive_integrate(
    f,
    a: float,
    b: float,
    rel_tol: float = 1.0e-10,
    max_subdivisions: int = 2000,
    breakpoints: tuple[float, ...] = (),
) -> tuple[complex, float, int]:
    """Integrate f over [a, b] adaptively.

    breakpoints seed the initial partition (used to isolate kernel kinks at
    eta = y, where |y - eta| is not smooth).  Stops when the summed |K - G|
    estimate is below rel_tol * |integral|; raises
    QuadratureBudgetError once more than max_subdivisions bisections were
    spent.  Returns (value, error_estimate, intervals_used).
    """
    pts = [a] + sorted(p for p in breakpoints if a < p < b) + [b]
    heap: list[tuple[float, int, float, float, complex]] = []
    counter = 0
    total = 0.0 + 0.0j
    total_err = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        val, err = gauss_kronrod_15(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val))
        counter += 1

    n_subdivisions = 0
    while total_err > rel_tol * abs(total):
        if n_subdivisions >= max_subdivisions:
            raise QuadratureBudgetError(
                f"adaptive quadrature spent {n_subdivisions} subdivisions without "
                f"reaching rel_tol = {rel_tol:g} (error estimate {total_err:.3e} "
                f"on integral {abs(total):.3e})"
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = gauss_kronrod_15(f, lo, mid)
        v2, e2 = gauss_kronrod_15(f, mid, hi)
        total += v1 + v2 - val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2))
        counter += 1
        n_subdivisions += 1

    return total, total_err, len(heap)
