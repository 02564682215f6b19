"""Adaptive Gauss-Kronrod (7,15) quadrature over a stack of integrands, with
an explicit subdivision budget.

The verification paths integrate kernel products against exponential decays
on truncated half-lines.  scipy's QUADPACK wrappers do not surface their
subdivision budget as a typed error, and the CLI exit-code contract needs
exactly that (budget exhausted -> exit code 3), so the rule is implemented
here directly.  It is the globally adaptive bisection of QUADPACK's QAG with
the 15-point rule (Piessens et al., 1983), with the plain |K - G| error
estimate: evaluate the 15-point Kronrod rule and its embedded 7-point Gauss
rule on every interval, and keep bisecting the worst interval until the
summed estimate is at most rel_tol * |integral| or the budget runs out
(QuadratureBudgetError).

adaptive_integrate_stack runs that rule on N integrands at once, each on its
own [a, b]: every round it bisects the worst interval of each integrand that
has not yet met rel_tol, and evaluates all the new panels of all those
integrands as one (P, 15) array.  The arithmetic of a row never mixes with
another row's, so a stack returns bit for bit what its rows return one at a
time; adaptive_integrate is the stack of one.

Node/weight tables are the standard published 15-digit constants.
Integrands may be complex; they must accept numpy arrays of abscissae.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureBudgetError

__all__ = [
    "QuadratureCfg",
    "StackedQuadrature",
    "gauss_kronrod_15",
    "adaptive_integrate_stack",
    "adaptive_integrate",
]

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


def gauss_kronrod_15(f, a, b):
    """(7,15) panels on [a, b]: returns (Kronrod value, |K - G| estimate).

    a and b are floats, or (P,) arrays of panel ends; f maps the abscissae
    (shape (15,), or (P, 15)) to values of the same shape.  Array ends give
    (P,) arrays, float ends a (complex, float) pair.

    The abscissae are built in place, and the weighted values of the Kronrod
    sum and then of the Gauss sum share one scratch array: a call makes no
    (P, 15) temporary beyond those two and what f makes.  The sums add the
    weighted values in the order np.sum(w * fv, axis=-1) adds them.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = np.multiply(h[..., None], _NODES)
    x += c[..., None]
    fv = f(x)
    weighted = np.multiply(_WK, fv)
    k = h * np.sum(weighted, axis=-1)
    g = h * np.sum(np.multiply(_WG, fv, out=weighted), axis=-1)
    err = np.abs(k - g)
    if k.ndim:
        return k, err
    return complex(k), float(err)


@dataclass(frozen=True)
class StackedQuadrature:
    """adaptive_integrate_stack result: one entry per integrand, plus the
    number of refinement rounds the stack took."""

    value: np.ndarray
    error: np.ndarray
    #: intervals of each final partition
    intervals: np.ndarray
    #: GK15 panels evaluated per integrand (the seed partition, then two
    #: per bisection)
    panel_evals: np.ndarray
    rounds: int


#: free interval slots per row beyond the seed partition; the slot arrays
#: double in width whenever a row fills them
_SPARE_SLOTS = 16


def adaptive_integrate_stack(
    f,
    a,
    b,
    rel_tol: float = 1.0e-10,
    max_subdivisions: int = 2000,
    breakpoints=(),
) -> StackedQuadrature:
    """Integrate N integrands, row i over [a[i], b[i]], adaptively (a and b
    broadcast to shape (N,)).

    f(rows, x) returns the values at abscissae x of shape (P, 15), where
    panel p belongs to integrand rows[p].  Each entry of breakpoints is an
    (N,) array; its point seeds row i's partition where it lies inside
    (a[i], b[i]).  Row i stops when its summed |K - G| estimate is at most
    rel_tol * |integral|; QuadratureBudgetError is raised once a row that
    has not stopped has spent max_subdivisions bisections.
    """
    a, b = np.broadcast_arrays(
        np.atleast_1d(np.asarray(a, dtype=float)), np.asarray(b, dtype=float)
    )
    n = a.size
    # seed partition [a, sorted breakpoints inside (a, b), b]; a point
    # outside (a, b) leaves an empty slot, which is never evaluated
    seeds = len(breakpoints) + 1
    inner = [np.where((p > a) & (p < b), p, b) for p in map(np.asarray, breakpoints)]
    pts = np.column_stack([a, *inner, b])
    pts[:, 1:-1].sort(axis=1)
    lo = np.zeros((n, seeds + _SPARE_SLOTS))
    hi = np.zeros_like(lo)
    lo[:, :seeds], hi[:, :seeds] = pts[:, :-1], pts[:, 1:]
    live = lo[:, :seeds] < hi[:, :seeds]
    live[:, 0] = True
    val = np.zeros(lo.shape, dtype=complex)
    err = np.full(lo.shape, -np.inf)
    rows, cols = np.nonzero(live)
    val[rows, cols], err[rows, cols] = gauss_kronrod_15(
        lambda x: f(rows, x), lo[rows, cols], hi[rows, cols]
    )
    # summed slot by slot, in each row's own order, as a stack of one sums it
    total = np.zeros(n, dtype=complex)
    total_err = np.zeros(n)
    for j in range(seeds):
        total += val[:, j]
        total_err += np.maximum(err[:, j], 0.0)
    n_sub = np.zeros(n, dtype=int)

    rounds = 0
    while True:
        act = np.nonzero(total_err > rel_tol * np.abs(total))[0]
        if act.size == 0:
            break
        spent = n_sub[act] >= max_subdivisions
        if spent.any():
            i = act[np.argmax(spent)]
            where = f" (integrand {i} of {n})" if n > 1 else ""
            raise QuadratureBudgetError(
                f"adaptive quadrature spent {n_sub[i]} subdivisions without "
                f"reaching rel_tol = {rel_tol:g} (error estimate {total_err[i]:.3e} "
                f"on integral {abs(total[i]):.3e}){where}"
            )
        new = seeds + n_sub[act]
        if new.max() == lo.shape[1]:
            wider = ((0, 0), (0, lo.shape[1]))
            lo, hi, val = np.pad(lo, wider), np.pad(hi, wider), np.pad(val, wider)
            err = np.pad(err, wider, constant_values=-np.inf)
        worst = np.argmax(err[act], axis=1)
        left, right = lo[act, worst], hi[act, worst]
        mid = 0.5 * (left + right)
        both = np.concatenate([act, act])
        v, e = gauss_kronrod_15(
            lambda x: f(both, x), np.concatenate([left, mid]), np.concatenate([mid, right])
        )
        k = act.size
        total[act] += v[:k] + v[k:] - val[act, worst]
        total_err[act] += e[:k] + e[k:] - err[act, worst]
        # the left half takes the bisected slot, the right half the next free one
        hi[act, worst], val[act, worst], err[act, worst] = mid, v[:k], e[:k]
        lo[act, new], hi[act, new], val[act, new], err[act, new] = mid, right, v[k:], e[k:]
        n_sub[act] += 1
        rounds += 1

    seeded = live.sum(axis=1)
    return StackedQuadrature(
        value=total,
        error=total_err,
        intervals=seeded + n_sub,
        panel_evals=seeded + 2 * n_sub,
        rounds=rounds,
    )


def adaptive_integrate(
    f,
    a: float,
    b: float,
    rel_tol: float = 1.0e-10,
    max_subdivisions: int = 2000,
    breakpoints: tuple[float, ...] = (),
) -> tuple[complex, float, int]:
    """Integrate f over [a, b] adaptively: adaptive_integrate_stack on a
    stack of one.

    breakpoints seed the initial partition (used to isolate kernel kinks at
    eta = y, where |y - eta| is not smooth).  Stops when the summed |K - G|
    estimate is below rel_tol * |integral|; raises
    QuadratureBudgetError once more than max_subdivisions bisections were
    spent.  Returns (value, error_estimate, intervals_used).
    """
    res = adaptive_integrate_stack(
        lambda rows, x: f(x),
        a,
        b,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        breakpoints=[[p] for p in breakpoints],
    )
    return complex(res.value[0]), float(res.error[0]), int(res.intervals[0])
