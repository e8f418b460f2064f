"""Nelder-Mead in plain floats: the circumscription search's simplex steps.

A search works on a handful of points (five for four variables), so
numpy arrays cost more per step than the arithmetic they hold, and
scipy's implementation costs a 40 MB import besides. ``_nelder_mead``
replays scipy's steps bit for bit instead; ``extremal.minimize_mjN`` is
its one caller.

The search is a generator and evaluates nothing itself: it yields each
trial point as a list of floats and takes the point's value by ``send``,
and its ``return`` value (``StopIteration.value``) is the result. So
one caller can run many searches in lockstep and evaluate the pending
points of all of them together.
"""

from __future__ import annotations

import math
import operator

import numpy as np


class _OutOfEvaluations(Exception):
    """The Nelder-Mead evaluation budget ran out."""


def _nelder_mead(simplex, maxfev: int, xatol: float, fatol: float, adaptive: bool):
    """Minimize f from an initial simplex of n + 1 points in R^n by
    Nelder-Mead (Lagarias et al., SIAM J. Optim. 9, 1998; the adaptive
    coefficients of Gao and Han, Comput. Optim. Appl. 51, 2012).

    A generator: it yields each point x to evaluate (a list of floats)
    and expects f(x) back by ``send``; it returns (x, f(x), evaluations),
    x a list of floats. With ``maxfev`` >= 1 it yields at least once.

    Plain floats, step for step scipy's ``_minimize_neldermead`` with
    only ``maxfev`` set: the centroid summed vertex by vertex, the same
    trial-point expressions and stopping test, a budget that can run out
    mid-shrink (the moved vertex keeps its old value), and the simplex
    reordered twice at the start and once per step as ``np.argsort``
    orders it. Distinct values have one order, which Python's ``sorted``
    finds faster on a handful of floats; on a tie or a NaN the order is
    ``np.argsort``'s, which does not keep tied values in order (a stable
    sort would part from scipy on ties in flat directions).
    """
    n = len(simplex) - 1
    if adaptive:
        rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = [[float(c) for c in v] for v in simplex]
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return (yield x)

    def reordered():
        ind = sorted(range(n + 1), key=fsim.__getitem__)
        f = [fsim[i] for i in ind]
        if not all(map(operator.lt, f, f[1:])):  # a tie or a NaN
            ind = np.argsort(fsim).tolist()
            f = [fsim[i] for i in ind]
        return [sim[i] for i in ind], f

    try:
        for k in range(n + 1):
            fsim[k] = yield from func(sim[k])
    except _OutOfEvaluations:
        pass
    sim, fsim = reordered()
    sim, fsim = reordered()
    while nfev < maxfev:
        try:
            if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, sim[0]))
                    and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
                break
            xbar = list(sim[0])
            for v in sim[1:-1]:
                xbar = [s + c for s, c in zip(xbar, v)]
            xbar = [s / n for s in xbar]
            worst = sim[-1]
            xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
            fxr = yield from func(xr)
            if fxr < fsim[0]:
                xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
                fxe = yield from func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
                    fxc = yield from func(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
                    fxc = yield from func(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [a + sigma * (b - a) for a, b in zip(sim[0], sim[j])]
                        fsim[j] = yield from func(sim[j])
        except _OutOfEvaluations:
            pass
        sim, fsim = reordered()
    return sim[0], fsim[0], nfev
