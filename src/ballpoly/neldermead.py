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

A search makes hundreds of steps of one to a few evaluations each, and
a planar objective call costs microseconds, so the bookkeeping around
an evaluation costs about as much as the objective. Evaluations are
therefore counted inline, each checked against the budget just before
its ``yield``, and a step that replaces only the worst vertex re-sorts
the simplex by one insertion rather than a whole sort.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import reduce

import numpy as np


def _nelder_mead(simplex, maxfev: int, xatol: float, fatol: float, adaptive: bool):
    """Minimize f from an initial simplex of n + 1 points in R^n by
    Nelder-Mead (Lagarias et al., SIAM J. Optim. 9, 1998; the adaptive
    coefficients of Gao and Han, Comput. Optim. Appl. 51, 2012).

    A generator: it yields each point x to evaluate (a list of floats)
    and expects f(x) back by ``send``; it returns (x, f(x), evaluations),
    x a list of floats. With ``maxfev`` >= 1 it yields at least once.

    Plain floats, step for step scipy's ``_minimize_neldermead`` with
    only ``maxfev`` set: the centroid summed in vertex order
    (``functools.reduce``: ``sum`` compensates its rounding from Python
    3.12 on), the same trial-point expressions and stopping test, a
    budget that can run out mid-step, and the simplex reordered twice
    at the start and once per step as ``np.argsort`` orders it.

    Evaluations are counted inline: a point is yielded only while the
    count is below ``maxfev``. A step cut short leaves the worst vertex
    as it was; a shrink cut short moves the vertex it could not evaluate,
    which keeps its old value, and leaves the ones after it unmoved.

    The re-sort after a step: when the step replaced only the worst
    vertex, the last sort was strict (no tie, no NaN) and the new value
    is no NaN and ties no other, the new vertex moves to its
    ``bisect_left`` place, which is the one sorted order of distinct
    values. After a shrink or a step cut short, or on a tie or a NaN,
    ``reordered`` sorts the whole simplex in ``np.argsort``'s order,
    which does not keep tied values in order (a stable sort would part
    from scipy on ties in flat directions).
    """
    n = len(simplex) - 1
    if adaptive:
        rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = [[float(c) for c in v] for v in simplex]
    fsim = [math.inf] * (n + 1)
    nfev = 0

    def reordered():
        """(sim, fsim, strict) in ``np.argsort``'s order of fsim; strict
        when the sorted values increase strictly (no tie, no NaN)."""
        ind = np.argsort(fsim).tolist()
        f = [fsim[i] for i in ind]
        return [sim[i] for i in ind], f, all(map(operator.lt, f, f[1:]))

    for k in range(min(n + 1, maxfev)):
        nfev += 1
        fsim[k] = yield sim[k]
    sim, fsim, _ = reordered()
    sim, fsim, strict = reordered()
    while nfev < maxfev:
        if (all(abs(a - b) <= xatol for v in sim[1:] for a, b in zip(v, sim[0]))
                and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
            break
        xbar = [reduce(operator.add, col) / n for col in zip(*sim[:-1])]
        worst = sim[-1]
        xr = [(1 + rho) * b - rho * w for b, w in zip(xbar, worst)]
        nfev += 1
        fxr = yield xr
        x = None  # the new worst vertex, when the step replaces only that one
        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = [(1 + rho * chi) * b - rho * chi * w for b, w in zip(xbar, worst)]
                nfev += 1
                fxe = yield xe
                x, fx = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            x, fx = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:  # outside contraction
                xc = [(1 + psi * rho) * b - psi * rho * w for b, w in zip(xbar, worst)]
                nfev += 1
                fxc = yield xc
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = [(1 - psi) * b + psi * w for b, w in zip(xbar, worst)]
                nfev += 1
                fxc = yield xc
                shrink = not fxc < fsim[-1]
            if not shrink:
                x, fx = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [a + sigma * (b - a) for a, b in zip(sim[0], sim[j])]
                    if nfev >= maxfev:
                        break
                    nfev += 1
                    fsim[j] = yield sim[j]
        if x is not None:
            i = bisect_left(fsim, fx, 0, n)
            if strict and fx == fx and (i == n or fsim[i] != fx):
                sim.pop()
                fsim.pop()
                sim.insert(i, x)
                fsim.insert(i, fx)
                continue
            sim[-1], fsim[-1] = x, fx
        sim, fsim, strict = reordered()
    return sim[0], fsim[0], nfev
