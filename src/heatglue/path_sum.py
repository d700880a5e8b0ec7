"""Path-sum kernels on finite graphs.

A path is a vertex sequence whose consecutive entries are adjacent.  Its
weight is the iterated convolution of one decaying exponential per visited
vertex, with rate equal to that vertex's valency; summing weights over
suitable path classes reproduces the heat kernel of the graph and the
interface operators from :mod:`heatglue.graph_heat`, truncated by path
length with an explicit tail bound.  No path is enumerated and no single
weight is formed: a class sum is taken as values at t, length by length
and vertex by vertex, by one layered walk
(:func:`heatglue.graph_heat.uniformized_walk`) over the vertices the class
may cross, on which every edge step starts the next length; the walk forms
its own steps, and returns the lengths its Taylor orders reach.

The class sums are relative to a marked vertex subset Y, the interface:

``P``
    all paths between the two endpoints;
``P_prime_end``
    paths meeting Y only in their final vertex (which lies in Y);
``P_double_prime``
    paths of length at least one meeting Y exactly in both endpoints.
"""

from __future__ import annotations

import math

import numpy as np

from heatglue.errors import TruncationError, below_prior, nonnegative, positive
from heatglue.graph_heat import Decomposition, Graph, uniformized_walk

__all__ = [
    "LENGTH_CAP",
    "exp_tail",
    "pathsum_heat",
    "pathsum_operator_values",
]

#: Hard ceiling on the path length of a sum: past it, TruncationError.
LENGTH_CAP = 24


# ---------------------------------------------------------------------------
# truncated path sums
# ---------------------------------------------------------------------------


def exp_tail(x: float, m0: int) -> float:
    """Upper bound for sum_{m >= m0} x^m / m!."""
    if x <= 0.0:
        return 0.0
    log_term = m0 * math.log(x) - math.lgamma(m0 + 1.0)
    if log_term > 700.0:
        return math.inf
    term = math.exp(log_term)
    total = 0.0
    m = m0
    while m < m0 + 100000:
        total += term
        m += 1
        term *= x / m
        if m > 2.0 * x and term < 1e-16 * total + 1e-300:
            return total + 2.0 * term
    return math.inf  # pragma: no cover


def pathsum_heat(g: Graph, u, v, t: float,
                 eps: float) -> tuple[float, int, float]:
    """Heat kernel entry as a truncated sum over paths from u to v.

    Sums over the exponentially many paths are accumulated length by
    length and vertex by vertex, which gives the same value as summing
    path weights one at a time.  The accumulation is the layered walk
    :func:`heatglue.graph_heat.uniformized_walk` of g, every edge step
    advancing a layer: it runs in the power series of e^{d_max t} times
    the partial sum, whose coefficients are all nonnegative, so the
    evaluation is free of cancellation and the float error stays near
    machine precision.

    Every path weight is nonnegative and row u of e^{-tL} sums to 1, so the
    row-sum deficit of row u through length k bounds the weight of all the
    longer paths to every v.  One walk over lengths 0 .. LENGTH_CAP gives
    that deficit at each k its Taylor orders reach (the deficit is 1 before
    the first); the cutoff is the smallest k where it falls below eps or to
    the rounding part, past which more lengths cannot tighten the bound.

    Returns (value, cutoff used, bound); the bound is the deficit at the
    cutoff plus a rounding part, 3 gamma max(1, row sum) with gamma the
    relative rounding error that the walk counts, as in
    :func:`heatglue.graph_heat.glue_II_values`.  Raises
    :class:`~heatglue.errors.TruncationError` carrying the deficit at the
    cap as its ``achievable`` when no cutoff within it qualifies.  An entry
    of e^{-tL} lies in [0, 1], so a bound of 1 or more proves nothing: it
    raises TruncationError on it too, by
    :func:`~heatglue.errors.below_prior`, as the graph series does.
    """
    t, eps = positive(t=t, eps=eps)
    iu, iv = g.indices((u, v))

    # paths of length j are the walks with j adjacency steps, so the sum
    # over lengths <= k is layers 0 .. k of the walk advancing on every edge
    start = np.zeros((1, g.n))
    start[0, iu] = 1.0
    layers, gamma = uniformized_walk(g, start, LENGTH_CAP + 1, t)
    rows = layers[:, 0, :].tolist()
    if not rows:  # theta t overflows: no order kept, all of row u left out
        below_prior(1.0, 1.0, "path sum at length 0")
    seen: list[float] = []
    for k, row in enumerate(rows):
        seen.extend(row)
        total = math.fsum(seen)
        deficit = 1.0 - total
        rounding = 3.0 * gamma * max(1.0, total)
        if deficit < eps or deficit <= rounding:
            value = math.fsum(r[iv] for r in rows[: k + 1])
            return value, k, below_prior(deficit + rounding, 1.0,
                                         f"path sum at length {k}")
    raise TruncationError(
        f"eps={eps:g} needs paths longer than the cap {LENGTH_CAP}; "
        f"row-sum deficit there is {deficit:g}", deficit)


def pathsum_operator_values(d: Decomposition, which: str, max_length: int,
                            t: float) -> tuple[np.ndarray, np.ndarray]:
    """Interface operators as values at t > 0 of length-truncated class
    path sums: ``(values, atom)``, atom the point masses, the paths whose
    trimmed weight is empty (atoms do not contribute to the values).

    which selects the class and trimming (Y the interface, C its
    complement, A the adjacency):

    ``extension``
        rows are all vertices in decomposition order, columns the
        interface; entry (u, y) sums, over paths from u meeting the
        interface only in their final vertex y, the weight with that final
        vertex dropped: a walk of length at most max_length - 1 inside C,
        then A_CY.  The diagonal interface entries are pure delta atoms.
    ``interface``
        square on the interface; entry (y1, y2) sums full path weights
        over all paths between the two vertices in the whole graph.
    ``dn_prime``
        square on the interface; paths of length >= 1 meeting the
        interface exactly at both endpoints, weighted after dropping
        both endpoint vertices: A_YC, a walk of length at most
        max_length - 2 inside C, then A_CY; the single edge case is the
        delta atom A_YY.

    Every path that is no atom is a start row, a walk inside a vertex set
    S (all vertices for ``interface``, C otherwise) and a closing matrix.
    The values sum the layers of the walk, one layer per edge inside S, by
    one :func:`~heatglue.graph_heat.uniformized_walk` with theta the
    largest valency, so every coefficient is nonnegative and the values
    are free of cancellation; with no layer they are zero.  All sums run
    over lengths up to max_length, so the truncation is that of the path
    sum, not of a series in t.
    """
    if which not in ("extension", "interface", "dn_prime"):
        raise ValueError(f"unknown operator {which!r}")
    (max_length,) = nonnegative(max_length=max_length)
    if max_length > LENGTH_CAP:
        raise TruncationError(f"max_length {max_length} exceeds cap {LENGTH_CAP}")
    (t,) = positive(t=t)

    og = d.ordered_graph
    yi, ci = d.split
    a = og.adjacency
    eye = np.eye(og.n)
    no_atom = np.zeros((yi.size, yi.size))
    a_cy = a[np.ix_(ci, yi)]
    if which == "interface":
        inside, start, close, layers, atom = (np.arange(og.n), eye[yi],
                                              eye[:, yi], max_length + 1, no_atom)
    elif which == "extension":
        inside, start, close, layers, atom = (ci, eye[:, ci], a_cy, max_length,
                                              eye[:, yi])
    else:
        inside, start, close, layers, atom = (
            ci, a[np.ix_(yi, ci)], a_cy, max(0, max_length - 1),
            a[np.ix_(yi, yi)] if max_length >= 1 else no_atom)
    sums, _ = uniformized_walk(og, start, layers, t, inside=inside)
    return sums.sum(axis=0) @ close, atom
