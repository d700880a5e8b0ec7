"""Path enumeration and path-sum kernels on finite graphs.

A path is a vertex sequence whose consecutive entries are adjacent.  Its
weight is the iterated convolution of one decaying exponential per visited
vertex, with rate equal to that vertex's valency; summing weights over
suitable path classes reproduces the heat kernel of the graph and the
interface operators from :mod:`heatglue.graph_heat`, truncated by path
length with an explicit tail bound.  A single weight is an exact
:class:`~heatglue.expmix.ExpMix`, since splitting is a coefficient
identity; the class sums are values at t, summed as layered walks.

Four path classes are supported, all relative to a marked vertex subset Y:

``P``
    all paths between the two endpoints;
``P_prime_end``
    paths meeting Y only in their final vertex (which lies in Y);
``P_prime_start``
    the mirror image, meeting Y only in their first vertex;
``P_double_prime``
    paths of length at least one meeting Y exactly in both endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from heatglue.errors import LengthCapError
from heatglue.expmix import (
    ExpMix,
    convolve,
    delta,
    evaluate,
    exponential,
    simplex_convolve,
)
from heatglue.graph_heat import Decomposition, Graph, uniformized_walk

__all__ = [
    "LENGTH_CAP",
    "CLASS_TAGS",
    "exp_tail",
    "Path",
    "PathClassSpec",
    "check_path",
    "concat",
    "trim_start",
    "trim_end",
    "segment_weight",
    "enumerate_paths",
    "weight",
    "split_at_interface",
    "split_at_visits",
    "split_check",
    "pathsum_heat",
    "PathSumOperator",
    "pathsum_operators",
]

#: Hard ceiling on enumeration depth; see :class:`LengthCapError`.
LENGTH_CAP = 24

CLASS_TAGS = ("P", "P_prime_end", "P_prime_start", "P_double_prime")

#: Grid used by :func:`split_check`.
_SPLIT_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class Path:
    """Vertex sequence (v0, ..., vk); length is the number of edges, k."""

    vertices: tuple

    def __post_init__(self) -> None:
        vs = tuple(self.vertices)
        if not vs:
            raise ValueError("a path has at least one vertex")
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise ValueError(f"consecutive repeat {a!r} in path")
        object.__setattr__(self, "vertices", vs)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]


@dataclass(frozen=True)
class PathClassSpec:
    """Which paths to enumerate: class tag, endpoints, marked set, cutoff."""

    tag: str
    start: object
    end: object
    interface: tuple = field(default=())
    max_length: int = LENGTH_CAP

    def __post_init__(self) -> None:
        if self.tag not in CLASS_TAGS:
            raise ValueError(f"unknown class tag {self.tag!r}; use one of {CLASS_TAGS}")
        object.__setattr__(self, "interface", tuple(self.interface))
        if self.tag != "P" and not self.interface:
            raise ValueError(f"class {self.tag} needs a nonempty interface")
        if self.max_length < 0:
            raise ValueError("max_length must be >= 0")


def check_path(g: Graph, p: Path) -> None:
    """Verify that every vertex exists in g and consecutive pairs are edges."""
    for v in p.vertices:
        if v not in g.index:
            raise ValueError(f"path vertex {v!r} not in graph")
    a = g.adjacency
    for u, v in zip(p.vertices, p.vertices[1:]):
        if a[g.index[u], g.index[v]] == 0.0:
            raise ValueError(f"({u!r}, {v!r}) is not an edge")


def concat(p1: Path, p2: Path) -> Path:
    """Join two paths sharing a junction vertex (kept once)."""
    if p1.end != p2.start:
        raise ValueError(
            f"paths are not composable: {p1.end!r} != {p2.start!r}")
    return Path(p1.vertices + p2.vertices[1:])


def trim_end(p: Path) -> Path | None:
    """Drop the final vertex; None when nothing remains."""
    if len(p.vertices) == 1:
        return None
    return Path(p.vertices[:-1])


def trim_start(p: Path) -> Path | None:
    """Drop the first vertex; None when nothing remains."""
    if len(p.vertices) == 1:
        return None
    return Path(p.vertices[1:])


def weight(g: Graph, p: Path) -> ExpMix:
    """Convolution weight of a path: one factor e^{-val(v) t} per vertex.

    A single-vertex path gives that bare exponential.  The result is the
    integral of exp(-sum_i s_i val(v_i)) over the simplex of nonnegative
    durations s_i summing to t, hence positive for t > 0.
    """
    check_path(g, p)
    vals = g.valencies
    return simplex_convolve(
        [exponential(1.0, float(vals[g.index[v]])) for v in p.vertices])


def segment_weight(g: Graph, seg: Path | None) -> ExpMix:
    """Weight of a possibly empty trimmed segment; empty means delta."""
    if seg is None:
        return delta(1.0)
    return weight(g, seg)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_paths(g: Graph, spec: PathClassSpec) -> tuple[Path, ...]:
    """All paths of the class with length <= spec.max_length.

    Depth first with class pruning applied while extending, so walks that
    already touch the marked set illegally are never grown.  The result is
    sorted by length, then lexicographically in the graph's vertex order,
    hence deterministic.
    """
    if spec.max_length > LENGTH_CAP:
        raise LengthCapError(
            f"max_length {spec.max_length} exceeds cap {LENGTH_CAP}")
    for v in (spec.start, spec.end):
        if v not in g.index:
            raise ValueError(f"endpoint {v!r} not in graph")
    yset = set(spec.interface)
    for v in yset:
        if v not in g.index:
            raise ValueError(f"interface vertex {v!r} not in graph")

    idx = g.index
    nbrs = {v: sorted(g.neighbors(v), key=idx.__getitem__) for v in g.vertices}
    limit = spec.max_length
    found: list[tuple] = []

    def dfs(prefix: list, forbidden: set, stop_at_end: bool,
            min_len: int) -> None:
        # forbidden vertices may never be stepped onto except as the end;
        # stop_at_end cuts the branch there, so a marked end vertex cannot
        # be walked through
        k = len(prefix) - 1
        if prefix[-1] == spec.end and k >= min_len:
            found.append(tuple(prefix))
            if stop_at_end:
                return
        if k == limit:
            return
        for nb in nbrs[prefix[-1]]:
            if nb in forbidden and nb != spec.end:
                continue
            prefix.append(nb)
            dfs(prefix, forbidden, stop_at_end, min_len)
            prefix.pop()

    tag = spec.tag
    if tag == "P":
        dfs([spec.start], set(), False, 0)
    elif tag == "P_prime_end":
        if spec.end not in yset:
            raise ValueError("P_prime_end needs its end vertex in the interface")
        if spec.start == spec.end:
            found.append((spec.start,))
        elif spec.start not in yset:
            dfs([spec.start], yset, True, 1)
    elif tag == "P_prime_start":
        if spec.start not in yset:
            raise ValueError("P_prime_start needs its start vertex in the interface")
        if spec.start == spec.end:
            found.append((spec.start,))
        elif spec.end not in yset:
            dfs([spec.start], yset, False, 1)
    else:  # P_double_prime
        if spec.start not in yset or spec.end not in yset:
            raise ValueError("P_double_prime needs both endpoints in the interface")
        dfs([spec.start], yset, True, 1)

    d_max = int(g.valencies.max()) if g.n else 0
    by_len: dict[int, int] = {}
    for vs in found:
        by_len[len(vs) - 1] = by_len.get(len(vs) - 1, 0) + 1
    for k, count in by_len.items():
        assert count <= max(1, d_max) ** k, "path count exceeded valency bound"

    found.sort(key=lambda vs: (len(vs), tuple(idx[v] for v in vs)))
    return tuple(Path(vs) for vs in found)


# ---------------------------------------------------------------------------
# splitting at the marked set
# ---------------------------------------------------------------------------


def _visit_positions(p: Path, yset: set) -> list[int]:
    return [i for i, v in enumerate(p.vertices) if v in yset]


def split_at_interface(p: Path, interface) -> tuple[Path, Path, Path]:
    """Split at the first and last visit to the marked set.

    Returns (head, middle, tail) with the junction vertices shared, so
    ``concat(concat(head, middle), tail)`` rebuilds the path.  The split
    is unique because first and last visits are.  Raises if the path never
    meets the set.
    """
    yset = set(interface)
    pos = _visit_positions(p, yset)
    if not pos:
        raise ValueError("path does not meet the marked set")
    i, j = pos[0], pos[-1]
    return (Path(p.vertices[: i + 1]),
            Path(p.vertices[i: j + 1]),
            Path(p.vertices[j:]))


def split_at_visits(p: Path, interface) -> tuple[Path, ...]:
    """Legs of the path between consecutive visits to the marked set.

    Leg boundaries are the visits themselves and the two path endpoints;
    consecutive legs share their junction vertex.  A path meeting the set
    r times yields r + 1 legs (some possibly of length 0).
    """
    yset = set(interface)
    pos = _visit_positions(p, yset)
    if not pos:
        raise ValueError("path does not meet the marked set")
    cuts = [0] + pos + [len(p.vertices) - 1]
    return tuple(Path(p.vertices[a: b + 1]) for a, b in zip(cuts, cuts[1:]))


def split_check(g: Graph, p1: Path, p2: Path) -> float:
    """Largest grid residual between a joined weight and its two splittings.

    The weight of a composition can be computed by trimming the junction
    from either factor and convolving; this returns the worst absolute
    disagreement of both variants with the direct weight over a fixed
    t grid (0.25 to 4).
    """
    joined = concat(p1, p2)
    direct = weight(g, joined)
    left = convolve(segment_weight(g, trim_end(p1)), weight(g, p2))
    right = convolve(weight(g, p1), segment_weight(g, trim_start(p2)))
    worst = 0.0
    for t in _SPLIT_GRID:
        d = evaluate(direct, t)
        worst = max(worst, abs(evaluate(left, t) - d),
                    abs(evaluate(right, t) - d))
    return worst


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
    :func:`heatglue.graph_heat.uniformized_walk` with theta = d_max, every
    edge step advancing a layer: it runs in the power series of
    e^{d_max t} times the partial sum, whose coefficients are all
    nonnegative, so the evaluation is free of cancellation and the float
    error stays near machine precision.

    Every path weight is nonnegative and row u of e^{-tL} sums to 1, so the
    row-sum deficit of row u through length k bounds the weight of all the
    longer paths to every v.  One walk over lengths 0 .. LENGTH_CAP gives
    that deficit at each k; the cutoff is the smallest k where it falls
    below eps or to the rounding part, past which more lengths cannot
    tighten the bound.

    Returns (value, cutoff used, bound); the bound is the deficit at the
    cutoff plus a rounding part, 3 gamma max(1, row sum) with gamma the
    relative rounding error of the walk, as in
    :meth:`heatglue.graph_heat.SeriesKernel.evaluate_with_bound`.  The walk
    sums its Taylor orders by Horner in blocks of 8, and gamma counts the
    roundings of that order: about d_max + 3 per order for the step and up
    to (9 n + 1)/8 more for the block products.  Raises
    :class:`LengthCapError` carrying the deficit at the cap when no cutoff
    within it qualifies.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"need t > 0, got {t}")
    if not (eps > 0.0):
        raise ValueError(f"need eps > 0, got {eps}")
    for w in (u, v):
        if w not in g.index:
            raise ValueError(f"vertex {w!r} not in graph")

    # paths of length j are the walks with j adjacency steps, so the sum
    # over lengths <= k is layers 0 .. k of the walk advancing on every edge
    vals = g.valencies
    d_max = float(vals.max())
    start = np.zeros((1, g.n))
    start[0, g.index[u]] = 1.0
    layers, gamma = uniformized_walk(np.diag(d_max - vals), g.adjacency,
                                     start, LENGTH_CAP + 1, d_max, t)
    rows = layers[:, 0, :].tolist()
    seen: list[float] = []
    for k, row in enumerate(rows):
        seen.extend(row)
        total = math.fsum(seen)
        deficit = 1.0 - total
        rounding = 3.0 * gamma * max(1.0, total)
        if deficit < eps or deficit <= rounding:
            value = math.fsum(r[g.index[v]] for r in rows[: k + 1])
            return value, k, deficit + rounding
    raise LengthCapError(
        f"eps={eps:g} needs paths longer than the cap {LENGTH_CAP}; "
        f"row-sum deficit there is {deficit:g}", deficit)


class PathSumOperator:
    """An interface operator as values at t of a length-truncated class sum.

    ``rows`` and ``cols`` are vertex labels, and ``atom`` holds the point
    masses: the paths whose trimmed weight is empty.  Every other path is a
    start row, a walk inside a vertex set S, and a closing matrix;
    ``evaluate(t)`` sums layers 0 .. layers - 1 of the walk (one layer per
    edge inside S) by one :func:`~heatglue.graph_heat.uniformized_walk`
    with theta the largest valency, so every coefficient is nonnegative and
    the values are free of cancellation.  With no layers they are zero.
    ``evaluate_with_bound(t)`` also returns an entrywise bound on their
    rounding.
    """

    def __init__(self, rows: tuple, cols: tuple, atom: np.ndarray, g: Graph,
                 s: np.ndarray, start: np.ndarray, close: np.ndarray,
                 layers: int) -> None:
        self.rows, self.cols = tuple(rows), tuple(cols)
        self.atom = np.array(atom, dtype=float)
        self.atom.setflags(write=False)
        vals = g.valencies
        self._theta = float(vals.max()) if g.n else 0.0
        self._step = np.diag(self._theta - vals[s])
        self._advance = g.adjacency[np.ix_(s, s)]
        self._start, self._close, self._layers = start, close, layers

    def _values_at(self, t: float) -> tuple[np.ndarray, float]:
        """The values at t > 0 and the walk's relative rounding gamma."""
        t = float(t)
        if not (t > 0.0) or not math.isfinite(t):
            raise ValueError(f"evaluate needs t > 0, got {t}; the atom sits at t=0")
        if self._layers == 0:
            return np.zeros((len(self.rows), len(self.cols))), 0.0
        sums, gamma = uniformized_walk(self._step, self._advance, self._start,
                                       self._layers, self._theta, t)
        return sums.sum(axis=0) @ self._close, gamma

    def evaluate(self, t: float) -> np.ndarray:
        """Pointwise values at t > 0 (atoms do not contribute there)."""
        return self._values_at(t)[0]

    def evaluate_with_bound(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`evaluate` at t > 0 and an entrywise bound on its rounding.

        Every operand is nonnegative.  Each entry of the layer sum is off by
        at most the walk's gamma, relative, and the product with the closing
        matrix rounds each of its terms at most c times, c the most nonzeros
        in a column of that matrix.  So each value v lies within rho e of
        the exact class sum e, rho = gamma + c u, and the bound is
        rho v / (1 - rho).
        """
        values, gamma = self._values_at(t)
        c = np.count_nonzero(self._close, axis=0).max(initial=0)
        rho = gamma + c * np.finfo(float).eps / 2
        return values, rho / (1.0 - rho) * values


def pathsum_operators(d: Decomposition, which: str,
                      max_length: int) -> PathSumOperator:
    """Interface operators as length-truncated class path sums.

    which selects the class and trimming (Y the interface, C its
    complement, A the adjacency):

    ``extension``
        rows are all vertices, columns the interface; entry (u, y) sums,
        over paths from u meeting the interface only in their final
        vertex y, the weight with that final vertex dropped: a walk of
        length at most max_length - 1 inside C, then A_CY.  The diagonal
        interface entries are pure delta atoms.
    ``interface``
        square on the interface; entry (y1, y2) sums full path weights
        over all paths between the two vertices in the whole graph.
    ``dn_prime``
        square on the interface; paths of length >= 1 meeting the
        interface exactly at both endpoints, weighted after dropping
        both endpoint vertices: A_YC, a walk of length at most
        max_length - 2 inside C, then A_CY; the single edge case is the
        delta atom A_YY.

    All sums run over lengths up to max_length, so the truncation is that
    of the path sum, not of a series in t.
    """
    if which not in ("extension", "interface", "dn_prime"):
        raise ValueError(f"unknown operator {which!r}")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if max_length > LENGTH_CAP:
        raise LengthCapError(f"max_length {max_length} exceeds cap {LENGTH_CAP}")

    og = d.ordered_graph
    y = d.interface
    yi = np.array([og.index[w] for w in y])
    ci = np.setdiff1d(np.arange(og.n), yi)
    a = og.adjacency
    eye = np.eye(og.n)
    if which == "interface":
        return PathSumOperator(y, y, np.zeros((len(y), len(y))), og,
                               np.arange(og.n), eye[yi], eye[:, yi],
                               max_length + 1)
    a_cy = a[np.ix_(ci, yi)]
    if which == "extension":
        return PathSumOperator(og.vertices, y, eye[:, yi], og, ci, eye[:, ci],
                               a_cy, max_length)
    atom = a[np.ix_(yi, yi)] if max_length >= 1 else np.zeros((len(y), len(y)))
    return PathSumOperator(y, y, atom, og, ci, a[np.ix_(yi, ci)], a_cy,
                           max(0, max_length - 1))
