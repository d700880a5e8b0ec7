"""Path enumeration and path-sum kernels on finite graphs.

A path is a vertex sequence whose consecutive entries are adjacent.  Its
weight is the iterated convolution of one decaying exponential per visited
vertex, with rate equal to that vertex's valency; summing weights over
suitable path classes reproduces the heat kernel of the graph and the
interface operators from :mod:`heatglue.graph_heat`, truncated by path
length with an explicit tail bound.

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

from heatglue.expmix import (
    ExpMix,
    ZERO,
    convolve,
    delta,
    evaluate,
    exponential,
    mix_sum,
    simplex_convolve,
)
from heatglue.graph_heat import Decomposition, Graph, KernelMatrix

__all__ = [
    "LENGTH_CAP",
    "CLASS_TAGS",
    "LengthCapError",
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
    "pathsum_operators",
]

#: Hard ceiling on enumeration depth; see :class:`LengthCapError`.
LENGTH_CAP = 24

CLASS_TAGS = ("P", "P_prime_end", "P_prime_start", "P_double_prime")

#: Grid used by :func:`split_check`.
_SPLIT_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


class LengthCapError(ValueError):
    """Raised when a requested accuracy needs paths longer than the cap.

    ``achievable`` holds the best tail bound reachable at the cap, so the
    caller can decide whether the truncated answer is still useful.
    """

    def __init__(self, message: str, achievable: float | None = None) -> None:
        super().__init__(message)
        self.achievable = achievable


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


def enumerate_paths(g: Graph, spec: PathClassSpec, *,
                    cap: int = LENGTH_CAP) -> tuple[Path, ...]:
    """All paths of the class with length <= spec.max_length.

    Depth first with class pruning applied while extending, so walks that
    already touch the marked set illegally are never grown.  The result is
    sorted by length, then lexicographically in the graph's vertex order,
    hence deterministic.
    """
    if spec.max_length > cap:
        raise LengthCapError(
            f"max_length {spec.max_length} exceeds cap {cap}")
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
# layered class sums
# ---------------------------------------------------------------------------


def _layer_step(g: Graph, cur: dict, allowed) -> dict:
    """One length increment of the class sum, keyed by end vertex index.

    cur[i] is the summed weight of all class walks of the current length
    ending at vertex i; appending an edge multiplies (convolves) by the
    new endpoint's exponential, so sums can be pushed forward without
    touching individual walks.
    """
    vals = g.valencies
    a = g.adjacency
    incoming: dict[int, list] = {}
    for i, mix in cur.items():
        for nb in np.nonzero(a[i])[0]:
            j = int(nb)
            if allowed is not None and j not in allowed:
                continue
            incoming.setdefault(j, []).append(mix)
    return {
        j: convolve(mix_sum(parts), exponential(1.0, float(vals[j])))
        for j, parts in incoming.items()
    }


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


def pathsum_heat(g: Graph, u, v, t: float, eps: float, *,
                 sharp_tail: bool = False,
                 cap: int = LENGTH_CAP) -> tuple[float, int, float]:
    """Heat kernel entry as a truncated sum over paths from u to v.

    Every path of length j contributes a positive weight bounded by
    t^j / j!, and there are at most d_max^j such paths, so dropping all
    lengths beyond k costs at most the exponential tail of d_max * t past
    k.  The cutoff is the smallest k pushing that bound below eps; with
    ``sharp_tail`` the d_max^k path count estimate at the cutoff is
    replaced by the exact count, scaling the bound down accordingly.

    Sums over the exponentially many paths are accumulated length by
    length and vertex by vertex, which gives exactly the same value as
    summing path weights one at a time.  Internally the accumulation is
    carried in the power series of e^{d_max t} times the partial sum,
    whose coefficients are all nonnegative, so the evaluation is free of
    cancellation and the float error stays near machine precision.

    Returns (value, cutoff used, tail bound actually achieved); raises
    :class:`LengthCapError` carrying the best achievable bound when no
    cutoff within the cap reaches eps.
    """
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"need t > 0, got {t}")
    if not (eps > 0.0):
        raise ValueError(f"need eps > 0, got {eps}")
    for w in (u, v):
        if w not in g.index:
            raise ValueError(f"vertex {w!r} not in graph")

    vals = g.valencies
    d_max = float(vals.max()) if g.n else 0.0

    counts = None
    if sharp_tail and d_max > 0.0:
        ones = np.ones(g.n)
        a = g.adjacency
        vec = np.zeros(g.n)
        vec[g.index[u]] = 1.0
        counts = [float(ones @ vec)]
        for _ in range(cap):
            vec = a @ vec
            counts.append(float(ones @ vec))

    def bound(k: int) -> float:
        crude = exp_tail(d_max * t, k + 1)
        if counts is None:
            return crude
        return crude * counts[k] / d_max**k

    k_used = None
    for k in range(cap + 1):
        if bound(k) < eps:
            k_used = k
            break
    if k_used is None:
        best = bound(cap)
        raise LengthCapError(
            f"eps={eps:g} needs paths longer than the cap {cap}; "
            f"best achievable tail bound is {best:g}", best)

    value = _positive_partial_sum(g, u, v, t, k_used)
    return value, k_used, bound(k_used)


def _positive_partial_sum(g: Graph, u, v, t: float, k: int) -> float:
    """Sum of path weights of length <= k from u to v, evaluated at t.

    Works in the Taylor basis t^p/p! of e^{theta t} times the partial
    sum, theta being the largest valency: offsetting every decay rate by
    theta makes all series coefficients nonnegative, and a convolution
    against a segment factor becomes a nonnegative Cauchy product with a
    one-slot shift.  Cancellation-free, unlike the canonical exponential
    form of the same sum, whose coefficients grow with the cutoff.
    """
    vals = g.valencies
    theta = float(vals.max()) if g.n else 0.0
    rho = theta - vals  # componentwise >= 0

    # series order: coefficients are bounded by (2 theta)^p, so this tail
    # controls what the truncation of the basis drops
    order = k + 2
    while order < 2048 and exp_tail(2.0 * theta * t, order) > 1e-20:
        order += 16

    powers = np.arange(order, dtype=float)
    geom = np.power.outer(rho, powers)  # row i: rho_i^p
    a = g.adjacency
    cur = np.zeros((g.n, order))
    cur[g.index[u]] = geom[g.index[u]]
    acc = cur[g.index[v]].copy()
    for _ in range(k):
        incoming = a @ cur
        nxt = np.zeros_like(cur)
        for i in range(g.n):
            if incoming[i].any():
                prod = np.convolve(incoming[i], geom[i])[: order - 1]
                nxt[i, 1:] = prod
        cur = nxt
        acc += cur[g.index[v]]
        if not cur.any():
            break

    log_fact = np.concatenate(
        ([0.0], np.cumsum(np.log(np.arange(1.0, order)))))
    with np.errstate(divide="ignore"):
        log_t = math.log(t) if t > 0 else -math.inf
    weights = np.exp(powers * log_t - log_fact - theta * t)
    return math.fsum((acc * weights).tolist())


def pathsum_operators(d: Decomposition, which: str,
                      max_length: int, *, cap: int = LENGTH_CAP) -> KernelMatrix:
    """Interface operators as length-truncated class path sums.

    which selects the class and trimming:

    ``extension``
        rows are all vertices, columns the interface; entry (u, y) sums,
        over paths from u meeting the interface only in their final
        vertex y, the weight with that final vertex dropped.  The
        diagonal interface entries are pure delta atoms.
    ``interface``
        square on the interface; entry (y1, y2) sums full path weights
        over all paths between the two vertices in the whole graph.
    ``dn_prime``
        square on the interface; paths of length >= 1 meeting the
        interface exactly at both endpoints, weighted after dropping
        both endpoint vertices; the single edge case contributes a
        delta atom.

    All sums run over lengths up to max_length.
    """
    if which not in ("extension", "interface", "dn_prime"):
        raise ValueError(f"unknown operator {which!r}")
    if max_length < 0:
        raise ValueError("max_length must be >= 0")
    if max_length > cap:
        raise LengthCapError(f"max_length {max_length} exceeds cap {cap}")

    og = d.ordered_graph
    y = d.interface
    yidx = [og.index[w] for w in y]
    yset = set(yidx)
    comp = set(range(og.n)) - yset
    vals = og.valencies
    a = og.adjacency

    if which == "interface":
        ent = [[ZERO] * len(y) for _ in range(len(y))]
        for p, iy in enumerate(yidx):
            cur = {iy: exponential(1.0, float(vals[iy]))}
            acc: dict[int, list] = {j: [m] for j, m in cur.items()}
            for _ in range(max_length):
                cur = _layer_step(og, cur, None)
                for j, m in cur.items():
                    acc.setdefault(j, []).append(m)
            for q, jy in enumerate(yidx):
                if jy in acc:
                    ent[p][q] = mix_sum(acc[jy])
        return KernelMatrix(y, y, tuple(tuple(r) for r in ent))

    if which == "extension":
        ent = [[ZERO] * len(y) for _ in range(og.n)]
        for q, jy in enumerate(yidx):
            for p, w in enumerate(og.vertices):
                if og.index[w] == jy:
                    ent[p][q] = delta(1.0)
        for p, w in enumerate(og.vertices):
            i = og.index[w]
            if i in yset:
                continue
            cur = {i: exponential(1.0, float(vals[i]))}
            collected: dict[int, list] = {}
            for step in range(max_length):
                for j, m in cur.items():
                    for q, jy in enumerate(yidx):
                        if a[j, jy] != 0.0:
                            collected.setdefault(q, []).append(m)
                if step + 1 < max_length:
                    cur = _layer_step(og, cur, comp)
                    if not cur:
                        break
            for q, parts in collected.items():
                ent[p][q] = mix_sum(parts)
        return KernelMatrix(og.vertices, y, tuple(tuple(r) for r in ent))

    # dn_prime
    ny = len(y)
    ent = [[ZERO] * ny for _ in range(ny)]
    for p, iy in enumerate(yidx):
        for q, jy in enumerate(yidx):
            if a[iy, jy] != 0.0 and max_length >= 1:
                ent[p][q] = delta(1.0)
    for p, iy in enumerate(yidx):
        cur = {
            int(j): exponential(1.0, float(vals[int(j)]))
            for j in np.nonzero(a[iy])[0] if int(j) in comp
        }
        collected: dict[int, list] = {}
        # a leg of length m has m - 1 interior vertices
        for step in range(max(0, max_length - 1)):
            for j, m in cur.items():
                for q, jy in enumerate(yidx):
                    if a[j, jy] != 0.0:
                        collected.setdefault(q, []).append(m)
            if step + 2 < max_length:
                cur = _layer_step(og, cur, comp)
                if not cur:
                    break
        for q, parts in collected.items():
            base = ent[p][q]
            ent[p][q] = mix_sum([base] + parts)
    return KernelMatrix(y, y, tuple(tuple(r) for r in ent))
