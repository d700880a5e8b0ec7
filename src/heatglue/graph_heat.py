"""Heat kernels on finite simple graphs, with exact time profiles.

Covers the discrete toolkit: graph Laplacians, Dirichlet (relative) kernels,
extension kernels, discrete Dirichlet-to-Neumann matrices, Green's matrices,
the interface kernel by two routes (assembled, and as a convolution series
built only from one-sided data), the two gluing formulas, and the Schur-cut
identity.  Every exact time-dependent object is an
:class:`~heatglue.expmix.ExpMix` per matrix entry, so gluing identities can be
checked coefficient-wise rather than on a sample grid.  The series route
(:func:`interface_kernel_series`, :func:`glue_II`) instead returns a
:class:`SeriesKernel`: values at t with a certified error bound, summed in a
cancellation-free positive basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from heatglue import symlin
from heatglue.expmix import (
    EPS_MERGE,
    POWER_LIMIT,
    ExpMix,
    ZERO,
    _table_add,
    _table_convolve,
    _table_from_mix,
    _table_to_mix,
    _universe_from_rates,
    laplace,
    mix_sum,
)

__all__ = [
    "Graph",
    "Decomposition",
    "KernelMatrix",
    "laplacian",
    "heat_kernel",
    "relative_heat_kernel",
    "green",
    "extension_kernel",
    "dn_single",
    "dn_total",
    "interface_kernel",
    "interface_kernel_series",
    "SeriesKernel",
    "glue_I",
    "glue_II",
    "schur_cut",
    "graph_from_dict",
    "decomposition_from_dict",
    "random_decomposition",
]

@dataclass(frozen=True)
class Graph:
    """Finite simple graph with an ordered vertex label sequence.

    Edges may be given in any order and orientation; they are canonicalized to
    index-sorted pairs.  Self-loops, duplicate edges, and undeclared endpoints
    are rejected.
    """

    vertices: tuple
    edges: tuple = ()

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertex labels")
        index = {v: i for i, v in enumerate(verts)}
        seen = set()
        canon = []
        for e in self.edges:
            a, b = e
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            if a not in index or b not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) has an undeclared endpoint")
            ia, ib = sorted((index[a], index[b]))
            if (ia, ib) in seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((ia, ib))
            canon.append((ia, ib))
        canon.sort()
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple((verts[i], verts[j]) for i, j in canon))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
            i, j = self.index[u], self.index[v]
            a[i, j] = a[j, i] = 1.0
        a.setflags(write=False)
        return a

    @cached_property
    def valencies(self) -> np.ndarray:
        v = self.adjacency.sum(axis=1)
        v.setflags(write=False)
        return v

    def degree(self, v) -> int:
        return int(self.valencies[self.index[v]])

    def neighbors(self, v) -> tuple:
        i = self.index[v]
        return tuple(self.vertices[j] for j in np.nonzero(self.adjacency[i])[0])

    def induced(self, labels: Sequence) -> "Graph":
        keep = set(labels)
        for v in keep:
            if v not in self.index:
                raise ValueError(f"unknown vertex {v!r}")
        edges = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        return Graph(tuple(labels), edges)

    def with_vertex_order(self, order: Sequence) -> "Graph":
        if set(order) != set(self.vertices) or len(tuple(order)) != self.n:
            raise ValueError("order must be a permutation of the vertex labels")
        return Graph(tuple(order), self.edges)

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [[u, v] for u, v in self.edges],
        }


def graph_from_dict(d: dict) -> Graph:
    if not isinstance(d, dict) or "vertices" not in d:
        raise ValueError('expected {"vertices": [...], "edges": [...]}')
    return Graph(tuple(d["vertices"]), tuple(tuple(e) for e in d.get("edges", ())))


@dataclass(frozen=True)
class Decomposition:
    """A graph split into side1 | interface | side2 with no cross edge.

    ``side1``/``side2`` may be omitted; the remainder of the vertex set is then
    assigned by connectivity (the component of the first non-interface vertex
    becomes side1).  An edge joining side1 to side2 is an error, not a silent
    re-partition.  All matrices produced from a decomposition are indexed in
    the order side1 + interface + side2.
    """

    graph: Graph
    interface: tuple
    side1: tuple | None = None
    side2: tuple | None = None

    def __post_init__(self) -> None:
        g = self.graph
        y = tuple(self.interface)
        if len(y) == 0:
            raise ValueError("interface must be nonempty")
        if len(set(y)) != len(y):
            raise ValueError("duplicate interface labels")
        for v in y:
            if v not in g.index:
                raise ValueError(f"interface vertex {v!r} not in graph")
        yset = set(y)
        rest = [v for v in g.vertices if v not in yset]
        if not rest:
            raise ValueError("interface equals the whole vertex set")

        s1, s2 = self.side1, self.side2
        if s1 is None and s2 is None:
            comp = self._component_of(rest[0], yset)
            s1 = tuple(v for v in g.vertices if v in comp)
            s2 = tuple(v for v in rest if v not in comp)
        elif s1 is None:
            s2 = tuple(s2)
            s1 = tuple(v for v in rest if v not in set(s2))
        elif s2 is None:
            s1 = tuple(s1)
            s2 = tuple(v for v in rest if v not in set(s1))
        else:
            s1, s2 = tuple(s1), tuple(s2)

        for v in s1 + s2:
            if v not in g.index:
                raise ValueError(f"side vertex {v!r} not in graph")
        if sorted(g.index[v] for v in s1 + y + s2) != list(range(g.n)):
            raise ValueError("side1, interface, side2 must partition the vertex set")
        set1, set2 = set(s1), set(s2)
        for u, v in g.edges:
            if (u in set1 and v in set2) or (u in set2 and v in set1):
                raise ValueError(f"edge ({u!r}, {v!r}) joins the two sides")
        object.__setattr__(self, "interface", y)
        object.__setattr__(self, "side1", s1)
        object.__setattr__(self, "side2", s2)

    def _component_of(self, start, forbidden: set) -> set:
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in self.graph.neighbors(u):
                if w not in forbidden and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    @cached_property
    def ordered_graph(self) -> Graph:
        return self.graph.with_vertex_order(self.side1 + self.interface + self.side2)

    @cached_property
    def side_graphs(self) -> tuple[Graph, Graph]:
        g = self.graph
        return (
            g.induced(self.side1 + self.interface),
            g.induced(self.interface + self.side2),
        )

    def to_dict(self) -> dict:
        d = self.graph.to_dict()
        d["interface"] = list(self.interface)
        d["side1"] = list(self.side1)
        d["side2"] = list(self.side2)
        return d


def decomposition_from_dict(d: dict) -> Decomposition:
    g = graph_from_dict(d)
    if "interface" not in d:
        raise ValueError('decomposition JSON needs an "interface" list')
    return Decomposition(
        g,
        tuple(d["interface"]),
        tuple(d["side1"]) if "side1" in d else None,
        tuple(d["side2"]) if "side2" in d else None,
    )


@dataclass(frozen=True)
class KernelMatrix:
    """Matrix of ExpMix entries with row and column labels."""

    rows: tuple
    cols: tuple
    entries: tuple  # tuple of row tuples of ExpMix

    @cached_property
    def _row_index(self) -> dict:
        return {v: i for i, v in enumerate(self.rows)}

    @cached_property
    def _col_index(self) -> dict:
        return {v: i for i, v in enumerate(self.cols)}

    def entry(self, u, v) -> ExpMix:
        return self.entries[self._row_index[u]][self._col_index[v]]

    def evaluate(self, t: float) -> np.ndarray:
        """Pointwise values at t > 0 (atoms do not contribute there)."""
        from heatglue.expmix import evaluate as ev

        out = np.zeros((len(self.rows), len(self.cols)))
        for i, row in enumerate(self.entries):
            for j, m in enumerate(row):
                if m.terms:
                    out[i, j] = ev(m, t)
        return out

    def laplace(self, s: float) -> np.ndarray:
        out = np.zeros((len(self.rows), len(self.cols)))
        for i, row in enumerate(self.entries):
            for j, m in enumerate(row):
                out[i, j] = laplace(m, s)
        return out

    def transpose(self) -> "KernelMatrix":
        ent = tuple(tuple(self.entries[i][j] for i in range(len(self.rows)))
                    for j in range(len(self.cols)))
        return KernelMatrix(self.cols, self.rows, ent)

    def restrict(self, rows: Sequence, cols: Sequence) -> "KernelMatrix":
        ent = tuple(tuple(self.entry(u, v) for v in cols) for u in rows)
        return KernelMatrix(tuple(rows), tuple(cols), ent)


# ---------------------------------------------------------------------------
# basic kernels
# ---------------------------------------------------------------------------


def laplacian(g: Graph) -> symlin.SymMatrix:
    """D - A with D the diagonal of valencies."""
    return symlin.SymMatrix(np.diag(g.valencies) - g.adjacency)


def _safe_rate(w: float) -> float:
    if w < 0.0:
        if w < -1e-8:
            raise ValueError(f"negative eigenvalue {w} from a Laplacian")
        return 0.0
    return w


def _spectral_mix_matrix(q: np.ndarray, w: np.ndarray) -> list[list[ExpMix]]:
    n = q.shape[0]
    rates = [_safe_rate(x) for x in w]
    entries: list[list[ExpMix]] = [[ZERO] * n for _ in range(n)]
    for u in range(n):
        for v in range(u, n):
            m = ExpMix(0.0, tuple((q[u, k] * q[v, k], 0, rates[k]) for k in range(len(rates))))
            entries[u][v] = entries[v][u] = m
    return entries


def heat_kernel(g: Graph) -> KernelMatrix:
    """The full heat flow of the graph, entrywise exact in t."""
    d = symlin.eigh(laplacian(g))
    ent = _spectral_mix_matrix(d.eigenvectors, d.eigenvalues)
    return KernelMatrix(g.vertices, g.vertices, tuple(map(tuple, ent)))


def relative_heat_kernel(g: Graph, y: Sequence) -> KernelMatrix:
    """Heat flow killed on y: the complement block keeps its full valencies,
    and rows/columns in y are identically zero."""
    yset = set(y)
    for v in yset:
        if v not in g.index:
            raise ValueError(f"unknown vertex {v!r}")
    comp = [i for i, v in enumerate(g.vertices) if v not in yset]
    if not comp:
        raise ValueError("y must be a proper subset of the vertex set")
    full = laplacian(g).entries
    blk = symlin.SymMatrix(full[np.ix_(comp, comp)])
    d = symlin.eigh(blk)
    small = _spectral_mix_matrix(d.eigenvectors, d.eigenvalues)
    n = g.n
    ent = [[ZERO] * n for _ in range(n)]
    for a, i in enumerate(comp):
        for b, j in enumerate(comp):
            ent[i][j] = small[a][b]
    return KernelMatrix(g.vertices, g.vertices, tuple(map(tuple, ent)))


def green(g: Graph, m2: float) -> np.ndarray:
    """(Laplacian + m2)^-1; m2 must be positive since the Laplacian is singular."""
    if not (m2 > 0.0):
        raise ValueError(f"need m2 > 0, got {m2}")
    d = symlin.eigh(laplacian(g))
    return symlin.spectral_apply(d, lambda w: 1.0 / (w + m2))


def extension_kernel(g: Graph, y: Sequence) -> KernelMatrix:
    """Impulse response of the boundary-data-to-interior map.

    Rows over the complement of y hold the relative kernel hit with the
    complement-to-y adjacency block; rows in y hold the identity times a unit
    atom (boundary values are prescribed, not evolved).
    """
    y = tuple(y)
    if not y:
        raise ValueError("y must be nonempty")
    rel = relative_heat_kernel(g, y)
    a = g.adjacency
    yidx = [g.index[v] for v in y]
    n = g.n
    yset = set(y)
    ent: list[list[ExpMix]] = [[ZERO] * len(y) for _ in range(n)]
    for i, u in enumerate(g.vertices):
        if u in yset:
            ent[i][y.index(u)] = ExpMix(1.0)
            continue
        for jy, yv in enumerate(y):
            parts = []
            for k in np.nonzero(a[:, yidx[jy]])[0]:
                m = rel.entries[i][k]
                if m.terms:
                    parts.append(m)
            if parts:
                ent[i][jy] = mix_sum(parts)
    return KernelMatrix(g.vertices, y, tuple(map(tuple, ent)))


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann and the interface kernel
# ---------------------------------------------------------------------------


def dn_single(g: Graph, y: Sequence, m2: float) -> np.ndarray:
    """Inverse of the y-y block of the Green's matrix of g."""
    y = tuple(y)
    gm = green(g, m2)
    yi = [g.index[v] for v in y]
    blk = symlin.block(gm, yi, yi)
    try:
        return np.linalg.inv(blk)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by m2 > 0
        raise ValueError(f"singular y-y Green block: {exc}") from exc


def dn_total(g1: Graph, g2: Graph, y: Sequence, m2: float) -> np.ndarray:
    """Two-sided Dirichlet-to-Neumann matrix on the shared interface.

    The sides must intersect exactly in y and agree on its internal edges;
    the shared interface Laplacian plus m2 is counted once, so it is removed
    after summing the one-sided matrices.
    """
    y = tuple(y)
    shared = set(g1.vertices) & set(g2.vertices)
    if shared != set(y):
        raise ValueError("graphs must share exactly the interface vertex set")
    e1 = {frozenset(e) for e in g1.induced(y).edges}
    e2 = {frozenset(e) for e in g2.induced(y).edges}
    if e1 != e2:
        raise ValueError("graphs disagree on interface-internal edges")
    ly = laplacian(g1.induced(y)).entries
    out = dn_single(g1, y, m2) + dn_single(g2, y, m2) - (ly + m2 * np.eye(len(y)))
    return out


def interface_kernel(d: Decomposition) -> KernelMatrix:
    """Interface block of the glued heat kernel (the assembled route).

    Uses the glued graph directly; the series route below reaches the same
    object from one-sided data only.
    """
    k = heat_kernel(d.ordered_graph)
    return k.restrict(d.interface, d.interface)


def _tmatmul(a, b, nrows, ncols, ninner):
    out = [[None] * ncols for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            acc = None
            for z in range(ninner):
                ta = a[i][z]
                tb = b[z][j]
                if ta is None or tb is None:
                    continue
                c = _table_convolve(ta, tb, POWER_LIMIT)
                acc = c if acc is None else _table_add(acc, c)
            out[i][j] = acc
    return out


def _to_tables(mixes, universe, width):
    out = []
    for row in mixes:
        out.append([
            None if (m.is_zero()) else _table_from_mix(m, universe, width)
            for m in row
        ])
    return out


def _one_step_interface_mixes(d: Decomposition, rel: KernelMatrix | None = None):
    """One-step interface update: delta times A restricted to the interface,
    plus the relative kernels of the two sides sandwiched between adjacency
    rows, as an interface-indexed matrix of mixes."""
    og = d.ordered_graph
    ny = len(d.interface)
    n1 = len(d.side1)
    if rel is None:
        rel = relative_heat_kernel(og, d.interface)
    a = og.adjacency
    yidx = [og.index[v] for v in d.interface]
    ay = a[np.ix_(yidx, yidx)]
    dprime: list[list[ExpMix]] = [[ZERO] * ny for _ in range(ny)]
    for sa, sb in ((0, n1), (n1 + ny, og.n)):
        cols = list(range(sa, sb))
        if not cols:
            continue
        for p in range(ny):
            up = [u for u in cols if a[u, yidx[p]] != 0.0]
            if not up:
                continue
            for q in range(ny):
                vq = [v for v in cols if a[v, yidx[q]] != 0.0]
                parts = [rel.entries[u][v] for u in up for v in vq
                         if rel.entries[u][v].terms]
                if parts:
                    dprime[p][q] = mix_sum([dprime[p][q]] + parts)
    for p in range(ny):
        for q in range(ny):
            if ay[p, q] != 0.0:
                dprime[p][q] = ExpMix(dprime[p][q].atom + ay[p, q], dprime[p][q].terms)
    return dprime


# ---------------------------------------------------------------------------
# the one-sided series, in the rate-shifted positive basis
# ---------------------------------------------------------------------------
#
# Multiplying every time factor by e^{theta t}, theta >= the largest
# valency, commutes with convolution and leaves atoms alone.  The interface
# decay factors become e^{(theta - d_y) t} and the relative kernel becomes
# exp(t (theta I - L_C)) with theta I - L_C >= 0 entrywise, so every object
# is an atom plus a series in t^p/p! with nonnegative coefficients.
# Coefficient p is stored divided by theta^p.  Convolving against an
# exponential factor e^{tM} is then the Cauchy product with its coefficients
# (M/theta)^p shifted by one slot, i.e. the recurrence
# g_{p+1} = (f_p + g_p M) / theta.  Run for the whole series at once, with
# layer k holding the part of a row that has left the interface k times,
# this is one block-bidiagonal step per Taylor order:
#
#   c_k <- c_k Mc + y_{k-1} A_yc              (in a side after departure k)
#   y_k <- y_k Dy + c_k A_cy + y_{k-1} A_yy   (on the interface, sojourn k)
#
# with every matrix divided by theta.  c_0 starts at the identity on the
# sides (the relative kernel), y_0 at the identity atom of the extension
# kernel.  The y layers, read on the interface columns, sum to the series
# dressed on the left by the extension kernel; c_1 .. c_{k_max+1}, read on
# the side columns, add its dressing on the right.  Values at t are sums
# against the Poisson(theta t) weights (uniformization, Jensen 1953).
#
# Certificate: e^{-tL} has unit row sums, and everything left out (series
# terms past k_max, Taylor orders past the cut) is entrywise nonnegative,
# so the error of each entry of row i is at most 1 - rowsum_i of the
# truncated kernel.  All arithmetic is on nonnegative numbers, so rounding
# is a relative error gamma per computed entry, charged to both the entry
# and its row sum.

_U = 2.0**-53  # unit roundoff of float64
_POISSON_TAIL = 1e-20  # Taylor orders are kept until the weights left hold less
_MAX_ORDER = 1 << 16  # past this the dropped orders show in the bound instead


def _poisson_order(lam: float) -> int:
    """Number of Taylor orders to keep at Poisson mean ``lam > 0``.

    Past the mode the weights fall by lam/(p+1) per order, so the tail from
    order p is at most w_p / (1 - lam/(p+1)).
    """
    if lam >= _MAX_ORDER:
        return _MAX_ORDER
    log_cut = math.log(_POISSON_TAIL)
    log_lam = math.log(lam)
    p = int(lam) + 1
    while p < _MAX_ORDER:
        log_tail = (p * log_lam - math.lgamma(p + 1.0) - lam
                    - math.log1p(-lam / (p + 1.0)))
        if log_tail < log_cut:
            return p
        p += 1
    return _MAX_ORDER


def _check_t(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"the series kernel needs t > 0, got {t}")
    return t


class SeriesKernel:
    """A block of the glued heat kernel from the k_max-truncated one-sided
    series, as values at t.

    Built from one-sided data only: the relative kernels of the two sides,
    their adjacency to the interface, and the interface valencies.  Term k
    of the interface series convolves k + 1 interface decay factors with k
    one-step updates (the atom A_yy, or an excursion through one side); the
    glued kernel dresses the sum with the extension kernel on both sides.

    ``rows`` and ``cols`` are the vertex labels of the block.
    ``evaluate(t)`` returns its values at t > 0; ``bound(t)`` a certified
    bound on their entrywise error against the exact glued kernel, from the
    row sums of the truncated kernel (every dropped piece is nonnegative
    and the exact kernel is stochastic) plus a rounding allowance;
    ``evaluate_with_bound(t)`` returns both.  Each call walks the series
    once, at one step per Taylor order kept, until the Poisson(theta t)
    weights left hold less than 1e-20 (theta the largest valency; for large
    theta t about theta t + 10 sqrt(theta t) orders).  Past 65536 orders the rest
    is left out and shows in the bound.
    """

    def __init__(self, d: Decomposition, k_max: int, labels: Sequence):
        if k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {k_max}")
        og = d.ordered_graph
        n1, ny = len(d.side1), len(d.interface)
        self.rows = self.cols = tuple(labels)
        self._k_max = k_max
        self._n = og.n
        self._y = np.arange(n1, n1 + ny)
        self._c = np.setdiff1d(np.arange(og.n), self._y)
        self._start = np.array([og.index[v] for v in self.rows])
        self._theta = max(float(og.valencies.max()), 1.0)
        shifted = (self._theta * np.eye(og.n) - laplacian(og).entries) / self._theta
        adj = og.adjacency / self._theta
        self._mc = shifted[np.ix_(self._c, self._c)]
        self._dy = np.diag(shifted)[self._y]
        self._acy = adj[np.ix_(self._c, self._y)]
        self._ayc = adj[np.ix_(self._y, self._c)]
        self._ayy = adj[np.ix_(self._y, self._y)]

    def _rows_at(self, t: float) -> tuple[np.ndarray, float]:
        """Rows of the truncated glued kernel at t over all vertices (in
        decomposition order), and the relative rounding error of each entry."""
        lam = self._theta * t
        order = _poisson_order(lam)
        k = self._k_max
        start = np.eye(self._n)[self._start]
        cl = np.zeros((k + 2, len(self._start), len(self._c)))
        yl = np.zeros((k + 1, len(self._start), len(self._y)))
        cl[0] = start[:, self._c]
        yl[0] = start[:, self._y]
        acc_c = np.zeros_like(cl)
        acc_y = np.zeros_like(yl)
        log_lam = math.log(lam)
        for p in range(order):
            w = math.exp(p * log_lam - math.lgamma(p + 1.0) - lam)
            if w > 0.0:
                acc_c += w * cl
                acc_y += w * yl
            if p + 1 == order:
                break
            next_c = cl @ self._mc
            next_c[1:] += yl @ self._ayc
            next_y = yl * self._dy + cl[: k + 1] @ self._acy
            next_y[1:] += yl[:-1] @ self._ayy
            cl, yl = next_c, next_y
        out = np.empty((len(self._start), self._n))
        out[:, self._c] = acc_c.sum(axis=0)
        out[:, self._y] = acc_y.sum(axis=0)
        # rounding, relative to each entry: order p of a layer has been
        # through p steps of at most n + 4 roundings, the sums over orders
        # and layers add order + k + 2 more, and each weight is off by the
        # absolute error of its log-space argument (that of lam included),
        # a few ulps of the argument's largest parts
        log_mag = (order - 1) * (abs(log_lam) + 1.0) + math.lgamma(order) + lam
        gamma = _U * (order * (self._n + 5) + k + 8.0 * log_mag + 4.0)
        return out, gamma

    def evaluate(self, t: float) -> np.ndarray:
        """Values of the block at t > 0."""
        vals, _ = self._rows_at(_check_t(t))
        return vals[:, self._start]

    def bound(self, t: float) -> float:
        """Certified bound on the entrywise error of :meth:`evaluate` at t > 0."""
        return self.evaluate_with_bound(t)[1]

    def evaluate_with_bound(self, t: float) -> tuple[np.ndarray, float]:
        """:meth:`evaluate` and :meth:`bound` at t > 0 from one walk."""
        vals, gamma = self._rows_at(_check_t(t))
        sums = [math.fsum(row) for row in vals.tolist()]
        bound = max(1.0 - s for s in sums) + 3.0 * gamma * max(1.0, max(sums))
        return vals[:, self._start], bound


def interface_kernel_series(d: Decomposition, k_max: int):
    """Interface kernel from its k_max-truncated one-sided series.

    Returns ``(kernel, kernel.bound)``: a :class:`SeriesKernel` on the
    interface, whose ``evaluate(t)`` gives values at t > 0, and its
    certified error bound.  The bound reads the interface rows of the glued
    kernel: K[y, :] = IFK[y, :] * E^T, and E^T carries the identity atom on
    the interface columns, so each interface entry is an entry of those rows
    and its error is at most their row-sum deficit.
    """
    kern = SeriesKernel(d, k_max, d.interface)
    return kern, kern.bound


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def glue_I(d: Decomposition) -> KernelMatrix:
    """First gluing formula: Dirichlet kernel plus extension-dressed interface
    kernel.  Exact as ExpMix coefficients, up to rate-merge rounding."""
    og = d.ordered_graph
    y = d.interface
    n, ny = og.n, len(y)
    ifk = interface_kernel(d)
    rel = relative_heat_kernel(og, y)
    eps = extension_kernel(og, y)
    rates = set()
    for row in ifk.entries:
        for m in row:
            rates.update(t.rate for t in m.terms)
    rel_rates = set()
    for row in rel.entries:
        for m in row:
            rel_rates.update(t.rate for t in m.terms)
    universe = _universe_from_rates(
        [np.array(sorted(rates)), np.array(sorted(rel_rates))], EPS_MERGE
    )

    width = 1
    for row in eps.entries:
        for m in row:
            for t in m.terms:
                width = max(width, t.power + 1)
    eps_t = _to_tables(eps.entries, universe, width)
    eps_tt = [[eps_t[i][j] for i in range(n)] for j in range(ny)]
    half = _tmatmul(eps_t, _to_tables(ifk.entries, universe, 1), n, ny, ny)
    corr = _tmatmul(half, eps_tt, n, n, ny)

    ent = []
    for i in range(n):
        row = []
        for j in range(n):
            base = rel.entries[i][j]
            c = corr[i][j]
            if c is None:
                row.append(base)
            else:
                m = _table_to_mix(c)
                row.append(m if base.is_zero() else mix_sum([base, m]))
        ent.append(tuple(row))
    return KernelMatrix(og.vertices, og.vertices, tuple(ent))


def glue_II(d: Decomposition, k_max: int):
    """Second gluing formula: as glue_I but with the interface kernel replaced
    by its k_max-truncated one-sided series.

    Returns ``(kernel, kernel.bound)``: a :class:`SeriesKernel` over the
    vertices in decomposition order, whose ``evaluate(t)`` gives values at
    t > 0, and its certified error bound, which is the largest row-sum
    deficit of the truncated kernel plus a rounding allowance.
    """
    kern = SeriesKernel(d, k_max, d.ordered_graph.vertices)
    return kern, kern.bound


def schur_cut(g: Graph, y: Sequence, m2: float) -> tuple[np.ndarray, float]:
    """Green's matrix of the y-killed graph, both directly and by Schur
    complement of the full Green's matrix; returns (matrix, max abs gap)."""
    if not (m2 > 0.0):
        raise ValueError(f"need m2 > 0, got {m2}")
    y = tuple(y)
    yset = set(y)
    for v in yset:
        if v not in g.index:
            raise ValueError(f"unknown vertex {v!r}")
    if not y:
        return green(g, m2), 0.0
    comp = [i for i, v in enumerate(g.vertices) if v not in yset]
    yi = [g.index[v] for v in y]

    full = laplacian(g).entries
    if comp:
        blk = symlin.SymMatrix(full[np.ix_(comp, comp)] + m2 * np.eye(len(comp)))
        direct = symlin.spectral_apply(symlin.eigh(blk), lambda w: 1.0 / w)
    else:
        direct = np.zeros((0, 0))

    gm = green(g, m2)
    gaa = symlin.block(gm, comp, comp)
    if yi and comp:
        gab = symlin.block(gm, comp, yi)
        gbb = symlin.block(gm, yi, yi)
        gba = symlin.block(gm, yi, comp)
        via_schur = gaa - gab @ np.linalg.solve(gbb, gba)
    else:
        via_schur = gaa
    residual = float(np.abs(direct - via_schur).max()) if comp else 0.0
    return direct, residual


# ---------------------------------------------------------------------------
# randomized decompositions (test/benchmark support)
# ---------------------------------------------------------------------------


def random_decomposition(rng: np.random.Generator, n_max: int = 12) -> Decomposition:
    """A random split graph: both sides nonempty, interface of 1..3 vertices,
    edges drawn at p=1/2 over all pairs except side1 x side2."""
    if n_max < 3:
        raise ValueError("need room for side1 + interface + side2")
    ny = int(rng.integers(1, min(3, n_max - 2) + 1))
    n1 = int(rng.integers(1, n_max - ny - 1 + 1))
    n2 = int(rng.integers(1, n_max - ny - n1 + 1))
    n = n1 + ny + n2
    labels = tuple(f"v{i}" for i in range(n))
    side1 = labels[:n1]
    inter = labels[n1 : n1 + ny]
    side2 = labels[n1 + ny :]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            cross = (i < n1 and j >= n1 + ny) or (j < n1 and i >= n1 + ny)
            if cross:
                continue
            if rng.random() < 0.5:
                edges.append((labels[i], labels[j]))
    g = Graph(labels, tuple(edges))
    return Decomposition(g, inter, side1, side2)
