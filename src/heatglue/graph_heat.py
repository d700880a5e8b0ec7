"""Heat kernels on finite simple graphs, with exact time profiles.

Covers the discrete toolkit: graph Laplacians, Dirichlet (relative) kernels,
extension kernels, the interface kernel by two routes (assembled, and as a
convolution series built only from one-sided data), the two gluing
formulas, and the Schur-cut identity of the killed Green's matrix.  Every
exact time-dependent object is a :class:`KernelMatrix`: one coefficient
tensor on one rate universe, built and evaluated as arrays, so gluing
identities can be checked coefficient-wise rather than on a sample grid;
an :class:`~heatglue.expmix.ExpMix` is made only for an entry that is
asked for.  The series route (:func:`glue_II`) instead returns a
:class:`SeriesKernel`: values at t with a certified error bound, summed in a
cancellation-free positive basis, and raises
:class:`~heatglue.errors.TruncationError` on a bound that certifies
nothing.  Where only values at t are needed, no coefficient tensor is
built: :func:`heat_values` gives the heat flow from one eigendecomposition,
and :func:`glue_I_values` the first gluing formula from the two that
:func:`glue_I` takes, its time convolutions evaluated as divided
differences of e^{-xt} that lose at most a factor 2.7 to cancellation.
Every route takes its Laplacian spectra from one function, whose null
space is exact: one indicator per component, at rate exactly 0; the Schur
cut's direct Green's matrix too, from the spectrum of the block off the cut.
It calls :func:`~heatglue.symlin.eigh` once per spectrum, on the graph's
Laplacian (validated once, by :attr:`Graph.laplacian`) and, for a block,
the indices kept, and takes the read-only pair (w, q) that LAPACK returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from heatglue import symlin
from heatglue.errors import ConvergenceError, below_prior, nonnegative, positive
from heatglue.expmix import (
    ExpMix,
    convolve_exponential,
    evaluate_basis,
    from_basis,
    rate_universe,
)

__all__ = [
    "Graph",
    "Decomposition",
    "KernelMatrix",
    "heat_kernel",
    "heat_values",
    "relative_heat_kernel",
    "extension_kernel",
    "interface_kernel",
    "one_step_interface_kernel",
    "SeriesKernel",
    "uniformized_walk",
    "glue_I",
    "glue_I_values",
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
    #: The index of each vertex label.
    index: dict = field(init=False, repr=False, compare=False)
    #: The index pair (i, j), i < j, of each edge, in edge order.
    edge_pairs: tuple = field(init=False, repr=False, compare=False)

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
            ia, ib = index[a], index[b]
            if ia > ib:
                ia, ib = ib, ia
            if (ia, ib) in seen:
                raise ValueError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((ia, ib))
            canon.append((ia, ib))
        canon.sort()
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple((verts[i], verts[j]) for i, j in canon))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "edge_pairs", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for i, j in self.edge_pairs:
            a[i, j] = a[j, i] = 1.0
        a.setflags(write=False)
        return a

    @cached_property
    def laplacian(self) -> symlin.SymMatrix:
        """D - A with D the diagonal of valencies, built and validated once
        per graph."""
        return symlin.SymMatrix(np.diag(self.valencies) - self.adjacency)

    @cached_property
    def valencies(self) -> np.ndarray:
        v = self.adjacency.sum(axis=1)
        v.setflags(write=False)
        return v

    @cached_property
    def components(self) -> np.ndarray:
        """Connected component of each vertex, numbered 0, 1, ... in vertex
        order: each vertex not yet labelled starts the next component, and
        a traversal of the edges from it labels every vertex it reaches."""
        neighbours = [[] for _ in self.vertices]
        for i, j in self.edge_pairs:
            neighbours[i].append(j)
            neighbours[j].append(i)
        labels = [-1] * self.n
        count = 0
        for first in range(self.n):
            if labels[first] < 0:
                labels[first] = count
                stack = [first]
                while stack:
                    for j in neighbours[stack.pop()]:
                        if labels[j] < 0:
                            labels[j] = count
                            stack.append(j)
                count += 1
        labels = np.array(labels, dtype=np.intp)
        labels.setflags(write=False)
        return labels

    def indices(self, labels: Iterable) -> list[int]:
        """The index of each label; ValueError at one that is no vertex:
        the one rule of the package for a vertex label."""
        try:
            return [self.index[v] for v in labels]
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]!r} not in graph") from None

    def induced(self, labels: Sequence) -> "Graph":
        labels = tuple(labels)
        self.indices(labels)
        keep = set(labels)
        return Graph(labels, tuple(e for e in self.edges
                                   if e[0] in keep and e[1] in keep))

    def with_vertex_order(self, order: Sequence) -> "Graph":
        order = tuple(order)
        if set(order) != set(self.vertices) or len(order) != self.n:
            raise ValueError("order must be a permutation of the vertex labels")
        return Graph(order, self.edges)


def graph_from_dict(d: dict) -> Graph:
    if not isinstance(d, dict) or "vertices" not in d:
        raise ValueError('expected {"vertices": [...], "edges": [...]}')
    return Graph(tuple(d["vertices"]), tuple(tuple(e) for e in d.get("edges", ())))


@dataclass(frozen=True)
class Decomposition:
    """A graph split into side1 | interface | side2 with no cross edge.

    ``side1``/``side2`` may be omitted.  With both omitted, side1 is the
    component of the first non-interface vertex off the interface; then a
    missing side is the rest of the vertex set, off the interface and the
    other side, in vertex order.  An edge joining side1 to side2 is an
    error, not a silent re-partition.  All matrices produced from a
    decomposition are indexed in the order side1 + interface + side2.
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
        g.indices(y)
        yset = set(y)
        rest = [v for v in g.vertices if v not in yset]
        if not rest:
            raise ValueError("interface equals the whole vertex set")

        s1, s2 = self.side1, self.side2
        if s1 is None and s2 is None:
            labels = g.induced(rest).components
            s1 = [v for v, c in zip(rest, labels) if c == 0]
        s1 = tuple(v for v in rest if v not in s2) if s1 is None else tuple(s1)
        s2 = tuple(v for v in rest if v not in s1) if s2 is None else tuple(s2)

        if sorted(g.indices(s1 + y + s2)) != list(range(g.n)):
            raise ValueError("side1, interface, side2 must partition the vertex set")
        set1, set2 = set(s1), set(s2)
        for u, v in g.edges:
            if (u in set1 and v in set2) or (u in set2 and v in set1):
                raise ValueError(f"edge ({u!r}, {v!r}) joins the two sides")
        object.__setattr__(self, "interface", y)
        object.__setattr__(self, "side1", s1)
        object.__setattr__(self, "side2", s2)

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


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Matrix of exact time profiles with row and column labels, held as one
    coefficient tensor on one rate universe.

    Entry ``(rows[i], cols[j])`` is the profile

        atom[i, j] * delta(t)
            + sum_{x, p} coef[i, j, x, p] * t^p/p! * exp(-universe[x] * t),

    in the basis of :func:`~heatglue.expmix.convolve_exponential`; ``coef``
    has shape ``(len(rows), len(cols), len(universe), powers)``.  The arrays
    are read-only.  :meth:`entry` builds the canonical
    :class:`~heatglue.expmix.ExpMix` of one entry when it is asked for;
    :meth:`evaluate` works on the whole tensor.
    """

    rows: tuple
    cols: tuple
    universe: np.ndarray
    coef: np.ndarray
    atom: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        for name in ("universe", "coef", "atom"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        shape = (len(self.rows), len(self.cols))
        if (self.coef.ndim != 4 or self.coef.shape[:3] != shape + self.universe.shape
                or self.atom.shape != shape):
            raise ValueError(
                f"coef {self.coef.shape} and atom {self.atom.shape} do not fit "
                f"{shape} entries on {len(self.universe)} rates")

    @cached_property
    def _row_index(self) -> dict:
        return {v: i for i, v in enumerate(self.rows)}

    @cached_property
    def _col_index(self) -> dict:
        return {v: i for i, v in enumerate(self.cols)}

    def entry(self, u, v) -> ExpMix:
        i, j = self._row_index[u], self._col_index[v]
        return from_basis(self.coef[i, j], self.universe, float(self.atom[i, j]))

    def evaluate(self, t: float) -> np.ndarray:
        """Pointwise values at t > 0 (atoms do not contribute there)."""
        return evaluate_basis(self.coef, self.universe, t)


# ---------------------------------------------------------------------------
# basic kernels
# ---------------------------------------------------------------------------


def _spectrum(g: Graph, keep=None) -> tuple[np.ndarray, np.ndarray]:
    """(rates, vectors) of the Laplacian of g, or of its block on the vertex
    indices ``keep``.  Its null space is spanned by the indicators of the
    components of g wholly inside ``keep`` (Chung, Spectral Graph Theory,
    AMS 1997, ch. 1): they come first, normalised, at rate exactly 0.0,
    then the other eigenpairs of :func:`~heatglue.symlin.eigh`, projected
    off them; one of their rates that is not positive is a failed solve,
    a ConvergenceError."""
    labels = g.components
    sizes = np.bincount(labels)
    if keep is None:  # every component is inside
        sub, inside = labels, np.arange(sizes.size)
    else:
        sub = labels[keep]
        inside = np.flatnonzero(np.bincount(sub, minlength=sizes.size) == sizes)
    w, q = symlin.eigh(g.laplacian, keep)
    r = inside.size
    rates, vectors = w[r:], q[:, r:]
    if rates.size and not rates[0] > 0.0:  # eigh sorts them ascending
        raise ConvergenceError(f"Laplacian eigenvalue {float(rates[0])} "
                               "off the null space is not positive")
    z = (sub[:, None] == inside) / np.sqrt(sizes[inside])
    return (np.concatenate((np.zeros(r), rates)),
            np.concatenate((z, vectors - z @ (z.T @ vectors)), axis=1))


def _spectral(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate universe and coefficient tensor of sum_k q_k q_k^T exp(-w_k t),
    the q_k the columns of q; the tensor is bitwise symmetric."""
    universe, at = rate_universe(w)
    coef = np.einsum("ik,jk,kx->ijx", q, q, np.eye(len(universe))[at])
    i, j = np.triu_indices(len(q), 1)
    coef[j, i] = coef[i, j]
    return universe, coef[..., None]


def heat_kernel(g: Graph) -> KernelMatrix:
    """The full heat flow of the graph, entrywise exact in t."""
    universe, coef = _spectral(*_spectrum(g))
    return KernelMatrix(g.vertices, g.vertices, universe, coef, np.zeros((g.n, g.n)))


def _mirror_upper(values: np.ndarray) -> np.ndarray:
    """A square matrix made bitwise symmetric from its upper triangle."""
    return np.where(np.tri(len(values), dtype=bool), values.T, values)


def heat_values(g: Graph, t: float) -> np.ndarray:
    """The heat flow of the graph at t > 0 as values: Q diag(e^{-wt}) Q^T
    from one eigendecomposition of the Laplacian, with no coefficient
    tensor; the values of :func:`heat_kernel` at t, to rounding, and like
    them bitwise symmetric."""
    (t,) = positive(t=t)
    w, q = _spectrum(g)
    with np.errstate(over="ignore"):  # e^{-inf} = 0 where w t overflows
        return _mirror_upper((q * np.exp(-w * t)) @ q.T)


def relative_heat_kernel(g: Graph, y: Sequence) -> KernelMatrix:
    """Heat flow killed on y: the complement block keeps its full valencies,
    and rows/columns in y are identically zero."""
    killed = set(g.indices(y))
    comp = [i for i in range(g.n) if i not in killed]
    if not comp:
        raise ValueError("y must be a proper subset of the vertex set")
    universe, small = _spectral(*_spectrum(g, comp))
    coef = np.zeros((g.n, g.n) + small.shape[2:])
    coef[np.ix_(comp, comp)] = small
    return KernelMatrix(g.vertices, g.vertices, universe, coef, np.zeros((g.n, g.n)))


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
    yidx = [g.index[v] for v in y]
    coef = np.einsum("ikxp,kj->ijxp", rel.coef, g.adjacency[:, yidx])
    atom = np.zeros((g.n, len(y)))
    atom[yidx, np.arange(len(y))] = 1.0
    return KernelMatrix(g.vertices, y, rel.universe, coef, atom)


# ---------------------------------------------------------------------------
# the interface kernel
# ---------------------------------------------------------------------------


def interface_kernel(d: Decomposition) -> KernelMatrix:
    """Interface block of the glued heat kernel (the assembled route).

    Uses the glued graph directly, from the interface rows of its
    eigenvectors.  The series route reaches the same block from one-sided
    data only: a :class:`SeriesKernel` on the interface labels, whose
    bound holds here too, since K[y, :] = IFK[y, :] * E^T and E^T carries
    the identity atom on the interface columns.
    """
    w, q = _spectrum(d.ordered_graph)
    n1, ny = len(d.side1), len(d.interface)
    universe, coef = _spectral(w, q[n1:n1 + ny])
    return KernelMatrix(d.interface, d.interface, universe, coef, np.zeros((ny, ny)))


def one_step_interface_kernel(d: Decomposition) -> KernelMatrix:
    """One-step interface update: delta times A restricted to the interface,
    plus the relative kernel of each side sandwiched between the adjacency
    rows of the interface into that side, as an interface-indexed matrix.

    The exact reference for the ``dn_prime`` path-sum operator."""
    og = d.ordered_graph
    n1, ny = len(d.side1), len(d.interface)
    rel = relative_heat_kernel(og, d.interface)
    y = np.arange(n1, n1 + ny)
    coef = np.zeros((ny, ny) + rel.coef.shape[2:])
    for side in (np.arange(n1), np.arange(n1 + ny, og.n)):
        ays = og.adjacency[np.ix_(y, side)]
        coef += np.einsum("pu,uvxw,qv->pqxw", ays, rel.coef[np.ix_(side, side)], ays)
    return KernelMatrix(d.interface, d.interface, rel.universe, coef,
                        og.adjacency[np.ix_(y, y)])


# ---------------------------------------------------------------------------
# walks in the rate-shifted positive basis
# ---------------------------------------------------------------------------
#
# Multiplying every time factor by e^{theta t}, theta the largest
# valency, commutes with convolution and leaves atoms alone, and turns the
# heat flow e^{-tL} into exp(t (theta I - L)) with theta I - L >= 0
# entrywise: a series in t^p/p! with nonnegative coefficients
# (theta I - L)^p.  Coefficient p is stored divided by theta^p, so values at
# t are sums against the Poisson(theta t) weights (uniformization, Jensen
# 1953).  Both the series of the second gluing formula and the path sum of
# the graph kernel sort the walks behind these coefficients into layers by
# how often they take a step of a given kind: splitting
# theta I - L = S + B into the steps that keep a walk in its layer (S) and
# those that move it to the next (B), layer k of order p + 1 is
#
#   x_k <- (x_k S + x_{k-1} B) / theta.
#
# A walk of order p has taken at most p B-steps, so order p holds layers
# 0 .. p only.  Summed over the orders, layer k is the part of e^{-tL} made
# of walks that took exactly k B-steps.  The sum over orders is evaluated
# by Horner in blocks of 8 orders, one product with the layers of the
# 8-step operator per block, and each block adds 8 layers until all are
# reached.  All arithmetic is on nonnegative numbers, so rounding is a
# relative error gamma per computed entry.

_U = 2.0**-53  # unit roundoff of float64
_POISSON_TAIL = 1e-20  # Taylor orders are kept until the weights left hold less
_MAX_ORDER = 1 << 16  # past this the dropped orders show in the bound instead
_BLOCK = 8  # Taylor orders per Horner block of the walk


def _poisson_order(lam: float) -> int:
    """Number of Taylor orders to keep at Poisson mean ``lam > 0``.

    Past the mode the weights fall by lam/(p+1) per order, so the tail from
    order p is at most w_p / (1 - lam/(p+1)).  The order is the first p past
    lam where that bound falls below the cut; the bound falls with p there,
    so it is found by bisection.
    """
    if lam >= _MAX_ORDER:
        return _MAX_ORDER
    log_cut = math.log(_POISSON_TAIL)
    log_lam = math.log(lam)
    lo, hi = int(lam) + 1, _MAX_ORDER
    while lo < hi:
        p = (lo + hi) // 2
        log_tail = (p * log_lam - math.lgamma(p + 1.0) - lam
                    - math.log1p(-lam / (p + 1.0)))
        if log_tail < log_cut:
            hi = p
        else:
            lo = p + 1
    return lo


def uniformized_walk(g: Graph, start: np.ndarray, layers: int, t: float,
                     inside: Sequence[int] | None = None,
                     advancing: Sequence[int] | None = None,
                     ) -> tuple[np.ndarray, float]:
    """Layered walk of e^{-tL} in the rate-shifted positive basis.

    The walk visits the vertices of g with indices ``inside`` (all by
    default), killed on the rest, and starts the m rows of ``start`` over
    them in layer 0.  With theta the largest valency of g, theta I - L
    on those vertices splits entrywise into nonnegative steps: the
    off-diagonal ones of the rows ``advancing`` (positions in ``inside``;
    all by default) move a walk to the next layer, and all the others keep
    it in its layer.  Returns ``(sums, gamma)``: ``sums[k]`` (m by n, n
    the vertices inside) is the Poisson(theta t)-weighted sum over the
    Taylor orders of layer k, for each layer k < ``layers`` that the orders
    kept reach, and gamma a relative rounding error that covers each entry
    of ``sums`` and of its sum over the layers.  Order p reaches layers
    0 .. p only, so the layers past the orders kept, which are empty, are
    not returned: at theta t = 0 the Poisson law is a unit mass at order
    0, and ``sums`` is ``start`` as one layer, with gamma 0; where theta t
    overflows no order is kept, and neither is any layer.

    Orders are kept until the Poisson weights left hold less than 1e-20
    (for large theta t about theta t + 10 sqrt(theta t) of them), at most
    65536.  With T the layered one-step operator (the steps over theta),
    the P orders kept sum to sum_{p<P} w_p start T^p.  It is evaluated by
    Horner in blocks of s = min(8, P) orders (Paterson and Stockmeyer
    1973),

        y <- y T^s + c_b,   c_b = sum_{r<s} w_{bs+r} start T^r,

    from the last block down.  The layers of T^r for r <= s come from s
    layered steps of the identity, and start T^r for r < s from one
    product with them; the layers of T^s are its layer diagonals D_0 ..
    D_s (D_j moves a walk j layers on).  Layer k of y T^s is the sum over
    j of layer k - j of y times D_j, so a block is one product: the
    windows of s + 1 consecutive layers of y, each row laid out as one
    vector, times [D_s; ..; D_0], batched over the layers reached.  Layers
    past K = min(``layers``, P) are dropped at every block, which leaves
    the kept ones exact, as T never moves a walk back.  Working memory is
    about ((3 (K + s) + 2 s (s + 1)) m + (s + 2)^2 n) n floats, whatever
    P and whatever ``layers``.

    Rounding: every operand is nonnegative, so each computed entry is the
    exact sum with each of its terms off by at most N roundings, relative,
    and a product by an exact zero rounds nothing.  With q the most
    nonzeros in a column of theta I - L, a step costs q + 2 (the division
    by theta, a product, the add of its two parts), so T^r has r (q + 2).
    c_b adds s (its weighted sum) and the nonzeros of a row of ``start``;
    a block adds the nonzeros Q of a column of [D_s; ..; D_0], at most
    (s + 1) n, and 1 for c_b.  An order p = b s + r has thus been through
    p (q + 2) + b (Q + 1) + s + 1 roundings and those of start, and the
    sum over the K layers adds K more.  Each weight is off by the absolute
    error of its log-space argument (that of lam included), a few ulps of
    its largest parts.
    """
    theta = float(g.valencies.max(initial=0.0))
    lam = theta * t
    # theta t = 0 keeps order 0 only; where theta t overflows, none is kept
    order = _poisson_order(lam) if 0.0 < lam < math.inf else int(lam == 0.0)
    layers = min(layers, order)
    if layers == 0 or lam == 0.0:
        return start[None][:layers].copy(), 0.0
    m, n = start.shape
    if inside is None:
        edges, valencies = g.adjacency, g.valencies
    else:
        edges, valencies = g.adjacency[np.ix_(inside, inside)], g.valencies[inside]
    advance = np.zeros_like(edges)
    rows = slice(None) if advancing is None else list(advancing)
    advance[rows] = edges[rows]
    step = (np.diag(theta - valencies) + (edges - advance)) / theta
    advance /= theta
    log_lam = math.log(lam)
    s = min(_BLOCK, order)
    span = min(s + 1, layers)  # D_j for j >= layers leaves every kept layer
    pad = span - 1
    # powers[r, j] is layer j of T^r (zero past layer r), n by n
    powers = np.zeros((s + 1, span, n, n))
    powers[0, 0] = np.eye(n)
    for r in range(s):
        flat = powers[r].reshape(span * n, n)
        np.matmul(flat, step, out=powers[r + 1].reshape(span * n, n))
        powers[r + 1, 1:] += (flat[:-n] @ advance).reshape(span - 1, n, n)
    # window w of an output layer is its layer pad - w places back
    diag = powers[s, ::-1].reshape(span * n, n)
    # layer j of start T^r, row i, at [r, (i, j)]: the buffers' layout
    coef = np.matmul(start, powers[:s]).transpose(0, 2, 1, 3).reshape(s, -1)

    def coefficients(b: int) -> np.ndarray:
        w = np.zeros(s)
        for r, p in enumerate(range(b * s, min(b * s + s, order))):
            w[r] = math.exp(p * log_lam - math.lgamma(p + 1.0) - lam)
        return (w @ coef).reshape(m, span, n)

    # buffers[., i, pad + k] is row i of layer k; the pad layers in front
    # stay zero and so do the layers not reached, as each buffer is written
    # up to the layers reached, which never shrink.  windows[., k] is
    # layers k - pad .. k of every row, each row one vector, and out[., k]
    # layer k
    buffers = np.zeros((2, m, pad + layers, n))
    buffer_stride, row_stride = buffers.strides[:2]
    item = buffers.itemsize
    windows = np.ndarray((2, layers, m, span * n), buffer=buffers,
                         strides=(buffer_stride, n * item, row_stride, item))
    out = buffers[:, :, pad:].transpose(0, 2, 1, 3)
    blocks = -(-order // s)
    buffers[0, :, pad:pad + span] = coefficients(blocks - 1)
    reached, src, dst = span, 0, 1
    for b in range(blocks - 2, -1, -1):
        reached = min(reached + s, layers)
        np.matmul(windows[src][:reached], diag, out=out[dst][:reached])
        buffers[dst, :, pad:pad + span] += coefficients(b)
        src, dst = dst, src
    q = int((step + advance != 0).sum(axis=0).max(initial=0))
    big_q = int((diag != 0).sum(axis=0).max(initial=0))
    q_start = int((start != 0).sum(axis=1).max(initial=0))
    log_mag = (order - 1) * (abs(log_lam) + 1.0) + math.lgamma(order) + lam
    gamma = _U * (order * (q + 2) + blocks * (big_q + 1) + s + q_start
                  + layers + 3 + 8.0 * log_mag)
    return out[src].copy(), gamma


# ---------------------------------------------------------------------------
# the one-sided series of the second gluing formula
# ---------------------------------------------------------------------------
#
# Term k of the series has left the interface k times.  Taking the
# off-diagonal entries of the interface rows as the steps that advance a
# layer, layer k of :func:`uniformized_walk` holds exactly those walks.
# Started from rows of the identity, the interface columns of layers
# 0 .. k_max sum to the truncated series dressed on the left by the
# extension kernel, and the side columns of layers 0 .. k_max + 1 add its
# dressing on the right (on layer 0, the relative kernel).  The interface
# columns of layer k_max + 1, where the walk reaches it, belong to term
# k_max + 1 and are dropped.
#
# Certificate: e^{-tL} has unit row sums, and everything left out (series
# terms past k_max, Taylor orders past the cut) is entrywise nonnegative,
# so the error of each entry of row i is at most 1 - rowsum_i of the
# truncated kernel.  Rounding is a relative error gamma per computed entry,
# charged to both the entry and its row sum.


class SeriesKernel:
    """A block of the glued heat kernel from the k_max-truncated one-sided
    series, as values at t.

    Built from one-sided data only: the relative kernels of the two sides,
    their adjacency to the interface, and the interface valencies.  Term k
    of the interface series convolves k + 1 interface decay factors with k
    one-step updates (the atom A_yy, or an excursion through one side); the
    glued kernel dresses the sum with the extension kernel on both sides.

    ``rows`` and ``cols`` are the vertex labels of the block.
    ``evaluate_with_bound(t)`` returns its values at t > 0 and a certified
    bound on their entrywise error against the exact glued kernel, from the
    row sums of the truncated kernel (every dropped piece is nonnegative
    and the exact kernel is stochastic) plus a rounding allowance.  An
    entry of the exact kernel lies in [0, 1], so a bound of 1 or more
    proves nothing, and it raises :class:`~heatglue.errors.TruncationError`
    on it by :func:`~heatglue.errors.below_prior`, the one a-priori rule of
    the package.  Each call runs one :func:`uniformized_walk` with theta
    the largest valency, whose layers are the terms of the series; past
    65536 Taylor orders the rest is left out and shows in the bound.  On a
    graph with no edge, theta t = 0 and the values are exactly the
    identity, with bound 0.  The rounding part of the bound is 3 gamma
    times the largest row sum (at least 1), gamma the relative rounding
    error that the walk counts.
    """

    def __init__(self, d: Decomposition, k_max: int, labels: Sequence):
        (k_max,) = nonnegative(k_max=k_max)
        self._graph = og = d.ordered_graph
        n1, ny = len(d.side1), len(d.interface)
        self.rows = self.cols = tuple(labels)
        self._k_max = k_max
        self._y = np.arange(n1, n1 + ny)
        self._start = np.array([og.index[v] for v in self.rows])

    def evaluate_with_bound(self, t: float) -> tuple[np.ndarray, float]:
        """Values of the block at t > 0 and a certified bound on their
        entrywise error, from one walk."""
        (t,) = positive(t=t)
        start = np.eye(self._graph.n)[self._start]
        # a step off an interface vertex starts the next term of the series
        layers, gamma = uniformized_walk(self._graph, start, self._k_max + 2,
                                         t, advancing=self._y)
        if len(layers) == self._k_max + 2:
            layers[-1][:, self._y] = 0.0
        vals = layers.sum(axis=0)
        sums = [math.fsum(row) for row in vals.tolist()]
        bound = max(1.0 - s for s in sums) + 3.0 * gamma * max(1.0, max(sums))
        return vals[:, self._start], below_prior(
            bound, 1.0, f"series at order {self._k_max}")


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def _glue_I_spectra(d: Decomposition) -> tuple[np.ndarray, ...]:
    """(y, c, w, Q_Y, mu, V, B) of formula I: the interface and off-interface
    indices in decomposition order, L = Q diag(w) Q^T, L_C = V diag(mu) V^T
    (both from :func:`_spectrum`) and B = V^T A_CY."""
    og = d.ordered_graph
    n, n1, ny = og.n, len(d.side1), len(d.interface)
    y = np.arange(n1, n1 + ny)
    c = np.concatenate((np.arange(n1), np.arange(n1 + ny, n)))
    w, q = _spectrum(og)
    mu, v = _spectrum(og, c)
    # a C-ordered copy: the order in which BLAS sums follows the layout
    a_cy = og.adjacency[c, n1:n1 + ny]
    return y, c, w, q[n1:n1 + ny], mu, v, v.T @ a_cy


def glue_I(d: Decomposition) -> KernelMatrix:
    """First gluing formula: K = K_rel + E * K_Y * E^T, exact as
    coefficients on one rate universe up to rate-merge rounding.

    Everything comes from two eigendecompositions: L = Q diag(w) Q^T of the
    glued Laplacian and L_C = V diag(mu) V^T of its block off the interface,
    C.  The interface kernel is K_Y = Q_Y e^{-wt} Q_Y^T, the relative kernel
    is V e^{-mu t} V^T on C, and the extension kernel is E = V e^{-mu t} B
    with B = V^T A_CY on C (the identity atom on the interface).  All three
    are pure exponentials on one rate universe, so each time convolution is
    one batched :func:`~heatglue.expmix.convolve_exponential` over the rates
    mu_m, weighted by V and B with einsum, and the coefficient tensor is
    the :class:`KernelMatrix` itself.
    """
    y, c, w, q, mu, v, b = _glue_I_spectra(d)
    n = w.size
    universe, rows = rate_universe(np.concatenate([w, mu]))
    onehot = np.eye(len(universe))[rows]
    at_mu = rows[n:, None, None]
    ky = np.einsum("pk,qk,kx->pqx", q, q, onehot[:n])[..., None]
    eky = np.einsum("im,mp,mpqxa->iqxa", v, b, convolve_exponential(ky, universe, at_mu))
    ekye = np.einsum("jm,mq,miqxa->ijxa", v, b, convolve_exponential(eky, universe, at_mu))
    ekye[..., 0] += np.einsum("im,jm,mx->ijx", v, v, onehot[n:])
    coef = np.zeros((n, n, len(universe), 3))
    coef[y[:, None], y, :, :1] = ky
    coef[c[:, None], y, :, :2] = eky
    coef[y[:, None], c, :, :2] = eky.transpose(1, 0, 2, 3)
    coef[c[:, None], c] = ekye
    labels = d.ordered_graph.vertices
    return KernelMatrix(labels, labels, universe, coef, np.zeros((n, n)))


# The time convolutions of glue_I, taken at t, are divided differences of
# e^{-xt}: phi(a, b) = (e^{-a.} * e^{-b.})(t) is minus the first, at a and
# b, and psi(a, b, c) = (e^{-a.} * e^{-b.} * e^{-c.})(t) the second, at a,
# b and c.  Both are positive, and each is evaluated from the spread of its
# rates over t, so that rounding is amplified by at most a factor 2.7
# (McCurdy, Ng and Parlett, Math. Comp. 43, 1984).

_PSI_BLOCK = 1 << 14  # entries of psi formed at once
_INV_FACTORIAL = 1.0 / np.array([float(math.factorial(n)) for n in range(48)])


def _h1(z: np.ndarray) -> np.ndarray:
    """(1 - e^{-z}) / z for z >= 0, and 1 at z = 0: one masked division,
    with no gather or scatter."""
    return np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0.0)


def _phi(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """(e^{-a.} * e^{-b.})(t) = t e^{-min(a, b) t} h1(|a - b| t), elementwise;
    where |a - b| t overflows, t h1 is its limit 1 / |a - b|."""
    gap = np.abs(a - b)
    with np.errstate(over="ignore"):  # e^{-inf} = 0, and z = inf is far
        low, z = np.exp(-np.minimum(a, b) * t), gap * t
    return np.divide(low, gap, out=t * low * _h1(z), where=np.isinf(z))


def _psi(a: np.ndarray, b: np.ndarray, c: np.ndarray, t: float) -> np.ndarray:
    """(e^{-a.} * e^{-b.} * e^{-c.})(t), elementwise.

    With the rates sorted lo <= mid <= hi, x = (mid - lo) t, q = (hi - mid) t
    and y = (hi - lo) t, it is t^2 e^{-lo t} (h1(x) - e^{-x} h1(q)) / y,
    and past y = 1 that difference loses at most a factor 2.7 to
    cancellation.  Up to y = 1 it is t^2 e^{-hi t} times the series
    sum_{i,j} y^i q^j / (i + j + 2)!, whose terms are positive; with i and
    j below k, the terms left out have degree i + j >= k, and those of
    degree N sum to at most (N + 1) / (N + 2)! of a series of at least 1/2.

    The rates are sorted by selection, lo = min, hi = max and
    mid = max(min(a, c), min(max(a, c), b)), each of which picks one of
    the three (which of two equal rates it picks, 0.0 or -0.0, does not
    change the value); a and c are paired because callers pass them on
    the smaller shape.  The difference is formed on every entry, and the
    series is then written over the entries not past y = 1.

    Where t^2 overflows, the difference is (phi(lo, mid) - phi(mid, hi))
    / (hi - lo), and the series is times t twice.
    """
    ac_lo, ac_hi = np.minimum(a, c), np.maximum(a, c)
    lo, hi = np.minimum(ac_lo, b), np.maximum(ac_hi, b)
    mid = np.maximum(ac_lo, np.minimum(ac_hi, b))
    over = not math.isfinite(t * t)
    with np.errstate(all="ignore"):  # y = 0 is near, y = inf far
        x, q, y = (mid - lo) * t, (hi - mid) * t, (hi - lo) * t
        out = ((_phi(lo, mid, t) - _phi(mid, hi, t)) / (hi - lo) if over
               else np.exp(-lo * t) * (_h1(x) - np.exp(-x) * _h1(q)) / y)
    near = ~(y > 1.0)
    if near.any():
        yn, qn = y[near, None], q[near, None]
        top, k = float(yn.max()), 1  # top <= 1, so k stays below 20
        while (k + 1) * top**k * _INV_FACTORIAL[k + 2] > 1e-18:
            k += 1
        powers = np.arange(k)
        coef = _INV_FACTORIAL[np.add.outer(powers, powers) + 2]
        series = ((yn**powers @ coef) * qn**powers).sum(axis=1)
        with np.errstate(over="ignore"):  # e^{-inf} = 0
            tail = np.exp(-hi[near] * t) * series
        out[near] = tail * t * t if over else tail
    return out if over else t * t * out


def glue_I_values(d: Decomposition, t: float) -> np.ndarray:
    """First gluing formula as values at t > 0: K = K_rel + E * K_Y * E^T
    from the two eigendecompositions of :func:`glue_I`, with no coefficient
    tensor.

    With G = (V^T A_CY) Q_Y, the blocks at t are K_Y = Q_Y e^{-wt} Q_Y^T on
    the interface, E * K_Y = V (G o Phi) Q_Y^T with Phi_mk = phi(mu_m, w_k)
    from C to it, and K_rel + E * K_Y * E^T = V (H + e^{-mu t}) V^T on C,
    with H_mn = sum_k G_mk G_nk psi(mu_m, w_k, mu_n), summed entry by entry
    over the upper triangle of the rows at positive rate (a row of G at
    rate mu_m = 0 is exactly 0).  All four blocks are one product
    W core W^T, W holding V on the rows of C and Q_Y on those of the
    interface.  Returns an n by n array in decomposition order, bitwise
    symmetric: the values of ``glue_I(d).evaluate(t)``, to rounding.
    """
    (t,) = positive(t=t)
    y, c, w, q, mu, v, b = _glue_I_spectra(d)
    g = b @ q
    n, nc = w.size, c.size
    basis = np.zeros((n, nc + n))
    basis[c, :nc] = v
    basis[y, nc:] = q
    core = np.zeros((nc + n, nc + n))
    r = np.count_nonzero(mu == 0.0)  # rows of G that are exactly 0
    rows = np.arange(nc - r)
    im, jn = r + np.array(np.nonzero(rows[:, None] <= rows))  # upper triangle
    block = max(1, _PSI_BLOCK // n)
    gphi = g * _phi(mu[:, None], w[None, :], t)
    h = np.zeros((nc, nc))
    for lo in range(0, im.size, block):
        i, j = im[lo:lo + block], jn[lo:lo + block]
        psi = _psi(mu[i, None], w[None, :], mu[j, None], t)
        h[i, j] = h[j, i] = (g[i] * g[j] * psi).sum(axis=1)
    with np.errstate(over="ignore"):  # e^{-inf} = 0 where rate t overflows
        h[np.diag_indices(nc)] += np.exp(-mu * t)
        core[nc:, nc:] = np.diag(np.exp(-w * t))
    core[:nc, :nc] = h
    core[:nc, nc:] = gphi
    core[nc:, :nc] = gphi.T
    return _mirror_upper(basis @ core @ basis.T)


def glue_II(d: Decomposition, k_max: int) -> SeriesKernel:
    """Second gluing formula: as glue_I but with the interface kernel replaced
    by its k_max-truncated one-sided series: a :class:`SeriesKernel` over
    the vertices in decomposition order, whose ``evaluate_with_bound(t)``
    gives values at t > 0 and their certified error bound, the largest
    row-sum deficit of the truncated kernel plus a rounding allowance.
    """
    return SeriesKernel(d, k_max, d.ordered_graph.vertices)


def schur_cut(g: Graph, y: Sequence, m2: float) -> tuple[np.ndarray, float]:
    """Green's matrix of the y-killed graph, both directly and by Schur
    complement of the full Green's matrix; returns (matrix, max abs gap).

    Both come from :func:`_spectrum`: the direct one is U (mu + m2)^-1 U^T,
    with L_aa = U mu U^T on the block a off y (a component with no vertex of
    y has rate exactly 0), and the full one is G = Z Z^T / m2 + P, Z the
    zero modes of L and P the rest.  At small m2 the first part swamps P, so
    the Schur complement of a against the block b on y applies Z as a
    low-rank Woodbury update instead of solving against G_bb:

        S = P_aa - P_ab M P_ba + V (m2 I + Z_b^T M Z_b)^-1 V^T,

    with M = P_bb^-1 and V = Z_a - P_ab M Z_b.  Vertices of y whose
    component lies inside y decouple from a and are left out of b.  y must
    be nonempty, as the interface of a :class:`Decomposition` is.
    """
    (m2,) = positive(m2=m2)
    y = tuple(y)
    yset = set(y)
    if not y:
        raise ValueError("interface must be nonempty")
    g.indices(y)
    a = [i for i, v in enumerate(g.vertices) if v not in yset]
    if not a:
        return np.zeros((0, 0)), 0.0

    mu, u = _spectrum(g, a)
    direct = (u / (mu + m2)) @ u.T

    labels = g.components
    touched = set(labels[a])
    b = [i for i, v in enumerate(g.vertices) if v in yset and labels[i] in touched]
    r = int(labels.max()) + 1
    w, vectors = _spectrum(g)
    z, q = vectors[:, :r], vectors[:, r:]
    p = (q / (w[r:] + m2)) @ q.T
    pa, pb = p.take(a, 0), p.take(b, 0)
    m = np.linalg.inv(pb.take(b, 1))
    pab = pa.take(b, 1)
    v = z[a] - pab @ m @ z[b]
    cap = m2 * np.eye(r) + z[b].T @ m @ z[b]
    via_schur = (pa.take(a, 1) - pab @ m @ pb.take(a, 1)
                 + v @ np.linalg.solve(cap, v.T))
    return direct, float(np.abs(direct - via_schur).max())


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
