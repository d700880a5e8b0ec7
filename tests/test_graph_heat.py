from __future__ import annotations

import dataclasses
import importlib.resources
import itertools
import json
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph

from conftest import allclose, dense_walk, taylor_expm
from heatglue.errors import TruncationError
from heatglue.expmix import ExpMix, evaluate, laplace, structural_max_diff
from heatglue import graph_heat
from heatglue.graph_heat import (
    Decomposition,
    Graph,
    KernelMatrix,
    SeriesKernel,
    decomposition_from_dict,
    extension_kernel,
    glue_I,
    glue_I_values,
    glue_II,
    graph_from_dict,
    heat_kernel,
    heat_values,
    interface_kernel,
    random_decomposition,
    relative_heat_kernel,
    schur_cut,
)
from heatglue.path_sum import LENGTH_CAP

LINE3 = Graph(("1", "2", "3"), (("1", "2"), ("2", "3")))
LINE3_SPLIT = Decomposition(LINE3, ("2",), ("1",), ("3",))


def line_graph(n: int) -> Graph:
    verts = tuple(str(i) for i in range(n + 1))
    return Graph(verts, tuple((str(i), str(i + 1)) for i in range(n)))


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    verts = tuple(f"v{i}" for i in range(n))
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(verts, tuple(edges))


# ---------------------------------------------------------------------------
# graph construction and the Laplacian
# ---------------------------------------------------------------------------


def test_laplacian_line3():
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.array_equal(LINE3.laplacian.entries, expected)


def test_laplacian_edgeless_and_complete():
    assert np.array_equal(Graph(("a", "b"), ()).laplacian.entries, np.zeros((2, 2)))
    k4 = Graph(
        ("a", "b", "c", "d"),
        (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    )
    assert np.array_equal(k4.laplacian.entries, 4.0 * np.eye(4) - np.ones((4, 4)))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(("a", "a"), ())
    with pytest.raises(ValueError):
        Graph(("a", "b"), (("a", "a"),))
    with pytest.raises(ValueError):
        Graph(("a", "b"), (("a", "c"),))
    with pytest.raises(ValueError):
        Graph(("a", "b"), (("a", "b"), ("b", "a")))


def test_graph_json_round_trip():
    d = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}
    assert graph_from_dict(json.loads(json.dumps(d))) == LINE3


# ---------------------------------------------------------------------------
# heat kernel
# ---------------------------------------------------------------------------


def test_line3_heat_kernel_closed_forms():
    k = heat_kernel(LINE3)
    third = 1.0 / 3.0
    cases = {
        ("1", "1"): ((third, 0, 0.0), (0.5, 0, 1.0), (1.0 / 6.0, 0, 3.0)),
        ("1", "2"): ((third, 0, 0.0), (-third, 0, 3.0)),
        ("1", "3"): ((third, 0, 0.0), (-0.5, 0, 1.0), (1.0 / 6.0, 0, 3.0)),
        ("2", "2"): ((third, 0, 0.0), (2.0 / 3.0, 0, 3.0)),
        ("3", "3"): ((third, 0, 0.0), (0.5, 0, 1.0), (1.0 / 6.0, 0, 3.0)),
    }
    for (u, v), terms in cases.items():
        assert allclose(k.entry(u, v), ExpMix(0.0, terms), atol=1e-13)


def test_single_vertex_kernel_is_one():
    k = heat_kernel(Graph(("x",), ()))
    m = k.entry("x", "x")
    assert m.atom == 0.0
    assert len(m.terms) == 1 and m.terms[0].rate == 0.0
    assert m.terms[0].coef == pytest.approx(1.0, abs=1e-14)


def test_heat_kernel_matches_taylor_exponential():
    rng = np.random.default_rng(42)
    for _ in range(3):
        g = random_graph(rng, 6)
        k = heat_kernel(g)
        lap = g.laplacian.entries
        for t in (0.3, 1.0, 4.0):
            assert np.abs(k.evaluate(t) - taylor_expm(-t * lap)).max() < 1e-10


def test_heat_kernel_invariants():
    rng = np.random.default_rng(1234)
    g = random_graph(rng, 7)
    k = heat_kernel(g)
    for t in (0.1, 1.0, 5.0):
        mat = k.evaluate(t)
        assert mat.min() > -1e-12
        assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-10
    # exact symmetry as canonical coefficient data
    for u in g.vertices:
        for v in g.vertices:
            assert k.entry(u, v) == k.entry(v, u)
    # semigroup
    assert np.abs(k.evaluate(0.4) @ k.evaluate(1.1) - k.evaluate(1.5)).max() < 1e-10


def green(g: Graph, m2: float) -> np.ndarray:
    """The Green's matrix (L + m2 I)^-1 of g."""
    return np.linalg.inv(g.laplacian.entries + m2 * np.eye(g.n))


def laplace_matrix(k: KernelMatrix, s: float) -> np.ndarray:
    """The Laplace image at s of every entry of k."""
    return np.array([[laplace(k.entry(u, v), s) for v in k.cols]
                     for u in k.rows])


def test_laplace_duality_with_green():
    rng = np.random.default_rng(77)
    g = random_graph(rng, 6)
    k = heat_kernel(g)
    for m2 in (0.5, 1.0, 2.0):
        assert np.abs(laplace_matrix(k, m2) - green(g, m2)).max() < 1e-11


# ---------------------------------------------------------------------------
# the coefficient tensor of a kernel matrix
# ---------------------------------------------------------------------------


def gate_02_draws() -> list[Decomposition]:
    """The 50 random splits of the first-formula gate."""
    rng = np.random.default_rng(20260822)
    return [random_decomposition(rng, 12) for _ in range(50)]


def test_kernel_tensor_evaluate_matches_entries():
    for d in gate_02_draws():
        for k in (glue_I(d), heat_kernel(d.ordered_graph)):
            mixes = [[k.entry(u, v) for v in k.cols] for u in k.rows]
            for t in (0.25, 1.0, 4.0):
                want = np.array([[evaluate(m, t) for m in row] for row in mixes])
                assert np.abs(k.evaluate(t) - want).max() <= 1e-15


def test_heat_kernel_tensor_is_bitwise_symmetric():
    for d in gate_02_draws():
        k = heat_kernel(d.ordered_graph)
        assert np.array_equal(k.coef, k.coef.transpose(1, 0, 2, 3))
        assert k.entry(k.rows[0], k.rows[-1]) == k.entry(k.rows[-1], k.rows[0])


def test_heat_values_match_the_matrix_exponential():
    line3 = graph_from_dict(json.loads(
        importlib.resources.files("heatglue")
        .joinpath("fixtures", "line3.json").read_text()))
    for g in [d.ordered_graph for d in gate_02_draws()] + [line3]:
        exact = heat_kernel(g)
        for t in (0.25, 1.0, 4.0):
            values = heat_values(g, t)
            want = scipy.linalg.expm(-t * g.laplacian.entries)
            assert np.abs(values - want).max() < 1e-13
            assert np.abs(values - exact.evaluate(t)).max() < 1e-14
            assert np.array_equal(values, values.T)


def test_heat_values_rejects_bad_t():
    # a time is refused by errors.positive, the one rule of a time, t = 0
    # included
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^t must be positive and finite"):
            heat_values(LINE3, t)


def test_kernel_evaluate_is_repeatable():
    for d in gate_02_draws():
        k = glue_I(d)
        for t in (0.25, 1.0, 4.0):
            assert np.array_equal(k.evaluate(t), k.evaluate(t))


def test_kernel_matrix_rejects_a_misshapen_tensor():
    with pytest.raises(ValueError):
        KernelMatrix(("a",), ("b", "c"), np.zeros(2), np.zeros((1, 2, 3, 1)),
                     np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# relative kernel
# ---------------------------------------------------------------------------


def test_dirichlet_line_sine_formula():
    n = 4
    g = line_graph(n)
    k = relative_heat_kernel(g, ("0", "4"))
    for t in (0.3, 1.2):
        for x in range(1, n):
            for yv in range(1, n):
                ref = sum(
                    (2.0 / n)
                    * math.sin(math.pi * j * x / n)
                    * math.sin(math.pi * j * yv / n)
                    * math.exp(-4.0 * math.sin(math.pi * j / (2 * n)) ** 2 * t)
                    for j in range(1, n)
                )
                got = evaluate(k.entry(str(x), str(yv)), t)
                assert got == pytest.approx(ref, abs=1e-12)


def test_relative_kernel_zero_on_interface():
    k = relative_heat_kernel(LINE3, ("2",))
    for v in ("1", "2", "3"):
        assert k.entry("2", v).is_zero()
        assert k.entry(v, "2").is_zero()


def test_relative_kernel_fully_surrounded_vertex():
    # star center with all leaves killed: 1x1 block with the full valency
    g = Graph(("c", "a", "b", "d"), (("c", "a"), ("c", "b"), ("c", "d")))
    k = relative_heat_kernel(g, ("a", "b", "d"))
    assert allclose(k.entry("c", "c"), ExpMix(0.0, ((1.0, 0, 3.0),)), atol=1e-13)


def test_relative_kernel_matches_taylor_exponential():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 7)
    y = ("v0", "v3")
    k = relative_heat_kernel(g, y)
    comp = [i for i, v in enumerate(g.vertices) if v not in y]
    lap = g.laplacian.entries[np.ix_(comp, comp)]
    for t in (0.5, 2.0):
        sub = k.evaluate(t)[np.ix_(comp, comp)]
        assert np.abs(sub - taylor_expm(-t * lap)).max() < 1e-10


def test_relative_rejects_full_interface():
    with pytest.raises(ValueError):
        relative_heat_kernel(LINE3, ("1", "2", "3"))


# ---------------------------------------------------------------------------
# extension kernel
# ---------------------------------------------------------------------------


def test_extension_two_vertex_line():
    g = Graph(("1", "2"), (("1", "2"),))
    e = extension_kernel(g, ("2",))
    assert allclose(e.entry("1", "2"), ExpMix(0.0, ((1.0, 0, 1.0),)), atol=1e-13)
    boundary = e.entry("2", "2")
    assert boundary.atom == 1.0 and boundary.terms == ()


def test_extension_identity_on_interface():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 6)
    y = ("v1", "v4")
    e = extension_kernel(g, y)
    for a in y:
        for b in y:
            m = e.entry(a, b)
            assert m.atom == (1.0 if a == b else 0.0)
            assert m.terms == ()


def _rk4_boundary_response(g: Graph, y: tuple, eta: np.ndarray, t_end: float,
                           steps: int = 4000) -> np.ndarray:
    """Step response of the killed flow driven by static boundary data."""
    lap = g.laplacian.entries
    comp = [i for i, v in enumerate(g.vertices) if v not in set(y)]
    yi = [g.index[v] for v in y]
    m = -lap[np.ix_(comp, comp)]
    force = g.adjacency[np.ix_(comp, yi)] @ eta
    u = np.zeros(len(comp))
    h = t_end / steps
    rhs = lambda state: m @ state + force
    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def mass(f: ExpMix, t: float) -> float:
    """The mass of f on [0, t]: its atom plus the integral of the rest, by
    40-point Gauss-Legendre quadrature."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    s = 0.5 * t * (nodes + 1.0)
    return f.atom + 0.5 * t * float(np.dot(weights,
                                           [evaluate(f, si) for si in s]))


def test_extension_solves_boundary_value_problem():
    rng = np.random.default_rng(31)
    g = random_graph(rng, 7)
    y = ("v2", "v5")
    eta = rng.standard_normal(2)
    e = extension_kernel(g, y)
    t_end = 1.0
    ref = _rk4_boundary_response(g, y, eta, t_end)
    comp = [v for v in g.vertices if v not in set(y)]
    got = np.array([
        sum(mass(e.entry(v, yv), t_end) * eta[j] for j, yv in enumerate(y))
        for v in comp
    ])
    assert np.abs(got - ref).max() < 1e-8


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann
# ---------------------------------------------------------------------------


def dn_total(g1: Graph, g2: Graph, y: tuple, m2: float) -> np.ndarray:
    """Two-sided Dirichlet-to-Neumann matrix on the shared interface y.

    Each side's is the inverse of the y-y block of its Green's matrix.  The
    sides must intersect exactly in y and agree on its internal edges; the
    shared interface Laplacian plus m2 is counted once, so it is removed
    after summing the one-sided matrices.
    """
    if set(g1.vertices) & set(g2.vertices) != set(y):
        raise ValueError("graphs must share exactly the interface vertex set")
    if ({frozenset(e) for e in g1.induced(y).edges}
            != {frozenset(e) for e in g2.induced(y).edges}):
        raise ValueError("graphs disagree on interface-internal edges")

    def one_sided(g: Graph) -> np.ndarray:
        yi = g.indices(y)
        return np.linalg.inv(green(g, m2)[np.ix_(yi, yi)])

    ly = g1.induced(y).laplacian.entries
    return one_sided(g1) + one_sided(g2) - (ly + m2 * np.eye(len(y)))


def test_dn_line3_value():
    g1 = Graph(("1", "2"), (("1", "2"),))
    g2 = Graph(("2", "3"), (("2", "3"),))
    for m2 in (0.5, 1.0, 2.0):
        got = dn_total(g1, g2, ("2",), m2)
        ref = m2 * (3.0 + m2) / (1.0 + m2)
        assert got[0, 0] == pytest.approx(ref, rel=1e-12)


def test_dn_edgeless_pair():
    g1 = Graph(("a", "y"), ())
    g2 = Graph(("y", "b"), ())
    got = dn_total(g1, g2, ("y",), 1.5)
    assert got[0, 0] == pytest.approx(1.5, rel=1e-12)


def test_dn_rejects_mismatched_interfaces():
    g1 = Graph(("1", "2"), (("1", "2"),))
    g2 = Graph(("1", "3"), (("1", "3"),))
    with pytest.raises(ValueError):
        dn_total(g1, g2, ("2",), 1.0)


def test_dn_footnote_matches_assembled():
    rng = np.random.default_rng(10)
    for _ in range(5):
        d = random_decomposition(rng, 10)
        g1, g2 = d.side_graphs
        y = d.interface
        for m2 in (0.5, 2.0):
            combined = dn_total(g1, g2, y, m2)
            gm = green(d.graph, m2)
            yi = [d.graph.index[v] for v in y]
            assembled = np.linalg.inv(gm[np.ix_(yi, yi)])
            assert np.abs(combined - assembled).max() < 1e-10


# ---------------------------------------------------------------------------
# the layered walk
# ---------------------------------------------------------------------------


def _assert_walks_agree(got, want, lam):
    # both walks sum the same orders of nonnegative terms, so each entry of
    # one is within the other's rounding plus its own, relative; the walk
    # returns the layers its orders reach, and the dense walk's others are
    # empty
    (sums, gamma), (want, want_gamma) = got, want
    reached = min(len(want), graph_heat._poisson_order(lam))
    assert sums.shape == want[:reached].shape and not want[reached:].any()
    want = want[:reached]
    assert np.all(np.abs(sums - want) <= (gamma + want_gamma) * want)


def _series_split(d: Decomposition):
    """step, advance and theta of the second gluing formula's walk."""
    og = d.ordered_graph
    y = np.arange(len(d.side1), len(d.side1) + len(d.interface))
    theta = float(og.valencies.max())
    shifted = theta * np.eye(og.n) - og.laplacian.entries
    advance = np.zeros_like(shifted)
    advance[y] = shifted[y]
    advance[y, y] = 0.0
    return shifted - advance, advance, theta


def _path_sum_split(g: Graph):
    """step, advance and theta of a path sum's walk: every edge advances."""
    vals = g.valencies
    d_max = float(vals.max())
    return np.diag(d_max - vals), g.adjacency, d_max


def _series_walks(d: Decomposition, start, layers, t):
    """The walk of the second gluing formula, the dense walk of its split,
    and theta t."""
    y = np.arange(len(d.side1), len(d.side1) + len(d.interface))
    step, advance, theta = _series_split(d)
    return (graph_heat.uniformized_walk(d.ordered_graph, start, layers, t,
                                        advancing=y),
            dense_walk(step, advance, start, layers, theta, t), theta * t)


def _path_sum_walks(g: Graph, start, t):
    """The walk of a path sum over lengths 0 .. LENGTH_CAP, the dense walk
    of its split, and theta t."""
    step, advance, theta = _path_sum_split(g)
    return (graph_heat.uniformized_walk(g, start, LENGTH_CAP + 1, t),
            dense_walk(step, advance, start, LENGTH_CAP + 1, theta, t),
            theta * t)


def test_walk_grows_its_layers_as_the_dense_walk_within_gamma():
    # gate-03 draws: at t = 0.25 the Poisson order stays below 42 layers,
    # at t = 4 it passes them; k_max 0 and 3 are passed at every t
    rng = np.random.default_rng(20260822)
    for _ in range(50):
        d = random_decomposition(rng, 12)
        start = np.eye(d.ordered_graph.n)
        for t in (0.25, 1.0, 4.0):
            for k_max in (0, 3, 40):
                _assert_walks_agree(*_series_walks(d, start, k_max + 2, t))


def test_walk_at_zero_theta_t_stays_at_its_start():
    # the Poisson law at mean 0 is a unit mass at order 0, which reaches
    # layer 0 only: the start itself, exactly, with no rounding
    d = random_decomposition(np.random.default_rng(3), 12)
    start = np.eye(d.ordered_graph.n)[:2]
    (sums, gamma), (want, want_gamma), _ = _series_walks(d, start, 5, 0.0)
    assert np.array_equal(sums, want[:1]) and not want[1:].any()
    assert gamma == want_gamma == 0.0
    assert sums.shape == (1,) + start.shape and np.array_equal(sums[0], start)


def test_walk_of_a_graph_with_no_edge_is_its_start():
    # theta is the largest valency, 0 here, so theta t = 0 at every t
    g = Graph(("a", "y", "b"))
    start = np.eye(3)[1:]
    for t in (1e-300, 1.0, 1.7e308):
        sums, gamma = graph_heat.uniformized_walk(g, start, 5, t)
        assert np.array_equal(sums, start[None]) and gamma == 0.0
    for k_max in (0, 3):
        kern = SeriesKernel(Decomposition(g, ("y",)), k_max, g.vertices)
        values, bound = kern.evaluate_with_bound(2.0)
        assert np.array_equal(values, np.eye(3)) and bound == 0.0


def test_walk_with_no_advancing_row_keeps_the_heat_flow_in_layer_0():
    # no step starts a new layer, so layer 0 holds all of e^{-tL}, and the
    # later layers its orders reach are exactly 0
    og = random_decomposition(np.random.default_rng(3), 12).ordered_graph
    want = scipy.linalg.expm(-og.laplacian.entries)
    for advancing in ([], (), np.array([], dtype=int)):
        sums, gamma = graph_heat.uniformized_walk(og, np.eye(og.n), 4, 1.0,
                                                  advancing=advancing)
        assert sums.shape == (4, og.n, og.n) and not sums[1:].any()
        assert np.abs(sums[0] - want).max() < 1e-13


def test_walk_where_theta_t_overflows_keeps_no_order():
    # the Poisson weights at an infinite mean are all 0: no order is kept,
    # so no layer is reached and none is returned, with no NaN and no
    # RuntimeWarning
    d = random_decomposition(np.random.default_rng(3), 12)
    og = d.ordered_graph
    start = np.eye(og.n)[:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sums, gamma = graph_heat.uniformized_walk(og, start, 5, 1.7e308)
    assert float(og.valencies.max()) * 1.7e308 == math.inf
    assert sums.shape == (0, 2, og.n) and gamma == 0.0


def test_walk_of_no_layer_returns_none():
    d = random_decomposition(np.random.default_rng(3), 12)
    og = d.ordered_graph
    for t in (0.0, 1.0):
        sums, gamma = graph_heat.uniformized_walk(og, np.eye(og.n)[:2], 0, t)
        assert sums.shape == (0, 2, og.n) and gamma == 0.0


def graphs_of_the_default_paths() -> list[Graph]:
    """The gate-02 glued graphs, their side graphs (some of several
    components), and graphs of several components with isolated vertices."""
    graphs = [Graph(("a", "b", "c", "p", "q", "r"),
                    (("a", "b"), ("b", "c"), ("p", "q"), ("q", "r"),
                     ("r", "p"))),
              Graph(("x", "a", "b", "y"), (("a", "b"),)),
              Graph(("a", "b", "c"))]
    for d in gate_02_draws():
        graphs += [d.ordered_graph, *d.side_graphs]
    assert sum(len(set(g.components.tolist())) > 1 for g in graphs) > 20
    return graphs


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_walk_over_every_vertex_is_the_walk_inside_all_of_them():
    # inside=None walks g's own adjacency and valencies, with no gather
    for g in graphs_of_the_default_paths():
        every = np.arange(g.n)
        for start, advancing in ((np.eye(g.n), None),
                                 (np.eye(g.n)[:1], every[:g.n // 2])):
            for t in (0.3, 4.0):
                sums, gamma = graph_heat.uniformized_walk(
                    g, start, 6, t, advancing=advancing)
                want, want_gamma = graph_heat.uniformized_walk(
                    g, start, 6, t, inside=every, advancing=advancing)
                assert same_bits(sums, want) and gamma == want_gamma


def test_spectrum_of_every_vertex_is_the_spectrum_on_all_of_them():
    # keep=None takes every component as inside, with no count of them
    for g in graphs_of_the_default_paths():
        w, q = graph_heat._spectrum(g)
        want_w, want_q = graph_heat._spectrum(g, list(range(g.n)))
        assert same_bits(w, want_w) and same_bits(q, want_q)


def test_walk_of_a_path_sum_matches_the_dense_walk():
    # one start row, every edge advancing, one layer per path length
    rng = np.random.default_rng(20260822)
    for _ in range(10):
        g = random_decomposition(rng, 12).ordered_graph
        for u in range(g.n):
            start = np.eye(g.n)[u:u + 1]
            for t in (0.03, 0.3, 0.7, 4.0):
                _assert_walks_agree(*_path_sum_walks(g, start, t))


def test_walk_at_five_thousand_orders_matches_the_dense_walk():
    # theta t = 5000 on the 3-vertex line, a few thousand Horner blocks
    _assert_walks_agree(*_series_walks(LINE3_SPLIT, np.eye(3), 5, 2500.0))
    _assert_walks_agree(*_path_sum_walks(LINE3, np.eye(3)[:1], 2500.0))


def _exact_walk(step, advance, start, layers, theta, t) -> list:
    """sum_{p<P} w_p start T^p over the first ``layers`` layers in 50
    digits, with P the walk's Poisson order: T steps by step/theta within
    a layer and by advance/theta to the next, and w_p = e^-lam lam^p / p!"""
    m, n = start.shape
    with mpmath.workdps(50):
        theta = mpmath.mpf(theta)
        lam = theta * mpmath.mpf(t)
        s = [[mpmath.mpf(v) / theta for v in row] for row in step.tolist()]
        a = [[mpmath.mpf(v) / theta for v in row] for row in advance.tolist()]
        zero = [[mpmath.mpf(0)] * n for _ in range(m)]
        x = [[[mpmath.mpf(v) for v in row] for row in start.tolist()]]
        x += [zero] * (layers - 1)
        acc = [zero] * layers
        w = mpmath.exp(-lam)
        for p in range(graph_heat._poisson_order(float(theta * t))):
            acc = [[[u + w * v for u, v in zip(ra, rx)] for ra, rx in zip(la, lx)]
                   for la, lx in zip(acc, x)]
            w = w * lam / (p + 1)
            x = [[[mpmath.fsum(row[i] * s[i][j] for i in range(n))
                   + (mpmath.fsum(prev[i] * a[i][j] for i in range(n)) if k else 0)
                   for j in range(n)]
                  for row, prev in zip(x[k], x[k - 1] if k else x[k])]
                 for k in range(layers)]
    return acc


def test_walk_rounding_is_within_gamma_of_fifty_digits():
    # small splits in both shapes; entries small enough to underflow on
    # the way are outside a relative rounding count and are skipped, and
    # the layers the walk leaves out are exactly 0 in 50 digits too
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(2):
        d = random_decomposition(rng, 5)
        og = d.ordered_graph
        y = np.arange(len(d.side1), len(d.side1) + len(d.interface))
        cases.append((lambda t, og=og, y=y: graph_heat.uniformized_walk(
            og, np.eye(og.n), 5, t, advancing=y),
            *_series_split(d), np.eye(og.n), 5))
        cases.append((lambda t, og=og: graph_heat.uniformized_walk(
            og, np.eye(og.n)[:1], LENGTH_CAP + 1, t),
            *_path_sum_split(og), np.eye(og.n)[:1], LENGTH_CAP + 1))
    for walk, step, advance, theta, start, layers in cases:
        for t in (0.25, 1.0, 4.0):
            sums, gamma = walk(t)
            exact = _exact_walk(step, advance, start, layers, theta, t)
            assert all(v == 0 for k in exact[len(sums):] for r in k for v in r)
            with mpmath.workdps(50):
                for got, want in zip(sums.ravel().tolist(),
                                     (v for k in exact for r in k for v in r)):
                    if want == 0:
                        assert got == 0.0
                    elif want > 1e-250:
                        assert abs(mpmath.mpf(got) - want) <= gamma * want


def _linear_poisson_order(lam: float) -> int:
    """The first order past lam whose tail bound is below the cut, by
    trying each order in turn."""
    if lam >= graph_heat._MAX_ORDER:
        return graph_heat._MAX_ORDER
    log_cut, log_lam = math.log(graph_heat._POISSON_TAIL), math.log(lam)
    for p in range(int(lam) + 1, graph_heat._MAX_ORDER):
        if (p * log_lam - math.lgamma(p + 1.0) - lam
                - math.log1p(-lam / (p + 1.0))) < log_cut:
            return p
    return graph_heat._MAX_ORDER


def test_poisson_order_is_the_first_order_past_the_cut():
    rng = np.random.default_rng(7)
    lams = np.concatenate([10.0 ** rng.uniform(-30, 4.9, 2000),
                           np.arange(1, 400) * 0.25, [65535.9, 65536.0, 9e4]])
    for lam in lams.tolist():
        assert graph_heat._poisson_order(lam) == _linear_poisson_order(lam)


def test_series_past_the_order_cap_raises_within_a_time_budget():
    # theta t = 140000: the 65536 orders kept hold almost none of the
    # Poisson weight, so every row sum is near 0 and the bound near 1
    kern = glue_II(LINE3_SPLIT, 3)
    t0 = time.perf_counter()
    with pytest.raises(TruncationError):
        kern.evaluate_with_bound(70000.0)
    assert time.perf_counter() - t0 < 5.0


def test_series_at_sixty_vertices_matches_expm_within_its_bound():
    # the first random_decomposition draw of 55 to 65 vertices
    rng = np.random.default_rng(60)
    d = random_decomposition(rng, 65)
    while not 55 <= d.ordered_graph.n <= 65:
        d = random_decomposition(rng, 65)
    lap = d.ordered_graph.laplacian.entries
    kern = glue_II(d, 40)
    for t in (0.25, 1.0, 4.0):
        t0 = time.perf_counter()
        vals, bound = kern.evaluate_with_bound(t)
        assert time.perf_counter() - t0 < 10.0
        assert bound < 1e-9
        assert np.abs(vals - scipy.linalg.expm(-t * lap)).max() <= bound


# ---------------------------------------------------------------------------
# interface kernel, both routes
# ---------------------------------------------------------------------------


def test_interface_kernel_line3():
    ifk = interface_kernel(LINE3_SPLIT)
    expected = ExpMix(0.0, ((1.0 / 3.0, 0, 0.0), (2.0 / 3.0, 0, 3.0)))
    assert allclose(ifk.entry("2", "2"), expected, atol=1e-13)


def test_interface_kernel_laplace_inverts_dn():
    rng = np.random.default_rng(21)
    d = random_decomposition(rng, 9)
    ifk = interface_kernel(d)
    g1, g2 = d.side_graphs
    for m2 in (0.5, 2.0):
        lap_mat = laplace_matrix(ifk, m2)
        dn = dn_total(g1, g2, d.interface, m2)
        assert np.abs(lap_mat @ dn - np.eye(len(d.interface))).max() < 1e-9


def test_series_line3_partial_sums_converge():
    ifk = interface_kernel(LINE3_SPLIT)
    t = 1.0
    ref = ifk.evaluate(t)[0, 0]
    errs = []
    for k_max in (0, 2, 5, 8):
        values, bound = SeriesKernel(
            LINE3_SPLIT, k_max, LINE3_SPLIT.interface).evaluate_with_bound(t)
        err = abs(values[0, 0] - ref)
        assert err <= bound
        errs.append(err)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-8


def test_series_line3_deep_truncation_stays_within_bound():
    # deep truncations leave a truncation error near rounding level; the
    # reported bound has to keep covering the observed difference there too
    ifk = interface_kernel(LINE3_SPLIT)
    for k_max in (20, 40):
        s = SeriesKernel(LINE3_SPLIT, k_max, LINE3_SPLIT.interface)
        for t in (0.25, 1.0, 4.0):
            values, bound = s.evaluate_with_bound(t)
            assert abs(values[0, 0] - ifk.evaluate(t)[0, 0]) <= bound


def test_series_walks_only_the_layers_its_orders_reach():
    # at t = 1 the 27 Taylor orders kept on line3 reach layers 0 .. 26
    # only, so a deeper truncation walks no more layers: the same bits,
    # the same bound and the same working memory at every k_max past them
    assert graph_heat._poisson_order(2.0) == 27
    results, peaks = [], []
    for k_max in (40, 2000, 20000):
        kern = SeriesKernel(LINE3_SPLIT, k_max, LINE3.vertices)
        tracemalloc.start()
        try:
            results.append(kern.evaluate_with_bound(1.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    (values, bound), *deeper = results
    for other, other_bound in deeper:
        assert np.array_equal(bits(other), bits(values)) and other_bound == bound
    assert max(peaks) < 1.5 * min(peaks)


def test_series_bound_rejects_bad_t():
    s = SeriesKernel(LINE3_SPLIT, 3, LINE3_SPLIT.interface)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            s.evaluate_with_bound(t)


def test_series_exact_when_one_step_factor_vanishes():
    # interface vertex isolated from both sides: the one-step factor is zero
    g = Graph(("a", "y", "b"), ())
    d = Decomposition(g, ("y",), ("a",), ("b",))
    s = SeriesKernel(d, 0, d.interface)
    closed = ExpMix(0.0, ((1.0, 0, 0.0),))
    for t in (0.25, 1.0, 4.0):
        values, _ = s.evaluate_with_bound(t)
        assert abs(values[0, 0] - evaluate(closed, t)) < 1e-13


def test_series_matches_assembled_on_random_splits():
    rng = np.random.default_rng(100)
    for _ in range(3):
        d = random_decomposition(rng, 10)
        ifk = interface_kernel(d)
        for k_max in (6, 40):
            values, bound = SeriesKernel(
                d, k_max, d.interface).evaluate_with_bound(1.0)
            assert np.abs(values - ifk.evaluate(1.0)).max() <= bound


def test_series_evaluate_with_bound_equals_separate_calls():
    d = random_decomposition(np.random.default_rng(101), 12)
    kern = glue_II(d, 20)
    for t in (0.25, 1.0, 4.0):
        values, b = kern.evaluate_with_bound(t)
        again, b_again = kern.evaluate_with_bound(t)
        assert np.array_equal(values, again) and b_again == b


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def test_glue_I_line3_closed_forms():
    k = glue_I(LINE3_SPLIT)
    sixth = 1.0 / 6.0
    assert allclose(
        k.entry("1", "3"),
        ExpMix(0.0, ((1.0 / 3.0, 0, 0.0), (-0.5, 0, 1.0), (sixth, 0, 3.0))),
        atol=1e-12,
    )
    assert allclose(
        k.entry("3", "3"),
        ExpMix(0.0, ((1.0 / 3.0, 0, 0.0), (0.5, 0, 1.0), (sixth, 0, 3.0))),
        atol=1e-12,
    )


def symmetric_splits() -> list[Decomposition]:
    """Splits whose glued and interface-killed spectra share eigenvalues
    exactly, so gluing I meets confluent rates."""
    cycle = Graph(tuple(range(8)), tuple((i, (i + 1) % 8) for i in range(8)))
    star = Graph(tuple(range(7)), tuple((0, i) for i in range(1, 7)))
    cells = tuple((r, c) for r in range(4) for c in range(3))
    grid = Graph(cells, tuple(((r, c), (r, c + 1)) for r in range(4) for c in range(2))
                 + tuple(((r, c), (r + 1, c)) for r in range(3) for c in range(3)))
    k6 = Graph(tuple(range(6)), tuple((i, j) for i in range(6) for j in range(i + 1, 6)))
    return [
        Decomposition(cycle, (0, 4)),
        Decomposition(star, (0,)),
        Decomposition(grid, tuple((r, 1) for r in range(4))),
        Decomposition(k6, (0,)),
    ]


def test_glue_I_equals_assembled_kernel():
    rng = np.random.default_rng(2024)
    draws = [random_decomposition(rng, 12) for _ in range(8)]
    for d in draws + symmetric_splits():
        glued = glue_I(d)
        assembled = heat_kernel(d.ordered_graph)
        worst = 0.0
        for u in glued.rows:
            for v in glued.cols:
                worst = max(worst, structural_max_diff(glued.entry(u, v),
                                                       assembled.entry(u, v)))
        assert worst < 1e-10


def test_glue_I_dirichlet_correction_nonnegative():
    rng = np.random.default_rng(55)
    d = random_decomposition(rng, 10)
    og = d.ordered_graph
    k = glue_I(d)
    rel = relative_heat_kernel(og, d.interface)
    for t in (0.3, 1.0, 4.0):
        diff = k.evaluate(t) - rel.evaluate(t)
        n1 = len(d.side1)
        assert diff[:n1, :n1].min() > -1e-12
        assert diff[n1 + len(d.interface):, n1 + len(d.interface):].min() > -1e-12


def test_glue_II_line3_entry():
    ref = ExpMix(0.0, ((1.0 / 3.0, 0, 0.0), (-0.5, 0, 1.0), (1.0 / 6.0, 0, 3.0)))
    for k_max in (8, 20):
        k = glue_II(LINE3_SPLIT, k_max)
        i, j = k.rows.index("1"), k.cols.index("3")
        for t in (0.5, 1.0, 2.0):
            values, bound = k.evaluate_with_bound(t)
            assert abs(values[i, j] - evaluate(ref, t)) <= bound
    values, _ = glue_II(LINE3_SPLIT, 8).evaluate_with_bound(1.0)
    assert abs(values[i, j] - evaluate(ref, 1.0)) < 1e-7


def test_glue_II_exact_for_vanishing_one_step_factor():
    g = Graph(("a", "y", "b"), (("a", "y"), ("y", "b")))
    # one-step factor needs side vertices adjacent to y on a path of length
    # two through the interface, so an edgeless interface complement kills it
    g0 = Graph(("a", "y", "b"), ())
    d0 = Decomposition(g0, ("y",), ("a",), ("b",))
    k0 = glue_II(d0, 0)
    ref0 = glue_I(d0)
    assert k0.rows == ref0.rows and k0.cols == ref0.cols
    worst = max(
        float(np.abs(k0.evaluate_with_bound(t)[0] - ref0.evaluate(t)).max())
        for t in (0.25, 1.0, 4.0)
    )
    assert worst < 1e-13


def test_glue_II_matches_assembled_on_random_splits():
    rng = np.random.default_rng(31337)
    for _ in range(3):
        d = random_decomposition(rng, 10)
        k = glue_II(d, 40)
        assembled = heat_kernel(d.ordered_graph)
        for t in (0.25, 1.0, 4.0):
            values, bound = k.evaluate_with_bound(t)
            assert np.abs(values - assembled.evaluate(t)).max() <= bound


def test_series_bound_at_or_above_one_raises():
    # an entry of the glued kernel lies in [0, 1]: at t = 50 the series cut
    # after two interface updates keeps almost nothing, and its bound,
    # 1.0000000000063, certifies nothing
    with pytest.raises(TruncationError, match="a-priori bound 1") as info:
        glue_II(LINE3_SPLIT, 2).evaluate_with_bound(50.0)
    assert info.value.achievable >= 1.0
    s = SeriesKernel(LINE3_SPLIT, 2, LINE3_SPLIT.interface)
    with pytest.raises(TruncationError):
        s.evaluate_with_bound(50.0)
    assert s.evaluate_with_bound(1.0)[1] < 1.0


# ---------------------------------------------------------------------------
# the first gluing formula as values at t
# ---------------------------------------------------------------------------

TIMES = (1e-6, 0.25, 1.0, 4.0, 50.0)


def split_of_parts(side1, interface, side2, edges) -> Decomposition:
    return Decomposition(Graph(side1 + interface + side2, tuple(edges)),
                         interface, side1, side2)


def complete_on(labels):
    return [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]


CONFLUENT_SPLITS = {
    # a and b have the same neighbours, so L_C repeats a rate
    "twins": split_of_parts(("a", "b", "c"), ("y",), ("d",), [
        ("a", "y"), ("b", "y"), ("a", "c"), ("b", "c"), ("y", "d")]),
    # each side complete and joined to the whole interface
    "complete sides": split_of_parts(
        ("a", "b", "c", "d"), ("y", "z"), ("p", "q", "r"),
        complete_on(("a", "b", "c", "d", "y", "z"))
        + complete_on(("p", "q", "r"))
        + [(u, v) for u in ("y", "z") for v in ("p", "q", "r")]),
    # leaves around the interface: L_C is the identity, and 1 is a rate of
    # L too
    "star": split_of_parts(("a", "b", "c"), ("y",), ("d", "e"),
                           [(v, "y") for v in "abcde"]),
    # p-q and s have no edge to the interface: zero rates of L_C
    "zero rate": split_of_parts(("a", "b"), ("y",), ("d", "p", "q", "s"), [
        ("a", "b"), ("a", "y"), ("y", "d"), ("p", "q")]),
}


@pytest.mark.parametrize("name", sorted(CONFLUENT_SPLITS))
def test_glue_I_values_match_expm_on_confluent_spectra(name):
    d = CONFLUENT_SPLITS[name]
    lap = d.ordered_graph.laplacian.entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in TIMES:
            at_t = glue_I_values(d, t)
            assert np.array_equal(at_t, at_t.T)
            assert np.abs(at_t - scipy.linalg.expm(-t * lap)).max() < 1e-13


def test_glue_I_values_match_the_coefficient_route():
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            d = random_decomposition(rng, 12)
            km = glue_I(d)
            for t in TIMES:
                at_t = glue_I_values(d, t)
                assert at_t.shape == (d.graph.n, d.graph.n)
                assert np.abs(at_t - km.evaluate(t)).max() < 1e-13
                assert np.abs(at_t - heat_values(d.ordered_graph, t)).max() < 1e-13


def test_glue_I_values_at_sixty_vertices_within_budget():
    rng = np.random.default_rng(60)
    side1 = tuple(f"a{i}" for i in range(28))
    iface = tuple(f"y{i}" for i in range(4))
    side2 = tuple(f"b{i}" for i in range(28))
    edges = [e for part in (side1 + iface, iface + side2)
             for e in complete_on(part) if rng.random() < 0.3]
    d = split_of_parts(side1, iface, side2, set(edges))
    start = time.perf_counter()
    values = [glue_I_values(d, t) for t in TIMES]
    elapsed = time.perf_counter() - start
    lap = d.ordered_graph.laplacian.entries
    for t, at_t in zip(TIMES, values):
        assert np.abs(at_t - scipy.linalg.expm(-t * lap)).max() < 1e-12
    assert elapsed < 2.0


def test_glue_I_values_at_t_zero_and_bad_t():
    d = CONFLUENT_SPLITS["twins"]
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^t must be positive and finite"):
            glue_I_values(d, bad)


def test_components_are_the_connected_components_of_scipy():
    """Graph.components labels the components as scipy does, numbered by
    their least vertex: on the graphs of the 50 gate-02 decompositions
    (seed 20260822), and on 200 seeded random graphs of 0 to 15 vertices,
    with no edges, sparse ones with isolated vertices and dense ones, each
    under a shuffled vertex order."""
    rng = np.random.default_rng(20260822)
    graphs = []
    for _ in range(50):
        d = random_decomposition(rng, 12)
        graphs += [d.graph, d.ordered_graph]
    rng = np.random.default_rng(5)
    for k in range(200):
        n = k % 16  # n = 0 and n = 1 included
        p = (0.0, 0.1, 0.3, 0.6)[k // 16 % 4]
        labels = tuple(f"u{i}" for i in rng.permutation(n))
        graphs.append(Graph(labels, tuple(
            (labels[i], labels[j]) for i, j in itertools.combinations(range(n), 2)
            if rng.random() < p)))
    assert {g.n for g in graphs} >= {0, 1} and any(not g.edges for g in graphs)
    for g in graphs:
        _, want = scipy.sparse.csgraph.connected_components(
            g.adjacency, directed=False)
        assert g.components.tolist() == want.tolist(), g


def component_projector(g: Graph) -> np.ndarray:
    """The limit of e^{-tL} as t grows: 1/|C| on each block C x C of a
    component C of g."""
    same = g.components[:, None] == g.components
    return same / same.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("t", (1e8, 1e12, 1e200, 1e300, 1.7e308))
def test_both_value_routes_keep_the_null_space_at_large_t(t):
    # the rate of each component's indicator is exactly 0, so no mode that
    # must stay decays; draw 2 is connected, draws 1 and 3 have two
    # components.  Past t = 1.3e154 t * t overflows, past about 7e306 so
    # does rate * t, and d and e form components that no interface vertex
    # touches, whose terms of formula I are exactly 0
    rng = np.random.default_rng(3)
    path = Graph(tuple("abcde"), (("a", "b"), ("b", "c")))
    splits = [random_decomposition(rng, 12) for _ in range(40)]
    splits.append(Decomposition(path, ("b",), ("a", "d"), ("c", "e")))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for d in splits:
            og = d.ordered_graph
            want = component_projector(og)
            assert np.abs(heat_values(og, t) - want).max() <= 1e-15
            assert np.abs(glue_I_values(d, t) - want).max() <= 1e-15


@pytest.mark.parametrize("t", TIMES)
def test_psi_is_the_second_divided_difference(t):
    # (e^{-a.} * e^{-b.} * e^{-c.})(t) is entry (0, 2) of exp(-t T) with T
    # upper bidiagonal, diagonal (a, b, c) and ones above it; the rates
    # repeat, nearly repeat and spread across the switch at (hi - lo) t = 1,
    # and are handed over unsorted
    rates = (0.0, 1e-9, 0.3, 0.3 + 1e-7, 1.0 + 0.4 / t, 1.0 + 1.1 / t, 7.0)
    triples = list(itertools.combinations_with_replacement(rates, 3))
    lo, mid, hi = (np.array(v) for v in zip(*triples))
    got = graph_heat._psi(mid, hi, lo, t)
    with mpmath.workdps(30):
        for (lo, mid, hi), value in zip(triples, got):
            mat = mpmath.matrix([[lo, 1, 0], [0, mid, 1], [0, 0, hi]])
            exact = mpmath.expm(-t * mat)[0, 2]
            # e^{-hi t} alone is off by the rounding of hi t
            assert abs(value - exact) <= (8 + hi * t) * 2.2e-16 * exact


@pytest.mark.parametrize("t", (1e160, 1e300))
def test_psi_where_t_squared_overflows(t):
    # t^2 is not finite, and psi takes it as t twice: against the divided
    # difference of distinct rates, rounded (most underflow to 0), and the
    # closed forms t/c - 1/c^2, 1/c^2 and 0 at (0, 0, c), (0, c, c) and
    # (c, c, c)
    rates = (0.0, 1e-9, 0.3, 1.0, 7.0)
    triples = list(itertools.combinations(rates, 3))
    with mpmath.workdps(30):
        want = [float(sum(mpmath.exp(-r * mpmath.mpf(t))
                          / math.prod(mpmath.mpf(s) - r for s in rs if s != r)
                          for r in rs)) for rs in triples]
    for c in (0.3, 7.0):
        triples += [(0.0, 0.0, c), (0.0, c, c), (c, c, c)]
        want += [t / c - 1.0 / c**2, 1.0 / c**2, 0.0]
    lo, mid, hi = (np.array(v) for v in zip(*triples))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = graph_heat._psi(hi, lo, mid, t)
    for value, exact in zip(got, want):
        assert abs(value - exact) <= 8 * 2.2e-16 * exact


def bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


def h1_by_gather(z):
    """_h1 as it was: the positive entries gathered, divided and scattered."""
    out = np.ones_like(z)
    pos = z > 0.0
    out[pos] = -np.expm1(-z[pos]) / z[pos]
    return out


def psi_by_sort(a, b, c, t):
    """_psi as it was: the rates stacked and sorted, and each branch
    gathered and scattered."""
    lo, mid, hi = np.sort(np.stack(np.broadcast_arrays(a, b, c)), axis=0)
    x, q, y = (mid - lo) * t, (hi - mid) * t, (hi - lo) * t
    out = np.empty_like(y)
    far = y > 1.0
    if far.any():
        xf = x[far]
        out[far] = (np.exp(-lo[far] * t)
                    * (h1_by_gather(xf) - np.exp(-xf) * h1_by_gather(q[far]))
                    / y[far])
    near = ~far
    if near.any():
        yn, qn = y[near, None], q[near, None]
        top, k = float(yn.max()), 1
        while (k + 1) * top**k * graph_heat._INV_FACTORIAL[k + 2] > 1e-18:
            k += 1
        powers = np.arange(k)
        coef = graph_heat._INV_FACTORIAL[np.add.outer(powers, powers) + 2]
        series = ((yn**powers @ coef) * qn**powers).sum(axis=1)
        out[near] = np.exp(-hi[near] * t) * series
    return t * t * out


def psi_draws(rng, t):
    """Rate triples in the shapes glue_I_values passes (a and c a column, b
    a row) and as full arrays: repeated rates, exact ties, zeros of both
    signs, blocks all near ((hi - lo) t <= 1), all far and mixed."""
    pool = np.array([0.0, -0.0, 1e-300, 1e-9, 0.3, 0.3, 0.3 + 1e-7,
                     1.0 / t, 2.0 / t, 7.0])
    yield pool[:, None], pool[None, :], pool[::-1, None]
    near = rng.choice([0.0, -0.0, 0.5 / t, 0.9 / t], size=(40, 1))
    yield near, near.T, near[::-1]
    far = 3.0 / t + rng.choice([0.0, 4.0, 9.0], size=(30, 1)) / t
    yield far, np.array([[0.0, -0.0, 20.0 / t]]), far[::-1] + 40.0 / t
    mixed = rng.choice(pool, size=(64, 1)) + rng.random((64, 1)) * 3.0 / t
    yield mixed, mixed[::-1].T, mixed
    yield (rng.choice(pool, size=(5, 6, 7)), rng.random((5, 6, 7)) / t,
           rng.choice(pool, size=(5, 6, 7)))


@pytest.mark.parametrize("t", TIMES)
def test_psi_by_selection_is_bitwise_psi_by_sort(t):
    rng = np.random.default_rng(240)
    for a, b, c in psi_draws(rng, t):
        for order in itertools.permutations((a, b, c)):
            got = graph_heat._psi(*order, t)
            assert np.array_equal(bits(got), bits(psi_by_sort(*order, t)))
        for z in (a, b, c):
            zs = np.abs(np.broadcast_to(z, got.shape)) * t
            assert np.array_equal(bits(graph_heat._h1(zs)), bits(h1_by_gather(zs)))


def spectra_by_ix(d):
    """_glue_I_spectra by np.r_ and np.ix_ index sets, each null space
    written out as the indicators of the components inside its block."""
    og = d.ordered_graph
    n, n1, ny = og.n, len(d.side1), len(d.interface)
    y = np.arange(n1, n1 + ny)
    c = np.r_[0:n1, n1 + ny:n]
    lap = np.diag(og.valencies) - og.adjacency
    labels = og.components

    def spectrum(keep):
        lam, u = graph_heat.symlin.eigh(
            graph_heat.symlin.SymMatrix(lap[np.ix_(keep, keep)]))
        inside = [k for k in np.unique(labels)
                  if set(np.flatnonzero(labels == k)) <= set(keep)]
        z = np.array([[float(labels[i] == k) for k in inside] for i in keep])
        z = z.reshape(len(keep), len(inside))
        z /= np.sqrt(z.sum(axis=0))
        r = len(inside)
        v = u[:, r:]
        return np.r_[np.zeros(r), lam[r:]], np.c_[z, v - z @ (z.T @ v)]

    w, q = spectrum(np.r_[0:n])
    mu, v = spectrum(c)
    return y, c, w, q[y], mu, v, v.T @ og.adjacency[np.ix_(c, y)]


def test_glue_I_spectra_are_bitwise_those_of_the_index_sets():
    rng = np.random.default_rng(2401)
    splits = list(CONFLUENT_SPLITS.values()) + [
        random_decomposition(rng, 12) for _ in range(40)]
    for d in splits:
        for got, want in zip(graph_heat._glue_I_spectra(d), spectra_by_ix(d)):
            assert got.shape == want.shape
            assert np.array_equal(bits(got) if got.dtype == float else got,
                                  bits(want) if want.dtype == float else want)


def laplacian_by_loop(g: Graph) -> np.ndarray:
    """D - A written entry by entry from the edge list."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        i, j = g.vertices.index(u), g.vertices.index(v)
        lap[i, j] = lap[j, i] = -1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def test_graph_laplacian_is_built_once_and_equals_the_loop_built_one():
    rng = np.random.default_rng(2402)
    graphs = [LINE3, Graph(("a",), ()), Graph(("a", "b"), ())] + [
        random_graph(rng, n) for n in (2, 5, 12, 30)]
    for g in graphs:
        lap = g.laplacian
        assert lap is g.laplacian
        assert not lap.entries.flags.writeable
        want = laplacian_by_loop(g)
        assert np.array_equal(bits(lap.entries), bits(want))
        assert np.array_equal(bits(g.adjacency), bits((want < 0) * 1.0))


def test_graph_keeps_the_index_pair_of_each_edge():
    # the sorted index pair of each edge, in edge order, kept from the
    # check of the edges; like index, it is no part of repr or equality
    g = Graph(("c", "a", "b"), (("b", "a"), ("a", "c"), ("c", "b")))
    assert g.edges == (("c", "a"), ("c", "b"), ("a", "b"))
    assert g.edge_pairs == ((0, 1), (0, 2), (1, 2))
    assert g.edge_pairs == tuple(tuple(g.indices(e)) for e in g.edges)
    assert "edge_pairs" not in repr(g)
    assert g == Graph(g.vertices, g.edges[::-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edge_pairs = ()


def test_assembled_gluing_and_its_reference_share_one_laplacian(monkeypatch):
    seen = []
    eigh = graph_heat.symlin.eigh

    def spy(a, keep=None):
        seen.append((a, keep))
        return eigh(a, keep)

    monkeypatch.setattr(graph_heat.symlin, "eigh", spy)
    d = random_decomposition(np.random.default_rng(2403), 12)
    og = d.ordered_graph
    glue_I_values(d, 1.0)
    heat_values(og, 2.0)
    heat_values(og, 4.0)
    # L, its block off the interface, then L again for each call of the
    # reference: the one SymMatrix of the graph each time, and only the
    # block names the indices it keeps
    assert len(seen) == 4
    assert all(a is og.laplacian for a, _ in seen)
    assert [keep is None for _, keep in seen] == [True, False, True, True]


# ---------------------------------------------------------------------------
# Schur cut
# ---------------------------------------------------------------------------


def test_schur_line3_middle():
    mat, residual = schur_cut(LINE3, ("2",), 1.0)
    # killed graph = two isolated vertices with valency 1 kept
    assert np.abs(mat - np.eye(2) / 2.0).max() < 1e-12
    assert residual < 1e-12


def test_schur_empty_interface():
    # the rule of a Decomposition: a cut needs an interface
    with pytest.raises(ValueError, match="interface must be nonempty"):
        schur_cut(LINE3, (), 1.0)


@pytest.mark.parametrize("m2", [1.0, 1e-8, 1e-17])
def test_schur_gap_stays_small_at_tiny_mass(m2):
    # the full Green's matrix holds 11^T/(n m2); its zero mode must not
    # swamp the Schur complement
    doc = json.loads(importlib.resources.files("heatglue")
                     .joinpath("fixtures", "line_dirichlet.json").read_text())
    _, gap = schur_cut(graph_from_dict(doc), ("0", "6"), m2)
    assert gap < 1e-12


@pytest.mark.parametrize("m2", [1.0, 1e-17])
def test_schur_gap_with_a_component_inside_the_interface(m2):
    g = Graph(("1", "2", "3", "x", "p", "q"),
              (("1", "2"), ("2", "3"), ("p", "q")))
    _, gap = schur_cut(g, ("2", "x", "p"), m2)
    assert gap < 1e-12


@pytest.mark.parametrize("m2", [1.0, 1e-3, 1e-8, 1e-12, 1e-17])
def test_schur_cut_of_a_component_off_the_interface(m2):
    # the triangle p-q-r has no vertex of y, so its block of the killed
    # Green's matrix is z z^T / m2 + (I - z z^T) / (3 + m2), z the
    # normalised indicator; both routes hold its 1/m2 to a few ulps
    g = Graph(("1", "2", "3", "p", "q", "r"),
              (("1", "2"), ("2", "3"), ("p", "q"), ("q", "r"), ("r", "p")))
    direct, gap = schur_cut(g, ("2",), m2)
    ulp = np.spacing(np.abs(direct).max())
    assert gap <= 4 * ulp
    zz = np.full((3, 3), 1.0 / 3.0)
    triangle = zz / m2 + (np.eye(3) - zz) / (3.0 + m2)
    assert np.abs(direct[2:, 2:] - triangle).max() <= 8 * ulp


def test_schur_random_graphs():
    rng = np.random.default_rng(8)
    for m2 in (0.5, 1.0, 3.0):
        g = random_graph(rng, 10)
        y = ("v2", "v7", "v9")
        _, residual = schur_cut(g, y, m2)
        assert residual < 1e-10


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------


def test_decomposition_rejects_cross_edges():
    g = Graph(("a", "y", "b"), (("a", "b"), ("a", "y")))
    with pytest.raises(ValueError):
        Decomposition(g, ("y",), ("a",), ("b",))


def test_decomposition_rejects_full_interface():
    with pytest.raises(ValueError):
        Decomposition(LINE3, ("1", "2", "3"))


def test_decomposition_infers_sides():
    d = decomposition_from_dict(
        {
            "vertices": ["1", "2", "3"],
            "edges": [["1", "2"], ["2", "3"]],
            "interface": ["2"],
        }
    )
    assert d.side1 == ("1",)
    assert d.side2 == ("3",)


# a path a - y - b - z - c with two interface vertices: off them, the
# components are {a} and {b} and {c}
PATH5 = Graph(("c", "a", "y", "b", "z"),
              (("a", "y"), ("y", "b"), ("b", "z"), ("z", "c")))


def test_decomposition_infers_side2_from_side1():
    # the missing side is the rest of the vertices off the interface, in
    # vertex order, whatever the order side1 is given in
    d = Decomposition(PATH5, ("y", "z"), side1=("b", "a"))
    assert (d.side1, d.side2) == (("b", "a"), ("c",))
    assert d.ordered_graph.vertices == ("b", "a", "y", "z", "c")
    assert Decomposition(PATH5, ("y", "z"), side1=("a",)).side2 == ("c", "b")


def test_decomposition_infers_side1_from_side2():
    d = Decomposition(PATH5, ("y", "z"), side2=("a",))
    assert (d.side1, d.side2) == (("c", "b"), ("a",))
    assert Decomposition(PATH5, ("y", "z")).side1 == ("c",)
    with pytest.raises(ValueError, match="partition the vertex set"):
        Decomposition(PATH5, ("y", "z"), side2=("a", "y"))


def test_decomposition_ordered_graph():
    g = Graph(("b", "y", "a"), (("a", "y"), ("y", "b")))
    d = Decomposition(g, ("y",), ("a",), ("b",))
    assert d.ordered_graph.vertices == ("a", "y", "b")


def test_random_decomposition_is_deterministic():
    d1 = random_decomposition(np.random.default_rng(4), 12)
    d2 = random_decomposition(np.random.default_rng(4), 12)
    assert d1 == d2
    assert len(d1.graph.vertices) <= 12
    assert 1 <= len(d1.interface) <= 3
