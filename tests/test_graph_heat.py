from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import taylor_expm
from heatglue.expmix import (
    ExpMix,
    allclose,
    cumulative,
    evaluate,
    laplace,
    structural_max_diff,
)
from heatglue.graph_heat import (
    Decomposition,
    Graph,
    decomposition_from_dict,
    dn_single,
    dn_total,
    extension_kernel,
    glue_I,
    glue_II,
    graph_from_dict,
    green,
    heat_kernel,
    interface_kernel,
    interface_kernel_series,
    laplacian,
    random_decomposition,
    relative_heat_kernel,
    schur_cut,
)

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
    assert np.array_equal(laplacian(LINE3).entries, expected)


def test_laplacian_edgeless_and_complete():
    assert np.array_equal(laplacian(Graph(("a", "b"), ())).entries, np.zeros((2, 2)))
    k4 = Graph(
        ("a", "b", "c", "d"),
        (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    )
    assert np.array_equal(laplacian(k4).entries, 4.0 * np.eye(4) - np.ones((4, 4)))


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
    d = LINE3.to_dict()
    assert d == {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]]}
    assert graph_from_dict(d) == LINE3


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
        lap = laplacian(g).entries
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


def test_laplace_duality_with_green():
    rng = np.random.default_rng(77)
    g = random_graph(rng, 6)
    k = heat_kernel(g)
    for m2 in (0.5, 1.0, 2.0):
        assert np.abs(k.laplace(m2) - green(g, m2)).max() < 1e-11


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
    lap = laplacian(g).entries[np.ix_(comp, comp)]
    for t in (0.5, 2.0):
        sub = k.evaluate(t)[np.ix_(comp, comp)]
        assert np.abs(sub - taylor_expm(-t * lap)).max() < 1e-10


def test_relative_rejects_full_interface():
    with pytest.raises(ValueError):
        relative_heat_kernel(LINE3, ("1", "2", "3"))


# ---------------------------------------------------------------------------
# Green's matrices
# ---------------------------------------------------------------------------


def test_green_two_vertex_formula():
    g = Graph(("1", "2"), (("1", "2"),))
    for m2 in (0.5, 1.0, 3.0):
        expected = np.array([[1.0 + m2, 1.0], [1.0, 1.0 + m2]]) / (m2 * (2.0 + m2))
        assert np.abs(green(g, m2) - expected).max() < 1e-12


def test_green_single_vertex_and_guard():
    g = Graph(("x",), ())
    assert green(g, 2.0)[0, 0] == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(ValueError):
        green(g, 0.0)
    with pytest.raises(ValueError):
        green(g, -1.0)


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
    lap = laplacian(g).entries
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
        sum(cumulative(e.entry(v, yv), t_end) * eta[j] for j, yv in enumerate(y))
        for v in comp
    ])
    assert np.abs(got - ref).max() < 1e-8


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann
# ---------------------------------------------------------------------------


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
        lap_mat = ifk.laplace(m2)
        dn = dn_total(g1, g2, d.interface, m2)
        assert np.abs(lap_mat @ dn - np.eye(len(d.interface))).max() < 1e-9


def test_series_line3_partial_sums_converge():
    ifk = interface_kernel(LINE3_SPLIT)
    t = 1.0
    ref = ifk.evaluate(t)[0, 0]
    errs = []
    for k_max in (0, 2, 5, 8):
        s, bound = interface_kernel_series(LINE3_SPLIT, k_max)
        err = abs(s.evaluate(t)[0, 0] - ref)
        assert err <= bound(t)
        errs.append(err)
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-8


def test_series_line3_deep_truncation_stays_within_bound():
    # deep truncations leave a truncation error near rounding level; the
    # reported bound has to keep covering the observed difference there too
    ifk = interface_kernel(LINE3_SPLIT)
    for k_max in (20, 40):
        s, bound = interface_kernel_series(LINE3_SPLIT, k_max)
        for t in (0.25, 1.0, 4.0):
            err = abs(s.evaluate(t)[0, 0] - ifk.evaluate(t)[0, 0])
            assert err <= bound(t)


def test_series_bound_rejects_bad_t():
    _, bound = interface_kernel_series(LINE3_SPLIT, 3)
    with pytest.raises(ValueError):
        bound(0.0)
    with pytest.raises(ValueError):
        bound(-1.0)


def test_series_exact_when_one_step_factor_vanishes():
    # interface vertex isolated from both sides: the one-step factor is zero
    g = Graph(("a", "y", "b"), ())
    d = Decomposition(g, ("y",), ("a",), ("b",))
    s, _ = interface_kernel_series(d, 0)
    closed = ExpMix(0.0, ((1.0, 0, 0.0),))
    for t in (0.25, 1.0, 4.0):
        assert abs(s.evaluate(t)[0, 0] - evaluate(closed, t)) < 1e-13


def test_series_matches_assembled_on_random_splits():
    rng = np.random.default_rng(100)
    for _ in range(3):
        d = random_decomposition(rng, 10)
        ifk = interface_kernel(d)
        for k_max in (6, 40):
            s, bound = interface_kernel_series(d, k_max)
            t = 1.0
            diff = np.abs(s.evaluate(t) - ifk.evaluate(t)).max()
            assert diff <= bound(t)


def test_series_evaluate_with_bound_equals_separate_calls():
    d = random_decomposition(np.random.default_rng(101), 12)
    kern, bound = glue_II(d, 20)
    for t in (0.25, 1.0, 4.0):
        values, b = kern.evaluate_with_bound(t)
        assert np.array_equal(values, kern.evaluate(t))
        assert b == bound(t)


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


def test_glue_I_equals_assembled_kernel():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        d = random_decomposition(rng, 12)
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
        k, bound = glue_II(LINE3_SPLIT, k_max)
        i, j = k.rows.index("1"), k.cols.index("3")
        for t in (0.5, 1.0, 2.0):
            got = k.evaluate(t)[i, j]
            assert abs(got - evaluate(ref, t)) <= bound(t)
    k8, _ = glue_II(LINE3_SPLIT, 8)
    assert abs(k8.evaluate(1.0)[i, j] - evaluate(ref, 1.0)) < 1e-7


def test_glue_II_exact_for_vanishing_one_step_factor():
    g = Graph(("a", "y", "b"), (("a", "y"), ("y", "b")))
    # one-step factor needs side vertices adjacent to y on a path of length
    # two through the interface, so an edgeless interface complement kills it
    g0 = Graph(("a", "y", "b"), ())
    d0 = Decomposition(g0, ("y",), ("a",), ("b",))
    k0, _ = glue_II(d0, 0)
    ref0 = glue_I(d0)
    assert k0.rows == ref0.rows and k0.cols == ref0.cols
    worst = max(
        float(np.abs(k0.evaluate(t) - ref0.evaluate(t)).max())
        for t in (0.25, 1.0, 4.0)
    )
    assert worst < 1e-13


def test_glue_II_matches_assembled_on_random_splits():
    rng = np.random.default_rng(31337)
    for _ in range(3):
        d = random_decomposition(rng, 10)
        k, bound = glue_II(d, 40)
        assembled = heat_kernel(d.ordered_graph)
        for t in (0.25, 1.0, 4.0):
            diff = np.abs(k.evaluate(t) - assembled.evaluate(t)).max()
            assert diff <= bound(t)


# ---------------------------------------------------------------------------
# Schur cut
# ---------------------------------------------------------------------------


def test_schur_line3_middle():
    mat, residual = schur_cut(LINE3, ("2",), 1.0)
    # killed graph = two isolated vertices with valency 1 kept
    assert np.abs(mat - np.eye(2) / 2.0).max() < 1e-12
    assert residual < 1e-12


def test_schur_empty_interface():
    mat, residual = schur_cut(LINE3, (), 1.0)
    assert residual == 0.0
    assert np.abs(mat - green(LINE3, 1.0)).max() == 0.0


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
    assert d.to_dict()["side1"] == ["1"]


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
