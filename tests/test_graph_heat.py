from __future__ import annotations

import importlib.resources
import itertools
import json
import math
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from conftest import dense_walk, taylor_expm
from heatglue.heat1d import TruncationError
from heatglue.expmix import (
    ExpMix,
    allclose,
    cumulative,
    evaluate,
    laplace,
    structural_max_diff,
)
from heatglue import graph_heat
from heatglue.graph_heat import (
    Decomposition,
    Graph,
    KernelMatrix,
    decomposition_from_dict,
    dn_total,
    extension_kernel,
    glue_I,
    glue_I_values,
    glue_II,
    graph_from_dict,
    green,
    heat_kernel,
    heat_values,
    interface_kernel,
    interface_kernel_series,
    laplacian,
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
# the coefficient tensor of a kernel matrix
# ---------------------------------------------------------------------------


def gate_02_draws() -> list[Decomposition]:
    """The 50 random splits of the first-formula gate."""
    rng = np.random.default_rng(20260822)
    return [random_decomposition(rng, 12) for _ in range(50)]


def test_kernel_tensor_evaluate_and_laplace_match_entries():
    for d in gate_02_draws():
        for k in (glue_I(d), heat_kernel(d.ordered_graph)):
            mixes = [[k.entry(u, v) for v in k.cols] for u in k.rows]
            for t in (0.25, 1.0, 4.0):
                want = np.array([[evaluate(m, t) for m in row] for row in mixes])
                assert np.abs(k.evaluate(t) - want).max() <= 1e-15
            # relative to the largest entry: an entry that cancels (4e-5 from
            # terms of 0.1) moves by more than 1e-14 of itself between the
            # contraction and the compensated sum of the ExpMix
            for s in (0.5, 2.0):
                want = np.array([[laplace(m, s) for m in row] for row in mixes])
                assert np.abs(k.laplace(s) - want).max() <= 1e-14 * np.abs(want).max()


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
            want = scipy.linalg.expm(-t * laplacian(g).entries)
            assert np.abs(values - want).max() < 1e-13
            assert np.abs(values - exact.evaluate(t)).max() < 1e-14
            assert np.array_equal(values, values.T)


def test_heat_values_rejects_bad_t():
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t >= 0"):
            heat_values(LINE3, t)
    assert np.abs(heat_values(LINE3, 0.0) - np.eye(3)).max() < 1e-15


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
# the layered walk
# ---------------------------------------------------------------------------


def _assert_walks_agree(*args):
    # both walks sum the same orders of nonnegative terms, so each entry of
    # one is within the other's rounding plus its own, relative
    sums, gamma = graph_heat.uniformized_walk(*args)
    want, want_gamma = dense_walk(*args)
    assert sums.shape == want.shape
    assert np.all(np.abs(sums - want) <= (gamma + want_gamma) * want)


def _series_split(d: Decomposition):
    """step, advance and theta of the second gluing formula's walk."""
    og = d.ordered_graph
    y = np.arange(len(d.side1), len(d.side1) + len(d.interface))
    theta = max(float(og.valencies.max()), 1.0)
    shifted = theta * np.eye(og.n) - laplacian(og).entries
    advance = np.zeros_like(shifted)
    advance[y] = shifted[y]
    advance[y, y] = 0.0
    return shifted - advance, advance, theta


def _path_sum_split(g: Graph):
    """step, advance and theta of a path sum's walk: every edge advances."""
    vals = g.valencies
    d_max = float(vals.max())
    return np.diag(d_max - vals), g.adjacency, d_max


def test_walk_grows_its_layers_as_the_dense_walk_within_gamma():
    # gate-03 draws: at t = 0.25 the Poisson order stays below 42 layers,
    # at t = 4 it passes them; k_max 0 and 3 are passed at every t
    rng = np.random.default_rng(20260822)
    for _ in range(50):
        d = random_decomposition(rng, 12)
        step, advance, theta = _series_split(d)
        start = np.eye(d.ordered_graph.n)
        for t in (0.25, 1.0, 4.0):
            for k_max in (0, 3, 40):
                _assert_walks_agree(step, advance, start, k_max + 2, theta, t)


def test_walk_at_zero_theta_t_stays_at_its_start():
    d = random_decomposition(np.random.default_rng(3), 12)
    step, advance, theta = _series_split(d)
    start = np.eye(d.ordered_graph.n)[:2]
    sums, gamma = graph_heat.uniformized_walk(step, advance, start, 5, theta, 0.0)
    want, want_gamma = dense_walk(step, advance, start, 5, theta, 0.0)
    assert np.array_equal(sums, want) and gamma == want_gamma == 0.0
    assert np.array_equal(sums[0], start) and not sums[1:].any()


def test_walk_of_a_path_sum_matches_the_dense_walk():
    # one start row, every edge advancing, one layer per path length
    rng = np.random.default_rng(20260822)
    for _ in range(10):
        g = random_decomposition(rng, 12).ordered_graph
        step, advance, d_max = _path_sum_split(g)
        for u in range(g.n):
            start = np.eye(g.n)[u:u + 1]
            for t in (0.3, 0.7, 4.0):
                _assert_walks_agree(step, advance, start, LENGTH_CAP + 1,
                                    d_max, t)


def test_walk_at_five_thousand_orders_matches_the_dense_walk():
    # theta t = 5000 on the 3-vertex line, a few thousand Horner blocks
    step, advance, theta = _series_split(LINE3_SPLIT)
    _assert_walks_agree(step, advance, np.eye(3), 5, theta, 2500.0)
    step, advance, d_max = _path_sum_split(LINE3)
    _assert_walks_agree(step, advance, np.eye(3)[:1], LENGTH_CAP + 1, d_max,
                        2500.0)


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
    # the way are outside a relative rounding count and are skipped
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(2):
        d = random_decomposition(rng, 5)
        n = d.ordered_graph.n
        step, advance, theta = _series_split(d)
        cases.append((step, advance, np.eye(n), 5, theta))
        step, advance, d_max = _path_sum_split(d.ordered_graph)
        cases.append((step, advance, np.eye(n)[:1], LENGTH_CAP + 1, d_max))
    for step, advance, start, layers, theta in cases:
        for t in (0.25, 1.0, 4.0):
            sums, gamma = graph_heat.uniformized_walk(step, advance, start,
                                                      layers, theta, t)
            exact = _exact_walk(step, advance, start, layers, theta, t)
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
    kern, _ = glue_II(LINE3_SPLIT, 3)
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
    lap = laplacian(d.ordered_graph).entries
    kern, _ = glue_II(d, 40)
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


def test_series_bound_at_or_above_one_raises():
    # an entry of the glued kernel lies in [0, 1]: at t = 50 the series cut
    # after two interface updates keeps almost nothing, and its bound,
    # 1.0000000000063, certifies nothing
    kern, bound = glue_II(LINE3_SPLIT, 2)
    for call in (bound, kern.evaluate_with_bound):
        with pytest.raises(TruncationError, match="a-priori bound 1") as info:
            call(50.0)
        assert info.value.achievable >= 1.0
    _, bound = interface_kernel_series(LINE3_SPLIT, 2)
    with pytest.raises(TruncationError):
        bound(50.0)
    assert bound(1.0) < 1.0


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
    lap = laplacian(d.ordered_graph).entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = glue_I_values(d, TIMES)
        for t, at_t in zip(TIMES, values):
            assert np.array_equal(at_t, glue_I_values(d, t))
            assert np.array_equal(at_t, at_t.T)
            assert np.abs(at_t - scipy.linalg.expm(-t * lap)).max() < 1e-13


def test_glue_I_values_match_the_coefficient_route():
    rng = np.random.default_rng(19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            d = random_decomposition(rng, 12)
            km = glue_I(d)
            values = glue_I_values(d, TIMES)
            assert values.shape == (len(TIMES), d.graph.n, d.graph.n)
            for t, at_t in zip(TIMES, values):
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
    values = glue_I_values(d, TIMES)
    elapsed = time.perf_counter() - start
    lap = laplacian(d.ordered_graph).entries
    for t, at_t in zip(TIMES, values):
        assert np.abs(at_t - scipy.linalg.expm(-t * lap)).max() < 1e-12
    assert elapsed < 2.0


def test_glue_I_values_at_t_zero_and_bad_t():
    d = CONFLUENT_SPLITS["twins"]
    assert np.abs(glue_I_values(d, 0.0) - np.eye(d.graph.n)).max() < 1e-15
    for bad in (-1.0, math.nan, math.inf, [1.0, -0.5]):
        with pytest.raises(ValueError):
            glue_I_values(d, bad)


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
