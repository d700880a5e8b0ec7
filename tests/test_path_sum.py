"""Tests for the path-sum kernels: the heat kernel entry and the interface
operators as length-truncated sums over classes of paths."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import dense_walk, taylor_expm
from mpmath import mp

from heatglue.graph_heat import (
    Decomposition,
    Graph,
    extension_kernel,
    interface_kernel,
    one_step_interface_kernel,
    random_decomposition,
    uniformized_walk,
)
from heatglue.path_sum import (
    LENGTH_CAP,
    LengthCapError,
    exp_tail,
    pathsum_heat,
    pathsum_operators,
)

LINE3 = Graph(("1", "2", "3"), (("1", "2"), ("2", "3")))
LINE2 = Graph(("1", "2"), (("1", "2"),))
LINE3_SPLIT = Decomposition(LINE3, ("2",), ("1",), ("3",))

GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5) -> Graph:
    verts = tuple(f"v{i}" for i in range(n))
    edges = [
        (verts[i], verts[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph(verts, tuple(edges))


def class_paths(g: Graph, tag: str, u, interface, max_length: int) -> list:
    """The paths of a class from u of length at most max_length, as vertex
    tuples, by a depth-first walk along the edges of g.

    ``P`` takes every walk.  ``P_prime_end`` takes the paths meeting the
    interface only in their final vertex, and ``P_double_prime`` (u on the
    interface) those of length at least 1 meeting it exactly in both
    endpoints: a walk stops at its first interface vertex after u.
    """
    yset = set(interface)
    if tag == "P_prime_end" and u in yset:
        return [(u,)]
    a, idx = g.adjacency, g.index
    found = []

    def walk(seq: list) -> None:
        found.append(tuple(seq))
        if len(seq) > max_length or (tag != "P" and len(seq) > 1
                                     and seq[-1] in yset):
            return
        for w in g.vertices:
            if a[idx[seq[-1]], idx[w]]:
                walk(seq + [w])

    walk([u])
    if tag == "P":
        return found
    return [p for p in found if p[-1] in yset and (tag == "P_prime_end"
                                                   or len(p) > 1)]


def path_weight(g: Graph, p: tuple, t: float) -> float:
    """The weight of the path p at t: the convolution of one e^{-val(v) t}
    per visited vertex, which is entry (0, m) of expm(-t B) with B upper
    bidiagonal, the valencies along p on its diagonal and -1 above it."""
    vals = [g.valencies[g.index[v]] for v in p]
    b = np.diag(vals) - np.diag(np.ones(len(p) - 1), 1)
    return float(scipy.linalg.expm(-t * b)[0, -1])


# ---------------------------------------------------------------------------
# heat kernel by path sum
# ---------------------------------------------------------------------------


def test_pathsum_line3_entry():
    val, k, bnd = pathsum_heat(LINE3, "1", "3", 1.0, 1e-8)
    ref = (math.exp(-3.0) - 3.0 * math.exp(-1.0) + 2.0) / 6.0
    assert abs(val - ref) < 1e-8
    assert abs(val - ref) <= bnd
    assert bnd < 1e-8 and k > 0


def test_pathsum_diagonal_small_time():
    val, _, _ = pathsum_heat(LINE3, "1", "1", 1e-9, 1e-6)
    assert abs(val - 1.0) < 1e-8


def test_pathsum_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 8:
        g = random_graph(rng, 5)
        if not g.edges:
            continue
        lap = np.diag(g.valencies) - g.adjacency
        for t in (0.3, 0.5, 0.7):
            full = taylor_expm(-lap * t)
            u = g.vertices[rng.integers(5)]
            v = g.vertices[rng.integers(5)]
            val, _, bnd = pathsum_heat(g, u, v, t, 1e-10)
            ref = full[g.index[u], g.index[v]]
            assert abs(val - ref) <= max(1e-9, bnd)
            assert abs(val - ref) <= bnd + 1e-11
        checked += 1


def test_pathsum_monotone_in_cutoff():
    vals = []
    for eps in (0.5, 1e-2, 1e-4, 1e-6, 1e-9):
        v, k, _ = pathsum_heat(LINE3, "1", "3", 1.0, eps)
        vals.append((k, v))
    ks = [k for k, _ in vals]
    assert ks == sorted(ks)
    for (_, a), (_, b) in zip(vals, vals[1:]):
        assert b >= a - 1e-15


def test_pathsum_cap_error_carries_bound():
    with pytest.raises(LengthCapError) as info:
        pathsum_heat(LINE3, "1", "3", 40.0, 1e-10)
    err = info.value
    assert 0.0 < err.achievable <= 1.0
    lap = np.diag(LINE3.valencies) - LINE3.adjacency
    exact = scipy.linalg.expm(-40.0 * lap)[0, 2]
    # the deficit at the cap covers what the truncated entry misses
    start = np.zeros((1, 3))
    start[0, 0] = 1.0
    layers, _ = uniformized_walk(np.diag(2.0 - LINE3.valencies),
                                 LINE3.adjacency, start, LENGTH_CAP + 1,
                                 2.0, 40.0)
    assert exact - math.fsum(layers[:, 0, 2].tolist()) <= err.achievable


def test_pathsum_past_the_order_cap_raises_within_a_time_budget():
    # d_max t = 140000 passes the walk's 65536 Taylor orders, which hold
    # almost none of the Poisson weight: no length reaches eps
    t0 = time.perf_counter()
    with pytest.raises(LengthCapError):
        pathsum_heat(LINE3, "1", "3", 70000.0, 1e-6)
    assert time.perf_counter() - t0 < 5.0


def test_pathsum_argument_validation():
    with pytest.raises(ValueError):
        pathsum_heat(LINE3, "1", "3", 0.0, 1e-6)
    with pytest.raises(ValueError):
        pathsum_heat(LINE3, "1", "3", 1.0, 0.0)
    with pytest.raises(ValueError):
        pathsum_heat(LINE3, "1", "x", 1.0, 1e-6)


def test_pathsum_deficit_cutoff_on_random_decompositions():
    # 60 graphs of up to 12 vertices, valencies up to 11: the crude tail
    # sum (d_max t)^j / j! needed lengths past the cap on 27 of these 120
    # requests, while the row-sum deficit reaches eps by length 21
    rng = np.random.default_rng(1)
    for _ in range(60):
        g = random_decomposition(rng, 12).graph
        u, v = g.vertices[0], g.vertices[-1]
        lap = np.diag(g.valencies) - g.adjacency
        for t in (0.3, 0.7):
            val, k, bound = pathsum_heat(g, u, v, t, 1e-9)
            assert k <= 21
            exact = scipy.linalg.expm(-t * lap)[g.index[u], g.index[v]]
            assert abs(exact - val) <= bound


def test_pathsum_edgeless_graph():
    g = Graph(("a", "b"))
    val, k, bnd = pathsum_heat(g, "a", "a", 1.0, 1e-6)
    assert val == 1.0 and k == 0 and bnd == 0.0
    val, _, _ = pathsum_heat(g, "a", "b", 1.0, 1e-6)
    assert val == 0.0


def test_pathsum_equals_its_truncated_path_sum():
    # the value at the chosen cutoff is the sum of the path weights up to
    # that length, not only close to the limit.  Each weight is an entry of
    # a bidiagonal expm, which needs no partial fractions and so does not
    # cancel where valencies differ by one: on the path b-c-d-e of the
    # 5-vertex line at t = 0.3 it is 0.0026665701352523137, against
    # 0.00266657013525231394 in 40 digits
    v5 = tuple("abcde")
    cycle = Graph(v5, tuple(zip(v5, v5[1:] + v5[:1])))
    star = Graph(v5, tuple(("a", w) for w in v5[1:]))
    line = Graph(v5, tuple(zip(v5, v5[1:])))
    assert path_weight(line, tuple("bcde"), 0.3) == 0.0026665701352523137
    for g in (cycle, star, line):
        for u, v in (("a", "c"), ("b", "e")):
            for t in (0.3, 0.7):
                val, k, _ = pathsum_heat(g, u, v, t, 1e-2)
                want = math.fsum(path_weight(g, p, t)
                                 for p in class_paths(g, "P", u, (), k)
                                 if p[-1] == v)
                assert abs(val - want) <= 1e-14 * want


# ---------------------------------------------------------------------------
# operators as truncated class sums
# ---------------------------------------------------------------------------


def test_operator_extension_two_vertex():
    d = Decomposition(LINE2, ("2",))
    ext = pathsum_operators(d, "extension", 12)
    i, j = ext.rows.index("1"), ext.rows.index("2")
    for t in GRID:
        vals = ext.evaluate(t)
        assert abs(vals[i, 0] - math.exp(-t)) <= 1e-13
        assert vals[j, 0] == 0.0
    assert ext.atom[i, 0] == 0.0 and ext.atom[j, 0] == 1.0


def test_operator_dn_prime_line3():
    d = LINE3_SPLIT
    dn = pathsum_operators(d, "dn_prime", 12)
    exact = one_step_interface_kernel(d)
    for t in GRID:
        assert abs(dn.evaluate(t)[0, 0] - 2.0 * math.exp(-t)) <= 1e-13
        assert np.abs(dn.evaluate(t) - exact.evaluate(t)).max() < 1e-12
    assert np.array_equal(dn.atom, [[0.0]])
    assert np.array_equal(dn.atom, exact.atom)


def test_operator_interface_line3_truncated():
    d = LINE3_SPLIT
    ifk = pathsum_operators(d, "interface", 12)
    t = 1.0
    ref = (1.0 + 2.0 * math.exp(-3.0)) / 3.0
    tail = exp_tail(2.0 * t, 13)
    assert abs(ifk.evaluate(t)[0, 0] - ref) <= tail
    assert np.array_equal(ifk.atom, [[0.0]])


def test_operators_equal_per_path_sums():
    # the layered walk must agree with literally summing weights: the
    # extension drops a path's final vertex, dn_prime both its endpoints,
    # and a path whose trimmed segment is empty is a unit atom
    rng = np.random.default_rng(61)
    for _ in range(3):
        d = random_decomposition(rng, 7)
        og = d.ordered_graph
        y = d.interface
        max_length = 5
        for which, tag, rows, trim in (
                ("extension", "P_prime_end", og.vertices, lambda p: p[:-1]),
                ("interface", "P", y, lambda p: p),
                ("dn_prime", "P_double_prime", y, lambda p: p[1:-1])):
            op = pathsum_operators(d, which, max_length)
            assert op.rows == rows and op.cols == y
            paths = {u: class_paths(og, tag, u, y, max_length) for u in rows}
            segs = [[[trim(p) for p in paths[u] if p[-1] == v] for v in y]
                    for u in rows]
            atom = [[sum(not seg for seg in cell) for cell in row]
                    for row in segs]
            assert np.array_equal(op.atom, atom)
            for t in GRID:
                want = [[math.fsum(path_weight(og, seg, t)
                                   for seg in cell if seg) for cell in row]
                        for row in segs]
                assert np.abs(op.evaluate(t) - want).max() < 1e-11


def test_operator_extension_matches_side_kernels():
    rng = np.random.default_rng(71)
    for _ in range(4):
        d = random_decomposition(rng, 8)
        og = d.ordered_graph
        d_max = float(og.valencies.max()) if og.edges else 0.0
        max_length = 12
        ext = pathsum_operators(d, "extension", max_length)
        for side in d.side_graphs:
            exact = extension_kernel(side, d.interface)
            for t in (0.5, 1.0):
                tail = d_max * exp_tail(d_max * t, max_length)
                got, ref = ext.evaluate(t), exact.evaluate(t)
                for u in side.vertices:
                    diff = np.abs(got[og.index[u]] - ref[side.index[u]]).max()
                    assert diff <= tail + 1e-11


def test_operator_interface_matches_spectral_kernel():
    rng = np.random.default_rng(83)
    for _ in range(4):
        d = random_decomposition(rng, 8)
        og = d.ordered_graph
        d_max = float(og.valencies.max()) if og.edges else 0.0
        max_length = 12
        got = pathsum_operators(d, "interface", max_length)
        exact = interface_kernel(d)
        for t in (0.5, 1.0):
            tail = exp_tail(d_max * t, max_length + 1)
            diff = np.abs(got.evaluate(t) - exact.evaluate(t)).max()
            assert diff <= tail + 1e-11


def test_operator_dn_prime_matches_one_step_factor():
    rng = np.random.default_rng(97)
    for _ in range(4):
        d = random_decomposition(rng, 8)
        og = d.ordered_graph
        d_max = float(og.valencies.max()) if og.edges else 0.0
        max_length = 12
        got = pathsum_operators(d, "dn_prime", max_length)
        exact = one_step_interface_kernel(d)
        for t in (0.5, 1.0):
            tail = d_max**2 * exp_tail(d_max * t, max_length - 1)
            diff = np.abs(got.evaluate(t) - exact.evaluate(t)).max()
            assert diff <= tail + 1e-11
        assert np.array_equal(got.atom, exact.atom)


def test_operator_validation():
    d = LINE3_SPLIT
    with pytest.raises(ValueError):
        pathsum_operators(d, "schur", 5)
    with pytest.raises(ValueError):
        pathsum_operators(d, "interface", -1)
    with pytest.raises(LengthCapError):
        pathsum_operators(d, "interface", LENGTH_CAP + 1)
    with pytest.raises(ValueError):
        pathsum_operators(d, "interface", 5).evaluate(0.0)


def _operator_walk(d: Decomposition, which: str, max_length: int):
    """(step, advance, start, close, layers, theta) of a class-sum operator,
    from its definition: a walk inside S (all vertices for ``interface``, C
    otherwise) from the start rows, closed by the closing matrix."""
    og = d.ordered_graph
    yi = [og.index[v] for v in d.interface]
    ci = [i for i in range(og.n) if i not in yi]
    a, vals, eye = og.adjacency, og.valencies, np.eye(og.n)
    if which == "interface":
        s, start, close, layers = (list(range(og.n)), eye[yi], eye[:, yi],
                                   max_length + 1)
    elif which == "extension":
        s, start, close, layers = ci, eye[:, ci], a[np.ix_(ci, yi)], max_length
    else:
        s, start, close, layers = (ci, a[np.ix_(yi, ci)], a[np.ix_(ci, yi)],
                                   max_length - 1)
    theta = float(vals.max())
    return (np.diag(theta - vals[s]), a[np.ix_(s, s)], start, close, layers,
            theta)


def test_operators_within_their_rounding_bound_of_the_dense_walk():
    # every operand is nonnegative: each entry of the layer sum is off by
    # at most its walk's gamma, relative, and the closing product rounds
    # each of its terms at most c times, c the most nonzeros in a column of
    # the closing matrix; so each value v lies within rho e of the exact
    # class sum e, rho = gamma + c u, and within rho v / (1 - rho) of it.
    # The dense walk has its own rounding, so the two values agree within
    # the sum of the two bounds
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(101)
    for _ in range(6):
        d = random_decomposition(rng, 10)
        for which in ("extension", "interface", "dn_prime"):
            for max_length in (3, 12, LENGTH_CAP):
                op = pathsum_operators(d, which, max_length)
                step, advance, start, close, layers, theta = _operator_walk(
                    d, which, max_length)
                c = np.count_nonzero(close, axis=0).max()
                for t in (0.3, 1.0, 4.0):
                    vals = op.evaluate(t)
                    sums, gamma = uniformized_walk(step, advance, start,
                                                   layers, theta, t)
                    assert np.array_equal(vals, sums.sum(axis=0) @ close)
                    rho = gamma + u * c
                    bound = rho / (1.0 - rho) * vals
                    assert np.all(bound <= 1e-11 * vals)
                    sums, gamma = dense_walk(step, advance, start, layers,
                                             theta, t)
                    want = sums.sum(axis=0) @ close
                    rho = gamma + u * c
                    assert np.all(np.abs(vals - want)
                                  <= bound + rho / (1.0 - rho) * want)


BULL = Decomposition(
    Graph(("a", "b", "c", "p", "q"),
          (("a", "b"), ("b", "c"), ("a", "c"), ("a", "p"), ("b", "q"))),
    ("a", "b"))
HOUSE = Decomposition(
    Graph(("1", "2", "3", "4", "5"),
          (("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("5", "1"), ("5", "2"))),
    ("1", "2"))


def test_operator_zero_cutoff():
    # with no walk layer left the values are zero and only the atoms stay:
    # the identity on Y for the extension, and the single edges A_YY of
    # dn_prime once paths of length 1 are allowed
    for d in (LINE3_SPLIT, BULL):
        og = d.ordered_graph
        yi = [og.index[v] for v in d.interface]
        ny = len(yi)
        for which, max_length, atom in (
                ("extension", 0, np.eye(og.n)[:, yi]),
                ("dn_prime", 0, np.zeros((ny, ny))),
                ("dn_prime", 1, og.adjacency[np.ix_(yi, yi)])):
            op = pathsum_operators(d, which, max_length)
            assert np.array_equal(op.atom, atom)
            for t in GRID:
                assert np.array_equal(op.evaluate(t), np.zeros_like(atom))


def _mp_layers(vals, adj, layers: int, t: float) -> list:
    """Blocks 0 .. layers - 1 of the first block row of exp(tM), to 40 digits.

    M is the layered generator on the given vertices: -diag(vals) on the
    diagonal blocks and adj on the superdiagonal ones.  Summed by its Taylor
    series until the terms, bounded by (t |M|)^p / p! with |M| <= 2 max(vals),
    fall below 1e-45.
    """
    n = len(vals)
    nbrs = [[k for k in range(n) if adj[k][j]] for j in range(n)]
    with mp.workdps(40):
        t = mp.mpf(t)
        x = 2 * t * max([1] + [int(v) for v in vals])
        term = [[[mp.mpf(int(i == j and k == 0)) for j in range(n)]
                 for i in range(n)] for k in range(layers)]
        acc = [[[mp.mpf(0)] * n for _ in range(n)] for _ in range(layers)]
        p, size = 0, mp.mpf(1)
        while p <= x or size > mp.mpf(10) ** -45:
            for k in range(layers):
                for i in range(n):
                    for j in range(n):
                        acc[k][i][j] += term[k][i][j]
            p += 1
            size *= x / p
            term = [[[(-int(vals[j]) * term[k][i][j]
                       + (mp.fsum(term[k - 1][i][m] for m in nbrs[j]) if k else 0))
                      * t / p
                      for j in range(n)] for i in range(n)] for k in range(layers)]
    return acc


def _mp_closed(start, blocks, close) -> list:
    """start @ (sum of the blocks) @ close, with 0/1 integer start and close."""
    total = [[mp.fsum(b[i][j] for b in blocks) for j in range(len(blocks[0]))]
             for i in range(len(blocks[0]))]
    return [[mp.fsum(start[r][i] * total[i][j] * close[j][c]
                     for i in range(len(total)) for j in range(len(total))
                     if start[r][i] and close[j][c])
             for c in range(len(close[0]))] for r in range(len(start))]


@pytest.mark.parametrize("d", [BULL, HOUSE], ids=["bull", "house"])
def test_operators_match_a_40_digit_reference(d):
    # every nonzero entry to 1e-14 relative; zeros are exact
    og = d.ordered_graph
    yi = [og.index[v] for v in d.interface]
    ci = [i for i in range(og.n) if i not in yi]
    a = og.adjacency.astype(int)
    vals = og.valencies.astype(int)
    eye = np.eye(og.n, dtype=int)
    max_length = 12
    for t in (0.3, 0.7):
        whole = _mp_layers(vals, a, max_length + 1, t)
        inner = _mp_layers(vals[ci], a[np.ix_(ci, ci)], max_length, t)
        a_cy = a[np.ix_(ci, yi)]
        refs = {
            "interface": _mp_closed(eye[yi], whole, eye[:, yi]),
            "extension": _mp_closed(eye[:, ci], inner, a_cy),
            "dn_prime": _mp_closed(a[np.ix_(yi, ci)], inner[:-1], a_cy),
        }
        for which, ref in refs.items():
            got = pathsum_operators(d, which, max_length).evaluate(t)
            assert got.shape == (len(ref), len(ref[0]))
            assert any(r for row in ref for r in row)
            for got_row, ref_row in zip(got.tolist(), ref):
                for g, r in zip(got_row, ref_row):
                    with mp.workdps(40):
                        assert abs(mp.mpf(g) - r) <= mp.mpf("1e-14") * abs(r)


@pytest.mark.parametrize("d", [BULL, HOUSE], ids=["bull", "house"])
def test_pathsum_bound_covers_rounding(d):
    # at eps 1e-16 the cutoff stops where the row-sum deficit falls to the
    # rounding of the walk, and the rounding part of the bound covers the
    # residual against a 40-digit expm
    g = d.ordered_graph
    with mp.workdps(40):
        lap = mp.matrix((np.diag(g.valencies) - g.adjacency).astype(int).tolist())
    for t in (0.3, 0.7):
        with mp.workdps(40):
            exact = mp.expm(-mp.mpf(t) * lap)
        for i, u in enumerate(g.vertices):
            for j, v in enumerate(g.vertices):
                val, _, bound = pathsum_heat(g, u, v, t, 1e-16)
                with mp.workdps(40):
                    assert abs(mp.mpf(val) - exact[i, j]) <= bound
