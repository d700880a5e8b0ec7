from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from conftest import dense_walk, taylor_expm
from mpmath import mp

from heatglue.expmix import (
    ExpMix,
    allclose,
    convolve,
    delta,
    evaluate,
    exponential,
)
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
    Path,
    PathClassSpec,
    check_path,
    concat,
    enumerate_paths,
    pathsum_heat,
    pathsum_operators,
    segment_weight,
    split_at_interface,
    split_at_visits,
    split_check,
    trim_end,
    trim_start,
    weight,
)
from heatglue.path_sum import exp_tail

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


def random_walk(rng: np.random.Generator, g: Graph, length: int) -> Path | None:
    starts = [v for v, d in zip(g.vertices, g.valencies) if d > 0]
    if not starts:
        return None
    cur = starts[rng.integers(len(starts))]
    seq = [cur]
    for _ in range(length):
        nbrs = g.neighbors(cur)
        if not nbrs:
            return None
        cur = nbrs[rng.integers(len(nbrs))]
        seq.append(cur)
    return Path(tuple(seq))


def brute_class_paths(g: Graph, tag: str, start, end, interface,
                      max_length: int) -> list[tuple]:
    """Generate-and-filter reference enumerator over all vertex sequences."""
    yset = set(interface)
    a = g.adjacency
    idx = g.index
    out = []
    for k in range(max_length + 1):
        for mid in itertools.product(g.vertices, repeat=k):
            seq = (start,) + mid
            if seq[-1] != end:
                continue
            if any(x == y for x, y in zip(seq, seq[1:])):
                continue
            if any(a[idx[x], idx[y]] == 0.0 for x, y in zip(seq, seq[1:])):
                continue
            if tag == "P_prime_end":
                if not (seq[-1] in yset
                        and all(v not in yset for v in seq[:-1])):
                    continue
            elif tag == "P_prime_start":
                if not (seq[0] in yset
                        and all(v not in yset for v in seq[1:])):
                    continue
            elif tag == "P_double_prime":
                if not (k >= 1 and seq[0] in yset and seq[-1] in yset
                        and all(v not in yset for v in seq[1:-1])):
                    continue
            out.append(seq)
    out.sort(key=lambda vs: (len(vs), tuple(idx[v] for v in vs)))
    return out


# ---------------------------------------------------------------------------
# paths and trims
# ---------------------------------------------------------------------------


def test_path_rejects_consecutive_repeat():
    with pytest.raises(ValueError):
        Path(("1", "1", "2"))


def test_path_rejects_empty():
    with pytest.raises(ValueError):
        Path(())


def test_path_length_and_ends():
    p = Path(("1", "2", "3"))
    assert p.length == 2
    assert p.start == "1"
    assert p.end == "3"


def test_check_path_needs_edges():
    with pytest.raises(ValueError):
        check_path(LINE3, Path(("1", "3")))
    with pytest.raises(ValueError):
        check_path(LINE3, Path(("1", "x")))
    check_path(LINE3, Path(("1", "2", "3", "2")))


def test_concat_needs_shared_junction():
    joined = concat(Path(("1", "2")), Path(("2", "3")))
    assert joined.vertices == ("1", "2", "3")
    with pytest.raises(ValueError):
        concat(Path(("1", "2")), Path(("3", "2")))


def test_trims_drop_one_vertex():
    p = Path(("1", "2", "3"))
    assert trim_end(p).vertices == ("1", "2")
    assert trim_start(p).vertices == ("2", "3")
    single = Path(("2",))
    assert trim_end(single) is None
    assert trim_start(single) is None


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_line3_unique_route():
    got = enumerate_paths(LINE3, PathClassSpec("P", "1", "3", (), 3))
    assert [p.vertices for p in got] == [("1", "2", "3")]


def test_enumerate_double_prime_loops():
    got = enumerate_paths(
        LINE3, PathClassSpec("P_double_prime", "2", "2", ("2",), 24))
    assert [p.vertices for p in got] == [("2", "1", "2"), ("2", "3", "2")]


def test_enumerate_zero_cutoff_distinct_endpoints():
    got = enumerate_paths(LINE3, PathClassSpec("P", "1", "3", (), 0))
    assert got == ()


def test_enumerate_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(6):
        g = random_graph(rng, 5 + trial % 2)
        if not g.edges:
            continue
        y = tuple(v for i, v in enumerate(g.vertices) if i % 3 == 0)
        cases = [
            ("P", g.vertices[0], g.vertices[-1], ()),
            ("P_prime_end", g.vertices[1], y[0], y),
            ("P_prime_start", y[0], g.vertices[1], y),
            ("P_double_prime", y[0], y[-1], y),
        ]
        for tag, s, e, yy in cases:
            if tag != "P" and (s in set(yy)) != (tag != "P_prime_end"):
                pass  # membership constraints handled by the class itself
            try:
                got = enumerate_paths(g, PathClassSpec(tag, s, e, yy, 5))
            except ValueError:
                # endpoint not in the marked set for a primed class
                assert tag in ("P_prime_end", "P_prime_start",
                               "P_double_prime")
                continue
            want = brute_class_paths(g, tag, s, e, yy, 5)
            assert [p.vertices for p in got] == want


def test_enumerate_order_is_length_then_lex():
    got = enumerate_paths(LINE3, PathClassSpec("P", "2", "2", (), 4))
    keys = [(p.length, tuple(LINE3.index[v] for v in p.vertices)) for p in got]
    assert keys == sorted(keys)
    again = enumerate_paths(LINE3, PathClassSpec("P", "2", "2", (), 4))
    assert got == again


def test_enumerate_rejects_cutoff_past_cap():
    with pytest.raises(LengthCapError):
        enumerate_paths(LINE3, PathClassSpec("P", "1", "3", (), LENGTH_CAP + 1))


def test_class_spec_validation():
    with pytest.raises(ValueError):
        PathClassSpec("Q", "1", "3", (), 3)
    with pytest.raises(ValueError):
        PathClassSpec("P_prime_end", "1", "3", (), 3)
    with pytest.raises(ValueError):
        PathClassSpec("P", "1", "3", (), -1)
    with pytest.raises(ValueError):
        enumerate_paths(
            LINE3, PathClassSpec("P_prime_end", "1", "3", ("2",), 3))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weight_single_vertex_is_bare_exponential():
    g = Graph(("a", "b", "c"), (("a", "b"), ("a", "c")))
    w = weight(g, Path(("a",)))
    assert allclose(w, exponential(1.0, 2.0), atol=0.0)


def test_weight_three_step_closed_form():
    w = weight(LINE3, Path(("1", "2", "3")))
    want = ExpMix(0.0, ((-1.0, 0, 1.0), (1.0, 1, 1.0), (1.0, 0, 2.0)))
    assert allclose(w, want, atol=1e-13)


def test_weight_three_step_against_quadrature():
    # nested two-step Gauss-Legendre values for e^-r * e^-2r * e^-r
    frozen = {
        0.5: 0.06461411131512564,
        1.0: 0.13533528323661276,
        2.0: 0.15365092212534692,
    }
    w = weight(LINE3, Path(("1", "2", "3")))
    for t, q in frozen.items():
        assert abs(evaluate(w, t) - q) < 1e-13


def test_segment_weight_empty_is_atom():
    assert segment_weight(LINE3, None) == delta(1.0)
    p = Path(("1", "2"))
    assert segment_weight(LINE3, trim_end(trim_start(p))) == delta(1.0)


def test_weight_positive_on_grid():
    rng = np.random.default_rng(11)
    done = 0
    while done < 10:
        g = random_graph(rng, 6)
        p = random_walk(rng, g, int(rng.integers(1, 7)))
        if p is None:
            continue
        w = weight(g, p)
        for t in GRID:
            assert evaluate(w, t) > 0.0
        done += 1


# ---------------------------------------------------------------------------
# composition and cutting
# ---------------------------------------------------------------------------


def test_split_check_line3():
    assert split_check(LINE3, Path(("1", "2")), Path(("2", "3"))) < 1e-12


def test_split_check_zero_length_factor():
    assert split_check(LINE3, Path(("1", "2")), Path(("2",))) < 1e-12
    assert split_check(LINE3, Path(("2",)), Path(("2", "3"))) < 1e-12


def test_split_check_random_pairs():
    rng = np.random.default_rng(23)
    done = 0
    while done < 12:
        g = random_graph(rng, 6)
        p = random_walk(rng, g, int(rng.integers(2, 8)))
        if p is None:
            continue
        cut = int(rng.integers(0, p.length + 1))
        p1 = Path(p.vertices[: cut + 1])
        p2 = Path(p.vertices[cut:])
        assert split_check(g, p1, p2) < 1e-11
        done += 1


def test_split_check_rejects_non_composable():
    with pytest.raises(ValueError):
        split_check(LINE3, Path(("1", "2")), Path(("3", "2")))


def test_split_at_interface_round_trip():
    rng = np.random.default_rng(31)
    done = 0
    while done < 10:
        d = random_decomposition(rng, 9)
        og = d.ordered_graph
        p = random_walk(rng, og, int(rng.integers(3, 9)))
        if p is None or not any(v in set(d.interface) for v in p.vertices):
            continue
        head, mid, tail = split_at_interface(p, d.interface)
        yset = set(d.interface)
        assert head.end in yset and mid.start in yset
        assert mid.end in yset and tail.start in yset
        assert all(v not in yset for v in head.vertices[:-1])
        assert all(v not in yset for v in tail.vertices[1:])
        assert concat(concat(head, mid), tail) == p
        done += 1


def test_split_at_interface_requires_contact():
    with pytest.raises(ValueError):
        split_at_interface(Path(("1",)), ("2",))


def test_cutting_equals_direct_weight():
    # resolve a crossing path at each marked visit and reconvolve
    rng = np.random.default_rng(47)
    done = 0
    while done < 20:
        d = random_decomposition(rng, 9)
        og = d.ordered_graph
        yset = set(d.interface)
        p = random_walk(rng, og, int(rng.integers(3, 10)))
        if p is None or sum(v in yset for v in p.vertices) < 2:
            continue
        legs = split_at_visits(p, d.interface)
        vals = og.valencies
        acc = segment_weight(og, trim_end(legs[0]))
        for i, leg in enumerate(legs[1:], start=1):
            visit = leg.vertices[0]
            acc = convolve(acc, exponential(1.0, float(vals[og.index[visit]])))
            if i == len(legs) - 1:
                acc = convolve(acc, segment_weight(og, trim_start(leg)))
            else:
                seg = trim_start(leg)
                seg = None if seg is None else trim_end(seg)
                acc = convolve(acc, segment_weight(og, seg))
        direct = weight(og, p)
        for t in GRID:
            assert abs(evaluate(acc, t) - evaluate(direct, t)) < 1e-10
        done += 1


def test_split_at_visits_leg_count():
    p = Path(("1", "2", "3", "2", "1"))
    legs = split_at_visits(p, ("2",))
    assert [leg.vertices for leg in legs] == [
        ("1", "2"), ("2", "3", "2"), ("2", "1")]
    p2 = Path(("2", "1", "2"))
    legs2 = split_at_visits(p2, ("2",))
    assert [leg.vertices for leg in legs2] == [("2",), ("2", "1", "2"), ("2",)]


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
    # that length, not only close to the limit.  The reference evaluates
    # each weight in its canonical exponential form, which cancels when
    # valencies differ by one (2.5e-14 relative on a single path of the
    # 5-vertex line at t = 0.3); on the cycle (one valency) and the star
    # (valencies 4 and 1) it is accurate to a few ulps
    v5 = tuple("abcde")
    cycle = Graph(v5, tuple(zip(v5, v5[1:] + v5[:1])))
    star = Graph(v5, tuple(("a", w) for w in v5[1:]))
    for g in (cycle, star):
        for u, v in (("a", "c"), ("b", "e")):
            for t in (0.3, 0.7):
                val, k, _ = pathsum_heat(g, u, v, t, 1e-2)
                paths = enumerate_paths(
                    g, PathClassSpec("P", u, v, max_length=k))
                want = math.fsum(evaluate(weight(g, p), t) for p in paths)
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


def _inner_segment(p: Path) -> Path | None:
    seg = trim_start(p)
    return None if seg is None else trim_end(seg)


def test_operators_equal_per_path_sums():
    # the layered walk must agree with literally summing weights; a path
    # whose trimmed segment is empty is a unit atom
    rng = np.random.default_rng(61)
    for _ in range(3):
        d = random_decomposition(rng, 7)
        og = d.ordered_graph
        y = d.interface
        max_length = 5
        for which, tag, rows, marked, trim in (
                ("extension", "P_prime_end", og.vertices, y, trim_end),
                ("interface", "P", y, (), lambda p: p),
                ("dn_prime", "P_double_prime", y, y, _inner_segment)):
            op = pathsum_operators(d, which, max_length)
            assert op.rows == rows and op.cols == y
            segs = [[[trim(p) for p in enumerate_paths(
                          og, PathClassSpec(tag, u, v, marked, max_length))]
                     for v in y] for u in rows]
            atom = [[sum(seg is None for seg in cell) for cell in row]
                    for row in segs]
            assert np.array_equal(op.atom, atom)
            weights = [[[weight(og, seg) for seg in cell if seg is not None]
                        for cell in row] for row in segs]
            for t in GRID:
                want = [[math.fsum(evaluate(w, t) for w in cell) for cell in row]
                        for row in weights]
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
    # the dense walk has its own rounding, so the two values agree within
    # the sum of the two bounds; both bounds are relative to the entry
    u = np.finfo(float).eps / 2
    rng = np.random.default_rng(101)
    for _ in range(6):
        d = random_decomposition(rng, 10)
        for which in ("extension", "interface", "dn_prime"):
            for max_length in (3, 12, LENGTH_CAP):
                op = pathsum_operators(d, which, max_length)
                step, advance, start, close, layers, theta = _operator_walk(
                    d, which, max_length)
                for t in (0.3, 1.0, 4.0):
                    vals, bound = op.evaluate_with_bound(t)
                    assert np.array_equal(vals, op.evaluate(t))
                    assert np.all(bound <= 1e-11 * vals)
                    sums, gamma = dense_walk(step, advance, start, layers,
                                             theta, t)
                    want = sums.sum(axis=0) @ close
                    rho = gamma + u * np.count_nonzero(close, axis=0).max()
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
