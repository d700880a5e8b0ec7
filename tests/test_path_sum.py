from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from conftest import taylor_expm
from heatglue.expmix import (
    ExpMix,
    allclose,
    convolve,
    delta,
    evaluate,
    exponential,
    mix_sum,
    structural_max_diff,
)
from heatglue.graph_heat import (
    Decomposition,
    Graph,
    _one_step_interface_mixes,
    extension_kernel,
    interface_kernel,
    random_decomposition,
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
    starts = [v for v in g.vertices if g.degree(v) > 0]
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
    assert err.achievable == exp_tail(2.0 * 40.0, LENGTH_CAP + 1)
    assert math.isfinite(err.achievable)


def test_pathsum_argument_validation():
    with pytest.raises(ValueError):
        pathsum_heat(LINE3, "1", "3", 0.0, 1e-6)
    with pytest.raises(ValueError):
        pathsum_heat(LINE3, "1", "3", 1.0, 0.0)
    with pytest.raises(ValueError):
        pathsum_heat(LINE3, "1", "x", 1.0, 1e-6)


def test_pathsum_sharp_tail_never_looser():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_graph(rng, 5)
        if not g.edges:
            continue
        u = g.vertices[0]
        v = g.vertices[-1]
        _, k_c, b_c = pathsum_heat(g, u, v, 0.7, 1e-7)
        val, k_s, b_s = pathsum_heat(g, u, v, 0.7, 1e-7, sharp_tail=True)
        assert k_s <= k_c
        assert b_s < 1e-7
        lap = np.diag(g.valencies) - g.adjacency
        ref = taylor_expm(-lap * 0.7)[g.index[u], g.index[v]]
        assert abs(val - ref) <= b_s + 1e-11


def test_pathsum_edgeless_graph():
    g = Graph(("a", "b"))
    val, k, bnd = pathsum_heat(g, "a", "a", 1.0, 1e-6)
    assert val == 1.0 and k == 0 and bnd == 0.0
    val, _, _ = pathsum_heat(g, "a", "b", 1.0, 1e-6)
    assert val == 0.0


# ---------------------------------------------------------------------------
# operators as truncated class sums
# ---------------------------------------------------------------------------


def test_operator_extension_two_vertex():
    d = Decomposition(LINE2, ("2",))
    ext = pathsum_operators(d, "extension", 12)
    assert allclose(ext.entry("1", "2"), exponential(1.0, 1.0), atol=1e-13)
    assert ext.entry("2", "2") == delta(1.0)


def test_operator_dn_prime_line3():
    d = Decomposition(LINE3, ("2",), ("1",), ("3",))
    dn = pathsum_operators(d, "dn_prime", 12)
    assert allclose(dn.entry("2", "2"), exponential(2.0, 1.0), atol=1e-13)
    exact = _one_step_interface_mixes(d)
    assert structural_max_diff(dn.entry("2", "2"), exact[0][0]) < 1e-12


def test_operator_interface_line3_truncated():
    d = Decomposition(LINE3, ("2",), ("1",), ("3",))
    ifk = pathsum_operators(d, "interface", 12)
    t = 1.0
    ref = (1.0 + 2.0 * math.exp(-3.0)) / 3.0
    tail = exp_tail(2.0 * t, 13)
    assert abs(evaluate(ifk.entry("2", "2"), t) - ref) <= tail


def test_operators_equal_per_path_sums():
    # the layered accumulation must agree with literally summing weights
    rng = np.random.default_rng(61)
    for _ in range(3):
        d = random_decomposition(rng, 7)
        og = d.ordered_graph
        y = d.interface
        max_length = 5
        ext = pathsum_operators(d, "extension", max_length)
        for u in og.vertices:
            for yv in y:
                paths = enumerate_paths(
                    og, PathClassSpec("P_prime_end", u, yv, y, max_length))
                want = mix_sum(
                    [segment_weight(og, trim_end(p)) for p in paths]
                    or [ExpMix()])
                assert structural_max_diff(ext.entry(u, yv), want) < 1e-11
        ifk = pathsum_operators(d, "interface", max_length)
        for y1 in y:
            for y2 in y:
                paths = enumerate_paths(
                    og, PathClassSpec("P", y1, y2, (), max_length))
                want = mix_sum([weight(og, p) for p in paths] or [ExpMix()])
                assert structural_max_diff(ifk.entry(y1, y2), want) < 1e-11
        dn = pathsum_operators(d, "dn_prime", max_length)
        for y1 in y:
            for y2 in y:
                paths = enumerate_paths(
                    og, PathClassSpec("P_double_prime", y1, y2, y, max_length))
                parts = []
                for p in paths:
                    seg = trim_start(p)
                    seg = None if seg is None else trim_end(seg)
                    parts.append(segment_weight(og, seg))
                want = mix_sum(parts or [ExpMix()])
                assert structural_max_diff(dn.entry(y1, y2), want) < 1e-11


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
            for u in side.vertices:
                for yv in d.interface:
                    for t in (0.5, 1.0):
                        tail = d_max * exp_tail(d_max * t, max_length)
                        got = evaluate(ext.entry(u, yv), t) \
                            if ext.entry(u, yv).terms else 0.0
                        ref_mix = exact.entry(u, yv)
                        ref = evaluate(ref_mix, t) if ref_mix.terms else 0.0
                        assert abs(got - ref) <= tail + 1e-11


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
        exact = _one_step_interface_mixes(d)
        ny = len(d.interface)
        for t in (0.5, 1.0):
            tail = d_max**2 * exp_tail(d_max * t, max_length - 1)
            for p in range(ny):
                for q in range(ny):
                    e = exact[p][q]
                    ref = evaluate(e, t) if e.terms else 0.0
                    m = got.entry(d.interface[p], d.interface[q])
                    val = evaluate(m, t) if m.terms else 0.0
                    assert abs(val - ref) <= tail + 1e-11
                    assert m.atom == e.atom


def test_operator_validation():
    d = Decomposition(LINE3, ("2",), ("1",), ("3",))
    with pytest.raises(ValueError):
        pathsum_operators(d, "schur", 5)
    with pytest.raises(ValueError):
        pathsum_operators(d, "interface", -1)
    with pytest.raises(LengthCapError):
        pathsum_operators(d, "interface", LENGTH_CAP + 1)


def test_operator_zero_cutoff():
    d = Decomposition(LINE3, ("2",), ("1",), ("3",))
    ext = pathsum_operators(d, "extension", 0)
    assert ext.entry("2", "2") == delta(1.0)
    assert ext.entry("1", "2") == ExpMix()
    dn = pathsum_operators(d, "dn_prime", 0)
    assert dn.entry("2", "2") == ExpMix()
