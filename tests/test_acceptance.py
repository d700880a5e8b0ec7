"""Gate suite: one test per shipped requirement.

Each test prints a single summary line (visible under ``pytest -s``; under
``-v`` the test outcome itself is the per-requirement pass/fail line) and
asserts both the numerical target and the time budget.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.linalg

from heatglue import heat1d
from heatglue.expmix import ExpMix, laplace, structural_max_diff
from heatglue.graph_heat import (
    Decomposition,
    Graph,
    extension_kernel,
    glue_I,
    glue_II,
    heat_kernel,
    interface_kernel,
    laplacian,
    one_step_interface_kernel,
    random_decomposition,
    schur_cut,
)
from heatglue.path_sum import exp_tail, pathsum_heat, pathsum_operators

LINE3 = Graph(("1", "2", "3"), (("1", "2"), ("2", "3")))
LINE3_SPLIT = Decomposition(LINE3, ("2",), ("1",), ("3",))

SEED = 20260822


def _gate(n: int, label: str, ok: bool, detail: str) -> None:
    print(f"[gate {n:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_graph(rng: np.random.Generator, n: int) -> Graph:
    verts = tuple(f"v{i}" for i in range(n))
    edges = tuple(
        (verts[i], verts[j])
        for i in range(n) for j in range(i + 1, n)
        if rng.random() < 0.5
    )
    return Graph(verts, edges)


def _expm_oracle(g: Graph, t: float) -> np.ndarray:
    return scipy.linalg.expm(-t * laplacian(g).entries)


# ---------------------------------------------------------------------------


def test_gate_01_line3_glued_kernel_closed_forms():
    t0 = time.perf_counter()
    third, sixth = 1.0 / 3.0, 1.0 / 6.0
    corner = ExpMix(0.0, ((third, 0, 0.0), (0.5, 0, 1.0), (sixth, 0, 3.0)))
    across = ExpMix(0.0, ((third, 0, 0.0), (-0.5, 0, 1.0), (sixth, 0, 3.0)))
    edge = ExpMix(0.0, ((third, 0, 0.0), (-third, 0, 3.0)))
    center = ExpMix(0.0, ((third, 0, 0.0), (2.0 * third, 0, 3.0)))
    refs = {
        ("1", "1"): corner, ("3", "3"): corner,
        ("1", "3"): across, ("3", "1"): across,
        ("1", "2"): edge, ("2", "1"): edge,
        ("2", "3"): edge, ("3", "2"): edge,
        ("2", "2"): center,
    }
    km = glue_I(LINE3_SPLIT)
    worst = max(
        structural_max_diff(km.entry(u, v), ref)
        for (u, v), ref in refs.items()
    )
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _gate(1, "3-vertex line closed forms", ok,
          f"worst coef diff {worst:.2e}, {dt:.2f}s")
    assert worst < 1e-12
    assert dt < 1.0


def test_gate_02_first_formula_matches_matrix_exponential():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        d = random_decomposition(rng, 12)
        km = glue_I(d)
        for t in (0.25, 1.0, 4.0):
            diff = np.abs(km.evaluate(t) - _expm_oracle(d.ordered_graph, t))
            worst = max(worst, float(diff.max()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 5.0
    _gate(2, "first formula on 50 random splits", ok,
          f"worst entry diff {worst:.2e}, {dt:.1f}s")
    assert worst < 1e-10
    assert dt < 5.0


def test_gate_03_second_formula_series_and_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_err = 0.0
    bound_violations = 0
    for _ in range(50):
        d = random_decomposition(rng, 12)
        km, bound = glue_II(d, 40)
        for t in (0.25, 1.0, 4.0):
            err = float(np.abs(
                km.evaluate(t) - _expm_oracle(d.ordered_graph, t)).max())
            worst_err = max(worst_err, err)
            if err > bound(t):
                bound_violations += 1
    dt = time.perf_counter() - t0
    ok_bound = bound_violations == 0 and dt < 120.0
    ok_agree = worst_err <= 1e-8
    _gate(3, "one-sided series on the same 50 splits",
          ok_bound and ok_agree,
          f"bound true in all cases: {bound_violations == 0}, "
          f"worst err {worst_err:.2e} vs target 1e-08, {dt:.1f}s")
    assert bound_violations == 0
    assert dt < 120.0
    # the series truncated at k_max = 40 matches expm to 1e-8 on every split
    assert worst_err <= 1e-8


def test_gate_04_path_sum_heat_certified():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    eps = 1e-9
    worst = 0.0
    for _ in range(20):
        g = _random_graph(rng, 5)
        for t in (0.3, 0.7):
            exact = _expm_oracle(g, t)
            for i, u in enumerate(g.vertices):
                for j, v in enumerate(g.vertices):
                    value, cutoff, bound = pathsum_heat(g, u, v, t, eps)
                    err = abs(value - exact[i, j])
                    worst = max(worst, err)
                    assert err <= max(eps, 1e-9)
                    # positive terms: the truncation sits below the limit
                    # and the certified tail closes the bracket
                    assert exact[i, j] - value >= -1e-12
                    assert exact[i, j] - value <= bound + 1e-12
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _gate(4, "path sum heat kernel on 20 random graphs", ok,
          f"worst err {worst:.2e}, {dt:.1f}s")
    assert dt < 60.0


def test_gate_05_path_sum_operators_within_tails():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    cases = [LINE3_SPLIT] + [random_decomposition(rng, 8) for _ in range(10)]
    max_length = 12
    for d in cases:
        og = d.ordered_graph
        d_max = float(og.valencies.max()) if og.edges else 0.0
        ext = pathsum_operators(d, "extension", max_length)
        ifk = pathsum_operators(d, "interface", max_length)
        dnp = pathsum_operators(d, "dn_prime", max_length)
        exact_if = interface_kernel(d)
        exact_dn = one_step_interface_kernel(d)
        for t in (0.5, 1.0):
            tail_ext = d_max * exp_tail(d_max * t, max_length)
            got = ext.evaluate(t)
            for side in d.side_graphs:
                ref = extension_kernel(side, d.interface).evaluate(t)
                for u in side.vertices:
                    for q in range(len(d.interface)):
                        gv = got[og.index[u], q]
                        rv = ref[side.index[u], q]
                        assert abs(gv - rv) <= tail_ext + 1e-11
            tail_if = exp_tail(d_max * t, max_length + 1)
            diff = np.abs(ifk.evaluate(t) - exact_if.evaluate(t)).max()
            assert diff <= tail_if + 1e-11
            tail_dn = d_max**2 * exp_tail(d_max * t, max_length - 1)
            diff = np.abs(dnp.evaluate(t) - exact_dn.evaluate(t)).max()
            assert diff <= tail_dn + 1e-11
            assert np.array_equal(dnp.atom, exact_dn.atom)
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _gate(5, "operator path sums within tails", ok, f"{dt:.1f}s")
    assert dt < 60.0


def test_gate_06_interface_forms_agree():
    t0 = time.perf_counter()
    worst = 0.0
    for l1 in (0.5, 1.0, 2.0):
        for l2 in (0.5, 1.0, 2.0):
            for t in (0.05, 0.3, 1.0, 3.0):
                a, _ = heat1d.interface_two_intervals(l1, l2, t, "residues")
                b, _ = heat1d.interface_two_intervals(l1, l2, t, "poisson")
                worst = max(worst, abs(a - b))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 5.0
    _gate(6, "junction density, two routes", ok,
          f"worst diff {worst:.2e}, {dt:.2f}s")
    assert worst < 1e-12
    assert dt < 5.0


def test_gate_07_interval_reflection_route():
    t0 = time.perf_counter()
    worst = 0.0
    for l1, l2 in ((1.0, 1.0), (1.0, 2.0)):
        xs = [l2 * i / 6.0 for i in range(1, 6)]
        for x in xs:
            for y in xs:
                for t in (0.2, 0.7, 2.0):
                    _, res = heat1d.glue_intervals_I(l1, l2, x, y, t)
                    worst = max(worst, res)
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 60.0
    _gate(7, "interval reflection route", ok,
          f"worst residual {worst:.2e}, {dt:.1f}s")
    assert worst < 1e-8
    assert dt < 60.0


def test_gate_08_interval_echo_series():
    t0 = time.perf_counter()
    worst_excess = -np.inf
    for l1, l2 in ((1.0, 1.0), (1.0, 2.0)):
        xs = [l2 * i / 6.0 for i in range(1, 6)]
        for x in xs:
            for y in xs:
                for t in (0.2, 0.7, 2.0):
                    _, tail, res = heat1d.glue_intervals_II(
                        l1, l2, x, y, t, n_max=6)
                    worst_excess = max(worst_excess,
                                       res - max(1e-6, tail))
                    assert res < max(1e-6, tail)
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    _gate(8, "interval echo series", ok,
          f"worst residual excess {worst_excess:.2e}, {dt:.1f}s")
    assert dt < 10.0


def test_gate_09_ray_gluing_gaussian():
    t0 = time.perf_counter()
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        for y in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0):
                value, _, _ = heat1d.glue_rays(x, y, t)
                ref = math.exp(-(x + y) ** 2 / (4.0 * t)) \
                    / math.sqrt(4.0 * math.pi * t)
                worst = max(worst, abs(value - ref))
    dt = time.perf_counter() - t0
    ok = worst < 1e-8 and dt < 2.0
    _gate(9, "ray gluing against the Gaussian", ok,
          f"worst err {worst:.2e}, {dt:.1f}s")
    assert worst < 1e-8
    assert dt < 2.0


def test_gate_10_circle_cut_series():
    t0 = time.perf_counter()
    residuals = []
    for k_max in range(5):
        _, _, res = heat1d.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4,
                                             k_max)
        residuals.append(res)
    dt = time.perf_counter() - t0
    non_increasing = all(
        residuals[i + 1] <= residuals[i] for i in range(len(residuals) - 1))
    ok = residuals[-1] < 1e-5 and non_increasing and dt < 5.0
    _gate(10, "circle cut to arc", ok,
          f"residuals {['%.2e' % r for r in residuals]}, {dt:.1f}s")
    assert residuals[-1] < 1e-5
    assert non_increasing
    assert dt < 5.0


def test_gate_11_boundary_response_gaps():
    t0 = time.perf_counter()
    L = 2.0
    rep = heat1d.dn_cylinder(L, (24.0, 35.0, 99.0), 1.0)
    for omega, gap in zip((24.0, 35.0, 99.0), rep.gaps):
        mu = math.sqrt(omega + 1.0)
        assert mu * L > 4.0
        asym = 2.0 * mu * math.exp(-2.0 * L * mu)
        assert abs(gap - asym) <= 0.05 * asym
    omegas = tuple((2.0 * math.pi * k / 2.0) ** 2 for k in range(6))
    ratios = [heat1d.dn_cylinder(L, omegas, float(m * m)).ratio
              for m in (1, 2, 4, 8)]
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    dt = time.perf_counter() - t0
    ok = decreasing and dt < 1.0
    _gate(11, "boundary response gaps", ok,
          f"ratios {['%.2e' % r for r in ratios]}, {dt:.2f}s")
    assert decreasing
    assert dt < 1.0


def test_gate_12_algebra_suites_under_seeds():
    t0 = time.perf_counter()
    from heatglue.expmix import convolve

    def random_mix(rng):
        n = int(rng.integers(0, 5))
        terms = tuple(
            (float(rng.uniform(-3.0, 3.0)), int(rng.integers(0, 4)),
             float(rng.integers(0, 41)) / 8.0)
            for _ in range(n))
        return ExpMix(float(rng.uniform(-2.0, 2.0)), terms)

    for seed in range(5):
        rng = np.random.default_rng(SEED + 100 + seed)
        # transform homomorphism: convolution becomes a product
        for _ in range(20):
            f, g = random_mix(rng), random_mix(rng)
            h = convolve(f, g)
            scale = max([1.0] + [abs(x.coef) for x in h.terms])
            for s in (0.5, 1.7, 4.0):
                assert abs(laplace(h, s) - laplace(f, s) * laplace(g, s)) \
                    <= 1e-9 * scale
        # conservation, positivity, semigroup on a random graph
        g = _random_graph(rng, int(rng.integers(4, 9)))
        k = heat_kernel(g)
        for t in (0.1, 1.0, 5.0):
            mat = k.evaluate(t)
            assert mat.min() > -1e-12
            assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-10
        assert np.abs(
            k.evaluate(0.4) @ k.evaluate(1.1) - k.evaluate(1.5)).max() < 1e-10
        # killed Green's matrix against its Schur complement route
        n = int(rng.integers(4, 9))
        gg = _random_graph(rng, n)
        kill = tuple(np.array(gg.vertices)[
            rng.choice(n, size=int(rng.integers(1, 3)), replace=False)])
        for m2 in (0.5, 2.0):
            _, gap = schur_cut(gg, kill, m2)
            assert gap < 1e-10
    dt = time.perf_counter() - t0
    ok = dt < 60.0
    _gate(12, "algebra suites under 5 seeds", ok, f"{dt:.1f}s")
    assert dt < 60.0
