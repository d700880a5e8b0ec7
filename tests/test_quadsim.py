"""Tests for adaptive simplex convolution quadrature."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatglue.expmix import ExpMix, evaluate, simplex_convolve
from heatglue.quadsim import (
    BLOCK_POINTS,
    MAX_PANELS,
    ConvergenceError,
    TimeFactor,
    _GAUSS_IDX,
    _GW,
    _KW,
    _NODES,
    adaptive,
    conv_n,
    half_integral,
    inverse_pow_gaussian,
    regular,
)

SQRT_4PI = math.sqrt(4.0 * math.pi)


def mix_factor(mix):
    """Wrap an exponential mixture as a vectorized regular TimeFactor."""
    def ev(ts, m=mix):
        return np.array([evaluate(m, float(x)) for x in np.atleast_1d(ts)])
    return regular(ev)


def crossing_density(x):
    """x/sqrt(4 pi) t^(-3/2) exp(-x^2/4t), tagged with its t->0 behavior."""
    def ev(t, x=x):
        return (x / SQRT_4PI) * np.asarray(t, dtype=float)**-1.5 \
            * np.exp(-x * x / (4.0 * np.asarray(t, dtype=float)))
    return inverse_pow_gaussian(ev, c=x * x / 4.0, alpha=1.5)


# ---------------------------------------------------------------------------
# panel rule tables
# ---------------------------------------------------------------------------


def test_embedded_gauss_rule_matches_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(_NODES[_GAUSS_IDX], nodes, atol=1e-15, rtol=0.0)
    assert np.allclose(_GW, weights, atol=1e-15, rtol=0.0)


def test_kronrod_rule_basic_properties():
    assert np.all(np.diff(_NODES) > 0.0)
    assert np.allclose(_NODES, -_NODES[::-1], atol=0.0, rtol=0.0)
    assert np.all(_KW > 0.0)
    assert abs(float(np.sum(_KW)) - 2.0) < 1e-14


def test_kronrod_rule_is_exact_through_degree_22():
    for k in range(0, 23):
        val = float(_KW @ _NODES**k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(val - exact) < 1e-13, k


# ---------------------------------------------------------------------------
# factor validation
# ---------------------------------------------------------------------------


def test_time_factor_validation():
    with pytest.raises(ValueError, match="tag"):
        TimeFactor(lambda t: t, kind="oscillatory")
    with pytest.raises(ValueError, match="c"):
        TimeFactor(lambda t: t, kind="inverse_pow_gaussian", c=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        inverse_pow_gaussian(lambda t: t**-1.5, c=0.0, alpha=1.5)
    f = inverse_pow_gaussian(lambda t: t, c=0.25, alpha=1.5)
    assert f.c == 0.25
    with pytest.raises(Exception):
        f.c = 1.0  # frozen


def test_conv_n_argument_validation():
    f = regular(lambda t: np.exp(-t))
    with pytest.raises(ValueError, match="two factors"):
        conv_n([f], 1.0, 1e-8)
    with pytest.raises(TypeError):
        conv_n([f, lambda t: t], 1.0, 1e-8)
    for bad_t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            conv_n([f, f], bad_t, 1e-8)
    with pytest.raises(ValueError):
        conv_n([f, f], 1.0, 0.0)


# ---------------------------------------------------------------------------
# fixed values
# ---------------------------------------------------------------------------


def test_two_exponentials():
    v, est = conv_n([regular(lambda t: np.exp(-t)),
                     regular(lambda t: np.exp(-2.0 * t))], 1.0, 1e-10)
    exact = math.exp(-1.0) - math.exp(-2.0)
    assert abs(v - exact) < 1e-12
    assert est < 1e-10


def test_zero_factor_gives_zero():
    z = regular(lambda t: np.zeros_like(np.asarray(t, dtype=float)))
    f = regular(lambda t: np.exp(-t))
    v, est = conv_n([f, z], 1.0, 1e-10)
    assert v == 0.0
    assert est == 0.0


def test_ill_conditioned_mixture_reference():
    """Four factors with two nearly equal rates (2.4318 vs 2.4195).

    The closed-form route through the mixture algebra loses ~2.5e-10 here
    to coefficient cancellation; the quadrature does not.  Reference value
    from a 50-digit partial-fraction expansion of the Laplace image.
    """
    mixes = [
        ExpMix(0.0, ((1.8149848417452359, 1, 0.8305801319736572),
                     (0.7402993128402058, 2, 2.6459496471095334))),
        ExpMix(0.0, ((1.0422829151186974, 2, 0.9795917138821653),
                     (1.6782111530889794, 0, 2.4317944005057295))),
        ExpMix(0.0, ((0.6587652577774243, 2, 1.612735125082269),)),
        ExpMix(0.0, ((1.1962952337340864, 1, 2.4194533737985084),)),
    ]
    ref = 8.153400975369576760348e-07
    v, est = conv_n([mix_factor(m) for m in mixes], 0.4, 1e-10)
    assert abs(v - ref) < 1e-15
    assert abs(evaluate(simplex_convolve(mixes), 0.4) - ref) > 1e-11


# ---------------------------------------------------------------------------
# agreement with the exact mixture algebra
# ---------------------------------------------------------------------------


def test_matches_mixture_algebra_on_random_factors():
    """Well-separated rates keep the algebraic reference trustworthy."""
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        slots = rng.permutation([0.3, 0.8, 1.4, 2.1, 2.9, 3.8])[:n]
        mixes = [ExpMix(0.0, ((float(rng.uniform(0.3, 2.0)),
                               int(rng.integers(0, 3)),
                               float(s + rng.uniform(-0.05, 0.05))),))
                 for s in slots]
        ref_mix = simplex_convolve(mixes)
        factors = [mix_factor(m) for m in mixes]
        for t in (0.4, 1.3):
            ref = evaluate(ref_mix, t)
            v, est = conv_n(factors, t, 1e-10)
            assert abs(v - ref) < 1e-10
            assert est < 1e-9


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.1, 4.0), gap=st.floats(0.1, 3.0),
       t=st.floats(0.1, 3.0))
def test_two_exponential_closed_form(a, gap, t):
    b = a + gap
    v, _ = conv_n([regular(lambda s: np.exp(-a * s)),
                   regular(lambda s: np.exp(-b * s))], t, 1e-11)
    exact = (math.exp(-a * t) - math.exp(-b * t)) / (b - a)
    assert abs(v - exact) < 1e-10


# ---------------------------------------------------------------------------
# singular endpoint handling
# ---------------------------------------------------------------------------


def test_pure_power_endpoint():
    # t^(-1/2) conv e^(-t) = sqrt(pi) erfi(sqrt(t)) e^(-t)
    from scipy.special import erfi
    f = inverse_pow_gaussian(lambda t: np.asarray(t, dtype=float)**-0.5,
                             c=0.0, alpha=0.5)
    g = regular(lambda t: np.exp(-t))
    for t in (0.3, 1.0, 2.5):
        v, est = conv_n([f, g], t, 1e-10)
        ref = math.sqrt(math.pi) * float(erfi(math.sqrt(t))) * math.exp(-t)
        assert abs(v - ref) < 1e-10


def test_crossing_density_additivity():
    # the level-crossing densities form a convolution semigroup in x
    for (x, y, t) in [(1.0, 1.0, 1.0), (0.5, 2.0, 0.7), (2.0, 0.5, 1.5)]:
        v, est = conv_n([crossing_density(x), crossing_density(y)], t, 1e-10)
        z = x + y
        ref = (z / SQRT_4PI) * t**-1.5 * math.exp(-z * z / (4.0 * t))
        assert abs(v - ref) < 1e-10


def test_triple_with_flat_middle():
    v, est = conv_n([
        crossing_density(1.0),
        inverse_pow_gaussian(lambda t: 1.0 / np.sqrt(4.0 * math.pi * t),
                             c=0.0, alpha=0.5),
        crossing_density(1.0),
    ], 1.0, 1e-9)
    assert abs(v - math.exp(-1.0) / SQRT_4PI) < 1e-8


def test_triple_grid():
    mid = inverse_pow_gaussian(lambda t: 1.0 / np.sqrt(4.0 * math.pi * t),
                               c=0.0, alpha=0.5)
    for x in (0.5, 1.0, 2.0):
        for y in (0.5, 1.0, 2.0):
            for t in (0.5, 1.0):
                v, est = conv_n([crossing_density(x), mid,
                                 crossing_density(y)], t, 1e-9)
                ref = math.exp(-(x + y)**2 / (4.0 * t)) / math.sqrt(
                    4.0 * math.pi * t)
                assert abs(v - ref) < 1e-8, (x, y, t)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_permutation_invariance():
    fs = [regular(lambda t: np.exp(-0.3 * t)),
          crossing_density(1.0),
          regular(lambda t: np.asarray(t, dtype=float) * np.exp(-t))]
    tol = 1e-9
    base, _ = conv_n(fs, 2.0, tol)
    for order in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
        v, _ = conv_n([fs[i] for i in order], 2.0, tol)
        assert abs(v - base) < 2.0 * tol


def test_time_scaling_power_law():
    # with every factor rescaled t -> s t, the n-fold convolution at t/s
    # equals s^(1-n) times the original at t
    def factors(s):
        return [
            regular(lambda t: np.exp(-0.3 * s * t)),
            inverse_pow_gaussian(
                lambda t: (1.0 / SQRT_4PI) * (s * t)**-1.5
                * np.exp(-0.25 / (s * t)),
                c=0.25 / s, alpha=1.5),
            regular(lambda t: (s * t) * np.exp(-s * t)),
        ]
    base, _ = conv_n(factors(1.0), 2.0, 1e-10)
    for s in (0.5, 2.0):
        v, _ = conv_n(factors(s), 2.0 / s, 1e-10)
        assert abs(v - base / s**2) < 1e-9


def test_repeat_calls_are_bitwise_identical():
    fs = [crossing_density(1.0), crossing_density(1.0)]
    v1, e1 = conv_n(fs, 1.0, 1e-9)
    v2, e2 = conv_n(fs, 1.0, 1e-9)
    assert v1 == v2
    assert e1 == e2


def test_convergence_error_on_small_budget():
    rough = regular(lambda t: np.where(
        np.sin(1e3 / np.maximum(np.asarray(t, dtype=float), 1e-12)) > 0,
        1.0, 0.0) * np.exp(-t))
    smooth = regular(lambda t: np.exp(-t))
    with pytest.raises(ConvergenceError, match="panels"):
        conv_n([rough, smooth], 1.0, 1e-13, max_panels=64)
    assert MAX_PANELS == 2**14


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def scalar_adaptive(f, a, b, tol, max_panels=MAX_PANELS):
    """One integral at a time, worst panel first: the reference rule.

    Returns (value, error estimate, panel count)."""
    def panel(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fv = f(mid + half * _NODES)
        vk = half * float(_KW @ fv)
        vg = half * float(_GW @ fv[_GAUSS_IDX])
        return vk, abs(vk - vg), half * float(_KW @ np.abs(fv))

    total, err, mass = panel(a, b)
    heap, counter, panels = [(-err, 0, a, b, total, err)], 0, 1
    while err > max(tol, 50.0 * 2.220446049250313e-16 * (mass + 1e-300)):
        assert panels < max_panels
        _, _, lo, hi, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, m1 = panel(lo, mid)
        v2, e2, m2 = panel(mid, hi)
        total += v1 + v2 - pv
        err += e1 + e2 - pe
        mass += m1 + m2
        heapq.heappush(heap, (-e1, counter + 1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 2, mid, hi, v2, e2))
        counter += 2
        panels += 1
    return total, err, panels


def test_batched_adaptive_follows_the_scalar_panel_sequence():
    ks = np.array([0.5, 3.0, 20.0, 60.0])
    b = np.array([1.0, 2.0, 0.7, 3.0])
    tol = np.array([1e-12, 1e-10, 1e-12, 1e-9])
    rows_seen = np.zeros(ks.size, dtype=int)

    def f(x, rows):
        np.add.at(rows_seen, rows, 1)
        return np.sin(ks[rows, None] * x) * np.exp(-x)

    val, est = adaptive(f, 0.0, b, tol, MAX_PANELS)
    for i, k in enumerate(ks):
        ref, ref_err, panels = scalar_adaptive(
            lambda x, k=k: np.sin(k * x) * np.exp(-x), 0.0, b[i], tol[i])
        assert abs(val[i] - ref) <= 1e-14 * abs(ref)
        assert abs(est[i] - ref_err) <= 1e-14 * abs(ref)
        assert rows_seen[i] == 2 * panels - 1  # the first panel, then pairs


def test_conv_n_at_array_of_times_matches_per_time_calls():
    two = [regular(lambda t: np.exp(-0.7 * t)), crossing_density(1.0)]
    three = [crossing_density(0.8),
             inverse_pow_gaussian(lambda t: 1.0 / np.sqrt(4.0 * math.pi * t),
                                  c=0.0, alpha=0.5),
             crossing_density(1.3)]
    times = np.array([[0.3, 0.9], [1.7, 2.6]])
    for factors in (two, three):
        val, est = conv_n(factors, times, 1e-9)
        assert val.shape == est.shape == times.shape
        for idx, t in np.ndenumerate(times):
            v, e = conv_n(factors, float(t), 1e-9)
            assert abs(val[idx] - v) <= 1e-14 * abs(v)
            assert abs(est[idx] - e) <= 1e-14 * abs(v)


def test_batch_with_one_unconvergent_integral_raises():
    def f(x, rows):
        rough = np.where(np.sin(1e3 / np.maximum(x, 1e-12)) > 0, 1.0, 0.0)
        return np.where(rows[:, None] == 1, rough, 1.0) * np.exp(-x)

    with pytest.raises(ConvergenceError, match="panels"):
        adaptive(f, 0.0, np.ones(3), 1e-13, 64)


def test_zero_width_rows_and_nonpositive_times_are_zero():
    def f(x, rows):
        assert np.all(x > 0.0)
        return np.exp(-x)

    val, est = adaptive(f, np.array([0.0, 1.0, 2.0]),
                        np.array([1.0, 1.0, 1.0]), 1e-12, MAX_PANELS)
    assert abs(val[0] - (1.0 - math.exp(-1.0))) < 1e-14
    assert val[1] == val[2] == est[1] == est[2] == 0.0
    for tag in (("regular",), ("power", 0.5), ("inverse", 0.3, 1.5)):
        val, est = half_integral(f, np.array([0.0, -1.0, 0.5]), tag, 1e-12,
                                 MAX_PANELS)
        assert val[0] == val[1] == est[0] == est[1] == 0.0
        assert val[2] > 0.0


def test_repeated_batched_calls_are_bitwise_identical():
    fs = [crossing_density(1.0), crossing_density(0.5)]
    times = np.linspace(0.2, 2.0, 23)
    v1, e1 = conv_n(fs, times, 1e-9)
    v2, e2 = conv_n(fs, times, 1e-9)
    assert np.array_equal(v1, v2)
    assert np.array_equal(e1, e2)


def test_evaluators_see_bounded_blocks():
    sizes = []

    def counted(ev):
        def wrapped(t):
            sizes.append(np.size(t))
            return ev(t)
        return wrapped

    mid = inverse_pow_gaussian(
        counted(lambda t: 1.0 / np.sqrt(4.0 * math.pi * t)), c=0.0, alpha=0.5)
    fs = [crossing_density(1.0), mid, regular(counted(lambda t: np.exp(-t)))]
    conv_n(fs, np.linspace(0.5, 2.0, 97), 1e-9)
    assert max(sizes) == BLOCK_POINTS

    rows_per_call = []

    def f(x, rows):
        rows_per_call.append(x.size)
        return np.exp(-x)

    adaptive(f, 0.0, np.linspace(0.1, 3.0, 500), 1e-12, MAX_PANELS)
    assert max(rows_per_call) <= BLOCK_POINTS
    assert len(rows_per_call) > 1
