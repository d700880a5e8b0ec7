"""Tests for the 1D heat kernels and the gluing and cutting checks."""

import math
import os
import pathlib
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatglue import heat1d as h
from heatglue.quadsim import conv_n, inverse_pow_gaussian

SQRT_4PI = math.sqrt(4.0 * math.pi)
TIGHT = h.EvalParams(eps_abs=1e-14, max_terms=10**6)


def factor(images):
    """An image sum as an independent quadrature factor, with its
    small-time envelope tau^(-alpha) exp(-c/tau): c = d_min^2/4, and alpha
    1/2 for Gaussians, 3/2 for first-passage densities."""
    c = (images.d[0] if images.d.size else images.reach) ** 2 / 4.0
    return inverse_pow_gaussian(images, c=c,
                                alpha=0.5 if images.kind == "g" else 1.5)


FLAT = factor(h._G0)  # the flat junction pulse


def gauss_integral(f, a, b, n=200):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    z = 0.5 * (b - a) * nodes + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.sum(weights * np.array([f(v) for v in z])))


def laplace_in_time(kernel, m, umax=8.0, n=400):
    """Numeric transform int_0^inf e^(-m^2 t) kernel(t) dt via t = u^2."""
    return gauss_integral(
        lambda u: 2.0 * u * math.exp(-m * m * u * u) * kernel(u * u),
        0.0, umax, n)


# ---------------------------------------------------------------------------
# closed forms on the line and the ray
# ---------------------------------------------------------------------------


def test_line_kernel_peak_value():
    assert abs(h.k_line(0.3, 0.3, 1.0) - 1.0 / SQRT_4PI) < 1e-15


def test_line_kernel_symmetry():
    assert h.k_line(0.2, 1.4, 0.7) == h.k_line(1.4, 0.2, 0.7)


def test_line_kernel_laplace_transform():
    for x, y in [(0.0, 0.7), (1.2, 0.4)]:
        got = laplace_in_time(lambda t: h.k_line(x, y, t), 1.0)
        assert abs(got - 0.5 * math.exp(-abs(x - y))) < 1e-10


def test_ray_kernel_vanishes_on_boundary():
    assert h.k_ray(0.7, 0.0, 0.4) == 0.0
    assert h.k_ray(0.0, 1.1, 2.0) == 0.0


def test_ray_kernel_laplace_transform():
    m = 1.0
    for x, y in [(0.5, 0.8), (1.5, 0.3)]:
        got = laplace_in_time(lambda t: h.k_ray(x, y, t), m)
        ref = (math.exp(-m * abs(x - y)) - math.exp(-m * (x + y))) / (2.0 * m)
        assert abs(got - ref) < 1e-8


def test_line_minus_ray_is_gaussian_in_the_mirrored_distance():
    for x, y, t in [(0.5, 0.8, 0.4), (1.0, 1.0, 1.0), (2.0, 0.3, 0.9)]:
        gap = h.k_line(x, y, t) - h.k_ray(x, y, t)
        ref = math.exp(-((x + y) ** 2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
        assert abs(gap - ref) < 1e-15


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_ray_flux_matches_central_difference(x, t):
    step = 1e-5
    odd = lambda y: h.k_line(x, y, t) - h.k_line(x, -y, t)
    fd = -(odd(step) - odd(-step)) / (2.0 * step)
    val = h.dk_ray(x, t)
    assert val < 0.0
    assert abs(val - fd) < 1e-7 * abs(val)


def test_ray_flux_is_linear_near_the_wall():
    t = 0.6
    r1 = h.dk_ray(1e-4, t) / 1e-4
    r2 = h.dk_ray(1e-7, t) / 1e-7
    assert abs(r1 / r2 - 1.0) < 1e-6
    assert abs(r2 + 1.0 / (2.0 * math.sqrt(math.pi) * t**1.5)) < 1e-9


def test_time_validation():
    with pytest.raises(ValueError, match="t must be"):
        h.k_line(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="t must be"):
        h.k_ray(1.0, 1.0, -0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        h.k_ray(-1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# interval kernel, both representations
# ---------------------------------------------------------------------------


def test_interval_representations_agree_at_reference_point():
    vi, bi = h.k_interval(1.0, 0.3, 0.7, 0.5, "images")
    vs, bs = h.k_interval(1.0, 0.3, 0.7, 0.5, "spectral")
    assert abs(vi - vs) < 1e-12
    assert bi >= 0.0 and bs >= 0.0


def test_interval_vanishes_at_dirichlet_ends():
    for rep in ("images", "spectral"):
        v0, b0 = h.k_interval(1.0, 0.0, 0.4, 0.3, rep)
        vL, bL = h.k_interval(1.0, 0.6, 1.0, 0.3, rep)
        assert abs(v0) <= b0 + 1e-15
        assert abs(vL) <= bL + 1e-15


def test_interval_large_time_is_dominated_by_the_slowest_mode():
    L, x, y, t = 1.0, 0.3, 0.6, 4.0
    v, _ = h.k_interval(L, x, y, t, "spectral")
    lead = (2.0 / L) * math.exp(-math.pi**2 * t / L**2) \
        * math.sin(math.pi * x / L) * math.sin(math.pi * y / L)
    assert abs(v - lead) < 1e-4 * abs(lead)


@settings(max_examples=60, deadline=None)
@given(
    L=st.floats(0.5, 2.0),
    t=st.floats(0.05, 5.0),
    xf=st.floats(0.0, 1.0),
    yf=st.floats(0.0, 1.0),
)
def test_interval_representation_duality(L, t, xf, yf):
    vi, _ = h.k_interval(L, xf * L, yf * L, t, "images")
    vs, _ = h.k_interval(L, xf * L, yf * L, t, "spectral")
    assert abs(vi - vs) < 1e-11


@settings(max_examples=40, deadline=None)
@given(
    L=st.floats(0.5, 2.0),
    t=st.floats(0.05, 5.0),
    xf=st.floats(0.0, 1.0),
    yf=st.floats(0.0, 1.0),
)
def test_interval_positivity_within_bound(L, t, xf, yf):
    v, b = h.k_interval(L, xf * L, yf * L, t, "auto")
    assert v >= -b - 1e-15


def test_interval_semigroup_composition():
    L, x, y = 1.0, 0.3, 0.8
    for t1, t2 in [(0.2, 0.3), (0.5, 1.1)]:
        composed = gauss_integral(
            lambda z: h.k_interval(L, x, z, t1, "auto", TIGHT)[0]
            * h.k_interval(L, z, y, t2, "auto", TIGHT)[0], 0.0, L)
        direct, _ = h.k_interval(L, x, y, t1 + t2, "auto", TIGHT)
        assert abs(composed - direct) < 1e-8


def test_interval_auto_switches_representation_smoothly():
    L = 1.0
    below = L * L / math.pi * 0.999
    above = L * L / math.pi * 1.001
    va, _ = h.k_interval(L, 0.4, 0.5, below, "auto")
    vb, _ = h.k_interval(L, 0.4, 0.5, above, "auto")
    assert abs(va - vb) < 5e-3


# ---------------------------------------------------------------------------
# boundary flux of the interval
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rep", ["images", "spectral"])
@pytest.mark.parametrize("x,t", [(0.4, 0.3), (0.7, 1.2), (0.15, 0.08)])
def test_interval_flux_matches_finite_difference(rep, x, t):
    L = 1.0
    step = 1e-5
    # the Dirichlet kernel continues oddly through y = 0, so the central
    # difference across the wall is k(x, step) / step up to O(step^2)
    fd = -h.k_interval(L, x, step, t, "images", TIGHT)[0] / step
    val, _ = h.dk_interval(L, x, t, rep)
    assert abs(val - fd) < 1e-7 * abs(val)


def test_interval_flux_sign_and_leading_term():
    val, _ = h.dk_interval(1.0, 0.2, 0.05)
    assert val < 0.0
    lead = -0.2 * math.exp(-0.04 / 0.2) / (2.0 * math.sqrt(math.pi) * 0.05**1.5)
    assert abs(val - lead) < 1e-5 * abs(lead)


def test_interval_flux_vanishes_when_the_source_sits_on_the_wall():
    vi, _ = h.dk_interval(1.0, 0.0, 0.3, "images")
    vs, _ = h.dk_interval(1.0, 0.0, 0.3, "spectral")
    assert abs(vi) < 1e-15
    assert abs(vs) < 1e-15


@settings(max_examples=40, deadline=None)
@given(L=st.floats(0.5, 2.0), t=st.floats(0.05, 5.0), xf=st.floats(0.0, 1.0))
def test_interval_flux_representation_duality(L, t, xf):
    vi, _ = h.dk_interval(L, xf * L, t, "images")
    vs, _ = h.dk_interval(L, xf * L, t, "spectral")
    assert abs(vi - vs) < 1e-11


# ---------------------------------------------------------------------------
# circle kernel
# ---------------------------------------------------------------------------


def test_circle_representations_agree():
    for L, xy, t in [(2.0, (0.2, 1.5), 0.15), (2.0, (0.2, 1.5), 2.0),
                     (1.0, (0.9, 0.05), 0.4)]:
        vi, _ = h.k_circle(L, xy[0], xy[1], t, "images")
        vs, _ = h.k_circle(L, xy[0], xy[1], t, "spectral")
        assert abs(vi - vs) < 1e-12


def test_circle_wraparound_symmetry():
    v1, _ = h.k_circle(2.0, 0.1, 1.9, 0.3)
    v2, _ = h.k_circle(2.0, 0.1, -0.1, 0.3)
    assert abs(v1 - v2) < 1e-15


def test_circle_mass_is_conserved():
    total = gauss_integral(
        lambda z: h.k_circle(2.0, 0.3, z, 0.7, "auto", TIGHT)[0], 0.0, 2.0)
    assert abs(total - 1.0) < 1e-10


def test_circle_semigroup_composition():
    L, x, y = 2.0, 0.3, 1.2
    for t1, t2 in [(0.2, 0.4), (0.9, 0.6)]:
        composed = gauss_integral(
            lambda z: h.k_circle(L, x, z, t1, "auto", TIGHT)[0]
            * h.k_circle(L, z, y, t2, "auto", TIGHT)[0], 0.0, L)
        direct, _ = h.k_circle(L, x, y, t1 + t2, "auto", TIGHT)
        assert abs(composed - direct) < 1e-8


# ---------------------------------------------------------------------------
# evaluation budget and dispatch
# ---------------------------------------------------------------------------


def test_params_validation_and_coercion():
    p = h.EvalParams(1e-9, 100.0)
    assert p.eps_abs == 1e-9 and p.max_terms == 100
    with pytest.raises(ValueError, match="eps_abs"):
        h.EvalParams(1e-16, 100)
    with pytest.raises(ValueError, match="max_terms"):
        h.EvalParams(1e-9, 0)
    with pytest.raises(ValueError, match="max_terms"):
        h.EvalParams(1e-9, 10**7)


def test_truncation_error_reports_achievable_bound():
    with pytest.raises(h.TruncationError) as info:
        h.k_interval(1.0, 0.5, 0.5, 0.05, "spectral", h.EvalParams(1e-12, 5))
    assert math.isfinite(info.value.achievable)
    assert info.value.achievable > 1e-12
    with pytest.raises(h.TruncationError):
        h.k_interval(1.0, 0.5, 0.5, 5.0, "images", h.EvalParams(1e-12, 3))


def test_kernel_dispatch_and_validation():
    # "auto" takes the image sum below t = L^2/pi and the mode sum above
    for t, rep in ((0.2, "images"), (0.5, "spectral")):
        assert h.k_interval(1.0, 0.3, 0.7, t) == h.k_interval(1.0, 0.3, 0.7, t, rep)
        assert h.dk_interval(1.0, 0.3, t) == h.dk_interval(1.0, 0.3, t, rep)
    for kernel in (lambda rep: h.k_interval(1.0, 0.3, 0.7, 0.5, rep),
                   lambda rep: h.dk_interval(1.0, 0.3, 0.5, rep),
                   lambda rep: h.k_circle(1.0, 0.3, 0.7, 0.5, rep)):
        with pytest.raises(ValueError, match="unknown representation"):
            kernel("modal")


# ---------------------------------------------------------------------------
# interface kernel of two joined intervals
# ---------------------------------------------------------------------------


def test_interface_forms_agree_at_reference_point():
    vr, _ = h.interface_two_intervals(1.0, 1.0, 0.3, "residues")
    vp, _ = h.interface_two_intervals(1.0, 1.0, 0.3, "poisson")
    assert abs(vr - vp) < 1e-12


@pytest.mark.parametrize("L1,L2", [(0.5, 0.5), (0.5, 2.0), (2.0, 1.0)])
@pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 3.0])
def test_interface_forms_agree_on_grid(L1, L2, t):
    vr, _ = h.interface_two_intervals(L1, L2, t, "residues")
    vp, _ = h.interface_two_intervals(L1, L2, t, "poisson")
    assert abs(vr - vp) < 1e-12


def test_interface_is_the_joint_kernel_at_the_junction():
    for L1, L2, t in [(1.0, 1.0, 0.3), (0.7, 1.4, 0.8), (2.0, 0.5, 0.1)]:
        vi, _ = h.interface_two_intervals(L1, L2, t, "residues")
        vk, _ = h.k_interval(L1 + L2, L1, L1, t, "auto", TIGHT)
        assert abs(vi - vk) < 1e-13


def test_interface_equal_sides_kill_even_modes():
    # with L1 = L2 = L the series is the length-2L kernel at its midpoint,
    # where sin(pi k / 2) removes every even mode
    for L, t in [(1.0, 0.4), (0.8, 1.3)]:
        vi, _ = h.interface_two_intervals(L, L, t, "residues")
        vk, _ = h.k_interval(2.0 * L, L, L, t, "spectral", TIGHT)
        assert abs(vi - vk) < 1e-13


def test_interface_short_time_limit_is_the_free_peak():
    t = 1e-4
    v, _ = h.interface_two_intervals(1.0, 1.0, t, "poisson")
    assert abs(v * math.sqrt(4.0 * math.pi * t) - 1.0) < 1e-12


def test_interface_form_validation():
    with pytest.raises(ValueError, match="form"):
        h.interface_two_intervals(1.0, 1.0, 0.3, "modal")


# ---------------------------------------------------------------------------
# gluing two intervals, image-resummation route
# ---------------------------------------------------------------------------


def test_glue_intervals_reference_point():
    v, res = h.glue_intervals_I(1.0, 1.0, 0.4, 0.6, 0.7)
    assert res < 1e-8
    direct = h.glue_direct(1.0, 1.0, 0.4, 0.6, 0.7)
    assert abs(v - direct) < 1e-12


@pytest.mark.parametrize("L1,L2,x,y,t", [
    (1.0, 2.0, 5 / 3, 5 / 3, 0.2), (1.0, 2.0, 4 / 3, 5 / 3, 0.2),
    (1.0, 1.0, 0.4, 0.6, 0.7), (0.6, 1.3, 0.2, 1.1, 0.05),
    (1.0, 1.0, 0.5, 0.5, 2.0), (2.0, 0.4, 0.0, 0.3, 0.01)])
def test_direct_difference_matches_forty_digits(L1, L2, x, y, t):
    # K_S - K_L2 in 40 digits at the joint points L1 + x, L1 + y taken
    # exactly; two kernel values differenced in floating point miss it by
    # 3.3e-16 at the first case, 5.7e-10 of its correction 5.8e-7
    got = h.glue_direct(L1, L2, x, y, t)
    with mp.workdps(40):
        L1, L2, x, y, t = (mp.mpf(v) for v in (L1, L2, x, y, t))

        def kernel(L, p, q):
            return mp.fsum(mp.exp(-(p - q + 2 * k * L) ** 2 / (4 * t))
                           - mp.exp(-(p + q + 2 * k * L) ** 2 / (4 * t))
                           for k in range(-60, 61)) / mp.sqrt(4 * mp.pi * t)

        want = kernel(L1 + L2, L1 + x, L1 + y) - kernel(L2, x, y)
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("L1,L2,x,y,t", [
    (7.748908902871454, 2.8213163033739366, 0.047089546858612316,
     0.04107829463208869, 0.00038250662773810836),
    (3.0, 5.0, 0.01, 0.02, 1e-4), (1.0, 10.0, 0.003, 0.001, 1e-5),
    (0.5, 4.0, 0.0, 0.05, 2e-4), (2.0, 3.3, 0.11, 0.07, 3e-3),
    (0.9, 6.1, 0.02, 0.0, 5e-4)])
def test_direct_difference_near_the_junction_matches_fifty_digits(L1, L2, x,
                                                                  y, t):
    # at small t near the junction the correction is about g_(x+y)(t), the
    # image at x + y; formed as (x + y - 2 L2) + 2 L2 it lost x + y to
    # rounding at the scale of 2 L2 and missed by 8.5e-15 to 2.7e-13 of
    # the value here (4.5e-15 absolute at the first case), formed directly
    # it misses by at most 4.7e-16
    got = h.glue_direct(L1, L2, x, y, t)
    with mp.workdps(50):
        L1, L2, x, y, t = (mp.mpf(v) for v in (L1, L2, x, y, t))

        def kernel(L, p, q):
            return mp.fsum(mp.exp(-(p - q + 2 * k * L) ** 2 / (4 * t))
                           - mp.exp(-(p + q + 2 * k * L) ** 2 / (4 * t))
                           for k in range(-20, 21)) / mp.sqrt(4 * mp.pi * t)

        want = kernel(L1 + L2, L1 + x, L1 + y) - kernel(L2, x, y)
        assert abs(got - want) <= 2e-15 * abs(want)


def test_glue_intervals_junction_point_equals_interface():
    for L1, L2, t in [(1.0, 2.0, 0.4), (0.6, 0.9, 1.1)]:
        v, _ = h.glue_intervals_I(L1, L2, 0.0, 0.0, t)
        vi, _ = h.interface_two_intervals(L1, L2, t, "poisson", TIGHT)
        assert abs(v - vi) < 1e-14


def test_glue_intervals_short_time_residual():
    _, res = h.glue_intervals_I(1.0, 1.0, 0.2, 0.8, 0.01)
    assert res < 1e-10


def test_glue_intervals_side_grid():
    for t in (0.2, 0.7, 2.0):
        for x in np.linspace(0.0, 2.0, 5):
            _, res = h.glue_intervals_I(1.0, 2.0, float(x), 1.3, t)
            assert res < 1e-8


def test_glue_intervals_domain_validation():
    with pytest.raises(ValueError, match="lie in"):
        h.glue_intervals_I(1.0, 1.0, 1.2, 0.5, 0.3)
    with pytest.raises(ValueError, match="lie in"):
        h.glue_direct(1.0, 1.0, 1.2, 0.5, 0.3)
    with pytest.raises(ValueError, match="positive"):
        h.glue_direct(1.0, 1.0, 0.2, 0.5, 0.0)


def test_reflection_sum_is_the_route_I_value():
    for L1, L2, x, y, t in [(1.0, 1.3, 0.3, 0.9, 0.5), (0.6, 2.0, 0.0, 1.7, 2.0),
                            (2.0, 0.4, 0.4, 0.1, 0.01)]:
        value = h._route_I(L1, L2, t, h._DEFAULT)(x, y)
        assert value == h.glue_intervals_I(L1, L2, x, y, t)[0]


def reflection_legs(z, L, K):
    """The signed legs of the flux pulse at depth z, k = -K .. K, as route I
    built them before its pair was taken in closed form."""
    if z == 0.0:
        return np.array([0.0]), np.array([1.0])
    vals = z + 2.0 * np.arange(-K, K + 1) * L
    return np.abs(vals), np.sign(vals)


def merged_pair(L, x, y, Kx, Ky, reach=math.inf):
    """The pair as the merged outer sum of its two pulses' legs."""
    (a, s), (b, r) = reflection_legs(x, L, Kx), reflection_legs(y, L, Ky)
    return unique_merge(np.add.outer(a, b), np.outer(s, r), reach)


def dyadic_depths():
    """(L, x, y) on a grid of 1/64, where every leg and every sum of two
    legs is exact, so that the legs' outer sum merges each family's images
    exactly: seeded draws, then x or y at 0 and at L, and x = y."""
    rng = np.random.default_rng(18)
    for _ in range(40):
        n = int(rng.integers(16, 129))
        x, y = rng.integers(0, n + 1, 2)
        yield n / 64, x / 64, y / 64
    for n, k in ((64, 23), (100, 37), (128, 64)):
        L, z = n / 64, k / 64
        for x, y in ((0.0, z), (z, 0.0), (0.0, 0.0), (L, z), (z, L),
                     (L, L), (0.0, L), (z, z)):
            yield L, x, y


def test_closed_form_pair_is_the_merged_outer_sum():
    # the same distances and integer weights, under route I's cut of K
    # legs a side and under route II's reach
    for L, x, y in dyadic_depths():
        for K in (2, 5):
            want_d, want_w = merged_pair(L, x, y, K, K)
            got = h._ImageSum("h", *h._flux_pair(L, x, y, K))
            assert got.d.tobytes() == want_d.tobytes(), (L, x, y, K)
            assert got.w.tobytes() == want_w.tobytes(), (L, x, y, K)
        for t in (0.05, 0.7, 2.0):
            reach = h._reach(t)
            Kx, Ky = (int(math.ceil((reach + z) / (2.0 * L))) + 2
                      for z in (x, y))
            want_d, want_w = merged_pair(L, x, y, Kx, Ky, reach)
            got = h._flux_pair_eval(L, x, y, t)
            assert got.d.tobytes() == want_d.tobytes(), (L, x, y, t)
            assert got.w.tobytes() == want_w.tobytes(), (L, x, y, t)


def einsum_route_I(L1, L2, x, y, t, eps_abs=1e-12):
    """Route I as the signed Gaussian triple sum over the legs of x, the
    junction images and the legs of y, reduced by one einsum: the form the
    bilinear image sum replaced."""
    S = L1 + L2
    pref = 1.0 / math.sqrt(4.0 * math.pi * t)
    acut = 2.0 * math.sqrt(t * max(1.0, math.log(256.0 * pref / eps_abs))) + 2.0 * S
    a0, s0 = reflection_legs(x, L2, int(acut / (2.0 * L2)) + 2)
    a2, s2 = reflection_legs(y, L2, int(acut / (2.0 * L2)) + 2)
    ns = np.arange(-(int(acut / (2.0 * S)) + 2), int(acut / (2.0 * S)) + 3)
    dmid = np.concatenate([2.0 * S * np.abs(ns), 2.0 * np.abs(L1 + ns * S)])
    smid = np.concatenate([np.ones(ns.size), -np.ones(ns.size)])
    total = a0[:, None, None] + dmid[None, :, None] + a2[None, None, :]
    gauss = np.exp(-np.square(total) / (4.0 * t))
    return pref * float(np.einsum("i,j,k,ijk->", s0, smid, s2, gauss))


def test_route_I_matches_the_triple_sum():
    # the same images summed, so the two differ by rounding only
    rng = np.random.default_rng(7)
    for i in range(500):
        L1, L2 = rng.uniform(0.5, 2.0, 2)
        x, y = rng.uniform(0.0, L2, 2)
        if i % 10 == 0:
            x, y = [(0.0, y), (x, L2), (x, x), (0.0, 0.0), (L2, L2)][i // 10 % 5]
        t = rng.uniform(0.05, 2.0)
        value, _ = h.glue_intervals_I(L1, L2, x, y, t)
        assert abs(value - einsum_route_I(L1, L2, x, y, t)) <= 1e-15, \
            (L1, L2, x, y, t)


# ---------------------------------------------------------------------------
# gluing two intervals, echo-series route
# ---------------------------------------------------------------------------


def echo_rate(L, t):
    """Sharp-pulse form of the round trips, before flat smoothing: its
    convolution with the flat pulse 1/sqrt(4 pi t) is the echo pulse."""
    tp = np.asarray(t, dtype=float)
    kcap = int(math.ceil(math.sqrt(70.0 * float(tp.max())) / L)) + 2
    kk = np.square(np.arange(1.0, kcap + 1.0)[:, None] * L)
    pulses = (2.0 / SQRT_4PI) * (2.0 * kk / tp - 1.0) * np.exp(-kk / tp)
    return pulses.sum(axis=0) * tp**-1.5


def test_echo_density_two_routes_agree():
    rate = inverse_pow_gaussian(lambda tau: echo_rate(1.0, tau), c=1.0,
                                alpha=2.5)
    got, _ = conv_n([FLAT, rate], 1.0, 1e-11)
    direct = float(h._echo_pulse(1.0, 1.0)(np.array([1.0]))[0])
    term_sum = 2.0 * sum(
        k * math.exp(-k * k) for k in range(1, 12)) / SQRT_4PI
    assert abs(direct - term_sum) < 1e-15
    assert abs(got - direct) < 1e-9


def test_echo_series_reference_point():
    v, tail, res = h.glue_intervals_II(1.0, 1.0, 0.4, 0.6, 0.7, 6)
    assert res < max(1e-6, tail)
    assert tail < 1e-5


@pytest.mark.parametrize("L1,L2,x,y,t", [(1.0, 2.0, 1 / 3, 1 / 3, 0.7),
                                         (1.0, 1.0, 1 / 6, 1 / 6, 0.2)])
def test_echo_series_bound_covers_its_residual(L1, L2, x, y, t):
    # at n_max 8 the truncation tail is negligible here (2.0e-51 and
    # 5.0e-174); the rounding part, 4.8e-16 and 7.3e-16, covers the
    # residuals 5.6e-17 and 0
    _, bound, res = h.glue_intervals_II(L1, L2, x, y, t, 8)
    assert res <= bound


def test_echo_series_bound_covers_its_residual_on_the_gate_08_sweep():
    # the cases of gate 08 at three orders; the largest residual/bound
    # among them is 0.094
    for n_max in (4, 6, 8):
        for L1, L2 in ((1.0, 1.0), (1.0, 2.0)):
            zs = [L2 * i / 6.0 for i in range(1, 6)]
            for x in zs:
                for y in zs:
                    for t in (0.2, 0.7, 2.0):
                        _, bound, res = h.glue_intervals_II(L1, L2, x, y, t,
                                                            n_max)
                        assert res <= bound, (n_max, L1, L2, x, y, t)


def flux_factor(L, z):
    return inverse_pow_gaussian(h._flux_pair_eval(L, z, 0.0, 2.0),
                                c=min(z, 2.0 * L - z) ** 2 / 4.0, alpha=1.5)


@pytest.mark.parametrize("L,x,y", [(1.0, 0.4, 0.6), (2.0, 1 / 3, 5 / 3),
                                   (1.0, 1.0, 0.3), (1.0, 0.5, 0.5),
                                   (0.7, 0.1, 0.7)])
def test_flux_pair_is_the_convolution_of_its_two_pulses(L, x, y):
    pair = factor(h._flux_pair_eval(L, x, y, 2.0))
    taus = np.array([0.05, 0.2, 0.7, 2.0])
    got = pair.evaluator(taus)
    want, _ = conv_n([flux_factor(L, x), flux_factor(L, y)], taus, 1e-13)
    assert np.all(np.abs(got - want) <= 1e-12)


@pytest.mark.parametrize("L,z", [(1.0, 0.3), (1.7, 1.1)])
def test_flux_pair_at_the_junction_is_the_other_pulse(L, z):
    taus = np.array([0.02, 0.05, 0.2, 0.7, 2.0])
    ref = np.array([flux_reference(L, z, t) for t in taus])
    for x, y in ((0.0, z), (z, 0.0)):
        got = h._flux_pair_eval(L, x, y, 2.0)(taus)
        assert np.all(np.abs(got - ref) <= 1e-12)
    delta = h._flux_pair_eval(L, 0.0, 0.0, 2.0)  # both at the junction
    assert delta.d.tolist() == [0.0] and delta.w.tolist() == [1.0]


def test_echo_series_tail_bound_shrinks_with_order():
    tails = [h.glue_intervals_II(1.0, 1.0, 0.4, 0.6, 0.7, n)[1]
             for n in (0, 2, 4, 6)]
    assert all(b > a for a, b in zip(tails[1:], tails[:-1]))


def test_echo_series_junction_point():
    v, tail, res = h.glue_intervals_II(1.0, 1.0, 0.0, 0.0, 0.7, 6)
    assert res < max(1e-6, tail)
    vi, _ = h.interface_two_intervals(1.0, 1.0, 0.7, "residues", TIGHT)
    assert abs(v - vi) < max(1e-6, tail)


def test_echo_series_far_wall_is_zero():
    v, _, res = h.glue_intervals_II(1.0, 1.0, 1.0, 0.3, 0.7, 2)
    assert abs(v) < 1e-12
    assert res < 1e-12


def echo_chains(L1, L2, t_max, n_last):
    """The echo chains E_0 .. E_n_last at reach _reach(t_max), composed
    one round trip at a time; empty past the reach."""
    phi = h._echo_pulse(t_max, L1, L2)
    chains = [h._G0]
    for _ in range(n_last):
        chains.append(phi.compose(chains[-1]))
    return chains


@pytest.mark.parametrize("L1,L2", [(1.0, 1.0), (1.0, 2.0)])
def test_echo_tail_covers_the_dropped_orders_summed_exactly(L1, L2):
    # the dropped orders summed out to order 60 at a wider reach, pair and
    # chain composed exactly; at most 0.27 of the tail off the junction,
    # 0.68 at it, over a grid that also had (L1, L2) = (0.6, 1.3)
    zs = [L2 * i / 6.0 for i in (1, 3, 5)]
    for t in (0.2, 0.7, 2.0):
        chains = echo_chains(L1, L2, 4.0 * t, 60)
        phi = h._echo_pulse(t, L1, L2)
        r = h._R_SQRT_T / math.sqrt(t)
        log_lam = h._log_round_trips(
            L1, L2, r, [h._log_gap(2.0 * L, r) for L in (L1, L2)])
        for x, y in [(x, y) for x in zs for y in zs] + [(0.0, 0.0)]:
            junction = x == y == 0.0
            wide = None if junction else h._flux_pair_eval(L2, x, y, 4.0 * t)
            terms = [abs(float((c if junction else wide.compose(c))(
                np.array([t]))[0])) for c in chains]
            pair = None if junction else h._flux_pair_eval(L2, x, y, t)
            for n_max in (0, 2, 4, 6, 8):
                tail = h._echo_tail(pair, phi, t, r, log_lam, n_max)
                assert math.fsum(terms[n_max + 1:]) <= tail, (x, y, t, n_max)


@pytest.mark.parametrize("L1,L2,x,y,t,n_max", [
    (1.0, 1.0, 0.5, 0.5, 1e-3, 6), (1.0, 1.0, 0.3, 0.9, 1e-3, 6),
    (2.1, 2.606, 0.1913, 1.3513, 0.0118, 10),
    (0.376, 1.022, 0.5631, 0.9888, 0.0116, 5),
    (2.628, 1.301, 0.9232, 1.1088, 0.0256, 9)])
def test_echo_series_bound_covers_the_images_past_the_reach(L1, L2, x, y, t,
                                                            n_max):
    # at small t every image, or the last ones that matter, lies past
    # _reach(t): the value is 0 or misses the correction (2.4e-108 to
    # 3.3e-22 here) by about what the dropped images add
    _, bound, res = h.glue_intervals_II(L1, L2, x, y, t, n_max)
    assert res <= bound


def test_echo_series_bound_is_informative_at_large_time():
    # twice the squared lengths: the bound is 2.5e-9, the residual 1.5e-11
    _, bound, res = h.glue_intervals_II(1.0, 1.0, 0.5, 0.5, 2.0, 6)
    assert res <= bound < 1e-8


def added(a, b):
    """Two image sums of one kind added and merged: the sum's own merge of
    the two concatenated."""
    assert a.kind == b.kind
    return h._ImageSum(a.kind, np.concatenate([a.d, b.d]),
                       np.concatenate([a.w, b.w]), min(a.reach, b.reach))


def signed_echo_sum(L1, L2, t, n_max):
    """sum_n (-1)^n E_n over the kept orders, as one Gaussian sum."""
    total = h._G0
    for n, chain in enumerate(echo_chains(L1, L2, t, n_max)[1:], 1):
        if not chain.d.size:
            break
        total = added(total, h._ImageSum("g", chain.d, (-1.0) ** n * chain.w,
                                         chain.reach))
    return total


def test_echo_terms_match_the_exact_composition_on_the_gate_08_cases():
    # the route's value on the gate-08 cases at n_max 6 is the exact
    # composition of the flux pair with the signed echo sum; one
    # independent quadrature level of the same convolution agrees with it
    # to within its estimate
    for L1, L2 in ((1.0, 1.0), (1.0, 2.0)):
        zs = [L2 * i / 6.0 for i in range(1, 6)]
        for t in (0.2, 0.7, 2.0):
            total = signed_echo_sum(L1, L2, t, 6)
            for x in zs:
                for y in zs:
                    pair = h._flux_pair_eval(L2, x, y, t)
                    exact, _ = pair.compose(total).at(t, 0.0)
                    value, est = conv_n([factor(total), factor(pair)], t, 3e-9)
                    assert abs(value - exact) <= est + 1e-14, (L1, L2, x, y, t)
                    assert exact == h.glue_intervals_II(L1, L2, x, y, t, 6)[0]


@pytest.mark.parametrize("n_max", range(9))
def test_echo_series_is_one_image_sum(n_max):
    # off the junction the flux pair composed with the signed echo sum, at
    # it the echo sum alone, each evaluated once at t; at order 0 the
    # junction's bound is vacuous (see the next test)
    cases = [(1.0, 1.0, 0.4, 0.6, 0.7), (1.0, 2.0, 0.0, 1.5, 0.2),
             (0.6, 1.3, 1.3, 0.0, 2.0)] + [(1.0, 1.0, 0.0, 0.0, 0.7)] * (n_max > 0)
    for L1, L2, x, y, t in cases:
        total = signed_echo_sum(L1, L2, t, n_max)
        if x or y:
            total = h._flux_pair_eval(L2, x, y, t).compose(total)
        value, _, _ = h.glue_intervals_II(L1, L2, x, y, t, n_max)
        assert value == total.at(t, 0.0)[0]


@pytest.mark.parametrize("L1,L2,x,y,t,n_max", [
    (1.0, 1.0, 0.0, 0.0, 0.7, 0),  # tail 0.48 against g_0(0.7) = 0.34
    (0.1, 0.1, 0.03, 0.04, 10.0, 6),
    (1.0, 1.0, 0.5, 0.5, 100.0, 6)])
def test_echo_series_raises_on_a_vacuous_bound(L1, L2, x, y, t, n_max):
    # 0 <= K_S - K_L2 <= g_|x-y|(t): a bound at or above that proves
    # nothing, and it is known from the tail before any echo chain is built
    start = time.perf_counter()
    with pytest.raises(h.TruncationError, match="a-priori bound") as info:
        h.glue_intervals_II(L1, L2, x, y, t, n_max)
    assert time.perf_counter() - start < 1.0
    assert info.value.achievable >= h.k_line(x, y, t)


GUARD_SCRIPT = """
import time
from heatglue import heat1d as h
for call in (lambda: h.glue_intervals_II(0.05, 0.07, 0.03, 0.04, 1000.0, 6),
             lambda: h.cut_circle_to_arc(0.3, (0.0, 0.1), 0.03, 0.07, 1000.0, 6)):
    start = time.perf_counter()
    try:
        call()
    except h.TruncationError as exc:
        assert "past the budget" in str(exc), exc
    else:
        raise AssertionError("no TruncationError")
    assert time.perf_counter() - start < 2.0
"""


def test_image_count_guard_raises_before_allocating():
    # the image counts grow like (reach/L)^2 with reach = sqrt(200 t), so
    # these two would compose tens of millions of images; under a 2 GB
    # address-space limit they must raise TruncationError, not MemoryError
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(h.__file__).resolve().parents[1])]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run(
        ["bash", "-c", 'ulimit -v 2000000 && exec "$0" -c "$1"',
         sys.executable, GUARD_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_glue_rays_is_one_image_sum():
    # h_x * h_y * g_0 is the single Gaussian g_(x+y)
    value, _, _ = h.glue_rays(0.8, 1.1, 0.6)
    assert value == h._ImageSum("g", [0.8 + 1.1], [1.0]).at(0.6, 0.0)[0]


# ---------------------------------------------------------------------------
# image sums against the merge they replace and against per-image loops
# ---------------------------------------------------------------------------


def unique_merge(d, w, reach):
    """The merge of an image sum as np.unique and a scatter add, the form
    the sort-and-segment merge replaced: the reference bit for bit."""
    d, pos = np.unique(np.asarray(d, dtype=float).ravel(), return_inverse=True)
    w = np.bincount(pos.ravel(), minlength=d.size,
                    weights=np.asarray(w, dtype=float).ravel())
    keep = (d <= reach) & (w != 0.0)
    return d[keep], w[keep]


def merge_cases():
    """Draws with ties up to dozens deep (past the 8 at which
    np.add.reduceat starts to sum pairwise), zero and exactly cancelling
    weights, distances past the reach and 1-D and 2-D shapes, then empty,
    cancelled and out-of-reach inputs."""
    for seed in range(24):
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(0, 25, size=1 + seed % 2))
        pool = rng.uniform(0.0, 10.0, int(rng.integers(1, 40)))
        d = rng.choice(pool, size=shape)
        w = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        w[rng.random(shape) < 0.2] = 0.0
        whole = rng.random(shape) < 0.3
        w[whole] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=int(whole.sum()))
        reach = float(rng.choice([math.inf, 5.0, float(pool[0])]))
        yield pytest.param(d, w, reach, id=f"seed{seed}")
    yield pytest.param([], [], 5.0, id="empty")
    yield pytest.param(np.zeros((0, 3)), np.zeros((0, 3)), 5.0, id="empty-2d")
    yield pytest.param([1.0, 1.0], [1.0, -1.0], 5.0, id="cancelled")
    yield pytest.param([7.0], [1.0], 5.0, id="past-reach")
    # a NaN distance is dropped at any reach, an infinite one kept at an
    # infinite reach only, and -0.0 merges with 0.0 under the sign of the
    # first given
    for reach in (math.inf, 5.0):
        tag = "infinite" if reach == math.inf else "finite"
        yield pytest.param([0.0, -0.0, 3.0, math.nan, 3.0, -0.0],
                           [1.0, 2.0, -1.0, 4.0, 1.0, -2.0], reach,
                           id=f"signed-zero-{tag}-reach")
        yield pytest.param([-0.0, 0.0, math.inf, 2.0, math.inf, math.nan],
                           [2.0, 1.0, 1.0, 0.5, 2.0, math.nan], reach,
                           id=f"inf-nan-{tag}-reach")
        yield pytest.param([math.nan, math.nan], [1.0, 1.0], reach,
                           id=f"all-nan-{tag}-reach")


@pytest.mark.parametrize("d,w,reach", merge_cases())
def test_image_sum_merge_is_the_unique_form_bit_for_bit(d, w, reach):
    got = h._ImageSum("h", d, w, reach)
    want_d, want_w = unique_merge(d, w, reach)
    assert got.d.dtype == got.w.dtype == np.float64
    assert got.d.shape == want_d.shape
    assert got.d.tobytes() == want_d.tobytes()
    assert got.w.tobytes() == want_w.tobytes()


def flux_reference(L, z, tau):
    total = math.fsum(a * math.exp(-a * a / (4.0 * tau))
                      for a in (z + 2.0 * k * L for k in range(-60, 61)))
    return total / (math.sqrt(4.0 * math.pi) * tau**1.5)


def circle_reference(L, d, tau, drop_center):
    total = math.fsum(math.exp(-(d + n * L) ** 2 / (4.0 * tau))
                      for n in range(-60, 61) if n or not drop_center)
    return total / math.sqrt(4.0 * math.pi * tau)


def echo_reference(L, tau):
    total = math.fsum(2.0 * k * L * math.exp(-k * k * L * L / tau)
                      for k in range(1, 121))
    return total / (math.sqrt(4.0 * math.pi) * tau**1.5)


# every sum below is well conditioned at its times: its terms share one
# sign or its leading term dominates, and no exponent that matters passes
# about 25, so 1e-14 relative is within reach of any summation order
TAUS = np.concatenate([np.geomspace(0.15, 1.0, 41), [0.0, -0.3]])


@pytest.mark.parametrize("L,z", [(1.0, 0.3), (1.7, 1.1), (0.6, 0.45)])
def test_flux_pulse_image_sum_matches_a_per_image_loop(L, z):
    # the signed images cancel once tau passes about L^2/4
    taus = np.concatenate([L * L * np.geomspace(0.02, 0.15, 41), [0.0, -0.3]])
    # y = 0: the pulse at z alone
    got = h._flux_pair_eval(L, z, 0.0, float(taus.max()))(taus)
    ref = [flux_reference(L, z, t) for t in taus[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("L,delta,drop", [(2.0, 0.0, True), (2.0, 0.7, False),
                                          (3.1, -1.2, False)])
def test_circle_pulse_image_sum_matches_a_per_image_loop(L, delta, drop):
    got = h._ring("g", L, delta, h._reach(1.0), skip_zero=drop)(TAUS)
    d = h._wrap_diff(delta, L)
    ref = [circle_reference(L, d, t, drop) for t in TAUS[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("L", [0.5, 1.0, 1.9])
def test_echo_density_matches_a_per_image_loop(L):
    got = h._echo_pulse(float(TAUS.max()), L)(TAUS)
    ref = [echo_reference(L, t) for t in TAUS[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


# ---------------------------------------------------------------------------
# gluing two rays
# ---------------------------------------------------------------------------


def test_glue_rays_reference_point():
    v, _, res = h.glue_rays(1.0, 1.0, 1.0)
    assert abs(v - math.exp(-1.0) / SQRT_4PI) < 1e-8
    assert res < 1e-8


def test_glue_rays_grid():
    for x in (0.5, 2.0):
        for y in (0.5, 1.0):
            for t in (0.5, 1.0):
                _, _, res = h.glue_rays(x, y, t)
                assert res < 1e-8


def test_glue_rays_reconstructs_a_linearly_vanishing_wall_kernel():
    # k_line minus the glued value is the Dirichlet ray kernel, which
    # must die linearly in x at the wall
    y, t = 0.8, 0.5
    gaps = []
    for x in (4e-3, 2e-3, 1e-3):
        v, _, _ = h.glue_rays(x, y, t)
        gaps.append((h.k_line(x, y, t) - v) / x)
    assert abs(gaps[1] / gaps[2] - 1.0) < 5e-3
    assert abs(gaps[2] - (-2.0 * h.dk_ray(y, t) / 2.0)) / abs(gaps[2]) < 1e-2


def test_glue_rays_extends_to_half_space_products():
    # in n dimensions the half-space kernel factorizes, and the glued
    # 1D value supplies the mirrored term of the first coordinate
    x = (0.7, 0.2, -0.4)
    y = (0.5, -0.1, 0.3)
    t = 0.6
    v, _, _ = h.glue_rays(x[0], y[0], t)
    rest = h.k_line(x[1], y[1], t) * h.k_line(x[2], y[2], t)
    direct = (h.k_line(x[0], y[0], t) - h.k_ray(x[0], y[0], t)) * rest
    assert abs(v * rest - direct) < 1e-12


@pytest.mark.parametrize("x,y,t", [(x, y, t) for x in (0.5, 1.0, 2.0)
                                   for y in (0.5, 1.0, 2.0) for t in (0.5, 1.0)]
                         + [(x, 0.8, 0.5) for x in (4e-3, 2e-3, 1e-3)])
def test_glue_rays_bound_covers_its_residual(x, y, t):
    # the gate-09 grid and the points near the wall
    v, bound, res = h.glue_rays(x, y, t)
    exact = float(h._ImageSum("g", [x + y], [1.0])(np.array([t]))[0])
    assert res <= bound < 1e-8
    assert abs(v - exact) <= bound


def test_glue_rays_validation():
    with pytest.raises(ValueError, match="positive"):
        h.glue_rays(0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# cutting a circle into an arc
# ---------------------------------------------------------------------------


def test_cut_circle_reference_point():
    v, _, res = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 4)
    assert res < 1e-5
    oracle, _ = h.k_interval(1.0, 0.3, 0.7, 0.4, "auto", TIGHT)
    assert abs(v - oracle) == res


def test_cut_circle_residual_is_non_increasing_in_depth():
    residuals = [h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, k)[2]
                 for k in range(5)]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] > 1e-2  # depth zero misses the interface entirely


def test_cut_circle_antipodal_symmetry():
    # cuts at 0 and 1 on a circle of length 2 sit antipodally: the half
    # turn z -> z + 1 swaps them and maps each arc onto the other, and the
    # reflection z -> 1 - z swaps x and y
    v, bound, _ = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 2)
    for x, y in ((0.7, 0.3), (1.3, 1.7), (1.7, 1.3)):
        vv, bb, _ = h.cut_circle_to_arc(2.0, (0.0, 1.0), x, y, 0.4, 2)
        assert abs(vv - v) < 1e-15
        assert abs(bb - bound) <= 1e-12 * bound


def test_cut_circle_other_arc():
    v, _, res = h.cut_circle_to_arc(2.0, (0.0, 1.0), 1.2, 1.9, 0.3, 3)
    assert res < 1e-4
    assert v > 0.0


@pytest.mark.parametrize("delta", [0.0, 0.7, 1.3])
def test_cut_hop_and_close_are_the_convolutions_of_their_pieces(delta):
    # h * h = h over summed distances for a hop, h * g = g for a close
    L, reach = 2.0, h._reach(1.0)
    taus = np.array([0.05, 0.2, 0.7, 1.0])
    state = h._ring("h", L, 0.3, reach)
    hop = h._ring("h", L, delta, reach, skip_zero=delta == 0.0)
    close = h._ring("g", L, delta - 0.45, reach)
    for piece in (hop, close):
        got = state.compose(piece)(taus)
        want, _ = conv_n([factor(state), factor(piece)], taus, 1e-13)
        assert np.all(np.abs(got - want) <= 1e-12)


def continuum_cuts(seed, count):
    """Circle cuts from the ranges of the continuum benchmark workload."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        L = round(rng.uniform(1.5, 3.0), 3)
        c1 = round(L * rng.uniform(0.3, 0.7), 4)
        a, b = (0.0, c1) if rng.random() < 0.5 else (c1, L)
        x, y = (round(a + (b - a) * rng.uniform(0.1, 0.9), 4) for _ in "xy")
        yield L, (0.0, c1), x, y, round(rng.uniform(0.1, 0.8), 3)


def test_cut_circle_bound_covers_the_dropped_terms():
    # the terms past k_max come from a run 30 orders deeper than any k_max
    for L, cuts, x, y, t in continuum_cuts(7919, 30):
        deep, _, _ = h.cut_circle_to_arc(L, cuts, x, y, t, 36)
        for k_max in range(7):
            v, bound, res = h.cut_circle_to_arc(L, cuts, x, y, t, k_max)
            assert abs(v - deep) <= bound, (L, cuts, x, y, t, k_max)
            assert res <= bound, (L, cuts, x, y, t, k_max)


README_CUT = (2.0, (0.0, 1.0), 0.3, 0.7, 0.4)  # the README's circle cut


def composed(a, b):
    """One pair composed and merged on its own, the image budget checked
    first: the composition that the fused sums replace."""
    h._check_images(a.d.size, b.d.size)
    return h._ImageSum("h" if a.kind == b.kind else "g",
                       np.add.outer(a.d, b.d), np.outer(a.w, b.w),
                       min(a.reach, b.reach))


def cut_sums_one_by_one(L, cuts, x, y, t, k_max):
    """The new states and the close of each order of a circle cut, in the
    order cut_circle_to_arc forms them, each pair composed and merged on
    its own and the two then added and merged again."""
    reach = h._reach(t)
    state = [h._ring("h", L, x - c, reach) for c in cuts]
    same = h._ring("h", L, 0.0, reach, skip_zero=True)
    cross = h._ring("h", L, cuts[0] - cuts[1], reach)
    close = [h._ring("g", L, c - y, reach) for c in cuts]
    for s, c in zip(state, close):
        h._check_images(s.d.size, c.d.size)
    sums = []
    for k in range(k_max + 1):
        if k:
            state = [added(composed(state[0], same), composed(state[1], cross)),
                     added(composed(state[0], cross), composed(state[1], same))]
            sums += state
        sums.append(added(composed(state[0], close[0]),
                          composed(state[1], close[1])))
    return sums


def fused_cut_sums(monkeypatch, L, cuts, x, y, t, k_max):
    """The sums that cut_circle_to_arc composes, in the order it forms
    them, and the value it returns."""
    sums = []
    fuse = h._compose_sum

    def record(*pairs):
        sums.append(fuse(*pairs))
        return sums[-1]

    with monkeypatch.context() as m:
        m.setattr(h, "_compose_sum", record)
        value, _, _ = h.cut_circle_to_arc(L, cuts, x, y, t, k_max,
                                          reference=0.0)
    return sums, value


def test_cut_sums_merged_once_are_the_sums_merged_one_by_one(monkeypatch):
    # every weight is an integer, so one merge of the two compositions of a
    # state or a close gives, byte for byte, what merging each composition
    # and then their sum gave
    for case in [*continuum_cuts(7919, 30), README_CUT]:
        L, _, x, y, t = case
        want = cut_sums_one_by_one(*case, 8)
        terms = [float(close(np.array([t]))[0]) for close in want[::3]]
        circle, _ = h.k_circle(L, x, y, t, "auto", h._TIGHT)
        for k_max in range(9):
            got, value = fused_cut_sums(monkeypatch, *case, k_max)
            assert len(got) == 3 * k_max + 1
            for g, w in zip(got, want):
                assert (g.kind, g.reach) == (w.kind, w.reach)
                assert g.d.tobytes() == w.d.tobytes(), (case, k_max)
                assert g.w.tobytes() == w.w.tobytes(), (case, k_max)
            assert value == circle - sum((-1.0) ** k * term for k, term
                                         in enumerate(terms[:k_max + 1]))


def test_cut_refuses_at_the_image_budget_where_one_by_one_did(monkeypatch):
    # each pair is checked against the budget before it is formed, so a
    # lowered budget refuses the same cuts, at the same pair, as before
    outcomes = []
    for budget in (40, 150, 400, 1200, 4000):
        monkeypatch.setattr(h, "_MAX_IMAGES", budget)
        for case in [*continuum_cuts(7919, 30), README_CUT]:
            for k_max in (0, 2, 4, 8):
                refusals = []
                for build in (cut_sums_one_by_one,
                              lambda *a: fused_cut_sums(monkeypatch, *a)[0]):
                    try:
                        build(*case, k_max)
                        refusals.append(None)
                    except h.TruncationError as exc:
                        assert "past the budget" in str(exc)
                        refusals.append(str(exc))
                assert refusals[0] == refusals[1], (budget, case, k_max)
                outcomes.append(refusals[0] is None)
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("k_max", range(9))
def test_cut_merges_each_state_and_close_once(monkeypatch, k_max):
    # six rings, then one close at order 0 and two states and a close at
    # every later order: 7 + 3 k_max image sums, 19 at k_max 4 (it was 45
    # while each composition was merged before the two were added)
    merge = h._ImageSum.__post_init__
    count = [0]

    def counted(self):
        count[0] += 1
        merge(self)

    monkeypatch.setattr(h._ImageSum, "__post_init__", counted)
    for case in [README_CUT, *continuum_cuts(7919, 3)]:
        count[0] = 0
        h.cut_circle_to_arc(*case, k_max, reference=0.0)
        assert count[0] <= 7 + 3 * k_max, case


def test_grid_factors_are_taken_once(monkeypatch):
    # route II takes its round trips once, for the echo tail and the
    # dropped images alike, and log(1 - e^(-rL)) once per length; the
    # circle cut takes that of its one length once
    calls = {}
    for name in ("_log_round_trips", "_log_gap"):
        def counted(*args, _f=getattr(h, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(h, name, counted)
    for case in [(1.0, 2.0, 0.5, 0.7, 0.4), (1.0, 1.0, 0.0, 0.0, 0.7),
                 (0.6, 1.3, 1.3, 0.0, 2.0)]:
        calls.clear()
        h.glue_intervals_II(*case, 6, reference=0.0)
        assert calls == {"_log_round_trips": 1, "_log_gap": 2}, case
    calls.clear()
    h.cut_circle_to_arc(*README_CUT, 4, reference=0.0)
    assert calls == {"_log_gap": 1}


def test_cut_circle_converges_to_rounding_at_depth_eight():
    _, bound, res = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 8)
    assert res <= 1e-13
    assert res <= bound < 1e-11


def test_arc_coordinates_measure_along_the_arc_of_both_points():
    assert h.arc_coordinates(2.0, (1.0, 0.0), 0.3, 0.7) == (1.0, 0.3, 0.7)
    ell, xl, yl = h.arc_coordinates(2.0, (0.0, 1.0), 1.2, 1.9)
    assert (ell, round(xl, 12), round(yl, 12)) == (1.0, 0.2, 0.9)
    ell, xl, yl = h.arc_coordinates(3.0, (2.5, 0.5), -0.25, 0.25)
    assert (ell, round(xl, 12), round(yl, 12)) == (1.0, 0.25, 0.75)
    with pytest.raises(ValueError, match="inside one arc"):
        h.arc_coordinates(2.0, (0.0, 1.0), 0.5, 1.0)


def test_cut_circle_validation():
    with pytest.raises(ValueError, match="two cut points"):
        h.cut_circle_to_arc(2.0, (0.5,), 0.3, 0.7, 0.4, 2)
    with pytest.raises(ValueError, match="distinct"):
        h.cut_circle_to_arc(2.0, (0.5, 0.5), 0.3, 0.7, 0.4, 2)
    with pytest.raises(ValueError, match="inside one arc"):
        h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 1.7, 0.4, 2)
    with pytest.raises(ValueError, match="inside one arc"):
        h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.0, 0.5, 0.4, 2)


# ---------------------------------------------------------------------------
# cylinder checks
# ---------------------------------------------------------------------------


def test_cylinder_factorization_on_grid():
    pts = [(x, y, g1, g2)
           for x in (0.3, 0.9) for y in (0.5, 1.1)
           for g1, g2 in ((0.2, 1.7), (0.0, 0.8))]
    res = h.cylinder_factorization_check(1.0, 1.3, 2.0, pts, 0.5)
    assert res < 1e-9


def test_cylinder_check_evaluates_each_interval_kernel_once(monkeypatch):
    # the whole and the side kernel per point, and no residual against the
    # direct two-kernel difference besides
    calls = []
    k_interval = h.k_interval

    def counted(*args):
        calls.append(args[0])
        return k_interval(*args)

    monkeypatch.setattr(h, "k_interval", counted)
    pts = [(0.3, 0.9, 0.2, 1.7), (1.1, 0.5, 0.0, 0.8)]
    assert h.cylinder_factorization_check(1.0, 1.3, 2.0, pts, 0.5) < 1e-9
    assert calls == [2.3, 1.3, 2.3, 1.3]


def point_joint(LI, LC, X, Y, g1, g2, t):
    """The joint eigenmode double sum at one point, spectrum and all, as
    the check took it point by point before the batch."""
    lam_cap = (50.0 + abs(math.log(max(1e-6, LI * LC)))) / t
    jmax = max(1, int(math.ceil(LI * math.sqrt(lam_cap) / math.pi)))
    kmax = max(1, int(math.ceil(LC * math.sqrt(lam_cap) / (2.0 * math.pi))))
    js = np.arange(1, jmax + 1)
    ks = np.arange(0, kmax + 1)
    lam = (math.pi ** 2 / LI ** 2) * np.square(js)[:, None] \
        + (4.0 * math.pi ** 2 / LC ** 2) * np.square(ks)[None, :]
    amp_i = (2.0 / LI) * np.sin(math.pi * js * X / LI) \
        * np.sin(math.pi * js * Y / LI)
    amp_c = np.where(ks == 0, 1.0 / LC,
                     (2.0 / LC) * np.cos(2.0 * math.pi * ks * (g1 - g2) / LC))
    amp = amp_i[:, None] * amp_c[None, :]
    keep = lam <= lam_cap
    lam_f, amp_f = lam[keep], amp[keep]
    order = np.argsort(lam_f)[::-1]
    return float(np.sum(amp_f[order] * np.exp(-lam_f[order] * t)))


def test_batched_cylinder_check_is_the_point_by_point_check():
    rng = np.random.default_rng(11)
    for _ in range(40):
        L1, L2, LC = rng.uniform(0.5, 2.0, 3)
        t = rng.uniform(0.05, 2.0)
        pts = [(x, y, g1, g2) for x, y, g1, g2 in zip(
            *rng.uniform(0.0, L2, (2, 4)), *rng.uniform(0.0, LC, (2, 4)))]
        joints = h._cylinder_joint(L1 + L2, LC, [(L1 + x, L1 + y, g1, g2)
                                                 for x, y, g1, g2 in pts], t)
        assert joints == [point_joint(L1 + L2, LC, L1 + x, L1 + y, g1, g2, t)
                          for x, y, g1, g2 in pts]
        assert h.cylinder_factorization_check(L1, L2, LC, pts, t) == max(
            h.cylinder_factorization_check(L1, L2, LC, [p], t) for p in pts)


def test_cylinder_factorization_is_slice_independent():
    pts = [(0.3, 0.5, 0.2, 0.7)]
    for circle_L in (1.0, 2.0, 3.5):
        assert h.cylinder_factorization_check(1.0, 1.3, circle_L, pts, 0.5) < 1e-9


def test_cylinder_joint_sum_respects_the_semigroup_in_each_factor():
    # t-additivity holds factor by factor, so composing the interval and
    # circle parts separately must land on the joint kernel at t1 + t2
    S, LC = 2.3, 2.0
    X, Y, g1, g2 = 0.8, 1.5, 0.3, 1.1
    t1, t2 = 0.3, 0.45
    interval_part = gauss_integral(
        lambda z: h.k_interval(S, X, z, t1, "auto", TIGHT)[0]
        * h.k_interval(S, z, Y, t2, "auto", TIGHT)[0], 0.0, S)
    circle_part = gauss_integral(
        lambda g: h.k_circle(LC, g1, g, t1, "auto", TIGHT)[0]
        * h.k_circle(LC, g, g2, t2, "auto", TIGHT)[0], 0.0, LC)
    (joint,) = h._cylinder_joint(S, LC, [(X, Y, g1, g2)], t1 + t2)
    assert abs(interval_part * circle_part - joint) < 1e-8


def test_dn_cylinder_reference_eigenvalue():
    rep = h.dn_cylinder(1.0, [0.0], 1.0)
    assert abs(rep.lambdas[0] - 1.0 / math.tanh(1.0)) < 1e-14
    assert abs(rep.lambdas[0] - 1.3130353) < 1e-7


def test_dn_cylinder_gap_asymptotics():
    L, m2 = 1.0, 1.0
    omegas = [24.0, 35.0, 99.0]  # mu = 5, 6, 10, all with mu L > 4
    rep = h.dn_cylinder(L, omegas, m2)
    for w, gap in zip(omegas, rep.gaps):
        mu = math.sqrt(m2 + w)
        approx = 2.0 * mu * math.exp(-2.0 * L * mu)
        assert abs(gap - approx) < 0.05 * approx


def test_dn_cylinder_ratio_decreases_with_mass():
    omegas = [(2.0 * math.pi * k / 2.0) ** 2 for k in range(6)]
    ratios = [h.dn_cylinder(1.0, omegas, float(m * m)).ratio
              for m in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_dn_cylinder_validation():
    with pytest.raises(ValueError, match="m2"):
        h.dn_cylinder(1.0, [0.0], 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        h.dn_cylinder(1.0, [-1.0], 1.0)
    with pytest.raises(ValueError, match="L must be"):
        h.dn_cylinder(0.0, [0.0], 1.0)
