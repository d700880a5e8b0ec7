"""Tests for the 1D heat kernels and the gluing and cutting checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatglue import heat1d as h
from heatglue.quadsim import conv_n, inverse_pow_gaussian

SQRT_4PI = math.sqrt(4.0 * math.pi)
TIGHT = h.EvalParams(eps_abs=1e-14, max_terms=10**6)


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
    direct = h._glue_direct(1.0, 1.0, 0.4, 0.6, 0.7)
    assert abs(v - direct) < 1e-12


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


# ---------------------------------------------------------------------------
# gluing two intervals, echo-series route
# ---------------------------------------------------------------------------


def echo_rate(L, t):
    """Sharp-pulse form of the round trips, before flat smoothing: its
    convolution with the flat pulse 1/sqrt(4 pi t) is echo_density."""
    tp = np.asarray(t, dtype=float)
    kcap = int(math.ceil(math.sqrt(70.0 * float(tp.max())) / L)) + 2
    kk = np.square(np.arange(1.0, kcap + 1.0)[:, None] * L)
    pulses = (2.0 / SQRT_4PI) * (2.0 * kk / tp - 1.0) * np.exp(-kk / tp)
    return pulses.sum(axis=0) * tp**-1.5


def test_echo_density_two_routes_agree():
    rate = inverse_pow_gaussian(lambda tau: echo_rate(1.0, tau), c=1.0,
                                alpha=2.5)
    got, _ = conv_n([h._FLAT, rate], 1.0, 1e-11)
    direct = h.echo_density(1.0, 1.0)
    term_sum = 2.0 * sum(
        k * math.exp(-k * k) for k in range(1, 12)) / SQRT_4PI
    assert abs(direct - term_sum) < 1e-15
    assert abs(got - direct) < 1e-9


def test_echo_sup_dominates_samples():
    C = h.echo_sup(1.0, 1.0)
    for t in np.linspace(0.05, 10.0, 117):
        assert h.echo_density(1.0, t) + h.echo_density(1.0, t) <= C * (1 + 1e-9)
    assert 0.4 < C < 0.6


def test_echo_series_reference_point():
    v, tail, res = h.glue_intervals_II(1.0, 1.0, 0.4, 0.6, 0.7, 6)
    assert res < max(1e-6, tail)
    assert tail < 1e-5


@pytest.mark.parametrize("L1,L2,x,y,t", [(1.0, 2.0, 1 / 3, 1 / 3, 0.7),
                                         (1.0, 1.0, 1 / 6, 1 / 6, 0.2)])
def test_echo_series_bound_covers_its_residual(L1, L2, x, y, t):
    # at n_max 8 the truncation tail alone is below the residual here
    # (5.4e-12 against 3.1e-10, and 7.9e-14 against 1.3e-11); the
    # quadrature estimates of the kept terms make up the difference
    _, bound, res = h.glue_intervals_II(L1, L2, x, y, t, 8)
    assert res <= bound


def test_echo_series_first_correction_is_bounded_by_sup_times_time():
    t = 0.7
    v0, _, _ = h.glue_intervals_II(1.0, 1.0, 0.4, 0.6, t, 0)
    v1, _, _ = h.glue_intervals_II(1.0, 1.0, 0.4, 0.6, t, 1)
    assert abs(v0 - v1) <= h.echo_sup(1.0, 1.0) * t


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


def test_second_gluing_of_an_interval_pair_reuses_its_echo_chain():
    h.glue_intervals_II(1.3, 0.9, 0.2, 0.5, 0.3, 6)
    before = h._echo_chain_factor.cache_info()
    h.glue_intervals_II(1.3, 0.9, 0.6, 0.4, 0.6, 6)
    after = h._echo_chain_factor.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_echo_sup_cache_is_bounded():
    maxsize = h.echo_sup.cache_info().maxsize
    for i in range(maxsize + 1):
        h.echo_sup(1.0, 1.0 + 0.01 * (i + 1))
    assert h.echo_sup.cache_info().currsize <= maxsize


# ---------------------------------------------------------------------------
# route-II integrand kernels against plain per-point and per-image loops
# ---------------------------------------------------------------------------


def barycentric_reference(interp, tau):
    """The decay interpolant at one time, one node at a time."""
    if not tau > 0.0 or 1.0 / tau > interp.uhi:
        return 0.0
    u = max(1.0 / tau, interp.ulo)
    n = interp.u.size
    weights = [(0.5 if j in (0, n - 1) else 1.0) * (-1.0) ** j
               for j in range(n)]
    num = den = 0.0
    for uj, hj, wj in zip(interp.u, interp.h, weights):
        if abs(u - uj) < 1e-14 * (interp.uhi - interp.ulo):
            num, den = hj, 1.0
            break
        num += wj * hj / (u - uj)
        den += wj / (u - uj)
    return num / den * math.exp(-interp.c * (u - interp.ulo))


@pytest.mark.parametrize("n_nodes", [97, 161])
def test_decay_interp_matches_a_per_point_barycentric_sum(n_nodes):
    def profile(tau):
        return np.exp(-0.5 / tau) * np.cos(3.0 * tau) / tau

    interp = h._DecayInterp(profile, 4.0, 0.4, n_nodes=n_nodes)
    span = interp.uhi - interp.ulo
    rng = np.random.default_rng(n_nodes)
    u_near = np.concatenate([interp.u + 1e-15 * span * rng.uniform(-1, 1, n_nodes),
                             interp.u[1:] - 1e-15])
    taus = np.concatenate([
        1.0 / rng.uniform(interp.ulo, interp.uhi, 600),  # several blocks
        1.0 / interp.u,                                   # the nodes
        1.0 / np.clip(u_near, interp.ulo, interp.uhi),    # within 1e-15
        [0.0, -1.0, 0.5 / interp.uhi, 0.9 / interp.uhi,   # outside [ulo, uhi]
         4.0, 7.5],
    ])
    got = interp(taus)
    scale = float(np.abs(interp.h).max())
    ref = np.array([barycentric_reference(interp, t) for t in taus])
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    assert np.all(got[-6:-2] == 0.0)
    assert got[-1] == got[-2] == interp.h[0]  # past t_max: the value there
    assert np.array_equal(interp(taus[:600].reshape(40, 15)),
                          interp(taus[:600]).reshape(40, 15))
    one = interp(float(taus[3]))
    assert isinstance(one, float) and abs(one - ref[3]) <= 1e-14 * scale


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
    got = h._flux_pulse_eval(L, z)(taus)
    ref = [flux_reference(L, z, t) for t in taus[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("L,delta,drop", [(2.0, 0.0, True), (2.0, 0.7, False),
                                          (3.1, -1.2, False)])
def test_circle_pulse_image_sum_matches_a_per_image_loop(L, delta, drop):
    got = h._circle_pulse(L, delta, drop_center=drop)(TAUS)
    d = h._wrap_diff(delta, L)
    ref = [circle_reference(L, d, t, drop) for t in TAUS[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


@pytest.mark.parametrize("L", [0.5, 1.0, 1.9])
def test_echo_density_matches_a_per_image_loop(L):
    got = h.echo_density(L, TAUS)
    ref = [echo_reference(L, t) for t in TAUS[:-2]]
    assert np.allclose(got[:-2], ref, rtol=1e-14, atol=0.0)
    assert np.all(got[-2:] == 0.0)


# ---------------------------------------------------------------------------
# gluing two rays
# ---------------------------------------------------------------------------


def test_glue_rays_reference_point():
    v, res = h.glue_rays(1.0, 1.0, 1.0)
    assert abs(v - math.exp(-1.0) / SQRT_4PI) < 1e-8
    assert res < 1e-8


def test_glue_rays_grid():
    for x in (0.5, 2.0):
        for y in (0.5, 1.0):
            for t in (0.5, 1.0):
                _, res = h.glue_rays(x, y, t)
                assert res < 1e-8


def test_glue_rays_reconstructs_a_linearly_vanishing_wall_kernel():
    # k_line minus the glued value is the Dirichlet ray kernel, which
    # must die linearly in x at the wall
    y, t = 0.8, 0.5
    gaps = []
    for x in (4e-3, 2e-3, 1e-3):
        v, _ = h.glue_rays(x, y, t)
        gaps.append((h.k_line(x, y, t) - v) / x)
    assert abs(gaps[1] / gaps[2] - 1.0) < 5e-3
    assert abs(gaps[2] - (-2.0 * h.dk_ray(y, t) / 2.0)) / abs(gaps[2]) < 1e-2


def test_glue_rays_extends_to_half_space_products():
    # in n dimensions the half-space kernel factorizes, and the glued
    # 1D value supplies the mirrored term of the first coordinate
    x = (0.7, 0.2, -0.4)
    y = (0.5, -0.1, 0.3)
    t = 0.6
    v, _ = h.glue_rays(x[0], y[0], t)
    rest = h.k_line(x[1], y[1], t) * h.k_line(x[2], y[2], t)
    direct = (h.k_line(x[0], y[0], t) - h.k_ray(x[0], y[0], t)) * rest
    assert abs(v * rest - direct) < 1e-12


def test_glue_rays_validation():
    with pytest.raises(ValueError, match="positive"):
        h.glue_rays(0.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# flat-boundary response pulse (the s^(-3/2) finite-part kernel)
# ---------------------------------------------------------------------------


def test_flat_boundary_response_on_erfc_profile():
    # erfc((x+y)/2 sqrt(t))/4 under the response pulse must reproduce the
    # free kernel at separation x+y; closed-form oracle via math.erfc
    for z, tau in [(1.2, 0.4), (2.0, 1.0), (1.0, 0.25)]:
        def psi(tt, z=z):
            tt = np.atleast_1d(np.asarray(tt, dtype=float))
            out = np.zeros_like(tt)
            pos = tt > 0
            out[pos] = 0.25 * np.array(
                [math.erfc(z / (2.0 * math.sqrt(s))) for s in tt[pos]])
            return out
        got = h._dn_flat_conv(psi, tau, 1e-10)
        ref = math.exp(-z * z / (4.0 * tau)) / math.sqrt(4.0 * math.pi * tau)
        assert abs(got - ref) < 1e-11


# ---------------------------------------------------------------------------
# cutting a circle into an arc
# ---------------------------------------------------------------------------


def test_cut_circle_reference_point():
    v, res = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 4)
    assert res < 1e-5
    oracle, _ = h.k_interval(1.0, 0.3, 0.7, 0.4, "auto", TIGHT)
    assert abs(v - oracle) == res


def test_cut_circle_residual_is_non_increasing_in_depth():
    residuals = [h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, k)[1]
                 for k in range(5)]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] > 1e-2  # depth zero misses the interface entirely


def test_cut_circle_antipodal_symmetry():
    chain = h._CutChain(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, tol=1e-9)
    taus = np.array([0.05, 0.2, 0.4])
    a = chain._tilde[0, 1][0].evaluator(taus)
    b = chain._tilde[1, 0][0].evaluator(taus)
    assert np.allclose(a, b, rtol=0.0, atol=1e-15)
    v_xy, _ = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.3, 0.7, 0.4, 2)
    v_yx, _ = h.cut_circle_to_arc(2.0, (0.0, 1.0), 0.7, 0.3, 0.4, 2)
    assert abs(v_xy - v_yx) < 1e-7


def test_cut_circle_other_arc():
    v, res = h.cut_circle_to_arc(2.0, (0.0, 1.0), 1.2, 1.9, 0.3, 3)
    assert res < 1e-4
    assert v > 0.0


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
    joint = h._cylinder_joint(S, LC, X, Y, g1, g2, t1 + t2)
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
